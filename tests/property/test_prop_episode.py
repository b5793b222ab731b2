"""Property tests for a pre-execute episode's boundaries and teardown.

An episode runs ``trace[start:end]`` with ``end`` fixed up front by the
trace length, the instruction cap and the budget; whatever it ran, it
leaves no speculative state behind (Section 3.4.3's state recovery).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.config import (
    CacheConfig,
    ITSConfig,
    MachineConfig,
    MemoryConfig,
    TLBConfig,
)
from repro.common.units import KIB
from repro.cpu.isa import Branch, Compute, Load, Store
from repro.cpu.registers import NUM_REGISTERS, RegisterFile
from repro.cpu.runahead import PreExecuteEngine
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.preexec_cache import PreExecuteCache
from repro.vm.frames import FrameAllocator
from repro.vm.mm import MemoryManager
from repro.vm.replacement import GlobalLRUPolicy
from repro.vm.swap import SwapArea

BASE_VPN = 0x200
MAPPED = 8
"""Pages BASE_VPN .. BASE_VPN+7 are mapped; the first half is resident.
Page BASE_VPN+8 is never mapped (no PTE at all)."""


def build_engine(per_instr, cap):
    config = MachineConfig(
        llc=CacheConfig(size_bytes=16 * KIB, ways=4),
        tlb=TLBConfig(entries=8),
        memory=MemoryConfig(dram_frames=16),
        its=ITSConfig(preexec_instr_ns=per_instr, preexec_max_instructions=cap),
    )
    memory = MemoryManager(FrameAllocator(16, 4096), SwapArea(64), GlobalLRUPolicy())
    memory.register_process(1, range(BASE_VPN, BASE_VPN + MAPPED))
    for vpn in range(BASE_VPN, BASE_VPN + MAPPED // 2):
        memory.install_page(1, vpn)
    hierarchy = MemoryHierarchy(config.llc.halved(), config.memory)
    # A small store buffer so long episodes retire stores into the
    # pre-execute cache before the teardown drains the rest.
    return PreExecuteEngine(
        config,
        hierarchy,
        memory,
        PreExecuteCache(config.llc.halved()),
        store_buffer_capacity=4,
    )


regs = st.integers(0, NUM_REGISTERS - 1)
addr_regs = st.one_of(st.none(), regs)


@st.composite
def vaddrs(draw):
    vpn = BASE_VPN + draw(st.integers(0, MAPPED))
    return (vpn << 12) + draw(st.integers(0, 63)) * 64


instructions = st.one_of(
    st.builds(Compute, dst=regs, srcs=st.lists(regs, max_size=3).map(tuple)),
    st.builds(Load, dst=regs, vaddr=vaddrs(), addr_reg=addr_regs),
    st.builds(Store, src=regs, vaddr=vaddrs(), addr_reg=addr_regs),
    st.builds(Branch, srcs=st.lists(regs, max_size=2).map(tuple), taken=st.booleans()),
)
traces = st.lists(instructions, min_size=1, max_size=120)


def assert_no_speculative_state(engine, registers, before):
    assert engine.preexec_cache.resident_lines() == 0
    assert len(engine.store_buffer) == 0
    assert registers.checkpoint() == before
    page_table = engine.memory.mm_of(1).page_table
    assert not any(pte.inv for __, pte in page_table.iter_ptes_from(0, inclusive=True))


@given(
    traces,
    st.integers(0, 130),
    st.integers(-5, 400),
    st.integers(1, 7),
    st.integers(1, 90),
    st.one_of(st.none(), regs),
)
@settings(max_examples=150, deadline=None)
def test_episode_length_is_min_of_trace_cap_and_budget(
    trace, start, budget, per_instr, cap, faulting_reg
):
    engine = build_engine(per_instr, cap)
    registers = RegisterFile()
    registers.set_invalid(3)
    before = registers.checkpoint()
    episode, discovered = engine.run_episode(
        1, registers, trace, start, budget, faulting_reg=faulting_reg
    )
    if budget <= 0 or start >= len(trace):
        assert episode.episodes == 0 and episode.instructions == 0
    else:
        assert episode.episodes == 1
        assert episode.instructions == min(len(trace) - start, cap, budget // per_instr)
    assert len(discovered) == episode.faults_discovered
    assert engine.stats.instructions == episode.instructions
    assert_no_speculative_state(engine, registers, before)


@given(traces, st.data())
@settings(max_examples=60, deadline=None)
def test_back_to_back_episodes_leave_nothing_behind(trace, data):
    engine = build_engine(per_instr=1, cap=200)
    registers = RegisterFile()
    before = registers.checkpoint()
    for __ in range(3):
        start = data.draw(st.integers(0, len(trace) - 1))
        engine.run_episode(1, registers, trace, start, 10**6, faulting_reg=0)
        assert_no_speculative_state(engine, registers, before)


@given(traces, st.data())
@settings(max_examples=60, deadline=None)
def test_unknown_instruction_raises_type_error(trace, data):
    engine = build_engine(per_instr=1, cap=1024)
    at = data.draw(st.integers(0, len(trace)))
    trace = trace[:at] + [object()] + trace[at:]
    registers = RegisterFile()
    before = registers.checkpoint()
    with pytest.raises(TypeError):
        engine.run_episode(1, registers, trace, 0, 10**6, faulting_reg=0)
    # The episode is torn down even when an instruction is rejected.
    assert_no_speculative_state(engine, registers, before)
