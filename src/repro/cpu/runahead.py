"""The pre-execute (runahead) engine.

Implements the fault-aware pre-execute policy's instruction semantics
(Section 3.4.2, Figure 3).  The same engine serves two users:

* the **Sync_Runahead** baseline, which opens a short episode on every
  demand LLC miss (footnote 4: "traditional runahead execution runs the
  pre-execution during handling cache misses");
* the **ITS self-improving thread**, which opens a long episode during a
  major page fault's synchronous busy-wait.

An episode checkpoints the register file, speculatively walks the
instruction stream under INV-propagation rules, warms the LLC with valid
loads/stores, confines speculative store data to the store buffer and
pre-execute cache, and finally restores the checkpoint and wipes all
speculative state.  Memory-level parallelism is modelled by charging each
pre-executed instruction a fixed small cost while letting the cache fills
it triggers overlap with the stall being hidden (the standard runahead
idealisation: fills complete by the time the core resumes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.common.config import MachineConfig
from repro.cpu.isa import Branch, Compute, Instruction, Load, Store
from repro.cpu.registers import RegisterFile, ShadowRegisterFile
from repro.mem.hierarchy import MemoryHierarchy
from repro.mem.preexec_cache import PreExecuteCache
from repro.mem.store_buffer import StoreBuffer
from repro.telemetry.registry import DEFAULT_COUNT_BOUNDS
from repro.vm.mm import MemoryManager
from repro.vm.page_table import PageTableEntry


@dataclass
class PreExecuteStats:
    """Counters accumulated across pre-execute episodes."""

    episodes: int = 0
    instructions: int = 0
    skipped_invalid: int = 0
    lines_warmed: int = 0
    faults_discovered: int = 0
    store_buffer_retirements: int = 0

    def merged(self, other: "PreExecuteStats") -> "PreExecuteStats":
        """Element-wise sum."""
        return PreExecuteStats(
            episodes=self.episodes + other.episodes,
            instructions=self.instructions + other.instructions,
            skipped_invalid=self.skipped_invalid + other.skipped_invalid,
            lines_warmed=self.lines_warmed + other.lines_warmed,
            faults_discovered=self.faults_discovered + other.faults_discovered,
            store_buffer_retirements=self.store_buffer_retirements
            + other.store_buffer_retirements,
        )


class PreExecuteEngine:
    """Runs pre-execute episodes against a process's upcoming trace."""

    def __init__(
        self,
        config: MachineConfig,
        hierarchy: MemoryHierarchy,
        memory: MemoryManager,
        preexec_cache: PreExecuteCache,
        store_buffer_capacity: int = 32,
        *,
        telemetry=None,
    ) -> None:
        self.config = config
        self.hierarchy = hierarchy
        self.memory = memory
        self.preexec_cache = preexec_cache
        self.store_buffer = StoreBuffer(store_buffer_capacity)
        self.stats = PreExecuteStats()
        self.telemetry = telemetry
        self._dirty_inv_ptes: list[PageTableEntry] = []

    def run_episode(
        self,
        pid: int,
        registers: RegisterFile,
        trace: list[Instruction],
        start_index: int,
        budget_ns: int,
        *,
        faulting_reg: Optional[int] = None,
    ) -> tuple[PreExecuteStats, list[int]]:
        """Pre-execute from ``trace[start_index]`` within *budget_ns*.

        ``faulting_reg`` is the destination of the instruction whose data
        triggered the episode — "the initial invalid data is what triggers
        the page fault" — so it enters the episode marked INV.

        Returns ``(episode_stats, discovered_fault_vpns)``; the second
        element lists non-resident pages the speculative stream touched,
        which the ITS prefetcher may exploit.  All architectural state is
        restored before returning, also when an instruction is rejected:
        dispatch is on the exact instruction type, and anything but the
        four ISA types raises ``TypeError``.
        """
        if budget_ns <= 0 or start_index >= len(trace):
            return PreExecuteStats(), []

        its = self.config.its
        end = min(
            len(trace),
            start_index + its.preexec_max_instructions,
            start_index + budget_ns // its.preexec_instr_ns,
        )
        lookup_vpn = self.memory.mm_of(pid).page_table.lookup_vpn
        page_shift = self.memory.page_shift
        page_size = 1 << page_shift
        offset_mask = page_size - 1
        llc = self.hierarchy.llc
        llc_access = llc.access
        buffer = self.store_buffer
        cache_lookup = self.preexec_cache.lookup
        cache_write = self.preexec_cache.write
        mark_dirty = self._dirty_inv_ptes.append
        discovered: list[int] = []
        skipped = warmed = faults = retirements = 0

        shadow = registers.checkpoint()
        if faulting_reg is not None:
            registers.set_invalid(faulting_reg, True)
        # The episode's INV bits live in a local mask: the checkpoint is
        # restored at the end, so nothing is written back.
        inv = registers.inv_mask
        try:
            for instr in trace[start_index:end]:
                kind = type(instr)
                if kind is Compute:
                    dst_bit = 1 << instr.dst
                    for src in instr.srcs:
                        if inv >> src & 1:
                            inv |= dst_bit
                            skipped += 1
                            break
                    else:
                        inv &= ~dst_bit

                elif kind is Load:
                    dst_bit = 1 << instr.dst
                    addr_reg = instr.addr_reg
                    if addr_reg is not None and inv >> addr_reg & 1:
                        # Bogus address: skip the access, poison the destination.
                        inv |= dst_bit
                        skipped += 1
                        continue
                    vaddr = instr.vaddr
                    # Figure 3b step 1: youngest overlapping store-buffer entry wins.
                    buffered = buffer.lookup(vaddr, instr.size)
                    if buffered is not None:
                        valid = not buffered.invalid
                    else:
                        # Step 2: the pre-execute cache, with per-byte INV checking.
                        valid = cache_lookup(vaddr, instr.size)
                    if valid is None:
                        vpn = vaddr >> page_shift
                        pte = lookup_vpn(vpn)
                        if pte is None or not pte.present:
                            # Step 0: data still on the storage device -> invalid.
                            inv |= dst_bit
                            skipped += 1
                            faults += 1
                            discovered.append(vpn)
                            continue
                        paddr = pte.frame * page_size + (vaddr & offset_mask)
                        if llc_access(paddr, owner=pid, preexec=True):
                            # Step 3: present in the main cache -> the PTE INV bit.
                            valid = not pte.inv
                        else:
                            # Step 4: only in memory -> valid; the line is now cached.
                            warmed += 1
                            valid = True
                    if valid:
                        inv &= ~dst_bit
                    else:
                        inv |= dst_bit
                        skipped += 1

                elif kind is Store:
                    addr_reg = instr.addr_reg
                    if addr_reg is not None and inv >> addr_reg & 1:
                        skipped += 1
                        continue
                    vaddr = instr.vaddr
                    vpn = vaddr >> page_shift
                    pte = lookup_vpn(vpn)
                    if pte is None or not pte.present:
                        # Figure 3a step 0: data on the storage device ->
                        # invalid store; allocate a pre-execute cache line
                        # with INV bytes and set the PTE INV bit.
                        cache_write(vaddr, instr.size, invalid=True)
                        if pte is not None and not pte.inv:
                            pte.inv = True
                            mark_dirty(pte)
                        skipped += 1
                        faults += 1
                        discovered.append(vpn)
                        continue
                    invalid = bool(inv >> instr.src & 1)
                    # Step 1: the result enters the store buffer with its INV status.
                    retired = buffer.push(vaddr, instr.size, invalid=invalid)
                    if retired is not None:
                        # Step 3: retirement transfers data + INV bits to the
                        # pre-execute cache.
                        cache_write(retired.address, retired.size, invalid=retired.invalid)
                        retirements += 1
                    # Step 2: data in memory but not in the cache -> fetch query.
                    paddr = pte.frame * page_size + (vaddr & offset_mask)
                    if not llc.contains(paddr):
                        llc_access(paddr, owner=pid, preexec=True)
                        warmed += 1
                    if invalid:
                        skipped += 1
                        if not pte.inv:
                            pte.inv = True
                            mark_dirty(pte)

                elif kind is Branch:
                    # INV-source branches follow the traced outcome (predictor).
                    registers.record_branch(instr.taken)

                else:
                    raise TypeError(f"unknown instruction {instr!r}")
        finally:
            retirements += self._end_episode(registers, shadow)

        episode = PreExecuteStats(
            episodes=1,
            instructions=end - start_index,
            skipped_invalid=skipped,
            lines_warmed=warmed,
            faults_discovered=faults,
            store_buffer_retirements=retirements,
        )
        self.stats = self.stats.merged(episode)
        if self.telemetry is not None:
            tel = self.telemetry
            tel.histogram(
                "runahead.instructions", DEFAULT_COUNT_BOUNDS
            ).observe(episode.instructions)
            tel.histogram(
                "runahead.skipped_inv", DEFAULT_COUNT_BOUNDS
            ).observe(episode.skipped_invalid)
            tel.counter("runahead.episodes").inc()
            tel.counter("runahead.lines_warmed").inc(episode.lines_warmed)
            tel.counter("runahead.faults_discovered").inc(episode.faults_discovered)
        return episode, discovered

    # -- episode teardown ------------------------------------------------------

    def _end_episode(self, registers: RegisterFile, shadow: ShadowRegisterFile) -> int:
        """Drain the remaining buffered stores into the pre-execute cache,
        then wipe all speculative state: the pre-execute cache contents,
        the PTE INV bits set this episode, and the register file.
        Returns the number of stores drained."""
        drained = 0
        for entry in self.store_buffer.drain():
            self.preexec_cache.write(entry.address, entry.size, invalid=entry.invalid)
            drained += 1
        self.preexec_cache.clear()
        for pte in self._dirty_inv_ptes:
            pte.inv = False
        self._dirty_inv_ptes.clear()
        registers.restore(shadow)
        return drained
