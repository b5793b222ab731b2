"""Per-process memory descriptors and the global memory manager.

:class:`MMStruct` mirrors the kernel's ``mm_struct``: it owns the
process's page table and fault counters.  :class:`MemoryManager` owns the
shared frame pool, swap area, swap cache and replacement policy, and
implements the residency state machine every I/O policy builds on:

* touch of a resident page      -> plain access;
* touch of a swap-cached page   -> **minor fault** (map the frame, no I/O);
* touch of a swapped-out page   -> **major fault** (device I/O required).

The paper "concentrates solely on addressing major page faults due to
their more substantial impact on execution time"; minor faults still cost
handler time but never storage time.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.common.errors import SimulationError
from repro.vm.frames import FrameAllocator
from repro.vm.page_table import PageTable, PageTableEntry
from repro.vm.replacement import ReplacementPolicy, ResidentPage
from repro.vm.swap import SwapArea, SwapCache


class FaultKind(enum.Enum):
    """Classification of one memory touch."""

    HIT = "hit"
    MINOR = "minor"
    MAJOR = "major"


@dataclass
class TouchResult:
    """Outcome of :meth:`MemoryManager.classify_touch`.

    ``pte`` is the resolved leaf entry (set for HIT/MINOR) so callers can
    update access/dirty bits without a second walk.
    """

    kind: FaultKind
    frame: Optional[int] = None
    pte: Optional[PageTableEntry] = None


@dataclass
class MMStruct:
    """Per-process memory descriptor."""

    pid: int
    page_table: PageTable = field(default_factory=PageTable)
    footprint_pages: int = 0
    major_faults: int = 0
    minor_faults: int = 0
    resident_pages: int = 0

    def pte_for(self, vpn: int) -> Optional[PageTableEntry]:
        """Leaf PTE for *vpn*, if mapped."""
        return self.page_table.lookup_vpn(vpn)


EvictCallback = Callable[[int, int, int], None]
"""Callback (pid, vpn, frame) fired when a page is evicted from DRAM."""


class MemoryManager:
    """The shared virtual-memory substrate of one simulated machine."""

    def __init__(
        self,
        frames: FrameAllocator,
        swap: SwapArea,
        replacement: ReplacementPolicy,
    ) -> None:
        self.frames = frames
        self.swap = swap
        self.swap_cache = SwapCache()
        self.replacement = replacement
        # ``vaddr >> page_shift`` is the virtual page number at this
        # machine's page size: with the default 4 KiB pages it matches
        # :func:`repro.vm.address.page_number`; with huge pages (e.g.
        # 2 MiB) the numbering is correspondingly coarser.
        self.page_shift = frames.page_size.bit_length() - 1
        self._mms: dict[int, MMStruct] = {}
        self._evict_callbacks: list[EvictCallback] = []
        self.evictions = 0

    # -- process setup ------------------------------------------------------

    def register_process(self, pid: int, vpns: Iterable[int]) -> MMStruct:
        """Create the MMStruct for *pid* and map its footprint to swap.

        Every page starts swapped out (cold start), matching the paper's
        setup where DRAM is sized below the combined footprints and pages
        stream in through faults.
        """
        if pid in self._mms:
            raise SimulationError(f"pid {pid} registered twice")
        mm = MMStruct(pid=pid)
        for vpn in vpns:
            pte = mm.page_table.ensure_vpn(vpn)
            pte.unmap(self.swap.allocate(pid, vpn))
            mm.footprint_pages += 1
        self._mms[pid] = mm
        return mm

    def mm_of(self, pid: int) -> MMStruct:
        """MMStruct of a registered process."""
        mm = self._mms.get(pid)
        if mm is None:
            raise SimulationError(f"pid {pid} not registered")
        return mm

    def on_evict(self, callback: EvictCallback) -> None:
        """Register a callback fired on every page eviction (TLB
        shootdown, cache invalidation live on the machine side)."""
        self._evict_callbacks.append(callback)

    # -- the residency state machine ----------------------------------------

    def classify_touch(self, pid: int, vpn: int) -> TouchResult:
        """Classify a demand touch of (pid, vpn) without side effects
        beyond LRU refresh and fault counters.

        A MINOR result has already consumed the swap-cache entry and
        mapped the page; a MAJOR result leaves the page absent — the I/O
        policy decides how to bring it in.
        """
        mm = self.mm_of(pid)
        pte = mm.pte_for(vpn)
        if pte is None:
            raise SimulationError(f"pid {pid} touched unmapped vpn {vpn:#x}")
        if pte.present:
            pte.accessed = True
            self.replacement.on_touch(ResidentPage(pid, vpn))
            self.frames.clear_prefetched(pte.frame)  # type: ignore[arg-type]
            return TouchResult(kind=FaultKind.HIT, frame=pte.frame, pte=pte)
        if self.swap_cache.take(pid, vpn):
            # Prefetched page: frame already holds the data; mapping it is
            # a metadata-only minor fault.
            if pte.frame is None:
                raise SimulationError("swap-cached page lost its frame")
            pte.map_frame(pte.frame)
            pte.accessed = True
            mm.minor_faults += 1
            self.frames.clear_prefetched(pte.frame)
            self.replacement.on_touch(ResidentPage(pid, vpn))
            return TouchResult(kind=FaultKind.MINOR, frame=pte.frame, pte=pte)
        mm.major_faults += 1
        return TouchResult(kind=FaultKind.MAJOR, frame=None)

    def is_resident_or_cached(self, pid: int, vpn: int) -> bool:
        """True if (pid, vpn) is in DRAM (mapped or swap-cached)."""
        pte = self.mm_of(pid).pte_for(vpn)
        if pte is None:
            return False
        return pte.present or self.swap_cache.contains(pid, vpn)

    def install_page(self, pid: int, vpn: int, *, prefetched: bool = False) -> int:
        """Bring (pid, vpn) into DRAM, evicting if the pool is full.

        For a demand swap-in the page is mapped (present bit set); for a
        prefetch it lands in the swap cache with its frame parked in the
        PTE, to be mapped by the minor fault on first touch.  Returns the
        frame used.
        """
        mm = self.mm_of(pid)
        pte = mm.pte_for(vpn)
        if pte is None:
            raise SimulationError(f"installing unmapped vpn {vpn:#x} for pid {pid}")
        if pte.present:
            raise SimulationError(f"page (pid={pid}, vpn={vpn:#x}) already resident")
        frame = self.frames.allocate(pid, vpn, prefetched=prefetched)
        while frame is None:
            self._evict_one()
            frame = self.frames.allocate(pid, vpn, prefetched=prefetched)
        if prefetched:
            pte.frame = frame  # parked; present stays clear until touch
            self.swap_cache.insert(pid, vpn)
        else:
            pte.map_frame(frame)
        mm.resident_pages += 1
        self.replacement.on_resident(ResidentPage(pid, vpn))
        return frame

    def evict_pages_of(self, pid: int, max_pages: int) -> int:
        """Evict up to *max_pages* of *pid*'s resident pages (LRU-first).

        Used by the self-sacrificing path when a low-priority process
        relinquishes resources.  Returns the number evicted.
        """
        evicted = 0
        for frame in list(self.frames.frames_of(pid)):
            if evicted >= max_pages:
                break
            info = self.frames.owner_of(frame)
            if info is None:
                continue
            self._evict_page(info.pid, info.vpn, frame)
            evicted += 1
        return evicted

    def resident_pages_of(self, pid: int) -> int:
        """Number of DRAM pages currently held by *pid*."""
        return len(self.frames.frames_of(pid))

    def release_process(self, pid: int) -> int:
        """Process exit: evict all of *pid*'s pages and free its swap
        slots.  Returns the number of swap slots released."""
        self.evict_pages_of(pid, self.frames.num_frames)
        mm = self.mm_of(pid)
        released = 0
        for vpn in mm.page_table.mapped_vpns():
            pte = mm.pte_for(vpn)
            if pte is not None and pte.swap_slot is not None:
                self.swap.free(pte.swap_slot)
                pte.swap_slot = None
                released += 1
        return released

    # -- internals -----------------------------------------------------------

    def _evict_one(self) -> None:
        victim = self.replacement.choose_victim()
        pte = self.mm_of(victim.pid).pte_for(victim.vpn)
        if pte is None or pte.frame is None:
            raise SimulationError(
                f"replacement chose non-resident victim (pid={victim.pid}, vpn={victim.vpn:#x})"
            )
        self._evict_page(victim.pid, victim.vpn, pte.frame)

    def _evict_page(self, pid: int, vpn: int, frame: int) -> None:
        mm = self.mm_of(pid)
        pte = mm.pte_for(vpn)
        if pte is None:
            raise SimulationError("evicting unmapped page")
        self.swap_cache.drop(pid, vpn)
        if pte.swap_slot is None:
            pte.swap_slot = self.swap.allocate(pid, vpn)
        pte.unmap(pte.swap_slot)
        self.frames.free(frame)
        mm.resident_pages -= 1
        self.replacement.on_evicted(ResidentPage(pid, vpn))
        self.evictions += 1
        for callback in self._evict_callbacks:
            callback(pid, vpn, frame)
