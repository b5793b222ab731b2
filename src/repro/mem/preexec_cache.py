"""The pre-execute cache: a cache with one INV bit per byte.

Section 3.4.2: "Within each CPU, we introduce a pre-execute cache,
associating an 'INV' bit with each byte.  This cache stores both data
values and their associated INV statuses linked to retired store
instructions from the store buffer."  Half of the LLC capacity is carved
out for it under Sync_Runahead and ITS.

Only the pre-execute engine may read or write this cache, and it is wiped
when pre-execution ends (its contents are speculative by construction).
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.common.config import CacheConfig


class PreExecuteCache:
    """Line-granular cache whose lines carry a per-byte INV bitmap.

    Structurally a set-associative cache like the LLC, but lookups return
    validity information instead of mere presence: a pre-execute load that
    hits a line must check the INV bits of exactly the bytes it reads.
    """

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._sets: list[OrderedDict[int, list[bool]]] = [
            OrderedDict() for __ in range(config.num_sets)
        ]
        self._line_bits = config.line_size.bit_length() - 1
        self._set_mask = config.num_sets - 1
        self._tag_shift = self._set_mask.bit_length()
        self._touched: set[int] = set()
        self.writes = 0
        self.hits = 0
        self.misses = 0

    def _index_tag(self, addr: int) -> tuple[int, int]:
        line = addr >> self._line_bits
        return line & self._set_mask, line >> self._tag_shift

    def _line_offset(self, addr: int) -> int:
        return addr & (self.config.line_size - 1)

    def write(self, address: int, size: int, *, invalid: bool) -> None:
        """Record *size* bytes at *address* with the given INV status.

        Allocates lines as needed (evicting LRU victims), and sets or
        clears the INV bit of each written byte — Figure 3a steps 0/3.
        """
        self.writes += 1
        remaining = size
        addr = address
        while remaining > 0:
            index, tag = self._index_tag(addr)
            offset = self._line_offset(addr)
            span = min(remaining, self.config.line_size - offset)
            line = self._get_or_allocate(index, tag)
            for i in range(offset, offset + span):
                line[i] = invalid
            addr += span
            remaining -= span

    def lookup(self, address: int, size: int) -> Optional[bool]:
        """Check *size* bytes at *address*.

        Returns ``None`` if any byte is absent (pre-execute cache miss),
        ``True`` if all bytes are present and valid, ``False`` if present
        but at least one byte is marked INV (the dependent load must be
        invalidated — Figure 3b step 2).
        """
        if not self._touched and size > 0:
            # Empty since the last clear: the first line misses.
            self.misses += 1
            return None
        remaining = size
        addr = address
        all_valid = True
        while remaining > 0:
            index, tag = self._index_tag(addr)
            offset = self._line_offset(addr)
            span = min(remaining, self.config.line_size - offset)
            cache_set = self._sets[index]
            line = cache_set.get(tag)
            if line is None:
                self.misses += 1
                return None
            cache_set.move_to_end(tag)
            if any(line[offset : offset + span]):
                all_valid = False
            addr += span
            remaining -= span
        self.hits += 1
        return all_valid

    def clear(self) -> None:
        """Discard all speculative contents (end of a pre-execute episode).

        Only the sets written since the last clear can hold lines, so
        only those are emptied.
        """
        for index in self._touched:
            self._sets[index].clear()
        self._touched.clear()

    def resident_lines(self) -> int:
        """Number of lines currently allocated."""
        return sum(len(s) for s in self._sets)

    def _get_or_allocate(self, index: int, tag: int) -> list[bool]:
        cache_set = self._sets[index]
        line = cache_set.get(tag)
        if line is not None:
            cache_set.move_to_end(tag)
            return line
        self._touched.add(index)
        if len(cache_set) >= self.config.ways:
            cache_set.popitem(last=False)
        line = [False] * self.config.line_size
        cache_set[tag] = line
        return line
