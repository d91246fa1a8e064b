"""Set-associative cache model with in-flight fill tracking.

The timing simulators are cycle-driven but memory latency is computed at
access time: a lookup returns the cycle at which the data is available.  Each
resident line remembers its *fill time*, so an access that hits a line still
in flight (an MSHR merge in real hardware) completes when the original miss
does — this is what lets independent misses overlap (MLP) while dependent
accesses serialise.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from types import MappingProxyType
from typing import Dict, Optional

LINE_SIZE = 64

#: What a set that was never filled holds: no lines, and no way to add one.
_NO_LINES = MappingProxyType({})


@dataclass
class CacheStats:
    """Hit/miss counters for one cache level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    prefetch_fills: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of a write-back, write-allocate cache hierarchy.

    Args:
        name: Label used in stats and energy accounting (``"l1d"`` etc.).
        size_bytes: Total capacity.
        assoc: Associativity.
        latency: Hit latency in cycles.
    """

    def __init__(self, name: str, size_bytes: int, assoc: int, latency: int):
        self.name = name
        self.size_bytes = size_bytes
        self.assoc = assoc
        self.latency = latency
        self.num_sets = max(1, size_bytes // (LINE_SIZE * assoc))
        if self.num_sets & (self.num_sets - 1):
            raise ValueError(f"{name}: set count must be a power of two")
        self._mask = self.num_sets - 1
        # set index -> OrderedDict line_tag -> fill_time, LRU order (oldest
        # first); a set exists from its first fill, so an absent one is
        # empty
        self._sets: Dict[int, OrderedDict] = {}
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def probe(self, line: int) -> Optional[int]:
        """Return the line's fill time if resident (without LRU update)."""
        return self._sets.get(line & self._mask, _NO_LINES).get(line)

    def lookup(self, line: int) -> Optional[int]:
        """LRU-updating lookup: fill time if the line is resident, else None."""
        entries = self._sets.get(line & self._mask, _NO_LINES)
        fill_time = entries.get(line)
        if fill_time is None:
            self.stats.misses += 1
            return None
        entries.move_to_end(line)
        self.stats.hits += 1
        return fill_time

    def fill(self, line: int, fill_time: int, prefetch: bool = False) -> Optional[int]:
        """Insert ``line`` (available at ``fill_time``); return evicted line."""
        index = line & self._mask
        entries = self._sets.get(index)
        if entries is None:
            entries = self._sets[index] = OrderedDict()
        evicted = None
        if line in entries:
            # keep the earlier availability if the line is already in flight
            entries[line] = min(entries[line], fill_time)
            entries.move_to_end(line)
        else:
            if len(entries) >= self.assoc:
                evicted, _ = entries.popitem(last=False)
                self.stats.evictions += 1
            entries[line] = fill_time
        if prefetch:
            self.stats.prefetch_fills += 1
        return evicted

    def invalidate(self, line: int) -> None:
        entries = self._sets.get(line & self._mask)
        if entries is not None:
            entries.pop(line, None)

    def settle(self, cycle: int) -> None:
        """Complete every in-flight fill: clamp fill times to ``cycle``.

        Used by functional warming (:mod:`repro.core.sampling`): content
        and LRU order are the warm state worth keeping; future fill
        times only encode the *timing* of the warming accesses, which a
        fast-forward stretch compresses into an unrealistically short
        clock span.
        """
        for entries in self._sets.values():
            for line, fill_time in entries.items():
                if fill_time > cycle:
                    entries[line] = cycle

    def resident_lines(self) -> int:
        """Total lines currently resident (for occupancy tests)."""
        return sum(map(len, self._sets.values()))
