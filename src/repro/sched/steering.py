"""Shared steering state for dependence-based schedulers (CES, Ballerino).

The :class:`SteeringScoreboard` is the producer-location half of the paper's
P-SCB (§IV-C): for each physical register whose producer currently waits in
a P-IQ, it records *which* P-IQ (and partition), and a Reserved bit that is
set once one consumer has been steered behind the producer — a second
consumer then sees Reserved and must start a new chain (chain split).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


@dataclass
class SteerInfo:
    """Location of an un-issued producer inside the clustered P-IQs."""

    iq: int
    partition: int = 0
    reserved: bool = False
    owner_seq: int = -1  # producer's dynamic seq (for flush filtering)
    reserved_by: int = -1  # consumer seq holding the reservation


#: Outcome of one steering attempt at the head of dispatch/S-IQ, as
#: ``(outcome, target, partition, followed_preg)``: ``outcome`` is one of
#: "dc" | "mda" | "alloc" | "share" | "stall", ``target`` the P-IQ index
#: (``None`` on a steering stall) and ``followed_preg`` the source whose
#: producer the op was steered behind.  A plain tuple: deciding runs no
#: constructor.  The caller knows whether the op was ready.
SteerDecision = Tuple[str, Optional[int], int, Optional[int]]

#: the decision that stalls steering
STALL: SteerDecision = ("stall", None, 0, None)


class SteeringScoreboard:
    """preg -> :class:`SteerInfo` with flush support."""

    def __init__(self):
        self._map: Dict[int, SteerInfo] = {}

    def get(self, preg: int) -> Optional[SteerInfo]:
        return self._map.get(preg)

    def set(self, preg: int, info: SteerInfo) -> None:
        self._map[preg] = info

    def reserve(self, preg: int, by_seq: int = -1) -> None:
        info = self._map.get(preg)
        if info is not None:
            info.reserved = True
            info.reserved_by = by_seq

    def clear(self, preg: Optional[int]) -> None:
        if preg is not None:
            self._map.pop(preg, None)

    def flush_from(self, seq: int) -> None:
        """Drop every reference to a squashed op.

        Entries whose *producer* was squashed disappear; entries whose
        producer survives but whose *reserving consumer* was squashed get
        their Reserved bit released (otherwise the re-fetched consumer
        would be denied steering behind its own producer forever).
        """
        kept: Dict[int, SteerInfo] = {}
        for preg, info in self._map.items():
            if info.owner_seq >= seq:
                continue
            if info.reserved and info.reserved_by >= seq:
                info.reserved = False
                info.reserved_by = -1
            kept[preg] = info
        self._map = kept

    def remap_partition(self, iq: int, remap: Dict[int, int]) -> None:
        """A shared P-IQ collapsed: translate partition indices for ``iq``."""
        for info in self._map.values():
            if info.iq == iq:
                info.partition = remap.get(info.partition, info.partition)

    def items(self):
        """Live (preg, SteerInfo) pairs — for invariant checkers."""
        return self._map.items()

    def __len__(self) -> int:
        return len(self._map)


def decision_counts(outcomes: Sequence[str]) -> Dict[Tuple[str, bool], int]:
    """Zeroed steering-decision counts keyed ``(outcome, ready)``, where
    ``ready`` says whether the steered op was ready."""
    return {(outcome, ready): 0 for outcome in outcomes
            for ready in (True, False)}


def figure4_outcomes(counts: Dict[Tuple[str, bool], int]) -> Dict[str, int]:
    """The paper's Fig. 4 breakdown of :func:`decision_counts`:
    dependence, M-dependence and sharing steers whatever the readiness,
    allocations and stalls split by it."""
    def both(outcome: str) -> int:
        return counts[outcome, True] + counts[outcome, False]

    out = {"steer_dc": both("dc"), "steer_mda": both("mda")}
    if ("share", True) in counts:
        out["share"] = both("share")
    for outcome in ("alloc", "stall"):
        out[f"{outcome}_ready"] = counts[outcome, True]
        out[f"{outcome}_nonready"] = counts[outcome, False]
    return out
