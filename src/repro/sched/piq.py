"""Ballerino's shareable P-IQ (paper §IV-D, Figure 9).

A P-IQ is a circular FIFO with two operating modes:

* **normal** — one FIFO holding a single dependence chain;
* **sharing** — the queue is split into two equal partitions, each a
  distinct FIFO holding its own chain, with an extra head/tail pointer pair.

Implementation constraints from the paper (evaluated by the ``ideal`` knob):

1. at most two partitions;
2. a P-IQ is eligible for sharing only while its head and tail pointers sit
   in the same physical half of the queue — equivalently, at most half the
   entries are occupied by the resident chain and they are physically
   contiguous within one half (a FIFO's occupancy is always contiguous, so
   we model the constraint as *occupancy <= size/2*);
3. only one partition's head is examined per cycle (single read port); the
   active head stays after issuing (back-to-back single-cycle issue) and
   otherwise toggles to give the other chain a chance — the paper's
   head-selection policy.  The scheduler's select applies it in place
   through :attr:`SharedPIQ.active` (see ``BallerinoScheduler.select``).

With ``ideal=True`` constraints 2 and 3 are lifted (sharing is allowed at
any pointer position and both heads may issue in one cycle), matching the
"Step 3 w/o constraints" bars of Figure 13.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from ..core.ifop import InFlightOp


class SharedPIQ:
    """One P-IQ supporting normal and (two-partition) sharing modes."""

    def __init__(self, size: int, ideal: bool = False):
        self.size = size
        self.ideal = ideal
        self.partitions: List[Deque[InFlightOp]] = [deque()]
        self.active = 0  # partition whose head is examined this cycle
        self.share_activations = 0
        #: total resident entries, maintained incrementally.  Profiles
        #: showed the old sum-over-partitions ``occupancy()`` dominating
        #: ballerino's select phase (~86k calls per 3k-op sim between
        #: occupancy/empty/sharing probes), so the count is now updated
        #: at the three mutation points (append / pop_head / flush_from)
        #: and cross-checked by :meth:`debug_check`.
        self.count = 0
        #: plain attribute mirroring ``len(partitions) == 2`` — probed
        #: every cycle by every caller, so it is maintained at the two
        #: mode transitions instead of recomputed (debug_check verifies).
        self.sharing = False

    # ------------------------------------------------------------------
    # mode / capacity
    # ------------------------------------------------------------------
    def occupancy(self) -> int:
        return self.count

    def partition_capacity(self) -> int:
        return self.size // 2 if self.sharing else self.size

    def has_space(self, partition: int) -> bool:
        if partition >= len(self.partitions):
            return False
        if self.sharing and not self.ideal:
            return len(self.partitions[partition]) < self.size // 2
        # normal mode — and ideal sharing, where the equal-halves
        # constraint is lifted but the queue's total capacity still
        # holds (ideal sharing may start with >size/2 entries resident,
        # so a per-partition half cap would both overflow the queue and
        # wedge the resident chain's partition)
        return self.count < self.size

    def shareable(self) -> bool:
        """Can the steer logic activate sharing mode on this queue?"""
        count = self.count
        if count == 0 or self.sharing:
            return False
        if self.ideal:
            return count < self.size  # any free entry suffices
        # head and tail within the same physical half <=> occupancy <= size/2
        return count <= self.size // 2

    def activate_sharing(self) -> int:
        """Split into two partitions; returns the new partition's index."""
        if not self.shareable():
            raise RuntimeError("P-IQ not eligible for sharing")
        self.partitions.append(deque())
        self.sharing = True
        self.share_activations += 1
        return 1

    def collapse(self) -> Optional[Dict[int, int]]:
        """Drop back to normal mode once a partition drains.

        Returns the partition-index remap applied (``{1: 0}``: partition 1
        ceased to exist, or its chain moved to partition 0), or ``None``
        when nothing changed.  Callers holding partition indices captured
        *before* the collapse — the steering scoreboard and the LFST
        steering hints — must translate them through this remap or they
        dangle.
        """
        if self.sharing:
            if not self.partitions[1]:
                self.partitions.pop()
                self.sharing = False
                self.active = 0
                return {1: 0}  # partition 1 ceased to exist
            if not self.partitions[0]:
                self.partitions[0] = self.partitions.pop()
                self.sharing = False
                self.active = 0
                for op in self.partitions[0]:
                    op.iq_partition = 0
                return {1: 0}
        return None

    # ------------------------------------------------------------------
    # FIFO operations
    # ------------------------------------------------------------------
    def append(self, ifop: InFlightOp, partition: int) -> None:
        if not self.has_space(partition):
            raise RuntimeError("P-IQ partition overflow")
        self.partitions[partition].append(ifop)
        self.count += 1

    def tail(self, partition: int) -> Optional[InFlightOp]:
        queue = self.partitions[partition] if partition < len(self.partitions) else None
        return queue[-1] if queue else None

    def active_heads(self) -> List[tuple]:
        """(partition, head-op) pairs examined for issue this cycle."""
        if not self.sharing:
            queue = self.partitions[0]
            return [(0, queue[0])] if queue else []
        if self.ideal:
            return [
                (index, queue[0])
                for index, queue in enumerate(self.partitions)
                if queue
            ]
        queue = self.partitions[self.active]
        if not queue:  # the active partition drained: examine the other
            other = 1 - self.active
            queue = self.partitions[other]
            return [(other, queue[0])] if queue else []
        return [(self.active, queue[0])]

    def pop_head(self, partition: int) -> InFlightOp:
        """Issue the head of ``partition``.

        A drained partition stays until the caller calls :meth:`collapse`,
        so a caller examining both heads (ideal sharing) keeps stable
        partition indices while it pops.
        """
        ifop = self.partitions[partition].popleft()
        self.count -= 1
        return ifop

    # ------------------------------------------------------------------
    def flush_from(self, seq: int) -> Optional[Dict[int, int]]:
        """Squash every entry with ``seq >=`` the flush point.

        Returns the partition remap if the flush drained a partition and
        collapsed the queue (same contract as :meth:`collapse`).
        """
        for queue in self.partitions:
            while queue and queue[-1].seq >= seq:
                queue.pop()
                self.count -= 1
        return self.collapse()

    def debug_check(self) -> None:
        """Structural invariants (used by the verify subsystem).

        Raises ``AssertionError`` when the queue violates its own FIFO,
        capacity, or head-pointer contracts.
        """
        assert 1 <= len(self.partitions) <= 2, "partition count out of range"
        assert self.sharing == (len(self.partitions) == 2), (
            f"sharing flag drifted: sharing={self.sharing}, "
            f"{len(self.partitions)} partitions"
        )
        assert 0 <= self.active < len(self.partitions), (
            f"active partition {self.active} dangles "
            f"({len(self.partitions)} partitions)"
        )
        # select hands a stalled head's read port to the other chain
        # without looking: it relies on a sharing queue never keeping
        # a drained partition between cycles
        assert not self.sharing or all(self.partitions), (
            f"sharing queue kept a drained partition: "
            f"{[len(p) for p in self.partitions]}"
        )
        assert self.active == 0 or (self.sharing and not self.ideal), (
            f"active partition {self.active} outside real sharing"
        )
        cap = self.partition_capacity() if not self.ideal else self.size
        for index, queue in enumerate(self.partitions):
            seqs = [op.seq for op in queue]
            assert seqs == sorted(seqs), (
                f"partition {index} out of program order: {seqs}"
            )
            if self.sharing and not self.ideal:
                assert len(queue) <= cap, (
                    f"partition {index} over capacity: {len(queue)} > {cap}"
                )
            for op in queue:
                assert op.iq_partition == index, (
                    f"op {op.seq} records partition {op.iq_partition}, "
                    f"lives in {index}"
                )
        assert self.count == sum(len(p) for p in self.partitions), (
            f"incremental count drifted: count={self.count}, "
            f"partitions hold {sum(len(p) for p in self.partitions)}"
        )
        assert self.count <= self.size, "P-IQ over total capacity"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        sizes = "/".join(str(len(p)) for p in self.partitions)
        return f"<PIQ {sizes} of {self.size}{' sharing' if self.sharing else ''}>"
