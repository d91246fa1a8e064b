"""Resequencer: restore submission order from out-of-order completions.

The worker pool executes a job's cells as shards spread across worker
threads, so completions arrive interleaved and out of order.  Each job
owns one :class:`Resequencer` (the job id is the correlation key, the
cell's submission index is the sequence number): completions are
buffered until the next expected sequence arrives, then the contiguous
prefix is released — downstream consumers (the ordered result stream
served on ``GET /jobs/<id>/results``) only ever observe cells in
submission order, no matter how execution interleaved.

Gap handling: a shard lost to a dying dispatch thread leaves a hole in
the sequence space.  :meth:`Resequencer.missing` names the holes below
the high-water mark so the pool can resubmit exactly those cells as a
repair shard (see :mod:`repro.serve.pool`); duplicates from a repair
racing the original are dropped on arrival.

This is the Enterprise Integration Patterns *Resequencer* (buffer by
key, detect gaps, emit in order) specialised to a dense 0..n-1
sequence space, which makes gap detection exact instead of
heuristic — the expected count is known at job admission.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Resequencer:
    """Order-restoring buffer over a dense sequence space ``0..expected-1``.

    Not thread-safe by itself — the pool serialises access per job under
    its own lock.
    """

    def __init__(self, expected: int):
        if expected <= 0:
            raise ValueError(f"expected must be positive, got {expected}")
        self.expected = expected
        self._next = 0
        self._buffer: Dict[int, object] = {}
        #: total payloads released in order so far
        self.emitted = 0
        #: duplicate arrivals dropped (repair racing the original)
        self.duplicates = 0

    def push(self, seq: int, payload: object) -> List[Tuple[int, object]]:
        """Accept one completion; return the newly releasable prefix.

        The returned list is the (possibly empty) run of ``(seq,
        payload)`` pairs that became contiguous with everything already
        emitted — i.e. exactly what downstream may now consume, in
        order.  Out-of-range sequences raise; duplicates are counted
        and ignored.
        """
        if not 0 <= seq < self.expected:
            raise ValueError(
                f"sequence {seq} outside 0..{self.expected - 1}")
        if seq < self._next or seq in self._buffer:
            self.duplicates += 1
            return []
        self._buffer[seq] = payload
        released: List[Tuple[int, object]] = []
        while self._next in self._buffer:
            released.append((self._next, self._buffer.pop(self._next)))
            self._next += 1
        self.emitted += len(released)
        return released

    @property
    def complete(self) -> bool:
        """Every sequence emitted — the job's result stream is final."""
        return self.emitted == self.expected

    @property
    def next_expected(self) -> int:
        """The sequence the ordered stream is currently waiting on."""
        return self._next

    @property
    def buffered(self) -> int:
        """Completions held back waiting for an earlier sequence."""
        return len(self._buffer)

    def missing(self, high_water: Optional[int] = None) -> List[int]:
        """The sequence gaps blocking emission, for repair resubmission.

        With no argument, reports holes below the highest buffered
        sequence (something later already finished, so the hole is a
        *lost* completion, not merely a slow one).  Passing
        ``high_water`` widens the check: every unemitted, unbuffered
        sequence below it is reported — the pool passes ``expected``
        once all shards have been accounted for, turning "slow" into
        "lost" exactly when nothing is in flight any more.
        """
        if high_water is None:
            high_water = max(self._buffer) + 1 if self._buffer else self._next
        return [seq for seq in range(self._next, min(high_water, self.expected))
                if seq not in self._buffer]
