"""Stall-on-use in-order scheduler (the InO baseline).

A single FIFO window issued strictly from the head: each cycle consecutive
ready head ops issue (up to the machine width via port arbitration); the
first non-ready op stalls everything behind it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..core.ifop import InFlightOp
from .base import SchedulerBase


class InOrderScheduler(SchedulerBase):
    """In-order issue from a single FIFO IQ."""

    kind = "inorder"
    skip_period = 1

    def __init__(self, core, iq_size: int = 96):
        super().__init__(core)
        self.iq_size = iq_size
        self._queue: Deque[InFlightOp] = deque()

    def can_accept(self, ifop: InFlightOp) -> bool:
        return len(self._queue) < self.iq_size

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        self._queue.append(ifop)
        self.energy["iq_write"] += 1

    def select(self, cycle: int) -> List[InFlightOp]:
        issued: List[InFlightOp] = []
        core = self.core
        width = core.config.issue_width
        while self._queue and len(issued) < width:
            head = self._queue[0]
            self.energy["select_input"] += 1
            if not core.op_ready(head, cycle):
                break
            if not core.try_grant(head, cycle):
                break
            self._queue.popleft()
            self.energy["iq_read"] += 1
            issued.append(head)
        return issued

    def flush_from(self, seq: int) -> None:
        while self._queue and self._queue[-1].seq >= seq:
            self._queue.pop()

    def check_invariants(self) -> None:
        assert len(self._queue) <= self.iq_size, "in-order IQ overflow"
        seqs = [op.seq for op in self._queue]
        assert seqs == sorted(seqs), f"in-order IQ out of program order: {seqs}"

    def occupancy(self) -> int:
        return len(self._queue)
