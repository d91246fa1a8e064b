"""CASINO: cascaded speculative in-order scheduling windows [HPCA'20].

One or more speculative in-order IQs (S-IQs) sit in front of a conventional
in-order IQ.  Each cycle every S-IQ examines a *speculative scheduling
window* of the first ``window`` entries:

* ready ops in the window issue immediately (out of order w.r.t. older
  non-ready ops);
* non-ready ops that precede an issued op are passed to the next queue,
  keeping program order inside each queue;
* if nothing in the window is ready, the window advances by passing
  ``window`` ops to the next queue.

Ops reaching the last queue issue strictly in order — which is why CASINO
is not cache-miss tolerant (paper §II-C): a stalled chain at the last
queue's head blocks every younger ready op behind it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Sequence, Tuple

from ..core.ifop import InFlightOp
from .base import SchedulerBase


class CasinoScheduler(SchedulerBase):
    """Cascaded S-IQs in front of an in-order IQ."""

    kind = "casino"
    skip_period = 1

    def __init__(self, core, queue_sizes: Sequence[int] = (8, 40, 40, 8),
                 window: int = 4):
        super().__init__(core)
        if len(queue_sizes) < 2:
            raise ValueError("CASINO needs at least one S-IQ plus the final IQ")
        self.queue_sizes = tuple(queue_sizes)
        self.window = window
        self.queues: List[Deque[InFlightOp]] = [deque() for _ in queue_sizes]
        self.issued_from: List[int] = [0] * len(queue_sizes)
        self.passes = 0

    # ------------------------------------------------------------------
    def can_accept(self, ifop: InFlightOp) -> bool:
        return len(self.queues[0]) < self.queue_sizes[0]

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        self.queues[0].append(ifop)
        ifop.iq_index = 0
        self.energy["iq_write"] += 1

    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        # Every queue is examined in place and changes only where an op
        # leaves it; the per-cycle counts add up in locals.
        core = self.core
        op_ready = core.op_ready
        try_grant = core.try_grant
        queues = self.queues
        tracer = self.tracer
        issued: List[InFlightOp] = []
        inputs = 0
        last = len(queues) - 1
        # the final queue: strict in-order issue
        final = queues[last]
        if final:
            width = core.config.issue_width
            while final and len(issued) < width:
                head = final[0]
                inputs += 1
                if not (op_ready(head, cycle) and try_grant(head, cycle)):
                    break
                final.popleft()
                issued.append(head)
            self.issued_from[last] += len(issued)
        # each S-IQ, youngest queue last so passes cannot cascade in one cycle
        passes = 0
        for qi in range(last - 1, -1, -1):
            queue = queues[qi]
            if not queue:
                continue
            window = len(queue)
            if window > self.window:
                window = self.window
            inputs += window
            # ready ops in the window issue; bit i of `leaving` marks
            # window entry i as gone
            leaving = 0
            last_issued = -1
            for i in range(window):
                op = queue[i]
                if op_ready(op, cycle) and try_grant(op, cycle):
                    issued.append(op)
                    leaving |= 1 << i
                    last_issued = i
            if last_issued >= 0:
                self.issued_from[qi] += leaving.bit_count()
                # pass the non-ready ops that precede the last issued op
                passable = last_issued
            else:
                # no ready op in the window: advance it wholesale
                passable = window
            # passes go in order while the next queue has room; once an
            # op stays, younger ops must stay too, or a younger op would
            # reach a downstream queue ahead of an older one
            next_queue = queues[qi + 1]
            room = self.queue_sizes[qi + 1] - len(next_queue)
            for i in range(passable):
                if leaving >> i & 1:
                    continue  # left through an issue read port
                if not room:
                    break
                room -= 1
                op = queue[i]
                op.iq_index = qi + 1
                next_queue.append(op)  # physical copy to the next queue
                leaving |= 1 << i
                passes += 1
                if tracer is not None:
                    self.trace_steer(op, f"pass->q{qi + 1}")
            if leaving:
                for i in range(window - 1, -1, -1):  # youngest first
                    if leaving >> i & 1:
                        del queue[i]
        energy = self.energy
        if inputs:
            energy["select_input"] += inputs
        if issued:
            energy["iq_read"] += len(issued)
        if passes:
            self.passes += passes
            energy["iq_write"] += passes
        return issued

    def quiet_signature(self) -> Tuple[int, ...]:
        # ops only ever pass downstream, so equal lengths mean no pass
        return tuple(len(queue) for queue in self.queues)

    def on_wakeup(self, preg: int, cycle: int) -> None:
        # every queue head window observes readiness
        self.energy["wakeup_cam"] += self.window * len(self.queues)

    # ------------------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        for queue in self.queues:
            while queue and queue[-1].seq >= seq:
                queue.pop()

    def check_invariants(self) -> None:
        # walking oldest (last) queue -> youngest: every queue is FIFO in
        # program order AND strictly younger than everything downstream,
        # or the pass logic let a younger op overtake an older one
        newest_downstream = -1
        for qi in range(len(self.queues) - 1, -1, -1):
            seqs = [op.seq for op in self.queues[qi]]
            assert len(seqs) <= self.queue_sizes[qi], f"queue {qi} overflow"
            assert seqs == sorted(seqs), (
                f"queue {qi} out of program order: {seqs}"
            )
            for op in self.queues[qi]:
                assert op.iq_index == qi, (
                    f"op {op.seq} records queue {op.iq_index}, lives in {qi}"
                )
            if seqs:
                assert seqs[0] > newest_downstream, (
                    f"queue {qi} holds op {seqs[0]} older than op "
                    f"{newest_downstream} already passed downstream"
                )
                newest_downstream = seqs[-1]

    def occupancy(self) -> int:
        return sum(len(q) for q in self.queues)

    def queue_occupancy(self) -> Dict[str, int]:
        return {f"q{i}": len(q) for i, q in enumerate(self.queues)}

    def extra_stats(self) -> Dict[str, float]:
        stats = {f"issued_q{i}": n for i, n in enumerate(self.issued_from)}
        stats["passes"] = self.passes
        return stats
