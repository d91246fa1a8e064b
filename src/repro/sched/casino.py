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
        issued: List[InFlightOp] = []
        last = len(self.queues) - 1
        # the final queue: strict in-order issue
        final = self.queues[last]
        while final and len(issued) < self.core.config.issue_width:
            head = final[0]
            self.energy["select_input"] += 1
            if not self.core.op_ready(head, cycle):
                break
            if not self.core.try_grant(head, cycle):
                break
            final.popleft()
            self.energy["iq_read"] += 1
            self.issued_from[last] += 1
            issued.append(head)
        # each S-IQ, youngest queue last so passes cannot cascade in one cycle
        for qi in range(last - 1, -1, -1):
            issued.extend(self._select_siq(qi, cycle))
        return issued

    def _select_siq(self, qi: int, cycle: int) -> List[InFlightOp]:
        core = self.core
        queue = self.queues[qi]
        next_queue = self.queues[qi + 1]
        next_cap = self.queue_sizes[qi + 1]
        if not queue:
            return []
        window = list(queue)[: self.window]
        self.energy["select_input"] += len(window)
        issued: List[InFlightOp] = []
        issued_mask: List[bool] = []
        for op in window:
            ok = core.op_ready(op, cycle) and core.try_grant(op, cycle)
            issued_mask.append(ok)
            if ok:
                issued.append(op)
                self.issued_from[qi] += 1
                self.energy["iq_read"] += 1
        if issued:
            # pass non-ready ops that precede the last issued op
            last_issued = max(i for i, ok in enumerate(issued_mask) if ok)
            passable = {id(window[i]) for i in range(last_issued) if not issued_mask[i]}
        else:
            # no ready op in the window: advance it wholesale
            passable = {id(op) for op in window}
        # rebuild the queue prefix: issued ops leave, passable ops move to
        # the next queue while order allows, the rest stay put
        for _ in window:
            queue.popleft()
        kept: List[InFlightOp] = []
        passed: List[InFlightOp] = []
        blocked = False
        for i, op in enumerate(window):
            if issued_mask[i]:
                continue  # left through an issue read port
            can_pass = (
                not blocked
                and id(op) in passable
                and len(next_queue) + len(passed) < next_cap
                and len(passed) < self.window
            )
            if can_pass:
                passed.append(op)
            else:
                kept.append(op)
                # once an op stays, younger ops must stay too, or a younger
                # op would reach a downstream queue ahead of an older one
                blocked = True
        for op in reversed(kept):
            queue.appendleft(op)
        for op in passed:
            op.iq_index = qi + 1
            next_queue.append(op)
            self.trace_steer(op, f"pass->q{qi + 1}")
            self.passes += 1
            self.energy["iq_write"] += 1  # physical copy to the next queue
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
