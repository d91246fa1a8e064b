"""DNB: Delay-and-Bypass scheduling [Alipour+ HPCA'20] — extension design.

The paper's related-work section (§VII) singles out DNB as the closest
hybrid scheme: classify instructions at dispatch by *readiness* and
*criticality*, then

* ready-at-dispatch ops enter an in-order **bypass** queue (cheap, issues
  immediately from a head window, like Ballerino's S-IQ);
* non-ready, *critical* ops get the small out-of-order IQ — they are the
  ones that profit from aggressive wakeup/select;
* non-ready, non-critical ops are parked in in-order **delay** queues
  steered along register dependences (CES-style), issuing only from the
  heads.

Criticality heuristic (as in the DNB paper's spirit): memory ops and
branches are critical, as is any op whose destination feeds one within the
rename group — here approximated by opcode class plus load-taint (the
``LdC`` classification the pipeline already computes).

This is not part of Ballerino; it is included so the library covers the
hybrid-scheduling design point the paper compares against conceptually.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List

from ..core.ifop import InFlightOp
from ..isa.opcodes import OpClass
from .base import SchedulerBase
from .ooo import OutOfOrderScheduler
from .steering import SteerInfo, SteeringScoreboard

_CRITICAL_CLASSES = frozenset(
    {OpClass.LOAD, OpClass.STORE, OpClass.BRANCH, OpClass.INT_DIV,
     OpClass.FP_DIV}
)


class DNBScheduler(SchedulerBase):
    """Delay-and-Bypass: bypass FIFO + small OoO IQ + delay FIFOs."""

    kind = "dnb"

    def __init__(self, core, iq_size: int = 24, num_delay_queues: int = 4,
                 delay_queue_size: int = 12, bypass_size: int = 12,
                 bypass_window: int = 4):
        super().__init__(core)
        self.ooo = OutOfOrderScheduler(core, iq_size=iq_size)
        self.bypass: Deque[InFlightOp] = deque()
        self.bypass_size = bypass_size
        self.bypass_window = bypass_window
        self.delay: List[Deque[InFlightOp]] = [
            deque() for _ in range(num_delay_queues)
        ]
        self.delay_queue_size = delay_queue_size
        self.steer = SteeringScoreboard()
        self.issued_bypass = 0
        self.issued_ooo = 0
        self.issued_delay = 0
        # routing decided in can_accept, applied in insert (the pipeline
        # calls them back to back; caching keeps them consistent even if
        # op state, e.g. an MDP dependence, changes in between)
        self._pending_route = None
        self._pending_seq = -1

    # ------------------------------------------------------------------
    def _critical(self, ifop: InFlightOp) -> bool:
        return (
            ifop.opcode.op_class in _CRITICAL_CLASSES
            or ifop.klass == "LdC"  # feeds/is fed by an outstanding load
        )

    def _delay_target(self, ifop: InFlightOp):
        """CES-style steering into the delay queues; None = no room."""
        for preg in ifop.src_pregs:
            info = self.steer.get(preg)
            if info is not None and not info.reserved:
                if len(self.delay[info.iq]) < self.delay_queue_size:
                    return info.iq, preg
                break
        for index, queue in enumerate(self.delay):
            if not queue:
                return index, None
        return None

    def _route(self, ifop: InFlightOp):
        """Pick ('bypass'|'delay'|'ooo', detail) or None if nothing fits."""
        if self.core.op_ready(ifop, self.core.cycle):
            if len(self.bypass) < self.bypass_size:
                return ("bypass", None)
            return None
        if not self._critical(ifop):
            target = self._delay_target(ifop)
            if target is not None:
                return ("delay", target)
        if self.ooo.can_accept(ifop):
            return ("ooo", None)
        return None

    def can_accept(self, ifop: InFlightOp) -> bool:
        route = self._route(ifop)
        self._pending_route = route
        self._pending_seq = ifop.seq
        return route is not None

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        route = self._pending_route
        if route is None or self._pending_seq != ifop.seq:
            route = self._route(ifop)  # defensive re-route
        self._pending_route = None
        kind, detail = route
        if kind == "bypass":
            self.bypass.append(ifop)
            ifop.sched_tag = "bypass"
            self.energy["iq_write"] += 1
        elif kind == "delay":
            index, followed = detail
            self.delay[index].append(ifop)
            ifop.iq_index = index
            ifop.sched_tag = "delay"
            self.energy["iq_write"] += 1
            self.energy["steer"] += 1
            if followed is not None:
                self.steer.reserve(followed, ifop.seq)
            if ifop.dest_preg is not None:
                self.steer.set(
                    ifop.dest_preg, SteerInfo(iq=index, owner_seq=ifop.seq)
                )
        else:
            self.ooo.insert(ifop, cycle)
            ifop.sched_tag = "ooo"

    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        issued: List[InFlightOp] = []
        core = self.core
        # delay-queue heads first (they are the oldest parked work)
        for queue in self.delay:
            if not queue:
                continue
            head = queue[0]
            self.energy["select_input"] += 1
            if core.op_ready(head, cycle) and core.try_grant(head, cycle):
                queue.popleft()
                self.steer.clear(head.dest_preg)
                self.energy["iq_read"] += 1
                self.issued_delay += 1
                issued.append(head)
        # the small out-of-order IQ
        ooo_issued = self.ooo.select(cycle)
        self.issued_ooo += len(ooo_issued)
        issued.extend(ooo_issued)
        # bypass window last (youngest, lowest priority)
        examined = 0
        while self.bypass and examined < self.bypass_window:
            head = self.bypass[0]
            examined += 1
            self.energy["select_input"] += 1
            if not core.op_ready(head, cycle):
                break  # "ready at dispatch" can regress only via a squash
            if not core.try_grant(head, cycle):
                break
            self.bypass.popleft()
            self.energy["iq_read"] += 1
            self.issued_bypass += 1
            issued.append(head)
        return issued

    def on_wakeup(self, preg: int, cycle: int) -> None:
        self.ooo.on_wakeup(preg, cycle)
        self.energy["wakeup_cam"] += len(self.delay) + self.bypass_window

    def on_op_ready(self, ifop: InFlightOp, cycle: int) -> None:
        # bypass/delay queues are head-polled; the small OoO IQ keeps an
        # incremental ready-set (non-resident ops are ignored there)
        self.ooo.on_op_ready(ifop, cycle)

    # ------------------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        while self.bypass and self.bypass[-1].seq >= seq:
            self.bypass.pop()
        for queue in self.delay:
            while queue and queue[-1].seq >= seq:
                queue.pop()
        self.ooo.flush_from(seq)
        self.steer.flush_from(seq)

    def check_invariants(self) -> None:
        assert len(self.bypass) <= self.bypass_size, "bypass queue overflow"
        seqs = [op.seq for op in self.bypass]
        assert seqs == sorted(seqs), f"bypass out of program order: {seqs}"
        for index, queue in enumerate(self.delay):
            assert len(queue) <= self.delay_queue_size, (
                f"delay queue {index} overflow"
            )
            qseqs = [op.seq for op in queue]
            assert qseqs == sorted(qseqs), (
                f"delay queue {index} out of program order: {qseqs}"
            )
            for op in queue:
                assert op.iq_index == index, (
                    f"op {op.seq} records delay queue {op.iq_index}, "
                    f"lives in {index}"
                )
        self.ooo.check_invariants()

    def occupancy(self) -> int:
        return (
            len(self.bypass)
            + sum(len(q) for q in self.delay)
            + self.ooo.occupancy()
        )

    def queue_occupancy(self) -> Dict[str, int]:
        out = {"bypass": len(self.bypass)}
        for index, queue in enumerate(self.delay):
            out[f"delay{index}"] = len(queue)
        out["ooo"] = self.ooo.occupancy()
        return out

    def extra_stats(self) -> Dict[str, float]:
        return {
            "issued_bypass": self.issued_bypass,
            "issued_ooo": self.issued_ooo,
            "issued_delay": self.issued_delay,
        }

    def detach(self) -> None:
        super().detach()
        self.ooo.detach()
