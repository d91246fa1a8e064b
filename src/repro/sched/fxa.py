"""FXA: front-end execution architecture [Shioya+ MICRO'14].

An in-order execution unit (IXU) sits in front of a conventional — but
half-sized — out-of-order back end.  Dispatched micro-ops flow through the
IXU pipeline; a 1-cycle integer op whose operands are available by its IXU
stage executes there (consuming no IQ entry and no back-end issue port).
Everything else — loads, stores, FP, long-latency ops, and ops whose
operands did not arrive in time — drops into the back-end out-of-order IQ.

Modelling notes: the IXU is a FIFO of ``depth`` stages; an op spends one
cycle per stage and is tested for readiness at each stage, so a value
produced by an older IXU op (1-cycle latency) is visible to a younger op
one stage behind it — the IXU's internal bypass network.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Tuple

from ..core.ifop import InFlightOp
from ..isa.opcodes import OpClass
from .base import SchedulerBase
from .ooo import OutOfOrderScheduler

#: Ids of the op classes the IXU's simple ALUs can execute.
_IXU_CLASSES = frozenset(
    klass.id for klass in (OpClass.INT_ALU, OpClass.BRANCH, OpClass.NOP))


class FXAScheduler(SchedulerBase):
    """In-order IXU filter + half-size out-of-order back end."""

    kind = "fxa"
    skip_period = 1

    def __init__(self, core, iq_size: int = 48, ixu_depth: int = 3):
        super().__init__(core)
        self.ixu_depth = ixu_depth
        #: IXU lanes: ops entering, and ALUs executing, per cycle
        self.ixu_width = core.config.decode_width
        self.backend = OutOfOrderScheduler(core, iq_size=iq_size)
        #: (entered_cycle, ifop); ops leave after ``ixu_depth`` stages
        self._ixu: Deque[Tuple[int, InFlightOp]] = deque()
        self.ixu_executed = 0
        self.backend_issued = 0

    # ------------------------------------------------------------------
    def can_accept(self, ifop: InFlightOp) -> bool:
        # the IXU always accepts (it is a fixed pipeline); back-end pressure
        # surfaces when ops fall out of the IXU, which stalls the IXU flow
        return len(self._ixu) < self.ixu_depth * self.ixu_width

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        self._ixu.append((cycle, ifop))
        ifop.sched_tag = "ixu"
        self.energy["iq_write"] += 1

    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        issued: List[InFlightOp] = []
        ixu = self._ixu
        if ixu:
            # 1) IXU stage walk, in place: execute eligible ready ops in
            #    order; ops that reach the last stage without executing
            #    drop to the back end, and a full back end stalls the walk
            core = self.core
            backend = self.backend
            tracer = self.tracer
            width = self.ixu_width
            last_stage_entry = cycle - self.ixu_depth + 1
            examined = len(ixu)
            executed = 0
            leaving: List[int] = []  # IXU positions, oldest first
            for position, (entered, op) in enumerate(ixu):
                if (
                    executed < width
                    and op.op_class in _IXU_CLASSES
                    and op.wake_pending == 0 and not op.mdp_waiting
                ):
                    # executes on an IXU ALU: no back-end port consumed
                    core.ports.unassign(op.port)
                    op.sched_tag = "ixu_exec"
                    if tracer is not None:
                        self.trace_steer(op, "ixu_exec")
                    issued.append(op)
                    executed += 1
                    leaving.append(position)
                elif entered <= last_stage_entry:
                    # fell out of the IXU: needs a back-end IQ entry
                    if not backend.can_accept(op):
                        examined = position + 1
                        break  # back-end full: stall here
                    backend.insert(op, cycle)
                    op.sched_tag = "backend"
                    if tracer is not None:
                        self.trace_steer(op, "to_backend")
                    leaving.append(position)
            self.energy["select_input"] += examined
            self.ixu_executed += executed
            for position in reversed(leaving):
                del ixu[position]
        # 2) back-end out-of-order issue
        backend_issued = self.backend.select(cycle)
        self.backend_issued += len(backend_issued)
        issued.extend(backend_issued)
        return issued

    def quiet_signature(self) -> Tuple[int, int]:
        # an op that leaves the IXU for the back end changes both
        return len(self._ixu), self.backend.occupancy()

    def next_event_cycle(self, after: int) -> Optional[int]:
        # the cycle each IXU op reaches the last stage and must drop out
        exits = [entered + self.ixu_depth - 1 for entered, _ in self._ixu]
        return min((cycle for cycle in exits if cycle > after), default=None)

    def on_wakeup(self, preg: int, cycle: int) -> None:
        self.backend.on_wakeup(preg, cycle)

    def on_op_ready(self, ifop: InFlightOp, cycle: int) -> None:
        # IXU ops are head-polled; only the back-end window tracks a
        # ready-set (it ignores ops not resident in its slots)
        self.backend.on_op_ready(ifop, cycle)

    # ------------------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        self._ixu = deque(
            (entered, op) for entered, op in self._ixu if op.seq < seq
        )
        self.backend.flush_from(seq)

    def check_invariants(self) -> None:
        seqs = [op.seq for _, op in self._ixu]
        assert seqs == sorted(seqs), f"IXU out of program order: {seqs}"
        assert (
            len(self._ixu) <= self.ixu_depth * self.ixu_width
        ), "IXU overflow"
        self.backend.check_invariants()

    def occupancy(self) -> int:
        return len(self._ixu) + self.backend.occupancy()

    def queue_occupancy(self) -> Dict[str, int]:
        return {"ixu": len(self._ixu), "backend": self.backend.occupancy()}

    def extra_stats(self) -> Dict[str, float]:
        return {
            "ixu_executed": self.ixu_executed,
            "backend_issued": self.backend_issued,
        }

    def detach(self) -> None:
        super().detach()
        self.backend.detach()
