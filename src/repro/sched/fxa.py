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

#: Op classes the IXU's simple ALUs can execute.
_IXU_CLASSES = frozenset({OpClass.INT_ALU, OpClass.BRANCH, OpClass.NOP})


class FXAScheduler(SchedulerBase):
    """In-order IXU filter + half-size out-of-order back end."""

    kind = "fxa"
    skip_period = 1

    def __init__(self, core, iq_size: int = 48, ixu_depth: int = 3):
        super().__init__(core)
        self.ixu_depth = ixu_depth
        self.backend = OutOfOrderScheduler(core, iq_size=iq_size)
        #: (entered_cycle, ifop); ops leave after ``ixu_depth`` stages
        self._ixu: Deque[Tuple[int, InFlightOp]] = deque()
        self.ixu_executed = 0
        self.backend_issued = 0

    # ------------------------------------------------------------------
    def can_accept(self, ifop: InFlightOp) -> bool:
        # the IXU always accepts (it is a fixed pipeline); back-end pressure
        # surfaces when ops fall out of the IXU, which stalls the IXU flow
        return len(self._ixu) < self.ixu_depth * self.core.config.decode_width

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        self._ixu.append((cycle, ifop))
        ifop.sched_tag = "ixu"
        self.energy["iq_write"] += 1

    # ------------------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        issued: List[InFlightOp] = []
        core = self.core
        # 1) IXU stage walk: execute eligible ready ops in order; ops that
        #    reach the last stage without executing drop to the back end
        still: Deque[Tuple[int, InFlightOp]] = deque()
        ixu_issues = 0
        while self._ixu:
            entered, op = self._ixu.popleft()
            eligible = op.opcode.op_class in _IXU_CLASSES
            self.energy["select_input"] += 1
            if (
                eligible
                and ixu_issues < core.config.decode_width
                and core.op_ready(op, cycle)
            ):
                # executes on an IXU ALU: no back-end port consumed
                core.ports.unassign(op.port)
                op.sched_tag = "ixu_exec"
                self.trace_steer(op, "ixu_exec")
                self.ixu_executed += 1
                ixu_issues += 1
                issued.append(op)
                continue
            if cycle - entered >= self.ixu_depth - 1:
                # fell out of the IXU: needs a back-end IQ entry
                if self.backend.can_accept(op):
                    self.backend.insert(op, cycle)
                    op.sched_tag = "backend"
                    self.trace_steer(op, "to_backend")
                else:
                    still.append((entered, op))  # back-end full: stall here
                    break
            else:
                still.append((entered, op))
        while self._ixu:
            still.append(self._ixu.popleft())
        self._ixu = still
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
            len(self._ixu) <= self.ixu_depth * self.core.config.decode_width
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
