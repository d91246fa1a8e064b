"""In-flight micro-op bookkeeping shared by the pipeline and schedulers.

Timestamps follow the paper's Figure 3c stages: decode (fetch into the
front end), dispatch (into the scheduler), ready (last operand became
available), issue, complete, commit.
"""

from __future__ import annotations

from typing import Optional

from ..isa.instruction import DynOp
from ..workloads.trace import TraceColumns


class InFlightOp:
    """Mutable per-attempt state of one dynamic micro-op in the pipeline.

    A fresh object is built each time the op is fetched, so a squashed
    and re-fetched op never aliases a stale reference: the event heap,
    the wakeup scoreboard and the OoO ready list recognise a dead op by
    identity alone.  Objects are never pooled; a dropped one is freed by
    reference counting and keeps its fields for any holder still looking.

    Args:
        seq: The op's position in the trace.
        op: The dynamic op itself.
        decode_cycle: Cycle the op was fetched.
        cols / row: The trace's decoded columns and the op's row there
            (the pipeline passes its trace's columns and ``seq``); the
            class id and load/store/branch flags are copied from them.
            ``None`` decodes the lone op, for ops built outside a
            pipeline (unit tests).
    """

    __slots__ = (
        "seq", "op", "op_class", "is_load", "is_store", "is_branch",
        "decode_cycle", "dispatch_cycle", "ready_cycle", "issue_cycle",
        "complete_cycle", "issued", "completed", "mispredicted",
        "dest_preg", "src_pregs", "prev_dest_preg", "dest_arch", "port",
        "klass", "iq_index", "iq_partition", "sched_tag", "wake_pending",
        "mdp_waiting", "mdp_dep_seq",
    )

    def __init__(self, seq: int, op: DynOp, decode_cycle: int = 0,
                 cols: Optional[TraceColumns] = None, row: int = 0):
        if cols is None:
            cols, row = TraceColumns((op,)), 0
        self.seq = seq
        self.op = op
        self.op_class = cols.op_class[row]
        self.is_load = cols.is_load[row] != 0
        self.is_store = cols.is_store[row] != 0
        self.is_branch = cols.is_branch[row] != 0
        self.decode_cycle = decode_cycle
        self.dispatch_cycle = -1
        self.ready_cycle = -1
        self.issue_cycle = -1
        self.complete_cycle = -1
        self.issued = False
        self.completed = False
        self.mispredicted = False
        # set at rename
        self.dest_preg: Optional[int] = None
        self.src_pregs: tuple = ()
        self.prev_dest_preg: Optional[int] = None
        self.dest_arch: Optional[int] = None
        self.port = -1
        self.klass = "Rst"  # Ld / LdC / Rst (paper Fig. 3c taxonomy)
        # scheduler scratch state
        self.iq_index = -1
        self.iq_partition = 0
        self.sched_tag = ""
        # event-driven wakeup state (see repro.core.wakeup): source pregs
        # still in flight, and whether an MDP dependence is unsatisfied
        self.wake_pending = 0
        self.mdp_waiting = False
        self.mdp_dep_seq: Optional[int] = None

    @property
    def opcode(self):
        return self.op.opcode

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IFOp {self.seq} {self.op.opcode.name} port={self.port}>"
