"""In-flight micro-op bookkeeping shared by the pipeline and schedulers.

:class:`InFlightOp` used to be a mutable ``__slots__`` object allocated
fresh on every fetch.  It is now a *thin view* — two slots, a table
reference and a slot index — over one row of the structure-of-arrays
:class:`~repro.core.optable.OpTable`.  Every attribute the schedulers,
LSQ, telemetry and tests used to read or write is preserved as a
property that forwards to the backing column, so consumers are
unchanged; only the storage moved.

A view constructed directly (``InFlightOp(seq, op, decode_cycle)``, as
unit tests do) owns a private single-row table, so standalone ops keep
working without a pipeline around them.  Views handed out by
:meth:`OpTable.alloc` are recycled along with their slot; holders of
long-lived references must pair them with :attr:`gen` to detect
recycling (see the staleness discussion in :mod:`repro.core.optable`).

Timestamps follow the paper's Figure 3c stages: decode (fetch into the
front end), dispatch (into the scheduler), ready (last operand became
available), issue, complete, commit.
"""

from __future__ import annotations

from ..isa.instruction import DynOp
from ..workloads.trace import TraceColumns
from .optable import OpTable


# The accessors are compiled with direct attribute syntax (self._t.seq)
# rather than closing over getattr(...): on the hot path these run tens
# of thousands of times per simulated kilocycle, and the compiled form
# skips a builtins lookup and a call per access.


def _compile_field(src: str) -> property:
    namespace: dict = {}
    exec(src, namespace)
    return property(namespace["fget"], namespace["fset"])


def _int_field(name: str) -> property:
    return _compile_field(
        f"def fget(self):\n"
        f"    return self._t.{name}[self._i]\n"
        f"def fset(self, value):\n"
        f"    self._t.{name}[self._i] = value\n"
    )


def _flag_field(name: str) -> property:
    return _compile_field(
        f"def fget(self):\n"
        f"    return self._t.{name}[self._i] != 0\n"
        f"def fset(self, value):\n"
        f"    self._t.{name}[self._i] = 1 if value else 0\n"
    )


def _obj_field(name: str) -> property:
    return _compile_field(
        f"def fget(self):\n"
        f"    return self._t.{name}[self._i]\n"
        f"def fset(self, value):\n"
        f"    self._t.{name}[self._i] = value\n"
    )


class InFlightOp:
    """Mutable per-attempt state of one dynamic micro-op in the pipeline.

    A view over one :class:`OpTable` row.  The pipeline allocates one per
    fetch via :meth:`OpTable.alloc` (recycling both slot and view), so —
    unlike the seed design — a squashed-and-refetched op *may* alias an
    older reference; stale holders detect that through the :attr:`gen`
    stamp instead of object identity.
    """

    __slots__ = ("_t", "_i")

    def __init__(self, seq: int, op: DynOp, decode_cycle: int = 0):
        # standalone construction (unit tests, scratch ops): a private
        # single-row table backs this lone view, installed as the view
        # of the table's only slot before it is allocated.
        table = OpTable(1)
        table.views[0] = self
        self._t = table
        self._i = 0
        table.alloc(seq, op, decode_cycle, TraceColumns((op,)), 0)

    # integer timestamps / indices
    seq = _int_field("seq")
    decode_cycle = _int_field("decode_cycle")
    dispatch_cycle = _int_field("dispatch_cycle")
    issue_cycle = _int_field("issue_cycle")
    ready_cycle = _int_field("ready_cycle")
    complete_cycle = _int_field("complete_cycle")
    port = _int_field("port")
    iq_index = _int_field("iq_index")
    iq_partition = _int_field("iq_partition")
    wake_pending = _int_field("wake_pending")

    # boolean flags
    issued = _flag_field("issued")
    completed = _flag_field("completed")
    mispredicted = _flag_field("mispredicted")
    mdp_waiting = _flag_field("mdp_waiting")

    # object-valued fields
    op = _obj_field("op")
    dest_preg = _obj_field("dest_preg")
    src_pregs = _obj_field("src_pregs")
    prev_dest_preg = _obj_field("prev_dest_preg")
    dest_arch = _obj_field("dest_arch")
    mdp_dep_seq = _obj_field("mdp_dep_seq")
    klass = _obj_field("klass")  # Ld / LdC / Rst (paper Fig. 3c taxonomy)
    sched_tag = _obj_field("sched_tag")

    @property
    def gen(self) -> int:
        """Allocation generation of the backing slot (staleness stamp)."""
        return self._t.gen[self._i]

    @property
    def alive(self) -> bool:
        """Whether the backing slot is currently allocated to this op."""
        return bool(self._t.live[self._i])

    # convenience passthroughs -----------------------------------------
    @property
    def opcode(self):
        return self._t.op[self._i].opcode

    # Copied at alloc time from the trace's decoded columns into flag
    # columns of the op table: the 3-hop property chain (InFlightOp ->
    # DynOp -> Opcode) showed up in profiles at tens of thousands of
    # calls per simulation.
    @property
    def is_load(self) -> bool:
        return bool(self._t.is_load[self._i])

    @property
    def is_store(self) -> bool:
        return bool(self._t.is_store[self._i])

    @property
    def is_branch(self) -> bool:
        return bool(self._t.is_branch[self._i])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        op = self._t.op[self._i]
        name = op.opcode.name if op is not None else "<freed>"
        return f"<IFOp {self.seq} {name} port={self.port}>"
