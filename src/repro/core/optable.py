"""Structure-of-arrays storage for in-flight micro-op state.

The seed simulator kept one mutable Python object per in-flight µop and
allocated a fresh one on every fetch (and every squash-refetch).  That
put the per-cycle hot path at the mercy of object allocation, attribute
dictionaries and the garbage collector.  :class:`OpTable` replaces it
with a preallocated *structure of arrays*: every field of an in-flight
op lives in its own parallel column — stdlib ``array`` columns for the
numeric/flag fields, plain lists for the object-valued ones — indexed
by a recycled **slot id**.

:class:`~repro.core.ifop.InFlightOp` is now a *thin view* (two slots:
table + slot index) over one row of this table, so every consumer of
the old object API — schedulers, the LSQ, telemetry, the invariant
checker, unit tests — keeps working unchanged.  The pipeline allocates
views through :meth:`OpTable.alloc` and returns them with
:meth:`OpTable.free`; both the slot *and* the view object are recycled,
so steady-state simulation performs no per-op allocation at all.

Staleness and generations
-------------------------
The seed design relied on object identity to invalidate stale
references ("a squashed-and-refetched op is a *new* object").  Slot
recycling breaks that invariant: a freed view can be handed out again,
possibly even for the same sequence number.  Every slot therefore
carries a monotonically increasing **generation** stamp, bumped on each
:meth:`alloc`.  Holders of long-lived references (the pipeline's event
queue, the wakeup scoreboard's consumer buckets, the OoO scheduler's
incremental ready-set) capture ``(view, view.gen)`` pairs and treat a
generation mismatch as "stale", which is exactly what object identity
used to mean.

Static facts
------------
An op's class id and load/store/branch flags are copied into the row at
:meth:`OpTable.alloc` from the trace's decoded columns
(:class:`~repro.workloads.trace.TraceColumns`, indexed by seq), so the
stages read them as ints.  Everything else fixed at trace build
(latency, destination, sources, fetch-stop kind) stays in those
columns, and the pipeline indexes them by the row's ``seq``.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Optional

#: signed 64-bit integer columns and their reset values
_INT_COLS = (
    ("seq", -1),
    ("decode_cycle", 0),
    ("dispatch_cycle", -1),
    ("issue_cycle", -1),
    ("ready_cycle", -1),
    ("complete_cycle", -1),
    ("port", -1),
    ("iq_index", -1),
    ("iq_partition", 0),
    ("wake_pending", 0),
)

#: byte columns: 0/1 flags (all reset to 0 except ``live``) and the
#: op-class id (``OpClass.id``)
_BYTE_COLS = ("issued", "completed", "mispredicted", "mdp_waiting",
              "live", "is_load", "is_store", "is_branch", "op_class")

#: object columns and their reset values (plain lists: keep None-ness)
_OBJ_COLS = (
    ("op", None),
    ("dest_preg", None),
    ("src_pregs", ()),
    ("prev_dest_preg", None),
    ("dest_arch", None),
    ("mdp_dep_seq", None),
    ("klass", "Rst"),
    ("sched_tag", ""),
)

_VIEW_CLASS = None


def _view_class():
    """Late-bound InFlightOp (ifop.py imports this module, not vice versa)."""
    global _VIEW_CLASS
    if _VIEW_CLASS is None:
        from .ifop import InFlightOp

        _VIEW_CLASS = InFlightOp
    return _VIEW_CLASS


class OpTable:
    """Preallocated parallel columns of in-flight op state.

    Args:
        capacity: Initial slot count; the table doubles on exhaustion,
            so this is a sizing hint (the pipeline passes its ROB size
            plus front-end queue depth), never a hard limit.
    """

    __slots__ = tuple(name for name, _ in _INT_COLS) + _BYTE_COLS + tuple(
        name for name, _ in _OBJ_COLS
    ) + ("gen", "capacity", "views", "_free", "_next_gen", "live_count")

    def __init__(self, capacity: int = 64):
        capacity = max(1, capacity)
        self.capacity = capacity
        for name, _ in _INT_COLS:
            setattr(self, name, array("q", bytes(8 * capacity)))
        for name in _BYTE_COLS:
            setattr(self, name, array("b", bytes(capacity)))
        for name, default in _OBJ_COLS:
            setattr(self, name, [default] * capacity)
        #: per-slot allocation generation (stale-reference detection)
        self.gen = array("q", bytes(8 * capacity))
        #: slot -> recycled InFlightOp view (created lazily, reused forever)
        self.views: List[Optional[object]] = [None] * capacity
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._next_gen = 1
        self.live_count = 0

    # ------------------------------------------------------------------
    # allocation / recycling
    # ------------------------------------------------------------------
    def _grow(self) -> None:
        old = self.capacity
        extra = old  # double
        for name, _ in _INT_COLS:
            getattr(self, name).extend(array("q", bytes(8 * extra)))
        for name in _BYTE_COLS:
            getattr(self, name).extend(array("b", bytes(extra)))
        for name, default in _OBJ_COLS:
            getattr(self, name).extend([default] * extra)
        self.gen.extend(array("q", bytes(8 * extra)))
        self.views.extend([None] * extra)
        self._free.extend(range(old + extra - 1, old - 1, -1))
        self.capacity = old + extra

    def alloc(self, seq: int, op, decode_cycle: int, cols, row: int):
        """Take (and reset) a free slot; returns its (recycled) view.

        ``cols`` is the :class:`~repro.workloads.trace.TraceColumns` the
        op was decoded into and ``row`` its row there (the pipeline's
        ``seq``); the slot copies that row's class id and flags.
        """
        free = self._free
        if not free:
            self._grow()
            free = self._free
        slot = free.pop()
        # reset every column (the recycled slot carries stale values)
        self.seq[slot] = seq
        self.decode_cycle[slot] = decode_cycle
        self.dispatch_cycle[slot] = -1
        self.issue_cycle[slot] = -1
        self.ready_cycle[slot] = -1
        self.complete_cycle[slot] = -1
        self.port[slot] = -1
        self.iq_index[slot] = -1
        self.iq_partition[slot] = 0
        self.wake_pending[slot] = 0
        self.issued[slot] = 0
        self.completed[slot] = 0
        self.mispredicted[slot] = 0
        self.mdp_waiting[slot] = 0
        self.live[slot] = 1
        self.op[slot] = op
        self.op_class[slot] = cols.op_class[row]
        self.is_load[slot] = cols.is_load[row]
        self.is_store[slot] = cols.is_store[row]
        self.is_branch[slot] = cols.is_branch[row]
        self.dest_preg[slot] = None
        self.src_pregs[slot] = ()
        self.prev_dest_preg[slot] = None
        self.dest_arch[slot] = None
        self.mdp_dep_seq[slot] = None
        self.klass[slot] = "Rst"
        self.sched_tag[slot] = ""
        self.gen[slot] = self._next_gen
        self._next_gen += 1
        self.live_count += 1
        view = self.views[slot]
        if view is None:
            cls = _view_class()
            view = cls.__new__(cls)
            view._t = self
            view._i = slot
            self.views[slot] = view
        return view

    def free(self, view) -> None:
        """Return a view's slot to the free list (idempotent).

        The view object itself is kept attached to the slot and handed
        out again by the next :meth:`alloc` of that slot; stale holders
        are expected to detect recycling through the generation stamp.
        """
        slot = view._i
        if view._t is not self or not self.live[slot]:
            return  # double-free (squash paranoia sweep) or foreign view
        self.live[slot] = 0
        # Columns are deliberately left intact until the slot is
        # re-allocated: the squash path frees ops before the scheduler /
        # LSQ flush sweeps run, and those may still read fields of the
        # dying op.  The DynOp reference is owned by the trace, so
        # keeping it alive here leaks nothing.
        self._free.append(slot)
        self.live_count -= 1

    # ------------------------------------------------------------------
    # bulk queries (analytics / snapshots)
    # ------------------------------------------------------------------
    def live_slots(self) -> List[int]:
        live = self.live
        return [slot for slot in range(self.capacity) if live[slot]]

    def summary(self) -> Dict[str, int]:
        """Aggregate occupancy counts over the live rows.

        Linear in table capacity.  Consumed by the deadlock snapshot
        (:mod:`repro.telemetry.snapshot`) so post-mortems show the
        op-table picture alongside the per-queue view.
        """
        live = self.live
        issued = self.issued
        completed = self.completed
        wake = self.wake_pending
        mdp = self.mdp_waiting
        out = {"capacity": self.capacity, "live": 0, "issued": 0,
               "completed": 0, "waiting_sources": 0, "waiting_mdp": 0}
        for slot in range(self.capacity):
            if not live[slot]:
                continue
            out["live"] += 1
            if issued[slot]:
                out["issued"] += 1
            if completed[slot]:
                out["completed"] += 1
            if wake[slot] > 0:
                out["waiting_sources"] += 1
            if mdp[slot]:
                out["waiting_mdp"] += 1
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<OpTable {self.live_count}/{self.capacity} live, "
                f"gen {self._next_gen}>")
