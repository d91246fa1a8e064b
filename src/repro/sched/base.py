"""Scheduler interface.

A scheduler owns the scheduling window between dispatch and issue.  The
pipeline calls:

* :meth:`can_accept` / :meth:`insert` at dispatch (in program order);
* :meth:`select` once per simulated cycle — the scheduler picks ready
  micro-ops, acquiring issue ports through ``core.try_grant``, and
  returns them (cycles skipped as quiet repeat the calls that proved
  them quiet; see :attr:`SchedulerBase.skip_period`);
* :meth:`on_wakeup` when a physical register becomes ready (used for
  energy accounting of wakeup broadcasts);
* :meth:`on_op_ready` when a specific op's *last* outstanding dependence
  resolves (event-driven wakeup; lets windowed schedulers maintain
  their ready-set incrementally instead of re-polling every entry);
* :meth:`flush_from` on a squash.

Schedulers record their energy-relevant activity into ``core.energy``
(a Counter) using these event names:

=================  ======================================================
``wakeup_cam``     CAM tag comparisons performed by wakeup broadcasts
``select_input``   prefix-sum select-logic inputs examined
``iq_write``       scheduling-window entry writes (dispatch, copies)
``iq_read``        payload reads at issue
``pscb_read``      physical-register scoreboard reads (Ballerino/CES)
``pscb_write``     scoreboard updates
``steer``          steering-mux operations
=================  ======================================================

Idle-cycle skipping is opt-in per scheduler through :attr:`SchedulerBase.
skip_period` and the three ``quiet_*`` / ``next_event_cycle`` hooks below
(see docs/performance.md, "Idle-cycle skipping").
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple, TYPE_CHECKING

from ..core.ifop import InFlightOp

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import Pipeline


class SchedulerBase:
    """Common plumbing for all scheduling-window implementations."""

    kind = "base"

    #: Idle-cycle skipping opt-in.  ``0`` (the default) keeps this
    #: scheduler on the plain every-cycle loop.  ``n > 0`` promises, for
    #: any cycle in which nothing issues and nothing is dispatched:
    #:
    #: * ``select``/``can_accept`` change the window only in ways
    #:   :meth:`quiet_signature` sees, and a stretch of such cycles that
    #:   repeats brings the signature back within ``n`` cycles (Ballerino's
    #:   shared P-IQs alternate their examined head, so it needs 2);
    #: * every statistic they bump lives in ``core.energy`` or one of the
    #:   dicts :meth:`quiet_counters` returns;
    #: * they read the clock only through ``core.try_grant`` (whose FU
    #:   busy-until the pipeline watches) and :meth:`next_event_cycle`.
    skip_period = 0

    def __init__(self, core: "Pipeline"):
        self.core = core
        self.energy = core.energy
        #: the core's event tracer, or ``None`` when tracing is off
        self.tracer = getattr(core, "tracer", None)

    # -- telemetry -----------------------------------------------------
    def trace_steer(self, ifop: InFlightOp, cause: str) -> None:
        """Publish a ``steer`` event for this op.

        ``cause`` names the movement, e.g. ``dc->piq3.0`` or ``pass->q2``.
        Call it only when :attr:`tracer` is set, and build ``cause`` only
        then: with tracing off a steer formats no string.
        """
        self.tracer.emit(self.core.cycle, ifop.seq, "steer", cause)

    # -- dispatch ------------------------------------------------------
    def can_accept(self, ifop: InFlightOp) -> bool:
        raise NotImplementedError

    def insert(self, ifop: InFlightOp, cycle: int) -> None:
        raise NotImplementedError

    # -- issue ---------------------------------------------------------
    def select(self, cycle: int) -> List[InFlightOp]:
        raise NotImplementedError

    def on_wakeup(self, preg: int, cycle: int) -> None:
        """A physical register became ready (energy accounting hook)."""

    def on_op_ready(self, ifop: InFlightOp, cycle: int) -> None:
        """``ifop`` transitioned to fully ready (event-driven wakeup).

        Fired by the pipeline's :class:`~repro.core.wakeup.
        WakeupScoreboard` for every op whose last outstanding source (or
        MDP dependence) just resolved — wherever the op currently sits.
        Schedulers that keep an incremental ready-set override this; the
        default (head-polling FIFO designs, whose per-head check is
        already O(1)) ignores it.  Implementations must tolerate ops
        that are not (or no longer) resident in their window.
        """

    def on_complete(self, ifop: InFlightOp, cycle: int) -> None:
        """An op finished execution (training hook, e.g. delay trackers)."""

    # -- idle-cycle skipping (see skip_period) -------------------------
    def quiet_signature(self) -> Hashable:
        """Cheap fingerprint of what a cycle without issue or dispatch
        may move inside the window (queue lengths, examined heads).

        The default suits windows where only an issue moves an op.
        """
        return None

    def quiet_counters(self) -> Tuple[Dict, ...]:
        """The scheduler's own count dicts a quiet cycle may bump."""
        return ()

    def next_event_cycle(self, after: int) -> Optional[int]:
        """Earliest cycle ``> after`` at which ``select`` behaves
        differently on its own clock (e.g. an FXA IXU stage exit)."""
        return None

    # -- recovery ------------------------------------------------------
    def flush_from(self, seq: int) -> None:
        raise NotImplementedError

    # -- debug invariants (repro.verify) -------------------------------
    def check_invariants(self) -> None:
        """Assert window-shape invariants (FIFO order, capacity, ...).

        Called once per simulated cycle by :func:`repro.verify.invariants.
        check_pipeline` when the pipeline runs with ``check_invariants``
        set.  The default is a no-op; window implementations override it
        with structure-specific assertions.
        """

    # -- reporting -----------------------------------------------------
    def occupancy(self) -> int:
        raise NotImplementedError

    def queue_occupancy(self) -> Dict[str, int]:
        """Instantaneous per-queue depths for the interval sampler.

        Partitioned designs override this with one entry per internal
        queue (``siq``/``piq0``/...); the default reports the whole
        window as a single queue.
        """
        return {"window": self.occupancy()}

    def extra_stats(self) -> Dict[str, float]:
        return {}

    # -- end of run ----------------------------------------------------
    def detach(self) -> None:
        """Drop the back reference to the finished pipeline.

        ``Pipeline.scheduler`` and ``scheduler.core`` refer to each
        other; breaking the pair when the run ends lets reference
        counting free the pipeline (its caches, predictor tables and op
        table) as soon as its last user drops it, instead of leaving it
        to the cyclic collector.  Schedulers that wrap an inner window
        detach it too.  The reporting methods above keep working.
        """
        self.core = None
