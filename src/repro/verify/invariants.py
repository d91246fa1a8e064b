"""Cross-structure microarchitectural invariants (per-cycle checks).

:func:`check_pipeline` is called once per simulated cycle by
:meth:`Pipeline._assert_invariants` when the pipeline is built with
``check_invariants=True``.  It layers *cross*-structure checks on top
of the per-structure ``check_invariants`` / ``debug_check`` hooks:

* the scheduler window's own shape (FIFO order, capacities, location
  bookkeeping) via ``scheduler.check_invariants()``;
* steering-scoreboard liveness — every P-SCB entry must point at a live,
  un-issued producer that really sits in the recorded P-IQ/partition
  (catches the stale-partition family of bugs around P-IQ collapse);
* LFST liveness via ``StoreSetPredictor.debug_check`` plus, for
  partitioned windows, hint-partition validity;
* LSQ/ROB agreement via ``LoadStoreUnit.debug_check``;
* in-flight accounting: the in-flight map is exactly the union of the
  decode queue, dispatch queue, and ROB;
* stall attribution conservation: one categorised sample per simulated
  cycle.

Failures raise :class:`InvariantViolation` (an ``AssertionError``
subclass) tagged with the cycle and config so the fuzzer can report and
shrink them.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from ..core.pipeline import Pipeline


class InvariantViolation(AssertionError):
    """A per-cycle microarchitectural invariant failed."""


def check_pipeline(pipe: "Pipeline") -> None:
    """Run every cross-structure invariant; raise on the first failure."""
    try:
        _check(pipe)
    except InvariantViolation:
        raise
    except AssertionError as exc:
        raise InvariantViolation(
            f"[{pipe.config.name}] cycle {pipe.cycle}: {exc}"
        ) from exc


def _check(pipe: "Pipeline") -> None:
    sched = pipe.scheduler
    sched.check_invariants()

    # -- in-flight accounting ------------------------------------------
    tracked = (
        len(pipe.rob) + len(pipe.decode_queue) + len(pipe.dispatch_queue)
    )
    assert len(pipe.inflight) == tracked, (
        f"in-flight map leak: {len(pipe.inflight)} tracked ops but "
        f"rob+decode+dispatch hold {tracked}"
    )

    # -- LSQ / ROB agreement -------------------------------------------
    rob_loads = {op.seq for op in pipe.rob._entries if op.is_load}
    rob_stores = {op.seq for op in pipe.rob._entries if op.is_store}
    pipe.lsu.debug_check(rob_loads, rob_stores)

    # -- steering-scoreboard liveness ----------------------------------
    steer = getattr(sched, "steer", None)
    if steer is not None:
        piqs = getattr(sched, "piqs", None)
        for preg, info in steer.items():
            owner = pipe.inflight.get(info.owner_seq)
            assert owner is not None, (
                f"P-SCB[{preg}]: owner seq {info.owner_seq} not in flight"
            )
            assert not owner.issued, (
                f"P-SCB[{preg}]: owner seq {info.owner_seq} already issued"
            )
            assert owner.dest_preg == preg, (
                f"P-SCB[{preg}]: owner seq {info.owner_seq} writes "
                f"p{owner.dest_preg}"
            )
            assert owner.iq_index == info.iq, (
                f"P-SCB[{preg}]: records P-IQ {info.iq}, owner seq "
                f"{info.owner_seq} lives in {owner.iq_index}"
            )
            if piqs is not None and hasattr(piqs[info.iq], "partitions"):
                piq = piqs[info.iq]
                assert info.partition < len(piq.partitions), (
                    f"P-SCB[{preg}]: stale partition {info.partition} on "
                    f"P-IQ {info.iq} ({len(piq.partitions)} partitions) — "
                    f"collapse remap was not propagated"
                )
                assert owner.iq_partition == info.partition, (
                    f"P-SCB[{preg}]: records partition {info.partition}, "
                    f"owner seq {info.owner_seq} lives in "
                    f"{owner.iq_partition}"
                )

    # -- LFST liveness + hint-partition validity -----------------------
    if pipe.mdp is not None:
        pipe.mdp.debug_check(pipe.inflight)
        piqs = getattr(sched, "piqs", None)
        if piqs is not None:
            for ssid, entry in pipe.mdp._lfst.items():
                if not (entry.valid and entry.iq_index is not None):
                    continue
                assert entry.iq_index < len(piqs), (
                    f"LFST[{ssid}]: P-IQ index {entry.iq_index} out of range"
                )
                piq = piqs[entry.iq_index]
                if hasattr(piq, "partitions"):
                    assert entry.partition < len(piq.partitions), (
                        f"LFST[{ssid}]: stale partition {entry.partition} "
                        f"on P-IQ {entry.iq_index} "
                        f"({len(piq.partitions)} partitions) — collapse "
                        f"remap was not propagated"
                    )

    # -- stall-attribution conservation --------------------------------
    attribution = pipe.attribution
    if attribution is not None:
        assert attribution.samples == pipe.cycle + 1, (
            f"attribution sampled {attribution.samples} cycles at "
            f"cycle {pipe.cycle}"
        )
