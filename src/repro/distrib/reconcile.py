"""Reconciliation: prove a campaign complete and correct, or repair it.

Two stages:

* the **detector** three-way-diffs the *expected matrix* (from the
  campaign manifest) against the *disk cache* (through the runner's
  read-only :meth:`~repro.analysis.runner.ExperimentRunner.read_entry`
  — the detector never mutates what it audits) and the *merged
  run-logs* (read tolerantly, because chaos and dying shards tear
  them), classifying every cell into one of :data:`CELL_STATES`.  The
  campaign merge (:func:`~repro.distrib.campaign.merge_shards`) reads
  the same verdicts;
* the **repair loop** (:func:`reconcile_campaign`) re-runs, each round,
  the damaged cells whose repair attempts are still below the per-cell
  budget (:func:`repairable`), so a cell that keeps failing cannot spin
  the loop forever.  One fault-tolerant
  :class:`~repro.analysis.runner.ExperimentRunner` runs each round and
  is closed after it, so quarantine state from an earlier round doesn't
  pin a now-healthy cell.  It takes the CLI's jobs, task timeout and
  retries, discards a bad cache entry before re-simulating (logging a
  ``cache_warning`` with the reason) and writes its lifecycle to
  ``reconcile.jsonl``; the detector then re-runs, until the matrix
  converges or the budget is exhausted.

Cell-state taxonomy
-------------------

==============  ==========================================================
``ok``          a healthy cache entry exists
``missing``     no cache entry and no run-log account — never ran, or
                its shard died before starting it
``quarantined`` the run-logs record a quarantine (deadlock / poison /
                exhausted retries) and no healthy result superseded it
``orphaned``    the run-logs say the cell *finished*, but the cache has
                no usable entry — the result vanished after the fact
``corrupt``     a cache entry exists but is unusable: unreadable,
                binary garbage, zero-byte, invalid JSON, not an object,
                missing result fields, undeserialisable, or a payload
                whose identity does not match the cell (misfiled)
==============  ==========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from ..core.stats import SimResult
from ..serve.protocol import Cell
from ..telemetry.runlog import RunLog, read_run_log_tolerant
from ..telemetry.spans import SpanRecorder, derive_span_id
from .campaign import (CampaignSpec, campaign_root_context, load_manifest,
                       make_runner)

#: Every state the detector can assign, healthy first.
CELL_STATES = ("ok", "missing", "quarantined", "orphaned", "corrupt")

#: Run-log events that account for a cell: the last one a cell has wins.
_ACCOUNT_EVENTS = ("finish", "cache_hit", "quarantine")

#: Default per-cell repair attempts before reconcile gives up on it.
DEFAULT_CELL_BUDGET = 2

#: Default detector->repair->re-verify rounds.
DEFAULT_MAX_ROUNDS = 3


@dataclass
class CellStatus:
    """The detector's verdict for one cell of the matrix."""

    seq: int
    cell: Cell
    key: str
    state: str
    detail: str = ""
    #: the cached result of an ``ok`` cell
    result: Optional[SimResult] = field(default=None, repr=False)
    #: the run-log record that accounts for the cell (its last
    #: ``finish``, ``cache_hit`` or ``quarantine``); None when no log
    #: mentions it
    record: Optional[Dict] = field(default=None, repr=False)

    def to_dict(self) -> Dict:
        return {"seq": self.seq, "cell": self.cell.to_dict(),
                "key": self.key, "state": self.state, "detail": self.detail}


@dataclass
class CampaignDiff:
    """The full three-way diff: one :class:`CellStatus` per cell."""

    statuses: List[CellStatus]
    #: damaged run-log lines skipped while reading
    skipped_lines: int = 0

    def by_state(self) -> Dict[str, int]:
        counts = {state: 0 for state in CELL_STATES}
        for status in self.statuses:
            counts[status.state] += 1
        return counts

    @property
    def damaged(self) -> List[CellStatus]:
        return [s for s in self.statuses if s.state != "ok"]

    @property
    def converged(self) -> bool:
        return not self.damaged

    def summary(self) -> str:
        counts = self.by_state()
        parts = [f"{state}={counts[state]}" for state in CELL_STATES
                 if counts[state]]
        verdict = "CONVERGED" if self.converged else "DAMAGED"
        return (f"reconcile diff {verdict}: {len(self.statuses)} cells "
                f"[{', '.join(parts) or 'empty'}]")


class Detector:
    """Read-only three-way diff of matrix vs cache vs run-logs."""

    def __init__(self, spec: CampaignSpec,
                 cache_dir: Optional[str] = None):
        self.spec = spec
        # probe runner: keys and cache reads only, never runs, records
        # no spans (a $REPRO_SPANS file would be opened and never closed)
        self._runner = make_runner(spec, cache_dir=cache_dir, spans="")

    # ------------------------------------------------------------------
    def expected(self) -> List[Tuple[int, Cell, str]]:
        """The matrix as ``(seq, cell, key)`` in submission order."""
        out = []
        for seq, cell in enumerate(self.spec.cells()):
            workload, config, seed = cell.task(self.spec.seed)
            out.append((seq, cell, self._runner.key_for(workload, config,
                                                        seed)))
        return out

    def read_logs(
        self, campaign_dir: Union[str, Path],
    ) -> Tuple[Dict[str, Dict], int]:
        """Fold every run-log in the campaign directory.

        Returns ``(accounts, skipped_lines)``: each cell key's last
        ``finish``, ``cache_hit`` or ``quarantine`` record, in file-name
        then line order.  So a ``finish`` after a ``quarantine``
        supersedes it (a repair round healed the cell), and a later
        ``quarantine`` marks a finished cell failed again; the cache
        entry, when healthy, outranks both.
        """
        accounts: Dict[str, Dict] = {}
        skipped = 0
        for log_path in sorted(Path(campaign_dir).glob("*.jsonl")):
            records, bad = read_run_log_tolerant(str(log_path))
            skipped += bad
            for record in records:
                key = record.get("key")
                if (isinstance(key, str)
                        and record.get("event") in _ACCOUNT_EVENTS):
                    accounts[key] = record
        return accounts, skipped

    # ------------------------------------------------------------------
    def diff(self, campaign_dir: Union[str, Path]) -> CampaignDiff:
        """Classify every cell of the matrix (see the module taxonomy)."""
        accounts, skipped = self.read_logs(campaign_dir)
        statuses: List[CellStatus] = []
        for seq, cell, key in self.expected():
            state, detail, result = self._runner.read_entry(key,
                                                            cell.workload)
            record = accounts.get(key)
            if state == "absent":
                state, detail = _account_verdict(record)
            statuses.append(CellStatus(seq=seq, cell=cell, key=key,
                                       state=state, detail=detail,
                                       result=result, record=record))
        return CampaignDiff(statuses=statuses, skipped_lines=skipped)


def _account_verdict(record: Optional[Dict]) -> Tuple[str, str]:
    """State and detail of a cell without a cache entry, from its log."""
    if record is None:
        return "missing", "no cache entry, no run-log account"
    if record["event"] == "quarantine":
        return "quarantined", (f"{record.get('kind', 'error')} after "
                               f"{record.get('attempts', '?')} attempt(s): "
                               f"{record.get('error', '')}")
    return "orphaned", (f"run-log records {record['event']} but the cache "
                        f"entry is gone")


# ---------------------------------------------------------------------------
# the repair loop
# ---------------------------------------------------------------------------


def repairable(diff: CampaignDiff, attempts: Dict[str, int],
               cell_budget: int) -> List[CellStatus]:
    """The damaged cells of ``diff`` that still have repair budget.

    ``attempts`` counts the rounds that already re-ran each cell key; a
    cell that stays damaged through ``cell_budget`` of them is left for
    the report's ``unrepaired`` list — quarantine semantics, one level
    up.
    """
    return [status for status in diff.damaged
            if attempts.get(status.key, 0) < cell_budget]


@dataclass
class ReconcileReport:
    """Machine-readable account of one reconciliation run."""

    cells: int
    initial: Dict[str, int]
    final: Dict[str, int] = field(default_factory=dict)
    rounds: List[Dict] = field(default_factory=list)
    converged: bool = False
    repaired: int = 0
    #: cells still damaged when the loop stopped
    unrepaired: List[Dict] = field(default_factory=list)
    skipped_lines: int = 0
    seconds: float = 0.0

    def to_dict(self) -> Dict:
        return {
            "cells": self.cells,
            "initial": self.initial,
            "final": self.final,
            "rounds": self.rounds,
            "converged": self.converged,
            "repaired": self.repaired,
            "unrepaired": self.unrepaired,
            "skipped_lines": self.skipped_lines,
            "seconds": round(self.seconds, 6),
        }

    def summary(self) -> str:
        verdict = "CONVERGED" if self.converged else "NOT CONVERGED"
        damaged = sum(count for state, count in self.initial.items()
                      if state != "ok")
        return (f"reconcile {verdict}: {self.cells} cells, {damaged} "
                f"initially damaged, {self.repaired} repaired over "
                f"{len(self.rounds)} round(s), "
                f"{len(self.unrepaired)} unrepaired")


def reconcile_campaign(
    campaign_dir: Union[str, Path],
    spec: Optional[CampaignSpec] = None,
    cache_dir: Optional[str] = None,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    cell_budget: int = DEFAULT_CELL_BUDGET,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    progress=None,
    spans: bool = False,
) -> ReconcileReport:
    """Detect, repair and re-verify a campaign until it converges.

    Each round re-runs the :func:`repairable` cells through one runner
    built for it (``jobs`` workers, ``task_timeout`` and ``retries`` as
    in any campaign) against the shared cache, and closes it after.
    The runner reads each cell's entry through ``read_entry``: a bad
    one is logged as a ``cache_warning`` and deleted before the cell
    re-simulates.  Its lifecycle goes to ``reconcile.jsonl`` in the
    campaign directory, so the next detector round sees the repairs — a
    repaired quarantine is superseded by its ``finish`` record, and a
    repair that quarantines again is charged against the cell's budget.
    With ``spans``, every round is a ``reconcile_round`` span in the
    campaign's trace and parents its cells.  The loop stops after
    ``max_rounds`` rounds, or when no damaged cell has budget left.
    """
    spec = spec if spec is not None else load_manifest(campaign_dir)
    say = progress or (lambda _msg: None)
    max_rounds, cell_budget = max(1, max_rounds), max(1, cell_budget)
    started = time.perf_counter()
    root = Path(campaign_dir)
    root.mkdir(parents=True, exist_ok=True)
    log_path = str(root / "reconcile.jsonl")
    log = RunLog(log_path)
    # rides the campaign's deterministic trace so repairs land in the
    # same merged view as the shards they heal
    recorder = (SpanRecorder(str(root / "spans-reconcile.jsonl"))
                if spans else None)
    try:
        reconcile_span = None
        if recorder is not None:
            parent = campaign_root_context(spec)
            reconcile_span = recorder.start(
                "reconcile", parent=parent,
                span_id=derive_span_id(parent.trace_id, "reconcile"),
                max_rounds=max_rounds)
        detector = Detector(spec, cache_dir=cache_dir)
        diff = detector.diff(root)
        report = ReconcileReport(cells=len(diff.statuses),
                                 initial=diff.by_state(),
                                 skipped_lines=diff.skipped_lines)
        log.log("reconcile_start", cells=report.cells,
                max_rounds=max_rounds)
        say("reconcile: " + diff.summary())
        attempts: Dict[str, int] = {}
        rounds = 0
        while not diff.converged and rounds < max_rounds:
            repairs = repairable(diff, attempts, cell_budget)
            if not repairs:
                break
            rounds += 1
            round_span = trace = None
            if recorder is not None:
                round_span = recorder.start(
                    "reconcile_round", parent=reconcile_span,
                    span_id=derive_span_id(reconcile_span.trace_id,
                                           "reconcile_round", rounds),
                    round=rounds, repairs=len(repairs))
                trace = round_span.context
            for status in repairs:
                attempts[status.key] = attempts.get(status.key, 0) + 1
            states = ", ".join(sorted({status.state for status in repairs}))
            say(f"reconcile: round {rounds} — repairing {len(repairs)} "
                f"cell(s) ({states})")
            runner = make_runner(
                spec, cache_dir, run_log=log_path, jobs=jobs,
                task_timeout=task_timeout, retries=retries, spans=recorder)
            try:
                runner.run_many(
                    [status.cell.task(spec.seed) for status in repairs],
                    trace=trace)
            finally:
                runner.close()
            diff = detector.diff(root)
            round_states = diff.by_state()
            log.log("reconcile_round", round=rounds, repairs=len(repairs),
                    damaged=len(diff.damaged), states=round_states)
            if round_span is not None:
                recorder.finish(round_span,
                                damaged_after=len(diff.damaged))
            report.rounds.append({
                "round": rounds,
                "repairs": len(repairs),
                "damaged_after": len(diff.damaged),
                "states": round_states,
            })
            say("reconcile: " + diff.summary())
        report.final = diff.by_state()
        report.converged = diff.converged
        healthy_now = report.final.get("ok", 0)
        healthy_then = report.initial.get("ok", 0)
        report.repaired = max(0, healthy_now - healthy_then)
        report.unrepaired = [status.to_dict() for status in diff.damaged]
        report.seconds = time.perf_counter() - started
        log.log("reconcile_end", converged=report.converged, rounds=rounds,
                repaired=report.repaired)
        if recorder is not None:
            recorder.finish(
                reconcile_span,
                status="ok" if report.converged else "error",
                rounds=rounds, repaired=report.repaired)
        return report
    finally:
        if recorder is not None:
            recorder.close()
        log.close()
