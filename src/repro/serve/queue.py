"""Durable, crash-safe job queue with priority lanes and admission control.

The queue is the daemon's source of truth.  Every state transition is
appended to ``<root>/journal.jsonl`` through the same validated,
flushed-per-line :class:`~repro.telemetry.runlog.RunLog` writer the
campaign run-log uses, and recovery goes through the same
torn-tail-tolerant :func:`~repro.telemetry.runlog.read_run_log`: a
daemon killed mid-write loses at most the torn final line, and on
restart every job that was enqueued but never reached ``job_done`` /
``job_failed`` / ``job_cancelled`` is requeued in its original
submission order.  Replay is cheap because results live in the shared
``.bench_cache`` — a replayed job's already-simulated cells are cache
hits.

Completed jobs additionally persist their ordered result stream to
``<root>/results/<job_id>.json`` (written atomically), so ``GET
/jobs/<id>/results`` keeps working across daemon restarts.

Admission control, per Carroll & Lin's queuing-model framing: two
FIFO **lanes** (``interactive`` ahead of ``batch``) give the
interactive class strict dispatch priority; a per-tenant **token
bucket** bounds each tenant's sustained submit rate (refusals carry a
``retry_after`` hint); and a bounded total depth applies
**backpressure** — a full queue refuses new work with a structured
429-style rejection instead of queueing it silently.
"""

from __future__ import annotations

import json
import os
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..telemetry.metrics import MetricsRegistry
from ..telemetry.runlog import RunLog, read_run_log
from .protocol import JOB_STATES, PRIORITY_CLASSES, JobSpec

#: States in which a job will never run again.
TERMINAL_STATES = ("done", "failed", "cancelled")

#: Default cap on queued (not-yet-running) jobs before backpressure.
DEFAULT_MAX_DEPTH = 64

#: Default per-tenant sustained submit rate (jobs/second) and burst.
#: The rate sits well above what one client that waits for each job
#: before sending the next reaches on cold cells (a sampled interactive
#: cell is served in ~0.1 s: 10-12 jobs/s), so such a client is never
#: refused for the daemon's own speed.
DEFAULT_RATE = 50.0
DEFAULT_BURST = 20


def new_job_id() -> str:
    """A fresh job id (unique across daemon restarts)."""
    return f"j-{uuid.uuid4().hex[:12]}"


class QueueRejection(Exception):
    """A structured admission refusal (HTTP 429 at the API boundary)."""

    code = "rejected"

    def __init__(self, message: str, retry_after: Optional[float] = None):
        super().__init__(message)
        self.message = message
        self.retry_after = retry_after

    def to_dict(self) -> Dict:
        body: Dict[str, object] = {"code": self.code, "message": self.message}
        if self.retry_after is not None:
            body["retry_after"] = round(self.retry_after, 3)
        return body


class RateLimited(QueueRejection):
    """The tenant's token bucket is empty; retry after the hint."""

    code = "rate-limited"


class QueueFull(QueueRejection):
    """Backpressure: the bounded queue depth is exhausted."""

    code = "queue-full"


class TokenBucket:
    """Classic token bucket: ``rate`` tokens/sec, capacity ``burst``.

    ``try_take`` returns ``None`` on success or the seconds until a
    token will be available (the 429 ``retry_after`` hint).  The clock
    is injectable so tests don't sleep.
    """

    def __init__(self, rate: float, burst: float,
                 clock: Callable[[], float] = time.monotonic):
        if rate <= 0 or burst <= 0:
            raise ValueError("rate and burst must be positive")
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self._tokens = float(burst)
        self._last = clock()

    def _refill(self) -> None:
        now = self._clock()
        self._tokens = min(self.burst,
                           self._tokens + (now - self._last) * self.rate)
        self._last = now

    def try_take(self) -> Optional[float]:
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return None
        return (1.0 - self._tokens) / self.rate


@dataclass
class JobState:
    """One job's full server-side state (spec + lifecycle + results)."""

    spec: JobSpec
    status: str = "queued"
    submitted_t: float = 0.0
    started_t: Optional[float] = None
    finished_t: Optional[float] = None
    failed_cells: int = 0
    error: str = ""
    #: ordered result envelopes released by the resequencer so far;
    #: for a job completed in an earlier daemon life this is loaded
    #: lazily from the results file.
    results: List[Dict] = field(default_factory=list)
    results_loaded: bool = True

    def status_dict(self) -> Dict:
        assert self.status in JOB_STATES
        return {
            "job_id": self.spec.job_id,
            "status": self.status,
            "priority": self.spec.priority,
            "tenant": self.spec.tenant,
            "cells": len(self.spec.cells),
            "results_ready": len(self.results) if self.results_loaded else
            len(self.spec.cells),
            "failed_cells": self.failed_cells,
            "error": self.error,
            "submitted_t": self.submitted_t,
            "started_t": self.started_t,
            "finished_t": self.finished_t,
        }


class DurableJobQueue:
    """Journal-backed priority queue; every method is thread-safe."""

    def __init__(
        self,
        root: str,
        max_depth: int = DEFAULT_MAX_DEPTH,
        rate: float = DEFAULT_RATE,
        burst: float = DEFAULT_BURST,
        clock: Callable[[], float] = time.monotonic,
        metrics: Optional[MetricsRegistry] = None,
    ):
        self.root = Path(root)
        self.results_dir = self.root / "results"
        self.results_dir.mkdir(parents=True, exist_ok=True)
        self.max_depth = max_depth
        self.rate = rate
        self.burst = burst
        self._clock = clock
        self.metrics = metrics
        self._cond = threading.Condition()
        self.jobs: Dict[str, JobState] = {}
        self._lanes: Dict[str, List[str]] = {
            lane: [] for lane in PRIORITY_CLASSES}
        self._idempotency: Dict[Tuple[str, str], str] = {}
        self._buckets: Dict[str, TokenBucket] = {}
        self.rejections = 0
        journal_path = self.root / "journal.jsonl"
        self._journal_path = journal_path
        #: jobs whose complete results file recovered a torn job_done
        self.recovered_jobs: List[str] = []
        replayed = self._replay(journal_path) if journal_path.exists() else 0
        self.replayed_jobs = replayed
        # startup compaction: drop terminal jobs' events so the journal
        # stays proportional to *live* work, not daemon lifetime
        kept, dropped = (self._compact_lines()
                         if journal_path.exists() else ([], 0))
        if dropped:
            self._rewrite_journal(kept)
        self._journal = RunLog(str(journal_path))
        for job_id in self.recovered_jobs:
            self._journal.log("job_recovered", job_id=job_id,
                              cells=len(self.jobs[job_id].spec.cells))
        if dropped:
            self._journal.log("journal_compact", kept=len(kept),
                              dropped=dropped)
        self._depth_gauges()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _replay(self, journal_path: Path) -> int:
        """Rebuild queue state from the journal (torn tail tolerated).

        Jobs enqueued but not terminal are requeued in submission
        order; terminal jobs keep their status, with done results
        loaded lazily from the results files.
        """
        requeued = 0
        order: List[str] = []
        for record in read_run_log(str(journal_path)):
            event = record.get("event")
            if event == "job_enqueue":
                spec = JobSpec.from_dict(record["spec"])
                state = JobState(spec=spec, submitted_t=record["t"])
                self.jobs[spec.job_id] = state
                order.append(spec.job_id)
                if spec.idempotency_key:
                    self._idempotency[(spec.tenant, spec.idempotency_key)] \
                        = spec.job_id
            elif event == "job_done":
                state = self.jobs.get(record["job_id"])
                if state is not None:
                    state.status = "done"
                    state.failed_cells = record["failed_cells"]
                    state.finished_t = record["t"]
                    state.results_loaded = False
            elif event == "job_failed":
                state = self.jobs.get(record["job_id"])
                if state is not None:
                    state.status = "failed"
                    state.error = record["error"]
                    state.finished_t = record["t"]
            elif event == "job_cancelled":
                state = self.jobs.get(record["job_id"])
                if state is not None:
                    state.status = "cancelled"
        for job_id in order:
            state = self.jobs[job_id]
            if state.status in TERMINAL_STATES:
                continue
            if self._recover_torn_done(state):
                continue
            state.status = "queued"
            state.started_t = None
            state.results = []
            self._lanes[state.spec.priority].append(job_id)
            requeued += 1
        return requeued

    def _recover_torn_done(self, state: JobState) -> bool:
        """Detect a job whose ``job_done`` journal record was torn off.

        ``mark_done`` persists the ordered results file *before*
        journaling ``job_done``; a crash in that window leaves a
        complete results file for a journal-non-terminal job.  Replay
        must classify it as done — requeueing would double-run the job
        (cheaply, via cache hits, but its results_ready would bounce
        and a torn-off failure count would be lost).  A *partial*
        results file never matches the cell count, so genuinely
        interrupted jobs still requeue.
        """
        path = self._results_path(state.spec.job_id)
        if not path.exists():
            return False
        try:
            envelopes = json.loads(path.read_text())
        except (OSError, ValueError):
            return False
        if (not isinstance(envelopes, list)
                or len(envelopes) != len(state.spec.cells)):
            return False
        state.status = "done"
        state.failed_cells = sum(
            1 for envelope in envelopes
            if isinstance(envelope, dict) and not envelope.get("ok"))
        state.finished_t = time.time()
        state.results = []
        state.results_loaded = False
        self.recovered_jobs.append(state.spec.job_id)
        return True

    # ------------------------------------------------------------------
    # journal compaction
    # ------------------------------------------------------------------
    def _live_job_ids(self) -> set:
        return {job_id for job_id, state in self.jobs.items()
                if state.status not in TERMINAL_STATES}

    def _compact_lines(self) -> Tuple[List[str], int]:
        """Partition the journal's raw lines into (keep, dropped-count).

        Raw lines (not re-logged records) so surviving events keep
        their original ``t``/``elapsed`` stamps.  Kept: every event
        carrying the ``job_id`` of a currently non-terminal job — the
        exact set replay needs to rebuild the queue.  Dropped: terminal
        jobs' histories, job-less audit records (rejections, previous
        compactions) and undecodable lines.
        """
        live = self._live_job_ids()
        keep: List[str] = []
        dropped = 0
        try:
            lines = self._journal_path.read_text(
                encoding="utf-8", errors="replace").splitlines()
        except OSError:
            return [], 0
        for line in lines:
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except ValueError:
                dropped += 1
                continue
            if isinstance(record, dict) and record.get("job_id") in live:
                keep.append(line)
            else:
                dropped += 1
        return keep, dropped

    def _rewrite_journal(self, keep: List[str]) -> None:
        path = self._journal_path
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text("\n".join(keep) + ("\n" if keep else ""),
                       encoding="utf-8")
        os.replace(tmp, path)

    def compact(self) -> Tuple[int, int]:
        """Atomically shrink the journal to live jobs' events only.

        Closes the writer, rewrites the file (tmp + ``os.replace`` — a
        crash mid-compaction leaves the old journal intact), reopens,
        and journals a ``journal_compact`` marker.  Returns ``(kept,
        dropped)`` line counts.  Startup performs the same compaction
        automatically after replay.
        """
        with self._cond:
            self._journal.close()
            keep, dropped = self._compact_lines()
            self._rewrite_journal(keep)
            self._journal = RunLog(str(self._journal_path))
            self._journal.log("journal_compact", kept=len(keep),
                              dropped=dropped)
            return len(keep), dropped

    def log(self, event: str, **fields) -> None:
        """Append one journal event (thread-safe; used by the pool too)."""
        with self._cond:
            self._journal.log(event, **fields)

    def _results_path(self, job_id: str) -> Path:
        return self.results_dir / f"{job_id}.json"

    def _depth_gauges(self) -> None:
        if self.metrics is None:
            return
        for lane, ids in self._lanes.items():
            self.metrics.set_gauge(f"serve.queue.depth.{lane}", len(ids))
        self.metrics.set_gauge("serve.queue.depth", self.depth())

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def depth(self) -> int:
        """Jobs admitted but not yet dispatched (both lanes)."""
        return sum(len(ids) for ids in self._lanes.values())

    def submit(self, spec: JobSpec) -> Tuple[JobState, bool]:
        """Admit one job; returns ``(state, created)``.

        ``created`` is False on an idempotency-key hit (the original
        job's state is returned and nothing is enqueued or charged
        against the tenant's rate budget).  Raises :class:`RateLimited`
        or :class:`QueueFull` on refusal — both journaled as
        ``job_reject`` for the audit trail.
        """
        with self._cond:
            if spec.idempotency_key:
                existing = self._idempotency.get(
                    (spec.tenant, spec.idempotency_key))
                if existing is not None:
                    return self.jobs[existing], False
            bucket = self._buckets.get(spec.tenant)
            if bucket is None:
                bucket = self._buckets[spec.tenant] = TokenBucket(
                    self.rate, self.burst, self._clock)
            wait = bucket.try_take()
            if wait is not None:
                self.rejections += 1
                self._journal.log("job_reject", tenant=spec.tenant,
                                  code="rate-limited",
                                  reason=f"retry after {wait:.3f}s")
                if self.metrics is not None:
                    self.metrics.count("serve.queue.rejected.rate_limited")
                raise RateLimited(
                    f"tenant {spec.tenant!r} exceeded {self.rate:g} "
                    f"jobs/s (burst {self.burst:g})", retry_after=wait)
            if self.depth() >= self.max_depth:
                self.rejections += 1
                self._journal.log("job_reject", tenant=spec.tenant,
                                  code="queue-full",
                                  reason=f"depth {self.depth()} >= "
                                         f"{self.max_depth}")
                if self.metrics is not None:
                    self.metrics.count("serve.queue.rejected.queue_full")
                raise QueueFull(
                    f"queue full ({self.max_depth} jobs); retry later",
                    retry_after=1.0)
            state = JobState(spec=spec, submitted_t=time.time())
            self.jobs[spec.job_id] = state
            self._lanes[spec.priority].append(spec.job_id)
            if spec.idempotency_key:
                self._idempotency[(spec.tenant, spec.idempotency_key)] \
                    = spec.job_id
            self._journal.log("job_enqueue", job_id=spec.job_id,
                              tenant=spec.tenant, priority=spec.priority,
                              cells=len(spec.cells), spec=spec.to_dict())
            if self.metrics is not None:
                self.metrics.count("serve.queue.enqueued")
            self._depth_gauges()
            self._cond.notify_all()
            return state, True

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def next_job(self, classes: Sequence[str] = PRIORITY_CLASSES,
                 timeout: Optional[float] = 0.0) -> Optional[JobState]:
        """Pop the highest-priority queued job, or ``None``.

        Lanes are scanned in :data:`~repro.serve.protocol.
        PRIORITY_CLASSES` order restricted to ``classes`` — an
        interactive job always dispatches ahead of every queued batch
        job.  ``timeout`` is how long to block waiting for work (0 =
        non-blocking).
        """
        deadline = (time.monotonic() + timeout) if timeout else None
        with self._cond:
            while True:
                for lane in PRIORITY_CLASSES:
                    if lane in classes and self._lanes[lane]:
                        job_id = self._lanes[lane].pop(0)
                        state = self.jobs[job_id]
                        state.status = "running"
                        state.started_t = time.time()
                        self._journal.log("job_dispatch", job_id=job_id,
                                          priority=lane)
                        self._depth_gauges()
                        return state
                if deadline is None:
                    return None
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return None
                self._cond.wait(remaining)

    def wait(self, idle: Callable[[], bool]) -> None:
        """Block while no job is queued and ``idle()`` holds.

        An idle dispatcher's wait: :meth:`submit`, :meth:`requeue` and
        :meth:`notify` wake it.  ``idle`` is evaluated under the same
        condition, so work that appears between a caller's own check
        and its wait is never missed.
        """
        with self._cond:
            while not self.depth() and idle():
                self._cond.wait()

    def notify(self) -> None:
        """Wake every :meth:`wait` (work buffered outside the queue, or
        a shutdown)."""
        with self._cond:
            self._cond.notify_all()

    def requeue(self, job_id: str, reason: str) -> None:
        """Put a dispatched-but-unfinished job back at the front of its lane.

        Used by graceful shutdown; crash recovery reaches the same
        state through journal replay.  Partial results are discarded —
        the rerun's cells are cache hits, so nothing is recomputed.
        """
        with self._cond:
            state = self.jobs[job_id]
            state.status = "queued"
            state.started_t = None
            state.results = []
            state.results_loaded = True
            self._lanes[state.spec.priority].insert(0, job_id)
            self._journal.log("job_requeue", job_id=job_id, reason=reason)
            self._depth_gauges()
            self._cond.notify_all()

    # ------------------------------------------------------------------
    # completion / results
    # ------------------------------------------------------------------
    def append_results(self, job_id: str, envelopes: List[Dict]) -> None:
        """Extend a running job's ordered result stream."""
        if not envelopes:
            return
        with self._cond:
            self.jobs[job_id].results.extend(envelopes)

    def mark_done(self, job_id: str, failed_cells: int) -> None:
        """Finish a job: persist its ordered results, journal the event."""
        with self._cond:
            state = self.jobs[job_id]
            state.status = "done"
            state.failed_cells = failed_cells
            state.finished_t = time.time()
            seconds = round(state.finished_t - (state.started_t
                                                or state.submitted_t), 6)
            path = self._results_path(job_id)
            tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
            tmp.write_text(json.dumps(state.results))
            os.replace(tmp, path)
            self._journal.log("job_done", job_id=job_id,
                              ok=(failed_cells == 0),
                              failed_cells=failed_cells, seconds=seconds)
            if self.metrics is not None:
                self.metrics.count("serve.jobs.done")
                self.metrics.set_gauge("serve.job.last_seconds", seconds)
                self.metrics.observe("serve.job.seconds", seconds)

    def mark_failed(self, job_id: str, error: str) -> None:
        """A job the pool could not finish even with repairs."""
        with self._cond:
            state = self.jobs[job_id]
            state.status = "failed"
            state.error = error
            state.finished_t = time.time()
            self._journal.log("job_failed", job_id=job_id, error=error)
            if self.metrics is not None:
                self.metrics.count("serve.jobs.failed")

    def results(self, job_id: str, since: int = 0) -> Tuple[List[Dict], bool]:
        """The ordered result stream from ``since``; ``(entries, final)``.

        ``final`` is True once the stream can grow no further (job
        terminal).  For a job completed in an earlier daemon life the
        stream is loaded from its results file on first access.
        """
        with self._cond:
            state = self.jobs[job_id]
            if not state.results_loaded:
                path = self._results_path(job_id)
                state.results = json.loads(path.read_text()) \
                    if path.exists() else []
                state.results_loaded = True
            return (list(state.results[since:]),
                    state.status in TERMINAL_STATES)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def counts(self) -> Dict[str, int]:
        with self._cond:
            by_status: Dict[str, int] = {status: 0 for status in JOB_STATES}
            for state in self.jobs.values():
                by_status[state.status] += 1
            by_status["depth"] = self.depth()
            for lane, ids in self._lanes.items():
                by_status[f"depth_{lane}"] = len(ids)
            return by_status

    def close(self) -> None:
        self._journal.close()
