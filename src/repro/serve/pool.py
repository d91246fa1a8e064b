"""Worker pool: drives queued jobs through ``ExperimentRunner.run_many``.

Each of the ``workers`` dispatch threads owns its own fault-tolerant
:class:`~repro.analysis.runner.ExperimentRunner` (built by the injected
factory), and the daemon's runners run every cell in a worker process of
their own, started on the first cell and kept: N dispatch threads drive
N processes, so N cells simulate at once, off the daemon's GIL.  The
watchdog / timeout / retry / quarantine / atomic-cache semantics of the
runner carry over unchanged, and the shared disk cache is the merge
point, exactly as in parallel campaigns.  A job's cells are split into
**shards** of ``shard_size`` cells; shards from different jobs (and
from the same job) execute concurrently across the dispatch threads, so
completions arrive out of order and each job's
:class:`~repro.serve.resequencer.Resequencer` restores submission
order before anything reaches the result stream.

Dispatch priority (per dispatch thread, every time it frees up):

1. a buffered **interactive** shard;
2. a newly queued **interactive** job (sharded on the spot) — this is
   what lets an interactive job overtake a backlog of batch shards;
3. a buffered **batch** shard;
4. a newly queued **batch** job.

An idle dispatch thread waits on the queue's condition variable
(:meth:`~repro.serve.queue.DurableJobQueue.wait`): a submit, a requeue,
a freshly buffered shard or :meth:`WorkerPool.stop` wakes it at once.

A shard is one ``run_many`` call on the thread's runner, so shards
bound the unit of loss.

Gap repair: a shard lost to a crashing dispatch thread leaves holes in
its job's sequence space; the failing thread resubmits exactly the
missing cells as a repair shard (journaled as ``cell_repair``), up to
``repair_limit`` rounds before the job is marked failed.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from ..analysis.runner import ExperimentRunner
from ..core.sampling import with_sampling
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.spans import (Span, SpanContext, SpanRecorder,
                               derive_span_id, derive_trace_id)
from .protocol import Cell, result_envelope
from .queue import DurableJobQueue, JobState
from .resequencer import Resequencer

#: Default cells per shard (the unit of dispatch and of loss).
DEFAULT_SHARD_SIZE = 4
#: How long :meth:`WorkerPool.stop` waits for a dispatch thread whose
#: worker it killed to unwind (its runner backs off before it fails).
_UNWIND_S = 2.0


@dataclass
class _JobRun:
    """Pool-side execution state for one dispatched job."""

    state: JobState
    resequencer: Resequencer
    failed_cells: int = 0
    repairs: int = 0
    #: shards handed to workers but not yet accounted (done or lost)
    outstanding: int = 0
    finished: bool = False
    #: open ``job`` span when the pool traces (see module docstring)
    job_span: Optional[Span] = None


@dataclass
class _Shard:
    """A contiguous-or-repair slice of one job's cells."""

    run: _JobRun
    seqs: List[int]
    cells: List[Cell] = field(default_factory=list)


class WorkerPool:
    """N dispatch threads pulling shards off the durable queue."""

    def __init__(
        self,
        queue: DurableJobQueue,
        runner_factory: Callable[[], ExperimentRunner],
        workers: int = 2,
        shard_size: int = DEFAULT_SHARD_SIZE,
        repair_limit: int = 2,
        metrics: Optional[MetricsRegistry] = None,
        spans: Optional[SpanRecorder] = None,
    ):
        if shard_size <= 0:
            raise ValueError("shard_size must be positive")
        self.queue = queue
        self.runner_factory = runner_factory
        self.workers = max(0, workers)
        self.shard_size = shard_size
        self.repair_limit = repair_limit
        self.metrics = metrics
        #: span recorder shared by all workers (thread-safe); each
        #: dispatched job gets a ``job`` span (parented under the
        #: client's submitted trace context when the JobSpec carries
        #: one) and each shard a ``dispatch_shard`` child that cells
        #: nest under.  ``None`` (default) disables the whole plane.
        self.spans = spans
        self._lock = threading.Lock()
        self._shards: Dict[str, List[_Shard]] = {
            "interactive": [], "batch": []}
        self._active: Dict[str, _JobRun] = {}
        self._runners: List[ExperimentRunner] = []
        self._threads: List[threading.Thread] = []
        self._stopping = threading.Event()
        #: dispatch log for tests/observability: (job_id, priority, seqs)
        self.dispatched: List[Tuple[str, str, List[int]]] = []
        self.shards_executed = 0
        self.cells_executed = 0

    # ------------------------------------------------------------------
    def start(self) -> None:
        self._stopping.clear()
        for index in range(self.workers):
            runner = self.runner_factory()
            self._runners.append(runner)
            thread = threading.Thread(
                target=self._worker_loop, args=(runner,),
                name=f"repro-serve-dispatch-{index}", daemon=True)
            self._threads.append(thread)
            thread.start()

    def stop(self, drain: bool = True,
             timeout: Optional[float] = None) -> Tuple[int, int]:
        """Stop the pool; returns ``(drained_shards, requeued_jobs)``.

        ``drain=True`` lets each dispatch thread finish its in-flight
        shard (bounded by ``timeout`` overall); then every runner is
        closed, which kills a worker process still busy — a hung cell
        does not outlive the pool.  Jobs not fully complete are
        requeued at the front of their lane — the journal already
        guarantees the same outcome after a crash, this just does it
        politely.
        """
        self._stopping.set()
        self.queue.notify()
        if not drain:
            timeout = 0.1
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            thread.join(timeout=None if deadline is None
                        else max(0.0, deadline - time.monotonic()))
        for runner in self._runners:
            runner.close()
        for thread in self._threads:  # a killed shard unwinds quickly
            thread.join(timeout=_UNWIND_S)
        drained = self.shards_executed
        requeued = 0
        with self._lock:
            leftovers = [run for run in self._active.values()
                         if not run.finished]
            self._shards = {"interactive": [], "batch": []}
            self._active = {}
        for run in leftovers:
            self.queue.requeue(run.state.spec.job_id, "shutdown")
            requeued += 1
        self._threads = []
        return drained, requeued

    @property
    def cache_warnings(self) -> int:
        """Tolerated cache corruptions across every dispatch runner."""
        return sum(runner.cache_warnings for runner in self._runners)

    @property
    def quarantined_cells(self) -> int:
        return sum(len(runner.quarantined) for runner in self._runners)

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _shard_job(self, state: JobState) -> None:
        """Expand a freshly dispatched job into shards (caller holds lock)."""
        cells = state.spec.cells
        run = _JobRun(state=state, resequencer=Resequencer(len(cells)))
        if self.spans is not None:
            # deterministic job span id: a requeued/replayed job maps to
            # the same span, so the merged trace dedupes the re-dispatch
            parent = (SpanContext.from_dict(state.spec.trace)
                      if state.spec.trace else None)
            trace_id = (parent.trace_id if parent is not None
                        else derive_trace_id("job", state.spec.job_id))
            run.job_span = self.spans.start(
                "job", parent=parent, trace_id=trace_id,
                span_id=derive_span_id(trace_id, "job", state.spec.job_id),
                job_id=state.spec.job_id, tenant=state.spec.tenant,
                priority=state.spec.priority, cells=len(cells))
        self._active[state.spec.job_id] = run
        lane = state.spec.priority
        for start in range(0, len(cells), self.shard_size):
            seqs = list(range(start, min(start + self.shard_size, len(cells))))
            self._shards[lane].append(
                _Shard(run=run, seqs=seqs,
                       cells=[cells[seq] for seq in seqs]))

    def _next_shard(self) -> Optional[_Shard]:
        """The priority-ordered dispatch decision (see module docstring)."""
        with self._lock:
            if self._shards["interactive"]:
                return self._take("interactive")
        state = self.queue.next_job(classes=("interactive",), timeout=0)
        if state is None:
            with self._lock:
                if self._shards["batch"]:
                    return self._take("batch")
            state = self.queue.next_job(timeout=0)
            if state is None:
                return None
        lane = state.spec.priority
        with self._lock:
            self._shard_job(state)
            shard = self._take(lane)
            buffered = bool(self._shards[lane])
        if buffered:  # an idle dispatch thread can take the rest
            self.queue.notify()
        return shard

    def _idle(self) -> bool:
        """Nothing buffered to dispatch and not stopping.

        Evaluated under the queue's condition by
        :meth:`~repro.serve.queue.DurableJobQueue.wait`."""
        with self._lock:
            return (not self._stopping.is_set()
                    and not any(self._shards.values()))

    def _take(self, lane: str) -> _Shard:
        shard = self._shards[lane].pop(0)
        shard.run.outstanding += 1
        self.dispatched.append(
            (shard.run.state.spec.job_id, lane, list(shard.seqs)))
        if self.metrics is not None:
            self.metrics.count(f"serve.pool.dispatched.{lane}")
        return shard

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _worker_loop(self, runner: ExperimentRunner) -> None:
        while not self._stopping.is_set():
            shard = self._next_shard()
            if shard is None:
                self.queue.wait(self._idle)
                continue
            try:
                self._execute(runner, shard)
            except Exception as exc:  # a lost shard, not a lost thread
                if not self._stopping.is_set():
                    self._shard_lost(shard, exc)
                # else: stop() requeues the whole job

    def _execute(self, runner: ExperimentRunner, shard: _Shard) -> None:
        tasks = [cell.task(runner.seed) for cell in shard.cells]
        sampling = shard.run.state.spec.sampling
        if sampling is not None:
            # sampled tier: same cells, sampled configs — results carry
            # sampled=True and cache separately from the full tier
            tasks = [
                (workload, with_sampling(config, **sampling), seed)
                for workload, config, seed in tasks
            ]
        extra = {}
        run = shard.run
        shard_span = None
        cell_traces: Dict[int, Dict[str, str]] = {}
        if self.spans is not None and run.job_span is not None:
            shard_span = self.spans.start(
                "dispatch_shard", parent=run.job_span,
                job_id=run.state.spec.job_id, seqs=list(shard.seqs))
            extra["trace"] = shard_span.context
            trace_id = shard_span.trace_id
            for seq, task in zip(shard.seqs, tasks):
                key = runner.key_for(task[0], task[1], task[2])
                cell_traces[seq] = {
                    "trace_id": trace_id,
                    "span_id": derive_span_id(trace_id, "cell", key),
                    "parent_id": shard_span.span_id,
                }
        results = runner.run_many(tasks, **extra)
        if shard_span is not None:
            self.spans.finish(shard_span)
        released: List[Tuple[int, Dict]] = []
        with self._lock:
            run.outstanding -= 1
            self.shards_executed += 1
            self.cells_executed += len(results)
            for seq, cell, result in zip(shard.seqs, shard.cells, results):
                if not result.ok:
                    run.failed_cells += 1
                released.extend(
                    run.resequencer.push(
                        seq, result_envelope(seq, cell, result,
                                             trace=cell_traces.get(seq))))
            complete = run.resequencer.complete and not run.finished
            if complete:
                run.finished = True
        job_id = run.state.spec.job_id
        self.queue.append_results(job_id, [payload for _, payload in released])
        if self.metrics is not None and released:
            self.metrics.count("serve.cells.completed", len(released))
        if complete:
            self.queue.mark_done(job_id, run.failed_cells)
            if self.spans is not None and run.job_span is not None:
                self.spans.finish(run.job_span,
                                  failed_cells=run.failed_cells)
            with self._lock:
                self._active.pop(job_id, None)

    def _shard_lost(self, shard: _Shard, exc: Exception) -> None:
        """A shard died in-thread: resubmit its missing cells or give up.

        ``run_many`` quarantines cell-level failures, so landing here
        means the harness itself broke (OOM, interpreter error).  The
        resequencer's gap view names exactly what was lost; a repair
        shard re-executes those cells — anything that did publish to
        the cache before the crash is a hit.
        """
        run = shard.run
        with self._lock:
            run.outstanding -= 1
            missing = [seq for seq in shard.seqs
                       if seq in run.resequencer.missing(
                           high_water=max(shard.seqs) + 1)]
            give_up = run.repairs >= self.repair_limit
            if not give_up:
                run.repairs += 1
                lane = run.state.spec.priority
                self._shards[lane].insert(
                    0, _Shard(run=run, seqs=missing,
                              cells=[run.state.spec.cells[s]
                                     for s in missing]))
        job_id = run.state.spec.job_id
        if give_up:
            self.queue.mark_failed(
                job_id,
                f"shard {missing} lost {run.repairs + 1} time(s): "
                f"{type(exc).__name__}: {exc}")
            if self.spans is not None and run.job_span is not None:
                self.spans.finish(run.job_span, status="error",
                                  error=f"{type(exc).__name__}: {exc}")
            with self._lock:
                run.finished = True
                self._active.pop(job_id, None)
        else:
            self.queue.log("cell_repair", job_id=job_id, seqs=missing)
            if self.metrics is not None:
                self.metrics.count("serve.pool.repairs")
            self.queue.notify()
