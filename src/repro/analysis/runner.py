"""Experiment runner with a persistent result cache and a worker pool.

Every figure in the paper's evaluation replays the same (workload, config)
simulations; the runner memoises each run both in memory and on disk
(JSON under ``.bench_cache/``) so the whole benchmark suite pays for each
simulation exactly once.  :meth:`ExperimentRunner.run_many` runs every
uncached (workload, config, seed) tuple in a ``ProcessPoolExecutor`` of
``jobs`` workers that the runner starts on its first uncached cell and
keeps until :meth:`ExperimentRunner.close`; a closed runner serves cache
hits only.  The worker writes each entry to the disk cache, the merge
point, so results are byte-identical whatever the worker count and
every later lookup is a hit.

A cell's cache key (:meth:`ExperimentRunner.key_for`) hashes
everything that decides its result: the workload, op count and seed,
every field of its :class:`~repro.core.config.CoreConfig` and a digest
of the simulator's own source (:func:`model_digest`).  Cache entries are
written atomically (``*.tmp`` + ``os.replace``) so concurrent workers
can never expose a torn file, and :meth:`ExperimentRunner.read_entry` is
the one reader of an entry: a corrupt, truncated, zero-byte, unreadable
or field-stripped one is treated as a miss (and counted on
:attr:`ExperimentRunner.cache_warnings`), never a crash.

Campaign fault tolerance (see docs/robustness.md): ``run_many`` submits
each cell as its own future, enforces a per-task wall-clock timeout,
retries crashed/timed-out cells with exponential backoff, survives
``BrokenProcessPool`` by respawning the pool and requeueing the in-flight
cells, and quarantines a persistently failing cell as a structured
:class:`FailedResult` instead of sinking the whole batch.  ``Ctrl-C``
stops the pool but preserves everything already merged into the cache.

Environment knobs:

* ``REPRO_BENCH_CACHE`` — cache directory ("" disables the disk cache).
* ``REPRO_RUN_LOG`` — path of a JSONL campaign run-log (see
  :mod:`repro.telemetry.runlog`); empty/unset disables it.
* ``REPRO_SPANS`` — path of a spans-JSONL trace file (see
  :mod:`repro.telemetry.spans`); empty/unset disables span tracing.
* ``REPRO_CHAOS`` — fault-injection spec for the chaos harness (see
  :mod:`repro.verify.chaos`); empty/unset means no injection.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import math
import os
import signal
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Deque, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from ..core.config import CoreConfig
from ..core.pipeline import SimulationDeadlock, simulate
from ..core.stats import SimResult
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.runlog import RunLog
from ..telemetry.spans import SpanContext, SpanRecorder, derive_span_id
from ..workloads.suite import get_trace

#: Micro-ops per workload trace and workload-data seed of EXPERIMENTS.md.
DEFAULT_OPS = 10_000
DEFAULT_SEED = 7

#: Base delay (seconds) for the exponential pool-respawn backoff.
BACKOFF_BASE = 0.1
#: How often the batch loop polls for completions/timeouts (seconds).
_POLL_INTERVAL = 0.1
#: Minimum seconds between two heartbeats of one runner.
HEARTBEAT_INTERVAL = 2.0

#: One run request: (workload, config) or (workload, config, seed).
Task = Union[
    Tuple[str, CoreConfig],
    Tuple[str, CoreConfig, Optional[int]],
]

#: The package whose source decides every result: all of ``src/repro/``
#: (the model, and the telemetry that fills fields such as
#: ``SimResult.interval_samples``).
_MODEL_ROOT = Path(__file__).resolve().parents[1]

#: The fields a current cache entry carries: every field of SimResult.
_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(SimResult))


@functools.lru_cache(maxsize=None)
def model_digest() -> str:
    """SHA-256 over the path and bytes of every ``.py`` under ``src/repro/``.

    Part of every cache key, so an entry written by other code is never
    looked up.  Computed on first use, once per process."""
    digest = hashlib.sha256()
    for path in sorted(_MODEL_ROOT.rglob("*.py")):
        source = hashlib.sha256(path.read_bytes()).hexdigest()
        digest.update(f"{path.relative_to(_MODEL_ROOT).as_posix()} "
                      f"{source}\n".encode())
    return digest.hexdigest()


class CacheEntry(NamedTuple):
    """One disk-cache entry as :meth:`ExperimentRunner.read_entry` found it.

    ``kind`` is ``absent``, ``ok`` or ``corrupt``; ``detail`` says what
    is wrong with a corrupt entry, and ``result`` is set only when the
    entry is ``ok``.
    """

    kind: str
    detail: str = ""
    result: Optional[SimResult] = None


@dataclass
class FailedResult:
    """A quarantined cell: what failed, how, and after how many attempts.

    Returned by :meth:`ExperimentRunner.run_many` in place of a
    :class:`~repro.core.stats.SimResult` once a (workload, config, seed)
    cell has exhausted its retries, so a single poisoned cell degrades
    to a structured record instead of aborting the campaign.  ``kind``
    is one of ``deadlock`` / ``timeout`` / ``worker-lost`` / ``error``;
    ``snapshot`` holds the pipeline snapshot for deadlocks (see
    :mod:`repro.telemetry.snapshot`).
    """

    workload: str
    config_name: str
    seed: int
    kind: str
    error: str
    attempts: int
    snapshot: Dict = field(default_factory=dict)

    #: Counterpart of ``SimResult.ok`` for batch consumers.
    ok = False

    def describe(self) -> str:
        return (f"{self.workload}/{self.config_name} seed={self.seed}: "
                f"{self.kind} after {self.attempts} attempt(s) — {self.error}")

    def to_dict(self) -> Dict:
        return {
            "ok": False,
            "workload": self.workload,
            "config_name": self.config_name,
            "seed": self.seed,
            "kind": self.kind,
            "error": self.error,
            "attempts": self.attempts,
            "snapshot": self.snapshot,
        }


def cache_root(cache_dir: Optional[str] = None) -> Optional[Path]:
    """The result-cache directory ``cache_dir`` names (None: disabled).

    ``None`` reads ``$REPRO_BENCH_CACHE`` and falls back to the
    repo-local ``.bench_cache``; "" disables the disk cache."""
    if cache_dir is None:
        cache_dir = os.environ.get(
            "REPRO_BENCH_CACHE",
            str(Path(__file__).resolve().parents[3] / ".bench_cache"),
        )
    return Path(cache_dir) if cache_dir else None


def _atomic_write_json(path: Path, payload: Dict) -> None:
    """Write ``payload`` to ``path`` so readers never see a torn file."""
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(payload))
    os.replace(tmp, path)


def _worker_init() -> None:
    """Pool worker initializer: die on SIGTERM, leave Ctrl-C to the parent.

    A forked worker inherits the parent's Python signal handlers (the
    serve daemon's graceful-drain handler among them), so without this
    ``terminate()`` would not stop a hung worker, and a terminal Ctrl-C
    would reach every worker as well as the parent that owns the pool.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _phase_recorder(phases: List[Tuple[str, float, float]]):
    """Phase hook appending each sampled-sim phase to ``phases``.

    :class:`~repro.core.sampling.SampledSimulation` calls the hook with
    ``(old_phase, new_phase)`` at every transition; each interesting
    phase (fast-forward, warmup window, measured window) becomes one
    ``("sim.<phase>", start_t, end_t)`` entry.
    """
    opened: List[Tuple[str, float]] = []

    def hook(old_phase: str, new_phase: str) -> None:
        now = time.time()
        if opened:
            name, start_t = opened.pop()
            phases.append((name, start_t, now))
        if new_phase in ("ff", "warmup", "measure"):
            opened.append((f"sim.{new_phase}", now))

    return hook


def _run_task(payload) -> Dict:
    """Pool worker: ``get_trace`` -> ``simulate`` for one cell.

    Module-level so it pickles; returns an envelope carrying
    ``SimResult.to_dict()``, the worker pid, its wall-clock start and
    seconds (for the campaign run-log and the cell span) and, when
    ``traced``, the ``(name, start_t, end_t)`` wall-clock bracket of the
    cell's ``trace_decode`` and ``simulate`` steps and of every sampled
    ``sim.*`` phase, which the runner records as child spans of the
    cell.  When a cache directory is configured it publishes the entry
    atomically, creating the directory on the first write, so sibling
    workers and future runners share it and the parent only keeps it in
    memory.  With ``REPRO_CHAOS`` set, the chaos harness gets a chance
    to inject a fault (worker kill, hang, error, wedged scheduler)
    before/instead of the real run.
    """
    workload, config, seed, target_ops, cache_dir, key, attempt, traced = \
        payload
    start_t = time.time()
    started = time.perf_counter()
    phases: List[Tuple[str, float, float]] = []
    if os.environ.get("REPRO_CHAOS"):
        from ..verify import chaos

        result = chaos.worker_fault(workload, config, seed, target_ops,
                                    attempt)
    else:
        result = None
    if result is None:
        decode_t = time.time()
        trace = get_trace(workload, target_ops, seed)
        decoded_t = time.time()
        result = simulate(trace, config, phase_hook=(
            _phase_recorder(phases) if traced else None))
        if traced:
            phases += [("trace_decode", decode_t, decoded_t),
                       ("simulate", decoded_t, time.time())]
    data = result.to_dict()
    if cache_dir:
        root = Path(cache_dir)
        root.mkdir(parents=True, exist_ok=True)
        _atomic_write_json(root / f"{key}.json", data)
    return {
        "result": data,
        "worker": os.getpid(),
        "start_t": start_t,
        "seconds": round(time.perf_counter() - started, 6),
        "phases": phases,
    }


class ExperimentRunner:
    """Runs and caches (workload x config) simulations.

    Args:
        target_ops: Dynamic micro-ops per workload trace.
        seed: Workload data seed.
        cache_dir: On-disk result cache ("" disables it; ``None`` uses
            ``$REPRO_BENCH_CACHE`` or the repo-local ``.bench_cache``).
        jobs: Worker processes for uncached cells (``None``: 1).
        task_timeout: Per-cell wall-clock timeout (seconds); ``None``/0
            (the default) disables it.
        retries: Extra attempts a failing cell gets before quarantine
            (``None``: 2).
        run_log: Path of a JSONL campaign run-log (see :mod:`repro.
            telemetry.runlog`); ``None`` uses ``$REPRO_RUN_LOG``, ""
            disables it.
        progress: Callable fed one-line heartbeat strings while a batch
            executes (e.g. ``print``), at most one per
            :data:`HEARTBEAT_INTERVAL`; ``None`` disables the heartbeat.
        metrics: Optional :class:`~repro.telemetry.metrics.
            MetricsRegistry` fed campaign health counters (currently
            ``runner.cache_warnings``) so long-lived hosts — the
            ``repro serve`` daemon — can export them.
        spans: Span tracing (see :mod:`repro.telemetry.spans`): a
            :class:`SpanRecorder`, a spans-JSONL path, "" to disable,
            or ``None`` to read ``$REPRO_SPANS``.  Off by default;
            like the tracer, every hook is a nullable-reference check.
            :meth:`run_many`'s ``trace`` parents a batch's spans.

    The worker pool starts on the first uncached cell and is kept for
    later batches; it is replaced only after a worker kill or a broken
    pool.  Whoever builds a runner that simulates closes it:
    :meth:`close` ends the pool.  A worker is a fork of this process as
    of the pool's start: set ``REPRO_CHAOS`` and any monkeypatch before
    the first uncached cell.
    """

    def __init__(
        self,
        target_ops: int = DEFAULT_OPS,
        seed: int = DEFAULT_SEED,
        cache_dir: Optional[str] = None,
        jobs: Optional[int] = None,
        task_timeout: Optional[float] = None,
        retries: Optional[int] = None,
        run_log: Optional[str] = None,
        progress=None,
        metrics: Optional[MetricsRegistry] = None,
        spans: Union[None, str, SpanRecorder] = None,
    ):
        self.target_ops = target_ops
        self.seed = seed
        self.jobs = max(1, jobs or 1)
        self.task_timeout = task_timeout or None
        self.retries = 2 if retries is None else max(0, retries)
        self.cache_dir = cache_root(cache_dir)
        self._memory: Dict[str, SimResult] = {}
        self.simulations_run = 0
        self.cache_hits = 0
        #: unreadable / zero-byte / corrupt disk-cache entries seen
        self.cache_warnings = 0
        #: persistently failing cells: key -> FailedResult (never retried
        #: again by this runner; a fresh runner starts clean)
        self.quarantined: Dict[str, FailedResult] = {}
        #: every quarantine event, in discovery order
        self.failures: List[FailedResult] = []
        #: resilience telemetry for reports / tests
        self.retries_performed = 0
        self.timeouts = 0
        self.pool_restarts = 0
        if run_log is None:
            run_log = os.environ.get("REPRO_RUN_LOG", "")
        self.run_log: Optional[RunLog] = RunLog(run_log) if run_log else None
        self.progress = progress
        self._last_heartbeat = 0.0
        self.metrics = metrics
        if spans is None:
            spans = os.environ.get("REPRO_SPANS", "")
        #: a recorder this runner opened from a path (closed by close())
        self._own_spans: Optional[SpanRecorder] = None
        if isinstance(spans, SpanRecorder):
            self.spans: Optional[SpanRecorder] = spans
        else:
            self.spans = self._own_spans = (SpanRecorder(spans) if spans
                                            else None)
        #: parent context of the batch currently executing (its
        #: ``trace``, or the campaign root span it opened); stamps
        #: trace/span ids onto run-log lifecycle events.
        self._trace_parent: Optional[SpanContext] = None
        self._campaign_t0 = time.perf_counter()
        #: the persistent worker pool (a ``ProcessPoolExecutor``); the
        #: lock guards the swap against a :meth:`close` from another
        #: thread (the serve daemon's stop path)
        self._pool = None
        self._pool_lock = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    # campaign observability
    # ------------------------------------------------------------------
    def _log(self, event: str, **fields) -> None:
        if self.run_log is not None:
            self.run_log.log(event, **fields)

    def _cell_trace(self, key: str) -> Dict[str, str]:
        """Trace-correlation fields for one cell's lifecycle events.

        The span id is *derived* from the trace id and cache key, so
        every host executing (or re-executing) the same cell agrees on
        it without coordination — run-logs and span files merge by id.
        Empty when tracing is off (the common case, one attr check).
        """
        parent = self._trace_parent
        if parent is None:
            return {}
        return {
            "trace_id": parent.trace_id,
            "span_id": derive_span_id(parent.trace_id, "cell", key),
            "parent_id": parent.span_id,
        }

    def _campaign_trace(self) -> Dict[str, str]:
        parent = self._trace_parent
        if parent is None:
            return {}
        return {"trace_id": parent.trace_id, "span_id": parent.span_id}

    def _heartbeat(self, done: int, total: int, inflight: int,
                   queued: int) -> None:
        """Emit a progress line + run-log record, rate-limited."""
        if self.progress is None and self.run_log is None:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < HEARTBEAT_INTERVAL:
            return
        self._last_heartbeat = now
        elapsed = max(time.perf_counter() - self._campaign_t0, 1e-9)
        rate = done / elapsed
        eta = (round((total - done) / rate, 3)
               if rate > 0 and total >= done else None)
        self._log("heartbeat", done=done, total=total,
                  inflight=inflight, queued=queued,
                  elapsed_s=round(elapsed, 3),
                  sims_per_sec=round(rate, 4), eta_s=eta,
                  **self._campaign_trace())
        if self.progress is not None:
            eta_text = "--" if eta is None else f"{eta:.0f}s"
            self.progress(
                f"[runner] {done}/{total} done · {inflight} in flight · "
                f"{queued} queued · {rate:.2f} sims/s · ETA {eta_text} · "
                f"{self.retries_performed} retried · "
                f"{len(self.quarantined)} quarantined"
            )

    # ------------------------------------------------------------------
    def key_for(self, workload: str, config: CoreConfig,
                seed: Optional[int] = None) -> str:
        """A cell's key: its disk-cache entry name and run-log ``key``.

        Hashes the workload, op count, seed, every field of ``config``
        (scheduler parameters and memory hierarchy included) and
        :func:`model_digest`, so two cells share a key only when the
        same code simulates the same machine.  ``seed=None`` resolves to
        the runner's default, matching :meth:`run` / :meth:`run_many`.
        """
        blob = json.dumps(
            {
                "model": model_digest(),
                "workload": workload,
                "ops": self.target_ops,
                "seed": self.seed if seed is None else seed,
                "config": config,
            },
            # each nested dataclass serialises as its fields: the text of
            # dataclasses.asdict(config) without its deep copy
            default=vars,
            sort_keys=True,
        )
        return hashlib.sha256(blob.encode()).hexdigest()[:24]

    def cache_path(self, key: str) -> Optional[Path]:
        """Where ``key``'s disk-cache entry lives (None: cache disabled)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.json"

    def _cache_warning(self, key: str, reason: str) -> None:
        """Count one tolerated cache corruption, everywhere it matters.

        Beyond the in-process :attr:`cache_warnings` counter (surfaced
        on stderr by the CLI), the event lands in the structured run-log
        and — when a registry is attached — on the
        ``runner.cache_warnings`` metrics counter, so a long-lived host
        like the serve daemon can report cache health on ``/healthz``.
        """
        self.cache_warnings += 1
        self._log("cache_warning", key=key, reason=reason,
                  count=self.cache_warnings)
        if self.metrics is not None:
            self.metrics.count("runner.cache_warnings")

    def read_entry(self, key: str, workload: str) -> CacheEntry:
        """Classify ``key``'s disk-cache entry without changing it.

        The one reader of cache entries: the runner serves an ``ok``
        entry, and the reconciliation detector reports the same verdict
        for every cell.  A bad entry is ``corrupt``: ``unreadable``
        (permissions, IO errors), ``binary-garbage``, ``zero-byte``,
        ``invalid-json``, ``not-an-object``, ``missing fields: …`` (the
        key hashes the model's code, so only damage strips fields from
        an entry found under it), ``misfiled`` (its payload names
        another workload) or ``undeserialisable``.
        """
        path = self.cache_path(key)
        if path is None:
            return CacheEntry("absent", "cache disabled")
        try:
            text = path.read_text()
        except FileNotFoundError:
            return CacheEntry("absent")
        except OSError:
            return CacheEntry("corrupt", "unreadable")
        except UnicodeDecodeError:
            return CacheEntry("corrupt", "binary-garbage")
        if not text.strip():
            return CacheEntry("corrupt", "zero-byte")
        try:
            data = json.loads(text)
        except ValueError:
            return CacheEntry("corrupt", "invalid-json")
        if not isinstance(data, dict):
            return CacheEntry("corrupt", "not-an-object")
        missing = [name for name in _RESULT_FIELDS if name not in data]
        if missing:
            return CacheEntry("corrupt",
                              f"missing fields: {', '.join(missing)}")
        if data["workload"] != workload:
            return CacheEntry("corrupt", "misfiled: payload claims workload "
                                         f"{data['workload']!r}")
        try:
            return CacheEntry("ok", result=SimResult.from_dict(data))
        except (KeyError, TypeError, ValueError) as exc:
            return CacheEntry("corrupt", f"undeserialisable: {exc}")

    def _fetch_cached(self, key: str, workload: str) -> Optional[SimResult]:
        """Memory-then-disk lookup; counts a hit when found.

        A bad disk entry is a miss with a cache warning.  It is deleted,
        so the cell re-simulates exactly once, unless it could not be
        read at all: the next writer's ``os.replace`` repairs that."""
        result = self._memory.get(key)
        if result is None:
            entry = self.read_entry(key, workload)
            result = entry.result
            if result is not None:
                self._memory[key] = result
            elif entry.kind != "absent":
                self._cache_warning(key, entry.detail)
                if entry.detail != "unreadable":
                    try:
                        self.cache_path(key).unlink()
                    except OSError:
                        pass
        if result is not None:
            self.cache_hits += 1
        return result

    def run(self, workload: str, config: CoreConfig,
            seed: Optional[int] = None) -> Union[SimResult, FailedResult]:
        """Run (or fetch) one simulation: a one-cell :meth:`run_many`.

        ``seed`` overrides the runner's workload-data seed for seed-
        sensitivity studies; the cache distinguishes seeds.
        """
        return self.run_many([(workload, config, seed)])[0]

    # ------------------------------------------------------------------
    # failure bookkeeping
    # ------------------------------------------------------------------
    def _quarantine(self, key: str, triple: Tuple[str, CoreConfig, int],
                    kind: str, error: str, attempts: int,
                    snapshot: Optional[Dict] = None) -> FailedResult:
        workload, config, seed = triple
        failed = FailedResult(
            workload=workload, config_name=config.name, seed=seed,
            kind=kind, error=error, attempts=attempts,
            snapshot=snapshot or {},
        )
        self.quarantined[key] = failed
        self.failures.append(failed)
        self._log("quarantine", key=key, kind=kind, error=error,
                  attempts=attempts, **self._cell_trace(key))
        if self.spans is not None and self._trace_parent is not None:
            # instant error span: the live/envelope timing was lost to
            # the failure, but the derived id still lands the cell in
            # the merged trace, marked failed
            now_t = time.time()
            self.spans.record(
                "cell", parent=self._trace_parent, start_t=now_t,
                end_t=now_t, status="error",
                span_id=derive_span_id(self._trace_parent.trace_id,
                                       "cell", key),
                workload=workload, config=config.name, seed=seed,
                kind=kind, attempts=attempts)
        return failed

    @staticmethod
    def _classify_failure(exc: BaseException) -> Tuple[str, str, Dict]:
        if isinstance(exc, SimulationDeadlock):
            return ("deadlock", str(exc), getattr(exc, "snapshot", {}) or {})
        return ("error", f"{type(exc).__name__}: {exc}", {})

    def failure_summary(self) -> str:
        """Human-readable summary of every quarantined cell ("" if none)."""
        if not self.failures:
            return ""
        lines = [f"{len(self.failures)} cell(s) quarantined:"]
        lines += [f"  - {failed.describe()}" for failed in self.failures]
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # batch execution
    # ------------------------------------------------------------------
    def run_many(self, tasks: Sequence[Task],
                 trace: Optional[SpanContext] = None,
                 ) -> List[Union[SimResult, FailedResult]]:
        """Run (or fetch) a batch of simulations, results in task order.

        Each task is ``(workload, config)`` or ``(workload, config,
        seed)``.  Cached tuples are served immediately; the uncached
        remainder is deduplicated and run in the runner's worker pool.
        Workers publish their results through the (atomic) disk cache,
        so the cache ends in the same state and the results are
        byte-identical whatever the worker count.

        A cell whose worker crashes, hangs past the runner's
        ``task_timeout`` or raises is retried up to ``retries`` times
        (deterministic failures — deadlocks — are not retried) and then
        **quarantined**: its slot in the returned list holds a
        :class:`FailedResult` and later batches serve the same record
        without re-running it.  Callers that need every cell healthy
        should check ``result.ok`` or :attr:`failures`.
        ``KeyboardInterrupt`` aborts the batch but every already-finished
        cell stays merged in the cache.

        ``trace`` names the parent span context of this batch (a shard
        span, a reconcile round, a serve job): its cells' run-log
        records carry its ids, and with a recorder attached their spans
        parent directly under it.  A recorded batch without ``trace``
        opens its own ``campaign`` root span.
        """
        norm: List[Tuple[str, CoreConfig, int]] = []
        for task in tasks:
            workload, config = task[0], task[1]
            seed = task[2] if len(task) > 2 and task[2] is not None else self.seed
            norm.append((workload, config, seed))
        keys = [self.key_for(w, c, s) for w, c, s in norm]

        recorder = self.spans
        parent = trace
        campaign_span = None
        if recorder is not None and parent is None:
            campaign_span = recorder.start("campaign", tasks=len(norm))
            parent = campaign_span.context
        self._trace_parent = parent
        try:
            probe_span = None
            if recorder is not None and parent is not None:
                probe_span = recorder.start("cache_probe", parent=parent)
            pending: Dict[str, Tuple[str, CoreConfig, int]] = {}
            logged_hits = set()
            for key, triple in zip(keys, norm):
                if key in pending or key in self.quarantined:
                    continue
                if self._fetch_cached(key, triple[0]) is None:
                    pending[key] = triple
                elif key not in logged_hits:
                    logged_hits.add(key)
                    self._log("cache_hit", key=key, workload=triple[0],
                              config=triple[1].name, seed=triple[2],
                              **self._cell_trace(key))
                    if recorder is not None and parent is not None:
                        now_t = time.time()
                        recorder.record(
                            "cell", parent=parent, start_t=now_t,
                            end_t=now_t,
                            span_id=derive_span_id(parent.trace_id,
                                                   "cell", key),
                            workload=triple[0], config=triple[1].name,
                            seed=triple[2], cached=True)
            if probe_span is not None:
                recorder.finish(probe_span, tasks=len(norm),
                                hits=len(logged_hits),
                                misses=len(pending))

            self._log("campaign_start", tasks=len(norm),
                      pending=len(pending), jobs=self.jobs,
                      **self._campaign_trace())
            campaign_started = time.perf_counter()
            self._campaign_t0 = campaign_started
            sims_before, hits_before = self.simulations_run, self.cache_hits
            if pending:
                self._run_pending(pending)
            self._log("campaign_end",
                      seconds=round(time.perf_counter() - campaign_started,
                                    6),
                      simulations=self.simulations_run - sims_before,
                      cache_hits=self.cache_hits - hits_before,
                      retries=self.retries_performed,
                      timeouts=self.timeouts,
                      quarantined=len(self.quarantined),
                      **self._campaign_trace())
            if campaign_span is not None:
                recorder.finish(
                    campaign_span,
                    simulations=self.simulations_run - sims_before,
                    cache_hits=self.cache_hits - hits_before,
                    quarantined=len(self.quarantined))
        finally:
            self._trace_parent = None

        out: List[Union[SimResult, FailedResult]] = []
        for key in keys:
            result = self._memory.get(key)
            out.append(result if result is not None else self.quarantined[key])
        return out

    def _record_cell(self, key: str, triple: Tuple[str, CoreConfig, int],
                     start_t: float, phases, **attrs) -> None:
        """Record a fresh cell's span and its steps as child spans.

        ``phases`` are the ``(name, start_t, end_t)`` brackets the
        worker measured (see :func:`_run_task`); the cell span runs from
        the worker's start to now, the parent's merge.  A no-op unless
        the batch is traced."""
        parent = self._trace_parent
        if self.spans is None or parent is None:
            return
        workload, config, seed = triple
        cell = self.spans.record(
            "cell", parent=parent, start_t=start_t, end_t=time.time(),
            span_id=derive_span_id(parent.trace_id, "cell", key),
            workload=workload, config=config.name, seed=seed, **attrs)
        for name, step_start, step_end in phases:
            self.spans.record(name, parent=cell, start_t=step_start,
                              end_t=step_end)

    # ------------------------------------------------------------------
    # the worker pool
    # ------------------------------------------------------------------
    def _live_pool(self):
        """The runner's worker pool, started on first use and then kept.

        Workers fork lazily, on the pool's first submit, from this
        process as it is then."""
        from concurrent.futures import ProcessPoolExecutor

        with self._pool_lock:
            if self._closed:
                raise RuntimeError("runner is closed: it starts no worker")
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.jobs,
                                                 initializer=_worker_init)
            return self._pool

    def _kill_pool(self) -> None:
        """Kill every worker and reap it; the next batch starts a new pool.

        A hung task cannot be cancelled, only killed — the workers reset
        SIGTERM to its default action, so ``terminate()`` does it.  The
        kill holds the lock that submits take (a pool forks its workers
        on its first submit), so no worker can start after it.  The
        executor's manager thread sees the broken pool and joins the
        same workers, so it is awaited before they are: a ``join`` that
        lost the ``waitpid`` race to it would record no exit code, and
        the dead worker would still count as a live child."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
            if pool is None:
                return
            workers = list((getattr(pool, "_processes", None) or {})
                           .values())
            for proc in workers:
                try:
                    proc.terminate()
                except OSError:  # already gone
                    pass
        pool.shutdown(wait=True, cancel_futures=True)
        for proc in workers:
            proc.join()

    def close(self) -> None:
        """End the worker pool and close the files this runner opened.

        A worker still busy is killed, not awaited.  The run-log and a
        span file opened from a path are closed and dropped; a recorder
        passed in stays open for its owner.  Safe to call from another
        thread while a batch runs (the batch then fails with
        ``RuntimeError``) and more than once.  After it the runner
        starts no worker and logs nothing: a closed runner serves cache
        hits only."""
        with self._pool_lock:
            self._closed = True
        self._kill_pool()
        if self.run_log is not None:
            self.run_log.close()
            self.run_log = None
        if self._own_spans is not None:
            self._own_spans.close()
            if self.spans is self._own_spans:
                self.spans = None
            self._own_spans = None

    def _run_pending(
            self, pending: Dict[str, Tuple[str, CoreConfig, int]]) -> None:
        """Run ``pending`` in the worker pool, surviving worker failures.

        Structure: a work queue of (key, attempt) plus an in-flight map
        of future -> (key, deadline, attempt).  A completion is counted
        and kept in memory (its worker wrote the disk entry); failures
        either requeue (attempt+1) or quarantine.  A hung task (deadline
        exceeded) or a broken pool kills every worker, charges an
        attempt to the in-flight cells, requeues them, and starts a new
        pool after an exponential backoff.  With a timeout, at most
        ``jobs`` cells are in flight, so each deadline starts when a
        worker takes the cell; without one, ``2 * jobs`` keep the
        workers fed.  ``KeyboardInterrupt`` (or any other escape) kills
        the pool without waiting; the cache keeps everything already
        merged.
        """
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        cache = str(self.cache_dir) if self.cache_dir is not None else ""
        traced = self.spans is not None and self._trace_parent is not None
        timeout, retries = self.task_timeout, self.retries
        limit = self.jobs if timeout else 2 * self.jobs
        queue: Deque[Tuple[str, int]] = deque(
            (key, 0) for key in pending
        )
        inflight: Dict[object, Tuple[str, Optional[float], int]] = {}
        breaks = 0

        def fail_or_requeue(key: str, attempt: int, kind: str, error: str,
                            snapshot: Optional[Dict] = None) -> None:
            if kind != "deadlock" and attempt < retries:
                self.retries_performed += 1
                self._log("retry", key=key, attempt=attempt + 1,
                          kind=kind, error=error, **self._cell_trace(key))
                queue.append((key, attempt + 1))
            else:
                self._quarantine(key, pending[key], kind, error,
                                 attempt + 1, snapshot)

        def restart(culprits: Sequence[object]) -> None:
            """Pool died / was killed: requeue every in-flight cell.

            The cells named in ``culprits`` already had their failure
            charged; the rest get an attempt charged too (the dying
            worker cannot be attributed, so everybody pays one — this
            bounds a kill-looping cell at ``retries`` pool restarts)."""
            nonlocal breaks
            for future, (key, _, attempt) in list(inflight.items()):
                if future not in culprits:
                    fail_or_requeue(key, attempt, "worker-lost",
                                    "worker pool died mid-task")
            inflight.clear()
            self._kill_pool()
            breaks += 1
            self.pool_restarts += 1
            self._log("pool_restart", restarts=self.pool_restarts)
            time.sleep(BACKOFF_BASE * (2 ** min(breaks - 1, 6)))

        try:
            while queue or inflight:
                pool = self._live_pool()
                while queue and len(inflight) < limit:
                    key, attempt = queue.popleft()
                    workload, config, seed = pending[key]
                    self._log("submit", key=key, workload=workload,
                              config=config.name, seed=seed, attempt=attempt,
                              **self._cell_trace(key))
                    with self._pool_lock:
                        future = pool.submit(_run_task, (
                            workload, config, seed, self.target_ops, cache,
                            key, attempt, traced))
                    deadline = (time.monotonic() + timeout) if timeout else None
                    inflight[future] = (key, deadline, attempt)
                done, _ = wait(list(inflight), timeout=_POLL_INTERVAL,
                               return_when=FIRST_COMPLETED)
                broke = False
                for future in done:
                    key, _, attempt = inflight.pop(future)
                    try:
                        envelope = future.result()
                    except BrokenProcessPool:
                        fail_or_requeue(key, attempt, "worker-lost",
                                        "worker process died (BrokenProcessPool)")
                        broke = True
                    except Exception as exc:
                        kind, error, snapshot = self._classify_failure(exc)
                        fail_or_requeue(key, attempt, kind, error, snapshot)
                    else:
                        self.simulations_run += 1
                        self._memory[key] = SimResult.from_dict(
                            envelope["result"])
                        workload, config, seed = pending[key]
                        self._log("finish", key=key, workload=workload,
                                  config=config.name, seed=seed,
                                  attempt=attempt,
                                  seconds=envelope["seconds"],
                                  worker=envelope["worker"],
                                  **self._cell_trace(key))
                        self._record_cell(key, pending[key],
                                          envelope["start_t"],
                                          envelope["phases"],
                                          attempts=attempt + 1,
                                          worker=envelope["worker"])
                finished = sum(
                    1 for k in pending
                    if k in self._memory or k in self.quarantined
                )
                self._heartbeat(finished, len(pending), len(inflight),
                                len(queue))
                if broke:
                    restart(culprits=())
                    continue
                if timeout:
                    now = time.monotonic()
                    expired = [
                        future
                        for future, (_, deadline, _) in inflight.items()
                        if deadline is not None and now > deadline
                    ]
                    if expired:
                        for future in expired:
                            key, _, attempt = inflight[future]
                            self.timeouts += 1
                            self._log("timeout", key=key, attempt=attempt,
                                      timeout_s=timeout,
                                      **self._cell_trace(key))
                            fail_or_requeue(
                                key, attempt, "timeout",
                                f"exceeded {timeout:g}s wall-clock timeout")
                        # a hung worker cannot be cancelled — only killed
                        restart(culprits=expired)
        except BaseException:
            if inflight:
                self._kill_pool()
            raise


def geomean(values: Iterable[float]) -> float:
    """Geometric mean (the paper's cross-suite aggregate)."""
    values = [v for v in values]
    if not values:
        return 0.0
    return math.exp(sum(math.log(v) for v in values) / len(values))
