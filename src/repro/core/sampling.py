"""Sampled simulation: functional fast-forward + periodic measured windows.

The paper evaluates on SPEC *SimPoints* — representative slices measured
in detail while the space between them is skipped functionally.  This
module brings the same methodology to the repro so million-op traces
become affordable (ROADMAP item 2):

* :class:`FastForward` advances over the decoded trace in execute-only
  fashion, retiring ``ff_width`` µops per virtual cycle while still
  *training* the TAGE/BTB front end, warming the cache hierarchy (and
  through it MSHR/DRAM-row state), and keeping the SSIT/LFST
  memory-dependence predictor's LFST consistent (SSIT itself only
  learns from order violations, which are a timing phenomenon — it is
  warmed by the detailed windows and *carried* across the gaps).
* :class:`SampledSimulation` alternates fast-forward / detailed-warmup /
  measured windows.  It exposes the same ``begin()/step()/finalize()``
  phase machine as :class:`~repro.core.pipeline.Pipeline`, so the
  lock-step driver (:mod:`repro.core.lockstep`) can interleave sampled
  simulations exactly like full ones.  Each window runs a fresh
  pipeline over a seq-renumbered subtrace but *shares* the warmed
  front end / hierarchy / MDP and continues the global clock
  (``Pipeline.begin(start_cycle=...)``) so absolute-cycle cache state
  stays meaningful.
* :meth:`SampledSimulation.finalize` extrapolates whole-run statistics
  from the measured windows — IPC/cycles via the pooled CPI, event
  counters by the measured-op fraction — with per-metric Student-t
  confidence intervals, onto a :class:`~repro.core.stats.SimResult`
  flagged ``sampled=True``.

Degenerate configs are exact: when ``sample_window`` covers the whole
trace (``sample_period = ∞`` semantics — never fast-forward), the run
is a single full-detail pipeline and the stats are *identical* to an
unsampled run, with ``sampling["exact"] = True``.

Enable via the :class:`~repro.core.config.CoreConfig` knobs
(``sample_period > 0`` activates the mode; see :func:`with_sampling`)
— :func:`repro.core.pipeline.simulate` dispatches here, so the
experiment runner, sweeps, the serve pool, and the CLI all inherit it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import replace
from typing import Dict, List, Optional

from ..frontend.branch_predictor import FrontEnd
from ..lsq.mdp import StoreSetPredictor
from ..memory.cache import LINE_SIZE
from ..memory.hierarchy import CODE_BASE, MemoryHierarchy
from ..telemetry.metrics import IntervalSampler
from ..workloads.trace import Trace
from .config import CoreConfig
from .pipeline import Pipeline, SimulationDeadlock
from .stats import CLASSES, SEGMENTS, SimResult, SimStats

#: Default knobs applied by :func:`with_sampling` when the caller does
#: not override them (the CoreConfig defaults keep sampling *off*).
DEFAULT_SAMPLE_PERIOD = 20_000

#: Two-sided 95% Student-t critical values by degrees of freedom
#: (normal approximation beyond 30).
_T95 = {1: 12.71, 2: 4.30, 3: 3.18, 4: 2.78, 5: 2.57, 6: 2.45, 7: 2.36,
        8: 2.31, 9: 2.26, 10: 2.23, 11: 2.20, 12: 2.18, 13: 2.16,
        14: 2.14, 15: 2.13, 20: 2.09, 25: 2.06, 30: 2.04}


def _t95(df: int) -> float:
    if df <= 0:
        return float("inf")
    if df in _T95:
        return _T95[df]
    return 1.96 if df > 30 else _T95[min(k for k in _T95 if k >= df)]


def with_sampling(
    config: CoreConfig,
    period: Optional[int] = None,
    window: Optional[int] = None,
    warmup: Optional[int] = None,
    ff_width: Optional[int] = None,
    ff_warmup_ops: Optional[int] = None,
) -> CoreConfig:
    """A copy of ``config`` with sampling enabled.

    Unspecified knobs keep the config's current values, except the
    period, which defaults to :data:`DEFAULT_SAMPLE_PERIOD` (the
    CoreConfig default of 0 means "off", so asking for sampling must
    pick a real period).
    """
    return replace(
        config,
        sample_period=(period if period is not None
                       else (config.sample_period or DEFAULT_SAMPLE_PERIOD)),
        sample_window=(window if window is not None else config.sample_window),
        warmup_cycles=(warmup if warmup is not None else config.warmup_cycles),
        ff_width=(ff_width if ff_width is not None else config.ff_width),
        ff_warmup_ops=(ff_warmup_ops if ff_warmup_ops is not None
                       else config.ff_warmup_ops),
    )


def subtrace(trace: Trace, start: int, count: int) -> Trace:
    """A renumbered window ``[start, start+count)`` of ``trace``.

    The pipeline equates trace index with ``DynOp.seq`` (squash recovery
    refetches at ``fetch_index = seq``), so a window's ops must be
    renumbered from zero, not sliced verbatim.
    """
    end = min(len(trace.ops), start + count)
    if start == 0 and end == len(trace.ops):
        return trace
    ops = tuple(
        replace(op, seq=index)
        for index, op in enumerate(trace.ops[start:end])
    )
    return Trace(name=trace.name, ops=ops)


class FastForward:
    """Execute-only advance over a trace, warming shared predictor state.

    Retires ``config.ff_width`` µops per virtual cycle.  Each warmed op
    touches exactly the long-lived structures a detailed fetch/commit
    would: one I-cache probe per new line, a D-cache access per memory
    op (write-through at the same absolute cycle the clock has
    reached), TAGE/BTB predict+resolve per branch, and the LFST
    dispatch/issue handshake per store so no stale inter-window store
    seq survives.  With ``ff_warmup_ops > 0`` only the *last* N ops of
    each requested advance are warmed; the earlier ops are skipped at
    zero cost (indices and clock still advance), trading cold-miss
    accuracy for gap-length-independent cost.
    """

    def __init__(self, trace: Trace, config: CoreConfig,
                 frontend: FrontEnd, hierarchy: MemoryHierarchy,
                 mdp: Optional[StoreSetPredictor]):
        self.trace = trace
        self.config = config
        self.frontend = frontend
        self.hier = hierarchy
        self.mdp = mdp
        self.index = 0  # next trace op to fast-forward
        self.ops_warmed = 0
        self.ops_skipped = 0
        self.cycles = 0
        self._last_line = -1

    def advance(self, n_ops: int, clock: int) -> int:
        """Fast-forward ``n_ops`` starting at absolute cycle ``clock``.

        Returns the new clock: ``clock + ceil(n_ops / ff_width)``.
        """
        if n_ops <= 0:
            return clock
        width = max(1, self.config.ff_width)
        cap = self.config.ff_warmup_ops
        skip = n_ops - cap if (cap and n_ops > cap) else 0
        if skip:
            self.index += skip
            self.ops_skipped += skip
            self._last_line = -1  # line locality broken by the skip
        ops = self.trace.ops
        hier, frontend, mdp = self.hier, self.frontend, self.mdp
        last_line = self._last_line
        cyc = clock + skip // width
        in_cycle = 0
        end = self.index + (n_ops - skip)
        for i in range(self.index, end):
            op = ops[i]
            pc = op.pc
            line = (CODE_BASE + pc * 4) // LINE_SIZE
            if line != last_line:
                hier.access_ifetch(pc, cyc)
                last_line = line
            if op.mem_addr is not None:
                if op.is_store:
                    if mdp is not None:
                        # dispatch+issue back-to-back: keeps the LFST
                        # consistent without leaking this global seq
                        # into a window pipeline's local seq space
                        mdp.store_dispatched(pc, i)
                        mdp.store_issued(pc, i)
                    hier.access_data(op.mem_addr, cyc, is_write=True, pc=pc)
                elif op.is_load:
                    if mdp is not None:
                        mdp.load_dispatched(pc)
                    hier.access_data(op.mem_addr, cyc, pc=pc)
            elif op.is_branch:
                unconditional = op.opcode.name == "jmp"
                prediction = frontend.predict_branch(pc, unconditional)
                frontend.resolve(
                    pc, prediction, bool(op.taken),
                    op.target_pc if op.taken else None, unconditional,
                )
            in_cycle += 1
            if in_cycle == width:
                cyc += 1
                in_cycle = 0
        self._last_line = last_line
        self.index = end
        self.ops_warmed += n_ops - skip
        new_clock = clock + (n_ops + width - 1) // width
        self.cycles += new_clock - clock
        return new_clock


def _snapshot(pipe: Pipeline) -> Dict:
    """Cheap copy of everything a measured window must delta against."""
    stats = pipe.stats
    return {
        "cycle": pipe.cycle,
        "committed": stats.committed,
        "issued": stats.issued,
        "fetched": stats.fetched,
        "branch_lookups": pipe.frontend.lookups,  # shared across windows
        "mispredicts": stats.branch_mispredicts,
        "violations": stats.order_violations,
        "flushes": stats.flushes,
        "energy": dict(stats.energy_events),
        "hier_events": dict(pipe.hier.events),  # shared across windows
        "breakdown_sums": {
            k: dict(v) for k, v in stats.breakdown.sums.items()
        },
        "breakdown_counts": dict(stats.breakdown.counts),
        "scheduler": dict(pipe.scheduler.extra_stats()),
    }


def _delta_map(end: Dict, base: Dict) -> Dict:
    return {k: v - base.get(k, 0) for k, v in end.items()}


#: Fast-forward work per :meth:`SampledSimulation.step` call, in µops —
#: bounds how long a lock-step sibling waits while this sim skips a gap.
_FF_CHUNK_OPS = 4096


class SampledSimulation:
    """Periodic-sampling driver with the Pipeline phase-machine API.

    ``begin(max_cycles)`` / ``step() -> bool`` / ``finalize() ->
    SimResult`` mirror :class:`~repro.core.pipeline.Pipeline`, so
    :func:`~repro.core.lockstep.run_lockstep` drives sampled and full
    simulations interchangeably.  One ``step()`` advances either one
    detailed step of the current window pipeline (a cycle or a skipped
    quiet stretch) or one bounded chunk of fast-forward.
    """

    def __init__(self, trace: Trace, config: CoreConfig,
                 scheduler_factory=None, phase_hook=None):
        if config.sample_period <= 0:
            raise ValueError("SampledSimulation needs sample_period > 0")
        if config.sample_window <= 0:
            raise ValueError("sample_window must be positive")
        if config.warmup_cycles < 0 or config.ff_warmup_ops < 0:
            raise ValueError("warmup_cycles / ff_warmup_ops must be >= 0")
        if config.ff_width <= 0:
            raise ValueError("ff_width must be positive")
        self.trace = trace
        self.config = config
        self._factory = scheduler_factory
        self.frontend = FrontEnd()
        self.hier = MemoryHierarchy(config.hierarchy)
        self.mdp: Optional[StoreSetPredictor] = (
            StoreSetPredictor() if config.mdp_enabled else None
        )
        self.ff = FastForward(trace, config, self.frontend, self.hier,
                              self.mdp)
        self.cycle = 0  # global virtual clock (ff + detailed)
        self.windows: List[Dict] = []
        self.samples: List[Dict] = []
        self.warmup_ops = 0
        #: whole-trace window: run one exact full-detail pipeline
        self._exact = config.sample_window >= len(trace)
        self._pipe: Optional[Pipeline] = None
        #: nullable phase observer, called with ``(old_phase,
        #: new_phase)`` at every transition of the phase machine
        #: (idle/ff/warmup/measure/exact/done).  Span tracing hangs
        #: ``sim.ff`` / ``sim.warmup`` / ``sim.measure`` spans off it;
        #: ``None`` (the default) costs one attribute check per
        #: *transition*, never per step.
        self.phase_hook = phase_hook
        self._phase = "idle"
        self._cursor = 0  # trace ops consumed (committed or skipped)
        self._next_start = 0  # where the next measured window begins
        self._gap_remaining = 0
        self._ff_dirty = False  # hierarchy timing skewed by fast-forward

    # -- phase machine -------------------------------------------------
    def _set_phase(self, new_phase: str) -> None:
        old_phase = self._phase
        if new_phase == old_phase:
            return
        self._phase = new_phase
        if self.phase_hook is not None:
            self.phase_hook(old_phase, new_phase)

    def begin(self, max_cycles: int = 50_000_000) -> None:
        self._max_cycles = max_cycles
        if self._exact:
            self._pipe = Pipeline(
                self.trace, self.config, scheduler_factory=self._factory,
                frontend=self.frontend, hierarchy=self.hier, mdp=self.mdp,
            )
            self._pipe.begin(max_cycles)
            self._set_phase("exact")
            return
        self._advance_phase()

    def step(self) -> bool:
        phase = self._phase
        if phase == "done":
            return False
        if phase == "ff":
            chunk = min(self._gap_remaining, _FF_CHUNK_OPS)
            self.cycle = self.ff.advance(chunk, self.cycle)
            self._ff_dirty = True
            self._cursor += chunk
            self._gap_remaining -= chunk
            if self.cycle > self._max_cycles:
                raise SimulationDeadlock(
                    f"{self.config.name}/{self.trace.name}: max_cycles "
                    f"({self._max_cycles}) exceeded during fast-forward")
            if self._gap_remaining <= 0:
                self._advance_phase()
            return self._phase != "done"
        pipe = self._pipe
        alive = pipe.step()
        self.cycle = pipe.cycle
        if phase == "exact":
            if not alive:
                self._set_phase("done")
            return alive
        if phase == "warmup":
            if not alive:
                # subtrace exhausted before warmup ended (trace tail):
                # measure the whole window, warmup included
                self._end_window(early=True)
            elif pipe.cycle >= self._warmup_until:
                self._begin_measure()
            return self._phase != "done"
        # phase == "measure"
        if not alive or pipe.commit_count >= self._measure_target:
            self._end_window(early=False)
        return self._phase != "done"

    def run(self, max_cycles: int = 50_000_000) -> SimResult:
        self.begin(max_cycles)
        while self.step():
            pass
        return self.finalize()

    # -- window lifecycle ----------------------------------------------
    def _advance_phase(self) -> None:
        total = len(self.trace)
        if self._cursor >= total:
            self._set_phase("done")
            return
        if self._cursor < self._next_start:
            self._gap_remaining = min(self._next_start, total) - self._cursor
            self._set_phase("ff")
            return
        self._start_window()

    def _start_window(self) -> None:
        config = self.config
        start = self._cursor
        # Functional warming leaves the hierarchy with the right content
        # but fast-forward-compressed timing (misses queued behind full
        # MSHRs complete far in the "future"); quiesce it so the window
        # starts from a warm, idle memory system.  Only after an actual
        # fast-forward stretch — between back-to-back windows the
        # in-flight state is real and must be kept.
        if self._ff_dirty:
            self.hier.settle(self.cycle)
            self._ff_dirty = False
        # op budget: everything the warmup phase could commit plus the
        # measured window itself (capped by the remaining trace)
        budget = (config.sample_window
                  + config.warmup_cycles * config.commit_width)
        window_trace = subtrace(self.trace, start, budget)
        pipe = Pipeline(
            window_trace, config, scheduler_factory=self._factory,
            frontend=self.frontend, hierarchy=self.hier, mdp=self.mdp,
        )
        pipe.begin(self._max_cycles, start_cycle=self.cycle)
        self._pipe = pipe
        self._window_start_op = start
        self._warmup_until = self.cycle + config.warmup_cycles
        # measurement starts at exactly this cycle: a quiet-stretch jump
        # must stop there (Pipeline.observe_at), not overshoot it
        pipe.observe_at = self._warmup_until
        self._start_base = _snapshot(pipe)
        self._base: Optional[Dict] = None
        self._sampler = IntervalSampler(1 << 60)  # manual takes only
        self._sampler.take(pipe)
        if config.warmup_cycles > 0:
            self._set_phase("warmup")
        else:
            self._begin_measure()

    def _begin_measure(self) -> None:
        pipe = self._pipe
        pipe.observe_at = None
        self._base = _snapshot(pipe)
        self._sampler.take(pipe)
        self.warmup_ops += pipe.commit_count
        self._measure_target = pipe.commit_count + self.config.sample_window
        self._set_phase("measure")

    def _end_window(self, early: bool) -> None:
        pipe = self._pipe
        base = self._start_base if (early or self._base is None) else self._base
        end = _snapshot(pipe)
        ops = end["committed"] - base["committed"]
        cycles = end["cycle"] - base["cycle"]
        sample = dict(self._sampler.take(pipe))
        if ops > 0 and cycles > 0:
            energy = _delta_map(end["energy"], base["energy"])
            for key, value in _delta_map(
                    end["hier_events"], base["hier_events"]).items():
                energy[key] = energy.get(key, 0) + value
            record = {
                "start_op": self._window_start_op,
                "ops": ops,
                "cycles": cycles,
                "ipc": ops / cycles,
                "issued": end["issued"] - base["issued"],
                "fetched": end["fetched"] - base["fetched"],
                "branch_lookups":
                    end["branch_lookups"] - base["branch_lookups"],
                "mispredicts": end["mispredicts"] - base["mispredicts"],
                "violations": end["violations"] - base["violations"],
                "flushes": end["flushes"] - base["flushes"],
                "energy": energy,
                "breakdown_sums": {
                    klass: _delta_map(end["breakdown_sums"][klass],
                                      base["breakdown_sums"][klass])
                    for klass in end["breakdown_sums"]
                },
                "breakdown_counts": _delta_map(end["breakdown_counts"],
                                               base["breakdown_counts"]),
                "scheduler": _delta_map(end["scheduler"], base["scheduler"]),
                "warmup_discarded": not early,
            }
            self.windows.append(record)
            sample.update(
                window=len(self.windows) - 1,
                start_op=self._window_start_op,
                measured_ops=ops,
                measured_cycles=cycles,
            )
            self.samples.append(sample)
        self._cursor += pipe.commit_count
        self._next_start = max(self._window_start_op
                               + self.config.sample_period, self._cursor)
        # The window pipeline may be abandoned with stores still in
        # flight; their *local* seqs must not linger in the shared LFST
        # or the next window's loads would wait on phantom producers.
        # flush_from(0) clears all transient LFST/reservation state and
        # keeps the learned SSIT — that is the warmed part.
        if self.mdp is not None:
            self.mdp.flush_from(0)
        self._pipe = None
        self._advance_phase()

    # -- extrapolation -------------------------------------------------
    def finalize(self) -> SimResult:
        config = self.config
        knobs = {
            "sample_period": config.sample_period,
            "sample_window": config.sample_window,
            "warmup_cycles": config.warmup_cycles,
            "ff_width": config.ff_width,
            "ff_warmup_ops": config.ff_warmup_ops,
        }
        if self._exact:
            result = self._pipe.finalize()
            result.sampled = True
            result.sampling = {
                "exact": True,
                "windows": 1,
                "measured_ops": result.stats.committed,
                "measured_cycles": result.stats.cycles,
                "ff_ops": 0,
                "ff_warmed_ops": 0,
                "ff_cycles": 0,
                "warmup_ops": 0,
                "knobs": knobs,
                "estimates": {},
            }
            return result
        if not self.windows:
            raise SimulationDeadlock(
                f"{config.name}/{self.trace.name}: sampled run produced "
                "no measured windows")
        windows = self.windows
        total_ops = len(self.trace)
        measured_ops = sum(w["ops"] for w in windows)
        measured_cycles = sum(w["cycles"] for w in windows)
        scale = total_ops / measured_ops
        est_cycles = max(1, round(measured_cycles / measured_ops * total_ops))

        stats = SimStats()
        stats.cycles = est_cycles
        stats.committed = total_ops
        stats.issued = round(sum(w["issued"] for w in windows) * scale)
        stats.fetched = round(sum(w["fetched"] for w in windows) * scale)
        stats.branch_lookups = round(
            sum(w["branch_lookups"] for w in windows) * scale)
        stats.branch_mispredicts = round(
            sum(w["mispredicts"] for w in windows) * scale)
        stats.order_violations = round(
            sum(w["violations"] for w in windows) * scale)
        stats.flushes = round(sum(w["flushes"] for w in windows) * scale)
        energy: Counter = Counter()
        for window in windows:
            energy.update(window["energy"])
        stats.energy_events = Counter(
            {k: round(v * scale) for k, v in energy.items() if v})
        for klass in CLASSES:
            sums = stats.breakdown.sums[klass]
            for segment in SEGMENTS:
                sums[segment] = sum(
                    w["breakdown_sums"].get(klass, {}).get(segment, 0.0)
                    for w in windows) * scale
            stats.breakdown.counts[klass] = round(sum(
                w["breakdown_counts"].get(klass, 0) for w in windows) * scale)
        scheduler: Dict[str, float] = {}
        for window in windows:
            for key, value in window["scheduler"].items():
                scheduler[key] = scheduler.get(key, 0) + value
        stats.scheduler = {k: v * scale for k, v in scheduler.items()}

        estimates = {
            "ipc": self._estimate([w["ipc"] for w in windows]),
            "cpi": self._estimate([w["cycles"] / w["ops"] for w in windows]),
            "energy_per_op": self._estimate([
                sum(w["energy"].values()) / w["ops"] for w in windows]),
            "mispredicts_per_kop": self._estimate([
                1000.0 * w["mispredicts"] / w["ops"] for w in windows]),
        }
        sampling = {
            "exact": False,
            "windows": len(windows),
            "measured_ops": measured_ops,
            "measured_cycles": measured_cycles,
            "ff_ops": self.ff.ops_warmed + self.ff.ops_skipped,
            "ff_warmed_ops": self.ff.ops_warmed,
            "ff_cycles": self.ff.cycles,
            "warmup_ops": self.warmup_ops,
            "knobs": knobs,
            "estimates": estimates,
        }
        return SimResult(
            workload=self.trace.name,
            config_name=config.name,
            stats=stats,
            memory_stats=self.hier.stats(),
            frequency_ghz=config.frequency_ghz,
            interval_samples=self.samples,
            sample_interval=0,
            sampled=True,
            sampling=sampling,
        )

    @staticmethod
    def _estimate(values: List[float]) -> Dict[str, Optional[float]]:
        """Mean + 95% CI half-width of per-window values (t-distribution).

        Windows are equal-sized by construction (the tail window may be
        shorter), so the unweighted mean is the standard batch-means
        estimator; ``ci95`` is ``None`` when a single window leaves no
        variance to estimate.
        """
        n = len(values)
        mean = sum(values) / n
        if n < 2:
            return {"mean": mean, "ci95": None, "n": n}
        var = sum((v - mean) ** 2 for v in values) / (n - 1)
        half = _t95(n - 1) * math.sqrt(var / n)
        return {"mean": mean, "ci95": half, "n": n}


def build_simulation(trace: Trace, config: CoreConfig):
    """Factory for drivers that handle full and sampled runs uniformly.

    Returns a :class:`~repro.core.pipeline.Pipeline` or a
    :class:`SampledSimulation` — both expose ``begin/step/finalize`` —
    according to ``config.sample_period``.  This is the lock-step
    driver's default pipeline factory.
    """
    if config.sample_period > 0:
        return SampledSimulation(trace, config)
    return Pipeline(trace, config)


def simulate_sampled(trace: Trace, config: CoreConfig,
                     max_cycles: int = 50_000_000,
                     phase_hook=None) -> SimResult:
    """Run one sampled simulation (the ``simulate()`` dispatch target)."""
    return SampledSimulation(trace, config, phase_hook=phase_hook).run(
        max_cycles=max_cycles)
