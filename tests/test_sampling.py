"""Sampled simulation: exactness, determinism, error bounds, wiring.

The two load-bearing classes answer the acceptance criteria directly:

* :class:`TestExactPath` — a sampling config whose window covers the
  whole trace must be *identical* to a full-detail run (same golden
  numbers, same ``to_dict`` fields), so sampled mode degrades to exact
  rather than "approximately exact".
* :class:`TestErrorBound` — at the documented validation config
  (contiguous 1000-op windows, whole-window measurement) the
  extrapolated IPC of every golden-matrix cell stays within 5% of the
  pinned full-run value.

The rest pins determinism, the extrapolation metadata, per-gap
fast-forward warming, and that every entry point (``simulate``
dispatch, experiment-runner cache, sweeps, the serve protocol + worker
pool) carries sampling through unchanged.
"""

import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import sweep
from repro.core.config import config_for
from repro.core.pipeline import Pipeline, simulate
from repro.core.sampling import (
    DEFAULT_SAMPLE_PERIOD,
    FastForward,
    SampledSimulation,
    simulate_sampled,
    with_sampling,
)
from repro.core.stats import SimResult
from repro.workloads.suite import get_trace
from repro.workloads.trace import Trace

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_stats.json").read_text()
)
OPS = GOLDEN["ops"]
SEED = GOLDEN["seed"]
_WORKLOADS = sorted({cell.split("/")[0] for cell in GOLDEN["results"]})
_ARCHES = sorted({cell.split("/")[1] for cell in GOLDEN["results"]})

#: The validated accuracy config (see docs/performance.md): contiguous
#: windows, whole-window measurement.  Gapped/short-window configs trade
#: accuracy for speed and are NOT covered by the 5% bound.
ACCURACY_KNOBS = dict(period=1000, window=1000, warmup=0)


def _full_dict(result):
    """``to_dict`` minus the fields that mark a result as sampled."""
    data = result.to_dict()
    data.pop("sampled")
    data.pop("sampling")
    return data


# ---------------------------------------------------------------------------
# knobs


class TestKnobs:
    def test_with_sampling_defaults_period(self):
        config = with_sampling(config_for("ooo"))
        assert config.sample_period == DEFAULT_SAMPLE_PERIOD

    def test_with_sampling_keeps_existing_period(self):
        config = with_sampling(with_sampling(config_for("ooo"), period=5000))
        assert config.sample_period == 5000

    def test_with_sampling_overrides(self):
        config = with_sampling(
            config_for("ooo"), period=9000, window=300, warmup=40,
            ff_width=4, ff_warmup_ops=100,
        )
        assert (config.sample_period, config.sample_window,
                config.warmup_cycles, config.ff_width,
                config.ff_warmup_ops) == (9000, 300, 40, 4, 100)

    def test_sampling_off_by_default(self):
        assert config_for("ooo").sample_period == 0

    @pytest.mark.parametrize("bad", [
        dict(period=1000, window=0),
        dict(period=1000, warmup=-1),
        dict(period=1000, ff_width=0),
        dict(period=1000, ff_warmup_ops=-5),
    ])
    def test_sampled_simulation_rejects_bad_knobs(self, bad):
        trace = get_trace("dotprod", 500, SEED)
        with pytest.raises(ValueError):
            SampledSimulation(trace, with_sampling(config_for("ooo"), **bad))

    def test_sampled_simulation_requires_period(self):
        trace = get_trace("dotprod", 500, SEED)
        with pytest.raises(ValueError):
            SampledSimulation(trace, config_for("ooo"))


# ---------------------------------------------------------------------------
# a window is a slice of the trace, run at the trace's own seqs


class TestTraceSlice:
    @pytest.mark.parametrize("arch", ["ooo", "ballerino", "ces"])
    def test_slice_runs_like_its_ops_as_a_trace_of_their_own(self, arch):
        """Squash refetch, MDP dependences and the invariant checker all
        work at seqs that do not start at zero."""
        trace = get_trace("histogram", 2000, SEED)
        start, stop = 400, 1900
        alone = Trace(name=trace.name, ops=tuple(
            replace(op, seq=index)
            for index, op in enumerate(trace.ops[start:stop])))
        expect = Pipeline(alone, config_for(arch),
                          check_invariants=True).run()
        pipe = Pipeline(trace, config_for(arch), check_invariants=True)
        pipe.begin(start=start, stop=stop)
        while pipe.step():
            pass
        result = pipe.finalize()
        assert result.stats.committed == stop - start
        assert result.stats.order_violations > 0
        assert result.to_dict() == expect.to_dict()


# ---------------------------------------------------------------------------
# exact path: window covers the trace -> identical to full detail


class TestExactPath:
    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_exact_matches_golden_matrix(self, workload):
        trace = get_trace(workload, OPS, SEED)
        for arch in _ARCHES:
            cell = f"{workload}/{arch}"
            config = with_sampling(config_for(arch), window=OPS)
            result = simulate(trace, config)
            assert result.sampled and result.sampling["exact"], cell
            expect = GOLDEN["results"][cell]
            assert result.cycles == expect["cycles"], cell
            assert result.stats.committed == expect["committed"], cell
            assert result.stats.issued == expect["issued"], cell
            assert round(result.ipc, 6) == pytest.approx(expect["ipc"]), cell

    def test_exact_to_dict_field_by_field(self):
        """Beyond the golden subset: every serialized field matches."""
        trace = get_trace("histogram", 1000, SEED)
        for arch in ("ooo", "ballerino", "ces", "inorder"):
            full = simulate(trace, config_for(arch))
            sampled = simulate(
                trace, with_sampling(config_for(arch), window=len(trace)))
            assert _full_dict(sampled) == _full_dict(full), arch
            assert full.sampled is False and sampled.sampled is True

    def test_exact_metadata(self):
        trace = get_trace("dotprod", 800, SEED)
        result = simulate(
            trace, with_sampling(config_for("ooo"), window=len(trace)))
        meta = result.sampling
        assert meta["exact"] is True
        assert meta["windows"] == 1
        assert meta["measured_ops"] == len(trace)
        assert meta["ff_ops"] == 0 and meta["ff_cycles"] == 0
        assert meta["knobs"]["sample_window"] == len(trace)


# ---------------------------------------------------------------------------
# determinism


class TestDeterminism:
    def test_sampled_run_is_deterministic(self):
        trace = get_trace("stream_triad", 2000, SEED)
        config = with_sampling(
            config_for("ooo"), period=700, window=300, ff_warmup_ops=100)
        first = simulate_sampled(trace, config)
        second = simulate_sampled(trace, config)
        assert first.to_dict() == second.to_dict()

    def test_fast_forward_is_deterministic(self):
        trace = get_trace("histogram", 1500, SEED)
        config = with_sampling(config_for("ooo"), period=1000, window=200)

        def warmed_state():
            sim = SampledSimulation(trace, config)
            sim.run()
            return (sim.ff.index, sim.ff.ops_warmed, sim.ff.cycles,
                    dict(sim.hier.events), sim.frontend.lookups)

        assert warmed_state() == warmed_state()


# ---------------------------------------------------------------------------
# error bound: the acceptance criterion


class TestErrorBound:
    @pytest.mark.parametrize("workload", _WORKLOADS)
    def test_extrapolated_ipc_within_5_percent(self, workload):
        """At the validation config every golden cell lands within 5%."""
        trace = get_trace(workload, OPS, SEED)
        for arch in _ARCHES:
            cell = f"{workload}/{arch}"
            config = with_sampling(config_for(arch), **ACCURACY_KNOBS)
            result = simulate(trace, config)
            assert result.sampled and not result.sampling["exact"], cell
            golden_ipc = GOLDEN["results"][cell]["ipc"]
            error = abs(result.ipc - golden_ipc) / golden_ipc
            assert error <= 0.05, (
                f"{cell}: sampled IPC {result.ipc:.4f} vs full "
                f"{golden_ipc:.4f} ({100 * error:.1f}% off)")


# ---------------------------------------------------------------------------
# extrapolation metadata


class TestExtrapolation:
    @pytest.fixture(scope="class")
    def result(self):
        trace = get_trace("histogram", 2000, SEED)
        config = with_sampling(config_for("ooo"), **ACCURACY_KNOBS)
        return simulate(trace, config)

    def test_committed_scales_to_whole_trace(self, result):
        assert result.stats.committed == OPS

    def test_window_accounting(self, result):
        meta = result.sampling
        assert meta["windows"] == len([
            s for s in result.interval_samples if "window" in s])
        # contiguous windows: every op is measured, none fast-forwarded
        assert meta["measured_ops"] == OPS
        assert meta["ff_ops"] == 0 and meta["warmup_ops"] == 0
        assert meta["knobs"] == {
            "sample_period": 1000, "sample_window": 1000,
            "warmup_cycles": 0, "ff_width": 8, "ff_warmup_ops": 0,
        }

    def test_estimates_have_ci(self, result):
        estimates = result.sampling["estimates"]
        assert set(estimates) == {
            "ipc", "cpi", "energy_per_op", "mispredicts_per_kop"}
        ipc = estimates["ipc"]
        assert ipc["n"] == result.sampling["windows"] >= 2
        assert ipc["ci95"] is not None and ipc["ci95"] >= 0.0
        # pooled-CPI IPC and the batch-means IPC must be in the same
        # ballpark (they differ by window weighting only)
        assert ipc["mean"] == pytest.approx(result.ipc, rel=0.25)

    def test_single_window_has_no_ci(self):
        trace = get_trace("dotprod", 1200, SEED)
        config = with_sampling(config_for("ooo"), period=1200, window=700)
        result = simulate(trace, config)
        estimates = result.sampling["estimates"]
        assert estimates["ipc"]["n"] >= 1
        if estimates["ipc"]["n"] == 1:
            assert estimates["ipc"]["ci95"] is None

    def test_round_trips_through_serialization(self, result):
        clone = SimResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert clone.sampled is True
        assert clone.sampling == result.sampling
        assert clone.to_dict() == result.to_dict()


# ---------------------------------------------------------------------------
# dispatch + driver wiring


class TestDispatch:
    def test_simulate_dispatches_on_sample_period(self):
        trace = get_trace("histogram", 1500, SEED)
        result = simulate(
            trace, with_sampling(config_for("ooo"), period=1000, window=400))
        assert result.sampled is True


# ---------------------------------------------------------------------------
# fast-forward engine


class TestFastForward:
    def _parts(self, config):
        from repro.frontend.branch_predictor import FrontEnd
        from repro.memory.hierarchy import MemoryHierarchy

        return FrontEnd(), MemoryHierarchy(config.hierarchy)

    def test_advances_clock_by_width(self):
        trace = get_trace("histogram", 1000, SEED)
        config = config_for("ooo")  # ff_width 8
        ff = FastForward(trace, config, *self._parts(config))
        clock = ff.advance(1000, 100)
        assert clock == 100 + 125  # ceil(1000 / 8)
        assert ff.index == 1000
        assert ff.ops_warmed == 1000 and ff.ops_skipped == 0
        assert ff.cycles == 125

    def test_warms_caches_and_predictor(self):
        trace = get_trace("histogram", 1000, SEED)
        config = config_for("ooo")
        frontend, hier = self._parts(config)
        ff = FastForward(trace, config, frontend, hier)
        ff.advance(1000, 0)
        assert hier.events["l1d"] > 0
        assert hier.events["l1i"] > 0
        assert frontend.lookups > 0

    def test_ff_warmup_ops_bounds_the_warming(self):
        trace = get_trace("histogram", 1000, SEED)
        config = with_sampling(config_for("ooo"), ff_warmup_ops=200)
        ff = FastForward(trace, config, *self._parts(config))
        clock = ff.advance(1000, 0)
        assert ff.index == 1000  # position advanced over the whole gap
        assert ff.ops_skipped == 800 and ff.ops_warmed == 200
        assert clock == 125  # virtual time covers skipped ops too

    def test_ff_warmup_ops_caps_each_gap(self):
        """The cap warms the last N ops of every gap, however long."""
        trace = get_trace("stream_triad", 12_000, SEED)
        config = with_sampling(config_for("ooo"), period=6000, window=500,
                               ff_warmup_ops=1000)
        ff_done = []  # cumulative fast-forwarded ops at the end of each gap

        def hook(old_phase, new_phase):
            if old_phase == "ff":
                ff_done.append(sim.ff.ops_warmed + sim.ff.ops_skipped)

        sim = SampledSimulation(trace, config, phase_hook=hook)
        sim.run()
        gaps = [b - a for a, b in zip([0] + ff_done, ff_done)]
        assert len(gaps) == 2 and min(gaps) > 4096
        assert sim.ff.ops_warmed == len(gaps) * config.ff_warmup_ops

    def test_settle_quiesces_hierarchy_timing(self):
        """After an FF stretch the hierarchy must be warm but idle."""
        trace = get_trace("stream_triad", 2000, SEED)
        config = config_for("ooo")
        frontend, hier = self._parts(config)
        from repro.memory.cache import LINE_SIZE

        ff = FastForward(trace, config, frontend, hier)
        clock = ff.advance(2000, 0)
        hier.settle(clock)
        # content survives: the most recently touched line is resident
        # with an already-elapsed fill time...
        last_mem = next(
            op for op in reversed(trace.ops) if op.mem_addr is not None)
        fill = hier.l1d.probe(last_mem.mem_addr // LINE_SIZE)
        assert fill is not None and fill <= clock
        # ...while no in-flight miss or busy bank outlives the settle
        assert all(not mshr._by_line for mshr in hier.mshrs.values())
        for bank in hier.dram._banks:
            assert bank.ready_at <= clock


# ---------------------------------------------------------------------------
# runner cache + sweep


class TestRunnerIntegration:
    def test_sampled_and_full_cache_separately(self, tmp_path):
        runner = ExperimentRunner(
            target_ops=1500, cache_dir=str(tmp_path / "cache"), run_log="")
        full_cfg = config_for("ooo")
        sampled_cfg = with_sampling(config_for("ooo"), period=1000, window=400)
        full = runner.run("histogram", full_cfg)
        sampled = runner.run("histogram", sampled_cfg)
        assert runner.simulations_run == 2  # distinct cache keys
        assert full.sampled is False and sampled.sampled is True

        fresh = ExperimentRunner(
            target_ops=1500, cache_dir=str(tmp_path / "cache"), run_log="")
        again_full = fresh.run("histogram", full_cfg)
        again_sampled = fresh.run("histogram", sampled_cfg)
        assert fresh.simulations_run == 0 and fresh.cache_hits == 2
        assert again_full.to_dict() == full.to_dict()
        assert again_sampled.to_dict() == sampled.to_dict()
        assert again_sampled.sampling == sampled.sampling

    def test_full_runs_unaffected_by_sampling_code(self, tmp_path):
        """The flagship regression: full runs stay golden-byte-identical."""
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "cache"), run_log="")
        result = runner.run("histogram", config_for("ooo"))
        expect = GOLDEN["results"]["histogram/ooo"]
        assert result.cycles == expect["cycles"]
        assert result.stats.committed == expect["committed"]
        assert round(result.ipc, 6) == pytest.approx(expect["ipc"])
        assert result.sampled is False and result.sampling == {}

    def test_sweep_sampling_kwarg(self, tmp_path):
        runner = ExperimentRunner(
            target_ops=1500, cache_dir=str(tmp_path / "cache"), run_log="")
        outcome = sweep(
            {"arch": ["ooo", "ballerino"]}, workloads=("histogram",),
            runner=runner, sampling={"period": 1000, "window": 400},
        )
        assert outcome.points
        for point in outcome.points:
            assert point.result.sampled is True, point.params
            assert point.result.sampling["knobs"]["sample_period"] == 1000


# ---------------------------------------------------------------------------
# serve protocol


class TestServeProtocol:
    def _submit(self, **extra):
        from repro.serve.protocol import parse_submit

        payload = {"cells": [{"workload": "dotprod", "arch": "ooo"}]}
        payload.update(extra)
        return parse_submit(payload, job_id="j1")

    def test_default_is_full_detail(self):
        assert self._submit().sampling is None

    def test_sampled_true_selects_defaults(self):
        assert self._submit(sampled=True).sampling == {}

    def test_sampling_knobs_pass_through(self):
        spec = self._submit(
            sampling={"period": 5000, "window": 500, "ff_warmup_ops": 0})
        assert spec.sampling == {
            "period": 5000, "window": 500, "ff_warmup_ops": 0}

    def test_spec_round_trips_sampling(self):
        from repro.serve.protocol import JobSpec

        spec = self._submit(sampling={"period": 5000})
        clone = JobSpec.from_dict(spec.to_dict())
        assert clone.sampling == {"period": 5000}
        assert JobSpec.from_dict(self._submit().to_dict()).sampling is None

    @pytest.mark.parametrize("bad", [
        {"sampled": "yes"},
        {"sampling": "fast"},
        {"sampling": {"cadence": 100}},
        {"sampling": {"period": "1000"}},
        {"sampling": {"period": True}},
        {"sampling": {"period": 0}},
        {"sampling": {"window": -5}},
    ])
    def test_malformed_sampling_rejected(self, bad):
        from repro.serve.protocol import ProtocolError

        with pytest.raises(ProtocolError) as err:
            self._submit(**bad)
        assert err.value.code == "bad-sampling"

    def test_ff_warmup_ops_zero_is_valid(self):
        assert self._submit(
            sampling={"ff_warmup_ops": 0}).sampling == {"ff_warmup_ops": 0}
