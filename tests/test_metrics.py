"""Metrics registry + interval sampler: types, interval math, neutrality.

The neutrality class is the load-bearing one: enabling the tracer, the
sampler AND stall attribution together must leave every simulated
statistic byte-identical to the uninstrumented golden cells in
``tests/golden_stats.json`` — observability may never perturb what it
observes.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import config_for
from repro.core.pipeline import Pipeline
from repro.core.stats import SimResult
from repro.telemetry import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    IntervalSampler,
    MetricsRegistry,
    StallAttribution,
    Tracer,
    chrome_counter_events,
    core_metrics,
    flatten_sample,
    samples_to_csv,
    series,
)
from repro.workloads.suite import get_trace

GOLDEN = json.loads(
    (Path(__file__).parent / "golden_stats.json").read_text()
)


# ---------------------------------------------------------------------------
# registry


class TestRegistry:
    def test_counter_get_or_create_and_inc(self):
        reg = MetricsRegistry()
        counter = reg.counter("a.b")
        counter.inc()
        counter.inc(4)
        assert reg.counter("a.b") is counter  # get-or-create
        assert reg.value("a.b") == 5
        assert len(reg) == 1 and "a.b" in reg

    def test_count_hot_path_creates_lazily(self):
        reg = MetricsRegistry()
        reg.count("x")
        reg.count("x", 9)
        assert reg.value("x") == 10
        assert reg.value("never.touched") == 0

    def test_gauge_keeps_last_value(self):
        reg = MetricsRegistry()
        reg.gauge("level").set(3)
        reg.gauge("level").set(7)
        assert reg.value("level") == 7

    def test_histogram_buckets_and_overflow(self):
        hist = HistogramMetric("h", buckets=(1, 4, 16))
        for value in (1, 2, 4, 5, 16, 17, 1000):
            hist.observe(value)
        # bounds are inclusive upper edges; 17 and 1000 overflow
        assert hist.buckets == [1, 2, 2, 2]  # le_1, le_4, le_16, overflow
        assert hist.count == 7
        assert hist.mean == pytest.approx(sum((1, 2, 4, 5, 16, 17, 1000)) / 7)
        assert hist.snapshot()["buckets"] == {
            "le_1": 1, "le_4": 2, "le_16": 2, "overflow": 2,
        }

    def test_histogram_rejects_unsorted_bounds(self):
        with pytest.raises(ValueError):
            HistogramMetric("h", buckets=(4, 1))

    def test_kind_clash_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TypeError):
            reg.gauge("x")
        with pytest.raises(TypeError):
            reg.histogram("x")

    def test_snapshot_is_sorted_and_typed(self):
        reg = MetricsRegistry()
        reg.count("b", 2)
        reg.gauge("a").set(1.5)
        reg.observe("c", 3)
        snap = reg.snapshot()
        assert list(snap) == ["a", "b", "c"]
        assert snap["a"]["type"] == "gauge"
        assert snap["b"] == {"type": "counter", "value": 2}
        assert snap["c"]["type"] == "histogram"
        json.dumps(snap)  # JSON-serialisable

    def test_metric_classes_export(self):
        assert CounterMetric("c").kind == "counter"
        assert GaugeMetric("g").kind == "gauge"


# ---------------------------------------------------------------------------
# sampler unit drive (fake pipeline)


class _FakeSched:
    def occupancy(self):
        return 3

    def queue_occupancy(self):
        return {"iq": 3}

    def extra_stats(self):
        return {}


class _FakeStats:
    def __init__(self):
        self.committed = 0
        self.issued = 0
        self.fetched = 0


class _FakePipe:
    """The minimal surface ``IntervalSampler._take`` touches."""

    def __init__(self):
        self.cycle = 0
        self.stats = _FakeStats()
        self.rob = [None] * 5
        self.decode_queue = [None] * 2
        self.scheduler = _FakeSched()
        self.attribution = None

    class _Lsu:
        lq_occupancy = 4
        sq_occupancy = 1

    lsu = _Lsu()


def _drive(pipe, sampler, cycles, ipc=2):
    for _ in range(cycles):
        pipe.cycle += 1
        pipe.stats.committed += ipc
        pipe.stats.issued += ipc
        pipe.stats.fetched += ipc
        sampler.tick(pipe)


class TestSamplerIntervalMath:
    def test_rejects_non_positive_interval(self):
        with pytest.raises(ValueError):
            IntervalSampler(0)
        with pytest.raises(ValueError):
            IntervalSampler(-5)

    def test_tail_interval_shorter_than_n(self):
        pipe, sampler = _FakePipe(), IntervalSampler(1000)
        _drive(pipe, sampler, 2500)
        sampler.finalize(pipe)
        cycles = [s["cycle"] for s in sampler.samples]
        assert cycles == [1000, 2000, 2500]
        assert [s["interval"] for s in sampler.samples] == [1000, 1000, 500]
        # deltas cover the interval exactly; cumulative is running total
        assert sampler.samples[-1]["delta"]["committed"] == 1000
        assert sampler.samples[-1]["committed"] == 5000
        assert sampler.samples[-1]["ipc"] == pytest.approx(2.0)
        assert sampler.samples[-1]["ipc_cum"] == pytest.approx(2.0)

    def test_exact_boundary_takes_no_tail_sample(self):
        pipe, sampler = _FakePipe(), IntervalSampler(1000)
        _drive(pipe, sampler, 2000)
        sampler.finalize(pipe)
        assert [s["cycle"] for s in sampler.samples] == [1000, 2000]

    def test_run_shorter_than_interval_still_samples_once(self):
        pipe, sampler = _FakePipe(), IntervalSampler(1000)
        _drive(pipe, sampler, 300)
        sampler.finalize(pipe)
        assert [s["cycle"] for s in sampler.samples] == [300]
        assert sampler.samples[0]["interval"] == 300

    def test_overshoot_does_not_drift_the_grid(self):
        """Regression: a tick that lands past a boundary (drivers that
        tick less than every cycle, e.g. fast-forward chunks) used to
        rebase the next sample at ``overshoot + interval``, permanently
        shifting every later sample off the N*interval grid."""
        pipe, sampler = _FakePipe(), IntervalSampler(1000)
        for jump in (999, 501, 1000, 1000):  # cycle: 999,1500,2500,3500
            pipe.cycle += jump
            pipe.stats.committed += jump
            sampler.tick(pipe)
        pipe.cycle += 500  # 4000: exactly on-grid again
        sampler.tick(pipe)
        assert [s["cycle"] for s in sampler.samples] == [1500, 2500, 3500, 4000]
        # the grid stayed at multiples of 1000: 4000 was still a boundary
        assert sampler._next == 5000

    def test_overshoot_across_multiple_boundaries_takes_one_sample(self):
        pipe, sampler = _FakePipe(), IntervalSampler(100)
        pipe.cycle = 550  # jumped across 5 boundaries at once
        sampler.tick(pipe)
        assert [s["cycle"] for s in sampler.samples] == [550]
        pipe.cycle = 600  # next boundary is 600, not 650
        sampler.tick(pipe)
        assert [s["cycle"] for s in sampler.samples] == [550, 600]

    def test_take_brackets_without_moving_grid(self):
        """Explicit takes (sampled-mode window brackets) are off-grid
        extras: deltas cover the stretch since the previous sample and
        the periodic grid is unaffected."""
        pipe, sampler = _FakePipe(), IntervalSampler(1000)
        _drive(pipe, sampler, 300)
        sample = sampler.take(pipe)
        assert sample["cycle"] == 300
        assert sample["delta"]["committed"] == 600
        _drive(pipe, sampler, 700)  # reaches 1000: still a grid point
        assert [s["cycle"] for s in sampler.samples] == [300, 1000]
        assert sampler.samples[-1]["delta"]["committed"] == 1400

    def test_occupancy_and_queues_snapshot(self):
        pipe, sampler = _FakePipe(), IntervalSampler(10)
        _drive(pipe, sampler, 10)
        sample = sampler.samples[0]
        assert sample["occupancy"] == {
            "rob": 5, "sched": 3, "decode_queue": 2, "lq": 4, "sq": 1,
        }
        assert sample["queues"] == {"iq": 3}


# ---------------------------------------------------------------------------
# sampler on a real pipeline


class TestSamplerEndToEnd:
    @pytest.fixture(scope="class")
    def run(self):
        trace = get_trace("histogram", 2000, 7)
        sampler = IntervalSampler(1000)
        pipe = Pipeline(trace, config_for("ballerino"), sampler=sampler,
                        attribution=StallAttribution())
        result = pipe.run()
        return result, core_metrics(pipe), sampler

    def test_produces_at_least_two_samples(self, run):
        result, _, _ = run
        assert len(result.interval_samples) >= 2
        assert result.sample_interval == 1000

    def test_final_sample_matches_end_of_run_stats(self, run):
        result, _, _ = run
        last = result.interval_samples[-1]
        assert last["cycle"] == result.cycles
        assert last["committed"] == result.stats.committed
        assert last["issued"] == result.stats.issued
        assert last["fetched"] == result.stats.fetched
        assert last["ipc_cum"] == pytest.approx(result.ipc)

    def test_interval_stall_fractions_sum_to_one(self, run):
        result, _, _ = run
        for sample in result.interval_samples:
            total = sum(sample["stall_fractions"].values())
            assert total == pytest.approx(1.0)

    def test_counters_agree_with_sim_stats(self, run):
        result, metrics, _ = run
        assert metrics.value("pipeline.commit_ops") == result.stats.committed
        assert metrics.value("pipeline.issue_ops") == result.stats.issued
        assert metrics.value("pipeline.branch_mispredicts") \
            == result.stats.branch_mispredicts

    @pytest.mark.parametrize("arch", ["ooo", "inorder", "ces", "casino",
                                      "fxa", "ballerino", "dnb", "spq"])
    def test_port_issues_sum_to_issued(self, arch):
        """Every issued µop counts on its port, including FXA's IXU ops,
        which execute without a back-end port grant."""
        pipe = Pipeline(get_trace("dag_wide", 1500, 7), config_for(arch))
        result = pipe.run()
        assert sum(pipe.ports.issues) == result.stats.issued

    def test_samples_round_trip_sim_result(self, run):
        result, _, _ = run
        clone = SimResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone.interval_samples == result.interval_samples
        assert clone.sample_interval == result.sample_interval

    def test_sampler_source_is_in_the_model_digest(self, tmp_path,
                                                   monkeypatch):
        # the sampler builds every sampled result's interval_samples, so
        # an edit to it must retire the cached results it filled: the
        # model digest, part of every cache key, covers its source
        import shutil

        import repro.analysis.runner as runner_mod

        copy = tmp_path / "repro"
        shutil.copytree(runner_mod._MODEL_ROOT, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.setattr(runner_mod, "_MODEL_ROOT", copy)
        before = runner_mod.model_digest.__wrapped__()
        sampler_source = copy / "telemetry" / "metrics.py"
        assert "class IntervalSampler" in sampler_source.read_text()
        with sampler_source.open("a") as handle:
            handle.write("\n# an edit\n")
        assert runner_mod.model_digest.__wrapped__() != before


# ---------------------------------------------------------------------------
# neutrality: instruments on == golden cells byte-identical


NEUTRALITY_CELLS = sorted(
    cell for cell in GOLDEN["results"] if cell.startswith("histogram/")
)


class TestNeutrality:
    @pytest.mark.parametrize("cell", NEUTRALITY_CELLS)
    def test_instrumented_run_matches_golden(self, cell):
        workload, arch = cell.split("/")
        trace = get_trace(workload, GOLDEN["ops"], GOLDEN["seed"])
        result = Pipeline(
            trace, config_for(arch),
            tracer=Tracer(), attribution=StallAttribution(),
            sampler=IntervalSampler(500),
        ).run()
        expect = GOLDEN["results"][cell]
        assert result.cycles == expect["cycles"], cell
        assert result.stats.committed == expect["committed"], cell
        assert result.stats.issued == expect["issued"], cell
        assert round(result.ipc, 6) == pytest.approx(expect["ipc"]), cell


# ---------------------------------------------------------------------------
# export helpers


class TestExports:
    @pytest.fixture(scope="class")
    def samples(self):
        pipe, sampler = _FakePipe(), IntervalSampler(100)
        _drive(pipe, sampler, 250)
        sampler.finalize(pipe)
        return sampler.samples

    def test_flatten_sample_dots_nested_dicts(self, samples):
        flat = flatten_sample(samples[0])
        assert flat["occupancy.rob"] == 5
        assert flat["queues.iq"] == 3
        assert flat["delta.committed"] == 200
        assert flat["cycle"] == 100
        assert not any(isinstance(v, dict) for v in flat.values())

    def test_samples_to_csv_shape(self, samples):
        text = samples_to_csv(samples)
        lines = text.strip().splitlines()
        assert len(lines) == 1 + len(samples)
        header = lines[0].split(",")
        assert "cycle" in header and "occupancy.rob" in header
        assert len(lines[1].split(",")) == len(header)

    def test_series_extracts_column(self, samples):
        assert series(samples, "cycle") == [100.0, 200.0, 250.0]
        assert series(samples, "occupancy.lq") == [4.0, 4.0, 4.0]

    def test_series_absent_key_is_none_not_zero(self, samples):
        # coercing "absent" to 0.0 would fabricate data points — ragged
        # series (e.g. sampled-mode window annotations) must stay honest
        assert series(samples, "no.such.key") == [None, None, None]

    def test_series_mixed_presence(self, samples):
        ragged = [dict(s) for s in samples]
        ragged[1]["extra"] = 7
        assert series(ragged, "extra") == [None, 7.0, None]

    def test_chrome_counter_events(self, samples):
        events = chrome_counter_events(samples)
        assert events and all(e["ph"] == "C" for e in events)
        names = {e["name"] for e in events}
        assert {"IPC", "occupancy", "lsq", "queues"} <= names
        ipc = [e for e in events if e["name"] == "IPC"]
        assert [e["ts"] for e in ipc] == [100, 200, 250]
