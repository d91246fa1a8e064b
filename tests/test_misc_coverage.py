"""Coverage for small paths not exercised elsewhere."""

import pytest

from repro.analysis import ExperimentRunner
from repro.core import config_for, simulate
from repro.core.stats import DelayBreakdown, SimResult, SimStats
from repro.energy import EnergyModel
from repro.isa import OpClass
from repro.workloads import build_trace


class TestTraceStats:
    def test_class_mix(self):
        trace = build_trace("stream_triad", target_ops=1000)
        mix = trace.class_mix()
        assert mix[OpClass.LOAD] == trace.num_loads
        assert mix[OpClass.BRANCH] == trace.num_branches
        assert sum(mix.values()) == len(trace)

    def test_truncated_noop_when_bigger(self):
        trace = build_trace("stream_triad", target_ops=500)
        assert trace.truncated(10_000) is trace

    def test_indexing_and_iteration(self):
        trace = build_trace("stream_triad", target_ops=500)
        assert trace[0].seq == 0
        assert list(trace)[-1].seq == trace[-1].seq


class TestStatsObjects:
    def test_empty_breakdown_averages_are_zero(self):
        breakdown = DelayBreakdown()
        averages = breakdown.averages()
        assert averages["Ld"]["total"] == 0
        assert averages["All"]["decode_to_dispatch"] == 0

    def test_simstats_ipc_zero_cycles(self):
        assert SimStats().ipc == 0.0

    def test_simresult_summary_fields(self):
        trace = build_trace("spill_fill", target_ops=600)
        result = simulate(trace, config_for("ooo"))
        summary = result.summary()
        assert summary["workload"] == "spill_fill"
        assert summary["committed"] == len(trace)
        assert result.seconds > 0


class TestEnergyEdgeCases:
    def test_unknown_events_are_ignored(self):
        trace = build_trace("spill_fill", target_ops=600)
        result = simulate(trace, config_for("ooo"))
        result.stats.energy_events["totally_new_event"] = 10**9
        report = EnergyModel().evaluate(result, config_for("ooo"))
        assert report.total_pj < 1e12  # the bogus event contributed nothing

    def test_voltage_scaling_quadratic(self):
        trace = build_trace("spill_fill", target_ops=600)
        cfg = config_for("ooo")
        result = simulate(trace, cfg)
        model = EnergyModel()
        nominal = model.evaluate(result, cfg, voltage=1.04)
        halved = model.evaluate(result, cfg, voltage=0.52)
        # dynamic part scales 4x down; leakage 2x: total must shrink >2x
        assert halved.total_pj < nominal.total_pj / 2


class TestWrongPathEnergy:
    def test_mispredicts_charge_front_end_energy(self):
        trace = build_trace("branchy_count", target_ops=2500)
        result = simulate(trace, config_for("ooo"))
        assert result.stats.branch_mispredicts > 10
        assert result.stats.energy_events["wrongpath_ops"] > 0
        # wrong-path fetches inflate the fetch count beyond trace length
        assert result.stats.energy_events["fetch"] > result.stats.fetched

    def test_predictable_code_has_little_wrong_path(self):
        trace = build_trace("stream_triad", target_ops=2500)
        result = simulate(trace, config_for("ooo"))
        assert (
            result.stats.energy_events["wrongpath_ops"]
            < 0.1 * result.stats.committed
        )


class TestSeedSensitivity:
    def test_run_seeds_distinct_results(self, tmp_path):
        runner = ExperimentRunner(target_ops=1000, cache_dir=str(tmp_path))
        tasks = [("hash_probe", config_for("ooo"), seed) for seed in (1, 2, 3)]
        results = runner.run_many(tasks)
        assert len(results) == 3
        assert len({r.cycles for r in results}) >= 2  # data changes timing
        # cached on the second pass
        before = runner.simulations_run
        runner.run_many(tasks)
        assert runner.simulations_run == before

    def test_seed_does_not_leak_into_default(self, tmp_path):
        runner = ExperimentRunner(target_ops=1000, seed=7,
                                  cache_dir=str(tmp_path))
        default = runner.run("hash_probe", config_for("ooo"))
        seeded = runner.run("hash_probe", config_for("ooo"), seed=7)
        assert seeded.cycles == default.cycles
        assert runner.simulations_run == 1
