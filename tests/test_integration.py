"""Cross-module integration tests: full simulations, checked end to end."""

import pytest

from repro import build_trace, config_for, simulate
from repro.analysis import ExperimentRunner, geomean
from repro.core import FIG11_ARCHES
from repro.energy import EnergyModel
from repro.workloads.suite import SMOKE_NAMES

ARCHES = ("inorder", "ooo", "ces", "casino", "fxa", "ballerino")


@pytest.mark.parametrize("arch", ARCHES)
@pytest.mark.parametrize("workload", SMOKE_NAMES)
def test_every_arch_commits_every_smoke_workload(arch, workload):
    trace = build_trace(workload, target_ops=1500)
    result = simulate(trace, config_for(arch))
    assert result.stats.committed == len(trace)
    assert result.cycles > 0
    assert 0 < result.ipc < 8.01


class TestCrossSchedulerConsistency:
    @pytest.fixture(scope="class")
    def results(self):
        trace = build_trace("dag_wide", target_ops=5000)
        return {arch: simulate(trace, config_for(arch)) for arch in ARCHES}

    def test_paper_performance_ordering(self, results):
        """InO slowest; OoO fastest; Ballerino between CASINO and OoO."""
        cycles = {arch: r.cycles for arch, r in results.items()}
        assert cycles["ooo"] <= cycles["ballerino"]
        assert cycles["ballerino"] <= cycles["casino"]
        assert cycles["ballerino"] <= cycles["inorder"]
        assert cycles["ces"] < cycles["inorder"]

    def test_same_commit_counts(self, results):
        counts = {r.stats.committed for r in results.values()}
        assert len(counts) == 1

    def test_energy_events_populated(self, results):
        for arch, result in results.items():
            events = result.stats.energy_events
            assert events["fetch"] > 0
            assert events["rename"] > 0
            assert events["prf_write"] > 0

    def test_ballerino_cheaper_wakeup_than_ooo(self, results):
        ooo = results["ooo"].stats.energy_events["wakeup_cam"]
        bal = results["ballerino"].stats.energy_events["wakeup_cam"]
        assert bal < ooo / 3


class TestHeadlineClaims:
    """Scaled-down versions of the paper's abstract-level claims."""

    @pytest.fixture(scope="class")
    def runner(self, tmp_path_factory):
        return ExperimentRunner(
            target_ops=4000,
            cache_dir=str(tmp_path_factory.mktemp("bench_cache")),
        )

    def test_ballerino12_within_a_few_percent_of_ooo(self, runner):
        ratios = []
        for workload in SMOKE_NAMES:
            ooo = runner.run(workload, config_for("ooo"))
            b12 = runner.run(workload, config_for("ballerino12"))
            ratios.append(ooo.cycles / b12.cycles)
        assert geomean(ratios) > 0.9

    def test_ballerino_more_energy_efficient_than_ooo(self, runner):
        model = EnergyModel()
        effs = []
        for workload in SMOKE_NAMES:
            ooo_cfg, bal_cfg = config_for("ooo"), config_for("ballerino12")
            ooo = model.evaluate(runner.run(workload, ooo_cfg), ooo_cfg)
            bal = model.evaluate(runner.run(workload, bal_cfg), bal_cfg)
            effs.append(bal.efficiency / ooo.efficiency)
        assert geomean(effs) > 1.0

    def test_all_fig11_arches_simulate(self, runner):
        for arch in FIG11_ARCHES:
            result = runner.run("histogram", config_for(arch))
            assert result.stats.committed > 0


class TestRecoveryStress:
    def test_violation_heavy_workload_is_correct_everywhere(self):
        import dataclasses

        trace = build_trace("histogram", target_ops=4000)
        for arch in ("ooo", "ballerino"):
            cfg = dataclasses.replace(
                config_for(arch), mdp_enabled=False, name=f"{arch}-nomdp"
            )
            result = simulate(trace, cfg)
            assert result.stats.committed == len(trace)
            assert result.stats.order_violations > 0  # stress actually hit

    def test_mispredict_heavy_workload(self):
        trace = build_trace("branchy_count", target_ops=4000)
        for arch in ARCHES:
            result = simulate(trace, config_for(arch))
            assert result.stats.committed == len(trace)
            assert result.stats.branch_mispredicts > 0
