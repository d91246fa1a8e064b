"""Tests for the paper-vs-measured registry: its collectors on a small
workload set, and its claims and verdicts on made-up data."""

import dataclasses

import pytest

from repro.analysis import ExperimentRunner, experiments, geomean
from repro.analysis.experiments import REGISTRY, build_report
from repro.core import FIG11_ARCHES, FIG13_ARCHES
from repro.energy import CATEGORIES

WORKLOADS = ("histogram", "dag_wide")


@pytest.fixture(scope="module")
def runner(tmp_path_factory):
    return ExperimentRunner(
        target_ops=1200,
        cache_dir=str(tmp_path_factory.mktemp("exp_cache")),
    )


def _stubbed(**data):
    """The registry reduced to the given entries, each returning ``data``."""
    return {
        key: dataclasses.replace(REGISTRY[key], collect=lambda r, d=d: d)
        for key, d in data.items()
    }


def _fig11(**speedups):
    means = dict({arch: 2.0 for arch in FIG11_ARCHES}, inorder=1.0,
                 **speedups)
    return {"workloads": {"dag_wide": means}, "geomean": means}


def test_fig11_collector(runner):
    data = REGISTRY["fig11"].collect(runner, workloads=WORKLOADS)
    assert set(data["geomean"]) == set(FIG11_ARCHES)
    assert set(data["workloads"]) == set(WORKLOADS)
    assert data["geomean"]["inorder"] == pytest.approx(1.0)
    assert all(v > 0 for v in data["geomean"].values())


def test_fig13_collector(runner):
    data = REGISTRY["fig13"].collect(runner, workloads=WORKLOADS)
    assert set(data) == set(FIG13_ARCHES)


def test_fig14_collector(runner):
    data = REGISTRY["fig14"].collect(runner, workloads=WORKLOADS)
    assert set(data) == set(experiments.FIG14_STEPS)
    for mix in data.values():
        assert 0.0 < mix["siq"] < 1.0
        assert mix["siq"] + mix["piq"] == pytest.approx(1.0)


def test_energy_collector(runner):
    data = REGISTRY["fig15"].collect(runner, workloads=WORKLOADS)
    assert "ooo" in data and "ballerino" in data
    for categories in data.values():
        assert sum(categories.values()) > 0
        assert categories["Schedule"] > 0
    assert data["ballerino"]["Schedule"] < data["ooo"]["Schedule"]
    efficiency = REGISTRY["fig16"].collect(runner, workloads=WORKLOADS)
    assert efficiency["ooo"] == 1.0
    assert all(v > 0 for v in efficiency.values())


def test_fig17c_collector(runner):
    data = REGISTRY["fig17c"].collect(runner, workloads=WORKLOADS)
    assert set(data) == {3, 5, 7, 9, 11, 13, 15}
    assert data[11] >= data[3] * 0.9


def test_mdp_collector(runner):
    data = REGISTRY["mdp"].collect(runner)
    assert set(data) == set(experiments.MDP_KERNELS)
    reductions = [experiments._mdp_reduction(v) for v in data.values()]
    assert sum(reductions) / len(reductions) > 0
    assert geomean(v["speedup"] for v in data.values()) > 0


def test_registry_claims_are_named_once_per_figure():
    names = [claim.name for fig in REGISTRY.values() for claim in fig.claims]
    assert len(names) == len(set(names))
    for key, fig in REGISTRY.items():
        assert fig.key == key
        assert all(claim.name.startswith(f"{key}.") for claim in fig.claims)
        # Tables I and II are configuration inventories; their budget
        # invariants are checked in tests/test_config.py
        assert fig.claims or key in ("table1", "table2"), key


def test_broken_claim_is_reported_as_not_holding(monkeypatch, runner):
    """The verdict comes from the data: Ballerino trailing CES breaks
    ``fig11.ballerino_gt_ces`` and the report says so."""
    claim = next(c for c in REGISTRY["fig11"].claims
                 if c.name == "fig11.ballerino_gt_ces")
    stub = _fig11(casino=1.5, ces=1.9, ballerino=1.8)
    assert not claim.holds(stub)
    monkeypatch.setattr(experiments, "REGISTRY", _stubbed(fig11=stub))
    lines = build_report(runner).splitlines()
    assert [line for line in lines if claim.name in line] == [
        f"- **does not hold**: {claim.text} (`{claim.name}`)"
    ]
    assert not any("holds" in line and claim.text in line for line in lines)
    assert "- **holds**: CASINO < CES < OoO" in "\n".join(lines)


def test_build_report_renders_markdown(monkeypatch, runner):
    """The report generator end to end, with stubbed collectors."""
    energy = experiments.ENERGY_ARCHES
    monkeypatch.setattr(experiments, "REGISTRY", _stubbed(
        fig11=_fig11(),
        fig13={arch: 1.8 for arch in FIG13_ARCHES},
        fig14={step: {"siq": 0.41, "piq": 0.59}
               for step in experiments.FIG14_STEPS},
        fig15={arch: {cat: 10.0 for cat in CATEGORIES} for arch in energy},
        fig16={arch: 1.0 for arch in energy},
        fig17c={n: 0.9 + n / 200 for n in experiments.PIQ_COUNTS},
        mdp={w: {"violations_mdp": 1, "violations_none": 25, "speedup": 1.5}
             for w in experiments.MDP_KERNELS},
    ))
    report = build_report(runner)
    assert report.startswith("# EXPERIMENTS")
    for heading in ("Figure 11", "Figure 13", "Figure 14", "Figure 15",
                    "Figure 16", "Figure 17c", "SIII-B"):
        assert heading in report
    assert "41%" in report
    assert "| ballerino | 41.0% | 59.0% |" in report  # the stubbed share
