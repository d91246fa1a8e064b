"""Tests of the benchmark's own metric code.

    python3 -m pytest perfbench/tests -q
"""

import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from metric_rules import (Outcomes, activity, check_fingerprints,  # noqa: E402
                          fingerprint, is_quiet, self_times, tail_percentile)


def test_tail_percentile_keeps_ten_samples_beyond():
    samples = list(range(100, 0, -1))
    pct, value, n = tail_percentile(samples)
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_percentile_smallest_sample_count():
    pct, value, n = tail_percentile([5.0] * 10 + [1.0])
    assert (value, n) == (1.0, 11)
    assert abs(pct - 100 / 11) < 1e-9


def test_tail_percentile_too_few_samples_reports_the_maximum():
    assert tail_percentile([3.0, 1.0, 2.0]) == (100.0, 3.0, 3)


def _span(span_id, start, end, parent=None):
    return {"span_id": span_id, "parent_id": parent, "start_t": start,
            "end_t": end}


def test_self_time_subtracts_the_union_of_children():
    spans = [
        _span("p", 0.0, 10.0),
        _span("a", 1.0, 3.0, "p"),
        _span("b", 2.0, 5.0, "p"),   # overlaps a: counted once
        _span("c", 8.0, 12.0, "p"),  # runs past the parent: clipped
        _span("open", 4.0, None, "p"),
    ]
    selfs = self_times(spans)
    assert abs(selfs["p"] - 4.0) < 1e-9
    assert selfs["a"] == 2.0
    assert "open" not in selfs


def test_self_time_ignores_grandchildren():
    spans = [_span("p", 0.0, 4.0), _span("c", 0.0, 1.0, "p"),
             _span("g", 2.0, 3.0, "c")]
    assert self_times(spans)["p"] == 3.0


def _pipe(fetched=0, issued=0, committed=0, decode=0, dispatch=0, rob=0):
    return SimpleNamespace(
        stats=SimpleNamespace(fetched=fetched, issued=issued,
                              committed=committed),
        decode_queue=[0] * decode, dispatch_queue=[0] * dispatch,
        rob=[0] * rob)


def test_quiet_cycle_predicate_sees_every_field():
    base = activity(_pipe(4, 3, 2, 1, 1, 5))
    assert is_quiet(base, activity(_pipe(4, 3, 2, 1, 1, 5)))
    for field in ("fetched", "issued", "committed", "decode", "dispatch",
                  "rob"):
        changed = dict(fetched=4, issued=3, committed=2, decode=1,
                       dispatch=1, rob=5)
        changed[field] += 1
        assert not is_quiet(base, activity(_pipe(**changed))), field


def test_quiet_census_on_a_real_pipeline_leaves_results_unchanged():
    from layers import run_traced
    from repro.core.config import config_for
    from repro.core.pipeline import simulate
    from repro.workloads.kernels import build_trace

    trace = build_trace("pointer_chase", 300, 0)
    config = config_for("ooo")
    result, figures = run_traced(trace, config)
    assert fingerprint(result.to_dict()) == \
        fingerprint(simulate(trace, config).to_dict())
    assert figures["steps"] == result.cycles
    assert 0 < figures["quiet"] < figures["steps"]
    assert figures["clock"].calls["sched"] > 0
    assert figures["clock"].busy["memory"] > 0


def _result(cycles, committed):
    return {"stats": {"cycles": cycles, "committed": committed}}


def test_fingerprint_mismatch_raises_error_rate():
    outcomes = Outcomes()
    for _ in range(4):
        outcomes.attempt()
    observed = {
        "k/ooo": ("op0", fingerprint(_result(100, 50))),
        "k/ces": ("op1", fingerprint(_result(101, 50))),
        "k/new": ("op2", fingerprint(_result(7, 7))),
    }
    recorded = {"k/ooo": fingerprint(_result(100, 50)),
                "k/ces": fingerprint(_result(100, 50))}
    assert check_fingerprints(outcomes, observed, recorded) == (2, 1)
    assert outcomes.error_rate == 0.25
    assert "op1" in outcomes.failed


def test_an_operation_fails_once():
    outcomes = Outcomes()
    outcomes.attempt()
    outcomes.fail("op", "first")
    outcomes.fail("op", "second")
    assert outcomes.error_rate == 1.0
    assert outcomes.failed == {"op": "first"}


def test_host_probe_is_a_fixed_workload():
    import host_probe

    assert host_probe._loop(300) == host_probe._loop(300)
    assert host_probe.probe(300) > 0
