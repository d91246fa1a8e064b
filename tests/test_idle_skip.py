"""Idle-cycle skipping: jumps over quiet stretches, output unchanged.

The recorded digests in ``tests/golden_digests.json`` come from the
plain every-cycle loop (see ``golden_cases.py``).  The ``boundaries``
cases are the ones a naive skip gets wrong: sampled windows whose
measurement starts after a detailed warm-up, watchdog and ``max_cycles``
trips (message and snapshot), and interval series on a fine grid.
"""

import json
from pathlib import Path

import pytest

from repro.core.config import config_for
from repro.core.pipeline import Pipeline
from repro.telemetry.attribution import StallAttribution
from repro.telemetry.metrics import IntervalSampler, core_metrics
from repro.verify import oracle
from repro.verify.genprog import generate_spec
from repro.verify.reference import ReferencePipeline, first_difference
from repro.workloads.kernels import build_trace
from repro.workloads.suite import get_trace

from golden_cases import BOUNDARIES, digest

DIGESTS = json.loads(
    (Path(__file__).parent / "golden_digests.json").read_text()
)


@pytest.mark.parametrize("name", sorted(BOUNDARIES))
def test_boundary_matches_recorded_digest(name):
    assert digest(BOUNDARIES[name]()) == DIGESTS["boundaries"][name], name


def _steps(pipe):
    """Run ``pipe`` step by step; returns (result, steps)."""
    pipe.begin()
    steps = 1
    while pipe.step():
        steps += 1
    return pipe.finalize(), steps


@pytest.mark.parametrize("arch", ["ooo", "ballerino"])
def test_pointer_chase_jumps_over_its_stalls(arch):
    trace = build_trace("pointer_chase", 1500, 0)
    result, steps = _steps(Pipeline(trace, config_for(arch)))
    assert result.cycles == 62_687
    assert steps < result.cycles // 20


def test_ballerino_skips_its_period_two_stretches():
    """Sharing P-IQs toggle their examined head every quiet cycle."""
    trace = build_trace("stream_triad", 6000, 0)
    result, steps = _steps(Pipeline(trace, config_for("ballerino")))
    assert steps < result.cycles // 3


@pytest.mark.parametrize("arch", ["dnb", "spq"])
def test_schedulers_that_do_not_opt_in_step_every_cycle(arch):
    trace = get_trace("pointer_chase", 400, 7)
    result, steps = _steps(Pipeline(trace, config_for(arch)))
    assert steps == result.cycles


@pytest.mark.parametrize("arch", ["inorder", "ooo", "ces", "casino", "fxa",
                                  "ballerino", "ballerino_ideal"])
def test_fast_equals_reference_with_every_hook(arch):
    """Field by field, with the invariant checker on in the fast run."""
    trace = get_trace("stream_triad", 1500, 7)

    def payload(cls, **kwargs):
        pipe = cls(trace, config_for(arch), attribution=StallAttribution(),
                   sampler=IntervalSampler(61), **kwargs)
        result, steps = _steps(pipe)
        return {"result": result.to_dict(),
                "metrics": core_metrics(pipe).snapshot()}, steps

    fast, fast_steps = payload(Pipeline, check_invariants=True)
    slow, slow_steps = payload(ReferencePipeline)
    assert slow_steps == slow["result"]["stats"]["cycles"]
    assert fast_steps < slow_steps
    assert first_difference(slow, fast) is None


def test_first_difference_names_the_field():
    ref = {"stats": {"cycles": 10, "energy": {"steer": 3}}, "s": [1, 2]}
    assert first_difference(ref, ref) is None
    fast = {"stats": {"cycles": 10, "energy": {"steer": 4}}, "s": [1, 2]}
    assert first_difference(ref, fast) == (
        "stats.energy.steer: reference 3, fast 4")
    assert first_difference(ref, {**ref, "s": [1]}) == (
        "s: reference has 2 entries, fast has 1")


@pytest.mark.parametrize("arch", ["inorder", "ooo", "ces", "casino", "fxa",
                                  "ballerino"])
def test_random_programs_pass_the_timing_differential(arch):
    """The fuzz oracle's ``timing`` check on a few generated programs:
    they reach stretches the kernels never do (an FXA IXU op hitting
    its last stage inside a quiet stretch, for one)."""
    for seed in range(4):
        program, trace, regs, mem = oracle.run_reference(generate_spec(seed))
        failure = oracle.check_arch(program, trace, regs, mem, arch,
                                    check_invariants=False)
        assert failure is None, f"seed {seed}: {failure}"


class _Overshoot(Pipeline):
    """A broken skip: every jump lands one cycle past its horizon."""

    def _horizon(self, since):
        return super()._horizon(since) + 1


def test_oracle_reports_a_broken_skip_as_timing(monkeypatch):
    monkeypatch.setattr(oracle, "Pipeline", _Overshoot)
    program, trace, regs, mem = oracle.run_reference(generate_spec(3))
    failure = oracle.check_arch(program, trace, regs, mem, "ooo",
                                check_invariants=False)
    assert failure is not None and failure.kind == "timing", failure
    assert ": reference " in failure.detail
