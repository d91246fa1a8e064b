"""The paper's shape claims, and EXPERIMENTS.md, from a cold cache.

Every entry of :data:`repro.analysis.experiments.REGISTRY` is collected
once; each claim is one test named after it, and the last test requires
the regenerated report to equal the committed ``EXPERIMENTS.md``.

Run:  PYTHONPATH=src python -m pytest benchmarks/
"""

from pathlib import Path

import pytest

from repro.analysis.experiments import REGISTRY, build_report

EXPERIMENTS_MD = Path(__file__).resolve().parents[1] / "EXPERIMENTS.md"
CLAIMS = [(fig, claim) for fig in REGISTRY.values() for claim in fig.claims]


@pytest.fixture(scope="session")
def collected(runner):
    return {key: fig.collect(runner) for key, fig in REGISTRY.items()}


@pytest.mark.parametrize("figure, claim", CLAIMS,
                         ids=[claim.name for _, claim in CLAIMS])
def test_claim(collected, figure, claim):
    assert claim.holds(collected[figure.key]), f"{claim.name}: {claim.text}"


def test_experiments_md_is_current(runner):
    assert build_report(runner) + "\n" == EXPERIMENTS_MD.read_text(), (
        "EXPERIMENTS.md is stale; regenerate it with "
        "`python -m repro.analysis.experiments > EXPERIMENTS.md`"
    )
