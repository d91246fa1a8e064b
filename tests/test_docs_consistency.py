"""Guards against documentation rot: names and paths the docs rely on."""

import re
from pathlib import Path

import pytest

from repro.cli import _ALL_ARCHES
from repro.core import config_for
from repro.workloads import KERNELS

REPO = Path(__file__).resolve().parents[1]


class TestDocFiles:
    @pytest.mark.parametrize("path", [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "docs/microarchitecture.md",
        "docs/adding_a_scheduler.md",
        "docs/workloads.md",
        "docs/energy_model.md",
        "docs/api.md",
        "docs/observability.md",
        "docs/performance.md",
        "docs/serving.md",
    ])
    def test_exists_and_nonempty(self, path):
        file = REPO / path
        assert file.exists(), f"{path} missing"
        assert len(file.read_text()) > 500

    def test_readme_references_existing_paths(self):
        text = (REPO / "README.md").read_text()
        for path in ("examples/quickstart.py", "examples/custom_workload.py",
                     "examples/design_space.py", "EXPERIMENTS.md",
                     "DESIGN.md", "docs/api.md"):
            assert path in text
            assert (REPO / path).exists()


class TestCliAndConfigAgreement:
    def test_every_cli_arch_has_a_preset(self):
        for arch in _ALL_ARCHES:
            config_for(arch)  # must not raise

    def test_workloads_doc_lists_every_suite_kernel(self):
        text = (REPO / "docs" / "workloads.md").read_text()
        for name, spec in KERNELS.items():
            if spec.in_suite:
                assert f"`{name}`" in text, f"{name} missing from docs"


class TestExamplesAreRunnableFiles:
    @pytest.mark.parametrize("name", [
        "quickstart.py", "custom_workload.py", "design_space.py",
        "figure_gallery.py",
    ])
    def test_example_compiles(self, name):
        import py_compile

        py_compile.compile(str(REPO / "examples" / name), doraise=True)


class TestBenchmarksCoverEveryFigure:
    def test_one_bench_per_figure(self):
        """Every row of DESIGN.md's per-experiment index names an entry
        of the experiments registry, and every entry is named."""
        from repro.analysis.experiments import REGISTRY

        section = (REPO / "DESIGN.md").read_text().split("\n## 4.")[1]
        rows = [line for line in section.split("\n## ")[0].splitlines()
                if line.startswith("| ") and not line.startswith("| Exp ")]
        named = set()
        for row in rows:
            entries = set(re.findall(r"`([a-z0-9]+)`", row.split("|")[-2]))
            assert entries and entries <= set(REGISTRY), row
            named |= entries
        assert named == set(REGISTRY)
