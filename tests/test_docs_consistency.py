"""Guards against documentation rot: names and paths the docs rely on."""

import re
from pathlib import Path

import pytest

from repro.cli import _ALL_ARCHES
from repro.core import config_for
from repro.workloads import KERNELS
from repro.workloads.suite import SUITE_NAMES

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


class TestCliInvocationsInDocs:
    def test_every_repro_invocation_names_a_subcommand(self):
        """Each ``python -m repro ...`` in the README, docs/ and the
        verify recipe runs a subcommand the parser has."""
        import argparse

        from repro.cli import _make_parser

        parser = _make_parser()
        commands = next(action for action in parser._actions
                        if isinstance(action, argparse._SubParsersAction)
                        ).choices
        takes_value = {option for action in parser._actions
                       if action.nargs != 0
                       for option in action.option_strings}
        recipes = sorted(REPO.glob("*/skills/*/SKILL.md"))
        assert recipes, "the verify recipe is missing"
        paths = [REPO / "README.md", *sorted((REPO / "docs").glob("*.md")),
                 *recipes]
        invocation = re.compile(r"python3? -m repro(?![\w.])([^\n`|#;&]*)")
        named, unknown = [], []
        for path in paths:
            # shell line continuations join one command
            text = re.sub(r"\\\n\s*", " ", path.read_text())
            for match in invocation.finditer(text):
                tokens = match.group(1).split()
                index = 0
                while index < len(tokens) and tokens[index].startswith("-"):
                    index += 2 if tokens[index] in takes_value else 1
                if index >= len(tokens) or tokens[index].startswith("<"):
                    continue  # `--version`, the bare module, `<command>`
                named.append(tokens[index])
                if tokens[index] not in commands:
                    unknown.append(f"{path.relative_to(REPO)}: "
                                   f"{match.group(0).strip()}")
        assert len(named) > 50
        assert unknown == []


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


class TestDesignInventory:
    @staticmethod
    def _section():
        text = (REPO / "DESIGN.md").read_text()
        return text.split("\n## 3.")[1].split("\n## ")[0]

    def test_every_module_it_names_imports(self):
        """Each row's last cell names modules; ``.x`` is a sibling of the
        row's first module."""
        import importlib

        rows = [line for line in self._section().splitlines()
                if line.startswith("| ") and not line.startswith("| System ")]
        named = []
        for row in rows:
            names = re.findall(r"`(\.?[a-z_.]+)`", row.split("|")[-2])
            package = names[0].rsplit(".", 1)[0]
            named += [package + name if name.startswith(".") else name
                      for name in names]
        assert len(named) >= len(rows) > 30

        def imports(name):
            try:
                importlib.import_module(name)
            except ModuleNotFoundError:
                return False
            return True

        assert [name for name in named if not imports(name)] == []

    def test_counts_the_kernels(self):
        assert (f"{len(KERNELS)} kernels, {len(SUITE_NAMES)} of them"
                in self._section())
