"""Tests for the experiment runner, caching, and report helpers."""

import dataclasses
import hashlib
import json

import pytest

from repro.analysis import ExperimentRunner, format_table, geomean, normalise
from repro.analysis.runner import model_digest
from repro.cli import _ALL_ARCHES
from repro.core import config_for
from repro.core.sampling import with_sampling
from repro.core.stats import SimResult


class TestRunner:
    def _runner(self, tmp_path):
        return ExperimentRunner(target_ops=1500, cache_dir=str(tmp_path))

    def test_memory_cache(self, tmp_path):
        runner = self._runner(tmp_path)
        a = runner.run("histogram", config_for("ooo"))
        b = runner.run("histogram", config_for("ooo"))
        assert runner.simulations_run == 1
        assert runner.cache_hits == 1
        assert a.cycles == b.cycles

    def test_disk_cache_roundtrip(self, tmp_path):
        first = self._runner(tmp_path)
        a = first.run("histogram", config_for("ballerino"))
        second = self._runner(tmp_path)
        b = second.run("histogram", config_for("ballerino"))
        assert second.simulations_run == 0
        assert b.cycles == a.cycles
        assert b.stats.energy_events == a.stats.energy_events
        assert b.stats.breakdown.averages() == a.stats.breakdown.averages()

    def test_distinct_configs_not_conflated(self, tmp_path):
        runner = self._runner(tmp_path)
        runner.run("histogram", config_for("ooo"))
        runner.run("histogram", config_for("inorder"))
        assert runner.simulations_run == 2

    def test_piq_override_changes_key(self, tmp_path):
        runner = self._runner(tmp_path)
        runner.run("histogram", config_for("ballerino"))
        runner.run("histogram", config_for("ballerino", num_piqs=11))
        assert runner.simulations_run == 2

    def test_speedups_over(self, tmp_path):
        runner = self._runner(tmp_path)
        base, test = runner.run_many([("hash_probe", config_for("inorder")),
                                      ("hash_probe", config_for("ooo"))])
        assert base.seconds / test.seconds > 1.0

    @pytest.mark.parametrize("width", [2, 4, 8, 10])
    def test_key_hashes_the_config_fields(self, width):
        """``key_for`` serialises the config without ``asdict``'s deep
        copy, to the same text: every preset, plain and sampled."""
        runner = ExperimentRunner(target_ops=1500, cache_dir="")
        for arch in _ALL_ARCHES:
            plain = config_for(arch, width=width)
            for config in (plain, with_sampling(plain)):
                blob = json.dumps({
                    "model": model_digest(), "workload": "dotprod",
                    "ops": 1500, "seed": runner.seed,
                    "config": dataclasses.asdict(config)}, sort_keys=True)
                assert runner.key_for("dotprod", config) == \
                    hashlib.sha256(blob.encode()).hexdigest()[:24]

    def test_disabled_disk_cache(self):
        runner = ExperimentRunner(target_ops=1000, cache_dir="")
        assert runner.cache_dir is None
        runner.run("histogram", config_for("inorder"))


class TestHelpers:
    def test_geomean(self):
        assert geomean([2, 8]) == pytest.approx(4.0)
        assert geomean([5]) == pytest.approx(5.0)
        assert geomean([]) == 0.0

    def test_normalise(self):
        out = normalise({"a": 2.0, "b": 4.0}, "a")
        assert out == {"a": 1.0, "b": 2.0}
        with pytest.raises(ValueError):
            normalise({"a": 0.0, "b": 1.0}, "a")

    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["x", 1.5], ["longer", 2.25]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert "1.500" in text and "2.250" in text

    def test_format_table_empty_rows(self):
        text = format_table(["a"], [])
        assert "a" in text
