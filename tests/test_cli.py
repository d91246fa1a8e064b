"""Tests for the ``python -m repro`` command-line interface."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


@pytest.fixture()
def cli(tmp_path, monkeypatch):
    """Run the CLI with a temp cache and small traces; capture via capsys."""
    monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))

    def run(*argv):
        return main(["--ops", "1200", *argv])

    return run


class TestInformational:
    def test_workloads_lists_suite(self, cli, capsys):
        assert cli("workloads") == 0
        out = capsys.readouterr().out
        assert "stream_triad" in out
        assert "pointer_chase" in out

    def test_configs_lists_presets(self, cli, capsys):
        assert cli("configs") == 0
        out = capsys.readouterr().out
        assert "ballerino" in out and "casino" in out and "dnb" in out

    def test_configs_honours_width(self, cli, capsys):
        assert cli("--width", "4", "configs") == 0
        assert "2.5 GHz" in capsys.readouterr().out


class TestSimulate:
    def test_simulate_prints_summary(self, cli, capsys):
        assert cli("simulate", "histogram", "ballerino") == 0
        out = capsys.readouterr().out
        assert "IPC" in out
        assert "decode-to-issue breakdown" in out
        assert "ballerino-8w" in out

    def test_simulate_rejects_unknown_workload(self, cli):
        with pytest.raises(SystemExit):
            cli("simulate", "nosuch", "ooo")

    def test_simulate_rejects_unknown_arch(self, cli):
        with pytest.raises(SystemExit):
            cli("simulate", "histogram", "nosuch")

    # A host-independent speed guard: the pipeline is built before the
    # profiler starts, so the count repeats exactly.  Each ceiling is
    # the current figure plus 3% (95.8 and 132.8).
    @pytest.mark.parametrize("workload, arch, ceiling", [
        ("matmul_tile", "ooo", 98.7),
        ("dag_wide", "ballerino", 136.8),
    ], ids=["matmul_tile-ooo", "dag_wide-ballerino"])
    def test_profile_reports_calls_per_committed_uop(self, cli, capsys,
                                                     workload, arch,
                                                     ceiling):
        assert main(["--ops", "1500", "--seed", "7", "simulate",
                     workload, arch, "--profile"]) == 0
        err = capsys.readouterr().err
        found = re.search(r"calls per committed µop: ([0-9.]+)", err)
        assert found, err[-2000:]
        assert float(found.group(1)) <= ceiling


class TestTrace:
    def test_trace_prints_stall_attribution(self, cli, capsys):
        assert cli("trace", "dotprod", "ballerino") == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "TOTAL" in out and "100.0" in out
        assert "events traced" in out

    def test_trace_writes_chrome_json(self, cli, capsys, tmp_path):
        from repro.telemetry import read_chrome_trace

        path = tmp_path / "trace.json"
        assert cli("trace", "dotprod", "ooo", "--trace-out", str(path)) == 0
        document = read_chrome_trace(str(path))
        assert document["traceEvents"]
        assert str(path) in capsys.readouterr().out

    def test_trace_konata_inferred_from_extension(self, cli, tmp_path):
        path = tmp_path / "trace.kanata"
        assert cli("trace", "dotprod", "inorder", "--trace-out", str(path)) == 0
        assert path.read_text().startswith("Kanata\t0004")

    def test_trace_format_flag_overrides_extension(self, cli, tmp_path):
        path = tmp_path / "trace.json"
        assert cli("trace", "dotprod", "ooo", "--trace-out", str(path),
                   "--trace-format", "konata") == 0
        assert path.read_text().startswith("Kanata\t0004")

    def test_trace_rejects_unknown_arch(self, cli):
        with pytest.raises(SystemExit):
            cli("trace", "dotprod", "nosuch")

    def test_simulate_accepts_trace_out(self, cli, capsys, tmp_path):
        path = tmp_path / "sim.json"
        assert cli("simulate", "dotprod", "ooo", "--trace-out", str(path)) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert path.exists()

    def test_compare_writes_one_trace_per_arch(self, cli, tmp_path):
        path = tmp_path / "cmp.json"
        assert cli("compare", "dotprod", "inorder", "ooo",
                   "--trace-out", str(path)) == 0
        assert (tmp_path / "cmp.inorder.json").exists()
        assert (tmp_path / "cmp.ooo.json").exists()


class TestMetrics:
    def test_metrics_command_prints_tables(self, cli, capsys):
        assert cli("metrics", "histogram", "ballerino",
                   "--sample-interval", "300") == 0
        out = capsys.readouterr().out
        assert "instrumented simulation" in out
        assert "interval time-series" in out
        assert "top counters" in out
        assert "pipeline.commit_ops" in out
        assert "stall-class fractions" in out

    def test_metrics_csv_export(self, cli, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        assert cli("metrics", "dotprod", "ooo",
                   "--sample-interval", "300", "--csv", str(path)) == 0
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert "cycle" in header and "occupancy.rob" in header
        assert len(lines) >= 3  # >= 2 samples at 300-cycle interval

    def test_metrics_trace_out_overlays_counter_events(self, cli, tmp_path):
        from repro.telemetry import read_chrome_trace

        path = tmp_path / "trace.json"
        assert cli("metrics", "dotprod", "ooo",
                   "--sample-interval", "300",
                   "--trace-out", str(path)) == 0
        document = read_chrome_trace(str(path))
        counters = [e for e in document["traceEvents"]
                    if e.get("ph") == "C"]
        assert counters
        assert {"IPC", "occupancy", "queues"} <= {e["name"] for e in counters}

    def test_metrics_json_out(self, cli, tmp_path):
        import json

        path = tmp_path / "metrics.json"
        assert cli("metrics", "histogram", "ces",
                   "--sample-interval", "400", "--json-out", str(path)) == 0
        payload = json.loads(path.read_text())
        assert payload["workload"] == "histogram"
        assert payload["samples"]
        assert payload["metrics"]["pipeline.commit_ops"]["value"] == 1200
        assert payload["samples"][-1]["committed"] == 1200

    def test_simulate_metrics_flag_appends_tables(self, cli, capsys):
        assert cli("simulate", "histogram", "ballerino",
                   "--metrics", "--sample-interval", "300") == 0
        out = capsys.readouterr().out
        assert "simulation summary" in out  # the normal output stays
        assert "interval time-series" in out
        assert "top counters" in out

    def test_metrics_rejects_bad_interval(self, cli):
        with pytest.raises(ValueError):
            cli("metrics", "histogram", "ooo", "--sample-interval", "0")


class TestRunLogAndCacheHealth:
    def test_compare_writes_run_log(self, cli, tmp_path):
        from repro.telemetry import read_run_log, validate_event

        path = tmp_path / "run.jsonl"
        assert main(["--ops", "1200", "--run-log", str(path),
                     "compare", "dotprod", "ooo", "ces"]) == 0
        records = read_run_log(str(path))
        events = [r["event"] for r in records]
        assert "campaign_start" in events and "campaign_end" in events
        assert events.count("finish") == 2
        for record in records:
            validate_event(record)

    def test_cache_health_summary_in_exit_summary(self, cli, capsys,
                                                  tmp_path):
        assert cli("compare", "dotprod", "ooo") == 0
        capsys.readouterr()
        for entry in (tmp_path / "cache").glob("*.json"):
            entry.write_text("garbage{{{")
        assert cli("compare", "dotprod", "ooo") == 0
        out = capsys.readouterr().out
        assert "cache health:" in out
        assert "re-simulated" in out
        assert "repro reconcile" in out

    def test_healthy_cache_prints_no_warning(self, cli, capsys):
        assert cli("compare", "dotprod", "ooo") == 0
        capsys.readouterr()
        assert cli("compare", "dotprod", "ooo") == 0  # warm, intact
        captured = capsys.readouterr()
        assert "cache health" not in captured.out
        assert "corrupt" not in captured.err


class TestReport:
    def test_report_renders_paper_comparison(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.setenv("REPRO_BENCH_CACHE", str(tmp_path / "cache"))
        # 600 ops and two workers keep the full multi-figure sweep (every
        # registry entry) fast enough for CI
        assert main(["--ops", "600", "--jobs", "2", "report"]) == 0
        out = capsys.readouterr().out
        assert "paper vs. measured" in out
        assert "Figure 11" in out and "Figure 13" in out
        assert "GEOMEAN" not in out.split("Figure 11")[0]  # header is prose


class TestCompare:
    def test_compare_defaults(self, cli, capsys):
        assert cli("compare", "matmul_tile", "inorder", "ooo") == 0
        out = capsys.readouterr().out
        assert "inorder" in out and "ooo" in out and "pJ/op" in out

    def test_compare_unknown_arch_fails_cleanly(self, cli, capsys):
        assert cli("compare", "matmul_tile", "bogus") == 2

    def test_compare_includes_dnb_extension(self, cli, capsys):
        assert cli("compare", "matmul_tile", "dnb") == 0
        assert "dnb" in capsys.readouterr().out


class TestSuite:
    def test_suite_reports_geomean(self, cli, capsys):
        assert cli("suite", "ces") == 0
        out = capsys.readouterr().out
        assert "GEOMEAN" in out
        assert "speedup/InO" in out


class TestFigure:
    @staticmethod
    def _stub(monkeypatch, key, data):
        from repro.analysis.experiments import REGISTRY

        monkeypatch.setitem(REGISTRY, key, dataclasses.replace(
            REGISTRY[key], collect=lambda runner: data))

    def test_figure_fig13_renders_bars(self, cli, capsys, monkeypatch):
        self._stub(monkeypatch, "fig13", {"ces": 1.5, "ballerino": 1.8})
        assert cli("figure", "fig13") == 0
        out = capsys.readouterr().out
        assert "Figure 13" in out
        assert "#" in out

    def test_figure_fig16_uses_energy(self, cli, capsys, monkeypatch):
        self._stub(monkeypatch, "fig16", {"ooo": 1.0, "ballerino": 1.19})
        assert cli("figure", "fig16") == 0
        out = capsys.readouterr().out
        assert "1/EDP" in out

    def test_figure_rejects_unknown(self, cli):
        with pytest.raises(SystemExit):
            cli("figure", "fig99")


class TestVersion:
    def test_version_prints_package_and_protocol(self, capsys):
        from repro.serve.protocol import PROTOCOL_VERSION

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("repro ")
        assert f"serve protocol {PROTOCOL_VERSION}" in out


class TestImportCost:
    def test_cli_import_leaves_numpy_unloaded(self):
        """The simulator is stdlib-only: starting the CLI never pays for
        importing numpy, even where numpy is installed."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        probe = "import sys, repro.cli; print('numpy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False"


class TestServeCommands:
    @pytest.fixture()
    def daemon(self, tmp_path):
        from repro.serve.daemon import ServeDaemon

        daemon = ServeDaemon(
            str(tmp_path / "queue"),
            runner_kwargs={"target_ops": 600,
                           "cache_dir": str(tmp_path / "serve-cache")})
        daemon.start()
        yield daemon
        daemon.stop(timeout=30)

    def test_submit_wait_prints_result_table(self, cli, capsys, daemon):
        assert cli("submit", "--server", daemon.url,
                   "--workloads", "dotprod", "--arches", "ooo",
                   "--wait") == 0
        out = capsys.readouterr().out
        assert "submitted" in out
        assert "dotprod" in out and "ooo" in out
        assert "IPC" in out

    def test_submit_then_poll_round_trip(self, cli, capsys, daemon):
        import re

        assert cli("submit", "--server", daemon.url,
                   "--workloads", "histogram", "--arches", "ooo") == 0
        job_id = re.search(r"j-[0-9a-f]{12}",
                           capsys.readouterr().out).group(0)
        assert cli("poll", job_id, "--server", daemon.url,
                   "--results", "--timeout", "120") == 0
        out = capsys.readouterr().out
        assert "done" in out
        assert "histogram" in out

    def test_submit_surfaces_structured_refusal(self, cli, capsys,
                                                tmp_path):
        from repro.serve.daemon import ServeDaemon

        daemon = ServeDaemon(
            str(tmp_path / "q2"), workers=0, max_depth=1,
            runner_kwargs={"target_ops": 600,
                           "cache_dir": str(tmp_path / "c2")})
        daemon.start()
        try:
            assert cli("submit", "--server", daemon.url,
                       "--workloads", "dotprod", "--arches", "ooo") == 0
            assert cli("submit", "--server", daemon.url,
                       "--workloads", "histogram", "--arches", "ooo") == 1
            err = capsys.readouterr().err
            assert "queue-full" in err
        finally:
            daemon.stop(timeout=30)


class TestCharacterize:
    def test_characterize_lists_suite_limits(self, cli, capsys):
        assert cli("characterize") == 0
        out = capsys.readouterr().out
        assert "dataflow IPC limit" in out
        assert "pointer_chase" in out


class TestCampaignReconcile:
    """The distributed-campaign CLI pair (see docs/robustness.md)."""

    @pytest.fixture()
    def dirs(self, tmp_path):
        return str(tmp_path / "camp"), str(tmp_path / "shared-cache")

    def _shard_args(self, camp, cache, shard):
        return ("campaign", "--campaign-dir", camp, "--cache-dir", cache,
                "--shard", f"{shard}/2", "--workloads", "dotprod",
                "histogram", "--arches", "inorder", "ooo",
                "--widths", "4", "--ops", "400")

    def test_full_campaign_roundtrip(self, cli, capsys, dirs):
        camp, cache = dirs
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        assert cli(*self._shard_args(camp, cache, 1)) == 0
        assert cli("campaign", "--campaign-dir", camp,
                   "--cache-dir", cache, "--merge") == 0
        out = capsys.readouterr().out
        assert "complete" in out

    def test_dead_shard_merge_names_gaps_then_reconcile_heals(
            self, cli, capsys, dirs):
        camp, cache = dirs
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        assert cli("campaign", "--campaign-dir", camp,
                   "--cache-dir", cache, "--merge") == 1
        out = capsys.readouterr().out
        assert "INCOMPLETE" in out and "repro reconcile" in out
        assert cli("reconcile", "--campaign-dir", camp,
                   "--cache-dir", cache) == 0
        assert "CONVERGED" in capsys.readouterr().out
        assert cli("campaign", "--campaign-dir", camp,
                   "--cache-dir", cache, "--merge") == 0

    def test_reconcile_check_reports_without_repairing(self, cli, capsys,
                                                       dirs):
        camp, cache = dirs
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        assert cli("reconcile", "--campaign-dir", camp,
                   "--cache-dir", cache, "--check") == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out and "missing" in out
        # --check must not have repaired anything
        assert cli("reconcile", "--campaign-dir", camp,
                   "--cache-dir", cache, "--check") == 1

    def test_reconcile_writes_machine_readable_report(self, cli, tmp_path,
                                                      dirs):
        import json

        camp, cache = dirs
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        out_file = tmp_path / "report.json"
        assert cli("reconcile", "--campaign-dir", camp, "--cache-dir",
                   cache, "--out", str(out_file)) == 0
        payload = json.loads(out_file.read_text())
        assert payload["converged"] is True
        assert payload["initial"]["missing"] > 0

    def test_reconcile_without_manifest_fails_cleanly(self, cli, capsys,
                                                      tmp_path):
        assert cli("reconcile", "--campaign-dir",
                   str(tmp_path / "empty")) == 2
        assert "manifest" in capsys.readouterr().err

    def test_bad_shard_syntax_rejected(self, cli, dirs):
        camp, cache = dirs
        with pytest.raises(SystemExit):
            cli("campaign", "--campaign-dir", camp, "--cache-dir", cache,
                "--shard", "zero-of-two", "--workloads", "dotprod",
                "--arches", "ooo")

    def test_campaign_without_action_is_an_error(self, cli, capsys, dirs):
        camp, cache = dirs
        assert cli("campaign", "--campaign-dir", camp,
                   "--cache-dir", cache, "--workloads", "dotprod",
                   "--arches", "ooo") == 2
        assert "--shard" in capsys.readouterr().err
