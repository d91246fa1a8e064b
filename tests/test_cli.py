"""Tests for the ``python -m repro`` command-line interface."""

import dataclasses
import multiprocessing
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

    @pytest.mark.parametrize("unbuffered", ["", "1"],
                             ids=["buffered", "unbuffered"])
    def test_closed_stdout_pipe_exits_quietly(self, unbuffered):
        """``repro workloads | head -0``: the reader is gone before the
        table is written; the command fails without a traceback."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "repro", "workloads"],
                stdout=write_end, stderr=subprocess.PIPE, env=env)
        finally:
            os.close(write_end)
        assert proc.returncode != 0
        assert proc.stderr == b""

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

    def test_simulate_reports_a_lost_cell(self, cli, capsys, monkeypatch):
        """A run that keeps failing is retried, quarantined and reported,
        as ``compare`` and ``suite`` report theirs."""
        import repro.analysis.runner as runner_mod

        def explode(trace, config, phase_hook=None):
            raise RuntimeError("injected failure")

        monkeypatch.setattr(runner_mod, "simulate", explode)
        assert cli("--retries", "1", "simulate", "histogram", "ooo") == 1
        captured = capsys.readouterr()
        assert "simulation summary" not in captured.out
        assert "1 cell(s) quarantined" in captured.err
        assert "error after 2 attempt(s)" in captured.err

    def test_simulate_times_out_its_lone_cell(self, cli, capsys,
                                              monkeypatch):
        """``--task-timeout`` reaches a one-cell run: a hung cell is
        killed and quarantined as a timeout."""
        from repro.verify.chaos import ENV_VAR, ChaosSpec

        monkeypatch.setenv(ENV_VAR, ChaosSpec(hang=1.0).encode())
        assert cli("--task-timeout", "1", "--retries", "0",
                   "simulate", "histogram", "ooo") == 1
        err = capsys.readouterr().err
        assert "1 cell(s) quarantined" in err
        assert "timeout after 1 attempt(s)" in err

    # A host-independent speed guard: the pipeline is built before the
    # profiler starts, so the count repeats exactly.  Each ceiling is
    # the current figure plus 3% (95.8, 105.0, 101.9, 94.6 and 98.0).
    @pytest.mark.parametrize("workload, arch, ceiling", [
        ("matmul_tile", "ooo", 98.7),
        ("dag_wide", "ballerino", 108.2),
        ("dag_wide", "casino", 105.0),
        ("dag_wide", "ces", 97.4),
        ("dag_wide", "fxa", 100.9),
    ], ids=["matmul_tile-ooo", "dag_wide-ballerino", "dag_wide-casino",
            "dag_wide-ces", "dag_wide-fxa"])
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
    """``simulate --trace-out``: the pipeline trace and its breakdowns."""

    def test_trace_prints_stall_attribution(self, cli, capsys, tmp_path):
        assert cli("simulate", "dotprod", "ballerino",
                   "--trace-out", str(tmp_path / "t.json")) == 0
        out = capsys.readouterr().out
        assert "stall attribution" in out
        assert "TOTAL" in out and "100.0" in out
        assert "events traced" in out

    def test_trace_writes_chrome_json(self, cli, capsys, tmp_path):
        from repro.telemetry import read_chrome_trace

        path = tmp_path / "trace.json"
        assert cli("simulate", "dotprod", "ooo",
                   "--trace-out", str(path)) == 0
        document = read_chrome_trace(str(path))
        assert document["traceEvents"]
        assert str(path) in capsys.readouterr().out

    def test_trace_konata_inferred_from_extension(self, cli, tmp_path):
        path = tmp_path / "trace.kanata"
        assert cli("simulate", "dotprod", "inorder",
                   "--trace-out", str(path)) == 0
        assert path.read_text().startswith("Kanata\t0004")

    def test_trace_format_flag_overrides_extension(self, cli, tmp_path):
        path = tmp_path / "trace.json"
        assert cli("simulate", "dotprod", "ooo", "--trace-out", str(path),
                   "--trace-format", "konata") == 0
        assert path.read_text().startswith("Kanata\t0004")

    def test_trace_rejects_unknown_arch(self, cli, tmp_path):
        with pytest.raises(SystemExit):
            cli("simulate", "dotprod", "nosuch",
                "--trace-out", str(tmp_path / "t.json"))

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

    @pytest.mark.parametrize("command", ["trace", "metrics"])
    def test_single_run_has_one_command(self, cli, command):
        """``simulate`` is the only single-run command."""
        with pytest.raises(SystemExit) as excinfo:
            cli(command, "dotprod", "ooo")
        assert excinfo.value.code == 2


class TestMetrics:
    """``simulate --metrics`` and the flags that imply it."""

    def test_metrics_command_prints_tables(self, cli, capsys):
        assert cli("simulate", "histogram", "ballerino",
                   "--sample-interval", "300") == 0
        out = capsys.readouterr().out
        assert "metrics registered" in out
        assert "interval time-series" in out
        assert "top counters" in out
        assert "pipeline.commit_ops" in out
        assert "stall-class fractions" in out
        assert "stall attribution" in out and "TOTAL" in out

    def test_metrics_csv_export(self, cli, capsys, tmp_path):
        path = tmp_path / "samples.csv"
        assert cli("simulate", "dotprod", "ooo",
                   "--sample-interval", "300", "--csv", str(path)) == 0
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        assert "cycle" in header and "occupancy.rob" in header
        assert len(lines) >= 3  # >= 2 samples at 300-cycle interval

    def test_metrics_trace_out_overlays_counter_events(self, cli, tmp_path):
        from repro.telemetry import read_chrome_trace

        path = tmp_path / "trace.json"
        assert cli("simulate", "dotprod", "ooo",
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
        assert cli("simulate", "histogram", "ces",
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

    def test_metrics_rejects_bad_interval(self, cli, capsys):
        for interval in ("0", "-5"):
            with pytest.raises(SystemExit) as excinfo:
                cli("simulate", "histogram", "ooo",
                    "--sample-interval", interval)
            assert excinfo.value.code == 2
            assert "--sample-interval: must be positive" in \
                capsys.readouterr().err

    def test_prometheus_writes_only_the_exposition(self, cli, capsys,
                                                    tmp_path):
        from repro.telemetry.prometheus import lint_prometheus

        path = tmp_path / "samples.csv"
        assert cli("simulate", "dotprod", "ooo", "--prometheus",
                   "--csv", str(path)) == 0
        captured = capsys.readouterr()
        assert lint_prometheus(captured.out) == []
        assert 'config="ooo-8w"' in captured.out
        assert "simulation summary" not in captured.out
        assert f"wrote samples CSV: {path}" in captured.err
        assert path.exists()

    def test_metrics_alone_attaches_no_tracer(self, cli, monkeypatch):
        import repro.telemetry as telemetry

        def refuse(*args, **kwargs):
            raise AssertionError("a Tracer nobody reads")

        monkeypatch.setattr(telemetry, "Tracer", refuse)
        assert cli("simulate", "dotprod", "ooo", "--metrics") == 0


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

    def test_compare_leaves_no_worker_behind(self, capsys):
        before = set(multiprocessing.active_children())
        assert main(["--ops", "400", "--jobs", "2", "--no-cache", "compare",
                     "dotprod", "ooo", "ces", "inorder"]) == 0
        assert set(multiprocessing.active_children()) <= before


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

    def test_shards_run_by_other_code_check_as_missing(self, cli, capsys,
                                                       dirs, monkeypatch):
        """Results keyed under another model digest are not this code's:
        the detector expects its own keys, finds neither an entry nor a
        log account for them, and calls every cell missing."""
        import repro.analysis.runner as runner_mod

        camp, cache = dirs
        real_digest = runner_mod.model_digest()
        monkeypatch.setattr(runner_mod, "model_digest", lambda: "older")
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        assert cli(*self._shard_args(camp, cache, 1)) == 0
        assert cli("reconcile", "--campaign-dir", camp,
                   "--cache-dir", cache, "--check") == 0
        monkeypatch.setattr(runner_mod, "model_digest", lambda: real_digest)
        capsys.readouterr()
        assert cli("reconcile", "--campaign-dir", camp,
                   "--cache-dir", cache, "--check") == 1
        out = capsys.readouterr().out
        assert "reconcile diff DAMAGED: 4 cells [missing=4]" in out

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

    @pytest.mark.parametrize("command", [
        ("reconcile", "--check"), ("campaign", "--merge")],
        ids=["reconcile-check", "campaign-merge"])
    def test_read_only_command_needs_an_existing_cache(self, cli, capsys,
                                                       dirs, tmp_path,
                                                       command):
        camp, cache = dirs
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        capsys.readouterr()
        typo = tmp_path / "shared-cahce"
        assert cli(command[0], "--campaign-dir", camp,
                   "--cache-dir", str(typo), command[1]) == 2
        assert f"cache directory {typo} does not exist" in \
            capsys.readouterr().err
        assert not typo.exists()

    def test_reconcile_repairs_under_the_task_timeout(self, cli, dirs,
                                                      monkeypatch):
        """``--task-timeout`` and ``--retries`` reach the round's runner:
        a repair that hangs is timed out and quarantined, not waited on."""
        import time

        from repro.telemetry.runlog import read_run_log
        from repro.verify.chaos import ENV_VAR, ChaosSpec

        camp, cache = dirs
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        monkeypatch.setenv(ENV_VAR,
                           ChaosSpec(hang=1.0, hang_seconds=15).encode())
        started = time.monotonic()
        assert cli("--task-timeout", "1", "--retries", "0", "reconcile",
                   "--campaign-dir", camp, "--cache-dir", cache,
                   "--max-rounds", "1") == 1
        assert time.monotonic() - started < 10
        log = os.path.join(camp, "reconcile.jsonl")
        assert read_run_log(log, event="timeout")
        quarantines = read_run_log(log, event="quarantine")
        assert quarantines
        assert {q["kind"] for q in quarantines} == {"timeout"}

    def test_reconcile_has_no_server_option(self, cli, dirs):
        camp, cache = dirs
        with pytest.raises(SystemExit) as exc:
            cli("reconcile", "--campaign-dir", camp, "--cache-dir", cache,
                "--server", "http://127.0.0.1:9")
        assert exc.value.code == 2

    @pytest.mark.parametrize("command", [
        ("campaign", "--shard", "0/2", "--workloads", "dotprod",
         "--arches", "ooo"),
        ("campaign", "--merge"),
        ("reconcile",)],
        ids=["campaign-shard", "campaign-merge", "reconcile"])
    def test_campaign_commands_refuse_no_cache(self, cli, capsys, dirs,
                                               command):
        """Shards, the merge and reconcile meet only in the cache: with
        it disabled they would audit and repair nothing."""
        camp, cache = dirs
        assert cli(*self._shard_args(camp, cache, 0)) == 0
        capsys.readouterr()
        assert cli("--no-cache", command[0], "--campaign-dir", camp,
                   *command[1:]) == 2
        assert "result cache is disabled" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(camp, "reconcile.jsonl"))

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
