"""Fault-injection: the campaign runner must survive killed, hung,
erroring and deadlocking workers, quarantine only persistent failures,
and still produce results byte-identical to a clean serial run."""

import json

import pytest

from repro.analysis.runner import ExperimentRunner, FailedResult
from repro.core.config import config_for
from repro.verify.chaos import ENV_VAR, ChaosSpec, run_campaign

OPS = 500


def _runner(tmp_path, sub, **kw):
    kw.setdefault("retries", 3)
    return ExperimentRunner(
        target_ops=OPS, cache_dir=str(tmp_path / sub), **kw
    )


def _dumps(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def _tasks(*arches):
    return [(w, config_for(a))
            for a in arches
            for w in ("stream_triad", "histogram", "pointer_chase")]


def _spec_hitting(runner, tasks, fault, index, **spec_kw):
    """A spec whose ``fault`` hits exactly ``tasks[index]`` on attempt 0."""
    keys = [runner.key_for(w, c) for w, c in tasks]
    for salt in range(5_000):
        spec = ChaosSpec(salt=salt, **spec_kw)
        got = [spec.fault_for(key, 0) for key in keys]
        if got[index] == fault and all(
            g is None for i, g in enumerate(got) if i != index
        ):
            return spec
    raise AssertionError(f"no salt puts a lone {fault!r} on cell {index}")


# ---------------------------------------------------------------------------
# spec semantics


def test_spec_roundtrip_and_determinism():
    spec = ChaosSpec(kill=0.2, poison=0.1, salt=42, hang_seconds=9.0)
    assert ChaosSpec.decode(spec.encode()) == spec
    faults = [spec.fault_for(f"key{i}", 0) for i in range(64)]
    assert faults == [spec.fault_for(f"key{i}", 0) for i in range(64)]
    assert any(faults)  # the bands actually select cells


def test_transient_faults_are_attempt_gated():
    spec = ChaosSpec(kill=0.2, hang=0.2, error=0.2, wedge=0.15,
                     poison=0.15, salt=1)
    for i in range(128):
        first = spec.fault_for(f"key{i}", 0)
        retry = spec.fault_for(f"key{i}", 1)
        if first in ("poison", "wedge"):
            assert retry == first  # deterministic: fires every attempt
        else:
            assert retry is None  # transient: retry runs clean


# ---------------------------------------------------------------------------
# run_many under injected faults (env inherited by forked pool workers)


def _run_with_fault(tmp_path, monkeypatch, fault, **runner_kw):
    tasks = _tasks("ooo")
    clean = _runner(tmp_path, "clean").run_many(tasks)
    chaotic = _runner(tmp_path, "chaotic", jobs=2, **runner_kw)
    spec = _spec_hitting(chaotic, tasks, fault, index=1, **{fault: 0.4})
    monkeypatch.setenv(ENV_VAR, spec.encode())
    results = chaotic.run_many(tasks)
    monkeypatch.delenv(ENV_VAR)
    return clean, chaotic, results


def test_transient_error_is_retried_to_identical_results(
        tmp_path, monkeypatch):
    clean, runner, results = _run_with_fault(tmp_path, monkeypatch, "error")
    assert [_dumps(r) for r in results] == [_dumps(r) for r in clean]
    assert runner.retries_performed >= 1
    assert not runner.failures


def test_one_worker_runner_retries_every_errored_cell(tmp_path, monkeypatch):
    """Faults reach a ``jobs=1`` runner too: every cell of its batch
    errs once, is retried once, and matches a clean run."""
    tasks = _tasks("ooo")
    clean = _runner(tmp_path, "clean").run_many(tasks)
    runner = _runner(tmp_path, "chaotic")
    monkeypatch.setenv(ENV_VAR, ChaosSpec(error=1.0, attempts=1).encode())
    try:
        results = runner.run_many(tasks)
    finally:
        runner.close()
    assert runner.retries_performed == len(tasks)
    assert [_dumps(r) for r in results] == [_dumps(r) for r in clean]


def test_killed_worker_pool_is_respawned(tmp_path, monkeypatch):
    clean, runner, results = _run_with_fault(tmp_path, monkeypatch, "kill")
    assert [_dumps(r) for r in results] == [_dumps(r) for r in clean]
    assert runner.pool_restarts >= 1
    assert not runner.failures


def test_hung_worker_is_timed_out_and_requeued(tmp_path, monkeypatch):
    clean, runner, results = _run_with_fault(
        tmp_path, monkeypatch, "hang", task_timeout=4.0)
    assert [_dumps(r) for r in results] == [_dumps(r) for r in clean]
    assert runner.timeouts >= 1
    assert not runner.failures


def test_poisoned_cell_is_quarantined(tmp_path, monkeypatch):
    tasks = _tasks("ooo")
    runner = _runner(tmp_path, "poison", retries=2, jobs=2)
    spec = _spec_hitting(runner, tasks, "poison", index=1, poison=0.4)
    monkeypatch.setenv(ENV_VAR, spec.encode())
    results = runner.run_many(tasks)

    failed = results[1]
    assert isinstance(failed, FailedResult)
    assert not failed.ok
    assert failed.kind == "error"
    assert failed.attempts == 3  # 1 + retries, then gave up
    assert failed.workload == tasks[1][0]
    assert all(r.ok for i, r in enumerate(results) if i != 1)
    assert "quarantined" in runner.failure_summary()
    assert failed.describe() in runner.failure_summary()

    # the quarantine record is served without re-running the cell
    before = runner.simulations_run
    again = runner.run_many(tasks)
    assert again[1] is failed
    assert runner.simulations_run == before


def test_forced_deadlock_quarantines_with_snapshot(tmp_path, monkeypatch):
    tasks = _tasks("ballerino")
    runner = _runner(tmp_path, "wedge", jobs=2)
    spec = _spec_hitting(runner, tasks, "wedge", index=0, wedge=0.4)
    monkeypatch.setenv(ENV_VAR, spec.encode())
    results = runner.run_many(tasks)

    failed = results[0]
    assert not failed.ok
    assert failed.kind == "deadlock"
    assert failed.attempts == 1  # deterministic: never retried
    assert failed.snapshot["rob"]["head"]["seq"] == 0
    assert "ROB head seq=0" in failed.error


def test_failed_result_roundtrips_to_dict(tmp_path, monkeypatch):
    tasks = _tasks("ooo")
    runner = _runner(tmp_path, "dict", retries=0, jobs=2)
    spec = _spec_hitting(runner, tasks, "poison", index=2, poison=0.4)
    monkeypatch.setenv(ENV_VAR, spec.encode())
    failed = runner.run_many(tasks)[2]
    record = json.loads(json.dumps(failed.to_dict()))
    assert record["ok"] is False
    assert record["kind"] == "error"
    assert record["workload"] == tasks[2][0]


# ---------------------------------------------------------------------------
# the full drill


def test_campaign_smoke(tmp_path):
    report = run_campaign(
        arches=("ooo", "ballerino"),
        workloads=("stream_triad", "histogram"),
        target_ops=OPS,
        seed=3,
        jobs=2,
        spec=ChaosSpec(kill=0.2, error=0.2, wedge=0.2, poison=0.15, salt=3),
        timeout=20.0,
        retries=4,
        work_dir=str(tmp_path / "campaign"),
    )
    assert report.ok, report.full_report()
    assert report.cells == 4
    assert report.corrupted_results > 0
    assert not report.mismatches


def test_distributed_drill_closes_every_hole(tmp_path):
    """Shard death, poison, shredded logs and cache damage must all be
    detected by reconciliation and repaired to byte-identity."""
    from repro.verify.chaos import run_distributed

    report = run_distributed(
        arches=("inorder", "ooo"),
        workloads=("stream_triad", "histogram"),
        widths=(4,),
        target_ops=OPS,
        seed=3,
        n_shards=2,
        jobs=2,
        poison=0.3,
        work_dir=str(tmp_path / "distrib"),
    )
    assert report.ok, report.full_report()
    assert report.converged
    assert report.merged_complete
    assert not report.undetected
    assert not report.mismatches
    # the drill actually injected distribution-level damage
    assert report.initial_states["missing"] > 0  # the killed shard
    assert report.shredded_lines > 0


def test_distributed_drill_needs_two_shards():
    from repro.verify.chaos import run_distributed

    with pytest.raises(ValueError):
        run_distributed(n_shards=1)


def test_shred_log_damages_middle_lines(tmp_path):
    from repro.verify.chaos import shred_log

    path = tmp_path / "log.jsonl"
    path.write_text("\n".join(json.dumps({"n": n}) for n in range(9)) + "\n")
    shredded = shred_log(path, every=3)
    assert shredded == 3
    from repro.telemetry.runlog import read_run_log_tolerant

    records, skipped = read_run_log_tolerant(str(path))
    assert skipped == 3
    assert [r["n"] for r in records] == [1, 2, 4, 5, 7, 8]
