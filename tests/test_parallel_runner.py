"""Parallel execution must be byte-identical to serial, and the result
cache must survive corruption and concurrent writers."""

import json
import os

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.analysis.sweep import sweep
from repro.core.config import config_for
from repro.workloads import build_trace
from repro.workloads.suite import get_trace

WORKLOADS = ("stream_triad", "pointer_chase", "histogram")
ARCHES = ("ooo", "ballerino", "ces")
OPS = 1500


def _runner(tmp_path, sub, **kw):
    return ExperimentRunner(
        target_ops=OPS, cache_dir=str(tmp_path / sub), **kw
    )


def _dumps(result):
    return json.dumps(result.to_dict(), sort_keys=True)


def test_run_many_parallel_matches_serial(tmp_path):
    tasks = [(w, config_for(a)) for w in WORKLOADS for a in ARCHES]
    serial = _runner(tmp_path, "serial").run_many(tasks, jobs=1)
    parallel = _runner(tmp_path, "parallel").run_many(tasks, jobs=4)
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]


def test_run_many_dedupes_and_orders(tmp_path):
    runner = _runner(tmp_path, "dedupe")
    config = config_for("ooo")
    results = runner.run_many(
        [("histogram", config), ("stream_triad", config),
         ("histogram", config)],
        jobs=1,
    )
    assert runner.simulations_run == 2  # duplicate simulated once
    assert _dumps(results[0]) == _dumps(results[2])
    assert _dumps(results[0]) != _dumps(results[1])


def test_run_many_serves_from_cache(tmp_path):
    tasks = [(w, config_for("ballerino")) for w in WORKLOADS]
    first = _runner(tmp_path, "shared")
    first.run_many(tasks, jobs=2)
    second = _runner(tmp_path, "shared")
    second.run_many(tasks, jobs=2)
    assert second.simulations_run == 0
    assert second.cache_hits == len(tasks)


def test_runner_jobs_parallel_parity(tmp_path):
    """A runner built with ``jobs`` fans its batches out by default, and
    its suite results match a serial runner's byte for byte."""
    from repro.telemetry import read_run_log

    tasks = [(w, config_for(arch)) for arch in ("inorder", "ballerino")
             for w in WORKLOADS]
    serial = _runner(tmp_path, "s").run_many(tasks)
    runner = _runner(tmp_path, "p", jobs=3,
                     run_log=str(tmp_path / "run.jsonl"))
    try:
        parallel = runner.run_many(tasks)
    finally:
        runner.close()
    start = read_run_log(str(tmp_path / "run.jsonl"),
                         event="campaign_start")[0]
    assert start["mode"] == "parallel" and start["jobs"] == 3
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]


def test_run_seeds_parallel(tmp_path):
    config = config_for("ooo")
    tasks = [("histogram", config, seed) for seed in (1, 2, 3)]
    serial = _runner(tmp_path, "s").run_many(tasks)
    parallel = _runner(tmp_path, "p").run_many(tasks, jobs=3)
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]
    assert len({_dumps(r) for r in serial}) == 3  # seeds actually differ


def test_sweep_jobs_parity(tmp_path):
    axes = {"arch": ["ooo", "ballerino"]}
    serial = sweep(axes, workloads=("histogram",),
                   runner=_runner(tmp_path, "s"))
    parallel = sweep(axes, workloads=("histogram",),
                     runner=_runner(tmp_path, "p"), jobs=2)
    assert [(p.params, p.workload, _dumps(p.result)) for p in serial.points] \
        == [(p.params, p.workload, _dumps(p.result)) for p in parallel.points]


def test_corrupt_cache_entry_is_rerun(tmp_path):
    runner = _runner(tmp_path, "corrupt")
    config = config_for("ooo")
    good = runner.run("histogram", config)
    entry = next(runner.cache_dir.glob("*.json"))
    entry.write_text('{"truncated')
    fresh = _runner(tmp_path, "corrupt")
    again = fresh.run("histogram", config)
    assert fresh.simulations_run == 1  # corrupt entry discarded, re-run
    assert _dumps(again) == _dumps(good)
    # the re-run repaired the disk entry
    assert json.loads(entry.read_text())


def test_zero_byte_cache_entry_is_rerun(tmp_path):
    """A crashed writer can leave an empty file: warn, discard, re-run."""
    runner = _runner(tmp_path, "zero")
    config = config_for("ooo")
    good = runner.run("histogram", config)
    entry = next(runner.cache_dir.glob("*.json"))
    entry.write_bytes(b"")
    fresh = _runner(tmp_path, "zero")
    again = fresh.run("histogram", config)
    assert fresh.cache_warnings == 1
    assert fresh.simulations_run == 1
    assert _dumps(again) == _dumps(good)
    assert json.loads(entry.read_text())  # repaired on the re-run


def test_binary_garbage_cache_entry_is_rerun(tmp_path):
    runner = _runner(tmp_path, "garbage")
    config = config_for("ooo")
    good = runner.run("histogram", config)
    entry = next(runner.cache_dir.glob("*.json"))
    entry.write_bytes(b"\x00\xff\xfe not json at all")
    fresh = _runner(tmp_path, "garbage")
    again = fresh.run("histogram", config)
    assert fresh.cache_warnings == 1
    assert _dumps(again) == _dumps(good)


def test_unreadable_cache_entry_warns_and_reruns(tmp_path, monkeypatch):
    """Permission/IO errors count as a miss but leave the file alone."""
    from pathlib import Path

    runner = _runner(tmp_path, "perm")
    config = config_for("ooo")
    good = runner.run("histogram", config)
    entry = next(runner.cache_dir.glob("*.json"))
    real_read = Path.read_text

    def deny(self, *args, **kwargs):
        if self == entry:
            raise PermissionError(13, "Permission denied")
        return real_read(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", deny)
    fresh = _runner(tmp_path, "perm")
    again = fresh.run("histogram", config)
    assert fresh.cache_warnings == 1
    assert fresh.simulations_run == 1
    assert _dumps(again) == _dumps(good)
    monkeypatch.setattr(Path, "read_text", real_read)
    assert entry.exists()


def test_keyboard_interrupt_keeps_partial_results(tmp_path, monkeypatch):
    """^C mid-campaign: every finished cell stays merged in the cache."""
    import repro.analysis.runner as runner_mod

    tasks = [(w, config_for("ooo")) for w in WORKLOADS]
    real = runner_mod.simulate
    calls = {"n": 0}

    def flaky(trace, config, phase_hook=None):
        calls["n"] += 1
        if calls["n"] == 2:
            raise KeyboardInterrupt
        return real(trace, config, phase_hook=phase_hook)

    monkeypatch.setattr(runner_mod, "simulate", flaky)
    with pytest.raises(KeyboardInterrupt):
        _runner(tmp_path, "interrupt").run_many(tasks, jobs=1)
    monkeypatch.setattr(runner_mod, "simulate", real)
    resumed = _runner(tmp_path, "interrupt")
    resumed.run_many(tasks, jobs=1)
    assert resumed.cache_hits == 1  # cell finished before ^C was kept
    assert resumed.simulations_run == len(tasks) - 1


def test_entries_from_other_code_invalidate_cleanly(tmp_path, monkeypatch):
    """Entries written by other code are simply never looked up again
    (the model digest is part of the key): the runner re-simulates
    instead of deserialising a stale shape, and both generations
    coexist in the same cache directory."""
    import repro.analysis.runner as runner_mod

    config = config_for("ooo")
    real_digest = runner_mod.model_digest()

    # an "old writer": same cache dir, keys computed under other code
    monkeypatch.setattr(runner_mod, "model_digest", lambda: "older code")
    old = _runner(tmp_path, "mixed")
    old_result = old.run("histogram", config)
    assert old.simulations_run == 1
    # strip fields so the entry really has an older shape
    entry = next(old.cache_dir.glob("*.json"))
    data = json.loads(entry.read_text())
    data.pop("sampled")
    data.pop("sampling")
    entry.write_text(json.dumps(data))

    monkeypatch.setattr(runner_mod, "model_digest", lambda: real_digest)
    fresh = _runner(tmp_path, "mixed")
    new_result = fresh.run("histogram", config)
    assert fresh.cache_hits == 0 and fresh.cache_warnings == 0
    assert fresh.simulations_run == 1
    assert len(list(fresh.cache_dir.glob("*.json"))) == 2
    assert _dumps(new_result) == _dumps(old_result)
    assert entry.exists()  # never read, so never judged


def test_pool_persists_across_batches_until_close(tmp_path):
    """One pool serves every batch of a runner (same worker processes,
    no restart); ``close()`` ends it and leaves no child behind."""
    import multiprocessing

    from repro.telemetry import read_run_log

    before = {proc.pid for proc in multiprocessing.active_children()}
    runner = _runner(tmp_path, "persist", jobs=2,
                     run_log=str(tmp_path / "run.jsonl"))
    runner.run_many([(w, config_for("ooo")) for w in WORKLOADS])
    first = {proc.pid for proc in multiprocessing.active_children()} - before
    runner.run_many([(w, config_for("ces")) for w in WORKLOADS])
    second = {proc.pid for proc in multiprocessing.active_children()} - before
    workers = {record["worker"] for record in
               read_run_log(str(tmp_path / "run.jsonl"), event="finish")}
    assert len(first) == 2 and second == first
    assert workers <= first
    assert runner.pool_restarts == 0 and runner.simulations_run == 6
    runner.close()
    assert not {proc.pid for proc in multiprocessing.active_children()} \
        - before
    # closed: cache hits still serve, but no worker starts again
    assert runner.run_many([(w, config_for("ooo")) for w in WORKLOADS])
    with pytest.raises(RuntimeError):
        runner.run_many([(w, config_for("inorder")) for w in WORKLOADS])
    assert runner.run_log is None  # closed with the pool


def test_close_leaves_no_thread_or_worker_behind(tmp_path):
    """``close()`` after a parallel batch reaps every worker and the
    executor's manager thread: a worker the manager joined first must
    not linger as a live child."""
    import multiprocessing
    import threading

    threads = set(threading.enumerate())
    children = set(multiprocessing.active_children())
    runner = _runner(tmp_path, "close", jobs=2)
    runner.run_many([(w, config_for("ooo")) for w in WORKLOADS])
    runner.close()
    assert set(threading.enumerate()) <= threads
    assert set(multiprocessing.active_children()) <= children


def test_no_leftover_tmp_files(tmp_path):
    runner = _runner(tmp_path, "atomic")
    runner.run_many(
        [(w, config_for("ooo")) for w in WORKLOADS], jobs=2
    )
    assert not list(runner.cache_dir.glob("*.tmp"))


# ---------------------------------------------------------------------------
# traces are built in the process that simulates them


def test_get_trace_neither_reads_nor_writes_trace_files(tmp_path,
                                                        monkeypatch):
    """A garbage file where the retired on-disk trace cache kept this
    trace stays untouched, in this process and in pool workers alike."""
    cache = tmp_path / "traces"
    cache.mkdir()
    planted = cache / f"histogram-{OPS}-7-v1.trace"
    planted.write_bytes(b"not a trace")
    monkeypatch.setenv("REPRO_TRACE_CACHE", str(cache))
    get_trace.cache_clear()
    assert get_trace("histogram", OPS, 7) == build_trace(
        "histogram", target_ops=OPS, seed=7)
    tasks = [(w, config_for(a)) for w in ("histogram", "stream_triad")
             for a in ("ooo", "ballerino")]
    serial = _runner(tmp_path, "serial").run_many(tasks, jobs=1)
    get_trace.cache_clear()  # the pool's workers must get_trace too
    runner = _runner(tmp_path, "parallel")
    try:
        parallel = runner.run_many(tasks, jobs=2)
    finally:
        runner.close()
    assert [_dumps(r) for r in serial] == [_dumps(r) for r in parallel]
    assert list(cache.iterdir()) == [planted]
    assert planted.read_bytes() == b"not a trace"
