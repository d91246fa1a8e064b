"""End-to-end: the ``repro serve`` daemon over real HTTP.

Covers the PR's acceptance criteria: results fetched over HTTP are
byte-identical (same ``SimResult`` payloads, same order) to a clean
serial ``run_many`` over the same cells — including after a
chaos-injected worker kill mid-job with the queue replaying from its
JSONL journal on daemon restart — and admission refusals surface as
structured 429 bodies, not silent queueing.
"""

import contextlib
import http.client
import json
import multiprocessing
import os
import signal
import statistics
import time

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import PROTOCOL_VERSION, expand_matrix
from repro.telemetry import read_run_log
from repro.verify.chaos import ENV_VAR, ChaosSpec

OPS = 500

MATRIX = {"workloads": ["dotprod", "histogram"], "arches": ["ooo"],
          "seeds": [0, 1]}


@contextlib.contextmanager
def serving(tmp_path, sub="serve", **kwargs):
    kwargs.setdefault("workers", 1)
    runner_kwargs = kwargs.pop("runner_kwargs", {})
    runner_kwargs.setdefault("target_ops", OPS)
    runner_kwargs.setdefault("cache_dir", str(tmp_path / f"{sub}-cache"))
    runner_kwargs.setdefault("retries", 3)
    daemon = ServeDaemon(str(tmp_path / f"{sub}-queue"),
                         runner_kwargs=runner_kwargs, **kwargs)
    daemon.start()
    try:
        yield daemon, ServeClient(daemon.url)
    finally:
        daemon.stop(timeout=30)


def serial_payloads(tmp_path, matrix=MATRIX):
    """The ground truth: a clean serial ``run_many`` over the expansion."""
    runner = ExperimentRunner(target_ops=OPS,
                              cache_dir=str(tmp_path / "serial-cache"))
    tasks = [cell.task(runner.seed) for cell in expand_matrix(matrix)]
    return [json.dumps(r.to_dict(), sort_keys=True)
            for r in runner.run_many(tasks)]


# ---------------------------------------------------------------------------
# byte-identity


class TestByteIdentity:
    def test_http_results_equal_clean_serial_run(self, tmp_path):
        expected = serial_payloads(tmp_path)
        with serving(tmp_path) as (daemon, client):
            body = client.submit(matrix=MATRIX)
            assert body["created"] is True
            status = client.wait(body["job_id"], timeout=120)
            assert status["status"] == "done"
            assert status["failed_cells"] == 0
            entries = client.stream_results(body["job_id"])
        assert [e["seq"] for e in entries] == list(range(len(expected)))
        got = [json.dumps(e["result"], sort_keys=True) for e in entries]
        assert got == expected

    def test_since_pagination_slices_the_same_stream(self, tmp_path):
        with serving(tmp_path) as (daemon, client):
            body = client.submit(matrix=MATRIX)
            client.wait(body["job_id"], timeout=120)
            whole = client.results(body["job_id"])
            tail = client.results(body["job_id"], since=2)
        assert whole["complete"] and tail["complete"]
        assert whole["results"][2:] == tail["results"]
        assert tail["next"] == len(whole["results"])

    def test_chaos_kill_and_daemon_restart_replay(self, tmp_path,
                                                  monkeypatch):
        """The hard acceptance path: submit, crash-stop the daemon with
        the job still queued (torn journal tail and all), restart under
        a worker-killing chaos spec, and still get byte-identical
        ordered results."""
        expected = serial_payloads(tmp_path)

        # life 1: accept the job but never run it (no workers)
        with serving(tmp_path, workers=0) as (daemon, client):
            body = client.submit(matrix=MATRIX, idempotency_key="replay-1")
            job_id = body["job_id"]
            assert client.status(job_id)["status"] == "queued"
        journal = tmp_path / "serve-queue" / "journal.jsonl"
        with open(journal, "a") as handle:
            handle.write('{"event": "job_enqueue", "job_id": "to')  # torn

        # life 2: every first attempt of every cell is killed mid-run
        monkeypatch.setenv(ENV_VAR, ChaosSpec(kill=1.0, salt=11).encode())
        log = tmp_path / "run.jsonl"
        with serving(tmp_path, sub="serve", workers=1, shard_size=4,
                     runner_kwargs={"run_log": str(log)}) \
                as (daemon, client):
            assert daemon.queue.replayed_jobs == 1
            status = client.wait(job_id, timeout=180)
            assert status["status"] == "done"
            assert status["failed_cells"] == 0
            entries = client.stream_results(job_id)
            # idempotent resubmission finds the finished job, no rerun
            again = client.submit(matrix=MATRIX, idempotency_key="replay-1")
            assert again["job_id"] == job_id and again["created"] is False
        got = [json.dumps(e["result"], sort_keys=True) for e in entries]
        assert got == expected
        assert [e["seq"] for e in entries] == list(range(len(expected)))
        # the kills really happened: served cells run in worker processes
        assert read_run_log(str(log), event="pool_restart")
        assert {r["kind"] for r in read_run_log(str(log), event="retry")} \
            == {"worker-lost"}


# ---------------------------------------------------------------------------
# worker processes


def _children():
    return {proc.pid for proc in multiprocessing.active_children()}


@contextlib.contextmanager
def serve_signal_handler():
    """Install a Python SIGTERM handler, as ``repro serve`` does; forked
    workers inherit it unless the pool resets it."""
    previous = signal.signal(signal.SIGTERM, lambda *_: None)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


class TestWorkerProcesses:
    def test_cells_run_in_worker_processes_one_per_dispatcher(
            self, tmp_path):
        log = tmp_path / "run.jsonl"
        with serving(tmp_path, workers=2,
                     runner_kwargs={"run_log": str(log)}) as (daemon, client):
            jobs = [client.submit(matrix={"workloads": [workload],
                                          "arches": ["ooo", "inorder"],
                                          "seeds": [0, 1]})["job_id"]
                    for workload in ("dotprod", "histogram")]
            for job_id in jobs:
                assert client.wait(job_id, timeout=120)["status"] == "done"
        workers = {r["worker"] for r in read_run_log(str(log),
                                                     event="finish")}
        assert os.getpid() not in workers
        assert len(workers) == 2

    def test_hung_cell_times_out_and_nothing_outlives_stop(
            self, tmp_path, monkeypatch):
        """``task_timeout`` applies to served cells: a hung first attempt
        is killed (SIGTERM works despite the inherited handler) and the
        retry completes the job; stop leaves no worker behind."""
        before = _children()
        log = tmp_path / "run.jsonl"
        monkeypatch.setenv(ENV_VAR, ChaosSpec(
            hang=1.0, hang_seconds=120, salt=3).encode())
        with serve_signal_handler():
            with serving(tmp_path, runner_kwargs={
                    "task_timeout": 1.0, "retries": 1,
                    "run_log": str(log)}) as (daemon, client):
                job = client.submit(
                    cells=[{"workload": "dotprod", "arch": "ooo"}])
                status = client.wait(job["job_id"], timeout=60)
                assert status["status"] == "done"
                assert status["failed_cells"] == 0
                started = time.monotonic()
                daemon.stop(timeout=5)
                assert time.monotonic() - started < 5
        assert not _children() - before
        assert len(read_run_log(str(log), event="timeout")) == 1

    def test_stop_kills_a_worker_still_busy_after_the_drain(
            self, tmp_path, monkeypatch):
        before = _children()
        monkeypatch.setenv(ENV_VAR, ChaosSpec(
            hang=1.0, hang_seconds=120, salt=5).encode())
        with serve_signal_handler():
            with serving(tmp_path) as (daemon, client):
                job = client.submit(
                    cells=[{"workload": "dotprod", "arch": "ooo"}])
                deadline = time.monotonic() + 30
                while not _children() - before:  # the worker has forked
                    assert time.monotonic() < deadline
                    time.sleep(0.02)
                started = time.monotonic()
                daemon.stop(timeout=0.5)
                assert time.monotonic() - started < 0.5 + 3
                # the job goes back to the queue for the next daemon life
                assert daemon.queue.jobs[job["job_id"]].status == "queued"
        assert not _children() - before

    def test_keepalive_replies_do_not_wait_for_delayed_acks(self, tmp_path):
        with serving(tmp_path, workers=0) as (daemon, client):
            conn = http.client.HTTPConnection(daemon.host, daemon.port,
                                              timeout=10)
            took = []
            try:
                for _ in range(20):
                    started = time.perf_counter()
                    conn.request("GET", "/healthz")
                    response = conn.getresponse()
                    assert response.status == 200
                    response.read()
                    took.append(time.perf_counter() - started)
            finally:
                conn.close()
        assert statistics.median(took) < 0.010


# ---------------------------------------------------------------------------
# admission refusals over HTTP


class TestRefusals:
    def test_rate_limited_tenant_gets_structured_429(self, tmp_path):
        with serving(tmp_path, workers=0, rate=0.001, burst=1) \
                as (daemon, client):
            client.submit(cells=[{"workload": "dotprod", "arch": "ooo"}])
            with pytest.raises(ServeError) as excinfo:
                client.submit(cells=[{"workload": "dotprod", "arch": "ooo",
                                      "seed": 1}])
            assert excinfo.value.status == 429
            assert excinfo.value.code == "rate-limited"
            assert excinfo.value.retry_after > 0
            # refused, not silently queued
            assert client.health()["jobs"]["queued"] == 1

    def test_full_queue_gets_structured_429(self, tmp_path):
        with serving(tmp_path, workers=0, max_depth=1) as (daemon, client):
            client.submit(cells=[{"workload": "dotprod", "arch": "ooo"}])
            with pytest.raises(ServeError) as excinfo:
                client.submit(cells=[{"workload": "histogram",
                                      "arch": "ooo"}])
            assert excinfo.value.status == 429
            assert excinfo.value.code == "queue-full"

    def test_protocol_errors_are_400_with_codes(self, tmp_path):
        with serving(tmp_path, workers=0) as (daemon, client):
            cases = [
                ({"version": 99, "cells": [{"workload": "dotprod",
                                            "arch": "ooo"}]},
                 "protocol-version"),
                ({"cells": [{"workload": "dotprod", "arch": "ooo"}],
                  "matrix": MATRIX}, "bad-request"),
                ({"cells": [{"workload": "no_such_kernel", "arch": "ooo"}]},
                 "unknown-workload"),
                ({"cells": [{"workload": "dotprod", "arch": "ooo"}],
                  "priority": "urgent"}, "bad-priority"),
            ]
            for payload, code in cases:
                payload.setdefault("version", PROTOCOL_VERSION)
                with pytest.raises(ServeError) as excinfo:
                    client._request("POST", "/jobs", payload)
                assert excinfo.value.status == 400
                assert excinfo.value.code == code

    def test_unknown_job_and_path_are_404(self, tmp_path):
        with serving(tmp_path, workers=0) as (daemon, client):
            for path in ("/jobs/j-missing", "/jobs/j-missing/results",
                         "/nope"):
                with pytest.raises(ServeError) as excinfo:
                    client._request("GET", path)
                assert excinfo.value.status == 404


# ---------------------------------------------------------------------------
# observability + shutdown


class TestObservability:
    def test_healthz_reports_cache_corruption_tolerated(self, tmp_path):
        cells = [{"workload": "dotprod", "arch": "ooo"},
                 {"workload": "histogram", "arch": "ooo"}]
        with serving(tmp_path) as (daemon, client):
            health = client.health()
            assert health["status"] == "ok"
            assert health["protocol"] == PROTOCOL_VERSION
            assert health["cache_warnings"] == 0
            client.wait(client.submit(cells=cells)["job_id"], timeout=120)

        # corrupt every cached result; a fresh daemon life (fresh
        # runners, cold memory cache) must re-read them from disk
        cache = tmp_path / "serve-cache"
        corrupted = 0
        for path in cache.glob("*.json"):
            path.write_text("{corrupt garbage")
            corrupted += 1
        assert corrupted >= 2
        with serving(tmp_path) as (daemon, client):
            client.wait(client.submit(cells=cells)["job_id"], timeout=120)
            health = client.health()
            assert health["cache_warnings"] >= corrupted
            metrics = client.metrics()
            assert metrics["runner.cache_warnings"]["value"] >= corrupted

    def test_metricsz_exposes_queue_and_job_metrics(self, tmp_path):
        with serving(tmp_path) as (daemon, client):
            client.wait(client.submit(
                cells=[{"workload": "dotprod", "arch": "ooo"}])["job_id"],
                timeout=120)
            metrics = client.metrics()
        assert metrics["serve.queue.enqueued"]["value"] == 1
        assert metrics["serve.jobs.done"]["value"] == 1
        assert metrics["serve.queue.depth"]["value"] == 0
        assert "serve.job.seconds" in metrics

    def test_shutdownz_stops_the_daemon(self, tmp_path):
        with serving(tmp_path, workers=0) as (daemon, client):
            assert client.shutdown()["status"] == "stopping"
            assert daemon.wait(timeout=30)
