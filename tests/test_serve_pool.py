"""Worker pool: priority dispatch, resequencing, gap repair."""

import collections
import sys
import threading
import time

from repro.serve.pool import WorkerPool
from repro.serve.protocol import parse_submit
from repro.serve.queue import DurableJobQueue, new_job_id
from repro.telemetry import read_run_log


def submit(queue, priority="batch", cells=2, tenant="default"):
    spec = parse_submit(
        {"priority": priority, "tenant": tenant,
         "cells": [{"workload": "dotprod", "arch": "ooo", "seed": seed}
                   for seed in range(cells)]},
        job_id=new_job_id())
    return queue.submit(spec)[0]


class StubResult:
    def __init__(self, task, ok=True):
        self.task = task
        self.ok = ok

    def to_dict(self):
        workload, config, seed = self.task
        return {"workload": workload, "arch": config.name, "seed": seed,
                "ok": self.ok}


class StubRunner:
    """Runner double: records calls, optionally gates or fails them."""

    seed = 7

    def __init__(self, gate=None, entered=None, fail_times=0, ok=True):
        self.gate = gate          # block run_many until set
        self.entered = entered    # signalled when run_many is entered
        self.fail_times = fail_times
        self.ok = ok
        self.calls = []
        self.cache_warnings = 0
        self.quarantined = {}

    def run_many(self, tasks):
        self.calls.append(list(tasks))
        if self.entered is not None:
            self.entered.set()
        if self.gate is not None:
            self.gate.wait(timeout=10)
        if self.fail_times > 0:
            self.fail_times -= 1
            raise MemoryError("simulated harness death")
        return [StubResult(task, ok=self.ok) for task in tasks]

    def close(self):
        pass


def manual_pool(queue, runner, **kwargs):
    """A pool with no threads; tests drive dispatch/execution directly."""
    kwargs.setdefault("workers", 0)
    pool = WorkerPool(queue, lambda: runner, **kwargs)
    pool._runners.append(runner)
    return pool


def drain(pool, runner, limit=32):
    order = []
    for _ in range(limit):
        shard = pool._next_shard()
        if shard is None:
            return order
        order.append(shard.run.state.spec.job_id)
        try:
            pool._execute(runner, shard)
        except Exception as exc:
            pool._shard_lost(shard, exc)
    raise AssertionError("pool did not drain")


class TestPriorityDispatch:
    def test_interactive_overtakes_queued_batch_backlog(self, tmp_path):
        """The acceptance scenario, driven deterministically."""
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = manual_pool(queue, runner, shard_size=2)
        batch_a = submit(queue, "batch")
        batch_b = submit(queue, "batch")
        interactive = submit(queue, "interactive")
        order = drain(pool, runner)
        # the interactive job dispatches before EVERY queued batch job
        assert order[0] == interactive.spec.job_id
        assert order[1:] == [batch_a.spec.job_id, batch_b.spec.job_id]

    def test_interactive_shards_beat_new_batch_jobs(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = manual_pool(queue, runner, shard_size=1)
        interactive = submit(queue, "interactive", cells=2)  # 2 shards
        batch = submit(queue, "batch", cells=1)
        order = drain(pool, runner)
        assert order == [interactive.spec.job_id] * 2 + [batch.spec.job_id]

    def test_saturated_live_pool_runs_interactive_next(self, tmp_path):
        """The acceptance scenario against a real 1-worker pool."""
        queue = DurableJobQueue(str(tmp_path))
        gate, entered = threading.Event(), threading.Event()
        runner = StubRunner(gate=gate, entered=entered)
        pool = WorkerPool(queue, lambda: runner, workers=1, shard_size=4)
        pool.start()
        try:
            first = submit(queue, "batch")
            assert entered.wait(timeout=10)  # worker is now wedged on it
            batch_b = submit(queue, "batch")
            batch_c = submit(queue, "batch")
            interactive = submit(queue, "interactive")
            gate.set()  # un-wedge; the worker picks its next shard
            deadline = threading.Event()
            for state in (first, batch_b, batch_c, interactive):
                while state.status != "done":
                    deadline.wait(0.01)
            dispatched = [job_id for job_id, _, _ in pool.dispatched]
            assert dispatched[0] == first.spec.job_id
            assert dispatched[1] == interactive.spec.job_id
            assert set(dispatched[2:]) == {batch_b.spec.job_id,
                                           batch_c.spec.job_id}
        finally:
            gate.set()
            pool.stop(timeout=10)


    def test_idle_pool_dispatches_each_submit_at_once(self, tmp_path):
        """An idle dispatcher waits on the queue's condition, so a
        submit wakes it instead of a poll timer."""
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = WorkerPool(queue, lambda: runner, workers=1)
        pool.start()
        try:
            for _ in range(5):
                time.sleep(0.05)  # the dispatcher is idle again
                state = submit(queue, "batch", cells=1)
                deadline = time.monotonic() + 10
                while state.status != "done":
                    assert time.monotonic() < deadline
                    time.sleep(0.005)
                assert state.started_t - state.submitted_t < 0.05
        finally:
            pool.stop(timeout=10)
            queue.close()
        assert len(runner.calls) == 5


    def test_concurrent_submits_never_strand_work(self, tmp_path):
        """Stress the wake-up protocol: more dispatch threads than cores,
        a tiny switch interval and submits from several threads.  Every
        cell dispatches exactly once and every job finishes; a lost
        wake-up would leave a job queued behind idle dispatchers."""
        queue = DurableJobQueue(str(tmp_path), max_depth=10_000,
                                rate=1e6, burst=1e6)
        pool = WorkerPool(queue, StubRunner, workers=4, shard_size=2)
        states, lock = [], threading.Lock()

        def client(tenant):
            for index in range(20):
                state = submit(queue, "interactive" if index % 3 == 0
                               else "batch", cells=3, tenant=tenant)
                with lock:
                    states.append(state)
                if index % 5 == 0:
                    time.sleep(0.002)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        pool.start()
        try:
            clients = [threading.Thread(target=client, args=(f"t{n}",))
                       for n in range(3)]
            for thread in clients:
                thread.start()
            for thread in clients:
                thread.join(timeout=30)
                assert not thread.is_alive()
            deadline = time.monotonic() + 30
            while any(state.status != "done" for state in states):
                assert time.monotonic() < deadline, "a job was stranded"
                time.sleep(0.01)
        finally:
            sys.setswitchinterval(interval)
            pool.stop(timeout=10)
            queue.close()
        dispatched = collections.Counter(
            (job_id, seq) for job_id, _, seqs in pool.dispatched
            for seq in seqs)
        assert len(states) == 60 and len(dispatched) == 60 * 3
        assert set(dispatched.values()) == {1}


class TestResequencing:
    def test_results_arrive_in_submission_order(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = manual_pool(queue, runner, shard_size=2)
        state = submit(queue, cells=5)  # shards [0,1] [2,3] [4]
        shards = []
        while True:
            shard = pool._next_shard()
            if shard is None:
                break
            shards.append(shard)
        # execute the shards back-to-front: completions are out of order
        for shard in reversed(shards):
            pool._execute(runner, shard)
        entries, final = queue.results(state.spec.job_id)
        assert final
        assert [entry["seq"] for entry in entries] == [0, 1, 2, 3, 4]
        assert [entry["cell"]["seed"] for entry in entries] == list(range(5))
        assert state.status == "done" and state.failed_cells == 0

    def test_failed_cells_are_counted_not_fatal(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner(ok=False)
        pool = manual_pool(queue, runner)
        state = submit(queue, cells=2)
        drain(pool, runner)
        assert state.status == "done"
        assert state.failed_cells == 2
        entries, _ = queue.results(state.spec.job_id)
        assert all(entry["ok"] is False for entry in entries)


class TestGapRepair:
    def test_lost_shard_is_repaired_and_job_completes(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner(fail_times=1)
        pool = manual_pool(queue, runner, shard_size=2)
        state = submit(queue, cells=3)
        drain(pool, runner)
        assert state.status == "done" and state.failed_cells == 0
        entries, final = queue.results(state.spec.job_id)
        assert final and [e["seq"] for e in entries] == [0, 1, 2]
        repairs = read_run_log(str(tmp_path / "journal.jsonl"),
                               event="cell_repair")
        assert len(repairs) == 1
        assert repairs[0]["seqs"] == [0, 1]  # exactly the lost cells

    def test_repair_limit_exhaustion_fails_the_job(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner(fail_times=99)
        pool = manual_pool(queue, runner, shard_size=4, repair_limit=1)
        state = submit(queue, cells=2)
        drain(pool, runner)
        assert state.status == "failed"
        assert "MemoryError" in state.error
        # 1 original attempt + 1 repair round
        assert len(runner.calls) == 2

    def test_stop_requeues_unfinished_jobs(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = manual_pool(queue, runner, shard_size=1)
        state = submit(queue, cells=2)
        shard = pool._next_shard()
        pool._execute(runner, shard)  # 1 of 2 shards done; job unfinished
        drained, requeued = pool.stop()
        assert requeued == 1
        assert state.status == "queued"
        assert queue.next_job().spec.job_id == state.spec.job_id


class TestSampledJobs:
    """The pool applies a job's sampling knobs to every cell config."""

    def _submit_sampled(self, queue, sampling):
        payload = {"cells": [{"workload": "dotprod", "arch": "ooo", "seed": s}
                             for s in range(2)]}
        payload.update(sampling)
        spec = parse_submit(payload, job_id=new_job_id())
        return queue.submit(spec)[0]

    def test_sampling_knobs_reach_the_runner(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = manual_pool(queue, runner, shard_size=4)
        self._submit_sampled(
            queue, {"sampling": {"period": 5000, "window": 500}})
        drain(pool, runner)
        configs = [config for _, config, _ in runner.calls[0]]
        assert configs and all(c.sample_period == 5000 for c in configs)
        assert all(c.sample_window == 500 for c in configs)

    def test_sampled_true_uses_default_period(self, tmp_path):
        from repro.core.sampling import DEFAULT_SAMPLE_PERIOD

        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = manual_pool(queue, runner, shard_size=4)
        self._submit_sampled(queue, {"sampled": True})
        drain(pool, runner)
        configs = [config for _, config, _ in runner.calls[0]]
        assert all(c.sample_period == DEFAULT_SAMPLE_PERIOD for c in configs)

    def test_full_detail_jobs_keep_sampling_off(self, tmp_path):
        queue = DurableJobQueue(str(tmp_path))
        runner = StubRunner()
        pool = manual_pool(queue, runner, shard_size=4)
        submit(queue)
        drain(pool, runner)
        configs = [config for _, config, _ in runner.calls[0]]
        assert all(c.sample_period == 0 for c in configs)

    def test_sampling_survives_journal_restart(self, tmp_path):
        """A queued sampled job replayed from the journal keeps its knobs."""
        queue = DurableJobQueue(str(tmp_path))
        self._submit_sampled(queue, {"sampling": {"period": 9000}})
        replayed = DurableJobQueue(str(tmp_path))
        job = replayed.next_job()
        assert job.spec.sampling == {"period": 9000}
