"""End-to-end span tracing: ids, nesting, wire round-trips, identity.

Covers the observability PR's acceptance criteria:

* cell span ids survive the serve HTTP round-trip — the ids the daemon
  records are the ids the result-stream envelopes carry back;
* a 2-shard distributed campaign merges into a single trace where
  every expected cell span appears exactly once under its shard span;
* every cell span nests under exactly one parent (job dispatch span or
  shard span) — no orphans, no double-parents;
* a traced run is byte-identical to an untraced run of the same cells
  (the whole plane is nullable).
"""

import collections
import contextlib
import json
import os

import pytest

from repro.analysis.runner import ExperimentRunner
from repro.core.config import config_for
from repro.distrib import (CampaignSpec, campaign_root_context,
                           campaign_trace_id, merge_trace, run_shard,
                           shard_spans_path)
from repro.serve.client import ServeClient
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import PROTOCOL_VERSION
from repro.telemetry.spans import (Span, SpanContext, SpanRecorder,
                                   derive_span_id, derive_trace_id,
                                   merge_spans, new_span_id, new_trace_id,
                                   read_spans, span_tree, spans_to_chrome)

OPS = 400


@pytest.fixture(autouse=True)
def spans_unset(monkeypatch):
    monkeypatch.delenv("REPRO_SPANS", raising=False)


# ---------------------------------------------------------------------------
# primitives


class TestSpanPrimitives:
    def test_derived_ids_are_deterministic_and_distinct(self):
        tid = derive_trace_id("campaign", "abc")
        assert tid == derive_trace_id("campaign", "abc")
        assert tid != derive_trace_id("campaign", "abd")
        sid = derive_span_id(tid, "cell", "key1")
        assert sid == derive_span_id(tid, "cell", "key1")
        assert sid != derive_span_id(tid, "cell", "key2")

    def test_context_round_trip_and_validation(self):
        ctx = SpanContext(new_trace_id(), new_span_id())
        assert SpanContext.from_dict(ctx.to_dict()) == ctx
        with pytest.raises(ValueError):
            SpanContext.from_dict({"trace_id": "NOT HEX", "span_id": "ab"})

    def test_recorder_round_trip(self, tmp_path):
        path = tmp_path / "spans.jsonl"
        with SpanRecorder(str(path)) as rec:
            root = rec.start("campaign", tasks=2)
            child = rec.start("cell", parent=root, workload="dotprod")
            rec.finish(child)
            rec.finish(root)
        spans = read_spans(str(path))
        by_name = {s.name: s for s in spans}
        assert set(by_name) == {"campaign", "cell"}
        assert by_name["cell"].parent_id == by_name["campaign"].span_id
        assert by_name["cell"].trace_id == by_name["campaign"].trace_id
        assert all(s.end_t is not None for s in spans)

    def test_merge_dedupes_preferring_finished(self):
        tid = new_trace_id()
        open_span = Span(name="cell", trace_id=tid, span_id="a" * 16,
                         start_t=1.0)
        done_span = Span(name="cell", trace_id=tid, span_id="a" * 16,
                         start_t=1.0, end_t=2.0)
        merged = merge_spans([open_span, done_span])
        assert len(merged) == 1
        assert merged[0].end_t == 2.0

    def test_chrome_export_gives_each_shard_its_own_pid(self, tmp_path):
        tid = new_trace_id()
        root = Span(name="campaign", trace_id=tid,
                    span_id=derive_span_id(tid, "campaign"),
                    start_t=0.0, end_t=4.0)
        spans = [root]
        for shard in range(2):
            top = Span(name="shard", trace_id=tid,
                       span_id=derive_span_id(tid, "shard", shard),
                       parent_id=root.span_id, start_t=0.0, end_t=3.0)
            spans.append(top)
            spans.append(Span(
                name="cell", trace_id=tid,
                span_id=derive_span_id(tid, "cell", shard),
                parent_id=top.span_id, start_t=1.0, end_t=2.0))
        out = tmp_path / "trace.json"
        spans_to_chrome(spans, str(out))
        doc = json.loads(out.read_text())
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        pid_of = {e["args"]["span_id"]: e["pid"] for e in events}
        shard_pids = {pid_of[derive_span_id(tid, "shard", s)]
                      for s in range(2)}
        assert len(shard_pids) == 2  # shards never share a process row
        for shard in range(2):
            assert (pid_of[derive_span_id(tid, "cell", shard)]
                    == pid_of[derive_span_id(tid, "shard", shard)])
        assert pid_of[root.span_id] not in shard_pids


# ---------------------------------------------------------------------------
# runner-level tracing


def _tasks():
    return [("dotprod", config_for("ooo")), ("dotprod", config_for("inorder"))]


class TestRunnerTracing:
    def test_traced_run_byte_identical_to_untraced(self, tmp_path):
        plain = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "plain"), run_log="")
        expected = [json.dumps(r.to_dict(), sort_keys=True)
                    for r in plain.run_many(_tasks())]
        traced = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "traced"), run_log="",
            spans=str(tmp_path / "spans.jsonl"))
        got = [json.dumps(r.to_dict(), sort_keys=True)
               for r in traced.run_many(_tasks())]
        assert got == expected
        assert read_spans(str(tmp_path / "spans.jsonl"))

    def test_cells_parent_under_campaign_root(self, tmp_path):
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "cache"), run_log="",
            spans=str(tmp_path / "spans.jsonl"))
        runner.run_many(_tasks())
        spans = read_spans(str(tmp_path / "spans.jsonl"))
        tree = span_tree(spans)
        roots = tree[None]
        assert [r.name for r in roots] == ["campaign"]
        cells = [s for s in spans if s.name == "cell"]
        assert len(cells) == len(_tasks())
        campaign = roots[0]
        for cell in cells:
            assert cell.parent_id == campaign.span_id
        # each cell is timed on its own: its own decode and simulate
        # children, and a simulate bracket no other cell shares (a cell
        # span ends at the parent's merge, which can come after the
        # lone worker has taken the next cell)
        children = collections.defaultdict(list)
        for span in spans:
            children[span.parent_id].append(span)
        for cell in cells:
            assert sorted(s.name for s in children[cell.span_id]) == [
                "simulate", "trace_decode"]
        first, second = sorted(
            (s for s in spans if s.name == "simulate"),
            key=lambda s: s.start_t)
        assert first.end_t <= second.start_t

    def test_parallel_cells_keep_their_worker_side_steps(self, tmp_path):
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "cache"), run_log="",
            spans=str(tmp_path / "spans.jsonl"), jobs=2)
        try:
            runner.run_many(_tasks())
        finally:
            runner.close()
        spans = read_spans(str(tmp_path / "spans.jsonl"))
        cells = [s for s in spans if s.name == "cell"]
        assert len(cells) == len(_tasks())
        for cell in cells:
            assert cell.attrs["worker"] != os.getpid()
            steps = [s for s in spans if s.parent_id == cell.span_id]
            assert sorted(s.name for s in steps) == [
                "simulate", "trace_decode"]
            for step in steps:
                assert cell.start_t <= step.start_t <= step.end_t \
                    <= cell.end_t

    def test_run_log_stamped_with_trace_ids(self, tmp_path):
        from repro.telemetry.runlog import read_run_log

        parent = SpanContext(new_trace_id(), new_span_id())
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "cache"),
            run_log=str(tmp_path / "run.jsonl"), trace_ctx=parent)
        runner.run_many(_tasks())
        runner.run_log.close()
        finishes = read_run_log(str(tmp_path / "run.jsonl"), event="finish")
        assert finishes
        assert all(r["trace_id"] == parent.trace_id for r in finishes)
        assert all(r["parent_id"] == parent.span_id for r in finishes)
        assert len({r["span_id"] for r in finishes}) == len(finishes)

    def test_spans_off_writes_nothing(self, tmp_path):
        runner = ExperimentRunner(
            target_ops=OPS, cache_dir=str(tmp_path / "cache"), run_log="")
        runner.run_many(_tasks())
        assert runner.spans is None
        assert not list(tmp_path.glob("*.jsonl"))


# ---------------------------------------------------------------------------
# serve HTTP round-trip


@contextlib.contextmanager
def serving(tmp_path, **kwargs):
    kwargs.setdefault("workers", 1)
    daemon = ServeDaemon(
        str(tmp_path / "queue"),
        runner_kwargs=dict(target_ops=OPS,
                           cache_dir=str(tmp_path / "serve-cache"),
                           run_log=""),
        spans=True, **kwargs)
    daemon.start()
    try:
        yield daemon, ServeClient(daemon.url)
    finally:
        daemon.stop(timeout=30)


class TestServeRoundTrip:
    def test_cell_span_ids_survive_http_round_trip(self, tmp_path):
        parent = SpanContext(new_trace_id(), new_span_id())
        with serving(tmp_path) as (daemon, client):
            job = client.submit(
                cells=[{"workload": "dotprod", "arch": "ooo", "width": 4},
                       {"workload": "dotprod", "arch": "inorder",
                        "width": 4}],
                trace=parent.to_dict())
            status = client.wait(job["job_id"], timeout=120)
            assert status["status"] == "done"
            entries = client.stream_results(job["job_id"])
            spans_path = daemon.spans.path
        assert all(e["trace"]["trace_id"] == parent.trace_id
                   for e in entries)
        spans = read_spans(str(spans_path))
        by_id = {s.span_id: s for s in spans}
        for entry in entries:
            span = by_id[entry["trace"]["span_id"]]
            assert span.name == "cell"
            dispatch = by_id[span.parent_id]
            assert dispatch.name == "dispatch_shard"
            job_span = by_id[dispatch.parent_id]
            assert job_span.name == "job"
            assert job_span.parent_id == parent.span_id

    def test_served_sampled_cell_keeps_its_worker_side_steps(
            self, tmp_path):
        """The worker reports its decode, simulate and sampled-phase
        brackets; the daemon records them under the cell span, and the
        results match an untraced daemon's byte for byte."""
        payload = {"version": PROTOCOL_VERSION,
                   "cells": [{"workload": "dotprod", "arch": "ooo",
                              "width": 4}],
                   "sampling": {"period": 150, "window": 40,
                                "ff_warmup_ops": 20}}

        def served(daemon):
            client = ServeClient(daemon.url)
            job = client._request("POST", "/jobs", payload)
            assert client.wait(job["job_id"], timeout=120)["status"] == "done"
            return [json.dumps(e["result"], sort_keys=True)
                    for e in client.stream_results(job["job_id"])]

        with serving(tmp_path) as (daemon, client):
            traced = served(daemon)
            spans_path = daemon.spans.path
        spans = read_spans(str(spans_path))
        (cell,) = [s for s in spans if s.name == "cell"]
        assert cell.attrs["worker"] != os.getpid()
        steps = [s for s in spans if s.parent_id == cell.span_id]
        names = [s.name for s in steps]
        assert {"trace_decode", "simulate", "sim.measure"} <= set(names)
        for step in steps:
            assert cell.start_t <= step.start_t <= step.end_t <= cell.end_t

        plain = ServeDaemon(
            str(tmp_path / "plain-queue"), workers=1,
            runner_kwargs=dict(target_ops=OPS,
                               cache_dir=str(tmp_path / "plain-cache"),
                               run_log=""))
        plain.start()
        try:
            untraced = served(plain)
        finally:
            plain.stop(timeout=30)
        assert traced == untraced

    def test_every_cell_span_has_exactly_one_parent(self, tmp_path):
        with serving(tmp_path) as (daemon, client):
            job = client.submit(
                matrix={"workloads": ["dotprod"],
                        "arches": ["ooo", "inorder"], "widths": [4]},
                trace=SpanContext(new_trace_id(), new_span_id()).to_dict())
            client.wait(job["job_id"], timeout=120)
            spans_path = daemon.spans.path
        spans = merge_spans(read_spans(str(spans_path)))
        by_id = {s.span_id: s for s in spans}
        cells = [s for s in spans if s.name == "cell"]
        assert cells
        for cell in cells:
            assert cell.parent_id in by_id
        # dedup means each id appears once: exactly one parent each
        assert len({c.span_id for c in cells}) == len(cells)

    def test_untraced_submit_on_traced_daemon_gets_derived_ids(
            self, tmp_path):
        # daemon-side tracing covers jobs whose client sent no parent:
        # the trace id is derived from the job id, so the operator can
        # still reconstruct the job from the daemon's span file alone
        with serving(tmp_path) as (daemon, client):
            job = client.submit(
                cells=[{"workload": "dotprod", "arch": "ooo", "width": 4}])
            client.wait(job["job_id"], timeout=120)
            entries = client.stream_results(job["job_id"])
        expected = derive_trace_id("job", job["job_id"])
        assert all(e["trace"]["trace_id"] == expected for e in entries)

    def test_spans_disabled_daemon_emits_no_trace_field(self, tmp_path):
        daemon = ServeDaemon(
            str(tmp_path / "plain-queue"), workers=1,
            runner_kwargs=dict(target_ops=OPS,
                               cache_dir=str(tmp_path / "plain-cache"),
                               run_log=""))
        daemon.start()
        try:
            client = ServeClient(daemon.url)
            job = client.submit(
                cells=[{"workload": "dotprod", "arch": "ooo", "width": 4}])
            client.wait(job["job_id"], timeout=120)
            entries = client.stream_results(job["job_id"])
        finally:
            daemon.stop(timeout=30)
        assert daemon.spans is None
        assert all("trace" not in e for e in entries)
        assert not (tmp_path / "plain-queue" / "spans.jsonl").exists()

    def test_bad_trace_rejected_as_protocol_error(self, tmp_path):
        from repro.serve.client import ServeError

        with serving(tmp_path) as (daemon, client):
            with pytest.raises(ServeError) as err:
                client.submit(
                    cells=[{"workload": "dotprod", "arch": "ooo"}],
                    trace={"trace_id": "NOT HEX", "span_id": "zz"})
            assert err.value.code == "bad-trace"


# ---------------------------------------------------------------------------
# distributed shard merge


class TestDistributedTraceMerge:
    SPEC = CampaignSpec(workloads=("dotprod",), arches=("ooo", "inorder"),
                        widths=(4, 8), n_shards=2, ops=OPS)

    def _run_campaign(self, tmp_path):
        cdir = tmp_path / "campaign"
        cache = str(tmp_path / "camp-cache")
        for shard in range(self.SPEC.n_shards):
            run_shard(self.SPEC, shard, cdir, cache_dir=cache, spans=True)
        return cdir

    def test_two_shard_merge_single_trace_every_cell_once(self, tmp_path):
        cdir = self._run_campaign(tmp_path)
        for shard in range(2):
            assert shard_spans_path(cdir, shard, 2).exists()
        merged = merge_trace(self.SPEC, cdir, chrome=True)
        assert len({s.trace_id for s in merged}) == 1
        assert {s.trace_id for s in merged} == {campaign_trace_id(self.SPEC)}
        cells = [s for s in merged if s.name == "cell"]
        assert len(cells) == len(self.SPEC.cells())
        assert len({c.span_id for c in cells}) == len(cells)
        shard_ids = {s.span_id: s for s in merged if s.name == "shard"}
        assert len(shard_ids) == 2
        # every cell nests under exactly one shard span, and the
        # partition matches the salted-hash assignment
        per_shard = collections.Counter()
        for cell in cells:
            assert cell.parent_id in shard_ids
            per_shard[cell.parent_id] += 1
        assert sum(per_shard.values()) == len(cells)
        root = campaign_root_context(self.SPEC)
        for span in shard_ids.values():
            assert span.parent_id == root.span_id
        assert any(s.span_id == root.span_id for s in merged)
        assert (cdir / "merged-spans.jsonl").exists()
        assert (cdir / "trace.json").exists()

    def test_rerun_shard_does_not_duplicate_cells(self, tmp_path):
        cdir = self._run_campaign(tmp_path)
        # shard 0 re-run on another "host": same deterministic ids, so
        # the merged trace must not double-count its cells
        run_shard(self.SPEC, 0, cdir,
                  cache_dir=str(tmp_path / "camp-cache"), spans=True)
        merged = merge_trace(self.SPEC, cdir)
        cells = [s for s in merged if s.name == "cell"]
        assert len(cells) == len(self.SPEC.cells())

    def test_traced_campaign_results_identical_to_untraced(self, tmp_path):
        from repro.distrib import merge_shards

        cdir = self._run_campaign(tmp_path)
        traced = merge_shards(self.SPEC, cdir,
                              cache_dir=str(tmp_path / "camp-cache"))
        plain_dir = tmp_path / "plain"
        for shard in range(self.SPEC.n_shards):
            run_shard(self.SPEC, shard, plain_dir,
                      cache_dir=str(tmp_path / "plain-cache"), spans=False)
        plain = merge_shards(self.SPEC, plain_dir,
                             cache_dir=str(tmp_path / "plain-cache"))
        assert traced.complete and plain.complete
        assert (json.dumps(traced.envelopes, sort_keys=True)
                == json.dumps(plain.envelopes, sort_keys=True))
