"""``repro top``: log tailing, model folding, frame rendering."""

import io
import json

from repro.telemetry.top import LogTail, TopModel, render_top, run_top


def _write_lines(path, records):
    with open(path, "a", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def _event(event, t=1.0, **fields):
    return {"event": event, "t": t, "elapsed": t, **fields}


class TestLogTail:
    def test_incremental_polling_returns_only_new_lines(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_lines(path, [_event("campaign_start", tasks=4)])
        tail = LogTail(str(path))
        assert [r["event"] for r in tail.poll()] == ["campaign_start"]
        assert tail.poll() == []  # nothing new
        _write_lines(path, [_event("finish", t=2.0, worker=1, seconds=0.5)])
        assert [r["event"] for r in tail.poll()] == ["finish"]

    def test_missing_file_is_empty_not_error(self, tmp_path):
        tail = LogTail(str(tmp_path / "absent.jsonl"))
        assert tail.poll() == []

    def test_torn_tail_buffered_until_complete(self, tmp_path):
        path = tmp_path / "run.jsonl"
        record = json.dumps(_event("heartbeat", done=1, total=2))
        path.write_text(record[: len(record) // 2])  # writer mid-line
        tail = LogTail(str(path))
        assert tail.poll() == []
        path.write_text(record + "\n")  # writer finished the line
        assert [r["event"] for r in tail.poll()] == ["heartbeat"]

    def test_truncation_resets_offset(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_lines(path, [_event("campaign_start", tasks=4),
                            _event("finish", worker=1, seconds=0.1)])
        tail = LogTail(str(path))
        assert len(tail.poll()) == 2
        path.write_text("")  # rotated
        _write_lines(path, [_event("campaign_start", tasks=2)])
        assert [r["event"] for r in tail.poll()] == ["campaign_start"]

    def test_damaged_lines_skipped(self, tmp_path):
        path = tmp_path / "run.jsonl"
        path.write_text('GARBAGE\n[1, 2]\n'
                        + json.dumps(_event("cache_hit", key="k")) + "\n")
        tail = LogTail(str(path))
        assert [r["event"] for r in tail.poll()] == ["cache_hit"]


class TestTopModel:
    def test_campaign_progress_folds(self):
        model = TopModel()
        model.feed_records([
            _event("campaign_start", tasks=3, mode="serial"),
            _event("finish", t=2.0, worker=1, seconds=0.5),
            _event("cache_hit", t=3.0, key="k"),
        ])
        assert model.total() == 3
        assert model.done() == 2
        assert model.campaign_done is None

    def test_heartbeat_rate_and_eta_preferred(self):
        model = TopModel()
        model.feed_records([_event(
            "heartbeat", done=2, total=4, inflight=1, queued=1,
            elapsed_s=1.0, sims_per_sec=2.0, eta_s=1.0)])
        assert model.done() == 2
        assert model.total() == 4
        assert model.sims_per_sec() == 2.0
        assert model.eta_s() == 1.0

    def test_rate_derived_from_finish_times_without_heartbeat(self):
        model = TopModel()
        model.feed_records([
            _event("finish", t=float(t), worker=1, seconds=0.1)
            for t in (1, 2, 3)])
        assert model.sims_per_sec() == 1.0  # 2 intervals over 2 seconds

    def test_shard_lifecycle(self):
        model = TopModel()
        model.feed_records([
            _event("shard_start", shard=0, of=2, cells=2),
            _event("shard_start", shard=1, of=2, cells=2),
            _event("shard_end", shard=0, of=2, completed=2, failed=0),
        ])
        assert model.shards[(0, 2)]["state"] == "done"
        assert model.shards[(1, 2)]["state"] == "running"

    def test_fault_counters(self):
        model = TopModel()
        model.feed_records([
            _event("retry", key="k", attempt=1, kind="error"),
            _event("timeout", key="k", seconds=1.0),
            _event("quarantine", key="k", error="boom", attempts=3),
            _event("cache_warning", reason="corrupt", count=2, key="k"),
        ])
        assert (model.retries, model.timeouts,
                model.quarantined, model.cache_warnings) == (1, 1, 1, 2)


class TestRenderTop:
    def _model(self):
        model = TopModel()
        model.feed_records([
            _event("campaign_start", tasks=4),
            _event("heartbeat", t=2.0, done=2, total=4, inflight=1,
                   queued=1, elapsed_s=1.0, sims_per_sec=2.0, eta_s=1.0),
            _event("finish", t=2.0, worker=1, seconds=0.5),
        ])
        return model

    def test_frame_shows_progress_rate_and_eta(self):
        frame = render_top(self._model(), now=10.0, clock="00:00:10")
        assert "2/4" in frame
        assert "2.00 sims/s" in frame
        assert "ETA 1s" in frame
        assert "1 in flight" in frame

    def test_frame_shows_server_health_and_queues(self):
        model = self._model()
        model.feed_health({"status": "ok", "uptime_s": 5.0, "workers": 2,
                           "jobs": {"running": 1, "queued": 0,
                                    "done": 3, "failed": 0}})
        model.feed_metrics({
            "serve.queue.depth.batch": {"type": "gauge", "value": 2},
            "serve.cells.completed": {"type": "counter", "value": 7},
        })
        frame = render_top(model, now=10.0, clock="00:00:10")
        assert "server    ok" in frame
        assert "batch: 2" in frame
        assert "7 cells executed" in frame

    def test_frame_marks_unreachable_server(self):
        model = self._model()
        model.feed_health(None, error="connection refused")
        frame = render_top(model, now=10.0, clock="00:00:10")
        assert "UNREACHABLE" in frame

    def test_done_campaign_renders_done_status(self):
        model = self._model()
        model.feed_records([_event("campaign_end", t=3.0, simulations=4,
                                   seconds=1.0, quarantined=0)])
        frame = render_top(model, now=10.0, clock="00:00:10")
        assert "· done ·" in frame


class TestRunTop:
    def test_once_renders_single_frame(self, tmp_path):
        path = tmp_path / "run.jsonl"
        _write_lines(path, [
            _event("campaign_start", tasks=2, mode="serial"),
            _event("finish", t=2.0, worker=1, seconds=0.5),
            _event("campaign_end", t=3.0, simulations=2, seconds=1.0,
                   quarantined=0),
        ])
        out = io.StringIO()
        assert run_top([str(path)], once=True, interval=0.0, out=out) == 0
        frame = out.getvalue()
        assert frame.count("repro top") == 1
        assert "· done ·" in frame

    def test_iterations_merge_multiple_logs(self, tmp_path):
        logs = []
        for shard in (0, 1):
            path = tmp_path / f"shard-{shard}.jsonl"
            _write_lines(path, [
                _event("shard_start", shard=shard, of=2, cells=1),
                _event("finish", t=2.0 + shard, worker=1, seconds=0.2),
                _event("shard_end", shard=shard, of=2, completed=1,
                       failed=0),
            ])
            logs.append(str(path))
        out = io.StringIO()
        assert run_top(logs, iterations=2, interval=0.0, out=out) == 0
        frame = out.getvalue()
        assert "0/2 done" in frame and "1/2 done" in frame
        assert frame.count("repro top") == 2
