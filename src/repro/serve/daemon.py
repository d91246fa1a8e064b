"""The ``repro serve`` daemon: REST API over the queue + worker pool.

Endpoints (all JSON; see docs/serving.md for the full reference):

* ``POST /jobs`` — submit cells or a sweep matrix; 202 with the job
  id, 200 on an idempotency-key replay, 400 on malformed payloads,
  429 with a structured body on rate-limit / backpressure refusals.
* ``GET /jobs/<id>`` — job status.
* ``GET /jobs/<id>/results?since=N`` — the ordered result stream from
  sequence ``N`` (incremental polling: follow ``next`` until
  ``complete``).
* ``GET /healthz`` — liveness + version/protocol + queue counts +
  cache health (the runners' tolerated-corruption counter).
* ``GET /metricsz`` — the shared MetricsRegistry snapshot;
  ``?format=prometheus`` returns the same counters/gauges/histograms
  in Prometheus text exposition format (``text/plain; version=0.0.4``)
  for scraping.
* ``POST /shutdownz`` — graceful shutdown (also triggered by
  SIGTERM/SIGINT via the CLI): stop accepting, drain in-flight
  shards, kill any worker process still busy after the drain timeout,
  requeue unfinished jobs, journal ``serve_stop``.

Built on stdlib ``ThreadingHTTPServer`` — one thread per connection,
which is plenty: requests only touch in-memory queue state; the heavy
lifting happens in the pool's worker processes.  Replies go out with
``TCP_NODELAY``, so a keep-alive client never waits on Nagle's
algorithm for the body that follows the headers.
"""

from __future__ import annotations

import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Dict, Optional, Tuple

from ..analysis.runner import ExperimentRunner
from ..telemetry.metrics import MetricsRegistry
from ..telemetry.prometheus import render_prometheus
from ..telemetry.spans import SpanRecorder
from .pool import WorkerPool
from .protocol import PROTOCOL_VERSION, ProtocolError, parse_submit
from .queue import (DEFAULT_BURST, DEFAULT_RATE, DurableJobQueue,
                    QueueRejection, new_job_id)


def _repro_version() -> str:
    try:
        from importlib.metadata import version

        return version("repro")
    except Exception:
        from .. import __version__

        return __version__


class ServeDaemon:
    """Owns the queue, the pool, the metrics registry and the HTTP server."""

    def __init__(
        self,
        queue_dir: str,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        shard_size: int = 4,
        max_depth: int = 64,
        rate: float = DEFAULT_RATE,
        burst: float = DEFAULT_BURST,
        runner_factory: Optional[Callable[[], ExperimentRunner]] = None,
        runner_kwargs: Optional[Dict] = None,
        spans: bool = False,
    ):
        self.metrics = MetricsRegistry()
        self.queue = DurableJobQueue(
            queue_dir, max_depth=max_depth, rate=rate, burst=burst,
            metrics=self.metrics)
        # One daemon-owned span sink for all jobs; traced submits nest
        # job/shard/cell spans here under the client's parent context.
        self.spans: Optional[SpanRecorder] = None
        if spans:
            self.spans = SpanRecorder(os.path.join(queue_dir, "spans.jsonl"))
        if runner_factory is None:
            kwargs = dict(runner_kwargs or {})
            kwargs.setdefault("metrics", self.metrics)
            if self.spans is not None:
                kwargs.setdefault("spans", self.spans)
            # each dispatch thread drives one worker process of its own
            kwargs.update(jobs=1)
            runner_factory = lambda: ExperimentRunner(**kwargs)  # noqa: E731
        self.pool = WorkerPool(
            self.queue, runner_factory, workers=workers,
            shard_size=shard_size, metrics=self.metrics, spans=self.spans)
        self.workers = workers
        self._httpd = ThreadingHTTPServer((host, port), self._handler_class())
        self._http_thread: Optional[threading.Thread] = None
        self._stopped = threading.Event()
        self._started_t = time.monotonic()

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    def start(self) -> None:
        self.pool.start()
        self._http_thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-serve-http",
            daemon=True)
        self._http_thread.start()
        self.queue.log("serve_start", host=self.host, port=self.port,
                       workers=self.workers)

    def stop(self, drain: bool = True,
             timeout: Optional[float] = 30.0) -> Tuple[int, int]:
        """Graceful shutdown; returns ``(drained_shards, requeued_jobs)``.

        In-flight shards get ``timeout`` seconds to drain; then every
        worker process is ended, a busy one killed."""
        if self._stopped.is_set():
            return (0, 0)
        self._httpd.shutdown()
        self._httpd.server_close()
        drained, requeued = self.pool.stop(drain=drain, timeout=timeout)
        self.queue.log("serve_stop", drained=drained, requeued=requeued)
        if self.spans is not None:
            self.spans.close()
        self.queue.close()
        self._stopped.set()
        return drained, requeued

    def request_stop(self) -> None:
        """Signal-handler-safe: trigger :meth:`stop` off-thread."""
        threading.Thread(target=self.stop, daemon=True).start()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the daemon has stopped."""
        return self._stopped.wait(timeout)

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    def health(self) -> Dict:
        return {
            "status": "ok",
            "version": _repro_version(),
            "protocol": PROTOCOL_VERSION,
            "uptime_s": round(time.monotonic() - self._started_t, 3),
            "workers": self.workers,
            "jobs": self.queue.counts(),
            "rejections": self.queue.rejections,
            "replayed_jobs": self.queue.replayed_jobs,
            "cache_warnings": self.pool.cache_warnings,
            "quarantined_cells": self.pool.quarantined_cells,
            "cells_executed": self.pool.cells_executed,
        }

    def _submit(self, payload: Dict) -> Tuple[int, Dict]:
        spec = parse_submit(payload, job_id=new_job_id())
        state, created = self.queue.submit(spec)
        body = state.status_dict()
        body["created"] = created
        return (202 if created else 200), body

    def _handler_class(self):
        daemon = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # headers and body are two sends on a keep-alive socket:
            # without TCP_NODELAY the body waits for the client's
            # delayed ACK (~40 ms per reply)
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # quiet by default
                pass

            def _reply(self, status: int, body: Dict) -> None:
                data = json.dumps(body, sort_keys=True).encode()
                self._reply_raw(status, data, "application/json")

            def _reply_raw(self, status: int, data: bytes,
                           content_type: str) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                self.end_headers()
                self.wfile.write(data)

            def _error(self, status: int, code: str, message: str,
                       **extra) -> None:
                self._reply(status,
                            {"error": {"code": code, "message": message,
                                       **extra}})

            # ----------------------------------------------------------
            def do_GET(self):
                path, _, query = self.path.partition("?")
                if path == "/healthz":
                    return self._reply(200, daemon.health())
                if path == "/metricsz":
                    snapshot = daemon.metrics.snapshot()
                    if "format=prometheus" in query.split("&"):
                        text = render_prometheus(snapshot)
                        return self._reply_raw(
                            200, text.encode(),
                            "text/plain; version=0.0.4; charset=utf-8")
                    return self._reply(200, snapshot)
                if path.startswith("/jobs/"):
                    parts = path.split("/")[2:]
                    job_id = parts[0] if parts else ""
                    state = daemon.queue.jobs.get(job_id)
                    if state is None:
                        return self._error(404, "unknown-job",
                                           f"no such job: {job_id}")
                    if len(parts) == 1:
                        return self._reply(200, state.status_dict())
                    if len(parts) == 2 and parts[1] == "results":
                        since = 0
                        for pair in query.split("&"):
                            if pair.startswith("since="):
                                try:
                                    since = max(0, int(pair[6:]))
                                except ValueError:
                                    return self._error(
                                        400, "bad-request",
                                        "since must be an integer")
                        entries, final = daemon.queue.results(job_id, since)
                        return self._reply(200, {
                            "job_id": job_id,
                            "status": state.status,
                            "results": entries,
                            "next": since + len(entries),
                            "complete": final,
                        })
                return self._error(404, "not-found",
                                   f"unknown path: {path}")

            def do_POST(self):
                path = self.path.partition("?")[0]
                if path == "/shutdownz":
                    self._reply(200, {"status": "stopping"})
                    daemon.request_stop()
                    return
                if path != "/jobs":
                    return self._error(404, "not-found",
                                       f"unknown path: {path}")
                try:
                    length = int(self.headers.get("Content-Length", 0))
                    payload = json.loads(self.rfile.read(length) or b"{}")
                except (ValueError, TypeError):
                    return self._error(400, "bad-request",
                                       "body must be valid JSON")
                try:
                    status, body = daemon._submit(payload)
                except ProtocolError as exc:
                    return self._error(400, exc.code, exc.message)
                except QueueRejection as exc:
                    return self._reply(429, {"error": exc.to_dict()})
                self._reply(status, body)

        return Handler
