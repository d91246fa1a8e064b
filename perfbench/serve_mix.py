"""The ``serve_mix`` workload: a ``repro serve`` daemon under a closed-loop
load generator.

Set-up writes the traces into a throwaway trace cache, starts
``python -m repro serve --port 0`` with throwaway result-cache, trace and
queue directories and waits until ``/healthz`` answers.  This process
then runs two client threads, each sending its next job only after the
previous one has returned every result:

* interactive: one cold single-cell job at a time on the sampled tier
  (raw JSON, because ``ServeClient.submit`` has no sampling argument);
  every cell is new to the daemon, so each job simulates;
* batch: one full-detail matrix job (one kernel x four arches, one
  dispatch shard, one lock-step group) at a time, alternating fresh
  matrices (cold cache writes) with resubmissions of earlier ones under
  new idempotency keys (warm cache reads).

Each job is one operation.  It fails on a refusal (HTTP 429), a timeout,
an exception, a quarantined cell or a wrong result.  The daemon's spans
file (``--spans``, traced run only) and the job-status timestamps give
the per-layer split; see perfbench/README.md.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from host_probe import REFERENCE_S, probe
from metric_rules import (Outcomes, fingerprint, median, self_times,
                          tail_percentile)

#: µops per trace (the daemon's ``--ops``)
OPS = 4000
INTERACTIVE_KERNELS = ("stream_triad", "histogram", "dotprod")
#: interactive rounds, in order: every (kernel, arch pair) at a width
INTERACTIVE_WIDTHS = (8, 4, 10, 2)
ARCH_PAIRS = (("ooo", "ballerino"), ("ces", "casino"), ("fxa", "inorder"),
              ("dnb", "spq"), ("ces_mda", "ooo_oldest"),
              ("ballerino12", "ballerino_step1"),
              ("ballerino_step2", "ballerino_ideal"))
#: every fresh batch matrix is this kernel on these arches with a data
#: seed of its own, so fresh matrices cost the same whatever the order
BATCH_KERNEL = "mixed_int_fp"
BATCH_ARCHES = ("ooo", "ballerino", "ces", "casino")
#: fresh batch matrices available to one run (their traces are pre-warmed)
BATCH_FRESH = 24
#: sampled-tier knobs of the interactive jobs (about 4 windows per trace)
SAMPLING = {"period": 1000, "window": 250, "ff_warmup_ops": 250}
SETUP_REPEATS = 3
INTERACTIVE_POLL_S = 0.01
BATCH_POLL_S = 0.05
JOB_TIMEOUT_S = 60.0

_PREWARM_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro.workloads.suite import get_trace;"
    "ops = int(sys.argv[2]);"
    "[get_trace(k, ops, int(s)) for k, s in zip(sys.argv[3::2], sys.argv[4::2])]"
)


class OpFailed(Exception):
    """An operation failed for a reason the benchmark counts."""


def interactive_cells(seed: int) -> List[Dict]:
    """All interactive cells, round by round; the seed shuffles each round.

    The first round (8-wide ``ooo``/``ballerino``) is the reference set
    of ``sampled_ipc_err``.
    """
    rng = random.Random(seed)
    cells = []
    for width in INTERACTIVE_WIDTHS:
        for pair in ARCH_PAIRS:
            round_ = [{"workload": k, "arch": a, "width": width, "seed": None}
                      for k in INTERACTIVE_KERNELS for a in pair]
            rng.shuffle(round_)
            cells.extend(round_)
    return cells


def batch_seeds(seed: int) -> List[int]:
    """The data seeds of the fresh batch matrices."""
    return [seed * 1000 + 1 + index for index in range(BATCH_FRESH)]


def batch_matrix(data_seed: int) -> Dict:
    return {"workloads": [BATCH_KERNEL], "arches": list(BATCH_ARCHES),
            "widths": [8], "seeds": [data_seed]}


def cell_id(cell: Dict, sampled: bool) -> str:
    seed = "" if cell["seed"] is None else f"/seed{cell['seed']}"
    return (f"{'i' if sampled else 'b'}/{cell['workload']}/"
            f"{cell['arch']}-{cell['width']}w{seed}")


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
class Daemon:
    """One ``repro serve`` child with its own throwaway directories."""

    def __init__(self, root: str, work: Path, seed: int, spans: bool):
        self.work = work
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        src = os.path.join(root, "src")
        env = {k: v for k, v in os.environ.items()
               if not k.startswith("REPRO_")}
        env.update(PYTHONPATH=src, REPRO_BENCH_CACHE=str(work / "cache"),
                   REPRO_TRACE_CACHE=str(work / "traces"))
        start = time.perf_counter()
        traces = [(k, seed) for k in INTERACTIVE_KERNELS] + \
            [(BATCH_KERNEL, s) for s in batch_seeds(seed)]
        subprocess.run(
            [sys.executable, "-c", _PREWARM_CODE, src, str(OPS),
             *(str(part) for trace in traces for part in trace)],
            env=env, check=True, timeout=120, stdout=subprocess.DEVNULL)
        cmd = [sys.executable, "-m", "repro", "--ops", str(OPS),
               "--seed", str(seed), "serve", "--port", "0",
               "--port-file", str(work / "port"),
               "--queue-dir", str(work / "queue")]
        if spans:
            cmd.append("--spans")
        self._log = open(work / "daemon.log", "wb")
        self.proc = subprocess.Popen(cmd, env=env, stdout=self._log,
                                     stderr=subprocess.STDOUT)
        self.port = 0
        try:
            self.port = self._wait_healthy()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - start

    def _wait_healthy(self, timeout: float = 60.0) -> int:
        deadline = time.perf_counter() + timeout
        port_file = self.work / "port"
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"repro serve exited with "
                                   f"{self.proc.returncode}; see {self.work}")
            text = port_file.read_text().strip() if port_file.exists() else ""
            if text:
                try:
                    if self.call(int(text), "GET", "/healthz")[0] == 200:
                        return int(text)
                except OSError:
                    pass
            time.sleep(0.005)
        raise RuntimeError("repro serve did not answer /healthz in time")

    @staticmethod
    def call(port: int, method: str, path: str, body=None) -> Tuple[int, Dict]:
        """One request on a connection of its own."""
        http = Http(port)
        try:
            return http.call(method, path, body)
        finally:
            http.close()

    def get(self, path: str) -> Dict:
        return self.call(self.port, "GET", path)[1]

    def stop(self) -> None:
        """Ask for a graceful shutdown, then make sure the child is gone."""
        if self.proc.poll() is None:
            try:
                self.call(self.port, "POST", "/shutdownz", {})
            except (OSError, http.client.HTTPException):
                self.proc.terminate()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait(timeout=30)
        self._log.close()

    def spans(self) -> List[Dict]:
        path = self.work / "queue" / "spans.jsonl"
        if not path.exists():
            return []
        out = []
        for line in path.read_text().splitlines():
            try:
                out.append(json.loads(line))
            except ValueError:
                pass  # a torn last line
        return out


class Http:
    """A keep-alive JSON client for one thread."""

    def __init__(self, port: int):
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)

    def call(self, method: str, path: str,
             body: Optional[Dict] = None) -> Tuple[int, Dict]:
        data = None if body is None else json.dumps(body).encode()
        headers = {"Content-Type": "application/json"} if data else {}
        try:
            self.conn.request(method, path, body=data, headers=headers)
            response = self.conn.getresponse()
            payload = response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()
            raise
        return response.status, json.loads(payload or b"{}")

    def close(self) -> None:
        self.conn.close()


# ----------------------------------------------------------------------
# the load generator
# ----------------------------------------------------------------------
def run_job(http: Http, payload: Dict, poll_s: float) -> Dict:
    """Submit one job and follow its result stream to the end."""
    record: Dict = {}
    start = time.perf_counter()
    record["t_submit"] = time.time()
    status, body = http.call("POST", "/jobs", payload)
    record["submit_s"] = time.perf_counter() - start
    if status == 429:
        raise OpFailed(f"refused (429): {body.get('error')}")
    if status not in (200, 202):
        raise OpFailed(f"HTTP {status}: {body}")
    job_id = body["job_id"]
    results: List[Dict] = []
    while True:
        status, body = http.call("GET", f"/jobs/{job_id}/results"
                                        f"?since={len(results)}")
        results.extend(body.get("results", ()))
        if body.get("complete"):
            break
        if time.perf_counter() - start > JOB_TIMEOUT_S:
            raise OpFailed(f"timeout after {JOB_TIMEOUT_S}s")
        time.sleep(poll_s)
    record["latency_s"] = time.perf_counter() - start
    record["t_seen"] = time.time()
    record["end"] = time.perf_counter()
    _, record["job"] = http.call("GET", f"/jobs/{job_id}")
    record["results"] = results
    job = record["job"]
    if job["status"] != "done" or job["failed_cells"]:
        raise OpFailed(f"job {job_id} {job['status']} with "
                       f"{job['failed_cells']} quarantined cell(s)")
    if len(results) != job["cells"] or not all(r["ok"] for r in results):
        raise OpFailed(f"job {job_id}: {len(results)} of {job['cells']} "
                       "results, or a failed one")
    return record


def _client(name: str, tag: str, port: int, jobs, poll_s: float,
            deadline: float, records: List[Dict], outcomes: Outcomes,
            lock: threading.Lock):
    http = Http(port)
    try:
        for index, (payload, meta) in enumerate(jobs):
            if time.perf_counter() >= deadline:
                break
            op = f"{tag}:{name}{index}"
            with lock:
                outcomes.attempt()
            try:
                record = run_job(http, payload, poll_s)
            except Exception as exc:  # every failure is a counted operation
                with lock:
                    outcomes.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            record.update(meta, op=op, kind=name)
            with lock:
                records.append(record)
    finally:
        http.close()


def _interactive_jobs(seed: int, tag: str):
    for index, cell in enumerate(interactive_cells(seed)):
        yield ({"version": 1, "priority": "interactive", "tenant": "interactive",
                "idempotency_key": f"{tag}-i{index}", "sampling": SAMPLING,
                "cells": [cell]}, {"index": index})


def _batch_jobs(seed: int, tag: str, records: List[Dict]):
    """Fresh matrices alternating with warm resubmissions of finished ones.

    The client appends each finished job to ``records`` before it asks
    for the next job, so a resubmission is always a cache hit.
    """
    rng = random.Random(seed + 2)
    for index, data_seed in enumerate(batch_seeds(seed)):
        yield ({"version": 1, "priority": "batch", "tenant": "batch",
                "idempotency_key": f"{tag}-b{index}",
                "matrix": batch_matrix(data_seed)},
               {"matrix": data_seed, "warm": False})
        done = sorted({r["matrix"] for r in list(records)
                       if r["kind"] == "batch" and not r["warm"]})
        if done:
            again = rng.choice(done)
            yield ({"version": 1, "priority": "batch", "tenant": "batch",
                    "idempotency_key": f"{tag}-b{index}-again",
                    "matrix": batch_matrix(again)},
                   {"matrix": again, "warm": True})


def drive(daemon: Daemon, seed: int, seconds: float, tag: str,
          outcomes: Outcomes) -> Tuple[List[Dict], float, float]:
    """Run both clients for ``seconds``; returns the records, the start
    and the end of the measurement (``perf_counter``)."""
    records: List[Dict] = []
    lock = threading.Lock()
    start = time.perf_counter()
    deadline = start + seconds
    threads = [
        threading.Thread(target=_client, args=(
            "interactive", tag, daemon.port, _interactive_jobs(seed, tag),
            INTERACTIVE_POLL_S, deadline, records, outcomes, lock)),
        threading.Thread(target=_client, args=(
            "batch", tag, daemon.port, _batch_jobs(seed, tag, records),
            BATCH_POLL_S, deadline, records, outcomes, lock)),
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * JOB_TIMEOUT_S)
        if thread.is_alive():
            raise RuntimeError("load generator thread did not finish")
    end = max([r["end"] for r in records], default=time.perf_counter())
    return records, start, end


# ----------------------------------------------------------------------
# checks and metrics
# ----------------------------------------------------------------------
def _check(records: List[Dict], seed: int, outcomes: Outcomes,
           prints: Dict) -> float:
    """Correctness checks; returns ``sampled_ipc_err`` over the reference
    round.

    * a warm resubmission returns exactly its cold matrix's results;
    * the reference round's sampled results equal an in-process sampled
      run of the same cell, and its error is against an in-process
      full-detail run.
    """
    from repro.core.config import config_for
    from repro.core.pipeline import simulate
    from repro.core.sampling import with_sampling
    from repro.workloads.kernels import build_trace

    cold = {r["matrix"]: r["results"] for r in records
            if r["kind"] == "batch" and not r["warm"]}
    for record in records:
        sampled = record["kind"] == "interactive"
        for entry in record["results"]:
            print_ = fingerprint(entry["result"])
            first = prints.setdefault(cell_id(entry["cell"], sampled),
                                      (record["op"], print_))[1]
            if print_ != first:
                outcomes.fail(record["op"], "result differs from an earlier "
                                            "run of the same cell")
        if record["kind"] == "batch" and record["warm"]:
            original = cold.get(record["matrix"])
            if original is None or [e["result"] for e in original] != \
                    [e["result"] for e in record["results"]]:
                outcomes.fail(record["op"], "warm results differ from the "
                                            "cold run of the same matrix")
    reference = len([c for c in interactive_cells(seed)
                     if c["width"] == INTERACTIVE_WIDTHS[0]
                     and c["arch"] in ARCH_PAIRS[0]])
    traces: Dict[str, object] = {}
    errors: Dict[int, float] = {}
    for record in records:
        if record["kind"] != "interactive" or record["index"] >= reference \
                or record["index"] in errors:
            continue
        entry = record["results"][0]
        cell = entry["cell"]
        if cell["workload"] not in traces:
            traces[cell["workload"]] = build_trace(cell["workload"], OPS, seed)
        trace = traces[cell["workload"]]
        config = config_for(cell["arch"], width=cell["width"])
        local = simulate(trace, with_sampling(config, **SAMPLING))
        if fingerprint(local.to_dict()) != fingerprint(entry["result"]):
            outcomes.fail(record["op"], "served sampled result differs from "
                                        "an in-process run")
        full_ipc = simulate(trace, config).ipc
        served = entry["result"]["stats"]
        served_ipc = served["committed"] / served["cycles"]
        errors[record["index"]] = abs(served_ipc - full_ipc) / full_ipc
    return statistics.fmean(errors.values()) if errors else 0.0


def _p50(values) -> float:
    return median(v for v in values if v is not None)


def _end_to_end(records: List[Dict], start: float, end: float,
                info: Dict) -> Dict[str, float]:
    interactive = [r["latency_s"] for r in records
                   if r["kind"] == "interactive"]
    batch = [r for r in records if r["kind"] == "batch"]
    metrics: Dict[str, float] = {}
    if interactive:
        pct, tail, n = tail_percentile(interactive)
        metrics["interactive_p50_s"] = median(interactive)
        metrics["interactive_tail_s"] = tail
        info["interactive_tail"] = {"percentile": round(pct, 2), "samples": n}
    if batch:
        last = max(r["end"] for r in batch)
        metrics["batch_cells_per_s"] = (sum(len(r["results"]) for r in batch)
                                        / (last - start))
    # µops simulated: warm resubmissions are cache reads and add none
    committed = sum(e["result"]["stats"]["committed"] for r in records
                    if not r.get("warm") for e in r["results"])
    metrics["uops_per_s"] = committed / (end - start)
    info["jobs"] = {"interactive": len(interactive), "batch": len(batch),
                    "batch_warm": sum(1 for r in batch if r["warm"])}
    return metrics


def _layer_metrics(records: List[Dict], spans: List[Dict], metricsz: Dict,
                   health: Dict, info: Dict) -> Dict[str, float]:
    def split(kind, warm=None):
        out = {"wait": [], "service": [], "delivery": []}
        for r in records:
            if r["kind"] != kind or (warm is not None and r["warm"] != warm):
                continue
            job = r["job"]
            out["wait"].append(job["started_t"] - job["submitted_t"])
            out["service"].append(job["finished_t"] - job["started_t"])
            out["delivery"].append(r["t_seen"] - job["finished_t"])
        return out

    interactive = split("interactive")
    metrics = {
        "serve.submit_p50_s": _p50(r["submit_s"] for r in records),
        "serve.interactive.wait_p50_s": _p50(interactive["wait"]),
        "serve.interactive.service_p50_s": _p50(interactive["service"]),
        "serve.interactive.delivery_p50_s": _p50(interactive["delivery"]),
        "serve.batch.wait_p50_s": _p50(split("batch")["wait"]),
        "serve.batch.cold_service_s": _p50(split("batch", False)["service"]),
        "serve.batch.warm_service_s": _p50(split("batch", True)["service"]),
    }
    for lane in ("interactive", "batch"):
        metrics[f"serve.dispatched.{lane}"] = metricsz.get(
            f"serve.pool.dispatched.{lane}", {}).get("value", 0)
    metrics["serve.rejected"] = health.get("rejections", 0)

    selfs = self_times(spans)
    by_name: Dict[str, List[Dict]] = {}
    for span in spans:
        if span.get("end_t") is not None:
            by_name.setdefault(span["name"], []).append(span)

    def mean_duration(name):
        spans_ = by_name.get(name, [])
        return statistics.fmean(s["end_t"] - s["start_t"] for s in spans_) \
            if spans_ else 0.0

    cells = by_name.get("cell", [])
    cached = [c for c in cells if c.get("attrs", {}).get("cached")]
    per_cell = [c for c in cells if not c.get("attrs", {}).get("cached")
                and not c.get("attrs", {}).get("lockstep")]
    metrics["runner.cache_probe_s"] = mean_duration("cache_probe")
    metrics["runner.trace_decode_s"] = mean_duration("trace_decode")
    metrics["runner.simulate_s"] = mean_duration("simulate")
    metrics["runner.cell_self_s"] = (
        statistics.fmean(selfs[c["span_id"]] for c in per_cell)
        if per_cell else 0.0)
    metrics["runner.cache_hit_frac"] = len(cached) / len(cells) if cells else 0.0

    sampled = {s["parent_id"] for s in by_name.get("sim.measure", [])}
    if sampled:
        ff = sum(s["end_t"] - s["start_t"] for s in by_name.get("sim.ff", []))
        measure = sum(s["end_t"] - s["start_t"]
                      for s in by_name.get("sim.measure", []))
        metrics["sampling.ff_s"] = ff / len(sampled)
        metrics["sampling.measure_s"] = measure / len(sampled)
        metrics["sampling.ff_share"] = ff / (ff + measure)
        metrics["sampling.windows"] = (len(by_name["sim.measure"])
                                       / len(sampled))
    info["span_self_s"] = {
        name: statistics.fmean(selfs[s["span_id"]] for s in by_name[name])
        for name in ("job", "dispatch_shard") if by_name.get(name)}
    info["spans"] = {name: len(group) for name, group in sorted(by_name.items())}
    return metrics


def run(seed: int, seconds: float, traced: bool, root: str,
        out: Path) -> Dict:
    """Run ``serve_mix``; returns the report fragment for run.py."""
    outcomes = Outcomes()
    prints: Dict[str, Tuple[str, list]] = {}
    metrics: Dict[str, float] = {}
    info: Dict[str, object] = {}
    work = out / f"serve-{os.getpid()}"
    daemons: List[Daemon] = []
    try:
        if not traced:
            probes = [probe() for _ in range(SETUP_REPEATS)]
            setups = []
            for repeat in range(SETUP_REPEATS):
                if daemons:
                    daemons.pop().stop()
                daemons.append(Daemon(root, work / f"setup{repeat}", seed,
                                      spans=False))
                setups.append(daemons[-1].setup_s)
            info["setup_runs_s"] = setups
            records, start, end = drive(daemons[-1], seed, seconds, "run",
                                        outcomes)
            metrics.update(_end_to_end(records, start, end, info))
            daemons.pop().stop()
            # set-up is host CPU work, so it is scaled like the detail
            # workloads' times; the rest mixes in polling and waits
            probes += [probe() for _ in range(SETUP_REPEATS)]
            scale = REFERENCE_S / min(probes)
            metrics["setup_s"] = median(setups) * scale
            info["host_probe"] = {"fastest_s": min(probes), "scale": scale,
                                  "unscaled": {"setup_s": median(setups)}}
        else:
            daemons.append(Daemon(root, work / "plain", seed, spans=False))
            plain, start, end = drive(daemons[-1], seed, seconds / 2,
                                      "plain", outcomes)
            baseline = median(r["latency_s"] for r in plain
                              if r["kind"] == "interactive")
            daemons.pop().stop()
            daemons.append(Daemon(root, work / "traced", seed, spans=True))
            daemon = daemons[-1]
            records, start, end = drive(daemon, seed, seconds / 2, "traced",
                                        outcomes)
            metricsz, health = daemon.get("/metricsz"), daemon.get("/healthz")
            daemons.pop().stop()
            metrics.update(_layer_metrics(records, daemon.spans(), metricsz,
                                          health, info))
            metrics["trace_overhead_frac"] = median(
                r["latency_s"] for r in records
                if r["kind"] == "interactive") / baseline - 1
            records = plain + records
        while daemons:
            daemons.pop().stop()
        sampled_ipc_err = _check(records, seed, outcomes, prints)
        if not traced:
            metrics["sampled_ipc_err"] = sampled_ipc_err
            metrics["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    finally:
        for daemon in daemons:
            daemon.stop()
        shutil.rmtree(work, ignore_errors=True)
    return {"metrics": metrics, "outcomes": outcomes, "prints": prints,
            "info": info}
