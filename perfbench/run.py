"""The repository benchmark: one command, every metric by name and unit.

    python3 perfbench/run.py --workload detail_memory --seed 0 --seconds 30 --trace 0

``--workload`` is ``detail_memory``, ``detail_compute`` or ``serve_mix``
(see perfbench/README.md for why each exists).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that gives the per-layer metrics and ``trace_overhead_frac``.
Inputs come from ``--seed`` only.  Every run checks the simulator's
outputs (completion, determinism, traced == untraced, warm == cold and
the recorded fingerprints in ``perfbench/fingerprints.json``) and counts
each failed operation.

The table of metrics and the run's metadata go to standard output and
to ``.perfbench/report-<workload>-seed<n>-trace<t>.json``; the cells'
simulated-stat fingerprints go to ``.perfbench/fingerprints-<workload>-
seed<n>.json`` so two commits can be diffed exactly.  ``--record``
stores them in ``perfbench/fingerprints.json`` as the reference.  The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
RECORDED = HERE / "fingerprints.json"

WORKLOADS = ("detail_memory", "detail_compute", "serve_mix")

#: end-to-end metric -> unit (reported with --trace 0)
END_TO_END = {
    "setup_s": "s",
    "uops_per_s": "uops/s",
    "interactive_p50_s": "s",
    "interactive_tail_s": "s",
    "batch_cells_per_s": "cells/s",
    "sampled_ipc_err": "fraction",
    "peak_rss_mb": "MB",
    "success_rate": "fraction",
}

#: per-layer metric -> unit (reported with --trace 1); a workload that
#: does not exercise a layer reports 0 for it
PER_LAYER = {
    "workloads.trace_build_s": "s",
    "core.cycles": "count",
    "core.step_calls": "count",
    "core.quiet_cycle_frac": "fraction",
    "core.host_us_per_cycle": "us",
    "core.kcycles_per_s": "kcycles/s",
    "core.self_s": "s",
    "core.useful_frac": "fraction",
    **{f"{layer}.{part}": unit
       for layer in ("sched", "memory", "frontend", "lsq", "rename",
                     "core.wakeup")
       for part, unit in (("busy_s", "s"), ("calls", "count"),
                          ("share", "fraction"))},
    "sched.issued_per_select": "uops/call",
    "memory.l1d_miss_rate": "fraction",
    "memory.dram_reads": "count",
    "frontend.mispredict_rate": "fraction",
    **{f"stall.{c}_frac": "fraction" for c in (
        "commit", "frontend", "squash", "memory", "not_ready",
        "port_conflict", "iq_full")},
    "sampling.ff_s": "s",
    "sampling.measure_s": "s",
    "sampling.ff_share": "fraction",
    "sampling.windows": "count",
    "runner.cache_probe_s": "s",
    "runner.trace_decode_s": "s",
    "runner.simulate_s": "s",
    "runner.cell_self_s": "s",
    "runner.cache_hit_frac": "fraction",
    "serve.submit_p50_s": "s",
    "serve.interactive.wait_p50_s": "s",
    "serve.interactive.service_p50_s": "s",
    "serve.interactive.delivery_p50_s": "s",
    "serve.batch.wait_p50_s": "s",
    "serve.batch.cold_service_s": "s",
    "serve.batch.warm_service_s": "s",
    "serve.dispatched.interactive": "count",
    "serve.dispatched.batch": "count",
    "serve.rejected": "count",
    "trace_overhead_frac": "fraction",
}


def source_identity() -> dict:
    """The commit when the checkout is a git work tree, and always a
    digest of the simulator's sources (the benchmark's checkout need not
    be a repository)."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_path = ROOT / ".git" / ref[5:]
            if ref_path.exists():
                commit = ref_path.read_text().strip()
            else:
                packed = (ROOT / ".git" / "packed-refs").read_text()
                commit = next((line.split()[0] for line in packed.splitlines()
                               if line.endswith(" " + ref[5:])), "unknown")
        else:
            commit = ref
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


def host_metadata() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()) if hasattr(os, "getloadavg") else None,
    }


def _fingerprints(workload: str, seed: int, prints: dict, outcomes,
                  record: bool) -> dict:
    """Write this run's fingerprints; check (or ``record``) the reference."""
    from metric_rules import check_fingerprints

    observed = {cell: fp for cell, (_, fp) in sorted(prints.items())}
    path = OUT / f"fingerprints-{workload}-seed{seed}.json"
    path.write_text(json.dumps(observed, indent=1, sort_keys=True) + "\n")
    table = json.loads(RECORDED.read_text()) if RECORDED.exists() else {}
    recorded = table.get(workload, {}).get(str(seed), {})
    if record:
        recorded.update(observed)
        table.setdefault(workload, {})[str(seed)] = dict(sorted(recorded.items()))
        RECORDED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        return {"written": str(path.relative_to(ROOT)), "recorded": len(observed)}
    checked, mismatched = check_fingerprints(outcomes, prints, recorded)
    return {"written": str(path.relative_to(ROOT)), "checked": checked,
            "mismatched": mismatched, "unchecked": len(observed) - checked}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's fingerprints as the reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources under {ROOT / 'src'}; run "
              "from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    OUT.mkdir(exist_ok=True)

    started = time.time()
    traced = bool(args.trace)
    if args.workload == "serve_mix":
        import serve_mix

        part = serve_mix.run(args.seed, args.seconds, traced, str(ROOT), OUT)
    else:
        import detail

        part = detail.run(args.workload, args.seed, args.seconds, traced,
                          str(ROOT))
    outcomes = part["outcomes"]
    fingerprints = _fingerprints(args.workload, args.seed, part["prints"],
                                 outcomes, args.record)
    failed = len(outcomes.failed)
    measured = part["metrics"]
    if not traced:
        if "peak_rss_mb" not in measured:
            import resource

            measured["peak_rss_mb"] = (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        measured["success_rate"] = 1.0 - outcomes.error_rate
    catalogue = PER_LAYER if traced else END_TO_END
    metrics = {name: {"value": measured.get(name, 0), "unit": unit}
               for name, unit in catalogue.items()}

    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "started": started,
        "wall_s": time.time() - started,
        "host": host_metadata(), "source": source_identity(),
        "attempted": outcomes.attempted, "failed": failed,
        "error_rate": outcomes.error_rate,
        "failures": dict(list(outcomes.failed.items())[:20]),
        "fingerprints": fingerprints, "info": part["info"],
        "metrics": metrics,
    }
    report_path = OUT / (f"report-{args.workload}-seed{args.seed}"
                         f"-trace{args.trace}.json")
    report_path.write_text(json.dumps(report, indent=1) + "\n")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"commit={report['source']['commit'][:12]} "
          f"src={report['source']['src_sha256']}")
    print(f"host: {json.dumps(report['host'])}")
    for name, metric in metrics.items():
        exercised = "" if name in measured else "   (not exercised)"
        print(f"  {name:34s} {metric['value']!r:>24} {metric['unit']}{exercised}")
    print(f"  error_rate {outcomes.error_rate} ({failed} of "
          f"{outcomes.attempted} operations failed)")
    for op, reason in report["failures"].items():
        print(f"    failed {op}: {reason}")
    print(f"fingerprints: {json.dumps(fingerprints)}")
    print(f"info: {json.dumps(part['info'])}")
    print(f"report: {report_path.relative_to(ROOT)}")
    print(json.dumps({"correct": failed == 0, "attempted": outcomes.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
