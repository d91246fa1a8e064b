"""Wall-clock performance harness for the simulator and experiment runner.

Times a small suite matrix under the experiment runner in four phases —
trace construction, serial (one-worker) cold run, parallel cold run,
fully-cached warm run — plus single-simulation and sampled-tier
microbenchmarks, and writes the numbers to a JSON file (``--out``, or
``$REPRO_BENCH_OUT``, default ``BENCH.json``)::

    PYTHONPATH=src python benchmarks/perf_harness.py --smoke
    PYTHONPATH=src python benchmarks/perf_harness.py --jobs 8 --ops 20000

``benchmarks/compare_bench.py`` diffs two such reports and fails on
regressions (the CI perf gate; see docs/performance.md).

The JSON records wall-clock seconds, simulations per second, and cache
hits per phase (see docs/performance.md for how to read it).  ``--smoke``
shrinks the matrix for CI.  All phases use throwaway cache directories,
so the harness never pollutes (or benefits from) the repo's
``.bench_cache``.

On a single-core machine the parallel phase is recorded as skipped (a
process pool cannot beat serial there — its spawn/IPC overhead would
read as a fake regression) and the warm phase runs off the serial
phase's cache instead.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from repro.analysis.runner import ExperimentRunner  # noqa: E402
from repro.core.config import config_for  # noqa: E402
from repro.core.pipeline import simulate  # noqa: E402
from repro.core.sampling import with_sampling  # noqa: E402
from repro.workloads.suite import SMOKE_NAMES, get_trace  # noqa: E402

SMOKE_ARCHES = ("ooo", "ballerino", "ces")
FULL_ARCHES = ("inorder", "ooo", "ces", "casino", "fxa", "ballerino", "dnb")

#: the sampled-vs-full speedup microbench: one long trace, knobs tuned so
#: ~4.5% of it is measured (3 windows) and the rest fast-forwarded with a
#: bounded warm-up stretch before each window (docs/performance.md)
SAMPLED_OPS = 200_000
SAMPLED_KNOBS = dict(period=67_000, window=3_000, warmup=0,
                     ff_warmup_ops=2_000)


def _phase(fn):
    start = time.perf_counter()
    value = fn()
    return time.perf_counter() - start, value


def _timed_batch(tasks, ops: int, cache_dir: str, jobs: int):
    """``(seconds, runner)`` of one ``run_many(tasks)`` on a fresh
    ``jobs``-worker runner; the runner is closed after the clock stops."""
    with contextlib.closing(ExperimentRunner(
            target_ops=ops, cache_dir=cache_dir, jobs=jobs)) as runner:
        seconds, _ = _phase(lambda: runner.run_many(tasks))
    return seconds, runner


def host_metadata() -> dict:
    """Where this report was measured — wall-clock numbers only compare
    within one host, so the report carries enough identity for
    ``compare_bench.py`` to warn on cross-host diffs."""
    import platform

    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_harness(ops: int, jobs: int, smoke: bool) -> dict:
    workloads = SMOKE_NAMES if smoke else SMOKE_NAMES + ("mdep_chain", "dag_wide")
    arches = SMOKE_ARCHES if smoke else FULL_ARCHES
    tasks = [(w, config_for(a)) for a in arches for w in workloads]
    report = {
        "ops": ops,
        "jobs": jobs,
        "cpu_count": os.cpu_count(),
        "host": host_metadata(),
        "workloads": list(workloads),
        "arches": list(arches),
        "simulations": len(tasks),
        "phases": {},
    }

    def record(name, seconds, runner=None, sims=None):
        sims = runner.simulations_run if sims is None else sims
        report["phases"][name] = {
            "seconds": round(seconds, 3),
            "simulations": sims,
            "sims_per_sec": round(sims / seconds, 2) if seconds > 0 else None,
            "cache_hits": runner.cache_hits if runner is not None else 0,
        }

    # 0) trace construction (functional execution), so the cold phases
    #    below time *simulation*, not workload generation
    seconds, _ = _phase(lambda: [get_trace(w, ops, 7) for w in workloads])
    report["phases"]["trace_warm"] = {
        "seconds": round(seconds, 3), "traces": len(workloads)
    }

    single_core = (os.cpu_count() or 1) == 1

    # 1) serial cold: one worker, one cell at a time, empty result cache
    with tempfile.TemporaryDirectory() as cold_dir:
        record("serial_cold", *_timed_batch(tasks, ops, cold_dir, 1))
        if single_core:
            # 3) warm phase runs off the serial cache instead (below, it
            #    runs off the parallel phase's cache)
            record("warm_cached", *_timed_batch(tasks, ops, cold_dir, jobs))

    if single_core:
        # a process pool on one core only adds spawn + pickle overhead:
        # serial-vs-parallel would measure that noise, not scaling, so
        # the comparison is recorded as skipped rather than as a bogus
        # slowdown that would trip the regression gate
        report["phases"]["parallel_cold"] = {
            "skipped": "cpu_count == 1: parallel speedup is undefined "
                       "on a single core",
        }
        report["parallel_speedup"] = None
    else:
        with tempfile.TemporaryDirectory() as cold_dir:
            record("parallel_cold",
                   *_timed_batch(tasks, ops, cold_dir, jobs))
            # 3) warm: everything served from the parallel run's cache
            record("warm_cached", *_timed_batch(tasks, ops, cold_dir, jobs))

        serial = report["phases"]["serial_cold"]["seconds"]
        parallel = report["phases"]["parallel_cold"]["seconds"]
        report["parallel_speedup"] = (
            round(serial / parallel, 2) if parallel else None)

    # 4) single-simulation microbench (the event-driven wakeup fast path)
    trace = get_trace(workloads[0], ops, 7)
    for arch in ("ooo", "ballerino"):
        config = config_for(arch)
        seconds, result = _phase(lambda: simulate(trace, config))
        report["phases"][f"single_sim_{arch}"] = {
            "seconds": round(seconds, 3),
            "cycles": result.cycles,
            "kcycles_per_sec": round(result.cycles / seconds / 1000, 1),
        }

    # 5) sampled sweep: the same matrix through the sampled tier, cold
    #    cache — exercises dispatch + extrapolation end to end and pins
    #    its overhead in the regression gate
    sampled_tasks = [
        (w, with_sampling(config_for(a), period=1000, window=1000, warmup=0))
        for a in arches for w in workloads
    ]
    with tempfile.TemporaryDirectory() as sampled_dir:
        record("sampled_sweep",
               *_timed_batch(sampled_tasks, ops, sampled_dir, 1))

    # 6) sampled speedup: one long trace, full-detail vs sampled — the
    #    headline number (>= 10x with < 5% IPC error, docs/performance.md)
    long_trace = get_trace("stream_triad", SAMPLED_OPS, 7)
    full_cfg = config_for("ooo")
    seconds, full = _phase(lambda: simulate(long_trace, full_cfg))
    report["phases"]["single_full_200k"] = {
        "seconds": round(seconds, 3),
        "cycles": full.cycles,
        "kcycles_per_sec": round(full.cycles / seconds / 1000, 1),
    }
    sampled_cfg = with_sampling(full_cfg, **SAMPLED_KNOBS)
    seconds, sampled = _phase(lambda: simulate(long_trace, sampled_cfg))
    report["phases"]["single_sampled_200k"] = {
        "seconds": round(seconds, 3),
        "cycles": sampled.cycles,
        "kcycles_per_sec": round(sampled.cycles / seconds / 1000, 1),
        "windows": sampled.sampling["windows"],
        "measured_ops": sampled.sampling["measured_ops"],
    }
    full_s = report["phases"]["single_full_200k"]["seconds"]
    sampled_s = report["phases"]["single_sampled_200k"]["seconds"]
    report["sampled_speedup"] = (
        round(full_s / sampled_s, 2) if sampled_s else None)
    report["sampled_ipc_error"] = (
        round(abs(sampled.ipc - full.ipc) / full.ipc, 4) if full.ipc else None)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="small matrix for CI (4 workloads x 3 arches)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="workers for the parallel phase "
                             "(default: cpu count, capped at 8)")
    parser.add_argument("--ops", type=int, default=None,
                        help="micro-ops per trace (default: 3000 smoke, "
                             "10000 full)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="output JSON path (default: $REPRO_BENCH_OUT "
                             "or BENCH.json)")
    args = parser.parse_args(argv)

    out = args.out or os.environ.get("REPRO_BENCH_OUT") or "BENCH.json"
    jobs = args.jobs if args.jobs else min(os.cpu_count() or 1, 8)
    ops = args.ops if args.ops else (3000 if args.smoke else 10_000)
    report = run_harness(ops=ops, jobs=jobs, smoke=args.smoke)
    Path(out).write_text(json.dumps(report, indent=2) + "\n")

    phases = report["phases"]
    print(f"wrote {out}")
    print(f"  serial cold    {phases['serial_cold']['seconds']:8.2f}s "
          f"({phases['serial_cold']['sims_per_sec']} sims/s)")
    if "skipped" in phases["parallel_cold"]:
        print(f"  parallel cold  skipped: {phases['parallel_cold']['skipped']}")
    else:
        print(f"  parallel cold  {phases['parallel_cold']['seconds']:8.2f}s "
              f"(jobs={jobs}, speedup {report['parallel_speedup']}x)")
    print(f"  warm cached    {phases['warm_cached']['seconds']:8.2f}s "
          f"({phases['warm_cached']['cache_hits']} hits)")
    for arch in ("ooo", "ballerino"):
        p = phases[f"single_sim_{arch}"]
        print(f"  single {arch:10s} {p['seconds']:6.2f}s "
              f"({p['kcycles_per_sec']} kcycles/s)")
    print(f"  sampled sweep  {phases['sampled_sweep']['seconds']:8.2f}s "
          f"({phases['sampled_sweep']['sims_per_sec']} sims/s)")
    print(f"  sampled 200k   "
          f"{phases['single_sampled_200k']['seconds']:8.2f}s vs "
          f"{phases['single_full_200k']['seconds']:.2f}s full "
          f"(speedup {report['sampled_speedup']}x, "
          f"IPC err {100 * report['sampled_ipc_error']:.1f}%)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
