"""The in-process full-detail workloads: ``detail_memory`` and
``detail_compute``.

One *pass* runs ``simulate()`` once on every (kernel, arch) cell of the
workload; a run repeats passes until its time is up and reports each
cell's fastest run (see :func:`_best`).  Each ``simulate()`` call is one
operation.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, NamedTuple, Tuple

from host_probe import REFERENCE_S, probe
from layers import LAYERS, run_traced
from metric_rules import Outcomes, fingerprint, median

#: kernel -> target µops, and the arches every kernel runs on.  The
#: sizes give each kernel a similar share of a pass's host time.  Longer
#: compute traces would be less quiet (start-up cycles wait on cold
#: caches) but would leave fewer runs of each cell to take the fastest of.
SPECS: Dict[str, Tuple[Tuple[Tuple[str, int], ...], Tuple[str, ...]]] = {
    "detail_memory": ((("pointer_chase", 1500), ("stream_triad", 6000)),
                      ("ooo", "ballerino")),
    "detail_compute": ((("matmul_tile", 3600), ("dag_wide", 3000),
                        ("histogram", 3000)),
                       ("ooo", "ballerino", "ces", "casino", "fxa")),
}

STALL_CATEGORIES = ("commit", "frontend", "squash", "memory", "not_ready",
                    "port_conflict", "iq_full")

#: times the set-up is repeated in a fresh interpreter; set-up time is
#: their median
SETUP_REPEATS = 5

_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]);"
    "from repro.core.config import config_for;"
    "from repro.core.pipeline import simulate;"
    "from repro.workloads.kernels import build_trace;"
    "seed = int(sys.argv[2]); args = sys.argv[3:];"
    "[build_trace(k, int(n), seed) for k, n in zip(args[::2], args[1::2])]"
)


def sampling_knobs(ops: int) -> Dict[str, int]:
    """Sampled-tier knobs scaled to a trace, so it is sampled, not run whole."""
    return dict(period=max(1, ops // 3), window=max(1, ops // 8), warmup=0,
                ff_warmup_ops=ops // 16)


def measure_setup(root: str, kernels, seed: int) -> List[float]:
    """Wall seconds of a fresh interpreter importing the simulator and
    building the workload's traces, once per repeat."""
    args = [str(part) for kernel, ops in kernels for part in (kernel, ops)]
    cmd = [sys.executable, "-c", _SETUP_CODE, os.path.join(root, "src"),
           str(seed), *args]
    env = dict(os.environ, REPRO_TRACE_CACHE="")
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, env=env, timeout=120,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    return times


class _Cell(NamedTuple):
    id: str
    trace: object
    config: object


def _build_cells(workload: str, seed: int) -> List[_Cell]:
    from repro.core.config import config_for
    from repro.workloads.kernels import build_trace

    kernels, arches = SPECS[workload]
    traces = {k: build_trace(k, ops, seed) for k, ops in kernels}
    return [_Cell(f"{k}/{config.name}", traces[k], config)
            for k, _ in kernels for config in map(config_for, arches)]


def _passes(cells, seconds: float, outcomes: Outcomes, prints: Dict,
            runner, label: str, probes: List[float]
            ) -> List[List[Tuple[_Cell, object, float, Dict]]]:
    """Passes until ``seconds`` have elapsed; the first pass is whole, the
    last may stop part-way.  The host probe runs after every pass."""
    passes: List[list] = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        rows = []
        for cell in cells:
            if passes and time.perf_counter() >= deadline:
                break
            op = f"{label}{len(passes)}:{cell.id}"
            outcomes.attempt()
            start = time.perf_counter()
            try:
                result, extra = runner(cell)
            except Exception as exc:  # a failed operation, not a failed run
                outcomes.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            elapsed = time.perf_counter() - start
            print_ = fingerprint(result.to_dict())
            first = prints.setdefault(cell.id, (op, print_))[1]
            if result.stats.committed != len(cell.trace):
                outcomes.fail(op, f"{cell.id}: committed "
                                  f"{result.stats.committed} of {len(cell.trace)}")
            elif print_ != first:
                outcomes.fail(op, f"{cell.id}: {print_} differs from the "
                                  f"first run's {first}")
            rows.append((cell, result, elapsed, extra))
        passes.append(rows)
        probes.append(probe())
    return passes


def _untraced(cell):
    from repro.core.pipeline import simulate

    return simulate(cell.trace, cell.config), {}


def _traced(cell):
    return run_traced(cell.trace, cell.config)


def run(workload: str, seed: int, seconds: float, traced: bool,
        root: str) -> Dict:
    """Run one detail workload; returns the report fragment for run.py."""
    from repro.core.pipeline import simulate
    from repro.core.sampling import with_sampling

    kernels, _ = SPECS[workload]
    outcomes = Outcomes()
    prints: Dict[str, Tuple[str, list]] = {}
    metrics: Dict[str, float] = {}
    info: Dict[str, object] = {}

    probes: List[float] = []
    if not traced:
        setup = measure_setup(root, kernels, seed)
        probes.append(probe())
    cells = _build_cells(workload, seed)
    plain = _best(_passes(cells, seconds / 2 if traced else seconds,
                          outcomes, prints, _untraced, "p", probes),
                  info, "passes")
    plain_s = sum(row[2] for row in plain.values())

    if not traced:
        # host seconds, scaled to the reference host speed (host_probe.py)
        scale = REFERENCE_S / min(probes)
        info["host_probe"] = {"fastest_s": min(probes), "scale": scale,
                              "unscaled": {"setup_s": median(setup),
                                           "pass_s": plain_s}}
        info["setup_runs_s"] = setup
        metrics["setup_s"] = median(setup) * scale
        best = [row[2] * scale for row in plain.values()]
        metrics["uops_per_s"] = sum(row[1].stats.committed
                                    for row in plain.values()) / sum(best)
        # one latency per cell: too few for a percentile with ten samples
        # beyond it, so the tail is the slowest cell
        metrics["interactive_p50_s"] = median(best)
        metrics["interactive_tail_s"] = max(best)
        info["interactive_tail"] = {"percentile": 100.0,
                                    "samples": len(best)}
        metrics["batch_cells_per_s"] = len(best) / sum(best)
        errors = []
        full_ipc = {cell_id: row[1].ipc for cell_id, row in plain.items()}
        for cell in cells:
            op = f"sampled:{cell.id}"
            outcomes.attempt()
            try:
                sampled = simulate(cell.trace, with_sampling(
                    cell.config, **sampling_knobs(len(cell.trace))))
            except Exception as exc:
                outcomes.fail(op, f"{type(exc).__name__}: {exc}")
                continue
            prints[f"{cell.id}/sampled"] = (op, fingerprint(sampled.to_dict()))
            if cell.id in full_ipc:
                errors.append(abs(sampled.ipc - full_ipc[cell.id])
                              / full_ipc[cell.id])
        metrics["sampled_ipc_err"] = statistics.fmean(errors) if errors else 0.0
        return {"metrics": metrics, "outcomes": outcomes, "prints": prints,
                "info": info}

    # traced half: the same cells through run_traced
    build = []
    from repro.workloads.kernels import build_trace
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        for kernel, ops in kernels:
            build_trace(kernel, ops, seed)
        build.append(time.perf_counter() - start)
    metrics["workloads.trace_build_s"] = median(build)

    layered = _best(_passes(cells, seconds / 2, outcomes, prints, _traced,
                            "t", probes), info, "traced_passes")
    metrics.update(_layer_metrics(plain_s, list(layered.values())))
    info["quiet_census"] = {cell_id: round(row[3]["quiet"] / row[3]["steps"], 4)
                            for cell_id, row in layered.items()}
    return {"metrics": metrics, "outcomes": outcomes, "prints": prints,
            "info": info}


def _best(passes, info: Dict, label: str) -> Dict[str, tuple]:
    """Each cell's fastest run of the passes.

    The host's speed drifts by tens of percent while other work shares
    it; a cell's fastest run is the figure that repeats best from run to
    run (see README.md, "Steadiness")."""
    info[label] = len(passes)
    info[f"{label}_s"] = [round(sum(row[2] for row in rows), 4)
                          for rows in passes]
    best: Dict[str, tuple] = {}
    for rows in passes:
        for row in rows:
            if row[0].id not in best or row[2] < best[row[0].id][2]:
                best[row[0].id] = row
    return best


def _layer_metrics(plain_s: float, rows) -> Dict[str, float]:
    """Layer figures of one pass, each cell taken from its fastest traced
    run; ``plain_s`` is the same pass untraced."""
    metrics: Dict[str, float] = {}
    stats = [row[1].stats for row in rows]
    cycles = sum(s.cycles for s in stats)
    steps = sum(row[3]["steps"] for row in rows)
    step_s = sum(row[3]["step_s"] for row in rows)
    busy = {layer: sum(row[3]["clock"].busy[layer] for row in rows)
            for layer in LAYERS}
    calls = {layer: sum(row[3]["clock"].calls[layer] for row in rows)
             for layer in LAYERS}
    selects = sum(row[3]["clock"].method_calls[("sched", "select")]
                  for row in rows)

    metrics["core.cycles"] = cycles
    metrics["core.step_calls"] = steps
    metrics["core.quiet_cycle_frac"] = sum(row[3]["quiet"] for row in rows) / steps
    metrics["core.host_us_per_cycle"] = plain_s / cycles * 1e6
    metrics["core.kcycles_per_s"] = cycles / plain_s / 1000
    metrics["core.self_s"] = step_s - sum(busy.values())
    metrics["core.useful_frac"] = (sum(s.committed for s in stats)
                                   / sum(s.fetched for s in stats))
    for layer in LAYERS:
        metrics[f"{layer}.busy_s"] = busy[layer]
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.share"] = busy[layer] / step_s
    metrics["sched.issued_per_select"] = (sum(s.issued for s in stats)
                                          / selects)
    memory = [row[1].memory_stats for row in rows]
    l1d_hits = sum(m["l1d"]["hits"] for m in memory)
    l1d_misses = sum(m["l1d"]["misses"] for m in memory)
    metrics["memory.l1d_miss_rate"] = l1d_misses / (l1d_hits + l1d_misses)
    metrics["memory.dram_reads"] = sum(m["dram"]["accesses"] for m in memory)
    metrics["frontend.mispredict_rate"] = (
        sum(s.branch_mispredicts for s in stats)
        / max(1, sum(s.branch_lookups for s in stats)))
    for category in STALL_CATEGORIES:
        metrics[f"stall.{category}_frac"] = (
            sum(s.stall_cycles.get(category, 0) for s in stats) / cycles)
    metrics["trace_overhead_frac"] = sum(row[2] for row in rows) / plain_s - 1
    return metrics
