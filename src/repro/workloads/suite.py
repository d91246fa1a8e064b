"""The default evaluation suite.

The paper averages over SPEC CPU2006/2017; here the suite is the thirteen
kernels in :mod:`repro.workloads.kernels`.  :func:`get_trace` memoises each
trace per ``(name, target_ops, seed)`` in an in-process ``lru_cache``,
because every benchmark replays the same traces across many scheduler
configurations.  Nothing is persisted: rebuilding a trace by functional
execution is cheaper than reading it back from disk, so each process —
each pool worker included — builds the traces it simulates.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

from .kernels import KERNELS, build_trace
from .trace import Trace

#: Kernels in the default suite, in report order.
SUITE_NAMES: Tuple[str, ...] = tuple(
    name for name, spec in KERNELS.items() if spec.in_suite
)

#: A fast subset used by unit/integration tests.
SMOKE_NAMES: Tuple[str, ...] = (
    "stream_triad",
    "pointer_chase",
    "matmul_tile",
    "histogram",
)


@lru_cache(maxsize=128)
def get_trace(name: str, target_ops: int = 20_000, seed: int = 7) -> Trace:
    """Build (or fetch this process's cached) trace for one suite kernel."""
    return build_trace(name, target_ops=target_ops, seed=seed)


def default_suite(
    target_ops: int = 20_000,
    seed: int = 7,
    names: Sequence[str] = SUITE_NAMES,
) -> List[Trace]:
    """Return traces for every kernel in ``names`` (default: full suite)."""
    return [get_trace(name, target_ops, seed) for name in names]


def suite_summaries(target_ops: int = 20_000, seed: int = 7) -> Dict[str, Dict]:
    """Per-kernel trace summaries — handy for workload characterisation."""
    return {
        trace.name: trace.summary() for trace in default_suite(target_ops, seed)
    }
