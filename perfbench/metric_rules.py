"""The benchmark's own metric arithmetic, kept free of simulator imports
so that ``perfbench/tests`` can check it in isolation.

* :func:`tail_percentile` — the highest percentile that still has at
  least ten samples beyond it, with the sample count.
* :func:`self_times` — a span's duration minus the part of it that its
  child spans cover.
* :func:`activity` / :func:`is_quiet` — the quiet-cycle predicate.
* :class:`Outcomes` and :func:`check_fingerprints` — failed ÷ attempted
  operations, where a simulated-stat fingerprint mismatch is a failure.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: samples a reported tail percentile must have strictly beyond it
TAIL_MIN_BEYOND = 10


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def tail_percentile(samples: Sequence[float],
                    min_beyond: int = TAIL_MIN_BEYOND) -> Tuple[float, float, int]:
    """``(percentile, value, n)`` of the highest percentile with at least
    ``min_beyond`` of the ``n`` samples above it.

    The ``k``-th smallest sample (0-based) has ``n - 1 - k`` samples
    beyond it and sits at percentile ``100 * (k + 1) / n``.  With too few
    samples for any such percentile the maximum is returned with its
    percentile of 100, and the caller reports that ``n`` was too small.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    k = n - 1 - min_beyond
    if k < 0:
        return 100.0, ordered[-1], n
    return 100.0 * (k + 1) / n, ordered[k], n


def covered(intervals: Iterable[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals
                     if b > lo and a < hi)
    total = 0.0
    cur_a: Optional[float] = None
    cur_b = 0.0
    for a, b in clipped:
        if cur_a is None or a > cur_b:
            if cur_a is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_a is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Mapping]) -> Dict[str, float]:
    """Span id -> duration minus the union of its children's intervals.

    ``spans`` are span records as ``repro serve --spans`` writes them
    (``span_id``, ``parent_id``, ``start_t``, ``end_t``); unfinished
    spans are skipped.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    for span in spans:
        if span.get("end_t") is not None and span.get("parent_id"):
            children.setdefault(span["parent_id"], []).append(
                (span["start_t"], span["end_t"]))
    out: Dict[str, float] = {}
    for span in spans:
        if span.get("end_t") is None:
            continue
        lo, hi = span["start_t"], span["end_t"]
        out[span["span_id"]] = (hi - lo) - covered(
            children.get(span["span_id"], ()), lo, hi)
    return out


def activity(pipe) -> Tuple[int, int, int, int, int, int]:
    """What a :class:`repro.core.pipeline.Pipeline` cycle can visibly
    change: µops fetched, issued and committed so far, the decode and
    dispatch queue lengths and the ROB occupancy."""
    stats = pipe.stats
    return (stats.fetched, stats.issued, stats.committed,
            len(pipe.decode_queue), len(pipe.dispatch_queue), len(pipe.rob))


def is_quiet(before: Tuple, after: Tuple) -> bool:
    """A cycle is quiet when ``step()`` changed none of :func:`activity`."""
    return before == after


class Outcomes:
    """Operations attempted, and the ones that failed with their reason.

    An operation fails at most once, whatever the number of reasons.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed: Dict[str, str] = {}

    def attempt(self) -> None:
        self.attempted += 1

    def fail(self, op: str, reason: str) -> None:
        self.failed.setdefault(op, reason)

    @property
    def error_rate(self) -> float:
        return len(self.failed) / self.attempted if self.attempted else 0.0


def fingerprint(result: Mapping) -> List:
    """``[cycles, committed, ipc]`` of a ``SimResult.to_dict()`` payload —
    for a sampled result these are its extrapolated estimates."""
    stats = result["stats"]
    cycles, committed = stats["cycles"], stats["committed"]
    return [cycles, committed, round(committed / cycles, 9) if cycles else 0.0]


def check_fingerprints(outcomes: Outcomes, observed: Mapping[str, Tuple[str, List]],
                       recorded: Mapping[str, List]) -> Tuple[int, int]:
    """Fail every operation whose cell fingerprint differs from the record.

    ``observed`` maps cell id -> ``(operation id, fingerprint)``; cells
    absent from ``recorded`` are not checked.  Returns ``(checked,
    mismatched)``.
    """
    checked = mismatched = 0
    for cell, (op, print_) in observed.items():
        want = recorded.get(cell)
        if want is None:
            continue
        checked += 1
        if list(want) != list(print_):
            mismatched += 1
            outcomes.fail(op, f"fingerprint mismatch on {cell}: "
                              f"recorded {want}, got {print_}")
    return checked, mismatched
