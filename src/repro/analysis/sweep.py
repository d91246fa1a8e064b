"""Structured parameter sweeps over (configs x workloads).

A thin layer above :class:`~repro.analysis.runner.ExperimentRunner` for
design-space exploration: declare the axes, get back a tidy list of
records plus aggregate helpers.  Used by ``examples/design_space.py``-style
studies and handy for ad-hoc research scripts.
"""

from __future__ import annotations

import contextlib
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence

from ..core.config import CoreConfig, config_for
from ..core.sampling import with_sampling
from ..core.stats import SimResult
from ..workloads.suite import SUITE_NAMES
from .runner import ExperimentRunner, geomean


@dataclass(frozen=True)
class SweepPoint:
    """One (config, workload) cell of a sweep.

    ``result`` is normally a :class:`~repro.core.stats.SimResult`; a cell
    quarantined by the fault-tolerant runner carries a
    :class:`~repro.analysis.runner.FailedResult` instead (``ok`` False).
    """

    params: Dict[str, object]
    workload: str
    result: SimResult

    @property
    def ok(self) -> bool:
        return self.result.ok

    @property
    def ipc(self) -> float:
        return self.result.ipc

    @property
    def seconds(self) -> float:
        return self.result.seconds


@dataclass
class SweepResult:
    """All cells of a sweep, with aggregation helpers.

    Aggregations (:meth:`geomean_ipc`, :meth:`best`) skip quarantined
    cells so one poisoned cell degrades the sweep instead of crashing
    it; :attr:`failures` lists what was skipped.
    """

    points: List[SweepPoint]

    @property
    def failures(self) -> List[SweepPoint]:
        """Cells the runner quarantined (``result`` is a FailedResult)."""
        return [p for p in self.points if not p.ok]

    def filter(self, **params) -> "SweepResult":
        """Cells whose parameters match every given key=value."""
        kept = [
            p for p in self.points
            if all(p.params.get(k) == v for k, v in params.items())
        ]
        return SweepResult(kept)

    def geomean_ipc(self, **params) -> float:
        cells = self.filter(**params).points
        return geomean([p.ipc for p in cells if p.ok])

    def best(self, metric: Callable[[SweepPoint], float]) -> SweepPoint:
        """The healthy cell maximising ``metric``."""
        healthy = [p for p in self.points if p.ok]
        if not healthy:
            raise ValueError("empty sweep")
        return max(healthy, key=metric)

    def table(self, metric: Callable[[SweepPoint], float] = None):
        """(params, workload, value) triples for rendering."""
        metric = metric if metric is not None else (lambda p: p.ipc)
        return [
            (dict(p.params), p.workload, metric(p)) for p in self.points
        ]

    def __len__(self) -> int:
        return len(self.points)


def sweep(
    axes: Mapping[str, Sequence],
    config_builder: Callable[..., CoreConfig] = None,
    workloads: Sequence[str] = SUITE_NAMES,
    runner: Optional[ExperimentRunner] = None,
    sampling: Optional[Dict[str, int]] = None,
) -> SweepResult:
    """Run the cartesian product of ``axes`` over ``workloads``.

    Args:
        axes: parameter name -> values; each combination is passed as
            keyword arguments to ``config_builder``.
        config_builder: ``f(**params) -> CoreConfig``; defaults to
            :func:`~repro.core.config.config_for` (so an ``arch`` axis is
            expected, plus optional ``width`` / ``num_piqs`` / ...).
        workloads: kernels to run each configuration on.
        runner: shared (cached) runner, whose ``jobs`` worker processes
            run the uncached cells; a default one (one worker) is
            created and closed if absent.  Results are identical
            whatever the worker count: workers merge through the disk
            cache.
        sampling: when given, every built config is wrapped with
            :func:`~repro.core.sampling.with_sampling` (keys: ``period``,
            ``window``, ``warmup``, ``ff_width``, ``ff_warmup_ops``) so
            the whole sweep runs in sampled mode; ``{}`` uses the
            defaults.  Sampled cells cache separately from full runs.

    Example::

        result = sweep(
            {"arch": ["ballerino"], "num_piqs": [5, 7, 9, 11]},
            workloads=["dag_wide", "hash_probe"],
        )
        result.geomean_ipc(num_piqs=11)
    """
    if runner is None:
        with contextlib.closing(ExperimentRunner()) as runner:
            return sweep(axes, config_builder, workloads, runner, sampling)
    config_builder = config_builder if config_builder is not None else config_for
    names = list(axes)
    cells: List[tuple] = []
    for combo in itertools.product(*(axes[name] for name in names)):
        params = dict(zip(names, combo))
        config = config_builder(**params)
        if sampling is not None:
            config = with_sampling(config, **sampling)
        for workload in workloads:
            cells.append((params, workload, config))
    results = runner.run_many(
        [(workload, config) for _, workload, config in cells])
    points = [
        SweepPoint(params=params, workload=workload, result=result)
        for (params, workload, _), result in zip(cells, results)
    ]
    return SweepResult(points)
