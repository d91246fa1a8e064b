"""Sharded campaign execution with run-log streaming and ordered merge.

A **campaign** is a design-space matrix — the same workload-major
``(workload, arch, width, seed)`` expansion the serve protocol uses —
executed as N **shards**, each typically on its own host.  Cells are
assigned to shards by a salted hash of the cell label, so the
partition is a pure function of ``(salt, cell)``: every host computes
the same assignment with no coordination, and re-salting rebalances a
pathological split without touching any code.

Each shard runs through the fault-tolerant
:class:`~repro.analysis.runner.ExperimentRunner` with a per-shard
JSONL run-log (``shard-K-of-N.jsonl`` under the campaign directory)
and the shared disk cache as the merge point — exactly the PR-2/PR-4
contract, now spanning hosts that share the cache directory (NFS, a
synced bucket, or one machine's disk).

The **merge stage** walks the reconciliation detector's verdicts
(:mod:`repro.distrib.reconcile`) in submission order: healthy cells
merge their cached results, quarantined ones their failure records, and
every other cell is a gap — the cells a dead shard owed, or whose
result was lost, which ``repro reconcile`` repairs.

The campaign **manifest** (``campaign.json``) pins the matrix, shard
count, salt, ops and default seed, so every shard — and a later
``repro reconcile`` — agrees on the expected cell set without
re-passing axes on every command line.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..analysis.runner import ExperimentRunner, FailedResult
from ..core.stats import SimResult
from ..serve.protocol import Cell, expand_matrix, result_envelope
from ..telemetry.spans import (Span, SpanContext, SpanRecorder,
                               derive_span_id, derive_trace_id, merge_spans,
                               read_spans, spans_to_chrome, write_spans)

#: Manifest file name inside a campaign directory.
MANIFEST_NAME = "campaign.json"

#: Merged, submission-ordered result stream written by the merge stage.
MERGED_NAME = "merged.json"

#: Merged, deduplicated span stream written by :func:`merge_trace`.
MERGED_SPANS_NAME = "merged-spans.jsonl"

#: Chrome trace-event view of the merged spans (``chrome://tracing``).
TRACE_VIEW_NAME = "trace.json"


def cell_label(cell: Cell) -> str:
    """Stable human-readable identity of one cell (the sharding key)."""
    seed = "default" if cell.seed is None else cell.seed
    return f"{cell.workload}/{cell.arch}@{cell.width}#{seed}"


def shard_of(cell: Cell, n_shards: int, salt: int) -> int:
    """Which shard owns ``cell`` — a salted-hash pure function.

    Every host evaluates this identically, so the partition needs no
    coordinator; changing ``salt`` reshuffles the assignment.
    """
    if n_shards <= 0:
        raise ValueError(f"n_shards must be positive, got {n_shards}")
    digest = hashlib.sha256(f"{salt}:{cell_label(cell)}".encode()).digest()
    return int.from_bytes(digest[:8], "big") % n_shards


def shard_cells(
    cells: Sequence[Cell], n_shards: int, salt: int,
) -> List[List[Tuple[int, Cell]]]:
    """Partition ``cells`` into shards, keeping submission indices.

    Returns ``n_shards`` lists of ``(seq, cell)`` pairs; ``seq`` is the
    cell's index in the campaign's deterministic expansion order, which
    the merge stage restores.
    Every cell lands in exactly one shard.
    """
    shards: List[List[Tuple[int, Cell]]] = [[] for _ in range(n_shards)]
    for seq, cell in enumerate(cells):
        shards[shard_of(cell, n_shards, salt)].append((seq, cell))
    return shards


def shard_log_path(campaign_dir: Union[str, Path], shard: int,
                   n_shards: int) -> Path:
    return Path(campaign_dir) / f"shard-{shard}-of-{n_shards}.jsonl"


def shard_spans_path(campaign_dir: Union[str, Path], shard: int,
                     n_shards: int) -> Path:
    return Path(campaign_dir) / f"spans-{shard}-of-{n_shards}.jsonl"


def campaign_trace_id(spec: "CampaignSpec") -> str:
    """The campaign's deterministic trace id.

    Derived from the manifest payload, so every shard — on any host,
    with no coordination — agrees on the one trace its spans belong to
    (the same trick :func:`shard_of` plays for the cell partition).
    """
    return derive_trace_id(
        "campaign", json.dumps(spec.to_dict(), sort_keys=True))


def campaign_root_context(spec: "CampaignSpec") -> SpanContext:
    """Parent context of the whole campaign: the synthetic root span.

    Shards parent their ``shard`` span under this id without any shard
    actually writing the root; :func:`merge_trace` synthesises it from
    the merged shard spans' envelope.
    """
    trace_id = campaign_trace_id(spec)
    return SpanContext(trace_id, derive_span_id(trace_id, "campaign"))


@dataclass(frozen=True)
class CampaignSpec:
    """The declared design-space matrix plus execution parameters.

    ``seeds`` entries may be ``None`` ("the runner's default data
    seed", i.e. ``seed``), mirroring the serve protocol's cells.
    """

    workloads: Tuple[str, ...]
    arches: Tuple[str, ...]
    widths: Tuple[int, ...] = (8,)
    seeds: Tuple[Optional[int], ...] = (None,)
    ops: int = 10_000
    seed: int = 7
    n_shards: int = 1
    salt: int = 0

    def cells(self) -> List[Cell]:
        """The deterministic expansion (workload-major, like serve)."""
        return expand_matrix({
            "workloads": list(self.workloads),
            "arches": list(self.arches),
            "widths": list(self.widths),
            "seeds": list(self.seeds),
        })

    def shards(self) -> List[List[Tuple[int, Cell]]]:
        return shard_cells(self.cells(), self.n_shards, self.salt)

    def to_dict(self) -> Dict:
        return {
            "workloads": list(self.workloads),
            "arches": list(self.arches),
            "widths": list(self.widths),
            "seeds": list(self.seeds),
            "ops": self.ops,
            "seed": self.seed,
            "n_shards": self.n_shards,
            "salt": self.salt,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        return cls(
            workloads=tuple(data["workloads"]),
            arches=tuple(data["arches"]),
            widths=tuple(data.get("widths", [8])),
            seeds=tuple(data.get("seeds", [None])),
            ops=int(data.get("ops", 10_000)),
            seed=int(data.get("seed", 7)),
            n_shards=int(data.get("n_shards", 1)),
            salt=int(data.get("salt", 0)),
        )

    # ------------------------------------------------------------------
    def save(self, campaign_dir: Union[str, Path]) -> Path:
        """Write (or verify) the manifest atomically; returns its path.

        A manifest that already exists must describe the same campaign
        — shards of one campaign must agree on the matrix, or the
        reconciliation account could never balance.
        """
        root = Path(campaign_dir)
        root.mkdir(parents=True, exist_ok=True)
        path = root / MANIFEST_NAME
        payload = self.to_dict()
        if path.exists():
            existing = json.loads(path.read_text())
            if existing != payload:
                raise ValueError(
                    f"campaign manifest {path} describes a different "
                    f"campaign; refusing to overwrite (delete the "
                    f"directory to start over)")
            return path
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        os.replace(tmp, path)
        return path


def load_manifest(campaign_dir: Union[str, Path]) -> CampaignSpec:
    path = Path(campaign_dir) / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(
            f"no campaign manifest at {path} — run a shard (or pass the "
            f"matrix axes) first")
    return CampaignSpec.from_dict(json.loads(path.read_text()))


def make_runner(spec: CampaignSpec, cache_dir: Optional[str] = None,
                run_log: Optional[str] = "", **kwargs) -> ExperimentRunner:
    """An :class:`ExperimentRunner` wired for this campaign.

    ``run_log=""`` (the default) disables logging — shard runs pass
    their shard-log path instead, reconcile rounds ``reconcile.jsonl``.
    Everything else (jobs, timeouts, retries, spans) flows through.
    """
    return ExperimentRunner(
        target_ops=spec.ops, seed=spec.seed, cache_dir=cache_dir,
        run_log=run_log, **kwargs)


def run_shard(
    spec: CampaignSpec,
    shard: int,
    campaign_dir: Union[str, Path],
    cache_dir: Optional[str] = None,
    jobs: Optional[int] = None,
    task_timeout: Optional[float] = None,
    retries: Optional[int] = None,
    progress=None,
    spans: bool = False,
) -> List[Union[SimResult, FailedResult]]:
    """Execute one shard of the campaign on this host.

    Writes the manifest (first shard to start creates it; later shards
    verify it), streams the shard's JSONL run-log to
    ``shard-K-of-N.jsonl``, and runs the shard's cells through the
    fault-tolerant runner against the shared cache.  Returns the
    shard's results in shard-local order (the merge stage restores the
    campaign-global order).

    With ``spans=True`` the shard also writes ``spans-K-of-N.jsonl``:
    a ``shard`` span parented under the campaign's deterministic root
    (:func:`campaign_root_context`), with every cell span nested under
    it — ids are pure functions of the manifest and the cell key, so
    shards on different hosts emit one coherent trace with no
    coordination, and :func:`merge_trace` stitches the files together.
    """
    if not 0 <= shard < spec.n_shards:
        raise ValueError(
            f"shard {shard} outside 0..{spec.n_shards - 1}")
    spec.save(campaign_dir)
    log_path = shard_log_path(campaign_dir, shard, spec.n_shards)
    recorder: Optional[SpanRecorder] = None
    shard_span: Optional[Span] = None
    trace: Optional[SpanContext] = None
    if spans:
        recorder = SpanRecorder(
            str(shard_spans_path(campaign_dir, shard, spec.n_shards)))
        root = campaign_root_context(spec)
        shard_span = recorder.start(
            "shard", parent=root,
            span_id=derive_span_id(root.trace_id, "shard", shard),
            shard=shard, of=spec.n_shards, salt=spec.salt)
        trace = shard_span.context
    runner = make_runner(
        spec, cache_dir=cache_dir, run_log=str(log_path), jobs=jobs,
        task_timeout=task_timeout, retries=retries, progress=progress,
        spans=recorder)
    mine = spec.shards()[shard]
    runner._log("shard_start", shard=shard, of=spec.n_shards,
                cells=len(mine), salt=spec.salt)
    tasks = [cell.task(spec.seed) for _, cell in mine]
    try:
        results = runner.run_many(tasks, trace=trace)
        failed = sum(1 for result in results if not result.ok)
        runner._log("shard_end", shard=shard, of=spec.n_shards,
                    completed=len(results) - failed, failed=failed)
    finally:
        runner.close()  # the pool and the shard log
    if recorder is not None:
        recorder.finish(shard_span, completed=len(results) - failed,
                        failed=failed)
        recorder.close()
    return results


# ---------------------------------------------------------------------------
# merge stage
# ---------------------------------------------------------------------------


@dataclass
class MergedCampaign:
    """Submission-ordered merge of every shard's results."""

    spec: CampaignSpec
    #: ordered result envelopes (``seq``/``cell``/``ok``/``result``),
    #: the contiguous prefix before the first gap
    envelopes: List[Dict] = field(default_factory=list)
    #: submission indices still owed a result
    gaps: List[int] = field(default_factory=list)
    #: damaged run-log lines skipped across all shard logs
    skipped_lines: int = 0
    #: cells with no log account whose healthy cache entry merged anyway
    #: (their lifecycle records were lost to log damage)
    unlogged: List[int] = field(default_factory=list)

    @property
    def complete(self) -> bool:
        return not self.gaps and len(self.envelopes) == len(self.spec.cells())

    def summary(self) -> str:
        total = len(self.spec.cells())
        verdict = "complete" if self.complete else "INCOMPLETE"
        return (f"campaign merge {verdict}: {len(self.envelopes)}/{total} "
                f"cells in order, {len(self.gaps)} gap(s), "
                f"{self.skipped_lines} damaged log line(s) skipped")


def merge_shards(
    spec: CampaignSpec,
    campaign_dir: Union[str, Path],
    cache_dir: Optional[str] = None,
    write: bool = True,
) -> MergedCampaign:
    """Merge the campaign into one submission-ordered result stream.

    Each cell's fate is the reconciliation detector's verdict
    (:meth:`~repro.distrib.reconcile.Detector.diff`, which reads every
    run-log in the directory, reconcile's included), taken in submission
    order: an ``ok`` cell merges its cached result — the cache, not the
    log, is the merge point, so a cell whose log records were lost still
    merges (``unlogged``) — a ``quarantined`` cell merges as a
    :class:`FailedResult`, as ``run_many`` returns it, and every other
    cell is a gap for reconciliation.  The merge only reads: the cache
    and the logs are left as they were.

    With ``write`` (default), the ordered stream lands atomically in
    ``merged.json`` so downstream consumers never see a torn merge.
    """
    from .reconcile import Detector  # reconcile imports this module

    root = Path(campaign_dir)
    diff = Detector(spec, cache_dir=cache_dir).diff(root)
    merged = MergedCampaign(spec=spec, skipped_lines=diff.skipped_lines)
    for status in diff.statuses:
        if status.state == "ok":
            result = status.result
            if status.record is None:
                merged.unlogged.append(status.seq)
        elif status.state == "quarantined":
            workload, config, seed = status.cell.task(spec.seed)
            record = status.record
            result = FailedResult(
                workload=workload, config_name=config.name, seed=seed,
                kind=str(record.get("kind", "error")),
                error=str(record.get("error", "")),
                attempts=int(record.get("attempts", 1)),
            )
        else:
            merged.gaps.append(status.seq)
            continue
        if not merged.gaps:
            merged.envelopes.append(
                result_envelope(status.seq, status.cell, result))
    if write:
        root.mkdir(parents=True, exist_ok=True)
        path = root / MERGED_NAME
        tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
        tmp.write_text(json.dumps({
            "complete": merged.complete,
            "cells": len(diff.statuses),
            "gaps": merged.gaps,
            "skipped_lines": merged.skipped_lines,
            "results": merged.envelopes,
        }, sort_keys=True))
        os.replace(tmp, path)
    return merged


def merge_trace(
    spec: CampaignSpec,
    campaign_dir: Union[str, Path],
    chrome: bool = False,
) -> List[Span]:
    """Stitch every shard's span file into one campaign trace.

    Reads ``spans-*.jsonl`` (shard runs) plus any reconcile span files,
    deduplicates by ``(trace_id, span_id)`` — a cell repaired on two
    hosts collapses to one span, preferring the finished record — and
    synthesises the root ``campaign`` span the shards all parented
    under (:func:`campaign_root_context`), bracketing the earliest
    start and latest end observed.  Writes ``merged-spans.jsonl`` and,
    with ``chrome``, a ``trace.json`` Chrome trace-event view where
    each shard gets its own process row.
    """
    root_dir = Path(campaign_dir)
    spans: List[Span] = []
    for path in sorted(root_dir.glob("spans-*.jsonl")):
        spans.extend(read_spans(str(path)))
    trace_id = campaign_trace_id(spec)
    spans = [span for span in spans if span.trace_id == trace_id]
    merged = merge_spans(spans)
    root_ctx = campaign_root_context(spec)
    if merged and not any(s.span_id == root_ctx.span_id for s in merged):
        merged.append(Span(
            name="campaign", trace_id=trace_id, span_id=root_ctx.span_id,
            start_t=min(s.start_t for s in merged),
            end_t=max((s.end_t if s.end_t is not None else s.start_t)
                      for s in merged),
            attrs={"shards": spec.n_shards, "cells": len(spec.cells())}))
        merged = merge_spans(merged)
    write_spans(merged, str(root_dir / MERGED_SPANS_NAME))
    if chrome:
        spans_to_chrome(merged, str(root_dir / TRACE_VIEW_NAME))
    return merged
