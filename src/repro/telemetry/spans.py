"""Correlation-ID span tracing across the whole campaign stack.

A *span* is one timed unit of work — a campaign, a shard, a serve job,
one cell's simulation, or a single sampled-simulation phase — carrying
a ``trace_id`` shared by every span of one campaign, its own
``span_id`` and its ``parent_id``.  Spans stream to a JSONL file as
they finish (same torn-tail-tolerant format as the run-log), so a
crashed campaign still leaves a readable prefix, and per-shard span
files written on different hosts merge into one tree afterwards.

Two properties make the cross-host story work without coordination,
mirroring the salted-hash sharding of :mod:`repro.distrib`:

* **Deterministic ids** — :func:`derive_trace_id` /
  :func:`derive_span_id` hash stable inputs (the campaign manifest, a
  shard index, a cell cache key), so two hosts independently agree on
  the id of the same logical span and a merged trace dedupes cleanly.
* **Nullability** — like the cycle-level tracer, every instrumentation
  site holds an ``Optional[SpanRecorder]`` guarded by one ``is not
  None`` branch; tracing off (the default) costs nothing measurable on
  the hot path.

Exporters: :func:`read_spans` / :func:`merge_span_files` rebuild the
tree from JSONL, :func:`span_tree` indexes it, and
:func:`spans_to_chrome` renders the merged campaign as Chrome
trace-event JSON with collision-free pid/tid assignment across shards
(one pid per shard/job, greedy lane packing within it — the same
packing idiom as :mod:`repro.telemetry.export`).
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from .runlog import read_jsonl

#: span ids are 16 lowercase hex chars (64 bits); trace ids the same.
ID_HEX_CHARS = 16

_HEX = set("0123456789abcdef")


def _is_id(value: object) -> bool:
    return (isinstance(value, str) and 0 < len(value) <= 64
            and all(c in _HEX for c in value))


def _digest(*parts: object) -> str:
    payload = hashlib.sha256()
    for part in parts:
        payload.update(str(part).encode("utf-8"))
        payload.update(b"\x00")
    return payload.hexdigest()[:ID_HEX_CHARS]


def new_trace_id() -> str:
    """A fresh random trace id (for ad-hoc, non-derivable traces)."""
    return uuid.uuid4().hex[:ID_HEX_CHARS]


def new_span_id() -> str:
    """A fresh random span id."""
    return uuid.uuid4().hex[:ID_HEX_CHARS]


def derive_trace_id(*parts: object) -> str:
    """Deterministic trace id from stable inputs (e.g. a manifest)."""
    return _digest("trace", *parts)


def derive_span_id(trace_id: str, *parts: object) -> str:
    """Deterministic span id within ``trace_id`` from stable inputs.

    Shards on different hosts derive identical ids for the same
    logical span (``derive_span_id(tid, "cell", key)``), which is what
    lets :func:`merge_span_files` deduplicate a cross-host campaign.
    """
    return _digest("span", trace_id, *parts)


class SpanContext(NamedTuple):
    """The propagatable part of a span: ``(trace_id, span_id)``.

    This is what crosses process and host boundaries — the serve wire
    protocol's optional ``trace`` field, the ``trace`` of a runner's
    ``run_many`` batch, the shard environment — so children created
    elsewhere still parent correctly.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> Dict[str, str]:
        return {"trace_id": self.trace_id, "span_id": self.span_id}

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SpanContext":
        if not isinstance(payload, dict):
            raise ValueError(f"span context must be an object, "
                             f"got {type(payload).__name__}")
        trace_id = payload.get("trace_id")
        span_id = payload.get("span_id")
        if not _is_id(trace_id) or not _is_id(span_id):
            raise ValueError(
                f"span context needs hex trace_id/span_id, got {payload!r}")
        return cls(str(trace_id), str(span_id))


@dataclass
class Span:
    """One timed unit of work inside a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    start_t: float = 0.0
    end_t: Optional[float] = None
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    @property
    def duration(self) -> Optional[float]:
        if self.end_t is None:
            return None
        return max(0.0, self.end_t - self.start_t)

    def to_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_t": round(self.start_t, 6),
            "end_t": None if self.end_t is None else round(self.end_t, 6),
            "status": self.status,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        return record

    @classmethod
    def from_dict(cls, record: Dict[str, object]) -> "Span":
        if not _is_id(record.get("trace_id")) \
                or not _is_id(record.get("span_id")):
            raise ValueError(f"span record needs hex ids: {record!r}")
        parent = record.get("parent_id")
        if parent is not None and not _is_id(parent):
            raise ValueError(f"span parent_id must be hex: {parent!r}")
        attrs = record.get("attrs") or {}
        if not isinstance(attrs, dict):
            raise ValueError(f"span attrs must be an object: {attrs!r}")
        end_t = record.get("end_t")
        return cls(
            name=str(record.get("name", "")),
            trace_id=str(record["trace_id"]),
            span_id=str(record["span_id"]),
            parent_id=None if parent is None else str(parent),
            start_t=float(record.get("start_t", 0.0)),
            end_t=None if end_t is None else float(end_t),
            status=str(record.get("status", "ok")),
            attrs=dict(attrs),
        )


ParentLike = Union[Span, SpanContext, None]


def _parent_context(parent: ParentLike) -> Optional[SpanContext]:
    if parent is None:
        return None
    if isinstance(parent, Span):
        return parent.context
    return parent


class SpanRecorder:
    """Collects finished spans, optionally streaming them to JSONL.

    Thread-safe (the serve pool finishes shards from dispatch threads).
    Spans are written when *finished* — :meth:`finish` or
    :meth:`record` — one sorted-keys JSON object per line, flushed, so
    tailers and crashed campaigns see a valid prefix.  In-memory
    ``spans`` keeps everything recorded through this instance for
    in-process exporters and tests.
    """

    def __init__(self, path: Optional[str] = None):
        self.path = Path(path) if path else None
        self.spans: List[Span] = []
        self._lock = threading.Lock()
        self._fh = None
        if self.path is not None:
            if self.path.parent and not self.path.parent.exists():
                self.path.parent.mkdir(parents=True, exist_ok=True)
            self._fh = open(self.path, "a", encoding="utf-8")

    def start(self, name: str, parent: ParentLike = None,
              trace_id: Optional[str] = None,
              span_id: Optional[str] = None,
              **attrs: object) -> Span:
        """Open a span (clock starts now); finish it to persist it."""
        context = _parent_context(parent)
        if trace_id is None:
            trace_id = context.trace_id if context else new_trace_id()
        return Span(
            name=name, trace_id=trace_id,
            span_id=span_id or new_span_id(),
            parent_id=context.span_id if context else None,
            start_t=time.time(), attrs=dict(attrs),
        )

    def finish(self, span: Span, status: str = "ok",
               **attrs: object) -> Span:
        """Close ``span`` (clock stops now) and persist it."""
        span.end_t = time.time()
        span.status = status
        if attrs:
            span.attrs.update(attrs)
        self._write(span)
        return span

    def record(self, name: str, parent: ParentLike = None,
               start_t: float = 0.0, end_t: float = 0.0,
               status: str = "ok", trace_id: Optional[str] = None,
               span_id: Optional[str] = None, **attrs: object) -> Span:
        """Persist an already-timed span (parallel workers report
        their own wall-clock bracket; the parent process records it)."""
        context = _parent_context(parent)
        if trace_id is None:
            trace_id = context.trace_id if context else new_trace_id()
        span = Span(
            name=name, trace_id=trace_id,
            span_id=span_id or new_span_id(),
            parent_id=context.span_id if context else None,
            start_t=start_t, end_t=end_t, status=status,
            attrs=dict(attrs),
        )
        self._write(span)
        return span

    def _write(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)
            if self._fh is not None and not self._fh.closed:
                self._fh.write(json.dumps(span.to_dict(), sort_keys=True)
                               + "\n")
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None and not self._fh.closed:
                self._fh.close()

    def __enter__(self) -> "SpanRecorder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_spans(path: str) -> List[Span]:
    """Load a spans-JSONL file, skipping damaged lines and records."""
    records, _ = read_jsonl(path, strict=False)
    spans: List[Span] = []
    for record in records:
        try:
            spans.append(Span.from_dict(record))  # type: ignore[arg-type]
        except (ValueError, KeyError, TypeError):
            continue
    return spans


def merge_spans(spans: Iterable[Span]) -> List[Span]:
    """Deduplicate by ``(trace_id, span_id)``, preferring finished.

    Deterministically-derived ids mean a repaired / re-run cell (or a
    shard retried on another host) shows up more than once; the later
    finished observation wins, so the merged trace holds every logical
    span exactly once.  Sorted by start time for stable output.
    """
    best: Dict[Tuple[str, str], Span] = {}
    for span in spans:
        key = (span.trace_id, span.span_id)
        current = best.get(key)
        if current is None:
            best[key] = span
            continue
        finished = span.end_t is not None
        current_finished = current.end_t is not None
        if finished and not current_finished:
            best[key] = span
        elif finished and current_finished \
                and span.end_t > current.end_t:  # type: ignore[operator]
            best[key] = span
    return sorted(best.values(),
                  key=lambda s: (s.start_t, s.span_id))


def merge_span_files(paths: Sequence[str]) -> List[Span]:
    """Merge per-shard / per-host span files into one deduped list."""
    collected: List[Span] = []
    for path in paths:
        collected.extend(read_spans(path))
    return merge_spans(collected)


def write_spans(spans: Iterable[Span], path: str) -> Path:
    """Write spans as JSONL (the merged-trace artifact)."""
    target = Path(path)
    lines = [json.dumps(span.to_dict(), sort_keys=True) for span in spans]
    target.write_text("\n".join(lines) + ("\n" if lines else ""),
                      encoding="utf-8")
    return target


def span_tree(spans: Iterable[Span]) -> Dict[Optional[str],
                                             List[Span]]:
    """Index spans as ``parent_id -> children`` (roots under ``None``).

    A span whose ``parent_id`` names a span not in the set is treated
    as a root rather than dropped — a merged trace missing one shard
    file still renders.
    """
    ordered = sorted(spans, key=lambda s: (s.start_t, s.span_id))
    known = {span.span_id for span in ordered}
    tree: Dict[Optional[str], List[Span]] = {}
    for span in ordered:
        parent = span.parent_id if span.parent_id in known else None
        tree.setdefault(parent, []).append(span)
    return tree


def _process_of(span: Span, by_id: Dict[str, Span]) -> str:
    """The pid-group anchor: the topmost non-root ancestor.

    Each child of the trace root (a shard, a serve job) becomes its
    own Chrome "process", so two shards' overlapping cells never share
    lanes; the root itself and orphans map to the root group.
    """
    current = span
    seen = set()
    while current.parent_id is not None \
            and current.parent_id in by_id \
            and current.span_id not in seen:
        seen.add(current.span_id)
        parent = by_id[current.parent_id]
        if parent.parent_id is None or parent.parent_id not in by_id:
            return current.span_id  # child of a root -> group anchor
        current = parent
    return ""  # root / orphan group


def spans_to_chrome(spans: Iterable[Span],
                    path: Optional[str] = None) -> Dict[str, object]:
    """Render a (merged) span list as Chrome trace-event JSON.

    Collision-free pid/tid across shards: every child of the trace
    root anchors one pid (named after it via "M" metadata events) and
    spans inside a pid pack greedily onto tids, reusing the lowest
    lane free at their start — the same packing as
    :func:`repro.telemetry.export.write_chrome_trace`.  One second of
    wall clock maps to one second of trace time (µs units).
    """
    merged = merge_spans(spans)
    if not merged:
        document: Dict[str, object] = {"traceEvents": [],
                                       "displayTimeUnit": "ms"}
        if path is not None:
            Path(path).write_text(json.dumps(document), encoding="utf-8")
        return document
    index = {span.span_id: span for span in merged}
    t0 = min(span.start_t for span in merged)
    horizon = max([span.start_t for span in merged]
                  + [span.end_t for span in merged
                     if span.end_t is not None])
    groups: Dict[str, int] = {}
    events: List[Dict[str, object]] = []
    lanes: Dict[int, List[float]] = {}

    def pid_of(anchor: str) -> int:
        if anchor not in groups:
            groups[anchor] = len(groups)
            label = "trace root" if not anchor else \
                f"{index[anchor].name} [{anchor}]"
            events.append({"ph": "M", "pid": groups[anchor], "tid": 0,
                           "name": "process_name",
                           "args": {"name": label}})
        return groups[anchor]

    for span in merged:
        anchor = _process_of(span, index)
        pid = pid_of(anchor)
        start = span.start_t
        end = span.end_t if span.end_t is not None else horizon
        end = max(end, start)
        busy = lanes.setdefault(pid, [])
        for tid, busy_until in enumerate(busy):
            if busy_until <= start + 1e-9:
                break
        else:
            tid = len(busy)
            busy.append(0.0)
        busy[tid] = end
        args: Dict[str, object] = {"span_id": span.span_id,
                                   "trace_id": span.trace_id,
                                   "status": span.status}
        if span.parent_id:
            args["parent_id"] = span.parent_id
        args.update(span.attrs)
        events.append({
            "name": span.name, "cat": "span", "ph": "X",
            "ts": round((start - t0) * 1e6, 3),
            "dur": round((end - start) * 1e6, 3),
            "pid": pid, "tid": tid, "args": args,
        })
    document = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.telemetry.spans",
                      "spans": len(merged)},
    }
    if path is not None:
        Path(path).write_text(json.dumps(document), encoding="utf-8")
    return document
