"""Structured JSONL campaign run-log.

The :class:`~repro.analysis.runner.ExperimentRunner` appends one JSON
object per line to the run-log as a campaign executes: task lifecycle
(``submit``/``cache_hit``/``finish``), failure handling
(``retry``/``timeout``/``quarantine``/``pool_restart``), campaign
bracketing (``campaign_start``/``campaign_end``) and periodic
``heartbeat`` progress records.  Every record carries ``event``, a
wall-clock timestamp ``t`` (epoch seconds) and ``elapsed`` (seconds
since the log was opened); event-specific required fields are listed
in :data:`EVENT_FIELDS` and enforced by :func:`validate_event`.

Lines are flushed as written, so a log tailed mid-campaign (or left by
a crashed one) is always a valid prefix; :func:`read_run_log` skips a
torn final line rather than raising.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

#: event name -> required event-specific fields (beyond event/t/elapsed).
EVENT_FIELDS: Dict[str, Tuple[str, ...]] = {
    "campaign_start": ("tasks", "pending", "jobs"),
    "submit": ("key", "workload", "config", "seed", "attempt"),
    "cache_hit": ("key", "workload", "config", "seed"),
    "finish": ("key", "workload", "config", "seed", "attempt",
               "seconds", "worker"),
    "retry": ("key", "attempt", "kind", "error"),
    "timeout": ("key", "attempt", "timeout_s"),
    "quarantine": ("key", "kind", "error", "attempts"),
    "pool_restart": ("restarts",),
    "heartbeat": ("done", "total", "inflight", "queued",
                  "elapsed_s", "sims_per_sec", "eta_s"),
    "campaign_end": ("seconds", "simulations", "cache_hits", "retries",
                     "timeouts", "quarantined"),
    # cache health: a corrupt / unreadable / stale disk-cache entry was
    # tolerated (treated as a miss); ``reason`` is the detail
    # ExperimentRunner.read_entry gave it
    "cache_warning": ("reason", "count"),
    # job-queue / serving lifecycle (repro.serve; see docs/serving.md).
    # The durable queue journal reuses this writer, so replay after a
    # crash goes through the same torn-tail-tolerant read_run_log.
    "job_enqueue": ("job_id", "tenant", "priority", "cells"),
    "job_dispatch": ("job_id", "priority"),
    "job_requeue": ("job_id", "reason"),
    "job_done": ("job_id", "ok", "failed_cells", "seconds"),
    "job_failed": ("job_id", "error"),
    "job_reject": ("tenant", "code", "reason"),
    "cell_repair": ("job_id", "seqs"),
    "serve_start": ("host", "port", "workers"),
    "serve_stop": ("drained", "requeued"),
    # a non-terminal job whose ordered results file was complete on disk
    # was recovered as done during journal replay (its job_done record
    # was torn off) instead of being double-run — see DurableJobQueue
    "job_recovered": ("job_id", "cells"),
    # the journal was atomically rewritten keeping only events for
    # non-terminal jobs (startup or explicit compact())
    "journal_compact": ("kept", "dropped"),
    # distributed campaigns (repro.distrib; see docs/robustness.md):
    # one shard of a sharded campaign starts/ends on this host
    "shard_start": ("shard", "of", "cells", "salt"),
    "shard_end": ("shard", "of", "completed", "failed"),
    # reconciliation lifecycle: detector diff -> repair plan -> repairs
    # executed -> re-verify, round by round until converged
    "reconcile_start": ("cells", "max_rounds"),
    "reconcile_round": ("round", "repairs", "damaged", "states"),
    "reconcile_end": ("converged", "rounds", "repaired"),
}

#: fields present on every record.
BASE_FIELDS = ("event", "t", "elapsed")

#: optional span-correlation fields any event may carry (repro.telemetry.
#: spans).  ``trace_id`` names the campaign-wide trace, ``span_id`` the
#: span this record belongs to and ``parent_id`` its parent span; the
#: runner stamps them on task-lifecycle events when tracing is enabled
#: so one campaign yields one reconstructable trace even across hosts.
TRACE_FIELDS = ("trace_id", "span_id", "parent_id")


def validate_event(record: Dict[str, object]) -> None:
    """Raise ``ValueError`` unless ``record`` matches the event schema."""
    event = record.get("event")
    if event not in EVENT_FIELDS:
        raise ValueError(f"unknown run-log event: {event!r}")
    missing = [f for f in BASE_FIELDS + EVENT_FIELDS[event]
               if f not in record]
    if missing:
        raise ValueError(f"run-log {event} record missing {missing}")
    for field in TRACE_FIELDS:
        value = record.get(field)
        if value is not None and field in record \
                and not isinstance(value, str):
            raise ValueError(
                f"run-log {event} field {field!r} must be a string, "
                f"got {type(value).__name__}")


class RunLog:
    """Append-only JSONL writer for campaign events.

    Opened in append mode so successive campaigns through the same
    runner (or successive runners pointed at the same file) accumulate
    into one log.  Each :meth:`log` call writes and flushes one line.
    """

    def __init__(self, path: str):
        self.path = Path(path)
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")
        self._opened = time.monotonic()

    def log(self, event: str, **fields: object) -> Dict[str, object]:
        record: Dict[str, object] = {
            "event": event,
            "t": round(time.time(), 3),
            "elapsed": round(time.monotonic() - self._opened, 3),
            **fields,
        }
        validate_event(record)
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")
        self._fh.flush()
        return record

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "RunLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: str,
               strict: bool = True) -> Tuple[List[object], int]:
    """Load a JSONL file; the one reader behind every log format here.

    ``strict=True`` mirrors the classic run-log contract: an unreadable
    file or a bad line mid-file raises, except that a torn *final* line
    (crashed writer) is silently dropped, matching the tolerance the
    result cache shows for truncated entries.  ``strict=False`` is the
    damage-tolerant mode reconciliation needs: an unreadable file is
    one skipped "line", and any undecodable or non-object line anywhere
    is skipped and counted rather than fatal.  Returns
    ``(records, skipped_lines)`` (``skipped_lines`` is always 0 in
    strict mode — a dropped torn tail is not counted).
    """
    records: List[object] = []
    skipped = 0
    try:
        lines = Path(path).read_text(
            encoding="utf-8", errors=None if strict else "replace"
        ).splitlines()
    except OSError:
        if strict:
            raise
        return [], 1
    for index, line in enumerate(lines):
        if not line.strip():
            continue
        try:
            record = json.loads(line)
        except (json.JSONDecodeError, UnicodeDecodeError):
            if strict:
                if index == len(lines) - 1:
                    break  # torn tail from an interrupted writer
                raise
            skipped += 1
            continue
        if not isinstance(record, dict) and not strict:
            skipped += 1
            continue
        records.append(record)
    return records, skipped


def read_run_log(path: str,
                 event: Optional[str] = None,
                 strict: bool = True) -> List[Dict[str, object]]:
    """Load a run-log; optionally filter to one event type.

    Thin wrapper over :func:`read_jsonl`; ``strict=False`` switches to
    the damage-tolerant parse (skipped-line count discarded — use
    :func:`read_run_log_tolerant` to keep it).
    """
    records, _ = read_jsonl(path, strict=strict)
    if event is not None:
        records = [r for r in records
                   if isinstance(r, dict) and r.get("event") == event]
    return records  # type: ignore[return-value]


def read_run_log_tolerant(
    path: str,
) -> Tuple[List[Dict[str, object]], int]:
    """Load as much of a (possibly damaged) run-log as parses.

    Unlike :func:`read_run_log` — which only forgives a torn *final*
    line — this skips any undecodable or non-object line wherever it
    sits and reports how many were dropped.  The reconciliation
    detector uses it: a run-log corrupted mid-campaign (chaos, disk
    faults) must still yield every surviving record, because the holes
    the corruption tore are exactly what reconciliation goes on to
    repair from the other two sources (expected matrix + disk cache).
    Returns ``(records, skipped_lines)``; a thin wrapper over
    :func:`read_jsonl` with ``strict=False``.
    """
    records, skipped = read_jsonl(path, strict=False)
    return records, skipped  # type: ignore[return-value]
