"""Simulation statistics.

Implements the measurement infrastructure behind the paper's figures:

* IPC / execution time (Figures 11, 13, 17);
* the decode-to-issue *delay breakdown* of Figures 3c and 12, split by
  instruction class — ``Ld`` (loads), ``LdC`` (ops directly or transitively
  dependent on an outstanding load at dispatch), ``Rst`` (the rest) — into
  decode->dispatch, dispatch->ready and ready->issue segments;
* scheduler-specific counters (steering outcomes, per-IQ issue mix);
* event counts consumed by the energy model.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List

CLASSES = ("Ld", "LdC", "Rst")
SEGMENTS = ("decode_to_dispatch", "dispatch_to_ready", "ready_to_issue")


@dataclass
class DelayBreakdown:
    """Average per-class pipeline delays (paper Figures 3c / 12)."""

    sums: Dict[str, Dict[str, float]] = field(
        default_factory=lambda: {k: {s: 0.0 for s in SEGMENTS} for k in CLASSES}
    )
    counts: Dict[str, int] = field(default_factory=lambda: {k: 0 for k in CLASSES})

    def record(self, klass: str, decode: int, dispatch: int, ready: int,
               issue: int) -> None:
        """Count one committed op of class ``klass`` by its stage cycles."""
        self.counts[klass] += 1
        sums = self.sums[klass]
        sums["decode_to_dispatch"] += dispatch - decode
        sums["dispatch_to_ready"] += max(0, ready - dispatch)
        sums["ready_to_issue"] += max(0, issue - max(ready, dispatch))

    def average(self, klass: str, segment: str) -> float:
        count = self.counts[klass]
        return self.sums[klass][segment] / count if count else 0.0

    def to_dict(self) -> Dict:
        return {"sums": self.sums, "counts": self.counts}

    @classmethod
    def from_dict(cls, data: Dict) -> "DelayBreakdown":
        return cls(sums=data["sums"], counts=data["counts"])

    def averages(self) -> Dict[str, Dict[str, float]]:
        """klass -> segment -> mean cycles (plus an ``All`` aggregate)."""
        out: Dict[str, Dict[str, float]] = {}
        for klass in CLASSES:
            out[klass] = {
                seg: round(self.average(klass, seg), 2) for seg in SEGMENTS
            }
            out[klass]["total"] = round(sum(out[klass][s] for s in SEGMENTS), 2)
        total_count = sum(self.counts.values()) or 1
        out["All"] = {
            seg: round(
                sum(self.sums[k][seg] for k in CLASSES) / total_count, 2
            )
            for seg in SEGMENTS
        }
        out["All"]["total"] = round(sum(out["All"][s] for s in SEGMENTS), 2)
        return out


@dataclass
class SimStats:
    """Raw counters accumulated over one simulation."""

    cycles: int = 0
    committed: int = 0
    fetched: int = 0
    issued: int = 0
    branch_lookups: int = 0
    branch_mispredicts: int = 0
    order_violations: int = 0
    flushes: int = 0
    breakdown: DelayBreakdown = field(default_factory=DelayBreakdown)
    #: event name -> count, consumed by :mod:`repro.energy`
    energy_events: Counter = field(default_factory=Counter)
    #: scheduler-provided extras (steering outcomes, issue mix, ...)
    scheduler: Dict[str, float] = field(default_factory=dict)
    #: stall-attribution category -> cycles (telemetry; empty when the
    #: run had no :class:`~repro.telemetry.attribution.StallAttribution`).
    #: When present, the values sum exactly to ``cycles``.
    stall_cycles: Dict[str, int] = field(default_factory=dict)
    #: structure -> mean per-cycle occupancy (telemetry; see above)
    occupancy: Dict[str, float] = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    def to_dict(self) -> Dict:
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "fetched": self.fetched,
            "issued": self.issued,
            "branch_lookups": self.branch_lookups,
            "branch_mispredicts": self.branch_mispredicts,
            "order_violations": self.order_violations,
            "flushes": self.flushes,
            "breakdown": self.breakdown.to_dict(),
            "energy_events": dict(self.energy_events),
            "scheduler": self.scheduler,
            "stall_cycles": self.stall_cycles,
            "occupancy": self.occupancy,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimStats":
        stats = cls(
            cycles=data["cycles"],
            committed=data["committed"],
            fetched=data["fetched"],
            issued=data["issued"],
            branch_lookups=data["branch_lookups"],
            branch_mispredicts=data["branch_mispredicts"],
            order_violations=data["order_violations"],
            flushes=data["flushes"],
            breakdown=DelayBreakdown.from_dict(data["breakdown"]),
            energy_events=Counter(data["energy_events"]),
            scheduler=data["scheduler"],
            stall_cycles=data.get("stall_cycles", {}),
            occupancy=data.get("occupancy", {}),
        )
        return stats


@dataclass
class SimResult:
    """Everything a benchmark needs from one simulation run."""

    workload: str
    config_name: str
    stats: SimStats
    memory_stats: Dict[str, Dict[str, float]] = field(default_factory=dict)
    frequency_ghz: float = 3.4
    #: every-N-cycles time-series from the
    #: :class:`~repro.telemetry.metrics.IntervalSampler`; empty unless
    #: the run sampled.  The last sample's cumulative fields equal the
    #: final :class:`SimStats` values.
    interval_samples: List[Dict] = field(default_factory=list)
    #: the sampler's N (0 when the run did not sample)
    sample_interval: int = 0
    #: True when the stats were *extrapolated* from measured windows by
    #: the sampled-simulation driver (:mod:`repro.core.sampling`) rather
    #: than accumulated over every cycle.
    sampled: bool = False
    #: Sampled-run metadata: window count, measured/fast-forwarded op
    #: and cycle totals, the sampling knobs used, and per-metric
    #: ``{mean, ci95, ...}`` estimates.  Empty for full-detail runs.
    sampling: Dict = field(default_factory=dict)

    #: Always ``True``; the counterpart
    #: :class:`~repro.analysis.runner.FailedResult` carries ``False``, so
    #: batch consumers can filter with ``result.ok`` (not a dataclass
    #: field — it never serialises).
    ok = True

    @property
    def ipc(self) -> float:
        return self.stats.ipc

    @property
    def cycles(self) -> int:
        return self.stats.cycles

    @property
    def seconds(self) -> float:
        """Execution time given the config's operating frequency."""
        return self.stats.cycles / (self.frequency_ghz * 1e9)

    def summary(self) -> Dict[str, float]:
        return {
            "workload": self.workload,
            "config": self.config_name,
            "cycles": self.stats.cycles,
            "committed": self.stats.committed,
            "ipc": round(self.ipc, 3),
            "mispredicts": self.stats.branch_mispredicts,
            "violations": self.stats.order_violations,
        }

    def to_dict(self) -> Dict:
        return {
            "workload": self.workload,
            "config_name": self.config_name,
            "stats": self.stats.to_dict(),
            "memory_stats": self.memory_stats,
            "frequency_ghz": self.frequency_ghz,
            "interval_samples": self.interval_samples,
            "sample_interval": self.sample_interval,
            "sampled": self.sampled,
            "sampling": self.sampling,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "SimResult":
        return cls(
            workload=data["workload"],
            config_name=data["config_name"],
            stats=SimStats.from_dict(data["stats"]),
            memory_stats=data["memory_stats"],
            frequency_ghz=data["frequency_ghz"],
            interval_samples=data.get("interval_samples", []),
            sample_interval=data.get("sample_interval", 0),
            sampled=data.get("sampled", False),
            sampling=data.get("sampling", {}),
        )
