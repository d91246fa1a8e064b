"""Whole-result golden digests: the contract every fast path must keep.

``tests/golden_stats.json`` pins four fields per cell.  A fast path can
keep all four and still move an energy counter, a steering counter or a
stall bucket, so ``tests/golden_digests.json`` pins the sha256 of the
canonical ``SimResult.to_dict()`` instead, recorded from the plain
every-cycle loop:

* ``plain`` — every golden cell, bare;
* ``telemetry`` — every golden cell with a StallAttribution, a
  MetricsRegistry (its snapshot is part of the digest) and an
  IntervalSampler attached;
* ``boundaries`` — runs whose outcome hinges on one exact cycle:
  sampled windows with a detailed warm-up, watchdog and ``max_cycles``
  trips (message and snapshot), and fine-grained interval series.

Re-record with ``PYTHONPATH=src python tests/golden_cases.py`` only on a
commit whose simulated output is known to be right.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Callable, Dict

from repro.core.config import config_for
from repro.core.pipeline import DeadlockError, Pipeline, simulate
from repro.core.sampling import with_sampling
from repro.telemetry.attribution import StallAttribution
from repro.telemetry.metrics import IntervalSampler, MetricsRegistry
from repro.telemetry.tracer import Tracer
from repro.workloads.suite import get_trace

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_stats.json").read_text())
DIGESTS_PATH = HERE / "golden_digests.json"

#: sampling grid of the ``telemetry`` mode
TELEMETRY_INTERVAL = 250


def digest(payload) -> str:
    """sha256 of the canonical JSON form of ``payload``."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def golden_trace(workload: str):
    return get_trace(workload, GOLDEN["ops"], GOLDEN["seed"])


def plain_payload(cell: str) -> Dict:
    workload, arch = cell.split("/")
    return simulate(golden_trace(workload), config_for(arch)).to_dict()


def telemetry_payload(cell: str) -> Dict:
    workload, arch = cell.split("/")
    metrics = MetricsRegistry()
    result = Pipeline(
        golden_trace(workload), config_for(arch),
        attribution=StallAttribution(), metrics=metrics,
        sampler=IntervalSampler(TELEMETRY_INTERVAL),
    ).run()
    return {"result": result.to_dict(), "metrics": metrics.snapshot()}


# ----------------------------------------------------------------------
# boundary cases: name -> zero-argument function returning the payload


def _sampled(kernel: str, arch: str, warmup: int) -> Callable[[], Dict]:
    def run():
        config = with_sampling(config_for(arch), period=1000, window=250,
                               warmup=warmup, ff_warmup_ops=250)
        return simulate(get_trace(kernel, 3000, 7), config).to_dict()
    return run


def _trip(arch: str, deadlock_cycles: int,
          max_cycles: int) -> Callable[[], Dict]:
    def run():
        config = dataclasses.replace(config_for(arch),
                                     deadlock_cycles=deadlock_cycles)
        pipe = Pipeline(get_trace("pointer_chase", 1500, 7), config,
                        attribution=StallAttribution())
        try:
            pipe.run(max_cycles=max_cycles)
        except DeadlockError as exc:
            return {"message": str(exc), "snapshot": exc.snapshot}
        raise AssertionError("the run was expected to trip")
    return run


def _series(kernel: str, ops: int, arch: str) -> Callable[[], Dict]:
    def run():
        metrics, tracer = MetricsRegistry(), Tracer()
        result = Pipeline(
            get_trace(kernel, ops, 7), config_for(arch), tracer=tracer,
            attribution=StallAttribution(), metrics=metrics,
            sampler=IntervalSampler(7),
        ).run()
        return {"result": result.to_dict(), "metrics": metrics.snapshot(),
                "events": [list(event) for event in tracer.events]}
    return run


BOUNDARIES: Dict[str, Callable[[], Dict]] = {}
for _kernel in ("pointer_chase", "stream_triad", "histogram"):
    for _arch in ("ooo", "ballerino", "ces"):
        for _warmup in (0, 40, 300):
            BOUNDARIES[f"sampled/{_kernel}/{_arch}/warmup{_warmup}"] = (
                _sampled(_kernel, _arch, _warmup))
for _arch in ("ooo", "ballerino"):
    BOUNDARIES[f"watchdog100/pointer_chase/{_arch}"] = _trip(_arch, 100, 10**8)
    BOUNDARIES[f"watchdog150/pointer_chase/{_arch}"] = _trip(_arch, 150, 10**8)
    # commit gaps reach 247 cycles: this one trips mid-run, on a DRAM stall
    BOUNDARIES[f"watchdog240/pointer_chase/{_arch}"] = _trip(_arch, 240, 10**8)
    BOUNDARIES[f"max_cycles/pointer_chase/{_arch}"] = _trip(_arch, 0, 20_011)
BOUNDARIES["series7/pointer_chase/ooo"] = _series("pointer_chase", 800, "ooo")
BOUNDARIES["series7/stream_triad/ballerino"] = _series(
    "stream_triad", 2000, "ballerino")
BOUNDARIES["series7/histogram/ces"] = _series("histogram", 2000, "ces")


def record() -> Dict:
    cells = sorted(GOLDEN["results"])
    return {
        "ops": GOLDEN["ops"],
        "seed": GOLDEN["seed"],
        "telemetry_interval": TELEMETRY_INTERVAL,
        "plain": {cell: digest(plain_payload(cell)) for cell in cells},
        "telemetry": {cell: digest(telemetry_payload(cell)) for cell in cells},
        "boundaries": {name: digest(run()) for name, run in BOUNDARIES.items()},
    }


if __name__ == "__main__":
    DIGESTS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS_PATH}")
