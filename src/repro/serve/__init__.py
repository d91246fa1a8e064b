"""Simulation-as-a-service: the ``repro serve`` daemon and its parts.

Turns campaigns, fuzz runs and sweeps into *submitted jobs* instead of
foreground processes (ROADMAP item 3).  The subsystem wraps the
fault-tolerant :class:`~repro.analysis.runner.ExperimentRunner` in a
long-lived serving layer:

* :mod:`~repro.serve.protocol` — versioned JSON job/result schemas;
* :mod:`~repro.serve.queue` — durable journal-backed priority queue
  with per-tenant rate limiting and backpressure;
* :mod:`~repro.serve.pool` — dispatch threads, each driving one worker
  process through ``run_many``;
* :mod:`~repro.serve.resequencer` — ordered result delivery;
* :mod:`~repro.serve.daemon` — the stdlib-HTTP REST API;
* :mod:`~repro.serve.client` — the ``repro submit`` / ``repro poll``
  client.

See docs/serving.md for the API reference and durability model.
"""

from .client import ServeClient, ServeError
from .daemon import ServeDaemon
from .pool import WorkerPool
from .protocol import (
    PROTOCOL_VERSION,
    PRIORITY_CLASSES,
    Cell,
    JobSpec,
    ProtocolError,
    parse_submit,
)
from .queue import (
    DurableJobQueue,
    QueueFull,
    QueueRejection,
    RateLimited,
    TokenBucket,
)
from .resequencer import Resequencer

__all__ = [
    "ServeClient",
    "ServeError",
    "ServeDaemon",
    "WorkerPool",
    "PROTOCOL_VERSION",
    "PRIORITY_CLASSES",
    "Cell",
    "JobSpec",
    "ProtocolError",
    "parse_submit",
    "DurableJobQueue",
    "QueueFull",
    "QueueRejection",
    "RateLimited",
    "TokenBucket",
    "Resequencer",
]
