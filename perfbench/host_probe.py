"""A fixed pure-Python workload that measures how fast the host runs
right now.

The host the benchmark runs on is shared; its speed moves by tens of
percent for a minute or more at a time, and every process on it slows
together.  :func:`probe` is a small event-driven loop in the simulator's
style (objects, dicts, sets, a deque and a heap) that imports nothing
from the simulator, so no change to the simulator changes its time.
The detail workloads time it between passes and scale their host times
by ``REFERENCE_S / fastest probe`` (see README.md, "Steadiness").
"""

from __future__ import annotations

import heapq
import time
from collections import deque

#: the probe's fastest time on the 2-vCPU development container; it only
#: sets the scale, so that scaled figures read as on that host
REFERENCE_S = 0.062


class _Op:
    __slots__ = ("seq", "deps", "done")

    def __init__(self, seq: int, deps):
        self.seq = seq
        self.deps = deps
        self.done = False


def _loop(n: int) -> int:
    ops = [_Op(i, (i - 1, i - 3, i - 7)) for i in range(n)]
    table = {op.seq: op for op in ops}
    events: list = []
    window: deque = deque()
    ready: set = set()
    cycle = fetched = committed = 0
    while committed < n:
        while fetched < n and len(window) < 64:
            window.append(ops[fetched])
            fetched += 1
        for op in list(window)[:16]:
            if all(dep < 0 or table[dep].done for dep in op.deps):
                ready.add(op.seq)
        for seq in sorted(ready)[:4]:
            ready.discard(seq)
            heapq.heappush(events, (cycle + 1 + seq % 3, seq))
        while events and events[0][0] <= cycle:
            table[heapq.heappop(events)[1]].done = True
        while window and window[0].done:
            window.popleft()
            committed += 1
        cycle += 1
    return cycle


def probe(n: int = 2000) -> float:
    """Seconds one run of the fixed loop takes."""
    start = time.perf_counter()
    _loop(n)
    return time.perf_counter() - start
