"""Per-layer host time of one full-detail simulation, measured from outside.

:func:`run_traced` builds a :class:`repro.core.pipeline.Pipeline`, wraps
every public method of the pipeline's own scheduler, memory hierarchy,
front end, LSQ (with the memory-dependence predictor), rename unit and
wakeup scoreboard on that instance, and drives ``begin/step/finalize``
itself so that it can count quiet cycles.  No source of the simulator
changes: the wrappers sit on the instance the benchmark built.

Time is exclusive: a layer called from inside another layer is charged
to the inner one, and a layer re-entering itself counts one call.
"""

from __future__ import annotations

import time
import types
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

from metric_rules import activity, is_quiet

#: (layer name, Pipeline attribute holding that layer's object)
LAYER_OBJECTS: Tuple[Tuple[str, str], ...] = (
    ("sched", "scheduler"),
    ("memory", "hier"),
    ("frontend", "frontend"),
    ("lsq", "lsu"),
    ("lsq", "mdp"),
    ("rename", "rename"),
    ("core.wakeup", "wakeup"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(name for name, _ in LAYER_OBJECTS))


class LayerClock:
    """Exclusive host time and call counts per layer."""

    def __init__(self) -> None:
        self.busy: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.method_calls: Counter = Counter()
        self._stack: List[list] = []

    def wrap(self, layer: str, obj) -> None:
        for name in dir(type(obj)):
            if name.startswith("_"):
                continue
            if isinstance(getattr(type(obj), name, None), types.FunctionType):
                setattr(obj, name, self._timed(layer, name, getattr(obj, name)))

    def _timed(self, layer: str, method: str, fn):
        stack, busy, calls = self._stack, self.busy, self.calls
        method_calls, key, clock = self.method_calls, (layer, method), time.perf_counter

        def timed(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            calls[layer] += 1
            method_calls[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                busy[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return timed


def run_traced(trace, config) -> Tuple[object, Dict]:
    """One traced full-detail run: ``(SimResult, layer figures)``.

    The figures hold the host seconds inside ``step()``, the step and
    quiet-cycle counts and the :class:`LayerClock`.  The run carries a
    :class:`~repro.telemetry.attribution.StallAttribution`, so the
    result also has ``stats.stall_cycles``.
    """
    from repro.core.pipeline import Pipeline
    from repro.telemetry.attribution import StallAttribution

    pipe = Pipeline(trace, config, attribution=StallAttribution())
    clock = LayerClock()
    for layer, attr in LAYER_OBJECTS:
        obj = getattr(pipe, attr, None)
        if obj is not None:
            clock.wrap(layer, obj)
    perf = time.perf_counter
    steps = quiet = 0
    step_s = 0.0
    pipe.begin()
    before = activity(pipe)
    while True:
        start = perf()
        more = pipe.step()
        step_s += perf() - start
        steps += 1
        after = activity(pipe)
        if is_quiet(before, after):
            quiet += 1
        before = after
        if not more:
            break
    result = pipe.finalize()
    return result, {"step_s": step_s, "steps": steps, "quiet": quiet,
                    "clock": clock}
