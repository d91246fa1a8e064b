"""Observability: cycle-level tracing, stall attribution, trace export.

Opt-in instrumentation for the simulator.  Construct a
:class:`Tracer` and/or :class:`StallAttribution` and hand them to the
:class:`~repro.core.pipeline.Pipeline`; read the hardware counters of
any pipeline with :func:`core_metrics`::

    from repro import build_trace, config_for
    from repro.core.pipeline import Pipeline
    from repro.telemetry import (StallAttribution, Tracer, core_metrics,
                                 write_chrome_trace)

    tracer, attribution = Tracer(), StallAttribution()
    pipe = Pipeline(build_trace("dotprod", 2000), config_for("ballerino"),
                    tracer=tracer, attribution=attribution)
    result = pipe.run()
    write_chrome_trace(tracer, "pipeline.json")
    print(result.stats.stall_cycles)   # sums exactly to result.cycles
    print(core_metrics(pipe).value("pipeline.dispatch_block.iq_full"))

When neither is supplied, every hook reduces to a nullable-reference
check; the measured overhead is below the 3% budget (see
``docs/observability.md``).
"""

from .attribution import CATEGORIES, OCCUPANCY_KEYS, StallAttribution
from .export import (
    chrome_counter_events,
    read_chrome_trace,
    write_chrome_trace,
    write_konata,
)
from .metrics import (
    CounterMetric,
    GaugeMetric,
    HistogramMetric,
    IntervalSampler,
    MetricsRegistry,
    core_metrics,
    flatten_sample,
    samples_to_csv,
    series,
    write_samples_csv,
)
from .runlog import (EVENT_FIELDS, TRACE_FIELDS, RunLog, read_jsonl,
                     read_run_log, read_run_log_tolerant, validate_event)
from .snapshot import capture_snapshot, describe_head, render_snapshot
from .spans import (
    Span,
    SpanContext,
    SpanRecorder,
    derive_span_id,
    derive_trace_id,
    merge_span_files,
    merge_spans,
    new_span_id,
    new_trace_id,
    read_spans,
    span_tree,
    spans_to_chrome,
    write_spans,
)
from .top import LogTail, TopModel, render_top, run_top
from .tracer import (
    AUX_STAGES,
    LIFECYCLE,
    LIFECYCLE_RANK,
    OpInfo,
    TraceEvent,
    Tracer,
)

__all__ = [
    "AUX_STAGES",
    "CATEGORIES",
    "CounterMetric",
    "EVENT_FIELDS",
    "GaugeMetric",
    "HistogramMetric",
    "IntervalSampler",
    "LIFECYCLE",
    "LIFECYCLE_RANK",
    "LogTail",
    "MetricsRegistry",
    "OCCUPANCY_KEYS",
    "OpInfo",
    "RunLog",
    "Span",
    "SpanContext",
    "SpanRecorder",
    "StallAttribution",
    "TRACE_FIELDS",
    "TopModel",
    "TraceEvent",
    "Tracer",
    "capture_snapshot",
    "chrome_counter_events",
    "core_metrics",
    "derive_span_id",
    "derive_trace_id",
    "describe_head",
    "flatten_sample",
    "merge_span_files",
    "merge_spans",
    "new_span_id",
    "new_trace_id",
    "read_chrome_trace",
    "read_jsonl",
    "read_run_log",
    "read_run_log_tolerant",
    "read_spans",
    "render_snapshot",
    "render_top",
    "run_top",
    "samples_to_csv",
    "series",
    "span_tree",
    "spans_to_chrome",
    "validate_event",
    "write_chrome_trace",
    "write_konata",
    "write_samples_csv",
    "write_spans",
]
