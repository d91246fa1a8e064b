"""Prometheus text-format exposition for the MetricsRegistry.

:func:`render_prometheus` turns a :meth:`MetricsRegistry.snapshot
<repro.telemetry.metrics.MetricsRegistry.snapshot>` into the
Prometheus text exposition format (version 0.0.4): one ``# HELP`` and
``# TYPE`` comment pair per metric followed by its samples.  Dotted
registry names become underscore-separated (``serve.jobs.done`` →
``repro_serve_jobs_done_total``), counters gain the conventional
``_total`` suffix, and histograms are converted from the registry's
per-bucket counts to the cumulative ``_bucket{le="..."}`` series
(plus ``+Inf``, ``_sum`` and ``_count``) Prometheus expects.

:func:`lint_prometheus` is a self-contained regex lint of the format —
committed here so CI can assert the daemon's ``/metricsz?format=
prometheus`` output stays parseable without a Prometheus install:
``python -m repro.telemetry.prometheus FILE`` exits non-zero with the
offending lines on stderr.
"""

from __future__ import annotations

import re
import sys
from typing import Dict, List, Mapping, Optional, Tuple

#: characters legal in an exposition metric name.
_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_NAME_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: sample line: name, optional {labels}, value, optional timestamp.
_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(\{[^{}]*\})?"
    r" "
    r"(-?[0-9.eE+-]+|[+-]?Inf|NaN)"
    r"( [0-9]+)?$"
)
_COMMENT_RE = re.compile(
    r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*)( .*)?$")
_LABEL_PAIR_RE = re.compile(
    r'^[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\\\|\\"|\\n)*"$')
_VALID_TYPES = ("counter", "gauge", "histogram", "summary", "untyped")


def sanitize_metric_name(name: str, prefix: str = "repro_") -> str:
    """Dotted registry name -> legal exposition metric name."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", name.replace(".", "_"))
    full = prefix + cleaned
    if not _NAME_RE.match(full):
        full = "_" + full
    return full


def escape_label_value(value: object) -> str:
    """Escape a label value per the exposition format.

    Backslash, double-quote and newline are the three characters the
    format escapes inside label values.
    """
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def escape_help(text: str) -> str:
    """Escape a HELP docstring (backslash and newline only)."""
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: object) -> str:
    number = float(value)  # type: ignore[arg-type]
    if number == int(number) and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def _label_string(labels: Mapping[str, object]) -> str:
    if not labels:
        return ""
    pairs = ", ".join(
        f'{name}="{escape_label_value(value)}"'
        for name, value in labels.items())
    return "{" + pairs + "}"


def _histogram_lines(name: str, snapshot: Mapping[str, object],
                     labels: Mapping[str, object]) -> List[str]:
    """Cumulative ``le`` buckets from the registry's per-bucket counts.

    The registry stores ``{"le_<bound>": n, ..., "overflow": n}`` with
    each ``n`` counting observations that landed *in that bucket*;
    Prometheus buckets are cumulative, so we running-sum in ascending
    bound order and top off with ``+Inf`` at the total count.
    """
    buckets = snapshot.get("buckets") or {}
    bounds: List[Tuple[float, int]] = []
    for key, count in buckets.items():  # type: ignore[union-attr]
        if key == "overflow":
            continue
        try:
            bound = float(str(key)[len("le_"):])
        except ValueError:
            continue
        bounds.append((bound, int(count)))  # type: ignore[arg-type]
    bounds.sort(key=lambda item: item[0])
    lines: List[str] = []
    cumulative = 0
    for bound, count in bounds:
        cumulative += count
        bucket_labels = dict(labels)
        bucket_labels["le"] = _format_value(bound)
        lines.append(f"{name}_bucket{_label_string(bucket_labels)} "
                     f"{cumulative}")
    total_count = int(snapshot.get("count", 0))  # type: ignore[arg-type]
    inf_labels = dict(labels)
    inf_labels["le"] = "+Inf"
    lines.append(f"{name}_bucket{_label_string(inf_labels)} "
                 f"{total_count}")
    total = snapshot.get("total", 0.0)
    lines.append(f"{name}_sum{_label_string(labels)} "
                 f"{_format_value(total)}")
    lines.append(f"{name}_count{_label_string(labels)} {total_count}")
    return lines


def render_prometheus(
    snapshot: Mapping[str, Mapping[str, object]],
    prefix: str = "repro_",
    labels: Optional[Mapping[str, object]] = None,
    help_text: Optional[Mapping[str, str]] = None,
) -> str:
    """Render a registry snapshot as a text exposition document.

    ``labels`` (if given) are attached to every sample — constant
    labels such as the workload/config of a ``repro simulate`` run.
    ``help_text`` maps *dotted* registry names to HELP strings; the
    default help names the source metric.
    """
    labels = dict(labels or {})
    for label_name in labels:
        if not _LABEL_NAME_RE.match(label_name):
            raise ValueError(f"invalid label name: {label_name!r}")
    lines: List[str] = []
    for dotted in sorted(snapshot):
        entry = snapshot[dotted]
        kind = str(entry.get("type", "untyped"))
        base = sanitize_metric_name(dotted, prefix=prefix)
        name = base + "_total" if kind == "counter" else base
        help_string = (help_text or {}).get(
            dotted, f"repro {kind} metric {dotted!r}")
        if kind == "histogram":
            lines.append(f"# HELP {base} {escape_help(help_string)}")
            lines.append(f"# TYPE {base} histogram")
            lines.extend(_histogram_lines(base, entry, labels))
        elif kind in ("counter", "gauge"):
            lines.append(f"# HELP {name} {escape_help(help_string)}")
            lines.append(f"# TYPE {name} {kind}")
            lines.append(f"{name}{_label_string(labels)} "
                         f"{_format_value(entry.get('value', 0))}")
        else:
            lines.append(f"# HELP {name} {escape_help(help_string)}")
            lines.append(f"# TYPE {name} untyped")
            lines.append(f"{name}{_label_string(labels)} "
                         f"{_format_value(entry.get('value', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


def _sample_base(metric_name: str) -> str:
    """The family a sample belongs to (strip histogram suffixes)."""
    for suffix in ("_bucket", "_sum", "_count", "_total"):
        if metric_name.endswith(suffix):
            return metric_name[: -len(suffix)]
    return metric_name


def lint_prometheus(text: str) -> List[str]:
    """Regex-lint an exposition document; returns a list of problems.

    Checks line syntax (comments, samples, labels), that every sample
    belongs to a ``# TYPE``-declared family, that no family declares
    ``TYPE`` twice, and that declared types are legal.  Empty output
    (no metrics) is considered a problem — an exporter that rendered
    nothing is broken, not clean.
    """
    problems: List[str] = []
    typed: Dict[str, str] = {}
    sample_count = 0
    for number, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("#"):
            match = _COMMENT_RE.match(line)
            if match is None:
                problems.append(f"line {number}: malformed comment: "
                                f"{line!r}")
                continue
            keyword, name, rest = match.groups()
            if keyword == "TYPE":
                declared = (rest or "").strip()
                if declared not in _VALID_TYPES:
                    problems.append(f"line {number}: invalid TYPE "
                                    f"{declared!r} for {name}")
                if name in typed:
                    problems.append(f"line {number}: duplicate TYPE "
                                    f"for {name}")
                typed[name] = declared
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            problems.append(f"line {number}: malformed sample: {line!r}")
            continue
        sample_count += 1
        metric_name, label_block, value, _ts = match.groups()
        if label_block:
            body = label_block[1:-1].strip()
            if body:
                for pair in re.split(r",\s*", body):
                    if not _LABEL_PAIR_RE.match(pair.strip()):
                        problems.append(
                            f"line {number}: malformed label pair "
                            f"{pair!r}")
        family = _sample_base(metric_name)
        if family not in typed and metric_name not in typed:
            problems.append(f"line {number}: sample {metric_name!r} "
                            f"has no TYPE declaration")
        try:
            if value not in ("+Inf", "-Inf", "Inf", "NaN"):
                float(value)
        except ValueError:
            problems.append(f"line {number}: bad sample value "
                            f"{value!r}")
    if sample_count == 0:
        problems.append("no samples in exposition")
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    """Lint a file (or stdin with ``-``); the CI entry point."""
    argv = list(sys.argv[1:] if argv is None else argv)
    if len(argv) != 1:
        print("usage: python -m repro.telemetry.prometheus FILE|-",
              file=sys.stderr)
        return 2
    if argv[0] == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(argv[0], "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            print(f"prometheus-lint: cannot read {argv[0]}: {exc}",
                  file=sys.stderr)
            return 2
    problems = lint_prometheus(text)
    if problems:
        for problem in problems:
            print(f"prometheus-lint: {problem}", file=sys.stderr)
        return 1
    samples = sum(1 for line in text.splitlines()
                  if line.strip() and not line.startswith("#"))
    print(f"prometheus-lint: OK ({samples} samples)")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised by CI
    raise SystemExit(main())
