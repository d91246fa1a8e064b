"""Plain-text table rendering for the command-line reports.

``python -m repro`` prints its per-run and per-suite tables with
:func:`format_table`; the paper-vs-measured report renders Markdown
instead (:mod:`repro.analysis.experiments`).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Sequence


def format_table(
    headers: Sequence[str],
    rows: Sequence[Sequence],
    title: str = "",
    float_fmt: str = "{:.3f}",
) -> str:
    """Render rows as a fixed-width ASCII table."""
    rendered: List[List[str]] = []
    for row in rows:
        rendered.append(
            [
                float_fmt.format(cell) if isinstance(cell, float) else str(cell)
                for cell in row
            ]
        )
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered)) if rendered
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    sep = "-+-".join("-" * w for w in widths)
    lines.append(" | ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append(sep)
    for row in rendered:
        lines.append(" | ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


def normalise(values: Mapping[str, float], baseline_key: str) -> Dict[str, float]:
    """Divide every value by the baseline entry."""
    base = values[baseline_key]
    if base == 0:
        raise ValueError(f"baseline {baseline_key!r} is zero")
    return {key: value / base for key, value in values.items()}
