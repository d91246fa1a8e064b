#!/usr/bin/env python3
"""Render the paper's headline figures as terminal bar charts.

Collects Figures 11, 13, 14, 16 and 17c through the registry in
`repro.analysis.experiments` (results land in the shared `.bench_cache/`,
so the first run takes minutes and later ones are instant) and draws
them with `repro.analysis.plotting`.

Run:  python examples/figure_gallery.py [ops]
"""

import sys

from repro.analysis import ExperimentRunner
from repro.analysis.experiments import REGISTRY
from repro.analysis.plotting import bar_chart


def main() -> None:
    ops = int(sys.argv[1]) if len(sys.argv) > 1 else 10_000
    runner = ExperimentRunner(target_ops=ops)

    def collect(key):
        return REGISTRY[key].collect(runner)

    fig11 = collect("fig11")["geomean"]
    print(bar_chart(
        fig11,
        title="Figure 11 - speedup over the 8-wide in-order core (geomean)",
        reference=fig11["ooo"],
    ))
    print()

    print(bar_chart(
        collect("fig13"),
        title="Figure 13 - step-by-step technique impact (speedup over InO)",
    ))
    print()

    share = collect("fig14")["ballerino"]["siq"]
    print(bar_chart(
        {"S-IQ (speculative issue)": share, "P-IQs (dependence chains)": 1 - share},
        title="Figure 14 - where Ballerino's instructions issue from",
        fmt="{:.0%}",
    ))
    print()

    print(bar_chart(
        collect("fig16"),
        title="Figure 16 - energy efficiency (1/EDP) vs OoO (geomean)",
        reference=1.0,
    ))
    print()

    fig17c = {f"{n} P-IQs": v for n, v in collect("fig17c").items()}
    print(bar_chart(
        fig17c,
        title="Figure 17c - Ballerino performance vs OoO by P-IQ count",
        reference=1.0,
        fmt="{:.3f}",
    ))
    print()
    print(
        f"(traces: {ops} micro-ops each; results cached in .bench_cache/ — "
        "see EXPERIMENTS.md for the full paper-vs-measured comparison)"
    )


if __name__ == "__main__":
    main()
