"""The paper's evaluation: one registry entry per table and figure.

Each :class:`Figure` in :data:`REGISTRY` pairs a collector, which runs
all of its cells as one ``runner.run_many`` batch (so ``--jobs N`` speeds
up every figure), a Markdown renderer and the figure's named
:class:`Claim` s.  A claim is a predicate over the collected data alone,
with the bound the paper's shape allows; it never touches the runner, so
a test can hand it made-up numbers.

``build_report(runner)`` prints every table with a computed verdict per
claim.  The repo's ``EXPERIMENTS.md`` is generated by::

    python -m repro.analysis.experiments > EXPERIMENTS.md

``pytest benchmarks/`` collects every figure into a throwaway cache,
fails on each claim that does not hold, and fails when the report
differs from the committed ``EXPERIMENTS.md``.  Either way, a cold run
performs every simulation (several minutes serially).
"""

from __future__ import annotations

import contextlib
import dataclasses
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.config import FIG11_ARCHES, FIG13_ARCHES, CoreConfig, config_for
from ..core.stats import CLASSES, SEGMENTS
from ..energy.dvfs import evaluate_level
from ..energy.model import CATEGORIES, EnergyModel
from ..workloads.suite import SUITE_NAMES
from .runner import ExperimentRunner, geomean


@dataclass(frozen=True)
class Claim:
    """One reproduced shape: a stable name, the sentence the report
    prints, and a predicate over its figure's collected data."""

    name: str
    text: str
    holds: Callable[[Any], bool]


@dataclass(frozen=True)
class Figure:
    """One table or figure: its collector, its Markdown and its claims.

    ``collect(runner)`` returns the figure's data; ``render(data)`` the
    Markdown lines under its heading.
    """

    key: str
    title: str
    collect: Callable[..., Any]
    render: Callable[[Any], List[str]]
    claims: Tuple[Claim, ...] = ()


# ----------------------------------------------------------------------
# collection
# ----------------------------------------------------------------------
def _grid(runner: ExperimentRunner, configs: Dict[Any, CoreConfig],
          workloads: Sequence[str] = SUITE_NAMES,
          seed: Optional[int] = None) -> Dict[Any, Dict[str, Any]]:
    """Run every (workload, config) cell as one batch.

    ``configs`` maps a label to a config; the result maps each label to
    ``{workload: SimResult}``.  A quarantined cell fails the figure.
    """
    results = runner.run_many(
        [(w, cfg, seed) for cfg in configs.values() for w in workloads]
    )
    failed = [r.describe() for r in results if not r.ok]
    if failed:
        raise RuntimeError("quarantined cells: " + "; ".join(failed))
    cells = iter(results)
    return {label: {w: next(cells) for w in workloads} for label in configs}


def _presets(arches: Sequence[str]) -> Dict[str, CoreConfig]:
    return {arch: config_for(arch) for arch in arches}


def _speedup(base: Dict[str, Any], runs: Dict[str, Any]) -> float:
    """Geomean over the workloads of base time over run time."""
    return geomean(base[w].seconds / runs[w].seconds for w in runs)


def _table(headers: Sequence[str], rows: Sequence[Sequence],
           fmt: str = "{:.3f}") -> List[str]:
    """Markdown table lines; float cells use ``fmt``."""
    def cell(value):
        return fmt.format(value) if isinstance(value, float) else str(value)

    return (["| " + " | ".join(headers) + " |", "|" + "---|" * len(headers)]
            + ["| " + " | ".join(cell(v) for v in row) + " |" for row in rows])


# ---------------- Tables I and II ----------------
TABLE2_ARCHES = ("inorder", "ooo", "ces", "casino", "fxa", "ballerino",
                 "ballerino12")


def _table1(runner=None) -> List[List]:
    rows = []
    for width in (2, 4, 8):
        cfg = config_for("ooo", width=width)
        rows.append([
            f"{width}-wide", cfg.frequency_ghz, cfg.decode_width,
            cfg.rob_size, cfg.lq_size, cfg.sq_size,
            f"{cfg.phys_int}i/{cfg.phys_fp}f", cfg.recovery_penalty,
        ])
    return rows


def _table2(runner=None) -> List[List]:
    rows = []
    for arch in TABLE2_ARCHES:
        sched = config_for(arch).scheduler
        if sched.kind in ("inorder", "ooo"):
            desc = f"{sched.iq_size}-entry unified IQ"
        elif sched.kind == "ces":
            desc = f"{sched.num_piqs} x {sched.piq_size}-entry P-IQ"
        elif sched.kind == "casino":
            desc = " -> ".join(str(s) for s in sched.casino_queues)
        elif sched.kind == "fxa":
            desc = f"{sched.ixu_depth}-stage IXU + {sched.iq_size}-entry OoO IQ"
        else:
            desc = (f"{sched.siq_size}-entry S-IQ + "
                    f"{sched.num_piqs} x {sched.piq_size}-entry P-IQ")
        rows.append([arch, sched.kind, desc])
    return rows


# ---------------- Figures 3c and 12 ----------------
FIG3C_ARCHES = ("inorder", "ces", "casino", "ooo")
FIG12_ARCHES = ("ces", "casino", "ballerino", "ooo")


def _breakdown(runner: ExperimentRunner, arches: Sequence[str]) -> Dict:
    """Suite-weighted average decode-to-issue cycles per arch and class."""
    out = {}
    for arch, runs in _grid(runner, _presets(arches)).items():
        sums = {k: {s: 0.0 for s in SEGMENTS} for k in CLASSES}
        counts = {k: 0 for k in CLASSES}
        for result in runs.values():
            breakdown = result.stats.breakdown
            for klass in CLASSES:
                counts[klass] += breakdown.counts[klass]
                for segment in SEGMENTS:
                    sums[klass][segment] += breakdown.sums[klass][segment]
        out[arch] = {
            klass: {s: sums[klass][s] / max(1, counts[klass])
                    for s in SEGMENTS}
            for klass in CLASSES
        }
    return out


# ---------------- Figure 4 ----------------
STEER_KEYS = ("steer_dc", "alloc_ready", "alloc_nonready", "stall_ready",
              "stall_nonready")


def _fig4(runner: ExperimentRunner) -> Dict[str, Dict]:
    """Per workload: CES steering-outcome fractions and speedup over InO."""
    runs = _grid(runner, _presets(("inorder", "ces")))
    out = {}
    for w in SUITE_NAMES:
        sched = runs["ces"][w].stats.scheduler
        total = sum(sched[k] for k in STEER_KEYS) or 1
        out[w] = {k: sched[k] / total for k in STEER_KEYS}
        out[w]["speedup"] = runs["inorder"][w].seconds / runs["ces"][w].seconds
    return out


# ---------------- Figure 6 ----------------
HEAD_KEYS = ("issue", "wait_mdep", "wait_operand", "port_conflict", "empty")
FIG6B_COUNTS = (2, 4, 6, 8, 11)
FIG6B_SIZES = (6, 12, 24)
#: The sensitivity study uses the scheduling-bound kernels; purely serial
#: or bandwidth-bound kernels dilute the signal the figure is about.
SENSITIVE_KERNELS = ("matmul_tile", "hash_probe", "dag_wide", "mixed_int_fp",
                     "histogram", "stencil3", "spill_fill")


def _fig6a(runner: ExperimentRunner) -> Dict[str, Dict]:
    """Fraction of P-IQ head-cycles per outcome, Steps 1 and 2."""
    out = {}
    arches = ("ballerino_step1", "ballerino_step2")
    for arch, runs in _grid(runner, _presets(arches)).items():
        totals = {
            key: sum(r.stats.scheduler[f"head_{key}"] for r in runs.values())
            for key in HEAD_KEYS
        }
        total = sum(totals.values()) or 1
        out[arch] = {key: value / total for key, value in totals.items()}
    return out


def _fig6b(runner: ExperimentRunner) -> Dict[Tuple[str, int], float]:
    """Step-2 geomean IPC per P-IQ count and per P-IQ size."""
    configs = {("count", n): config_for("ballerino_step2", num_piqs=n)
               for n in FIG6B_COUNTS}
    configs.update({("size", s): config_for("ballerino_step2", piq_size=s)
                    for s in FIG6B_SIZES})
    return {
        label: geomean(r.ipc for r in runs.values())
        for label, runs in _grid(runner, configs, SENSITIVE_KERNELS).items()
    }


# ---------------- Figure 11 ----------------
def _fig11(runner: ExperimentRunner,
           workloads: Sequence[str] = SUITE_NAMES) -> Dict[str, Dict]:
    """Speedup over InO per workload and its geomean, per design."""
    runs = _grid(runner, _presets(FIG11_ARCHES), workloads)
    base = runs["inorder"]
    per_workload = {
        w: {a: base[w].seconds / runs[a][w].seconds for a in FIG11_ARCHES}
        for w in workloads
    }
    return {
        "workloads": per_workload,
        "geomean": {a: geomean(per_workload[w][a] for w in workloads)
                    for a in FIG11_ARCHES},
    }


# ---------------- Figures 13 and 14 ----------------
def _fig13(runner: ExperimentRunner,
           workloads: Sequence[str] = SUITE_NAMES) -> Dict[str, float]:
    """Geomean speedup over InO of each step of the design."""
    runs = _grid(runner, _presets(("inorder",) + tuple(FIG13_ARCHES)),
                 workloads)
    return {arch: _speedup(runs["inorder"], runs[arch])
            for arch in FIG13_ARCHES}


FIG14_STEPS = ("ballerino_step1", "ballerino_step2", "ballerino")


def _fig14(runner: ExperimentRunner,
           workloads: Sequence[str] = SUITE_NAMES) -> Dict[str, Dict]:
    """Share of issued instructions per IQ type, per Ballerino step."""
    out = {}
    for arch, runs in _grid(runner, _presets(FIG14_STEPS), workloads).items():
        siq = sum(r.stats.scheduler["issued_siq"] for r in runs.values())
        piq = sum(r.stats.scheduler["issued_piq"] for r in runs.values())
        out[arch] = {"siq": siq / (siq + piq), "piq": piq / (siq + piq)}
    return out


# ---------------- Figures 15 and 16 ----------------
ENERGY_ARCHES = ("ces", "casino", "fxa", "ballerino", "ballerino12", "ooo")


def _energy(runner: ExperimentRunner,
            workloads: Sequence[str] = SUITE_NAMES) -> Dict[str, Dict]:
    """Per design and workload, the energy model's report of the run."""
    model = EnergyModel()
    configs = _presets(ENERGY_ARCHES)
    return {
        arch: {w: model.evaluate(r, configs[arch]) for w, r in runs.items()}
        for arch, runs in _grid(runner, configs, workloads).items()
    }


def _fig15(runner: ExperimentRunner,
           workloads: Sequence[str] = SUITE_NAMES) -> Dict[str, Dict]:
    """Suite-total energy (pJ) per design and category."""
    return {
        arch: {cat: sum(r.categories[cat] for r in reports.values())
               for cat in CATEGORIES}
        for arch, reports in _energy(runner, workloads).items()
    }


def _fig16(runner: ExperimentRunner,
           workloads: Sequence[str] = SUITE_NAMES) -> Dict[str, float]:
    """Geomean over workloads of each design's 1/EDP over OoO's."""
    energy = _energy(runner, workloads)
    ooo = energy["ooo"]
    return {
        arch: geomean(r.efficiency / ooo[w].efficiency
                      for w, r in reports.items())
        for arch, reports in energy.items()
    }


# ---------------- Figure 17 ----------------
FIG17A_ARCHES = ("inorder", "casino", "ces", "ballerino", "ooo")
WIDTHS = (2, 4, 8, 10)
#: Speedups are in execution time (frequency differs per width, Table I);
#: a reduced kernel set keeps the 20-config sweep tractable.
FIG17A_KERNELS = ("matmul_tile", "hash_probe", "dag_wide", "mixed_int_fp",
                  "histogram", "stencil3")
FIG17B_ARCHES = ("ces", "ballerino", "ooo")
LEVELS = ("L4", "L3", "L2", "L1")
PIQ_COUNTS = (3, 5, 7, 9, 11, 13, 15)


def _fig17a(runner: ExperimentRunner) -> Dict[Tuple[str, int], float]:
    """Speedup over the 2-wide InO core per (design, width)."""
    runs = _grid(runner, {(a, w): config_for(a, width=w)
                          for w in WIDTHS for a in FIG17A_ARCHES},
                 FIG17A_KERNELS)
    return {label: _speedup(runs[("inorder", 2)], r)
            for label, r in runs.items()}


def _fig17b(runner: ExperimentRunner) -> Dict[Tuple[str, str], Dict]:
    """Suite-total seconds, energy, power and 1/EDP per (design, level)."""
    model = EnergyModel()
    configs = _presets(FIG17B_ARCHES)
    out = {}
    for arch, runs in _grid(runner, configs).items():
        for level in LEVELS:
            points = [evaluate_level(r, configs[arch], level, model)
                      for r in runs.values()]
            seconds = sum(p.seconds for p in points)
            energy = sum(p.energy_joules for p in points)
            out[(arch, level)] = {
                "seconds": seconds,
                "energy": energy,
                "power": energy / seconds,
                "efficiency": 1.0 / (energy * seconds),
            }
    return out


def _fig17c(runner: ExperimentRunner,
            workloads: Sequence[str] = SUITE_NAMES) -> Dict[int, float]:
    """Ballerino's geomean performance over OoO per P-IQ count."""
    configs = {"ooo": config_for("ooo")}
    configs.update({n: config_for("ballerino", num_piqs=n)
                    for n in PIQ_COUNTS})
    runs = _grid(runner, configs, workloads)
    return {n: _speedup(runs["ooo"], runs[n]) for n in PIQ_COUNTS}


# ---------------- SIII-B and the ablations ----------------
MDP_KERNELS = ("histogram", "spill_fill")
STREAMY = ("stream_triad", "stencil3", "gather_stride", "matmul_tile")
EXTENSION_ARCHES = ("casino", "spq", "ces", "dnb", "ballerino", "ooo")
SEED_ARCHES = ("inorder", "casino", "ces", "ballerino", "ooo")
SEED_KERNELS = ("hash_probe", "dag_wide", "mixed_int_fp", "histogram")
SEEDS = (7, 101, 2024)


def _mdp(runner: ExperimentRunner) -> Dict[str, Dict]:
    """Order violations with and without MDP, and MDP's speedup."""
    ooo = config_for("ooo")
    configs = {"mdp": ooo,
               "none": dataclasses.replace(ooo, mdp_enabled=False)}
    runs = _grid(runner, configs, MDP_KERNELS)
    return {
        w: {
            "violations_mdp": runs["mdp"][w].stats.order_violations,
            "violations_none": runs["none"][w].stats.order_violations,
            "speedup": runs["none"][w].seconds / runs["mdp"][w].seconds,
        }
        for w in MDP_KERNELS
    }


def _mdp_reduction(d: Dict) -> float:
    return 1 - d["violations_mdp"] / max(1, d["violations_none"])


def _prefetch(runner: ExperimentRunner) -> Dict[str, Dict[str, float]]:
    """Geomean IPC on streaming kernels with and without the prefetcher."""
    configs = {}
    for arch in ("inorder", "ballerino", "ooo"):
        cfg = config_for(arch)
        configs[(arch, "with")] = cfg
        configs[(arch, "without")] = dataclasses.replace(
            cfg, hierarchy=dataclasses.replace(cfg.hierarchy, prefetch=False))
    out: Dict[str, Dict[str, float]] = {}
    for (arch, mode), runs in _grid(runner, configs, STREAMY).items():
        out.setdefault(arch, {})[mode] = geomean(r.ipc for r in runs.values())
    return out


def _extensions(runner: ExperimentRunner) -> Dict[str, float]:
    """Geomean speedup over InO of DNB, SPQ and the paper's designs."""
    runs = _grid(runner, _presets(("inorder",) + EXTENSION_ARCHES))
    return {arch: _speedup(runs["inorder"], runs[arch])
            for arch in EXTENSION_ARCHES}


def _seeds(runner: ExperimentRunner) -> Dict[Tuple[str, int], float]:
    """Geomean speedup over InO per (design, workload-data seed)."""
    out = {}
    for seed in SEEDS:
        runs = _grid(runner, _presets(SEED_ARCHES), SEED_KERNELS, seed=seed)
        for arch in SEED_ARCHES:
            out[(arch, seed)] = _speedup(runs["inorder"], runs[arch])
    return out


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def _render_table1(rows) -> List[str]:
    return _table(["core", "GHz", "dec", "ROB", "LQ", "SQ", "PRF", "penalty"],
                  rows, "{:.1f}")


def _render_table2(rows) -> List[str]:
    return _table(["arch", "kind", "scheduling window"], rows)


def _render_fig3c(d) -> List[str]:
    rows = [
        [arch, klass] + [d[arch][klass][s] for s in SEGMENTS]
        + [sum(d[arch][klass].values())]
        for arch in d for klass in CLASSES
    ]
    return [
        "Paper: CES has by far the largest decode->dispatch delay "
        "(steering stalls); CASINO's `Rst` ops see small delays (the S-IQ "
        "filters them) while `LdC` ops wait long; OoO's ready->issue "
        "delays are near zero for everything.",
        "",
    ] + _table(["arch", "class", "dec->disp", "disp->ready", "ready->issue",
                "total"], rows, "{:.1f}")


def _render_fig4(d) -> List[str]:
    order = sorted(d, key=lambda w: d[w]["stall_ready"])
    rows = [[w] + [d[w][k] for k in STEER_KEYS] + [d[w]["speedup"]]
            for w in order]
    return [
        "Paper: ~27% of steering attempts follow a dependence chain "
        "([Steer] DC); ready-at-dispatch instructions cause 72% of the "
        "allocations and 79% of the stalls.",
        "",
    ] + _table(["workload", "[Steer]DC", "[Alloc]Rdy", "[Alloc]NRdy",
                "[Stall]Rdy", "[Stall]NRdy", "speedup/InO"], rows, "{:.2f}")


def _render_fig6a(d) -> List[str]:
    return [
        "Paper: P-IQs issue in only ~6% of head-cycles, and ~9% of the "
        "stalls are M-dependent loads waiting for their producer stores "
        "(Step 1, before MDA steering).",
        "",
    ] + _table(["design"] + list(HEAD_KEYS),
               [[arch] + [d[arch][k] for k in HEAD_KEYS] for arch in d])


def _render_fig6b(d) -> List[str]:
    rows = [["P-IQ count", n, d[("count", n)]] for n in FIG6B_COUNTS]
    rows += [["P-IQ size", s, d[("size", s)]] for s in FIG6B_SIZES]
    return [
        "Paper: performance is very sensitive to the P-IQ count and much "
        "less to their size.  Geomean IPC over the scheduling-bound "
        "kernels.",
        "",
    ] + _table(["sweep", "value", "geomean IPC"], rows)


PAPER_FIG11 = {
    "inorder": "1.0x", "ces": "2.4x", "casino": "2.1x", "fxa": "2.8x",
    "ballerino": "2.7x / 93%", "ballerino12": "2.8x / 98%",
    "ooo": "2.85x (ref)", "ooo_oldest": "+2% over OoO",
}


def _render_fig11(d) -> List[str]:
    mean = d["geomean"]
    rows = [[w] + [speedups[a] for a in FIG11_ARCHES]
            for w, speedups in d["workloads"].items()]
    rows.append(["GEOMEAN"] + [mean[a] for a in FIG11_ARCHES])
    rows.append(["vs OoO"] + [f"{mean[a] / mean['ooo']:.1%}"
                              for a in FIG11_ARCHES])
    rows.append(["paper"] + [PAPER_FIG11[a] for a in FIG11_ARCHES])
    return _table(["workload"] + list(FIG11_ARCHES), rows, "{:.2f}")


def _render_fig12(d) -> List[str]:
    rows = [[arch, klass] + [d[arch][klass][s] for s in SEGMENTS]
            for arch in d for klass in CLASSES]
    return [
        "Paper: Ballerino's decode->dispatch delay is far below CES's (the "
        "S-IQ removes CES's steering stalls), and its `LdC` ready->issue "
        "delay is near zero, like CES's.",
        "",
    ] + _table(["arch", "class", "dec->disp", "disp->ready", "ready->issue"],
               rows, "{:.1f}")


PAPER_FIG13 = {
    "ces": "—", "ces_mda": "+4pp", "ballerino_step1": "+7pp",
    "ballerino_step2": "+5pp", "ballerino": "+13pp",
    "ballerino_ideal": "~+5pp",
}


def _render_fig13(d) -> List[str]:
    rows = []
    previous = None
    for arch, value in d.items():
        step = "—" if previous is None else f"{value / previous - 1:+.1%}"
        rows.append([arch, f"{value:.3f}x", step, PAPER_FIG13[arch]])
        previous = value
    return _table(["step", "speedup over InO", "over previous step",
                   "paper (over previous step)"], rows) + [
        "",
        "**Divergence:** MDA steering's *mechanism* reproduces (the "
        "`mdep_chain` kernel triggers one MDA steer per iteration and the "
        "Figure 6a M-dependence head stalls disappear), but its "
        "end-to-end +4-5pp does not: the suite kernels in which MDA fires "
        "are serial-latency-bound, so freeing a P-IQ does not change the "
        "critical path.  The paper's gains come from SPEC regions that "
        "combine store-set aliasing with P-IQ scarcity.",
    ]


def _render_fig14(d) -> List[str]:
    return [
        "Paper: the S-IQ speculatively issues ~41% of dynamic "
        "instructions, and P-IQ sharing (Step 3) lets the P-IQ cluster "
        "issue several points more than Step 2.",
        "",
    ] + _table(["design", "S-IQ share", "P-IQ share"],
               [[arch, f"{v['siq']:.1%}", f"{v['piq']:.1%}"]
                for arch, v in d.items()])


PAPER_ENERGY = {"ces": "~0.80x", "casino": "~0.88x", "fxa": "~0.93x",
                "ballerino": "~0.81x", "ballerino12": "~0.81x",
                "ooo": "1.00x (ref)"}
PAPER_EFFICIENCY = {"ces": "1.12x", "casino": "0.86x", "fxa": "1.17x",
                    "ballerino": "1.22x", "ballerino12": "1.20x",
                    "ooo": "1.00x (ref)"}


def _render_fig15(d) -> List[str]:
    ooo_total = sum(d["ooo"].values())
    rows = [
        [arch] + [d[arch][cat] / ooo_total for cat in CATEGORIES]
        + [sum(d[arch].values()) / ooo_total, PAPER_ENERGY[arch]]
        for arch in d
    ]
    return ["Suite-total core energy per category, normalised to OoO's "
            "total.", ""] + _table(
        ["arch"] + [c.replace(" ", "") for c in CATEGORIES]
        + ["TOTAL", "paper TOTAL"], rows)


def _render_fig16(d) -> List[str]:
    return _table(["design", "1/EDP vs OoO (geomean)", "paper"],
                  [[arch, value, PAPER_EFFICIENCY[arch]]
                   for arch, value in d.items()])


def _render_fig17a(d) -> List[str]:
    return [
        "Paper: CASINO shines at 2-wide but scales poorly; CES and "
        "Ballerino scale well and Ballerino beats CES at every width; "
        "beyond 8-wide, InO and CASINO gain almost nothing while the "
        "others gain ~5%.  Speedup over the 2-wide InO core, six "
        "scheduling-bound kernels.",
        "",
    ] + _table(["arch"] + [f"{w}-wide" for w in WIDTHS],
               [[a] + [d[(a, w)] for w in WIDTHS] for a in FIG17A_ARCHES],
               "{:.2f}")


def _render_fig17b(d) -> List[str]:
    ces = d[("ces", "L4")]
    rows = [
        [arch, level, ces["seconds"] / p["seconds"], p["power"] / ces["power"],
         p["energy"] / ces["energy"], p["efficiency"] / ces["efficiency"]]
        for (arch, level), p in d.items()
    ]
    return [
        "Paper: levels L4..L1 are [3.4 GHz, 1.04 V] .. [2.8 GHz, 0.96 V]; "
        "Ballerino at full speed is 27% more efficient than OoO at L3.  "
        "All columns normalised to CES at L4.",
        "",
    ] + _table(["arch", "level", "speedup", "power", "energy", "1/EDP"], rows)


def _render_fig17c(d) -> List[str]:
    return [
        "Paper: performance climbs up to eleven P-IQs (Ballerino-12 lands "
        "within ~2% of OoO) and gains shrink beyond.",
        "",
    ] + _table(["P-IQs", "performance vs OoO"],
               [[n, value] for n, value in d.items()])


def _render_mdp(d) -> List[str]:
    rows = [[w, v["violations_none"], v["violations_mdp"], _mdp_reduction(v),
             v["speedup"]] for w, v in d.items()]
    reduction = sum(_mdp_reduction(v) for v in d.values()) / len(d)
    speedup = geomean(v["speedup"] for v in d.values())
    return _table(["workload", "violations w/o MDP", "with MDP", "reduction",
                   "speedup from MDP"], rows, "{:.2f}") + [
        "",
        f"Violations removed: {reduction:.0%} on average (paper: 96%); "
        f"speedup from MDP on the aliasing kernels: {speedup:.2f}x geomean "
        "(paper: 1.5x average).",
    ]


def _render_prefetch(d) -> List[str]:
    return ["Geomean IPC on the streaming kernels.", ""] + _table(
        ["arch", "IPC w/ prefetch", "IPC w/o", "gain"],
        [[a, v["with"], v["without"], v["with"] / v["without"]]
         for a, v in d.items()])


def _render_extensions(d) -> List[str]:
    return _table(["design", "speedup over InO (geomean)"],
                  [[arch, value] for arch, value in d.items()])


def _render_seeds(d) -> List[str]:
    return [
        "The Figure 11 comparison on three workload-data seeds (four "
        "kernels), so the ordering is not an artifact of one dataset.",
        "",
    ] + _table(["arch"] + [f"seed {s}" for s in SEEDS],
               [[a] + [d[(a, s)] for s in SEEDS] for a in SEED_ARCHES])


# ----------------------------------------------------------------------
# the registry: one entry per row of DESIGN.md section 4
# ----------------------------------------------------------------------
def _all(items, test) -> bool:
    return all(test(item) for item in items)


REGISTRY: Dict[str, Figure] = {fig.key: fig for fig in (
    Figure("table1", "Table I — core configurations", _table1,
           _render_table1),
    Figure("table2", "Table II — scheduling-window configurations", _table2,
           _render_table2),
    Figure("fig3c", "Figure 3c — decode-to-issue cycles by class",
           partial(_breakdown, arches=FIG3C_ARCHES), _render_fig3c, (
        Claim("fig3c.ooo_rst_ready_within_20",
              "OoO makes `Rst` ops ready within 20 cycles of dispatch",
              lambda d: d["ooo"]["Rst"]["dispatch_to_ready"] < 20),
        Claim("fig3c.ces_rst_ready_within_20",
              "CES makes `Rst` ops ready within 20 cycles of dispatch",
              lambda d: d["ces"]["Rst"]["dispatch_to_ready"] < 20),
        Claim("fig3c.casino_rst_ready_gt_3x_ooo",
              "CASINO's final in-order IQ delays `Rst` readiness to more "
              "than 3x OoO's",
              lambda d: d["casino"]["Rst"]["dispatch_to_ready"]
              > 3 * d["ooo"]["Rst"]["dispatch_to_ready"]),
        Claim("fig3c.ooo_rst_issue_within_3",
              "OoO issues ready `Rst` ops within 3 cycles",
              lambda d: d["ooo"]["Rst"]["ready_to_issue"] < 3.0),
        Claim("fig3c.ces_rst_issue_within_3",
              "CES issues ready `Rst` ops within 3 cycles",
              lambda d: d["ces"]["Rst"]["ready_to_issue"] < 3.0),
        Claim("fig3c.inorder_rst_issue_gt_5x_ooo",
              "in-order head-of-line blocking makes `Rst` ready->issue "
              "more than 5x OoO's",
              lambda d: d["inorder"]["Rst"]["ready_to_issue"]
              > 5 * d["ooo"]["Rst"]["ready_to_issue"]),
        Claim("fig3c.ldc_wait_gt_50_everywhere",
              "load consumers wait more than 50 cycles for operands on "
              "every design",
              lambda d: _all(d.values(),
                             lambda a: a["LdC"]["dispatch_to_ready"] > 50)),
        Claim("fig3c.inorder_worst_rst_dispatch",
              "the in-order core has the longest `Rst` decode->dispatch "
              "delay",
              lambda d: _all(("ces", "casino", "ooo"), lambda a:
                             d["inorder"]["Rst"]["decode_to_dispatch"]
                             > d[a]["Rst"]["decode_to_dispatch"])),
    )),
    Figure("fig4", "Figure 4 — CES steering outcomes (sorted by "
           "ready-caused stalls)", _fig4, _render_fig4, (
        Claim("fig4.alloc_ready_gt_nonready",
              "ready-at-dispatch instructions cause most P-IQ allocations",
              lambda d: sum(v["alloc_ready"] for v in d.values())
              > sum(v["alloc_nonready"] for v in d.values())),
        Claim("fig4.steer_dc_minority",
              "dependence-chain steering is a minority between 5% and 70% "
              "of outcomes (mean over workloads)",
              lambda d: 0.05 < sum(v["steer_dc"] for v in d.values())
              / len(d) < 0.7),
    )),
    Figure("fig6a", "Figure 6a — P-IQ head-cycle breakdown", _fig6a,
           _render_fig6a, (
        Claim("fig6a.step1_issue_lt_35pct",
              "Step-1 P-IQ heads issue in less than 35% of head-cycles",
              lambda d: d["ballerino_step1"]["issue"] < 0.35),
        Claim("fig6a.step1_mdep_stalls_exist",
              "M-dependence head stalls exist in Step 1",
              lambda d: d["ballerino_step1"]["wait_mdep"] > 0),
        Claim("fig6a.step2_mdep_le_step1",
              "MDA steering (Step 2) does not increase M-dependence stalls",
              lambda d: d["ballerino_step2"]["wait_mdep"]
              <= d["ballerino_step1"]["wait_mdep"]),
    )),
    Figure("fig6b", "Figure 6b — Step-2 IPC vs P-IQ count and size", _fig6b,
           _render_fig6b, (
        Claim("fig6b.count_gain_gt_8pct",
              "11 P-IQs beat 2 by more than 8% IPC",
              lambda d: d[("count", 11)] / d[("count", 2)] > 1.08),
        Claim("fig6b.size_gain_lt_count_gain",
              "the 6->24-entry size gain is below the 2->11 count gain",
              lambda d: d[("size", 24)] / d[("size", 6)]
              < d[("count", 11)] / d[("count", 2)]),
        Claim("fig6b.count8_ge_count4", "8 P-IQs do at least as well as 4",
              lambda d: d[("count", 8)] >= d[("count", 4)]),
    )),
    Figure("fig11", "Figure 11 — 8-wide performance over InO", _fig11,
           _render_fig11, (
        Claim("fig11.casino_lt_ces_lt_ooo", "CASINO < CES < OoO",
              lambda d: d["geomean"]["casino"] < d["geomean"]["ces"]
              < d["geomean"]["ooo"]),
        Claim("fig11.ballerino_gt_ces", "Ballerino beats CES",
              lambda d: d["geomean"]["ballerino"] > d["geomean"]["ces"]),
        Claim("fig11.ballerino12_ge_ballerino",
              "Ballerino-12 does at least as well as Ballerino",
              lambda d: d["geomean"]["ballerino12"]
              >= d["geomean"]["ballerino"]),
        Claim("fig11.ballerino12_gt_93pct_ooo",
              "Ballerino-12 reaches more than 93% of OoO (paper: within "
              "~2%)",
              lambda d: d["geomean"]["ballerino12"] / d["geomean"]["ooo"]
              > 0.93),
        Claim("fig11.oldest_gt_98pct_ooo",
              "oldest-first select reaches more than 98% of OoO (paper: "
              "+2%)",
              lambda d: d["geomean"]["ooo_oldest"] / d["geomean"]["ooo"]
              > 0.98),
    )),
    Figure("fig12", "Figure 12 — decode-to-issue cycles incl. Ballerino",
           partial(_breakdown, arches=FIG12_ARCHES), _render_fig12, (
        Claim("fig12.ballerino_dispatch_lt_ces_every_class",
              "Ballerino's decode->dispatch delay is below CES's for every "
              "class",
              lambda d: _all(CLASSES, lambda k:
                             d["ballerino"][k]["decode_to_dispatch"]
                             < d["ces"][k]["decode_to_dispatch"])),
        Claim("fig12.ballerino_ldc_issue_within_5",
              "Ballerino issues ready `LdC` ops within 5 cycles",
              lambda d: d["ballerino"]["LdC"]["ready_to_issue"] < 5),
        Claim("fig12.ces_ldc_issue_within_5",
              "CES issues ready `LdC` ops within 5 cycles",
              lambda d: d["ces"]["LdC"]["ready_to_issue"] < 5),
        Claim("fig12.ballerino_ldc_wait_lt_2x_ooo",
              "Ballerino's `LdC` operand wait is under 2x OoO's",
              lambda d: d["ballerino"]["LdC"]["dispatch_to_ready"]
              < 2.0 * d["ooo"]["LdC"]["dispatch_to_ready"]),
    )),
    Figure("fig13", "Figure 13 — step-by-step techniques", _fig13,
           _render_fig13, (
        Claim("fig13.ces_mda_ge_99pct_ces",
              "MDA on CES costs at most 1%",
              lambda d: d["ces_mda"] >= d["ces"] * 0.99),
        Claim("fig13.step1_ge_99pct_ces", "Step 1 costs at most 1% vs CES",
              lambda d: d["ballerino_step1"] >= d["ces"] * 0.99),
        Claim("fig13.step2_ge_99pct_step1",
              "Step 2 costs at most 1% vs Step 1",
              lambda d: d["ballerino_step2"] >= d["ballerino_step1"] * 0.99),
        Claim("fig13.ballerino_ge_99pct_step2",
              "Step 3 (Ballerino) costs at most 1% vs Step 2",
              lambda d: d["ballerino"] >= d["ballerino_step2"] * 0.99),
        Claim("fig13.ballerino_gt_ces", "the full design beats plain CES",
              lambda d: d["ballerino"] > d["ces"]),
        Claim("fig13.ideal_le_108pct_ballerino",
              "ideal sharing is at most 8% above the implementable design",
              lambda d: d["ballerino_ideal"] <= d["ballerino"] * 1.08),
    )),
    Figure("fig14", "Figure 14 — issue mix", _fig14, _render_fig14, (
        Claim("fig14.siq_share_15_to_75pct",
              "the S-IQ issues between 15% and 75% of instructions in "
              "every step",
              lambda d: _all(d.values(), lambda v: 0.15 < v["siq"] < 0.75)),
        Claim("fig14.sharing_keeps_piq_share",
              "sharing keeps at least 90% of Step 2's P-IQ issue share",
              lambda d: d["ballerino"]["piq"]
              >= d["ballerino_step2"]["piq"] * 0.9),
    )),
    Figure("fig15", "Figure 15 — core energy vs OoO", _fig15, _render_fig15, (
        Claim("fig15.in_order_iq_designs_below_ooo",
              "CES, Ballerino and Ballerino-12 use less energy than OoO",
              lambda d: _all(("ces", "ballerino", "ballerino12"), lambda a:
                             sum(d[a].values()) / sum(d["ooo"].values())
                             < 1.0)),
        Claim("fig15.ballerino_schedule_lt_60pct_ooo",
              "Ballerino's scheduling energy is under 60% of OoO's",
              lambda d: d["ballerino"]["Schedule"]
              < 0.6 * d["ooo"]["Schedule"]),
        Claim("fig15.casino_schedule_gt_ces",
              "CASINO spends more scheduling energy than CES",
              lambda d: d["casino"]["Schedule"] > d["ces"]["Schedule"]),
        Claim("fig15.fxa_schedule_gt_ballerino",
              "FXA spends more scheduling energy than Ballerino",
              lambda d: d["fxa"]["Schedule"] > d["ballerino"]["Schedule"]),
    )),
    Figure("fig16", "Figure 16 — energy efficiency (1/EDP) vs OoO", _fig16,
           _render_fig16, (
        Claim("fig16.ballerino_gt_ooo", "Ballerino beats OoO on 1/EDP",
              lambda d: d["ballerino"] > 1.0),
        Claim("fig16.ballerino12_gt_ooo", "Ballerino-12 beats OoO on 1/EDP",
              lambda d: d["ballerino12"] > 1.0),
        Claim("fig16.ballerino_gt_casino", "Ballerino beats CASINO on 1/EDP",
              lambda d: d["ballerino"] > d["casino"]),
        Claim("fig16.ballerino12_ge_98pct_ces",
              "Ballerino-12 reaches at least 98% of CES's 1/EDP",
              lambda d: d["ballerino12"] >= d["ces"] * 0.98),
        Claim("fig16.ooo_is_reference", "OoO normalises to exactly 1.0",
              lambda d: d["ooo"] == 1.0),
    )),
    Figure("fig17a", "Figure 17a — issue-width scaling", _fig17a,
           _render_fig17a, (
        Claim("fig17a.all_scale_2_to_8",
              "every design is faster at 8-wide than at 2-wide",
              lambda d: _all(FIG17A_ARCHES,
                             lambda a: d[(a, 8)] > d[(a, 2)])),
        Claim("fig17a.inorder_flat_past_8",
              "InO gains less than 6% from 8- to 10-wide",
              lambda d: d[("inorder", 10)] < d[("inorder", 8)] * 1.06),
        Claim("fig17a.ballerino_ge_97pct_ces_every_width",
              "Ballerino reaches at least 97% of CES at every width",
              lambda d: _all(WIDTHS, lambda w:
                             d[("ballerino", w)] >= d[("ces", w)] * 0.97)),
        Claim("fig17a.dependence_designs_outscale_casino_past_8",
              "CES, Ballerino and OoO gain more than CASINO from 8- to "
              "10-wide",
              lambda d: _all(("ces", "ballerino", "ooo"), lambda a:
                             d[(a, 10)] / d[(a, 8)]
                             > d[("casino", 10)] / d[("casino", 8)])),
        Claim("fig17a.casino_lt_ces_from_4_wide",
              "CASINO trails CES at 4, 8 and 10 wide",
              lambda d: _all((4, 8, 10), lambda w:
                             d[("casino", w)] < d[("ces", w)])),
        Claim("fig17a.casino_lt_ballerino_from_4_wide",
              "CASINO trails Ballerino at 4, 8 and 10 wide",
              lambda d: _all((4, 8, 10), lambda w:
                             d[("casino", w)] < d[("ballerino", w)])),
    )),
    Figure("fig17b", "Figure 17b — DVFS levels", _fig17b, _render_fig17b, (
        Claim("fig17b.lower_levels_slower",
              "every design is slower at L1 than at L4",
              lambda d: _all(FIG17B_ARCHES, lambda a:
                             d[(a, "L1")]["seconds"]
                             > d[(a, "L4")]["seconds"])),
        Claim("fig17b.lower_levels_lower_power",
              "every design draws less power at L1 than at L4",
              lambda d: _all(FIG17B_ARCHES, lambda a:
                             d[(a, "L1")]["power"] < d[(a, "L4")]["power"])),
        Claim("fig17b.ballerino_l4_time_le_101pct_ces",
              "Ballerino at L4 takes at most 1% longer than CES at L4",
              lambda d: d[("ballerino", "L4")]["seconds"]
              <= d[("ces", "L4")]["seconds"] * 1.01),
        Claim("fig17b.ballerino_l4_eff_ge_99pct_ces",
              "Ballerino at L4 reaches at least 99% of CES's 1/EDP at L4",
              lambda d: d[("ballerino", "L4")]["efficiency"]
              >= d[("ces", "L4")]["efficiency"] * 0.99),
        Claim("fig17b.ooo_power_premium_gt_5pct",
              "OoO at L4 draws more than 5% more power than CES at L4",
              lambda d: d[("ooo", "L4")]["power"]
              > d[("ces", "L4")]["power"] * 1.05),
        Claim("fig17b.ballerino_l4_beats_ooo_any_level",
              "Ballerino at L4 is more efficient than OoO at any level",
              lambda d: _all(LEVELS, lambda level:
                             d[("ballerino", "L4")]["efficiency"]
                             > d[("ooo", level)]["efficiency"])),
    )),
    Figure("fig17c", "Figure 17c — P-IQ count sweep (vs OoO = 1.0)", _fig17c,
           _render_fig17c, (
        Claim("fig17c.count11_gt_count3", "11 P-IQs beat 3",
              lambda d: d[11] > d[3]),
        Claim("fig17c.count11_gt_93pct_ooo",
              "11 P-IQs reach more than 93% of OoO",
              lambda d: d[11] > 0.93),
        Claim("fig17c.count15_lt_103pct_count11",
              "15 P-IQs gain less than 3% over 11",
              lambda d: d[15] < d[11] * 1.03),
        Claim("fig17c.monotone_within_1pct",
              "each step up in P-IQ count loses at most 1%",
              lambda d: _all(zip(PIQ_COUNTS, PIQ_COUNTS[1:]),
                             lambda ab: d[ab[1]] >= d[ab[0]] * 0.99)),
    )),
    Figure("mdp", "SIII-B — store-set MDP ablation", _mdp, _render_mdp, (
        Claim("mdp.violations_without_mdp",
              "every aliasing kernel has order violations without MDP",
              lambda d: _all(d.values(), lambda v: v["violations_none"] > 0)),
        Claim("mdp.reduction_gt_60pct",
              "MDP removes more than 60% of the violations on every "
              "aliasing kernel (paper: 96%)",
              lambda d: _all(d.values(), lambda v: _mdp_reduction(v) > 0.6)),
        Claim("mdp.geomean_speedup_gt_1_2",
              "MDP's geomean speedup exceeds 1.2x (paper: 1.5x)",
              lambda d: geomean(v["speedup"] for v in d.values()) > 1.2),
    )),
    Figure("prefetch", "Ablation — stride prefetcher on streaming kernels",
           _prefetch, _render_prefetch, (
        Claim("prefetch.helps_every_design",
              "the prefetcher raises IPC on every design",
              lambda d: _all(d.values(), lambda v: v["with"] > v["without"])),
        Claim("prefetch.ooo_gt_inorder_without",
              "without it, OoO still beats InO",
              lambda d: d["ooo"]["without"] > d["inorder"]["without"]),
    )),
    Figure("extensions", "Extensions — DNB and SPQ vs the paper's designs",
           _extensions, _render_extensions, (
        Claim("extensions.casino_lt_dnb_le_101pct_ooo",
              "DNB lands above CASINO and at most 1% above OoO",
              lambda d: d["casino"] < d["dnb"] <= d["ooo"] * 1.01),
        Claim("extensions.dnb_le_105pct_ballerino",
              "DNB stays within 5% above Ballerino",
              lambda d: d["dnb"] <= d["ballerino"] * 1.05),
        Claim("extensions.casino_lt_spq", "SPQ beats CASINO",
              lambda d: d["casino"] < d["spq"]),
        Claim("extensions.spq_le_102pct_ballerino",
              "SPQ stays within 2% above Ballerino",
              lambda d: d["spq"] <= d["ballerino"] * 1.02),
    )),
    Figure("seeds", "Methodology — seed stability of the headline ordering",
           _seeds, _render_seeds, (
        Claim("seeds.casino_lt_102pct_ces",
              "CASINO stays below 102% of CES on every seed",
              lambda d: _all(SEEDS, lambda s:
                             d[("casino", s)] < d[("ces", s)] * 1.02)),
        Claim("seeds.ces_le_103pct_ballerino",
              "CES stays within 103% of Ballerino on every seed",
              lambda d: _all(SEEDS, lambda s:
                             d[("ces", s)] <= d[("ballerino", s)] * 1.03)),
        Claim("seeds.ballerino_le_102pct_ooo",
              "Ballerino stays within 102% of OoO on every seed",
              lambda d: _all(SEEDS, lambda s:
                             d[("ballerino", s)] <= d[("ooo", s)] * 1.02)),
        Claim("seeds.inorder_lt_ballerino",
              "Ballerino beats InO on every seed",
              lambda d: _all(SEEDS, lambda s:
                             d[("inorder", s)] < d[("ballerino", s)])),
        Claim("seeds.ballerino_ooo_spread_lt_10pct",
              "Ballerino/OoO varies by less than 0.10 across seeds",
              lambda d: max(d[("ballerino", s)] / d[("ooo", s)] for s in SEEDS)
              - min(d[("ballerino", s)] / d[("ooo", s)] for s in SEEDS)
              < 0.10),
    )),
)}


# ----------------------------------------------------------------------
# the report
# ----------------------------------------------------------------------
def _section(figure: Figure, data: Any) -> List[str]:
    """One figure's report section: heading, table and claim verdicts."""
    lines = [f"## {figure.title}", ""] + figure.render(data) + [""]
    if figure.claims:
        lines += [
            f"- **{'holds' if claim.holds(data) else 'does not hold'}**: "
            f"{claim.text} (`{claim.name}`)"
            for claim in figure.claims
        ] + [""]
    return lines


def build_report(runner: ExperimentRunner = None) -> str:
    """Render the full paper-vs-measured Markdown report.

    Without a ``runner``, a default one is built and closed."""
    if runner is None:
        with contextlib.closing(ExperimentRunner()) as runner:
            return build_report(runner)
    lines: List[str] = [
        "# EXPERIMENTS — paper vs. measured",
        "",
        f"Workloads: the 13-kernel synthetic suite ({runner.target_ops} "
        f"micro-ops per trace, seed {runner.seed}); speedup and efficiency "
        "aggregates are geometric means over kernels.  Absolute speedups "
        "are smaller than the paper's SPEC numbers because the suite "
        "deliberately includes serial and bandwidth-bound kernels where no "
        "scheduler can win; every reproduced claim below is about the "
        "*shape* (ordering, ratios, crossovers), per DESIGN.md.  Each "
        "claim's verdict is computed from the numbers above it; "
        "`pytest benchmarks/` fails when a claim does not hold or when "
        "this file is out of date.",
        "",
    ]
    for figure in REGISTRY.values():
        lines += _section(figure, figure.collect(runner))

    # ---------------- sampled-simulation knobs ----------------
    # static guidance (measured once, see docs/performance.md): which
    # sampling knobs to start from per kernel class when scaling the
    # experiments above to longer traces
    add = lines.append
    add("## Sampled-simulation starting points (per kernel class)")
    add("")
    add(
        "All tables above are full-detail runs.  For longer traces, "
        "`--sample` (docs/performance.md) trades ≤5% IPC error for "
        "~10x wall-clock; the right `period/window` depends on the "
        "kernel class:"
    )
    add("")
    add("| kernel class | examples | knobs | why |")
    add("|---|---|---|---|")
    add(
        "| streaming / bandwidth-bound | `stream_triad`, `dotprod` | "
        "`window=3000, period<=25x window, ff_warmup_ops=1000-2000` | "
        "fast-forward warming must carry DRAM row/bank pressure into "
        "the window |\n"
        "| ILP-heavy / wide dataflow | `dag_wide`, `matmul_tile` | "
        "`window>=4000`, contiguous-ish (`period<=3x window`) | "
        "window-drain bias understates steady-state ILP in small "
        "gapped windows (10-30% low) |\n"
        "| latency-bound / serial | `pointer_chase`, `mdep_chain` | "
        "`window=2000, period=20x window` | IPC is flat and "
        "phase-free; almost any window is representative |\n"
        "| branchy / mixed | `histogram`, `branchy_count` | "
        "`window=2000-4000, period<=10x window, ff_warmup_ops=0` | "
        "warm the whole gap so TAGE/BTB state tracks the trace |"
    )
    add("")
    add(
        "Whole-window measurement (`warmup_cycles=0`, the default) is "
        "the accurate protocol — a mid-window measurement boundary "
        "cuts through in-flight work and inflates short-window IPC.  "
        "Validation config `period=1000, window=1000` reproduces every "
        "84-cell golden IPC within 5% (`tests/test_sampling.py`)."
    )
    add("")
    add("Regenerate this file: `python -m repro.analysis.experiments > EXPERIMENTS.md`")
    add("")
    return "\n".join(lines)


def main() -> None:  # pragma: no cover - exercised via CLI test
    print(build_report())


if __name__ == "__main__":  # pragma: no cover
    main()
