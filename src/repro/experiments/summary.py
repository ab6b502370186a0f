"""Reproduction summary: every paper claim checked in one run.

Programmatic version of EXPERIMENTS.md — executes the full experiment
suite, extracts each figure's headline number, compares it to the paper's
value, and reports whether the *shape claim* (ordering / factor /
flattening) holds.  ``python -m repro summary`` prints it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.experiments import (
    fig1,
    fig10,
    fig11,
    fig12,
    fig13,
    fig2,
    fig5,
    fig6,
    fig7,
    fig8,
    fig9,
    table2,
)
from repro.experiments.report import ExperimentTable


@dataclass(frozen=True)
class ClaimCheck:
    """One verified shape claim."""

    experiment: str
    claim: str
    paper: str
    measured: str
    holds: bool


def collect(
    keys: tuple[str, ...] | None = None,
) -> tuple[dict[str, float], list[ClaimCheck]]:
    """Run every experiment once: the nine headline numbers, then the
    paper's claims, which read those numbers.

    This is the one place a paper-figure claim is checked: each
    ``holds`` joins every shape property of its figure, the per-dataset
    ones included.  The headlines are this repository's own
    measurements, which tier-1 pins exactly on the full 25-dataset run
    (``tests/experiments/test_summary.py``); tier-1 also requires every
    claim to hold there and on a six-dataset subset.
    """
    t2 = table2.run(keys)
    f1 = fig1.run(keys)
    f5 = fig5.run(keys)
    f6 = fig6.run(keys)
    f8 = fig8.run(keys)
    f9 = fig9.run(keys)
    f10 = fig10.run(keys)
    gmean = list(f6.rows[-1][1:])
    headlines = {
        "table2_matches": sum(1 for m in t2.column("matches paper") if m),
        "fig1_mean_spmv_share": float(np.mean(f1.column("spmv_share"))),
        "fig5_rate_at_ropt8": f5.rows[-1][f5.headers.index("rOpt=8")],
        "fig6_gmean_urb1": gmean[0],
        "fig6_gmean_urb64": gmean[-1],
        "fig8_acamar_ru": f8.rows[-1][1],
        "fig8_gpu_ru": f8.rows[-1][2],
        "fig9_acamar_throughput": f9.rows[-1][1],
        "fig10_area_saving": f10.rows[-1][5],
    }
    checks: list[ClaimCheck] = []

    matches = headlines["table2_matches"]
    acamar_all = "all" if all(t2.column("Acamar")) else "NOT all"
    checks.append(ClaimCheck(
        "Table II", "per-solver convergence patterns match; Acamar all-converge",
        "25 rows, Acamar all ✓",
        f"{matches}/{len(t2.rows)} match, Acamar {acamar_all} ✓",
        matches == len(t2.rows) and all(t2.column("Acamar")),
    ))

    share = headlines["fig1_mean_spmv_share"]
    shares = f1.column("spmv_share")
    checks.append(ClaimCheck(
        "Figure 1", "SpMV dominates solver latency",
        "most of the time", f"mean share {share:.0%}",
        share > 0.5 and np.quantile(shares, 0.1) > 0.3
        and all(0.0 < s < 1.0 for s in shares),
    ))

    f2 = fig2.run(keys)
    best = set(f2.column("best URB"))
    wider_wastes_more = float(np.mean(f2.column("URB=64"))) > float(
        np.mean(f2.column("URB=4"))
    )
    checks.append(ClaimCheck(
        "Figure 2", "no single static unroll factor is optimal",
        "varies per dataset", f"best URB spans {sorted(best)}",
        len(best) > 1 and wider_wastes_more,
    ))

    rates = list(f5.rows[-1][1:])
    tail = headlines["fig5_rate_at_ropt8"] - rates[-1]
    head = rates[0] - headlines["fig5_rate_at_ropt8"]
    checks.append(ClaimCheck(
        "Figure 5", "reconfiguration rate flattens after rOpt=8",
        "almost constant past 8",
        f"drop {head:.2f} before rOpt=8 vs {tail:.3f} after",
        tail < head / 2 and tail < 0.1
        and all(a >= b - 1e-12 for a, b in zip(rates, rates[1:])),
    ))

    urb1 = headlines["fig6_gmean_urb1"]
    urb64 = headlines["fig6_gmean_urb64"]
    best_speedup = max(max(row[1:]) for row in f6.rows[:-1])
    checks.append(ClaimCheck(
        "Figure 6", "large speedup at URB=1, diminishing, flat past 16",
        "up to 11.61x",
        f"up to {best_speedup:.1f}x, GMEAN {urb1:.1f}x at URB=1, "
        f"{urb64:.2f}x at URB=64",
        best_speedup > 6.0 and urb1 > 3.0 and urb1 > gmean[2] > gmean[3]
        and abs(urb64 - gmean[-2]) < 0.15,
    ))

    f7 = fig7.run(keys)
    best_ratio = max(max(row[1:]) for row in f7.rows)
    checks.append(ClaimCheck(
        "Figure 7", "R.U. improvement grows with baseline allocation",
        "up to 3x", f"up to {best_ratio:.1f}x",
        best_ratio > 2.0 and all(row[-1] > row[1] for row in f7.rows),
    ))

    acamar_ru = headlines["fig8_acamar_ru"]
    gpu_ru = headlines["fig8_gpu_ru"]
    checks.append(ClaimCheck(
        "Figure 8", "Acamar wastes far fewer compute units than the GPU",
        "50% vs 81%", f"{acamar_ru:.0%} vs {gpu_ru:.0%}",
        acamar_ru < gpu_ru - 0.15
        and all(row[1] < row[2] for row in f8.rows[:-1]),
    ))

    acamar_tp, gpu_tp = headlines["fig9_acamar_throughput"], f9.rows[-1][3]
    checks.append(ClaimCheck(
        "Figure 9", "Acamar near-peak throughput, GPU a few percent",
        "~70% vs <<1%", f"{acamar_tp:.0%} vs {gpu_tp:.2%}",
        0.55 < acamar_tp < 0.9 and gpu_tp < 0.02
        and max(row[1] for row in f9.rows[:-1]) > 0.70,
    ))

    saving = headlines["fig10_area_saving"]
    acamar_eff, static_eff = f10.rows[-1][1], f10.rows[-1][2]
    datasets = f10.rows[:-1]
    below_static = sum(1 for row in datasets if row[1] < row[2])
    checks.append(ClaimCheck(
        "Figure 10", "higher GFLOPS/mm², positive area saving",
        "~720 GFLOPS/mm², ~2x area",
        f"{acamar_eff:.0f} GFLOPS/mm², {saving:.2f}x area",
        saving > 1.0 and 300 < acamar_eff < 1500
        and acamar_eff > 0.9 * static_eff
        and below_static < len(datasets) / 2,
    ))

    f11 = fig11.run(keys)
    lat_cols = [i for i, h in enumerate(f11.headers) if h.startswith("lat@")]
    ru_cols = [i for i, h in enumerate(f11.headers) if h.startswith("RU@")]
    drift = max(
        abs(row[i] - 1.0) for row in f11.rows for i in lat_cols
    )
    ru_spread = max(
        max(row[i] for i in ru_cols) - min(row[i] for i in ru_cols)
        for row in f11.rows
    )
    checks.append(ClaimCheck(
        "Figure 11", "MSID stages leave latency/R.U. nearly unchanged",
        "almost constant", f"max latency drift {drift:.1%}",
        drift < 0.25 and ru_spread < 0.15,
    ))

    f12 = fig12.run(keys)
    sampled = list(f12.rows[-1][1:])
    first, last = sampled[0], sampled[-1]
    checks.append(ClaimCheck(
        "Figure 12", "R.U. decreases with sampling rate",
        "decreasing", f"{first:.2f} -> {last:.2f}",
        last < first and last < sampled[len(sampled) // 2],
    ))

    f13 = fig13.run(keys)
    budgets = f13.column("budget_ms")
    positive = sum(1 for b in budgets if b > 0)
    checks.append(ClaimCheck(
        "Figure 13", "positive reconfiguration-time budget vs URB=8 baseline",
        "bounded budgets", f"{positive}/{len(budgets)} datasets positive",
        positive >= 0.7 * len(budgets)
        and all(e >= 0 for e in f13.column("events")),
    ))
    return headlines, checks


def collect_claims(keys: tuple[str, ...] | None = None) -> list[ClaimCheck]:
    """Run every experiment and evaluate the paper's headline claims."""
    return collect(keys)[1]


def run(keys: tuple[str, ...] | None = None) -> ExperimentTable:
    """Render the claim checklist as a table."""
    table = ExperimentTable(
        experiment_id="Summary",
        title="Paper-vs-measured claim checklist",
        headers=("experiment", "claim", "paper", "measured", "holds"),
    )
    checks = collect_claims(keys)
    for check in checks:
        table.add_row(
            check.experiment, check.claim, check.paper, check.measured,
            check.holds,
        )
    holding = sum(1 for c in checks if c.holds)
    table.add_note(f"{holding}/{len(checks)} claims hold")
    return table
