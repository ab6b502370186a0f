"""Golden-band regression guard for the reproduction's own numbers.

``summary`` checks the *paper's* claims; this module pins *this
repository's* measured headline values inside tolerance bands, so a
refactor that quietly shifts a modeled number — while still technically
satisfying the looser paper claims — fails loudly.  The reference bands
live in ``benchmarks/reference_bands.json`` and were recorded from the
full 25-dataset run; regenerate them deliberately with
``python -m repro.experiments.regression --update`` after an intentional
model change (and say why in the commit).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.experiments import fig1, fig10, fig5, fig6, fig8, fig9, table2

DEFAULT_BANDS_PATH = (
    Path(__file__).resolve().parents[3] / "benchmarks" / "reference_bands.json"
)

RELATIVE_TOLERANCE = 0.10
"""Allowed drift of each metric from its recorded reference (10 %)."""

BENCH_GUARDED_PREFIXES = (
    "hotpath_",
    "serving_",
    "cluster_",
    "dse_",
    "placement_",
)
"""Band-name prefixes owned by dedicated benchmark guards
(``bench_hot_path.py``, ``bench_serving.py``, ``bench_cluster.py``,
``bench_dse.py``, ``bench_placement.py``), not
derivable from the modeled headline metrics this module measures."""


@dataclass(frozen=True)
class MetricCheck:
    """One pinned metric's verdict."""

    name: str
    reference: float
    measured: float
    within_band: bool


def measure_headlines(keys: tuple[str, ...] | None = None) -> dict[str, float]:
    """Compute the pinned headline metrics from live experiment runs."""
    t2 = table2.run(keys)
    f1 = fig1.run(keys)
    f5 = fig5.run(keys)
    f6 = fig6.run(keys)
    f8 = fig8.run(keys)
    f9 = fig9.run(keys)
    f10 = fig10.run(keys)
    gmean = list(f6.rows[-1][1:])
    return {
        "table2_matches": float(sum(1 for m in t2.column("matches paper") if m)),
        "fig1_mean_spmv_share": float(np.mean(f1.column("spmv_share"))),
        "fig5_rate_at_ropt8": float(f5.rows[-1][
            f5.headers.index("rOpt=8")
        ]),
        "fig6_gmean_urb1": float(gmean[0]),
        "fig6_gmean_urb64": float(gmean[-1]),
        "fig8_acamar_ru": float(f8.rows[-1][1]),
        "fig8_gpu_ru": float(f8.rows[-1][2]),
        "fig9_acamar_throughput": float(f9.rows[-1][1]),
        "fig10_area_saving": float(f10.rows[-1][5]),
    }


def load_bands(path: str | Path = DEFAULT_BANDS_PATH) -> dict[str, float]:
    """Read the pinned reference values."""
    with open(path) as fh:
        return {k: float(v) for k, v in json.load(fh).items()}


def save_bands(
    values: dict[str, float], path: str | Path = DEFAULT_BANDS_PATH
) -> Path:
    """Write new reference values (deliberate update only)."""
    path = Path(path)
    with open(path, "w") as fh:
        json.dump(values, fh, indent=2, sort_keys=True)
    return path


def check_regression(
    keys: tuple[str, ...] | None = None,
    path: str | Path = DEFAULT_BANDS_PATH,
    rtol: float = RELATIVE_TOLERANCE,
) -> list[MetricCheck]:
    """Compare live headline metrics against the pinned bands."""
    reference = load_bands(path)
    measured = measure_headlines(keys)
    checks = []
    for name, ref_value in sorted(reference.items()):
        if name.startswith(BENCH_GUARDED_PREFIXES):
            # Guarded by their own benchmarks (bench_hot_path.py,
            # bench_serving.py), not derivable from the modeled headline
            # metrics.
            continue
        value = measured[name]
        scale = max(abs(ref_value), 1e-12)
        checks.append(
            MetricCheck(
                name=name,
                reference=ref_value,
                measured=value,
                within_band=abs(value - ref_value) / scale <= rtol,
            )
        )
    return checks


def main(argv: list[str] | None = None) -> int:  # pragma: no cover - CLI
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--update", action="store_true",
        help="re-record the reference bands from a live run",
    )
    args = parser.parse_args(argv)
    if args.update:
        # Only the headlines are measured here: the bench-guarded bands
        # on disk are kept as they are.
        bands = load_bands(DEFAULT_BANDS_PATH)
        bands.update(measure_headlines())
        path = save_bands(bands, DEFAULT_BANDS_PATH)
        print(f"reference bands updated: {path}")
        return 0
    checks = check_regression(path=DEFAULT_BANDS_PATH)
    for check in checks:
        mark = "OK " if check.within_band else "DRIFT"
        print(f"{mark} {check.name}: ref={check.reference:.4g} "
              f"measured={check.measured:.4g}")
    return 0 if all(c.within_band for c in checks) else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
