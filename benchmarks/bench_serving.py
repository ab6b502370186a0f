"""Serving-layer acceptance benchmark: the fingerprint cache must pay.

Runs the canonical loadtest (``seed=0, duration=5s``, repeat-heavy mix)
twice — fingerprint cache on and off — and records the p50 latency win,
cache hit rate and shed accounting in ``benchmarks/BENCH_serving.json``.
The serving simulator runs on a virtual clock, so every number here is
deterministic: the band guard can therefore pin the headline values to
the recorded references in ``reference_bands.json`` at the usual 10%
tolerance (drift means the cost model or scheduler changed, not noise).

Regenerate the committed record with ``python benchmarks/bench_serving.py``
after an intentional serving-model change (and say why in the commit).
"""

import json
from pathlib import Path

from repro.experiments.regression import band_failures
from repro.experiments.report import ExperimentTable
from repro.serve import LoadSpec, ServiceConfig, run_loadtest

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_serving.json"

ACCEPTANCE_RATIO = 2.0
"""Acceptance floor: warm-cache p50 must beat --no-cache p50 by >2x."""

CANONICAL_SPEC = LoadSpec(seed=0, duration_s=5.0, mix="repeat-heavy")


def _mode_record(report) -> dict:
    doc = report.as_dict(include_responses=False)
    return {
        "p50_ms": doc["latency_ms"]["overall"]["p50"],
        "p99_ms": doc["latency_ms"]["overall"]["p99"],
        "completed": doc["requests"]["completed"],
        "shed": doc["requests"]["shed"],
        "expired": doc["requests"]["expired"],
        "unaccounted": doc["requests"]["unaccounted"],
        "cache_hit_rate": doc["cache"]["hit_rate"],
        "config_loads": doc["batches"]["config_loads"],
        "batches": doc["batches"]["count"],
        "device_seconds": doc["fleet"]["device_seconds"],
    }


def measure() -> dict:
    warm = run_loadtest(CANONICAL_SPEC)
    cold = run_loadtest(
        CANONICAL_SPEC, ServiceConfig(cache_enabled=False)
    )
    warm_record = _mode_record(warm)
    cold_record = _mode_record(cold)
    return {
        "spec": {
            "seed": CANONICAL_SPEC.seed,
            "duration_s": CANONICAL_SPEC.duration_s,
            "rate_rps": CANONICAL_SPEC.rate_rps,
            "mix": CANONICAL_SPEC.mix,
        },
        "warm_cache": warm_record,
        "no_cache": cold_record,
        "p50_speedup": round(
            cold_record["p50_ms"] / warm_record["p50_ms"], 4
        ),
    }


def run() -> tuple[ExperimentTable, dict]:
    report = measure()
    table = ExperimentTable(
        experiment_id="Serving S2",
        title=(
            "Plan-cache effect on serving latency "
            f"(seed={report['spec']['seed']}, "
            f"{report['spec']['duration_s']:.0f}s @ "
            f"{report['spec']['rate_rps']:.0f} rps, "
            f"{report['spec']['mix']})"
        ),
        headers=(
            "mode", "p50 ms", "p99 ms", "hit rate",
            "config loads", "unaccounted",
        ),
    )
    for mode, record in (
        ("warm cache", report["warm_cache"]),
        ("no cache", report["no_cache"]),
    ):
        table.add_row(
            mode,
            round(record["p50_ms"], 3),
            round(record["p99_ms"], 3),
            round(record["cache_hit_rate"], 3),
            record["config_loads"],
            record["unaccounted"],
        )
    table.add_note(
        f"p50 speedup warm vs no-cache: {report['p50_speedup']:.2f}x "
        f"(acceptance floor {ACCEPTANCE_RATIO:.0f}x)"
    )
    return table, report


def test_bench_serving(benchmark, print_table):
    table, report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(table)
    # Accounting invariant: nothing dropped without an explicit response.
    assert report["warm_cache"]["unaccounted"] == 0
    assert report["no_cache"]["unaccounted"] == 0
    # The acceptance criterion: >2x p50 win on repeat-heavy traffic.
    assert report["p50_speedup"] > ACCEPTANCE_RATIO, (
        f"warm cache p50 win {report['p50_speedup']:.2f}x "
        f"below the {ACCEPTANCE_RATIO:.0f}x acceptance floor"
    )
    # Band guard: serving headline values must not drift.
    measured = {
        "serving_warm_p50_ms": report["warm_cache"]["p50_ms"],
        "serving_nocache_p50_ms": report["no_cache"]["p50_ms"],
        "serving_cache_speedup": report["p50_speedup"],
        "serving_cache_hit_rate": report["warm_cache"]["cache_hit_rate"],
    }
    failures = band_failures(measured)
    assert not failures, "; ".join(failures)


def test_committed_record_meets_acceptance():
    """The committed record shows the >2x serving acceptance result."""
    with open(BENCH_PATH) as fh:
        committed = json.load(fh)
    assert committed["p50_speedup"] > ACCEPTANCE_RATIO
    assert committed["warm_cache"]["unaccounted"] == 0
    assert committed["no_cache"]["unaccounted"] == 0


def main() -> int:  # pragma: no cover - CLI
    table, report = run()
    with open(BENCH_PATH, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(table.to_text())
    print(f"written: {BENCH_PATH}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
