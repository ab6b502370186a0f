"""Cluster-tier acceptance benchmark: affinity and autoscaling must pay.

Three runs of the canonical cluster loadtest (``seed=0, 60s @ 2000 rps``,
repeat-heavy mix) feed ``benchmarks/BENCH_cluster.json``:

- **warm affinity** — fingerprint-routed placement with autoscaling
  (the default configuration),
- **no affinity** — identical load, round-robin routing; every migrated
  fingerprint re-pays remote fetches and reconfigurations,
- **static fleet** — affinity routing but a fixed fully-provisioned
  fleet; the autoscaler's value shows up as provisioned slot-seconds.

The simulator runs on a virtual clock, so latency percentiles and
slot-second totals are byte-deterministic per seed and can be pinned by
the band guard at the usual 10% tolerance.  The event-loop throughput
(``events_per_s``: trace rows processed per wall second) is the only
wall-clock number — recorded for the ROADMAP's >60x real-time claim but
deliberately excluded from the band guard.  The three modes serve one
trace with one set of profiles, both built before any mode is timed,
so ``events_per_s`` times the simulation alone and does not depend on
which mode runs first.

Regenerate the committed record with ``python benchmarks/bench_cluster.py``
after an intentional cluster-model change (and say why in the commit).
"""

import json
import time
from pathlib import Path

from repro.config import AcamarConfig
from repro.experiments.regression import band_failures
from repro.experiments.report import ExperimentTable
from repro.serve import LoadSpec, build_profiles
from repro.serve.cluster import ClusterConfig, generate_trace, run_cluster

BENCH_PATH = Path(__file__).resolve().parent / "BENCH_cluster.json"

CANONICAL_SPEC = LoadSpec(
    seed=0, duration_s=60.0, rate_rps=2000.0, mix="repeat-heavy"
)

MAX_FLEETS = 6


def _config(**overrides) -> ClusterConfig:
    base = dict(
        initial_fleets=2, min_fleets=1, max_fleets=MAX_FLEETS,
        slots_per_fleet=4,
    )
    base.update(overrides)
    return ClusterConfig(**base)


def _mode_record(report, elapsed_s: float) -> dict:
    doc = report.as_dict()
    overall = doc["latency_ms"]["overall"]
    return {
        "p50_ms": overall["p50"],
        "p99_ms": overall["p99"],
        "completed": doc["requests"]["completed"],
        "shed_rate": doc["requests"]["shed_rate"],
        "unaccounted": doc["requests"]["unaccounted"],
        "local_hit_rate": doc["cache"]["lookups"]["local_hit_rate"],
        "remote_hits": doc["cache"]["lookups"]["remote_hits"],
        "config_loads": doc["batches"]["config_loads"],
        "fleets_peak": doc["fleets"]["peak"],
        "provisioned_slot_seconds": doc["fleets"][
            "provisioned_slot_seconds"
        ],
        "device_seconds": doc["fleets"]["device_seconds"],
        "events_per_s": round(doc["requests"]["generated"] / elapsed_s, 1),
    }


def measure() -> dict:
    trace = generate_trace(CANONICAL_SPEC)
    profiles = build_profiles(list(trace.sources), AcamarConfig())

    def run_mode(config: ClusterConfig) -> dict:
        started = time.perf_counter()
        report = run_cluster(trace, config, profiles=profiles)
        return _mode_record(report, time.perf_counter() - started)

    warm = run_mode(_config())
    scatter = run_mode(_config(affinity_routing=False))
    static = run_mode(
        _config(
            initial_fleets=MAX_FLEETS, min_fleets=MAX_FLEETS,
            autoscale=False,
        )
    )
    return {
        "spec": {
            "seed": CANONICAL_SPEC.seed,
            "duration_s": CANONICAL_SPEC.duration_s,
            "rate_rps": CANONICAL_SPEC.rate_rps,
            "mix": CANONICAL_SPEC.mix,
        },
        "warm_affinity": warm,
        "no_affinity": scatter,
        "static_fleet": static,
        "slot_seconds_saving": round(
            1.0
            - warm["provisioned_slot_seconds"]
            / static["provisioned_slot_seconds"],
            4,
        ),
    }


def run() -> tuple[ExperimentTable, dict]:
    report = measure()
    table = ExperimentTable(
        experiment_id="Serving S3",
        title=(
            "Cluster tier: affinity routing and autoscaling "
            f"(seed={report['spec']['seed']}, "
            f"{report['spec']['duration_s']:.0f}s @ "
            f"{report['spec']['rate_rps']:.0f} rps, "
            f"{report['spec']['mix']})"
        ),
        headers=(
            "mode", "p50 ms", "p99 ms", "local hit", "remote",
            "slot-s", "events/s",
        ),
    )
    for mode, record in (
        ("warm affinity", report["warm_affinity"]),
        ("no affinity", report["no_affinity"]),
        ("static fleet", report["static_fleet"]),
    ):
        table.add_row(
            mode,
            round(record["p50_ms"], 3),
            round(record["p99_ms"], 3),
            round(record["local_hit_rate"], 4),
            record["remote_hits"],
            round(record["provisioned_slot_seconds"], 1),
            record["events_per_s"],
        )
    table.add_note(
        "autoscaler provisions "
        f"{report['slot_seconds_saving']:.0%} fewer slot-seconds than "
        "the static fully-provisioned fleet at matched load"
    )
    return table, report


def test_bench_cluster(benchmark, print_table):
    table, report = benchmark.pedantic(run, rounds=1, iterations=1)
    print_table(table)
    warm = report["warm_affinity"]
    scatter = report["no_affinity"]
    static = report["static_fleet"]
    # Accounting invariant: every request lands in exactly one bucket.
    for record in (warm, scatter, static):
        assert record["unaccounted"] == 0
    # Affinity acceptance: fingerprint routing keeps plans resident —
    # fewer remote installs and a better local hit rate than spraying.
    assert warm["local_hit_rate"] >= scatter["local_hit_rate"]
    assert warm["remote_hits"] <= scatter["remote_hits"]
    # Autoscaler acceptance: meaningfully fewer provisioned
    # slot-seconds than static full provisioning, without collapsing
    # into mass shedding.
    assert report["slot_seconds_saving"] > 0.15
    assert warm["shed_rate"] < 0.05
    # Band guard: cluster headline values must not drift.
    measured = {
        "cluster_warm_p50_ms": warm["p50_ms"],
        "cluster_warm_p99_ms": warm["p99_ms"],
        "cluster_warm_local_hit_rate": warm["local_hit_rate"],
        "cluster_slot_seconds_saving": report["slot_seconds_saving"],
    }
    failures = band_failures(measured)
    assert not failures, "; ".join(failures)


def test_committed_record_meets_acceptance():
    """The committed record shows affinity and autoscaling paying off."""
    with open(BENCH_PATH) as fh:
        committed = json.load(fh)
    assert committed["warm_affinity"]["unaccounted"] == 0
    assert committed["slot_seconds_saving"] > 0.15
    assert (
        committed["warm_affinity"]["local_hit_rate"]
        >= committed["no_affinity"]["local_hit_rate"]
    )


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
