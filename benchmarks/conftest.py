"""Shared fixtures of the benchmarks CI runs.

The deterministic stage benches (serving, cluster, placement, DSE)
compare the record they measure with their committed ``BENCH_*.json``
through :func:`assert_matches_record`: every field but the wall-clock
ones must be equal.  :func:`print_table` shows a bench's table outside
pytest's output capture.  The paper's figure claims are checked in
``repro.experiments.summary.collect`` (tier-1), not here.
"""

import json
from pathlib import Path

import pytest

WALL_CLOCK_FIELDS = frozenset({"events_per_s", "points_per_s"})
"""Record fields timed on the host clock.  Every other field of a stage
bench's record is computed on the virtual clock, so it is compared
exactly."""


def record_differences(live, committed, path: str = "") -> list[str]:
    """One line per field path where two JSON values differ.

    Fields named in :data:`WALL_CLOCK_FIELDS` are skipped at any depth.
    Leaves compare by their JSON text, so ``1`` and ``1.0`` differ.
    """
    if isinstance(live, dict) and isinstance(committed, dict):
        lines = []
        for key in sorted(live.keys() | committed.keys()):
            if key in WALL_CLOCK_FIELDS:
                continue
            where = f"{path}.{key}" if path else key
            if key not in committed:
                lines.append(f"{where}: not in the committed record")
            elif key not in live:
                lines.append(f"{where}: missing from the live record")
            else:
                lines += record_differences(live[key], committed[key], where)
        return lines
    if (
        isinstance(live, list)
        and isinstance(committed, list)
        and len(live) == len(committed)
    ):
        return [
            line
            for index, (item, committed_item) in enumerate(
                zip(live, committed)
            )
            for line in record_differences(
                item, committed_item, f"{path}[{index}]"
            )
        ]
    live_text, committed_text = json.dumps(live), json.dumps(committed)
    if live_text == committed_text:
        return []
    return [f"{path}: live {live_text}, committed {committed_text}"]


@pytest.fixture
def assert_matches_record():
    """Assert that a live record equals the committed one at a path.

    The live record goes through the same JSON round trip as the
    committed file; a mismatch lists every differing field path.  After
    an intentional model change, regenerate the record with the bench's
    ``main()`` and say in the commit which fields moved and why.
    """

    def check(record: dict, committed_path: Path) -> None:
        with open(committed_path) as fh:
            committed = json.load(fh)
        live = json.loads(json.dumps(record))
        differences = record_differences(live, committed)
        if differences:
            raise AssertionError(
                f"{len(differences)} field(s) differ from "
                f"{committed_path.name}:\n" + "\n".join(differences)
            )

    return check


@pytest.fixture
def print_table(capsys):
    """Print an ExperimentTable to the real terminal (outside capture)."""

    def _print(table):
        with capsys.disabled():
            print("\n" + table.to_text() + "\n")

    return _print
