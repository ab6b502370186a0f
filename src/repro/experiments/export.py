"""Export experiment tables to CSV / JSON for downstream plotting.

The benchmark harness prints monospace tables; anyone regenerating the
paper's *figures* wants machine-readable series.  ``export_table`` writes
one table, ``export_all`` regenerates and writes every experiment into a
directory (one ``.csv`` + one ``.json`` per artifact); ``repro export
<dir>`` runs the latter.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

from repro.experiments.report import ExperimentTable


def export_table_csv(table: ExperimentTable, path: str | Path) -> Path:
    """Write one experiment table as CSV (headers + rows)."""
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(table.headers)
        for row in table.rows:
            writer.writerow(row)
    return path


def export_table_json(table: ExperimentTable, path: str | Path) -> Path:
    """Write one experiment table as JSON with metadata and notes."""
    path = Path(path)
    payload = {
        "experiment_id": table.experiment_id,
        "title": table.title,
        "headers": list(table.headers),
        "rows": [list(row) for row in table.rows],
        "notes": list(table.notes),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, default=str)
    return path


def export_all(
    directory: str | Path, keys: tuple[str, ...] | None = None
) -> list[Path]:
    """Regenerate every experiment and write CSV + JSON files.

    Returns the list of files written.  File names follow the experiment
    ids (``table2.csv``, ``fig6.json``, …) plus ``summary.*``.
    """
    from repro.experiments import ALL_EXPERIMENTS
    from repro.experiments.summary import run as run_summary

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    for name, module in ALL_EXPERIMENTS.items():
        table = module.run(keys) if name != "table1" else module.run()
        written.append(export_table_csv(table, directory / f"{name}.csv"))
        written.append(export_table_json(table, directory / f"{name}.json"))
    summary = run_summary(keys)
    written.append(export_table_csv(summary, directory / "summary.csv"))
    written.append(export_table_json(summary, directory / "summary.json"))
    return written
