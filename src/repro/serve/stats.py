"""Shared latency-summary statistics for serving reports.

Both the single-fleet :class:`~repro.serve.service.ServingReport` and the
cluster :class:`~repro.serve.cluster.service.ClusterReport` publish the
same percentile-summary shape for latency populations.  Keeping the
computation here means the two reports cannot drift apart: a dashboard
keyed on ``{count, mean, p50, p90, p99, max}`` reads either one.

Values are rounded to 6 decimals (microsecond precision on
millisecond-scale numbers) so the JSON forms stay byte-stable across
runs and machines.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np


def latency_summary_ms(
    values: "Sequence[float] | np.ndarray", *, consume: bool = False
) -> dict[str, Any]:
    """Percentile summary of a latency population (milliseconds).

    An empty population reports ``count: 0`` with null statistics — an
    idle fleet's p50/p99 must be distinguishable from a fleet that
    genuinely served in zero milliseconds (the old 0.0 sentinel made
    zero-completion configurations look infinitely fast to capacity
    planning and frontier extraction).  Percentiles use
    ``numpy.percentile``'s default linear interpolation.

    With ``consume=True`` an array input is partitioned in place (its
    element *order* is destroyed, the multiset of values is preserved)
    instead of copied — callers holding a population-sized array they
    no longer need in order pass this to skip a full-size allocation.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return {
            "count": 0,
            "mean": None,
            "p50": None,
            "p90": None,
            "p99": None,
            "max": None,
        }
    p50, p90, p99 = np.percentile(
        arr, [50.0, 90.0, 99.0], overwrite_input=consume
    )
    return {
        "count": int(arr.size),
        "mean": round(float(arr.mean()), 6),
        "p50": round(float(p50), 6),
        "p90": round(float(p90), 6),
        "p99": round(float(p99), 6),
        "max": round(float(arr.max()), 6),
    }


def format_latency_ms(value: Any) -> str:
    """Render one summary statistic for human-facing summary lines.

    Null statistics (empty populations) render as ``n/a`` so idle-fleet
    summaries read as "no data" instead of "0.000 ms".
    """
    if value is None:
        return "n/a"
    return f"{float(value):.3f}"
