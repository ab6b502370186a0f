"""Tests for the reproduction-summary module."""

from repro.experiments.summary import collect, collect_claims, run

SUBSET = ("2C", "Wi", "Fe", "Bc", "If", "Po")

FULL_RUN_HEADLINES = {
    "table2_matches": 25,
    "fig1_mean_spmv_share": 0.814976978,
    "fig5_rate_at_ropt8": 0.507096774,
    "fig6_gmean_urb1": 6.40140058,
    "fig6_gmean_urb64": 0.78982103,
    "fig8_acamar_ru": 0.25948636,
    "fig8_gpu_ru": 0.625567898,
    "fig9_acamar_throughput": 0.692446087,
    "fig10_area_saving": 1.564212303,
}
"""The nine headline numbers of the full 25-dataset run, to 9 decimals.

Every one is modeled and deterministic, so a change that moves one
changes a reproduced paper figure and must say why."""


class TestSummary:
    def test_all_claims_hold_on_subset(self):
        checks = collect_claims(SUBSET)
        failing = [c for c in checks if not c.holds]
        assert not failing, failing

    def test_covers_every_evaluation_artifact(self):
        checks = collect_claims(SUBSET)
        experiments = {c.experiment for c in checks}
        assert experiments == {
            "Table II", "Figure 1", "Figure 2", "Figure 5", "Figure 6",
            "Figure 7", "Figure 8", "Figure 9", "Figure 10", "Figure 11",
            "Figure 12", "Figure 13",
        }

    def test_table_rendering(self):
        table = run(SUBSET)
        assert table.headers == ("experiment", "claim", "paper", "measured", "holds")
        assert len(table.rows) == 12
        assert "claims hold" in table.notes[0]


def test_full_run_headlines_are_pinned():
    headlines, checks = collect()
    assert {
        name: round(value, 9) for name, value in headlines.items()
    } == FULL_RUN_HEADLINES
    failing = [c for c in checks if not c.holds]
    assert not failing, failing
