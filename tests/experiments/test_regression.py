"""Tests for the golden-band regression harness."""

import shutil

from repro.experiments import regression
from repro.experiments.regression import (
    BENCH_GUARDED_PREFIXES,
    DEFAULT_BANDS_PATH,
    check_regression,
    load_bands,
    measure_headlines,
    save_bands,
)

SUBSET = ("2C", "Wi", "Fe", "Bc", "If", "Po")


class TestBandsFile:
    def test_reference_file_exists_and_is_complete(self):
        bands = load_bands()
        # hotpath_*/serving_* entries are pinned by their own benchmark
        # guards (bench_hot_path.py, bench_serving.py), not by the
        # modeled headline metrics measured here.
        headline_bands = {
            k for k in bands if not k.startswith(BENCH_GUARDED_PREFIXES)
        }
        assert headline_bands == set(measure_headlines(SUBSET))
        assert bands["table2_matches"] == 25.0

    def test_hotpath_bands_are_present(self):
        bands = load_bands()
        assert "hotpath_bicgstab_speedup" in bands
        assert "hotpath_bicg_speedup" in bands
        assert "hotpath_build_speedup" in bands
        assert "hotpath_loadgen_floor_share" in bands

    def test_serving_bands_are_present(self):
        bands = load_bands()
        assert "serving_warm_p50_ms" in bands
        assert "serving_cache_speedup" in bands

    def test_check_regression_skips_bench_guarded_keys(self, tmp_path):
        bands = load_bands()
        save_bands(bands, tmp_path / "bands.json")
        checks = check_regression(SUBSET, path=tmp_path / "bands.json")
        checked = {c.name for c in checks}
        assert not any(
            name.startswith(BENCH_GUARDED_PREFIXES) for name in checked
        )
        assert "table2_matches" in checked

    def test_save_roundtrip(self, tmp_path):
        values = {"a": 1.5, "b": 2.0}
        path = save_bands(values, tmp_path / "bands.json")
        assert load_bands(path) == values

    def test_update_rewrites_headlines_and_keeps_guarded_bands(
        self, tmp_path, monkeypatch
    ):
        path = tmp_path / "bands.json"
        shutil.copy(DEFAULT_BANDS_PATH, path)
        before = load_bands(path)
        headlines = {
            name: value + 1.0
            for name, value in before.items()
            if not name.startswith(BENCH_GUARDED_PREFIXES)
        }
        monkeypatch.setattr(regression, "DEFAULT_BANDS_PATH", path)
        monkeypatch.setattr(
            regression, "measure_headlines", lambda keys=None: headlines
        )
        save = regression.save_bands

        def save_to_copy_only(values, target=DEFAULT_BANDS_PATH):
            # Never let the update reach the committed bands file.
            assert target == path
            return save(values, target)

        monkeypatch.setattr(regression, "save_bands", save_to_copy_only)
        assert regression.main(["--update"]) == 0
        after = load_bands(path)
        guarded = {
            name: value
            for name, value in before.items()
            if name.startswith(BENCH_GUARDED_PREFIXES)
        }
        assert len(guarded) == 19
        assert len(headlines) == 9
        assert after == {**guarded, **headlines}


class TestChecks:
    def test_full_run_matches_recorded_bands(self):
        """The live 25-dataset metrics sit inside their own bands."""
        checks = check_regression()
        drifted = [c for c in checks if not c.within_band]
        assert not drifted, drifted

    def test_subset_against_custom_bands(self, tmp_path):
        measured = measure_headlines(SUBSET)
        path = save_bands(measured, tmp_path / "bands.json")
        checks = check_regression(SUBSET, path=path)
        assert all(c.within_band for c in checks)

    def test_drift_detected(self, tmp_path):
        measured = measure_headlines(SUBSET)
        measured["fig6_gmean_urb1"] *= 2.0  # fabricate a drift
        path = save_bands(measured, tmp_path / "bands.json")
        checks = check_regression(SUBSET, path=path)
        drifted = {c.name for c in checks if not c.within_band}
        assert "fig6_gmean_urb1" in drifted
