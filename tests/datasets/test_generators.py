"""Tests for the structural-class matrix generators."""

import numpy as np
import pytest

from repro.datasets.generators import (
    balanced_indefinite_matrix,
    ill_conditioned_spd_matrix,
    sample_row_lengths,
    sdd_indefinite_matrix,
    sdd_matrix,
    spd_clique_matrix,
    spd_clique_skew_matrix,
)
from repro.errors import ConfigurationError
from repro.sparse.properties import (
    is_strictly_diagonally_dominant,
    is_symmetric,
    jacobi_iteration_spectral_radius,
    positive_definite_probe,
)


class TestRowLengthSampler:
    def test_mean_roughly_respected(self):
        rng = np.random.default_rng(0)
        lengths = sample_row_lengths(5000, 8.0, rng, correlation=0.0)
        assert lengths.mean() == pytest.approx(8.0, rel=0.15)

    def test_bounds_respected(self):
        rng = np.random.default_rng(0)
        lengths = sample_row_lengths(1000, 5.0, rng, min_nnz=2, max_nnz=10)
        assert lengths.min() >= 2
        assert lengths.max() <= 10

    def test_correlation_produces_smooth_profile(self):
        rng = np.random.default_rng(0)
        correlated = sample_row_lengths(4000, 8.0, rng, correlation=0.98)
        rng = np.random.default_rng(0)
        iid = sample_row_lengths(4000, 8.0, rng, correlation=0.0)

        def lag1_autocorr(x):
            x = x - x.mean()
            return float((x[:-1] * x[1:]).sum() / (x * x).sum())

        assert lag1_autocorr(correlated) > 0.7
        assert abs(lag1_autocorr(iid)) < 0.2

    def test_invalid_arguments(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            sample_row_lengths(10, 0.5, rng, min_nnz=1)
        with pytest.raises(ConfigurationError):
            sample_row_lengths(10, 5.0, rng, correlation=1.0)


class TestSDD:
    def test_is_strictly_dominant(self):
        matrix = sdd_matrix(256, 6.0, seed=1)
        assert is_strictly_diagonally_dominant(matrix)

    def test_symmetric_variant_is_spd(self):
        matrix = sdd_matrix(256, 6.0, seed=2, symmetric=True)
        assert is_symmetric(matrix)
        assert positive_definite_probe(matrix)

    def test_nonsymmetric_variant(self):
        matrix = sdd_matrix(256, 6.0, seed=3, symmetric=False)
        assert not is_symmetric(matrix)

    def test_jacobi_spectral_radius_below_one(self):
        matrix = sdd_matrix(256, 6.0, seed=4)
        assert jacobi_iteration_spectral_radius(matrix) < 1.0

    def test_invalid_dominance(self):
        with pytest.raises(ConfigurationError):
            sdd_matrix(64, 4.0, seed=5, dominance=1.0)

    def test_deterministic(self):
        a = sdd_matrix(64, 4.0, seed=6)
        b = sdd_matrix(64, 4.0, seed=6)
        assert a.allclose(b)


class TestSPDCliques:
    def test_symmetric_positive_definite(self):
        matrix = spd_clique_matrix(256, 6.0, seed=1)
        assert is_symmetric(matrix)
        assert positive_definite_probe(matrix)

    def test_not_diagonally_dominant(self):
        matrix = spd_clique_matrix(256, 6.0, seed=1)
        assert not is_strictly_diagonally_dominant(matrix)

    def test_jacobi_divergent(self):
        matrix = spd_clique_matrix(256, 6.0, seed=1)
        assert jacobi_iteration_spectral_radius(matrix) > 1.0

    def test_eigenvalues_positive_dense_check(self):
        matrix = spd_clique_matrix(128, 5.0, seed=2)
        eigenvalues = np.linalg.eigvalsh(matrix.to_dense())
        assert eigenvalues.min() > 0

    def test_margin_guard(self):
        with pytest.raises(ConfigurationError, match="margin"):
            spd_clique_matrix(64, 5.0, seed=3, margin=0.2, coupling=2.0)


class TestSkewVariant:
    def test_nonsymmetric_with_pd_symmetric_part(self):
        matrix = spd_clique_skew_matrix(256, 6.0, seed=1)
        assert not is_symmetric(matrix)
        dense = matrix.to_dense()
        sym_part = (dense + dense.T) / 2
        assert np.linalg.eigvalsh(sym_part).min() > 0

    def test_skew_part_scales_with_gamma(self):
        small = spd_clique_skew_matrix(128, 5.0, seed=2, gamma=0.1)
        large = spd_clique_skew_matrix(128, 5.0, seed=2, gamma=1.0)

        def skew_norm(matrix):
            dense = matrix.to_dense()
            return np.linalg.norm((dense - dense.T) / 2)

        assert skew_norm(large) > 5 * skew_norm(small)


class TestIndefiniteFamilies:
    def test_sdd_indefinite_is_dominant_but_mixed_sign(self):
        matrix = sdd_indefinite_matrix(256, 6.0, seed=1)
        assert is_strictly_diagonally_dominant(matrix)
        diag = matrix.diagonal()
        assert (diag > 0).any() and (diag < 0).any()

    def test_sdd_indefinite_jacobi_still_contracts(self):
        matrix = sdd_indefinite_matrix(256, 6.0, seed=2)
        assert jacobi_iteration_spectral_radius(matrix) < 1.0

    def test_balanced_indefinite_spectrum_symmetric_about_origin(self):
        matrix = balanced_indefinite_matrix(128, seed=1)
        assert is_symmetric(matrix)
        eigenvalues = np.sort(np.linalg.eigvalsh(matrix.to_dense()))
        np.testing.assert_allclose(
            eigenvalues, -eigenvalues[::-1], rtol=1e-8, atol=1e-10
        )

    def test_balanced_indefinite_not_dominant(self):
        matrix = balanced_indefinite_matrix(128, seed=1)
        assert not is_strictly_diagonally_dominant(matrix)

    def test_ill_conditioned_spd_margin(self):
        matrix = ill_conditioned_spd_matrix(128, 6.0, seed=1, margin=1e-3)
        eigenvalues = np.linalg.eigvalsh(matrix.to_dense())
        assert 0 < eigenvalues.min() < 0.05
        assert eigenvalues.max() / eigenvalues.min() > 1e3


NAN = float("nan")
INF = float("inf")

DEGENERATE_ARGUMENTS = {
    "sdd-empty": (lambda: sdd_matrix(0, 6.0, seed=1), "n"),
    "sdd-negative": (lambda: sdd_matrix(-3, 6.0, seed=1), "n"),
    "sdd-nan-mean": (lambda: sdd_matrix(5, float("nan"), 1), "mean_nnz"),
    "sdd-inf-mean": (lambda: sdd_matrix(5, float("inf"), 1), "mean_nnz"),
    "sdd-indefinite-empty": (lambda: sdd_indefinite_matrix(0, 6.0, seed=1), "n"),
    "row-lengths-empty": (
        lambda: sample_row_lengths(0, 6.0, np.random.default_rng(0)),
        "n",
    ),
    "clique-negative": (lambda: spd_clique_matrix(-2, 6.0, seed=1), "n"),
    "clique-zero-mean": (lambda: spd_clique_matrix(10, 0.0, 1), "clique_mean"),
    "clique-skew-nan-mean": (
        lambda: spd_clique_skew_matrix(10, float("nan"), 1),
        "clique_mean",
    ),
    "ill-conditioned-empty": (lambda: ill_conditioned_spd_matrix(0, 6.0, 1), "n"),
    "balanced-empty": (lambda: balanced_indefinite_matrix(0, seed=1), "n"),
    "balanced-one-row": (lambda: balanced_indefinite_matrix(1, seed=1), "n"),
    "balanced-negative-mean": (
        lambda: balanced_indefinite_matrix(8, seed=1, mean_nnz=-1.0),
        "mean_nnz",
    ),
    "sdd-nan-dominance": (
        lambda: sdd_matrix(5, 2.0, 1, dominance=NAN), "dominance",
    ),
    "sdd-inf-dominance": (
        lambda: sdd_matrix(5, 2.0, 1, dominance=INF), "dominance",
    ),
    "sdd-indefinite-nan-dominance": (
        lambda: sdd_indefinite_matrix(5, 2.0, 1, dominance=NAN), "dominance",
    ),
    "sdd-indefinite-low-dominance": (
        lambda: sdd_indefinite_matrix(5, 2.0, 1, dominance=0.9), "dominance",
    ),
    "sdd-indefinite-inf-magnitude-spread": (
        lambda: sdd_indefinite_matrix(5, 2.0, 1, magnitude_spread=INF),
        "magnitude_spread",
    ),
    "sdd-indefinite-nan-neg-fraction": (
        lambda: sdd_indefinite_matrix(5, 2.0, 1, neg_fraction=NAN),
        "neg_fraction",
    ),
    "sdd-indefinite-negative-neg-fraction": (
        lambda: sdd_indefinite_matrix(5, 2.0, 1, neg_fraction=-0.1),
        "neg_fraction",
    ),
    "sdd-indefinite-large-neg-fraction": (
        lambda: sdd_indefinite_matrix(5, 2.0, 1, neg_fraction=1.5),
        "neg_fraction",
    ),
    "clique-nan-margin": (
        lambda: spd_clique_matrix(10, 4.0, 1, margin=NAN), "margin",
    ),
    "clique-inf-coupling": (
        lambda: spd_clique_matrix(10, 4.0, 1, coupling=INF), "coupling",
    ),
    "ill-conditioned-nan-margin": (
        lambda: ill_conditioned_spd_matrix(10, 4.0, 1, margin=NAN), "margin",
    ),
    "ill-conditioned-nan-coupling": (
        lambda: ill_conditioned_spd_matrix(10, 4.0, 1, coupling=NAN),
        "coupling",
    ),
    "clique-skew-nan-gamma": (
        lambda: spd_clique_skew_matrix(10, 4.0, 1, gamma=NAN), "gamma",
    ),
    "clique-skew-inf-margin": (
        lambda: spd_clique_skew_matrix(10, 4.0, 1, margin=INF), "margin",
    ),
    "clique-skew-nan-pairs": (
        lambda: spd_clique_skew_matrix(10, 4.0, 1, pairs_per_row=NAN),
        "pairs_per_row",
    ),
    "clique-skew-negative-pairs": (
        lambda: spd_clique_skew_matrix(10, 4.0, 1, pairs_per_row=-1.0),
        "pairs_per_row",
    ),
    "balanced-nan-coupling": (
        lambda: balanced_indefinite_matrix(8, seed=1, coupling=NAN),
        "coupling",
    ),
    "balanced-inf-magnitude-spread": (
        lambda: balanced_indefinite_matrix(8, seed=1, magnitude_spread=INF),
        "magnitude_spread",
    ),
    "row-lengths-nan-spread": (
        lambda: sample_row_lengths(8, 2.0, np.random.default_rng(0), NAN),
        "spread",
    ),
    "row-lengths-inf-spread": (
        lambda: sample_row_lengths(8, 2.0, np.random.default_rng(0), INF),
        "spread",
    ),
    "row-lengths-nan-correlation": (
        lambda: sample_row_lengths(
            8, 2.0, np.random.default_rng(0), correlation=NAN
        ),
        "correlation",
    ),
}


@pytest.mark.parametrize(
    "build, parameter",
    DEGENERATE_ARGUMENTS.values(),
    ids=DEGENERATE_ARGUMENTS.keys(),
)
def test_degenerate_arguments_raise_configuration_error(build, parameter):
    with pytest.raises(ConfigurationError, match=f"^{parameter} must"):
        build()
