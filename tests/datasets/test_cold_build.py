"""The cold build of generated operators: byte identity and sort count.

SuiteSparse inputs are generated at set-up, so how they are built is a
stage of every workload.  The generators emit triplets in row-major
order and ``COOMatrix.canonical`` skips the sort for such input; these
tests pin what that must not change (the bytes of every operator) and
what it must keep removing (the sorts), neither of which a timing guard
on a shared runner could resolve.
"""

import copy
import hashlib

import numpy as np
import pytest

import repro.sparse.coo
import repro.sparse.csr
from repro import datasets
from repro.datasets import generators
from repro.datasets.suite import dataset_keys, load_problem
from repro.sparse import COOMatrix

STAND_IN_DIGESTS = {
    "2C": "a8dd42c2aae45774a0a21441949a5be846b38a1cc1b11be673b5a4884ec84d3a",
    "Of": "38103f9d4ebcfa2dc5f6fd21461193af75b18f5e581f9494e158db7b62913378",
    "Wi": "35a92d3e6de24924ee6d7c62e5391d2fc64010630e8571ff3f5ae0c0688628e8",
    "If": "fb69898e0db617313152f9422bd8976d944c82386942688dccda72f67f98778b",
    "Wa": "a82be5ae4907b36be3e1bb0b311f3a302e624d69b7ffe330aa848e84479cc025",
    "Fe": "7f61aaf7bb8a8685703241c3426c9d64768fd5eb847bbce86c2b7b559dac7ec9",
    "Eb": "0ee435aada28f7c941ac2be12169c40b202b82b44f8dbdf060ec6d4c61f29ca4",
    "Qa": "bdbd24e9bf534bb5806f61831fd5d8b23ccbd3b51d624515b709e3785071ea38",
    "Th": "034827ca2f69012cbccbf0393912214c3ba490894a896cfb8bdc78974048a896",
    "Bc": "2ff966d2c83adfcc30267f3d9076f4281edc43358e0c05b1a534fce89e1bd359",
    "Sd": "fa585fbe85e5600d12268cf40372266835574de15621d59c5d7a63a6e0e7f087",
    "Li": "8b99b77f1979eece94928d3838b1386d74efa2c402cc77a28c2c69c5593faf4b",
    "Po": "093b7a4b44e02b7e66841f491b9b03b3c6690f0a480217dc905d1cc20187465d",
    "Cr": "6c96938e9e17456ac97dfce3e7aa0e2d27eceb5746ba21ab0a1dc84f839947be",
    "At": "da93d8a3c8d2a58e9bf35e54e5f6474772f60afad12d64ff2897bcf0c2f70674",
    "Mo": "4ea99ce43244234ace2a0ee47812c06f5f49e399dc30c227865fc06eadefe0db",
    "Ct": "d32d498dd0382ec346a3052d3db13359c0360503aa979d9c0af7977a70fc1aef",
    "Ns": "38df26a583a6fe5cb4ea4925327149bb29d8212a17853084e6c913b08c49b497",
    "Fi": "aa7456ca4e266f14336d922bda8d036c09cb3857ee312686a231ffc2240bc7fe",
    "G2": "7f847d12cd3b4212eb2a11902441acd2adba5352dcb976f79947c936873001dd",
    "Ga": "5faa88301c1e4af5744ec7cf0e05a443404de467ae97a98185c914235b868a65",
    "Si": "9e2191561de0df8d6d4f2732d806764f064a6a8b348f511a5338be74d3432ad4",
    "To": "c3fd4689ae0e48db28fb500ec1898fb5cff7962be2ff403ddf299e0e55475f62",
    "Ci": "9027ed3a884432642f1612b1dae648d56bbb9f73bce360c0603c1d2a8976156c",
    "Tf": "586bed2cc2ccdfdf1ddf9d266debce224ce0beffcf4ef7ba54e8c2ca614a1d17",
}
"""SHA-256 of each Table II stand-in's matrix and ``b`` at seed 1."""

SOLVE_65K_DIGESTS = {
    (1, "poisson_2d_256x256"):
        "ab1c1391b39a4d009a98749b98077b9bf5dc56ad995f13a83614d0275c43043e",
    (1, "convection_diffusion_256_pe10"):
        "1faee7a0bb39267c91090994b98432f2f7ead6ba213a53b33909cc5685bf311d",
    (1, "sdd_65536"):
        "1be9c1c3e4559de10871e5b448f5b57120261e0abc97aa73a09a758cc511ccc6",
    (7, "poisson_2d_256x256"):
        "1072675022be90f4be3923401f37decfa668f1c7f90c1d848388378bfa089a4e",
    (7, "convection_diffusion_256_pe10"):
        "10fc065c778660d08d526462bca547e87c33cad44911498a5f2b66bf33e8b636",
    (7, "sdd_65536"):
        "5e87e3be5d6819c5ce10fcf5c5aae7698f3ebec2019966f98b56b4481237b784",
}
"""SHA-256 of the e2ebench ``solve-65k`` operators and ``b``, by seed."""


def digest(matrix, b) -> str:
    hasher = hashlib.sha256(
        f"{matrix.shape};{matrix.data.dtype.str};{b.dtype.str}".encode()
    )
    for array in (matrix.indptr, matrix.indices, matrix.data, b):
        hasher.update(np.ascontiguousarray(array).tobytes())
    return hasher.hexdigest()


def solve_65k(seed: int) -> list:
    """The three operators e2ebench's ``solve-65k`` builds, as it builds them."""
    sdd = datasets.sdd_matrix(
        65536, 8.0, seed=seed, symmetric=False, dominance=1.05
    )
    return [
        datasets.poisson_2d(256, seed=seed),
        datasets.convection_diffusion_2d(256, seed=seed),
        datasets.manufacture_problem("sdd_65536", sdd, seed=seed),
    ]


@pytest.fixture(scope="module")
def counted_build():
    """The seed-1 ``solve-65k`` build, with every ``stable_order`` call."""
    calls = []
    real = repro.sparse.coo.stable_order

    def counting(keys, bound):
        calls.append(len(keys))
        return real(keys, bound)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(repro.sparse.coo, "stable_order", counting)
        patch.setattr(repro.sparse.csr, "stable_order", counting)
        problems = solve_65k(1)
    return problems, calls


class TestSortCount:
    def test_solve_65k_build_sorts_only_the_random_pattern(self, counted_build):
        # The SDD's random off-diagonal pattern (rows ordered, columns
        # random within a row) takes its two radix passes; the stencils
        # and every assembly take none.
        _, calls = counted_build
        assert len(calls) == 2
        assert calls == [503392, 503392]


class TestDigests:
    @pytest.mark.parametrize("key", dataset_keys())
    def test_stand_in(self, key):
        problem = load_problem(key, 1)
        assert digest(problem.matrix, problem.b) == STAND_IN_DIGESTS[key]

    def test_solve_65k_seed_1(self, counted_build):
        problems, _ = counted_build
        for problem in problems:
            assert digest(problem.matrix, problem.b) == SOLVE_65K_DIGESTS[
                (1, problem.name)
            ], problem.name

    def test_solve_65k_seed_7(self):
        for problem in solve_65k(7):
            assert digest(problem.matrix, problem.b) == SOLVE_65K_DIGESTS[
                (7, problem.name)
            ], problem.name


def appended_assemble(n, rows, cols, vals, diag, permute, rng):
    """``_assemble`` as it was: the diagonal appended after the rest."""
    all_rows = np.concatenate([rows, np.arange(n)])
    all_cols = np.concatenate([cols, np.arange(n)])
    all_vals = np.concatenate([vals, diag])
    if permute:
        perm = rng.permutation(n)
        all_rows = perm[all_rows]
        all_cols = perm[all_cols]
    return COOMatrix((n, n), all_rows, all_cols, all_vals).to_csr()


GENERATORS = {
    "sdd": lambda n, seed: generators.sdd_matrix(n, 5.0, seed),
    "sdd_symmetric": lambda n, seed: generators.sdd_matrix(
        n, 5.0, seed, symmetric=True
    ),
    "clique": lambda n, seed: generators.spd_clique_matrix(n, 6.0, seed),
    "clique_integer_coupling": lambda n, seed: generators.spd_clique_matrix(
        n, 6.0, seed, coupling=1
    ),
    "clique_skew": lambda n, seed: generators.spd_clique_skew_matrix(n, 6.0, seed),
    "indefinite": lambda n, seed: generators.sdd_indefinite_matrix(n, 5.0, seed),
    "ill_conditioned": lambda n, seed: generators.ill_conditioned_spd_matrix(
        n, 6.0, seed
    ),
}


class TestAssembleOracle:
    """The inserted diagonal against the appended-diagonal reference."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", (1, 2, 9, 300))
    @pytest.mark.parametrize("name", GENERATORS)
    def test_equals_appended_reference(self, monkeypatch, name, n, seed):
        real = generators._assemble
        calls = []

        def checked(n, rows, cols, vals, diag, permute, rng):
            twin = copy.deepcopy(rng)
            expected = appended_assemble(n, rows, cols, vals, diag, permute, twin)
            actual = real(n, rows, cols, vals, diag, permute, rng)
            assert actual.shape == expected.shape
            for part in ("indptr", "indices", "data"):
                got, want = getattr(actual, part), getattr(expected, part)
                assert got.dtype == want.dtype, part
                np.testing.assert_array_equal(got, want, err_msg=part)
            assert rng.bit_generator.state == twin.bit_generator.state
            calls.append(permute)
            return actual

        monkeypatch.setattr(generators, "_assemble", checked)
        GENERATORS[name](n, seed)
        assert calls == [name == "ill_conditioned"]
