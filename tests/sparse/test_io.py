"""Tests for the Matrix Market reader/writer."""

import gzip
import io

import numpy as np
import pytest

from repro.errors import SparseFormatError
from repro.sparse import CSRMatrix
from repro.sparse.io import read_matrix_market, write_matrix_market

GENERAL = """%%MatrixMarket matrix coordinate real general
% a comment
3 3 4
1 1 2.0
2 2 3.0
3 1 -1.5
3 3 4.0
"""

SYMMETRIC = """%%MatrixMarket matrix coordinate real symmetric
3 3 4
1 1 2.0
2 1 1.0
3 2 -1.0
3 3 4.0
"""

SKEW = """%%MatrixMarket matrix coordinate real skew-symmetric
3 3 2
2 1 1.0
3 2 -2.0
"""

PATTERN = """%%MatrixMarket matrix coordinate pattern general
2 3 3
1 1
1 3
2 2
"""


class TestRead:
    def test_general(self):
        matrix = read_matrix_market(io.StringIO(GENERAL))
        expected = np.array(
            [[2.0, 0.0, 0.0], [0.0, 3.0, 0.0], [-1.5, 0.0, 4.0]]
        )
        np.testing.assert_array_equal(matrix.to_dense(), expected)

    def test_symmetric_expansion(self):
        matrix = read_matrix_market(io.StringIO(SYMMETRIC))
        dense = matrix.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        assert dense[0, 1] == 1.0 and dense[1, 0] == 1.0
        assert dense[1, 2] == -1.0
        assert matrix.nnz == 6  # 2 diag + 2 mirrored pairs

    def test_skew_symmetric_expansion(self):
        matrix = read_matrix_market(io.StringIO(SKEW))
        dense = matrix.to_dense()
        np.testing.assert_array_equal(dense, -dense.T)
        assert dense[1, 0] == 1.0 and dense[0, 1] == -1.0

    def test_pattern_entries_are_ones(self):
        matrix = read_matrix_market(io.StringIO(PATTERN))
        assert matrix.shape == (2, 3)
        assert matrix.nnz == 3
        np.testing.assert_array_equal(np.unique(matrix.data), [1.0])

    def test_bad_banner_rejected(self):
        with pytest.raises(SparseFormatError, match="banner"):
            read_matrix_market(io.StringIO("%%NotMatrixMarket\n1 1 0\n"))

    def test_array_format_rejected(self):
        bad = "%%MatrixMarket matrix array real general\n2 2\n1.0\n"
        with pytest.raises(SparseFormatError, match="coordinate"):
            read_matrix_market(io.StringIO(bad))

    def test_unsupported_field_rejected(self):
        bad = "%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n"
        with pytest.raises(SparseFormatError, match="field"):
            read_matrix_market(io.StringIO(bad))

    def test_truncated_file_rejected(self):
        bad = "%%MatrixMarket matrix coordinate real general\n3 3 4\n1 1 2.0\n"
        with pytest.raises(SparseFormatError, match="declares 4"):
            read_matrix_market(io.StringIO(bad))

    def test_excess_entries_rejected(self):
        bad = (
            "%%MatrixMarket matrix coordinate real general\n1 1 1\n"
            "1 1 2.0\n1 1 3.0\n"
        )
        with pytest.raises(SparseFormatError, match="more entries"):
            read_matrix_market(io.StringIO(bad))

    def test_missing_size_line(self):
        bad = "%%MatrixMarket matrix coordinate real general\n% only comments\n"
        with pytest.raises(SparseFormatError, match="size line"):
            read_matrix_market(io.StringIO(bad))


BANNER = b"%%MatrixMarket matrix coordinate real general\n"


def _truncated_gzip() -> bytes:
    data = gzip.compress(GENERAL.encode())
    return data[: len(data) // 2]


MALFORMED = [
    pytest.param("v.mtx", BANNER + b"1 1 1\n1 1 abc\n", "line 3", id="value"),
    pytest.param(
        "i.mtx", BANNER + b"2 2 1\n1.5 1 2.0\n", "line 3", id="float-index"
    ),
    pytest.param("n.mtx", BANNER + b"3 3 -1\n", "line 2", id="negative-size"),
    pytest.param(
        "h.mtx", BANNER + b"3 3 999999999999\n1 1 2.0\n", "line 2",
        id="huge-declared-count",
    ),
    pytest.param(
        "rows.mtx", BANNER + b"999999999999 1 1\n1 1 2.0\n",
        "line 2: cannot allocate", id="huge-declared-rows",
    ),
    pytest.param(
        "u.mtx", BANNER + b"% caf\xe9\n1 1 1\n1 1 2.0\n", "line 2",
        id="not-utf8",
    ),
    pytest.param(
        "g.mtx.gz", GENERAL.encode(), r"line \d+: corrupt or truncated gzip",
        id="not-gzip",
    ),
    pytest.param(
        "t.mtx.gz", _truncated_gzip(), r"line \d+: corrupt or truncated gzip",
        id="truncated-gzip",
    ),
    pytest.param("nan.mtx", BANNER + b"1 1 1\n1 1 nan\n", "line 3", id="nan"),
    pytest.param(
        "inf.mtx", BANNER + b"2 2 1\n2 2 -inf\n", "line 3", id="inf"
    ),
    pytest.param(
        "r.mtx", BANNER + b"2 2 1\n3 1 1.0\n", "line 3", id="index-range"
    ),
]


class TestMalformedFiles:
    """Every malformed file ends in a SparseFormatError naming its line."""

    @pytest.mark.parametrize("name, content, where", MALFORMED)
    def test_raises_sparse_format_error(self, tmp_path, name, content, where):
        path = tmp_path / name
        path.write_bytes(content)
        with pytest.raises(SparseFormatError, match=where):
            read_matrix_market(path)


class TestRoundtrip:
    def test_write_read_roundtrip(self, tmp_path, rng):
        from tests.conftest import random_dense

        matrix = CSRMatrix.from_dense(random_dense(rng, 12, 9, 0.3))
        path = tmp_path / "matrix.mtx"
        write_matrix_market(matrix, path, comments=["generated by tests"])
        recovered = read_matrix_market(path)
        assert recovered.allclose(matrix, rtol=1e-12)

    def test_gzip_read(self, tmp_path):
        path = tmp_path / "matrix.mtx.gz"
        with gzip.open(path, "wt") as fh:
            fh.write(GENERAL)
        matrix = read_matrix_market(path)
        assert matrix.nnz == 4

    def test_solver_pipeline_from_file(self, tmp_path):
        """A user can load an .mtx and run Acamar directly."""
        from repro import Acamar
        from repro.datasets.generators import sdd_matrix

        original = sdd_matrix(128, 5.0, seed=77, symmetric=True)
        path = tmp_path / "system.mtx"
        write_matrix_market(original, path)
        matrix = read_matrix_market(path)
        rng = np.random.default_rng(0)
        b = matrix.matvec(rng.standard_normal(128)).astype(np.float32)
        result = Acamar().solve(matrix, b)
        assert result.converged
        assert result.selection.solver == "cg"
