"""Matrix Market (``.mtx``) reader/writer.

SuiteSparse distributes its collection in Matrix Market exchange format;
this module lets a user with network access run the *actual* Table II
matrices through the accelerator instead of the synthetic stand-ins.
Supports the coordinate format with ``real``/``integer``/``pattern``
fields and ``general``/``symmetric``/``skew-symmetric`` storage (the
variants the SuiteSparse collection uses for the paper's datasets).
"""

from __future__ import annotations

import gzip
import math
import zlib
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from repro.errors import SparseFormatError
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix

_SUPPORTED_FIELDS = ("real", "integer", "pattern")
_SUPPORTED_SYMMETRIES = ("general", "symmetric", "skew-symmetric")


def _open_binary(path: str | Path) -> IO[bytes]:
    path = Path(path)
    if path.suffix == ".gz":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _numbered_lines(stream: IO) -> Iterator[tuple[int, str]]:
    """Yield ``(line_number, text)`` pairs, 1-based.

    Byte streams are decoded line by line, so undecodable input and a
    corrupt or truncated gzip stream become a :class:`SparseFormatError`
    naming the line where reading failed.
    """
    lineno = 0
    lines = iter(stream)
    while True:
        try:
            raw = next(lines)
        except StopIteration:
            return
        except UnicodeDecodeError:
            raise SparseFormatError(
                f"line {lineno + 1}: not valid UTF-8 text"
            ) from None
        except (gzip.BadGzipFile, EOFError, zlib.error) as exc:
            raise SparseFormatError(
                f"line {lineno + 1}: corrupt or truncated gzip data "
                f"({type(exc).__name__}: {exc})"
            ) from None
        lineno += 1
        if isinstance(raw, bytes):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError:
                raise SparseFormatError(
                    f"line {lineno}: not valid UTF-8 text"
                ) from None
        yield lineno, raw


def _parse_header(line: str) -> tuple[str, str]:
    """Validate the banner (line 1) and return ``(field, symmetry)``."""
    parts = line.strip().lower().split()
    if len(parts) != 5 or parts[0] != "%%matrixmarket":
        raise SparseFormatError(f"line 1: not a MatrixMarket banner: {line!r}")
    _, obj, fmt, field, symmetry = parts
    if obj != "matrix" or fmt != "coordinate":
        raise SparseFormatError(
            "line 1: only 'matrix coordinate' files are supported, got "
            f"{obj} {fmt}"
        )
    if field not in _SUPPORTED_FIELDS:
        raise SparseFormatError(
            f"line 1: unsupported field {field!r}; supported: "
            f"{_SUPPORTED_FIELDS}"
        )
    if symmetry not in _SUPPORTED_SYMMETRIES:
        raise SparseFormatError(
            f"line 1: unsupported symmetry {symmetry!r}; supported: "
            f"{_SUPPORTED_SYMMETRIES}"
        )
    return field, symmetry


def _parse_size(lineno: int, line: str) -> tuple[int, int, int]:
    """``(n_rows, n_cols, nnz)`` from the size line, all non-negative."""
    try:
        n_rows, n_cols, nnz = (int(tok) for tok in line.split())
    except ValueError:
        raise SparseFormatError(
            f"line {lineno}: bad size line: {line.strip()!r}"
        ) from None
    if min(n_rows, n_cols, nnz) < 0:
        raise SparseFormatError(
            f"line {lineno}: negative size in size line: {line.strip()!r}"
        )
    return n_rows, n_cols, nnz


def read_matrix_market(source: str | Path | IO[str]) -> CSRMatrix:
    """Read a Matrix Market coordinate file into CSR.

    ``source`` may be a path (optionally ``.gz``-compressed) or an open
    text stream.  Symmetric / skew-symmetric storage is expanded to the
    full matrix (diagonal entries are not mirrored; a skew file's
    diagonal must be absent or zero per the standard).

    Every malformed input raises :class:`SparseFormatError` naming the
    offending line: bad or negative sizes, a dimension beyond the int64
    range, a declared size too large to allocate, unparsable or
    out-of-range entries, non-finite values, a wrong entry count, text
    that is not UTF-8, and corrupt or truncated gzip data.  Entry
    storage grows with the entries actually present, never with the
    declared count.
    """
    stream: IO
    close = False
    if isinstance(source, (str, Path)):
        stream = _open_binary(source)
        close = True
    else:
        stream = source
    try:
        lines = _numbered_lines(stream)
        _, banner = next(lines, (1, ""))
        field, symmetry = _parse_header(banner)
        size = None
        for lineno, line in lines:
            if line.startswith("%") or not line.strip():
                continue
            size = _parse_size(lineno, line)
            size_lineno = lineno
            break
        if size is None:
            raise SparseFormatError("missing size line")
        n_rows, n_cols, nnz = size

        width = 2 if field == "pattern" else 3
        rows: list[int] = []
        cols: list[int] = []
        vals: list[float] = []
        for lineno, line in lines:
            parts = line.split()
            if not parts or parts[0].startswith("%"):
                continue
            if len(rows) >= nnz:
                raise SparseFormatError(
                    f"line {lineno}: more entries than the size line "
                    f"declares ({nnz})"
                )
            if len(parts) != width:
                raise SparseFormatError(
                    f"line {lineno}: bad {field} entry: {line.strip()!r}"
                )
            try:
                row, col = int(parts[0]), int(parts[1])
                value = float(parts[2]) if width == 3 else 1.0
            except ValueError:
                raise SparseFormatError(
                    f"line {lineno}: bad entry: {line.strip()!r}"
                ) from None
            if not math.isfinite(value):
                raise SparseFormatError(
                    f"line {lineno}: non-finite value {parts[2]!r}"
                )
            if not (1 <= row <= n_rows and 1 <= col <= n_cols):
                raise SparseFormatError(
                    f"line {lineno}: entry ({row}, {col}) lies outside "
                    f"the {n_rows}x{n_cols} matrix"
                )
            rows.append(row - 1)  # 1-based in the file
            cols.append(col - 1)
            vals.append(value)
        if len(rows) != nnz:
            raise SparseFormatError(
                f"line {size_lineno}: size line declares {nnz} entries, "
                f"file has {len(rows)}"
            )
        row_ids = np.array(rows, dtype=np.int64)
        col_ids = np.array(cols, dtype=np.int64)
        values = np.array(vals, dtype=np.float64)
        if symmetry in ("symmetric", "skew-symmetric"):
            off = row_ids != col_ids
            mirror_sign = -1.0 if symmetry == "skew-symmetric" else 1.0
            mirrored_rows = col_ids[off]
            mirrored_cols = row_ids[off]
            mirrored_vals = mirror_sign * values[off]
            row_ids = np.concatenate([row_ids, mirrored_rows])
            col_ids = np.concatenate([col_ids, mirrored_cols])
            values = np.concatenate([values, mirrored_vals])
        try:
            return COOMatrix((n_rows, n_cols), row_ids, col_ids, values).to_csr()
        except SparseFormatError as error:
            # The entries are checked above; only the shape can fail.
            raise SparseFormatError(f"line {size_lineno}: {error}") from None
        except (MemoryError, ValueError):
            # The row pointer grows with the declared row count; numpy
            # refuses a size beyond its address space with ValueError.
            raise SparseFormatError(
                f"line {size_lineno}: cannot allocate the {n_rows}x{n_cols} "
                "matrix the size line declares"
            ) from None
    finally:
        if close:
            stream.close()


def write_matrix_market(
    matrix: CSRMatrix,
    destination: str | Path | IO[str],
    comments: Iterable[str] = (),
) -> None:
    """Write a CSR matrix as a general real coordinate Matrix Market file."""
    stream: IO[str]
    close = False
    if isinstance(destination, (str, Path)):
        stream = open(destination, "w")
        close = True
    else:
        stream = destination
    try:
        stream.write("%%MatrixMarket matrix coordinate real general\n")
        for comment in comments:
            stream.write(f"% {comment}\n")
        stream.write(f"{matrix.shape[0]} {matrix.shape[1]} {matrix.nnz}\n")
        row_of = matrix.row_ids()
        for r, c, v in zip(row_of, matrix.indices, matrix.data):
            stream.write(f"{r + 1} {c + 1} {float(v)!r}\n")
    finally:
        if close:
            stream.close()
