"""Dense linear-algebra kernels: tridiagonal eigenproblems, batched determinants, minors.

Matrices are plain numpy arrays; a symmetric tridiagonal matrix, which is what
single-particle hopping problems produce, is passed as its two bands.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .basis import sector_positions
from .errors import SolverError


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of a real symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def eig_tridiag(diag: np.ndarray, offdiag: np.ndarray) -> EigenDecomposition:
    """Diagonalise the symmetric tridiagonal matrix with the given bands.

    The dense matrix goes to numpy's `eigh` (LAPACK's divide and conquer).
    Eigenvalues come out ascending; each eigenvector is normalised with its
    first component above 1e-12 in magnitude positive, so repeated runs are
    bit-identical.  A unit vector of length N has an entry of at least
    1/sqrt(N), so every column has such a component.  Bands that are not 1-D,
    empty, of mismatched sizes (N and N-1) or non-finite raise ValueError;
    complex bands raise TypeError.

    The dense solve costs O(N^3) where a banded one costs O(N^2).  On the
    uniform chain (zero diagonal, off-diagonal 0.5), best of 5 with one BLAS
    thread on an x86_64 VM, it took 0.028 ms against 0.032 ms for scipy's
    `eigh_tridiagonal` at N = 18, 4.5 against 2.2 ms at N = 300 and 110
    against 25 ms at N = 1000.  A chain is diagonalised once, so a long wire
    pays this once; importing scipy would cost every process about 0.1 s.
    """
    d, e = np.asarray(diag), np.asarray(offdiag)
    if d.ndim != 1 or e.ndim != 1:
        raise ValueError("bands must be one-dimensional")
    if np.iscomplexobj(d) or np.iscomplexobj(e):
        raise TypeError("bands must be real")
    if d.size == 0 or e.size != d.size - 1:
        raise ValueError(f"bands of {d.size} and {e.size} entries; need N > 0 and N - 1")
    if not (np.all(np.isfinite(d)) and np.all(np.isfinite(e))):
        raise ValueError("band entries must be finite")
    try:
        w, v = np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SolverError(f"tridiagonal eigensolver failed for size {d.size}: {exc}") from exc
    pivots = np.argmax(np.abs(v) > 1e-12, axis=0)
    np.negative(v, out=v, where=v[pivots, np.arange(v.shape[1])] < 0)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def _as_square_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def _expansion_plan(k: int) -> tuple:
    """Terms of the row-by-row Laplace expansion of a k x k determinant.

    Entry r - 1, for row r = 1 .. k - 1, lists for every (r + 1)-subset C of
    the columns, in lexicographic order, the pairs (C[p], index of C minus
    C[p] among the r-subsets) with p running down from the last position, so
    the signs of the terms alternate starting from +.
    """
    levels = []
    index = {(c,): c for c in range(k)}
    for r in range(1, k):
        subsets = list(combinations(range(k), r + 1))
        levels.append(
            tuple(tuple((C[p], index[C[:p] + C[p + 1 :]]) for p in reversed(range(r + 1))) for C in subsets)
        )
        index = {C: i for i, C in enumerate(subsets)}
    return tuple(levels)


# Largest k expanded by minors, the measured crossover with batched LU (see dets).
_EXPANSION_MAX = 6
_EXPANSION_PLANS = tuple(_expansion_plan(k) for k in range(_EXPANSION_MAX + 1))


def dets(stack: np.ndarray, shift: float = 0.0) -> np.ndarray:
    """Determinant of every k x k matrix in a stack of shape (k, k, ...), matrix axes first.

    The only determinant kernel of the package.  For k <= 6 it is a
    division-free Laplace expansion along rows: level r holds det A[0..r, C]
    for every (r + 1)-column subset C, each entry the alternating sum over
    positions p of A[r, C[p]] det A[0..r-1, C minus C[p]].  That is
    k 2^(k-1) complex products per matrix, each one elementwise over the
    whole batch, against the ~k^3 operations of LU with its per-matrix loop.
    Larger k go to numpy's batched LU.  Per 16,384-matrix stack, one BLAS
    thread, x86_64 VM: the expansion took 0.20, 0.61 and 4.2 ms at k = 3, 4
    and 6, against 3.3, 4.8 and 9.0 ms for LU on a contiguous stack.  At
    k = 7 it beats LU on the strided view of random stacks (21-27 against
    27-32 ms), but LU barely pivots on the I + B(t) stacks of a scan, where
    `scan_values` at n = 7 took 138-144 ms per 65,536 points with LU against
    158-161 ms expanded; at k = 8 LU wins outright (34-42 against 54-62 ms).

    A nonzero `shift` gives det(A + shift I) of every matrix A without
    touching the stack, so det(I + B) is `dets(B, shift=1.0)`.  The
    expansion reads each diagonal entry as one precomputed `a[r, r] + shift`
    array, k series rather than a copy of the stack; LU takes one
    (k, k, ...) copy with the shift on its diagonal.  Either way each sum
    `a[r, r] + shift` is rounded once, as in a shifted copy, so the result
    is bit-identical to the determinants of that copy.

    1 x 1 determinants are the entries themselves, and a 0 x 0 matrix has
    determinant 1.  A stack whose two leading axes differ raises ValueError.
    """
    if stack.ndim < 2 or stack.shape[0] != stack.shape[1]:
        raise ValueError(f"expected a stack of square matrices, matrix axes first, got shape {stack.shape}")
    k, batch = stack.shape[0], stack.shape[2:]
    if k == 0 or k > _EXPANSION_MAX:
        if shift:
            stack = stack.copy()
            for r in range(k):
                stack[r, r] += shift
        return np.linalg.det(np.moveaxis(stack, (0, 1), (-2, -1)))
    if k == 1:
        return stack[0, 0] + shift if shift else stack[0, 0].copy()
    a = stack.reshape(k, k, math.prod(batch))
    rows = a  # rows[r][c] is the series of entry (r, c)
    if shift:
        rows = [list(row) for row in a]
        for r in range(k):
            rows[r][r] = a[r, r] + shift
    minors = rows[0]  # det A[0, {c}] for every column c
    term = np.empty(a.shape[2:], dtype=a.dtype)
    for r, level in enumerate(_EXPANSION_PLANS[k], start=1):
        row = rows[r]
        out = np.empty((len(level), *a.shape[2:]), dtype=a.dtype)
        for acc, ((c, j), *rest) in zip(out, level):
            np.multiply(row[c], minors[j], out=acc)
            for q, (c, j) in enumerate(rest):
                np.multiply(row[c], minors[j], out=term)
                if q % 2:
                    acc += term
                else:
                    acc -= term
        minors = out
    return minors[0].reshape(batch)


def minor(m: np.ndarray, rows, cols) -> complex:
    """Determinant of the submatrix keeping the given rows and columns.

    Both index sets must be strictly increasing and of equal size; the caller
    owns the ordering convention, so unsorted input is an error rather than
    being silently reordered.
    """
    a = _as_square_matrix(m)
    r = np.asarray(list(rows), dtype=int)
    c = np.asarray(list(cols), dtype=int)
    if r.size != c.size:
        raise ValueError(f"row set size {r.size} != column set size {c.size}")
    if r.size < 1:
        raise ValueError("index sets must be nonempty")
    for name, idx in (("row", r), ("column", c)):
        if np.any(idx < 0) or np.any(idx >= a.shape[0]):
            raise ValueError(f"{name} index out of range for size {a.shape[0]}")
        if np.any(np.diff(idx) <= 0):
            raise ValueError(f"{name} indices must be strictly increasing, got {idx.tolist()}")
    return complex(dets(a[np.ix_(r, c)]))


def compound_matrix(x: np.ndarray) -> np.ndarray:
    """All minors det x[A, C] of an r x c matrix with r <= c, as one 2^r x 2^c matrix.

    Rows run over the subsets of {1..r} and columns over those of {1..c},
    each ordered by cardinality, then lexicographically (the block basis
    order).  Entry (A, C) is the minor on rows A and columns C when
    |A| = |C| and 0 otherwise; the empty minor (first entry) is 1.  One
    batched determinant per subset size.
    """
    r, c = x.shape[-2:]
    out = np.zeros((2**r, 2**c), dtype=complex)
    out[0, 0] = 1.0
    row = col = 1
    for k in range(1, r + 1):
        rows = sector_positions(r, k)  # (C(r, k), k), 0-indexed
        cols = sector_positions(c, k)  # raises for r > c
        stack = x[rows.T[:, None, :, None], cols.T[None, :, None, :]]  # (k, k, C(r,k), C(c,k))
        out[row : row + len(rows), col : col + len(cols)] = dets(stack)
        row, col = row + len(rows), col + len(cols)
    return out
