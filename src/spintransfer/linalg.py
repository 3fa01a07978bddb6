"""Dense linear-algebra kernels: tridiagonal eigenproblems, batched determinants, minors.

Matrices are plain numpy arrays; the only wrapped type is the symmetric
tridiagonal band pair, which is what single-particle hopping problems produce.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .basis import excitation_sector
from .errors import SolverError


@dataclass(frozen=True)
class TridiagonalSymmetric:
    """Real symmetric tridiagonal matrix stored as (diagonal, off-diagonal) bands."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        offdiag = np.asarray(self.offdiag, dtype=float)
        object.__setattr__(self, "diag", diag)
        object.__setattr__(self, "offdiag", offdiag)
        if diag.ndim != 1 or offdiag.ndim != 1:
            raise ValueError("bands must be one-dimensional")
        if diag.size < 1:
            raise ValueError("matrix must have at least one row")
        if offdiag.size != diag.size - 1:
            raise ValueError(
                f"off-diagonal length {offdiag.size} does not match diagonal length {diag.size}"
            )
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(offdiag))):
            raise ValueError("matrix entries must be finite")

    @property
    def size(self) -> int:
        return self.diag.size

    def dense(self) -> np.ndarray:
        """Explicit dense representation (for tests and tiny problems)."""
        m = np.diag(self.diag)
        if self.offdiag.size:
            m += np.diag(self.offdiag, 1) + np.diag(self.offdiag, -1)
        return m


@dataclass(frozen=True)
class EigenDecomposition:
    """Eigenvalues (ascending) and orthonormal eigenvectors (columns) of a real symmetric matrix."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    @property
    def size(self) -> int:
        return self.eigenvalues.size


def eig_tridiag(m: TridiagonalSymmetric) -> EigenDecomposition:
    """Diagonalise a symmetric tridiagonal matrix.

    Eigenvalues come out ascending; each eigenvector is normalised with its
    first nonzero component positive so repeated runs are bit-identical.
    """
    try:
        w, v = scipy.linalg.eigh_tridiagonal(m.diag, m.offdiag)
    except scipy.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK rarely fails
        raise SolverError(f"tridiagonal eigensolver failed for size {m.size}: {exc}") from exc
    order = np.argsort(w, kind="stable")
    w = w[order]
    v = v[:, order]
    # Fix the sign of each column: first component above threshold made positive.
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        pivot = nz[0] if nz.size else int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            v[:, k] = -col
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)


def _as_square_matrix(m: np.ndarray) -> np.ndarray:
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    return a


def dets(stack: np.ndarray) -> np.ndarray:
    """Determinant of every k x k matrix in a stack of shape (..., k, k), by batched LU.

    The only determinant kernel of the package.  1 x 1 determinants are the
    entries themselves, not LU's rounded reconstruction of them.
    """
    if stack.ndim < 2 or stack.shape[-1] != stack.shape[-2]:
        raise ValueError(f"expected a stack of square matrices, got shape {stack.shape}")
    if stack.shape[-1] == 1:
        return stack[..., 0, 0].copy()
    return np.linalg.det(stack)


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
    """All minors det x[A, C] of an n x n matrix, as one 2^n x 2^n matrix.

    Rows and columns run over the subsets of {1..n} ordered by cardinality,
    then lexicographically (the block basis order).  Entry (A, C) is the
    minor on rows A and columns C when |A| = |C| and 0 otherwise; the empty
    minor (first entry) is 1.  One batched determinant per subset size.
    """
    n = x.shape[-1]
    out = np.zeros((2**n, 2**n), dtype=complex)
    out[0, 0] = 1.0
    start = 1
    for k in range(1, n + 1):
        sets = np.array(excitation_sector(n, k)) - 1  # (C(n, k), k), 0-indexed
        stop = start + len(sets)
        rows, cols = sets[:, None, :, None], sets[None, :, None, :]
        out[start:stop, start:stop] = dets(x[rows, cols])  # (C(n,k), C(n,k), k, k) stack
        start = stop
    return out
