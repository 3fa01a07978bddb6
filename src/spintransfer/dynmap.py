"""Dynamical maps taking sender density matrices to receiver density matrices.

A map is stored as the d^2 x d^2 matrix A with row index (i, j) and column
index (n, m), both row-major, acting on density matrices flattened in the
same pair order.  The stored convention is fixed by the single-qubit
amplitude-damping map having A[(0,1)][(0,1)] = f: entrywise it is the complex
conjugate of <i| L[|n><m|] |j>, which is the same thing as reading both
density matrices through their transposes.  All fidelity functionals built
from A are insensitive to that choice because they are real; what matters is
that every constructor here uses the same one.

Physicality constraints in this convention:

    sum_i A[(i,i)][(n,m)] = delta_nm          (trace preservation)
    A[(i,j)][(n,m)] = conj(A[(j,i)][(m,n)])   (hermiticity pairing)
    0 <= A[(i,i)][(n,n)] <= 1, sum over all (i, n, m) of A[(i,i)][(n,m)] = d
    Choi matrix C[(n,i)][(m,j)] = conj(A[(i,j)][(n,m)]) positive semidefinite

Every map the package builds is the Gram matrix of a Kraus tensor
T[P, i, x] (sender state P, receiver label i, environment x), which the map
keeps as `kraus`: tensor_product takes the Kronecker product of two such
tensors, and fidelity_evaluator samples pure-state fidelities from T.

Sender-block bases are ordered by excitation number then lexicographically
(see basis.subsets_by_excitation); receiver patterns are relabelled by their
positional partner sites, so a clean block transfer produces the identity map.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .amplitudes import transfer_block_series
from .basis import block_index, subsets_by_excitation
from .chain import ChainSpec, spectral
from .errors import MapConstructionError
from .linalg import compound_matrix
from .oracle import receiver_amplitude_tensor

VALIDATION_TOL = 1e-8


@dataclass(frozen=True, eq=False)
class DynamicalMap:
    """Dense dynamical map of a d-dimensional block.

    `elements` and `kraus` are held as read-only views; `kraus` is the tensor
    T[P, i, x] the map is the Gram matrix of, None only for a map given by its
    elements alone.  `deviations`, also None for such a map, holds what the
    Gram construction checked against VALIDATION_TOL: the largest violation of
    trace preservation, the diagonal bounds and the total sum, and
    `gram_choi_bound`, which bounds -lambda_min of the Choi matrix and the
    hermiticity pairing.
    """

    d: int
    elements: np.ndarray
    kraus: np.ndarray | None = None
    deviations: Mapping[str, float] | None = None

    def __post_init__(self):
        el = np.ascontiguousarray(np.asarray(self.elements, dtype=complex)).view()
        el.flags.writeable = False
        object.__setattr__(self, "elements", el)
        if self.d < 1 or el.shape != (self.d**2, self.d**2):
            raise ValueError(f"expected a {self.d ** 2} x {self.d ** 2} matrix, got {el.shape}")
        if not np.all(np.isfinite(el)):
            raise ValueError("map elements must be finite")
        if self.kraus is not None:
            kraus = np.asarray(self.kraus, dtype=complex).view()
            kraus.flags.writeable = False
            object.__setattr__(self, "kraus", kraus)

    def as_tensor(self) -> np.ndarray:
        """View with separate indices [i, j, n, m]."""
        d = self.d
        return self.elements.reshape(d, d, d, d)


@dataclass(frozen=True)
class CptpReport:
    """Maximum violation of each physicality constraint, and the verdict at `tolerance`."""

    trace_preservation: float
    hermiticity_pairing: float
    diagonal_bounds: float
    total_sum: float
    choi_min_eigenvalue: float
    tolerance: float
    passed: bool
    failures: tuple[str, ...]


def trace_deviation(m: DynamicalMap) -> float:
    """Largest violation of trace preservation, sum_i A[(i,i)][(n,m)] = delta_nm."""
    return float(np.max(np.abs(np.einsum("iinm->nm", m.as_tensor()) - np.eye(m.d))))


def _element_deviations(m: DynamicalMap) -> dict[str, float]:
    """Largest violation of trace preservation, the diagonal bounds and the total sum."""
    a = m.as_tensor()
    diag = np.einsum("iinn->in", a).real
    return {
        "trace_preservation": trace_deviation(m),
        "diagonal_bounds": float(max(np.max(diag) - 1.0, -np.min(diag), 0.0)),
        "total_sum": float(abs(np.einsum("iinm->", a) - m.d)),
    }


def _choi_deviations(m: DynamicalMap) -> tuple[float, float]:
    """Hermiticity pairing max|C - C^dagger| and least eigenvalue of C's Hermitian part H.

    Both are read one principal block of the Choi matrix C at a time.  A
    permuted block-diagonal matrix has the union of its blocks' eigenvalues.
    The blocks are the connected components of H's exact nonzero pattern with
    the diagonal set: that joins row i to column i, so each block's rows are
    its columns, and a zero-diagonal pair [[0, c], [c, 0]] stays one block
    with its eigenvalue -|c|.  An entry C_ab - conj(C_ba) of C - C^dagger is
    nonzero only inside that pattern, so within a block.  The pattern is
    symmetric, so a row that is zero off the diagonal is a 1 x 1 block, whose
    eigenvalue is its real diagonal entry and whose pairing deviation is
    2 |Im C_aa|; the other rows' blocks are found among those rows alone.
    Excitation-number conservation makes the blocks small (70, 56, 28 and 8
    rows plus 94 single rows at n = 4); a dense Choi matrix is one block.
    """
    choi = choi_matrix(m)
    pattern = (choi != 0) | (choi.T != 0)
    np.fill_diagonal(pattern, True)
    single = np.count_nonzero(pattern, axis=1) == 1
    diagonal = choi.diagonal()[single]
    pairing = 2.0 * np.max(np.abs(diagonal.imag), initial=0.0)
    least = np.min(diagonal.real, initial=np.inf)
    rest = np.flatnonzero(~single)
    for rows, _ in _connected_blocks(pattern[np.ix_(rest, rest)]):
        block = choi[np.ix_(rest[rows], rest[rows])]
        adjoint = block.conj().T
        pairing = max(pairing, np.max(np.abs(block - adjoint)))
        least = min(least, np.linalg.eigvalsh((block + adjoint) / 2.0)[0])
    return float(pairing), float(least)


def validate_cptp(m: DynamicalMap, tolerance: float = VALIDATION_TOL) -> CptpReport:
    """Check trace preservation, hermiticity pairing, diagonal bounds and Choi positivity.

    Trace preservation, the diagonal bounds and the total sum are read from the
    elements; the pairing (the Choi matrix's Hermiticity) and Choi positivity from
    one pass over its principal blocks.  ValueError unless 0 <= tolerance < inf.
    """
    if not 0.0 <= tolerance < np.inf:  # NaN compares false, so it fails too
        raise ValueError(f"tolerance must be finite and non-negative, got {tolerance}")
    pairing, choi_min = _choi_deviations(m)
    deviations = {**_element_deviations(m), "hermiticity_pairing": pairing}
    checks = {**deviations, "choi_positivity": -choi_min}
    failures = tuple(name for name, dev in checks.items() if dev > tolerance)
    return CptpReport(
        **deviations,
        choi_min_eigenvalue=choi_min,
        tolerance=tolerance,
        passed=not failures,
        failures=failures,
    )


def choi_matrix(m: DynamicalMap) -> np.ndarray:
    """Choi matrix C[(n,i)][(m,j)] = conj(A[(i,j)][(n,m)]), PSD exactly when the map is CP."""
    d = m.d
    return np.conjugate(m.as_tensor().transpose(2, 0, 3, 1), order="C").reshape(d**2, d**2)


def _gram_choi_bound(amplitudes: np.ndarray) -> float:
    """Upper bound on -lambda_min of the Choi matrix of the map _stored_gram(amplitudes).

    That Choi matrix is fl(M M^dagger) with M[(P, i), x] = T[P, i, x]: positive
    semidefinite up to the rounding of the product alone.  The real and the
    imaginary part of each entry are real inner products of length 2k
    (k = T.shape[-1]), so in any summation order each is within
    gamma_2k sum_x |M_ax| |M_bx|, with gamma_m = m u / (1 - m u) (Higham,
    Accuracy and Stability of Numerical Algorithms, sections 3.1 and 3.6).  The
    error matrix is then within sqrt(2) gamma_2k |M| |M|^T entrywise, whose
    2-norm is at most sqrt(2) gamma_2k ||M||_F^2, and by Weyl's inequality no
    eigenvalue moves further.  A factor 2 covers the rounding of the bound.

    The same model bounds the hermiticity pairing.  A[(i,j)][(P,Q)] and
    conj(A[(j,i)][(Q,P)]) are both computed inner products of rows (P, i) and
    (Q, j) of M, whose exact values are equal, so each is within
    sqrt(2) gamma_2k sum_x |M_ax| |M_bx| of the same number and they differ by
    at most 2 sqrt(2) gamma_2k sum_x |M_ax| |M_bx| <= 2 sqrt(2) gamma_2k ||M||_F^2,
    which is this bound.
    """
    mu = amplitudes.shape[-1] * np.finfo(float).eps  # 2k u, u = eps / 2 the unit roundoff
    return float(2.0 * np.sqrt(2.0) * mu / (1.0 - mu) * np.linalg.norm(amplitudes) ** 2)


def _gram_map(amplitudes: np.ndarray, what: str) -> DynamicalMap:
    """The map _stored_gram(T) of the amplitude tensor T[P, i, x]; raise unless it is physical.

    Trace preservation, the diagonal bounds and the total sum are read from the
    elements.  Choi positivity and the hermiticity pairing hold exactly before
    rounding, and _gram_choi_bound(T) covers both, so nothing is diagonalised.
    The values checked are kept as the map's `deviations`.
    """
    m = DynamicalMap(amplitudes.shape[0], _stored_gram(amplitudes), amplitudes)
    deviations = {**_element_deviations(m), "gram_choi_bound": _gram_choi_bound(amplitudes)}
    worst = max(deviations.values())
    if worst > VALIDATION_TOL:
        raise MapConstructionError(f"{what} produced an unphysical map (violation {worst:.3e})")
    object.__setattr__(m, "deviations", MappingProxyType(deviations))  # frozen, as in __post_init__
    return m


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def identity_map(d: int) -> DynamicalMap:
    """The perfect transfer: one Kraus operator, the identity."""
    return _gram_map(np.eye(d)[:, :, None], "identity_map")


def classical_transfer_map(d: int) -> DynamicalMap:
    """Measure in the transfer basis and re-prepare: the best entanglement-free strategy.

    Kills every coherence and gives the benchmark average fidelity 2/(d+1).
    Its Kraus operators are the projectors |x><x|, T[P, i, x] = delta_Pi delta_Px.
    """
    return _gram_map(np.eye(d)[:, :, None] * np.eye(d)[:, None, :], "classical_transfer_map")


def _checked_amplitudes(f) -> np.ndarray:
    """f as a complex array; ValueError unless every entry is finite with |f| <= 1 (to 1e-9)."""
    f = np.asarray(f, dtype=complex)
    if not np.all(np.abs(f) <= 1.0 + 1e-9):  # NaN compares false, so it fails too
        raise ValueError(f"transfer amplitudes must be finite with |f| <= 1, got {f}")
    return f


def one_qubit_tensors(f) -> np.ndarray:
    """Stored tensors a[..., i, j, n, m] of the one-qubit amplitude-damping maps with amplitudes f.

    Vectorised over the shape of f; each map sends |1> to |0> with
    probability 1 - |f|^2 and scales the coherence A[(0,1)][(0,1)] by f.
    """
    f = _checked_amplitudes(f)
    a = np.zeros(f.shape + (2, 2, 2, 2), dtype=complex)
    a[..., 0, 0, 0, 0] = 1.0
    a[..., 0, 0, 1, 1] = 1.0 - np.abs(f) ** 2
    a[..., 1, 1, 1, 1] = np.abs(f) ** 2
    a[..., 0, 1, 0, 1] = f
    a[..., 1, 0, 1, 0] = np.conj(f)
    return a


def _one_qubit_kraus(f: complex) -> np.ndarray:
    """Kraus tensor K[P, i, x] of one_qubit_map: environment x = 1 holds a lost excitation."""
    f = complex(_checked_amplitudes(f))
    k = np.zeros((2, 2, 2), dtype=complex)
    k[0, 0, 0] = 1.0
    k[1, 1, 0] = f
    k[1, 0, 1] = np.sqrt(max(1.0 - abs(f) ** 2, 0.0))
    return k


def one_qubit_map(f: complex) -> DynamicalMap:
    """Amplitude-damping transfer map of a single qubit with transition amplitude f."""
    return _gram_map(_one_qubit_kraus(f), "one_qubit_map")


def two_qubit_map(F: np.ndarray, N: int) -> DynamicalMap:
    """Transfer map for a two-site sender block, from the transition matrix F alone.

    Sender sites (1, 2), receiver sites (N-1, N) labelled positionally
    (label 1 is site N-1, label 2 is site N).  The map depends on F only
    through the 2 x 2 block of sender rows and receiver columns, which
    _kraus_from_block turns into the amplitude tensor.
    """
    if N != F.shape[0]:
        raise ValueError(f"matrix size {F.shape[0]} does not match N={N}")
    if N < 4:
        raise ValueError("two-qubit transfer needs at least 4 sites")
    return _gram_map(_kraus_from_block(F[:2, N - 2 :]), "two_qubit_map")


@lru_cache(maxsize=8)
def _kraus_columns(n: int) -> np.ndarray:
    """Entry [i, e]: the column of the compound matrix of [R | B] on columns e + (i + n)."""
    subsets = subsets_by_excitation(n)
    index = block_index(2 * n)
    labels = [tuple(s + n for s in i) for i in subsets]
    table = np.array([[index[e + i] for e in subsets] for i in labels])
    table.flags.writeable = False
    return table


def _kraus_from_block(block: np.ndarray) -> np.ndarray:
    """Amplitude tensor T[P, i, e] of a zero-anisotropy chain's map, from its block B(t).

    Sender state P ends with the environment in E and the receiver in label
    state i with amplitude det F[P, E + R_i], F being the sender rows of the
    one-excitation propagator, receiver sites last.  Summed over E, products
    of two amplitudes see the columns F_E only through F_E F_E^dagger =
    G = I - B B^dagger (Cauchy-Binet), so any root R R^dagger = G replaces
    them: an n-mode environment, T[P, i, e] = det [R | B][P, e + (i + n)],
    whose slices T[:, :, e] are Kraus operators.  Clipping the eigenvalues of
    G at 0 matters only for a non-contractive B, which then fails trace
    preservation.
    """
    n = block.shape[-1]
    w, v = np.linalg.eigh(np.eye(n) - block @ block.conj().T)
    root = v * np.sqrt(np.maximum(w, 0.0))
    return compound_matrix(np.hstack([root, block])).take(_kraus_columns(n), axis=1)


def _stored_gram(amplitudes: np.ndarray) -> np.ndarray:
    """Stored map A[(i, j), (P, Q)] = sum_x conj(T[P, i, x]) * T[Q, j, x] of T = amplitudes.

    T is reordered once to rows (i, P); each slab of i is then one product with
    rows (j, Q), so besides the map and that copy only slab-sized temporaries are alive.
    """
    d = amplitudes.shape[0]
    m = amplitudes.transpose(1, 0, 2).reshape(d * d, -1)  # [(i, P), x]
    step = max(1, 16**4 // d**3)  # at most 16^4 elements per slab, so d <= 16 is one
    out = None
    for lo in range(0, d, step):
        slab = (np.conj(m[lo * d : (lo + step) * d]) @ m.T).reshape(-1, d, d, d)  # [i, P, j, Q]
        if out is None:
            # Allocated after the first slab, so that slab is freed below the map: malloc
            # reuses it for the next build instead of trimming it and faulting it in again.
            out = np.empty((d, d, d, d), dtype=complex)
        out[lo : lo + step] = slab.transpose(0, 2, 1, 3)
    return out.reshape(d * d, d * d)


def map_from_evolution(spec: ChainSpec, n: int, t: float) -> DynamicalMap:
    """Transfer map of an n-site block after evolving the chain for time t.

    The map is the Gram matrix, over a shared environment index, of one
    amplitude tensor T[sender state, receiver label, environment].  At zero
    anisotropy T comes from the n x n sender -> receiver block B(t) of the
    one-excitation propagator with an n-mode environment (see
    _kraus_from_block), so its cost does not grow with N; chains with
    delta != 0 are evolved exactly in the excitation sectors of the oracle
    module, which caps N through the sector dimension.
    """
    return _gram_map(_evolution_amplitudes(spec, n, t), "map_from_evolution")


def _evolution_amplitudes(spec: ChainSpec, n: int, t: float) -> np.ndarray:
    """Amplitude tensor T[sender state, receiver label, environment] of map_from_evolution."""
    if n != spec.block_size:
        raise ValueError(f"block size mismatch: spec has {spec.block_size}, got {n}")
    if spec.delta == 0.0:
        return _kraus_from_block(transfer_block_series(spectral(spec), n, [t])[..., 0])
    return receiver_amplitude_tensor(spec, n, t).transpose(0, 2, 1)  # [p, label, env]


def tensor_product(a: DynamicalMap, b: DynamicalMap) -> DynamicalMap:
    """Map acting independently on two blocks; composite indices are left-major.

    Its Kraus tensor is the Kronecker product of the factors' tensors over the
    (P, i, x) axes, so products of exact maps stay exact.  Raises ValueError
    for a factor given by its elements alone.
    """
    if a.kraus is None or b.kraus is None:
        raise ValueError("tensor_product needs maps that keep their Kraus tensor")
    return _gram_map(np.kron(a.kraus, b.kraus), "tensor_product")


def independent_channels_map(f: complex, n: int) -> DynamicalMap:
    """n identical single-qubit amplitude-damping channels in parallel.

    Its Kraus tensor is the n-fold Kronecker product of the one-qubit tensor
    over the (P, i, x) axes, left-major as in tensor_product.
    """
    if n < 1:
        raise ValueError("need at least one channel")
    kraus = reduce(np.kron, [_one_qubit_kraus(f)] * n)
    return _gram_map(kraus, "independent_channels_map")


# ---------------------------------------------------------------------------
# Fidelity evaluation against arbitrary pure inputs
# ---------------------------------------------------------------------------


def _connected_blocks(matrix: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """(rows, columns) of each connected component of the matrix's exact nonzero pattern.

    A row and a column are joined when their entry is nonzero.  Every column
    is labelled by the smallest column of its component, found by passing the
    smallest label through the nonzero entries, to the rows and back, until
    no label falls; components come in the order of their labels.  A row or a
    column with no nonzero entry belongs to no component.  A square pattern
    with its diagonal set joins row i to column i, so every component is then
    a principal block (its rows are its columns), and a row and column i that
    are zero off the diagonal form the singleton ([i], [i]).
    """
    mask = matrix != 0
    label = np.arange(mask.shape[1])
    unreached = mask.shape[1]  # the label of a row with no nonzero entry
    while True:
        row = np.min(np.where(mask, label, unreached), axis=1, initial=unreached)
        fallen = np.min(np.where(mask, row[:, None], label), axis=0, initial=unreached)
        if np.array_equal(fallen, label):
            break
        label = fallen
    # A component's label is the one column that keeps its own (np.unique would import numpy.ma).
    roots = np.flatnonzero(label == np.arange(label.size))
    # One stable sort groups rows then columns by label, each in index order.
    keys = np.concatenate([row, label])
    order = np.argsort(keys, kind="stable")
    starts = np.searchsorted(keys[order], roots)
    ends = starts + np.bincount(keys, minlength=unreached + 1)[roots]
    mids = starts + np.bincount(row, minlength=unreached + 1)[roots]
    return [(order[lo:mid], order[mid:hi] - row.size)
            for lo, mid, hi in zip(starts, mids, ends) if mid > lo]


def fidelity_evaluator(m: DynamicalMap):
    """Batched pure-state fidelity function of a map, for Monte Carlo use.

    Returns a callable taking state rows (batch, d) and yielding
    <psi| L[|psi><psi|] |psi> = sum_x |<psi|K_x|psi>|^2 for each row, K_x the
    Kraus operators of the map's tensor T.  With M[(P, i), x] = T[P, i, x] and
    u = vec(psi (x) conj psi), <psi|K_x|psi> = (u M)_x.  M is split into the
    connected blocks of its nonzero pattern (_connected_blocks), which
    excitation-number conservation makes small: five on the N = 16, n = 4,
    delta = 0.3 chain, and one for a dense T.  Each block B = U S V^dagger
    has V an isometry, so U S gives the same sum.  A block-diagonal matrix's
    singular values are those of its blocks, so keeping the columns above
    sigma_max max(d^2, k) eps, sigma_max the largest over all blocks and k
    the environment size, keeps what numpy's matrix_rank tolerance keeps on
    the whole of M.  A state then needs u only on the rows of its blocks.
    Raises ValueError for a map given by its elements alone.
    """
    if m.kraus is None:
        raise ValueError("fidelity_evaluator needs a map that keeps its Kraus tensor")
    d = m.d
    matrix = m.kraus.reshape(d * d, -1)
    blocks = [
        (rows, *np.linalg.svd(matrix[np.ix_(rows, columns)], full_matrices=False)[:2])
        for rows, columns in _connected_blocks(matrix)
    ]
    sigma_max = max((sigma[0] for _, _, sigma in blocks), default=0.0)
    cut = sigma_max * max(d * d, matrix.shape[1]) * np.finfo(float).eps
    factors = []  # per block: the sender and receiver of each row (P, i), and (U S)^T kept
    for rows, left, sigma in blocks:
        keep = sigma > cut
        if keep.any():
            factors.append((*np.divmod(rows, d), (left[:, keep] * sigma[keep]).T))

    def evaluate(states: np.ndarray) -> np.ndarray:
        states = np.atleast_2d(np.asarray(states, dtype=complex))
        if states.shape[1] != d:
            raise ValueError(f"states must have dimension {d}, got {states.shape[1]}")
        psi = states.T.copy()  # (d, batch): a row of u below is a product of two contiguous rows
        psi_conj = psi.conj()
        total = np.zeros(states.shape[0])
        for senders, receivers, factor in factors:
            u = psi[senders]
            u *= psi_conj[receivers]  # u[(P, i), s] = psi_P conj(psi_i) on the block's rows
            y = factor @ u
            total += np.sum(y.real**2 + y.imag**2, axis=0)
        return total

    return evaluate
