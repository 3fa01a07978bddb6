"""Single- and multi-excitation transition amplitudes of a hopping chain.

F(t) is a plain (N, N) complex array of the one-excitation amplitudes
f_i^j(t) = sum_k exp(-i w_k t) phi_{jk} phi_{ki} between sites i and j, with
sites 1-indexed and F[i-1, j-1] = f_i^j.  For a chain with zero zz-anisotropy
the amplitude for moving a whole set of excitations S to a set R equals the
determinant of the F(t) submatrix with rows S and columns R, both taken in
ascending site order; with that ordering the set-to-itself amplitude is +1 at
t = 0.

Transfer amplitudes pair each sender subset S with its positional partner on
the receiver block, S + (N - n).  The pairing preserves order, so the
partner subset of an ascending S is ascending and the determinant needs no
reordering sign; on a reflection-symmetric chain it also makes the
single-site amplitude series of site s and site n+1-s exactly equal.  These
amplitudes are the principal minors of the n x n sender -> receiver block B(t)
of F(t), so their sum 1 + sum_S f_S^S is the single determinant det(I + B).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import subsets_by_excitation
from .chain import ChainSpec, spectral
from .errors import FreeFermionError
from .linalg import EigenDecomposition, dets, minor


@dataclass(frozen=True)
class TransferAmplitudeSet:
    """Amplitudes f_S^S for every nonempty sender subset S and its receiver partner."""

    block_size: int
    entries: dict[tuple[int, ...], complex]

    def __post_init__(self):
        expected = subsets_by_excitation(self.block_size, include_empty=False)
        if list(self.entries.keys()) != expected:
            raise ValueError(
                f"amplitude set must hold all {2 ** self.block_size - 1} nonempty subsets "
                "in (cardinality, lexicographic) order"
            )


def transition_matrix(decomp: EigenDecomposition, t: float) -> np.ndarray:
    """Propagator matrix F(t) from a single-particle eigendecomposition, F[i-1, j-1] = f_i^j."""
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    phases = np.exp(-1j * decomp.eigenvalues * t)
    return (decomp.eigenvectors * phases) @ decomp.eigenvectors.T


def chain_transition_matrix(spec: ChainSpec, t: float) -> np.ndarray:
    """F(t) for a chain spec; rejects anisotropic chains the minors cannot describe."""
    require_free_fermion(spec)
    return transition_matrix(spectral(spec), t)


def require_free_fermion(spec: ChainSpec) -> None:
    if spec.delta != 0.0:
        raise FreeFermionError(
            f"chain has zz-anisotropy delta={spec.delta}; determinant amplitudes apply only "
            "at delta=0 (use the exact block-evolution engine instead)"
        )


def multi_amplitude(F: np.ndarray, senders, receivers) -> complex:
    """Amplitude for excitations on `senders` to end up on `receivers`.

    Both site sets are 1-indexed and must be strictly ascending; they are used
    verbatim as row/column selections of F(t).
    """
    s = [int(x) - 1 for x in senders]
    r = [int(x) - 1 for x in receivers]
    return minor(F, s, r)


def transfer_amplitudes(F: np.ndarray, n: int) -> TransferAmplitudeSet:
    """All f_S^S between the edge blocks of an N-site chain, subsets ordered canonically."""
    N = F.shape[0]
    if not 1 <= n <= N // 2 and not (N == 1 and n == 1):
        raise ValueError(f"block size {n} does not fit a chain of {N} sites")
    minors = subset_minor_series(F[:n, N - n :, None])
    return TransferAmplitudeSet(block_size=n, entries={S: complex(f[0]) for S, f in minors.items()})


def transfer_block_series(decomp: EigenDecomposition, n: int, times: np.ndarray) -> np.ndarray:
    """Sender -> receiver block B(t) of F(t) over a time grid, shape (n, n, T).

    B[a, b] = f_{a+1}^{N-n+b+1}(t): row a is sender site a+1, column b the
    receiver site at the same position.  Only these n x n entries of F(t) are
    ever formed, so grids of a few million points stay cheap.  The matrix
    axes come first, as `linalg.dets` takes them, so each entry's series is
    one contiguous run of T values.  A time that is not finite raises
    ValueError.

    The phases exp(-i w_k t) are factorised.  On a uniform grid of T points
    with step D, point m i + j (0 <= j < m) is t[m i] + j D, so its phase is a
    coarse factor exp(-i w_k t[m i]), taken at the grid's own points and so
    re-anchored every m points, times a fine factor exp(-i w_k j D).  The fine
    table is folded into the coefficients, and one batched GEMM of the coarse
    table, (ceil(T/m), N) @ (n^2, N, m), gives B as (n^2, ceil(T/m), m), already
    in (n, n, T) order: ceil(T/m) + m rows of `exp` instead of T.
    m = ceil(sqrt(T)) minimises that count (128 for a 16,384-point chunk).  A
    grid counts as uniform when t[m i] + j D reproduces every point to within
    2 eps max|t|, as `np.linspace` grids on t >= 0 do; other grids, single
    points and empty grids take m = 1, where the fine table is [1] and the
    product is the direct exp(-i w t) @ coefficients.

    The direct `exp` is already off by up to eps |w t| / 2 at large t,
    because w t is rounded before the `exp`.  The factorised phase adds the
    grid tolerance and the rounding of the fine argument, so it stays within
    4 eps max|w| max|t| of the exact phase of each grid point: the same
    order as the direct `exp`, a few 1e-11 at t = 2e5.
    """
    N = decomp.size
    times = np.asarray(times, dtype=float)
    if not np.isfinite(times).all():
        raise ValueError(f"evolution time must be finite, got {times[~np.isfinite(times)][0]}")
    T = times.size
    m, step = 1, 0.0
    if T > 1:
        size = math.isqrt(T - 1) + 1  # ceil(sqrt(T))
        delta = (times[-1] - times[0]) / (T - 1)
        factorised = (times[::size, None] + np.arange(size) * delta).ravel()[:T]
        if np.max(np.abs(factorised - times)) <= 2 * np.finfo(float).eps * np.max(np.abs(times)):
            m, step = size, delta
    sender = np.arange(n)
    receiver = sender + (N - n)  # positional partner of each sender site, 0-indexed
    phi = decomp.eigenvectors
    # Coefficient c[(a, b), k] = phi[sender_a, k] * phi[receiver_b, k]
    coeff = (phi[sender][:, None, :] * phi[receiver][None, :, :]).reshape(n * n, N)
    coarse = np.exp(-1j * np.outer(times[::m], decomp.eigenvalues))
    fine = np.exp(-1j * np.outer(np.arange(m) * step, decomp.eigenvalues))
    weights = coeff[:, :, None] * fine.T  # (n^2, N, m)
    return np.matmul(coarse, weights).reshape(n, n, coarse.shape[0] * m)[..., :T]


def subset_minor_series(block: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """f_S^S(t) for every nonempty subset S: the principal minors of B(t) on rows and columns S.

    The block is laid out (n, n, ...), matrix axes first; one whose two
    leading axes differ raises ValueError before any subset is formed.  Each
    proper subset gathers one (k, k, ...) stack; the full set is the block.
    """
    if block.ndim < 2 or block.shape[0] != block.shape[1]:
        raise ValueError(f"expected an (n, n, ...) block, matrix axes first, got shape {block.shape}")
    n = block.shape[0]
    out: dict[tuple[int, ...], np.ndarray] = {}
    for s in subsets_by_excitation(n, include_empty=False):
        rows = np.array(s) - 1
        out[s] = dets(block if len(s) == n else block[rows[:, None], rows])
    return out


def total_transfer_amplitude(block: np.ndarray) -> np.ndarray:
    """1 + sum_S f_S^S(t) over every nonempty S, as one determinant det(I + B(t)) per time.

    The subset sum is the principal-minor expansion of det(I + B), so the
    average fidelity needs one n x n determinant per time point, not 2^n - 1.
    The identity enters through the determinant's diagonal shift, so the
    block is not copied.
    """
    return dets(block, shift=1.0)


def transfer_amplitude_series(
    decomp: EigenDecomposition, n: int, times: np.ndarray
) -> dict[tuple[int, ...], np.ndarray]:
    """f_S^S(t) for every nonempty subset S over a whole time grid.

    Vectorised equivalent of transfer_amplitudes applied per time: the
    principal minors of the sender -> receiver block B(t).
    """
    return subset_minor_series(transfer_block_series(decomp, n, times))
