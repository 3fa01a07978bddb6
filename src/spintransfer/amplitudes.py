"""Single- and multi-excitation transition amplitudes of a hopping chain.

The N x N matrix F(t) collects the one-excitation amplitudes
f_i^j(t) = sum_k exp(-i w_k t) phi_{jk} phi_{ki} between sites i and j.  For a
chain with zero zz-anisotropy the amplitude for moving a whole set of
excitations S to a set R equals the determinant of the F(t) submatrix with
rows S and columns R, both taken in ascending site order; with that ordering
the set-to-itself amplitude is +1 at t = 0.

Transfer amplitudes pair each sender subset S with its positional partner on
the receiver block, S + (N - n).  The pairing preserves order, so the
partner subset of an ascending S is ascending and the determinant needs no
reordering sign; on a reflection-symmetric chain it also makes the
single-site amplitude series of site s and site n+1-s exactly equal.  These
amplitudes are the principal minors of the n x n sender -> receiver block B(t)
of F(t), so their sum 1 + sum_S f_S^S is the single determinant det(I + B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import excitation_sector, subsets_by_excitation
from .chain import ChainSpec, spectral
from .errors import FreeFermionError
from .linalg import EigenDecomposition, dets, minor


@dataclass(frozen=True)
class AmplitudeMatrix:
    """Transition amplitudes between all site pairs at one instant, entry (i, j) = f_i^j."""

    time: float
    entries: np.ndarray

    @property
    def size(self) -> int:
        return self.entries.shape[0]

    def entry(self, i: int, j: int) -> complex:
        """Amplitude from site i to site j (1-indexed)."""
        return complex(self.entries[i - 1, j - 1])


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


def transition_matrix(decomp: EigenDecomposition, t: float) -> AmplitudeMatrix:
    """Propagator matrix F(t) from a single-particle eigendecomposition."""
    phases = np.exp(-1j * decomp.eigenvalues * t)
    entries = (decomp.eigenvectors * phases) @ decomp.eigenvectors.T
    return AmplitudeMatrix(time=float(t), entries=entries)


def chain_transition_matrix(spec: ChainSpec, t: float) -> AmplitudeMatrix:
    """F(t) for a chain spec; rejects anisotropic chains the minors cannot describe."""
    require_free_fermion(spec)
    return transition_matrix(spectral(spec), t)


def require_free_fermion(spec: ChainSpec) -> None:
    if spec.delta != 0.0:
        raise FreeFermionError(
            f"chain has zz-anisotropy delta={spec.delta}; determinant amplitudes apply only "
            "at delta=0 (use the exact block-evolution engine instead)"
        )


def multi_amplitude(F: AmplitudeMatrix, senders, receivers) -> complex:
    """Amplitude for excitations on `senders` to end up on `receivers`.

    Both site sets are 1-indexed and must be strictly ascending; they are used
    verbatim as row/column selections of F(t).
    """
    s = [int(x) - 1 for x in senders]
    r = [int(x) - 1 for x in receivers]
    return minor(F.entries, s, r)


def transfer_amplitudes(F: AmplitudeMatrix, n: int) -> TransferAmplitudeSet:
    """All f_S^S between the edge blocks of an N-site chain, subsets ordered canonically."""
    N = F.size
    if not 1 <= n <= N // 2 and not (N == 1 and n == 1):
        raise ValueError(f"block size {n} does not fit a chain of {N} sites")
    minors = subset_minor_series(F.entries[None, :n, N - n :])
    return TransferAmplitudeSet(block_size=n, entries={S: complex(f[0]) for S, f in minors.items()})


def transfer_block_series(decomp: EigenDecomposition, n: int, times: np.ndarray) -> np.ndarray:
    """Sender -> receiver block B(t) of F(t) over a time grid, shape (T, n, n).

    B[:, a, b] = f_{a+1}^{N-n+b+1}(t): row a is sender site a+1, column b the
    receiver site at the same position.  Only these n x n entries of F(t) are
    ever formed, so grids of a few million points stay cheap.
    """
    N = decomp.size
    times = np.asarray(times, dtype=float)
    sender = np.arange(n)
    receiver = sender + (N - n)  # positional partner of each sender site, 0-indexed
    phi = decomp.eigenvectors
    # Coefficient c[(a, b), k] = phi[sender_a, k] * phi[receiver_b, k]
    coeff = phi[sender][:, None, :] * phi[receiver][None, :, :]
    phases = np.exp(-1j * np.outer(times, decomp.eigenvalues))
    return np.tensordot(phases, coeff, axes=([1], [2]))


def subset_minor_series(block: np.ndarray) -> dict[tuple[int, ...], np.ndarray]:
    """f_S^S(t) for every nonempty subset S: the principal minors of B(t) on rows and columns S."""
    n = block.shape[-1]
    out: dict[tuple[int, ...], np.ndarray] = {}
    for k in range(1, n + 1):
        subsets = excitation_sector(n, k)
        sets = np.array(subsets) - 1  # (C(n, k), k), 0-indexed
        minors = dets(block[:, sets[:, :, None], sets[:, None, :]])  # (T, C(n,k), k, k) stack
        out.update(zip(subsets, minors.T))
    return out


def total_transfer_amplitude(block: np.ndarray) -> np.ndarray:
    """1 + sum_S f_S^S(t) over every nonempty S, as one determinant det(I + B(t)) per time.

    The subset sum is the principal-minor expansion of det(I + B), so the
    average fidelity needs one n x n determinant per time point, not 2^n - 1.
    """
    return dets(block + np.eye(block.shape[-1]))


def transfer_amplitude_series(
    decomp: EigenDecomposition, n: int, times: np.ndarray
) -> dict[tuple[int, ...], np.ndarray]:
    """f_S^S(t) for every nonempty subset S over a whole time grid.

    Vectorised equivalent of transfer_amplitudes applied per time: the
    principal minors of the sender -> receiver block B(t).
    """
    return subset_minor_series(transfer_block_series(decomp, n, times))
