"""Exact reference engines: block evolution in excitation sectors and Haar sampling.

Evolution is done by dense diagonalisation inside each excitation-number
sector of the full chain, which is exact for any nearest-neighbour XX chain
with on-site fields and zz-anisotropy.  The zz term enters as an
adjacent-pair interaction delta * n_i * n_{i+1} (after discarding the
constant and single-site pieces absorbed in the energy zero), so the
one-excitation sector never feels it and the sector Hamiltonian reduces to
the hopping matrix used by the determinant engine at delta = 0.

On a mirror-symmetric chain the reflection s -> N + 1 - s commutes with each
sector Hamiltonian, which is then diagonalised as two parity blocks of about
half its size.  Any other chain takes the same path with the identity as its
reflection: one block and an empty odd one.  MAX_SECTOR_DIM caps the full
sector dimension C(N, k) either way.

This module is deliberately independent of the determinant machinery: the two
give the same amplitudes only because the physics says so, and the tests lean
on that.  dynmap.map_from_evolution uses it only for chains with delta != 0;
zero-anisotropy maps are built from the n x n sender -> receiver block B(t)
and checked against the receiver_amplitude_tensor computed here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .basis import block_index, excitation_sector, partner_labels, subsets_by_excitation
from .chain import ChainSpec
from .errors import DimensionCapError

MAX_SECTOR_DIM = 1 << 14


@dataclass(frozen=True, eq=False)
class PureState:
    """Normalised state vector over some fixed basis ordering."""

    dimension: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        object.__setattr__(self, "amplitudes", amps)
        if amps.shape != (self.dimension,):
            raise ValueError(f"expected {self.dimension} amplitudes, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("state amplitudes must be finite")
        norm = float(np.sum(np.abs(amps) ** 2))
        if abs(norm - 1.0) > 1e-10:
            raise ValueError(f"state norm deviates from 1 by {abs(norm - 1.0):.3e}")


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimate of the first two moments of a fidelity distribution."""

    samples: int
    mean: float
    second_moment: float
    std_error_mean: float
    std_error_second_moment: float
    seed: int

    @classmethod
    def from_values(cls, values: np.ndarray, seed: int) -> "McResult":
        """Sample means of F and F^2 with their standard errors."""
        squares = values**2
        root_n = np.sqrt(values.size)
        return cls(
            samples=int(values.size),
            mean=float(values.mean()),
            second_moment=float(squares.mean()),
            std_error_mean=float(values.std() / root_n),
            std_error_second_moment=float(squares.std() / root_n),
            seed=seed,
        )


# ---------------------------------------------------------------------------
# Excitation-sector evolution
# ---------------------------------------------------------------------------


def _mirror_pairs(spec: ChainSpec, basis: list, index: dict):
    """Fixed states and pairs lo < hi = R lo of the reflection R: s -> N + 1 - s (identity if asymmetric)."""
    a = np.arange(len(basis))
    r = a
    if spec.is_mirror_symmetric():
        r = np.array([index[tuple(spec.N + 1 - s for s in reversed(sites))] for sites in basis])
    return a[a == r], a[a < r], r[a < r]


@lru_cache(maxsize=128)
def _sector(spec: ChainSpec, k: int):
    """Basis, basis index and Hamiltonian eigendecomposition of the k-excitation sector.

    h is gathered by index into an even block (fixed states, pairs (|lo> + |hi>)/sqrt2)
    and an odd one (pairs (|lo> - |hi>)/sqrt2), whose eigenvectors are scattered
    into one dense real v over the full basis, even columns first; w is not sorted.
    """
    dim = math.comb(spec.N, k)
    if dim > MAX_SECTOR_DIM:
        raise DimensionCapError(
            f"sector dimension C({spec.N},{k}) = {dim} exceeds the cap {MAX_SECTOR_DIM}"
        )
    basis = excitation_sector(spec.N, k)
    index = {s: i for i, s in enumerate(basis)}
    h = np.zeros((dim, dim))
    fields = np.asarray(spec.fields)
    couplings = np.asarray(spec.couplings)
    for a, sites in enumerate(basis):
        occupied = set(sites)
        diag = float(np.sum(fields[[s - 1 for s in sites]])) if sites else 0.0
        diag += spec.delta * sum(1 for s in sites if s + 1 in occupied)
        h[a, a] = diag
        for s in sites:
            if s + 1 <= spec.N and s + 1 not in occupied:
                moved = tuple(sorted(occupied - {s} | {s + 1}))
                b = index[moved]
                h[a, b] = h[b, a] = couplings[s - 1] / 2.0
    fixed, lo, hi = _mirror_pairs(spec, basis, index)
    keep = np.concatenate([fixed, lo])
    nf, m = len(fixed), len(keep)
    # Each intermediate is dropped once used: a mirror-symmetric sector peaks at 1.5 copies of h.
    even, cross = h[np.ix_(keep, keep)], h[np.ix_(lo, hi)]  # h[hi, hi'] = h[lo, lo']
    del h
    odd = even[nf:, nf:] - cross
    even[nf:, nf:] += cross
    even[:nf, nf:] *= math.sqrt(2.0)  # <f|h|(lo + hi)/sqrt2> = sqrt2 h[f, lo]; <f|h|odd> = 0
    even[nf:, :nf] *= math.sqrt(2.0)
    del cross
    w_even, x = np.linalg.eigh(even)
    del even
    w_odd, y = np.linalg.eigh(odd)
    del odd
    v = np.empty((dim, dim))
    v[fixed, :m], v[fixed, m:] = x[:nf], 0.0
    x[nf:] *= math.sqrt(0.5)
    y *= math.sqrt(0.5)
    v[lo, :m] = v[hi, :m] = x[nf:]
    v[lo, m:] = y
    v[hi, m:] = np.negative(y, out=y)
    w = np.concatenate([w_even, w_odd])
    for array in (w, v):
        array.flags.writeable = False
    return basis, index, w, v


def _real_matmul(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z for a real matrix v and a complex vector z, without a complex copy of v."""
    return v @ z.real + 1j * (v @ z.imag)


def evolve_block(spec: ChainSpec, state: PureState, t: float, *, excitations: int) -> PureState:
    """Exact evolution of a state living in one excitation sector of the chain."""
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    basis, _, w, v = _sector(spec, excitations)
    if state.dimension != len(basis):
        raise ValueError(
            f"state dimension {state.dimension} does not match sector size {len(basis)}"
        )
    phases = np.exp(-1j * w * t)
    out = _real_matmul(v, phases * _real_matmul(v.T, state.amplitudes))
    return PureState(dimension=state.dimension, amplitudes=out)


# ---------------------------------------------------------------------------
# Receiver reduction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _reduction(spec: ChainSpec, n: int):
    """Scatter tables mapping sector basis states to (environment id, receiver label).

    The environment is everything outside the receiver block.  Receiver
    occupation patterns are converted to positional labels: receiver site
    N - n + s counts as label site s, and the label subset is looked up in
    the canonical block ordering.
    """
    receiver = set(spec.receiver_sites)
    label_index = block_index(n)
    env_ids: dict[tuple[int, ...], int] = {}
    tables = {}
    for k in range(n + 1):
        basis = excitation_sector(spec.N, k)
        env_col = np.empty(len(basis), dtype=int)
        lab_col = np.empty(len(basis), dtype=int)
        for a, sites in enumerate(basis):
            r = tuple(s for s in sites if s in receiver)
            e = tuple(s for s in sites if s not in receiver)
            env_col[a] = env_ids.setdefault(e, len(env_ids))
            lab_col[a] = label_index[partner_labels(r, spec.N, n)]
        tables[k] = (env_col, lab_col)
    return tables, len(env_ids)


def receiver_amplitude_tensor(spec: ChainSpec, n: int, t: float) -> np.ndarray:
    """Evolved sender basis states resolved into (environment, receiver label) amplitudes.

    Entry [p, e, i]: amplitude that sender basis state p, launched on an
    otherwise polarised chain and evolved for time t, is found with the
    environment in configuration e and the receiver block in label state i.
    Every reduced receiver object derives from this tensor.
    """
    if n != len(spec.sender_sites):
        raise ValueError(f"block size mismatch: spec has {len(spec.sender_sites)}, got {n}")
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    sectors = [_sector(spec, k) for k in range(n + 1)]  # the cap fires before _reduction enumerates
    tables, n_env = _reduction(spec, n)
    d = 2**n
    out = np.zeros((d, n_env, d), dtype=complex)
    sender_subsets = subsets_by_excitation(n)
    for p, subset in enumerate(sender_subsets):
        k = len(subset)
        _, index, w, v = sectors[k]
        # The launched basis state's eigen-coefficients are one row of v.
        psi = _real_matmul(v, np.exp(-1j * w * t) * v[index[subset]])
        env_col, lab_col = tables[k]
        out[p][env_col, lab_col] = psi  # (env, label) splits are unique per basis state
    return out


# ---------------------------------------------------------------------------
# Haar-measure Monte Carlo
# ---------------------------------------------------------------------------


def haar_states(d: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed pure states as rows: normalised complex Gaussian vectors."""
    g = rng.standard_normal((samples, d)) + 1j * rng.standard_normal((samples, d))
    return g / np.linalg.norm(g, axis=1, keepdims=True)


def product_states(n: int, samples: int, rng: np.random.Generator) -> np.ndarray:
    """Rows are n-fold tensor products of independently Haar-sampled qubit states.

    Component ordering is left-major (first qubit is the most significant
    index), matching the ordering used by tensor products of maps.
    """
    out = np.ones((samples, 1), dtype=complex)
    for _ in range(n):
        q = haar_states(2, samples, rng)
        out = np.einsum("si,sj->sij", out, q).reshape(samples, -1)
    return out


def _chunk_size(d: int) -> int:
    return max(1024, 2_000_000 // (d * d))


def sample_fidelity_values(
    evaluator, d: int, samples: int, seed: int, *, product_of: int | None = None
) -> np.ndarray:
    """Raw fidelity samples; `product_of` restricts the input ensemble to product states."""
    if samples < 1:
        raise ValueError("need at least one sample")
    rng = np.random.default_rng(seed)
    chunks = []
    left = samples
    while left > 0:
        batch = min(left, _chunk_size(d))
        if product_of is None:
            states = haar_states(d, batch, rng)
        else:
            states = product_states(product_of, batch, rng)
        chunks.append(np.asarray(evaluator(states), dtype=float))
        left -= batch
    return np.concatenate(chunks)


def haar_sample_fidelity(evaluator, d: int, samples: int, seed: int) -> McResult:
    """Estimate mean and second moment of a fidelity over Haar-random pure inputs.

    `evaluator` receives a (batch, d) array of state rows and returns the
    fidelity of each; the generator state is PCG64 seeded as given, so results
    are reproducible bit for bit.
    """
    return McResult.from_values(sample_fidelity_values(evaluator, d, samples, seed), seed)
