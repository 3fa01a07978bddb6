"""Exact reference engines: block evolution in excitation sectors and Haar sampling.

Evolution is done by dense diagonalisation inside each excitation-number
sector of the full chain, which is exact for any nearest-neighbour XX chain
with on-site fields and zz-anisotropy.  The zz term enters as an
adjacent-pair interaction delta * n_i * n_{i+1} (after discarding the
constant and single-site pieces absorbed in the energy zero), so the
one-excitation sector never feels it and the sector Hamiltonian reduces to
the hopping matrix used by the determinant engine at delta = 0.

A sector state is its row of basis.sector_positions(N, k), the ascending
0-indexed excited sites in lexicographic order; basis.sector_rank finds a
state's row arithmetically.  The Hamiltonian, the reflection and the
receiver tables rank whole arrays of states at once, with no per-state loop.

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

from .basis import sector_positions, sector_rank
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


@lru_cache(maxsize=128)
def _sector(spec: ChainSpec, k: int):
    """Basis sector_positions(N, k) and Hamiltonian eigendecomposition of the k-excitation sector.

    h is gathered by index into an even block (fixed states, pairs (|lo> + |hi>)/sqrt2)
    and an odd one (pairs (|lo> - |hi>)/sqrt2), whose eigenvectors are scattered
    into one dense real v over the full basis, even columns first; w is not sorted.
    """
    dim = math.comb(spec.N, k)
    if dim > MAX_SECTOR_DIM:
        raise DimensionCapError(
            f"sector dimension C({spec.N},{k}) = {dim} exceeds the cap {MAX_SECTOR_DIM}"
        )
    sites = sector_positions(spec.N, k)
    gaps = np.diff(sites, axis=1, append=spec.N)  # to the next excited site, or past the last site
    h = np.zeros((dim, dim))
    adjacent_pairs = np.count_nonzero(gaps[:, :-1] == 1, axis=1)
    np.fill_diagonal(h, np.asarray(spec.fields)[sites].sum(axis=1) + spec.delta * adjacent_pairs)
    rows, i = np.nonzero(gaps > 1)  # excitation i of state rows can hop one site right
    moved = sites[rows]
    moved[np.arange(len(rows)), i] += 1
    cols = sector_rank(moved, spec.N)
    h[rows, cols] = h[cols, rows] = np.asarray(spec.couplings)[sites[rows, i]] / 2.0
    # Fixed states and pairs lo < hi = R lo of the reflection R: s -> N + 1 - s (identity if asymmetric).
    a = np.arange(dim)
    r = sector_rank(spec.N - 1 - sites[:, ::-1], spec.N) if spec.is_mirror_symmetric() else a
    fixed, lo, hi = a[a == r], a[a < r], r[a < r]
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
    return sites, w, v


def _real_matmul(v: np.ndarray, z: np.ndarray) -> np.ndarray:
    """v @ z for a real matrix v and a complex vector z, without a complex copy of v."""
    return v @ z.real + 1j * (v @ z.imag)


def evolve_block(spec: ChainSpec, state: PureState, t: float, *, excitations: int) -> PureState:
    """Exact evolution of a state living in one excitation sector of the chain."""
    if not math.isfinite(t):
        raise ValueError(f"evolution time must be finite, got {t}")
    sites, w, v = _sector(spec, excitations)
    if state.dimension != len(sites):
        raise ValueError(
            f"state dimension {state.dimension} does not match sector size {len(sites)}"
        )
    phases = np.exp(-1j * w * t)
    out = _real_matmul(v, phases * _real_matmul(v.T, state.amplitudes))
    return PureState(dimension=state.dimension, amplitudes=out)


# ---------------------------------------------------------------------------
# Receiver reduction
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _reduction(spec: ChainSpec, n: int):
    """Per sector k <= n: rows of the launched sender states, environment ids and receiver labels.

    The launched states are the k-subsets of the sender sites, the first n.
    The environment is the first m = N - n sites, numbered by excitation
    number, then lexicographically; receiver site N - n + s is label site s,
    in the order of subsets_by_excitation(n).  Sector k is the union over the
    receiver charge j of (k - j)-subsets of the environment times j-subsets
    of the receiver, and each such product is ranked and scattered at once.
    """
    m = spec.N - n
    env_start = np.cumsum([0] + [math.comb(m, c) for c in range(n + 1)])
    lab_start = np.cumsum([0] + [math.comb(n, j) for j in range(n + 1)])
    tables = []
    for k in range(n + 1):
        env_col, lab_col = np.empty((2, math.comb(spec.N, k)), dtype=int)
        for j in range(max(0, k - m), k + 1):
            env, rec = sector_positions(m, k - j), sector_positions(n, j)
            e, x = np.divmod(np.arange(len(env) * len(rec)), len(rec))
            rows = sector_rank(np.concatenate([env[e], rec[x] + m], axis=1), spec.N)
            env_col[rows] = env_start[k - j] + e
            lab_col[rows] = lab_start[j] + x
        tables.append((sector_rank(sector_positions(n, k), spec.N), env_col, lab_col))
    return tables, int(env_start[-1])


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
    p = 0
    for (_, w, v), (launched, env_col, lab_col) in zip(sectors, tables):
        for row in launched:
            # The launched basis state's eigen-coefficients are one row of v.
            out[p][env_col, lab_col] = _real_matmul(v, np.exp(-1j * w * t) * v[row])
            p += 1
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
