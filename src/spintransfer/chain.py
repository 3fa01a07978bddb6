"""Chain descriptions and single-particle spectral analysis.

A chain is N spin-1/2 sites with nearest-neighbour XX couplings J_i, on-site
fields h_i, and equal-sized sender/receiver blocks at the two edges.  Sites
and bonds are 1-indexed throughout: bond i joins sites (i, i+1).  Couplings
are quoted in units of the wire coupling J = 1, times in units of 1/J.

In the weak-coupling layout the bonds attaching the blocks to the wire carry
a small coupling J0; the transfer time is then set by the second-order
splitting of quasi-degenerate levels localised on the blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache

import numpy as np

from .errors import ResonanceError
from .linalg import EigenDecomposition, TridiagonalSymmetric, eig_tridiag

# Eigenstates carrying at least this much weight on sender+receiver sites are
# counted as part of the quasi-degenerate transfer cluster.
CLUSTER_WEIGHT_THRESHOLD = 0.1

# Consecutive cluster levels further apart than this are treated as belonging
# to different perturbative groups (intra-group splittings are O(J0) or less;
# group separations are set by the block spectrum, O(0.3) and larger).
_GROUP_GAP = 0.1


class Regime(str, Enum):
    RESONANT = "resonant"
    NON_RESONANT = "non_resonant"
    ENGINEERED = "engineered"


@dataclass(frozen=True)
class ChainSpec:
    """Geometry, couplings, fields and block layout of one chain."""

    N: int
    couplings: tuple[float, ...]
    fields: tuple[float, ...]
    sender_sites: tuple[int, ...]
    receiver_sites: tuple[int, ...]
    J0: float
    delta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "couplings", tuple(float(j) for j in self.couplings))
        object.__setattr__(self, "fields", tuple(float(h) for h in self.fields))
        object.__setattr__(self, "sender_sites", tuple(int(s) for s in self.sender_sites))
        object.__setattr__(self, "receiver_sites", tuple(int(s) for s in self.receiver_sites))
        N, n = self.N, self.block_size
        if N < 1:
            raise ValueError(f"N must be positive, got {N}")
        if len(self.couplings) != N - 1:
            raise ValueError(f"expected {N - 1} couplings, got {len(self.couplings)}")
        if len(self.fields) != N:
            raise ValueError(f"expected {N} fields, got {len(self.fields)}")
        if not all(map(math.isfinite, self.couplings + self.fields + (self.delta,))):
            raise ValueError("couplings, fields and delta must be finite")
        if n < 1 or len(self.receiver_sites) != n:
            raise ValueError("sender and receiver blocks must be nonempty and equal-sized")
        if self.sender_sites != tuple(range(1, n + 1)):
            raise ValueError(f"sender block must be sites 1..{n}, got {self.sender_sites}")
        if self.receiver_sites != tuple(range(N - n + 1, N + 1)):
            raise ValueError(
                f"receiver block must be sites {N - n + 1}..{N}, got {self.receiver_sites}"
            )
        if N < 2 * n and N > 1:  # a single site may serve as both blocks
            raise ValueError("sender and receiver blocks overlap")
        if not self.J0 > 0:
            raise ValueError(f"J0 must be positive, got {self.J0}")
        for bond in self.weak_bonds():
            if self.couplings[bond - 1] != self.J0:
                raise ValueError(
                    f"coupling at bond {bond} is {self.couplings[bond - 1]}, expected J0={self.J0}"
                )

    # -- derived geometry ---------------------------------------------------

    @property
    def block_size(self) -> int:
        return len(self.sender_sites)

    @property
    def wire_length(self) -> int:
        return self.N - 2 * self.block_size

    def weak_bonds(self) -> tuple[int, ...]:
        """1-indexed bonds joining the blocks to the wire (a single bond if the wire is empty)."""
        n = self.block_size
        if self.N <= 1:
            return ()
        if self.N == 2 * n:
            return (n,)
        return (n, self.N - n)

    def is_mirror_symmetric(self, tol: float = 0.0) -> bool:
        j = np.asarray(self.couplings)
        h = np.asarray(self.fields)
        return bool(
            np.allclose(j, j[::-1], atol=tol, rtol=0.0)
            and np.allclose(h, h[::-1], atol=tol, rtol=0.0)
        )

    # -- construction helpers -----------------------------------------------

    @classmethod
    def uniform(cls, N: int, n: int = 1, coupling: float = 1.0, field: float = 0.0) -> "ChainSpec":
        """Uniformly coupled chain; the block-wire bonds carry the same coupling."""
        return cls(
            N=N,
            couplings=(coupling,) * (N - 1),
            fields=(field,) * N,
            sender_sites=tuple(range(1, n + 1)),
            receiver_sites=tuple(range(N - n + 1, N + 1)),
            J0=coupling,
        )

    @classmethod
    def weak_coupling(
        cls,
        wire_length: int,
        n: int,
        J0: float,
        sender_coupling: float = 1.0,
        field: float = 0.0,
    ) -> "ChainSpec":
        """Sender/receiver blocks of n sites attached to a uniform wire by weak bonds.

        `sender_coupling` sets the bonds inside both blocks (1.0 unless the
        block spectrum is being tuned onto wire levels).
        """
        if wire_length < 0:
            raise ValueError("wire length must be nonnegative")
        N = wire_length + 2 * n
        couplings = [1.0] * (N - 1)
        for b in range(1, n):  # bonds inside the sender block
            couplings[b - 1] = sender_coupling
        for b in range(N - n + 1, N):  # bonds inside the receiver block
            couplings[b - 1] = sender_coupling
        couplings[n - 1] = J0
        couplings[N - n - 1] = J0
        return cls(
            N=N,
            couplings=tuple(couplings),
            fields=(field,) * N,
            sender_sites=tuple(range(1, n + 1)),
            receiver_sites=tuple(range(N - n + 1, N + 1)),
            J0=J0,
        )

    def with_sender_coupling(self, sender_coupling: float) -> "ChainSpec":
        """Copy of this spec with the intra-block bonds replaced on both blocks."""
        n = self.block_size
        couplings = list(self.couplings)
        for b in range(1, n):
            couplings[b - 1] = sender_coupling
        for b in range(self.N - n + 1, self.N):
            couplings[b - 1] = sender_coupling
        return replace(self, couplings=tuple(couplings))

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "N": self.N,
            "couplings": list(self.couplings),
            "fields": list(self.fields),
            "sender_sites": list(self.sender_sites),
            "receiver_sites": list(self.receiver_sites),
            "J0": self.J0,
            "delta": self.delta,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ChainSpec":
        expected = {"N", "couplings", "fields", "sender_sites", "receiver_sites", "J0", "delta"}
        unknown = set(data) - expected
        if unknown:
            raise ValueError(f"unknown chain spec keys: {sorted(unknown)}")
        missing = expected - set(data)
        if missing:
            raise ValueError(f"missing chain spec keys: {sorted(missing)}")
        return cls(
            N=int(data["N"]),
            couplings=tuple(data["couplings"]),
            fields=tuple(data["fields"]),
            sender_sites=tuple(data["sender_sites"]),
            receiver_sites=tuple(data["receiver_sites"]),
            J0=float(data["J0"]),
            delta=float(data["delta"]),
        )

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ChainSpec":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ResonanceReport:
    """Positions of the perturbatively split levels driving a weak-coupling transfer."""

    first_order_indices: tuple[int, ...]
    second_order_indices: tuple[int, ...]
    delta_omega: float
    cluster_indices: tuple[int, ...]
    regime: Regime
    note: str = ""

    @property
    def transfer_time(self) -> float:
        """Envelope period of the slow transfer oscillation."""
        return math.pi / self.delta_omega


def build_single_particle_hamiltonian(spec: ChainSpec) -> TridiagonalSymmetric:
    """Hopping matrix of the one-excitation sector: fields on the diagonal, J_i/2 off it.

    The zz-anisotropy never enters here; with the constant energy shift dropped
    it only acts on states with at least two adjacent excitations.
    """
    return TridiagonalSymmetric(
        diag=np.asarray(spec.fields, dtype=float),
        offdiag=np.asarray(spec.couplings, dtype=float) / 2.0,
    )


@lru_cache(maxsize=256)
def spectral(spec: ChainSpec) -> EigenDecomposition:
    """Eigenvalues and eigenvectors of the single-particle hopping matrix (read-only, cached)."""
    decomp = eig_tridiag(build_single_particle_hamiltonian(spec))
    decomp.eigenvalues.flags.writeable = False
    decomp.eigenvectors.flags.writeable = False
    return decomp


def engineered_sender_coupling(wire_length: int, k: int, s: int) -> float:
    """Intra-block coupling that parks block level s on wire level k.

    For a uniform n-site block the levels sit at J_s cos(s pi / (n+1)); with
    n = 4 blocks, choosing J_s = cos(k pi / (n_w+1)) / cos(s pi / 5) aligns
    block level s (and its mirror partner) with the k-th wire level while the
    remaining pair stays off-resonant.
    """
    if s not in (1, 2):
        raise ValueError(f"s must be 1 or 2, got {s}")
    if not 1 <= k <= wire_length:
        raise ValueError(f"wire level index {k} out of range 1..{wire_length}")
    return math.cos(k * math.pi / (wire_length + 1)) / math.cos(s * math.pi / 5)


def _block_weights(spec: ChainSpec, decomp: EigenDecomposition) -> np.ndarray:
    sites = np.array(spec.sender_sites + spec.receiver_sites) - 1
    return np.sum(decomp.eigenvectors[sites, :] ** 2, axis=0)


def _grouped(levels: list[int], omega: np.ndarray) -> list[list[int]]:
    """Split ascending level positions into quasi-degenerate groups."""
    groups: list[list[int]] = [[levels[0]]]
    for k in levels[1:]:
        if omega[k - 1] - omega[groups[-1][-1] - 1] <= _GROUP_GAP:
            groups[-1].append(k)
        else:
            groups.append([k])
    return groups


def _numerical_cluster(spec: ChainSpec, decomp: EigenDecomposition):
    """Identify the transfer cluster from eigenvector weight, then classify groups.

    Groups of two are second-order split block pairs; larger groups contain a
    resonant wire level and split at first order in J0.
    """
    weights = _block_weights(spec, decomp)
    cluster = [int(k) + 1 for k in np.flatnonzero(weights > CLUSTER_WEIGHT_THRESHOLD)]
    if not cluster:
        raise ResonanceError(
            "no levels exceed the block-weight threshold; is the coupling layout weak?"
        )
    omega = decomp.eigenvalues
    first: list[int] = []
    second: list[int] = []
    pair_gaps: list[tuple[float, float]] = []  # (|mean energy|, gap) per second-order pair
    for group in _grouped(cluster, omega):
        if len(group) == 2:
            second.extend(group)
            lo, hi = omega[group[0] - 1], omega[group[1] - 1]
            pair_gaps.append((abs((lo + hi) / 2), hi - lo))
        else:
            first.extend(group)
    if pair_gaps:
        # Innermost pair: the second-order doublet closest to the band centre.
        delta_omega = min(pair_gaps, key=lambda t: t[0])[1]
    elif len(cluster) > 1:
        # All levels resonant; fall back to the smallest intra-cluster gap.
        delta_omega = float(np.min(np.diff(omega[np.array(cluster) - 1])))
    else:
        raise ResonanceError("cluster has a single level; no splitting to report")
    return tuple(first), tuple(second), tuple(cluster), float(delta_omega)


def resonance_report(spec: ChainSpec, n: int | None = None) -> ResonanceReport:
    """Locate the quasi-degenerate levels of the weak-coupling transfer.

    For three-site blocks on an off-resonant wire the positions follow closed
    formulas; everything else is classified numerically from eigenvector
    weights on the blocks.
    """
    n = spec.block_size if n is None else n
    if n != spec.block_size:
        raise ValueError(f"block size mismatch: spec has {spec.block_size}, requested {n}")
    if n not in (3, 4):
        raise ValueError(f"resonance analysis supports blocks of 3 or 4 sites, got {n}")
    if spec.wire_length < 1:
        raise ValueError("resonance analysis needs a nonempty wire")
    decomp = spectral(spec)
    omega = decomp.eigenvalues
    n_w = spec.wire_length

    intra = [spec.couplings[b - 1] for b in range(1, n)]
    wire_bonds = range(n + 1, spec.N - n)  # bonds strictly inside the wire
    reference = spec.couplings[n] if len(wire_bonds) else 1.0
    engineered = not all(math.isclose(j, reference, rel_tol=1e-12) for j in intra)

    if n == 3 and not engineered and n_w % 2 == 1:
        # Odd wires hold a zero-energy level resonant with the block centre
        # level; wires of length 4l+3 additionally resonate with the outer
        # block levels.
        regime = Regime.NON_RESONANT if n_w % 4 == 1 else Regime.RESONANT
        if regime is Regime.NON_RESONANT:
            N = spec.N
            a = math.ceil((N - 5) / 4)
            first = (N // 2, N // 2 + 1, N // 2 + 2)
            second = (a, a + 1, N - a, N - a + 1)
            cluster = tuple(sorted(first + second))
            delta_omega = float(omega[a] - omega[a - 1])
            return ResonanceReport(first, second, delta_omega, cluster, regime)
        first, second, cluster, delta_omega = _numerical_cluster(spec, decomp)
        return ResonanceReport(first, second, delta_omega, cluster, regime)
    if n == 3 and not engineered:
        # Even wires have no level in resonance with the block spectrum.
        first, second, cluster, delta_omega = _numerical_cluster(spec, decomp)
        return ResonanceReport(first, second, delta_omega, cluster, Regime.NON_RESONANT)

    first, second, cluster, delta_omega = _numerical_cluster(spec, decomp)
    if engineered:
        regime = Regime.ENGINEERED
        note = ""
    else:
        all_resonant = (n_w + 1) % 5 == 0
        regime = Regime.RESONANT if all_resonant else Regime.NON_RESONANT
        note = (
            "uniform 4-site blocks: all four block levels resonate with wire levels"
            if all_resonant
            else "uniform 4-site blocks: no block level resonates with a wire level"
        )
    return ResonanceReport(first, second, delta_omega, cluster, regime, note)
