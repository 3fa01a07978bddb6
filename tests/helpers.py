"""Independent reference implementations used as test oracles.

Nothing here may call the package's production code paths it is used to
check: determinants come from cofactor expansion, single-particle propagators
from a matrix exponential, full-chain evolution from an explicit
Kronecker-product Hamiltonian on the 2^N space.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg

from spintransfer.chain import ChainSpec


def cofactor_det(a: np.ndarray) -> complex:
    """Determinant by recursive cofactor expansion along the first row."""
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    if n == 1:
        return complex(a[0, 0])
    total = 0.0 + 0.0j
    for j in range(n):
        sub = np.delete(np.delete(a, 0, axis=0), j, axis=1)
        total += (-1) ** j * a[0, j] * cofactor_det(sub)
    return complex(total)


def random_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def single_particle_propagator(spec: ChainSpec, t: float) -> np.ndarray:
    """F(t) = exp(-i t H1) by matrix exponential of the one-excitation hopping matrix H1."""
    h1 = np.diag(np.asarray(spec.fields, dtype=float))
    h1 += np.diag(np.asarray(spec.couplings, dtype=float) / 2.0, 1)
    h1 += np.diag(np.asarray(spec.couplings, dtype=float) / 2.0, -1)
    return scipy.linalg.expm(-1j * t * h1)


def full_space_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense 2^N Hamiltonian built from single-site operators, site 1 leftmost."""
    N = spec.N
    dim = 2**N
    occ = np.array([0.0, 1.0])
    h = np.zeros((dim, dim), dtype=complex)

    def site_ops(ops: dict[int, np.ndarray]) -> np.ndarray:
        """Kronecker product with ops[s] on each listed site s and the identity elsewhere."""
        out = np.ones((1, 1), dtype=complex)
        for s in range(1, N + 1):
            out = np.kron(out, ops.get(s, np.eye(2)))
        return out

    lower = np.array([[0.0, 1.0], [0.0, 0.0]])  # |0><1|
    raise_ = lower.T
    number = np.diag(occ)
    for i in range(1, N):
        hop = site_ops({i: raise_, i + 1: lower})
        h += spec.couplings[i - 1] / 2.0 * (hop + hop.conj().T)
        h += spec.delta * site_ops({i: number, i + 1: number})
    for i in range(1, N + 1):
        h += spec.fields[i - 1] * site_ops({i: number})
    return h


def full_space_index(sites: tuple[int, ...], N: int) -> int:
    """Computational-basis index of the state with the given sites excited."""
    idx = 0
    for s in sites:
        idx |= 1 << (N - s)
    return idx


def full_space_evolve(spec: ChainSpec, psi0: np.ndarray, t: float) -> np.ndarray:
    """exp(-iHt) psi0, where psi0 is one state or a matrix whose columns are states."""
    h = full_space_hamiltonian(spec)
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0).T).T


def haar_moments_by_pairings(a: np.ndarray) -> tuple[float, float]:
    """E[F] and E[F^2] over Haar-random pure inputs of a stored map tensor A[i, j, n, m].

    F(psi) = sum A[i,j,n,m] psi_i conj(psi_j) conj(psi_n) psi_m has kets (i, m)
    and bras (j, n).  The Haar average of k kets times k bras sums, over every
    permutation sigma in S_k, the contraction joining ket r to bra sigma(r),
    divided by d(d+1)...(d+k-1).  E[F^2] takes k = 4 over two copies of A.
    """
    d = a.shape[0]
    kets = "abcd"

    def moment(k: int) -> float:
        total = 0.0
        for sigma in itertools.permutations(range(k)):
            bras = [""] * k
            for r in range(k):
                bras[sigma[r]] = kets[r]
            copies = [kets[2 * c] + bras[2 * c] + bras[2 * c + 1] + kets[2 * c + 1] for c in range(k // 2)]
            total += np.einsum(",".join(copies) + "->", *[a] * (k // 2))
        return float(np.real(total)) / math.prod(d + r for r in range(k))

    return moment(2), moment(4)
