"""Independent reference implementations used as test oracles.

Nothing here may call the package's production code paths it is used to
check: determinants come from cofactor expansion, single-particle propagators
from a matrix exponential, full-chain evolution from an explicit
Kronecker-product Hamiltonian on the 2^N space (its excitation-sector blocks
from the same bit rules), a map's action from its stored elements, and a
receiver's fidelity from the sector engine's amplitude tensor.
`free_fermion_chains` is the random-chain strategy the property tests share.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import scipy.linalg
from hypothesis import strategies as st

from spintransfer.chain import ChainSpec
from spintransfer.oracle import receiver_amplitude_tensor


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


@st.composite
def free_fermion_chains(draw, sizes, block_sizes):
    """Random zero-anisotropy chains: couplings in [0.05, 2], fields in [-1, 1], the
    two block-wire bonds sharing one coupling J0."""
    N = draw(sizes)
    n = draw(block_sizes(N))
    unit = st.floats(0.05, 2.0, allow_nan=False)
    couplings = draw(st.lists(unit, min_size=N - 1, max_size=N - 1))
    couplings[N - n - 1] = couplings[n - 1]
    fields = draw(st.lists(st.floats(-1.0, 1.0, allow_nan=False), min_size=N, max_size=N))
    spec = ChainSpec(
        N=N,
        couplings=couplings,
        fields=fields,
        sender_sites=tuple(range(1, n + 1)),
        receiver_sites=tuple(range(N - n + 1, N + 1)),
        J0=couplings[n - 1],
    )
    return spec, n


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


def sector_hamiltonian(spec: ChainSpec, k: int) -> np.ndarray:
    """The k-excitation block of full_space_hamiltonian, built from its bit rules alone.

    Rows follow the lexicographic k-subsets of sites.  A bond (i, i + 1) adds
    delta where both sites are excited and hops one excitation across it,
    with amplitude J_i / 2, where exactly one is; each excited site adds its field.
    """
    N = spec.N
    masks = [full_space_index(sites, N) for sites in itertools.combinations(range(1, N + 1), k)]
    row = {mask: a for a, mask in enumerate(masks)}
    h = np.zeros((len(masks), len(masks)))
    for a, mask in enumerate(masks):
        bit = [(mask >> (N - s)) & 1 for s in range(1, N + 1)]  # bit[s - 1]: site s excited
        h[a, a] = sum(f for f, b in zip(spec.fields, bit) if b)
        for i in range(1, N):
            if bit[i - 1] and bit[i]:
                h[a, a] += spec.delta
            elif bit[i - 1] != bit[i]:
                h[a, row[mask ^ (0b11 << (N - i - 1))]] = spec.couplings[i - 1] / 2.0
    return h


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


def map_by_environment_loop(tensor: np.ndarray) -> np.ndarray:
    """Stored map A[(i,j)][(n,m)] = sum_e conj T[n,e,i] T[m,e,j] of a [p, env, label] tensor.

    One environment configuration at a time: each adds the outer product of
    its conjugated and plain (sender, label) amplitude blocks.
    """
    d = tensor.shape[0]
    a = np.zeros((d, d, d, d), dtype=complex)
    for e in range(tensor.shape[1]):
        block = tensor[:, e, :]  # [sender p, receiver label]
        a += np.multiply.outer(block.conj().T, block.T).transpose(0, 2, 1, 3)
    return a.reshape(d * d, d * d)


def apply_map(m, rho: np.ndarray) -> np.ndarray:
    """Receiver density matrix of a sender density matrix, from the map's stored elements.

    The stored convention acts on transpose-flattened density matrices.
    """
    d = m.d
    return (m.elements @ np.asarray(rho, dtype=complex).T.reshape(d * d)).reshape(d, d).T


def element_fidelities(m, states: np.ndarray) -> np.ndarray:
    """<psi| L[|psi><psi|] |psi> of each state row, as the quadratic form of the stored elements."""
    states = np.atleast_2d(states)
    u = (states.conj()[:, :, None] * states[:, None, :]).reshape(len(states), -1)
    return np.sum((u.conj() @ m.elements) * u, axis=1).real


def receiver_fidelity(spec: ChainSpec, psi: np.ndarray, t: float) -> float:
    """Overlap with psi of the receiver state after launching psi on the sender block.

    Contracted from the sector engine's amplitude tensor [sender, env, label]:
    the receiver state is sum_e |r_e><r_e| with r_e = sum_p psi_p T[p, e, :].
    """
    n = len(spec.sender_sites)
    r = np.tensordot(psi, receiver_amplitude_tensor(spec, n, t), axes=([0], [0]))  # (env, label)
    return float(np.sum(np.abs(r.conj() @ psi) ** 2))
