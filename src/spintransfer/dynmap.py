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

Sender-block bases are ordered by excitation number then lexicographically
(see basis.subsets_by_excitation); receiver patterns are relabelled by their
positional partner sites, so a clean block transfer produces the identity map.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .amplitudes import AmplitudeMatrix, multi_amplitude, transfer_block_series
from .basis import block_index, subsets_by_excitation
from .chain import ChainSpec, spectral
from .errors import MapConstructionError, MapValidationError
from .linalg import compound_matrix
from .oracle import receiver_amplitude_tensor

VALIDATION_TOL = 1e-8

# Choi diagonalisation cost grows as d^6; above this the constructors rely on
# the cheap algebraic checks only (validate_cptp still offers the full check).
_CHOI_AUTOCHECK_MAX_D = 16


@dataclass(frozen=True)
class DynamicalMap:
    """Dense dynamical map of a d-dimensional block."""

    d: int
    elements: np.ndarray
    basis_order: str = "excitation-lex"

    def __post_init__(self):
        el = np.ascontiguousarray(np.asarray(self.elements, dtype=complex))
        object.__setattr__(self, "elements", el)
        if self.d < 1 or el.shape != (self.d**2, self.d**2):
            raise ValueError(f"expected a {self.d ** 2} x {self.d ** 2} matrix, got {el.shape}")
        if not np.all(np.isfinite(el)):
            raise ValueError("map elements must be finite")

    def element(self, i: int, j: int, n: int, m: int) -> complex:
        return complex(self.elements[i * self.d + j, n * self.d + m])

    def as_tensor(self) -> np.ndarray:
        """View with separate indices [i, j, n, m]."""
        d = self.d
        return self.elements.reshape(d, d, d, d)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        flat = self.elements.ravel()
        return {
            "d": self.d,
            "basis_order": self.basis_order,
            "elements": [[float(z.real), float(z.imag)] for z in flat],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    @classmethod
    def from_dict(cls, data: dict) -> "DynamicalMap":
        d = int(data["d"])
        flat = np.array([complex(re, im) for re, im in data["elements"]])
        if flat.size != d**4:
            raise MapValidationError(f"expected {d ** 4} elements, got {flat.size}")
        m = cls(d=d, elements=flat.reshape(d**2, d**2), basis_order=str(data["basis_order"]))
        report = validate_cptp(m)
        if not report.passed:
            raise MapValidationError(f"loaded map fails validation: {report.failures}")
        return m

    @classmethod
    def from_json(cls, text: str) -> "DynamicalMap":
        return cls.from_dict(json.loads(text))


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


def _algebraic_deviations(m: DynamicalMap) -> dict[str, float]:
    """Largest violation of each physicality constraint except Choi positivity."""
    a = m.as_tensor()
    diag = np.einsum("iinn->in", a).real
    step = max(1, 16**4 // m.d**3)  # slabs of at most 16^4 elements: d <= 16 takes one
    pairing = max(
        np.max(np.abs(a[i : i + step] - a[:, i : i + step].transpose(1, 0, 3, 2).conj()))
        for i in range(0, m.d, step)
    )
    return {
        "trace_preservation": trace_deviation(m),
        "hermiticity_pairing": float(pairing),
        "diagonal_bounds": float(max(np.max(diag) - 1.0, -np.min(diag), 0.0)),
        "total_sum": float(abs(np.einsum("iinm->", a) - m.d)),
    }


def _choi_eigenvalues(m: DynamicalMap) -> np.ndarray:
    choi = choi_matrix(m)
    return np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)


def _choi_min_eigenvalue(m: DynamicalMap) -> float:
    return float(_choi_eigenvalues(m)[0])


def validate_cptp(m: DynamicalMap, tolerance: float = VALIDATION_TOL) -> CptpReport:
    """Check trace preservation, hermiticity pairing, diagonal bounds and Choi positivity."""
    deviations = _algebraic_deviations(m)
    choi_min = _choi_min_eigenvalue(m)
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
    return m.as_tensor().conj().transpose(2, 0, 3, 1).reshape(d**2, d**2)


def _check_constructed(m: DynamicalMap, what: str, choi_min=_choi_min_eigenvalue) -> DynamicalMap:
    """Raise unless m is physical; `choi_min(m)` gives its least Choi eigenvalue."""
    worst = max(_algebraic_deviations(m).values())
    if m.d <= _CHOI_AUTOCHECK_MAX_D:
        worst = max(worst, -choi_min(m))
    if worst > VALIDATION_TOL:
        raise MapConstructionError(f"{what} produced an unphysical map (violation {worst:.3e})")
    return m


# ---------------------------------------------------------------------------
# Constructors
# ---------------------------------------------------------------------------


def identity_map(d: int) -> DynamicalMap:
    a = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        for j in range(d):
            a[i, j, i, j] = 1.0
    return DynamicalMap(d=d, elements=a.reshape(d**2, d**2))


def classical_transfer_map(d: int) -> DynamicalMap:
    """Measure in the transfer basis and re-prepare: the best entanglement-free strategy.

    Kills every coherence and gives the benchmark average fidelity 2/(d+1).
    """
    a = np.zeros((d, d, d, d), dtype=complex)
    for i in range(d):
        a[i, i, i, i] = 1.0
    return DynamicalMap(d=d, elements=a.reshape(d**2, d**2))


def one_qubit_map(f: complex) -> DynamicalMap:
    """Amplitude-damping transfer map of a single qubit with transition amplitude f."""
    f = complex(f)
    if abs(f) > 1.0 + 1e-9:
        raise ValueError(f"|f| = {abs(f)} exceeds 1")
    a = np.zeros((2, 2, 2, 2), dtype=complex)
    a[0, 0, 0, 0] = 1.0
    a[0, 0, 1, 1] = 1.0 - abs(f) ** 2
    a[1, 1, 1, 1] = abs(f) ** 2
    a[0, 1, 0, 1] = f
    a[1, 0, 1, 0] = np.conj(f)
    return _check_constructed(DynamicalMap(d=2, elements=a.reshape(4, 4)), "one_qubit_map")


def _pair_amplitude(F: AmplitudeMatrix, p: int, q: int) -> complex:
    """Two-excitation amplitude from sites (1, 2) to sites (p, q), p < q, 1-indexed."""
    return multi_amplitude(F, (1, 2), (p, q))


def two_qubit_map(F: AmplitudeMatrix, N: int) -> DynamicalMap:
    """Transfer map for a two-site sender block, built from closed-form amplitude combinations.

    Sender sites (1, 2), receiver sites (N-1, N) labelled positionally
    (label 1 is site N-1, label 2 is site N).  Environment sums run over
    every site outside the receiver pair; single-excitation sums collapse via
    unitarity, two-excitation ones are accumulated explicitly.
    """
    if N != F.size:
        raise ValueError(f"matrix size {F.size} does not match N={N}")
    if N < 4:
        raise ValueError("two-qubit transfer needs at least 4 sites")
    f1 = F.entries[0]  # f_1^m, 0-indexed target site
    f2 = F.entries[1]
    r1, r2 = N - 2, N - 1  # 0-indexed receiver sites carrying labels 1 and 2
    env = [s for s in range(N) if s not in (r1, r2)]

    g = _pair_amplitude(F, N - 1, N)
    # Pair amplitudes (1,2) -> {m, one receiver site}, ascending site order.
    g_m1 = np.array([_pair_amplitude(F, m + 1, r1 + 1) for m in env])
    g_m2 = np.array([_pair_amplitude(F, m + 1, r2 + 1) for m in env])

    p = np.zeros((4, 4, 4, 4), dtype=complex)  # physical convention <i|L[|n><m|]|j>
    p[0, 0, 0, 0] = 1.0

    # One excitation in: columns (n, m) in {1, 2} x {1, 2}.
    for n, fn in ((1, f1), (2, f2)):
        for m, fm in ((1, f1), (2, f2)):
            p[0, 0, n, m] = (0.0 if n != m else 1.0) - fn[r1] * fm[r1].conj() - fn[r2] * fm[r2].conj()
            p[1, 1, n, m] = fn[r1] * fm[r1].conj()
            p[2, 2, n, m] = fn[r2] * fm[r2].conj()
            p[1, 2, n, m] = fn[r1] * fm[r2].conj()
            p[2, 1, n, m] = fn[r2] * fm[r1].conj()

    # Coherences between the vacuum and occupied sender states.
    p[0, 1, 0, 1] = f1[r1].conj()
    p[0, 2, 0, 1] = f1[r2].conj()
    p[0, 1, 0, 2] = f2[r1].conj()
    p[0, 2, 0, 2] = f2[r2].conj()
    p[0, 3, 0, 3] = np.conj(g)

    # Coherences between single and double occupation.
    for n, fn in ((1, f1), (2, f2)):
        fn_env = fn[env]
        p[0, 1, n, 3] = np.sum(fn_env * g_m1.conj())
        p[0, 2, n, 3] = np.sum(fn_env * g_m2.conj())
        p[1, 3, n, 3] = fn[r1] * np.conj(g)
        p[2, 3, n, 3] = fn[r2] * np.conj(g)

    # Double occupation in.
    p[0, 0, 3, 3] = 1.0 - np.sum(np.abs(g_m1) ** 2) - np.sum(np.abs(g_m2) ** 2) - abs(g) ** 2
    p[1, 1, 3, 3] = np.sum(np.abs(g_m1) ** 2)
    p[2, 2, 3, 3] = np.sum(np.abs(g_m2) ** 2)
    p[3, 3, 3, 3] = abs(g) ** 2
    p[1, 2, 3, 3] = np.sum(g_m1 * g_m2.conj())
    p[2, 1, 3, 3] = np.sum(g_m2 * g_m1.conj())

    # Remaining columns follow from hermiticity: L[|m><n|] = L[|n><m|]^dagger.
    for n in range(4):
        for m in range(n + 1, 4):
            p[:, :, m, n] = p[:, :, n, m].conj().T

    return _check_constructed(
        DynamicalMap(d=4, elements=p.conj().reshape(16, 16)), "two_qubit_map"
    )


@lru_cache(maxsize=8)
def _laplace_tables(n: int):
    """Index tables of the signed gather K[(P, i), c] = sign * det B[P - c, i].

    One row per sender subset P and subset c of P, as block basis indices:
    P, c, the Laplace row set P - c, and the sign of the shuffle that moves
    the rows P - c below the rows c.
    """
    subsets = subsets_by_excitation(n)
    index = block_index(n)
    rows = []
    for p, P in enumerate(subsets):
        for c, C in enumerate(subsets):
            if set(C) <= set(P):
                laplace = tuple(s for s in P if s not in C)
                inversions = sum(1 for a in laplace for b in C if a < b)
                rows.append((p, c, index[laplace], (-1) ** inversions))
    tables = tuple(np.array(col) for col in zip(*rows))
    for array in tables:
        array.flags.writeable = False
    return tables


def _map_elements_from_block(block: np.ndarray) -> np.ndarray:
    """Stored d^2 x d^2 map of a zero-anisotropy chain from its block B(t).

    Sender state P ends with the environment in E and the receiver in label
    state i with amplitude det F[P, E + R_i].  The receiver sites are the
    highest-indexed, so a Laplace expansion along the R_i columns gives
    sum over c in P of sign * det B[P - c, i] * det F[c, E].  Summed over E,
    a product of two such amplitudes becomes det G[c, c'] by Cauchy-Binet,
    with G = I - B B^dagger by the unitarity of F.  So the Gram matrix of
    all amplitudes is K C(G) K^dagger, where C(.) is the compound matrix and
    K the signed gather of C(B).
    """
    n = block.shape[-1]
    d = 2**n
    p_idx, c_idx, laplace_idx, sign = _laplace_tables(n)
    gather = np.zeros((d, d, d), dtype=complex)  # [P, i, c]
    gather[p_idx, :, c_idx] = sign[:, None] * compound_matrix(block)[laplace_idx]
    k = gather.reshape(d * d, d)
    gram = (k @ compound_matrix(np.eye(n) - block @ block.conj().T)) @ k.conj().T
    np.conjugate(gram, out=gram)  # the stored map is conj(gram[(P, i), (Q, j)])
    return gram.reshape(d, d, d, d).transpose(1, 3, 0, 2).reshape(d * d, d * d)


def map_from_evolution(spec: ChainSpec, n: int, t: float) -> DynamicalMap:
    """Transfer map of an n-site block after evolving the chain for time t.

    Each sender basis state is propagated on the polarised chain and the
    receiver block is traced out against a shared environment index; columns
    of the map are exact by linearity.  At zero anisotropy the whole map is a
    function of the n x n sender -> receiver block B(t) of the one-excitation
    propagator (see _map_elements_from_block), so its cost does not grow with
    N; chains with delta != 0 are evolved exactly in the excitation sectors
    of the oracle module, which caps N through the sector dimension.
    """
    if n != spec.block_size:
        raise ValueError(f"block size mismatch: spec has {spec.block_size}, got {n}")
    d = 2**n
    if spec.delta == 0.0:
        elements = _map_elements_from_block(transfer_block_series(spectral(spec), n, [t])[0])
    else:
        tensor = receiver_amplitude_tensor(spec, n, t)  # [p, env, receiver label]
        # Rows: environment configurations; column (p, label).  The map is the
        # Gram matrix sum_e conj T[n,e,i] T[m,e,j], one d^2 x d^2 GEMM.
        flat = tensor.transpose(1, 0, 2).reshape(tensor.shape[1], d * d)
        elements = (flat.conj().T @ flat).reshape(d, d, d, d).transpose(1, 3, 0, 2)
        elements = elements.reshape(d**2, d**2)  # a copy; the Gram matrix is freed
    return _check_constructed(DynamicalMap(d=d, elements=elements), "map_from_evolution")


def tensor_product(a: DynamicalMap, b: DynamicalMap) -> DynamicalMap:
    """Map acting independently on two blocks; composite indices are left-major."""
    ta, tb = a.as_tensor(), b.as_tensor()
    d = a.d * b.d
    composite = np.einsum("IJNM,ijnm->IiJjNnMm", ta, tb).reshape(d, d, d, d)
    return _check_constructed(
        DynamicalMap(d=d, elements=composite.reshape(d**2, d**2), basis_order="product-lex"),
        "tensor_product",
        lambda _: _product_choi_min_eigenvalue(a, b),
    )


def _product_choi_min_eigenvalue(a: DynamicalMap, b: DynamicalMap) -> float:
    """Least Choi eigenvalue of tensor_product(a, b) from the factors' Choi spectra.

    The product's Choi matrix is Choi(a) (x) Choi(b) up to one permutation of
    rows and columns, so its eigenvalues are the pairwise products.
    """
    return float(np.min(np.multiply.outer(_choi_eigenvalues(a), _choi_eigenvalues(b))))


def independent_channels_map(f: complex, n: int) -> DynamicalMap:
    """n identical single-qubit amplitude-damping channels in parallel."""
    return reduce(tensor_product, [one_qubit_map(f)] * n)


# ---------------------------------------------------------------------------
# Fidelity evaluation against arbitrary pure inputs
# ---------------------------------------------------------------------------


def fidelity_evaluator(m: DynamicalMap):
    """Batched pure-state fidelity function of a map, for Monte Carlo use.

    Returns a callable taking state rows (batch, d) and yielding
    <psi| L[|psi><psi|] |psi> for each row.
    """
    d = m.d
    A = m.elements

    def evaluate(states: np.ndarray) -> np.ndarray:
        states = np.asarray(states, dtype=complex)
        if states.ndim == 1:
            states = states[None, :]
        if states.shape[1] != d:
            raise ValueError(f"states must have dimension {d}, got {states.shape[1]}")
        # F_s = sum_ab conj(u_sa) A_ab u_sb with u_s = vec(conj psi_s (x) psi_s): one GEMM
        # on uc = conj(u), then uc is conjugated in place, so at most two
        # (batch, d^2) arrays are alive at once.
        uc = (states[:, :, None] * states.conj()[:, None, :]).reshape(states.shape[0], d * d)
        p = uc @ A
        np.conjugate(uc, out=uc)
        p *= uc
        return p.sum(axis=1).real

    return evaluate


def apply_map(m: DynamicalMap, rho: np.ndarray) -> np.ndarray:
    """Receiver density matrix for a given sender density matrix."""
    d = m.d
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (d, d):
        raise ValueError(f"expected a {d} x {d} density matrix")
    # The stored convention acts on transpose-flattened density matrices.
    vec = rho.T.reshape(d * d)
    return (m.elements @ vec).reshape(d, d).T


def map_fidelity(m: DynamicalMap, state: np.ndarray) -> float:
    """Fidelity of one pure input state under the map."""
    return float(fidelity_evaluator(m)(np.asarray(state, dtype=complex)[None, :])[0])
