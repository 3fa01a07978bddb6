import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    cofactor_det,
    free_fermion_chains,
    full_space_evolve,
    full_space_index,
    single_particle_propagator,
)
from spintransfer import amplitudes
from spintransfer.amplitudes import (
    TransferAmplitudeSet,
    chain_transition_matrix,
    multi_amplitude,
    subset_minor_series,
    total_transfer_amplitude,
    transfer_amplitude_series,
    transfer_amplitudes,
    transfer_block_series,
    transition_matrix,
)
from spintransfer.basis import block_index, excitation_sector, partner_sites, subsets_by_excitation
from spintransfer.chain import ChainSpec, spectral
from spintransfer.errors import FreeFermionError
from spintransfer.linalg import EigenDecomposition, compound_matrix, minor
from spintransfer.oracle import PureState, evolve_block
from spintransfer.protocol import scan_values


def test_zero_time_is_identity():
    dec = spectral(ChainSpec.uniform(7, n=1))
    F = transition_matrix(dec, 0.0)
    assert np.max(np.abs(F - np.eye(7))) <= 1e-12


@pytest.mark.parametrize("t", [0.4, 1.9, np.pi])
def test_two_site_closed_form(t):
    F = chain_transition_matrix(ChainSpec.uniform(2, n=1), t)
    assert F[0, 1] == pytest.approx(-1j * np.sin(t / 2), abs=1e-13)
    assert F[0, 0] == pytest.approx(np.cos(t / 2), abs=1e-13)
    assert F[1, 0] == pytest.approx(F[0, 1], abs=1e-13)


def test_unitarity_at_random_times():
    rng = np.random.default_rng(9)
    for N in (5, 17, 32):
        dec = spectral(ChainSpec.uniform(N, n=1))
        for t in rng.uniform(0.0, 50.0, size=7):
            F = transition_matrix(dec, t)
            assert np.max(np.abs(F @ F.conj().T - np.eye(N))) <= 1e-9


def test_group_property():
    dec = spectral(ChainSpec.weak_coupling(4, 2, 0.3))
    f1 = transition_matrix(dec, 1.3)
    f2 = transition_matrix(dec, 2.9)
    f12 = transition_matrix(dec, 4.2)
    assert np.max(np.abs(f1 @ f2 - f12)) <= 1e-9


def test_single_site_minor_equals_entry():
    F = chain_transition_matrix(ChainSpec.uniform(6, n=1), 3.3)
    for i in range(1, 7):
        for j in range(1, 7):
            assert multi_amplitude(F, [i], [j]) == F[i - 1, j - 1]


def test_full_band_two_site_chain():
    # Both excitations fill the chain; only a global phase can evolve, and the
    # energy zero removes even that.
    for t in (0.0, 2.2, 17.0):
        F = chain_transition_matrix(ChainSpec.uniform(2, n=1), t)
        assert multi_amplitude(F, (1, 2), (1, 2)) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("n", [0, 4])
def test_transfer_amplitudes_reject_a_block_the_chain_cannot_hold(n):
    F = chain_transition_matrix(ChainSpec.uniform(6, n=2), 1.0)
    with pytest.raises(ValueError, match="does not fit a chain of 6 sites"):
        transfer_amplitudes(F, n)


def test_multi_amplitude_rejects_unsorted_sites():
    F = chain_transition_matrix(ChainSpec.uniform(6, n=2), 1.0)
    with pytest.raises(ValueError):
        multi_amplitude(F, (2, 1), (5, 6))
    with pytest.raises(ValueError):
        multi_amplitude(F, (1, 2), (6, 5))
    with pytest.raises(ValueError):
        multi_amplitude(F, (1, 2), (5,))


@pytest.mark.parametrize("N,k", [(6, 1), (6, 2), (8, 2), (8, 3), (10, 3)])
def test_minor_matches_exact_sector_evolution(N, k):
    """The determinant engine must reproduce the exact many-body amplitudes."""
    rng = np.random.default_rng(100 * N + k)
    spec = ChainSpec.uniform(N, n=min(3, N // 2))
    basis = excitation_sector(N, k)
    for _ in range(6):
        t = rng.uniform(0.0, 25.0)
        F = chain_transition_matrix(spec, t)
        S = tuple(sorted(rng.choice(N, size=k, replace=False) + 1))
        R = tuple(sorted(rng.choice(N, size=k, replace=False) + 1))
        psi = np.zeros(len(basis), dtype=complex)
        psi[basis.index(S)] = 1.0
        evolved = evolve_block(spec, PureState(len(basis), psi), t, excitations=k)
        exact = evolved.amplitudes[basis.index(R)]
        assert abs(multi_amplitude(F, S, R) - exact) <= 1e-10


def test_transfer_amplitude_count_and_order():
    F = chain_transition_matrix(ChainSpec.uniform(8, n=3), 2.1)
    amps = transfer_amplitudes(F, 3)
    assert list(amps.entries.keys()) == [
        (1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3),
    ]
    assert all(abs(a) <= 1 + 1e-9 for a in amps.entries.values())


def test_transfer_amplitudes_use_positional_partners():
    F = chain_transition_matrix(ChainSpec.uniform(9, n=2), 4.4)
    amps = transfer_amplitudes(F, 2)
    assert amps.entries[(1,)] == F[0, 7]
    assert amps.entries[(2,)] == F[1, 8]
    assert amps.entries[(1, 2)] == multi_amplitude(F, (1, 2), (8, 9))


def test_partner_amplitudes_equal_on_symmetric_chains():
    # Reflection symmetry makes f_s and f_{n+1-s} identical as functions of t.
    spec = ChainSpec.weak_coupling(5, 3, 0.04)
    series = transfer_amplitude_series(spectral(spec), 3, np.linspace(0.0, 300.0, 400))
    assert np.max(np.abs(series[(1,)] - series[(3,)])) <= 1e-12


def test_series_matches_per_time_route():
    spec = ChainSpec.weak_coupling(6, 2, 0.2)
    dec = spectral(spec)
    times = np.array([0.0, 3.7, 11.2, 40.0])
    series = transfer_amplitude_series(dec, 2, times)
    for i, t in enumerate(times):
        amps = transfer_amplitudes(transition_matrix(dec, t), 2)
        for S, value in amps.entries.items():
            assert series[S][i] == pytest.approx(value, abs=1e-12)


def test_anisotropic_chain_rejected():
    spec = ChainSpec.from_dict({**ChainSpec.uniform(6, n=2).to_dict(), "delta": 0.3})
    with pytest.raises(FreeFermionError):
        chain_transition_matrix(spec, 1.0)


def test_amplitude_set_requires_all_subsets():
    with pytest.raises(ValueError):
        TransferAmplitudeSet(block_size=2, entries={(1,): 1.0, (2,): 1.0})


_TIMES = st.floats(0.0, 50.0, allow_nan=False)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    chain=free_fermion_chains(st.integers(4, 12), lambda N: st.integers(1, min(6, N // 2))),
    t=_TIMES,
)
def test_det_one_plus_block_is_the_subset_sum(chain, t):
    """det(I + B) = 1 + sum over nonempty S of the minor F[S, partner(S)]."""
    spec, n = chain
    F = single_particle_propagator(spec, t)
    minors = sum(
        cofactor_det(F[np.ix_([s - 1 for s in S], [r - 1 for r in partner_sites(S, spec.N, n)])])
        for S in subsets_by_excitation(n, include_empty=False)
    )
    block = transfer_block_series(spectral(spec), n, np.array([t]))
    assert abs(total_transfer_amplitude(block)[0] - (1.0 + minors)) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=100)
@given(chain=free_fermion_chains(st.integers(2, 12), lambda N: st.integers(1, N // 2)), t=_TIMES)
def test_transition_matrix_is_the_unitary_propagator(chain, t):
    spec, _ = chain
    F = transition_matrix(spectral(spec), t)
    assert np.max(np.abs(F - single_particle_propagator(spec, t))) <= 1e-10
    assert np.max(np.abs(F @ F.conj().T - np.eye(spec.N))) <= 1e-10


@settings(derandomize=True, deadline=None, max_examples=3)
@given(chain=free_fermion_chains(st.just(10), lambda N: st.just(5)), t=_TIMES)
def test_five_qubit_scan_matches_full_space_evolution(chain, t):
    """scan_values at n=5 against amplitudes of the explicit 2^10-dimensional evolution."""
    spec, n = chain
    subsets = subsets_by_excitation(n, include_empty=True)
    psi0 = np.zeros((2**spec.N, len(subsets)), dtype=complex)
    for col, S in enumerate(subsets):
        psi0[full_space_index(S, spec.N), col] = 1.0
    evolved = full_space_evolve(spec, psi0, t)
    total = sum(
        evolved[full_space_index(partner_sites(S, spec.N, n), spec.N), col]
        for col, S in enumerate(subsets)
    )  # the empty set contributes the vacuum amplitude 1
    d = 2**n
    exact = 1.0 / (d + 1) + abs(total) ** 2 / (d * (d + 1))
    assert abs(scan_values(spec, n, np.array([t]))[0] - exact) <= 1e-10


@pytest.mark.parametrize("T", [0, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_subset_minors_are_the_minors_and_the_compound_diagonal(n, T):
    """Per-size batched minors equal one-matrix minors and compound-matrix entries bit for bit."""
    rng = np.random.default_rng(100 * n + T)
    block = rng.standard_normal((n, n, T)) + 1j * rng.standard_normal((n, n, T))
    series = subset_minor_series(block)
    assert list(series) == subsets_by_excitation(n, include_empty=False)
    diagonals = [np.diag(compound_matrix(block[..., t])) for t in range(T)]
    for S, values in series.items():
        assert values.shape == (T,)
        idx = [s - 1 for s in S]
        for t in range(T):
            assert values[t] == minor(block[..., t], idx, idx)
            assert values[t] == diagonals[t][block_index(n)[S]]


def test_subset_minors_reject_a_time_first_block(monkeypatch):
    """A (T, n, n) block fails on its shape before the subsets of its T "sites" are formed."""
    monkeypatch.setattr(amplitudes, "subsets_by_excitation", lambda *args, **kw: pytest.fail("subsets formed"))
    with pytest.raises(ValueError):
        subset_minor_series(np.ones((300, 3, 3), dtype=complex))


def test_subset_minors_peak_stays_near_the_result():
    """One (k, k, T) gather per subset: a 16,384-point n = 4 chunk peaks below 2.5x its minors."""
    rng = np.random.default_rng(4)
    block = rng.standard_normal((4, 4, 1 << 14)) + 1j * rng.standard_normal((4, 4, 1 << 14))
    tracemalloc.start()
    try:
        series = subset_minor_series(block)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result = sum(values.nbytes for values in series.values())
    assert peak <= 2.5 * result, f"peak {peak / 1e6:.1f} MB for {result / 1e6:.1f} MB of minors"


WEAK_15 = ChainSpec.weak_coupling(wire_length=9, n=3, J0=0.01)


def _exp_rows(monkeypatch) -> list:
    """Record how many rows of phases each np.exp call in the block builder computes."""
    rows = []
    exp = np.exp

    def counting(x, *args, **kwargs):
        rows.append(np.shape(x)[0])
        return exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting)
    return rows


_SEARCH_CHUNK = np.linspace(0.0, 2e5, 1_000_001)[-(1 << 14):]  # step 0.2, as in a search


@pytest.mark.parametrize(
    "times, rows",
    [
        (np.linspace(0.0, 2e5, 1 << 14), [128, 128]),
        (_SEARCH_CHUNK, [128, 128]),
        # 16 ulps off a uniform grid is not uniform: the direct exp, with the fine table [1]
        (_SEARCH_CHUNK + 16 * np.spacing(_SEARCH_CHUNK) * (-1) ** np.arange(1 << 14), [1 << 14, 1]),
    ],
    ids=["step-12", "step-0.2", "jittered"],
)
def test_factorised_phases_stay_within_the_rounding_of_the_direct_exp(times, rows, monkeypatch):
    """With identity eigenvectors and n = N, B(t) is diag(exp(-i w t)): the phases themselves."""
    w = spectral(WEAK_15).eigenvalues
    decomp = EigenDecomposition(eigenvalues=w, eigenvectors=np.eye(w.size))
    exp_rows = _exp_rows(monkeypatch)
    phases = np.diagonal(transfer_block_series(decomp, w.size, times))
    assert exp_rows == rows
    exact = np.exp(-1j * np.outer(times.astype(np.longdouble), w.astype(np.longdouble)))
    bound = 4 * np.finfo(float).eps * np.max(np.abs(w)) * np.max(np.abs(times))
    assert np.max(np.abs(phases - exact)) <= bound


@pytest.mark.parametrize(
    "times",
    [np.linspace(0.0, 1e3, T) for T in (0, 1, 2, 1 << 14, (1 << 14) + 5)]
    + [np.linspace(1e3, 0.0, 1 << 14), np.full(1 << 14, 700.0), np.geomspace(1e-3, 1e3, 1 << 14)],
    ids=["T=0", "T=1", "T=2", "T=16384", "T=16389", "descending", "zero-step", "geomspace"],
)
def test_uniform_grids_factorise_and_match_the_direct_exp(times, monkeypatch):
    """A uniform grid takes ceil(T/m) + m rows of exp with m = ceil(sqrt(T)); others take m = 1."""
    decomp = spectral(WEAK_15)
    direct = [transfer_block_series(decomp, 3, [t])[..., 0] for t in times]  # 1-point calls: m = 1
    rows = _exp_rows(monkeypatch)
    block = transfer_block_series(decomp, 3, times)
    T = times.size
    uniform = T > 1 and np.ptp(np.diff(times)) <= 1e-9
    m = math.isqrt(T - 1) + 1 if uniform else 1
    assert rows == [-(-T // m), m]
    assert block.shape == (3, 3, T)
    if T:
        assert np.max(np.abs(block - np.stack(direct, axis=-1))) <= 1e-12
