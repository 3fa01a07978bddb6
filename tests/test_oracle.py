import tracemalloc
from math import comb

import numpy as np
import pytest

from helpers import full_space_evolve, full_space_hamiltonian, full_space_index
from spintransfer.amplitudes import chain_transition_matrix, multi_amplitude, transition_matrix
from spintransfer.basis import excitation_sector
from spintransfer.chain import ChainSpec, spectral
from spintransfer.dynmap import fidelity_evaluator, map_fidelity, map_from_evolution, one_qubit_map
from spintransfer.errors import DimensionCapError
from spintransfer.fidelity import avg_fidelity_from_map
from spintransfer.oracle import (
    McResult,
    PureState,
    _sector,
    evolve_block,
    haar_sample_fidelity,
    receiver_amplitude_tensor,
    sample_fidelity_values,
    sector_hamiltonian,
    transfer_fidelity_exact,
)


def _unit_state(dim, idx):
    v = np.zeros(dim, dtype=complex)
    v[idx] = 1.0
    return PureState(dim, v)


def test_zero_time_returns_input():
    spec = ChainSpec.uniform(6, n=2)
    basis = excitation_sector(6, 2)
    state = _unit_state(len(basis), 4)
    out = evolve_block(spec, state, 0.0, excitations=2)
    assert np.allclose(out.amplitudes, state.amplitudes)


def test_single_excitation_matches_transition_matrix():
    spec = ChainSpec.weak_coupling(3, 2, 0.2)
    dec = spectral(spec)
    for t in (0.7, 5.0, 21.3):
        F = transition_matrix(dec, t)
        for i in (1, 4, 7):
            out = evolve_block(spec, _unit_state(spec.N, i - 1), t, excitations=1)
            for j in range(1, spec.N + 1):
                assert out.amplitudes[j - 1] == pytest.approx(F.entry(i, j), abs=1e-10)


def test_single_excitation_sector_ignores_anisotropy():
    base = ChainSpec.uniform(7, n=1)
    aniso = ChainSpec.from_dict({**base.to_dict(), "delta": 1.3})
    state = _unit_state(7, 2)
    a = evolve_block(base, state, 4.2, excitations=1)
    b = evolve_block(aniso, state, 4.2, excitations=1)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def test_cached_sector_arrays_are_read_only():
    _, _, h, w, v = _sector(ChainSpec.uniform(6, n=2), 2)
    for array in (h, w, v):
        with pytest.raises(ValueError):
            array[0] = 0.0


def test_warm_tensor_makes_no_complex_copy_of_the_eigenvectors():
    spec = ChainSpec.uniform(14, n=4)
    receiver_amplitude_tensor(spec, 4, 2.5)  # fills the sector caches
    tracemalloc.start()
    try:
        receiver_amplitude_tensor(spec, 4, 2.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    dim = comb(14, 4)
    assert peak <= 0.5 * 16 * dim**2  # a complex copy of the 1001 x 1001 v is 16 dim^2 bytes


def test_norm_and_energy_conservation():
    spec = ChainSpec.from_dict({**ChainSpec.uniform(8, n=2).to_dict(), "delta": 0.4})
    basis = excitation_sector(8, 2)
    rng = np.random.default_rng(17)
    amps = rng.standard_normal(len(basis)) + 1j * rng.standard_normal(len(basis))
    amps /= np.linalg.norm(amps)
    state = PureState(len(basis), amps)
    h = sector_hamiltonian(spec, 2)
    e0 = np.vdot(amps, h @ amps).real
    out = evolve_block(spec, state, 100.0, excitations=2)
    assert abs(np.sum(np.abs(out.amplitudes) ** 2) - 1.0) <= 1e-10
    e1 = np.vdot(out.amplitudes, h @ out.amplitudes).real
    assert abs(e1 - e0) <= 1e-9


def test_full_space_cross_check():
    """Sector evolution agrees with a brute-force 2^N construction, including delta."""
    spec = ChainSpec.from_dict(
        {**ChainSpec.weak_coupling(2, 2, 0.4).to_dict(), "delta": 0.6}
    )
    N = spec.N
    h_full = full_space_hamiltonian(spec)
    # U(1) closure: the full Hamiltonian never mixes excitation numbers.
    weights = np.array([bin(i).count("1") for i in range(2**N)])
    mixing = h_full[weights[:, None] != weights[None, :]]
    assert np.max(np.abs(mixing)) == 0.0

    basis = excitation_sector(N, 2)
    start = basis.index((1, 2))
    psi0_full = np.zeros(2**N, dtype=complex)
    psi0_full[full_space_index((1, 2), N)] = 1.0
    t = 6.28
    full = full_space_evolve(spec, psi0_full, t)
    block = evolve_block(spec, _unit_state(len(basis), start), t, excitations=2)
    for idx, sites in enumerate(basis):
        assert full[full_space_index(sites, N)] == pytest.approx(
            block.amplitudes[idx], abs=1e-10
        )


def test_two_excitation_amplitude_equals_minor():
    spec = ChainSpec.uniform(8, n=2)
    basis = excitation_sector(8, 2)
    t = 9.4
    F = chain_transition_matrix(spec, t)
    out = evolve_block(spec, _unit_state(len(basis), basis.index((1, 2))), t, excitations=2)
    for pq in ((3, 6), (1, 2), (7, 8)):
        assert out.amplitudes[basis.index(pq)] == pytest.approx(
            multi_amplitude(F, (1, 2), pq), abs=1e-10
        )


def test_sector_cap():
    spec = ChainSpec.uniform(20, n=2)
    with pytest.raises(DimensionCapError):
        sector_hamiltonian(spec, 10)


def test_state_validation():
    with pytest.raises(ValueError):
        PureState(3, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ValueError):
        evolve_block(ChainSpec.uniform(4, n=1), _unit_state(3, 0), 1.0, excitations=2)


def test_vacuum_transfer_is_perfect():
    spec = ChainSpec.uniform(6, n=2)
    vac = _unit_state(4, 0)
    for t in (0.0, 3.0, 12.0):
        assert transfer_fidelity_exact(spec, vac, t) == pytest.approx(1.0, abs=1e-12)


def test_two_site_excitation_swap():
    # |f_1^2(pi)| = 1 on the two-site chain, so the excited state arrives intact.
    spec = ChainSpec.uniform(2, n=1)
    excited = _unit_state(2, 1)
    assert transfer_fidelity_exact(spec, excited, np.pi) == pytest.approx(1.0, abs=1e-10)


def test_exact_fidelity_agrees_with_map_route():
    rng = np.random.default_rng(23)
    for spec, n, t in (
        (ChainSpec.uniform(8, n=3), 3, 7.7),
        (ChainSpec.weak_coupling(9, 3, 0.01), 3, 178430.62),
    ):
        m = map_from_evolution(spec, n, t)
        for _ in range(3):
            a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            a /= np.linalg.norm(a)
            exact = transfer_fidelity_exact(spec, PureState(2**n, a), t)
            assert abs(exact - map_fidelity(m, a)) <= 1e-9


def test_mc_result_invariants_and_reproducibility():
    ev = fidelity_evaluator(one_qubit_map(0.6))
    a = haar_sample_fidelity(ev, 2, 5000, seed=42)
    b = haar_sample_fidelity(ev, 2, 5000, seed=42)
    assert a == b
    assert a.seed == 42
    assert a.std_error_mean == pytest.approx(
        np.sqrt((a.second_moment - a.mean**2) / a.samples)
    )


def test_constant_evaluator():
    res = haar_sample_fidelity(lambda s: np.ones(len(s)), 4, 1000, seed=0)
    assert res.mean == 1.0
    assert res.std_error_mean == 0.0


def test_haar_moments_small():
    d = 8
    rng_vals = sample_fidelity_values(lambda s: np.abs(s[:, 0]) ** 2, d, 200_000, seed=5)
    mean = rng_vals.mean()
    sem = rng_vals.std() / np.sqrt(rng_vals.size)
    assert abs(mean - 1.0 / d) <= 4 * sem
    second = (rng_vals**2).mean()
    sem2 = (rng_vals**2).std() / np.sqrt(rng_vals.size)
    assert abs(second - 2.0 / (d * (d + 1))) <= 4 * sem2


def test_sem_scales_as_inverse_sqrt_samples():
    ev = fidelity_evaluator(one_qubit_map(0.5))
    sems = [
        haar_sample_fidelity(ev, 2, s, seed=9).std_error_mean
        for s in (10_000, 40_000, 160_000)
    ]
    assert sems[0] / sems[1] == pytest.approx(2.0, rel=0.2)
    assert sems[1] / sems[2] == pytest.approx(2.0, rel=0.2)


def test_product_sampler_single_qubit_matches_haar():
    ev = fidelity_evaluator(one_qubit_map(0.7))
    full = haar_sample_fidelity(ev, 2, 100_000, seed=13)
    prod = McResult.from_values(sample_fidelity_values(ev, 2, 100_000, 14, product_of=1), 14)
    sem = np.hypot(full.std_error_mean, prod.std_error_mean)
    assert abs(full.mean - prod.mean) <= 4 * sem


def test_product_sampler_mean_factorises():
    from spintransfer.dynmap import independent_channels_map

    m = independent_channels_map(0.8, 2)
    single = avg_fidelity_from_map(one_qubit_map(0.8))
    res = McResult.from_values(
        sample_fidelity_values(fidelity_evaluator(m), 4, 100_000, 3, product_of=2), 3
    )
    assert abs(res.mean - single**2) <= 4 * res.std_error_mean


def test_product_sampler_variance_matches_formula():
    from spintransfer.dynmap import independent_channels_map
    from spintransfer.fidelity import product_state_variance, stats_from_map

    n, f = 3, 0.9
    stats1 = stats_from_map(one_qubit_map(f))
    expected = product_state_variance(stats1, n)
    values = sample_fidelity_values(
        fidelity_evaluator(independent_channels_map(f, n)), 2**n, 100_000, seed=8,
        product_of=n,
    )
    var = values.var()
    # Crude standard error of a sample variance from the fourth moment.
    m2c = ((values - values.mean()) ** 2)
    sem_var = m2c.std() / np.sqrt(values.size)
    assert abs(var - expected) <= 3 * sem_var
