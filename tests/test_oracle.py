import tracemalloc
from itertools import combinations
from math import comb

import numpy as np
import pytest
import scipy.linalg

from helpers import (
    full_space_evolve,
    full_space_hamiltonian,
    full_space_index,
    receiver_fidelity,
    sector_hamiltonian,
)
from spintransfer.amplitudes import chain_transition_matrix, multi_amplitude, transition_matrix
from spintransfer.basis import excitation_sector
from spintransfer.chain import ChainSpec, spectral
from spintransfer.dynmap import fidelity_evaluator, map_from_evolution, one_qubit_map
from spintransfer.errors import DimensionCapError
from spintransfer.fidelity import avg_fidelity_from_map
from spintransfer.oracle import (
    McResult,
    PureState,
    _reduction,
    _sector,
    evolve_block,
    haar_sample_fidelity,
    receiver_amplitude_tensor,
    sample_fidelity_values,
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
                assert out.amplitudes[j - 1] == pytest.approx(F[i - 1, j - 1], abs=1e-10)


def test_single_excitation_sector_ignores_anisotropy():
    base = ChainSpec.uniform(7, n=1)
    aniso = ChainSpec.from_dict({**base.to_dict(), "delta": 1.3})
    state = _unit_state(7, 2)
    a = evolve_block(base, state, 4.2, excitations=1)
    b = evolve_block(aniso, state, 4.2, excitations=1)
    assert np.allclose(a.amplitudes, b.amplitudes, atol=1e-12)


def test_cached_sector_arrays_are_read_only():
    sites, w, v = _sector(ChainSpec.uniform(6, n=2), 2)
    for array in (sites, w, v):
        with pytest.raises(ValueError):
            array[0] = 0


def test_cached_reduction_arrays_are_read_only():
    tables, _ = _reduction(ChainSpec.uniform(7, n=3), 3)
    assert len(tables) == 4
    for arrays in tables:
        for array in arrays:
            assert not array.flags.writeable


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
    rows = [full_space_index(sites, 8) for sites in basis]
    h = full_space_hamiltonian(spec)[np.ix_(rows, rows)]
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


def _with_delta(spec, delta):
    return ChainSpec.from_dict({**spec.to_dict(), "delta": delta})


def _mirror_chain(N, delta, rng):
    """Random couplings and fields, each made mirror-symmetric."""
    j, h = rng.uniform(0.3, 1.5, N - 1), rng.uniform(-1.0, 1.0, N)
    j, h = (j + j[::-1]) / 2.0, (h + h[::-1]) / 2.0
    n = N // 3
    spec = ChainSpec.uniform(N, n=n)
    return ChainSpec.from_dict(
        {**spec.to_dict(), "couplings": list(j), "fields": list(h), "J0": j[n - 1], "delta": delta}
    )


@pytest.mark.parametrize("mirror", [True, False])
def test_sector_hamiltonian_helper_is_the_full_space_slice(mirror):
    rng = np.random.default_rng(5)
    spec = _mirror_chain(6, 0.45, rng)
    if not mirror:
        spec = ChainSpec.from_dict({**spec.to_dict(), "fields": list(rng.uniform(-1, 1, 6))})
    h_full = full_space_hamiltonian(spec)
    for k in range(7):
        rows = [full_space_index(sites, 6) for sites in excitation_sector(6, k)]
        assert np.max(np.abs(sector_hamiltonian(spec, k) - h_full[np.ix_(rows, rows)])) <= 1e-14


def _propagator_columns(spec, k, t, columns):
    """evolve_block of the listed basis states, as the columns of a (dim, len(columns)) array."""
    dim = comb(spec.N, k)
    return np.stack(
        [evolve_block(spec, _unit_state(dim, c), t, excitations=k).amplitudes for c in columns], axis=1
    )


def test_parity_split_matches_plain_eigh_on_aniso16():
    """The k = 4 sector (1820 = 924 + 896 under the reflection) of the N=16, delta=0.3 chain."""
    spec = _with_delta(ChainSpec.weak_coupling(wire_length=8, n=4, J0=1.0), 0.3)
    assert spec.is_mirror_symmetric()
    t = 12.3
    w, v = np.linalg.eigh(sector_hamiltonian(spec, 4))
    columns = [0, 1, 17, 909, 1819]  # (1, 2, 3, 4) is the sender block, 1819 its mirror image
    expected = v @ (np.exp(-1j * w * t)[:, None] * v[columns].T)
    assert np.max(np.abs(_propagator_columns(spec, 4, t, columns) - expected)) <= 1e-12


_EXPM_CASES = {
    "odd-N mirror, fixed states": lambda rng: (_mirror_chain(9, 0.7, rng), 3),
    "unmirrored fields, one block": lambda rng: (
        ChainSpec.from_dict(
            {**ChainSpec.uniform(8, n=2).to_dict(), "fields": list(rng.uniform(-1, 1, 8)), "delta": -0.4}
        ),
        3,
    ),
    "k = 0": lambda rng: (_mirror_chain(6, 0.3, rng), 0),
    "k = N": lambda rng: (_mirror_chain(6, 0.3, rng), 6),
    "N = 1": lambda rng: (ChainSpec.uniform(1, n=1, field=0.8), 1),
}


@pytest.mark.parametrize("name", list(_EXPM_CASES))
def test_sector_propagator_matches_expm_of_the_reference_hamiltonian(name):
    spec, k = _EXPM_CASES[name](np.random.default_rng(11))
    basis = excitation_sector(spec.N, k)
    fixed = [s for s in basis if tuple(spec.N + 1 - x for x in reversed(s)) == s]
    assert spec.is_mirror_symmetric() == (name != "unmirrored fields, one block")
    assert fixed or name == "unmirrored fields, one block"
    t = 7.9
    expected = scipy.linalg.expm(-1j * t * sector_hamiltonian(spec, k))
    got = _propagator_columns(spec, k, t, range(len(basis)))
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_cold_sector_build_stays_lean():
    """Peak traced memory of a cold 1001-state build: 1.54 x 8 dim^2 bytes as written, 2.02 for
    an eigh of the whole sector Hamiltonian (h and its eigenvectors are both alive)."""
    spec = _with_delta(ChainSpec.uniform(14, n=4), 0.3)
    assert spec.is_mirror_symmetric()
    _sector.cache_clear()
    tracemalloc.start()
    try:
        _sector(spec, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.75 * 8 * comb(14, 4) ** 2


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


def _brute_force_tensor(spec, n, t):
    """receiver_amplitude_tensor from evolve_block and tuple bookkeeping: environments numbered
    in order of first appearance over sectors 0..n, labels by size, then lexicographically."""
    N, m = spec.N, spec.N - n
    labels = sorted((s for j in range(n + 1) for s in combinations(range(1, n + 1), j)), key=lambda s: (len(s), s))
    env_ids, tables, columns = {}, [], []
    for k in range(n + 1):
        basis = list(combinations(range(1, N + 1), k))
        env_col = [env_ids.setdefault(tuple(s for s in sites if s <= m), len(env_ids)) for sites in basis]
        lab_col = [labels.index(tuple(s - m for s in sites if s > m)) for sites in basis]
        launched = [basis.index(subset) for subset in combinations(range(1, n + 1), k)]
        tables.append((launched, env_col, lab_col))
        columns += [(k, a, env_col, lab_col) for a in launched]
    out = np.zeros((2**n, len(env_ids), 2**n), dtype=complex)
    for p, (k, a, env_col, lab_col) in enumerate(columns):
        out[p][env_col, lab_col] = evolve_block(spec, _unit_state(comb(N, k), a), t, excitations=k).amplitudes
    return tables, len(env_ids), out


_REDUCTION_CHAINS = [
    *[("mirrored", 2 * n + 3, n) for n in (1, 2, 3, 4)],
    *[("unmirrored", 2 * n + 2, n) for n in (1, 2, 3, 4)],
    ("unmirrored", 70, 1),
    ("mirrored", 70, 2),
]


@pytest.mark.parametrize("kind, N, n", _REDUCTION_CHAINS)
def test_reduction_tables_and_tensor_match_a_brute_force_enumeration(kind, N, n):
    """N = 70 has states past bit 63, which an int64 bitmask would lose."""
    spec = _with_delta(ChainSpec.uniform(N, n=n), -0.35)
    if kind == "unmirrored":
        spec = ChainSpec.from_dict({**spec.to_dict(), "fields": list(np.random.default_rng(N).uniform(-1, 1, N))})
    assert spec.is_mirror_symmetric() == (kind == "mirrored")
    tables, n_env = _reduction(spec, n)
    want_tables, want_env, want_tensor = _brute_force_tensor(spec, n, 6.1)
    assert n_env == want_env == sum(comb(N - n, c) for c in range(n + 1))
    for got, want in zip(tables, want_tables, strict=True):
        for got_col, want_col in zip(got, want, strict=True):
            assert got_col.tolist() == want_col
    tensor = receiver_amplitude_tensor(spec, n, 6.1)
    assert np.max(np.abs(tensor - want_tensor)) <= 1e-14
    norms = np.sum(np.abs(tensor) ** 2, axis=(1, 2))
    assert np.max(np.abs(norms - 1.0)) <= 1e-12


def test_sector_cap():
    spec = ChainSpec.uniform(20, n=2)
    with pytest.raises(DimensionCapError):
        _sector(spec, 10)


def test_state_validation():
    with pytest.raises(ValueError):
        PureState(3, np.array([1.0, 1.0, 0.0]))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="finite"):
            PureState(2, np.array([bad, 0.0]))
    with pytest.raises(ValueError):
        evolve_block(ChainSpec.uniform(4, n=1), _unit_state(3, 0), 1.0, excitations=2)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_non_finite_time_is_rejected(t):
    spec = _with_delta(ChainSpec.uniform(5, n=2), 0.3)
    with pytest.raises(ValueError, match="finite"):
        evolve_block(spec, _unit_state(10, 0), t, excitations=2)
    with pytest.raises(ValueError, match="finite"):
        receiver_amplitude_tensor(spec, 2, t)


def test_state_length_must_match_its_dimension():
    with pytest.raises(ValueError, match="expected 3 amplitudes"):
        PureState(3, np.array([1.0, 0.0]))
    with pytest.raises(ValueError, match="expected 2 amplitudes"):
        PureState(2, np.eye(2))


def test_sampling_needs_a_sample():
    evaluator = fidelity_evaluator(one_qubit_map(0.5))
    for samples in (0, -3):
        with pytest.raises(ValueError, match="at least one sample"):
            sample_fidelity_values(evaluator, 2, samples, seed=1)


def test_receiver_tensor_rejects_a_block_the_spec_does_not_have():
    """map_from_evolution checks the block size first, so only a direct call reaches this check."""
    spec = _with_delta(ChainSpec.uniform(6, n=2), 0.3)
    for n in (1, 3):
        with pytest.raises(ValueError, match="block size mismatch"):
            receiver_amplitude_tensor(spec, n, 1.0)


def test_vacuum_transfer_is_perfect():
    spec = ChainSpec.uniform(6, n=2)
    vac = _unit_state(4, 0)
    for t in (0.0, 3.0, 12.0):
        assert receiver_fidelity(spec, vac.amplitudes, t) == pytest.approx(1.0, abs=1e-12)


def test_two_site_excitation_swap():
    # |f_1^2(pi)| = 1 on the two-site chain, so the excited state arrives intact.
    spec = ChainSpec.uniform(2, n=1)
    excited = _unit_state(2, 1)
    assert receiver_fidelity(spec, excited.amplitudes, np.pi) == pytest.approx(1.0, abs=1e-10)


def test_exact_fidelity_agrees_with_map_route():
    rng = np.random.default_rng(23)
    for spec, n, t in (
        (ChainSpec.uniform(8, n=3), 3, 7.7),
        (ChainSpec.weak_coupling(9, 3, 0.01), 3, 178430.62),
    ):
        ev = fidelity_evaluator(map_from_evolution(spec, n, t))
        for _ in range(3):
            a = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
            a /= np.linalg.norm(a)
            assert abs(receiver_fidelity(spec, a, t) - ev(a)[0]) <= 1e-9


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
    from spintransfer.fidelity import product_state_stats, stats_from_map

    n, f = 3, 0.9
    stats1 = stats_from_map(one_qubit_map(f))
    expected = product_state_stats(stats1, n).variance
    values = sample_fidelity_values(
        fidelity_evaluator(independent_channels_map(f, n)), 2**n, 100_000, seed=8,
        product_of=n,
    )
    var = values.var()
    # Crude standard error of a sample variance from the fourth moment.
    m2c = ((values - values.mean()) ** 2)
    sem_var = m2c.std() / np.sqrt(values.size)
    assert abs(var - expected) <= 3 * sem_var
