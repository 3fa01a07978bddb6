import tracemalloc
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    apply_map,
    element_fidelities,
    free_fermion_chains,
    map_by_environment_loop,
    random_unitary,
)
from spintransfer import dynmap
from spintransfer.amplitudes import chain_transition_matrix, transfer_block_series
from spintransfer.chain import ChainSpec, engineered_sender_coupling, resonance_report, spectral
from spintransfer.dynmap import (
    DynamicalMap,
    _connected_blocks,
    _kraus_from_block,
    _stored_gram,
    choi_matrix,
    classical_transfer_map,
    fidelity_evaluator,
    identity_map,
    independent_channels_map,
    map_from_evolution,
    one_qubit_map,
    one_qubit_tensors,
    tensor_product,
    two_qubit_map,
    validate_cptp,
)
from spintransfer.errors import DimensionCapError, MapConstructionError
from spintransfer.fidelity import (
    FidelityStats,
    avg_fidelity_from_map,
    independent_channels_fidelity,
)
from spintransfer.linalg import EigenDecomposition
from spintransfer.oracle import (
    PureState,
    _chunk_size,
    _sector,
    haar_states,
    product_states,
    receiver_amplitude_tensor,
    sample_fidelity_values,
)
from spintransfer.protocol import FidelityScan, ProtocolResult, scan_values

# Nonzero element pattern of the two-site-block transfer map: row (i,j), column
# (n,m), flattened as 4*i+j / 4*n+m.  Everything else must vanish identically.
TWO_QUBIT_PATTERN = {
    (0, 0): [0, 5, 6, 9, 10, 15],
    (0, 1): [1, 2, 7, 11],
    (0, 2): [1, 2, 7, 11],
    (0, 3): [3],
    (1, 0): [4, 8, 13, 14],
    (1, 1): [5, 6, 9, 10, 15],
    (1, 2): [5, 6, 9, 10, 15],
    (1, 3): [7, 11],
    (2, 0): [4, 8, 13, 14],
    (2, 1): [5, 6, 9, 10, 15],
    (2, 2): [5, 6, 9, 10, 15],
    (2, 3): [7, 11],
    (3, 0): [12],
    (3, 1): [13, 14],
    (3, 2): [13, 14],
    (3, 3): [15],
}


def test_one_qubit_map_limits():
    assert np.array_equal(one_qubit_map(1.0).elements, identity_map(2).elements)
    reset = one_qubit_map(0.0).as_tensor()
    assert reset[0, 0, 0, 0] == 1.0
    assert reset[0, 0, 1, 1] == 1.0
    assert np.count_nonzero(reset) == 2
    with pytest.raises(ValueError):
        one_qubit_map(1.2)


def test_one_qubit_map_element_convention():
    f = 0.3 + 0.4j
    m = one_qubit_map(f)
    assert m.as_tensor()[0, 1, 0, 1] == pytest.approx(f)
    assert m.as_tensor()[1, 0, 1, 0] == pytest.approx(np.conj(f))
    assert m.as_tensor()[1, 1, 1, 1] == pytest.approx(abs(f) ** 2)
    assert m.as_tensor()[0, 0, 1, 1] == pytest.approx(1 - abs(f) ** 2)


def test_one_qubit_map_matches_the_element_table():
    rng = np.random.default_rng(15)
    amplitudes = rng.uniform(0, 1, 20) * np.exp(1j * rng.uniform(0, 2 * np.pi, 20))
    for f in (*amplitudes, 0.73, -0.4, 1j, np.exp(0.3j)):
        table = one_qubit_tensors(f).reshape(4, 4)
        assert np.max(np.abs(one_qubit_map(f).elements - table)) <= 1e-15
    for f in (0.0, 1.0):
        assert np.array_equal(one_qubit_map(f).elements, one_qubit_tensors(f).reshape(4, 4))


def test_amplitude_damping_action():
    f = 0.6 + 0.2j
    rho = np.array([[0.3, 0.1 - 0.05j], [0.1 + 0.05j, 0.7]])
    out = apply_map(one_qubit_map(f), rho)
    assert out[1, 1] == pytest.approx(abs(f) ** 2 * rho[1, 1])
    assert out[0, 0] == pytest.approx(rho[0, 0] + (1 - abs(f) ** 2) * rho[1, 1])
    assert out[1, 0] == pytest.approx(f * rho[1, 0])
    assert np.trace(out) == pytest.approx(1.0)


def test_single_qubit_map_from_evolution():
    spec = ChainSpec.uniform(7, n=1)
    t = 3.123
    f = chain_transition_matrix(spec, t)[0, 6]
    assert np.max(np.abs(map_from_evolution(spec, 1, t).elements
                         - one_qubit_map(f).elements)) <= 1e-10


@pytest.mark.parametrize("t", [0.9, 4.6, 13.37, 27.1])
def test_two_qubit_map_matches_evolution(t):
    spec = ChainSpec.uniform(6, n=2)
    analytic = two_qubit_map(chain_transition_matrix(spec, t), 6)
    numeric = map_from_evolution(spec, 2, t)
    assert np.max(np.abs(analytic.elements - numeric.elements)) <= 1e-9


def test_two_qubit_zero_pattern():
    spec = ChainSpec.weak_coupling(4, 2, 0.3)
    for t in (1.7, 8.8):
        a = map_from_evolution(spec, 2, t).as_tensor()
        for i in range(4):
            for j in range(4):
                allowed = np.zeros(16, dtype=bool)
                allowed[TWO_QUBIT_PATTERN[(i, j)]] = True
                row = a[i, j].reshape(16)
                assert np.max(np.abs(row[~allowed])) <= 1e-10, (i, j)


def test_zero_time_map_resets_to_vacuum_label():
    # At t = 0 the receiver block is still polarised, so every input collapses
    # onto the vacuum label while the sender's populations ride along.
    spec = ChainSpec.uniform(6, n=2)
    a = map_from_evolution(spec, 2, 0.0).as_tensor()
    expected = np.zeros_like(a)
    for n in range(4):
        expected[0, 0, n, n] = 1.0
    assert np.max(np.abs(a - expected)) <= 1e-12
    analytic = two_qubit_map(chain_transition_matrix(spec, 0.0), 6).as_tensor()
    assert np.max(np.abs(analytic - expected)) <= 1e-12


def test_tensor_product_identities():
    assert np.array_equal(
        tensor_product(identity_map(2), identity_map(2)).elements, identity_map(4).elements
    )
    for f in (0.0, 0.45, 1.0):
        for n in (1, 2, 3):
            m = independent_channels_map(f, n)
            assert avg_fidelity_from_map(m) == pytest.approx(
                independent_channels_fidelity(f, n), abs=1e-12
            )
    both = (
        avg_fidelity_from_map(tensor_product(one_qubit_map(0.0), one_qubit_map(1.0))),
        avg_fidelity_from_map(tensor_product(one_qubit_map(1.0), one_qubit_map(0.0))),
    )
    assert both[0] == pytest.approx(both[1], abs=1e-12)


def test_independent_channels_map_matches_the_tensor_product():
    for f in (0.0, 0.73, 1.0, 0.6 * np.exp(0.7j), -0.35 + 0.2j):
        for n in (1, 2, 3, 4):
            built = independent_channels_map(f, n)
            product = reduce(tensor_product, [one_qubit_map(f)] * n)
            assert np.max(np.abs(built.elements - product.elements)) <= 1e-15


@pytest.mark.parametrize("n", [0, -1])
def test_independent_channels_map_needs_a_channel(n):
    with pytest.raises(ValueError, match="need at least one channel"):
        independent_channels_map(0.5, n)


@pytest.mark.parametrize(
    "d, elements, message",
    [
        (2, np.eye(2), "expected a 4 x 4 matrix"),
        (2, np.eye(16), "expected a 4 x 4 matrix"),
        (0, np.eye(1), "expected a 0 x 0 matrix"),
        (1, [[np.nan]], "finite"),
        (2, np.where(np.eye(4) == 1, np.inf, 0.0), "finite"),
    ],
    ids=["too-small", "too-large", "no-dimension", "nan", "inf"],
)
def test_map_elements_are_checked(d, elements, message):
    with pytest.raises(ValueError, match=message):
        DynamicalMap(d, elements)


def test_two_qubit_map_checks_the_matrix_size():
    F = chain_transition_matrix(ChainSpec.uniform(6, n=2), 1.0)
    with pytest.raises(ValueError, match="does not match N=7"):
        two_qubit_map(F, 7)
    with pytest.raises(ValueError, match="at least 4 sites"):
        two_qubit_map(np.eye(3, dtype=complex), 3)


def test_evaluator_rejects_states_of_another_dimension():
    evaluate = fidelity_evaluator(independent_channels_map(0.5, 2))
    for dim in (2, 8):
        with pytest.raises(ValueError, match="states must have dimension 4"):
            evaluate(np.eye(dim)[:1])


def test_map_from_evolution_rejects_a_block_the_spec_does_not_have():
    for spec in (ChainSpec.uniform(6, n=2), ChainSpec.from_dict(
            {**ChainSpec.uniform(6, n=2).to_dict(), "delta": 0.3})):
        with pytest.raises(ValueError, match="block size mismatch"):
            map_from_evolution(spec, 1, 1.0)


def test_validate_cptp_reports():
    for m in (identity_map(4), classical_transfer_map(8)):
        rep = validate_cptp(m)
        assert rep.passed
        assert rep.trace_preservation == 0.0
        assert rep.hermiticity_pairing == 0.0
        assert rep.choi_min_eigenvalue >= -1e-12

    broken = identity_map(2).as_tensor().copy()
    broken[0, 0, 0, 0] = 2.0
    rep = validate_cptp(DynamicalMap(d=2, elements=broken.reshape(4, 4)))
    assert not rep.passed
    assert "trace_preservation" in rep.failures
    assert "diagonal_bounds" in rep.failures


def test_constructed_maps_pass_validation():
    rng = np.random.default_rng(77)
    maps = [identity_map(8), classical_transfer_map(4)]
    for _ in range(6):
        f = rng.uniform(0, 1) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        maps.append(one_qubit_map(f))
    for _ in range(4):
        spec = ChainSpec.uniform(int(rng.integers(4, 8)), n=2)
        t = rng.uniform(0, 30)
        maps.append(two_qubit_map(chain_transition_matrix(spec, t), spec.N))
        maps.append(map_from_evolution(spec, 2, t))
    maps.append(independent_channels_map(0.8, 3))
    for m in maps:
        assert validate_cptp(m).passed


def test_choi_of_identity_is_rank_one():
    c = choi_matrix(identity_map(4))
    eigs = np.linalg.eigvalsh(c)
    assert eigs[-1] == pytest.approx(4.0)
    assert np.max(np.abs(eigs[:-1])) <= 1e-12


def test_half_time_composition_differs():
    # The transfer map is not a semigroup: running two half-steps re-polarises
    # the channel in between and must NOT reproduce the single full step.
    spec = ChainSpec.uniform(5, n=1)
    t = 3.6
    full = map_from_evolution(spec, 1, t).elements
    half = map_from_evolution(spec, 1, t / 2).elements
    assert np.max(np.abs(half @ half - full)) > 1e-3


def test_evaluator_matches_direct_application():
    rng = np.random.default_rng(31)
    spec = ChainSpec.uniform(6, n=2)
    m = map_from_evolution(spec, 2, 7.9)
    ev = fidelity_evaluator(m)
    for _ in range(5):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        rho_out = apply_map(m, np.outer(psi, psi.conj()))
        direct = np.vdot(psi, rho_out @ psi).real
        assert ev(psi[None, :])[0] == pytest.approx(direct, abs=1e-12)


def test_amplitude_route_equals_map_route():
    from spintransfer.amplitudes import transfer_amplitudes
    from spintransfer.fidelity import fidelity_terms

    rng = np.random.default_rng(55)
    for N, n in ((6, 1), (8, 2), (8, 3), (10, 3)):
        spec = ChainSpec.uniform(N, n=n)
        for t in rng.uniform(0, 40, size=3):
            amps = transfer_amplitudes(chain_transition_matrix(spec, t), n)
            values = amps.entries.values()
            via_amp = fidelity_terms(values, 2**n, 1 + sum(values)).total
            via_map = avg_fidelity_from_map(map_from_evolution(spec, n, t))
            assert abs(via_amp - via_map) <= 1e-9


def _anisotropic(N: int, n: int, delta: float) -> ChainSpec:
    return replace(ChainSpec.uniform(N, n=n), delta=delta)


# Maps of every kernel shape d = 2, 4, 8, 16.
KERNEL_MAPS = {
    "classical-2": lambda: classical_transfer_map(2),
    "classical-4": lambda: classical_transfer_map(4),
    "classical-8": lambda: classical_transfer_map(8),
    "classical-16": lambda: classical_transfer_map(16),
    "independent-n1": lambda: independent_channels_map(0.6, 1),
    "independent-n2": lambda: independent_channels_map(0.6, 2),
    "independent-n3": lambda: independent_channels_map(0.6, 3),
    "independent-n4": lambda: independent_channels_map(0.6, 4),
    "uniform8-n3": lambda: map_from_evolution(ChainSpec.uniform(8, n=3), 3, 4.7),
    "delta10-n3": lambda: map_from_evolution(_anisotropic(10, 3, 0.3), 3, 7.5),
    "delta10-n4": lambda: map_from_evolution(_anisotropic(10, 4, 0.3), 4, 7.5),
}


def _direct_fidelity(m: DynamicalMap, psi: np.ndarray) -> float:
    return np.vdot(psi, apply_map(m, np.outer(psi, psi.conj())) @ psi).real


@pytest.mark.parametrize("name", KERNEL_MAPS)
def test_evaluator_matches_direct_application_on_every_batch_shape(name):
    m = KERNEL_MAPS[name]()
    ev = fidelity_evaluator(m)
    rng = np.random.default_rng(8)
    for batch in (haar_states(m.d, 1, rng), haar_states(m.d, 3, rng)):
        direct = [_direct_fidelity(m, psi) for psi in batch]
        np.testing.assert_allclose(ev(batch), direct, rtol=0.0, atol=1e-12)
    psi = haar_states(m.d, 1, rng)[0]
    np.testing.assert_allclose(ev(psi), [_direct_fidelity(m, psi)], rtol=0.0, atol=1e-12)

    # More than one chunk through the sampler: check the states at both ends
    # of every chunk and a stride through the rest.
    seen = []

    def recording(states):
        seen.append(states)
        return ev(states)

    chunk = _chunk_size(m.d)
    values = sample_fidelity_values(recording, m.d, chunk + 3, seed=5)
    assert [len(s) for s in seen] == [chunk, 3]
    states = np.concatenate(seen)
    picked = np.unique(np.r_[0 : chunk + 3 : chunk // 200, chunk - 2 : chunk + 3])
    direct = [_direct_fidelity(m, states[k]) for k in picked]
    np.testing.assert_allclose(values[picked], direct, rtol=0.0, atol=1e-12)


@pytest.mark.parametrize(
    "spec, n",
    [(ChainSpec.uniform(8, n=3), 3), (_anisotropic(10, 3, 0.3), 3), (_anisotropic(10, 4, 0.3), 4)],
    ids=["uniform8-n3", "delta10-n3", "delta10-n4"],
)
def test_map_assembly_matches_environment_loop(spec, n):
    for t in (0.0, 2.2, 7.5):
        loop = map_by_environment_loop(receiver_amplitude_tensor(spec, n, t))
        assert np.max(np.abs(map_from_evolution(spec, n, t).elements - loop)) <= 1e-13


def test_evaluator_holds_at_most_two_state_arrays():
    """One evaluate call on a full d=16 chunk allocates about two (batch, d^2) complex arrays."""
    d = 16
    batch = _chunk_size(d)
    ev = fidelity_evaluator(independent_channels_map(0.6, 4))
    states = haar_states(d, batch, np.random.default_rng(2))
    unit = batch * d * d * np.dtype(complex).itemsize
    tracemalloc.start()
    try:
        ev(states)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.25 * unit, f"peak {peak / unit:.2f} arrays of batch x d^2"


@st.composite
def anisotropic_chains(draw):
    """Random chains with N in 4..10, n in 1..3 and zz-anisotropy delta in [-1, 1]."""
    spec, n = draw(
        free_fermion_chains(st.integers(4, 10), lambda N: st.integers(1, min(3, N // 2)))
    )
    return replace(spec, delta=draw(st.floats(-1.0, 1.0))), n


@settings(derandomize=True, deadline=None, max_examples=60)
@given(chain=anisotropic_chains(), t=st.floats(0.0, 50.0))
def test_evolution_maps_of_random_chains_are_cptp_and_round_trip(chain, t):
    spec, n = chain
    m = map_from_evolution(spec, n, t)
    report = validate_cptp(m)
    assert report.passed, report.failures
    # The map round-trips through the Kraus tensor it keeps.
    assert _stored_gram(m.kraus).tobytes() == m.elements.tobytes()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(chain=anisotropic_chains())
def test_chain_spec_json_round_trips(chain):
    spec, _ = chain
    again = ChainSpec.from_json(spec.to_json())
    assert again == spec
    assert again.to_json() == spec.to_json()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    chain=free_fermion_chains(st.integers(4, 10), lambda N: st.integers(1, min(4, N // 2))),
    t=st.floats(0.0, 50.0),
)
def test_block_builder_matches_sector_oracle(chain, t):
    """Zero-anisotropy maps come from B(t) alone; the sector engine stays their oracle."""
    spec, n = chain
    oracle_map = map_by_environment_loop(receiver_amplitude_tensor(spec, n, t))
    assert np.max(np.abs(map_from_evolution(spec, n, t).elements - oracle_map)) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(chain=free_fermion_chains(st.integers(4, 10), lambda N: st.just(2)), t=st.floats(0.0, 50.0))
def test_two_qubit_maps_of_random_chains_are_cptp_and_match_evolution(chain, t):
    spec, n = chain
    m = two_qubit_map(chain_transition_matrix(spec, t), spec.N)
    report = validate_cptp(m)
    assert report.passed, report.failures
    assert np.max(np.abs(m.elements - map_from_evolution(spec, n, t).elements)) <= 1e-10


def _random_free_fermion_chain(N: int, n: int, rng: np.random.Generator) -> ChainSpec:
    couplings = rng.uniform(0.05, 2.0, N - 1)
    couplings[N - n - 1] = couplings[n - 1]
    return ChainSpec(
        N=N,
        couplings=couplings,
        fields=rng.uniform(-1.0, 1.0, N),
        sender_sites=tuple(range(1, n + 1)),
        receiver_sites=tuple(range(N - n + 1, N + 1)),
        J0=couplings[n - 1],
    )


@pytest.mark.parametrize("N, n", [(13, 5), (12, 6)])
def test_block_builder_matches_sector_oracle_at_five_and_six_qubits(N, n):
    rng = np.random.default_rng(N)
    spec = _random_free_fermion_chain(N, n, rng)
    t = float(rng.uniform(0.0, 50.0))
    d = 2**n
    built = map_from_evolution(spec, n, t).as_tensor()
    tensor = receiver_amplitude_tensor(spec, n, t)  # [sender state, env, receiver label]
    # At n = 6 the environment loop would add 64 outer products of 4^6 x 4^6
    # elements (268 MB each), so it runs on three random halves of the basis
    # instead, taken for both the sender states and the receiver labels.
    if d <= 32:
        picks = [np.arange(d)]
    else:
        picks = [np.sort(rng.choice(d, 32, replace=False)) for _ in range(3)]
    for pick in picks:
        oracle_map = map_by_environment_loop(tensor[pick][:, :, pick])
        sub = built[np.ix_(pick, pick, pick, pick)].reshape(len(pick) ** 2, -1)
        assert np.max(np.abs(sub - oracle_map)) <= 1e-12


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    chain=free_fermion_chains(st.integers(4, 10), lambda N: st.integers(1, min(4, N // 2))),
    t=st.floats(0.0, 50.0),
)
def test_kraus_tensor_is_an_isometry(chain, t):
    """sum_{i,e} conj(T[P,i,e]) T[Q,i,e] = delta_PQ: the n-mode environment loses no norm."""
    spec, n = chain
    tensor = _kraus_from_block(transfer_block_series(spectral(spec), n, [t])[..., 0])
    gram = np.einsum("pie,qie->pq", tensor.conj(), tensor)
    assert np.max(np.abs(gram - np.eye(2**n))) <= 1e-13


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_non_contractive_block_is_caught(n, monkeypatch):
    """A block B(t) with a singular value above 1 gives G = I - B B^dagger a negative eigenvalue."""
    spec = ChainSpec.uniform(2 * n + 3, n=n)
    u, s, vh = np.linalg.svd(transfer_block_series(spectral(spec), n, [4.1])[..., 0])
    s[0] = 1.0 + 1e-6
    monkeypatch.setattr(dynmap, "transfer_block_series", lambda *args: ((u * s) @ vh)[..., None])
    with pytest.raises(MapConstructionError):
        map_from_evolution(spec, n, 4.1)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_unitary_block_gives_the_identity_map(n):
    """B = I leaves G = 0: the environment stays empty and the map is the identity."""
    elements = _stored_gram(_kraus_from_block(np.eye(n, dtype=complex)))
    assert np.max(np.abs(elements - identity_map(2**n).elements)) <= 1e-15


def test_zero_anisotropy_maps_have_no_chain_length_cap():
    spec = ChainSpec.weak_coupling(wire_length=392, n=4, J0=0.01)  # N = 400
    t = 1234.5
    _sector.cache_clear()
    m = map_from_evolution(spec, 4, t)
    assert _sector.cache_info().misses == 0  # no excitation sector was built
    assert validate_cptp(m).passed
    assert abs(avg_fidelity_from_map(m) - scan_values(spec, 4, np.array([t]))[0]) <= 1e-12
    # With zz-anisotropy only the sector engine applies, and C(400, 2) exceeds its cap.
    with pytest.raises(DimensionCapError):
        map_from_evolution(replace(spec, delta=0.3), 4, t)


def _kraus_channel(d: int, rank: int, rng: np.random.Generator) -> DynamicalMap:
    """Random CPTP map from the Kraus operators K_x[i, P] = T[P, i, x] of a random isometry."""
    kraus = random_unitary(d * rank, rng)[:, :d].reshape(rank, d, d)
    return dynmap._gram_map(kraus.transpose(2, 1, 0), "random channel")


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    dims=st.sampled_from([(2, 2), (2, 4), (4, 2), (4, 4), (2, 8), (8, 2)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_products_of_random_channels_are_cptp(dims, seed):
    """Products of random CPTP channels pass tensor_product's own check and validate_cptp."""
    rng = np.random.default_rng(seed)
    a, b = (_kraus_channel(d, int(rng.integers(1, d * d + 1)), rng) for d in dims)
    report = validate_cptp(tensor_product(a, b))
    assert report.passed, report.failures


def _transpose_map() -> DynamicalMap:
    """rho -> rho^T on a qubit: positive, passes every algebraic check, not completely positive."""
    a = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            a[i, j, j, i] = 1.0
    return DynamicalMap(d=2, elements=a.reshape(4, 4))


def test_tensor_product_with_a_non_cp_factor_raises():
    """A map given by its elements alone, like this non-CP one, has no Kraus tensor to multiply."""
    transpose = _transpose_map()
    assert validate_cptp(transpose).failures == ("choi_positivity",)
    assert transpose.kraus is None
    for a, b in ((transpose, identity_map(2)), (identity_map(2), transpose),
                 (transpose, independent_channels_map(0.5, 4))):
        with pytest.raises(ValueError, match="Kraus tensor"):
            tensor_product(a, b)


def test_map_elements_are_read_only_and_the_callers_array_is_not_frozen():
    m = identity_map(2)
    with pytest.raises(ValueError, match="read-only"):
        m.elements[0, 0] = 5
    elements = np.eye(4, dtype=complex)
    DynamicalMap(2, elements)
    assert elements.flags.writeable


def test_element_only_maps_have_no_evaluator_and_kept_tensors_are_read_only():
    with pytest.raises(ValueError, match="Kraus tensor"):
        fidelity_evaluator(_transpose_map())
    for m in (identity_map(4), tensor_product(one_qubit_map(0.5), one_qubit_map(0.3j))):
        with pytest.raises(ValueError, match="read-only"):
            m.kraus[0, 0, 0] = 2.0


def _at_transfer_time(spec: ChainSpec) -> DynamicalMap:
    n = spec.block_size
    return map_from_evolution(spec, n, resonance_report(spec, n).transfer_time)


SAMPLED_MAPS = {
    "weak15-tau": lambda: _at_transfer_time(ChainSpec.weak_coupling(wire_length=9, n=3, J0=0.01)),
    "eng18-tau": lambda: _at_transfer_time(ChainSpec.weak_coupling(
        wire_length=10, n=4, J0=0.01, sender_coupling=engineered_sender_coupling(10, k=2, s=1)
    )),
    "aniso16-12.3": lambda: map_from_evolution(
        replace(ChainSpec.weak_coupling(wire_length=8, n=4, J0=1.0), delta=0.3), 4, 12.3
    ),
    "independent-0.7-n3": lambda: independent_channels_map(0.7, 3),
}


@pytest.mark.parametrize("name", SAMPLED_MAPS)
def test_kraus_evaluator_matches_the_element_quadratic_form(name):
    """The evaluator's rank-compressed Kraus factor gives every sample within 1e-14."""
    m = SAMPLED_MAPS[name]()
    ev = fidelity_evaluator(m)
    rng = np.random.default_rng(16)
    for states in (haar_states(m.d, 2000, rng), product_states(m.d.bit_length() - 1, 2000, rng)):
        assert np.max(np.abs(ev(states) - element_fidelities(m, states))) <= 1e-14


def _kraus_sum(kraus: np.ndarray, states: np.ndarray) -> np.ndarray:
    """sum_x |<psi|K_x|psi>|^2 of each state row, with K_x[i, P] = T[P, i, x]."""
    y = np.einsum("sP,Pix,si->sx", states, kraus, states.conj())
    return np.sum(np.abs(y) ** 2, axis=1)


def _random_kraus(d: int, k: int, rng: np.random.Generator) -> np.ndarray:
    return rng.standard_normal((d, d, k)) + 1j * rng.standard_normal((d, d, k))


def _holed_kraus() -> np.ndarray:
    """Two dense blocks sharing no row or column, plus an all-zero row (P, i) and column x."""
    kraus = _random_kraus(4, 7, np.random.default_rng(3))
    rows = kraus.reshape(16, 7)
    rows[:8, 3:] = 0.0
    rows[8:, :3] = 0.0
    rows[11] = 0.0
    rows[:, 5] = 0.0
    return kraus


KRAUS_TENSORS = {
    "aniso16-12.3": lambda: SAMPLED_MAPS["aniso16-12.3"]().kraus,
    "independent-0.6-n4": lambda: independent_channels_map(0.6, 4).kraus,
    "dense-random": lambda: _random_kraus(8, 11, np.random.default_rng(4)),
    "zero-row-and-column": _holed_kraus,
    "all-zero": lambda: np.zeros((4, 4, 5), dtype=complex),
}


@pytest.mark.parametrize("name", KRAUS_TENSORS)
def test_block_evaluator_matches_the_kraus_sum(name):
    """Per-block factors give sum_x |<psi|K_x|psi>|^2 within 1e-14, with one block or many."""
    kraus = KRAUS_TENSORS[name]()
    d = kraus.shape[0]
    ev = fidelity_evaluator(DynamicalMap(d, _stored_gram(kraus), kraus))
    rng = np.random.default_rng(17)
    states = haar_states(d, 500, rng)
    scale = max(1.0, float(np.linalg.norm(kraus)) ** 2 / d)  # the random tensors are not trace preserving
    assert np.max(np.abs(ev(states) - _kraus_sum(kraus, states))) <= 1e-14 * scale
    if name == "all-zero":
        assert ev(states).tobytes() == np.zeros(500).tobytes()


def test_connected_blocks_of_the_kraus_tensor():
    """aniso16's five excitation-number blocks; a dense tensor is one block; zeros join nothing."""
    d = 16
    blocks = _connected_blocks(SAMPLED_MAPS["aniso16-12.3"]().kraus.reshape(d * d, -1))
    assert [(r.size, c.size) for r, c in blocks] == [(70, 1), (56, 12), (28, 66), (8, 220), (1, 495)]
    dense = _random_kraus(3, 5, np.random.default_rng(5)).reshape(9, 5)
    [(rows, columns)] = _connected_blocks(dense)
    assert rows.tolist() == list(range(9)) and columns.tolist() == list(range(5))
    holed = [(r.tolist(), c.tolist()) for r, c in _connected_blocks(_holed_kraus().reshape(16, 7))]
    assert holed == [(list(range(8)), [0, 1, 2]), ([8, 9, 10, 12, 13, 14, 15], [3, 4, 6])]
    assert _connected_blocks(np.zeros((4, 5))) == []


def test_connected_blocks_of_a_pattern_with_its_diagonal_set_are_principal():
    """Setting the diagonal joins row i to column i; without it a zero-diagonal pair splits."""
    pair = [(r.tolist(), c.tolist()) for r, c in _connected_blocks(np.array([[0, 1], [1, 0]]))]
    assert pair == [([1], [0]), ([0], [1])]
    pattern = np.random.default_rng(6).random((12, 12)) < 0.12  # not symmetric
    pattern[5] = pattern[:, 5] = False
    np.fill_diagonal(pattern, True)
    blocks = _connected_blocks(pattern)
    for rows, columns in blocks:
        assert rows.tolist() == columns.tolist()
    assert sorted(np.concatenate([rows for rows, _ in blocks]).tolist()) == list(range(12))
    assert ([5], [5]) in [(r.tolist(), c.tolist()) for r, c in blocks]


def _connected_blocks_by_comprehension(matrix: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The labelling of _connected_blocks, grouped by one np.flatnonzero pass per component."""
    mask = matrix != 0
    label = np.arange(mask.shape[1])
    unreached = mask.shape[1]
    while True:
        row = np.min(np.where(mask, label, unreached), axis=1, initial=unreached)
        fallen = np.min(np.where(mask, row[:, None], label), axis=0, initial=unreached)
        if np.array_equal(fallen, label):
            break
        label = fallen
    roots = np.flatnonzero(label == np.arange(label.size))
    blocks = [(np.flatnonzero(row == c), np.flatnonzero(label == c)) for c in roots]
    return [(rows, columns) for rows, columns in blocks if rows.size]


def _sparse_patterns():
    for name, make in CHOI_MAPS.items():
        choi = choi_matrix(make())
        pattern = (choi != 0) | (choi.T != 0)
        np.fill_diagonal(pattern, True)
        yield name, pattern
        yield name + "-raw", choi
    yield "independent-n5-kraus", independent_channels_map(0.6, 5).kraus.reshape(32 * 32, -1)
    rng = np.random.default_rng(31)
    for k in range(20):
        shape = tuple(rng.integers(1, 60, size=2))
        yield f"random-{k}", rng.random(shape) < rng.uniform(0.0, 0.08)


def test_connected_blocks_group_like_one_pass_per_component():
    """The sorted grouping gives the blocks, in the order, of a flatnonzero pass per component."""
    counts = {}
    for name, pattern in _sparse_patterns():
        got, want = _connected_blocks(pattern), _connected_blocks_by_comprehension(pattern)
        assert len(got) == len(want), name
        for (rows, columns), (rows_ref, columns_ref) in zip(got, want):
            assert rows.tolist() == rows_ref.tolist() and columns.tolist() == columns_ref.tolist()
        counts[name] = len(got)
    assert counts["independent-n5-kraus"] == 32


def _perturbed(m: DynamicalMap, changes: dict) -> DynamicalMap:
    """A map given by its elements alone: m's, plus each value of changes at its index [i, j, n, m]."""
    a = m.as_tensor().copy()
    for index, value in changes.items():
        a[index] += value
    return DynamicalMap(d=m.d, elements=a.reshape(m.d**2, m.d**2))


# Maps given by their elements alone that fail validate_cptp, with the failures it reports.
BROKEN_MAPS = {
    "diagonal-entry-2": (
        lambda: _perturbed(identity_map(2), {(0, 0, 0, 0): 1.0}),
        ("trace_preservation", "diagonal_bounds", "total_sum"),
    ),
    "leaked-population": (
        lambda: _perturbed(identity_map(2), {(0, 0, 1, 1): 0.5}),
        ("trace_preservation", "total_sum"),
    ),
    "transpose": (_transpose_map, ("choi_positivity",)),
    "pairing-broken-product": (
        # Its entry's partner [2, 31, 7, 5] is left alone.
        lambda: _perturbed(independent_channels_map(0.6, 5), {(31, 2, 5, 7): 0.3j}),
        ("hermiticity_pairing", "choi_positivity"),
    ),
}


@pytest.mark.parametrize("name", BROKEN_MAPS)
def test_broken_maps_report_exactly_their_failures(name):
    make, failures = BROKEN_MAPS[name]
    report = validate_cptp(make())
    assert not report.passed
    assert report.failures == failures


PAIR_ENTRY = 0.3 * np.exp(0.4j)


def _zero_diagonal_pair() -> DynamicalMap:
    """The qubit identity plus c on Choi entry [(0,1)][(1,0)] and conj(c) on its transpose.

    Choi rows (0,1) and (1,0) are otherwise zero, so every other check still passes.
    """
    return _perturbed(identity_map(2), {(1, 0, 0, 1): np.conj(PAIR_ENTRY), (0, 1, 1, 0): PAIR_ENTRY})


def test_a_zero_diagonal_choi_pair_keeps_its_negative_eigenvalue():
    """The Hermitian part holds [[0, c], [conj c, 0]] on two rows, whose eigenvalues are +-|c|."""
    m = _zero_diagonal_pair()
    choi = choi_matrix(m)
    assert choi[1, 1] == choi[2, 2] == 0 and choi[1, 2] == PAIR_ENTRY
    report = validate_cptp(m)
    assert report.choi_min_eigenvalue == pytest.approx(-abs(PAIR_ENTRY), abs=1e-15)
    assert report.failures == ("choi_positivity",)


def _random_elements(d: int, seed: int) -> DynamicalMap:
    rng = np.random.default_rng(seed)
    return DynamicalMap(d, rng.standard_normal((d * d, d * d)) + 1j * rng.standard_normal((d * d, d * d)))


CHOI_MAPS = {
    **SAMPLED_MAPS,
    "uniform10-n5": lambda: map_from_evolution(ChainSpec.uniform(10, n=5), 5, 7.3),
    **{f"dense-random-d{d}": lambda d=d: _random_elements(d, d) for d in (2, 3, 5, 8)},
    **{name: make for name, (make, _) in BROKEN_MAPS.items()},
    "zero-diagonal-pair": _zero_diagonal_pair,
}


def _whole_array_pairing(m: DynamicalMap) -> float:
    a = m.as_tensor()
    return float(np.max(np.abs(a - a.transpose(1, 0, 3, 2).conj())))


def _assert_choi_min_matches_full_eigvalsh(m: DynamicalMap) -> None:
    """Within 1e-12 max(1, ||H||_2) of eigvalsh of the whole Hermitian part H (||H||_2 <= ||C||_2).

    The pairing read from the same blocks equals the whole-array comparison exactly.
    """
    choi = choi_matrix(m)
    full = np.linalg.eigvalsh((choi + choi.conj().T) / 2.0)
    scale = max(1.0, abs(full[0]), abs(full[-1]))
    report = validate_cptp(m)
    assert abs(report.choi_min_eigenvalue - full[0]) <= 1e-12 * scale
    assert report.hermiticity_pairing == _whole_array_pairing(m)


@pytest.mark.parametrize("name", CHOI_MAPS)
def test_block_choi_eigenvalue_matches_the_full_eigvalsh(name, monkeypatch):
    """Excitation-number conservation splits the Choi matrix; a dense one is a single block."""
    m = CHOI_MAPS[name]()
    blocks = []
    find = dynmap._connected_blocks

    def recording(pattern):
        blocks[:] = find(pattern)
        return blocks

    monkeypatch.setattr(dynmap, "_connected_blocks", recording)
    _assert_choi_min_matches_full_eigvalsh(m)
    sizes = [rows.size for rows, _ in blocks]  # the blocks of more than one row
    if name.startswith("dense-random"):
        assert sizes == [m.d**2]
    if name in ("eng18-tau", "aniso16-12.3"):
        assert sorted(sizes) == [8, 28, 56, 70]


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    chain=free_fermion_chains(st.integers(4, 10), lambda N: st.integers(1, min(4, N // 2))),
    delta=st.one_of(st.just(0.0), st.floats(-1.0, 1.0).filter(bool)),
    t=st.floats(0.0, 50.0),
)
def test_block_choi_eigenvalue_matches_the_full_eigvalsh_on_random_chains(chain, delta, t):
    spec, n = chain
    _assert_choi_min_matches_full_eigvalsh(map_from_evolution(replace(spec, delta=delta), n, t))


def test_hermiticity_pairing_is_read_from_the_choi_blocks():
    """The pairing equals the whole-array comparison; the check holds about one Choi matrix."""
    product = independent_channels_map(0.6, 5)  # d = 32, 16.8 MB
    tracemalloc.start()
    try:
        validate_cptp(product)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * product.elements.nbytes, f"peak {peak / product.elements.nbytes:.2f} maps"

    broken = product.as_tensor().copy()
    broken[31, 2, 5, 7] += 0.3j  # its partner [2, 31, 7, 5] is left alone
    maps = [
        identity_map(4),
        product,
        map_from_evolution(ChainSpec.uniform(10, n=5), 5, 7.3),
        DynamicalMap(d=32, elements=broken.reshape(1024, 1024)),
    ]
    for m in maps:
        assert validate_cptp(m).hermiticity_pairing == _whole_array_pairing(m)
    assert validate_cptp(maps[-1]).hermiticity_pairing >= 0.3


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -1.0])
def test_validate_cptp_rejects_a_meaningless_tolerance(tolerance, monkeypatch):
    """NaN or inf would pass any map and a negative tolerance fail every one: both raise first."""

    def no_work(m):
        raise AssertionError("the map was checked")

    broken = BROKEN_MAPS["diagonal-entry-2"][0]()
    monkeypatch.setattr(dynmap, "_choi_deviations", no_work)
    monkeypatch.setattr(dynmap, "_element_deviations", no_work)
    with pytest.raises(ValueError, match="tolerance"):
        validate_cptp(broken, tolerance)


def test_map_assembly_holds_about_one_map():
    """A warm N=12, n=5 build writes the stored layout slab by slab, never a second full map."""
    spec = ChainSpec.weak_coupling(wire_length=2, n=5, J0=0.3)
    for delta, bound in ((0.0, 1.25), (0.3, 1.5)):
        chain = replace(spec, delta=delta)
        nbytes = map_from_evolution(chain, 5, 7.3).elements.nbytes  # warms the sector cache
        tracemalloc.start()
        try:
            map_from_evolution(chain, 5, 7.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * nbytes, f"delta={delta}: peak {peak / nbytes:.2f} maps"


def _choi_bound_and_report(spec: ChainSpec, n: int, t: float):
    m = map_from_evolution(spec, n, t)
    return dynmap._gram_choi_bound(dynmap._evolution_amplitudes(spec, n, t)), validate_cptp(m)


@settings(derandomize=True, deadline=None, max_examples=80)
@given(
    chain=free_fermion_chains(st.integers(4, 10), lambda N: st.integers(1, min(4, N // 2))),
    delta=st.one_of(st.just(0.0), st.floats(-1.0, 1.0)),
    t=st.floats(0.0, 50.0),
)
def test_gram_choi_bound_covers_the_least_choi_eigenvalue(chain, delta, t):
    """The a-priori rounding bound from T is at least -lambda_min that validate_cptp reports."""
    spec, n = chain
    bound, report = _choi_bound_and_report(replace(spec, delta=delta), n, t)
    assert report.passed, report.failures
    assert bound >= -report.choi_min_eigenvalue
    assert report.hermiticity_pairing <= bound
    assert bound <= 1e-10  # far below VALIDATION_TOL


def test_gram_choi_bound_covers_the_least_choi_eigenvalue_at_five_qubits():
    rng = np.random.default_rng(5)
    bound, report = _choi_bound_and_report(_random_free_fermion_chain(13, 5, rng), 5, 17.9)
    assert report.passed, report.failures
    assert 0.0 < bound <= 1e-10
    assert bound >= -report.choi_min_eigenvalue
    assert report.hermiticity_pairing <= bound


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gram_built_maps_are_not_diagonalised_on_construction(n, monkeypatch):
    """Gram-built maps certify Choi positivity without eigvalsh; validate_cptp still diagonalises."""

    def no_eigvalsh(m):
        raise AssertionError("the Choi matrix was diagonalised")

    monkeypatch.setattr(dynmap, "_choi_deviations", no_eigvalsh)
    f = 0.6 * np.exp(0.7j)
    maps = [map_from_evolution(_anisotropic(2 * n + 2, n, delta), n, 6.1) for delta in (0.0, 0.3)]
    maps.append(independent_channels_map(f, n))
    maps += [identity_map(2**n), classical_transfer_map(2**n)]
    maps.append(tensor_product(independent_channels_map(f, n), one_qubit_map(f)))
    if n == 1:
        maps.append(one_qubit_map(f))
    if n == 2:
        spec = ChainSpec.uniform(7, n=2)
        maps.append(two_qubit_map(chain_transition_matrix(spec, 6.1), spec.N))
    for m in maps:
        with pytest.raises(AssertionError, match="diagonalised"):
            validate_cptp(m)


def test_gram_choi_bound_is_compared_with_the_tolerance(monkeypatch):
    monkeypatch.setattr(dynmap, "_gram_choi_bound", lambda amplitudes: 2 * dynmap.VALIDATION_TOL)
    for delta in (0.0, 0.3):
        with pytest.raises(MapConstructionError):
            map_from_evolution(_anisotropic(8, 3, delta), 3, 6.1)


def test_array_holding_dataclasses_compare_and_hash_by_identity():
    """Frozen dataclasses with ndarray fields use identity equality, so == and hash() work."""
    factories = [
        lambda: identity_map(2),
        lambda: EigenDecomposition(eigenvalues=np.zeros(2), eigenvectors=np.eye(2)),
        lambda: PureState(2, np.array([1.0, 0.0])),
        lambda: FidelityScan(
            times=np.zeros(2),
            fidelity=np.ones(2),
            classical_term=np.ones(2),
            quantum_term=np.zeros(2),
            envelope=None,
            amplitudes={(1,): np.ones(2)},
        ),
        lambda: ProtocolResult(
            optimal_time=1.0,
            fidelity_at_optimum=1.0,
            cluster=None,
            times=np.zeros(2),
            fidelity=np.ones(2),
            readout_times=np.zeros(1),
            refinement_rounds=1,
            lobe_rank=1,
        ),
        lambda: FidelityStats(np.full(2, 0.5), np.full(2, 0.05)),
    ]
    for make in factories:
        a, b = make(), make()
        assert a != b  # equal contents, distinct objects
        hash(a)
        assert a == a
