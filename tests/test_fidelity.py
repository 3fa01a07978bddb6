import math

import numpy as np
import pytest

from spintransfer.amplitudes import TransferAmplitudeSet, chain_transition_matrix, transfer_amplitudes
from spintransfer.basis import subsets_by_excitation
from spintransfer.chain import ChainSpec
from spintransfer.dynmap import (
    DynamicalMap,
    classical_transfer_map,
    fidelity_evaluator,
    identity_map,
    independent_channels_map,
    map_from_evolution,
    one_qubit_map,
)
from spintransfer.errors import MapValidationError
from spintransfer.fidelity import (
    FidelityStats,
    amplitude_for_fidelity,
    avg_fidelity_from_amplitudes,
    avg_fidelity_from_map,
    avg_fidelity_two_qubit,
    independent_channels_fidelity,
    product_ratio_vs_amplitude,
    product_ratio_vs_fidelity,
    product_state_variance,
    second_moment_from_map,
    stats_from_map,
    transfer_fidelity_terms,
)
from spintransfer.oracle import sample_fidelity_values

LOCC_AMPLITUDE = math.sqrt(2.0) - 1.0


@pytest.mark.parametrize("d", [2, 4, 8, 16])
def test_identity_and_classical_limits(d):
    assert avg_fidelity_from_map(identity_map(d)) == pytest.approx(1.0, abs=1e-12)
    assert second_moment_from_map(identity_map(d)) == pytest.approx(1.0, abs=1e-12)
    assert avg_fidelity_from_map(classical_transfer_map(d)) == pytest.approx(
        2.0 / (d + 1), abs=1e-12
    )


def test_single_qubit_closed_form():
    for f in np.linspace(0.0, 1.0, 50):
        expected = 0.5 + f**2 / 6.0 + f / 3.0
        assert avg_fidelity_from_map(one_qubit_map(f)) == pytest.approx(expected, abs=1e-12)


def test_locc_threshold_amplitude():
    assert avg_fidelity_from_map(one_qubit_map(LOCC_AMPLITUDE)) == pytest.approx(2.0 / 3.0)


def test_second_moment_of_reset_map():
    # The f=0 map sends everything to the vacuum label, so F = |a_0|^2 and the
    # Haar moments are known exactly: <F> = 1/2, <F^2> = 1/3 at d = 2.
    m = one_qubit_map(0.0)
    assert avg_fidelity_from_map(m) == pytest.approx(0.5, abs=1e-12)
    assert second_moment_from_map(m) == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_second_moment_against_monte_carlo():
    spec = ChainSpec.uniform(8, n=3)
    m = map_from_evolution(spec, 3, 7.7)
    values = sample_fidelity_values(fidelity_evaluator(m), 8, 150_000, seed=2)
    second = (values**2).mean()
    sem = (values**2).std() / np.sqrt(values.size)
    assert abs(second - second_moment_from_map(m)) <= 4 * sem


def test_jensen_inequality_on_chain_maps():
    rng = np.random.default_rng(12)
    spec = ChainSpec.uniform(6, n=2)
    for t in rng.uniform(0, 30, size=5):
        m = map_from_evolution(spec, 2, t)
        mean = avg_fidelity_from_map(m)
        second = second_moment_from_map(m)
        assert mean**2 - 1e-12 <= second <= mean + 1e-12


def test_map_validation_required():
    broken = identity_map(2).as_tensor().copy()
    broken[0, 0, 1, 1] = 0.5
    m = DynamicalMap(d=2, elements=broken.reshape(4, 4))
    with pytest.raises(MapValidationError):
        avg_fidelity_from_map(m)
    with pytest.raises(MapValidationError):
        second_moment_from_map(m)


def test_average_ignores_noncontributing_elements():
    a = identity_map(4).as_tensor().copy()
    a[0, 1, 2, 3] += 0.317  # off the three contributing families
    perturbed = DynamicalMap(d=4, elements=a.reshape(16, 16))
    assert avg_fidelity_from_map(perturbed) == avg_fidelity_from_map(identity_map(4))


def _uniform_amplitudes(n, value):
    return TransferAmplitudeSet(
        block_size=n,
        entries={s: value for s in subsets_by_excitation(n, include_empty=False)},
    )


def test_amplitude_formula_limits():
    for n in (1, 2, 3):
        d = 2**n
        perfect = _uniform_amplitudes(n, 1.0)
        assert avg_fidelity_from_amplitudes(perfect, d) == pytest.approx(1.0, abs=1e-12)
        nothing = _uniform_amplitudes(n, 0.0)
        assert avg_fidelity_from_amplitudes(nothing, d) == pytest.approx(1.0 / d, abs=1e-12)
    with pytest.raises(ValueError):
        avg_fidelity_from_amplitudes(_uniform_amplitudes(2, 1.0), 8)  # wrong dimension


def test_amplitude_decomposition_terms():
    terms = transfer_fidelity_terms(_uniform_amplitudes(3, 1.0), 8)
    # With all transition probabilities saturated the incoherent part reaches
    # the classical benchmark and the coherent part tops up to (d-1)/(d+1).
    assert terms.random_guess + terms.classical == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert terms.quantum == pytest.approx(7.0 / 9.0, abs=1e-12)
    assert terms.total == pytest.approx(1.0, abs=1e-12)


def test_two_qubit_formula_cases():
    assert avg_fidelity_two_qubit(1.0, 1.0, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert avg_fidelity_two_qubit(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-14)
    rng = np.random.default_rng(3)
    for _ in range(5):
        f = rng.uniform(0, 1)
        amps = TransferAmplitudeSet(block_size=2, entries={(1,): f, (2,): f, (1, 2): f**2})
        assert avg_fidelity_two_qubit(f, f, f**2) == pytest.approx(
            avg_fidelity_from_amplitudes(amps, 4), abs=1e-12
        )


def test_two_qubit_formula_matches_chain_routes():
    spec = ChainSpec.uniform(6, n=2)
    rng = np.random.default_rng(8)
    for t in rng.uniform(0, 25, size=4):
        F = chain_transition_matrix(spec, t)
        amps = transfer_amplitudes(F, 2)
        closed = avg_fidelity_two_qubit(
            amps.entries[(1,)], amps.entries[(2,)], amps.entries[(1, 2)]
        )
        assert closed == pytest.approx(avg_fidelity_from_amplitudes(amps, 4), abs=1e-12)


def test_independent_channels_values():
    assert independent_channels_fidelity(LOCC_AMPLITUDE, 1) == pytest.approx(2.0 / 3.0)
    for n in (1, 3, 5):
        assert independent_channels_fidelity(0.0, n) == pytest.approx(2.0**-n)
        assert independent_channels_fidelity(1.0, n) == pytest.approx(1.0)


def test_entanglement_breaks_factorisation():
    n, f = 3, 0.5
    full = independent_channels_fidelity(f, n)
    product = independent_channels_fidelity(f, 1) ** n
    assert product - full > 1e-3


def test_product_ratio_amplitude():
    for n in (1, 2, 4, 6):
        assert product_ratio_vs_amplitude(0.0, n) == pytest.approx(1.0, abs=1e-14)
        assert product_ratio_vs_amplitude(1.0, n) == pytest.approx(1.0, abs=1e-14)
    for f in np.linspace(0.0, 1.0, 23):
        assert product_ratio_vs_amplitude(float(f), 1) == pytest.approx(1.0, abs=1e-13)
        assert product_ratio_vs_amplitude(float(f), 4) >= 1.0 - 1e-12


def test_product_ratio_at_locc_amplitude():
    # Closed form at the classical-threshold amplitude; also reachable by the
    # direct route <F_1>^n / <F_n>.
    for n in range(1, 7):
        expected = 0.5 * ((2.0 / 3.0) ** n + (4.0 / 3.0) ** n)
        got = product_ratio_vs_amplitude(LOCC_AMPLITUDE, n)
        assert got == pytest.approx(expected, abs=1e-12)
        direct = independent_channels_fidelity(LOCC_AMPLITUDE, 1) ** n / (
            independent_channels_fidelity(LOCC_AMPLITUDE, n)
        )
        assert got == pytest.approx(direct, abs=1e-12)


def test_product_ratio_fidelity():
    for n in (1, 2, 5):
        assert product_ratio_vs_fidelity(1.0, n) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        product_ratio_vs_fidelity(0.25, 2)  # at the random-guess floor

    # Maximum sits at the classical benchmark 2/(d+1).
    n = 3
    d = 2**n
    grid = np.linspace(1.0 / d + 1e-6, 1.0, 4001)
    values = [product_ratio_vs_fidelity(float(F), n) for F in grid]
    best = grid[int(np.argmax(values))]
    assert abs(best - 2.0 / (d + 1)) <= grid[1] - grid[0] + 1e-12

    # Large-n limit F^(-1/3) within 1 percent at n = 50.
    for F in (0.3, 0.6, 0.9):
        assert product_ratio_vs_fidelity(F, 50) == pytest.approx(F ** (-1 / 3), rel=0.01)


def test_fidelity_inversion_round_trip():
    for n in (1, 2, 4):
        for F in (0.5, 0.9, 0.999):
            if F <= 2.0**-n:
                continue
            f = amplitude_for_fidelity(F, n)
            assert independent_channels_fidelity(f, n) == pytest.approx(F, abs=1e-12)
    # Route check: R(F) equals <F_1>^n / <F_n> through the inversion.
    F, n = 0.9, 4
    f = amplitude_for_fidelity(F, n)
    direct = independent_channels_fidelity(f, 1) ** n / F
    assert product_ratio_vs_fidelity(F, n) == pytest.approx(direct, abs=1e-12)


def test_product_state_variance():
    stats = FidelityStats.from_moments(0.8, 0.64)  # deterministic fidelity
    assert product_state_variance(stats, 4) == pytest.approx(0.0, abs=1e-12)
    one = stats_from_map(one_qubit_map(0.8))
    assert product_state_variance(one, 1) == pytest.approx(one.variance, abs=1e-15)
    assert product_state_variance(one, 3) >= 0.0


def test_stats_and_cv():
    stats = FidelityStats.from_moments(0.5, 1.0 / 3.0)
    assert stats.cv == pytest.approx(math.sqrt(1.0 / 3.0), abs=1e-12)
    exact = FidelityStats.from_moments(1.0, 1.0)
    assert exact.variance == 0.0
    assert exact.cv == 0.0
    with pytest.raises(ValueError):
        FidelityStats.from_moments(0.0, 0.0)
    with pytest.raises(ValueError):
        FidelityStats.from_moments(0.5, 0.2)  # second moment below mean^2


def test_cv_decreases_towards_perfect_transfer():
    cvs = [stats_from_map(independent_channels_map(f, 2)).cv for f in (0.2, 0.5, 0.8, 1.0)]
    assert all(a > b for a, b in zip(cvs, cvs[1:]))
    assert cvs[-1] == 0.0


def test_variance_clamp():
    stats = FidelityStats.from_moments(1.0, 1.0 - 1e-13)
    assert stats.variance == 0.0
