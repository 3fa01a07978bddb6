import itertools
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from helpers import free_fermion_chains, haar_moments_by_pairings
from hypothesis import given, settings
from hypothesis import strategies as st

from spintransfer import dynmap, fidelity
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
    avg_fidelity_from_map,
    avg_fidelity_two_qubit,
    fidelity_terms,
    independent_channels_fidelity,
    independent_channels_stats,
    product_ratio_vs_amplitude,
    product_ratio_vs_fidelity,
    product_state_stats,
    second_moment_from_map,
    stats_from_map,
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


def _pairing_cases():
    rng = np.random.default_rng(31)
    delta_chain = ChainSpec.from_dict({**ChainSpec.uniform(12, n=3).to_dict(), "delta": 0.3})
    cases = {}
    for d in range(2, 17):
        cases[f"identity-{d}"] = lambda d=d: identity_map(d)
        cases[f"classical-{d}"] = lambda d=d: classical_transfer_map(d)
    for k, f in enumerate(rng.uniform(0, 1, 4) * np.exp(2j * np.pi * rng.uniform(0, 1, 4))):
        cases[f"one-qubit-{k}"] = lambda f=f: one_qubit_map(f)
    for n in (2, 3, 4):
        cases[f"independent-{n}"] = lambda n=n: independent_channels_map(0.6 * np.exp(0.7j), n)
    for N, n in ((6, 1), (8, 2), (10, 3), (10, 4)):
        cases[f"chain-{N}-{n}"] = lambda N=N, n=n: map_from_evolution(ChainSpec.uniform(N, n=n), n, 3.1)
    cases["delta-chain-12-3"] = lambda: map_from_evolution(delta_chain, 3, 7.5)
    return cases


_PAIRING_CASES = _pairing_cases()


@pytest.mark.parametrize("case", list(_PAIRING_CASES))
def test_closed_form_moments_match_haar_pairings(case):
    m = _PAIRING_CASES[case]()
    mean, second = haar_moments_by_pairings(m.as_tensor())
    assert abs(avg_fidelity_from_map(m) - mean) <= 1e-13
    assert abs(second_moment_from_map(m) - second) <= 1e-13


def test_map_validation_required():
    broken = identity_map(2).as_tensor().copy()
    broken[0, 0, 1, 1] = 0.5
    m = DynamicalMap(d=2, elements=broken.reshape(4, 4))
    with pytest.raises(MapValidationError):
        avg_fidelity_from_map(m)
    with pytest.raises(MapValidationError):
        second_moment_from_map(m)


def test_stats_from_map_validates_the_map_once(monkeypatch):
    m = map_from_evolution(ChainSpec.uniform(8, n=2), 2, 3.7)
    calls = []

    def counting(checked):
        calls.append(checked)
        return dynmap.trace_deviation(checked)

    monkeypatch.setattr(fidelity, "trace_deviation", counting)
    stats = stats_from_map(m)
    assert len(calls) == 1
    assert stats.mean == avg_fidelity_from_map(m)
    assert stats.second_moment == second_moment_from_map(m)


@pytest.mark.parametrize("delta, largest, longest", [(0.0, 4, 10), (0.3, 3, 8)])
@settings(derandomize=True, deadline=None, max_examples=30)
@given(data=st.data(), t=st.floats(0.0, 50.0))
def test_map_mean_is_nielsens_kraus_trace_formula(delta, largest, longest, data, t):
    """E[F] = (d + sum_x |tr K_x|^2) / (d(d+1)), with Kraus operators K_x[i, P] = T[P, i, x].

    Gram-built maps at delta = 0 (n <= 4) and on delta = 0.3 chains small
    enough for the sector engine.
    """
    n = data.draw(st.integers(1, largest))
    sizes = st.integers(max(4, 2 * n), longest)
    spec = replace(data.draw(free_fermion_chains(sizes, lambda N: st.just(n)))[0], delta=delta)
    d = 2**n
    traces = np.einsum("ppx->x", dynmap._evolution_amplitudes(spec, n, t))
    nielsen = (d + np.sum(np.abs(traces) ** 2)) / (d * (d + 1))
    assert abs(avg_fidelity_from_map(map_from_evolution(spec, n, t)) - nielsen) <= 1e-14


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


def _amplitude_route(amps, d):
    values = amps.entries.values()
    return fidelity_terms(values, d, 1 + sum(values)).total


def test_amplitude_formula_limits():
    for n in (1, 2, 3):
        d = 2**n
        perfect = _uniform_amplitudes(n, 1.0)
        assert _amplitude_route(perfect, d) == pytest.approx(1.0, abs=1e-12)
        nothing = _uniform_amplitudes(n, 0.0)
        assert _amplitude_route(nothing, d) == pytest.approx(1.0 / d, abs=1e-12)


def test_amplitude_decomposition_terms():
    values = _uniform_amplitudes(3, 1.0).entries.values()
    terms = fidelity_terms(values, 8, 1 + sum(values))
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
            _amplitude_route(amps, 4), abs=1e-12
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
        assert closed == pytest.approx(_amplitude_route(amps, 4), abs=1e-12)


def test_independent_channels_values():
    assert independent_channels_fidelity(LOCC_AMPLITUDE, 1) == pytest.approx(2.0 / 3.0)
    for n in (1, 3, 5):
        assert independent_channels_fidelity(0.0, n) == pytest.approx(2.0**-n)
        assert independent_channels_fidelity(1.0, n) == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, math.nan)])
def test_non_finite_amplitudes_are_rejected(bad):
    with pytest.raises(ValueError):
        independent_channels_fidelity(bad, 2)
    with pytest.raises(ValueError):
        independent_channels_fidelity([0.5, bad], 2)
    for amplitudes in itertools.permutations([bad, 0.0, 0.0]):
        with pytest.raises(ValueError):
            avg_fidelity_two_qubit(*amplitudes)
    with pytest.raises(ValueError):
        one_qubit_map(bad)


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


def test_channel_count_bound_is_the_float_range():
    """d(d+1)(d+2)(d+3), d = 2^n, is a finite float up to n = 255 and overflows at 256."""
    assert fidelity.MAX_CHANNELS == 255
    d = 2.0**255
    assert math.isfinite(d * (d + 1) * (d + 2) * (d + 3))
    with pytest.raises(OverflowError):
        float(2**256 * (2**256 + 1) * (2**256 + 2) * (2**256 + 3))
    stats = independent_channels_stats(np.linspace(0.0, 1.0, 5), 255)
    for field in ("mean", "second_moment", "variance", "cv"):
        assert np.all(np.isfinite(getattr(stats, field))), field


@pytest.mark.parametrize("n", [0, -1, 256, 400, 2000])
def test_parallel_channel_functions_check_the_channel_count(n):
    f = np.array([0.0, 0.5, 1.0])
    one = independent_channels_stats(f, 1)
    for function in (
        lambda: independent_channels_fidelity(f, n),
        lambda: independent_channels_stats(f, n),
        lambda: product_ratio_vs_amplitude(f, n),
        lambda: product_state_stats(one, n),
        lambda: amplitude_for_fidelity(0.9, n),  # checked before 2^n is formed
        lambda: product_ratio_vs_fidelity(0.9, n),
    ):
        with pytest.raises(ValueError, match="channel count must be 1 to 255"):
            function()


@pytest.mark.parametrize("F", [0.25, 0.1, 1.5, math.nan])
def test_fidelity_inversion_rejects_fidelities_outside_its_range(F):
    with pytest.raises(ValueError, match=r"fidelity must lie in \(1/4, 1\]"):
        amplitude_for_fidelity(F, 2)


def test_product_state_variance():
    stats = FidelityStats.from_moments(0.8, 0.64)  # deterministic fidelity
    assert product_state_stats(stats, 4).variance == pytest.approx(0.0, abs=1e-12)
    one = stats_from_map(one_qubit_map(0.8))
    assert product_state_stats(one, 1).variance == pytest.approx(one.variance, abs=1e-15)
    assert product_state_stats(one, 3).variance >= 0.0


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    modulus=st.floats(0.0, 1.0),
    phase=st.floats(0.0, 2.0 * math.pi),
    n=st.integers(1, 4),
)
def test_independent_channels_stats_match_the_built_maps(modulus, phase, n):
    f = modulus * complex(math.cos(phase), math.sin(phase))
    stats = independent_channels_stats([f], n)
    [mean], [second_moment], [variance] = stats.mean, stats.second_moment, stats.variance
    built = stats_from_map(independent_channels_map(f, n))
    assert abs(mean - built.mean) <= 1e-14
    assert abs(second_moment - built.second_moment) <= 1e-14
    assert abs(variance - built.variance) <= 1e-14


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    moduli=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=6),
    phase=st.floats(0.0, 2.0 * math.pi),
    n=st.integers(1, 6),
    bad=st.sampled_from([math.nan, math.inf, -math.inf, 1.5, -1.5]),
)
def test_array_forms_match_scalar_calls_and_check_every_entry(moduli, phase, n, bad):
    f = np.array(moduli) * complex(math.cos(phase), math.sin(phase))
    F = independent_channels_fidelity(f, n)
    functions = {
        "F": (lambda x: independent_channels_fidelity(x, n), f),
        "R_f": (lambda x: product_ratio_vs_amplitude(x, n), np.array(moduli)),
        "R_F": (lambda x: product_ratio_vs_fidelity(x, n), F[F > 2.0**-n]),
        "variance_product": (
            lambda x: product_state_stats(independent_channels_stats(x, 1), n).variance, f
        ),
        **{
            field: (lambda x, field=field: getattr(independent_channels_stats(x, n), field), f)
            for field in ("mean", "second_moment", "variance", "cv")
        },
    }
    for name, (function, args) in functions.items():
        values = function(args)
        assert values.shape == args.shape
        for arg, value in zip(args, values):
            assert abs(value - function(arg)) <= 1e-15, (name, arg)
        if name != "R_F":  # R_F's range is checked below, in fidelities
            with pytest.raises(ValueError):
                function(np.append(args, bad))
    with pytest.raises(ValueError):
        product_ratio_vs_fidelity(np.append(F, bad), n)
    with pytest.raises(ValueError):
        product_ratio_vs_fidelity(np.append(F, 2.0**-n), n)  # the random-guess floor


_FACTORIALS = np.array([math.factorial(k) for k in range(5)])


def _exact_moment_polynomials(n: int) -> tuple[np.ndarray, np.ndarray]:
    """d(d+1) E[F] and d(d+1)(d+2)(d+3) E[F^2] of n independent channels, as polynomials in f.

    Integer coefficients in ascending powers of a real amplitude f, from the
    n-fold product of the one-qubit map's five nonzero elements.  The
    fidelity F(psi) = sum A[i,j,p,q] psi_i conj(psi_j) conj(psi_p) psi_q is
    a polynomial in the input amplitudes.  Over Haar inputs a monomial
    averages to zero unless its kets and its bras are the same multiset,
    with multiplicities k_x; then it averages to
    prod_x k_x! / (d (d+1) ... (d+K-1)), K = sum_x k_x.
    """
    one = {(0, 0, 0, 0): [1, 0, 0], (0, 0, 1, 1): [1, 0, -1], (1, 1, 1, 1): [0, 0, 1],
           (0, 1, 0, 1): [0, 1, 0], (1, 0, 1, 0): [0, 1, 0]}
    entries = {(0, 0, 0, 0): np.array([1])}
    for _ in range(n):
        entries = {
            tuple(2 * x + y for x, y in zip(key, key1)): np.convolve(c, c1)
            for (key, c), (key1, c1) in itertools.product(entries.items(), one.items())
        }
    d = 2**n
    keys = np.array(list(entries))
    coeffs = np.array(list(entries.values()))  # [element, power of f]
    kets = np.eye(d, dtype=np.int64)[keys[:, [0, 3]]].sum(axis=1)  # [element, x] = k_x
    bras = np.eye(d, dtype=np.int64)[keys[:, [1, 2]]].sum(axis=1)
    first = np.all(kets == bras, axis=1) * np.prod(_FACTORIALS[kets], axis=1)
    a, b = np.nonzero(np.all(kets[:, None] - bras[:, None] == bras[None] - kets[None], axis=2))
    weight = np.prod(_FACTORIALS[kets[a] + kets[b]], axis=1)
    pair = np.einsum("k,ki,kj->ij", weight, coeffs[a], coeffs[b])
    second = np.zeros(2 * len(pair) - 1, dtype=np.int64)
    for i, row in enumerate(pair):
        second[i : i + len(row)] += row
    return first @ coeffs, second


def test_independent_channels_stats_against_exact_rationals():
    for n in (1, 2, 3, 4):
        d = 2**n
        first, second = _exact_moment_polynomials(n)
        # At f = 1 every channel is the identity, so F = 1 on every input.
        assert sum(first) == d * (d + 1) and sum(second) == d * (d + 1) * (d + 2) * (d + 3)
        for grid in (np.linspace(0.0, 1.0, 21), np.linspace(0.0, 1.0, 201)):
            stats = independent_channels_stats(grid, n)
            for k, f in enumerate(grid):
                x = Fraction(float(f))
                mean = sum(int(c) * x**p for p, c in enumerate(first)) / (d * (d + 1))
                m2 = sum(int(c) * x**p for p, c in enumerate(second)) / (
                    d * (d + 1) * (d + 2) * (d + 3)
                )
                assert abs(stats.mean[k] - mean) <= 1e-14
                assert abs(stats.variance[k] - (m2 - mean**2)) <= 1e-14
                assert abs(stats.cv[k] - math.sqrt(m2 / mean**2 - 1)) <= 1e-12


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
    for mean, second_moment in [(math.nan, 0.5), (0.5, math.nan), ([0.5, 0.5], [0.3, math.nan])]:
        with pytest.raises(ValueError):
            FidelityStats.from_moments(np.asarray(mean), np.asarray(second_moment))


def test_cv_decreases_towards_perfect_transfer():
    cvs = [stats_from_map(independent_channels_map(f, 2)).cv for f in (0.2, 0.5, 0.8, 1.0)]
    assert all(a > b for a, b in zip(cvs, cvs[1:]))
    assert cvs[-1] == 0.0


def test_variance_clamp():
    stats = FidelityStats.from_moments(1.0, 1.0 - 1e-13)
    assert stats.variance == 0.0
