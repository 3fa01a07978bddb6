import numpy as np
import pytest

from spintransfer.amplitudes import transfer_amplitudes, transition_matrix
from spintransfer.chain import ChainSpec, engineered_sender_coupling, resonance_report, spectral
from spintransfer.errors import FreeFermionError
from spintransfer.fidelity import avg_fidelity_from_amplitudes
from spintransfer.protocol import (
    fidelity_scan,
    find_optimal_time,
    reduced_amplitude,
    scan_values,
    transfer_envelope,
)

WEAK_15 = ChainSpec.weak_coupling(wire_length=9, n=3, J0=0.01)
ENG_18 = ChainSpec.weak_coupling(
    wire_length=10, n=4, J0=0.01, sender_coupling=engineered_sender_coupling(10, k=2, s=1)
)


def test_full_cluster_reproduces_exact_amplitude():
    spec = ChainSpec.uniform(8, n=1)
    dec = spectral(spec)
    t = 6.6
    full = reduced_amplitude(dec, range(1, 9), 2, 7, t)
    assert full == pytest.approx(transition_matrix(dec, t).entry(2, 7), abs=1e-12)


def test_zero_time_cluster_projector():
    dec = spectral(WEAK_15)
    cluster = resonance_report(WEAK_15, 3).cluster_indices
    ks = np.array(cluster) - 1
    expected = np.sum(dec.eigenvectors[0, ks] * dec.eigenvectors[12, ks])
    assert reduced_amplitude(dec, cluster, 1, 13, 0.0) == pytest.approx(expected, abs=1e-14)


def test_reduced_amplitude_accuracy_over_transfer_window():
    # Truncating to the quasi-degenerate cluster loses only the O(J0) weight
    # that leaks onto the wire levels.
    dec = spectral(WEAK_15)
    rep = resonance_report(WEAK_15, 3)
    worst = 0.0
    for t in np.linspace(0.0, rep.transfer_time, 240):
        full = transition_matrix(dec, t).entry(1, 13)
        red = reduced_amplitude(dec, rep.cluster_indices, 1, 13, t)
        worst = max(worst, abs(full - red))
    assert worst <= 5e-3


def test_reduced_amplitude_validation():
    dec = spectral(WEAK_15)
    with pytest.raises(ValueError):
        reduced_amplitude(dec, [], 1, 13, 0.0)
    with pytest.raises(ValueError):
        reduced_amplitude(dec, [0], 1, 13, 0.0)
    with pytest.raises(ValueError):
        reduced_amplitude(dec, [16], 1, 13, 0.0)


def test_envelope_shape():
    env = transfer_envelope(WEAK_15, 3)
    tau = resonance_report(WEAK_15, 3).transfer_time
    assert env(0.0) == pytest.approx(0.0, abs=1e-12)
    assert env(tau) == pytest.approx(1.0, abs=1e-9)


def test_scan_matches_per_time_route():
    spec = ChainSpec.weak_coupling(4, 2, 0.2)
    times = np.array([0.0, 2.7, 9.1, 33.3])
    scan = fidelity_scan(spec, 2, times)
    dec = spectral(spec)
    for i, t in enumerate(times):
        amps = transfer_amplitudes(transition_matrix(dec, t), 2)
        assert scan.fidelity[i] == pytest.approx(
            avg_fidelity_from_amplitudes(amps, 4), abs=1e-12
        )
        for S, value in amps.entries.items():
            assert scan.amplitudes[S][i] == pytest.approx(value, abs=1e-12)
    assert np.allclose(scan.classical_term + scan.quantum_term, scan.fidelity, atol=1e-12)


def test_scan_at_zero_time_is_random_guess():
    # Nothing has reached the receiver at t = 0, so the average fidelity sits
    # at the random-guess floor 1/d, not at 1.
    scan = fidelity_scan(ChainSpec.uniform(8, n=2), 2, np.array([0.0]))
    assert scan.fidelity[0] == pytest.approx(0.25, abs=1e-12)


def test_scan_rejects_anisotropy():
    spec = ChainSpec.from_dict({**ChainSpec.uniform(8, n=2).to_dict(), "delta": 0.5})
    with pytest.raises(FreeFermionError):
        fidelity_scan(spec, 2, np.array([0.0, 1.0]))
    with pytest.raises(FreeFermionError):
        find_optimal_time(spec, 2, window=(0.0, 10.0))


def test_partner_amplitudes_identical_in_scan():
    times = np.linspace(0.0, 500.0, 300)
    scan = fidelity_scan(WEAK_15, 3, times)
    assert np.max(np.abs(scan.amplitudes[(1,)] - scan.amplitudes[(3,)])) <= 1e-12


@pytest.mark.parametrize("spec, window", [(WEAK_15, (0.995, 1.01)), (ENG_18, (0.935, 0.95))])
def test_search_and_scans_share_one_pipeline(spec, window):
    # Windows in units of tau, narrowed around each chain's optimum.
    n = spec.block_size
    tau = resonance_report(spec, n).transfer_time
    res = find_optimal_time(spec, n, window=(window[0] * tau, window[1] * tau))
    assert res.fidelity_at_optimum == scan_values(spec, n, [res.optimal_time])[0]
    scan = fidelity_scan(spec, n, res.times)
    assert np.array_equal(scan_values(spec, n, res.times), scan.fidelity)


def test_single_qubit_swap_optimum():
    spec = ChainSpec.uniform(2, n=1)
    res = find_optimal_time(spec, 1, window=(0.0, 2 * np.pi), phase_aligned=True)
    assert res.optimal_time == pytest.approx(np.pi, abs=1e-6)
    assert res.fidelity_at_optimum == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        find_optimal_time(spec, 1)  # no window and no resonance analysis for n=1
    # phase alignment is a single-block notion
    with pytest.raises(ValueError):
        find_optimal_time(ChainSpec.uniform(6, n=2), 2, window=(0.0, 5.0), phase_aligned=True)


def test_search_window_validation():
    with pytest.raises(ValueError):
        find_optimal_time(WEAK_15, 3, window=(5.0, 5.0))


def test_transfer_time_scales_with_coupling_squared():
    taus = {}
    for j0 in (0.04, 0.02, 0.01):
        spec = ChainSpec.weak_coupling(9, 3, j0)
        taus[j0] = resonance_report(spec, 3).transfer_time
    assert taus[0.02] / taus[0.04] == pytest.approx(4.0, rel=0.2)
    assert taus[0.01] / taus[0.02] == pytest.approx(4.0, rel=0.2)


def test_weak_coupling_transfer_quality_and_stability():
    res = find_optimal_time(WEAK_15, 3)
    assert res.fidelity_at_optimum >= 0.99
    assert res.envelope_period == pytest.approx(np.pi / res.cluster.delta_omega)
    assert abs(res.optimal_time - res.envelope_period) <= 0.2 * res.envelope_period
    assert res.readout_times.size > 0
    # Halving the coarse spacing barely moves the optimum.
    res2 = find_optimal_time(WEAK_15, 3, coarse_points=2 * res.times.size - 1)
    assert abs(res.fidelity_at_optimum - res2.fidelity_at_optimum) < 1e-4


def test_optimal_fidelity_monotone_in_coupling():
    strong = find_optimal_time(ChainSpec.weak_coupling(9, 3, 0.02), 3)
    weak = find_optimal_time(WEAK_15, 3)
    assert strong.fidelity_at_optimum <= weak.fidelity_at_optimum + 1e-3


def test_envelope_bounds_peak_region():
    rep = resonance_report(WEAK_15, 3)
    tau = rep.transfer_time
    env = transfer_envelope(WEAK_15, 3)
    times = np.linspace(0.85 * tau, 1.15 * tau, 6000)
    excess = (scan_values(WEAK_15, 3, times) - 0.125) / (1.0 - 0.125)
    assert np.max(excess - env(times)) <= 0.05


def test_search_keeps_the_coarse_point_when_fidelity_rises_across_the_window():
    """F rises over the whole window, so the refinement bracket never holds the peak."""
    spec = ChainSpec.uniform(4, n=1)
    res = find_optimal_time(spec, 1, window=(0.0, 0.5))
    assert np.all(np.diff(res.fidelity) > 0)
    assert res.optimal_time == 0.5
    assert res.fidelity_at_optimum == scan_values(spec, 1, np.array([0.5]))[0]
