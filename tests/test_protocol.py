import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spintransfer import protocol
from spintransfer.amplitudes import transfer_amplitudes, transition_matrix
from spintransfer.chain import ChainSpec, engineered_sender_coupling, resonance_report, spectral
from spintransfer.errors import FreeFermionError
from spintransfer.fidelity import fidelity_terms
from spintransfer.protocol import (
    _SCAN_CHUNK,
    fidelity_scan,
    find_optimal_time,
    scan_chunks,
    scan_values,
    transfer_envelope,
)

WEAK_15 = ChainSpec.weak_coupling(wire_length=9, n=3, J0=0.01)
ENG_18 = ChainSpec.weak_coupling(
    wire_length=10, n=4, J0=0.01, sender_coupling=engineered_sender_coupling(10, k=2, s=1)
)


@pytest.mark.parametrize("spec", [WEAK_15, ChainSpec.uniform(6, n=2)], ids=["weak15", "uniform6-n2"])
def test_a_scan_runs_one_resonance_analysis(spec, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return resonance_report(*args, **kwargs)

    monkeypatch.setattr(protocol, "resonance_report", counted)
    pieces = list(scan_chunks(spec, spec.block_size, np.linspace(0.0, 50.0, 2 * _SCAN_CHUNK + 3)))
    assert len(pieces) == 3
    assert len(calls) == 1
    assert (pieces[0].envelope is None) == (spec.block_size == 2)


def test_reduced_amplitude_accuracy_over_transfer_window():
    # Truncating to the quasi-degenerate cluster loses only the O(J0) weight
    # that leaks onto the wire levels.
    dec = spectral(WEAK_15)
    rep = resonance_report(WEAK_15, 3)
    ks = np.array(rep.cluster_indices) - 1
    weights = dec.eigenvectors[0, ks] * dec.eigenvectors[12, ks]
    worst = 0.0
    for t in np.linspace(0.0, rep.transfer_time, 240):
        full = transition_matrix(dec, t)[0, 12]
        red = np.sum(np.exp(-1j * dec.eigenvalues[ks] * t) * weights)
        worst = max(worst, abs(full - red))
    assert worst <= 5e-3


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
        values = amps.entries.values()
        assert scan.fidelity[i] == pytest.approx(
            fidelity_terms(values, 4, 1 + sum(values)).total, abs=1e-12
        )
        for S, value in amps.entries.items():
            assert scan.amplitudes[S][i] == pytest.approx(value, abs=1e-12)
    assert np.allclose(scan.classical_term + scan.quantum_term, scan.fidelity, atol=1e-12)


def test_fidelity_scan_is_the_joined_scan_chunks():
    times = np.linspace(0.0, 3000.0, 2 * _SCAN_CHUNK + 5)
    scan = fidelity_scan(WEAK_15, 3, times)
    chunks = list(scan_chunks(WEAK_15, 3, times))
    assert [c.times.size for c in chunks] == [_SCAN_CHUNK, _SCAN_CHUNK, 5]
    for name in ("times", "fidelity", "classical_term", "quantum_term", "envelope"):
        joined = np.concatenate([getattr(c, name) for c in chunks])
        assert joined.tobytes() == getattr(scan, name).tobytes(), name
    assert list(scan.amplitudes) == list(chunks[0].amplitudes)
    for s, series in scan.amplitudes.items():
        assert np.concatenate([c.amplitudes[s] for c in chunks]).tobytes() == series.tobytes()
    assert scan.fidelity.tobytes() == scan_values(WEAK_15, 3, times).tobytes()
    assert scan.envelope.tobytes() == transfer_envelope(WEAK_15, 3)(times).tobytes()


def test_scans_of_an_empty_grid_are_empty():
    empty = np.array([])
    scan = fidelity_scan(WEAK_15, 3, empty)
    assert scan.fidelity.shape == scan.envelope.shape == (0,)
    assert all(series.shape == (0,) for series in scan.amplitudes.values())
    assert len(scan.amplitudes) == 7
    assert scan_values(WEAK_15, 3, empty).shape == (0,)


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


def test_scans_reject_a_block_the_spec_does_not_have():
    spec = ChainSpec.uniform(6, n=2)
    times = np.array([0.0, 1.0])
    for scan in (scan_values, fidelity_scan, lambda *args: list(scan_chunks(*args))):
        with pytest.raises(ValueError, match="block size mismatch"):
            scan(spec, 1, times)
    with pytest.raises(ValueError, match="block size mismatch"):
        find_optimal_time(spec, 3, window=(0.0, 10.0))


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
    with pytest.raises(ValueError):  # no window and no resonance analysis for n=1
        find_optimal_time(ChainSpec.uniform(2, n=1), 1)


def test_search_window_validation():
    for window in [(5.0, 5.0), (0.0, np.inf), (-np.inf, 0.0), (np.nan, 1.0)]:
        with pytest.raises(ValueError):
            find_optimal_time(WEAK_15, 3, window=window)


def test_transfer_time_scales_with_coupling_squared():
    taus = {}
    for j0 in (0.04, 0.02, 0.01):
        spec = ChainSpec.weak_coupling(9, 3, j0)
        taus[j0] = resonance_report(spec, 3).transfer_time
    assert taus[0.02] / taus[0.04] == pytest.approx(4.0, rel=0.2)
    assert taus[0.01] / taus[0.02] == pytest.approx(4.0, rel=0.2)


def test_weak_coupling_transfer_quality_and_stability(monkeypatch):
    res = find_optimal_time(WEAK_15, 3)
    assert res.fidelity_at_optimum >= 0.99
    tau = res.cluster.transfer_time
    assert tau == pytest.approx(np.pi / res.cluster.delta_omega)
    assert abs(res.optimal_time - tau) <= 0.2 * tau
    assert res.readout_times.size > 0
    # Halving the coarse spacing barely moves the optimum.
    monkeypatch.setattr(protocol, "SEARCH_STEP", protocol.SEARCH_STEP / 2)
    res2 = find_optimal_time(WEAK_15, 3)
    assert abs(res.fidelity_at_optimum - res2.fidelity_at_optimum) < 1e-4


@pytest.mark.parametrize(
    "spec, fidelity, time",
    [(WEAK_15, 0.9996898369949818, 178430.61290168986), (ENG_18, 0.9825414236213732, 77653.07229995633)],
    ids=["weak15", "eng18"],
)
def test_default_search_optimum_is_pinned(spec, fidelity, time):
    """The default search's optimum on both acceptance chains.

    Rounding in the determinant kernel may move F* in its last bits and t*
    along a flat top; a change to the search grid or refinement re-pins them.
    """
    res = find_optimal_time(spec, spec.block_size)
    assert abs(res.fidelity_at_optimum - fidelity) <= 1e-12
    assert abs(res.optimal_time - time) <= 1e-6


def _scaled(spec: ChainSpec, factor: float) -> ChainSpec:
    """The chain with every coupling, J0 included, multiplied by factor."""
    return replace(spec, couplings=tuple(factor * j for j in spec.couplings), J0=factor * spec.J0)


_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def _reference_optimum(spec: ChainSpec, window: tuple[float, float]) -> float:
    """The window's maximum of F from a scan far denser than the search's, then golden section.

    The dense spacing is min(0.025, h / 8), h the search's coarse spacing;
    the scan runs in slices of 2^18 points, so memory stays flat on long
    windows.  The best point is refined in [t - spacing, t + spacing] until
    the bracket stops shrinking, and every returned value is a 1-point scan.
    """
    n = spec.block_size
    h = protocol.SEARCH_STEP * min(1.0, 1.0 / np.max(np.abs(spectral(spec).eigenvalues)))
    lo, hi = window
    step = min(0.025, h / 8)
    count = int(np.ceil((hi - lo) / step)) + 1
    best_f, best_t = -np.inf, lo
    for start in range(0, count, 1 << 18):
        times = np.minimum(lo + step * np.arange(start, min(start + (1 << 18), count)), hi)
        values = scan_values(spec, n, times)
        i = int(np.argmax(values))
        if values[i] > best_f:
            best_f, best_t = values[i], float(times[i])

    def f(t):
        return scan_values(spec, n, [t])[0]

    a, b = max(lo, best_t - step), min(hi, best_t + step)
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while True:
        if f1 < f2:
            x = x1 + _GOLDEN * (b - x1)
            if not x2 < x < b:
                break
            a, x1, f1 = x1, x2, f2
            x2, f2 = x, f(x)
        else:
            x = x2 - _GOLDEN * (x2 - a)
            if not a < x < x1:
                break
            b, x2, f2 = x2, x1, f1
            x1, f1 = x, f(x)
    return max(f1, f2, f(best_t))


_SEARCH_CHAINS = {
    **{f"weak15-x{c}": _scaled(WEAK_15, c) for c in (1, 2, 5, 10)},
    **{f"eng18-x{c}": _scaled(ENG_18, c) for c in (1, 2, 5, 10)},
    "weak15-field1": ChainSpec.weak_coupling(9, 3, 0.01, field=1.0),
    "weak15-field4": ChainSpec.weak_coupling(9, 3, 0.01, field=4.0),
}


@pytest.mark.parametrize("spec", _SEARCH_CHAINS.values(), ids=_SEARCH_CHAINS.keys())
def test_default_search_finds_its_windows_maximum(spec):
    """Scaled couplings and uniform fields raise max|w|, so the coarse spacing must shrink with it."""
    n = spec.block_size
    res = find_optimal_time(spec, n)
    ref = _reference_optimum(spec, (0.0, 1.2 * res.cluster.transfer_time))
    assert abs(res.fidelity_at_optimum - ref) <= 1e-12
    assert res.fidelity_at_optimum == scan_values(spec, n, [res.optimal_time])[0]


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    n=st.sampled_from([3, 4]),
    wire=st.integers(2, 13),
    j0=st.floats(0.01, 0.1),
    field=st.floats(0.0, 3.0),
    centre=st.floats(0.9, 1.1),
    half_width=st.floats(5.0, 400.0),
)
def test_search_finds_the_maximum_of_windows_around_tau(n, wire, j0, field, centre, half_width):
    """Within 1e-12, or within F's own rounding at t where that is larger.

    The phases of B(t) carry up to 4 eps max|w| t of rounding (see
    transfer_block_series), so on a flat top two 1-point values a few ulps of
    t apart can differ by that much; a missed lobe costs far more.
    """
    spec = ChainSpec.weak_coupling(wire, n, j0, field=field)
    tau = resonance_report(spec, n).transfer_time
    window = (max(0.0, centre * tau - half_width), centre * tau + half_width)
    res = find_optimal_time(spec, n, window=window)
    rounding = 4 * np.finfo(float).eps * np.max(np.abs(spectral(spec).eigenvalues)) * window[1]
    assert abs(res.fidelity_at_optimum - _reference_optimum(spec, window)) <= max(1e-12, rounding)


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


@pytest.mark.parametrize("t", [0.0, 1e5])
def test_refinement_stops_on_a_one_float_window(t, monkeypatch):
    """A grid one float wide cannot shrink, so the refinement stops after its first round."""
    calls = []
    scan = protocol.scan_values

    def counting(*args):
        calls.append(args[2])
        return scan(*args)

    monkeypatch.setattr(protocol, "scan_values", counting)
    hi = np.nextafter(t, np.inf)
    res = find_optimal_time(WEAK_15, 3, window=(t, hi))
    assert t <= res.optimal_time <= hi
    assert len(calls) <= 4  # coarse grid, one refinement round, F*
    assert res.fidelity_at_optimum == scan(WEAK_15, 3, [res.optimal_time])[0]



def test_search_stops_at_float_resolution_when_the_best_point_is_the_window_start(monkeypatch):
    """The refinement grids shrink to float resolution at hi, not to the subnormals near t = 0."""
    calls = []
    scan = protocol.scan_values

    def counting(*args):
        calls.append(args[2])
        return scan(*args)

    monkeypatch.setattr(protocol, "scan_values", counting)
    spec = ChainSpec.uniform(8, n=2)
    res = find_optimal_time(spec, 2, window=(0.0, 0.3))
    assert len(calls) <= 40
    assert res.fidelity_at_optimum == scan(spec, 2, [res.optimal_time])[0]

def test_fidelity_scan_join_holds_about_one_result():
    """Joining the pieces one column at a time keeps the peak near the size of the result."""
    tau = resonance_report(ENG_18, 4).transfer_time
    times = np.linspace(0.0, 1.2 * tau, 200_000)
    fidelity_scan(ENG_18, 4, times[:10])  # spectral and resonance caches
    tracemalloc.start()
    try:
        scan = fidelity_scan(ENG_18, 4, times)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = (scan.times, scan.fidelity, scan.classical_term, scan.quantum_term, scan.envelope)
    size = sum(a.nbytes for a in (*columns, *scan.amplitudes.values()))
    assert peak <= 1.3 * size, f"peak {peak / size:.2f} results"


@pytest.mark.parametrize("spec", _SEARCH_CHAINS.values(), ids=_SEARCH_CHAINS.keys())
def test_search_reports_its_refinement_rounds_and_winning_lobe(spec):
    """The winning lobe's coarse rank is the margin K = 32 lobes leave; the rounds follow from hi."""
    res = find_optimal_time(spec, spec.block_size)
    assert 1 <= res.lobe_rank <= 5
    spacing = res.times[1] - res.times[0]
    resolution = np.spacing(res.times[-1])
    # The half-width starts at the coarse spacing and falls to a quarter per round below resolution.
    assert spacing * 0.25 ** res.refinement_rounds < resolution <= spacing * 0.25 ** (
        res.refinement_rounds - 1)


def test_search_rounds_on_the_default_chains_are_pinned():
    assert find_optimal_time(WEAK_15, 3).refinement_rounds == 17
    assert find_optimal_time(ENG_18, 4).refinement_rounds == 18
