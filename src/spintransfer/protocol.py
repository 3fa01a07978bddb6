"""Weak-coupling transfer protocol: envelopes, scans and optimal-time search.

The slow scale of a weak-coupling transfer is the second-order splitting
delta_omega of the block-localised doublets, giving an envelope period
tau = pi / delta_omega; on top of it the block-internal dynamics oscillates on
the O(1/J) scale.  Searches therefore do a dense coarse scan (resolving the
fast scale) followed by a local golden-section refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .amplitudes import (
    require_free_fermion,
    subset_minor_series,
    total_transfer_amplitude,
    transfer_block_series,
)
from .basis import subsets_by_excitation
from .chain import ChainSpec, ResonanceReport, resonance_report, spectral
from .errors import ResonanceError
from .fidelity import fidelity_terms
from .linalg import EigenDecomposition

_SCAN_CHUNK = 1 << 14
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0
_REFINE_ITERS = 80  # 0.618^80 ~ 1e-17 of the bracket, below float resolution


def reduced_amplitude(
    decomp: EigenDecomposition, cluster, i: int, j: int, t: float
) -> complex:
    """Transition amplitude i -> j keeping only the given spectral levels (1-indexed).

    With the cluster set to the quasi-degenerate transfer levels this is the
    second-order approximation of the full amplitude; with all levels it is
    exact.
    """
    ks = np.asarray(sorted(cluster), dtype=int) - 1
    if ks.size == 0:
        raise ValueError("cluster must be nonempty")
    if ks[0] < 0 or ks[-1] >= decomp.size:
        raise ValueError("cluster level out of range")
    phases = np.exp(-1j * decomp.eigenvalues[ks] * t)
    return complex(np.sum(phases * decomp.eigenvectors[j - 1, ks] * decomp.eigenvectors[i - 1, ks]))


def _optional_report(spec: ChainSpec, n: int) -> ResonanceReport | None:
    """Resonance analysis of the chain, or None where the layout has none."""
    if n in (3, 4) and spec.wire_length >= 1:
        try:
            return resonance_report(spec, n)
        except (ValueError, ResonanceError):
            pass
    return None


def transfer_envelope(spec: ChainSpec, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Slow envelope sin^4(delta_omega t / 2) of the transfer fidelity, peaking at t = tau."""
    delta_omega = resonance_report(spec, n).delta_omega

    def envelope(t):
        return np.sin(delta_omega * np.asarray(t) / 2.0) ** 4

    return envelope


def phase_aligned_fidelity(f):
    """Single-qubit average fidelity after aligning the receiver phase, so only |f| matters."""
    f = np.abs(f)
    return 0.5 + f**2 / 6.0 + f / 3.0


@dataclass(frozen=True)
class FidelityScan:
    """Average transfer fidelity and its ingredients over a time grid."""

    block_size: int
    times: np.ndarray
    fidelity: np.ndarray
    classical_term: np.ndarray  # random guess + transition probabilities
    quantum_term: np.ndarray
    envelope: np.ndarray | None
    amplitudes: dict[tuple[int, ...], np.ndarray]


def _amplitude_chunks(spec: ChainSpec, n: int, times: np.ndarray):
    """Yield (start index, sender -> receiver block B(t)) over consecutive chunks of the time grid."""
    require_free_fermion(spec)
    decomp = spectral(spec)
    for lo in range(0, times.size, _SCAN_CHUNK):
        yield lo, transfer_block_series(decomp, n, times[lo : lo + _SCAN_CHUNK])


def scan_values(spec: ChainSpec, n: int, times: np.ndarray) -> np.ndarray:
    """Average transfer fidelity on a time grid: one det(I + B) per time point, chunked."""
    times = np.asarray(times, dtype=float)
    out = np.empty(times.shape, dtype=float)
    for lo, block in _amplitude_chunks(spec, n, times):
        out[lo : lo + _SCAN_CHUNK] = fidelity_terms((), 2**n, total_transfer_amplitude(block)).total
    return out


def fidelity_scan(spec: ChainSpec, n: int, t_grid) -> FidelityScan:
    """Scan the average transfer fidelity, its decomposition and all subset amplitudes.

    The fidelity comes from det(I + B) exactly as in scan_values; the 2^n - 1
    subset minors feed only the amplitude series and the classical term.
    """
    times = np.asarray(t_grid, dtype=float)
    subsets = subsets_by_excitation(n, include_empty=False)
    amps = {s: np.empty(times.shape, dtype=complex) for s in subsets}
    fidelity, classical, quantum = (np.empty(times.shape, dtype=float) for _ in range(3))
    for lo, block in _amplitude_chunks(spec, n, times):
        part = subset_minor_series(block)
        terms = fidelity_terms(part.values(), 2**n, total_transfer_amplitude(block))
        chunk = slice(lo, lo + _SCAN_CHUNK)
        fidelity[chunk] = terms.total
        classical[chunk] = terms.random_guess + terms.classical
        quantum[chunk] = terms.quantum
        for s, series in part.items():
            amps[s][chunk] = series
    envelope = None
    if _optional_report(spec, n) is not None:
        envelope = transfer_envelope(spec, n)(times)
    return FidelityScan(
        block_size=n,
        times=times,
        fidelity=fidelity,
        classical_term=classical,
        quantum_term=quantum,
        envelope=envelope,
        amplitudes=amps,
    )


@dataclass(frozen=True)
class ProtocolResult:
    """Outcome of an optimal-time search over one scan window."""

    optimal_time: float
    fidelity_at_optimum: float
    envelope_period: float | None
    cluster: ResonanceReport | None
    times: np.ndarray
    fidelity: np.ndarray
    readout_times: np.ndarray = field(default_factory=lambda: np.empty(0))


def find_optimal_time(
    spec: ChainSpec,
    n: int,
    window: tuple[float, float] | None = None,
    coarse_points: int | None = None,
    phase_aligned: bool = False,
) -> ProtocolResult:
    """Locate the best transfer time by a coarse scan plus golden-section refinement.

    Without an explicit window the scan covers [0, 1.2 tau].  The coarse grid
    must resolve the fast block dynamics; the default spacing is 0.2 in units
    of 1/J.  `phase_aligned` applies only to single-site blocks and scores
    |f| with the optimal receiver phase instead of the raw amplitude.
    """
    if phase_aligned and n != 1:
        raise ValueError("phase alignment is only defined for single-site blocks")

    if window is None:
        report = resonance_report(spec, n)
        window = (0.0, 1.2 * report.transfer_time)
    else:
        report = _optional_report(spec, n)
    lo, hi = float(window[0]), float(window[1])
    if not hi > lo:
        raise ValueError(f"empty search window ({lo}, {hi})")
    if coarse_points is None:
        coarse_points = int(np.ceil((hi - lo) / 0.2)) + 1
    coarse_points = max(coarse_points, 2)

    if phase_aligned:
        def evaluate(ts: np.ndarray) -> np.ndarray:
            return phase_aligned_fidelity(fidelity_scan(spec, 1, ts).amplitudes[(1,)])
    else:
        def evaluate(ts: np.ndarray) -> np.ndarray:
            return scan_values(spec, n, ts)

    def objective(t: float) -> float:
        return float(evaluate(np.array([t]))[0])

    times = np.linspace(lo, hi, coarse_points)
    values = evaluate(times)
    best = int(np.argmax(values))
    spacing = times[1] - times[0]

    a = max(lo, times[best] - spacing)
    b = min(hi, times[best] + spacing)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    for _ in range(_REFINE_ITERS):
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = objective(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = objective(x1)
    t_best = x1 if f1 >= f2 else x2
    f_best = max(f1, f2)
    if values[best] > f_best:  # keep the coarse point if refinement drifted off the peak
        t_best = float(times[best])
        f_best = objective(t_best)  # the 1-point path, so the result equals scan_values at t_best

    readout = times[values >= 0.99 * f_best]
    return ProtocolResult(
        optimal_time=float(t_best),
        fidelity_at_optimum=float(f_best),
        envelope_period=None if report is None else report.transfer_time,
        cluster=report,
        times=times,
        fidelity=values,
        readout_times=readout,
    )
