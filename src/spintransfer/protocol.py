"""Weak-coupling transfer protocol: envelopes, scans and optimal-time search.

The slow scale of a weak-coupling transfer is the second-order splitting
delta_omega of the block-localised doublets, giving an envelope period
tau = pi / delta_omega; on top of it the block-internal dynamics oscillates on
the O(1/J) scale.  Searches therefore do a dense coarse scan (resolving the
fast scale) followed by a local golden-section refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .amplitudes import (
    require_free_fermion,
    subset_minor_series,
    total_transfer_amplitude,
    transfer_block_series,
)
from .chain import ChainSpec, ResonanceReport, resonance_report, spectral
from .errors import ResonanceError
from .fidelity import fidelity_terms

_SCAN_CHUNK = 1 << 14
# Default spacing of a scan or search grid, in the time unit of the couplings: fine
# enough to resolve the fast block dynamics whatever the couplings' size.
GRID_STEP = 0.2
_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def transfer_envelope(spec: ChainSpec, n: int) -> Callable[[np.ndarray], np.ndarray]:
    """Slow envelope sin^4(delta_omega t / 2) of the transfer fidelity, peaking at t = tau."""
    delta_omega = resonance_report(spec, n).delta_omega

    def envelope(t):
        return np.sin(delta_omega * np.asarray(t) / 2.0) ** 4

    return envelope


@dataclass(frozen=True, eq=False)
class FidelityScan:
    """Average transfer fidelity and its ingredients over a time grid."""

    times: np.ndarray
    fidelity: np.ndarray
    classical_term: np.ndarray  # random guess + transition probabilities
    quantum_term: np.ndarray
    envelope: np.ndarray | None
    amplitudes: dict[tuple[int, ...], np.ndarray]


def _block_chunks(spec: ChainSpec, n: int, times: np.ndarray):
    """Yield (times, sender -> receiver block B(t)) over consecutive _SCAN_CHUNK slices of the grid.

    An empty grid is one empty slice, so joining the pieces always has a piece to join.
    """
    if n != spec.block_size:
        raise ValueError(f"block size mismatch: spec has {spec.block_size}, got {n}")
    require_free_fermion(spec)
    decomp = spectral(spec)
    for lo in range(0, max(times.size, 1), _SCAN_CHUNK):
        chunk = times[lo : lo + _SCAN_CHUNK]
        yield chunk, transfer_block_series(decomp, n, chunk)


def scan_values(spec: ChainSpec, n: int, times: np.ndarray) -> np.ndarray:
    """Average transfer fidelity on a time grid: one det(I + B) per time point, chunk by chunk."""
    return np.concatenate(
        [
            fidelity_terms((), 2**n, total_transfer_amplitude(block)).total
            for _, block in _block_chunks(spec, n, np.asarray(times, dtype=float))
        ]
    )


def scan_chunks(spec: ChainSpec, n: int, t_grid) -> Iterator[FidelityScan]:
    """Yield the scan of each consecutive _SCAN_CHUNK slice of the time grid as a FidelityScan.

    Each piece holds the fidelity from det(I + B) exactly as in scan_values,
    its classical and quantum terms, the envelope and the 2^n - 1 subset
    minors, which feed only the amplitude series and the classical term.
    Consuming the pieces one at a time keeps memory independent of the grid.
    """
    times = np.asarray(t_grid, dtype=float)
    try:
        envelope = transfer_envelope(spec, n)
    except (ValueError, ResonanceError):  # no resonance analysis for this layout
        envelope = None
    for chunk, block in _block_chunks(spec, n, times):
        amplitudes = subset_minor_series(block)
        terms = fidelity_terms(amplitudes.values(), 2**n, total_transfer_amplitude(block))
        yield FidelityScan(
            times=chunk,
            fidelity=terms.total,
            classical_term=terms.random_guess + terms.classical,
            quantum_term=terms.quantum,
            envelope=None if envelope is None else envelope(chunk),
            amplitudes=amplitudes,
        )


def fidelity_scan(spec: ChainSpec, n: int, t_grid) -> FidelityScan:
    """Scan the average transfer fidelity, its decomposition and all subset amplitudes.

    The whole grid at once: the scan_chunks pieces joined one column at a
    time, each column's pieces dropped once joined, so the join holds about
    one result.
    """
    names = ("times", "fidelity", "classical_term", "quantum_term", "envelope")
    columns: dict[str, list[np.ndarray]] = {name: [] for name in names}
    series: dict[tuple[int, ...], list[np.ndarray]] = {}
    for piece in scan_chunks(spec, n, t_grid):
        for name, pieces in columns.items():
            pieces.append(getattr(piece, name))
        for s, f in piece.amplitudes.items():
            series.setdefault(s, []).append(f)
    if piece.envelope is None:
        del columns["envelope"]
    del piece
    joined = _joined(columns)
    return FidelityScan(envelope=joined.pop("envelope", None), amplitudes=_joined(series), **joined)


def _joined(pieces: dict) -> dict:
    """Concatenate each entry's pieces in turn, releasing them as soon as they are joined."""
    return {key: np.concatenate(pieces.pop(key)) for key in list(pieces)}


@dataclass(frozen=True, eq=False)
class ProtocolResult:
    """Outcome of an optimal-time search over one scan window."""

    optimal_time: float
    fidelity_at_optimum: float
    cluster: ResonanceReport | None
    times: np.ndarray
    fidelity: np.ndarray
    readout_times: np.ndarray


def find_optimal_time(
    spec: ChainSpec,
    n: int,
    window: tuple[float, float] | None = None,
) -> ProtocolResult:
    """Locate the best transfer time by a coarse scan plus golden-section refinement.

    Without an explicit window the scan covers [0, 1.2 tau].  The coarse grid
    must resolve the fast block dynamics; it has ceil((hi - lo) / GRID_STEP) + 1
    points, a spacing of at most GRID_STEP.
    """
    try:
        report = resonance_report(spec, n)
    except (ValueError, ResonanceError):  # no resonance analysis for this layout
        if window is None:
            raise
        report = None
    if window is None:
        window = (0.0, 1.2 * report.transfer_time)
    lo, hi = float(window[0]), float(window[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"search window ({lo}, {hi}) is not finite")
    if not hi > lo:
        raise ValueError(f"empty search window ({lo}, {hi})")

    def objective(t: float) -> float:
        return float(scan_values(spec, n, np.array([t]))[0])

    times = np.linspace(lo, hi, int(np.ceil((hi - lo) / GRID_STEP)) + 1)
    values = scan_values(spec, n, times)
    best = int(np.argmax(values))
    spacing = times[1] - times[0]

    a = max(lo, times[best] - spacing)
    b = min(hi, times[best] + spacing)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = objective(x1), objective(x2)
    # Stop at float resolution: once a new interior point is no longer strictly
    # inside its part of the bracket, the bracket cannot shrink any further.
    while True:
        if f1 < f2:
            x = x1 + _GOLDEN * (b - x1)
            if not x2 < x < b:
                break
            a, x1, f1 = x1, x2, f2
            x2, f2 = x, objective(x)
        else:
            x = x2 - _GOLDEN * (x2 - a)
            if not a < x < x1:
                break
            b, x2, f2 = x2, x1, f1
            x1, f1 = x, objective(x)
    t_best = x1 if f1 >= f2 else x2
    f_best = max(f1, f2)
    if values[best] > f_best:  # keep the coarse point if refinement drifted off the peak
        t_best = float(times[best])
        f_best = objective(t_best)  # the 1-point path, so the result equals scan_values at t_best

    readout = times[values >= 0.99 * f_best]
    return ProtocolResult(
        optimal_time=float(t_best),
        fidelity_at_optimum=float(f_best),
        cluster=report,
        times=times,
        fidelity=values,
        readout_times=readout,
    )
