"""Weak-coupling transfer protocol: envelopes, scans and optimal-time search.

The slow scale of a weak-coupling transfer is the second-order splitting
delta_omega of the block-localised doublets, giving an envelope period
tau = pi / delta_omega; on top of it the block-internal dynamics oscillates on
the O(1/J) scale.  Searches therefore do a dense coarse scan (resolving the
fast scale) followed by a refinement of its best lobes on shrinking grids.
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
# Step of the CLI scan's default grid only, in the time unit of the couplings; the
# search spaces its own grid by SEARCH_STEP.
GRID_STEP = 0.2
# Coarse spacing of find_optimal_time at max|w| <= 1; the spacing shrinks as 1 / max|w| above.
SEARCH_STEP = 0.4
# Coarse local maxima of find_optimal_time refined on shrinking centred grids.
_SEARCH_LOBES = 32
# Points of each lobe's refinement grid, which shrinks to 2 / (_REFINE_POINTS - 1) of its
# width per round.  Odd, so that offset 0.0, the lobe's centre, is a grid point; at least 5,
# since at 3 the half-width never shrinks and the refinement never ends.
_REFINE_POINTS = 9


def transfer_envelope(
    spec: ChainSpec, n: int, report: ResonanceReport | None = None
) -> Callable[[np.ndarray], np.ndarray]:
    """Slow envelope sin^4(delta_omega t / 2) of the transfer fidelity, peaking at t = tau.

    delta_omega is read from `report`, resonance_report(spec, n) when not given.
    """
    if report is None:
        report = resonance_report(spec, n)
    delta_omega = report.delta_omega

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


def scan_chunks(
    spec: ChainSpec, n: int, t_grid, report: ResonanceReport | None = None
) -> Iterator[FidelityScan]:
    """Yield the scan of each consecutive _SCAN_CHUNK slice of the time grid as a FidelityScan.

    Each piece holds the fidelity from det(I + B) exactly as in scan_values,
    its classical and quantum terms, the envelope and the 2^n - 1 subset
    minors, which feed only the amplitude series and the classical term.
    The envelope comes from `report` when given, else from one
    resonance_report call, and is None where the layout has no analysis.
    Consuming the pieces one at a time keeps memory independent of the grid.
    """
    times = np.asarray(t_grid, dtype=float)
    try:
        envelope = transfer_envelope(spec, n, report)
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
    refinement_rounds: int  # scan_values calls that refined the lobes
    lobe_rank: int  # the winning lobe's rank among the coarse local maxima, 1 for the best


def find_optimal_time(
    spec: ChainSpec,
    n: int,
    window: tuple[float, float] | None = None,
) -> ProtocolResult:
    """Locate the best transfer time by a coarse scan plus a refinement of its best lobes.

    Without an explicit window the scan covers [0, 1.2 tau].  The coarse grid
    must resolve the fast block dynamics, whose fastest phase turns at the
    largest single-particle frequency max|w| (a uniform field shifts every
    frequency, so this is not the bandwidth).  It has ceil((hi - lo) / h) + 1
    points, a spacing of at most h = SEARCH_STEP * min(1, 1 / max|w|).  The
    returned `times`, `fidelity` and `readout_times` lie on that grid.

    The 32 (_SEARCH_LOBES) best coarse local maxima, an edge point counting
    when it is not below its one neighbour, are refined together, one
    `scan_values` call per round.  Each lobe's grid of 9 (_REFINE_POINTS)
    points, clipped to the window, is centred on its best point so far; the
    first spans [t - spacing, t + spacing] and holds the coarse point t
    itself.  Each round moves every centre to its grid's best point, the
    centre itself on a tie, and shrinks the grid to a quarter of its width,
    until its half-width is below the float spacing at the window's far end.
    t* is the centre of the lobe with the best last-round value, the best
    coarse lobe on a tie.  F* is then evaluated alone at t*, so it equals
    `scan_values(spec, n, [t*])[0]` exactly: a batch of two or more points
    may take the factorised-phase path and round differently.

    The grids are compared on batch values, whose phases round to within
    4 eps max|w| |t| (see transfer_block_series), so F* may sit below the best
    1-point value in the window by up to 4 eps max|w| hi.  Against a 1-point
    search far denser than this one, the gap was at most 0.042 eps max|w| hi
    (2.2e-13) on 131 windows: the ten default windows of the tests' scaled
    and field-shifted weak15 and eng18 chains, 120 random weak-coupling
    windows with fields up to 3, and weak_coupling(2, 3, 0.03125, field=3.0)
    on tau +- 8, where F* was 1.5e-13 above it.
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

    step = SEARCH_STEP / max(1.0, float(np.max(np.abs(spectral(spec).eigenvalues))))
    times = np.linspace(lo, hi, int(np.ceil((hi - lo) / step)) + 1)
    values = scan_values(spec, n, times)
    spacing = times[1] - times[0]

    padded = np.concatenate(([-np.inf], values, [-np.inf]))
    peaks = np.flatnonzero((values >= padded[:-2]) & (values >= padded[2:]))
    negated = -values[peaks]
    if peaks.size > _SEARCH_LOBES:  # sort only the best, ties at the cut included
        keep = negated <= np.partition(negated, _SEARCH_LOBES - 1)[_SEARCH_LOBES - 1]
        peaks, negated = peaks[keep], negated[keep]
    peaks = peaks[np.argsort(negated, kind="stable")[:_SEARCH_LOBES]]
    # Each lobe's grid is ordered by distance from its centre, so a tie keeps the centre.
    offsets = np.linspace(-1.0, 1.0, _REFINE_POINTS)
    offsets = offsets[np.argsort(np.abs(offsets), kind="stable")]
    centre, half = times[peaks], spacing
    resolution = np.spacing(max(abs(lo), abs(hi)))
    rounds = 0
    while True:
        rounds += 1
        grid = np.clip(centre[:, None] + half * offsets, lo, hi)
        f = scan_values(spec, n, grid.ravel()).reshape(grid.shape)
        best = np.argmax(f, axis=1)
        centre = grid[np.arange(peaks.size), best]
        half *= 2.0 / (_REFINE_POINTS - 1)
        if half < resolution:
            break
    winner = int(np.argmax(f.max(axis=1)))
    t_best = float(centre[winner])
    f_best = float(scan_values(spec, n, np.array([t_best]))[0])

    readout = times[values >= 0.99 * f_best]
    return ProtocolResult(
        optimal_time=t_best,
        fidelity_at_optimum=f_best,
        cluster=report,
        times=times,
        fidelity=values,
        readout_times=readout,
        refinement_rounds=rounds,
        lobe_rank=winner + 1,
    )
