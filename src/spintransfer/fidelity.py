"""Closed-form fidelity statistics over Haar-random pure inputs.

Two routes are implemented: directly from dynamical-map elements (any map),
and from the block transfer amplitudes of a chain (exact for zero
anisotropy).  Both the mean and the second moment come from fourth- and
eighth-order Haar moments of the input coefficients, so only a handful of
element families of the map survive the average.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .amplitudes import TransferAmplitudeSet
from .dynmap import VALIDATION_TOL, DynamicalMap, trace_deviation
from .errors import MapValidationError


@dataclass(frozen=True)
class FidelityStats:
    """First two moments of a fidelity distribution plus derived dispersion measures."""

    mean: float
    second_moment: float
    variance: float
    cv: float

    @classmethod
    def from_moments(cls, mean: float, second_moment: float) -> "FidelityStats":
        if not 0.0 < mean <= 1.0 + 1e-9:
            raise ValueError(f"mean fidelity must lie in (0, 1], got {mean}")
        variance = second_moment - mean**2
        if variance < -1e-12:
            raise ValueError(f"second moment {second_moment} below mean^2 {mean ** 2}")
        variance = max(variance, 0.0)
        cv = math.sqrt(max(second_moment / mean**2 - 1.0, 0.0))
        return cls(mean=mean, second_moment=second_moment, variance=variance, cv=cv)


def _validated_tensor(m: DynamicalMap) -> np.ndarray:
    dev = trace_deviation(m)
    if dev > VALIDATION_TOL:
        raise MapValidationError(f"map is not trace preserving (violation {dev:.3e})")
    return m.as_tensor()


def avg_fidelity_from_map(m: DynamicalMap) -> float:
    """Haar-average fidelity of a map.

    Only three element families survive the average: receiver-diagonal
    elements fed by sender-diagonal ones, and the matched coherence family
    A[(i,j)][(i,j)]; everything else integrates to zero.
    """
    a = _validated_tensor(m)
    d = m.d
    diag_same = np.einsum("iiii->", a)
    diag_cross = np.einsum("iijj->", a) - diag_same
    coher = np.einsum("ijij->ij", a)
    coher_sum = np.sum(np.tril(coher, -1))
    value = (2.0 * diag_same + diag_cross + 2.0 * coher_sum.real).real / (d * (d + 1))
    return float(value)


def second_moment_from_map(m: DynamicalMap) -> float:
    """Haar average of the squared fidelity of a map.

    Eighth-order moments of Haar coefficients contract the map against itself;
    the six quadratic families below are what survives, each factorising into
    at most O(d^2)-sized intermediate sums except the last, which is a genuine
    four-index contraction.
    """
    a = _validated_tensor(m)
    d = m.d

    x = np.einsum("iimm->", a) + np.einsum("imim->", a)
    b = np.einsum("iipm->pm", a) + np.einsum("ipim->pm", a)
    c = np.einsum("pmss->pm", a) + np.einsum("psms->pm", a)
    e = np.einsum("pmps->ms", a) + np.einsum("ppms->ms", a)
    g = np.einsum("impm->ip", a) + np.einsum("ipmm->ip", a)

    t1 = x * x
    t2 = np.sum(b * c)
    t3 = np.sum(b.T * e)
    t4 = np.sum(g * c.T)
    t5 = np.sum(g * e)
    t6 = (
        np.einsum("ipsm,pims->", a, a)
        + np.einsum("ipsm,pmis->", a, a)
        + np.einsum("ispm,pims->", a, a)
        + np.einsum("ispm,pmis->", a, a)
    )
    total = t1 + t2 + t3 + t4 + t5 + t6
    return float(total.real / (d * (d + 1) * (d + 2) * (d + 3)))


def stats_from_map(m: DynamicalMap) -> FidelityStats:
    """Mean, second moment, variance and CV of a map's fidelity distribution."""
    return FidelityStats.from_moments(avg_fidelity_from_map(m), second_moment_from_map(m))


# ---------------------------------------------------------------------------
# Amplitude route (single chain, zero anisotropy)
# ---------------------------------------------------------------------------


class TransferFidelityTerms(NamedTuple):
    """Average fidelity split into its random-guess, classical and coherent pieces."""

    total: float
    random_guess: float
    classical: float
    quantum: float


def fidelity_terms(amplitudes, d: int, total_amplitude=None) -> TransferFidelityTerms:
    """Decomposed average fidelity from the amplitudes f_S^S of every nonempty subset S.

    Works elementwise, so each amplitude may be a number or a series over a
    time grid.  `total_amplitude` is 1 + sum_S f_S^S, which a chain gives as
    det(I + B) of its sender -> receiver block; it is summed from `amplitudes`
    when omitted, and with it alone (no amplitudes) only `total` is meaningful.
    random_guess + classical reach the entanglement-free benchmark 2/(d+1)
    when every transition probability is one; the quantum piece carries the
    coherences and can add up to (d-1)/(d+1) on top.
    """
    amplitudes = list(amplitudes)
    if total_amplitude is None:
        total_amplitude = 1.0 + sum(amplitudes)
    total = 1.0 / (d + 1) + np.abs(total_amplitude) ** 2 / (d * (d + 1))
    random_guess = 1.0 / d
    classical = sum(np.abs(f) ** 2 for f in amplitudes) / (d * (d + 1))
    return TransferFidelityTerms(total, random_guess, classical, total - (random_guess + classical))


def transfer_fidelity_terms(amps: TransferAmplitudeSet, d: int) -> TransferFidelityTerms:
    """Decomposed average fidelity from the transfer amplitude set of an n-site block."""
    if d != 2**amps.block_size:
        raise ValueError(f"dimension {d} does not match block size {amps.block_size}")
    return fidelity_terms(amps.entries.values(), d)


def avg_fidelity_from_amplitudes(amps: TransferAmplitudeSet, d: int) -> float:
    """Average transfer fidelity of an n-site block: 1/(d+1) + |1 + sum_S f_S^S|^2 / (d(d+1))."""
    return transfer_fidelity_terms(amps, d).total


def avg_fidelity_two_qubit(f1: complex, f2: complex, f12: complex) -> float:
    """Two-site block average fidelity from its three transfer amplitudes."""
    for name, f in (("f1", f1), ("f2", f2), ("f12", f12)):
        if abs(f) > 1.0 + 1e-9:
            raise ValueError(f"|{name}| = {abs(f)} exceeds 1")
    cross = f1 + f2 + f12 + f2 * np.conj(f1) + f12 * np.conj(f1) + f12 * np.conj(f2)
    return float(
        0.25
        + (abs(f1) ** 2 + abs(f2) ** 2 + abs(f12) ** 2) / 20.0
        + np.real(cross) / 10.0
    )


# ---------------------------------------------------------------------------
# Independent parallel channels
# ---------------------------------------------------------------------------


def independent_channels_fidelity(f: complex, n: int) -> float:
    """Average fidelity of n qubits sent through identical independent channels."""
    if abs(f) > 1.0 + 1e-9:
        raise ValueError(f"|f| = {abs(f)} exceeds 1")
    if n < 1:
        raise ValueError("need at least one channel")
    d = 2**n
    return float(1.0 / (d + 1) + abs(1.0 + f) ** (2 * n) / (d * (d + 1)))


def product_ratio_vs_amplitude(f: float, n: int) -> float:
    """Ratio of the product-state average fidelity to the full average, at amplitude f.

    Always >= 1: restricting inputs to product states never hurts independent
    channels, with equality only at f = 0 and f = 1.
    """
    if not 0.0 <= f <= 1.0:
        raise ValueError(f"amplitude must lie in [0, 1], got {f}")
    if n < 1:
        raise ValueError("need at least one channel")
    num = (2**n + 1) * (f * (f + 2) + 3) ** n
    den = 3**n * ((f + 1) ** (2 * n) + 2**n)
    return float(num / den)


def amplitude_for_fidelity(F: float, n: int) -> float:
    """Invert the independent-channel average fidelity for the real amplitude producing it."""
    d = 2**n
    if not 1.0 / d < F <= 1.0 + 1e-12:
        raise ValueError(f"fidelity must lie in (1/{d}, 1], got {F}")
    return float(math.sqrt(2.0) * ((d + 1) * (F - 1.0 / (d + 1))) ** (1.0 / (2 * n)) - 1.0)


def product_ratio_vs_fidelity(F: float, n: int) -> float:
    """Product-to-full fidelity ratio of independent channels at fixed full average F.

    Tends to F^(-1/3) for many channels; maximal at the entanglement-free
    benchmark F = 2/(d+1).
    """
    d = 2**n
    if not 1.0 / d < F <= 1.0 + 1e-12:
        raise ValueError(f"fidelity must lie in (1/{d}, 1], got {F}")
    return float((1.0 + (d * F + F - 1.0) ** (1.0 / n)) ** n / (3**n * F))


def product_state_variance(one_qubit_stats: FidelityStats, n: int) -> float:
    """Fidelity variance over product-state inputs of n independent channels.

    Factorisation over channels turns moments into powers:
    <F^2> = <F_1^2>^n and <F> = <F_1>^n.
    """
    if n < 1:
        raise ValueError("need at least one channel")
    return float(one_qubit_stats.second_moment**n - one_qubit_stats.mean ** (2 * n))
