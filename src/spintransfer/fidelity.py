"""Closed-form fidelity statistics over Haar-random pure inputs.

Two routes are implemented: directly from dynamical-map elements (any map),
and from the block transfer amplitudes of a chain (exact for zero
anisotropy).  The Haar average joins the input's kets to its bras in every
way: the mean sums the 2 S2 pairing contractions of the map, the variance
the 24 S4 pairing contractions of two copies of the centred map E - mu id.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .dynmap import VALIDATION_TOL, DynamicalMap, one_qubit_tensors, trace_deviation
from .dynmap import _checked_amplitudes
from .errors import MapValidationError


@dataclass(frozen=True, eq=False)
class FidelityStats:
    """Mean and variance of fidelity distributions, checked and clamped: numbers, or arrays."""

    mean: float | np.ndarray
    variance: float | np.ndarray

    def __post_init__(self):
        if not np.all((0.0 < self.mean) & (self.mean <= 1.0 + 1e-9)):
            raise ValueError(f"mean fidelity must lie in (0, 1], got {self.mean}")
        if not np.all(self.variance >= -1e-12):  # a NaN variance fails too
            raise ValueError(f"variance must be non-negative, got {self.variance}")
        object.__setattr__(self, "variance", np.maximum(self.variance, 0.0))

    @property
    def second_moment(self):
        return self.variance + self.mean**2

    @property
    def cv(self):
        return np.sqrt(self.variance) / self.mean


def _validated_tensor(m: DynamicalMap) -> np.ndarray:
    dev = trace_deviation(m)
    if dev > VALIDATION_TOL:
        raise MapValidationError(f"map is not trace preserving (violation {dev:.3e})")
    return m.as_tensor()


def _s2_terms(a: np.ndarray) -> np.ndarray:
    """The 2 S2 pairing contractions of a map tensor a[..., i, j, n, m], batched.

    For a map with Kraus operators K_k they are d and sum_k |tr K_k|^2, so E[F],
    their sum over d(d+1), is Nielsen's (d + sum_k |tr K_k|^2) / (d(d+1)).
    """
    return np.stack([np.einsum("...iimm->...", a), np.einsum("...imim->...", a)], axis=-1)


def _mean(a: np.ndarray, d: int) -> float:
    return float(np.sum(_s2_terms(a)).real / (d * (d + 1)))


def avg_fidelity_from_map(m: DynamicalMap) -> float:
    """Haar-average fidelity of a map: the sum of its 2 S2 pairings (_s2_terms) over d(d+1)."""
    return _mean(_validated_tensor(m), m.d)


def _pairing_terms(a: np.ndarray) -> np.ndarray:
    """The 24 S4 pairing contractions of two copies of a map tensor a[..., i, j, n, m], batched.

    E[F^2] over Haar inputs joins the four kets of two copies of the map to
    their four bras in each of the 24 ways; the last axis of the result holds
    one contraction per way.  Twenty of them first contract indices within
    each copy: x contracts all four indices of a copy in two pairs, b and c
    one pair each, and the products x x, b c, c b, b b and c c are those
    twenty.  The last four join the two copies index by index.  Each
    contraction of a tensor product of maps is the product of the factors'
    contractions, so the terms of n parallel channels are the one-channel
    terms raised to the n.
    """
    ein = np.einsum
    x = _s2_terms(a)
    b = np.stack([ein("...iipm->...pm", a), ein("...ipim->...pm", a)], axis=-1)
    c = np.stack([ein("...pmss->...pm", a), ein("...psms->...pm", a)], axis=-1)
    bc = ein("...pmk,...pml->...kl", b, c)
    terms = [
        ein("...k,...l->...kl", x, x),
        bc,
        bc.swapaxes(-1, -2),
        ein("...mpk,...pml->...kl", b, b),
        ein("...ipk,...pil->...kl", c, c),
        np.stack(
            [
                ein("...ipsm,...pims->...", a, a),
                ein("...ipsm,...pmis->...", a, a),
                ein("...ispm,...pims->...", a, a),
                ein("...ispm,...pmis->...", a, a),
            ],
            axis=-1,
        ),
    ]
    lead = a.shape[:-4]
    return np.concatenate([t.reshape(lead + (4,)) for t in terms], axis=-1)


def second_moment_from_map(m: DynamicalMap) -> float:
    """Haar average of the squared fidelity of a map: stats_from_map's variance + mean^2."""
    return stats_from_map(m).second_moment


def stats_from_map(m: DynamicalMap) -> FidelityStats:
    """Mean and variance of a map's fidelity distribution, validated once.

    F - mu is the fidelity of the centred map E - mu id (id gives F = 1), so the
    24 pairings of it over d(d+1)(d+2)(d+3) are E[(F - mu)^2] = Var + (E[F] - mu)^2:
    no E[F^2] - mu^2 cancellation, and mu's rounding costs only (eps mu)^2.
    """
    d = m.d
    mean = _mean(_validated_tensor(m), d)
    centred = m.elements.copy()  # the identity map is the d^2 x d^2 identity matrix
    centred.reshape(-1)[:: d * d + 1] -= mean  # its diagonal
    terms = _pairing_terms(centred.reshape(d, d, d, d))
    return FidelityStats(mean, float(np.sum(terms).real / (d * (d + 1) * (d + 2) * (d + 3))))


# ---------------------------------------------------------------------------
# Amplitude route (single chain, zero anisotropy)
# ---------------------------------------------------------------------------


class TransferFidelityTerms(NamedTuple):
    """Average fidelity split into its random-guess, classical and coherent pieces."""

    total: float
    random_guess: float
    classical: float
    quantum: float


def fidelity_terms(amplitudes, d: int, total_amplitude) -> TransferFidelityTerms:
    """Decomposed average fidelity from the amplitudes f_S^S of every nonempty subset S.

    Works elementwise, so each amplitude may be a number or a series over a
    time grid.  `total_amplitude` is 1 + sum_S f_S^S, which a chain gives as
    det(I + B) of its sender -> receiver block; with it alone (no amplitudes)
    only `total` is meaningful.
    random_guess + classical reach the entanglement-free benchmark 2/(d+1)
    when every transition probability is one; the quantum piece carries the
    coherences and can add up to (d-1)/(d+1) on top.
    """
    total = 1.0 / (d + 1) + np.abs(total_amplitude) ** 2 / (d * (d + 1))
    random_guess = 1.0 / d
    classical = sum(np.abs(f) ** 2 for f in amplitudes) / (d * (d + 1))
    return TransferFidelityTerms(total, random_guess, classical, total - (random_guess + classical))


def avg_fidelity_two_qubit(f1: complex, f2: complex, f12: complex) -> float:
    """Two-site block average fidelity from its three transfer amplitudes."""
    _checked_amplitudes([f1, f2, f12])
    cross = f1 + f2 + f12 + f2 * np.conj(f1) + f12 * np.conj(f1) + f12 * np.conj(f2)
    return float(
        0.25
        + (abs(f1) ** 2 + abs(f2) ** 2 + abs(f12) ** 2) / 20.0
        + np.real(cross) / 10.0
    )


# ---------------------------------------------------------------------------
# Independent parallel channels
#
# The closed forms work entrywise.  Powers use np.power: on a numpy scalar **
# calls libm's pow, whose last bit can differ from numpy's array loop, so a
# scalar call would not give the digits of the same entry of an array call.
# ---------------------------------------------------------------------------

# Up to this many channels d(d+1)(d+2)(d+3), d = 2^n, is a finite float: 2^(4n) < 2^max_exp.
MAX_CHANNELS = (sys.float_info.max_exp - 1) // 4


def _check_channel_count(n: int) -> None:
    if not 1 <= n <= MAX_CHANNELS:
        raise ValueError(f"channel count must be 1 to {MAX_CHANNELS}, got {n}")


def independent_channels_fidelity(f, n: int):
    """Average fidelity of n qubits sent through identical independent channels, entrywise in f."""
    f = _checked_amplitudes(f)
    _check_channel_count(n)
    d = 2**n
    return 1.0 / (d + 1) + np.power(np.abs(1.0 + f), 2 * n) / (d * (d + 1))


def independent_channels_stats(f, n: int) -> FidelityStats:
    """Fidelity statistics of n identical independent channels: arrays over the amplitudes f.

    The second moment is sum_sigma s_sigma(f)^n / (d(d+1)(d+2)(d+3)), d = 2^n: the 24
    one-qubit pairing terms s_sigma(f) factorise over channels, so no n-qubit map is
    built.  The four x x terms, (d(d+1) mean)^2, net out: (d+2)(d+3) - d(d+1) = 4d + 6.
    """
    mean = independent_channels_fidelity(f, n)  # checks f and n
    terms = _pairing_terms(one_qubit_tensors(f))[..., 4:]
    d = 2**n
    rest = np.sum(terms**n, axis=-1).real - d * (d + 1) * (4 * d + 6) * mean**2
    return FidelityStats(mean, rest / (d * (d + 1) * (d + 2) * (d + 3)))


def product_ratio_vs_amplitude(f, n: int):
    """Ratio of the product-state average fidelity to the full average, entrywise in f.

    Always >= 1: restricting inputs to product states never hurts independent
    channels, with equality only at f = 0 and f = 1.
    """
    f = np.asarray(f, dtype=float)
    if not np.all((0.0 <= f) & (f <= 1.0)):
        raise ValueError(f"amplitude must lie in [0, 1], got {f}")
    _check_channel_count(n)
    num = (2**n + 1) * np.power(f * (f + 2) + 3, n)
    den = 3**n * (np.power(f + 1, 2 * n) + 2**n)
    return num / den


def amplitude_for_fidelity(F: float, n: int) -> float:
    """Invert the independent-channel average fidelity for the real amplitude producing it."""
    _check_channel_count(n)
    d = 2**n
    if not 1.0 / d < F <= 1.0 + 1e-12:
        raise ValueError(f"fidelity must lie in (1/{d}, 1], got {F}")
    return float(math.sqrt(2.0) * ((d + 1) * (F - 1.0 / (d + 1))) ** (1.0 / (2 * n)) - 1.0)


def product_ratio_vs_fidelity(F, n: int):
    """Product-to-full fidelity ratio of independent channels at fixed full average F, entrywise.

    Tends to F^(-1/3) for many channels; maximal at the entanglement-free
    benchmark F = 2/(d+1).
    """
    _check_channel_count(n)
    F = np.asarray(F, dtype=float)
    d = 2**n
    if not np.all((1.0 / d < F) & (F <= 1.0 + 1e-12)):
        raise ValueError(f"fidelity must lie in (1/{d}, 1], got {F}")
    return np.power(1.0 + np.power(d * F + F - 1.0, 1.0 / n), n) / (3**n * F)


def product_state_stats(one_qubit_stats: FidelityStats, n: int) -> FidelityStats:
    """Fidelity statistics over product-state inputs of n independent channels, entrywise.

    Factorisation over channels turns moments into powers, <F> = <F_1>^n and
    <F^2> = <F_1^2>^n, so Var = <F_1>^(2n) expm1(n log1p(Var_1 / <F_1>^2)).
    """
    _check_channel_count(n)
    m1, v1 = one_qubit_stats.mean, one_qubit_stats.variance
    return FidelityStats(np.power(m1, n), np.power(m1, 2 * n) * np.expm1(n * np.log1p(v1 / m1**2)))
