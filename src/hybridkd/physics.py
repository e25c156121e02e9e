"""Closed-form physical models of the optical and wired subsystems.

Optical side: weak-coherent-pulse BB84 link budget (transmittance, photon
gain, QBER, post-processing penalty). Wired side: quasi-static bandwidth
limit of the noise line and the aggregate decision-bit rate obtained by
spatial multiplexing.

Units are fixed throughout the package: distances in km, frequencies and
bit rates in Hz/bps, attenuation in dB/km, signal velocity in km/s.
Conversions belong at the configuration boundary, not here.

The distance-dependent functions take a float or a float64 array of
distances (a 0-d array counts as its float) and return the same kind. One
formula serves both, and an array evaluates bit for bit like its elements
one at a time: transcendentals, log2 too, map the C library's function over
the elements (`_libm`), and each domain check names the first offending
element. A public function is its checks plus a private core that skips them
(`_transmittance`, `_budget`, `_entropy`, `_gamma`, `_bandwidth`,
`_bit_rate`), so each formula is written once and is checked once: at the
public function, or at the boundary of a caller such as `rates`, which
composes the cores. `LinkBudget` is a slots dataclass like `rates.RatePoint`:
mutable and unhashable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import _FLOAT_MAX, DomainError, _shown, check_int, check_real, check_type

__all__ = [
    "OpticalParams",
    "KljnLineParams",
    "LinkBudget",
    "system_transmittance",
    "gain_and_qber",
    "binary_entropy",
    "post_processing_penalty",
    "wave_limit_bandwidth",
    "kljn_bit_rate",
    "link_budget",
]


def _libm(fn, x):
    """fn(x) for a float; for an array of any shape, 0-d too, fn of each element.

    numpy's SIMD power, expm1 and log2 differ from the C library's in the
    last ulp on some inputs, so arrays take the same per-element libm call
    as floats. Here and below a float is told apart first, as isinstance is slow to say no;
    the cores on the solver's path tell it apart themselves and call fn directly.
    """
    if x.__class__ is not float and isinstance(x, np.ndarray):
        return np.fromiter(map(fn, x.ravel().tolist()), np.float64, x.size).reshape(x.shape)
    return fn(x)


def _minimum(a, b):
    """min(a, b), elementwise when b is an array (a comparison, as the builtin min is slow)."""
    if b.__class__ is not float and isinstance(b, np.ndarray):
        return np.minimum(a, b)
    return b if b < a else a


def _require(ok, value, message: str) -> None:
    """Raise DomainError(message.format(v)), v the first `value` where `ok` is false.

    `ok` is a bool for a float `value` and a bool array of its shape for an
    array `value`.
    """
    if ok is True:
        return
    if isinstance(ok, np.ndarray):
        if ok.all():
            return
        value = float(value[~ok][0])
    elif ok:
        return
    raise DomainError(message.format(value))


def _check_type(value, name: str) -> None:
    """Reject a value that is no real number or array, or an int past the float range.

    Concrete types first, as this is hot: a float returns at once.
    """
    if value.__class__ is float:
        return
    if not isinstance(value, _REAL_TYPES) or value.__class__ is bool:
        raise DomainError(f"{name} must be a number or a float64 array, got {value!r}")
    if isinstance(value, int) and not -_FLOAT_MAX <= value <= _FLOAT_MAX:
        raise DomainError(f"{name} must be within the float range, got {_shown(value)}")


_REAL_TYPES = (float, int, np.floating, np.integer, np.ndarray)
_exp10 = partial(math.pow, 10.0)


def _xlog2x(x: float) -> float:
    """x * log2(x), continued to 0 at x = 0; an array's log2 is one C-level map of libm's."""
    if x.__class__ is not float and isinstance(x, np.ndarray):
        return x * _libm(math.log2, np.where(x > 0.0, x, 1.0))
    return x * math.log2(x) if x > 0.0 else 0.0


@dataclass(frozen=True)
class OpticalParams:
    """Weak-coherent-pulse channel and detector parameters.

    alpha:  fiber attenuation [dB/km]
    mu:     mean photon number per pulse
    eta_d:  detector efficiency, in (0, 1]
    p_d:    dark count probability per pulse, in [0, 1)
    e_opt:  optical misalignment error, in [0, 0.5)
    f_ec:   error-correction inefficiency factor, >= 1
    f_qkd:  native laser repetition rate [Hz]
    """

    alpha: float
    mu: float
    eta_d: float
    p_d: float
    e_opt: float
    f_ec: float
    f_qkd: float

    def __post_init__(self) -> None:
        check_real(self.alpha, "alpha", ge=0)
        check_real(self.mu, "mu", gt=0)
        check_real(self.eta_d, "eta_d", gt=0, le=1)
        check_real(self.p_d, "p_d", ge=0, lt=1)
        check_real(self.e_opt, "e_opt", ge=0, lt=0.5)
        check_real(self.f_ec, "f_ec", ge=1)
        check_real(self.f_qkd, "f_qkd", gt=0)


@dataclass(frozen=True)
class KljnLineParams:
    """Copper-line parameters of the noise-based key exchange subsystem.

    v:         signal velocity in copper [km/s]
    n_pairs:   number of spatially multiplexed wire pairs
    n_samples: voltage samples collected per decision bit
    r_low:     low resistor value [ohm]
    r_high:    high resistor value [ohm]
    """

    v: float
    n_pairs: int
    n_samples: int
    r_low: float
    r_high: float

    def __post_init__(self) -> None:
        check_real(self.v, "v", gt=0)
        check_int(self.n_pairs, "n_pairs", ge=1)
        check_int(self.n_samples, "n_samples", ge=1)
        check_real(self.r_low, "r_low", gt=0)
        check_real(self.r_high, "r_high", gt=self.r_low)


@dataclass(slots=True)  # not frozen, like rates.RatePoint: a frozen __init__ costs a call a field
class LinkBudget:
    """Optical link budget at a fixed distance, or over a grid (float64 arrays).

    eta_sys: overall system transmittance
    q_mu:    expected photon gain per pulse (includes dark counts)
    e_mu:    quantum bit error rate of detected events
    gamma:   post-processing penalty in [0, 1]
    """

    distance_km: float
    eta_sys: float
    q_mu: float
    e_mu: float
    gamma: float


def system_transmittance(p: OpticalParams, distance_km: float) -> float:
    """Overall system transmittance eta_sys = eta_D * 10^(-alpha*L/10)."""
    check_type(p, OpticalParams, "p")
    _check_type(distance_km, "distance")
    _require((0.0 <= distance_km) & (distance_km < math.inf), distance_km,
             "distance must be finite and >= 0 km, got {}")
    return _transmittance(p, distance_km)


def _transmittance(p: OpticalParams, distance_km: float) -> float:
    x = -p.alpha * distance_km / 10.0
    return p.eta_d * (_exp10(x) if x.__class__ is float else _libm(_exp10, x))


def gain_and_qber(p: OpticalParams, distance_km: float) -> tuple[float, float]:
    """Expected photon gain and QBER of the WCP link.

        Q_mu = 1 - exp(-mu * eta_sys) + p_d
        E_mu = (e_opt * (1 - exp(-mu * eta_sys)) + 0.5 * p_d) / Q_mu

    The exponential term is evaluated with expm1 so that the deep-loss
    limit (mu * eta_sys -> 0) stays accurate.
    """
    return _gain_and_qber(p, system_transmittance(p, distance_km))


def _gain_and_qber(p: OpticalParams, eta_sys: float) -> tuple[float, float]:
    x = -p.mu * eta_sys
    optical_click = -(math.expm1(x) if x.__class__ is float else _libm(math.expm1, x))
    q_mu = optical_click + p.p_d  # optical_click is 1 - exp(-mu*eta_sys)
    _require(q_mu != 0.0, q_mu,
             "q_mu is zero (p_d = 0 and mu*eta_sys = 0); QBER is undefined")
    e_mu = (p.e_opt * optical_click + 0.5 * p.p_d) / q_mu
    return q_mu, e_mu


def _budget(p: OpticalParams, eta_sys: float) -> tuple[float, float, float]:
    """(q_mu, e_mu, gamma) at a system transmittance: the budget past `_transmittance`."""
    q_mu, e_mu = _gain_and_qber(p, eta_sys)
    return q_mu, e_mu, _gamma(p, _entropy(e_mu))


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) = -x*log2(x) - (1-x)*log2(1-x), h(0) = h(1) = 0.

    Takes a float or a float64 array; a 0-d array gives its float's value.
    """
    _check_type(x, "entropy argument")
    _require((0.0 <= x) & (x <= 1.0), x, "entropy argument must be in [0, 1], got {}")
    return _entropy(x)


def _entropy(x: float) -> float:
    # 0.0 - a rather than -a: h(0) and h(1) come out +0.0, not -0.0
    return 0.0 - _xlog2x(x) - _xlog2x(1.0 - x)


def post_processing_penalty(p: OpticalParams, e_mu: float) -> float:
    """Key fraction sacrificed to error correction and privacy amplification.

    gamma = min(1, (f_ec + 1) * h(E_mu)), clamped at unity (100% overhead).
    E_mu is a float or a float64 array, as for `binary_entropy`.
    """
    check_type(p, OpticalParams, "p")
    return _gamma(p, binary_entropy(e_mu))


def _gamma(p: OpticalParams, h: float) -> float:
    """gamma from the binary entropy h of E_mu."""
    gamma = (p.f_ec + 1.0) * h
    return (gamma if gamma < 1.0 else 1.0) if gamma.__class__ is float else _minimum(1.0, gamma)


def wave_limit_bandwidth(line: KljnLineParams, distance_km: float) -> float:
    """Quasi-static noise bandwidth limit B_W = v / (20 * L) in Hz.

    Keeps the highest noise frequency a factor of ten below the first
    standing-wave frequency f_1 = v / (2 * L), so the cable stays a lumped
    circuit. Diverges as L -> 0, so a distance whose bandwidth is not
    finite and > 0 (zero, negative, non-finite or extreme) is rejected.
    """
    check_type(line, KljnLineParams, "line")
    _check_type(distance_km, "distance")
    message = "distance {} km gives no finite, positive bandwidth v / (20 L)"
    _require(distance_km > 0.0, distance_km, message)
    if distance_km.__class__ is float:
        b_w = _bandwidth(line, distance_km)
    else:  # numpy warns where a float overflows to inf quietly; the check below names it
        with np.errstate(over="ignore"):
            b_w = _bandwidth(line, distance_km)
    _require((0.0 < b_w) & (b_w < math.inf), distance_km, message)
    return b_w


def _bandwidth(line: KljnLineParams, distance_km: float) -> float:
    return line.v / (20.0 * distance_km)


def kljn_bit_rate(line: KljnLineParams, distance_km: float) -> float:
    """Aggregate decision-bit rate R = n_pairs * f_s / n_samples in bps.

    The per-pair sampling rate is Nyquist at the wave limit, f_s = 2 * B_W.
    A distance whose rate overflows the float range is rejected.
    """
    b_w = wave_limit_bandwidth(line, distance_km)
    if b_w.__class__ is float:
        rate = _bit_rate(line, b_w)
    else:  # numpy warns where a float overflows to inf quietly; the check below names it
        with np.errstate(over="ignore"):
            rate = _bit_rate(line, b_w)
    _require(rate < math.inf, distance_km, "distance {} km gives a wire bit rate that overflows")
    return rate


def _bit_rate(line: KljnLineParams, b_w: float) -> float:
    """The wire bit rate at a noise bandwidth b_w."""
    return line.n_pairs * (2.0 * b_w) / line.n_samples


def link_budget(p: OpticalParams, distance_km: float) -> LinkBudget:
    """Evaluate the full optical budget at one distance, or over an array of them."""
    eta_sys = system_transmittance(p, distance_km)  # checks p and the distance
    return LinkBudget(distance_km, eta_sys, *_budget(p, eta_sys))
