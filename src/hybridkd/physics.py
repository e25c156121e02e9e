"""Closed-form physical models of the optical and wired subsystems.

Optical side: weak-coherent-pulse BB84 link budget (transmittance, photon
gain, QBER, post-processing penalty). Wired side: quasi-static bandwidth
limit of the noise line and the aggregate decision-bit rate obtained by
spatial multiplexing.

Units are fixed throughout the package: distances in km, frequencies and
bit rates in Hz/bps, attenuation in dB/km, signal velocity in km/s.
Conversions belong at the configuration boundary, not here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import DomainError

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


def _require_finite(params: object) -> None:
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise DomainError(f"{field.name} must be finite, got {value}")


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
        _require_finite(self)
        if self.alpha < 0:
            raise DomainError(f"alpha must be >= 0 dB/km, got {self.alpha}")
        if self.mu <= 0:
            raise DomainError(f"mu must be > 0, got {self.mu}")
        if not 0 < self.eta_d <= 1:
            raise DomainError(f"eta_d must be in (0, 1], got {self.eta_d}")
        if not 0 <= self.p_d < 1:
            raise DomainError(f"p_d must be in [0, 1), got {self.p_d}")
        if not 0 <= self.e_opt < 0.5:
            raise DomainError(f"e_opt must be in [0, 0.5), got {self.e_opt}")
        if self.f_ec < 1:
            raise DomainError(f"f_ec must be >= 1, got {self.f_ec}")
        if self.f_qkd <= 0:
            raise DomainError(f"f_qkd must be > 0 Hz, got {self.f_qkd}")


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
        _require_finite(self)
        if self.v <= 0:
            raise DomainError(f"v must be > 0 km/s, got {self.v}")
        if self.n_pairs < 1:
            raise DomainError(f"n_pairs must be >= 1, got {self.n_pairs}")
        if self.n_samples < 1:
            raise DomainError(f"n_samples must be >= 1, got {self.n_samples}")
        if not 0 < self.r_low < self.r_high:
            raise DomainError(
                f"resistors must satisfy 0 < r_low < r_high, got {self.r_low}, {self.r_high}"
            )


@dataclass(frozen=True)
class LinkBudget:
    """Optical link budget at a fixed distance.

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
    if not (math.isfinite(distance_km) and distance_km >= 0):
        raise DomainError(f"distance must be finite and >= 0 km, got {distance_km}")
    return p.eta_d * 10.0 ** (-p.alpha * distance_km / 10.0)


def gain_and_qber(p: OpticalParams, distance_km: float) -> tuple[float, float]:
    """Expected photon gain and QBER of the WCP link.

        Q_mu = 1 - exp(-mu * eta_sys) + p_d
        E_mu = (e_opt * (1 - exp(-mu * eta_sys)) + 0.5 * p_d) / Q_mu

    The exponential term is evaluated with expm1 so that the deep-loss
    limit (mu * eta_sys -> 0) stays accurate.
    """
    return _gain_and_qber(p, system_transmittance(p, distance_km))


def _gain_and_qber(p: OpticalParams, eta_sys: float) -> tuple[float, float]:
    optical_click = -math.expm1(-p.mu * eta_sys)  # 1 - exp(-mu*eta_sys)
    q_mu = optical_click + p.p_d
    if q_mu == 0.0:
        raise DomainError(
            "q_mu is zero (p_d = 0 and mu*eta_sys = 0); QBER is undefined"
        )
    e_mu = (p.e_opt * optical_click + 0.5 * p.p_d) / q_mu
    return q_mu, e_mu


def binary_entropy(x: float) -> float:
    """Binary entropy h(x) = -x*log2(x) - (1-x)*log2(1-x), h(0) = h(1) = 0."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"entropy argument must be in [0, 1], got {x}")
    if x == 0.0 or x == 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def post_processing_penalty(p: OpticalParams, e_mu: float) -> float:
    """Key fraction sacrificed to error correction and privacy amplification.

    gamma = min(1, (f_ec + 1) * h(E_mu)), clamped at unity (100% overhead).
    """
    return min(1.0, (p.f_ec + 1.0) * binary_entropy(e_mu))


def wave_limit_bandwidth(line: KljnLineParams, distance_km: float) -> float:
    """Quasi-static noise bandwidth limit B_W = v / (20 * L) in Hz.

    Keeps the highest noise frequency a factor of ten below the first
    standing-wave frequency f_1 = v / (2 * L), so the cable stays a lumped
    circuit. Diverges as L -> 0, so a distance whose bandwidth is not
    finite and > 0 (zero, negative, non-finite or extreme) is rejected.
    """
    b_w = line.v / (20.0 * distance_km) if distance_km > 0 else 0.0
    if not 0.0 < b_w < math.inf:
        raise DomainError(
            f"distance {distance_km} km gives no finite, positive bandwidth v / (20 L)"
        )
    return b_w


def kljn_bit_rate(line: KljnLineParams, distance_km: float) -> float:
    """Aggregate decision-bit rate R = n_pairs * f_s / n_samples in bps.

    The per-pair sampling rate is Nyquist at the wave limit, f_s = 2 * B_W.
    """
    f_s = 2.0 * wave_limit_bandwidth(line, distance_km)
    return line.n_pairs * f_s / line.n_samples


def link_budget(p: OpticalParams, distance_km: float) -> LinkBudget:
    """Evaluate the full optical budget at one distance."""
    eta_sys = system_transmittance(p, distance_km)
    q_mu, e_mu = _gain_and_qber(p, eta_sys)
    return LinkBudget(
        distance_km=distance_km,
        eta_sys=eta_sys,
        q_mu=q_mu,
        e_mu=e_mu,
        gamma=post_processing_penalty(p, e_mu),
    )
