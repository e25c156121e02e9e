"""Closed-form reference values the benchmark checks the program against.

Derived here from the model equations, not imported from `hybridkd`, so a
change that breaks the package's own formulas cannot also hide the break
from the checks.
"""

from __future__ import annotations

import math


def budget(optical, distance_km: float) -> tuple[float, float]:
    """(q_mu, gamma): per-pulse gain and post-processing penalty."""
    eta = optical.eta_d * 10.0 ** (-optical.alpha * distance_km / 10.0)
    click = -math.expm1(-optical.mu * eta)
    q_mu = click + optical.p_d
    e_mu = (optical.e_opt * click + 0.5 * optical.p_d) / q_mu
    h = 0.0 if e_mu in (0.0, 1.0) else -e_mu * math.log2(e_mu) - (1 - e_mu) * math.log2(1 - e_mu)
    return q_mu, min(1.0, (optical.f_ec + 1.0) * h)


def kljn_rate(line, distance_km: float) -> float:
    """Aggregate wire decision-bit rate: Nyquist sampling at B_W = v / (20 L)."""
    return line.n_pairs * 2.0 * line.v / (20.0 * distance_km) / line.n_samples


def rates(optical, line, distance_km: float) -> tuple[float, float, float]:
    """(r_bb84, r_p23, f_sys): bits per pulse and the gated clock."""
    q_mu, gamma = budget(optical, distance_km)
    r = 0.5 * q_mu * (1.0 - gamma)
    return r, r + 0.5, min(optical.f_qkd, kljn_rate(line, distance_km))


def gap(optical, line, distance_km: float, factor: float) -> float:
    """T_II,III - factor * T_BB84; positive below the supremacy bound."""
    r, r_p23, f_sys = rates(optical, line, distance_km)
    return r_p23 * f_sys - factor * r * optical.f_qkd


def bisection_evals(lo: float, hi: float, xtol: float = 1e-9) -> int:
    """Gap evaluations plain bisection needs: both ends, then one per halving."""
    return 2 + max(0, math.ceil(math.log2((hi - lo) / xtol)))


def yield_moments(protocol: str, q: float, gamma: float) -> tuple[float, float]:
    """(mean, variance) of one round's secure-bit yield, ideal classification.

    bb84/p1: (1-g) w.p. q/2, else 0
    p2:      1+(1-g) w.p. q/2;  1 w.p. (1-q)/2;  0 w.p. 1/2
    p3:      (1-g) w.p. q/2;    1 w.p. 1/2;      0 w.p. (1-q)/2
    """
    w = 1.0 - gamma
    if protocol in ("bb84", "p1"):
        mean, second = 0.5 * q * w, 0.5 * q * w * w
    elif protocol == "p2":
        mean = 0.5 * q * (1.0 + w) + 0.5 * (1.0 - q)
        second = 0.5 * q * (1.0 + w) ** 2 + 0.5 * (1.0 - q)
    else:
        mean, second = 0.5 + 0.5 * q * w, 0.5 + 0.5 * q * w * w
    return mean, second - mean * mean


def accounting_gap(protocol: str, stats) -> int:
    """Rounds minus the rounds the protocol's identity accounts for (0 if it holds).

    bb84/p1: flagged + discarded + qkd_bits = rounds
    p2:      flagged + discarded + kljn_bits = rounds (optical bits ride on kept rounds)
    p3:      flagged + discarded + qkd_bits + kljn_bits = rounds
    """
    used = stats.flagged_rounds + stats.discarded_rounds
    if protocol in ("bb84", "p1"):
        used += stats.qkd_bits
    elif protocol == "p2":
        used += stats.kljn_bits
    else:
        used += stats.qkd_bits + stats.kljn_bits
    return stats.rounds_executed - used
