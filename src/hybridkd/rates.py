"""Analytic key rates and throughputs versus distance.

Normalized rates (secure bits per emitted optical pulse):

    R_BB84 = R_I = 0.5 * Q_mu * (1 - gamma)
    R_II = R_III = R_I + 0.5

The +0.5 term is the wire subsystem's contribution: half of all intervals
carry a basis-derived bit regardless of optical loss. Absolute throughputs
apply the hardware clocks: baseline BB84 runs unthrottled at f_qkd, the
gated hybrid protocols at f_sys = min(f_qkd, R_kljn), and burst (buffered)
operation transiently escapes the throttle at f_qkd.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import DomainError, SolverError
from .physics import (
    KljnLineParams,
    LinkBudget,
    OpticalParams,
    kljn_bit_rate,
    link_budget,
)

__all__ = [
    "RatePoint",
    "normalized_rates",
    "throughputs",
    "sweep",
    "crossover_distance",
    "short_haul_supremacy_bound",
    "RATE_POINT_FIELDS",
]


@dataclass(frozen=True)
class RatePoint:
    """All rate quantities evaluated at one distance."""

    distance_km: float
    q_mu: float
    e_mu: float
    gamma: float
    r_bb84: float   # bits/pulse
    r_p1: float     # bits/pulse (equals r_bb84)
    r_p23: float    # bits/pulse
    r_kljn: float   # bps
    f_sys: float    # Hz
    t_bb84: float   # bps
    t_p1: float     # bps
    t_p23: float    # bps
    t_burst_p1: float  # bps
    t_burst_p2: float  # bps


RATE_POINT_FIELDS = tuple(f.name for f in fields(RatePoint))


def normalized_rates(budget: LinkBudget) -> tuple[float, float]:
    """(R_BB84 = R_I, R_II,III) for a link budget.

    The optical-only rate is returned as (0.5 + r) - 0.5 rather than r
    itself: the subtraction is exact (Sterbenz, since 0.5 + r < 1), so the
    0.5 offset between the two returned values is bit-exact while the
    optical term keeps its value to within one rounding unit (< 2^-54).
    """
    r_optical = 0.5 * budget.q_mu * (1.0 - budget.gamma)
    r_p23 = 0.5 + r_optical
    return r_p23 - 0.5, r_p23


def throughputs(
    optical: OpticalParams, line: KljnLineParams, distance_km: float
) -> RatePoint:
    """Evaluate every RatePoint field at one distance (> 0)."""
    budget = link_budget(optical, distance_km)
    r_bb84, r_p23 = normalized_rates(budget)
    r_kljn = kljn_bit_rate(line, distance_km)
    f_sys = min(optical.f_qkd, r_kljn)
    return RatePoint(
        distance_km=distance_km,
        q_mu=budget.q_mu,
        e_mu=budget.e_mu,
        gamma=budget.gamma,
        r_bb84=r_bb84,
        r_p1=r_bb84,
        r_p23=r_p23,
        r_kljn=r_kljn,
        f_sys=f_sys,
        t_bb84=r_bb84 * optical.f_qkd,
        t_p1=r_bb84 * f_sys,
        t_p23=r_p23 * f_sys,
        t_burst_p1=r_bb84 * optical.f_qkd,
        t_burst_p2=r_p23 * optical.f_qkd,
    )


def sweep(
    optical: OpticalParams,
    line: KljnLineParams,
    l_min: float,
    l_max: float,
    n_points: int,
    spacing: str = "log",
) -> list[RatePoint]:
    """RatePoints over [l_min, l_max] at linear or log spacing."""
    if not 0 < l_min < l_max < math.inf:
        raise DomainError(
            f"sweep distances need 0 < l_min < l_max < inf km, got {l_min}, {l_max}"
        )
    if n_points < 2:
        raise DomainError(f"need at least 2 sweep points, got {n_points}")
    if spacing == "linear":
        grid = np.linspace(l_min, l_max, n_points)
    elif spacing == "log":
        grid = np.geomspace(l_min, l_max, n_points)
    else:
        raise DomainError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    return [throughputs(optical, line, float(d)) for d in grid]


def _bisect(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float,
    what: str,
) -> float:
    f_lo = f(lo)
    f_hi = f(hi)
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise SolverError(
            f"{what}: no sign change over bracket ({lo:g}, {hi:g}) km "
            f"(f={f_lo:.6g} and {f_hi:.6g})"
        )
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:  # float resolution reached
            break
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def crossover_distance(
    optical: OpticalParams,
    line: KljnLineParams,
    bracket: tuple[float, float] = (1.0, 10.0),
    xtol: float = 1e-9,
) -> float:
    """Distance where the hybrid throughput meets unthrottled BB84.

    Bisection on T_II,III(L) - T_BB84(L); the bracket must straddle the
    crossing. The default tolerance is far tighter than the 1e-4 km
    contract so that the residual at the root is negligible.
    """
    return short_haul_supremacy_bound(optical, line, factor=1.0, bracket=bracket, xtol=xtol)


def short_haul_supremacy_bound(
    optical: OpticalParams,
    line: KljnLineParams,
    factor: float = 2.0,
    bracket: tuple[float, float] = (1.0, 10.0),
    xtol: float = 1e-9,
) -> float:
    """Largest distance with T_II,III >= factor * T_BB84.

    The throughput ratio decreases monotonically with distance, so this is
    the root of T_II,III(L) - factor * T_BB84(L) over the bracket.
    With factor=1 this is exactly the crossover distance.
    """
    if not (math.isfinite(factor) and factor > 0):
        raise DomainError(f"factor must be finite and > 0, got {factor}")
    lo, hi = bracket
    if not 0 < lo < hi:
        raise DomainError(f"invalid bracket ({lo}, {hi})")

    def gap(distance: float) -> float:
        point = throughputs(optical, line, distance)
        return point.t_p23 - factor * point.t_bb84

    what = "crossover" if factor == 1.0 else f"supremacy bound (factor {factor:g})"
    return _bisect(gap, lo, hi, xtol, what)
