"""Analytic key rates and throughputs versus distance.

Normalized rates (secure bits per emitted optical pulse):

    R_BB84 = R_I = 0.5 * Q_mu * (1 - gamma)
    R_II = R_III = R_I + 0.5

The +0.5 term is the wire subsystem's contribution: half of all intervals
carry a basis-derived bit regardless of optical loss. Absolute throughputs
apply the hardware clocks: baseline BB84 runs unthrottled at f_qkd, the
gated hybrid protocols at f_sys = min(f_qkd, R_kljn), and burst (buffered)
operation transiently escapes the throttle at f_qkd.

`throughputs` evaluates one distance; `_sweep_columns` evaluates a whole grid
in one pass of the same formulas (`physics` takes arrays too) for `sweep`,
the crossover scan and the CLI, matching `throughputs` bit for bit. The
crossover and supremacy bound distances are roots found by Brent's method.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .errors import DomainError, SolverError, check_int, check_real
from .physics import (
    KljnLineParams,
    LinkBudget,
    OpticalParams,
    _minimum,
    kljn_bit_rate,
    link_budget,
    wave_limit_bandwidth,
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


@dataclass(slots=True)  # not frozen: a frozen __init__ costs 14 object.__setattr__ calls a row
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

_EPS = math.ulp(1.0)
_BRENT_SLACK = 4  # evaluations interpolation may spend beyond bisection's count
_SCAN_POINTS = 257  # a log grid over a bracket whose ends share a sign, for its first crossing
_SCAN_CELL = (math.log(1000) - math.log(0.2)) / (_SCAN_POINTS - 1)  # its cell over (0.2, 1000) km

# Bytes a sweep point takes at the sweep's peak: tracemalloc's peak over `sweep` read
# 608-609 B a point at 1e4 and 1e5 points, log and linear (CPython 3.11, numpy 2.4,
# x86-64), of which the returned rows keep 488 B; rounded up for other builds.
_POINT_BYTES = 640


def _max_points() -> int:
    """The most sweep points whose peak bytes fit in physical memory."""
    try:
        memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # a platform without these sysconf names
        memory = 0
    return min(sys.maxsize // 8, memory // _POINT_BYTES if memory > 0 else sys.maxsize)


# Checked before anything is allocated, so an impossible count fails the same way on any host.
_MAX_POINTS = _max_points()


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


def _rate_columns(optical: OpticalParams, line: KljnLineParams, distance_km):
    """The RatePoint fields in order, at a distance (float) or over a grid (float64 array)."""
    budget = link_budget(optical, distance_km)
    r_bb84, r_p23 = normalized_rates(budget)
    r_kljn = kljn_bit_rate(line, distance_km)
    f_sys = _minimum(optical.f_qkd, r_kljn)
    t_bb84 = r_bb84 * optical.f_qkd
    return (
        distance_km, budget.q_mu, budget.e_mu, budget.gamma,
        r_bb84, r_bb84, r_p23, r_kljn, f_sys,
        t_bb84, r_bb84 * f_sys, r_p23 * f_sys, t_bb84, r_p23 * optical.f_qkd,
    )


def throughputs(
    optical: OpticalParams, line: KljnLineParams, distance_km: float
) -> RatePoint:
    """Evaluate every RatePoint field at one distance (> 0)."""
    return RatePoint(*_rate_columns(optical, line, distance_km))


def _sweep_columns(optical: OpticalParams, line: KljnLineParams, l_min: float, l_max: float,
                   n_points: int, spacing: str) -> tuple:
    """The RatePoint fields as float64 arrays over a grid: the one grid evaluation there is."""
    check_real(l_min, "sweep distance l_min", gt=0)
    check_real(l_max, "sweep distance l_max", gt=l_min)
    check_int(n_points, "n_points", ge=2)
    if n_points > _MAX_POINTS:
        raise DomainError(f"n_points must be <= {_MAX_POINTS}, the points physical memory "
                          f"holds, got {n_points}")
    if spacing not in ("linear", "log"):
        raise DomainError(f"spacing must be 'linear' or 'log', got {spacing!r}")
    for end in (l_max, l_min):  # an end is named, not an inf geomspace rounds inner points to
        wave_limit_bandwidth(line, end)
    grid = (np.linspace if spacing == "linear" else np.geomspace)(l_min, l_max, n_points)
    with np.errstate(over="ignore"):  # an overflow to inf fails a domain check, which names it
        return _rate_columns(optical, line, grid)


def sweep(optical: OpticalParams, line: KljnLineParams, l_min: float, l_max: float,
          n_points: int, spacing: str = "log") -> list[RatePoint]:
    """RatePoints over [l_min, l_max] at linear or log spacing, from `_sweep_columns`.

    Each point equals `throughputs` at its distance bit for bit.
    """
    columns = [column.tolist() for column in
               _sweep_columns(optical, line, l_min, l_max, n_points, spacing)]
    return [RatePoint(*row) for row in zip(*columns)]


def _brent(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    xtol: float,
    what: str,
) -> float:
    """A root of f in [lo, hi], within xtol (or the float resolution there).

    Brent's method (Brent, Algorithms for Minimization without Derivatives,
    1973, ch. 4): [b, c] always brackets the root and b is the end with the
    smaller |f|. Each step tries inverse quadratic interpolation through
    a, b and c (a secant when a == c) and falls back to bisection when the
    step would not land well inside the bracket or would not be under half
    the step before last. A step also bisects once interpolation has spent
    its slack, so a solve never takes more than bisection's evaluations
    plus _BRENT_SLACK.
    """
    a, b = lo, hi
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if math.copysign(1.0, fa) == math.copysign(1.0, fb):
        raise SolverError(
            f"{what}: no sign change over bracket ({lo:g}, {hi:g}) km "
            f"(f={fa:.6g} and {fb:.6g})"
        )
    # Evaluations left: bisection's halvings from the bracket down to xtol, plus the slack.
    log2_xtol = math.log2(xtol)
    budget = max(0, math.ceil(math.log2(hi - lo) - log2_xtol)) + _BRENT_SLACK
    c, fc = a, fa
    d = e = b - a
    half_xtol = 0.5 * xtol
    while True:  # plain comparisons, not the builtin max and min: this loop is hot
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol = 2.0 * _EPS * abs(b)
        if tol < half_xtol:
            tol = half_xtol
        m = 0.5 * (c - b)
        if abs(m) <= tol:
            return b
        # Interpolate only while bisecting after this step would still fit the budget.
        if abs(e) >= tol and abs(fa) > abs(fb) and math.log2(abs(c - b)) - log2_xtol <= budget - 1:
            s = fb / fa
            if a == c:
                p, q = 2.0 * m * s, 1.0 - s
            else:
                q, r = fa / fc, fb / fc
                p = s * (2.0 * m * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p > 0.0:
                q = -q
            p = abs(p)
            if 2.0 * p < 3.0 * m * q - abs(tol * q) and 2.0 * p < abs(e * q):
                e, d = d, p / q
            else:
                d = e = m
        else:
            d = e = m
        a, fa = b, fb
        b += d if abs(d) > tol else math.copysign(tol, m)
        fb = f(b)
        budget -= 1
        if fb == 0.0:
            return b
        if (fb > 0.0) == (fc > 0.0):
            c, fc = a, fa
            d = e = b - a


def crossover_distance(
    optical: OpticalParams,
    line: KljnLineParams,
    bracket: tuple[float, float] = (1.0, 10.0),
    xtol: float = 1e-9,
) -> float:
    """Distance where the hybrid throughput meets unthrottled BB84.

    Brent's method on T_II,III(L) - T_BB84(L); the bracket must hold the
    crossing, and the root is returned within `xtol` km. The default
    tolerance is far tighter than the 1e-4 km contract so that the
    residual at the root is negligible.
    """
    return short_haul_supremacy_bound(optical, line, factor=1.0, bracket=bracket, xtol=xtol)


def short_haul_supremacy_bound(
    optical: OpticalParams,
    line: KljnLineParams,
    factor: float = 2.0,
    bracket: tuple[float, float] = (1.0, 10.0),
    xtol: float = 1e-9,
) -> float:
    """Distance where T_II,III(L) - factor * T_BB84(L) changes sign in the bracket.

    Not monotone: BB84 falls exponentially, the wire-limited clock as 1/L, so
    with default parameters the gap (factor 1) changes sign at 7.64 and again
    at 45.46 km. The second crossing exists because the model's wire has no
    series resistance (Kish & Scheuer, Phys. Lett. A 374, 2140 (2010)), whose
    loss would cap the wire's reach. When the bracket's ends share a sign, a
    log grid over it (cells at most `_SCAN_CELL` wide, at least 257 points)
    locates the first sign change, so a bracket holding both crossings gives
    the first, short-haul one; with none on the grid the solve fails with
    "no sign change". Brent's method finds the root to within `xtol` km
    (finite and > 0). With factor=1 this is exactly the crossover distance.
    """
    check_real(factor, "factor", gt=0)
    check_real(xtol, "xtol", gt=0)
    lo, hi = bracket
    check_real(lo, "bracket distance lo", gt=0)
    check_real(hi, "bracket distance hi", gt=lo)

    def gap(distance: float) -> float:
        point = throughputs(optical, line, distance)
        return point.t_p23 - factor * point.t_bb84

    what = "crossover" if factor == 1.0 else f"supremacy bound (factor {factor:g})"
    try:
        return _brent(gap, lo, hi, xtol, what)
    except SolverError as exc:  # the ends share a sign, but a pair of crossings may lie between
        points = max(_SCAN_POINTS, math.ceil((math.log(hi) - math.log(lo)) / _SCAN_CELL) + 1)
        columns = dict(zip(RATE_POINT_FIELDS, _sweep_columns(optical, line, lo, hi, points, "log")))
        with np.errstate(over="ignore"):  # a product past the float range is still negative
            signs = np.signbit(columns["t_p23"] - factor * columns["t_bb84"])
        cells = np.flatnonzero(signs[1:] != signs[:-1])
        if not len(cells):
            raise SolverError(f"{exc}, nor over a {points}-point log grid") from None
        first_lo, first_hi = columns["distance_km"][cells[0]:cells[0] + 2].tolist()
        return _brent(gap, first_lo, first_hi, xtol, what)
