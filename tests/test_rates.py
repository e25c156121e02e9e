"""Rate models, sweeps and the crossover solver."""

import dataclasses
import json
import math
import operator
import re
import sys
import tracemalloc
from itertools import chain
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hybridkd import cli, rates
from hybridkd.config import DEFAULT_KLJN, DEFAULT_OPTICAL
from hybridkd.errors import DomainError, SolverError
from hybridkd.physics import KljnLineParams, LinkBudget, link_budget
from hybridkd.rates import (
    RATE_POINT_FIELDS,
    crossover_distance,
    normalized_rates,
    short_haul_supremacy_bound,
    sweep,
    throughputs,
)

# mpmath pins (default parameter set)
R_BB84_0 = 0.0037456636959275029
CROSSOVER_KM = 7.6448382310318187
T_P23_10KM = 20094.305758053588

ROW = operator.attrgetter(*RATE_POINT_FIELDS)  # a RatePoint's fields as a tuple


class TestNormalizedRates:
    def test_pinned_values_at_zero_distance(self, optical):
        r1, r23 = normalized_rates(link_budget(optical, 0.0))
        assert r1 == pytest.approx(R_BB84_0, rel=1e-12)
        assert r23 == pytest.approx(0.5 + R_BB84_0, rel=1e-12)

    def test_full_penalty_leaves_wire_rate(self):
        budget = LinkBudget(distance_km=1.0, eta_sys=0.1, q_mu=0.01, e_mu=0.5, gamma=1.0)
        r1, r23 = normalized_rates(budget)
        assert r1 == 0.0
        assert r23 == 0.5

    def test_offset_is_exact_everywhere(self, optical, line):
        for p in sweep(optical, line, 0.1, 10.0, 200, "log"):
            assert p.r_p23 - p.r_p1 == 0.5
            assert p.r_bb84 == p.r_p1

    def test_hybrid_rate_band(self, optical, line):
        for p in sweep(optical, line, 0.1, 10.0, 200, "log"):
            assert 0.5 < p.r_p23 < 0.51


class TestThroughputs:
    def test_kljn_limited_at_1km(self, optical, line):
        p = throughputs(optical, line, 1.0)
        assert p.f_sys == 4.0e5
        assert p.t_p23 == p.r_p23 * 4.0e5

    def test_laser_limited_at_tiny_distance(self, optical, line):
        p = throughputs(optical, line, 0.01)  # r_kljn = 4e7 > f_qkd
        assert p.f_sys == optical.f_qkd

    def test_pinned_order_of_magnitude_at_10km(self, optical, line):
        p = throughputs(optical, line, 10.0)
        assert p.t_p23 == pytest.approx(T_P23_10KM, rel=1e-12)

    def test_figure_ordering_at_1km(self, optical, line):
        p = throughputs(optical, line, 1.0)
        assert p.t_p23 > p.t_bb84 > p.t_p1

    def test_burst_dominates_gated(self, optical, line):
        for p in sweep(optical, line, 0.02, 10.0, 50, "log"):
            assert p.t_burst_p1 >= p.t_p1
            assert p.t_burst_p2 >= p.t_p23
            if p.f_sys == optical.f_qkd:
                assert p.t_burst_p1 == p.t_p1
                assert p.t_burst_p2 == p.t_p23

    def test_bb84_unthrottled(self, optical, line):
        p = throughputs(optical, line, 5.0)
        assert p.t_bb84 == p.r_bb84 * optical.f_qkd
        assert p.t_burst_p1 == p.t_bb84  # same normalized rate, same clock


class TestSweep:
    def test_linear_grid(self, optical, line):
        pts = sweep(optical, line, 0.1, 10.0, 100, "linear")
        d = [p.distance_km for p in pts]
        assert len(pts) == 100
        assert all(a < b for a, b in zip(d, d[1:]))
        assert d[0] == 0.1 and d[-1] == 10.0

    def test_endpoint_bit_exact(self, optical, line):
        pts = sweep(optical, line, 0.1, 10.0, 37, "log")
        direct = throughputs(optical, line, 10.0)
        assert pts[-1] == direct

    def test_t_p23_strictly_decreasing_when_wire_limited(self, optical, line):
        vals = [p.t_p23 for p in sweep(optical, line, 0.1, 10.0, 200, "log")]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_r_bb84_strictly_decreasing(self, optical, line):
        vals = [p.r_bb84 for p in sweep(optical, line, 0.1, 10.0, 200, "log")]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize(
        "args",
        [
            dict(l_min=0.0, l_max=1.0, n_points=10),
            dict(l_min=2.0, l_max=1.0, n_points=10),
            dict(l_min=0.1, l_max=1.0, n_points=1),
        ],
    )
    def test_invalid_ranges(self, optical, line, args):
        with pytest.raises(DomainError):
            sweep(optical, line, spacing="linear", **args)

    @pytest.mark.parametrize("n", [10.5, 10.0, "10", True])
    def test_point_count_must_be_an_integer(self, optical, line, n):
        with pytest.raises(DomainError, match="n_points"):
            sweep(optical, line, 0.1, 1.0, n, "linear")

    def test_point_count_bound_is_checked_first(self, optical, line, monkeypatch):
        monkeypatch.setattr(rates, "_MAX_POINTS", 10)
        assert len(sweep(optical, line, 0.1, 1.0, 10, "linear")) == 10
        with pytest.raises(DomainError, match="n_points must be <= 10, the points physical"):
            sweep(optical, line, 0.1, 1.0, 11, "cubic")

    def test_point_count_bound_follows_physical_memory(self, monkeypatch):
        sizes = {"SC_PHYS_PAGES": 1000, "SC_PAGE_SIZE": rates._POINT_BYTES}
        monkeypatch.setattr(rates.os, "sysconf", lambda name: sizes[name])
        assert rates._max_points() == 1000
        sizes["SC_PHYS_PAGES"] = -1  # sysconf's answer when the size is unknown
        assert rates._max_points() == sys.maxsize // 8

    def test_a_point_peaks_under_the_bound_bytes(self, optical, line):
        # the bound divides physical memory by these bytes, so a sweep at the
        # bound must not take more than that at its peak
        n = 10_000
        tracemalloc.start()
        try:
            sweep(optical, line, 0.1, 100.0, n)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak / n < rates._POINT_BYTES

    def test_invalid_spacing(self, optical, line):
        with pytest.raises(DomainError):
            sweep(optical, line, 0.1, 1.0, 10, "cubic")

    def test_field_list_matches_dataclass(self, optical, line):
        p = throughputs(optical, line, 1.0)
        for f in RATE_POINT_FIELDS:
            assert hasattr(p, f)

    def test_rate_point_is_a_slots_dataclass(self, optical, line):
        # the benchmark serializes rows with dataclasses.astuple; slots make rows cheap to build
        p = throughputs(optical, line, 1.0)
        assert dataclasses.astuple(p) == ROW(p)
        assert not hasattr(p, "__dict__")

    def test_f_sys_is_exact_min_clamp(self, optical, line):
        for p in sweep(optical, line, 0.02, 10.0, 60, "log"):
            assert p.f_sys == min(optical.f_qkd, p.r_kljn)

    @pytest.mark.parametrize(
        "l_min, l_max, n_points, spacing, optical_kw, reached",
        [
            (1e-3, 60.0, 100_000, "linear", {}, {}),
            (1e-3, 60.0, 100_000, "log", {}, {}),
            (1e-5, 1e300, 100_000, "log", {}, {"e_mu": 0.5, "gamma": 1.0}),
            (1e-3, 60.0, 2_000, "log", {"e_opt": 0.0, "p_d": 0.0}, {"e_mu": 0.0, "gamma": 0.0}),
        ],
        ids=["linear", "log", "far", "h0"],
    )
    def test_rows_equal_pointwise_throughputs(
        self, optical, line, l_min, l_max, n_points, spacing, optical_kw, reached
    ):
        optical = dataclasses.replace(optical, **optical_kw)
        points = sweep(optical, line, l_min, l_max, n_points, spacing)
        grid = np.linspace if spacing == "linear" else np.geomspace
        direct = [throughputs(optical, line, d) for d in grid(l_min, l_max, n_points).tolist()]
        # compared as bit patterns, so a last-ulp change or -0.0 for 0.0 shows
        got, want = (np.fromiter(chain.from_iterable(map(ROW, pts)), float)
                     .view(np.int64) for pts in (points, direct))
        assert (got != want).sum() == 0
        for field, value in reached.items():  # the grid reaches the branch it is here for
            assert any(getattr(p, field) == value for p in points), field

    def test_wire_rate_past_the_float_range_is_a_domain_error(self, optical):
        fast = KljnLineParams(v=1e307, n_pairs=1000, n_samples=1, r_low=1e4, r_high=1e5)
        with pytest.raises(DomainError, match=r"^distance 0\.1 km gives a wire bit rate"):
            throughputs(optical, fast, 0.1)
        with pytest.raises(DomainError, match=r"^distance 0\.1 km gives a wire bit rate"):
            sweep(optical, fast, 0.1, 10.0, 5, "log")

    def test_zero_gain_raises_like_the_scalar_path(self, optical, line):
        dark = dataclasses.replace(optical, p_d=0.0)
        with pytest.raises(DomainError) as scalar:
            throughputs(dark, line, 1e300)
        with pytest.raises(DomainError) as swept:
            sweep(dark, line, 1.0, 1e300, 50, "log")
        assert str(swept.value) == str(scalar.value)


class TestCrossover:
    def test_value_matches_oracle(self, optical, line):
        d = crossover_distance(optical, line, bracket=(1.0, 10.0))
        assert d == pytest.approx(CROSSOVER_KM, abs=1e-6)
        assert 7.0 <= d <= 8.0

    def test_default_root_bits(self, optical, line):
        # The default solve's root, bit for bit: a rewrite of the solver's
        # arithmetic must take the same steps to the same float.
        assert crossover_distance(optical, line).hex() == "0x1.e94507925f8c8p+2"

    def test_residual_at_root(self, optical, line):
        d = crossover_distance(optical, line)
        p = throughputs(optical, line, d)
        assert abs(p.t_p23 - p.t_bb84) / p.t_bb84 < 1e-6

    def test_no_sign_change_raises(self, optical, line):
        message = "crossover: no sign change over bracket (0.1, 0.2) km (f=1.97763e+06 and 970310)"
        with pytest.raises(SolverError, match=re.escape(message)):
            crossover_distance(optical, line, bracket=(0.1, 0.2))

    def test_gap_changes_sign_again_far_out(self, optical, line, capsys):
        # BB84 falls exponentially and the wire only as 1/L, so the hybrid
        # gain returns far out; a bracket holding both roots gives the first.
        far = crossover_distance(optical, line, bracket=(10.0, 100.0))
        assert far == pytest.approx(45.46047757, abs=1e-6)
        near = crossover_distance(optical, line, bracket=(1.0, 10.0))
        assert abs(crossover_distance(optical, line, bracket=(1.0, 100.0)) - near) <= 1e-9
        assert cli.main(["crossover", "--bracket", "1", "100"]) == 0
        assert abs(json.loads(capsys.readouterr().out)["distance_km"] - near) <= 1e-9
        with pytest.raises(SolverError, match="no sign change"):
            crossover_distance(optical, line, bracket=(10.0, 40.0))

    def test_a_wide_bracket_gets_a_finer_grid(self, optical, line):
        # No grid cell is wider in log terms than one of 257 points over (0.2, 1000) km.
        cells = math.ceil(math.log(1e300 / 50.0) / (math.log(1000.0 / 0.2) / 256))
        with pytest.raises(SolverError, match=f", nor over a {cells + 1}-point log grid$"):
            crossover_distance(optical, line, bracket=(50.0, 1e300))
        with pytest.raises(SolverError, match=", nor over a 257-point log grid$"):
            crossover_distance(optical, line, bracket=(10.0, 40.0))

    def test_supremacy_factor_one_equals_crossover(self, optical, line):
        assert short_haul_supremacy_bound(optical, line, factor=1.0) == crossover_distance(
            optical, line
        )

    def test_supremacy_factor_two_is_closer(self, optical, line):
        d2 = short_haul_supremacy_bound(optical, line, factor=2.0)
        assert d2 < crossover_distance(optical, line)
        p = throughputs(optical, line, d2)
        assert p.t_p23 == pytest.approx(2.0 * p.t_bb84, rel=1e-6)

    def test_unachievable_factor_raises(self, optical, line):
        with pytest.raises(SolverError):
            short_haul_supremacy_bound(optical, line, factor=1e6)
        # factor * t_bb84 overflows on the scan's grid; the scan stays silent and finds no sign
        with pytest.raises(SolverError, match=", nor over a 257-point log grid$"):
            short_haul_supremacy_bound(optical, line, factor=1e308)

    def test_bad_inputs(self, optical, line):
        with pytest.raises(DomainError):
            short_haul_supremacy_bound(optical, line, factor=0.0)
        with pytest.raises(DomainError):
            crossover_distance(optical, line, bracket=(0.0, 1.0))

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_factor(self, optical, line, factor):
        with pytest.raises(DomainError, match="factor"):
            short_haul_supremacy_bound(optical, line, factor=factor)

    @pytest.mark.parametrize("xtol", [math.nan, math.inf, 0.0, -1.0], ids=["nan", "inf", "0", "-1"])
    def test_bad_xtol(self, optical, line, xtol):
        with pytest.raises(DomainError, match="xtol"):
            crossover_distance(optical, line, xtol=xtol)

    def test_loose_xtol_stays_in_bracket(self, optical, line):
        assert 1.0 <= crossover_distance(optical, line, bracket=(1.0, 10.0), xtol=100.0) <= 10.0


FACTORS = (1.0, 1.5, 2.0, 4.0)


def _brackets(n=10):
    rng = np.random.default_rng(20261018)
    return [(rng.uniform(0.2, 1.0), rng.uniform(8.0, 20.0)) for _ in range(n)]


def _bisection_evals(lo, hi, xtol):
    return 2 + max(0, math.ceil(math.log2((hi - lo) / xtol)))


class TestSolver:
    @pytest.mark.parametrize("factor", FACTORS)
    def test_root_within_xtol_of_brentq(self, optical, line, factor):
        brentq = pytest.importorskip("scipy.optimize").brentq

        def gap(d):
            p = throughputs(optical, line, d)
            return p.t_p23 - factor * p.t_bb84

        for lo, hi in _brackets():
            root = short_haul_supremacy_bound(optical, line, factor, (lo, hi), xtol=1e-9)
            assert abs(root - brentq(gap, lo, hi, xtol=1e-12)) <= 1e-9

    @pytest.mark.parametrize("factor", FACTORS)
    @pytest.mark.parametrize("bracket", [(1.0, 100.0), (1.0, 200.0), (0.2, 1000.0),
                                         (1e-3, 1e6), (1e-300, 1e300)])
    def test_a_bracket_holding_both_crossings_gives_the_first(self, optical, line, bracket,
                                                              factor):
        first = short_haul_supremacy_bound(optical, line, factor, (1.0, 10.0))
        assert abs(short_haul_supremacy_bound(optical, line, factor, bracket) - first) <= 1e-9

    def test_the_scan_is_silent_where_its_grid_overflows(self, optical, line):
        # At 25 dB/km the scan's grid up to 8e306 km overflows -alpha * L / 10; the pytest
        # configuration turns a RuntimeWarning into an error, so a warning fails this test.
        steep = dataclasses.replace(optical, alpha=25.0)
        first = short_haul_supremacy_bound(steep, line, 99.0, (1e-4, 1.0))
        assert abs(short_haul_supremacy_bound(steep, line, 99.0, (1e-4, 8e306)) - first) <= 1e-9

    @pytest.mark.parametrize("factor", FACTORS)
    def test_at_most_16_evaluations(self, optical, line, monkeypatch, factor):
        # every call of the function _brent is given, whether it checks its distance or not
        calls = []
        brent = rates._brent

        def counting_brent(f, *args):
            def counted(x):
                calls.append(x)
                return f(x)
            return brent(counted, *args)

        monkeypatch.setattr(rates, "_brent", counting_brent)
        for lo, hi in _brackets():
            calls.clear()
            short_haul_supremacy_bound(optical, line, factor, (lo, hi))
            assert 2 < len(calls) <= 16

    @pytest.mark.parametrize(
        "f",
        [
            lambda x: -1.0 if x < 3.3 else 1.0,
            lambda x: -1e-12 if x <= 3.3 else x - 3.3,
            lambda x: (x - 3.3) ** 9,
        ],
        ids=["step", "plateau", "flat_root"],
    )
    def test_pathological_functions_cost_at_most_bisection_plus_4(self, f):
        evals = []

        def counted(x):
            evals.append(x)
            return f(x)

        root = rates._brent(counted, 0.0, 10.0, 1e-9)
        assert abs(root - 3.3) <= 1e-9
        assert len(evals) <= _bisection_evals(0.0, 10.0, 1e-9) + 4

    @pytest.mark.parametrize("lo, hi, expected", [(2.0, 10.0, 2.0), (0.0, 2.0, 2.0)])
    def test_exact_zero_at_an_end_is_returned(self, lo, hi, expected):
        evals = []

        def f(x):
            evals.append(x)
            return x - 2.0

        assert rates._brent(f, lo, hi, 1e-9) == expected
        assert len(evals) == 2


@settings(max_examples=150, deadline=None)
@given(factor=st.floats(1.0, 4.0), lo=st.floats(0.2, 1.0),
       hi=st.floats(8.0, 20.0) | st.floats(100.0, 1000.0))
def test_unchecked_points_equal_throughputs(factor, lo, hi):
    # Brackets as the benchmark draws them, and brackets past every factor's second crossing
    # (82.6 km at factor 4), whose ends share a sign and so take the scan. Every distance the
    # solver evaluates, checked at the bracket's ends or unchecked between them, gives the
    # gap throughputs gives, bit for bit, and the root is a Brent over throughputs alone. The
    # pytest configuration turns a RuntimeWarning into an error.
    brent, solves = rates._brent, []

    def reference(distance):
        point = throughputs(DEFAULT_OPTICAL, DEFAULT_KLJN, distance)
        return point.t_p23 - factor * point.t_bb84

    def checking(f, *args):
        def both(x):
            got = f(x)
            assert got.hex() == reference(x).hex(), x
            return got
        solves.append(args)
        return brent(both, *args)

    def solve():
        return short_haul_supremacy_bound(DEFAULT_OPTICAL, DEFAULT_KLJN, factor, (lo, hi))

    with mock.patch.object(rates, "_brent", checking):
        root = solve()
    assert len(solves) == (1 if hi < 100.0 else 2)  # the wide brackets do take the scan
    with mock.patch.object(rates, "_brent", lambda f, *args: brent(reference, *args)):
        assert root.hex() == solve().hex()
