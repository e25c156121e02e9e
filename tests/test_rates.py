"""Rate models, sweeps and the crossover solver."""

import numpy as np
import pytest

from hybridkd.errors import DomainError, SolverError
from hybridkd.physics import LinkBudget, link_budget
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

    def test_invalid_spacing(self, optical, line):
        with pytest.raises(DomainError):
            sweep(optical, line, 0.1, 1.0, 10, "cubic")

    def test_field_list_matches_dataclass(self, optical, line):
        p = throughputs(optical, line, 1.0)
        for f in RATE_POINT_FIELDS:
            assert hasattr(p, f)

    def test_f_sys_is_exact_min_clamp(self, optical, line):
        for p in sweep(optical, line, 0.02, 10.0, 60, "log"):
            assert p.f_sys == min(optical.f_qkd, p.r_kljn)


class TestCrossover:
    def test_value_matches_oracle(self, optical, line):
        d = crossover_distance(optical, line, bracket=(1.0, 10.0))
        assert d == pytest.approx(CROSSOVER_KM, abs=1e-6)
        assert 7.0 <= d <= 8.0

    def test_residual_at_root(self, optical, line):
        d = crossover_distance(optical, line)
        p = throughputs(optical, line, d)
        assert abs(p.t_p23 - p.t_bb84) / p.t_bb84 < 1e-6

    def test_no_sign_change_raises(self, optical, line):
        with pytest.raises(SolverError):
            crossover_distance(optical, line, bracket=(0.1, 0.2))

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

    def test_bad_inputs(self, optical, line):
        with pytest.raises(DomainError):
            short_haul_supremacy_bound(optical, line, factor=0.0)
        with pytest.raises(DomainError):
            crossover_distance(optical, line, bracket=(0.0, 1.0))

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")], ids=["nan", "inf"])
    def test_non_finite_factor(self, optical, line, factor):
        with pytest.raises(DomainError, match="factor"):
            short_haul_supremacy_bound(optical, line, factor=factor)
