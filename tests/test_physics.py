"""Closed-form model checks against independently computed values.

Pinned constants were evaluated with mpmath at 40 significant digits from
the defining formulas, before the implementation existed; closed forms are
compared at 1e-12 relative tolerance.
"""

import dataclasses
import math

import numpy as np
import pytest

from hybridkd.errors import DomainError
from hybridkd.physics import (
    KljnLineParams,
    OpticalParams,
    binary_entropy,
    gain_and_qber,
    kljn_bit_rate,
    link_budget,
    post_processing_penalty,
    system_transmittance,
    wave_limit_bandwidth,
)
from hybridkd.rates import throughputs

REL = 1e-12

# mpmath pins (Table-defaults optical channel at L=0 unless noted)
ETA_SYS_10KM = 0.063095734448019325
Q_MU_0 = 0.0099601662508319464
E_MU_0 = 0.01548693966324055
GAMMA_0 = 0.24787125001761141
H_011 = 0.499915958164528
GAMMA_AT_E_0P015468 = 0.24762728740228185


def make_optical(**kw):
    base = dict(alpha=0.2, mu=0.1, eta_d=0.1, p_d=1e-5, e_opt=0.015, f_ec=1.15, f_qkd=1e7)
    base.update(kw)
    return OpticalParams(**base)


def make_line(**kw):
    base = dict(v=2e5, n_pairs=1000, n_samples=50, r_low=1e4, r_high=1e5)
    base.update(kw)
    return KljnLineParams(**base)


class TestSystemTransmittance:
    def test_zero_distance_is_detector_efficiency(self, optical):
        assert system_transmittance(optical, 0.0) == optical.eta_d

    def test_pinned_value_at_10km(self, optical):
        assert system_transmittance(optical, 10.0) == pytest.approx(ETA_SYS_10KM, rel=REL)

    def test_lossless_ideal(self):
        p = make_optical(alpha=0.0, eta_d=1.0)
        assert system_transmittance(p, 50.0) == 1.0

    def test_negative_distance_rejected(self, optical):
        with pytest.raises(DomainError):
            system_transmittance(optical, -0.1)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_distance_rejected(self, optical, bad):
        with pytest.raises(DomainError, match="distance"):
            system_transmittance(optical, bad)

    def test_monotone_nonincreasing(self, optical):
        grid = np.linspace(0.0, 100.0, 64)
        vals = [system_transmittance(optical, d) for d in grid]
        assert all(a >= b for a, b in zip(vals, vals[1:]))


class TestGainAndQber:
    def test_pinned_values_at_zero(self, optical):
        q, e = gain_and_qber(optical, 0.0)
        assert q == pytest.approx(Q_MU_0, rel=REL)
        assert e == pytest.approx(E_MU_0, rel=REL)

    def test_no_error_sources(self):
        p = make_optical(p_d=0.0, e_opt=0.0)
        _, e = gain_and_qber(p, 1.0)
        assert e == 0.0

    def test_dark_count_limit_is_half(self):
        # at 200 dB total loss the optical term is ~1e-21; dark counts win
        p = make_optical()
        q, e = gain_and_qber(p, 1000.0)
        assert abs(q - p.p_d) < 1e-9
        assert abs(e - 0.5) < 1e-9

    def test_zero_gain_guard(self):
        p = make_optical(p_d=0.0)
        # deep enough that mu*eta underflows to zero -> q_mu == 0
        with pytest.raises(DomainError):
            gain_and_qber(p, 1e6)

    def test_monotonicity(self, optical):
        grid = np.linspace(0.0, 60.0, 48)
        qs, es = zip(*(gain_and_qber(optical, d) for d in grid))
        assert all(a >= b for a, b in zip(qs, qs[1:]))
        assert all(a <= b for a, b in zip(es, es[1:]))

    def test_qber_bounds(self, optical):
        for d in np.geomspace(0.01, 500.0, 32):
            _, e = gain_and_qber(optical, float(d))
            assert 0.0 <= e <= 1.0


class TestBinaryEntropy:
    def test_endpoints_and_max(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0

    def test_pinned_value(self):
        assert binary_entropy(0.11) == pytest.approx(H_011, rel=REL)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(1234)
        for x in rng.uniform(0.0, 1.0, size=1000):
            hx = binary_entropy(float(x))
            assert hx == pytest.approx(binary_entropy(float(1.0 - x)), rel=1e-9, abs=1e-12)
            assert 0.0 <= hx <= 1.0

    @pytest.mark.parametrize("bad", [-0.01, 1.01, 2.0])
    def test_domain(self, bad):
        with pytest.raises(DomainError):
            binary_entropy(bad)

    def test_arrays_of_any_shape_are_elementwise(self, optical):
        # a 0-d array counts as its float; the penalty takes the same arrays
        assert binary_entropy(np.array(0.1)) == binary_entropy(0.1)
        assert post_processing_penalty(optical, np.array(0.01)) == post_processing_penalty(
            optical, 0.01)
        grid = np.array([[0.0, 0.1], [0.5, 1.0]])
        assert binary_entropy(grid).tolist() == [[binary_entropy(x) for x in row]
                                                 for row in grid.tolist()]

    @pytest.mark.parametrize("bad", ["0.5", True, False, np.True_, None, [0.5]],
                             ids=["str", "True", "False", "np_True", "None", "list"])
    def test_non_number_rejected(self, bad):
        with pytest.raises(DomainError, match="^entropy argument must be a number"):
            binary_entropy(bad)


class TestPenalty:
    def test_zero_entropy(self, optical):
        assert post_processing_penalty(optical, 0.0) == 0.0

    def test_clamped_at_unity(self, optical):
        assert post_processing_penalty(optical, 0.5) == 1.0

    def test_pinned_value(self, optical):
        assert post_processing_penalty(optical, 0.015468) == pytest.approx(
            GAMMA_AT_E_0P015468, rel=REL
        )

    def test_clamp_region_is_exact(self, optical):
        # any error rate whose entropy reaches 1/(f_ec+1) must clamp to 1.0
        for e in (0.08, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9):
            if binary_entropy(e) * (optical.f_ec + 1.0) >= 1.0:
                assert post_processing_penalty(optical, e) == 1.0


class TestWireLine:
    def test_wave_limit_values(self, line):
        assert wave_limit_bandwidth(line, 1.0) == 1.0e4
        assert wave_limit_bandwidth(line, 10.0) == 1.0e3

    def test_margin_vs_first_standing_wave(self, line):
        f1 = line.v / (2.0 * 1.0)
        assert wave_limit_bandwidth(line, 1.0) / f1 == 0.1

    def test_zero_distance_rejected(self, line):
        with pytest.raises(DomainError):
            wave_limit_bandwidth(line, 0.0)
        with pytest.raises(DomainError):
            kljn_bit_rate(line, 0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_non_finite_distance_rejected(self, line, bad):
        with pytest.raises(DomainError, match="distance"):
            wave_limit_bandwidth(line, bad)

    @pytest.mark.parametrize("extreme", [1e308, 1e-320, -1e-320])
    def test_distance_without_finite_bandwidth_rejected(self, line, extreme):
        # 20 * 1e308 overflows to inf (bandwidth 0); v / 2e-319 overflows to inf
        with pytest.raises(DomainError, match="distance"):
            wave_limit_bandwidth(line, extreme)
        with pytest.raises(DomainError, match="distance"):
            kljn_bit_rate(line, extreme)

    def test_rate_past_the_float_range_rejected(self):
        # 2 * B_W = 1e307 at 0.1 km is finite; times 1,000 pairs it overflows to inf
        fast = make_line(v=1e307, n_pairs=1000, n_samples=1)
        with pytest.raises(DomainError, match=r"^distance 0\.1 km gives a wire bit rate"):
            kljn_bit_rate(fast, 0.1)
        assert kljn_bit_rate(fast, 1e3) == pytest.approx(1e306, rel=1e-15)

    def test_bit_rate_values(self, line):
        assert kljn_bit_rate(line, 1.0) == 4.0e5
        assert kljn_bit_rate(line, 10.0) == 4.0e4

    def test_single_pair_single_sample_is_fs(self):
        line = make_line(n_pairs=1, n_samples=1)
        assert kljn_bit_rate(line, 10.0) == 2.0e3

    def test_dimensional_scaling(self, line):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d = float(rng.uniform(0.1, 20.0))
            base = kljn_bit_rate(make_line(n_pairs=100, n_samples=10), d)
            assert kljn_bit_rate(make_line(n_pairs=200, n_samples=10), d) == 2.0 * base
            assert kljn_bit_rate(make_line(n_pairs=100, n_samples=20), d) == 0.5 * base

    def test_strictly_decreasing_in_distance(self, line):
        grid = np.geomspace(0.1, 10.0, 32)
        vals = [kljn_bit_rate(line, float(d)) for d in grid]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestLinkBudget:
    def test_budget_consistency(self, optical):
        b = link_budget(optical, 3.0)
        q, e = gain_and_qber(optical, 3.0)
        assert (b.q_mu, b.e_mu) == (q, e)
        assert b.gamma == post_processing_penalty(optical, e)
        assert 0.0 <= b.eta_sys <= 1.0
        assert 0.0 < b.q_mu <= 1.0 + optical.p_d
        assert 0.0 <= b.gamma <= 1.0

    def test_budget_reads_as_a_dataclass(self, optical):
        b = link_budget(optical, 3.0)
        fields = ("distance_km", "eta_sys", "q_mu", "e_mu", "gamma")
        assert dataclasses.astuple(b) == tuple(getattr(b, name) for name in fields)
        assert dataclasses.asdict(b) == {name: getattr(b, name) for name in fields}
        assert b.distance_km == 3.0


class TestParamValidation:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(alpha=-0.1),
            dict(mu=0.0),
            dict(eta_d=0.0),
            dict(eta_d=1.1),
            dict(p_d=1.0),
            dict(p_d=-1e-9),
            dict(e_opt=0.5),
            dict(f_ec=0.99),
            dict(f_qkd=0.0),
        ],
    )
    def test_bad_optical(self, kw):
        with pytest.raises(DomainError):
            make_optical(**kw)

    @pytest.mark.parametrize(
        "kw",
        [
            dict(v=0.0),
            dict(n_pairs=0),
            dict(n_samples=0),
            dict(r_low=0.0),
            dict(r_low=2e5),  # r_low >= r_high
        ],
    )
    def test_bad_line(self, kw):
        with pytest.raises(DomainError):
            make_line(**kw)

    @pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
    @pytest.mark.parametrize(
        "make, field",
        [(make_optical, f) for f in ("alpha", "mu", "eta_d", "p_d", "e_opt", "f_ec", "f_qkd")]
        + [(make_line, f) for f in ("v", "r_low", "r_high")],
        ids=lambda x: getattr(x, "__name__", x),
    )
    def test_non_finite_float_rejected(self, make, field, bad):
        with pytest.raises(DomainError, match=field):
            make(**{field: bad})


class TestArrayForm:
    """A float64 array goes through the same formulas and checks as its elements."""

    def test_budget_and_rate_match_elementwise_bit_for_bit(self, optical, line):
        grid = np.geomspace(1e-3, 400.0, 2001)
        budget = link_budget(optical, grid)
        rate = kljn_bit_rate(line, grid)
        for i, d in enumerate(grid.tolist()):
            one = link_budget(optical, d)
            got = (budget.eta_sys[i], budget.q_mu[i], budget.e_mu[i], budget.gamma[i], rate[i])
            want = (one.eta_sys, one.q_mu, one.e_mu, one.gamma, kljn_bit_rate(line, d))
            assert np.array(got).tobytes() == np.array(want).tobytes(), d

    def test_entropy_matches_elementwise_bit_for_bit(self):
        # the array path maps libm's log2 over the elements; numpy's own log2 may differ in an ulp
        rng = np.random.default_rng(31)
        edges = [0.0, 1.0, 5e-324, 2.0**-1074, 0.5, 1.0 - 2.0**-53]
        x = np.concatenate([edges, rng.random(20_000), rng.random(2_000) ** 30])
        want = np.array([binary_entropy(v) for v in x.tolist()])
        assert binary_entropy(x).tobytes() == want.tobytes()

    def test_entropy_endpoints_are_positive_zero(self):
        h = binary_entropy(np.array([0.0, 0.5, 1.0]))
        assert h.tolist() == [0.0, 1.0, 0.0]
        assert not np.signbit(h).any()

    @pytest.mark.parametrize(
        "fn, make_args, values",
        [
            (system_transmittance, lambda d: (make_optical(), d), [1.0, -0.1, math.nan]),
            (system_transmittance, lambda d: (make_optical(), d), [1.0, math.inf]),
            (gain_and_qber, lambda d: (make_optical(p_d=0.0), d), [1.0, 1e6]),
            (binary_entropy, lambda x: (x,), [0.2, 1.01, -0.01]),
            (wave_limit_bandwidth, lambda d: (make_line(), d), [1.0, 0.0, 2.0]),
            (wave_limit_bandwidth, lambda d: (make_line(), d), [1.0, 1e-320]),
            (kljn_bit_rate, lambda d: (make_line(), d), [1.0, 1e308]),
            (kljn_bit_rate, lambda d: (make_line(v=1e307, n_pairs=1000, n_samples=1), d),
             [1e3, 0.1, 0.2]),
            (kljn_bit_rate, lambda d: (make_line(v=1.7e308, n_pairs=1, n_samples=1), d),
             [1e3, 0.05, 0.2]),
        ],
        ids=["negative", "inf", "q_mu_zero", "entropy", "zero", "tiny", "huge", "rate_overflow",
             "nyquist_overflow"],
    )
    def test_check_names_the_first_bad_element(self, fn, make_args, values):
        # values[1] is the first element that fails; the array raises without numpy's
        # overflow RuntimeWarning, which pyproject.toml turns into an error
        with pytest.raises(DomainError) as scalar:
            fn(*make_args(values[1]))
        with pytest.raises(DomainError) as array:
            fn(*make_args(np.array(values)))
        assert str(array.value) == str(scalar.value)


_OPTICAL, _LINE = make_optical(), make_line()
_NOT_OPTICAL = f"p must be OpticalParams, got {_LINE!r}"
_NOT_LINE = f"line must be KljnLineParams, got {_OPTICAL!r}"
_BAD_DISTANCES = ["2", True, math.nan, -1.0, 10**400, 1e308, 1e-320]
_TYPE = "distance must be a number or a float64 array, got {}"
_RANGE = "distance must be finite and >= 0 km, got {}"
_FLOAT_RANGE = "distance must be within the float range, got >= 2**1328"
_BANDWIDTH = "distance {} km gives no finite, positive bandwidth v / (20 L)"
# per bad distance: the optical side's message (None: no error) and the wire side's
_DISTANCE_MESSAGES = [
    (_TYPE.format("'2'"), _TYPE.format("'2'")),
    (_TYPE.format("True"), _TYPE.format("True")),
    (_RANGE.format("nan"), _BANDWIDTH.format("nan")),
    (_RANGE.format("-1.0"), _BANDWIDTH.format("-1.0")),
    (_FLOAT_RANGE, _FLOAT_RANGE),
    (None, _BANDWIDTH.format("1e+308")),
    (None, _BANDWIDTH.format("1e-320")),
]
_ENTROPY_MESSAGES = [
    ("2", "entropy argument must be a number or a float64 array, got '2'"),
    (True, "entropy argument must be a number or a float64 array, got True"),
    (math.nan, "entropy argument must be in [0, 1], got nan"),
    (-1.0, "entropy argument must be in [0, 1], got -1.0"),
    (10**400, "entropy argument must be within the float range, got >= 2**1328"),
    (1.01, "entropy argument must be in [0, 1], got 1.01"),
]


def _message_cases():
    """(function, args, its exact DomainError text) for every closed-form check."""
    optical = (system_transmittance, gain_and_qber, link_budget)
    wire = (wave_limit_bandwidth, kljn_bit_rate)
    for fn in optical:
        yield fn, (_LINE, 2.0), _NOT_OPTICAL
    for fn in wire:
        yield fn, (_OPTICAL, 2.0), _NOT_LINE
    yield throughputs, (_LINE, _LINE, 2.0), _NOT_OPTICAL
    yield throughputs, (_OPTICAL, _OPTICAL, 2.0), _NOT_LINE
    yield throughputs, (_LINE, _OPTICAL, "2"), _NOT_OPTICAL  # p is checked first
    yield throughputs, (_OPTICAL, _OPTICAL, "2"), _TYPE.format("'2'")  # then the distance
    for distance, (optical_message, wire_message) in zip(_BAD_DISTANCES, _DISTANCE_MESSAGES):
        for fn in optical:
            if optical_message:
                yield fn, (_OPTICAL, distance), optical_message
        for fn in wire:
            yield fn, (_LINE, distance), wire_message
        yield throughputs, (_OPTICAL, _LINE, distance), optical_message or wire_message
    yield post_processing_penalty, (_LINE, 0.1), _NOT_OPTICAL
    for x, message in _ENTROPY_MESSAGES:
        yield binary_entropy, (x,), message
        yield post_processing_penalty, (_OPTICAL, x), message


_MESSAGE_CASES = list(_message_cases())


@pytest.mark.parametrize(
    "fn, args, message", _MESSAGE_CASES,
    ids=[f"{fn.__name__}-{i}" for i, (fn, _, _) in enumerate(_MESSAGE_CASES)])
def test_domain_error_text_is_pinned(fn, args, message):
    with pytest.raises(DomainError) as error:
        fn(*args)
    assert str(error.value) == message
