"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Pinned constants were computed before the build with mpmath at 40
significant digits by evaluating the defining closed forms (see the test
bodies for the formulas' inputs); Monte Carlo checks use exact per-round
yield distributions for their sigma.
"""

import dataclasses
import math
import time

import numpy as np
import pytest
from scipy import stats as scistats

from hybridkd import cli
from hybridkd.errors import ConfigError
from hybridkd.kljn import (
    LineObservation,
    NoiseLevel,
    ResistorChoice,
    eve_observe,
    sample_line,
)
from hybridkd.physics import gain_and_qber, kljn_bit_rate, link_budget
from hybridkd.protocol import (
    Basis,
    ChannelModel,
    KeyOrigin,
    Protocol,
    extract_key,
    parse_trace_fixture,
    random_inputs,
    render_trace,
    run_round,
)
from hybridkd.rates import (
    crossover_distance,
    normalized_rates,
    sweep,
    throughputs,
)
from hybridkd.session import (
    TimingMode,
    estimate_per_pulse_yield,
    run_buffered_session,
    run_gated_session,
)

# --- independently pinned constants (mpmath, 40 digits, defining formulas) --
Q_MU_0_PIN = 0.0099601662508319464     # 1 - exp(-mu*eta_d) + p_d at L=0
R_BB84_0_PIN = 0.0037456636959275029   # 0.5 * Q * (1 - min(1, 2.15*h(E)))

REFERENCE_P1_KEY = (1, 1, 0, 0, 1, 0, 0, 1, 0)
REFERENCE_P2_KLJN = (0, 0, 1, 1, 0, 1, 0, 1, 0)
REFERENCE_P3_KEY = (1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0)
REFERENCE_P3_ORIGINS = "qkkqqqkqqqkqkq"


def _passline(n: int, detail: str) -> None:
    print(f"[acceptance] criterion {n}: PASS - {detail}")


def test_criterion_1_golden_trace(optical, line, golden_dir):
    t0 = time.monotonic()
    inputs = parse_trace_fixture(cli.bundled_fixture_text())
    channel = ChannelModel()
    rng = np.random.default_rng(0)

    p1 = [run_round(Protocol.P1, i, channel, rng) for i in inputs]
    ks1 = extract_key(p1)
    assert ks1.bits == REFERENCE_P1_KEY
    assert all(o is KeyOrigin.QKD for o in ks1.origins)

    p2 = [run_round(Protocol.P2, i, channel, rng) for i in inputs]
    ks2 = extract_key(p2)
    qkd = tuple(b for b, o in zip(ks2.bits, ks2.origins) if o is KeyOrigin.QKD)
    klj = tuple(b for b, o in zip(ks2.bits, ks2.origins) if o is KeyOrigin.KLJN)
    assert qkd == REFERENCE_P1_KEY and klj == REFERENCE_P2_KLJN

    p3 = [run_round(Protocol.P3, i, channel, rng) for i in inputs]
    ks3 = extract_key(p3)
    assert ks3.bits == REFERENCE_P3_KEY
    assert "".join(o.value[0] for o in ks3.origins) == REFERENCE_P3_ORIGINS

    for name, rounds in (("p1", p1), ("p2", p2), ("p3", p3)):
        golden = (golden_dir / f"trace_{name}.txt").read_bytes()
        assert render_trace(rounds).encode() == golden  # byte-exact

    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(1, f"three protocol replays byte-exact vs goldens in {elapsed:.3f}s")


def test_criterion_2_normalized_rate_curves(optical, line):
    t0 = time.monotonic()
    points = sweep(optical, line, 0.1, 10.0, 200, "log")
    assert len(points) == 200
    for p in points:
        assert p.r_p23 - p.r_p1 == 0.5  # exact, every point
        assert 0.5 < p.r_p23 < 0.51
    r = [p.r_bb84 for p in points]
    assert all(a > b for a, b in zip(r, r[1:]))  # monotone decreasing
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(2, f"200-point sweep: exact 0.5 offset, band (0.5, 0.51), "
                 f"monotone optical rate in {elapsed:.3f}s")


def test_criterion_3_crossover_and_10km_throughput(optical, line):
    t0 = time.monotonic()
    d = crossover_distance(optical, line, bracket=(1.0, 10.0))
    assert 7.0 <= d <= 8.0
    p10 = throughputs(optical, line, 10.0)
    assert 1e4 <= p10.t_p23 <= 5e4
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    _passline(3, f"crossover at {d:.3f} km (within [7, 8]); "
                 f"T_hybrid(10 km) = {p10.t_p23:.0f} bps in {elapsed:.3f}s")


def test_criterion_4_analytic_spot_checks(optical, line):
    q0, _ = gain_and_qber(optical, 0.0)
    assert q0 == pytest.approx(Q_MU_0_PIN, abs=1e-6)

    r_bb84, _ = normalized_rates(link_budget(optical, 0.0))
    assert r_bb84 == pytest.approx(R_BB84_0_PIN, abs=1e-5)
    assert r_bb84 == pytest.approx(0.003748, abs=1e-5)

    assert kljn_bit_rate(line, 1.0) == 4.0e5
    assert kljn_bit_rate(line, 10.0) == 4.0e4
    _passline(4, f"q_mu(0)={q0:.10f} and r_bb84(0)={r_bb84:.6f} match the "
                 f"high-precision pins; wire rates exact at 1/10 km")


def _yield_moments(protocol: Protocol, q: float, gamma: float) -> tuple[float, float]:
    # Exact one-round yield distribution under uniform bases, detection
    # probability q and ideal classification (derived separately from the
    # session module's helper):
    #   bb84/p1: (1-g) w.p. q/2, else 0
    #   p2: 1+(1-g) w.p. q/2;  1 w.p. (1-q)/2;  0 w.p. 1/2
    #   p3: (1-g) w.p. q/2;    1 w.p. 1/2;      0 w.p. (1-q)/2
    w = 1.0 - gamma
    if protocol in (Protocol.BB84, Protocol.P1):
        mean = 0.5 * q * w
        second = 0.5 * q * w * w
    elif protocol is Protocol.P2:
        mean = 0.5 * q * (1.0 + w) + 0.5 * (1.0 - q)
        second = 0.5 * q * (1.0 + w) ** 2 + 0.5 * (1.0 - q)
    else:
        mean = 0.5 + 0.5 * q * w
        second = 0.5 + 0.5 * q * w * w
    return mean, second - mean * mean


def test_criterion_5_monte_carlo_vs_analytic(optical, line):
    t0 = time.monotonic()
    n = 100_000
    details = []
    for distance in (0.5, 2.0, 5.0, 10.0):
        budget = link_budget(optical, distance)
        for k, protocol in enumerate((Protocol.BB84, Protocol.P1, Protocol.P2, Protocol.P3)):
            seed = 4_000 + 17 * k + int(10 * distance)
            stats = run_gated_session(
                protocol, optical, line, distance, n, seed, ideal_classification=True
            )
            observed = estimate_per_pulse_yield(stats)
            mean, var = _yield_moments(protocol, budget.q_mu, budget.gamma)
            sigma = math.sqrt(var / n)
            deviation = abs(observed - mean) / sigma
            assert deviation < 3.0, (
                f"{protocol.value} at {distance} km: |{observed:.6f} - {mean:.6f}| "
                f"= {deviation:.2f} sigma"
            )
            details.append(deviation)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    _passline(5, f"16 sessions of 1e5 rounds, worst deviation "
                 f"{max(details):.2f} sigma, total {elapsed:.1f}s")


def test_criterion_6a_mixed_selection_indistinguishability(line):
    rng = np.random.default_rng(60_606)
    n = 10_000
    lh = np.array([
        sample_line(line, ResistorChoice.LOW, ResistorChoice.HIGH, rng).estimated_variance
        for _ in range(n)
    ])
    hl = np.array([
        sample_line(line, ResistorChoice.HIGH, ResistorChoice.LOW, rng).estimated_variance
        for _ in range(n)
    ])
    result = scistats.ks_2samp(lh, hl)
    assert result.pvalue > 0.01
    _passline(6, f"(a) KS two-sample p = {result.pvalue:.3f} > 0.01 on 1e4+1e4 "
                 f"variance estimates")


def test_criterion_6b_p3_reveals_common_basis(optical, line):
    rng = np.random.default_rng(61_616)
    channel = ChannelModel()  # ideal classification: level == resistor truth
    matched = 0
    for _ in range(5_000):
        inputs = random_inputs(rng)
        rnd = run_round(Protocol.P3, inputs, channel, rng)
        if inputs.alice_basis is inputs.bob_basis:
            matched += 1
            inferred = (
                Basis.RECTILINEAR if rnd.noise_level is NoiseLevel.LOW else Basis.DIAGONAL
            )
            assert rnd.noise_level in (NoiseLevel.LOW, NoiseLevel.HIGH)
            assert inferred is inputs.alice_basis  # 100% correct, every round
    assert matched > 1_000
    _passline(6, f"(b) wire level identified the shared basis on all "
                 f"{matched} matched rounds")


def test_criterion_6c_observer_interface_is_structurally_blind(line):
    # the eavesdropper-reachable record carries no resistor ordering and no
    # basis values; its only classification output is the 3-level enum
    field_types = [str(f.type) for f in dataclasses.fields(LineObservation)]
    assert not any("ResistorChoice" in t or "Basis" in t for t in field_types)
    obs = sample_line(line, ResistorChoice.LOW, ResistorChoice.HIGH, 3)
    view = eve_observe(obs)
    assert isinstance(view, NoiseLevel)
    assert {level.value for level in NoiseLevel} == {"low", "intermediate", "high"}
    _passline(6, "(c) observer surface exposes only the 3-level classification")


def test_criterion_7_buffered_mode(optical, line):
    mode = TimingMode.buffered(buffer_capacity=100_000, burst_block=5_000)
    point = throughputs(optical, line, 5.0)
    ratios = []
    for protocol, burst_expected, gated_expected in (
        (Protocol.P1, point.t_burst_p1, point.t_p1),
        (Protocol.P2, point.t_burst_p2, point.t_p23),
    ):
        stats = run_buffered_session(
            protocol, optical, line, 5.0, duration_s=51.0, seed=70, mode=mode
        )
        assert stats.cycles >= 100
        assert stats.burst_throughput_model_bps == burst_expected  # R_x * f_qkd, exact
        ratio = stats.effective_throughput_bps / gated_expected
        assert abs(ratio - 1.0) <= 0.05
        ratios.append(ratio)
    with pytest.raises(ConfigError):
        run_buffered_session(Protocol.P3, optical, line, 5.0, 1.0, seed=71, mode=mode)
    with pytest.raises(ConfigError):
        TimingMode.buffered().check_protocol(Protocol.P3)
    _passline(7, f"burst rate = R_x*f_qkd exactly; long-run/gated ratios "
                 f"{ratios[0]:.3f}, {ratios[1]:.3f} within 5% over "
                 f"{stats.cycles} cycles; buffered P3 rejected")


# tools/bench.py times these same commands as whole processes
CRITERION_8_COMMANDS = [
    ["sweep", "--points", "40"],
    ["trace", "--fixture", "bundled", "--protocol", "p3"],
    ["trace", "--rounds", "12", "--protocol", "p2", "--seed", "88"],
    ["simulate", "--protocol", "p2", "--distance", "2", "--rounds", "20000",
     "--seed", "88"],
    ["simulate", "--protocol", "p1", "--mode", "buffered", "--distance", "2",
     "--duration", "0.3", "--burst-block", "2000", "--seed", "88"],
    ["crossover", "--factor", "2"],
]


def test_criterion_8_byte_identical_outputs(tmp_path):
    for i, argv in enumerate(CRITERION_8_COMMANDS):
        a = tmp_path / f"{i}_a.out"
        b = tmp_path / f"{i}_b.out"
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), argv
    _passline(8, f"{len(CRITERION_8_COMMANDS)} command repeats produced byte-identical files")
