"""Argument checks: a bad number at a library entry point is a named DomainError or ConfigError."""

import dataclasses
import math
import re

import numpy as np
import pytest

from hybridkd.config import DEFAULT_KLJN, DEFAULT_OPTICAL
from hybridkd.errors import ConfigError, DomainError, check_int, check_real, generator
from hybridkd.kljn import ResistorChoice, line_variance, sample_line, variance_thresholds
from hybridkd.physics import (KljnLineParams, OpticalParams, binary_entropy, kljn_bit_rate,
                              post_processing_penalty, system_transmittance,
                              wave_limit_bandwidth)
from hybridkd.protocol import (Basis, ChannelModel, KeyStream, Protocol, RoundInputs,
                               decide_block, draw_block, draw_round, draw_span, extract_key,
                               measure_photon, random_inputs, run_round)
from hybridkd.rates import (crossover_distance, normalized_rates, short_haul_supremacy_bound,
                            sweep, throughputs)
from hybridkd.session import (TimingMode, estimate_per_pulse_yield, per_pulse_yield_moments,
                              run_buffered_session, run_gated_session, spawn_seeds)

OPTICAL = vars(DEFAULT_OPTICAL)
LINE = vars(DEFAULT_KLJN)


def _gated(**kw):
    args = dict(distance_km=2.0, n_rounds=100, seed=1) | kw
    return run_gated_session(Protocol.P1, DEFAULT_OPTICAL, DEFAULT_KLJN, **args)


def _bound(**kw):
    return short_haul_supremacy_bound(DEFAULT_OPTICAL, DEFAULT_KLJN, **kw)


def _duration_past_the_round_bound():
    """Half a cycle past the least whole number of default cycles holding 2**63 rounds."""
    block = TimingMode.buffered().burst_block
    point = throughputs(DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0)
    cycle_time = block / point.r_kljn + block / DEFAULT_OPTICAL.f_qkd
    cycles = -(-2**63 // block)
    duration = (cycles + 0.5) * cycle_time
    assert duration // cycle_time == cycles and (cycles - 1) * block < 2**63
    return duration


SAMPLED = ChannelModel(0.5, 0.1, DEFAULT_KLJN)
IDEAL = ChannelModel(0.5, 0.1)
ROUND = RoundInputs(Basis.RECTILINEAR, 1, Basis.DIAGONAL)
RECT = Basis.RECTILINEAR
L, H = ResistorChoice.LOW, ResistorChoice.HIGH
MASK = np.array([True, False])


# (call, the error it must raise, the argument its message must name)
BAD_ARGUMENTS = {
    "gated_distance_str": (lambda: _gated(distance_km="2"), DomainError, "distance"),
    "gated_distance_bool": (lambda: _gated(distance_km=True), DomainError, "distance"),
    "gated_rounds_bool": (lambda: _gated(n_rounds=True), DomainError, "n_rounds"),
    "gated_bb84_distance_zero": (
        lambda: run_gated_session(Protocol.BB84, DEFAULT_OPTICAL, DEFAULT_KLJN, 0.0, 100, 1),
        DomainError, "distance"),
    "throughputs_distance_str": (
        lambda: throughputs(DEFAULT_OPTICAL, DEFAULT_KLJN, "2"), DomainError, "distance"),
    "throughputs_distance_huge": (
        lambda: throughputs(DEFAULT_OPTICAL, DEFAULT_KLJN, 10**400), DomainError, "distance"),
    "transmittance_distance_huge": (
        lambda: system_transmittance(DEFAULT_OPTICAL, -(10**400)), DomainError, "distance"),
    "bandwidth_distance_huge": (
        lambda: wave_limit_bandwidth(DEFAULT_KLJN, 10**400), DomainError, "distance"),
    "bit_rate_distance_huge": (
        lambda: kljn_bit_rate(DEFAULT_KLJN, 10**400), DomainError, "distance"),
    "entropy_argument_huge": (lambda: binary_entropy(10**5000), DomainError, "entropy argument"),
    "yield_moments_q_mu_above_one": (
        lambda: per_pulse_yield_moments(Protocol.P1, 2.0, 0.0), DomainError, "q_mu"),
    "yield_moments_q_mu_nan": (
        lambda: per_pulse_yield_moments(Protocol.P2, math.nan, 0.0), DomainError, "q_mu"),
    "yield_moments_gamma_negative": (
        lambda: per_pulse_yield_moments(Protocol.P3, 0.5, -3.0), DomainError, "gamma"),
    "yield_moments_q_mu_negative": (
        lambda: per_pulse_yield_moments(Protocol.BB84, -0.1, 0.0), DomainError, "q_mu"),
    "yield_moments_gamma_above_one": (
        lambda: per_pulse_yield_moments(Protocol.P2, 0.5, 1.5), DomainError, "gamma"),
    "yield_moments_gamma_nan": (
        lambda: per_pulse_yield_moments(Protocol.P1, 0.5, math.nan), DomainError, "gamma"),
    "draw_block_seed_negative": (
        lambda: draw_block(Protocol.P2, SAMPLED, -1, 5), DomainError, "seed"),
    "draw_span_seed_bool": (
        lambda: draw_span(Protocol.P2, SAMPLED, True, 5), DomainError, "seed"),
    "draw_round_seed_none": (
        lambda: draw_round(Protocol.P2, ROUND, SAMPLED, None), DomainError, "seed"),
    "run_round_seed_fraction": (
        lambda: run_round(Protocol.P3, ROUND, SAMPLED, 2.5), DomainError, "seed"),
    "measure_photon_seed_str": (
        lambda: measure_photon(1, Basis.RECTILINEAR, Basis.DIAGONAL, True, "7"),
        DomainError, "seed"),
    "random_inputs_seed_huge": (lambda: random_inputs(2**63), DomainError, "seed"),
    "sample_line_seed_fraction": (
        lambda: sample_line(DEFAULT_KLJN, L, H, 1.5), DomainError, "seed"),
    "bound_factor_str": (lambda: _bound(factor="2"), DomainError, "factor"),
    "bound_xtol_str": (lambda: _bound(xtol="1"), DomainError, "xtol"),
    "bound_bracket_str": (lambda: _bound(bracket=("1", 5.0)), DomainError, "bracket"),
    # a bracket that is no pair, not the TypeError or ValueError of unpacking it
    "bound_bracket_none": (lambda: _bound(bracket=None), DomainError, "bracket"),
    "bound_bracket_int": (lambda: _bound(bracket=5), DomainError, "bracket"),
    "bound_bracket_triple": (lambda: _bound(bracket=(1.0, 2.0, 3.0)), DomainError, "bracket"),
    "crossover_bracket_single": (
        lambda: crossover_distance(DEFAULT_OPTICAL, DEFAULT_KLJN, bracket=(1.0,)),
        DomainError, "bracket"),
    "normalized_rates_int": (lambda: normalized_rates(1), DomainError, "budget"),
    "spawn_count_fraction": (lambda: spawn_seeds(1, 2.5), DomainError, "n"),
    "timing_mode_bools": (lambda: TimingMode.buffered(True, True), ConfigError, "burst_block"),
    "line_samples_fraction": (
        lambda: KljnLineParams(**LINE | {"n_samples": 2.5}), DomainError, "n_samples"),
    "line_pairs_huge": (
        lambda: KljnLineParams(**LINE | {"n_pairs": 10**400}), DomainError, "n_pairs"),
    "optical_mu_str": (lambda: OpticalParams(**OPTICAL | {"mu": "0.1"}), DomainError, "mu"),
    "optical_mu_huge": (lambda: OpticalParams(**OPTICAL | {"mu": 10**400}), DomainError, "mu"),
    "channel_prob_str": (lambda: ChannelModel("0.5"), DomainError, "detection_prob"),
    "key_stream_lengths": (lambda: KeyStream((1,), ()), DomainError, "origins"),
    "buffered_duration_bool": (
        lambda: run_buffered_session(Protocol.P1, DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, True, 1),
        DomainError, "duration_s"),
    "buffered_duration_cycles_overflow": (  # inf whole cycles
        lambda: run_buffered_session(Protocol.P1, DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, 1e308, 1),
        DomainError, "duration_s"),
    "buffered_duration_past_2_63_rounds": (
        lambda: run_buffered_session(Protocol.P1, DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0,
                                     _duration_past_the_round_bound(), 1),
        DomainError, "duration_s"),
    "channel_line_str": (  # not a line to sample, and not None, which reads the resistors
        lambda: ChannelModel(0.5, 0.1, "False"), DomainError, "line"),
    "gated_classification_numpy_bool": (
        lambda: _gated(ideal_classification=np.bool_(True)), DomainError,
        "ideal_classification"),
    "gated_classification_none": (
        lambda: _gated(ideal_classification=None), DomainError, "ideal_classification"),
    "buffered_classification_int": (
        lambda: run_buffered_session(Protocol.P1, DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, 1.0, 1,
                                     ideal_classification=0),
        DomainError, "ideal_classification"),
    "gated_protocol_value": (
        lambda: run_gated_session("p1", DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, 100, 1),
        DomainError, "protocol"),
    "buffered_protocol_value": (
        lambda: run_buffered_session("p1", DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, 1.0, 1),
        DomainError, "protocol"),
    "run_round_protocol_value": (
        lambda: run_round("p3", ROUND, SAMPLED, 1), DomainError, "protocol"),
    "draw_round_protocol_value": (
        lambda: draw_round("p2", ROUND, IDEAL, 1), DomainError, "protocol"),
    "draw_block_protocol_value": (lambda: draw_block("p1", IDEAL, 1, 5), DomainError, "protocol"),
    "draw_span_protocol_value": (lambda: draw_span("p1", IDEAL, 1, 5), DomainError, "protocol"),
    "decide_block_protocol_value": (
        lambda: decide_block("p2", np.array([True]), np.array([False])), DomainError, "protocol"),
    "yield_moments_protocol_value": (
        lambda: per_pulse_yield_moments("bb84", 0.5, 0.0), DomainError, "protocol"),
    "measure_photon_flip_above_one": (
        lambda: measure_photon(1, RECT, RECT, True, 1, 2.0), DomainError, "flip_prob"),
    "measure_photon_flip_nan": (
        lambda: measure_photon(1, RECT, RECT, True, 1, math.nan), DomainError, "flip_prob"),
    "measure_photon_flip_str": (
        lambda: measure_photon(1, RECT, RECT, True, 1, "0.1"), DomainError, "flip_prob"),
    "measure_photon_detected_str": (  # a truthy string must not make a click
        lambda: measure_photon(1, RECT, RECT, "no", 1), DomainError, "detected"),
    "measure_photon_bit_five": (
        lambda: measure_photon(5, RECT, RECT, True, 1), DomainError, "alice_bit"),
    "measure_photon_basis_token": (  # not a mismatch: "x" is not Basis.DIAGONAL
        lambda: measure_photon(1, "x", Basis.DIAGONAL, True, 1), DomainError, "alice_basis"),
    "round_inputs_bit_five": (
        lambda: run_round(Protocol.P1, RoundInputs(RECT, 5, RECT), IDEAL, 1),
        DomainError, "alice_bit"),
    "round_inputs_bit_bool": (lambda: RoundInputs(RECT, True, RECT), DomainError, "alice_bit"),
    "round_inputs_forced_bit_two": (
        lambda: RoundInputs(RECT, 0, RECT, detected=True, forced_bob_bit=2),
        DomainError, "forced_bob_bit"),
    "round_inputs_basis_token": (lambda: RoundInputs("+", 0, RECT), DomainError, "alice_basis"),
    "round_inputs_basis_value": (lambda: RoundInputs(RECT, 0, "x"), DomainError, "bob_basis"),
    "round_inputs_detected_str": (  # a truthy string must not force a click on a dead channel
        lambda: draw_round(Protocol.P1, RoundInputs(RECT, 1, RECT, detected="no"),
                           ChannelModel(0.0), 1),
        DomainError, "detected"),
    "round_inputs_detected_int": (
        lambda: RoundInputs(RECT, 0, RECT, detected=1), DomainError, "detected"),
    # a record of the wrong type, named where it is first read, not a bare AttributeError
    "throughputs_optical_str": (
        lambda: throughputs("o", DEFAULT_KLJN, 2.0), DomainError, "p"),
    "throughputs_line_str": (
        lambda: throughputs(DEFAULT_OPTICAL, "x", 2.0), DomainError, "line"),
    "sweep_line_none": (lambda: sweep(DEFAULT_OPTICAL, None, 1, 2, 5), DomainError, "line"),
    # rejected before any allocation: past physical memory, past any float64 array, int64's max
    "sweep_points_past_memory": (
        lambda: sweep(DEFAULT_OPTICAL, DEFAULT_KLJN, 1, 2, 10**12), DomainError, "n_points"),
    "sweep_points_past_arrays": (
        lambda: sweep(DEFAULT_OPTICAL, DEFAULT_KLJN, 1, 2, 2**62), DomainError, "n_points"),
    "sweep_points_int64_max": (
        lambda: sweep(DEFAULT_OPTICAL, DEFAULT_KLJN, 1, 2, 2**63 - 1), DomainError, "n_points"),
    "crossover_optical_none": (
        lambda: crossover_distance(None, DEFAULT_KLJN), DomainError, "p"),
    "penalty_optical_str": (lambda: post_processing_penalty("o", 0.1), DomainError, "p"),
    "bit_rate_line_str": (lambda: kljn_bit_rate("x", 2.0), DomainError, "line"),
    "line_variance_line_str": (lambda: line_variance("x", L, H), DomainError, "line"),
    "line_variance_resistor_str": (
        lambda: line_variance(DEFAULT_KLJN, "low", H), DomainError, "a"),
    "thresholds_line_str": (lambda: variance_thresholds("x"), DomainError, "line"),
    "sample_line_line_str": (lambda: sample_line("x", L, H, 1), DomainError, "line"),
    "gated_line_str": (
        lambda: run_gated_session(Protocol.P2, DEFAULT_OPTICAL, "x", 2.0, 100, 1),
        DomainError, "line"),
    "buffered_mode_str": (
        lambda: run_buffered_session(Protocol.P1, DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, 1.0, 1,
                                     mode="x"),
        DomainError, "mode"),
    "draw_span_channel_none": (lambda: draw_span(Protocol.P2, None, 1, 5), DomainError, "channel"),
    "draw_block_channel_none": (
        lambda: draw_block(Protocol.P2, None, 1, 5), DomainError, "channel"),
    "draw_round_channel_none": (
        lambda: draw_round(Protocol.P2, ROUND, None, 1), DomainError, "channel"),
    "run_round_channel_none": (
        lambda: run_round(Protocol.P2, ROUND, None, 1), DomainError, "channel"),
    "draw_round_inputs_none": (
        lambda: draw_round(Protocol.P2, None, SAMPLED, 1), DomainError, "inputs"),
    "run_round_inputs_none": (
        lambda: run_round(Protocol.P2, None, SAMPLED, 1), DomainError, "inputs"),
    "yield_estimate_stats_none": (lambda: estimate_per_pulse_yield(None), DomainError, "stats"),
    "extract_key_round_none": (lambda: extract_key([None]), DomainError, "rounds"),
    # draw_block draws only P1-P3 rounds on a channel with a line
    "draw_block_bb84": (lambda: draw_block(Protocol.BB84, SAMPLED, 1, 5), DomainError, "protocol"),
    "draw_block_without_line": (lambda: draw_block(Protocol.P2, IDEAL, 1, 5), DomainError, "line"),
    # lists compare whole, not round by round, and int masks decide int masks
    "decide_block_lists": (
        lambda: decide_block(Protocol.P2, [True, False], [True, False]), DomainError,
        "alice_diag"),
    "decide_block_int_masks": (
        lambda: decide_block(Protocol.P1, MASK, np.array([1, 0])), DomainError, "bob_diag"),
    "decide_block_shapes_differ": (
        lambda: decide_block(Protocol.P3, MASK, MASK[:1]), DomainError, "bob_diag"),
    "decide_block_low_shape": (
        lambda: decide_block(Protocol.P3, MASK, MASK, MASK[:1], MASK[:1]), DomainError, "low"),
    "decide_block_low_alone": (
        lambda: decide_block(Protocol.P2, MASK, MASK, MASK), DomainError, "high"),
    "decide_block_high_alone": (
        lambda: decide_block(Protocol.P2, MASK, MASK, high=MASK), DomainError, "low"),
}


@pytest.mark.parametrize("call, error, name", BAD_ARGUMENTS.values(), ids=BAD_ARGUMENTS)
def test_bad_argument_is_named(call, error, name):
    # pytest.raises lets any other exception (TypeError, OverflowError) fail the test
    with pytest.raises(error) as info:
        call()
    assert re.search(rf"\b{name}\b", str(info.value)), str(info.value)


@pytest.mark.parametrize("call, shown", [
    (lambda: throughputs(DEFAULT_OPTICAL, DEFAULT_KLJN, 10**400), ">= 2**1328"),
    (lambda: system_transmittance(DEFAULT_OPTICAL, -(10**400)), "<= -2**1328"),
    (lambda: wave_limit_bandwidth(DEFAULT_KLJN, 2**1024), ">= 2**1024"),
    (lambda: binary_entropy(10**5000), ">= 2**16609"),
], ids=["throughputs", "transmittance", "bandwidth", "entropy"])
def test_int_past_the_float_range_is_shown_by_its_bit_length(call, shown):
    with pytest.raises(DomainError, match=re.escape(f"float range, got {shown}")):
        call()


def test_int_ends_past_int64_are_solved_and_swept_as_floats():
    # check_real accepts an int within the float range, so numpy must not see it as an object
    assert _bound(bracket=(1, 10**30)) == _bound(bracket=(1.0, 1e30))
    assert (sweep(DEFAULT_OPTICAL, DEFAULT_KLJN, 1.0, 10**30, 3)
            == sweep(DEFAULT_OPTICAL, DEFAULT_KLJN, 1.0, 1e30, 3))


@pytest.mark.parametrize("value", [0, 7, 2**63 - 1, np.int64(3), np.uint8(3)])
def test_check_int_accepts_integers(value):
    check_int(value, "n")


@pytest.mark.parametrize("value", [True, np.bool_(True), 2.0, "3", None, -1, 2**63, 10**400,
                                   np.uint64(2**63)])
def test_check_int_rejects(value):
    with pytest.raises(DomainError, match="^n must be"):
        check_int(value, "n")


@pytest.mark.parametrize("value", [0.5, 1, np.float32(0.25), np.float64(1.0), np.int64(1)])
def test_check_real_accepts_numbers_in_range(value):
    check_real(value, "p", gt=0, le=1)


@pytest.mark.parametrize("value", [0, 1.5, False, "0.5", None, float("nan"), float("inf"),
                                   np.float32(np.inf), 10**400, np.array(0.5)])
def test_check_real_rejects(value):
    with pytest.raises(DomainError, match=r"^p must be a finite number > 0 and <= 1, got"):
        check_real(value, "p", gt=0, le=1)



# repr of an int past 4,300 digits raises ValueError, and a 400-digit one floods the message
@pytest.mark.parametrize("mu, shown", [(10**5000, ">= 2**16609"), (-(10**400), "<= -2**1328")],
                         ids=["10**5000", "-10**400"])
def test_huge_int_mu_is_a_short_domain_error(mu, shown):
    with pytest.raises(DomainError) as info:
        dataclasses.replace(DEFAULT_OPTICAL, mu=mu)
    assert str(info.value) == f"mu must be a finite number > 0, got {shown}"
    assert len(str(info.value)) < 50


HUGE_INTS = [(10**5000, ">= 2**16609"), (-(10**400), "<= -2**1328"),
             (2**63, ">= 2**63"), (-(2**63) - 1, "<= -2**63")]


@pytest.mark.parametrize("value, shown", HUGE_INTS, ids=[shown for _, shown in HUGE_INTS])
def test_int_past_int64_is_shown_as_a_power_of_two(value, shown):
    with pytest.raises(DomainError) as real:
        check_real(value, "p", gt=0, le=1)
    assert str(real.value) == f"p must be a finite number > 0 and <= 1, got {shown}"
    with pytest.raises(DomainError) as count:
        check_int(value, "n", ge=1)
    want = "n must be < 2**63" if value > 0 else "n must be an integer >= 1"
    assert str(count.value) == f"{want}, got {shown}"


@pytest.mark.parametrize("value", [-(2**63), 2**63 - 1])
def test_int64_range_is_shown_whole(value):
    with pytest.raises(DomainError, match=rf", got {value}$"):
        check_real(value, "p", gt=0, le=1)


def test_generator_passes_unchanged():
    gen = np.random.default_rng(3)
    assert generator(gen) is gen


def test_seed_sequence_seeds_a_generator():
    assert generator(np.random.SeedSequence(3)).random() == np.random.default_rng(3).random()
