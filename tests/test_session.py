"""Gated and buffered Monte Carlo sessions."""

import collections
import dataclasses
import itertools
import math

import numpy as np
import pytest

import hybridkd.session as session_module
from hybridkd.errors import ConfigError, DomainError
from hybridkd.physics import KljnLineParams, kljn_bit_rate, link_budget
from hybridkd.protocol import ChannelModel, Protocol, draw_span, random_inputs, run_round
from hybridkd.rates import normalized_rates, throughputs
from hybridkd.session import (
    SessionStats,
    TimingMode,
    estimate_per_pulse_yield,
    per_pulse_yield_moments,
    run_buffered_session,
    run_gated_session,
    spawn_seeds,
)

from outcome_oracle import observed_outcomes, session_counts
from test_acceptance import _yield_moments


class TestTimingMode:
    def test_buffered_requires_geometry(self):
        with pytest.raises(ConfigError):
            TimingMode.buffered(buffer_capacity=100, burst_block=0)
        with pytest.raises(ConfigError):
            TimingMode.buffered(buffer_capacity=100, burst_block=200)

    @pytest.mark.parametrize("capacity, block", [(10.5, 5.5), (10, 5.5), (10.5, 5), (10.0, 5)])
    def test_geometry_must_be_whole_numbers(self, capacity, block):
        with pytest.raises(ConfigError, match="buffered mode needs an integer"):
            TimingMode.buffered(buffer_capacity=capacity, burst_block=block)

    def test_p3_rejected_in_buffered(self):
        for protocol in (Protocol.P3, Protocol.BB84):
            with pytest.raises(ConfigError, match="p1/p2 only"):
                TimingMode.buffered().check_protocol(protocol)
        TimingMode.buffered().check_protocol(Protocol.P2)  # fine


class TestGatedSession:
    def test_deterministic(self, optical, line):
        a = run_gated_session(Protocol.P2, optical, line, 2.0, 2_000, seed=5)
        b = run_gated_session(Protocol.P2, optical, line, 2.0, 2_000, seed=5)
        assert a == b

    def test_rounds_precondition(self, optical, line):
        with pytest.raises(DomainError):
            run_gated_session(Protocol.P1, optical, line, 2.0, 0, seed=1)

    @pytest.mark.parametrize("n", [2.5, math.nan])
    def test_round_count_must_be_whole(self, optical, line, n):
        with pytest.raises(DomainError, match="n_rounds"):
            run_gated_session(Protocol.P1, optical, line, 2.0, n, seed=1)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
    def test_temperature_scale_must_be_positive(self, optical, line, scale):
        # rejected under ideal classification too, where no line is sampled
        with pytest.raises(DomainError, match="temperature_scale"):
            run_gated_session(Protocol.P2, optical, line, 2.0, 100, seed=1,
                              temperature_scale=scale)

    def test_bb84_wall_time_unthrottled(self, optical, line):
        stats = run_gated_session(Protocol.BB84, optical, line, 2.0, 1_000, seed=2)
        assert stats.wall_time_s == 1_000 / optical.f_qkd
        assert stats.kljn_bits == 0

    def test_hybrid_wall_time_uses_system_clock(self, optical, line):
        stats = run_gated_session(Protocol.P1, optical, line, 2.0, 1_000, seed=3)
        f_sys = min(optical.f_qkd, kljn_bit_rate(line, 2.0))
        assert stats.wall_time_s == 1_000 / f_sys

    def test_yield_converges_to_analytic(self, optical, line):
        n = 40_000
        stats = run_gated_session(Protocol.P2, optical, line, 2.0, n, seed=6)
        point = throughputs(optical, line, 2.0)
        mean, var = per_pulse_yield_moments(Protocol.P2, point.q_mu, point.gamma)
        observed = estimate_per_pulse_yield(stats)
        assert abs(observed - mean) < 3 * math.sqrt(var / n)

    def test_bit_count_invariant(self, optical, line):
        stats = run_gated_session(Protocol.P2, optical, line, 1.0, 5_000, seed=7)
        assert stats.qkd_bits + stats.kljn_bits <= 2 * stats.rounds_executed
        total = stats.rounds_executed
        # every round is counted exactly once as yielding/discarded/flagged
        yielding = total - stats.discarded_rounds - stats.flagged_rounds
        assert 0 <= yielding <= total

    def test_sampled_classification_produces_flags_and_errors(self, optical, line):
        stats = run_gated_session(
            Protocol.P2, optical, line, 2.0, 10_000, seed=8, ideal_classification=False
        )
        assert stats.flagged_rounds > 0
        assert stats.kljn_errors > 0  # mixed-up rounds disagree on the wire bit

    def test_no_flags_under_ideal_classification(self, optical, line):
        stats = run_gated_session(Protocol.P2, optical, line, 2.0, 10_000, seed=9)
        assert stats.flagged_rounds == 0
        assert stats.kljn_errors == 0

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    def test_counts_match_round_by_round_replay(self, optical, protocol, ideal):
        assert_counts_match_replay(optical, protocol, ideal, 3_000, 1.0)

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    # Sessions that end just before, on and just after a multiple of 128
    # rounds, and a temperature scale at which the variance's rounding matters.
    @pytest.mark.parametrize("n, scale", [(3_000, 2.7), (127, 2.7), (128, 1.0), (129, 2.7)])
    def test_counts_match_replay_across_sizes_and_scales(self, optical, protocol, ideal, n,
                                                         scale):
        assert_counts_match_replay(optical, protocol, ideal, n, scale)


def assert_counts_match_replay(optical, protocol, ideal, n, scale):
    # A bright, misaligned source loses and flips pulses often, and three
    # samples per decision misclassify levels often enough to flag rounds.
    bright = dataclasses.replace(optical, mu=2.0, eta_d=1.0, e_opt=0.1)
    noisy = KljnLineParams(v=2e5, n_pairs=1000, n_samples=3, r_low=1e4, r_high=1e5)
    distance, seed = 3.0, 77
    stats = run_gated_session(protocol, bright, noisy, distance, n, seed,
                              ideal_classification=ideal, temperature_scale=scale)

    # Reference: the same seed replayed one `run_round` at a time and
    # counted round by round.
    budget = link_budget(bright, distance)
    channel = ChannelModel(budget.q_mu, bright.e_opt, noisy, scale, ideal)
    rng = np.random.default_rng(seed)
    qkd_bits = kljn_bits = qkd_errors = kljn_errors = 0
    discarded = flagged = lost = flipped = 0
    for _ in range(n):
        inputs = random_inputs(rng)
        rnd = run_round(protocol, inputs, channel, rng)
        lost += not rnd.optical_detected
        matched = inputs.alice_basis is inputs.bob_basis
        flipped += rnd.optical_detected and matched and rnd.bob_bit != inputs.alice_bit
        if rnd.flagged:
            flagged += 1
        elif rnd.qkd_key_bit is None and rnd.kljn_key_bit is None:
            discarded += 1
        else:
            if rnd.qkd_key_bit is not None:
                qkd_bits += 1
                qkd_errors += rnd.qkd_key_bit != rnd.alice_bit
            if rnd.kljn_key_bit is not None:
                kljn_bits += 1
                kljn_errors += rnd.bob_kljn_bit != rnd.kljn_key_bit
    assert lost > 0 and flipped > 0 and qkd_errors > 0
    assert (flagged > 0) == (protocol is not Protocol.BB84 and not ideal)
    assert (stats.qkd_bits, stats.kljn_bits, stats.qkd_errors, stats.kljn_errors,
            stats.discarded_rounds, stats.flagged_rounds) == (
        qkd_bits, kljn_bits, qkd_errors, kljn_errors, discarded, flagged)


class TestYieldHelpers:
    def test_moments_match_normalized_rates(self, optical, line):
        budget = link_budget(optical, 2.0)
        r1, r23 = normalized_rates(budget)
        for proto, expect in (
            (Protocol.BB84, r1),
            (Protocol.P1, r1),
            (Protocol.P2, r23),
            (Protocol.P3, r23),
        ):
            mean, var = per_pulse_yield_moments(proto, budget.q_mu, budget.gamma)
            assert mean == pytest.approx(expect, rel=1e-12)
            assert var > 0.0
        # criterion 5's closed forms, written out per protocol in test_acceptance
        grid = (0.0, 1e-12, 0.008, 0.5, 1.0)
        for proto, q_mu, gamma in itertools.product(Protocol, grid, grid):
            mean, var = per_pulse_yield_moments(proto, q_mu, gamma)
            want_mean, want_var = _yield_moments(proto, q_mu, gamma)
            assert abs(mean - want_mean) <= 1e-15, (proto, q_mu, gamma)
            assert abs(var - want_var) <= 1e-15, (proto, q_mu, gamma)
            assert var >= 0.0, (proto, q_mu, gamma)

    def test_estimate_formula(self):
        stats = SessionStats(
            protocol="p1",
            timing="gated",
            distance_km=1.0,
            seed=0,
            rounds_executed=100,
            qkd_bits=10,
            kljn_bits=4,
            qkd_errors=0,
            kljn_errors=0,
            discarded_rounds=86,
            flagged_rounds=0,
            gamma=0.25,
            wall_time_s=1.0,
            effective_throughput_bps=11.5,
        )
        assert estimate_per_pulse_yield(stats) == pytest.approx((10 * 0.75 + 4) / 100)

    def test_zero_activity_yields_zero(self, optical, line):
        # at an extreme distance the optical gain is dark-count level and
        # protocol I essentially never produces a bit in a short session
        stats = run_gated_session(Protocol.P1, optical, line, 500.0, 200, seed=10)
        assert estimate_per_pulse_yield(stats) == 0.0


class TestBufferedSession:
    def run(self, protocol, optical, line, **kw):
        args = dict(
            distance_km=2.0,
            duration_s=1.3,
            seed=11,
            mode=TimingMode.buffered(buffer_capacity=100_000, burst_block=2_000),
        )
        args.update(kw)
        return run_buffered_session(protocol, optical, line, **args)

    def test_deterministic(self, optical, line):
        assert self.run(Protocol.P1, optical, line) == self.run(Protocol.P1, optical, line)

    def test_p3_and_bb84_rejected(self, optical, line):
        with pytest.raises(ConfigError):
            self.run(Protocol.P3, optical, line)
        with pytest.raises(ConfigError):
            self.run(Protocol.BB84, optical, line)

    def test_duration_must_fit_one_cycle(self, optical, line):
        with pytest.raises(ConfigError):
            self.run(Protocol.P1, optical, line, duration_s=1e-6)
        with pytest.raises(DomainError):
            self.run(Protocol.P1, optical, line, duration_s=0.0)

    @pytest.mark.parametrize("duration", ["2", None, [2.0]])
    def test_duration_must_be_a_number(self, optical, line, duration):
        with pytest.raises(DomainError, match="duration_s"):
            self.run(Protocol.P1, optical, line, duration_s=duration)

    @pytest.mark.parametrize("scale", [-1.0, 0.0, math.nan, math.inf])
    def test_temperature_scale_must_be_positive(self, optical, line, scale):
        with pytest.raises(DomainError, match="temperature_scale"):
            self.run(Protocol.P2, optical, line, temperature_scale=scale)

    def test_conservation(self, optical, line):
        stats = self.run(Protocol.P2, optical, line)
        # one buffered decision consumed per pulse; whole cycles only
        assert stats.rounds_executed == stats.cycles * 2_000
        assert stats.kljn_bits <= stats.rounds_executed

    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    def test_rounds_are_drawn_in_spans(self, optical, line, ideal):
        # One cycle of one round more than a span: a full span, then one round.
        block = session_module._SPAN + 1
        cycle_s = block / kljn_bit_rate(line, 2.0) + block / optical.f_qkd
        stats = self.run(Protocol.P2, optical, line, duration_s=1.5 * cycle_s, seed=5,
                         mode=TimingMode.buffered(block, block), ideal_classification=ideal)
        channel = ChannelModel(link_budget(optical, 2.0).q_mu, optical.e_opt, line, 1.0, ideal)
        rng = np.random.default_rng(5)
        counts = collections.Counter()
        for n in (block - 1, 1):
            counts.update(session_counts(observed_outcomes(
                Protocol.P2, draw_span(Protocol.P2, channel, rng, n))))
        assert {name: getattr(stats, name) for name in counts} == counts
        secure = stats.qkd_bits * (1.0 - stats.gamma) + stats.kljn_bits
        assert stats.burst_throughput_measured_bps == secure / (block / optical.f_qkd)

    def test_burst_rate_matches_model(self, optical, line):
        point = throughputs(optical, line, 2.0)
        p2 = self.run(Protocol.P2, optical, line)
        assert p2.burst_throughput_model_bps == point.t_burst_p2
        assert p2.burst_throughput_measured_bps == pytest.approx(point.t_burst_p2, rel=0.02)
        p1 = self.run(Protocol.P1, optical, line)
        assert p1.burst_throughput_model_bps == point.t_burst_p1
        # protocol I bursts are rare events (q_mu/2 per pulse); allow more slack
        assert p1.burst_throughput_measured_bps == pytest.approx(point.t_burst_p1, rel=0.25)

    def test_long_run_average_near_gated_bound(self, optical, line):
        point = throughputs(optical, line, 2.0)
        stats = self.run(Protocol.P2, optical, line)
        assert stats.cycles >= 100
        ratio = stats.effective_throughput_bps / point.t_p23
        assert 0.95 <= ratio <= 1.0 + 1e-9  # duty-cycle loss only, within 5%

    def test_sampled_classification_path(self, optical, line):
        stats = self.run(
            Protocol.P2,
            optical,
            line,
            duration_s=0.3,
            ideal_classification=True,
        )
        noisy = self.run(
            Protocol.P2,
            optical,
            line,
            duration_s=0.3,
            ideal_classification=False,
        )
        assert noisy.flagged_rounds > 0
        assert noisy.kljn_bits < stats.kljn_bits  # misclassification costs yield


class TestSeedSpawning:
    def test_children_are_deterministic_and_distinct(self):
        a = [np.random.default_rng(s).random() for s in spawn_seeds(1, 4)]
        b = [np.random.default_rng(s).random() for s in spawn_seeds(1, 4)]
        assert a == b
        assert len(set(a)) == 4

    @pytest.mark.parametrize("seed", [-1, 1.5, 2.0, math.nan, True, "7", None])
    def test_bad_seed_is_named(self, optical, line, seed):
        mode = TimingMode.buffered(buffer_capacity=2_000, burst_block=2_000)
        calls = (
            lambda: run_gated_session(Protocol.P1, optical, line, 2.0, 100, seed=seed),
            lambda: run_buffered_session(Protocol.P1, optical, line, 2.0, 1.3, seed, mode),
            lambda: spawn_seeds(seed, 2),
        )
        for call in calls:
            with pytest.raises(DomainError, match=f"seed must be an integer >= 0, got {seed!r}"):
                call()

    def test_spawned_seeds_run_sessions(self, optical, line):
        mode = TimingMode.buffered(buffer_capacity=2_000, burst_block=2_000)
        runs = [
            [dataclasses.replace(stats, seed=0) for stats in (
                run_gated_session(Protocol.P2, optical, line, 2.0, 500, seed=child),
                run_buffered_session(Protocol.P2, optical, line, 2.0, 1.3, child, mode))]
            for child in (spawn_seeds(3, 2)[1], spawn_seeds(3, 2)[1])
        ]
        assert runs[0] == runs[1]
