"""Gated and buffered Monte Carlo sessions."""

import collections
import dataclasses
import itertools
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import hybridkd.kljn as kljn_module
import hybridkd.session as session_module
from hybridkd.errors import ConfigError, DomainError
from hybridkd.physics import KljnLineParams, kljn_bit_rate, link_budget
from hybridkd.protocol import (ChannelModel, Protocol, decide_block, draw_block, draw_span,
                              random_inputs, run_round)
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
from test_outcome_oracle import COUNT_FIELDS


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

    # Rounds that sample the line are drawn round by round (`draw_block`);
    # the rest i.i.d., as TestUnsampledGatedSession checks.
    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2, Protocol.P3],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("ideal", [False], ids=["sampled"])
    def test_counts_match_round_by_round_replay(self, optical, protocol, ideal):
        # another resistor pair: sqrt(2350), sqrt(4488.9...) and sqrt(50000)
        # round differently from the default pair's deviations
        assert_counts_match_replay(optical, protocol, ideal, 3_000, r_low=4.7e3)

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2, Protocol.P3],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("ideal", [False], ids=["sampled"])
    # Sessions that end just before, on and just after a multiple of 128
    # rounds, and a long one.
    @pytest.mark.parametrize("n", [127, 128, 129, 3_000])
    def test_counts_match_replay_across_sizes(self, optical, protocol, ideal, n):
        assert_counts_match_replay(optical, protocol, ideal, n)

    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    def test_rounds_are_drawn_in_spans(self, optical, line, ideal):
        # A full span, then one round. Sampled, the session's two draws are
        # one draw_block call of their sum on its seed; ideal, two draw_span
        # calls on it, as a buffered session's. Either decided and tallied.
        n = session_module._SPAN + 1
        stats = run_gated_session(Protocol.P2, optical, line, 2.0, n, seed=5,
                                  ideal_classification=ideal)
        channel = ChannelModel(link_budget(optical, 2.0).q_mu, optical.e_opt,
                               None if ideal else line)
        draw, calls = (draw_span, (n - 1, 1)) if ideal else (draw_block, (n,))
        rng, counts = np.random.default_rng(5), collections.Counter()
        for rounds in calls:
            counts.update(session_counts(observed_outcomes(
                Protocol.P2, draw(Protocol.P2, channel, rng, rounds))))
        assert {name: getattr(stats, name) for name in counts} == counts
        assert (stats.flagged_rounds > 0) == (not ideal)

    def test_memory_does_not_grow_with_spans(self, monkeypatch, optical, line):
        # Ideal gated spans run on one thread per usable core, each holding
        # one span at a time, so the traced peak at 16 spans is at most about
        # the threads' count times the peak of two spans on one thread, as in
        # TestBufferedSession's twin of this test.
        workers = min(session_module._usable_cores(), 16)

        def peak(spans, cores):
            monkeypatch.setattr(session_module, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                run_gated_session(Protocol.P2, optical, line, 2.0, spans * session_module._SPAN, 3)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, 1)  # first-call allocations are not the session's draws
        one_thread, sixteen = peak(2, 1), peak(16, workers)
        assert sixteen <= 1.2 * workers * one_thread, (workers, one_thread, sixteen)


def assert_counts_match_replay(optical, protocol, ideal, n, r_low=1e4):
    # A bright, misaligned source loses and flips pulses often, and three
    # samples per decision misclassify levels often enough to flag rounds.
    # The default pair deviations sqrt(5000), sqrt(9090.9...) and sqrt(50000)
    # are inexact, so sigma * z must round as sample_line's normal(0, sigma).
    bright = dataclasses.replace(optical, mu=2.0, eta_d=1.0, e_opt=0.1)
    noisy = KljnLineParams(v=2e5, n_pairs=1000, n_samples=3, r_low=r_low, r_high=1e5)
    distance, seed = 3.0, 77
    stats = run_gated_session(protocol, bright, noisy, distance, n, seed,
                              ideal_classification=ideal)

    # Reference: the same seed replayed one `run_round` at a time and
    # counted round by round.
    budget = link_budget(bright, distance)
    channel = ChannelModel(budget.q_mu, bright.e_opt, None if ideal else noisy)
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


def span_by_span(protocol, channel, seed, n):
    """The summed `_tally` of n `draw_span` rounds, `_SPAN` at a time, on one generator."""
    rng, counts = np.random.default_rng(seed), collections.Counter()
    for start in range(0, n, session_module._SPAN):
        *bases, detected, wrong, low, high = draw_span(
            protocol, channel, rng, min(session_module._SPAN, n - start))
        counts.update(session_module._tally(
            decide_block(protocol, *bases, low, high), detected, wrong))
    return counts


class TestUnsampledGatedSession:
    """Gated sessions that sample no line (ideal, or BB84) draw i.i.d. `draw_span` spans."""

    SPAN = session_module._SPAN

    @pytest.mark.parametrize("protocol, ideal", [
        (Protocol.P1, True), (Protocol.P2, True), (Protocol.P3, True), (Protocol.BB84, True),
        (Protocol.BB84, False)], ids=["p1", "p2", "p3", "bb84", "bb84-sampled"])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 3_000, SPAN, SPAN + 1])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_counts_equal_span_by_span_draws(self, monkeypatch, optical, protocol, ideal, n,
                                             cores):
        # The source and line of `assert_counts_match_replay`: lost, flipped
        # and (on a sampled line) misclassified rounds are common.
        bright = dataclasses.replace(optical, mu=2.0, eta_d=1.0, e_opt=0.1)
        noisy = KljnLineParams(v=2e5, n_pairs=1000, n_samples=3, r_low=1e4, r_high=1e5)
        monkeypatch.setattr(session_module, "_usable_cores", lambda: cores)
        stats = run_gated_session(protocol, bright, noisy, 3.0, n, 77, ideal_classification=ideal)
        channel = ChannelModel(link_budget(bright, 3.0).q_mu, bright.e_opt,
                               None if ideal else noisy)
        counts = span_by_span(protocol, channel, 77, n)
        assert stats.rounds_executed == n
        assert {name: getattr(stats, name) for name in COUNT_FIELDS} == counts
        assert counts["flagged_rounds"] == counts["kljn_errors"] == 0
        if n >= 3_000:
            assert counts["qkd_errors"] > 0 and counts["discarded_rounds"] > 0

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2], ids=lambda p: p.value)
    @pytest.mark.parametrize("n", [3_000, SPAN + 1])
    def test_gated_and_buffered_counts_agree(self, optical, line, protocol, n):
        # The two timing modes differ in their clocks only: one buffered cycle
        # of n ideal rounds counts what n ideal gated rounds count, same seed.
        cycle_s = n / kljn_bit_rate(line, 2.0) + n / optical.f_qkd
        buffered = run_buffered_session(protocol, optical, line, 2.0, 1.5 * cycle_s, 13,
                                        TimingMode.buffered(n, n))
        gated = run_gated_session(protocol, optical, line, 2.0, n, 13)
        assert buffered.rounds_executed == gated.rounds_executed == n
        assert ({name: getattr(gated, name) for name in COUNT_FIELDS}
                == {name: getattr(buffered, name) for name in COUNT_FIELDS})
        assert gated.qkd_bits > 0


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
        channel = ChannelModel(link_budget(optical, 2.0).q_mu, optical.e_opt,
                               None if ideal else line)
        rng = np.random.default_rng(5)
        counts = collections.Counter()
        for n in (block - 1, 1):
            counts.update(session_counts(observed_outcomes(
                Protocol.P2, draw_span(Protocol.P2, channel, rng, n))))
        assert {name: getattr(stats, name) for name in counts} == counts
        secure = stats.qkd_bits * (1.0 - stats.gamma) + stats.kljn_bits
        assert stats.burst_throughput_measured_bps == secure / (block / optical.f_qkd)

    def test_memory_does_not_grow_with_spans(self, monkeypatch, optical, line):
        # Ideal buffered spans run on one thread per usable core, each holding
        # one span at a time, so the traced peak at 16 spans is at most about
        # the threads' count times the peak of two spans on one thread. (Not
        # the peak at two spans a thread: whether the threads' span peaks
        # meet varies from run to run, and that peak with it.)
        block = session_module._SPAN
        cycle_s = block / kljn_bit_rate(line, 2.0) + block / optical.f_qkd
        mode = TimingMode.buffered(block, block)
        workers = min(session_module._usable_cores(), 16)

        def peak(spans, cores):
            monkeypatch.setattr(session_module, "_usable_cores", lambda: cores)
            tracemalloc.start()
            try:
                self.run(Protocol.P2, optical, line, duration_s=(spans + 0.5) * cycle_s, mode=mode)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(1, 1)  # first-call allocations are not the session's draws
        one_thread, sixteen = peak(2, 1), peak(16, workers)
        assert sixteen <= 1.2 * workers * one_thread, (workers, one_thread, sixteen)

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


class TestSpansOnCores:
    """Ideal spans, buffered or gated, split over threads count what one generator counts."""

    N = 3 * session_module._SPAN + 5  # four spans, the last one partial
    CHANNEL = ChannelModel(0.3, 0.05)

    def one_generator(self, protocol, seed, n=N):
        return span_by_span(protocol, self.CHANNEL, seed, n)

    @staticmethod
    def span_starts(seed, spans):
        """The PCG64 position at the first word of each ideal span of the seed."""
        starts = []
        for k in range(spans):
            jumped = np.random.default_rng(seed).bit_generator.advance(2 * session_module._SPAN * k)
            starts.append(jumped.state["state"]["state"])
        return starts

    @staticmethod
    def traced(monkeypatch, cores, name="draw_span", fail_at=None):
        """Force the core count and wrap the session's `name` draw. The
        wrapper records each call's thread and entry state, and raises on
        entry state `fail_at`."""
        calls, inner = [], getattr(session_module, name)

        def draw(protocol, channel, rng, n):
            state = rng.bit_generator.state["state"]["state"]
            calls.append((threading.current_thread(), state))
            if state == fail_at:
                raise RuntimeError("span 2")
            return inner(protocol, channel, rng, n)

        monkeypatch.setattr(session_module, "_usable_cores", lambda: cores)
        monkeypatch.setattr(session_module, name, draw)
        return draw, calls

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2], ids=lambda p: p.value)
    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    def test_counts_equal_one_generator(self, monkeypatch, protocol, cores):
        draw, calls = self.traced(monkeypatch, cores)
        counts = session_module._run_spans(draw, protocol, self.CHANNEL, 9, self.N)
        assert counts == self.one_generator(protocol, 9)
        assert sorted(state for _, state in calls) == sorted(self.span_starts(9, 4))
        assert len({thread for thread, _ in calls}) == min(cores, 4)

    def test_many_short_spans_under_fast_switching(self, monkeypatch):
        # 3,001 spans of two rounds on 16 threads that switch every microsecond:
        # each thread's stride and the summed counts are still one generator's.
        monkeypatch.setattr(session_module, "_SPAN", 2)
        monkeypatch.setattr(session_module, "_usable_cores", lambda: 16)
        n = 2 * 3_000 + 1
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            counts = session_module._run_spans(draw_span, Protocol.P2, self.CHANNEL, 9, n)
        finally:
            sys.setswitchinterval(interval)
        assert counts == self.one_generator(Protocol.P2, 9, n)

    @pytest.mark.parametrize("cores", [2, 3, 5])
    def test_sessions_equal_one_core(self, monkeypatch, optical, line, cores):
        block = session_module._SPAN + 7
        cycle_s = block / kljn_bit_rate(line, 2.0) + block / optical.f_qkd
        mode = TimingMode.buffered(block, block)
        run = lambda: run_buffered_session(Protocol.P2, optical, line, 2.0, 3.5 * cycle_s, 4, mode)
        monkeypatch.setattr(session_module, "_usable_cores", lambda: 1)
        one = run()
        monkeypatch.setattr(session_module, "_usable_cores", lambda: cores)
        assert run() == one

    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    def test_a_failing_span_raises_in_the_caller(self, monkeypatch, cores):
        draw, calls = self.traced(monkeypatch, cores, fail_at=self.span_starts(9, 3)[2])
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="span 2"):
            session_module._run_spans(draw, Protocol.P2, self.CHANNEL, 9, self.N)
        assert threading.active_count() == threads  # every thread has finished
        assert len({thread for thread, _ in calls}) == min(cores, 4)

    def test_other_spans_run_on_one_thread(self, monkeypatch, optical, line):
        # Spans that sample the line read a varying number of words, gated
        # (`draw_block`) or buffered (`draw_span`): shorter spans keep the
        # sampled gated session quick.
        draw, calls = self.traced(monkeypatch, 5)
        sampled = ChannelModel(0.3, 0.05, line)
        session_module._run_spans(draw, Protocol.P2, sampled, 9, self.N)
        _, gated_calls = self.traced(monkeypatch, 5, name="draw_block")
        monkeypatch.setattr(session_module, "_SPAN", 100)
        run_gated_session(Protocol.P2, optical, line, 2.0, 305, 9, ideal_classification=False)
        for spans in (calls, gated_calls):
            assert [thread for thread, _ in spans] == [threading.current_thread()] * 4

    @pytest.mark.parametrize("protocol", [Protocol.P3, Protocol.BB84], ids=lambda p: p.value)
    @pytest.mark.parametrize("cores", [1, 2, 3, 5])
    def test_ideal_gated_spans_run_on_every_core(self, monkeypatch, optical, line, protocol,
                                                 cores):
        # Gated sessions that sample no line split as ideal buffered ones do.
        draw, calls = self.traced(monkeypatch, cores)
        stats = run_gated_session(protocol, optical, line, 2.0, self.N, 9)
        assert sorted(state for _, state in calls) == sorted(self.span_starts(9, 4))
        assert len({thread for thread, _ in calls}) == min(cores, 4)
        channel = ChannelModel(link_budget(optical, 2.0).q_mu, optical.e_opt)
        counts = span_by_span(protocol, channel, 9, self.N)
        assert {name: getattr(stats, name) for name in COUNT_FIELDS} == counts


class TestSessionChannel:
    """A session's classification flag enters once: its channel carries the line or None."""

    @staticmethod
    def channels(monkeypatch, name):
        """Wrap the session's `name` draw; the list gets each call's channel."""
        seen, inner = [], getattr(session_module, name)

        def draw(protocol, channel, rng, n):
            seen.append(channel)
            return inner(protocol, channel, rng, n)

        monkeypatch.setattr(session_module, name, draw)
        return seen

    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    def test_gated_draw_gets_the_line_unless_ideal(self, monkeypatch, optical, line, ideal):
        # Sampled rounds take draw_block, ideal ones draw_span.
        spans = self.channels(monkeypatch, "draw_span")
        blocks = self.channels(monkeypatch, "draw_block")
        run_gated_session(Protocol.P2, optical, line, 2.0, 1_000, 3, ideal_classification=ideal)
        seen, unused = (spans, blocks) if ideal else (blocks, spans)
        assert seen and not unused and all(c.line is (None if ideal else line) for c in seen)

    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    def test_gated_bb84_draws_spans_without_a_line(self, monkeypatch, optical, line, ideal):
        # BB84 has no wire to sample, whatever the classification.
        spans = self.channels(monkeypatch, "draw_span")
        blocks = self.channels(monkeypatch, "draw_block")
        run_gated_session(Protocol.BB84, optical, line, 2.0, 1_000, 3, ideal_classification=ideal)
        assert spans and not blocks and all(c.line is None for c in spans)

    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    def test_buffered_draw_gets_the_line_unless_ideal(self, monkeypatch, optical, line, ideal):
        seen = self.channels(monkeypatch, "draw_span")
        mode = TimingMode.buffered(1_000, 1_000)
        cycle_s = 1_000 / kljn_bit_rate(line, 2.0) + 1_000 / optical.f_qkd
        run_buffered_session(Protocol.P1, optical, line, 2.0, 2.5 * cycle_s, 3, mode,
                             ideal_classification=ideal)
        assert seen and all(c.line is (None if ideal else line) for c in seen)

    @pytest.mark.parametrize("mode", [None, TimingMode.buffered(1_000, 1_000)],
                             ids=["gated", "buffered"])
    def test_sampled_draws_band_at_kljn_thresholds(self, monkeypatch, optical, line, mode):
        # The draws look the thresholds up in `kljn`, where a wrapper (the
        # benchmark tracer's) sees them.
        calls, thresholds = [], kljn_module.variance_thresholds
        monkeypatch.setattr(kljn_module, "variance_thresholds",
                            lambda line: calls.append(line) or thresholds(line))
        if mode is None:
            run_gated_session(Protocol.P2, optical, line, 2.0, 1_000, 3, ideal_classification=False)
        else:
            cycle_s = 1_000 / kljn_bit_rate(line, 2.0) + 1_000 / optical.f_qkd
            run_buffered_session(Protocol.P2, optical, line, 2.0, 2.5 * cycle_s, 3, mode,
                                 ideal_classification=False)
        assert calls and all(c is line for c in calls)


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

    def test_seed_sequence_spawns_its_own_children(self, optical, line):
        root = np.random.SeedSequence(5)
        children = spawn_seeds(root, 2)
        assert [child.spawn_key for child in children] == [(0,), (1,)]
        assert [np.random.default_rng(child).random() for child in children] == [
            np.random.default_rng(child).random() for child in spawn_seeds(5, 2)]
        assert [child.spawn_key for child in spawn_seeds(root, 1)] == [(2,)]  # the next one
        nested = spawn_seeds(children[1], 2)  # workers of a worker
        assert [(child.entropy, child.spawn_key) for child in nested] == [(5, (1, 0)), (5, (1, 1))]
        mode = TimingMode.buffered(buffer_capacity=2_000, burst_block=2_000)
        assert run_gated_session(Protocol.P2, optical, line, 2.0, 500, nested[0]).seed is nested[0]
        run_buffered_session(Protocol.P2, optical, line, 2.0, 1.3, nested[1], mode)

    def test_spawned_seeds_run_sessions(self, optical, line):
        mode = TimingMode.buffered(buffer_capacity=2_000, burst_block=2_000)
        runs = [
            [dataclasses.replace(stats, seed=0) for stats in (
                run_gated_session(Protocol.P2, optical, line, 2.0, 500, seed=child),
                run_buffered_session(Protocol.P2, optical, line, 2.0, 1.3, child, mode))]
            for child in (spawn_seeds(3, 2)[1], spawn_seeds(3, 2)[1])
        ]
        assert runs[0] == runs[1]
