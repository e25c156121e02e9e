"""Sessions against the exact per-round outcome distribution of `outcome_oracle`.

Each session's counts are first tied to per-round outcomes: the session's
seed replayed through the draw it uses (`draw_block` for a gated session that
samples the line, `draw_span` for any other session of one span) and
decided, must give the same six counts. Those outcomes must then fit the
exact distribution by a chi-square test on a fixed seed; a p-value below the
3-sigma tail is a defect to fix, never a seed to swap.
"""

import dataclasses
import math

import pytest

from hybridkd.config import DEFAULT_KLJN, DEFAULT_OPTICAL
from hybridkd.physics import KljnLineParams, kljn_bit_rate, link_budget
from hybridkd.protocol import ChannelModel, Protocol, draw_block, draw_span
from hybridkd.session import (_SPAN, TimingMode, run_buffered_session,
                              run_gated_session)

from outcome_oracle import (FLAGGED, P_3SIGMA, fit_p_value, observed_outcomes,
                            outcome_distribution, session_counts)

# A bright, misaligned source loses and flips pulses often, and three samples
# per decision misclassify levels often enough that every outcome occurs.
BRIGHT = dataclasses.replace(DEFAULT_OPTICAL, mu=2.0, eta_d=1.0, e_opt=0.1)
NOISY = KljnLineParams(v=2e5, n_pairs=1000, n_samples=3, r_low=1e4, r_high=1e5)
DISTANCE = 3.0

COUNT_FIELDS = ("qkd_bits", "kljn_bits", "qkd_errors", "kljn_errors", "discarded_rounds",
                "flagged_rounds")


def _oracle(protocol, ideal, optical=BRIGHT, line=NOISY, distance=DISTANCE):
    q = link_budget(optical, distance).q_mu
    return outcome_distribution(protocol, q, optical.e_opt, None if ideal else line)


def _channel(ideal):
    return ChannelModel(link_budget(BRIGHT, DISTANCE).q_mu, BRIGHT.e_opt, None if ideal else NOISY)


def _counts(stats):
    return {name: getattr(stats, name) for name in COUNT_FIELDS}


def _error_rates(dist):
    """(QKD, wire) bit error rates of an outcome distribution."""
    rounds = [(k, p) for k, p in dist.items() if k != FLAGGED]
    rates = []
    for i in (0, 1):
        bits = sum(p for k, p in rounds if k[i])
        rates.append(sum(p for k, p in rounds if k[i] == "wrong") / bits)
    return tuple(rates)


@pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2], ids=lambda p: p.value)
@pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
def test_buffered_outcomes_fit(protocol, ideal):
    block, cycles, seed = 1_000, 60, 31
    cycle_s = block / kljn_bit_rate(NOISY, DISTANCE) + block / BRIGHT.f_qkd
    stats = run_buffered_session(protocol, BRIGHT, NOISY, DISTANCE, (cycles + 0.5) * cycle_s,
                                 seed, mode=TimingMode.buffered(block, block),
                                 ideal_classification=ideal)
    n = cycles * block
    assert stats.rounds_executed == n <= _SPAN  # the session is one span
    outcomes = observed_outcomes(protocol, draw_span(protocol, _channel(ideal), seed, n))
    assert _counts(stats) == session_counts(outcomes)
    assert fit_p_value(outcomes, _oracle(protocol, ideal)) >= P_3SIGMA


@pytest.mark.parametrize("protocol, ideal", [
    (Protocol.P1, False), (Protocol.P2, False), (Protocol.P3, False), (Protocol.BB84, True),
], ids=["p1-sampled", "p2-sampled", "p3-sampled", "bb84"])
def test_gated_outcomes_fit(protocol, ideal):
    n, seed = 20_000, 32
    stats = run_gated_session(protocol, BRIGHT, NOISY, DISTANCE, n, seed,
                              ideal_classification=ideal)
    assert n <= _SPAN  # the session is one span
    draw = draw_span if ideal or protocol is Protocol.BB84 else draw_block
    outcomes = observed_outcomes(protocol, draw(protocol, _channel(ideal), seed, n))
    assert _counts(stats) == session_counts(outcomes)
    assert fit_p_value(outcomes, _oracle(protocol, ideal)) >= P_3SIGMA


def test_misclassified_mismatched_rounds_score_half_errors():
    # Protocol II, 3 samples per decision, no optical flips, 2 km, seed 1:
    # every QKD error comes from a misclassified round with mismatched bases.
    # The buffered path once scored none of them (0 errors in 15,434 bits).
    optical = dataclasses.replace(DEFAULT_OPTICAL, e_opt=0.0)
    line = dataclasses.replace(DEFAULT_KLJN, n_samples=3)
    p_qkd, p_wire = _error_rates(_oracle(Protocol.P2, False, optical, line, 2.0))
    assert p_qkd == pytest.approx(0.1668, abs=5e-5)
    buffered = run_buffered_session(Protocol.P2, optical, line, 2.0, 2.0, seed=1,
                                    ideal_classification=False)
    assert buffered.rounds_executed == 4_990_000
    gated = run_gated_session(Protocol.P2, optical, line, 2.0, 100_000, seed=1,
                              ideal_classification=False)
    for p, bits, errors in ((p_qkd, "qkd_bits", "qkd_errors"),
                            (p_wire, "kljn_bits", "kljn_errors")):
        n_b, n_g = getattr(buffered, bits), getattr(gated, bits)
        rate_b = getattr(buffered, errors) / n_b
        rate_g = getattr(gated, errors) / n_g
        assert abs(rate_b - p) <= 3 * math.sqrt(p * (1 - p) / n_b), (bits, rate_b, p)
        assert abs(rate_g - p) <= 3 * math.sqrt(p * (1 - p) / n_g), (bits, rate_g, p)
        assert abs(rate_b - rate_g) <= 3 * math.sqrt(p * (1 - p) * (1 / n_b + 1 / n_g))
