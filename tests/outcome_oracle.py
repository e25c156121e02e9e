"""Exact per-round outcome distribution of every protocol, for tests.

Worked out here from the model, not from the package's draw or decide code:
bases are fair coins, a pulse clicks with probability q, and Bob's outcome is
wrong with probability flip_prob on matched bases and 1/2 on mismatched ones.
A sampled variance estimate is the mean square of N zero-mean normals, so
for a pair of variance s it is s * chi2_N / N and falls below a threshold t
with probability `chi2.cdf(N t / s, N)` (the variance bands of Kish, Phys.
Lett. A 352, 178 (2006)). The scalar wire rule below then decides each case.

An outcome is "flagged", or a pair (QKD bit, wire bit) whose entries are
each None, "right" or "wrong"; (None, None) is a discarded round.
"""

import collections
import math

import numpy as np
from scipy import stats

from hybridkd.kljn import NoiseLevel, ResistorChoice
from hybridkd.protocol import Protocol, decide_block

RL, RH = ResistorChoice.LOW, ResistorChoice.HIGH
LEVELS = (NoiseLevel.LOW, NoiseLevel.INTERMEDIATE, NoiseLevel.HIGH)
FLAGGED = "flagged"
DISCARDED = (None, None)
# Two-sided tail beyond 3 sigma: a smaller p-value is a defect to fix.
P_3SIGMA = 2 * stats.norm.sf(3.0)

# The scalar form of the wire rule: for each wire protocol, the classified
# levels at which a detected pulse keeps its optical bit and whether a mid
# level yields a wire bit.
ORACLE_RULES = {
    Protocol.P1: ((NoiseLevel.INTERMEDIATE,), False),
    Protocol.P2: ((NoiseLevel.INTERMEDIATE,), True),
    Protocol.P3: ((NoiseLevel.LOW, NoiseLevel.HIGH), True),
}


def _level_impossible_for(level, own_resistor):
    # A party holding RL can never see a true high level (both resistors
    # would have to be RH), and symmetrically for RH/low.
    if own_resistor is RL:
        return level is NoiseLevel.HIGH
    return level is NoiseLevel.LOW


def oracle_round(protocol, alice_res, bob_res, level, bob_bit):
    """(flagged, qkd bit, Alice's wire bit, Bob's wire bit) of one round."""
    optical_levels, mid_wire_bit = ORACLE_RULES[protocol]
    flagged = _level_impossible_for(level, alice_res) or _level_impossible_for(level, bob_res)
    qkd = alice_kljn = bob_kljn = None
    if not flagged:
        if level in optical_levels:
            qkd = bob_bit
        if level is NoiseLevel.INTERMEDIATE and mid_wire_bit:
            # Alice's bit is "I hold RH", Bob's "I hold RL"; they agree on a
            # truly mixed pair and disagree on a misclassified one.
            alice_kljn = int(alice_res is RH)
            bob_kljn = int(bob_res is RL)
    return flagged, qkd, alice_kljn, bob_kljn


def _resistors(protocol, alice_diag, bob_diag):
    # Alice: + -> RL, x -> RH. Bob: + -> RH, x -> RL under the cross mapping
    # of Protocols I/II; the same as Alice's under Protocol III.
    bob_rh = bob_diag if protocol is Protocol.P3 else not bob_diag
    return (RH if alice_diag else RL), (RH if bob_rh else RL)


def band_probabilities(line):
    """3x3 matrix: row = true level, column = classified level (low, mid, high)."""
    def parallel(ra, rb):
        return ra * rb / (ra + rb)

    variances = (parallel(line.r_low, line.r_low), parallel(line.r_low, line.r_high),
                 parallel(line.r_high, line.r_high))
    t_low = math.sqrt(variances[0] * variances[1])
    t_high = math.sqrt(variances[1] * variances[2])
    n = line.n_samples
    rows = []
    for s in variances:
        low = stats.chi2.cdf(n * t_low / s, n)
        high = stats.chi2.sf(n * t_high / s, n)
        rows.append((low, 1.0 - low - high, high))
    return np.array(rows)


def _state(bit, reference):
    return None if bit is None else ("right" if bit == reference else "wrong")


def outcome_distribution(protocol, q, flip_prob, line=None):
    """{outcome: probability} of one round; `line` None means ideal classification."""
    bands = None if line is None else band_probabilities(line)
    dist = collections.Counter()
    for alice_diag in (False, True):
        for bob_diag in (False, True):
            matched = alice_diag == bob_diag
            p_wrong = flip_prob if matched else 0.5
            alice_res, bob_res = _resistors(protocol, alice_diag, bob_diag)
            truth = (alice_res is RH) + (bob_res is RH)  # index of the true level
            if protocol is Protocol.BB84:
                levels = {None: 1.0}
            elif bands is None:
                levels = {LEVELS[truth]: 1.0}
            else:
                levels = dict(zip(LEVELS, bands[truth]))
            # Alice sends bit 1; Bob reads 0 on a wrong outcome, nothing on no click.
            pulses = ((None, 1.0 - q), (1, q * (1.0 - p_wrong)), (0, q * p_wrong))
            for level, p_level in levels.items():
                for bob_bit, p_pulse in pulses:
                    p = 0.25 * p_level * p_pulse
                    if p == 0.0:
                        continue
                    if protocol is Protocol.BB84:
                        dist[(_state(bob_bit, 1) if matched else None, None)] += p
                        continue
                    flagged, qkd, alice_kljn, bob_kljn = oracle_round(
                        protocol, alice_res, bob_res, level, bob_bit)
                    dist[FLAGGED if flagged else
                         (_state(qkd, 1), _state(bob_kljn, alice_kljn))] += p
    return dict(dist)


def observed_outcomes(protocol, masks):
    """{outcome: count} of drawn rounds (a draw's six masks) as the rule decides them."""
    alice_diag, bob_diag, detected, wrong, low, high = masks
    flagged, keeps, wire, wire_wrong = decide_block(protocol, alice_diag, bob_diag, low, high)
    n = len(alice_diag)
    flagged = np.zeros(n, bool) if flagged is None else flagged
    qkd = keeps & detected
    qkd_state = qkd * (1 + wrong)  # 0 none, 1 right, 2 wrong
    wire_state = np.zeros(n, int) if wire is None else wire * (1 + wire_wrong)
    codes = np.where(flagged, 9, 3 * qkd_state + wire_state)
    names = (None, "right", "wrong")
    out = {}
    for code, count in zip(*np.unique(codes, return_counts=True)):
        key = FLAGGED if code == 9 else (names[code // 3], names[code % 3])
        out[key] = int(count)
    return out


def session_counts(outcomes):
    """The six count fields of `SessionStats` implied by per-round outcomes."""
    rounds = [(k, c) for k, c in outcomes.items() if k != FLAGGED]
    return {
        "qkd_bits": sum(c for (qkd, _), c in rounds if qkd),
        "kljn_bits": sum(c for (_, wire), c in rounds if wire),
        "qkd_errors": sum(c for (qkd, _), c in rounds if qkd == "wrong"),
        "kljn_errors": sum(c for (_, wire), c in rounds if wire == "wrong"),
        "discarded_rounds": outcomes.get(DISCARDED, 0),
        "flagged_rounds": outcomes.get(FLAGGED, 0),
    }


def fit_p_value(counts, probs):
    """Pearson chi-square goodness-of-fit p-value of counts against probs.

    An outcome the distribution rules out must not occur. Every expected
    count must be at least 5, so that the chi-square law applies.
    """
    assert set(counts) <= set(probs), f"impossible outcomes {set(counts) - set(probs)}"
    n = sum(counts.values())
    keys = list(probs)
    expected = n * np.array([probs[k] for k in keys])
    assert expected.min() >= 5, f"expected counts too small: {dict(zip(keys, expected))}"
    observed = np.array([counts.get(k, 0) for k in keys])
    statistic = float(((observed - expected) ** 2 / expected).sum())
    return float(stats.chi2.sf(statistic, len(keys) - 1))
