"""Pinned round ledgers and session counts under sampled classification.

The golden traces replay forced, ideal rounds only. These digests pin the
full per-round ledger (lost pulses, flips, flags and misclassified levels)
and the session summaries (gated for every protocol, buffered for
Protocols I/II under both classifiers), so any change to the round logic or
to the order of random draws shows up here.
"""

import hashlib

import numpy as np
import pytest

from hybridkd.config import DEFAULT_KLJN, DEFAULT_OPTICAL
from hybridkd.protocol import ChannelModel, Protocol, random_inputs, run_round
from hybridkd.session import TimingMode, run_buffered_session, run_gated_session

N_ROUNDS = 2_000
CHANNEL = ChannelModel(
    detection_prob=0.6, flip_prob=0.05, line=DEFAULT_KLJN, ideal_classification=False
)

LEDGER_SHA256 = {
    Protocol.BB84: "7471f1771834fe07c3b704705d23da53d01c039ecff84125056e68aa84267de4",
    Protocol.P1: "53b7aa357e1f81b79fecf715942e7bb06af75dff0bd0803171e739be5e73f6c4",
    Protocol.P2: "f8419b5df57dff63340a18ace25be2e7fea3d5f3a599867f86aad92a803799b3",
    Protocol.P3: "4b5d0429407255c5ba2858a3a5c0da7acb585e2e31d1f1c91c8bbe166c1eb437",
}

SESSION_COUNTS = {  # rounds_executed=2000, distance_km=2.0, seed=607, gated
    # protocol: (qkd_bits, kljn_bits, qkd_errors, kljn_errors, discarded, flagged,
    #            effective_throughput_bps)
    Protocol.BB84: (15, 0, 0, 0, 1985, 0, 56364.57037037484),
    Protocol.P1: (8, 0, 0, 0, 1903, 89, 601.222083950665),
    Protocol.P2: (8, 946, 0, 16, 965, 89, 95201.22208395066),
    Protocol.P3: (7, 913, 0, 26, 986, 94, 91826.06932345683),
}
GAMMA_2KM = 0.24847239506166877


def _level(level):
    return None if level is None else level.value


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_round_ledger_digest(protocol):
    rng = np.random.default_rng(606)
    digest = hashlib.sha256()
    lost = flipped = flagged = 0
    for _ in range(N_ROUNDS):
        inp = random_inputs(rng)
        r = run_round(protocol, inp, CHANNEL, rng)
        row = (
            r.bob_bit,
            _level(r.noise_level),
            _level(r.ground_truth_level),
            r.flagged,
            r.qkd_key_bit,
            r.kljn_key_bit,
            r.bob_kljn_bit,
        )
        digest.update(repr(row).encode())
        lost += not r.optical_detected
        matched = inp.alice_basis is inp.bob_basis
        flipped += r.optical_detected and matched and r.bob_bit != inp.alice_bit
        flagged += r.flagged
    # the pinned ledger must exercise every outcome the goldens skip
    assert lost > 0 and flipped > 0
    assert (flagged > 0) == (protocol is not Protocol.BB84)
    assert digest.hexdigest() == LEDGER_SHA256[protocol]


@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_sampled_gated_session_summary(protocol):
    stats = run_gated_session(
        protocol, DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, N_ROUNDS, seed=607,
        ideal_classification=False,
    )
    qkd, kljn, qkd_err, kljn_err, discarded, flagged, throughput = SESSION_COUNTS[protocol]
    assert stats.to_dict() == {
        "protocol": protocol.value,
        "timing": "gated",
        "distance_km": 2.0,
        "seed": 607,
        "rounds_executed": N_ROUNDS,
        "qkd_bits": qkd,
        "kljn_bits": kljn,
        "qkd_errors": qkd_err,
        "kljn_errors": kljn_err,
        "discarded_rounds": discarded,
        "flagged_rounds": flagged,
        "gamma": GAMMA_2KM,
        "wall_time_s": 0.0002 if protocol is Protocol.BB84 else 0.01,
        "effective_throughput_bps": throughput,
    }


BUFFERED_COUNTS = {  # rounds_executed=9000 in 9 cycles of 1000, distance_km=2.0, seed=609
    # (protocol, ideal): (qkd_bits, kljn_bits, qkd_errors, kljn_errors, discarded,
    #                     flagged, effective_throughput_bps, burst_throughput_measured_bps)
    (Protocol.P1, True): (41, 0, 0, 0, 8959, 0, 671.2991678098383, 34236.25755830175),
    (Protocol.P1, False): (42, 0, 1, 0, 8565, 393, 687.6723182442247, 35071.28823045546),
    (Protocol.P2, True): (41, 4509, 0, 0, 4491, 0, 98906.59328545688, 5044236.257558301),
    (Protocol.P2, False): (42, 4228, 1, 112, 4379, 393, 92800.9620785928, 4732849.0660082325),
}
BURST_MODEL_BPS = {Protocol.P1: 34151.843105942884, Protocol.P2: 5034151.843105943}


@pytest.mark.parametrize(
    "protocol, ideal",
    list(BUFFERED_COUNTS),
    ids=lambda v: v.value if isinstance(v, Protocol) else ("ideal" if v else "sampled"),
)
def test_buffered_session_summary(protocol, ideal):
    stats = run_buffered_session(
        protocol, DEFAULT_OPTICAL, DEFAULT_KLJN, 2.0, 0.05, seed=609,
        mode=TimingMode.buffered(buffer_capacity=1_000, burst_block=1_000),
        ideal_classification=ideal,
    )
    (qkd, kljn, qkd_err, kljn_err, discarded, flagged, throughput,
     burst_measured) = BUFFERED_COUNTS[protocol, ideal]
    assert stats.to_dict() == {
        "protocol": protocol.value,
        "timing": "buffered",
        "distance_km": 2.0,
        "seed": 609,
        "rounds_executed": 9_000,
        "qkd_bits": qkd,
        "kljn_bits": kljn,
        "qkd_errors": qkd_err,
        "kljn_errors": kljn_err,
        "discarded_rounds": discarded,
        "flagged_rounds": flagged,
        "gamma": GAMMA_2KM,
        "wall_time_s": 0.0459,
        "effective_throughput_bps": throughput,
        "cycles": 9,
        "burst_throughput_model_bps": BURST_MODEL_BPS[protocol],
        "burst_throughput_measured_bps": burst_measured,
    }
    assert list(stats.to_dict()) == [
        "protocol", "timing", "distance_km", "seed", "rounds_executed", "qkd_bits",
        "kljn_bits", "qkd_errors", "kljn_errors", "discarded_rounds", "flagged_rounds",
        "gamma", "wall_time_s", "effective_throughput_bps", "cycles",
        "burst_throughput_model_bps", "burst_throughput_measured_bps",
    ]
