"""Round engines: mappings, golden replays, security and yield properties."""

import numpy as np
import pytest

import hybridkd.protocol as protocol_module
from hybridkd.cli import bundled_fixture_text
from hybridkd.errors import DomainError
from hybridkd.kljn import LineObservation, NoiseLevel, ResistorChoice
from hybridkd.physics import KljnLineParams
from hybridkd.protocol import (
    Basis,
    ChannelModel,
    KeyOrigin,
    Party,
    Polarization,
    Protocol,
    RoundInputs,
    decide_block,
    extract_key,
    map_basis_to_resistor_cross,
    map_basis_to_resistor_same,
    measure_photon,
    parse_trace_fixture,
    random_inputs,
    render_trace,
    run_round,
)

RECT, DIAG = Basis.RECTILINEAR, Basis.DIAGONAL
RL, RH = ResistorChoice.LOW, ResistorChoice.HIGH

# Reference 14-round example: per-protocol expected key rows.
P1_KEY = (1, 1, 0, 0, 1, 0, 0, 1, 0)
P2_KLJN = (0, 0, 1, 1, 0, 1, 0, 1, 0)
P3_KEY = (1, 0, 1, 1, 0, 0, 1, 1, 0, 0, 0, 1, 1, 0)
P3_ORIGINS = "qkkqqqkqqqkqkq"

IDEAL = ChannelModel()  # detection 1, no flips, level from actual resistors


def fixture_inputs():
    return parse_trace_fixture(bundled_fixture_text())


def run_all(protocol, inputs, channel=IDEAL, seed=0):
    rng = np.random.default_rng(seed)
    return [run_round(protocol, i, channel, rng) for i in inputs]


class TestResistorMappings:
    def test_cross_mapping(self):
        assert map_basis_to_resistor_cross(Party.ALICE, RECT) is RL
        assert map_basis_to_resistor_cross(Party.ALICE, DIAG) is RH
        assert map_basis_to_resistor_cross(Party.BOB, RECT) is RH
        assert map_basis_to_resistor_cross(Party.BOB, DIAG) is RL

    def test_cross_equal_bases_always_mixed(self):
        for a_basis in Basis:
            for b_basis in Basis:
                ra = map_basis_to_resistor_cross(Party.ALICE, a_basis)
                rb = map_basis_to_resistor_cross(Party.BOB, b_basis)
                if a_basis is b_basis:
                    assert ra is not rb  # intermediate ground truth
                else:
                    assert ra is rb

    def test_same_mapping_and_levels(self):
        assert map_basis_to_resistor_same(RECT) is RL
        assert map_basis_to_resistor_same(DIAG) is RH
        # the four basis pairings
        rounds = run_all(
            Protocol.P3,
            [
                RoundInputs(RECT, 0, RECT, detected=True, forced_bob_bit=0),
                RoundInputs(RECT, 0, DIAG, detected=True, forced_bob_bit=0),
                RoundInputs(DIAG, 0, RECT, detected=True, forced_bob_bit=0),
                RoundInputs(DIAG, 0, DIAG, detected=True, forced_bob_bit=0),
            ],
        )
        levels = [r.noise_level for r in rounds]
        assert levels == [
            NoiseLevel.LOW,
            NoiseLevel.INTERMEDIATE,
            NoiseLevel.INTERMEDIATE,
            NoiseLevel.HIGH,
        ]


class TestPolarization:
    def test_encoding_table(self):
        assert Polarization.encode(RECT, 1) is Polarization.VERTICAL
        assert Polarization.encode(RECT, 0) is Polarization.HORIZONTAL
        assert Polarization.encode(DIAG, 1) is Polarization.DIAG_PLUS45
        assert Polarization.encode(DIAG, 0) is Polarization.DIAG_MINUS45

    def test_roundtrip(self):
        for pol in Polarization:
            assert Polarization.encode(pol.basis, pol.bit) is pol


class TestMeasurePhoton:
    def test_matched_noiseless(self):
        assert measure_photon(1, RECT, RECT, True, 0) == 1
        assert measure_photon(0, DIAG, DIAG, True, 0) == 0

    def test_lost_pulse(self):
        assert measure_photon(1, RECT, DIAG, False, 0) is None

    def test_mismatched_is_fair_coin(self):
        rng = np.random.default_rng(8)
        n = 10_000
        ones = sum(measure_photon(1, RECT, DIAG, True, rng) for _ in range(n))
        sigma = np.sqrt(0.25 * n)
        assert abs(ones - 0.5 * n) < 3 * sigma

    def test_flip_probability(self):
        rng = np.random.default_rng(9)
        n = 10_000
        flips = sum(
            measure_photon(1, RECT, RECT, True, rng, flip_prob=0.2) == 0 for _ in range(n)
        )
        sigma = np.sqrt(n * 0.2 * 0.8)
        assert abs(flips - 0.2 * n) < 3 * sigma


class TestGoldenReplay:
    def test_protocol1_sifted_key(self):
        ks = extract_key(run_all(Protocol.P1, fixture_inputs()))
        assert ks.bits == P1_KEY
        assert all(o is KeyOrigin.QKD for o in ks.origins)

    def test_protocol2_interleaved_stream(self):
        ks = extract_key(run_all(Protocol.P2, fixture_inputs()))
        assert len(ks) == 18
        qkd = tuple(b for b, o in zip(ks.bits, ks.origins) if o is KeyOrigin.QKD)
        klj = tuple(b for b, o in zip(ks.bits, ks.origins) if o is KeyOrigin.KLJN)
        assert qkd == P1_KEY
        assert klj == P2_KLJN
        # optical bit precedes wire bit inside each round
        assert ks.origins[0] is KeyOrigin.QKD and ks.origins[1] is KeyOrigin.KLJN

    def test_protocol3_full_key_and_origins(self):
        ks = extract_key(run_all(Protocol.P3, fixture_inputs()))
        assert ks.bits == P3_KEY
        assert "".join(o.value[0] for o in ks.origins) == P3_ORIGINS
        assert sum(o is KeyOrigin.QKD for o in ks.origins) == 9
        assert sum(o is KeyOrigin.KLJN for o in ks.origins) == 5

    def test_mismatched_basis_round_discarded_by_p1(self):
        rnd = run_all(Protocol.P1, fixture_inputs())[1]  # (+, x) column
        assert rnd.noise_level is NoiseLevel.LOW
        assert rnd.qkd_key_bit is None and rnd.kljn_key_bit is None

    def test_trace_matches_committed_goldens(self, golden_dir):
        for proto in (Protocol.P1, Protocol.P2, Protocol.P3):
            text = render_trace(run_all(proto, fixture_inputs()))
            golden = (golden_dir / f"trace_{proto.value}.txt").read_text()
            assert text == golden


class TestBb84:
    def test_matched_detected_no_error(self):
        rnd = run_round(Protocol.BB84, RoundInputs(RECT, 1, RECT, detected=True), IDEAL, 0)
        assert rnd.qkd_key_bit == 1
        assert rnd.alice_resistor is None and rnd.noise_level is None

    def test_mismatched_no_key(self):
        rnd = run_round(Protocol.BB84, RoundInputs(RECT, 1, DIAG, detected=True), IDEAL, 0)
        assert rnd.qkd_key_bit is None

    def test_lost_pulse_no_key(self):
        rnd = run_round(Protocol.BB84, RoundInputs(RECT, 1, RECT, detected=False), IDEAL, 0)
        assert rnd.qkd_key_bit is None and rnd.bob_bit is None

    def test_yield_is_half_detection_probability(self):
        q = 0.3
        channel = ChannelModel(detection_prob=q)
        rng = np.random.default_rng(10)
        n = 20_000
        kept = sum(
            run_round(Protocol.BB84, random_inputs(rng), channel, rng).qkd_key_bit is not None
            for _ in range(n)
        )
        p = 0.5 * q
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(kept - n * p) < 3 * sigma


class TestAgreementAndYield:
    @pytest.mark.parametrize("protocol", [Protocol.BB84, Protocol.P1, Protocol.P2])
    def test_qkd_bit_implies_matched_and_detected(self, protocol):
        # holds unconditionally under truth-level classification
        rng = np.random.default_rng(20)
        channel = ChannelModel(detection_prob=0.5)
        for _ in range(2_000):
            inp = random_inputs(rng)
            r = run_round(protocol, inp, channel, rng)
            if r.qkd_key_bit is not None:
                assert r.optical_detected
                assert inp.alice_basis is inp.bob_basis

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2, Protocol.P3])
    def test_alice_bob_streams_identical_when_noiseless(self, protocol):
        rng = np.random.default_rng(21)
        rounds = [run_round(protocol, random_inputs(rng), IDEAL, rng) for _ in range(10_000)]
        alice, bob = [], []
        for r in rounds:
            if r.qkd_key_bit is not None:
                alice.append(r.alice_bit)
                bob.append(r.bob_bit)
            if r.kljn_key_bit is not None:
                alice.append(r.kljn_key_bit)
                bob.append(r.bob_kljn_bit)
        assert alice == bob

    def test_yields_per_round(self):
        rng = np.random.default_rng(22)
        n = 30_000
        counts = {p: 0 for p in (Protocol.P1, Protocol.P2, Protocol.P3)}
        for _ in range(n):
            inp = random_inputs(rng)
            for proto in counts:
                r = run_round(proto, inp, IDEAL, rng)
                counts[proto] += (r.qkd_key_bit is not None) + (r.kljn_key_bit is not None)
            # ideal lossless: exactly one bit per interval
            r3 = run_round(Protocol.P3, inp, IDEAL, rng)
            assert (r3.qkd_key_bit is None) != (r3.kljn_key_bit is None)
        sigma = 3 * np.sqrt(0.25 * n)
        assert counts[Protocol.P3] == n
        assert abs(counts[Protocol.P1] - 0.5 * n) < sigma
        assert abs(counts[Protocol.P2] - 1.0 * n) < 2 * sigma


class TestEveProperties:
    def test_intermediate_hides_the_common_basis(self, line):
        # a threshold classifier on the variance estimate must not beat
        # guessing which common basis produced an intermediate round
        rng = np.random.default_rng(31)
        channel = ChannelModel(line=line, ideal_classification=False)
        n = 10_000
        estimates, labels = [], []
        while len(estimates) < n:
            basis = RECT if rng.integers(0, 2) == 0 else DIAG
            inp = RoundInputs(basis, int(rng.integers(0, 2)), basis)
            r = run_round(Protocol.P2, inp, channel, rng)
            if r.noise_level is NoiseLevel.INTERMEDIATE:
                estimates.append(r.observation.estimated_variance)
                labels.append(basis is DIAG)
        estimates = np.array(estimates)
        labels = np.array(labels)
        threshold = np.median(estimates)
        for guess in (estimates > threshold, estimates <= threshold):
            accuracy = np.mean(guess == labels)
            assert abs(accuracy - 0.5) < 3 * np.sqrt(0.25 / n)

    def test_p3_levels_reveal_common_basis_exactly(self):
        rng = np.random.default_rng(32)
        checked = 0
        for _ in range(4_000):
            inp = random_inputs(rng)
            r = run_round(Protocol.P3, inp, IDEAL, rng)
            if inp.alice_basis is inp.bob_basis:
                inferred = RECT if r.noise_level is NoiseLevel.LOW else DIAG
                assert r.noise_level in (NoiseLevel.LOW, NoiseLevel.HIGH)
                assert inferred is inp.alice_basis
                checked += 1
        assert checked > 1_000

    def test_round_record_exposes_no_observation_in_ideal_mode(self):
        rng = np.random.default_rng(33)
        r = run_round(Protocol.P1, random_inputs(rng), IDEAL, rng)
        assert r.observation is None


class TestFlaggedRounds:
    def test_flags_occur_and_carry_no_key_bits(self, line):
        # 2 samples per decision misclassifies often enough to hit the
        # impossible-level consistency check at both parties
        noisy = KljnLineParams(v=2e5, n_pairs=1000, n_samples=2, r_low=1e4, r_high=1e5)
        channel = ChannelModel(line=noisy, ideal_classification=False)
        rng = np.random.default_rng(41)
        flagged = 0
        for _ in range(3_000):
            r = run_round(Protocol.P1, random_inputs(rng), channel, rng)
            impossible = (
                (r.alice_resistor is RL and r.noise_level is NoiseLevel.HIGH)
                or (r.alice_resistor is RH and r.noise_level is NoiseLevel.LOW)
                or (r.bob_resistor is RL and r.noise_level is NoiseLevel.HIGH)
                or (r.bob_resistor is RH and r.noise_level is NoiseLevel.LOW)
            )
            assert r.flagged == impossible
            if r.flagged:
                flagged += 1
                assert r.qkd_key_bit is None and r.kljn_key_bit is None
        assert flagged > 0

    def test_never_flagged_under_ideal_classification(self):
        rng = np.random.default_rng(42)
        for proto in (Protocol.P1, Protocol.P2, Protocol.P3):
            assert not any(
                run_round(proto, random_inputs(rng), IDEAL, rng).flagged for _ in range(500)
            )


# (t_low, t_high) that band every positive variance estimate at one level
BAND_AT = {
    NoiseLevel.LOW: (np.inf, np.inf),
    NoiseLevel.INTERMEDIATE: (0.0, np.inf),
    NoiseLevel.HIGH: (-np.inf, -np.inf),
}


class TestBlockRule:
    """`decide_block` and `run_round` read `_RULES` the same way."""

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2, Protocol.P3],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("alice_basis", [RECT, DIAG], ids=["a+", "ax"])
    @pytest.mark.parametrize("bob_basis", [RECT, DIAG], ids=["b+", "bx"])
    @pytest.mark.parametrize("level", [None, *NoiseLevel],
                             ids=lambda v: "ideal" if v is None else v.value)
    def test_masks_match_round(self, monkeypatch, line, protocol, alice_basis, bob_basis,
                               level):
        ideal = level is None
        if not ideal:
            obs = LineObservation(np.ones(1), 1.0, level, level)
            monkeypatch.setattr(protocol_module, "sample_line", lambda *a, **k: obs)
        channel = ChannelModel(line=line, ideal_classification=ideal)
        inputs = RoundInputs(alice_basis, 1, bob_basis, detected=True, forced_bob_bit=1)
        r = run_round(protocol, inputs, channel, 0)
        if not ideal:
            assert r.noise_level is level
        masks = decide_block(
            protocol,
            np.array([alice_basis is DIAG]),
            np.array([bob_basis is DIAG]),
            channel,
            np.ones(1),
            BAND_AT.get(level),
        )
        flagged, keeps_optical, wire_bit, wire_bit_wrong = (
            m is not None and bool(m.any()) for m in masks
        )
        assert flagged == r.flagged
        assert keeps_optical == (r.qkd_key_bit is not None)
        assert wire_bit == (r.kljn_key_bit is not None)
        assert wire_bit_wrong == (wire_bit and r.bob_kljn_bit != r.kljn_key_bit)


class TestExtractKey:
    def test_empty(self):
        ks = extract_key([])
        assert len(ks) == 0 and ks.bits == () and ks.origins == ()

    def test_mixed_protocols_rejected(self):
        rng = np.random.default_rng(51)
        rounds = [
            run_round(Protocol.P1, random_inputs(rng), IDEAL, rng),
            run_round(Protocol.P2, random_inputs(rng), IDEAL, rng),
        ]
        with pytest.raises(DomainError):
            extract_key(rounds)


class TestFixtureParsing:
    def test_bundled_fixture_shape(self):
        inputs = fixture_inputs()
        assert len(inputs) == 14
        assert all(i.detected and i.forced_bob_bit in (0, 1) for i in inputs)

    def test_bad_field_count(self):
        with pytest.raises(DomainError, match="line 2"):
            parse_trace_fixture("+ 1 + 1\n+ 0 x\n")

    def test_bad_basis_names_line_and_column(self):
        with pytest.raises(DomainError, match=r"line 1, column 5"):
            parse_trace_fixture("+ 1 z 1\n")

    def test_bad_bit(self):
        with pytest.raises(DomainError, match=r"line 3, column 7"):
            parse_trace_fixture("+ 1 + 1\nx 0 x 0\n+ 1 + 2\n")

    def test_comments_and_blanks_ignored(self):
        inputs = parse_trace_fixture("# header\n\n+ 1 + 1  # trailing\n")
        assert len(inputs) == 1
