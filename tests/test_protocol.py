"""Round engines: mappings, golden replays, security and yield properties."""

import math

import numpy as np
import pytest

import hybridkd.protocol as protocol_module
import hybridkd.session as session_module
from hybridkd.cli import bundled_fixture_text
from hybridkd.errors import DomainError
from hybridkd.kljn import (
    LineObservation,
    NoiseLevel,
    ResistorChoice,
    variance_thresholds,
)
from hybridkd.physics import KljnLineParams
from hybridkd.protocol import (
    Basis,
    ChannelModel,
    KeyOrigin,
    Polarization,
    Protocol,
    RoundInputs,
    decide_block,
    draw_block,
    draw_round,
    draw_span,
    extract_key,
    fair_bits,
    measure_photon,
    parse_trace_fixture,
    random_inputs,
    render_trace,
    run_round,
)

from outcome_oracle import P_3SIGMA, fit_p_value, oracle_round

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


# (Alice's, Bob's) resistor, each indexed by "basis is diagonal": cross for I/II, same for III
MAPPINGS = {
    Protocol.P1: ((RL, RH), (RH, RL)),
    Protocol.P2: ((RL, RH), (RH, RL)),
    Protocol.P3: ((RL, RH), (RL, RH)),
}
BASIS_PAIRS = [(a, b) for a in (RECT, DIAG) for b in (RECT, DIAG)]
MID = NoiseLevel.INTERMEDIATE
SAMPLED_LINE = ChannelModel(
    line=KljnLineParams(v=2e5, n_pairs=1000, n_samples=50, r_low=1e4, r_high=1e5),
)


def pair_rounds(protocol, channel=IDEAL):
    """One ledger round for each basis pair, in BASIS_PAIRS order."""
    return run_all(protocol, [RoundInputs(a, 0, b, detected=True, forced_bob_bit=0)
                              for a, b in BASIS_PAIRS], channel)


class TestResistorMappings:
    """The basis-to-resistor mapping, read from the public ledger."""

    @pytest.mark.parametrize("protocol", list(MAPPINGS), ids=lambda p: p.value)
    @pytest.mark.parametrize("channel", [IDEAL, SAMPLED_LINE], ids=["ideal", "sampled"])
    def test_ledger_resistors(self, protocol, channel):
        alice_map, bob_map = MAPPINGS[protocol]
        for (a, b), r in zip(BASIS_PAIRS, pair_rounds(protocol, channel)):
            assert (r.alice_resistor, r.bob_resistor) == (alice_map[a is DIAG], bob_map[b is DIAG])
            if channel is SAMPLED_LINE:  # the wire was driven by the same pair
                assert r.observation.ground_truth_level is r.ground_truth_level

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2], ids=lambda p: p.value)
    def test_cross_equal_bases_always_mixed(self, protocol):
        for (a, b), r in zip(BASIS_PAIRS, pair_rounds(protocol)):
            assert (r.alice_resistor is not r.bob_resistor) == (a is b)
            assert (r.ground_truth_level is MID) == (a is b)

    def test_same_mapping_levels(self):
        rounds = pair_rounds(Protocol.P3)
        assert [r.alice_resistor is r.bob_resistor for r in rounds] == [True, False, False, True]
        assert [r.noise_level for r in rounds] == [NoiseLevel.LOW, MID, MID, NoiseLevel.HIGH]


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

    def test_no_flip_draw_at_flip_prob_zero(self):
        # a matched outcome at flip_prob 0 is Alice's bit, with no uniform drawn
        gen = np.random.default_rng(3)
        before = gen.bit_generator.state
        assert measure_photon(1, DIAG, DIAG, True, gen) == 1
        assert gen.bit_generator.state == before

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

    def test_trace_of_an_undetected_round_shows_no_outcome_for_bob(self):
        rnd = run_round(Protocol.P2, RoundInputs(RECT, 1, DIAG, detected=False), IDEAL, 0)
        header, row = (line.split() for line in render_trace([rnd]).splitlines())
        cells = dict(zip(header, row))
        assert (cells["a_pol"], cells["b_pol"], cells["b_bit"]) == ("V", "-", "-")


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
        channel = ChannelModel(line=line)
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
        channel = ChannelModel(line=noisy)
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


class TestBlockRule:
    """`run_round`, deciding through `decide_block`, follows the scalar rule
    (`outcome_oracle.oracle_round`)."""

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
        channel = ChannelModel(line=None if ideal else line)
        inputs = RoundInputs(alice_basis, 1, bob_basis, detected=True, forced_bob_bit=1)
        r = run_round(protocol, inputs, channel, 0)
        if ideal:
            level = r.ground_truth_level
        assert r.noise_level is level
        assert (r.flagged, r.qkd_key_bit, r.kljn_key_bit, r.bob_kljn_bit) == oracle_round(
            protocol, r.alice_resistor, r.bob_resistor, level, 1
        )


class TestFairBits:
    @pytest.mark.parametrize("k", [1, 2, 3, 2500, 2501])
    def test_same_bits_and_stream_as_integers(self, k):
        # Interleaved with draws that take a whole 64-bit word, and with a
        # scalar bit, so a spare 32-bit half must carry across calls alike.
        fast, slow = np.random.default_rng(99), np.random.default_rng(99)
        why = f"fair_bits differs from integers(0, 2) on numpy {np.__version__}"
        for _ in range(4):
            expected = slow.integers(0, 2, size=k).astype(bool).tolist()
            assert fair_bits(fast, k).tolist() == expected, why
            assert fast.random() == slow.random(), why
            assert fair_bits(fast) == bool(slow.integers(0, 2)), why
            assert np.array_equal(fast.normal(0.0, 2.0, 7), slow.normal(0.0, 2.0, 7)), why
        assert fast.bit_generator.state == slow.bit_generator.state, why


class TestDrawRound:
    """`draw_round` on rounds that sample no line draws a click, then Bob's
    outcome as `measure_photon` draws it, and nothing else."""

    @staticmethod
    def reference(inputs, channel, gen):
        """(detected, Bob's outcome) of `draw_round` from the public draws, the reference."""
        detected = inputs.detected
        if detected is None:
            detected = bool(gen.random() < channel.detection_prob)
        bob_bit = inputs.forced_bob_bit if detected else None
        if detected and bob_bit is None:
            bob_bit = measure_photon(inputs.alice_bit, inputs.alice_basis, inputs.bob_basis,
                                     True, gen, channel.flip_prob)
        return detected, bob_bit

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64],
        ids=lambda b: b.__name__)
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare_half"])
    @pytest.mark.parametrize("protocol, ideal", [(Protocol.BB84, False), (Protocol.P2, True)],
                             ids=["bb84_sampled", "p2_ideal"])
    @pytest.mark.parametrize("detection_prob", [0.0, 0.009, 0.7, 1.0])
    @pytest.mark.parametrize("flip_prob", [0.0, 0.015, 1.0])
    def test_unsampled_rows_match_round_by_round(self, bit_generator, spare, protocol, ideal,
                                                 detection_prob, flip_prob):
        # Rounds that sample no line, at click and flip rates from none to all.
        channel = ChannelModel(detection_prob, flip_prob, None if ideal else TestDrawSpan.NOISY)
        for n in (1, 2, 5, 64, 65):
            fast, slow = (np.random.Generator(bit_generator(20 + n)) for _ in range(2))
            if spare:
                fair_bits(fast)
                fair_bits(slow)
            for _ in range(n):
                detected, bob_bit, obs = draw_round(protocol, random_inputs(fast), channel, fast)
                assert obs is None
                assert (detected, bob_bit) == self.reference(random_inputs(slow), channel, slow)
            # the pending flag and `uinteger`, stale or not, as the rounds leave them
            assert TestDrawSpan.same_state(fast.bit_generator.state, slow.bit_generator.state), n
            assert np.array_equal(fair_bits(fast, 3), fair_bits(slow, 3)), n
            assert np.array_equal(fast.bit_generator.random_raw(2),
                                  slow.bit_generator.random_raw(2)), n

    @pytest.mark.parametrize("protocol, ideal", [(Protocol.BB84, False), (Protocol.P2, True)],
                             ids=["bb84_sampled", "p2_ideal"])
    @pytest.mark.parametrize("bob_basis", [RECT, DIAG], ids=["matched", "mismatched"])
    @pytest.mark.parametrize("detected", [None, False, True])
    @pytest.mark.parametrize("forced", [None, 0, 1])
    def test_forced_inputs_skip_their_draws(self, protocol, ideal, bob_basis, detected, forced):
        # Golden traces fix a click and Bob's outcome; a fixed one draws nothing.
        channel = ChannelModel(0.7, 0.1, None if ideal else TestDrawSpan.NOISY)
        fast, slow = np.random.default_rng(17), np.random.default_rng(17)
        for alice_bit in (0, 1) * 10:
            inputs = RoundInputs(RECT, alice_bit, bob_basis, detected, forced)
            drawn = draw_round(protocol, inputs, channel, fast)
            assert drawn == (*self.reference(inputs, channel, slow), None)
            if detected is False:
                assert drawn[1] is None
            elif detected and forced is not None:
                assert drawn[1] == forced
        assert fast.bit_generator.state == slow.bit_generator.state


class TestDrawBlock:
    """`draw_block` makes the draws of `random_inputs` then `draw_round`, for
    P1-P3 rounds on a channel with a line."""

    CHUNK = protocol_module._CHUNK

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2, Protocol.P3],
                             ids=lambda p: p.value)
    @pytest.mark.parametrize("flip_prob", [0.0, 0.1])
    @pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3000])
    def test_rows_match_round_by_round_draws(self, protocol, flip_prob, n):
        noisy = KljnLineParams(v=2e5, n_pairs=1000, n_samples=3, r_low=1e4, r_high=1e5)
        channel = ChannelModel(0.7, flip_prob, noisy)
        fast, slow = np.random.default_rng(5), np.random.default_rng(5)
        masks = draw_block(protocol, channel, fast, n)
        assert np.column_stack(masks).tolist() == self.round_by_round(protocol, channel, slow, n)
        assert fast.bit_generator.state == slow.bit_generator.state

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P3], ids=lambda p: p.value)
    @pytest.mark.parametrize("n_samples", [3, 50])
    def test_estimates_equal_sample_line_bit_for_bit(self, monkeypatch, protocol, n_samples):
        # Wrapped, the banding sees each variance estimate, not just its band, so a
        # last-bit difference shows: another sum order, or another rounding
        # of a pair's standard deviation (all three are inexact here).
        seen, band_masks = [], protocol_module._band_masks
        monkeypatch.setattr(protocol_module, "_band_masks",
                            lambda estimates, line: seen.append(estimates.tolist())
                            or band_masks(estimates, line))
        line = KljnLineParams(v=2e5, n_pairs=1000, n_samples=n_samples, r_low=4.7e3, r_high=1e5)
        channel = ChannelModel(0.7, 0.1, line)
        n, slow = 2 * self.CHUNK + 3, np.random.default_rng(8)
        draw_block(protocol, channel, 8, n)
        estimates = []
        for _ in range(n):
            _, _, obs = draw_round(protocol, random_inputs(slow), channel, slow)
            estimates.append(obs.estimated_variance)
        assert seen == [estimates]  # three chunks, banded in one call

    @staticmethod
    def round_by_round(protocol, channel, gen, n):
        """`draw_block`'s masks from `random_inputs` then `draw_round`, the reference."""
        rows = []
        for _ in range(n):
            inputs = random_inputs(gen)
            detected, bob_bit, obs = draw_round(protocol, inputs, channel, gen)
            level = obs.classified_level
            rows.append([inputs.alice_basis is DIAG, inputs.bob_basis is DIAG, detected,
                         detected and bob_bit != inputs.alice_bit,
                         level is NoiseLevel.LOW, level is NoiseLevel.HIGH])
        return rows

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
        np.random.MT19937], ids=lambda b: b.__name__)
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare_half"])
    @pytest.mark.parametrize("n", [1, CHUNK + 1])
    def test_rows_match_round_by_round_on_every_bit_generator(self, bit_generator, spare, n):
        # A round's three bits, its scalar bit and its uniforms share 32-bit
        # halves with the rounds around it, and with a half pending on entry.
        channel = ChannelModel(0.7, 0.1, TestDrawSpan.NOISY)
        fast, slow = (np.random.Generator(bit_generator(13)) for _ in range(2))
        if spare:
            fair_bits(fast)
            fair_bits(slow)
        masks = draw_block(Protocol.P2, channel, fast, n)
        rows = self.round_by_round(Protocol.P2, channel, slow, n)
        assert np.column_stack(masks).tolist() == rows
        assert TestDrawSpan.same_state(fast.bit_generator.state, slow.bit_generator.state)
        assert np.array_equal(fair_bits(fast, 3), fair_bits(slow, 3))

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
        np.random.MT19937], ids=lambda b: b.__name__)
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare_half"])
    def test_two_calls_draw_what_one_call_of_their_sum_draws(self, bit_generator, spare):
        # A session draws its spans one call after another on one generator,
        # so a call must leave it, pending half included, where the next
        # call's rounds begin, also when a half is left pending between them.
        channel = ChannelModel(0.7, 0.1, TestDrawSpan.NOISY)
        pending = []
        for first in (1, 2, 5, 64, 65):
            split, whole = (np.random.Generator(bit_generator(40 + first)) for _ in range(2))
            if spare:
                fair_bits(split)
                fair_bits(whole)
            head = draw_block(Protocol.P2, channel, split, first)
            pending.append(split.bit_generator.state.get("has_uint32"))
            tail = draw_block(Protocol.P2, channel, split, 64)
            joined = draw_block(Protocol.P2, channel, whole, first + 64)
            for a, b, both in zip(head, tail, joined):
                assert np.array_equal(np.concatenate((a, b)), both), first
            assert TestDrawSpan.same_state(split.bit_generator.state,
                                           whole.bit_generator.state), first
            assert np.array_equal(fair_bits(split, 3), fair_bits(whole, 3)), first
        # MT19937's words are 32-bit: it never holds a half
        assert (1 in pending) == (bit_generator is not np.random.MT19937), pending

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
        np.random.MT19937], ids=lambda b: b.__name__)
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare_half"])
    @pytest.mark.parametrize("protocol, ideal", [
        (Protocol.BB84, False), (Protocol.BB84, True), (Protocol.P1, True), (Protocol.P2, True),
        (Protocol.P3, True)], ids=["bb84_sampled", "bb84_ideal", "p1_ideal", "p2_ideal",
                                   "p3_ideal"])
    def test_refused_rounds_leave_the_generator_to_draw_span(self, bit_generator, spare,
                                                             protocol, ideal):
        # Rounds that sample no line are `draw_span`'s, whose path depends on
        # a pending half: a refused call must draw nothing, that half included.
        channel = ChannelModel(0.7, 0.1, None if ideal else TestDrawSpan.NOISY)
        gen, twin = (np.random.Generator(bit_generator(31)) for _ in range(2))
        if spare:
            fair_bits(gen)
            fair_bits(twin)
        with pytest.raises(DomainError, match="P1-P3 rounds on a channel with a line"):
            draw_block(protocol, channel, gen, 5)
        assert TestDrawSpan.same_state(gen.bit_generator.state, twin.bit_generator.state)
        masks, expected = (draw_span(protocol, channel, g, 5) for g in (gen, twin))
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(masks, expected))
        assert TestDrawSpan.same_state(gen.bit_generator.state, twin.bit_generator.state)


class TestDrawSpan:
    """`draw_span` draws `draw_block`'s masks from the same distribution."""

    NOISY = KljnLineParams(v=2e5, n_pairs=1000, n_samples=3, r_low=1e4, r_high=1e5)
    SPAN = session_module._SPAN

    @pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    @pytest.mark.parametrize("n", [1, 1000, SPAN, SPAN + 1])
    def test_masks_shape_subset_and_seed(self, protocol, ideal, n):
        channel = ChannelModel(0.7, 0.1, None if ideal else self.NOISY)
        masks = draw_span(protocol, channel, 3, n)
        *drawn, low, high = masks
        sampled = protocol is not Protocol.BB84 and not ideal
        assert (low is not None) == sampled and (high is not None) == sampled
        for mask in drawn + ([low, high] if sampled else []):
            assert mask.dtype == bool and mask.shape == (n,)
        detected, wrong = drawn[2:]
        assert not (wrong & ~detected).any()
        if sampled:
            assert not (low & high).any()
        again = draw_span(protocol, channel, np.random.default_rng(3), n)
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(masks, again))

    @pytest.mark.parametrize("q", [0.0, 0.3, 1.0])
    @pytest.mark.parametrize("flip_prob", [0.0, 0.1, 0.9])
    def test_click_and_error_frequencies(self, q, flip_prob):
        # One outcome per basis pair: no click, a click read right, one read
        # wrong, at q, flip_prob on matched bases and 1/2 on mismatched ones.
        n = 40_000
        alice_diag, bob_diag, detected, wrong, _, _ = draw_span(
            Protocol.P2, ChannelModel(q, flip_prob), 11, n)
        codes = 3 * (2 * alice_diag + bob_diag) + detected + wrong
        counts = dict(zip(*np.unique(codes, return_counts=True)))
        probs = {}
        for pair in range(4):
            p_wrong = flip_prob if pair in (0, 3) else 0.5
            for outcome, p in enumerate((1 - q, q * (1 - p_wrong), q * p_wrong)):
                if p > 0:
                    probs[3 * pair + outcome] = p / 4
        assert fit_p_value(counts, probs) >= P_3SIGMA

    @staticmethod
    def fair_bits_span(protocol, channel, gen, n):
        """`draw_span` with its bases drawn by two `fair_bits` calls, the reference."""
        alice_diag, bob_diag = fair_bits(gen, n), fair_bits(gen, n)
        u, q = gen.random(n), channel.detection_prob
        matched = alice_diag == bob_diag
        wrong = (matched & (u < q * channel.flip_prob)) | (~matched & (u < 0.5 * q))
        low = high = None
        if channel.line is not None:
            line = channel.line
            variances = np.array(protocol_module._pair_variances(protocol, line))
            estimates = variances[2 * alice_diag + bob_diag] * gen.chisquare(line.n_samples, n)
            estimates /= line.n_samples
            t_low, t_high = variance_thresholds(line)
            low, high = estimates < t_low, estimates > t_high
        return alice_diag, bob_diag, u < q, wrong, low, high

    @staticmethod
    def live_state(gen):
        """The generator's state without a spare half that is no longer pending.

        With `has_uint32` at 0, `uinteger` is overwritten before it is next read.
        """
        state = gen.bit_generator.state
        if state.get("has_uint32") == 0:
            del state["uinteger"]
        return state

    @classmethod
    def same_state(cls, a, b):
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(cls.same_state(a[k], b[k]) for k in a)
        return np.array_equal(a, b)

    @pytest.mark.parametrize("bit_generator", [
        np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64,
        np.random.MT19937], ids=lambda b: b.__name__)
    @pytest.mark.parametrize("spare", [False, True], ids=["fresh", "spare_half"])
    @pytest.mark.parametrize("n", [1, 3, 1000, SPAN + 1])
    @pytest.mark.parametrize("ideal", [True, False], ids=["ideal", "sampled"])
    def test_bases_equal_two_fair_bits_calls(self, bit_generator, spare, n, ideal):
        # Raw 32-bit halves stand in for `fair_bits` only where they are the
        # same bits; everywhere else `draw_span` must still draw these.
        channel = ChannelModel(0.7, 0.1, None if ideal else self.NOISY)
        gen, twin = (np.random.Generator(bit_generator(13)) for _ in range(2))
        if spare:
            fair_bits(gen)
            fair_bits(twin)
        masks = draw_span(Protocol.P2, channel, gen, n)
        expected = self.fair_bits_span(Protocol.P2, channel, twin, n)
        assert all(a is b is None or np.array_equal(a, b) for a, b in zip(masks, expected))
        assert self.same_state(self.live_state(gen), self.live_state(twin))
        assert np.array_equal(fair_bits(gen, 3), fair_bits(twin, 3))
        assert np.array_equal(gen.bit_generator.random_raw(2), twin.bit_generator.random_raw(2))

    @pytest.mark.parametrize("protocol", [Protocol.P1, Protocol.P2], ids=lambda p: p.value)
    @pytest.mark.parametrize("n", [1, 127, SPAN, SPAN + 1])
    def test_ideal_span_reads_two_words_a_round(self, protocol, n):
        # A buffered session's threads start span k at word 2 * SPAN * k of
        # the seed's PCG64 by `advance`, so n ideal rounds must read exactly
        # 2n words and leave no half pending.
        gen, jumped = np.random.default_rng(21), np.random.default_rng(21)
        draw_span(protocol, ChannelModel(0.7, 0.1), gen, n)
        jumped.bit_generator.advance(2 * n)
        assert gen.bit_generator.state["has_uint32"] == 0
        assert self.same_state(self.live_state(gen), self.live_state(jumped))
        assert gen.random() == jumped.random()


@pytest.mark.parametrize("draw", [draw_block, draw_span], ids=lambda draw: draw.__name__)
@pytest.mark.parametrize("protocol", list(Protocol), ids=lambda p: p.value)
def test_low_and_high_exactly_when_the_channel_has_a_line(draw, protocol):
    # BB84 has no wire to sample, whatever the channel carries. `draw_block`
    # draws only rounds that sample the line and refuses the others.
    for line in (TestDrawSpan.NOISY, None):
        channel = ChannelModel(0.7, 0.1, line)
        if protocol is not Protocol.BB84 and line is not None:
            *_, low, high = draw(protocol, channel, 3, 40)
            assert low.dtype == high.dtype == bool and low.shape == high.shape == (40,)
        elif draw is draw_span:
            assert draw(protocol, channel, 3, 40)[4:] == (None, None)
        else:
            shown = f"protocol {protocol.value} with{'out' * (line is None)} a line"
            with pytest.raises(DomainError, match=f"P1-P3 rounds on a channel with a line, "
                                                  f"got {shown}"):
                draw(protocol, channel, 3, 40)


class TestRoundCounts:
    """`draw_block` and `draw_span` take a whole number of rounds, none included."""

    CHANNEL = ChannelModel(0.5, 0.1, TestDrawSpan.NOISY)

    @pytest.mark.parametrize("draw", [draw_block, draw_span], ids=lambda f: f.__name__)
    @pytest.mark.parametrize("n", [-1, 2.5, math.nan], ids=["negative", "fraction", "nan"])
    def test_bad_count_names_n_rounds(self, draw, n):
        with pytest.raises(DomainError, match="n_rounds"):
            draw(Protocol.P2, self.CHANNEL, 0, n)

    @pytest.mark.parametrize("draw", [draw_block, draw_span], ids=lambda f: f.__name__)
    def test_zero_rounds_give_empty_masks(self, draw):
        masks = draw(Protocol.P2, self.CHANNEL, 0, 0)
        assert all(mask.dtype == bool and mask.shape == (0,) for mask in masks)

    def test_zero_block_rounds_draw_nothing(self):
        # Zero rounds give empty masks and leave a pending half pending.
        gen = np.random.default_rng(6)
        fair_bits(gen)
        before = gen.bit_generator.state
        assert all(mask.shape == (0,) for mask in draw_block(Protocol.P2, self.CHANNEL, gen, 0))
        assert gen.bit_generator.state == before


class TestDecideBlockMasks:
    """`decide_block` takes bool ndarrays of `alice_diag`'s shape, and names
    the first mask that is not one."""

    MASK = np.array([True, False, True])
    BAD = {"list": [True, False, True], "int": np.array([1, 0, 1]), "short": MASK[:1],
           "none": None}

    # low or high alone as None is the pairing error, in test_errors.py's table
    @pytest.mark.parametrize("name, kind", [
        (name, kind) for name in ("alice_diag", "bob_diag", "low", "high")
        for kind in ("list", "int", "short", "none")
        if kind != "none" or name in ("alice_diag", "bob_diag")])
    def test_bad_mask_is_named(self, name, kind):
        masks = dict.fromkeys(("alice_diag", "bob_diag", "low", "high"), self.MASK)
        masks[name] = self.BAD[kind]
        # a short alice_diag sets the shape, so bob_diag is the first to differ
        named = "bob_diag" if (name, kind) == ("alice_diag", "short") else name
        with pytest.raises(DomainError, match=f"bool ndarrays of one shape, got {named}: "):
            decide_block(Protocol.P3, *masks.values())


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
