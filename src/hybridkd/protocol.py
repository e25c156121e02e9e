"""One round engine for baseline BB84 and the three wire-assisted protocols.

One round is one optical transmission interval paired with one decision
interval on the wire. `run_round(protocol, inputs, channel, rng)` plays a
round of any protocol. BB84 has no wire and sifts by public basis
comparison. The wire protocols differ from one another only in the three
entries of their rule in `_RULES`:

  Protocol I   cross mapping (Alice +/x -> RL/RH, Bob +/x -> RH/RL).
               Matching bases put mixed resistors on the wire, so the
               intermediate level marks exactly the rounds classical BB84
               would keep after public sifting. The optical bit is kept on
               intermediate + detected rounds; no public discussion needed.
  Protocol II  as Protocol I, plus the hidden common basis itself is worth
               one key bit per intermediate round: (+/+) -> 0, (x/x) -> 1.
  Protocol III same mapping for both parties (+/x -> RL/RH). Low/high
               levels reveal the common basis and the optical bit is kept;
               the intermediate level yields a wire bit from the resistor
               ordering: (+/x) -> 0, (x/+) -> 1. One bit every interval in
               the lossless limit, at the price of disclosing the common
               basis to the wire.

`draw_round` makes a round's random draws and `decide_block`, the only
place the rules are applied, decides a block of drawn rounds as masks;
`run_round` is the two on one row; `draw_block` draws rounds exactly as
`random_inputs` and `draw_round` would, `draw_span` i.i.d. an array at a time.
Rounds are pure given a generator; golden traces can force the outcomes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kljn import (LineObservation, NoiseLevel, ResistorChoice, check_temperature_scale,
                   ground_truth_level, line_variance, sample_line, variance_thresholds)
from .physics import KljnLineParams

__all__ = [
    "Basis",
    "Polarization",
    "Party",
    "Protocol",
    "RoundInputs",
    "ChannelModel",
    "ProtocolRound",
    "KeyOrigin",
    "KeyStream",
    "map_basis_to_resistor_cross",
    "map_basis_to_resistor_same",
    "measure_photon",
    "draw_round",
    "draw_block",
    "draw_span",
    "fair_bits",
    "run_round",
    "decide_block",
    "extract_key",
    "random_inputs",
    "render_trace",
    "parse_trace_fixture",
    "TRACE_HEADER",
]


class Basis(enum.Enum):
    """Polarization basis: rectilinear (+) or diagonal (x)."""

    RECTILINEAR = "+"
    DIAGONAL = "x"


class Polarization(enum.Enum):
    """Photon polarization; encodes one bit within one basis."""

    VERTICAL = "V"        # rectilinear, bit 1
    HORIZONTAL = "H"      # rectilinear, bit 0
    DIAG_PLUS45 = "+45"   # diagonal, bit 1
    DIAG_MINUS45 = "-45"  # diagonal, bit 0

    @property
    def basis(self) -> Basis:
        if self in (Polarization.VERTICAL, Polarization.HORIZONTAL):
            return Basis.RECTILINEAR
        return Basis.DIAGONAL

    @property
    def bit(self) -> int:
        return 1 if self in (Polarization.VERTICAL, Polarization.DIAG_PLUS45) else 0

    @staticmethod
    def encode(basis: Basis, bit: int) -> "Polarization":
        if basis is Basis.RECTILINEAR:
            return Polarization.VERTICAL if bit else Polarization.HORIZONTAL
        return Polarization.DIAG_PLUS45 if bit else Polarization.DIAG_MINUS45


class Party(enum.Enum):
    ALICE = "alice"
    BOB = "bob"


class Protocol(enum.Enum):
    BB84 = "bb84"
    P1 = "p1"
    P2 = "p2"
    P3 = "p3"


def _resistor(basis: Basis, for_rect: ResistorChoice) -> ResistorChoice:
    if basis is Basis.RECTILINEAR:
        return for_rect
    return ResistorChoice.HIGH if for_rect is ResistorChoice.LOW else ResistorChoice.LOW


def map_basis_to_resistor_cross(party: Party, basis: Basis) -> ResistorChoice:
    """Cross mapping (Protocols I/II): Alice +/x -> RL/RH, Bob +/x -> RH/RL.

    Equal bases therefore always produce a mixed resistor pair, i.e. the
    intermediate noise level, which is the only level the wire keeps secret.
    """
    for_rect = ResistorChoice.LOW if party is Party.ALICE else _RULES[Protocol.P1].bob_rect
    return _resistor(basis, for_rect)


def map_basis_to_resistor_same(basis: Basis) -> ResistorChoice:
    """Shared mapping (Protocol III) for both parties: +/x -> RL/RH."""
    return _resistor(basis, _RULES[Protocol.P3].bob_rect)


@dataclass(frozen=True)
class RoundInputs:
    """Per-round choices of the two parties, plus optional forced outcomes.

    `detected` and `forced_bob_bit` exist for golden-trace replay, where a
    recorded table of rounds fixes Bob's outcome for mismatched bases; leaving
    them None lets the channel model and generator decide.
    """

    alice_basis: Basis
    alice_bit: int
    bob_basis: Basis
    detected: bool | None = None
    forced_bob_bit: int | None = None


@dataclass(frozen=True)
class ChannelModel:
    """Stochastic channel knobs shared by every protocol's rounds.

    detection_prob:  probability an optical pulse yields a click (the
                     analytic per-pulse gain when simulating a link).
    flip_prob:       matched-basis bit-flip probability (misalignment);
                     dark-count errors are an analytic-model concern and do
                     not enter the round simulation.
    ideal_classification: if True the wire level is read off the actual
                     resistor pair; if False, N noise samples are drawn and
                     classified, so misclassification can occur.
    """

    detection_prob: float = 1.0
    flip_prob: float = 0.0
    line: KljnLineParams | None = None
    temperature_scale: float = 1.0
    ideal_classification: bool = True

    def __post_init__(self) -> None:
        if not 0.0 <= self.detection_prob <= 1.0:
            raise DomainError(f"detection_prob must be in [0, 1], got {self.detection_prob}")
        if not 0.0 <= self.flip_prob <= 1.0:
            raise DomainError(f"flip_prob must be in [0, 1], got {self.flip_prob}")
        check_temperature_scale(self.temperature_scale)
        if not self.ideal_classification and self.line is None:
            raise DomainError("sampled classification requires line parameters")


class KeyOrigin(enum.Enum):
    QKD = "qkd"
    KLJN = "kljn"


@dataclass(frozen=True)
class ProtocolRound:
    """Joint ledger of one transmission interval.

    This is the record available to Alice and Bob together; the
    eavesdropper's view of a round is only the classified noise level (see
    `kljn.eve_observe`). `kljn_key_bit` is Alice's derivation and is the
    reference stream; `bob_kljn_bit` differs from it only on misclassified
    rounds and exists for error accounting.
    """

    protocol: Protocol
    alice_basis: Basis
    alice_bit: int
    bob_basis: Basis
    alice_resistor: ResistorChoice | None
    bob_resistor: ResistorChoice | None
    noise_level: NoiseLevel | None
    ground_truth_level: NoiseLevel | None
    optical_detected: bool
    bob_bit: int | None
    qkd_key_bit: int | None
    kljn_key_bit: int | None
    bob_kljn_bit: int | None = None
    flagged: bool = False
    observation: LineObservation | None = None


@dataclass(frozen=True)
class KeyStream:
    """Ordered key bits with their origin subsystem."""

    bits: tuple[int, ...]
    origins: tuple[KeyOrigin, ...]

    def __post_init__(self) -> None:
        if len(self.bits) != len(self.origins):
            raise DomainError("bits and origins must have equal length")

    def __len__(self) -> int:
        return len(self.bits)


def measure_photon(
    alice_bit: int,
    alice_basis: Basis,
    bob_basis: Basis,
    detected: bool,
    rng: np.random.Generator | int,
    flip_prob: float = 0.0,
) -> int | None:
    """Bob's measurement outcome for one pulse.

    No click -> None. Matched bases -> Alice's bit, flipped with
    probability `flip_prob`. Mismatched bases -> uniformly random bit.
    """
    if not detected:
        return None
    gen = np.random.default_rng(rng)
    if alice_basis is bob_basis:
        if flip_prob > 0.0 and gen.random() < flip_prob:
            return 1 - alice_bit
        return alice_bit
    return int(fair_bits(gen))


def fair_bits(gen: np.random.Generator, size: int | None = None) -> np.ndarray | bool:
    """Fair coin flips, bit for bit `gen.integers(0, 2, size)` as booleans.

    Each takes the same 32-bit half of a generator word (a spare half carries
    to the next call): Lemire's bounded-integer method returns its top bit.
    """
    return gen.random(size, dtype=np.float32) >= 0.5


@dataclass(frozen=True)
class _WireRule:
    """What sets one wire-assisted protocol apart from the others.

    bob_rect:       Bob's resistor for the rectilinear basis (Alice's is
                    always RL); his diagonal resistor is the other one.
    optical_levels: classified levels at which a detected pulse keeps its
                    optical bit.
    mid_wire_bit:   whether an intermediate round credits a wire bit.
    """

    bob_rect: ResistorChoice
    optical_levels: tuple[NoiseLevel, ...]
    mid_wire_bit: bool


_RULES = {
    Protocol.P1: _WireRule(ResistorChoice.HIGH, (NoiseLevel.INTERMEDIATE,), False),
    Protocol.P2: _WireRule(ResistorChoice.HIGH, (NoiseLevel.INTERMEDIATE,), True),
    Protocol.P3: _WireRule(ResistorChoice.LOW, (NoiseLevel.LOW, NoiseLevel.HIGH), True),
}


def _resistors(protocol: Protocol, inputs: RoundInputs) -> tuple[ResistorChoice, ResistorChoice]:
    bob_rect = _RULES[protocol].bob_rect
    return _resistor(inputs.alice_basis, ResistorChoice.LOW), _resistor(inputs.bob_basis, bob_rect)


def draw_round(
    protocol: Protocol,
    inputs: RoundInputs,
    channel: ChannelModel,
    rng: np.random.Generator | int,
) -> tuple[bool, int | None, LineObservation | None]:
    """(detected, Bob's outcome, line observation), drawn in that order.

    Forced inputs skip their draws; only wire protocols under sampled
    classification sample the line.
    """
    gen = np.random.default_rng(rng)
    detected = inputs.detected
    if detected is None:
        detected = bool(gen.random() < channel.detection_prob)
    bob_bit = inputs.forced_bob_bit if detected else None
    if detected and bob_bit is None:
        bob_bit = measure_photon(
            inputs.alice_bit, inputs.alice_basis, inputs.bob_basis, True, gen, channel.flip_prob
        )
    if protocol is Protocol.BB84 or channel.ideal_classification:
        return detected, bob_bit, None
    resistors = _resistors(protocol, inputs)
    return detected, bob_bit, sample_line(channel.line, *resistors, gen, channel.temperature_scale)


_CHUNK = 128  # rounds per vectorized step of `draw_block`


def _pair_variances(protocol: Protocol, line: KljnLineParams, scale: float) -> list[float]:
    """Line variance of each resistor pair, at 2 * (Alice diagonal) + (Bob diagonal)."""
    return [line_variance(line, *_resistors(protocol, RoundInputs(a, 0, b)), scale)
            for a in Basis for b in Basis]


def draw_block(protocol: Protocol, channel: ChannelModel, rng: np.random.Generator | int,
               n_rounds: int) -> tuple[np.ndarray | None, ...]:
    """n_rounds rounds drawn as `random_inputs` then `draw_round` would, as masks:

    Alice's and Bob's basis is diagonal, detected, Bob's outcome is wrong, and
    classified low and high (None unless the line is sampled, chunk by chunk).
    """
    gen = np.random.default_rng(rng)
    p_det, p_flip = channel.detection_prob, channel.flip_prob
    sampled = protocol is not Protocol.BB84 and not channel.ideal_classification
    flags = bytearray(4 * n_rounds)
    drawn = np.frombuffer(flags, dtype=bool).reshape(n_rounds, 4)
    low = high = None
    if sampled:
        line, scale = channel.line, channel.temperature_scale
        sigma = np.sqrt(_pair_variances(protocol, line, scale))
        t_low, t_high = variance_thresholds(line, scale)
        noise = np.empty((_CHUNK, line.n_samples))
        low, high = np.empty(n_rounds, dtype=bool), np.empty(n_rounds, dtype=bool)
    for start in range(0, n_rounds, _CHUNK):
        stop = min(start + _CHUNK, n_rounds)
        for i in range(start, stop):
            a_diag, a_bit, b_diag = fair_bits(gen, 3).tolist()
            detected, wrong = gen.random() < p_det, False
            if detected:
                if a_diag == b_diag:
                    wrong = p_flip > 0.0 and gen.random() < p_flip
                else:
                    wrong = fair_bits(gen) != a_bit
            j = 4 * i
            flags[j], flags[j + 1], flags[j + 2], flags[j + 3] = a_diag, b_diag, detected, wrong
            if sampled:
                gen.standard_normal(out=noise[i - start])
        if sampled:
            # sample_line's mean of squares of normal(0, sigma, N), bit for bit:
            # sigma times the same normals, and numpy's pairwise sum (not BLAS).
            block = noise[:stop - start]
            block *= sigma[2 * drawn[start:stop, 0] + drawn[start:stop, 1]][:, None]
            block *= block
            estimates = np.add.reduce(block, axis=1) / line.n_samples
            low[start:stop], high[start:stop] = estimates < t_low, estimates > t_high
    return (*drawn.T, low, high)


def draw_span(protocol: Protocol, channel: ChannelModel, rng: np.random.Generator | int,
              n_rounds: int) -> tuple[np.ndarray | None, ...]:
    """n_rounds i.i.d. rounds as `draw_block`'s masks: its law, not its stream.

    One uniform u per round decides the click (u < q) and, given one, Bob's
    error (u/q is then uniform): below q * flip_prob on matched bases, q / 2
    on mismatched ones. A sampled variance estimate is the pair's variance
    times chisquare(N) / N, the law of the mean square of N zero-mean normals.
    """
    gen = np.random.default_rng(rng)
    alice_diag, bob_diag = fair_bits(gen, n_rounds), fair_bits(gen, n_rounds)
    u, q = gen.random(n_rounds), channel.detection_prob
    matched = alice_diag == bob_diag
    wrong = (matched & (u < q * channel.flip_prob)) | (~matched & (u < 0.5 * q))
    low = high = None
    if protocol is not Protocol.BB84 and not channel.ideal_classification:
        line, scale = channel.line, channel.temperature_scale
        variances = np.array(_pair_variances(protocol, line, scale))
        estimates = variances[alice_diag * np.uint8(2) + bob_diag]
        estimates *= gen.chisquare(line.n_samples, n_rounds)
        estimates /= line.n_samples
        t_low, t_high = variance_thresholds(line, scale)
        low, high = estimates < t_low, estimates > t_high
    return alice_diag, bob_diag, u < q, wrong, low, high


def run_round(
    protocol: Protocol,
    inputs: RoundInputs,
    channel: ChannelModel,
    rng: np.random.Generator | int,
) -> ProtocolRound:
    """Play one round: `draw_round`, then `decide_block` on one row.

    The level is `sample_line`'s classification, or the resistor pair's.
    """
    detected, bob_bit, obs = draw_round(protocol, inputs, channel, rng)
    alice_diag = inputs.alice_basis is Basis.DIAGONAL
    alice_res = bob_res = level = truth = low = high = None
    if protocol is not Protocol.BB84:
        alice_res, bob_res = _resistors(protocol, inputs)
        level = truth = ground_truth_level(alice_res, bob_res)
        if obs is not None:
            level = obs.classified_level
            low, high = np.array([level is NoiseLevel.LOW]), np.array([level is NoiseLevel.HIGH])
    decided = decide_block(
        protocol, np.array([alice_diag]), np.array([inputs.bob_basis is Basis.DIAGONAL]), low, high
    )
    flagged, keeps, wire, wire_wrong = (m is not None and bool(m[0]) for m in decided)
    return ProtocolRound(
        protocol=protocol,
        alice_basis=inputs.alice_basis,
        alice_bit=inputs.alice_bit,
        bob_basis=inputs.bob_basis,
        alice_resistor=alice_res,
        bob_resistor=bob_res,
        noise_level=level,
        ground_truth_level=truth,
        optical_detected=detected,
        bob_bit=bob_bit,
        qkd_key_bit=bob_bit if keeps else None,  # None for a lost pulse
        kljn_key_bit=int(alice_diag) if wire else None,
        bob_kljn_bit=int(alice_diag != wire_wrong) if wire else None,
        flagged=flagged,
        observation=obs,
    )


def decide_block(
    protocol: Protocol,
    alice_diag: np.ndarray,
    bob_diag: np.ndarray,
    low: np.ndarray | None = None,
    high: np.ndarray | None = None,
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None, np.ndarray | None]:
    """Every protocol's rule over a block of drawn rounds, as masks.

    `alice_diag`/`bob_diag` are True for a diagonal basis; `low`/`high` mark
    rounds classified at an outer level (None: ideal classification).
    Returns (flagged, keeps_optical, wire_bit, wire_bit_wrong); a detected
    pulse keeps its optical bit on a `keeps_optical` round. A mask the rule
    never sets is None, so that small blocks pay for no empty mask.
    """
    if protocol is Protocol.BB84:
        return None, alice_diag == bob_diag, None, None
    rule = _RULES[protocol]
    # Cross mapping: matching bases make a mixed pair; shared: differing ones.
    cross = rule.bob_rect is ResistorChoice.HIGH
    mixed = alice_diag == bob_diag if cross else alice_diag != bob_diag
    mid, flagged = mixed, None
    if low is not None:
        mid = ~(low | high)
        # Holding RH (Alice: diagonal) rules out a low level, RL a high one; a
        # mixed pair rules out both. Masks, not np.where: 10x faster on bools.
        flagged = (low & (mixed | alice_diag)) | (high & (mixed | ~alice_diag))
    # Only an outer level can be flagged.
    if NoiseLevel.INTERMEDIATE in rule.optical_levels:
        keeps = mid
    else:
        keeps = ~mid if flagged is None else ~mid & ~flagged
    # Alice's wire bit is 1 when she holds RH (her diagonal basis), Bob's
    # when he holds RL; the two agree exactly on a mixed pair.
    wire = mid if rule.mid_wire_bit else None
    return flagged, keeps, wire, None if wire is None else wire & ~mixed


def extract_key(rounds: list[ProtocolRound]) -> KeyStream:
    """Concatenate per-round key bits, optical bit before wire bit.

    All rounds must come from the same protocol.
    """
    protocols = {r.protocol for r in rounds}
    if len(protocols) > 1:
        raise DomainError(f"rounds mix protocols: {sorted(p.value for p in protocols)}")
    bits: list[int] = []
    origins: list[KeyOrigin] = []
    for r in rounds:
        if r.qkd_key_bit is not None:
            bits.append(r.qkd_key_bit)
            origins.append(KeyOrigin.QKD)
        if r.kljn_key_bit is not None:
            bits.append(r.kljn_key_bit)
            origins.append(KeyOrigin.KLJN)
    return KeyStream(bits=tuple(bits), origins=tuple(origins))


def random_inputs(rng: np.random.Generator | int) -> RoundInputs:
    """Uniform independent basis and bit choices for one round."""
    draws = fair_bits(np.random.default_rng(rng), 3)
    return RoundInputs(
        alice_basis=Basis.DIAGONAL if draws[0] else Basis.RECTILINEAR,
        alice_bit=int(draws[1]),
        bob_basis=Basis.DIAGONAL if draws[2] else Basis.RECTILINEAR,
    )


# --- line-oriented trace format -------------------------------------------
#
# One row per round. Columns (whitespace-aligned, header mandatory):
#   round    1-based index
#   a_basis / a_bit / a_pol   Alice's basis (+ or x), bit, polarization
#   b_basis / b_pol / b_bit   Bob's basis, received polarization, outcome
#   a_res / b_res             connected resistors (RL / RH), "-" for BB84
#   level                     classified noise level (low / mid / high)
#   qkd / kljn                per-round key bits, "-" when absent
#
# Fixture files for replaying recorded rounds carry four whitespace
# separated fields per line: a_basis a_bit b_basis b_bit ("#" comments).

TRACE_HEADER = (
    "round a_basis a_bit a_pol b_basis b_pol b_bit a_res b_res level qkd kljn"
)

_LEVEL_TEXT = {
    NoiseLevel.LOW: "low",
    NoiseLevel.INTERMEDIATE: "mid",
    NoiseLevel.HIGH: "high",
    None: "-",
}

_RES_TEXT = {ResistorChoice.LOW: "RL", ResistorChoice.HIGH: "RH", None: "-"}

_COL_WIDTHS = (5, 7, 5, 5, 7, 5, 5, 5, 5, 5, 3, 4)


def _trace_row(cells: tuple[str, ...]) -> str:
    return " ".join(c.ljust(w) for c, w in zip(cells, _COL_WIDTHS)).rstrip()


def render_trace(rounds: list[ProtocolRound]) -> str:
    """Render rounds in the line-oriented trace format (trailing newline)."""
    lines = [_trace_row(tuple(TRACE_HEADER.split()))]
    for i, r in enumerate(rounds, start=1):
        bob_pol = (
            Polarization.encode(r.bob_basis, r.bob_bit).value
            if r.bob_bit is not None
            else "-"
        )
        cells = (
            str(i),
            r.alice_basis.value,
            str(r.alice_bit),
            Polarization.encode(r.alice_basis, r.alice_bit).value,
            r.bob_basis.value,
            bob_pol,
            "-" if r.bob_bit is None else str(r.bob_bit),
            _RES_TEXT[r.alice_resistor],
            _RES_TEXT[r.bob_resistor],
            _LEVEL_TEXT[r.noise_level],
            "-" if r.qkd_key_bit is None else str(r.qkd_key_bit),
            "-" if r.kljn_key_bit is None else str(r.kljn_key_bit),
        )
        lines.append(_trace_row(cells))
    return "\n".join(lines) + "\n"


_BASIS_TOKEN = {"+": Basis.RECTILINEAR, "x": Basis.DIAGONAL, "X": Basis.DIAGONAL}
# (what, valid tokens) of each fixture field: a_basis a_bit b_basis b_bit
_FIXTURE_FIELDS = (("basis", _BASIS_TOKEN), ("bit", ("0", "1"))) * 2


def parse_trace_fixture(text: str) -> list[RoundInputs]:
    """Parse fixture lines of `a_basis a_bit b_basis b_bit` into inputs.

    Raises DomainError naming line and column on the first malformed token.
    Fixture rounds force detection and Bob's recorded outcome so reference
    tables replay without relying on generator luck.
    """
    rounds: list[RoundInputs] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        if not line.strip():
            continue
        words = list(re.finditer(r"\S+", line))
        if len(words) != 4:
            raise DomainError(f"fixture line {lineno}: expected 4 fields, got {len(words)}")
        for word, (what, valid) in zip(words, _FIXTURE_FIELDS):
            if word.group() not in valid:
                raise DomainError(f"fixture line {lineno}, column {word.start() + 1}: "
                                  f"invalid {what} {word.group()!r}")
        tokens = [word.group() for word in words]
        rounds.append(
            RoundInputs(
                alice_basis=_BASIS_TOKEN[tokens[0]],
                alice_bit=int(tokens[1]),
                bob_basis=_BASIS_TOKEN[tokens[2]],
                detected=True,
                forced_bob_bit=int(tokens[3]),
            )
        )
    return rounds
