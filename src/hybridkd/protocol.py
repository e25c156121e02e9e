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

Rounds are pure given an explicit random generator; golden-trace inputs
can force detection and Bob's recorded outcome so that reference example
rounds replay exactly. `decide_block` applies the same `_RULES` to a block
of drawn rounds as masks, for buffered sessions.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .kljn import (
    LineObservation,
    NoiseLevel,
    ResistorChoice,
    ground_truth_level,
    sample_line,
)
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
    return int(gen.integers(0, 2))


def _level_impossible_for(level: NoiseLevel, own_resistor: ResistorChoice) -> bool:
    # A party holding RL can never see a true high level (both resistors
    # would have to be RH), and symmetrically for RH/low.
    if own_resistor is ResistorChoice.LOW:
        return level is NoiseLevel.HIGH
    return level is NoiseLevel.LOW


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


def run_round(
    protocol: Protocol,
    inputs: RoundInputs,
    channel: ChannelModel,
    rng: np.random.Generator | int,
) -> ProtocolRound:
    """Play one round of `protocol`.

    Draws, in order: detection, Bob's outcome, then (wire protocols only)
    the line samples. BB84 sifts by the modelled public basis comparison.
    The wire protocols read their rule from `_RULES`; a round whose
    classified level contradicts either party's own resistor is flagged
    and yields nothing.
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
    alice_res = bob_res = level = truth = obs = None
    qkd_bit = alice_kljn = bob_kljn = None
    flagged = False
    if protocol is Protocol.BB84:
        if inputs.alice_basis is inputs.bob_basis:
            qkd_bit = bob_bit
    else:
        rule = _RULES[protocol]
        alice_res = _resistor(inputs.alice_basis, ResistorChoice.LOW)
        bob_res = _resistor(inputs.bob_basis, rule.bob_rect)
        level = truth = ground_truth_level(alice_res, bob_res)
        if not channel.ideal_classification:
            obs = sample_line(channel.line, alice_res, bob_res, gen, channel.temperature_scale)
            level = obs.classified_level
        flagged = _level_impossible_for(level, alice_res) or _level_impossible_for(level, bob_res)
        if not flagged:
            if level in rule.optical_levels:
                qkd_bit = bob_bit  # None for a lost pulse
            if level is NoiseLevel.INTERMEDIATE and rule.mid_wire_bit:
                # On a truly mixed pair Alice holds RH exactly when Bob
                # holds RL, and that is the bit; a misclassified round makes
                # the two sides disagree. Cross mapping (P2): the common
                # basis, (+/+) -> 0, (x/x) -> 1. Shared mapping (P3): the
                # ordering, (+/x) -> 0, (x/+) -> 1.
                alice_kljn = int(alice_res is ResistorChoice.HIGH)
                bob_kljn = int(bob_res is ResistorChoice.LOW)

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
        qkd_key_bit=qkd_bit,
        kljn_key_bit=alice_kljn,
        bob_kljn_bit=bob_kljn,
        flagged=flagged,
        observation=obs,
    )


def decide_block(
    protocol: Protocol,
    alice_diag: np.ndarray,
    bob_diag: np.ndarray,
    channel: ChannelModel,
    mean_squares: np.ndarray | None = None,
    thresholds: tuple[float, float] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`run_round`'s wire rule over a block of drawn rounds, as masks.

    `alice_diag`/`bob_diag` are True for a diagonal basis. Sampled
    classification bands each round's line variance times `mean_squares`
    (the mean square of its N unit-variance samples) at `thresholds`.
    Returns (flagged, keeps_optical, wire_bit, wire_bit_wrong); a mask the
    rule never sets is None, so that small blocks pay for no empty mask.
    """
    rule = _RULES[protocol]
    # Alice holds RH on the diagonal basis, Bob on the rectilinear one under
    # the cross mapping, so there matching bases make a mixed pair.
    cross = rule.bob_rect is ResistorChoice.HIGH
    mixed = alice_diag == bob_diag if cross else alice_diag != bob_diag
    mid, flagged = mixed, None
    if not channel.ideal_classification:
        line = channel.line
        bob_rh = ~bob_diag if cross else bob_diag
        ra = np.where(alice_diag, line.r_high, line.r_low)
        rb = np.where(bob_rh, line.r_high, line.r_low)
        estimates = channel.temperature_scale * ra * rb / (ra + rb) * mean_squares
        low, high = estimates < thresholds[0], estimates > thresholds[1]
        mid = ~(low | high)
        # Holding RH rules out a low level, holding RL a high one.
        flagged = np.where(alice_diag, low, high) | np.where(bob_rh, low, high)
    # Only an outer level can be flagged.
    if NoiseLevel.INTERMEDIATE in rule.optical_levels:
        keeps = mid
    else:
        keeps = ~mid if flagged is None else ~mid & ~flagged
    # Alice's wire bit (she holds RH) and Bob's (he holds RL) agree on a mixed pair.
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
    gen = np.random.default_rng(rng)
    draws = gen.integers(0, 2, size=3)
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
        tokens = line.split()
        if len(tokens) != 4:
            raise DomainError(
                f"fixture line {lineno}: expected 4 fields, got {len(tokens)}"
            )
        positions = _token_columns(line, tokens)

        def bad(idx: int, what: str) -> DomainError:
            return DomainError(
                f"fixture line {lineno}, column {positions[idx]}: {what} {tokens[idx]!r}"
            )

        if tokens[0] not in _BASIS_TOKEN:
            raise bad(0, "invalid basis")
        if tokens[1] not in ("0", "1"):
            raise bad(1, "invalid bit")
        if tokens[2] not in _BASIS_TOKEN:
            raise bad(2, "invalid basis")
        if tokens[3] not in ("0", "1"):
            raise bad(3, "invalid bit")
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


def _token_columns(line: str, tokens: list[str]) -> list[int]:
    cols = []
    pos = 0
    for tok in tokens:
        pos = line.index(tok, pos)
        cols.append(pos + 1)  # 1-based
        pos += len(tok)
    return cols
