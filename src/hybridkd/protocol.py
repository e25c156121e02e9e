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

`_resistors` alone turns bases into resistors, from the rule's `bob_rect`
(Bob's rectilinear resistor; Alice's is RL on + and RH on x under every
rule). A round's resistors are read from its `ProtocolRound`.

`draw_round` makes a round's random draws and `decide_block`, the only
place the rules are applied, decides a block of drawn rounds as masks;
`run_round` is the two on one row. `draw_block` draws P1-P3 rounds on a
channel with a line as `random_inputs` and `draw_round` would, one at a time,
and `draw_span` any rounds i.i.d., an array at a time; both band the line
noise through `kljn`, which owns that rule. `_bob_bit` alone draws a detected
round's outcome round by round.
Fair bits are the top bits of 32-bit generator halves (`fair_bits`); with no
spare half pending, `draw_span` reads them straight from raw 64-bit words.
Rounds are pure given a generator; golden traces can force the outcomes.
"""

from __future__ import annotations

import enum
import re
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, check_int, check_real, check_type, generator
from .kljn import (LineObservation, NoiseLevel, ResistorChoice, _band_masks, _mean_square,
                   ground_truth_level, line_variance, sample_line)
from .physics import KljnLineParams

__all__ = [
    "Basis",
    "Polarization",
    "Protocol",
    "check_protocol",
    "RoundInputs",
    "ChannelModel",
    "ProtocolRound",
    "KeyOrigin",
    "KeyStream",
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


class Protocol(enum.Enum):
    BB84 = "bb84"
    P1 = "p1"
    P2 = "p2"
    P3 = "p3"


def check_protocol(protocol) -> None:
    """DomainError naming `protocol` unless it is a `Protocol` member (its value is not)."""
    check_type(protocol, Protocol, "protocol")


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

    def __post_init__(self) -> None:
        _check_inputs(self.alice_basis, self.alice_bit, self.bob_basis, self.detected,
                      self.forced_bob_bit)


def _check_inputs(alice_basis, alice_bit, bob_basis, detected, forced_bob_bit=None) -> None:
    """DomainError naming the first input that is not a Basis, a 0/1 bit or None/True/False."""
    if detected is not None and not isinstance(detected, bool):
        raise DomainError(f"detected must be None, True or False, got {detected!r}")
    for name, basis in (("alice_basis", alice_basis), ("bob_basis", bob_basis)):
        check_type(basis, Basis, name)
    for name, bit in (("alice_bit", alice_bit), ("forced_bob_bit", forced_bob_bit)):
        if bit is not None or name == "alice_bit":
            check_int(bit, name)
            if bit > 1:
                raise DomainError(f"{name} must be 0 or 1, got {bit}")


@dataclass(frozen=True)
class ChannelModel:
    """Stochastic channel knobs shared by every protocol's rounds.

    detection_prob:  probability an optical pulse yields a click (the
                     analytic per-pulse gain when simulating a link).
    flip_prob:       matched-basis bit-flip probability (misalignment);
                     dark-count errors are an analytic-model concern and do
                     not enter the round simulation.
    line:            None: the wire level is the actual resistor pair's (ideal
                     classification). A `KljnLineParams`: N noise samples are
                     drawn and classified (sampled), so misclassification can occur.
    """

    detection_prob: float = 1.0
    flip_prob: float = 0.0
    line: KljnLineParams | None = None

    def __post_init__(self) -> None:
        check_real(self.detection_prob, "detection_prob", ge=0, le=1)
        check_real(self.flip_prob, "flip_prob", ge=0, le=1)
        if self.line is not None:
            check_type(self.line, KljnLineParams, "line")


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
        check_type(self.bits, tuple, "bits")
        check_type(self.origins, tuple, "origins")
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
    """Bob's measurement outcome for one pulse, drawn by `_bob_bit` on a click.

    No click -> None. Matched bases -> Alice's bit, flipped with probability
    `flip_prob` (no draw at 0). Mismatched bases -> a fair bit. The inputs are
    checked as `RoundInputs` checks them.
    """
    _check_inputs(alice_basis, alice_bit, bob_basis, detected)
    check_real(flip_prob, "flip_prob", ge=0, le=1)
    gen = generator(rng)
    return _bob_bit(gen, alice_bit, alice_basis is bob_basis, flip_prob) if detected else None


def _bob_bit(gen: np.random.Generator, alice_bit: int, matched: bool, flip_prob: float) -> int:
    """Bob's outcome of a detected pulse as `measure_photon` draws it, inputs unchecked."""
    if not matched:
        return int(_fair_bits(gen))
    if flip_prob > 0.0 and gen.random() < flip_prob:
        return 1 - alice_bit
    return alice_bit


def fair_bits(gen: np.random.Generator, size: int | None = None) -> np.ndarray | bool:
    """Fair coin flips, bit for bit `gen.integers(0, 2, size)` as booleans.

    Each takes the same 32-bit half of a generator word (a spare half carries
    to the next call): Lemire's bounded-integer method returns its top bit.
    Halves go low first, so with none pending 2k bits are the top bits of
    `random_raw(k)` as little-endian uint32 (not MT19937: its words are 32-bit).
    The dtype is the instance `_F32`: given the `np.float32` class, numpy
    resolves a dtype on every call, a large share of the cost of a few bits.
    """
    check_type(gen, np.random.Generator, "gen")
    if size is not None:
        check_int(size, "size")
    return _fair_bits(gen, size)


def _fair_bits(gen: np.random.Generator, size: int | None = None) -> np.ndarray | bool:
    """`fair_bits` unchecked, for the per-round and per-span draws."""
    return gen.random(size, dtype=_F32) >= 0.5


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


_BY_HIGH = (ResistorChoice.LOW, ResistorChoice.HIGH)


def _resistors(protocol: Protocol, alice_diag: bool, bob_diag: bool
               ) -> tuple[ResistorChoice, ResistorChoice]:
    """Alice's and Bob's resistors: the one place a basis picks a resistor.

    Alice connects RH on her diagonal basis; Bob connects his rule's `bob_rect`
    on his rectilinear basis and the other resistor on his diagonal one.
    """
    bob_high = bob_diag != (_RULES[protocol].bob_rect is ResistorChoice.HIGH)
    return _BY_HIGH[alice_diag], _BY_HIGH[bob_high]


def draw_round(
    protocol: Protocol,
    inputs: RoundInputs,
    channel: ChannelModel,
    rng: np.random.Generator | int,
) -> tuple[bool, int | None, LineObservation | None]:
    """(detected, Bob's outcome, line observation), drawn in that order.

    Forced inputs skip their draws; only wire protocols on a channel with a
    line sample it.
    """
    check_protocol(protocol)
    check_type(inputs, RoundInputs, "inputs")
    check_type(channel, ChannelModel, "channel")
    gen = generator(rng)
    detected = inputs.detected
    if detected is None:
        detected = bool(gen.random() < channel.detection_prob)
    bob_bit = inputs.forced_bob_bit if detected else None
    if detected and bob_bit is None:
        bob_bit = _bob_bit(gen, inputs.alice_bit, inputs.alice_basis is inputs.bob_basis,
                           channel.flip_prob)
    if protocol is Protocol.BB84 or channel.line is None:
        return detected, bob_bit, None
    resistors = _resistors(protocol, inputs.alice_basis is Basis.DIAGONAL,
                           inputs.bob_basis is Basis.DIAGONAL)
    return detected, bob_bit, sample_line(channel.line, *resistors, gen)


_CHUNK = 128  # rounds per vectorized step of `draw_block`'s loop
_F32 = np.dtype(np.float32)  # the dtype of `fair_bits`' draws, resolved once


def _pair_variances(protocol: Protocol, line: KljnLineParams) -> list[float]:
    """Line variance of each resistor pair, at 2 * (Alice diagonal) + (Bob diagonal)."""
    return [line_variance(line, *_resistors(protocol, a, b))
            for a in (False, True) for b in (False, True)]


def draw_block(protocol: Protocol, channel: ChannelModel, rng: np.random.Generator | int,
               n_rounds: int) -> tuple[np.ndarray, ...]:
    """n_rounds rounds drawn as `random_inputs` then `draw_round` would, as masks:

    Alice's and Bob's basis is diagonal, detected, Bob's outcome is wrong, and
    classified low and high. It draws P1-P3 rounds on a channel with a line only.

    Each round makes those calls' draws in their order, on numpy's fast paths:
    its three fair bits fill one reused float32 buffer (`fair_bits`' rule, read
    as Python floats), a detected round's outcome is `_bob_bit`'s, and its
    noise fills a row view of the chunk's array (views made once per call); all
    the call's estimates are banded after the loop. Sessions draw with it only
    the gated rounds that sample the line, a span at a time.
    """
    check_protocol(protocol)
    check_type(channel, ChannelModel, "channel")
    if protocol is Protocol.BB84 or channel.line is None:
        raise DomainError(f"draw_block draws P1-P3 rounds on a channel with a line, got "
                          f"protocol {protocol.value} with{'out' * (channel.line is None)} a line")
    check_int(n_rounds, "n_rounds")
    gen = generator(rng)
    p_det, p_flip, line = channel.detection_prob, channel.flip_prob, channel.line
    uniform, normals, bits = gen.random, gen.standard_normal, np.empty(3, dtype=_F32)
    flags = bytearray(4 * n_rounds)
    drawn = np.frombuffer(flags, dtype=bool).reshape(n_rounds, 4)
    sigma = np.sqrt(_pair_variances(protocol, line))
    noise = np.empty((_CHUNK, line.n_samples))
    rows = list(noise)
    estimates = np.empty(n_rounds)
    for start in range(0, n_rounds, _CHUNK):
        stop = min(start + _CHUNK, n_rounds)
        for i in range(start, stop):
            uniform(None, _F32, bits)  # size, dtype, out
            u0, u1, u2 = bits.tolist()
            a_diag, a_bit, b_diag = u0 >= 0.5, u1 >= 0.5, u2 >= 0.5
            detected = uniform() < p_det
            wrong = detected and _bob_bit(gen, a_bit, a_diag == b_diag, p_flip) != a_bit
            j = 4 * i
            flags[j], flags[j + 1], flags[j + 2], flags[j + 3] = a_diag, b_diag, detected, wrong
            normals(out=rows[i - start])
        # sample_line's normal(0, sigma, N) is sigma times the same normals
        block = noise[:stop - start]
        block *= sigma[2 * drawn[start:stop, 0] + drawn[start:stop, 1]][:, None]
        estimates[start:stop] = _mean_square(block)
    return (*drawn.T, *_band_masks(estimates, line))


def draw_span(protocol: Protocol, channel: ChannelModel, rng: np.random.Generator | int,
              n_rounds: int) -> tuple[np.ndarray | None, ...]:
    """n_rounds i.i.d. rounds as masks: `draw_block`'s law, low and high None if none is sampled.

    Alice's then Bob's bases are `fair_bits(gen, n_rounds)` twice, read at
    half the cost from n_rounds raw words when the generator flags no spare
    half pending on a little-endian host: the same bits and later draws.
    One uniform u per round decides the click (u < q) and, given one, Bob's
    error (u/q is then uniform): below q * flip_prob on matched bases, q / 2
    on mismatched ones. Given a line, a variance estimate is the pair's variance
    times chisquare(N) / N, the law of the mean square of N zero-mean normals.
    """
    check_protocol(protocol)
    check_type(channel, ChannelModel, "channel")
    check_int(n_rounds, "n_rounds")
    gen = generator(rng)
    if sys.byteorder == "little" and gen.bit_generator.state.get("has_uint32") == 0:
        halves = gen.bit_generator.random_raw(n_rounds).view(np.uint32) >= 1 << 31
        alice_diag, bob_diag = halves[:n_rounds], halves[n_rounds:]
    else:
        alice_diag, bob_diag = _fair_bits(gen, n_rounds), _fair_bits(gen, n_rounds)
    u, q = gen.random(n_rounds), channel.detection_prob
    matched = alice_diag == bob_diag
    wrong = (matched & (u < q * channel.flip_prob)) | (~matched & (u < 0.5 * q))
    low = high = None
    if protocol is not Protocol.BB84 and channel.line is not None:
        line = channel.line
        variances = np.array(_pair_variances(protocol, line))
        estimates = variances[alice_diag * np.uint8(2) + bob_diag]
        estimates *= gen.chisquare(line.n_samples, n_rounds)
        estimates /= line.n_samples
        low, high = _band_masks(estimates, line)
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
    alice_diag, bob_diag = inputs.alice_basis is Basis.DIAGONAL, inputs.bob_basis is Basis.DIAGONAL
    alice_res = bob_res = level = truth = low = high = None
    if protocol is not Protocol.BB84:
        alice_res, bob_res = _resistors(protocol, alice_diag, bob_diag)
        level = truth = ground_truth_level(alice_res, bob_res)
        if obs is not None:
            level = obs.classified_level
            low, high = np.array([level is NoiseLevel.LOW]), np.array([level is NoiseLevel.HIGH])
    decided = decide_block(protocol, np.array([alice_diag]), np.array([bob_diag]), low, high)
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
    rounds classified at an outer level (None: ideal classification). Each
    mask given is a bool ndarray of `alice_diag`'s shape, and `low` and `high`
    are given together or not at all.
    Returns (flagged, keeps_optical, wire_bit, wire_bit_wrong); a detected
    pulse keeps its optical bit on a `keeps_optical` round. A mask the rule
    never sets is None, so that small blocks pay for no empty mask.
    """
    check_protocol(protocol)
    if (low is None) != (high is None):
        missing, given = ("low", "high") if low is None else ("high", "low")
        raise DomainError(f"{missing} must be given with {given}, or neither")
    named = [("alice_diag", alice_diag), ("bob_diag", bob_diag)]
    if low is not None:
        named += [("low", low), ("high", high)]
    for name, mask in named:  # alice_diag is checked before its shape is read
        if not (isinstance(mask, np.ndarray) and mask.dtype == bool
                and mask.shape == alice_diag.shape):
            got = (f"{mask.dtype} ndarray of shape {mask.shape}"
                   if isinstance(mask, np.ndarray) else type(mask).__name__)
            raise DomainError(f"the masks must be bool ndarrays of one shape, got {name}: {got}")
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
    _check_rounds(rounds)
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
    draws = _fair_bits(generator(rng), 3)
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


def _trace_lines(rounds: Iterable[ProtocolRound]) -> Iterator[str]:
    """The trace format's lines, header first, each ending in a newline, as rounds arrive."""
    yield _trace_row(tuple(TRACE_HEADER.split())) + "\n"
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
        yield _trace_row(cells) + "\n"


def _check_rounds(rounds: list[ProtocolRound]) -> None:
    check_type(rounds, list, "rounds")
    for i, r in enumerate(rounds):
        check_type(r, ProtocolRound, f"rounds[{i}]")


def render_trace(rounds: list[ProtocolRound]) -> str:
    """Render rounds in the line-oriented trace format (trailing newline)."""
    _check_rounds(rounds)
    return "".join(_trace_lines(rounds))


_BASIS_TOKEN = {"+": Basis.RECTILINEAR, "x": Basis.DIAGONAL, "X": Basis.DIAGONAL}
# (what, valid tokens) of each fixture field: a_basis a_bit b_basis b_bit
_FIXTURE_FIELDS = (("basis", _BASIS_TOKEN), ("bit", ("0", "1"))) * 2


def parse_trace_fixture(text: str) -> list[RoundInputs]:
    """Parse fixture lines of `a_basis a_bit b_basis b_bit` into inputs.

    Raises DomainError naming line and column on the first malformed token.
    Fixture rounds force detection and Bob's recorded outcome so reference
    tables replay without relying on generator luck.
    """
    check_type(text, str, "text")
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
