"""Monte Carlo sessions in the two timing modes.

Gated mode runs one wire decision per optical pulse, so the pulse clock is
f_sys = min(f_qkd, R_kljn). Buffered mode (Protocols I/II only) alternates
two phases: the wire fills a buffer of basis-coordination bits at R_kljn
while the laser idles, then the laser drains the buffer in a burst at its
native rate. Time is simulated, never wall-clock. Both modes read every
rate (Q_mu, gamma, R_kljn, f_sys, the burst throughputs) from one
`rates.throughputs` call and differ only in their round count, clock and
draw. One core, `_session`, builds the channel, counts span by span in
`_run_spans`, holding one span's draws per thread, and builds the stats: a
gated session whose P1-P3 rounds sample the line draws with
`protocol.draw_block` (`random_inputs` then `draw_round`, round for round),
every other session i.i.d. with `protocol.draw_span`. Spans on a channel
without a line run on a thread per usable core, the rest on one thread.
`protocol.decide_block` applies the rules (`protocol._RULES`) to each span
and gives the yield moments.

Sessions are deterministic for a fixed seed; independent sessions should
use independent seeds (the generator is PCG64 via numpy's default_rng, and
`spawn_seeds` spawns child seeds of a seed or SeedSequence for workers).
"""

from __future__ import annotations

import collections
import enum
import os
import threading
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from . import rates
from .errors import ConfigError, DomainError, check_int, check_real, check_seed, check_type
from .kljn import variance_thresholds  # noqa: F401  perfbench's tracer still wraps this name here
from .physics import KljnLineParams, OpticalParams
from .physics import link_budget  # noqa: F401  perfbench's tracer still wraps this name here
from .protocol import ChannelModel, Protocol, check_protocol, decide_block, draw_block, draw_span
from .protocol import random_inputs  # noqa: F401  perfbench's tracer still wraps this name here
from .protocol import run_round  # noqa: F401  perfbench's tracer still wraps this name here

__all__ = [
    "Timing",
    "TimingMode",
    "SessionStats",
    "run_gated_session",
    "run_buffered_session",
    "estimate_per_pulse_yield",
    "per_pulse_yield_moments",
    "spawn_seeds",
]

DEFAULT_BURST_BLOCK = 10_000
DEFAULT_BUFFER_CAPACITY = 100_000
_SPAN = 1 << 16  # rounds per draw of a session's span loop


class Timing(enum.Enum):
    GATED = "gated"
    BUFFERED = "buffered"


@dataclass(frozen=True)
class TimingMode:
    """The buffer geometry of buffered operation (Protocols I/II only)."""

    buffer_capacity: int
    burst_block: int

    def __post_init__(self) -> None:
        for name in ("burst_block", "buffer_capacity"):
            value = getattr(self, name)
            try:
                check_int(value, name, ge=1)
            except DomainError:
                raise ConfigError(
                    f"buffered mode needs an integer {name} >= 1, got {value!r}") from None
        if self.burst_block > self.buffer_capacity:
            raise ConfigError(
                f"burst_block ({self.burst_block}) exceeds buffer capacity "
                f"({self.buffer_capacity})"
            )

    @staticmethod
    def buffered(
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        burst_block: int = DEFAULT_BURST_BLOCK,
    ) -> "TimingMode":
        return TimingMode(buffer_capacity, burst_block)

    def check_protocol(self, protocol: Protocol) -> None:
        """Buffered mode runs Protocols I/II only.

        Protocol III reveals bases and must run gated, in real time; BB84
        has no wire to fill a buffer with. A non-member is a DomainError.
        """
        check_protocol(protocol)
        if protocol not in (Protocol.P1, Protocol.P2):
            raise ConfigError(
                f"buffered mode supports p1/p2 only, got {protocol.value} (run it gated)"
            )


@dataclass(frozen=True)
class SessionStats:
    """Aggregates of one simulated session.

    `effective_throughput_bps` is secure bits per simulated second with the
    post-processing penalty applied, in expectation, to the optical-origin
    bits only: (qkd_bits * (1 - gamma) + kljn_bits) / wall_time_s.
    `discarded_rounds` counts pulses that yielded no key bit for ordinary
    reasons (basis mismatch, lost pulse); `flagged_rounds` counts rounds a
    party rejected because the classified level contradicted its own
    resistor (possible only when the channel carries a line).
    """

    protocol: str
    timing: str
    distance_km: float
    seed: int
    rounds_executed: int
    qkd_bits: int
    kljn_bits: int
    qkd_errors: int
    kljn_errors: int
    discarded_rounds: int
    flagged_rounds: int
    gamma: float
    wall_time_s: float
    effective_throughput_bps: float
    cycles: int | None = None
    burst_throughput_model_bps: float | None = None
    burst_throughput_measured_bps: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """Fields in declaration order; the buffered-only ones when set."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in out.items() if v is not None}


def spawn_seeds(seed: int | np.random.SeedSequence, n: int) -> list[np.random.SeedSequence]:
    """Deterministic independent child seeds; a SeedSequence spawns its own (nested workers)."""
    check_seed(seed)
    check_int(n, "n")
    root = seed if isinstance(seed, np.random.SeedSequence) else np.random.SeedSequence(seed)
    return root.spawn(n)


def _secure_bits(counts: dict[str, Any], gamma: float) -> float:
    return counts["qkd_bits"] * (1.0 - gamma) + counts["kljn_bits"]


def _count(mask: np.ndarray | None) -> int:
    return 0 if mask is None else int(np.count_nonzero(mask))


def _tally(decided: tuple, detected: np.ndarray, wrong: np.ndarray) -> dict[str, int]:
    """The six `SessionStats` counts of a block of decided rounds.

    `decided` is `decide_block`'s masks; `wrong` marks the detected pulses
    whose outcome differs from Alice's bit. A flagged round yields nothing.
    """
    flagged, keeps, wire, wire_wrong = decided
    qkd = keeps & detected
    n_qkd, n_flagged = _count(qkd), _count(flagged)
    n_yielded = n_qkd if wire is None else _count(qkd | wire)
    return {
        "qkd_bits": n_qkd,
        "kljn_bits": _count(wire),
        "qkd_errors": _count(qkd & wrong),
        "kljn_errors": _count(wire_wrong),
        "discarded_rounds": len(keeps) - n_yielded - n_flagged,
        "flagged_rounds": n_flagged,
    }


def _usable_cores() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _run_spans(draw, protocol: Protocol, channel: ChannelModel, seed, n_rounds: int) -> dict:
    """The summed `_tally` of n_rounds drawn by `draw`, `_SPAN` at a time.

    Spans on a channel with a line run in turn on one generator. Spans on a
    channel without one are `draw_span`'s (`draw_block` needs a line): n such
    rounds read 2n PCG64 words, no half left pending, so W = min(usable cores,
    spans) threads draw them one at a time each, on generator copies advanced
    (`PCG64.advance`) to word 2 * _SPAN * k for span k: one generator's counts.
    """
    starts = range(0, n_rounds, _SPAN)
    workers = min(_usable_cores() or 1, len(starts)) if channel.line is None else 1
    counts, errors = [], []  # one Counter per thread, summed at the end

    def run(w: int) -> None:  # worker w draws spans w, w + W, w + 2W, ...
        rng, tally = np.random.default_rng(seed), collections.Counter()
        try:
            for k, start in enumerate(starts[w::workers]):
                if workers > 1:  # advance drops a pending half, which gated spans carry over
                    rng.bit_generator.advance(2 * _SPAN * (w if k == 0 else workers - 1))
                *bases, detected, wrong, low, high = draw(
                    protocol, channel, rng, min(_SPAN, n_rounds - start))
                tally.update(_tally(decide_block(protocol, *bases, low, high), detected, wrong))
        except BaseException as exc:  # raised in the caller once every thread is done
            errors.append(exc)
        counts.append(tally)

    threads = [threading.Thread(target=run, args=(w,)) for w in range(1, workers)]
    for thread in threads:
        thread.start()
    run(0)
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    for tally in counts[1:]:
        counts[0].update(tally)
    return counts[0]


def _session(timing: Timing, protocol: Protocol, optical: OpticalParams, line: KljnLineParams,
             point: rates.RatePoint, seed: int, n_rounds: int, wall_time: float, ideal: bool,
             cycles: int | None = None, drain_time: float = 0.0) -> SessionStats:
    """The one session core: n_rounds drawn for `timing`, counted over wall_time.

    The channel carries `line` if the rounds sample it: unless `ideal`, and
    never for BB84, which has no wire. Gated sessions on such a channel draw
    with `draw_block`, every other session with `draw_span` (both module
    globals, read per call). A buffered caller's cycles and one cycle's drain
    time set its burst fields.
    """
    check_type(ideal, bool, "ideal_classification")  # a truthy string must not pick ideal
    sampled = not ideal and protocol is not Protocol.BB84
    channel = ChannelModel(point.q_mu, optical.e_opt, line if sampled else None)
    draw = draw_block if timing is Timing.GATED and sampled else draw_span
    counts = _run_spans(draw, protocol, channel, seed, n_rounds)
    secure_bits = _secure_bits(counts, point.gamma)
    burst = {} if cycles is None else {
        "cycles": cycles,
        "burst_throughput_model_bps": (
            point.t_burst_p2 if protocol is Protocol.P2 else point.t_burst_p1),
        "burst_throughput_measured_bps": secure_bits / (cycles * drain_time),
    }
    return SessionStats(
        protocol=protocol.value, timing=timing.value, distance_km=point.distance_km, seed=seed,
        rounds_executed=n_rounds, **counts, gamma=point.gamma, wall_time_s=wall_time,
        effective_throughput_bps=secure_bits / wall_time, **burst)


def _point(optical: OpticalParams, line: KljnLineParams, distance_km: float) -> rates.RatePoint:
    """`rates.throughputs` at a session's one distance (the closed form takes arrays)."""
    if isinstance(distance_km, np.ndarray):
        raise DomainError(f"a session's distance must be one number, not an array, "
                          f"got {distance_km!r}")
    return rates.throughputs(optical, line, distance_km)


def run_gated_session(
    protocol: Protocol,
    optical: OpticalParams,
    line: KljnLineParams,
    distance_km: float,
    n_rounds: int,
    seed: int,
    ideal_classification: bool = True,
) -> SessionStats:
    """Simulate n_rounds one-pulse-per-decision rounds at one distance.

    Rounds that sample the line are drawn by `protocol.draw_block`, exactly as
    `random_inputs` and `draw_round` would one by one; the rest i.i.d. by
    `protocol.draw_span`, as buffered rounds are. Either draws a span at a time
    and `protocol.decide_block` decides each span. Simulated wall time is
    n_rounds / f_sys (plain BB84 runs unthrottled at f_qkd; its distance must
    still give a wire rate). The distance is one number, not an array.
    """
    check_int(n_rounds, "n_rounds", ge=1)
    check_seed(seed)
    point = _point(optical, line, distance_km)
    wall_time = n_rounds / (optical.f_qkd if protocol is Protocol.BB84 else point.f_sys)
    return _session(Timing.GATED, protocol, optical, line, point, seed, n_rounds, wall_time,
                    ideal_classification)


def run_buffered_session(
    protocol: Protocol,
    optical: OpticalParams,
    line: KljnLineParams,
    distance_km: float,
    duration_s: float,
    seed: int,
    mode: TimingMode | None = None,
    ideal_classification: bool = True,
) -> SessionStats:
    """Simulate fill/drain cycles for as long as fits in duration_s.

    Each cycle accumulates one burst block of wire decisions at R_kljn with
    the laser idle, then fires one pulse per buffered decision at f_qkd.
    Runs whole cycles only, so the buffer is empty at the end and
    consumption can never outrun production. Rounds are i.i.d., so cycle
    edges do not matter: they are drawn in fixed spans, and the measured
    burst rate, the mean of the per-cycle ones, is secure bits per drain second.
    The distance is one number, not an array.
    """
    mode = TimingMode.buffered() if mode is None else mode
    check_type(mode, TimingMode, "mode")
    mode.check_protocol(protocol)
    check_real(duration_s, "duration_s", gt=0)
    check_seed(seed)

    point = _point(optical, line, distance_km)
    block = mode.burst_block
    fill_time = block / point.r_kljn
    drain_time = block / optical.f_qkd
    cycle_time = fill_time + drain_time
    whole_cycles = duration_s // cycle_time  # inf past the float range
    if whole_cycles >= -(-2**63 // block):  # n_rounds below 2**63, as check_int keeps gated ones
        raise DomainError(f"duration_s {duration_s} s holds 2**63 rounds or more")
    n_cycles = int(whole_cycles)
    if n_cycles < 1:
        raise ConfigError(f"duration {duration_s} s is shorter than one fill/drain cycle "
                          f"({cycle_time:.6g} s)")
    return _session(Timing.BUFFERED, protocol, optical, line, point, seed, n_cycles * block,
                    n_cycles * cycle_time, ideal_classification, n_cycles, drain_time)


def estimate_per_pulse_yield(stats: SessionStats) -> float:
    """Expected secure bits per optical pulse implied by session counts."""
    check_type(stats, SessionStats, "stats")
    return _secure_bits(stats.to_dict(), stats.gamma) / stats.rounds_executed


def per_pulse_yield_moments(
    protocol: Protocol, q_mu: float, gamma: float
) -> tuple[float, float]:
    """(mean, variance) of the one-round secure-bit yield.

    The four equally likely basis pairs go through `decide_block` under ideal
    classification: a kept optical bit is worth 1 - gamma and arrives with
    probability q_mu, a wire bit is worth 1. Used to express Monte Carlo
    deviations in sigma units.
    """
    check_real(q_mu, "q_mu", ge=0, le=1)
    check_real(gamma, "gamma", ge=0, le=1)
    alice_diag, bob_diag = np.array([[False, False, True, True], [False, True, False, True]])
    _, keeps, wire, _ = decide_block(protocol, alice_diag, bob_diag)
    no_click = np.zeros(4) if wire is None else wire.astype(float)
    yields = np.concatenate((no_click, no_click + (1.0 - gamma) * keeps))
    probs = np.repeat((0.25 * (1.0 - q_mu), 0.25 * q_mu), 4)
    mean = float(yields @ probs)
    return mean, float((yields - mean) ** 2 @ probs)
