"""Monte Carlo sessions in the two timing modes.

Gated mode runs one wire decision per optical pulse, so the pulse clock is
f_sys = min(f_qkd, R_kljn). Buffered mode (Protocols I/II only) alternates
two phases: the wire fills a buffer of basis-coordination bits at R_kljn
while the laser idles, then the laser drains the buffer in a burst at its
native rate. Time is simulated, never wall-clock. Both modes only draw and
count: a gated session draws its rounds with `protocol.draw_block` (the
draws of `random_inputs` and `draw_round`, round for round), a buffered one
in i.i.d. spans with `protocol.draw_span`, and each hands its draws to
`protocol.decide_block`, the one place the rules (`protocol._RULES`) are applied.

Sessions are deterministic for a fixed seed; independent sessions should
use independent seeds (the generator is PCG64 via numpy's default_rng, and
derived streams for parallel workers come from SeedSequence.spawn).
"""

from __future__ import annotations

import collections
import enum
import math
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .errors import ConfigError, DomainError
from .kljn import variance_thresholds  # noqa: F401  perfbench's tracer still wraps this name here
from .physics import KljnLineParams, OpticalParams, kljn_bit_rate
from .physics import link_budget  # perfbench's tracer wraps this name here
from .protocol import ChannelModel, Protocol, decide_block, draw_block, draw_span
from .protocol import random_inputs  # noqa: F401  perfbench's tracer still wraps this name here
from .protocol import run_round  # noqa: F401  perfbench's tracer still wraps this name here
from .rates import normalized_rates

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
_SPAN = 1 << 16  # rounds per `draw_span` call of a buffered session


class Timing(enum.Enum):
    GATED = "gated"
    BUFFERED = "buffered"


@dataclass(frozen=True)
class TimingMode:
    """Timing mode plus the buffer geometry used in buffered operation."""

    timing: Timing
    buffer_capacity: int | None = None
    burst_block: int | None = None

    def __post_init__(self) -> None:
        if self.timing is Timing.BUFFERED:
            for name in ("buffer_capacity", "burst_block"):
                value = getattr(self, name)
                if value is None or value < 1:
                    raise ConfigError(f"buffered mode needs {name} >= 1, got {value}")
            if self.burst_block > self.buffer_capacity:
                raise ConfigError(
                    f"burst_block ({self.burst_block}) exceeds buffer capacity "
                    f"({self.buffer_capacity})"
                )

    @staticmethod
    def gated() -> "TimingMode":
        return TimingMode(Timing.GATED)

    @staticmethod
    def buffered(
        buffer_capacity: int = DEFAULT_BUFFER_CAPACITY,
        burst_block: int = DEFAULT_BURST_BLOCK,
    ) -> "TimingMode":
        return TimingMode(Timing.BUFFERED, buffer_capacity, burst_block)

    def check_protocol(self, protocol: Protocol) -> None:
        """Buffered mode runs Protocols I/II only.

        Protocol III reveals bases and must run gated, in real time; BB84
        has no wire to fill a buffer with.
        """
        if self.timing is Timing.BUFFERED and protocol not in (Protocol.P1, Protocol.P2):
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
    resistor (possible only with sampled classification).
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


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Deterministic independent child seeds for parallel workers."""
    return np.random.SeedSequence(seed).spawn(n)


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


def run_gated_session(
    protocol: Protocol,
    optical: OpticalParams,
    line: KljnLineParams,
    distance_km: float,
    n_rounds: int,
    seed: int,
    ideal_classification: bool = True,
    temperature_scale: float = 1.0,
) -> SessionStats:
    """Simulate n_rounds one-pulse-per-decision rounds at one distance.

    `protocol.draw_block` draws every round, exactly as `random_inputs` and
    `draw_round` would one by one; `protocol.decide_block` then decides them
    all at once. Simulated wall time is n_rounds / f_sys (plain BB84 runs
    unthrottled at f_qkd).
    """
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds}")
    budget = link_budget(optical, distance_km)
    channel = ChannelModel(
        budget.q_mu, optical.e_opt, line, temperature_scale, ideal_classification
    )
    alice_diag, bob_diag, detected, wrong, low, high = draw_block(protocol, channel, seed, n_rounds)
    counts = _tally(decide_block(protocol, alice_diag, bob_diag, low, high), detected, wrong)

    if protocol is Protocol.BB84:
        f_clock = optical.f_qkd
    else:
        f_clock = min(optical.f_qkd, kljn_bit_rate(line, distance_km))
    wall_time = n_rounds / f_clock

    return SessionStats(
        protocol=protocol.value,
        timing=Timing.GATED.value,
        distance_km=distance_km,
        seed=seed,
        rounds_executed=n_rounds,
        **counts,
        gamma=budget.gamma,
        wall_time_s=wall_time,
        effective_throughput_bps=_secure_bits(counts, budget.gamma) / wall_time,
    )


def run_buffered_session(
    protocol: Protocol,
    optical: OpticalParams,
    line: KljnLineParams,
    distance_km: float,
    duration_s: float,
    seed: int,
    mode: TimingMode | None = None,
    ideal_classification: bool = True,
    temperature_scale: float = 1.0,
) -> SessionStats:
    """Simulate fill/drain cycles for as long as fits in duration_s.

    Each cycle accumulates one burst block of wire decisions at R_kljn with
    the laser idle, then fires one pulse per buffered decision at f_qkd.
    Runs whole cycles only, so the buffer is empty at the end and
    consumption can never outrun production. Rounds are i.i.d., so cycle
    edges do not matter: they are drawn in fixed spans, and the measured
    burst rate, the mean of the per-cycle ones, is secure bits per drain second.
    """
    mode = mode or TimingMode.buffered()
    if mode.timing is not Timing.BUFFERED:
        raise ConfigError("run_buffered_session requires a buffered TimingMode")
    mode.check_protocol(protocol)
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise DomainError(f"duration_s must be finite and > 0, got {duration_s}")

    budget = link_budget(optical, distance_km)
    r_kljn = kljn_bit_rate(line, distance_km)
    block = mode.burst_block
    fill_time = block / r_kljn
    drain_time = block / optical.f_qkd
    cycle_time = fill_time + drain_time
    n_cycles = int(duration_s // cycle_time)
    if n_cycles < 1:
        raise ConfigError(
            f"duration {duration_s} s is shorter than one fill/drain cycle "
            f"({cycle_time:.6g} s)"
        )

    channel = ChannelModel(
        budget.q_mu, optical.e_opt, line, temperature_scale, ideal_classification
    )
    rng = np.random.default_rng(seed)
    n_rounds = n_cycles * block
    counts: collections.Counter[str] = collections.Counter()
    for start in range(0, n_rounds, _SPAN):
        alice_diag, bob_diag, detected, wrong, low, high = draw_span(
            protocol, channel, rng, min(_SPAN, n_rounds - start))
        decided = decide_block(protocol, alice_diag, bob_diag, low, high)
        counts.update(_tally(decided, detected, wrong))

    secure_bits = _secure_bits(counts, budget.gamma)
    wall_time = n_cycles * cycle_time
    r_p1, r_p23 = normalized_rates(budget)
    r_norm = r_p23 if protocol is Protocol.P2 else r_p1

    return SessionStats(
        protocol=protocol.value,
        timing=Timing.BUFFERED.value,
        distance_km=distance_km,
        seed=seed,
        rounds_executed=n_rounds,
        **counts,
        gamma=budget.gamma,
        wall_time_s=wall_time,
        effective_throughput_bps=secure_bits / wall_time,
        cycles=n_cycles,
        burst_throughput_model_bps=r_norm * optical.f_qkd,
        burst_throughput_measured_bps=secure_bits / (n_cycles * drain_time),
    )


def estimate_per_pulse_yield(stats: SessionStats, n_rounds: int) -> float:
    """Expected secure bits per optical pulse implied by session counts."""
    if n_rounds <= 0:
        raise DomainError(f"n_rounds must be > 0, got {n_rounds}")
    return _secure_bits(stats.to_dict(), stats.gamma) / n_rounds


def per_pulse_yield_moments(
    protocol: Protocol, q_mu: float, gamma: float
) -> tuple[float, float]:
    """(mean, variance) of the one-round secure-bit yield.

    Derived from the round distribution under uniform bases, detection
    probability q_mu and ideal classification; the optical contribution is
    weighted by (1 - gamma). Used to express Monte Carlo deviations in
    sigma units.
    """
    w = 1.0 - gamma
    if protocol in (Protocol.BB84, Protocol.P1):
        p = 0.5 * q_mu
        mean = w * p
        var = w * w * p * (1.0 - p)
    elif protocol is Protocol.P2:
        # per round: 0 w.p. 1/2; 1 w.p. (1-q)/2; 1+w w.p. q/2
        mean = 0.5 * (1.0 + q_mu * w)
        second = 0.5 * (1.0 - q_mu) + 0.5 * q_mu * (1.0 + w) ** 2
        var = second - mean * mean
    elif protocol is Protocol.P3:
        # per round: 1 w.p. 1/2; w w.p. q/2; 0 w.p. (1-q)/2
        mean = 0.5 + 0.5 * q_mu * w
        second = 0.5 + 0.5 * q_mu * w * w
        var = second - mean * mean
    else:  # pragma: no cover
        raise DomainError(f"unknown protocol {protocol}")
    return mean, var
