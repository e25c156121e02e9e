"""Monte Carlo sessions in the two timing modes.

Gated mode runs one wire decision per optical pulse, so the pulse clock is
f_sys = min(f_qkd, R_kljn) and every round goes through the round engine
in `protocol`. Buffered mode (Protocols I/II only) alternates two phases:
the wire fills a buffer of basis-coordination bits at R_kljn while the
laser idles, then the laser drains the buffer in a burst at its native
rate. Time is simulated, never wall-clock. Both modes only draw and count:
the rules (`protocol._RULES`) are applied inside `protocol`, per round by
`run_round` when gated and per block by `decide_block` when buffered.

Sessions are deterministic for a fixed seed; independent sessions should
use independent seeds (the generator is PCG64 via numpy's default_rng, and
derived streams for parallel workers come from SeedSequence.spawn).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from .errors import ConfigError, DomainError
from .kljn import variance_thresholds
from .physics import KljnLineParams, OpticalParams, kljn_bit_rate, link_budget
from .protocol import ChannelModel, Protocol, decide_block, random_inputs, run_round
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
    kljn_bits_produced: int | None = None
    burst_throughput_model_bps: float | None = None
    burst_throughput_measured_bps: float | None = None

    def to_dict(self) -> dict[str, Any]:
        """Fields in declaration order; the buffered-only ones when set."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v for k, v in out.items() if v is not None}


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Deterministic independent child seeds for parallel workers."""
    return np.random.SeedSequence(seed).spawn(n)


def _secure_bits(qkd_bits: int, kljn_bits: int, gamma: float) -> float:
    return qkd_bits * (1.0 - gamma) + kljn_bits


def _count(mask: np.ndarray | None) -> int:
    return 0 if mask is None else int(np.count_nonzero(mask))


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

    Per-round logic is delegated to `protocol.run_round`. Simulated wall time
    is n_rounds / f_sys (plain BB84 runs unthrottled at f_qkd).
    """
    if n_rounds < 1:
        raise DomainError(f"n_rounds must be >= 1, got {n_rounds}")
    budget = link_budget(optical, distance_km)
    channel = ChannelModel(
        budget.q_mu, optical.e_opt, line, temperature_scale, ideal_classification
    )
    rng = np.random.default_rng(seed)

    qkd_bits = kljn_bits = qkd_errors = kljn_errors = 0
    discarded = flagged = 0
    for _ in range(n_rounds):
        rnd = run_round(protocol, random_inputs(rng), channel, rng)
        if rnd.flagged:
            flagged += 1
        elif rnd.qkd_key_bit is None and rnd.kljn_key_bit is None:
            discarded += 1
        else:
            if rnd.qkd_key_bit is not None:
                qkd_bits += 1
                qkd_errors += rnd.qkd_key_bit != rnd.alice_bit
            if rnd.kljn_key_bit is not None:
                kljn_bits += 1
                kljn_errors += rnd.bob_kljn_bit != rnd.kljn_key_bit

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
        qkd_bits=qkd_bits,
        kljn_bits=kljn_bits,
        qkd_errors=qkd_errors,
        kljn_errors=kljn_errors,
        discarded_rounds=discarded,
        flagged_rounds=flagged,
        gamma=budget.gamma,
        wall_time_s=wall_time,
        effective_throughput_bps=_secure_bits(qkd_bits, kljn_bits, budget.gamma) / wall_time,
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
    Basis-derived key bits (Protocol II) are credited when the buffered
    decision is consumed; `protocol.decide_block` decides each block. Runs
    whole cycles only, so the buffer is empty at the end and consumption
    can never outrun production.
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
    mean_squares = None
    thresholds = None if ideal_classification else variance_thresholds(line, temperature_scale)

    qkd_bits = kljn_bits = qkd_errors = kljn_errors = 0
    yielded = flagged = 0
    burst_rates: list[float] = []

    for _ in range(n_cycles):
        # Fill phase: one wire decision per buffered round.
        alice_diag = rng.integers(0, 2, size=block).astype(bool)
        bob_diag = rng.integers(0, 2, size=block).astype(bool)
        if not ideal_classification:
            noise = rng.normal(0.0, 1.0, size=(block, line.n_samples))
            mean_squares = np.mean(noise * noise, axis=1)
        flags, keeps, wire, wire_wrong = decide_block(
            protocol, alice_diag, bob_diag, channel, mean_squares, thresholds
        )

        # Drain phase: one pulse per buffered decision at the native rate.
        detected = rng.random(block) < channel.detection_prob
        keeps_detected = keeps & detected
        n_qkd = int(np.count_nonzero(keeps_detected))
        flips = rng.random(block) < channel.flip_prob
        qkd_bits += n_qkd
        qkd_errors += int(np.count_nonzero(keeps_detected & flips))
        n_kljn = _count(wire)
        kljn_bits += n_kljn
        kljn_errors += _count(wire_wrong)
        flagged += _count(flags)
        yielded += _count(keeps_detected if wire is None else wire | keeps_detected)
        burst_rates.append(_secure_bits(n_qkd, n_kljn, budget.gamma) / drain_time)

    wall_time = n_cycles * cycle_time
    r_p1, r_p23 = normalized_rates(budget)
    r_norm = r_p23 if protocol is Protocol.P2 else r_p1

    return SessionStats(
        protocol=protocol.value,
        timing=Timing.BUFFERED.value,
        distance_km=distance_km,
        seed=seed,
        rounds_executed=n_cycles * block,
        qkd_bits=qkd_bits,
        kljn_bits=kljn_bits,
        qkd_errors=qkd_errors,
        kljn_errors=kljn_errors,
        discarded_rounds=n_cycles * block - yielded - flagged,
        flagged_rounds=flagged,
        gamma=budget.gamma,
        wall_time_s=wall_time,
        effective_throughput_bps=_secure_bits(qkd_bits, kljn_bits, budget.gamma) / wall_time,
        cycles=n_cycles,
        kljn_bits_produced=n_cycles * block,
        burst_throughput_model_bps=r_norm * optical.f_qkd,
        burst_throughput_measured_bps=float(np.mean(burst_rates)),
    )


def estimate_per_pulse_yield(stats: SessionStats, n_rounds: int) -> float:
    """Expected secure bits per optical pulse implied by session counts."""
    if n_rounds <= 0:
        raise DomainError(f"n_rounds must be > 0, got {n_rounds}")
    return _secure_bits(stats.qkd_bits, stats.kljn_bits, stats.gamma) / n_rounds


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
