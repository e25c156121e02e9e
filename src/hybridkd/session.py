"""Monte Carlo sessions in the two timing modes.

Gated mode runs one wire decision per optical pulse, so the pulse clock is
f_sys = min(f_qkd, R_kljn) and every round goes through the round engine
in `protocol`. Buffered mode (Protocols I/II only) alternates two phases:
the wire fills a buffer of basis-coordination bits at R_kljn while the
laser idles, then the laser drains the buffer in a burst at its native
rate. Time is simulated, never wall-clock.

Sessions are deterministic for a fixed seed; independent sessions should
use independent seeds (the generator is PCG64 via numpy's default_rng, and
derived streams for parallel workers come from SeedSequence.spawn).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .errors import ConfigError, DomainError
from .kljn import variance_thresholds
from .physics import KljnLineParams, OpticalParams, kljn_bit_rate, link_budget
from .protocol import ChannelModel, Protocol, random_inputs, run_round
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
            if not self.buffer_capacity or not self.burst_block:
                raise ConfigError("buffered mode needs buffer_capacity and burst_block")
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
    buffer_occupancy_trace: tuple[tuple[float, int], ...] | None = None
    cycles: int | None = None
    kljn_bits_produced: int | None = None
    burst_throughput_model_bps: float | None = None
    burst_throughput_measured_bps: float | None = None

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {
            "protocol": self.protocol,
            "timing": self.timing,
            "distance_km": self.distance_km,
            "seed": self.seed,
            "rounds_executed": self.rounds_executed,
            "qkd_bits": self.qkd_bits,
            "kljn_bits": self.kljn_bits,
            "qkd_errors": self.qkd_errors,
            "kljn_errors": self.kljn_errors,
            "discarded_rounds": self.discarded_rounds,
            "flagged_rounds": self.flagged_rounds,
            "gamma": self.gamma,
            "wall_time_s": self.wall_time_s,
            "effective_throughput_bps": self.effective_throughput_bps,
        }
        if self.cycles is not None:
            out["cycles"] = self.cycles
            out["kljn_bits_produced"] = self.kljn_bits_produced
            out["burst_throughput_model_bps"] = self.burst_throughput_model_bps
            out["burst_throughput_measured_bps"] = self.burst_throughput_measured_bps
        return out


def spawn_seeds(seed: int, n: int) -> list[np.random.SeedSequence]:
    """Deterministic independent child seeds for parallel workers."""
    return np.random.SeedSequence(seed).spawn(n)


def _secure_bits(qkd_bits: int, kljn_bits: int, gamma: float) -> float:
    return qkd_bits * (1.0 - gamma) + kljn_bits


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
        detection_prob=budget.q_mu,
        flip_prob=optical.e_opt,
        line=line,
        temperature_scale=temperature_scale,
        ideal_classification=ideal_classification,
    )
    rng = np.random.default_rng(seed)

    qkd_bits = kljn_bits = qkd_errors = kljn_errors = 0
    discarded = flagged = 0
    for _ in range(n_rounds):
        rnd = run_round(protocol, random_inputs(rng), channel, rng)
        if rnd.flagged:
            flagged += 1
            continue
        got_bit = False
        if rnd.qkd_key_bit is not None:
            qkd_bits += 1
            got_bit = True
            if rnd.qkd_key_bit != rnd.alice_bit:
                qkd_errors += 1
        if rnd.kljn_key_bit is not None:
            kljn_bits += 1
            got_bit = True
            if rnd.bob_kljn_bit != rnd.kljn_key_bit:
                kljn_errors += 1
        if not got_bit:
            discarded += 1

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
    decision is consumed. Runs whole cycles only, so the buffer is empty at
    the end and consumption can never outrun production.
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

    rng = np.random.default_rng(seed)
    if not ideal_classification:
        t_low, t_high = variance_thresholds(line, temperature_scale)

    qkd_bits = kljn_bits = qkd_errors = kljn_errors = 0
    discarded = flagged = 0
    produced = 0
    trace: list[tuple[float, int]] = [(0.0, 0)]
    burst_rates: list[float] = []
    now = 0.0

    for _ in range(n_cycles):
        # Fill phase: wire decisions accumulate; under the cross mapping a
        # decision is "kept" when the classified level is intermediate,
        # meaning the committed bases match.
        alice_diag = rng.integers(0, 2, size=block).astype(bool)
        bob_diag = rng.integers(0, 2, size=block).astype(bool)
        truth_mid = alice_diag == bob_diag
        if ideal_classification:
            kept = truth_mid
            flags = np.zeros(block, dtype=bool)
        else:
            kept, flags = _sampled_cross_classification(
                rng, line, temperature_scale, alice_diag, bob_diag, t_low, t_high
            )
        produced += block
        now += fill_time
        trace.append((now, block))

        # Drain phase: one pulse per buffered decision at the native rate.
        detected = rng.random(block) < budget.q_mu
        keeps_detected = kept & detected
        n_qkd = int(np.count_nonzero(keeps_detected))
        flips = rng.random(block) < optical.e_opt
        n_qkd_err = int(np.count_nonzero(keeps_detected & flips))
        qkd_bits += n_qkd
        qkd_errors += n_qkd_err

        cycle_kljn = 0
        if protocol is Protocol.P2:
            cycle_kljn = int(np.count_nonzero(kept))
            kljn_bits += cycle_kljn
            kljn_errors += int(np.count_nonzero(kept & (alice_diag != bob_diag)))
            yielded = kept | keeps_detected
        else:
            yielded = keeps_detected
        n_flagged = int(np.count_nonzero(flags))
        flagged += n_flagged
        discarded += block - int(np.count_nonzero(yielded)) - n_flagged

        burst_secure = _secure_bits(n_qkd, cycle_kljn, budget.gamma)
        burst_rates.append(burst_secure / drain_time)
        now += drain_time
        trace.append((now, 0))

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
        discarded_rounds=discarded,
        flagged_rounds=flagged,
        gamma=budget.gamma,
        wall_time_s=wall_time,
        effective_throughput_bps=_secure_bits(qkd_bits, kljn_bits, budget.gamma) / wall_time,
        buffer_occupancy_trace=tuple(trace),
        cycles=n_cycles,
        kljn_bits_produced=produced,
        burst_throughput_model_bps=r_norm * optical.f_qkd,
        burst_throughput_measured_bps=float(np.mean(burst_rates)),
    )


def _sampled_cross_classification(
    rng: np.random.Generator,
    line: KljnLineParams,
    temperature_scale: float,
    alice_diag: np.ndarray,
    bob_diag: np.ndarray,
    t_low: float,
    t_high: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized level classification for a block of cross-mapped rounds.

    Returns (kept, flagged) masks: kept = classified intermediate and
    consistent with both parties' resistors.
    """
    r_low, r_high = line.r_low, line.r_high
    # Cross mapping: Alice low iff rectilinear, Bob low iff diagonal.
    ra = np.where(alice_diag, r_high, r_low)
    rb = np.where(bob_diag, r_low, r_high)
    sigma2 = temperature_scale * ra * rb / (ra + rb)
    noise = rng.normal(0.0, 1.0, size=(alice_diag.size, line.n_samples))
    estimates = sigma2 * np.mean(noise * noise, axis=1)
    cls_low = estimates < t_low
    cls_high = estimates > t_high
    cls_mid = ~(cls_low | cls_high)
    # Impossible levels: high while holding RL, low while holding RH.
    flag_a = np.where(ra == r_low, cls_high, cls_low)
    flag_b = np.where(rb == r_low, cls_high, cls_low)
    flags = flag_a | flag_b
    return cls_mid & ~flags, flags


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
