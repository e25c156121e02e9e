"""Monte Carlo sessions in the two timing modes.

Gated mode runs one wire decision per optical pulse, so the pulse clock is
f_sys = min(f_qkd, R_kljn). Buffered mode (Protocols I/II only) alternates
two phases: the wire fills a buffer of basis-coordination bits at R_kljn
while the laser idles, then the laser drains the buffer in a burst at its
native rate. Time is simulated, never wall-clock. Both modes read every
rate (Q_mu, gamma, R_kljn, f_sys, the burst throughputs) from one
`rates.throughputs` call, and only draw and count: a gated session draws
its rounds with `protocol.draw_block` (the draws of `random_inputs` and
`draw_round`, round for round), a buffered one in i.i.d. spans with
`protocol.draw_span`, and each hands its draws to `protocol.decide_block`,
the one place the rules (`protocol._RULES`) are applied. The analytic
yield moments come from `decide_block` too.

Sessions are deterministic for a fixed seed; independent sessions should
use independent seeds (the generator is PCG64 via numpy's default_rng, and
derived streams for parallel workers come from SeedSequence.spawn).
"""

from __future__ import annotations

import collections
import enum
from dataclasses import dataclass, fields
from typing import Any

import numpy as np

from . import rates
from .errors import ConfigError, DomainError, check_int, check_real, check_seed
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
_SPAN = 1 << 16  # rounds per `draw_span` call of a buffered session


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
    check_seed(seed)
    check_int(n, "n")
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
) -> SessionStats:
    """Simulate n_rounds one-pulse-per-decision rounds at one distance.

    `protocol.draw_block` draws every round, exactly as `random_inputs` and
    `draw_round` would one by one; `protocol.decide_block` then decides them
    all at once. Simulated wall time is n_rounds / f_sys (plain BB84 runs
    unthrottled at f_qkd; its distance must still give a wire rate).
    """
    check_int(n_rounds, "n_rounds", ge=1)
    check_seed(seed)
    point = rates.throughputs(optical, line, distance_km)
    channel = ChannelModel(point.q_mu, optical.e_opt, line, ideal_classification)
    alice_diag, bob_diag, detected, wrong, low, high = draw_block(protocol, channel, seed, n_rounds)
    counts = _tally(decide_block(protocol, alice_diag, bob_diag, low, high), detected, wrong)
    wall_time = n_rounds / (optical.f_qkd if protocol is Protocol.BB84 else point.f_sys)

    return SessionStats(
        protocol=protocol.value,
        timing=Timing.GATED.value,
        distance_km=distance_km,
        seed=seed,
        rounds_executed=n_rounds,
        **counts,
        gamma=point.gamma,
        wall_time_s=wall_time,
        effective_throughput_bps=_secure_bits(counts, point.gamma) / wall_time,
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
    mode.check_protocol(protocol)
    check_real(duration_s, "duration_s", gt=0)
    check_seed(seed)

    point = rates.throughputs(optical, line, distance_km)
    block = mode.burst_block
    fill_time = block / point.r_kljn
    drain_time = block / optical.f_qkd
    cycle_time = fill_time + drain_time
    n_cycles = int(duration_s // cycle_time)
    if n_cycles < 1:
        raise ConfigError(
            f"duration {duration_s} s is shorter than one fill/drain cycle "
            f"({cycle_time:.6g} s)"
        )

    channel = ChannelModel(point.q_mu, optical.e_opt, line, ideal_classification)
    rng = np.random.default_rng(seed)
    n_rounds = n_cycles * block
    counts: collections.Counter[str] = collections.Counter()
    for start in range(0, n_rounds, _SPAN):
        alice_diag, bob_diag, detected, wrong, low, high = draw_span(
            protocol, channel, rng, min(_SPAN, n_rounds - start))
        decided = decide_block(protocol, alice_diag, bob_diag, low, high)
        counts.update(_tally(decided, detected, wrong))

    secure_bits = _secure_bits(counts, point.gamma)
    wall_time = n_cycles * cycle_time

    return SessionStats(
        protocol=protocol.value,
        timing=Timing.BUFFERED.value,
        distance_km=distance_km,
        seed=seed,
        rounds_executed=n_rounds,
        **counts,
        gamma=point.gamma,
        wall_time_s=wall_time,
        effective_throughput_bps=secure_bits / wall_time,
        cycles=n_cycles,
        burst_throughput_model_bps=(
            point.t_burst_p2 if protocol is Protocol.P2 else point.t_burst_p1),
        burst_throughput_measured_bps=secure_bits / (n_cycles * drain_time),
    )


def estimate_per_pulse_yield(stats: SessionStats) -> float:
    """Expected secure bits per optical pulse implied by session counts."""
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
