"""Sample-level simulation of the noise-based wire channel.

Each decision interval, Alice and Bob connect one of two resistors to the
shared line. The line voltage is zero-mean Gaussian noise whose variance is
proportional to the parallel combination of the two connected resistors
(Johnson noise in normalized units: Boltzmann constant, temperature and
bandwidth are folded into a single `temperature_scale` factor).

Both legitimate parties and the eavesdropper observe the same N samples;
the only statistic that matters is the estimated variance, classified into
three bands. The mixed selections (low/high and high/low) produce the same
variance, which is what hides the resistor ordering from the wire.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .physics import KljnLineParams

__all__ = [
    "ResistorChoice",
    "NoiseLevel",
    "LineObservation",
    "check_temperature_scale",
    "line_variance",
    "variance_thresholds",
    "classify_level",
    "sample_line",
    "eve_observe",
    "ground_truth_level",
]


class ResistorChoice(enum.Enum):
    """One of the two admissible resistor values."""

    LOW = "low"
    HIGH = "high"

    def ohms(self, line: KljnLineParams) -> float:
        return line.r_low if self is ResistorChoice.LOW else line.r_high


class NoiseLevel(enum.Enum):
    """Three-band classification of the line noise variance."""

    LOW = "low"
    INTERMEDIATE = "intermediate"
    HIGH = "high"


@dataclass(frozen=True)
class LineObservation:
    """Everything observable on the wire during one decision interval.

    Deliberately excludes who connected which resistor: this object is the
    eavesdropper-reachable surface, and it must carry no ordering
    information beyond what the physics leaks.
    """

    samples: np.ndarray = field(repr=False)
    estimated_variance: float
    classified_level: NoiseLevel
    ground_truth_level: NoiseLevel


def ground_truth_level(a: ResistorChoice, b: ResistorChoice) -> NoiseLevel:
    """Level implied by the actual resistor pair (low/low, mixed, high/high)."""
    if a is b:
        return NoiseLevel.LOW if a is ResistorChoice.LOW else NoiseLevel.HIGH
    return NoiseLevel.INTERMEDIATE


def check_temperature_scale(temperature_scale: float) -> None:
    """Reject a temperature scale that is not finite and > 0 (nan included)."""
    if not 0.0 < temperature_scale < np.inf:
        raise DomainError(f"temperature_scale must be finite and > 0, got {temperature_scale}")


def line_variance(
    line: KljnLineParams,
    a: ResistorChoice,
    b: ResistorChoice,
    temperature_scale: float = 1.0,
) -> float:
    """Mean-square line voltage for a resistor pair, in normalized units.

    Proportional to the parallel resistance Ra*Rb/(Ra+Rb); symmetric in
    (a, b), so the two mixed selections are indistinguishable by variance.
    """
    check_temperature_scale(temperature_scale)
    ra = a.ohms(line)
    rb = b.ohms(line)
    return temperature_scale * (ra * rb) / (ra + rb)


def variance_thresholds(
    line: KljnLineParams, temperature_scale: float = 1.0
) -> tuple[float, float]:
    """Decision thresholds between the three variance bands.

    Placed at the geometric means of adjacent analytic variances, which
    equalizes the classification margins in the log domain.
    """
    v_low = line_variance(line, ResistorChoice.LOW, ResistorChoice.LOW, temperature_scale)
    v_mid = line_variance(line, ResistorChoice.LOW, ResistorChoice.HIGH, temperature_scale)
    v_high = line_variance(line, ResistorChoice.HIGH, ResistorChoice.HIGH, temperature_scale)
    return float(np.sqrt(v_low * v_mid)), float(np.sqrt(v_mid * v_high))


def classify_level(
    estimated_variance: float,
    line: KljnLineParams,
    temperature_scale: float = 1.0,
) -> NoiseLevel:
    """Map a variance estimate to a noise level. Total and deterministic.

    Band edges belong to the intermediate band.
    """
    if not estimated_variance >= 0:  # negative or nan
        raise DomainError(f"variance estimate must be >= 0, got {estimated_variance}")
    t_low, t_high = variance_thresholds(line, temperature_scale)
    if estimated_variance < t_low:
        return NoiseLevel.LOW
    if estimated_variance > t_high:
        return NoiseLevel.HIGH
    return NoiseLevel.INTERMEDIATE


def sample_line(
    line: KljnLineParams,
    a: ResistorChoice,
    b: ResistorChoice,
    rng: np.random.Generator | int,
    temperature_scale: float = 1.0,
) -> LineObservation:
    """Draw N voltage samples for one decision interval and classify them.

    Samples are i.i.d. zero-mean Gaussian with the analytic line variance.
    The variance estimate is the mean square (the mean is known to be
    zero). Deterministic for a fixed integer seed; a Generator may be
    passed instead to continue an existing stream.
    """
    gen = np.random.default_rng(rng)
    sigma2 = line_variance(line, a, b, temperature_scale)
    samples = gen.normal(0.0, np.sqrt(sigma2), size=line.n_samples)
    estimate = float(np.mean(samples * samples))
    return LineObservation(
        samples=samples,
        estimated_variance=estimate,
        classified_level=classify_level(estimate, line, temperature_scale),
        ground_truth_level=ground_truth_level(a, b),
    )


def eve_observe(obs: LineObservation) -> NoiseLevel:
    """The eavesdropper's full information about one interval.

    Under ideal line conditions Eve learns exactly the classified level and
    nothing else: mixed resistor pairs are symmetric in distribution, so
    the ordering (and hence any basis value encoded in it) stays hidden.
    """
    return obs.classified_level
