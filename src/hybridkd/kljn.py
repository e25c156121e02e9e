"""Sample-level simulation of the noise-based wire channel.

Each decision interval, Alice and Bob connect one of two resistors to the
shared line. The line voltage is zero-mean Gaussian Johnson noise of
variance 4kTB times the parallel resistance of the two connected resistors,
in units where 4kTB = 1. There is no temperature knob: the band thresholds
come from the same analytic variances, so any common factor scales the
estimates and the thresholds alike and cancels out of every classification.

Both legitimate parties and the eavesdropper observe the same N samples;
the only statistic that matters is their mean square (`_mean_square`), in
one of three bands (`_band_masks`; every path calls both). The mixed pairs
(low/high, high/low) give the same variance, which hides the ordering.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .errors import check_real, check_type, generator
from .physics import KljnLineParams

__all__ = [
    "ResistorChoice",
    "NoiseLevel",
    "LineObservation",
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


def line_variance(line: KljnLineParams, a: ResistorChoice, b: ResistorChoice) -> float:
    """Mean-square line voltage for a resistor pair, in units of 4kTB.

    The parallel resistance Ra*Rb/(Ra+Rb); symmetric in (a, b), so the two
    mixed selections are indistinguishable by variance.
    """
    check_type(line, KljnLineParams, "line")
    check_type(a, ResistorChoice, "a")
    check_type(b, ResistorChoice, "b")
    ra, rb = a.ohms(line), b.ohms(line)
    return (ra * rb) / (ra + rb)


def variance_thresholds(line: KljnLineParams) -> tuple[float, float]:
    """Decision thresholds between the three variance bands.

    Placed at the geometric means of adjacent analytic variances, which
    equalizes the classification margins in the log domain.
    """
    v_low = line_variance(line, ResistorChoice.LOW, ResistorChoice.LOW)
    v_mid = line_variance(line, ResistorChoice.LOW, ResistorChoice.HIGH)
    v_high = line_variance(line, ResistorChoice.HIGH, ResistorChoice.HIGH)
    return float(np.sqrt(v_low * v_mid)), float(np.sqrt(v_mid * v_high))


def _band_masks(estimates, line: KljnLineParams):
    """(low, high) masks of an estimate or an array of them; an edge is intermediate."""
    t_low, t_high = variance_thresholds(line)
    return estimates < t_low, estimates > t_high


def _mean_square(samples: np.ndarray):
    """The estimate along the last axis; a pairwise sum, so a block's rows match `np.mean`."""
    return np.add.reduce(samples * samples, axis=-1) / samples.shape[-1]


def classify_level(estimated_variance: float, line: KljnLineParams) -> NoiseLevel:
    """Map a variance estimate to a noise level; total, deterministic, edges intermediate."""
    check_real(estimated_variance, "variance estimate", ge=0)
    low, high = _band_masks(estimated_variance, line)
    return NoiseLevel.LOW if low else NoiseLevel.HIGH if high else NoiseLevel.INTERMEDIATE


def sample_line(
    line: KljnLineParams,
    a: ResistorChoice,
    b: ResistorChoice,
    rng: np.random.Generator | int,
) -> LineObservation:
    """Draw N voltage samples for one decision interval and classify them.

    Samples are i.i.d. zero-mean Gaussian with the analytic line variance.
    The variance estimate is the mean square (the mean is known to be
    zero). Deterministic for a fixed integer seed; a Generator may be
    passed instead to continue an existing stream.
    """
    gen = generator(rng)
    sigma2 = line_variance(line, a, b)
    samples = gen.normal(0.0, np.sqrt(sigma2), size=line.n_samples)
    estimate = float(_mean_square(samples))
    return LineObservation(
        samples=samples,
        estimated_variance=estimate,
        classified_level=classify_level(estimate, line),
        ground_truth_level=ground_truth_level(a, b),
    )


def eve_observe(obs: LineObservation) -> NoiseLevel:
    """The eavesdropper's full information about one interval.

    Under ideal line conditions Eve learns exactly the classified level and
    nothing else: mixed resistor pairs are symmetric in distribution, so
    the ordering (and hence any basis value encoded in it) stays hidden.
    """
    return obs.classified_level
