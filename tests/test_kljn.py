"""Wire sampling, variance classification and the eavesdropper surface."""

import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from hybridkd.errors import DomainError
from hybridkd.kljn import (
    LineObservation,
    NoiseLevel,
    ResistorChoice,
    classify_level,
    eve_observe,
    ground_truth_level,
    line_variance,
    sample_line,
    variance_thresholds,
)
from hybridkd.physics import KljnLineParams

L, H = ResistorChoice.LOW, ResistorChoice.HIGH


def make_line(**kw):
    base = dict(v=2e5, n_pairs=1000, n_samples=50, r_low=1e4, r_high=1e5)
    base.update(kw)
    return KljnLineParams(**base)


class TestLineVariance:
    def test_mixed_pair_is_symmetric(self, line):
        assert line_variance(line, L, H) == line_variance(line, H, L)

    def test_equal_pairs_are_half_resistance(self, line):
        assert line_variance(line, L, L) == pytest.approx(5e3, rel=1e-12)
        assert line_variance(line, H, H) == pytest.approx(5e4, rel=1e-12)
        assert line_variance(line, L, H) == pytest.approx(1e4 * 1e5 / 1.1e5, rel=1e-12)

    def test_ordering_for_random_resistor_pairs(self):
        # brute-force parallel-resistance evaluation over random pairs
        rng = np.random.default_rng(99)
        for _ in range(100):
            r_low = float(rng.uniform(1e2, 1e5))
            r_high = r_low * float(rng.uniform(1.01, 1e3))
            ln = make_line(r_low=r_low, r_high=r_high)
            v_ll = line_variance(ln, L, L)
            v_lh = line_variance(ln, L, H)
            v_hh = line_variance(ln, H, H)
            assert v_ll < v_lh < v_hh
            par = lambda a, b: a * b / (a + b)
            assert v_lh == pytest.approx(par(r_low, r_high), rel=1e-12)


class TestClassification:
    def test_mixed_variance_maps_to_intermediate(self, line):
        assert classify_level(line_variance(line, L, H), line) is NoiseLevel.INTERMEDIATE

    def test_zero_maps_to_low(self, line):
        assert classify_level(0.0, line) is NoiseLevel.LOW

    def test_above_upper_threshold_maps_to_high(self, line):
        _, t_high = variance_thresholds(line)
        assert classify_level(t_high * 1.0001, line) is NoiseLevel.HIGH

    def test_thresholds_are_geometric_means(self, line):
        t_low, t_high = variance_thresholds(line)
        assert t_low == pytest.approx(
            np.sqrt(line_variance(line, L, L) * line_variance(line, L, H)), rel=1e-12
        )
        assert t_high == pytest.approx(
            np.sqrt(line_variance(line, L, H) * line_variance(line, H, H)), rel=1e-12
        )

    @pytest.mark.parametrize("factor", [1e-3, 0.31, 2.7, 7.3e5])
    def test_common_factor_cancels(self, line, factor):
        # A temperature, a bandwidth or a resistance unit multiplies every
        # variance and both thresholds alike, so no level changes.
        scaled = make_line(r_low=factor * line.r_low, r_high=factor * line.r_high)
        estimates = line_variance(line, H, H) * np.random.default_rng(4).uniform(0, 2, 2000)
        assert [classify_level(factor * x, scaled) for x in estimates] == [
            classify_level(x, line) for x in estimates
        ]

    def test_negative_estimate_rejected(self, line):
        with pytest.raises(DomainError):
            classify_level(-1.0, line)

    def test_nan_estimate_rejected(self, line):
        with pytest.raises(DomainError, match="variance estimate"):
            classify_level(math.nan, line)

    def test_ground_truth_mapping(self):
        assert ground_truth_level(L, L) is NoiseLevel.LOW
        assert ground_truth_level(H, H) is NoiseLevel.HIGH
        assert ground_truth_level(L, H) is NoiseLevel.INTERMEDIATE
        assert ground_truth_level(H, L) is NoiseLevel.INTERMEDIATE


class TestSampleLine:
    def test_deterministic_for_fixed_seed(self, line):
        a = sample_line(line, L, H, 1234)
        b = sample_line(line, L, H, 1234)
        assert np.array_equal(a.samples, b.samples)
        assert a.estimated_variance == b.estimated_variance
        assert a.classified_level is b.classified_level

    def test_sample_count_matches_params(self, line):
        obs = sample_line(line, L, L, 5)
        assert obs.samples.shape == (line.n_samples,)

    def test_large_n_estimate_converges(self):
        ln = make_line(n_samples=1_000_000)
        obs = sample_line(ln, L, L, 42)
        assert obs.estimated_variance == pytest.approx(line_variance(ln, L, L), rel=0.01)

    def test_ground_truth_always_coherent(self, line):
        rng = np.random.default_rng(5)
        for a, b in ((L, L), (L, H), (H, L), (H, H)):
            obs = sample_line(line, a, b, rng)
            assert obs.ground_truth_level is ground_truth_level(a, b)

    def test_misclassification_rate_default_samples(self, line):
        # With 50 samples per decision the three variance bands overlap
        # appreciably; the observed rate sits near 5-6% and cannot reach
        # 1e-2 for any resistor ratio (the low/mixed margin is bounded).
        rate = _misclassification_rate(line, trials=20_000, seed=11)
        assert rate < 0.08

    def test_misclassification_rate_vanishes_with_more_samples(self):
        ln = make_line(n_samples=200)
        assert _misclassification_rate(ln, trials=20_000, seed=12) < 1e-2
        ln = make_line(n_samples=10_000)
        assert _misclassification_rate(ln, trials=2_000, seed=13) < 1e-3


def _misclassification_rate(line, trials, seed):
    rng = np.random.default_rng(seed)
    pairs = ((L, L), (L, H), (H, L), (H, H))
    wrong = 0
    for i in range(trials):
        a, b = pairs[i % 4]
        obs = sample_line(line, a, b, rng)
        wrong += obs.classified_level is not obs.ground_truth_level
    return wrong / trials


class TestEveSurface:
    def test_mixed_pairs_look_intermediate(self, line):
        ln = make_line(n_samples=4000)  # large N: classification is reliable
        assert eve_observe(sample_line(ln, L, H, 3)) is NoiseLevel.INTERMEDIATE
        assert eve_observe(sample_line(ln, H, L, 4)) is NoiseLevel.INTERMEDIATE

    def test_eve_gets_only_the_classified_level(self, line):
        obs = sample_line(line, L, H, 77)
        assert eve_observe(obs) is obs.classified_level
        assert isinstance(eve_observe(obs), NoiseLevel)

    def test_observation_carries_no_resistor_or_basis_fields(self):
        # structural: the eavesdropper-reachable record must not contain
        # the resistor ordering (or anything typed like a choice pair)
        field_types = {f.type for f in dataclasses.fields(LineObservation)}
        assert not any("ResistorChoice" in str(t) for t in field_types)
        assert not any("Basis" in str(t) for t in field_types)
        assert len(NoiseLevel) == 3

    def test_mixed_selections_indistinguishable_by_ks(self, line):
        # the security core: estimated variances from (L,H) and (H,L) are
        # equal in law; two-sample KS must not reject at the 1% level
        rng = np.random.default_rng(2024)
        n = 10_000
        lh = np.array([sample_line(line, L, H, rng).estimated_variance for _ in range(n)])
        hl = np.array([sample_line(line, H, L, rng).estimated_variance for _ in range(n)])
        result = stats.ks_2samp(lh, hl)
        assert result.pvalue > 0.01
