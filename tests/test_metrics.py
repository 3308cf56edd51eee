import math

import numpy as np
import pytest

from clspool.metrics import (
    SeedAggregate,
    accuracy,
    aggregate_seeds,
    check_range,
    f1_binary,
    matthews_corr,
    spearman_rho_flagged,
)

from oracles import accuracy_oracle, f1_oracle, mcc_oracle, spearman_oracle


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 0, 1], [1, 0, 1]) == 1.0

    def test_disjoint(self):
        assert accuracy([1, 1, 0], [0, 0, 1]) == 0.0

    def test_half(self):
        assert accuracy([1, 1, 0, 0], [1, 0, 1, 0]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([1], [1, 0])


class TestF1:
    def test_perfect(self):
        assert f1_binary([1, 0, 1], [1, 0, 1]) == 1.0

    def test_no_predicted_positives(self):
        assert f1_binary([0, 0, 0], [1, 1, 0]) == 0.0

    def test_confusion_example(self):
        # TP=2, FP=1, FN=1 -> F1 = 2/3
        preds = [1, 1, 1, 0, 0]
        labels = [1, 1, 0, 1, 0]
        assert abs(f1_binary(preds, labels) - 2.0 / 3.0) < 1e-15


class TestMcc:
    def test_perfect(self):
        assert matthews_corr([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_inverted(self):
        assert matthews_corr([0, 1, 0, 1], [1, 0, 1, 0]) == -1.0

    def test_zero_example(self):
        assert matthews_corr([1, 1, 0, 0], [1, 0, 1, 0]) == 0.0

    def test_degenerate_factor(self):
        assert matthews_corr([1, 1, 1], [1, 0, 1]) == 0.0

    def test_antisymmetric_under_inversion(self):
        rng = np.random.default_rng(0)
        checked = 0
        while checked < 200:
            n = int(rng.integers(4, 40))
            preds = rng.integers(0, 2, size=n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            inverted = [1 - p for p in preds]
            m = matthews_corr(preds, labels)
            if m == 0.0:
                continue  # degenerate-denominator convention breaks the symmetry
            assert abs(matthews_corr(inverted, labels) + m) < 1e-12
            checked += 1


class TestSpearman:
    def test_identity(self):
        assert spearman_rho_flagged([1.0, 2.0, 5.0], [1.0, 2.0, 5.0])[0] == 1.0

    def test_reversed(self):
        assert spearman_rho_flagged([1.0, 2.0, 3.0], [9.0, 4.0, 1.0])[0] == -1.0

    def test_half_example(self):
        assert abs(spearman_rho_flagged([1.0, 2.0, 3.0], [1.0, 3.0, 2.0])[0] - 0.5) < 1e-15

    def test_zero_variance_flag(self):
        rho, degenerate = spearman_rho_flagged([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        assert rho == 0.0 and degenerate
        rho, degenerate = spearman_rho_flagged([1.0, 2.0, 3.0], [2.0, 1.0, 3.0])
        assert not degenerate

    def test_ties_get_average_ranks(self):
        # x ties at rank (1+2)/2 = 1.5 each
        rho = spearman_rho_flagged([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])[0]
        assert abs(rho - spearman_oracle([1.0, 1.0, 2.0], [1.0, 2.0, 3.0])) < 1e-15


class TestOracleAgreement:
    def test_classification_metrics_match_brute_force(self):
        rng = np.random.default_rng(1)
        for _ in range(1000):
            n = int(rng.integers(1, 50))
            preds = rng.integers(0, 2, size=n).tolist()
            labels = rng.integers(0, 2, size=n).tolist()
            assert abs(accuracy(preds, labels) - accuracy_oracle(preds, labels)) < 1e-12
            assert abs(f1_binary(preds, labels) - f1_oracle(preds, labels)) < 1e-12
            assert abs(matthews_corr(preds, labels) - mcc_oracle(preds, labels)) < 1e-12

    def test_spearman_matches_brute_force(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            n = int(rng.integers(2, 30))
            # quantized values so rank ties actually occur
            x = (rng.integers(0, 6, size=n) / 2.0).tolist()
            y = (rng.integers(0, 6, size=n) / 2.0).tolist()
            assert abs(spearman_rho_flagged(x, y)[0] - spearman_oracle(x, y)) < 1e-12

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            n = int(rng.integers(2, 30))
            preds = rng.integers(0, 2, size=n)
            labels = rng.integers(0, 2, size=n)
            perm = rng.permutation(n)
            for fn in (accuracy, f1_binary, matthews_corr):
                assert fn(preds.tolist(), labels.tolist()) == \
                    fn(preds[perm].tolist(), labels[perm].tolist())
            x = rng.normal(size=n)
            y = rng.normal(size=n)
            assert abs(spearman_rho_flagged(x.tolist(), y.tolist())[0]
                       - spearman_rho_flagged(x[perm].tolist(), y[perm].tolist())[0]) < 1e-12


class TestAggregateSeeds:
    def test_constant(self):
        agg = aggregate_seeds([5.0, 5.0, 5.0])
        assert agg.mean == 5.0 and agg.std == 0.0

    def test_two_values(self):
        agg = aggregate_seeds([0.0, 2.0])
        assert agg.mean == 1.0 and agg.std == 1.0

    def test_three_values(self):
        agg = aggregate_seeds([1.0, 2.0, 3.0])
        assert agg.mean == 2.0
        assert abs(agg.std - math.sqrt(2.0 / 3.0)) < 1e-15

    def test_mean_within_range(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            vals = rng.normal(size=int(rng.integers(2, 8))).tolist()
            agg = aggregate_seeds(vals)
            assert min(vals) <= agg.mean <= max(vals)
            assert agg.std >= 0.0

    def test_too_few(self):
        agg = aggregate_seeds([0.75])
        assert agg == SeedAggregate(mean=0.75, std=0.0)
        with pytest.raises(ValueError):
            aggregate_seeds([])


class TestEvalResult:
    def test_bounds_enforced(self):
        check_range("accuracy", 0.5)
        check_range("mcc", -0.5)
        with pytest.raises(ValueError):
            check_range("accuracy", 1.5)
        with pytest.raises(ValueError):
            check_range("spearman", -2.0)
