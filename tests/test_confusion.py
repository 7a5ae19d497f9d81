"""Confusion-vector containers: validation, rescoring profiles, tie rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karmic import ConfusionMatrix, Dataset, EmptyDataError, ScoreProfile

from helpers import FixedScorer, naive_confusion

EPS = 1e-12


class TestConfusionMatrix:
    def test_roundtrip_array(self) -> None:
        c = ConfusionMatrix(0.4, 0.1, 0.1, 0.4)
        assert np.array_equal(c.as_array(), [0.4, 0.1, 0.1, 0.4])
        assert ConfusionMatrix.from_array(c.as_array()) == c

    def test_as_dict_keys(self) -> None:
        d = ConfusionMatrix(0.25, 0.25, 0.25, 0.25).as_dict()
        assert d == {"tp": 0.25, "fp": 0.25, "fn": 0.25, "tn": 0.25}

    def test_total(self) -> None:
        assert ConfusionMatrix(0.4, 0.1, 0.1, 0.4).total == pytest.approx(1.0, abs=EPS)

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_entry_range_enforced(self, bad: float) -> None:
        with pytest.raises(ValueError):
            ConfusionMatrix(bad, 0.1, 0.1, 0.1)

    def test_tiny_negative_roundoff_tolerated(self) -> None:
        c = ConfusionMatrix(-1e-12, 0.5, 0.25, 0.25)
        assert c.tp == -1e-12

    def test_check_total_rejects_off_simplex(self) -> None:
        with pytest.raises(ValueError):
            ConfusionMatrix(0.4, 0.4, 0.4, 0.4).check_total()

    def test_check_total_passes_through(self) -> None:
        c = ConfusionMatrix(0.4, 0.1, 0.1, 0.4)
        assert c.check_total() is c

    def test_converts_to_a_float_array(self) -> None:
        c = ConfusionMatrix(0.4, 0.1, 0.1, 0.4)
        np.testing.assert_array_equal(np.asarray(c), c.as_array())
        assert np.asarray(c).dtype == np.float64
        assert np.asarray(c, dtype=np.float32).dtype == np.float32
        with pytest.raises(ValueError):
            np.array(c, copy=False)


class TestDataset:
    def test_one_dimensional_features_reshaped(self) -> None:
        d = Dataset(np.array([0.1, 0.9]), np.array([1, -1]))
        assert d.features.shape == (2, 1)
        assert d.n == 2
        assert d.dim == 1

    def test_default_weights_uniform(self) -> None:
        d = Dataset(np.zeros((4, 2)), np.array([1, 1, -1, -1]))
        np.testing.assert_allclose(d.weights, 0.25)

    @pytest.mark.parametrize("labels", [[0, 1], [2, -1], [1.5, -1.0]])
    def test_labels_must_be_plus_minus_one(self, labels) -> None:
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array(labels))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_features_must_be_finite(self, bad: float) -> None:
        features = np.zeros((3, 2))
        features[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            Dataset(features, np.array([1, -1, 1]))

    @pytest.mark.parametrize("weights", [[np.nan, np.nan], [np.nan, 1.0], [np.inf, 0.0]])
    def test_weights_must_be_finite(self, weights) -> None:
        # NaN fails every comparison, so the sign and sum checks alone let it pass
        with pytest.raises(ValueError, match="finite"):
            Dataset(np.zeros((2, 1)), np.array([1, -1]), weights=np.array(weights))

    def test_weights_must_sum_to_one(self) -> None:
        with pytest.raises(ValueError):
            Dataset(np.zeros((2, 1)), np.array([1, -1]), weights=np.array([0.6, 0.6]))

    def test_subset_renormalizes(self) -> None:
        d = Dataset(np.arange(6.0).reshape(3, 2), np.array([1, -1, 1]),
                    weights=np.array([0.2, 0.3, 0.5]))
        sub = d.subset([0, 2])
        assert sub.n == 2
        np.testing.assert_allclose(sub.weights, [0.2 / 0.7, 0.5 / 0.7])
        np.testing.assert_array_equal(sub.features, [[0.0, 1.0], [4.0, 5.0]])


class TestEmpiricalConfusion:
    """``ScoreProfile.from_scorer(scorer, data).confusion(delta)``, the one
    empirical-confusion path, against the loop oracle."""

    def test_strict_tie_goes_negative(self) -> None:
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        scorer = FixedScorer([0.5, 0.5])
        c = ScoreProfile.from_scorer(scorer, data).confusion(0.5)
        # both points score exactly at the threshold, so both predict -1
        assert c.as_dict() == {"tp": 0.0, "fp": 0.0, "fn": 0.5, "tn": 0.5}

    def test_empty_dataset_rejected(self) -> None:
        empty = Dataset(np.zeros((0, 1)), np.array([], dtype=int))
        with pytest.raises(EmptyDataError):
            ScoreProfile.from_scorer(FixedScorer([]), empty)

    def test_scores_outside_unit_interval_rejected(self) -> None:
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        with pytest.raises(ValueError):
            ScoreProfile.from_scorer(FixedScorer([0.5, 1.5]), data)

    def test_matches_loop_oracle(self, rng) -> None:
        n = 257
        scores = rng.random(n)
        labels = rng.choice([-1, 1], size=n)
        weights = rng.random(n)
        weights /= weights.sum()
        data = Dataset(rng.standard_normal((n, 2)), labels, weights=weights)
        profile = ScoreProfile.from_scorer(FixedScorer(scores), data)
        for delta in [0.0, 0.31, 0.5, float(scores[13]), 0.99, 1.0]:
            got = profile.confusion(delta)
            want = naive_confusion(scores, labels, weights, delta)
            np.testing.assert_allclose(got, want, atol=1e-14)


class TestScoreProfile:
    def test_small_example(self) -> None:
        prof = ScoreProfile(np.array([0.2, 0.8, 0.5]), np.array([1, -1, 1]),
                            np.array([0.3, 0.3, 0.4]))
        np.testing.assert_allclose(
            prof.confusion_array(np.array([0.0, 0.5, 1.0])),
            [[0.7, 0.3, 0.0, 0.0], [0.0, 0.3, 0.7, 0.0], [0.0, 0.0, 0.7, 0.3]],
            atol=1e-15,
        )

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_profile_agrees_with_direct_rescoring(self, seed: int, n: int) -> None:
        gen = np.random.default_rng(seed)
        # ties on purpose: draw scores from a small lattice
        scores = gen.integers(0, 5, size=n) / 4.0
        labels = gen.choice([-1, 1], size=n)
        weights = gen.random(n)
        weights /= weights.sum()
        data = Dataset(gen.standard_normal((n, 1)), labels, weights=weights)
        scorer = FixedScorer(scores)
        prof = ScoreProfile.from_scorer(scorer, data)
        deltas = np.concatenate([gen.random(8), scores[:4], [0.0, 1.0]])
        rows = prof.confusion_array(deltas)
        for delta, row in zip(deltas, rows):
            direct = naive_confusion(scores, labels, weights, float(delta))
            np.testing.assert_allclose(row, direct, atol=1e-14)
