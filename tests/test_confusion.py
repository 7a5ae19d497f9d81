"""Samples and empirical confusion: validation, rescoring profiles, tie rule."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karmic import Dataset, EmptyDataError, ScoreProfile

from helpers import FixedScorer, naive_confusion

EPS = 1e-12


class TestDataset:
    def test_one_dimensional_features_reshaped(self) -> None:
        d = Dataset(np.array([0.1, 0.9]), np.array([1, -1]))
        assert d.features.shape == (2, 1)
        assert d.n == 2
        assert d.dim == 1

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

    def test_features_of_three_dimensions_are_refused(self) -> None:
        with pytest.raises(ValueError, match="features must be 2-d"):
            Dataset(np.zeros((2, 1, 1)), np.array([1, -1]))

    def test_subset_renormalizes(self) -> None:
        # a subset is the selected rows of the sample; every row counts once
        d = Dataset(np.arange(6.0).reshape(3, 2), np.array([1, -1, 1]))
        sub = d.subset([0, 2])
        assert sub.n == 2
        np.testing.assert_array_equal(sub.features, [[0.0, 1.0], [4.0, 5.0]])
        np.testing.assert_array_equal(sub.labels, [1, 1])
        np.testing.assert_array_equal(d.subset([2, 1, 2]).labels, [1, -1, 1])


class TestEmpiricalConfusion:
    """``ScoreProfile.from_scorer(scorer, data).confusion(delta)``, the one
    empirical-confusion path, against the loop oracle."""

    def test_strict_tie_goes_negative(self) -> None:
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        scorer = FixedScorer([0.5, 0.5])
        c = ScoreProfile.from_scorer(scorer, data).confusion(0.5)
        # both points score exactly at the threshold, so both predict -1
        np.testing.assert_array_equal(c, [0.0, 0.0, 0.5, 0.5])

    def test_empty_dataset_rejected(self) -> None:
        empty = Dataset(np.zeros((0, 1)), np.array([], dtype=int))
        with pytest.raises(EmptyDataError):
            ScoreProfile.from_scorer(FixedScorer([]), empty)

    def test_scores_outside_unit_interval_rejected(self) -> None:
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        with pytest.raises(ValueError):
            ScoreProfile.from_scorer(FixedScorer([0.5, 1.5]), data)

    def test_nan_score_rejected(self) -> None:
        # a NaN passes a min/max range check, and then counts as a positive
        # prediction at every threshold
        with pytest.raises(ValueError, match="NaN"):
            ScoreProfile(np.array([np.nan, 0.2, 0.7]), np.array([1, -1, 1]))

    def test_matches_loop_oracle(self, rng) -> None:
        n = 257
        scores = rng.random(n)
        scores[40:60] = scores[13]  # tied scores
        labels = rng.choice([-1, 1], size=n)
        data = Dataset(rng.standard_normal((n, 2)), labels)
        profile = ScoreProfile.from_scorer(FixedScorer(scores), data)
        for delta in [0.0, 0.31, 0.5, float(scores[13]), 0.99, 1.0]:
            got = profile.confusion(delta)
            want = naive_confusion(scores, labels, delta)
            assert got.shape == (4,)
            np.testing.assert_allclose(got, want, atol=1e-14)


class TestScoreProfile:
    def test_small_example(self) -> None:
        prof = ScoreProfile(np.array([0.2, 0.8, 0.5, 0.5]), np.array([1, -1, 1, 1]))
        np.testing.assert_array_equal(
            prof.confusion(np.array([0.0, 0.5, 1.0])),
            [[0.75, 0.25, 0.0, 0.0], [0.0, 0.25, 0.75, 0.0], [0.0, 0.0, 0.75, 0.25]],
        )
        assert prof.confusion(np.zeros((2, 3))).shape == (2, 3, 4)

    def test_empty_sample_is_refused(self) -> None:
        with pytest.raises(EmptyDataError):
            ScoreProfile([], [])

    @pytest.mark.parametrize("labels", [[1, -1, 1, 1], [1]])
    def test_one_label_per_score(self, labels) -> None:
        with pytest.raises(ValueError, match=r"got shapes \(2,\) and"):
            ScoreProfile([0.2, 0.7], labels)

    def test_scorer_with_one_score_too_many_is_refused(self) -> None:
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        with pytest.raises(ValueError, match="of one length"):
            ScoreProfile.from_scorer(FixedScorer([0.2, 0.7, 0.9]), data)

    def test_order_of_tied_scores(self) -> None:
        # the profile sorts without stability: shuffling tied (score, label)
        # pairs must leave every confusion row the same, bit for bit
        gen = np.random.default_rng(5)
        scores = gen.integers(0, 12, size=3000) / 11.0
        labels = np.where(gen.random(3000) < 0.5, 1, -1)
        ties = np.unique(scores)
        deltas = np.concatenate([ties, 0.5 * (ties[:-1] + ties[1:]), [-0.5, 0.0, 1.0, 1.5]])
        want = ScoreProfile(scores, labels).confusion(deltas)
        for seed in range(3):
            perm = np.random.default_rng(seed).permutation(scores.size)
            got = ScoreProfile(scores[perm], labels[perm]).confusion(deltas)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(("scores", "labels"), [
        (np.repeat([0.1, 0.4, 0.4, 0.9], 250), np.resize([1, -1, -1, 1, 1, -1, 1], 1000)),
        (np.linspace(0.0, 1.0, 7), np.ones(7, dtype=int)),
        (np.linspace(0.0, 1.0, 7), -np.ones(7, dtype=int)),
        (np.array([0.3]), np.array([1])),
        (np.array([0.3]), np.array([-1])),
    ], ids=["ties", "all-positive", "all-negative", "one-positive", "one-negative"])
    def test_tails_are_integer_counts_over_n(self, scores, labels) -> None:
        # reference: integer suffix counts divided by n, written out here
        n = scores.size
        deltas = np.concatenate([[-1.0, 0.0], np.unique(scores), [1.0]])
        tp = np.array([np.sum((scores > d) & (labels == 1)) for d in deltas]) / n
        fp = np.array([np.sum((scores > d) & (labels == -1)) for d in deltas]) / n
        positives, negatives = np.sum(labels == 1) / n, np.sum(labels == -1) / n
        want = np.stack([tp, fp, positives - tp, negatives - fp], axis=-1)
        got = ScoreProfile(scores, labels).confusion(deltas)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
    def test_profile_agrees_with_direct_rescoring(self, seed: int, n: int) -> None:
        gen = np.random.default_rng(seed)
        # ties on purpose: draw scores from a small lattice
        scores = gen.integers(0, 5, size=n) / 4.0
        labels = gen.choice([-1, 1], size=n)
        data = Dataset(gen.standard_normal((n, 1)), labels)
        scorer = FixedScorer(scores)
        prof = ScoreProfile.from_scorer(scorer, data)
        deltas = np.concatenate([gen.random(8), scores[:4], [0.0, 1.0]])
        rows = prof.confusion(deltas)
        for delta, row in zip(deltas, rows):
            direct = naive_confusion(scores, labels, float(delta))
            np.testing.assert_allclose(row, direct, atol=1e-14)
