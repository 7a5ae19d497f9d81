"""Confusion vectors as joint probabilities, and labelled samples.

A binary classifier ``f`` and a distribution over ``(X, Y)`` with labels in
``{-1, +1}`` induce the confusion vector

    C = (TP, FP, FN, TN)
      = (P[Y=+1, f=+1], P[Y=-1, f=+1], P[Y=+1, f=-1], P[Y=-1, f=-1]),

whose entries sum to one.  Inside the package a confusion vector is a float
array of shape ``(..., 4)`` in that order.  Empirical confusion vectors
replace the probabilities with sample fractions (counts over n).  The
prediction rule is strict everywhere in this package: predict +1 iff
score > delta.
"""

from __future__ import annotations

import numpy as np

from .errors import EmptyDataError

__all__ = ["Dataset", "ScoreProfile"]


class Dataset:
    """An i.i.d. sample: feature rows with labels in ``{-1, +1}``."""

    __slots__ = ("features", "labels")

    def __init__(self, features, labels) -> None:
        X = np.asarray(features, dtype=float)
        if X.ndim == 1:
            X = X[:, None]
        if X.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {X.shape}")
        if not np.isfinite(X).all():
            raise ValueError("features must be finite (found NaN or infinity)")
        y = np.asarray(labels)
        if y.shape != (X.shape[0],):
            raise ValueError("labels must be one per feature row")
        if not ((y == 1) | (y == -1)).all():
            raise ValueError("labels must be -1 or +1")
        self.features = X
        self.labels = y.astype(int, copy=False)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """The rows at ``indices``."""
        idx = np.asarray(indices, dtype=int)
        return Dataset(self.features.take(idx, axis=0), self.labels.take(idx))


class ScoreProfile:
    """Sorted score structure for O(log n) empirical confusion lookups.

    Built once from the scores of a fixed sample, it answers "confusion at
    threshold delta" queries for any number of thresholds without rescoring,
    using suffix counts over the score order.  Strict rule: score > delta
    counts as a positive prediction, so ties at delta predict -1.  The
    counts are integers read only at the edge of a tie group, so any order
    of tied scores gives the same numbers.  It keeps the sorted scores and
    one ``(2, n + 1)`` float array of the two tail fractions.
    """

    def __init__(self, scores, labels) -> None:
        s = np.asarray(scores, dtype=float)
        y = np.asarray(labels)
        if s.ndim != 1 or y.shape != s.shape:
            raise ValueError("scores and labels must be 1-d and of one length, "
                             f"got shapes {s.shape} and {y.shape}")
        if s.size == 0:
            raise EmptyDataError("cannot profile an empty sample")
        if not ((s >= 0.0) & (s <= 1.0)).all():
            raise ValueError("scores must lie in [0, 1] (found NaN or a value outside)")
        n = s.size
        order = np.argsort(s)
        self._scores = s[order]
        # suffix fractions: tails[0, i] (tails[1, i]) = positives (negatives)
        # of rank >= i over n; the counts are whole floats, so exact
        positive = (y == 1).take(order)
        tails = np.zeros((2, n + 1))
        np.cumsum(positive[::-1], out=tails[0, -2::-1])
        np.cumsum(~positive[::-1], out=tails[1, -2::-1])
        tails /= n
        self._pos_tail, self._neg_tail = tails

    @classmethod
    def from_scorer(cls, scorer, data: Dataset) -> "ScoreProfile":
        return cls(scorer.scores(data.features), data.labels)

    def confusion(self, deltas) -> np.ndarray:
        """Confusion rows at each threshold, shape ``deltas.shape + (4,)``;
        one delta gives one length-4 vector."""
        idx = np.searchsorted(self._scores, np.asarray(deltas, dtype=float), side="right")
        tp = self._pos_tail[idx]
        fp = self._neg_tail[idx]
        return np.stack([tp, fp, self._pos_tail[0] - tp, self._neg_tail[0] - fp], axis=-1)
