"""Confusion matrices as joint probabilities, and weighted datasets.

A binary classifier ``f`` and a distribution over ``(X, Y)`` with labels in
``{-1, +1}`` induce the confusion vector

    C = (TP, FP, FN, TN)
      = (P[Y=+1, f=+1], P[Y=-1, f=+1], P[Y=+1, f=-1], P[Y=-1, f=-1]),

whose entries sum to one.  Empirical confusion matrices replace the
probabilities with (weighted) sample fractions.  The prediction rule is
strict everywhere in this package: predict +1 iff score > delta.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataError

__all__ = ["ConfusionMatrix", "Dataset", "ScoreProfile"]

_ENTRY_SLACK = 1e-9


@dataclass(frozen=True)
class ConfusionMatrix:
    """Joint-probability confusion vector ``(tp, fp, fn_, tn)``.

    Each entry must lie in ``[0, 1]``.  Matrices describing a full sample or
    population additionally sum to one; use :meth:`check_total` to assert
    that where it is expected.  Off-simplex points (e.g. finite-difference
    perturbations) are allowed so that metric gradients are well defined.
    Inside the package confusion vectors travel as float arrays of shape
    ``(..., 4)``; ``np.asarray`` turns a matrix into one.
    """

    tp: float
    fp: float
    fn_: float
    tn: float

    def __post_init__(self) -> None:
        for name, value in self.as_dict().items():
            v = float(value)
            if not np.isfinite(v) or v < -_ENTRY_SLACK or v > 1.0 + _ENTRY_SLACK:
                raise ValueError(f"confusion entry {name}={value!r} outside [0, 1]")

    def as_array(self) -> np.ndarray:
        return np.array([self.tp, self.fp, self.fn_, self.tn], dtype=float)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        if copy is False:
            raise ValueError("a ConfusionMatrix converts to an array only by copying")
        return self.as_array().astype(float if dtype is None else dtype, copy=False)

    def as_dict(self) -> dict[str, float]:
        return {"tp": self.tp, "fp": self.fp, "fn": self.fn_, "tn": self.tn}

    @classmethod
    def from_array(cls, c: np.ndarray) -> "ConfusionMatrix":
        c = np.asarray(c, dtype=float)
        if c.shape != (4,):
            raise ValueError(f"expected 4 confusion entries, got shape {c.shape}")
        return cls(float(c[0]), float(c[1]), float(c[2]), float(c[3]))

    @property
    def total(self) -> float:
        return self.tp + self.fp + self.fn_ + self.tn

    def check_total(self, tol: float = 1e-9) -> "ConfusionMatrix":
        if abs(self.total - 1.0) > tol:
            raise ValueError(f"confusion entries sum to {self.total!r}, not 1")
        return self


class Dataset:
    """Weighted sample of feature vectors with labels in ``{-1, +1}``.

    Weights are probabilities: non-negative, summing to one.  When omitted,
    uniform weights ``1/n`` are materialized.
    """

    __slots__ = ("features", "labels", "weights")

    def __init__(self, features, labels, weights=None) -> None:
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
        y = y.astype(int)
        if weights is None:
            w = np.full(X.shape[0], 1.0 / X.shape[0]) if X.shape[0] else np.empty(0)
        else:
            w = np.asarray(weights, dtype=float)
            if w.shape != (X.shape[0],):
                raise ValueError("weights must be one per feature row")
            if not np.isfinite(w).all():
                raise ValueError("weights must be finite (found NaN or infinity)")
            if w.size:
                if w.min() < -_ENTRY_SLACK:
                    raise ValueError("weights must be non-negative")
                if abs(w.sum() - 1.0) > 1e-9:
                    raise ValueError(f"weights sum to {w.sum()!r}, not 1")
        self.features = X
        self.labels = y
        self.weights = w

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        """Rows at ``indices`` with weights renormalized to sum to one."""
        idx = np.asarray(indices, dtype=int)
        w = self.weights[idx]
        total = w.sum()
        if total <= 0:
            raise ValueError("subset carries no weight")
        return Dataset(self.features[idx], self.labels[idx], w / total)


class ScoreProfile:
    """Sorted score structure for O(log n) empirical confusion lookups.

    Built once from the scores of a fixed sample, it answers "confusion at
    threshold delta" queries for any number of thresholds without rescoring,
    using suffix sums over the score order.  Strict rule: score > delta
    counts as a positive prediction, so ties at delta predict -1.
    """

    def __init__(self, scores, labels, weights) -> None:
        s = np.asarray(scores, dtype=float)
        if s.size == 0:
            raise EmptyDataError("cannot profile an empty sample")
        if s.min() < 0.0 or s.max() > 1.0:
            raise ValueError("scores must lie in [0, 1]")
        y = np.asarray(labels)
        w = np.asarray(weights, dtype=float)
        order = np.argsort(s, kind="stable")
        self._scores = s[order]
        pos = np.where(y[order] == 1, w[order], 0.0)
        neg = np.where(y[order] == -1, w[order], 0.0)
        # suffix sums: tail[i] = total weight of samples with rank >= i
        self._pos_tail = np.concatenate([np.cumsum(pos[::-1])[::-1], [0.0]])
        self._neg_tail = np.concatenate([np.cumsum(neg[::-1])[::-1], [0.0]])
        self.positive_total = float(pos.sum())
        self.negative_total = float(neg.sum())

    @classmethod
    def from_scorer(cls, scorer, data: Dataset) -> "ScoreProfile":
        if data.n == 0:
            raise EmptyDataError("cannot profile an empty dataset")
        return cls(scorer.scores(data.features), data.labels, data.weights)

    def confusion_array(self, deltas) -> np.ndarray:
        """Confusion rows, shape ``deltas.shape + (4,)``."""
        d = np.asarray(deltas, dtype=float)
        idx = np.searchsorted(self._scores, d, side="right")
        tp = self._pos_tail[idx]
        fp = self._neg_tail[idx]
        fn = self.positive_total - tp
        tn = self.negative_total - fp
        return np.stack([tp, fp, fn, tn], axis=-1)

    def confusion(self, delta: float) -> ConfusionMatrix:
        return ConfusionMatrix.from_array(self.confusion_array(float(delta)))

