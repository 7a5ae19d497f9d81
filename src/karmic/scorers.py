"""Conditional-probability scorers and their fitting routines.

A scorer maps feature vectors to estimates of P(Y=+1 | X=x) in [0, 1].
Three variants of :class:`karmic.synth.Scorer` live here: a constant, a
logistic model fit by Newton maximum likelihood, and a Nadaraya-Watson
kernel smoother with the Epanechnikov kernel.  The fourth, the exact
conditional probability, is a synthetic model itself, the scorer of its
own eta.  Fitted scorers are immutable and safe to share across threads.
``scorer_to_dict`` gives each scorer a whole JSON form: a kernel scorer is a
function of its training sample, so it carries that sample inline, and a
model is ``{"kind": "true-eta", "model": ...}``.

For exact population evaluation a scorer describes its decision rule
``score(x) > delta`` in the form a synthetic model integrates:
``halfspace`` gives an affine rule ``sigmoid(w.x + b)`` (constant, logistic,
the Gaussian model), and ``acceptance_intervals(deltas)`` gives the
acceptance sets of a 1-d scorer on [0, 1] for a batch of thresholds, as
one padded block of sorted intervals (a zero-width row is an empty piece).

``expit`` and ``logit`` come from :mod:`karmic.synth`, which loads
``scipy.special`` the first time one is called: an affine scorer's fit,
score or rule and any evaluation on the Gaussian model load it; a kernel
scorer and the Holder model's true eta on [0, 1] never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .confusion import Dataset
from .errors import (
    DegenerateDesignError,
    DimensionMismatchError,
    EmptyDataError,
    SeparableDataError,
)
from .synth import (
    GaussianModel,
    HolderModel,
    Scorer,
    expit,
    logit,
    model_from_dict,
    number_field,
    require_fields,
)

__all__ = [
    "ConstantScorer",
    "LogisticScorer",
    "KernelScorer",
    "LogisticFitReport",
    "fit_logistic_mle",
    "fit_kernel_smoother",
    "scorer_to_dict",
    "scorer_from_dict",
]

KERNEL_CLIP = 1e-6
#: a kernel window whose weight sum is at most this falls back to the global rate
_KERNEL_MIN_WEIGHT = 1e-12
_RIDGE = 1e-8
_GRAD_TOL = 1e-10  # the Newton fit converges at a mean gradient of at most this max-norm
_WEIGHT_NORM_LIMIT = 1e6
#: queries or pieces a kernel pass takes at a time
_BLOCK = 8192


@dataclass(frozen=True)
class ConstantScorer(Scorer):
    """Scores every point as the same probability."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("constant score must lie in [0, 1]")

    def scores(self, X) -> np.ndarray:
        return np.full(self._check_matrix(X).shape[0], self.p)

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        return np.zeros(dim), float(logit(self.p))


class LogisticScorer(Scorer):
    """Sigmoid of an affine score: ``sigmoid(w . x + b)``."""

    def __init__(self, weights, intercept: float) -> None:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1 or not w.size or not np.all(np.isfinite(w)) or not np.isfinite(intercept):
            raise ValueError("weights must be one or more finite numbers and the intercept finite")
        self.weights = w
        self.intercept = float(intercept)
        self.dim = int(w.size)

    def scores(self, X) -> np.ndarray:
        arr = self._check_matrix(X)
        return expit(arr @ self.weights + self.intercept)

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        return self.weights, self.intercept


class KernelScorer(Scorer):
    """Nadaraya-Watson estimate with the Epanechnikov kernel.

    Weight of a training point at squared scaled distance u^2 is
    ``max(0, 1 - u^2)`` with u = |x_i - x| / h.  Points whose window
    contains no training data (or a vanishing weight sum) fall back to the
    global positive rate; outputs are clipped away from {0, 1} so that
    downstream thresholds stay evaluable.

    The scorer is one-dimensional: a training sample of 2 or more feature
    columns raises ``DimensionMismatchError``.  The window sums are
    O(log n) per query via one ``(5, n + 1)`` prefix table of ``x, x^2,
    pos, pos x, pos x^2`` over the points in x order (``pos`` marks a
    positive); a window's count is its rank range.  Any order of tied x
    gives the same numbers: windows start and end at tie-group edges, where
    each prefix sum is the same float, because a group adds identical terms
    or zeros.  Each pass (queries looked up in sorted order, or the pieces
    of ``acceptance_intervals``) works in blocks of ``_BLOCK``, so its
    temporaries stay small whatever its size.  The training arrays are kept
    by reference as ``train_x`` and ``train_y``.
    """

    dim = 1

    def __init__(self, train_x, train_y, bandwidth: float) -> None:
        sample = Dataset(train_x, train_y)  # finite features, labels in {-1, +1}
        if sample.n == 0:
            raise EmptyDataError("kernel smoother needs training data")
        if sample.dim != 1:
            raise DimensionMismatchError(
                f"a kernel scorer takes 1 feature column, got {sample.dim} columns")
        h = float(bandwidth)
        if not (h > 0.0 and 0.0 < h * h < math.inf):
            raise ValueError(f"bandwidth must be positive with a finite square, got {h!r}")
        self.train_x = X = sample.features
        self.train_y = y = sample.labels
        self.bandwidth = h
        self.global_rate = float(np.clip((y == 1).mean(), KERNEL_CLIP, 1 - KERNEL_CLIP))
        order = np.argsort(X[:, 0])
        self._x = x = X[order, 0]
        pos = (y.take(order) == 1).astype(float)
        self._prefix = np.zeros((5, x.size + 1))
        for row, term in zip(self._prefix[:, 1:], (x, x * x, pos, pos * x, pos * x * x)):
            np.cumsum(term, out=row)

    def _sums(self, q: np.ndarray):
        """Window moments ``(s0, s1, s2)`` of all points and of the positives
        within h of each query: one ``take`` of the prefix table per bound."""
        lo = np.searchsorted(self._x, q - self.bandwidth, side="left")
        hi = np.searchsorted(self._x, q + self.bandwidth, side="right")
        # take gathers columns faster than fancy indexing does
        s = self._prefix.take(hi, axis=1) - self._prefix.take(lo, axis=1)
        return ((hi - lo).astype(float), s[0], s[1]), (s[2], s[3], s[4])

    def _weight(self, moments, q: np.ndarray) -> np.ndarray:
        """Sum of Epanechnikov weights at queries q from window moments,
        ``s0 (1 - q^2 / h^2) + s1 (2 q / h^2) - s2 / h^2``."""
        s0, s1, s2 = moments
        h2 = self.bandwidth**2
        return s0 * (1.0 - q * q / h2) + s1 * (2.0 * q / h2) - s2 / h2

    def _estimate(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """``num / den``, the global rate where ``den`` vanishes, clipped."""
        out = np.full(den.shape, self.global_rate)
        ok = den > _KERNEL_MIN_WEIGHT
        out[ok] = num[ok] / den[ok]
        return np.clip(out, KERNEL_CLIP, 1 - KERNEL_CLIP)

    def scores(self, X) -> np.ndarray:
        arr = self._check_matrix(X)
        order = np.argsort(arr[:, 0])
        out = np.empty(order.size)
        for start in range(0, order.size, _BLOCK):
            rows = order[start : start + _BLOCK]
            q = arr[rows, 0]
            den, num = self._sums(q)
            out[rows] = self._estimate(self._weight(num, q), self._weight(den, q))
        return out

    def acceptance_intervals(self, deltas) -> np.ndarray:
        """The 1-d acceptance sets, exactly, padded with ``(1, 1)`` rows.

        Between consecutive breakpoints ``x_i - h`` and ``x_i + h`` the window
        holds fixed points, so the weight sums ``num(q)`` and ``den(q)`` are
        quadratics in q.  Cutting each piece at the roots of ``num - delta
        den`` and of ``den - 1e-12`` leaves sub-intervals on which the
        score's side of delta cannot change; the score at each midpoint
        decides it, global-rate fallback and clipping included.  A piece no
        root cuts keeps the midpoint and window that gave its quadratics, so
        the sums gathered there decide it; only cut pieces are rescored.  The
        pieces are taken ``_BLOCK`` at a time: all but the roots of ``num -
        delta den`` and what they cut is built once per block, and each
        delta carries whether its set is open across a block edge, so only
        the ends of its intervals are kept.
        """
        deltas = np.asarray(deltas, dtype=float)
        h = self.bandwidth
        breaks = np.concatenate([self._x - h, self._x + h])
        edges = np.unique(np.concatenate([[0.0, 1.0], breaks[(breaks > 0.0) & (breaks < 1.0)]]))
        del breaks
        h2 = h**2
        flips = [[] for _ in range(deltas.size)]  # per delta, the cuts where acceptance flips
        is_open = np.zeros(deltas.size, dtype=bool)
        for first in range(0, edges.size - 1, _BLOCK):
            block = edges[first : first + _BLOCK + 1]
            left, right = block[:-1], block[1:]
            mid = 0.5 * (left + right)
            den, num = self._sums(mid)  # window moments, then the quadratics they give
            estimate = self._estimate(self._weight(num, mid), self._weight(den, mid))
            den, num = (np.stack([-s0 / h2, 2.0 * s1 / h2, s0 - s2 / h2])
                        for s0, s1, s2 in (den, num))
            floor_roots = _roots_inside(den - np.array([[0.0], [0.0], [_KERNEL_MIN_WEIGHT]]),
                                        left, right)
            pieces = np.arange(left.size)
            for k, delta in enumerate(deltas.ravel()):
                roots = np.unique(np.concatenate([*_roots_inside(num - delta * den, left, right),
                                                  *floor_roots]))
                piece = np.searchsorted(block, roots) - 1  # the one piece each root cuts
                cuts = np.insert(block, piece + 1, roots)
                accepted = np.insert(estimate > delta, piece + 1, False)
                redo = np.isin(np.insert(pieces, piece + 1, piece), piece)
                accepted[redo] = self.scores(0.5 * (cuts[:-1] + cuts[1:])[redo]) > delta
                flips[k].append(cuts[:-1][np.diff(accepted, prepend=is_open[k])])
                is_open[k] = accepted[-1]
        # a set still open at the last piece ends at 1
        found = [np.append(np.concatenate(f), [1.0] if o else []).reshape(-1, 2)
                 for f, o in zip(flips, is_open)]
        out = np.ones((len(found), max((f.shape[0] for f in found), default=0), 2))
        for rows, f in zip(out, found):
            rows[: f.shape[0]] = f
        return out.reshape(deltas.shape + out.shape[1:])


def _roots_inside(coef: np.ndarray, left: np.ndarray, right: np.ndarray):
    """Both roots of each quadratic ``c2 q^2 + c1 q + c0`` (columns of
    ``coef``), kept where they fall strictly inside ``(left, right)``.

    Uses the cancellation-free pair ``t / c2`` and ``c0 / t`` with
    ``t = -(c1 + sign(c1) sqrt(disc)) / 2``, which also yields the one root
    of a linear column (``c2 = 0``); non-finite roots are dropped.
    """
    c2, c1, c0 = coef
    with np.errstate(divide="ignore", invalid="ignore"):
        t = -0.5 * (c1 + np.copysign(np.sqrt(c1 * c1 - 4.0 * c2 * c0), c1))
        roots = (t / c2, c0 / t)
    return [r[np.isfinite(r) & (r > left) & (r < right)] for r in roots]


@dataclass(frozen=True)
class LogisticFitReport:
    """Newton fit diagnostics: ``iterations`` accepted steps, the gradient
    norm at the returned weights, and ``nll_path``, the objective at the
    start and after each accepted step (``iterations + 1`` values)."""

    iterations: int
    grad_norm: float
    converged: bool
    nll_path: tuple[float, ...]


def _mean_nll(margins: np.ndarray) -> float:
    """Mean logistic loss log(1 + exp(-margin)), computed stably in the
    array ``margins``, which it overwrites."""
    np.negative(margins, out=margins)
    return float(np.logaddexp(0.0, margins, out=margins).mean())


def fit_logistic_mle(data: Dataset,
                     max_iter: int = 100) -> tuple[LogisticScorer, LogisticFitReport]:
    """Maximum-likelihood logistic fit by damped Newton iterations.

    Uses a ridge of 1e-8 on the Hessian and halves the step while the mean
    negative log-likelihood increases.  The fit stops when the mean-gradient
    infinity norm drops to 1e-10 (converged), after ``max_iter`` steps, or
    when 30 halvings find no step that does not increase the objective.
    Diverging weights signal separable data; a Hessian that stays singular
    past the ridge signals a rank-deficient design.

    Besides ``data``, the fit holds the design matrix ``X`` (the features and
    a column of ones) and a bool target column.  Each step then holds the
    probabilities ``p``, which the curvature overwrites, and ``X.T * p``
    until the Hessian is formed, and in the line search a candidate's
    logits and its margins.
    """
    if data.n == 0:
        raise EmptyDataError("cannot fit a logistic model on no data")
    if not ((data.labels == 1).any() and (data.labels == -1).any()):
        raise ValueError("logistic fit needs both labels present")
    if data.n <= data.dim:
        raise ValueError(f"need n > d, got n={data.n}, d={data.dim}")
    if max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {max_iter}")
    X = np.column_stack([data.features, np.ones(data.n)])
    target = data.labels == 1
    theta = np.zeros(X.shape[1])
    diagonal = np.diag_indices(X.shape[1])
    logits = np.zeros(data.n)  # X @ theta, from the line search that accepted theta
    # every margin is 0 at theta = 0: n copies of one zero margin's loss,
    # averaged as _mean_nll averages n losses, without n calls of logaddexp
    nll_path = [float(np.full(data.n, _mean_nll(np.zeros(1))).mean())]
    for iterations in range(max_iter + 1):
        p = expit(logits)
        del logits
        grad = X.T @ (p - target) / data.n
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= _GRAD_TOL or iterations == max_iter:
            break
        p *= 1.0 - p  # the curvature
        hessian = (X.T * p) @ X / data.n
        del p  # the line search below needs the memory, not the curvature
        hessian[diagonal] += _RIDGE
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDesignError(
                "Hessian is singular beyond the ridge; features are degenerate"
            ) from exc
        for halvings in range(30):
            candidate = theta - 0.5**halvings * step
            logits = X @ candidate
            cand_nll = _mean_nll(data.labels * logits)
            if cand_nll <= nll_path[-1]:
                break
        else:
            break
        theta = candidate
        nll_path.append(cand_nll)
        if float(np.abs(theta).max()) > _WEIGHT_NORM_LIMIT:
            raise SeparableDataError(
                "weights diverged past 1e6; data looks linearly separable"
            )
    report = LogisticFitReport(iterations=iterations, grad_norm=grad_norm,
                               converged=grad_norm <= _GRAD_TOL, nll_path=tuple(nll_path))
    return LogisticScorer(theta[:-1], float(theta[-1])), report


def fit_kernel_smoother(
    data: Dataset, beta: float, bandwidth_const: float = 1.0
) -> KernelScorer:
    """Kernel conditional-probability fit with rate-optimal bandwidth.

    The bandwidth is ``bandwidth_const * n**(-1 / (2 beta + 1))`` for
    nominal smoothness ``beta`` in one dimension; a sample of 2 or more
    feature columns raises ``DimensionMismatchError``.
    """
    if data.n == 0:
        raise EmptyDataError("cannot fit a kernel smoother on no data")
    if data.n < 10:
        raise ValueError("kernel smoother needs n >= 10")
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    if not 0.0 < bandwidth_const < math.inf:
        raise ValueError(f"bandwidth_const must be positive and finite, got {bandwidth_const!r}")
    h = bandwidth_const * data.n ** (-1.0 / (2.0 * beta + 1.0))
    return KernelScorer(data.features, data.labels, h)


def scorer_to_dict(scorer: Scorer) -> dict:
    """JSON-ready form of a scorer; a kernel scorer writes its training
    sample inline (``x`` as rows, ``y`` as labels), so the form is whole."""
    if isinstance(scorer, ConstantScorer):
        return {"kind": "constant", "p": scorer.p}
    if isinstance(scorer, LogisticScorer):
        return {
            "kind": "logistic",
            "weights": [float(v) for v in scorer.weights],
            "intercept": scorer.intercept,
        }
    if isinstance(scorer, (GaussianModel, HolderModel)):
        return {"kind": "true-eta", "model": scorer.to_dict()}
    if isinstance(scorer, KernelScorer):
        return {
            "kind": "kernel",
            "x": scorer.train_x.tolist(),
            "y": scorer.train_y.tolist(),
            "bandwidth": scorer.bandwidth,
        }
    raise TypeError(f"cannot serialize scorer of type {type(scorer).__name__}")


def scorer_from_dict(payload: dict) -> Scorer:
    """Inverse of :func:`scorer_to_dict`."""
    kind = require_fields(payload, "scorer", ("kind",))["kind"]
    if kind == "constant":
        return ConstantScorer(number_field(payload, "p"))
    if kind == "logistic":
        return LogisticScorer(number_field(payload, "weights", 1),
                              number_field(payload, "intercept"))
    if kind == "true-eta":
        require_fields(payload, "true-eta scorer", ("model",))
        return model_from_dict(payload["model"])
    if kind == "kernel":
        require_fields(payload, "kernel scorer", ("x", "y", "bandwidth"))
        return KernelScorer(number_field(payload, "x", 2), number_field(payload, "y", 1),
                            number_field(payload, "bandwidth"))
    raise ValueError(f"unknown scorer kind {kind!r}")
