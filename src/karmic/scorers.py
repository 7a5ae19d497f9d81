"""Conditional-probability scorers and their fitting routines.

A scorer maps feature vectors to estimates of P(Y=+1 | X=x) in [0, 1].
Four variants share the interface: a constant, the exact conditional
probability of a synthetic model, a logistic model fit by Newton maximum
likelihood, and a Nadaraya-Watson kernel smoother with the Epanechnikov
kernel.  Fitted scorers are immutable and safe to share across threads.
``scorer_to_dict`` gives each scorer a whole JSON form: a kernel scorer is a
function of its training sample, so it carries that sample inline.

For exact population evaluation a scorer describes its decision rule
``score(x) > delta`` in the form a synthetic model integrates:
``halfspace`` gives an affine rule ``sigmoid(w.x + b)`` (constant, logistic,
true eta of the Gaussian model), and ``acceptance_intervals(deltas)`` gives
the acceptance sets of a 1-d scorer on [0, 1] for a batch of thresholds, as
one padded block of sorted intervals (a zero-width row is an empty piece).

``expit`` and ``logit`` come from :mod:`karmic.synth`, which loads
``scipy.special`` the first time one is called: an affine scorer's fit,
score or rule and any evaluation on the Gaussian model load it; a kernel
scorer and the Holder model's true eta on [0, 1] never do.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .confusion import Dataset
from .errors import (
    DegenerateDesignError,
    DimensionMismatchError,
    EmptyDataError,
    ModeUnsupportedError,
    SeparableDataError,
)
from .synth import (
    GaussianModel,
    HolderModel,
    expit,
    logit,
    model_from_dict,
    number_field,
    require_fields,
)

__all__ = [
    "Scorer",
    "ConstantScorer",
    "TrueEtaScorer",
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
_WEIGHT_NORM_LIMIT = 1e6


class Scorer:
    """Interface: ``scores`` on a feature matrix, ``score`` on one point."""

    #: expected feature dimension, or None when any dimension is accepted
    dim: int | None = None

    def scores(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def score(self, x) -> float:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.ndim != 1:
            raise DimensionMismatchError("score expects a single feature vector")
        return float(self.scores(arr[None, :])[0])

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        """``(w, b)`` with ``score(x) = sigmoid(w.x + b)`` on ``dim``-d points."""
        raise ModeUnsupportedError(
            f"closed-form evaluation needs an affine score rule; got {type(self).__name__}"
        )

    def acceptance_intervals(self, deltas) -> np.ndarray:
        """``{x in [0, 1] : score(x) > delta}`` for each delta: sorted ``(a, b)``
        rows with ``a <= b`` in one block of shape ``deltas.shape + (k, 2)``,
        where a zero-width row is an empty piece.  Here the half-line of the
        affine rule ``halfspace(1)``, one row per delta; with ``w = 0``, all
        or nothing as ``predict`` decides it, by the score against delta.
        """
        if self.dim not in (None, 1):
            raise ModeUnsupportedError(
                f"closed-form evaluation on [0, 1] needs the acceptance intervals of a 1-d "
                f"score rule; {type(self).__name__} (dimension {self.dim}) has none")
        (w,), intercept = self.halfspace(1)
        deltas = np.asarray(deltas, dtype=float)
        edge = (np.where(self.score(0.0) > deltas, 0.0, 1.0) if w == 0.0
                else np.clip((logit(deltas) - intercept) / w, 0.0, 1.0))
        ends = (edge, np.ones_like(edge)) if w >= 0.0 else (np.zeros_like(edge), edge)
        return np.stack(ends, axis=-1)[..., None, :]

    def _check_matrix(self, X) -> np.ndarray:
        arr = np.asarray(X, dtype=float)
        if arr.ndim == 1:
            arr = arr[:, None]
        if arr.ndim != 2 or (self.dim is not None and arr.shape[1] != self.dim):
            raise DimensionMismatchError(
                f"expected points of dimension {self.dim}, got shape {np.shape(X)}"
            )
        return arr


@dataclass(frozen=True)
class ConstantScorer(Scorer):
    """Scores every point as the same probability."""

    p: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p <= 1.0:
            raise ValueError("constant score must lie in [0, 1]")

    def scores(self, X) -> np.ndarray:
        arr = np.asarray(X, dtype=float)
        n = arr.shape[0] if arr.ndim else 1
        return np.full(n, self.p)

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        return np.zeros(dim), float(logit(self.p))


class TrueEtaScorer(Scorer):
    """Exact conditional probability of a synthetic model; its decision rule
    is the model's own ``halfspace`` or ``superlevel_intervals``."""

    def __init__(self, model: GaussianModel | HolderModel) -> None:
        self.model = model
        self.dim = model.dim

    def scores(self, X) -> np.ndarray:
        return self.model.eta(self._check_matrix(X))

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        return self.model.halfspace(dim)

    def acceptance_intervals(self, deltas) -> np.ndarray:
        return self.model.superlevel_intervals(deltas)


class LogisticScorer(Scorer):
    """Sigmoid of an affine score: ``sigmoid(w . x + b)``."""

    def __init__(self, weights, intercept: float) -> None:
        w = np.atleast_1d(np.asarray(weights, dtype=float))
        if w.ndim != 1 or not np.all(np.isfinite(w)) or not np.isfinite(intercept):
            raise ValueError("weights and intercept must be finite")
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

    For 1-d training data the window sums are O(log n) per query via
    prefix sums of the first three moments, split by label, over the
    points in x order.  Any order of tied x gives the same numbers: windows
    start and end at tie-group edges, where each prefix sum is the same
    float, because a group adds identical rows (all points) or one row and
    zeros (positives).  Queries are looked up in sorted order.  The training
    arrays are kept by reference as ``train_x`` and ``train_y``.
    """

    def __init__(self, train_x, train_y, bandwidth: float) -> None:
        sample = Dataset(train_x, train_y)  # finite features, labels in {-1, +1}
        if sample.n == 0:
            raise EmptyDataError("kernel smoother needs training data")
        h = float(bandwidth)
        if not (h > 0.0 and 0.0 < h * h < math.inf):
            raise ValueError(f"bandwidth must be positive with a finite square, got {h!r}")
        self.train_x = X = sample.features
        self.train_y = y = sample.labels
        self.bandwidth = h
        self.dim = sample.dim
        self.global_rate = float(np.clip((y == 1).mean(), KERNEL_CLIP, 1 - KERNEL_CLIP))
        if self.dim == 1:
            order = np.argsort(X[:, 0])
            x = X[order, 0]
            pos = (y[order] == 1).astype(float)
            self._x = x
            self._moments = self._prefix_moments(x, np.ones_like(x))
            self._pos_moments = self._prefix_moments(x, pos)

    @staticmethod
    def _prefix_moments(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
        """Prefix sums of mask * (1, x, x^2), padded with a leading zero row."""
        stacked = np.stack([mask, mask * x, mask * x * x], axis=1)
        out = np.zeros((x.size + 1, 3))
        np.cumsum(stacked, axis=0, out=out[1:])
        return out

    def _window_sum(self, moments: np.ndarray, lo, hi, q: np.ndarray):
        """Sum of Epanechnikov weights over ranks [lo, hi) at queries q,
        ``s0 (1 - q^2 / h^2) + s1 (2 q / h^2) - s2 / h^2``, and the window
        moments ``(s0, s1, s2)`` from the same gather."""
        h2 = self.bandwidth**2
        # take gathers rows faster than fancy indexing does
        s0, s1, s2 = (moments.take(hi, axis=0) - moments.take(lo, axis=0)).T
        return s0 * (1.0 - q * q / h2) + s1 * (2.0 * q / h2) - s2 / h2, (s0, s1, s2)

    def _window(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rank range ``[lo, hi)`` of the training points within h of each query."""
        lo = np.searchsorted(self._x, q - self.bandwidth, side="left")
        hi = np.searchsorted(self._x, q + self.bandwidth, side="right")
        return lo, hi

    def _estimate(self, num: np.ndarray, den: np.ndarray) -> np.ndarray:
        """``num / den``, the global rate where ``den`` vanishes, clipped."""
        out = np.full(den.shape, self.global_rate)
        ok = den > _KERNEL_MIN_WEIGHT
        out[ok] = num[ok] / den[ok]
        return np.clip(out, KERNEL_CLIP, 1 - KERNEL_CLIP)

    def scores(self, X) -> np.ndarray:
        arr = self._check_matrix(X)
        if self.dim == 1:
            order = np.argsort(arr[:, 0])
            q = arr[order, 0]
            lo, hi = self._window(q)
            out = np.empty(q.size)
            out[order] = self._estimate(self._window_sum(self._pos_moments, lo, hi, q)[0],
                                        self._window_sum(self._moments, lo, hi, q)[0])
            return out
        den = np.empty(arr.shape[0])
        num = np.empty(arr.shape[0])
        pos = (self.train_y == 1).astype(float)
        chunk = max(1, 2**22 // self.train_x.shape[0])
        for start in range(0, arr.shape[0], chunk):
            block = arr[start : start + chunk]
            d2 = ((block[:, None, :] - self.train_x[None, :, :]) ** 2).sum(axis=2)
            w = np.maximum(0.0, 1.0 - d2 / self.bandwidth**2)
            den[start : start + block.shape[0]] = w.sum(axis=1)
            num[start : start + block.shape[0]] = w @ pos
        return self._estimate(num, den)

    def acceptance_intervals(self, deltas) -> np.ndarray:
        """The 1-d acceptance sets, exactly, padded with ``(1, 1)`` rows.

        Between consecutive breakpoints ``x_i - h`` and ``x_i + h`` the window
        holds fixed points, so the weight sums ``num(q)`` and ``den(q)`` are
        quadratics in q.  Cutting each piece at the roots of ``num - delta
        den`` and of ``den - 1e-12`` leaves sub-intervals on which the
        score's side of delta cannot change; the score at each midpoint
        decides it, global-rate fallback and clipping included.  A piece no
        root cuts keeps the midpoint and window that gave its quadratics, so
        the sums gathered there decide it; only cut pieces are rescored.  All
        but the roots of ``num - delta den`` and what they cut is built once.
        """
        if self.dim != 1:
            return super().acceptance_intervals(deltas)
        deltas = np.asarray(deltas, dtype=float)
        h = self.bandwidth
        breaks = np.concatenate([self._x - h, self._x + h])
        edges = np.unique(np.concatenate([[0.0, 1.0], breaks[(breaks > 0.0) & (breaks < 1.0)]]))
        left, right = edges[:-1], edges[1:]
        mid = 0.5 * (left + right)
        lo, hi = self._window(mid)
        (den_mid, den), (num_mid, num) = (self._window_sum(m, lo, hi, mid)
                                          for m in (self._moments, self._pos_moments))
        h2 = self.bandwidth**2
        den, num = (np.stack([-s0 / h2, 2.0 * s1 / h2, s0 - s2 / h2]) for s0, s1, s2 in (den, num))
        floor_roots = _roots_inside(den - np.array([[0.0], [0.0], [_KERNEL_MIN_WEIGHT]]),
                                    left, right)
        estimate = self._estimate(num_mid, den_mid)
        pieces = np.arange(left.size)

        def cut(delta: float) -> np.ndarray:
            roots = np.unique(np.concatenate([*_roots_inside(num - delta * den, left, right),
                                              *floor_roots]))
            piece = np.searchsorted(edges, roots) - 1  # the one piece each root cuts
            cuts = np.insert(edges, piece + 1, roots)
            accepted = np.insert(estimate > delta, piece + 1, False)
            redo = np.isin(np.insert(pieces, piece + 1, piece), piece)
            accepted[redo] = self.scores(0.5 * (cuts[:-1] + cuts[1:])[redo]) > delta
            change = np.diff(np.concatenate([[0], accepted.astype(np.int8), [0]]))
            return np.column_stack([cuts[change == 1], cuts[change == -1]])

        found = [cut(delta) for delta in deltas.ravel()]
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
    """Newton fit diagnostics; ``nll_path`` holds accepted objective values."""

    weights: np.ndarray
    intercept: float
    iterations: int
    grad_norm: float
    converged: bool
    nll_path: tuple[float, ...] = field(default_factory=tuple)


def _mean_nll(margins: np.ndarray) -> float:
    """Mean logistic loss log(1 + exp(-margin)), computed stably."""
    return float(np.logaddexp(0.0, -margins).mean())


def fit_logistic_mle(
    data: Dataset, tol: float = 1e-10, max_iter: int = 100
) -> tuple[LogisticScorer, LogisticFitReport]:
    """Maximum-likelihood logistic fit by damped Newton iterations.

    Uses a ridge of 1e-8 on the Hessian and halves the step while the mean
    negative log-likelihood increases.  Converged means the mean-gradient
    infinity norm dropped to ``tol``.  Diverging weights signal separable
    data; a Hessian that stays singular past the ridge signals a
    rank-deficient design.
    """
    if data.n == 0:
        raise EmptyDataError("cannot fit a logistic model on no data")
    if not ((data.labels == 1).any() and (data.labels == -1).any()):
        raise ValueError("logistic fit needs both labels present")
    if data.n <= data.dim:
        raise ValueError(f"need n > d, got n={data.n}, d={data.dim}")
    X = np.column_stack([data.features, np.ones(data.n)])
    y = data.labels.astype(float)
    t = (y + 1.0) / 2.0
    theta = np.zeros(X.shape[1])
    diagonal = np.diag_indices(X.shape[1])
    margins = np.zeros(data.n)
    nll = _mean_nll(margins)
    nll_path = [nll]
    grad_norm = math.inf
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p = expit(X @ theta)
        grad = X.T @ (p - t) / data.n
        grad_norm = float(np.abs(grad).max())
        if grad_norm <= tol:
            converged = True
            iterations -= 1
            break
        curvature = p * (1.0 - p)
        hessian = (X.T * curvature) @ X / data.n
        hessian[diagonal] += _RIDGE
        try:
            step = np.linalg.solve(hessian, grad)
        except np.linalg.LinAlgError as exc:
            raise DegenerateDesignError(
                "Hessian is singular beyond the ridge; features are degenerate"
            ) from exc
        scale = 1.0
        for _ in range(30):
            candidate = theta - scale * step
            cand_nll = _mean_nll(y * (X @ candidate))
            if cand_nll <= nll:
                break
            scale *= 0.5
        else:
            break
        theta = candidate
        nll = cand_nll
        nll_path.append(nll)
        if float(np.abs(theta).max()) > _WEIGHT_NORM_LIMIT:
            raise SeparableDataError(
                "weights diverged past 1e6; data looks linearly separable"
            )
    else:
        p = expit(X @ theta)
        grad_norm = float(np.abs(X.T @ (p - t) / data.n).max())
        converged = grad_norm <= tol
    scorer = LogisticScorer(theta[:-1], float(theta[-1]))
    report = LogisticFitReport(
        weights=scorer.weights,
        intercept=scorer.intercept,
        iterations=iterations,
        grad_norm=grad_norm,
        converged=converged,
        nll_path=tuple(nll_path),
    )
    return scorer, report


def fit_kernel_smoother(
    data: Dataset, beta: float, bandwidth_const: float = 1.0
) -> KernelScorer:
    """Kernel conditional-probability fit with rate-optimal bandwidth.

    The bandwidth is ``bandwidth_const * n**(-1 / (2 beta + d))`` for
    nominal smoothness ``beta``.
    """
    if data.n == 0:
        raise EmptyDataError("cannot fit a kernel smoother on no data")
    if data.n < 10:
        raise ValueError("kernel smoother needs n >= 10")
    if not 0.0 < beta < math.inf:
        raise ValueError(f"beta must be positive and finite, got {beta!r}")
    if not 0.0 < bandwidth_const < math.inf:
        raise ValueError(f"bandwidth_const must be positive and finite, got {bandwidth_const!r}")
    h = bandwidth_const * data.n ** (-1.0 / (2.0 * beta + data.dim))
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
    if isinstance(scorer, TrueEtaScorer):
        return {"kind": "true-eta", "model": scorer.model.to_dict()}
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
        return TrueEtaScorer(model_from_dict(payload["model"]))
    if kind == "kernel":
        require_fields(payload, "kernel scorer", ("x", "y", "bandwidth"))
        return KernelScorer(number_field(payload, "x", 2), number_field(payload, "y", 1),
                            number_field(payload, "bandwidth"))
    raise ValueError(f"unknown scorer kind {kind!r}")
