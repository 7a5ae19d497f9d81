"""Synthetic binary-classification models with analytic ground truth.

Two families:

* Gaussian two-class model: ``P(Y=+1) = kappa`` and ``X | Y = y`` drawn
  from ``N(y * mu / 2, I_d)``.  Bayes rule gives
  ``eta(x) = sigmoid(mu . x + logit(kappa))``, and because ``mu . X`` is
  univariate normal within each class every population confusion entry is
  a normal tail — closed forms below.
* One-dimensional smooth model on [0, 1]: ``X ~ Uniform[0,1]`` with a
  fixed conditional-probability curve (tag "sine":
  ``eta(x) = 0.5 + 0.45 sin(2 pi x)``; tag "flat": ``eta = 0.5``).  Level
  sets of the sine curve are explicit arcsin intervals, so its population
  confusion is also exact.

Each model class holds everything model-specific: ``sample(n, seed)``,
``eta(X)``, ``draw_features(rng, k)`` for Monte-Carlo evaluation,
``population_confusion(deltas)`` for thresholding the true eta, and
``classifier_confusion(scorer, delta)`` for the exact population confusion
of a fitted score rule: a half-space mass on the Gaussian model (affine
scorers hand over ``halfspace``), an integral of eta over intervals on the
Holder model (1-d scorers hand over ``acceptance_intervals``).  The free
names ``sample_gaussian`` and ``sample_holder`` are the ``sample`` methods,
called with the model as first argument.

Sampling uses one named child stream per role (labels, features) spawned
from the seed, so datasets are bit-reproducible and independent of
generation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logit, ndtr

from .confusion import Dataset
from .errors import (
    BoundaryThresholdError,
    DegenerateDistributionError,
    DimensionMismatchError,
    InsufficientMassError,
)

__all__ = [
    "GaussianModel",
    "HolderModel",
    "sample_gaussian",
    "sample_holder",
    "gaussian_halfspace_confusion",
    "margin_exponent_estimate",
    "model_from_dict",
]

_SINE_AMPLITUDE = 0.45
_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True, eq=False)
class GaussianModel:
    """Two spherical Gaussian classes at ``+mu/2`` and ``-mu/2``.

    ``kappa`` is the positive-class prior.  ``mu`` may be zero (pure-noise
    labels), but the closed-form confusion requires ``|mu| > 0``.
    """

    mu: np.ndarray
    kappa: float

    def __post_init__(self) -> None:
        mu = np.atleast_1d(np.asarray(self.mu, dtype=float))
        if mu.ndim != 1 or mu.size < 1 or not np.all(np.isfinite(mu)):
            raise ValueError("mu must be a finite 1-D vector")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "kappa", float(self.kappa))
        if not 0.0 < self.kappa < 1.0:
            raise ValueError("kappa must lie in (0, 1)")

    @property
    def dim(self) -> int:
        return int(self.mu.size)

    @property
    def margin_norm(self) -> float:
        """Euclidean separation ``|mu|`` between the class means."""
        return float(np.linalg.norm(self.mu))

    def to_dict(self) -> dict:
        return {"model": "gaussian", "mu": [float(v) for v in self.mu], "kappa": self.kappa}

    def sample(self, n: int, seed: int) -> Dataset:
        """Draw n labelled points from the Gaussian model, reproducibly."""
        if n < 1:
            raise ValueError("n must be >= 1")
        label_rng, feature_rng = _streams(seed)
        labels = np.where(label_rng.random(n) < self.kappa, 1, -1)
        features = feature_rng.standard_normal((n, self.dim))
        features += 0.5 * labels[:, None] * self.mu[None, :]
        return Dataset(features, labels)

    def eta(self, x) -> float | np.ndarray:
        """Exact P(Y=+1 | X=x) = sigmoid(mu . x + logit(kappa)).

        ``x`` is one point (returns a float) or a feature matrix.
        """
        arr = np.asarray(x, dtype=float)
        squeeze = arr.ndim == 1
        if squeeze:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise DimensionMismatchError(
                f"expected points of dimension {self.dim}, got shape {np.shape(x)}"
            )
        values = expit(arr @ self.mu + logit(self.kappa))
        return float(values[0]) if squeeze else values

    def draw_features(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k feature rows from the mixture, class memberships drawn first."""
        comp = rng.random(k) < self.kappa
        X = rng.standard_normal((k, self.dim))
        X += np.where(comp, 0.5, -0.5)[:, None] * self.mu[None, :]
        return X

    def population_confusion(self, deltas) -> np.ndarray:
        """Exact population confusion of thresholding the true eta at each delta.

        Vectorized like :func:`gaussian_halfspace_confusion`; every delta must
        lie strictly inside (0, 1).
        """
        deltas = np.asarray(deltas, dtype=float)
        if ((deltas == 0.0) | (deltas == 1.0)).any():
            raise BoundaryThresholdError("population confusion needs delta in (0, 1)")
        if not ((deltas > 0.0) & (deltas < 1.0)).all():
            raise ValueError("delta must lie in (0, 1)")
        if self.margin_norm == 0.0:
            raise DegenerateDistributionError(
                "closed-form confusion needs separated class means (|mu| > 0)"
            )
        return gaussian_halfspace_confusion(self, self.mu, float(logit(self.kappa)), deltas)

    def classifier_confusion(self, scorer, delta: float) -> np.ndarray:
        """Exact population confusion of ``predict +1 iff scorer(x) > delta``.

        The scorer's ``halfspace`` gives its affine rule ``sigmoid(w.x + b)``;
        a scorer without one raises ``ModeUnsupportedError``.
        """
        w, b = scorer.halfspace(self.dim)
        return gaussian_halfspace_confusion(self, w, b, delta)


@dataclass(frozen=True)
class HolderModel:
    """One-dimensional model on [0,1] with a fixed smooth eta curve."""

    eta_tag: str = "sine"

    def __post_init__(self) -> None:
        if self.eta_tag not in ("sine", "flat"):
            raise ValueError(f"unknown eta tag {self.eta_tag!r}; use 'sine' or 'flat'")

    @property
    def dim(self) -> int:
        return 1

    def to_dict(self) -> dict:
        return {"model": "holder", "eta_tag": self.eta_tag}

    def sample(self, n: int, seed: int) -> Dataset:
        """Draw n points with X ~ Uniform[0,1] and P(Y=+1|X) = eta(X)."""
        if n < 1:
            raise ValueError("n must be >= 1")
        label_rng, feature_rng = _streams(seed)
        x = feature_rng.random(n)
        labels = np.where(label_rng.random(n) < self.eta(x), 1, -1)
        return Dataset(x.reshape(-1, 1), labels)

    def eta(self, X) -> np.ndarray:
        """The eta curve at every point of X (a feature column or a 1-d array)."""
        x = np.reshape(np.asarray(X, dtype=float), -1)
        if self.eta_tag == "flat":
            return np.full_like(x, 0.5)
        return 0.5 + _SINE_AMPLITUDE * np.sin(_TWO_PI * x)

    def draw_features(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k uniform feature rows."""
        return rng.random((k, 1))

    def population_confusion(self, delta: float) -> np.ndarray:
        """Exact population confusion of thresholding eta at one delta.

        For the sine tag the super-level set {eta > delta} is one arc of the
        period, located by arcsin; the positive mass over any interval comes
        from the closed-form antiderivative of eta.  Returns ``(TP, FP, FN,
        TN)`` as a length-4 array.
        """
        if delta in (0.0, 1.0):
            raise BoundaryThresholdError("population confusion needs delta in (0, 1)")
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        pos_total = 0.5  # integral of eta over [0,1] for both tags
        if self.eta_tag == "flat":
            predicted = 1.0 if delta < 0.5 else 0.0
            tp = pos_total * predicted
            fp = (1.0 - pos_total) * predicted
            return np.array([tp, fp, pos_total - tp, (1.0 - pos_total) - fp])
        level = (delta - 0.5) / _SINE_AMPLITUDE
        if level >= 1.0:
            return np.array([0.0, 0.0, pos_total, 1.0 - pos_total])
        if level <= -1.0:
            return np.array([pos_total, 1.0 - pos_total, 0.0, 0.0])
        x_lo, x_hi = _sine_arc(level)
        # Super-level set on [0,1] is (x_lo, x_hi) shifted into the unit period:
        # for negative x_lo it wraps to [0, x_hi) and (x_lo + 1, 1].
        mass = x_hi - x_lo
        tp = _sine_antiderivative(x_hi) - _sine_antiderivative(x_lo)
        fp = mass - tp
        return np.array([tp, fp, pos_total - tp, (1.0 - pos_total) - fp])

    def superlevel_intervals(self, delta: float) -> np.ndarray:
        """``{x in [0, 1] : eta(x) > delta}`` as sorted disjoint ``(k, 2)`` rows."""
        if self.eta_tag == "flat":
            return np.array([[0.0, 1.0]]) if delta < 0.5 else np.empty((0, 2))
        level = (delta - 0.5) / _SINE_AMPLITUDE
        if level >= 1.0:
            return np.empty((0, 2))
        if level <= -1.0:
            return np.array([[0.0, 1.0]])
        x_lo, x_hi = _sine_arc(level)
        if x_lo < 0.0:
            return np.array([[0.0, x_hi], [x_lo + 1.0, 1.0]])
        return np.array([[x_lo, x_hi]])

    def classifier_confusion(self, scorer, delta: float) -> np.ndarray:
        """Exact population confusion of ``predict +1 iff scorer(x) > delta``.

        The scorer's ``acceptance_intervals`` give ``{x : score(x) > delta}``
        as intervals of [0, 1]; the positive mass over ``[a, b]`` is half its
        length plus, for the sine tag, ``0.45 (cos 2 pi a - cos 2 pi b) / 2 pi``.
        A scorer without intervals raises ``ModeUnsupportedError``.
        """
        if scorer.dim not in (None, 1):
            raise DimensionMismatchError(
                f"the Holder model is 1-d; the scorer expects dimension {scorer.dim}"
            )
        a, b = scorer.acceptance_intervals(delta).T
        mass = float((b - a).sum())
        tp = 0.5 * mass
        if self.eta_tag == "sine":
            swing = np.cos(_TWO_PI * a) - np.cos(_TWO_PI * b)
            tp += _SINE_AMPLITUDE / _TWO_PI * float(swing.sum())
        fp = mass - tp
        return np.array([tp, fp, 0.5 - tp, 0.5 - fp])


def require_fields(payload, what: str, fields: tuple[str, ...]) -> dict:
    """``payload`` if it is a JSON object holding ``fields``; else ValueError."""
    if not isinstance(payload, dict):
        raise ValueError(f"{what} must be a JSON object, got {type(payload).__name__}")
    missing = [name for name in fields if name not in payload]
    if missing:
        raise ValueError(f"{what} lacks the field(s) {', '.join(missing)}")
    return payload


def number_field(payload: dict, name: str, ndim: int = 0):
    """``payload[name]`` as a float (``ndim`` 0) or a float array of ``ndim``
    dimensions; a ValueError naming the field when it holds anything else."""
    try:
        value = np.asarray(payload[name], dtype=float)
    except (TypeError, ValueError):
        value = None
    if value is None or value.ndim != ndim:
        kind = "a number" if ndim == 0 else "a list of numbers"
        raise ValueError(f"field {name!r} must be {kind}, got {payload[name]!r}")
    return float(value) if ndim == 0 else value


def model_from_dict(payload) -> GaussianModel | HolderModel:
    """Inverse of ``to_dict``; a ``beta`` entry written by older versions is ignored."""
    tag = require_fields(payload, "model", ("model",))["model"]
    if tag == "gaussian":
        require_fields(payload, "gaussian model", ("mu", "kappa"))
        return GaussianModel(number_field(payload, "mu", 1), number_field(payload, "kappa"))
    if tag == "holder":
        return HolderModel(payload.get("eta_tag", "sine"))
    raise ValueError(f"unknown model {tag!r}; use 'gaussian' or 'holder'")


sample_gaussian = GaussianModel.sample
sample_holder = HolderModel.sample


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    label_seq, feature_seq = np.random.SeedSequence(int(seed)).spawn(2)
    return np.random.default_rng(label_seq), np.random.default_rng(feature_seq)


def gaussian_halfspace_confusion(
    model: GaussianModel, w: np.ndarray, b: float, deltas
) -> np.ndarray:
    """Population confusion of ``predict +1 iff sigmoid(w.x + b) > delta``.

    The rule is the half-space ``w.x > logit(delta) - b``; within class y
    the projection ``w.x`` is ``N(y w.mu / 2, |w|^2)``, so each entry is a
    normal tail.  A near-zero ``w`` is the constant rule ``logit(delta) <
    b``, so ``b = logit(p)`` predicts +1 iff ``p > delta``.  Returns
    ``(TP, FP, FN, TN)`` rows of shape ``deltas.shape + (4,)``.
    """
    deltas = np.asarray(deltas, dtype=float)
    if not ((deltas >= 0.0) & (deltas <= 1.0)).all():
        raise ValueError("delta must lie in [0, 1]")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    if w.shape != (model.dim,):
        raise DimensionMismatchError(
            f"weight dimension {w.shape} does not match model dimension {model.dim}"
        )
    kappa = model.kappa
    norm = float(np.linalg.norm(w))
    if norm < 1e-12:
        rate_pos = rate_neg = np.where(logit(deltas) < b, 1.0, 0.0)
    else:
        cut = logit(deltas) - b
        shift = 0.5 * float(w @ model.mu)
        rate_pos = ndtr((shift - cut) / norm)
        rate_neg = ndtr((-shift - cut) / norm)
    return np.stack([kappa * rate_pos, (1 - kappa) * rate_neg,
                     kappa * (1 - rate_pos), (1 - kappa) * (1 - rate_neg)], axis=-1)


def _sine_arc(level: float) -> tuple[float, float]:
    """Ends of the arc of the period where ``sin(2 pi x) > level``, for
    ``|level| < 1``; the left end is negative for a negative level."""
    theta = math.asin(level)
    return theta / _TWO_PI, (math.pi - theta) / _TWO_PI


def _sine_antiderivative(x: float) -> float:
    """Antiderivative of 0.5 + 0.45 sin(2 pi x)."""
    return 0.5 * x - _SINE_AMPLITUDE * math.cos(_TWO_PI * x) / _TWO_PI


def margin_exponent_estimate(eta_values, delta_star: float, t_grid) -> float:
    """Log-log slope of the mass of {0 < |eta - delta*| <= t} against t.

    A slope near alpha means the eta distribution puts mass ~ t^alpha in
    shrinking neighborhoods of the threshold (low-noise exponent).
    """
    eta_values = np.asarray(eta_values, dtype=float).ravel()
    if eta_values.size < 10_000:
        raise ValueError("need at least 1e4 eta draws for a stable estimate")
    t_grid = np.asarray(t_grid, dtype=float).ravel()
    limit = min(delta_star, 1.0 - delta_star)
    if t_grid.size < 2 or np.any(np.diff(t_grid) <= 0):
        raise ValueError("t_grid must be strictly increasing")
    if t_grid[0] <= 0.0 or t_grid[-1] >= limit:
        raise ValueError(f"t_grid must lie inside (0, {limit:.3g})")
    gaps = np.abs(eta_values - delta_star)
    gaps = gaps[gaps > 0.0]
    mass = np.array([(gaps <= t).mean() for t in t_grid]) * (gaps.size / eta_values.size)
    keep = mass > 0.0
    if keep.sum() < 3:
        raise InsufficientMassError(
            "fewer than 3 grid points carry mass near the threshold"
        )
    slope, _ = np.polyfit(np.log(t_grid[keep]), np.log(mass[keep]), 1)
    return float(slope)
