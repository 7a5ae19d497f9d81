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
  sets of the sine curve are explicit arcsin intervals, and eta has a
  closed-form integral over any interval, so its population confusion is
  also exact.

Each model class holds everything model-specific: ``sample(n, seed)``,
``eta(X)``, ``draw_features(rng, k)`` for Monte-Carlo evaluation,
``classifier_confusion(scorer, delta)`` for the exact population confusion
of a score rule, and ``population_confusion(deltas)``, the same computation
on eta's own rule for many thresholds at once.  The Gaussian rule is a
half-space (``halfspace``), whose mass is a normal tail; the Holder rule is
a set of intervals of [0, 1] (``acceptance_intervals`` of a 1-d scorer,
``superlevel_intervals`` of the model), which one integrator integrates.
The free names ``sample_gaussian`` and ``sample_holder`` are the
``sample`` methods, called with the model as first argument.

Sampling uses one named child stream per role (labels, features) spawned
from the seed, so datasets are bit-reproducible and independent of
generation order.

The Gaussian closed forms and the logistic scorer need ``expit``, ``logit``
and ``ndtr``.  They are defined here as thin wrappers that import
``scipy.special`` (about 0.2 s) on first call, so the Holder model, the
kernel scorer and every command that touches neither never load scipy.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .confusion import Dataset
from .errors import (
    BoundaryThresholdError,
    DegenerateDistributionError,
    DimensionMismatchError,
    ModeUnsupportedError,
)

__all__ = [
    "GaussianModel",
    "HolderModel",
    "sample_gaussian",
    "sample_holder",
    "gaussian_halfspace_confusion",
    "model_from_dict",
]

_SINE_AMPLITUDE = 0.45
_TWO_PI = 2.0 * math.pi


# scipy's own ufuncs compute every value: numpy or math forms of these
# functions are not bit-identical to them.
def expit(x):
    """``scipy.special.expit``: the logistic sigmoid ``1 / (1 + exp(-x))``."""
    from scipy.special import expit as ufunc

    return ufunc(x)


def logit(p):
    """``scipy.special.logit``: ``log(p / (1 - p))``."""
    from scipy.special import logit as ufunc

    return ufunc(p)


def ndtr(z):
    """``scipy.special.ndtr``: the standard normal CDF."""
    from scipy.special import ndtr as ufunc

    return ufunc(z)


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

        eta is the affine rule :meth:`halfspace`, so this is
        :func:`gaussian_halfspace_confusion` at the true ``(mu, logit(kappa))``:
        shape ``deltas.shape + (4,)``, every delta strictly inside (0, 1).
        """
        deltas = _open_unit_thresholds(deltas)
        if self.margin_norm == 0.0:
            raise DegenerateDistributionError(
                "closed-form confusion needs separated class means (|mu| > 0)"
            )
        return gaussian_halfspace_confusion(self, *self.halfspace(self.dim), deltas)

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        """``(mu, logit(kappa))``: eta is ``sigmoid(mu.x + logit(kappa))``."""
        return self.mu, float(logit(self.kappa))

    def superlevel_intervals(self, deltas) -> np.ndarray:
        """Raises ``ModeUnsupportedError``: eta lives on R^d, not on [0, 1]."""
        raise ModeUnsupportedError("the Gaussian eta has no acceptance intervals on [0, 1]")

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

    def population_confusion(self, deltas) -> np.ndarray:
        """Exact population confusion of thresholding eta at each delta.

        It is :meth:`classifier_confusion` of eta itself: eta integrated over
        its own :meth:`superlevel_intervals`.  Shape ``deltas.shape + (4,)``;
        every delta must lie strictly inside (0, 1).
        """
        return self._integrate(self.superlevel_intervals(_open_unit_thresholds(deltas)))

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        """Raises ``ModeUnsupportedError``: eta is not an affine score rule."""
        raise ModeUnsupportedError("the Holder eta is not an affine score rule")

    def superlevel_intervals(self, deltas) -> np.ndarray:
        """``{x in [0, 1] : eta(x) > delta}`` for each delta, as two sorted
        ``(a, b)`` rows: shape ``deltas.shape + (2, 2)``.

        An absent piece is a zero-width row.  Under the sine tag the set is
        the arc ``(asin(level), pi - asin(level)) / 2 pi`` of the period, with
        ``level = (delta - 0.5) / 0.45`` clipped to [-1, 1]; a negative left
        end wraps the arc into ``[0, b]`` and ``[a + 1, 1]``.
        """
        deltas = np.asarray(deltas, dtype=float)
        pieces = np.ones(deltas.shape + (2, 2))
        if self.eta_tag == "flat":
            pieces[..., 0, 0] = 0.0
            pieces[..., 0, 1] = deltas < 0.5
            return pieces
        theta = np.arcsin(np.clip((deltas - 0.5) / _SINE_AMPLITUDE, -1.0, 1.0))
        x_lo = theta / _TWO_PI
        np.maximum(x_lo, 0.0, out=pieces[..., 0, 0])
        pieces[..., 0, 1] = (math.pi - theta) / _TWO_PI
        np.minimum(x_lo + 1.0, 1.0, out=pieces[..., 1, 0])
        return pieces

    def classifier_confusion(self, scorer, delta: float) -> np.ndarray:
        """Exact population confusion of ``predict +1 iff scorer(x) > delta``:
        eta integrated over the scorer's ``acceptance_intervals``, the set
        ``{x : score(x) > delta}`` as intervals of [0, 1].

        A scorer without intervals raises ``ModeUnsupportedError``.
        """
        if scorer.dim not in (None, 1):
            raise DimensionMismatchError(
                f"the Holder model is 1-d; the scorer expects dimension {scorer.dim}"
            )
        return self._integrate(scorer.acceptance_intervals(delta))

    def _integrate(self, pieces: np.ndarray) -> np.ndarray:
        """``(TP, FP, FN, TN)`` of predicting +1 on the ``(..., k, 2)`` interval
        rows, shape ``(..., 4)``.  The positive mass over ``[a, b]`` is half
        its length plus, for the sine tag, ``0.45 (cos 2 pi a - cos 2 pi b) / 2 pi``;
        both tags put half of the unit mass on each label.
        """
        mass = (pieces[..., 1] - pieces[..., 0]).sum(axis=-1)
        tp = 0.5 * mass
        if self.eta_tag == "sine":
            ends = np.cos(_TWO_PI * pieces)
            tp += _SINE_AMPLITUDE / _TWO_PI * (ends[..., 0] - ends[..., 1]).sum(axis=-1)
        # filled in place: np.stack costs more than the arithmetic at one delta
        out = np.empty(np.shape(tp) + (4,))
        out[..., 0] = tp
        out[..., 1] = mass - tp
        out[..., 2:] = 0.5 - out[..., :2]
        return out


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
        kind = ("a number", "a list of numbers", "a list of rows of numbers")[ndim]
        raise ValueError(f"field {name!r} must be {kind}, got {reprlib.repr(payload[name])}")
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


def _open_unit_thresholds(deltas) -> np.ndarray:
    """``deltas`` as a float array, each strictly inside (0, 1): a threshold at
    0 or 1 raises ``BoundaryThresholdError``, any other outside ``ValueError``."""
    deltas = np.asarray(deltas, dtype=float)
    if not ((deltas > 0.0) & (deltas < 1.0)).all():
        if ((deltas == 0.0) | (deltas == 1.0)).any():
            raise BoundaryThresholdError("population confusion needs delta in (0, 1)")
        raise ValueError("delta must lie in (0, 1)")
    return deltas


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
