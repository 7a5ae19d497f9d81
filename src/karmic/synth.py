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
``eta(X)``, ``draw_features(rng, k)`` for Monte-Carlo evaluation, and
``classifier_confusion(scorer, deltas)``, its one exact evaluator: the
population confusion of a score rule at every threshold of a batch, shape
``deltas.shape + (4,)``; the true eta (``TrueEtaScorer``) gives the
population curve.  The Gaussian rule is a half-space (``halfspace``), whose
mass is a normal tail; the Holder rule is the padded block of intervals of
[0, 1] that a 1-d scorer's ``acceptance_intervals`` returns, which one
integrator integrates.  ``sample_gaussian`` and ``sample_holder`` are the
``sample`` methods, called with the model as first argument.

Sampling uses one named child stream per role (labels, features) spawned
from the seed, so datasets are bit-reproducible and independent of
generation order.

The Gaussian closed forms and the affine scorers need ``expit``, ``logit``
and ``ndtr``: thin wrappers here that import ``scipy.special`` (about 0.2 s)
on first call, so the Holder model with a kernel or its true eta, and every
command that touches no affine rule, never load scipy.
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .confusion import Dataset
from .errors import DimensionMismatchError, ModeUnsupportedError

__all__ = [
    "GaussianModel",
    "HolderModel",
    "sample_gaussian",
    "sample_holder",
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

    ``kappa`` is the positive-class prior.  ``mu`` may be zero: eta is then
    the constant ``kappa`` (pure-noise labels).
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

    def halfspace(self, dim: int) -> tuple[np.ndarray, float]:
        """``(mu, logit(kappa))``: eta is ``sigmoid(mu.x + logit(kappa))``."""
        return self.mu, float(logit(self.kappa))

    def superlevel_intervals(self, deltas) -> np.ndarray:
        """Raises ``ModeUnsupportedError``: eta lives on R^d, not on [0, 1]."""
        raise ModeUnsupportedError("the Gaussian eta has no acceptance intervals on [0, 1]")

    def classifier_confusion(self, scorer, deltas) -> np.ndarray:
        """Exact population confusion of ``predict +1 iff scorer(x) > delta``
        at each delta in [0, 1]: ``(TP, FP, FN, TN)`` rows of shape
        ``deltas.shape + (4,)``.

        The scorer's ``halfspace`` gives its affine rule ``sigmoid(w.x + b)``
        (a scorer without one raises ``ModeUnsupportedError``), so the rule
        is the half-space ``w.x > logit(delta) - b``; within class y the
        projection ``w.x`` is ``N(y w.mu / 2, |w|^2)``, so each entry is a
        normal tail.  A near-zero ``w`` is a constant rule, decided as
        ``predict`` decides it: +1 iff the score (at the origin) exceeds delta.
        """
        deltas = unit_thresholds(deltas)
        w, b = scorer.halfspace(self.dim)
        if np.shape(w) != (self.dim,):
            raise DimensionMismatchError(
                f"weight dimension {np.shape(w)} does not match model dimension {self.dim}")
        kappa = self.kappa
        norm = float(np.linalg.norm(w))
        if norm < 1e-12:
            rate_pos = rate_neg = np.where(scorer.score(np.zeros(self.dim)) > deltas, 1.0, 0.0)
        else:
            cut = logit(deltas) - b
            shift = 0.5 * float(w @ self.mu)
            rate_pos = ndtr((shift - cut) / norm)
            rate_neg = ndtr((-shift - cut) / norm)
        return np.stack([kappa * rate_pos, (1 - kappa) * rate_neg,
                         kappa * (1 - rate_pos), (1 - kappa) * (1 - rate_neg)], axis=-1)


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

    def classifier_confusion(self, scorer, deltas) -> np.ndarray:
        """Exact population confusion of ``predict +1 iff scorer(x) > delta``
        at each delta in [0, 1], shape ``deltas.shape + (4,)``: eta integrated
        over the scorer's ``acceptance_intervals`` (a scorer without them
        raises ``ModeUnsupportedError``).  The positive mass over ``[a, b]``
        is half its length plus, for the sine tag, ``0.45 (cos 2 pi a - cos 2
        pi b) / 2 pi``; both tags put half of the unit mass on each label.
        """
        deltas = unit_thresholds(deltas)
        if scorer.dim not in (None, 1):
            raise DimensionMismatchError(
                f"the Holder model is 1-d; the scorer expects dimension {scorer.dim}")
        pieces = scorer.acceptance_intervals(deltas)
        widths = pieces[..., 1] - pieces[..., 0]
        mass = _sum_pieces(widths, widths != 0.0)
        tp = 0.5 * mass
        if self.eta_tag == "sine":
            ends = np.cos(_TWO_PI * pieces)
            tp += _SINE_AMPLITUDE / _TWO_PI * _sum_pieces(ends[..., 0] - ends[..., 1],
                                                          widths != 0.0)
        # filled in place: np.stack costs more than the arithmetic at one delta
        out = np.empty(np.shape(tp) + (4,))
        out[..., 0] = tp
        out[..., 1] = mass - tp
        out[..., 2:] = 0.5 - out[..., :2]
        return out


def unit_thresholds(deltas) -> np.ndarray:
    """``deltas`` as a float array; ValueError unless each lies in [0, 1]."""
    deltas = np.asarray(deltas, dtype=float)
    if not ((deltas >= 0.0) & (deltas <= 1.0)).all():
        raise ValueError("delta must lie in [0, 1]")
    return deltas


def _sum_pieces(values: np.ndarray, filled: np.ndarray) -> np.ndarray:
    """Each row's sum of its ``filled`` entries alone: numpy sums 8 or more
    entries pairwise, so zero-width rows padding a short row to 8 or more
    would move its bits (below 8 it adds in order, and a zero adds nothing)."""
    if values.shape[-1] < 8 or filled.all():
        return values.sum(axis=-1)
    rows = zip(values.reshape(-1, values.shape[-1]), filled.reshape(-1, values.shape[-1]))
    return np.array([v[f].sum() for v, f in rows]).reshape(values.shape[:-1])


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
    dimensions; a ValueError naming the field when it holds anything else,
    a boolean or a string included, which numpy would read as a number."""
    raw = payload[name]
    try:
        value = np.asarray(raw, dtype=float)
    except (TypeError, ValueError):
        value = None
    if value is None or value.ndim != ndim or not _numbers_only(raw, ndim):
        kind = ("a number", "a list of numbers", "a list of rows of numbers")[ndim]
        raise ValueError(f"field {name!r} must be {kind}, got {reprlib.repr(payload[name])}")
    return float(value) if ndim == 0 else value


def _numbers_only(raw, ndim: int) -> bool:
    """Whether every entry of ``raw``, nested ``ndim`` deep, is a number."""
    items = [raw]
    for _ in range(ndim):
        items = chain.from_iterable(items)
    return all(issubclass(t, (int, float, np.integer, np.floating)) and t is not bool
               for t in set(map(type, items)))


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
