"""Confusion-matrix utilities: values, analytic gradients, Karmic functionals.

A metric is a smooth function ``G(C)`` of the confusion vector
``C = (TP, FP, FN, TN)``.  With ``P = TP + FN`` and ``N = FP + TN`` the
registered closed forms are

    accuracy   TP + TN
    am         (TPR + TNR) / 2
    youden     TPR + TNR - 1
    fbeta      (1 + b^2) TP / ((1 + b^2) TP + FP + b^2 FN)
    gmean      sqrt(TPR * TNR)
    qmean      1 - sqrt((FNR^2 + FPR^2) / 2)
    hmean      2 / (1/TPR + 1/TNR)
    jaccard    TP / (TP + FP + FN)

where TPR = TP/P, TNR = TN/N, FNR = 1-TPR, FPR = 1-TNR.  Arbitrary ratios
``a.C / b.C`` are available as :class:`LinearFractional`.

Two contractions of the gradient drive everything downstream:

* ``karmic_sensitivity``: grad(G) . (1, -1, -1, 1), the improvement rate for
  moving probability mass from errors to correct cells.  A metric is useful
  for threshold search where this is strictly positive.
* ``threshold_map``: grad(G) . (0, -1, 0, 1) divided by the sensitivity.
  For a population confusion curve C(delta), the optimal threshold is the
  unique fixed point delta* = threshold_map(C(delta*)).

The single-point functions accept any length-4 float sequence.  All
gradients are hand-derived closed forms; finite differences are used only
as a test oracle.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import MetricDomainError, NonKarmicPointError

__all__ = [
    "DOMAIN_EPS",
    "KARMIC_DIRECTION",
    "LinearFractional",
    "SmoothClosedForm",
    "MetricSpec",
    "registered_metrics",
    "parse_metric",
    "metric_value",
    "metric_gradient",
    "metric_values_masked",
    "metric_gradients_masked",
    "karmic_sensitivity",
    "threshold_map",
]

logger = logging.getLogger(__name__)

# Denominators smaller than this are treated as outside the metric's domain.
DOMAIN_EPS = 1e-12

KARMIC_DIRECTION = np.array([1.0, -1.0, -1.0, 1.0])
_NUMERATOR_DIRECTION = np.array([0.0, -1.0, 0.0, 1.0])

_SMOOTH_TAGS = ("accuracy", "am", "youden", "fbeta", "gmean", "qmean", "hmean", "jaccard")


@dataclass(frozen=True)
class LinearFractional:
    """Ratio utility ``a.C / b.C`` over ``C = (TP, FP, FN, TN)``."""

    a: tuple[float, float, float, float]
    b: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for name, coeffs in (("a", self.a), ("b", self.b)):
            if len(coeffs) != 4:
                raise ValueError(f"coefficient vector {name} must have 4 entries")
        object.__setattr__(self, "a", tuple(float(v) for v in self.a))
        object.__setattr__(self, "b", tuple(float(v) for v in self.b))


@dataclass(frozen=True)
class SmoothClosedForm:
    """A named closed-form metric; ``beta`` only applies to the fbeta tag."""

    tag: str
    beta: float = 1.0

    def __post_init__(self) -> None:
        if self.tag not in _SMOOTH_TAGS:
            raise ValueError(f"unknown metric tag {self.tag!r}")
        if self.tag == "fbeta" and not self.beta > 0:
            raise ValueError("fbeta requires beta > 0")


@dataclass(frozen=True)
class MetricSpec:
    """A named metric and its evaluation kind."""

    name: str
    kind: LinearFractional | SmoothClosedForm


def _fractional_coefficients(kind) -> tuple[np.ndarray, np.ndarray] | None:
    """(a, b) for kinds that reduce to a linear-fractional form."""
    if isinstance(kind, LinearFractional):
        return np.array(kind.a), np.array(kind.b)
    if kind.tag == "fbeta":
        b2 = kind.beta**2
        return np.array([1.0 + b2, 0.0, 0.0, 0.0]), np.array([1.0 + b2, 1.0, b2, 0.0])
    if kind.tag == "jaccard":
        return np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, 1.0, 1.0, 0.0])
    return None


def _evaluate(spec: MetricSpec, C: np.ndarray, with_grad: bool):
    """Vectorized core: values, optional gradients, and the domain mask.

    ``C`` has shape (..., 4).  Entries at invalid points are NaN in the
    value array and unspecified in the gradient array.  The domain is
    chosen so that the gradient is finite everywhere the value is defined.
    """
    C = np.asarray(C, dtype=float)
    if C.shape[-1] != 4:
        raise ValueError("confusion arrays must have 4 trailing entries")
    c1, c2, c3, c4 = (C[..., i] for i in range(4))
    grad = np.zeros_like(C) if with_grad else None

    coeffs = _fractional_coefficients(spec.kind)
    if coeffs is not None:
        a, b = coeffs
        ac = C @ a
        bc = C @ b
        valid = np.abs(bc) >= DOMAIN_EPS
        safe = np.where(valid, bc, 1.0)
        value = np.where(valid, ac / safe, np.nan)
        if with_grad:
            grad = (a * safe[..., None] - b * ac[..., None]) / (safe**2)[..., None]
        return value, grad, valid

    tag = spec.kind.tag
    if tag == "accuracy":
        value = c1 + c4
        valid = np.ones(value.shape, dtype=bool)
        if with_grad:
            grad[..., 0] = 1.0
            grad[..., 3] = 1.0
        return value, grad, valid

    # the remaining tags are built from the class-conditional rates
    P = c1 + c3
    N = c2 + c4
    valid = (P >= DOMAIN_EPS) & (N >= DOMAIN_EPS)
    Ps = np.where(valid, P, 1.0)
    Ns = np.where(valid, N, 1.0)
    tpr = c1 / Ps
    tnr = c4 / Ns
    # d(TPR)/dC = (c3, 0, -c1, 0)/P^2 and d(TNR)/dC = (0, -c4, 0, c2)/N^2
    if tag in ("am", "youden"):
        scale = 0.5 if tag == "am" else 1.0
        value = scale * (tpr + tnr) - (0.0 if tag == "am" else 1.0)
        if with_grad:
            grad[..., 0] = scale * c3 / Ps**2
            grad[..., 1] = -scale * c4 / Ns**2
            grad[..., 2] = -scale * c1 / Ps**2
            grad[..., 3] = scale * c2 / Ns**2
    elif tag == "gmean":
        valid = valid & (c1 >= DOMAIN_EPS) & (c4 >= DOMAIN_EPS)
        prod = np.where(valid, tpr * tnr, 1.0)
        value = np.sqrt(prod)
        if with_grad:
            half = 0.5 / value
            grad[..., 0] = half * tnr * c3 / Ps**2
            grad[..., 1] = -half * tpr * c4 / Ns**2
            grad[..., 2] = -half * tnr * c1 / Ps**2
            grad[..., 3] = half * tpr * c2 / Ns**2
    elif tag == "qmean":
        fnr = c3 / Ps
        fpr = c2 / Ns
        msq = 0.5 * (fnr**2 + fpr**2)
        valid = valid & (msq >= DOMAIN_EPS**2)
        r = np.sqrt(np.where(valid, msq, 1.0))
        value = 1.0 - r
        if with_grad:
            half = 0.5 / r
            grad[..., 0] = half * fnr * c3 / Ps**2
            grad[..., 1] = -half * fpr * c4 / Ns**2
            grad[..., 2] = -half * fnr * c1 / Ps**2
            grad[..., 3] = half * fpr * c2 / Ns**2
    elif tag == "hmean":
        s = tpr + tnr
        valid = valid & (s >= DOMAIN_EPS)
        ss = np.where(valid, s, 1.0)
        value = 2.0 * tpr * tnr / ss
        if with_grad:
            # chain rule through dG/dTPR = 2 TNR^2 / s^2, dG/dTNR = 2 TPR^2 / s^2
            gt = 2.0 * tnr**2 / ss**2
            gu = 2.0 * tpr**2 / ss**2
            grad[..., 0] = gt * c3 / Ps**2
            grad[..., 1] = -gu * c4 / Ns**2
            grad[..., 2] = -gt * c1 / Ps**2
            grad[..., 3] = gu * c2 / Ns**2
    else:  # pragma: no cover - tags are validated at construction
        raise AssertionError(f"unhandled tag {tag!r}")

    value = np.where(valid, value, np.nan)
    return value, grad, valid


def metric_values_masked(spec: MetricSpec, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized values with a validity mask (NaN where invalid)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        value, _, valid = _evaluate(spec, C, with_grad=False)
    return value, valid


def metric_gradients_masked(spec: MetricSpec, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gradients with a validity mask."""
    with np.errstate(divide="ignore", invalid="ignore"):
        _, grad, valid = _evaluate(spec, C, with_grad=True)
    return grad, valid


def _single(c) -> np.ndarray:
    """One confusion vector (4 floats) as a (1, 4) array."""
    C = np.asarray(c, dtype=float)
    if C.shape != (4,):
        raise ValueError(f"expected 4 confusion entries, got shape {C.shape}")
    return C[None, :]


def metric_value(spec: MetricSpec, c) -> float:
    """G(C) at a single confusion vector; raises on domain violations."""
    value, valid = metric_values_masked(spec, _single(c))
    if not valid[0]:
        raise MetricDomainError(
            f"{spec.name}: confusion matrix outside the metric's domain "
            f"(a defining denominator is below {DOMAIN_EPS})"
        )
    return float(value[0])


def metric_gradient(spec: MetricSpec, c) -> np.ndarray:
    """Closed-form gradient of G at ``c`` as a length-4 array."""
    grad, valid = metric_gradients_masked(spec, _single(c))
    if not valid[0]:
        raise MetricDomainError(
            f"{spec.name}: gradient undefined at this confusion matrix"
        )
    return grad[0]


def karmic_sensitivity(spec: MetricSpec, c) -> float:
    """grad(G) . (1, -1, -1, 1): the error-to-correct improvement rate."""
    return float(metric_gradient(spec, c) @ KARMIC_DIRECTION)


def threshold_map(spec: MetricSpec, c) -> float:
    """The gradient ratio whose fixed point is the optimal threshold.

    Raises :class:`NonKarmicPointError` where the sensitivity is not
    strictly positive.  Values outside [0, 1] (possible only by numerical
    noise) are clamped and logged.
    """
    grad = metric_gradient(spec, c)
    denominator = float(grad @ KARMIC_DIRECTION)
    if denominator <= 0.0:
        raise NonKarmicPointError(
            f"{spec.name}: karmic sensitivity {denominator:.3g} is not positive"
        )
    value = float(grad @ _NUMERATOR_DIRECTION) / denominator
    if value < -1e-9 or value > 1.0 + 1e-9:
        logger.warning("threshold map %.6g for %s outside [0, 1]; clamping", value, spec.name)
    return min(max(value, 0.0), 1.0)


def registered_metrics() -> tuple[MetricSpec, ...]:
    """The eight built-in metrics (fbeta at beta=1, jaccard as the ratio example)."""
    return (
        MetricSpec("accuracy", SmoothClosedForm("accuracy")),
        MetricSpec("am", SmoothClosedForm("am")),
        MetricSpec("youden", SmoothClosedForm("youden")),
        MetricSpec("fbeta:1", SmoothClosedForm("fbeta", beta=1.0)),
        MetricSpec("gmean", SmoothClosedForm("gmean")),
        MetricSpec("qmean", SmoothClosedForm("qmean")),
        MetricSpec("hmean", SmoothClosedForm("hmean")),
        MetricSpec("jaccard", SmoothClosedForm("jaccard")),
    )


def parse_metric(name: str) -> MetricSpec:
    """Parse a metric name string.

    Grammar: ``accuracy | am | youden | gmean | qmean | hmean | jaccard |
    fbeta:<beta> | linfrac:<a1,a2,a3,a4>/<b1,b2,b3,b4>``.
    """
    text = name.strip().lower()
    if text in ("accuracy", "am", "youden", "gmean", "qmean", "hmean", "jaccard"):
        return MetricSpec(text, SmoothClosedForm(text))
    if text == "fbeta":
        return MetricSpec("fbeta:1", SmoothClosedForm("fbeta", beta=1.0))
    if text.startswith("fbeta:"):
        try:
            beta = float(text.split(":", 1)[1])
        except ValueError as exc:
            raise ValueError(f"bad fbeta parameter in {name!r}") from exc
        if not beta > 0:
            raise ValueError("fbeta requires beta > 0")
        return MetricSpec(f"fbeta:{beta:g}", SmoothClosedForm("fbeta", beta=beta))
    if text.startswith("linfrac:"):
        body = text.split(":", 1)[1]
        parts = body.split("/")
        if len(parts) != 2:
            raise ValueError(f"linfrac needs <a>/<b> coefficient lists, got {name!r}")
        try:
            a = tuple(float(v) for v in parts[0].split(","))
            b = tuple(float(v) for v in parts[1].split(","))
        except ValueError as exc:
            raise ValueError(f"bad linfrac coefficients in {name!r}") from exc
        if len(a) != 4 or len(b) != 4:
            raise ValueError("linfrac coefficient lists must have 4 entries each")
        return MetricSpec(text, LinearFractional(a, b))
    raise ValueError(f"unknown metric name {name!r}")
