"""Confusion-matrix utilities: values, analytic gradients, Karmic functionals.

A metric is a smooth function ``G(C)`` of the confusion vector
``C = (TP, FP, FN, TN)``, with ``P = TP + FN`` and ``N = FP + TN``.  The
built-ins come in two families, plus ``accuracy = TP + TN``:

    ratios a.C / b.C (LinearFractional; also linfrac:a/b)
      fbeta    (1 + b^2) TP / ((1 + b^2) TP + FP + b^2 FN)
      jaccard  TP / (TP + FP + FN)
    G(TPR, TNR) with TPR = TP/P, TNR = TN/N (SmoothClosedForm)
      am       (TPR + TNR) / 2
      youden   TPR + TNR - 1
      gmean    sqrt(TPR * TNR)
      qmean    1 - sqrt((FNR^2 + FPR^2) / 2), FNR = 1-TPR, FPR = 1-TNR
      hmean    2 / (1/TPR + 1/TNR)

A ratio's gradient is ``(a (b.C) - b (a.C)) / (b.C)^2``.  A rate metric
gives only dG/dTPR and dG/dTNR; one chain rule, through d(TPR)/dC =
(FN, 0, -TP, 0)/P^2 and d(TNR)/dC = (0, -TN, 0, FP)/N^2, serves all five.

Everything downstream reads two contractions of the gradient, taken row by
row by ``karmic_parts``:

* the Karmic sensitivity S = grad(G) . (1, -1, -1, 1), the improvement rate
  for moving probability mass from errors to correct cells.  The Karmic
  property is S > 0;
* the numerator N = grad(G) . (0, -1, 0, 1) (below, N is this number, not
  the negative mass FP + TN).

Raising the threshold delta moves boundary mass along
v(delta) = (-delta, -(1 - delta), delta, 1 - delta), and grad(G) . v(delta)
is the ascent functional H = N - delta * S.  Where S > 0, the sign of H is
the sign of N/S - delta, so the optimal threshold is the fixed point
delta* = N/S of the population confusion curve C(delta*).

The single-point functions accept any length-4 float sequence.  All
gradients are hand-derived closed forms; finite differences are used only
as a test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import MetricDomainError

__all__ = [
    "LinearFractional",
    "SmoothClosedForm",
    "MetricSpec",
    "registered_metrics",
    "parse_metric",
    "metric_value",
    "metric_gradient",
    "karmic_parts",
]

# Denominators smaller than this are treated as outside the metric's domain.
DOMAIN_EPS = 1e-12

_SMOOTH_TAGS = ("accuracy", "am", "youden", "gmean", "qmean", "hmean")
# the registry, each name once: the smooth tags with the two ratio examples
_REGISTERED = _SMOOTH_TAGS[:3] + ("fbeta:1",) + _SMOOTH_TAGS[3:] + ("jaccard",)


@dataclass(frozen=True)
class LinearFractional:
    """Ratio utility ``a.C / b.C`` over ``C = (TP, FP, FN, TN)``."""

    a: tuple[float, float, float, float]
    b: tuple[float, float, float, float]

    def __post_init__(self) -> None:
        for name in ("a", "b"):
            coeffs = tuple(float(v) for v in getattr(self, name))
            if len(coeffs) != 4 or not all(math.isfinite(v) for v in coeffs):
                raise ValueError(f"coefficients {name} must be 4 finite numbers: {coeffs}")
            object.__setattr__(self, name, coeffs)


@dataclass(frozen=True)
class SmoothClosedForm:
    """A named closed-form metric: accuracy or a function of TPR and TNR."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in _SMOOTH_TAGS:
            raise ValueError(f"unknown metric tag {self.tag!r}")


@dataclass(frozen=True)
class MetricSpec:
    """A named metric and its evaluation kind; a ratio with b = 0 is refused."""

    name: str
    kind: LinearFractional | SmoothClosedForm

    def __post_init__(self) -> None:
        if isinstance(self.kind, LinearFractional) and not any(self.kind.b):
            raise MetricDomainError(f"{self.name}: the coefficients b are all zero, "
                                    "so the metric is defined nowhere")


@np.errstate(divide="ignore", invalid="ignore", over="ignore")
def _evaluate(spec: MetricSpec, C) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized core: values, gradients and the domain mask in one pass.

    ``C`` has shape (..., 4).  Entries at invalid points are NaN in the
    value array and unspecified in the gradient array.  The domain is
    chosen so that the gradient is finite everywhere the value is defined.
    Floating-point warnings are off: what they would flag is masked.
    """
    C = np.asarray(C, dtype=float)
    if C.ndim == 0 or C.shape[-1] != 4:
        raise ValueError("confusion arrays must have 4 trailing entries")
    c1, c2, c3, c4 = (C[..., i] for i in range(4))

    if isinstance(spec.kind, LinearFractional):
        a, b = np.array(spec.kind.a), np.array(spec.kind.b)
        # a per-row dot: a batched matrix product rounds by the batch it sees
        ac = np.vecdot(C, a)
        bc = np.vecdot(C, b)
        valid = np.abs(bc) >= DOMAIN_EPS
        safe = np.where(valid, bc, 1.0)
        value = np.where(valid, ac / safe, np.nan)
        grad = (a * safe[..., None] - b * ac[..., None]) / (safe**2)[..., None]
        return value, grad, valid

    grad = np.zeros_like(C)
    tag = spec.kind.tag
    if tag == "accuracy":
        grad[..., 0] = 1.0
        grad[..., 3] = 1.0
        return c1 + c4, grad, np.ones(c1.shape, dtype=bool)

    # the remaining tags are G(TPR, TNR): each sets its value, its extra
    # domain condition and the partials d_tpr = dG/dTPR and d_tnr = dG/dTNR
    P = c1 + c3
    N = c2 + c4
    valid = (P >= DOMAIN_EPS) & (N >= DOMAIN_EPS)
    Ps = np.where(valid, P, 1.0)
    Ns = np.where(valid, N, 1.0)
    tpr = c1 / Ps
    tnr = c4 / Ns
    if tag in ("am", "youden"):
        scale = 0.5 if tag == "am" else 1.0
        value = scale * (tpr + tnr) - (0.0 if tag == "am" else 1.0)
        d_tpr = d_tnr = scale
    elif tag == "gmean":
        valid = valid & (c1 >= DOMAIN_EPS) & (c4 >= DOMAIN_EPS)
        value = np.sqrt(np.where(valid, tpr * tnr, 1.0))
        d_tpr = 0.5 / value * tnr
        d_tnr = 0.5 / value * tpr
    elif tag == "qmean":
        fnr = c3 / Ps
        fpr = c2 / Ns
        msq = 0.5 * (fnr**2 + fpr**2)
        valid = valid & (msq >= DOMAIN_EPS**2)
        r = np.sqrt(np.where(valid, msq, 1.0))
        value = 1.0 - r
        d_tpr = 0.5 / r * fnr
        d_tnr = 0.5 / r * fpr
    else:  # hmean
        s = tpr + tnr
        valid = valid & (s >= DOMAIN_EPS)
        ss = np.where(valid, s, 1.0)
        value = 2.0 * tpr * tnr / ss
        d_tpr = 2.0 * tnr**2 / ss**2
        d_tnr = 2.0 * tpr**2 / ss**2
    # the chain rule through d(TPR)/dC and d(TNR)/dC
    grad[..., 0] = d_tpr * c3 / Ps**2
    grad[..., 1] = -d_tnr * c4 / Ns**2
    grad[..., 2] = -d_tpr * c1 / Ps**2
    grad[..., 3] = d_tnr * c2 / Ns**2
    return np.where(valid, value, np.nan), grad, valid


def metric_values_masked(spec: MetricSpec, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized values with a validity mask (NaN where invalid)."""
    value, _, valid = _evaluate(spec, C)
    return value, valid


def metric_gradients_masked(spec: MetricSpec, C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized gradients with a validity mask."""
    _, grad, valid = _evaluate(spec, C)
    return grad, valid


def _at_point(spec: MetricSpec, c) -> tuple[float, np.ndarray]:
    """G and its gradient at one confusion vector (4 floats); raises
    :class:`MetricDomainError` outside the metric's domain."""
    C = np.asarray(c, dtype=float)
    if C.shape != (4,):
        raise ValueError(f"expected 4 confusion entries, got shape {C.shape}")
    value, grad, valid = _evaluate(spec, C[None, :])
    if not valid[0]:
        raise MetricDomainError(
            f"{spec.name}: confusion matrix outside the metric's domain "
            f"(a defining denominator is below {DOMAIN_EPS})"
        )
    return float(value[0]), grad[0]


def metric_value(spec: MetricSpec, c) -> float:
    """G(C) at a single confusion vector; raises on domain violations."""
    return _at_point(spec, c)[0]


def metric_gradient(spec: MetricSpec, c) -> np.ndarray:
    """Closed-form gradient of G at ``c`` as a length-4 array; raises on
    domain violations."""
    return _at_point(spec, c)[1]


def karmic_parts(spec: MetricSpec, C) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(numerator, sensitivity, valid)`` at every row of ``C`` (shape (..., 4)).

    From the gradient ``(g_tp, g_fp, g_fn, g_tn)``: N = g_tn - g_fp and
    S = (g_tp - g_fp) - (g_fn - g_tn).  Both are unspecified where ``valid``
    is False.
    """
    grad, valid = metric_gradients_masked(spec, C)
    g_tp, g_fp, g_fn, g_tn = (grad[..., i] for i in range(4))
    return g_tn - g_fp, (g_tp - g_fp) - (g_fn - g_tn), valid


def registered_metrics() -> tuple[MetricSpec, ...]:
    """The eight built-in metrics (fbeta at beta=1, jaccard as the ratio example)."""
    return tuple(parse_metric(name) for name in _REGISTERED)


def parse_metric(name: str) -> MetricSpec:
    """Parse a metric name string.

    Grammar: ``accuracy | am | youden | gmean | qmean | hmean | jaccard |
    fbeta:<beta> | linfrac:<a1,a2,a3,a4>/<b1,b2,b3,b4>``; a bare ``fbeta`` is
    ``fbeta:1``.  fbeta and jaccard parse to their :class:`LinearFractional`
    ratios.
    """
    text = name.strip().lower()
    if text in _SMOOTH_TAGS:
        return MetricSpec(text, SmoothClosedForm(text))
    if text == "jaccard":
        return MetricSpec(text, LinearFractional((1.0, 0.0, 0.0, 0.0), (1.0, 1.0, 1.0, 0.0)))
    if text == "fbeta":
        text = "fbeta:1"
    if text.startswith("fbeta:"):
        try:
            beta = float(text.split(":", 1)[1])
            b2 = beta**2
        except (ValueError, OverflowError):
            beta = b2 = math.nan
        if not (beta > 0 and 0 < b2 < math.inf):
            raise ValueError(f"bad fbeta parameter in {name!r}: beta must be a number > 0 "
                             "whose square is finite and > 0")
        return MetricSpec(f"fbeta:{beta:g}",
                          LinearFractional((1.0 + b2, 0.0, 0.0, 0.0), (1.0 + b2, 1.0, b2, 0.0)))
    if text.startswith("linfrac:"):
        parts = text.split(":", 1)[1].split("/")
        try:
            if len(parts) != 2:
                raise ValueError("expected <a>/<b> coefficient lists")
            a, b = (tuple(float(v) for v in part.split(",")) for part in parts)
            return MetricSpec(text, LinearFractional(a, b))
        except ValueError as exc:
            raise ValueError(f"bad linfrac coefficients in {name!r}: {exc}") from exc
    raise ValueError(f"unknown metric name {name!r}")
