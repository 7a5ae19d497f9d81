"""Threshold selection: bisection on the utility's ascent sign, oracles.

For a threshold rule ``predict +1 iff score > delta``, raising delta by an
infinitesimal amount moves the boundary mass from the predicted-positive
cells to the predicted-negative cells, so the confusion curve satisfies
``dC/d(delta) = p(delta) * v(delta)`` with

    v(delta) = (-delta, -(1 - delta), delta, 1 - delta)

and ``p`` the score density.  The scalar

    H(delta) = grad(G)(C(delta)) . v(delta) = N - delta * S

with ``(N, S)`` from ``karmic_parts`` at C(delta) therefore has the same
sign as the derivative of the population utility, and the optimal
threshold is its unique zero crossing for quasi-concave utility curves.
Every search here computes H that one way.  ``binary_search_threshold``
halves the bracket [0, 1] on the empirical sign of H; the exhaustive
oracles (`grid_search_threshold`, `brute_force_discrete`) exist to check it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .confusion import Dataset, ScoreProfile
from .errors import (
    DegenerateDistributionError,
    MetricDomainError,
    NoSignChangeError,
    TooManyAtomsError,
)
from .metrics import MetricSpec, karmic_parts, metric_values_masked

__all__ = [
    "ThresholdSearchConfig",
    "ThresholdResult",
    "binary_search_threshold",
    "fixed_point_threshold",
    "grid_search_threshold",
    "brute_force_discrete",
    "default_tolerance",
]

_NUDGE_ATTEMPTS = 8
#: midpoints of [0, 1] are exact dyadics, so the bracket is 2^-k wide after
#: k halvings and this cap binds only at a tolerance of 2^-64 or less
_MAX_ITERATIONS = 64


def default_tolerance(n: int) -> float:
    """Bracket-width stopping rule ``max(log n / n, 1e-8)``."""
    if n < 1:
        raise ValueError("tolerance policy needs n >= 1")
    return max(math.log(n) / n, 1e-8)


@dataclass(frozen=True)
class ThresholdSearchConfig:
    """Bisection controls.

    ``tolerance`` is the bracket width below which the search stops; when
    None it is resolved per dataset as ``max(log n / n, 1e-8)``.
    """

    tolerance: float | None = None

    def __post_init__(self) -> None:
        if self.tolerance is not None and not (isinstance(self.tolerance, float)
                                               and 0.0 < self.tolerance < 1.0):
            raise ValueError(f"tolerance must be a float in (0, 1), got {self.tolerance!r}")

    def resolve_tolerance(self, n: int) -> float:
        return self.tolerance if self.tolerance is not None else default_tolerance(n)


@dataclass(frozen=True)
class ThresholdResult:
    """Outcome of a bisection run; ``h_trace`` rows are (delta, H, sign),
    one per halving."""

    delta_hat: float
    h_trace: tuple[tuple[float, float, int], ...] = field(default_factory=tuple)

    @property
    def iterations(self) -> int:
        return len(self.h_trace)

    def to_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "iterations": self.iterations,
            "h_trace": [[d, h, s] for d, h, s in self.h_trace],
        }


def _h(metric: MetricSpec, confusion, delta: float) -> float | None:
    """H = N - delta * S at one confusion vector, or None off the domain."""
    numerator, sensitivity, valid = karmic_parts(metric, confusion)
    return float(numerator - delta * sensitivity) if valid else None


def _h_with_nudges(metric: MetricSpec, profile: ScoreProfile, delta: float, n: int):
    """Evaluate H, stepping the point toward the interior off the domain.

    Up to 8 nudges of 1/(2n) each; the empirical confusion is piecewise
    constant so small moves only matter when they cross a sample score.
    """
    step = 1.0 / (2.0 * n)
    direction = 1.0 if delta < 0.5 else -1.0
    for k in range(_NUDGE_ATTEMPTS + 1):
        candidate = delta + direction * k * step
        if not 0.0 < candidate < 1.0 and k > 0:
            continue
        h = _h(metric, profile.confusion(candidate), candidate)
        if h is not None:
            return candidate, h
    raise DegenerateDistributionError(
        f"H undefined near delta={delta:.6g} even after interior nudges"
    )


def binary_search_threshold(
    metric: MetricSpec,
    scorer,
    data: Dataset,
    config: ThresholdSearchConfig | None = None,
) -> ThresholdResult:
    """Halve [0, 1] on the empirical sign of H until the bracket is narrow.

    The sign is taken at the bracket midpoint; an exact zero counts as
    non-negative (the left edge moves up).  Stops when the bracket width
    drops below the resolved tolerance, or after 64 halvings.
    """
    config = config or ThresholdSearchConfig()
    profile = ScoreProfile.from_scorer(scorer, data)
    eps0 = config.resolve_tolerance(data.n)
    lo, hi = 0.0, 1.0
    trace: list[tuple[float, float, int]] = []
    while (hi - lo) >= eps0 and len(trace) < _MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        used, h = _h_with_nudges(metric, profile, mid, data.n)
        sign = 1 if h >= 0.0 else -1
        trace.append((used, h, sign))
        if sign >= 0:
            lo = mid
        else:
            hi = mid
    return ThresholdResult(0.5 * (lo + hi), tuple(trace))


def fixed_point_threshold(metric: MetricSpec, curve, tol: float) -> float:
    """Root of the population H on (tol, 1 - tol) by bisection.

    ``curve`` maps a threshold to its length-4 population confusion
    vector.  Where the sensitivity S is positive the root is the fixed
    point delta = N/S.  Raises :class:`NoSignChangeError` when H has
    constant sign on the bracket, :class:`MetricDomainError` where the
    gradient is undefined.
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must lie in (0, 0.5)")
    lo, hi = tol, 1.0 - tol

    def h(delta: float) -> float:
        value = _h(metric, curve(delta), delta)
        if value is None:
            raise MetricDomainError(
                f"{metric.name}: gradient undefined at the population confusion "
                f"of delta={delta:.6g}"
            )
        return value

    h_lo = h(lo)
    h_hi = h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if np.sign(h_lo) == np.sign(h_hi):
        raise NoSignChangeError(
            f"{metric.name}: H has constant sign on ({lo:.3g}, {hi:.3g})"
        )
    width_target = max(tol * 1e-3, 4e-16)
    while hi - lo > width_target:
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if h_mid == 0.0:
            return mid
        if np.sign(h_mid) == np.sign(h_lo):
            lo, h_lo = mid, h_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def grid_search_threshold(metric: MetricSpec, scorer, data: Dataset, step: float) -> float:
    """Exhaustive threshold search over the grid {0, step, ..., 1}.

    Invalid grid points (metric domain violations) are skipped; exact-value
    ties break toward the smallest delta.
    """
    if not 0.0 < step <= 0.5:
        raise ValueError("step must lie in (0, 0.5]")
    profile = ScoreProfile.from_scorer(scorer, data)
    count = int(math.floor(1.0 / step + 1e-9))
    grid = np.arange(count + 1) * step
    if grid[-1] < 1.0 - 1e-12:
        grid = np.append(grid, 1.0)
    values, valid = metric_values_masked(metric, profile.confusion(grid))
    if not valid.any():
        raise MetricDomainError(f"{metric.name}: no valid grid point in [0, 1]")
    values = np.where(valid, values, -np.inf)
    return float(grid[int(np.argmax(values))])


def brute_force_discrete(
    metric: MetricSpec, atoms: list[tuple[float, float]]
) -> tuple[float, list[tuple[int, ...]]]:
    """Enumerate all label assignments over a small discrete distribution.

    ``atoms`` are (weight, eta) pairs: finite weights summing to one, and
    eta in [0, 1], the positive-class probability at the atom.  Returns the
    best utility and every assignment within 1e-12 of it (+1/-1 per atom).
    Limited to 20 atoms.
    """
    k = len(atoms)
    if k == 0:
        raise ValueError("need at least one atom")
    if k > 20:
        raise TooManyAtomsError(f"{k} atoms would need 2^{k} assignments; limit is 20")
    w = np.array([float(a[0]) for a in atoms])
    eta = np.array([float(a[1]) for a in atoms])
    if not np.isfinite(w).all() or w.min() < 0 or abs(w.sum() - 1.0) > 1e-9:
        raise ValueError("atom weights must be finite, non-negative and sum to 1")
    if not ((eta >= 0) & (eta <= 1)).all():
        raise ValueError("atom eta values must lie in [0, 1]")
    pos_w = w * eta
    neg_w = w * (1.0 - eta)
    total_pos = pos_w.sum()
    total_neg = neg_w.sum()

    count = 1 << k
    masks = np.arange(count, dtype=np.int64)
    tp = np.zeros(count)
    fp = np.zeros(count)
    for i in range(k):
        bit = ((masks >> i) & 1).astype(float)
        tp += bit * pos_w[i]
        fp += bit * neg_w[i]
    C = np.stack([tp, fp, total_pos - tp, total_neg - fp], axis=-1)
    values, valid = metric_values_masked(metric, C)
    if not valid.any():
        raise MetricDomainError(f"{metric.name}: every assignment is outside the domain")
    values = np.where(valid, values, -np.inf)
    best = float(values.max())
    winners = np.nonzero(values >= best - 1e-12)[0]
    assignments = [
        tuple(1 if (int(m) >> i) & 1 else -1 for i in range(k)) for m in winners
    ]
    return best, assignments
