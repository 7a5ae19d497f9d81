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
Every search here computes H that one way, and one loop halves a bracket
on its sign for both the sample threshold and the population fixed point.
Off the metric's domain H is undefined, and one rule stands in for its
sign: H >= 0 below delta = 1/2, H < 0 from 1/2 up.  A population H that
rises across its bracket (its root a utility minimum) is refused, as is a
final bracket with H undefined at both ends.  The exhaustive
oracles (`grid_search_threshold`, `brute_force_discrete`) exist to check
it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .confusion import Dataset, ScoreProfile
from .errors import (DegenerateDistributionError, MetricDomainError, NoSignChangeError,
                     NonKarmicPointError, TooManyAtomsError)
from .metrics import MetricSpec, karmic_parts, metric_values_masked

__all__ = [
    "ThresholdSearchConfig",
    "ThresholdResult",
    "binary_search_threshold",
    "fixed_point_threshold",
    "grid_search_threshold",
    "brute_force_discrete",
]

#: midpoints of [0, 1] are exact dyadics, so this binds only at a sample
#: tolerance of 2^-64 or less; the population search stops within 52 halvings
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
    one per halving, with H None where delta is off the metric's domain."""

    delta_hat: float
    h_trace: tuple[tuple[float, float | None, int], ...] = field(default_factory=tuple)

    @property
    def iterations(self) -> int:
        return len(self.h_trace)

    def to_dict(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "iterations": self.iterations,
            "h_trace": [[d, h, s] for d, h, s in self.h_trace],
        }


def _h(metric: MetricSpec, confusion, delta: float) -> tuple[float | None, int]:
    """H = N - delta * S at one confusion vector, and its sign: +1 for
    H >= 0, -1 for H < 0.

    Off the metric's domain H is None, and one rule gives the sign: below
    delta = 1/2 the point counts as H >= 0, so a search raises delta; at
    or above 1/2 it counts as H < 0.  A rate metric's domain ends where
    every point is predicted one way, and the ascent leads back inside.
    """
    numerator, sensitivity, valid = karmic_parts(metric, confusion)
    if not valid:
        return None, 1 if delta < 0.5 else -1
    value = float(numerator - delta * sensitivity)
    return value, 1 if value >= 0.0 else -1


def _bisect(metric: MetricSpec, confusion, lo: float, hi: float, width: float,
            stop_at_zero: bool):
    """Halve [lo, hi] on the sign of H (``_h``) at ``confusion(mid)``.

    Sign +1 moves ``lo`` up, -1 moves ``hi`` down, and with
    ``stop_at_zero`` an exact zero closes the bracket on its midpoint.
    Stops once the bracket is narrower than ``width`` or after
    ``_MAX_ITERATIONS`` halvings.  Returns the final bracket and one
    (delta, H, sign) row per halving; raises
    :class:`DegenerateDistributionError` when neither end of the final
    bracket is a probe where H was defined, so the root it brackets may lie
    where the metric is undefined.
    """
    trace: list[tuple[float, float | None, int]] = []
    lo_defined = hi_defined = False
    while hi - lo >= width and len(trace) < _MAX_ITERATIONS:
        mid = 0.5 * (lo + hi)
        value, sign = _h(metric, confusion(mid), mid)
        trace.append((mid, value, sign))
        if stop_at_zero and value == 0.0:
            return mid, mid, trace
        if sign > 0:
            lo, lo_defined = mid, value is not None
        else:
            hi, hi_defined = mid, value is not None
    if trace and not (lo_defined or hi_defined):
        raise DegenerateDistributionError(
            f"H undefined at both ends of the final bracket [{lo:.6g}, {hi:.6g}] "
            f"after {len(trace)} probes")
    return lo, hi, trace


def binary_search_threshold(
    metric: MetricSpec,
    scorer,
    data: Dataset,
    config: ThresholdSearchConfig | None = None,
) -> ThresholdResult:
    """Bisect [0, 1] on the empirical sign of H down to the resolved tolerance."""
    return _bisect_profile(metric, ScoreProfile.from_scorer(scorer, data), data.n, config)


def _bisect_profile(metric: MetricSpec, profile: ScoreProfile, n: int,
                    config: ThresholdSearchConfig | None) -> ThresholdResult:
    """``binary_search_threshold`` on the profile of an ``n``-row sample."""
    config = config or ThresholdSearchConfig()
    lo, hi, trace = _bisect(metric, profile.confusion, 0.0, 1.0, config.resolve_tolerance(n),
                            stop_at_zero=False)
    return ThresholdResult(0.5 * (lo + hi), tuple(trace))


def fixed_point_threshold(metric: MetricSpec, curve, tol: float) -> float:
    """Root of the population H on (tol, 1 - tol) by bisection.

    ``curve`` maps a threshold to its length-4 population confusion
    vector.  Where the sensitivity S is positive the root is the fixed
    point delta = N/S.  A point off the metric's domain takes its sign
    from ``_h``'s rule.  Raises :class:`NoSignChangeError` when H has
    constant sign on the bracket, and :class:`NonKarmicPointError` when H
    rises from < 0 at ``tol`` to > 0 at ``1 - tol``: its root is then a
    minimum of the utility (a ratio has H' = -S at every root of H).
    """
    if not 0.0 < tol < 0.5:
        raise ValueError("tol must lie in (0, 0.5)")
    lo, hi = tol, 1.0 - tol
    (h_lo, sign_lo), (h_hi, sign_hi) = _h(metric, curve(lo), lo), _h(metric, curve(hi), hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if sign_lo == sign_hi:
        raise NoSignChangeError(f"{metric.name}: H has constant sign on ({lo:.3g}, {hi:.3g})")
    if sign_lo < 0:
        raise NonKarmicPointError(
            f"{metric.name}: H rises from {h_lo:.3g} to {h_hi:.3g} across ({lo:.3g}, {hi:.3g}), "
            "so its root minimizes the utility (a ratio's karmic sensitivity is -H' there)")
    lo, hi, _ = _bisect(metric, curve, lo, hi, np.nextafter(max(tol * 1e-3, 4e-16), 1.0),
                        stop_at_zero=True)
    return 0.5 * (lo + hi)


def grid_search_threshold(metric: MetricSpec, scorer, data: Dataset, step: float) -> float:
    """Exhaustive threshold search over the grid {0, step, ..., 1}.

    Invalid grid points (metric domain violations) are skipped; exact-value
    ties break toward the smallest delta.
    """
    return _grid_profile(metric, ScoreProfile.from_scorer(scorer, data), step)


def _grid_profile(metric: MetricSpec, profile: ScoreProfile, step: float) -> float:
    """``grid_search_threshold`` on the profile of a sample."""
    if not 0.0 < step <= 0.5:
        raise ValueError("step must lie in (0, 0.5]")
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
