"""Shared test oracles: finite differences, naive baselines, interval algebra.

Everything here is deliberately independent of the library's own
computation paths (plain loops, quadrature, explicit formulas) so tests
compare two routes to the same quantity.
"""

from __future__ import annotations

import math

import numpy as np

from karmic import metric_value


class FixedScorer:
    """Scorer stub returning precomputed values, ignoring features."""

    dim = None

    def __init__(self, values) -> None:
        self.values = np.asarray(values, dtype=float)

    def scores(self, X) -> np.ndarray:
        return self.values


def central_difference_gradient(spec, c: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Entrywise central finite differences of the metric value."""
    out = np.empty(4)
    for j in range(4):
        step = np.zeros(4)
        step[j] = h
        up = metric_value(spec, c + step)
        down = metric_value(spec, c - step)
        out[j] = (up - down) / (2.0 * h)
    return out


def random_interior_confusions(rng: np.random.Generator, count: int,
                               floor: float = 0.025) -> np.ndarray:
    """Simplex points with every entry at least ``floor``."""
    raw = rng.dirichlet(np.ones(4), size=count)
    shifted = raw * (1.0 - 4.0 * floor) + floor
    return shifted / shifted.sum(axis=1, keepdims=True)


def naive_confusion(scores, labels, delta: float) -> np.ndarray:
    """Loop-based confusion shares with the strict > rule."""
    tp = fp = fn = tn = 0
    for s, y in zip(scores, labels):
        if s > delta:
            if y == 1:
                tp += 1
            else:
                fp += 1
        elif y == 1:
            fn += 1
        else:
            tn += 1
    return np.array([tp, fp, fn, tn]) / len(scores)


def naive_epanechnikov(train_x, train_y, h: float, queries,
                       clip: float = 1e-6) -> np.ndarray:
    """O(n*m) reference for the kernel smoother: 1-d training points and
    queries, each a flat array."""
    train_x = np.asarray(train_x, dtype=float)
    queries = np.asarray(queries, dtype=float)
    pos = (np.asarray(train_y) == 1).astype(float)
    global_rate = float(np.clip(pos.mean(), clip, 1 - clip))
    out = np.empty(queries.size)
    for i, q in enumerate(queries):
        w = np.maximum(0.0, 1.0 - (train_x - q) ** 2 / h**2)
        den = w.sum()
        out[i] = (w @ pos) / den if den > 1e-12 else global_rate
    return np.clip(out, clip, 1 - clip)


def ols_slope(x, y) -> tuple[float, float]:
    """Plain least-squares line fit, explicit formulas."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    xbar = x.mean()
    ybar = y.mean()
    slope = float(((x - xbar) * (y - ybar)).sum() / ((x - xbar) ** 2).sum())
    return slope, float(ybar - slope * xbar)


def sign_positive_intervals(fn, lo: float, hi: float, points: int = 40001):
    """Intervals of {z in (lo, hi): fn(z) > 0}, found by grid + bisection.

    Assumes fn keeps its sign outside (lo, hi); endpoints extend to +-inf
    accordingly.  Root refinement is plain bisection to ~1e-14.
    """
    grid = np.linspace(lo, hi, points)
    vals = np.array([fn(z) for z in grid])
    roots = []
    for i in np.nonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)[0]:
        a, b = grid[i], grid[i + 1]
        fa = vals[i]
        for _ in range(60):
            mid = 0.5 * (a + b)
            fm = fn(mid)
            if fm == 0.0:
                a = b = mid
                break
            if (fa > 0) == (fm > 0):
                a, fa = mid, fm
            else:
                b = mid
        roots.append(0.5 * (a + b))
    cuts = [-math.inf] + sorted(roots) + [math.inf]
    intervals = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        probe = 0.5 * (a + b)
        if not math.isfinite(a):
            probe = b - 1.0
        if not math.isfinite(b):
            probe = a + 1.0
        if fn(probe) > 0:
            intervals.append((a, b))
    return intervals


def symmetric_difference_with_ray(intervals, cut: float):
    """Symmetric difference between a union of intervals and (cut, inf)."""
    pts = sorted({cut, *(p for iv in intervals for p in iv if math.isfinite(p))})
    cuts = [-math.inf] + pts + [math.inf]
    out = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        probe = 0.5 * (a + b)
        if not math.isfinite(a):
            probe = b - 1.0
        if not math.isfinite(b):
            probe = a + 1.0
        inside = any(l < probe < r for l, r in intervals)
        if inside != (probe > cut):
            out.append((a, b))
    return out


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
        raise ValueError("fewer than 3 grid points carry mass near the threshold")
    slope, _ = np.polyfit(np.log(t_grid[keep]), np.log(mass[keep]), 1)
    return float(slope)
