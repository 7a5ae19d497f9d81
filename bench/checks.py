"""Correctness checks for the benchmark, computed apart from karmic.

This module imports numpy and scipy only.  Each check compares what the
program produced with an independent computation, or with a property the
method must have:

* Gaussian model: population confusion of a half-space rule from
  ``scipy.stats.norm``, and the F1 optimum from ``scipy.optimize``;
* sine (Holder) model: dense midpoint quadrature on [0, 1];
* CSV files: a parser that shares no code with ``karmic.dataio``.

A check returns a list of failure messages; an empty list means it passed.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.optimize import minimize_scalar
from scipy.special import logit
from scipy.stats import norm

#: closed-form regrets below this are a fault, not rounding
REGRET_FLOOR = -1e-9
#: agreement asked of two exact computations of one population quantity
EXACT_TOL = 1e-9
#: the Gaussian/logistic study's documented log-log slope is about -0.96
GAUSS_SLOPE_BAND = (-1.2, -0.7)
#: a Monte-Carlo regret must lie within this many standard errors of quadrature
MC_SIGMAS = 5.0
#: the sine model's optimum from quadrature agrees with the closed form this well
QUADRATURE_TOL = 1e-8
#: points in the midpoint rule on [0, 1]
QUADRATURE_POINTS = 1 << 21
_CHUNK = 1 << 18
_SINE_AMPLITUDE = 0.45


def f1(tp: float, fp: float, fn: float) -> float:
    return 2.0 * tp / (2.0 * tp + fp + fn)


def f1_gradient(tp: float, fp: float, fn: float) -> np.ndarray:
    """Gradient of F1 with respect to (TP, FP, FN, TN)."""
    d = 2.0 * tp + fp + fn
    return np.array([2.0 * (fp + fn), -2.0 * tp, -2.0 * tp, 0.0]) / (d * d)


# --------------------------------------------------------------------------
# Gaussian model: X | Y=y ~ N(y mu / 2, I), P(Y=+1) = kappa


def halfspace_confusion(mu, kappa: float, w, b: float, delta: float) -> tuple[float, ...]:
    """(TP, FP, FN, TN) of ``predict +1 iff sigmoid(w.x + b) > delta``.

    Within class y the projection ``w.x`` is normal with mean ``y w.mu / 2``
    and standard deviation ``|w|``.
    """
    mu = np.asarray(mu, dtype=float)
    w = np.asarray(w, dtype=float)
    cut = float(logit(delta)) - b
    scale = float(np.linalg.norm(w))
    shift = 0.5 * float(w @ mu)
    pos = float(norm.sf(cut, loc=shift, scale=scale))
    neg = float(norm.sf(cut, loc=-shift, scale=scale))
    return kappa * pos, (1 - kappa) * neg, kappa * (1 - pos), (1 - kappa) * (1 - neg)


def gaussian_f1_optimum(mu, kappa: float) -> float:
    """Largest population F1 over all thresholds of the true eta."""
    mu = np.asarray(mu, dtype=float)
    b = float(logit(kappa))

    def loss(t: float) -> float:
        tp, fp, fn, _ = halfspace_confusion(mu, kappa, mu, b, float(1.0 / (1.0 + math.exp(-t))))
        return -f1(tp, fp, fn)

    best = minimize_scalar(loss, bounds=(-12.0, 12.0), method="bounded",
                           options={"xatol": 1e-10})
    return -float(best.fun)


def gaussian_regret(mu, kappa: float, f_star: float, w, b: float, delta: float) -> float:
    tp, fp, fn, _ = halfspace_confusion(mu, kappa, w, b, delta)
    return f_star - f1(tp, fp, fn)


def check_gauss_rows(rows, f_star: float) -> list[str]:
    """Every row succeeded, has regret >= -1e-9 and delta_star = F*/2."""
    bad = []
    for row in rows:
        tag = f"n={row['n']} seed={row['seed']}"
        if row.get("error"):
            bad.append(f"{tag}: row failed with {row['error']}")
            continue
        if not row["regret"] >= REGRET_FLOOR:
            bad.append(f"{tag}: closed-form regret {row['regret']!r} < {REGRET_FLOOR}")
        if not abs(row["delta_star"] - f_star / 2.0) <= EXACT_TOL:
            bad.append(f"{tag}: delta_star {row['delta_star']!r} != F*/2 = {f_star / 2.0!r}")
    return bad


def check_gauss_retrained(rows, mu, kappa: float, f_star: float) -> list[str]:
    """A row's regret equals the regret recomputed from its scorer's weights."""
    bad = []
    for row in rows:
        expected = gaussian_regret(mu, kappa, f_star, row["weights"], row["intercept"],
                                   row["delta_hat"])
        if not abs(row["regret"] - expected) <= EXACT_TOL:
            bad.append(f"n={row['n']} seed={row['seed']}: regret {row['regret']!r}, "
                       f"recomputed {expected!r}")
    return bad


def loglog_slope(rows) -> float:
    """Least-squares slope of log(median regret) on log(n)."""
    ns = sorted({row["n"] for row in rows})
    medians = [float(np.median([r["regret"] for r in rows if r["n"] == n])) for n in ns]
    slope, _ = np.polyfit(np.log(ns), np.log(medians), 1)
    return float(slope)


def check_gauss_slope(rows, band=GAUSS_SLOPE_BAND) -> list[str]:
    slope = loglog_slope(rows)
    if band[0] <= slope <= band[1]:
        return []
    return [f"log-log slope {slope:.4f} outside [{band[0]}, {band[1]}]"]


def check_logistic_fit(weights, intercept: float, mu, kappa: float, tol: float = 0.05) -> list[str]:
    """The MLE on a large sample lies near the true (mu, logit(kappa))."""
    gap = np.abs(np.asarray(weights, dtype=float) - np.asarray(mu, dtype=float))
    bad = []
    if not gap.max() <= tol:
        bad.append(f"weights {list(weights)} farther than {tol} from mu {list(mu)}")
    if not abs(intercept - float(logit(kappa))) <= tol:
        bad.append(f"intercept {intercept!r} farther than {tol} from logit(kappa)")
    return bad


def check_evaluate_report(report: dict, weights, intercept: float, delta: float,
                          mu, kappa: float, f_star: float, small: float = 1e-3) -> list[str]:
    """An ``evaluate`` report agrees with scipy on the saved classifier."""
    tp, fp, fn, _ = halfspace_confusion(mu, kappa, weights, intercept, delta)
    u_hat = f1(tp, fp, fn)
    bad = []
    if not REGRET_FLOOR <= report["regret"] <= small:
        bad.append(f"regret {report['regret']!r} outside [{REGRET_FLOOR}, {small}]")
    if not abs(report["u_hat"] - u_hat) <= EXACT_TOL:
        bad.append(f"u_hat {report['u_hat']!r}, scipy gives {u_hat!r}")
    if not abs(report["u_star"] - f_star) <= EXACT_TOL:
        bad.append(f"u_star {report['u_star']!r}, scipy gives {f_star!r}")
    if not abs(report["delta_star"] - f_star / 2.0) <= EXACT_TOL:
        bad.append(f"delta_star {report['delta_star']!r} != F*/2 = {f_star / 2.0!r}")
    if report["delta_hat"] != delta:
        bad.append(f"delta_hat {report['delta_hat']!r} is not the saved threshold {delta!r}")
    return bad


# --------------------------------------------------------------------------
# Sine model on [0, 1]: X ~ U[0, 1], eta(x) = 0.5 + 0.45 sin(2 pi x)


def sine_eta(x: np.ndarray) -> np.ndarray:
    return 0.5 + _SINE_AMPLITUDE * np.sin(2.0 * math.pi * x)


def _midpoints(m: int):
    for start in range(0, m, _CHUNK):
        yield (np.arange(start, min(start + _CHUNK, m)) + 0.5) / m


def sine_f1_optimum(m: int = QUADRATURE_POINTS) -> float:
    """Largest F1 over thresholds of eta, by the midpoint rule with m points.

    Thresholding eta keeps the points of largest eta, so sorting the grid
    values and taking prefix sums gives F1 at every cut at once.
    """
    eta = np.sort(sine_eta((np.arange(m) + 0.5) / m))[::-1]
    tp = np.cumsum(eta) / m
    predicted = np.arange(1, m + 1) / m
    fp = predicted - tp
    fn = eta.sum() / m - tp
    return float(np.max(2.0 * tp / (2.0 * tp + fp + fn)))


def check_holder_delta_star(delta_star: float, f_star: float) -> list[str]:
    if abs(delta_star - f_star / 2.0) <= QUADRATURE_TOL:
        return []
    return [f"delta_star {delta_star!r} != quadrature F*/2 = {f_star / 2.0!r}"]


def sine_regret_quadrature(scores, delta: float, f_star: float, mc_samples: int,
                           m: int = QUADRATURE_POINTS) -> tuple[float, float]:
    """Regret of ``predict +1 iff scores(x) > delta`` and its Monte-Carlo error.

    Returns the midpoint-rule regret and the standard error a Monte-Carlo
    estimate with ``mc_samples`` uniform draws would have.  That estimate
    averages v(x) = (eta p, (1-eta) p, eta (1-p), (1-eta)(1-p)) with p the
    prediction, so by the delta method its F1 has variance
    g' Cov(v) g / mc_samples, with g the F1 gradient.
    """
    first = np.zeros(4)
    second = np.zeros((4, 4))
    for x in _midpoints(m):
        eta = sine_eta(x)
        pred = np.asarray(scores(x[:, None])) > delta
        v = np.stack([eta * pred, (1 - eta) * pred, eta * ~pred, (1 - eta) * ~pred], axis=1)
        first += v.sum(axis=0)
        second += v.T @ v
    mean = first / m
    cov = second / m - np.outer(mean, mean)
    grad = f1_gradient(mean[0], mean[1], mean[2])
    se = math.sqrt(max(float(grad @ cov @ grad), 0.0) / mc_samples)
    return f_star - f1(mean[0], mean[1], mean[2]), se


def check_holder_regret(reported: float, quadrature: float, se: float,
                        sigmas: float = MC_SIGMAS) -> list[str]:
    if abs(reported - quadrature) <= sigmas * se:
        return []
    return [f"Monte-Carlo regret {reported!r} is {abs(reported - quadrature) / se:.1f} "
            f"standard errors from quadrature {quadrature!r}"]


# --------------------------------------------------------------------------
# CSV files written by ``karmic gen``


def parse_dataset_csv(path: str) -> tuple[np.ndarray, np.ndarray]:
    """Features and labels of an ``x_1,...,x_d,y`` CSV, parsed by numpy's strtod."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii").strip().split(",")
        body = fh.read()
    if header[-1] != "y" or len(header) < 2:
        raise ValueError(f"{path}: unexpected header {header}")
    values = np.fromstring(body.replace(b"\n", b",").decode("ascii"), dtype=float, sep=",")
    table = values.reshape(-1, len(header))
    return table[:, :-1].copy(), table[:, -1].copy()


def check_csv_roundtrip(path: str, features: np.ndarray, labels: np.ndarray) -> list[str]:
    """The file holds exactly the generated doubles and labels."""
    got_x, got_y = parse_dataset_csv(path)
    return check_same_arrays(f"{path} as parsed here", got_x, got_y, features, labels)


def check_same_arrays(what: str, got_x, got_y, features, labels) -> list[str]:
    same = (np.shape(got_x) == np.shape(features)
            and np.asarray(got_x, dtype=float).tobytes() == np.asarray(features, dtype=float).tobytes()
            and np.array_equal(got_y, labels))
    return [] if same else [f"{what} does not equal the generated arrays bit for bit"]
