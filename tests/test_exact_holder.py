"""Exact population confusion of 1-d scorers on the Holder model.

Every case compares ``HolderModel.classifier_confusion`` (eta integrated
over the scorer's acceptance intervals) with a midpoint rule on 2^22 cells
written here, which only calls the scorer's ``scores``: the two must agree
within 1e-6 in every confusion entry and in utility.  Each scorer scores the
grid once, against one batched ``classifier_confusion`` call over all of its
thresholds.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest

from karmic import (
    ConstantScorer,
    DimensionMismatchError,
    EstimatorSpec,
    GaussianModel,
    HolderModel,
    KernelScorer,
    LogisticScorer,
    ModeUnsupportedError,
    PluginClassifier,
    TrueEtaScorer,
    fit_kernel_smoother,
    fit_logistic_mle,
    metric_value,
    parse_metric,
    population_optimum,
    population_regret,
    sample_holder,
    train_plugin,
)
from karmic.scorers import _KERNEL_MIN_WEIGHT, KERNEL_CLIP, _roots_inside

SINE = HolderModel("sine")
F1 = parse_metric("fbeta:1")
ACCURACY = parse_metric("accuracy")
CELLS = 1 << 22
CHUNK = 1 << 20
TOL = 1e-6


@functools.lru_cache(maxsize=None)
def midpoint_grid(tag: str) -> tuple[np.ndarray, np.ndarray]:
    """The cell midpoints of [0, 1] and eta at each."""
    x = (np.arange(CELLS) + 0.5) / CELLS
    eta = np.full_like(x, 0.5) if tag == "flat" else 0.5 + 0.45 * np.sin(2 * np.pi * x)
    return x, eta


def midpoint_confusion(model: HolderModel, scorer, deltas: np.ndarray) -> np.ndarray:
    """(TP, FP, FN, TN) by the midpoint rule at each delta, shape
    ``(deltas.size, 4)``: each cell of [0, 1] counts as predicted +1 iff the
    scorer puts its midpoint above delta.  The grid is scored once."""
    grid, curve = midpoint_grid(model.eta_tag)
    sums = np.zeros((deltas.size, 4))
    for start in range(0, CELLS, CHUNK):
        x, eta = grid[start:start + CHUNK], curve[start:start + CHUNK]
        scores = scorer.scores(x[:, None])
        for row, delta in zip(sums, deltas):
            pred = (scores > delta).astype(float)
            tp, fn = eta @ pred, eta @ (1.0 - pred)
            row += [tp, pred.sum() - tp, fn, (1.0 - pred).sum() - fn]
    return sums / CELLS


def compare(model: HolderModel, scorer, deltas) -> tuple[np.ndarray, np.ndarray]:
    """One batched ``classifier_confusion`` over ``deltas`` and its midpoint
    reference, both ``(len(deltas), 4)``, after checking the interval block:
    per delta, sorted ``(a, b)`` rows in [0, 1] with ``a <= b``."""
    deltas = np.asarray(deltas, dtype=float)
    intervals = scorer.acceptance_intervals(deltas)
    assert intervals.shape[:-2] == deltas.shape and intervals.shape[-1] == 2
    for rows in intervals:
        flat = rows.ravel()
        assert np.all(np.diff(flat) >= 0.0) and np.all(rows[:, 1] >= rows[:, 0])
        assert flat.size == 0 or (flat[0] >= 0.0 and flat[-1] <= 1.0)
    return model.classifier_confusion(scorer, deltas), midpoint_confusion(model, scorer, deltas)


def assert_rows_match(compared: tuple[np.ndarray, np.ndarray], rows=slice(None)) -> None:
    """The exact and midpoint confusions agree within 1e-6 in every entry
    and in utility, on the selected rows."""
    exact, quad = (np.atleast_2d(c[rows]) for c in compared)
    np.testing.assert_allclose(exact, quad, rtol=0.0, atol=TOL)
    for metric in (F1, ACCURACY):
        for e, q in zip(exact, quad):
            assert metric_value(metric, e) == pytest.approx(metric_value(metric, q), abs=TOL)


# Parametrized cases share one scorer per batch of thresholds: each scorer
# scores the grid once, and each test checks its own threshold's row.
CLIP_DELTAS = (KERNEL_CLIP / 2, KERNEL_CLIP, 2 * KERNEL_CLIP, 1 - 2 * KERNEL_CLIP,
               1 - KERNEL_CLIP, 1 - KERNEL_CLIP / 2, 0.0, 1.0)
LOGISTIC_DELTAS = (0.0, 0.2, 0.45, 0.8, 1.0)
CONSTANT_CASES = [(0.6, 0.5), (0.4, 0.5), (0.5, 0.5), (0.0, 0.0), (1.0, 1.0), (1.0, 0.0)]
ARC_DELTAS = (0.0, 0.03, 0.05, 0.2, 0.5, 0.7, 0.95, 0.99, 1.0)


@functools.lru_cache(maxsize=None)
def clip_case() -> tuple[np.ndarray, np.ndarray]:
    # small n and a narrow window leave windows with no positive (or no
    # negative) point, whose raw estimate 0 (or 1) is clipped
    scorer = fit_kernel_smoother(sample_holder(SINE, 400, 5), 1.0, bandwidth_const=0.3)
    return compare(SINE, scorer, CLIP_DELTAS)


@functools.lru_cache(maxsize=None)
def logistic_case(w: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    return compare(SINE, LogisticScorer([w], b), LOGISTIC_DELTAS)


def constant_deltas(p: float) -> list[float]:
    return [delta for q, delta in CONSTANT_CASES if q == p]


@functools.lru_cache(maxsize=None)
def constant_case(p: float) -> tuple[np.ndarray, np.ndarray]:
    return compare(SINE, ConstantScorer(p), constant_deltas(p))


@functools.lru_cache(maxsize=None)
def arc_case(tag: str) -> tuple[np.ndarray, np.ndarray]:
    model = HolderModel(tag)
    return compare(model, TrueEtaScorer(model), ARC_DELTAS)


class TestKernel:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("n", [1024, 4096, 65536])
    def test_trained_classifiers(self, n: int, seed: int) -> None:
        clf = train_plugin(F1, sample_holder(SINE, n, seed), EstimatorSpec("kernel"), seed=seed)
        assert_rows_match(compare(SINE, clf.scorer, [clf.delta]))

    def test_empty_windows_fall_back_to_the_global_rate(self) -> None:
        data = sample_holder(SINE, 100, 3)
        scorer = fit_kernel_smoother(data, 1.0, bandwidth_const=0.05)
        # queries farther than h from every training point (over a tenth of
        # [0, 1] here) score the global rate
        gaps = np.diff(np.concatenate([[0.0], np.sort(data.features[:, 0]), [1.0]]))
        assert np.clip(gaps - 2 * scorer.bandwidth, 0.0, None).sum() > 0.1
        assert_rows_match(compare(SINE, scorer, [scorer.global_rate - 1e-3,
                                                 scorer.global_rate + 1e-3, 0.5]))

    @pytest.mark.parametrize("delta", CLIP_DELTAS)
    def test_thresholds_at_the_clip(self, delta: float) -> None:
        assert_rows_match(clip_case(), CLIP_DELTAS.index(delta))

    def test_flat_tag(self) -> None:
        flat = HolderModel("flat")
        clf = train_plugin(F1, sample_holder(flat, 4096, 2), EstimatorSpec("kernel"), seed=2)
        assert_rows_match(compare(flat, clf.scorer, [clf.delta, 0.5]))

    def test_two_dimensional_kernel_has_no_intervals(self) -> None:
        rng = np.random.default_rng(0)
        scorer = KernelScorer(rng.random((50, 2)), np.where(rng.random(50) < 0.5, 1, -1),
                              0.3)
        with pytest.raises(ModeUnsupportedError):
            scorer.acceptance_intervals(0.5)
        with pytest.raises(DimensionMismatchError):
            SINE.classifier_confusion(scorer, 0.5)


def rescored_intervals(scorer: KernelScorer, delta: float) -> np.ndarray:
    """Reference for ``KernelScorer.acceptance_intervals``: the same pieces
    and cuts, but every cut midpoint, cut piece or not, is scored again
    through ``scores``."""
    h = scorer.bandwidth
    h2 = h**2
    breaks = np.concatenate([scorer._x - h, scorer._x + h])
    edges = np.unique(np.concatenate([[0.0, 1.0], breaks[(breaks > 0.0) & (breaks < 1.0)]]))
    left, right = edges[:-1], edges[1:]
    lo, hi = scorer._window(0.5 * (left + right))

    def quadratic(moments: np.ndarray) -> np.ndarray:
        s0, s1, s2 = (moments[hi] - moments[lo]).T
        return np.stack([-s0 / h2, 2.0 * s1 / h2, s0 - s2 / h2])

    den, num = quadratic(scorer._moments), quadratic(scorer._pos_moments)
    floor = den - np.array([[0.0], [0.0], [_KERNEL_MIN_WEIGHT]])
    cuts = np.unique(np.concatenate([edges, *_roots_inside(num - delta * den, left, right),
                                     *_roots_inside(floor, left, right)]))
    accepted = scorer.scores(0.5 * (cuts[:-1] + cuts[1:])) > delta
    change = np.diff(np.concatenate([[0], accepted.astype(np.int8), [0]]))
    return np.column_stack([cuts[change == 1], cuts[change == -1]])


class TestIntervalsMatchRescoring:
    """An uncut piece is decided by the sums gathered at its midpoint; the
    result must equal rescoring every midpoint exactly, not within a
    tolerance as the midpoint rule above checks it."""

    @staticmethod
    def check(scorer: KernelScorer, deltas) -> None:
        for delta in deltas:
            got = scorer.acceptance_intervals(delta)
            assert np.array_equal(got, rescored_intervals(scorer, delta)), delta

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n", [1024, 65536])
    def test_trained_classifiers(self, n: int, seed: int) -> None:
        clf = train_plugin(F1, sample_holder(SINE, n, seed), EstimatorSpec("kernel"), seed=seed)
        self.check(clf.scorer, (clf.delta, 0.2, 0.5, 0.8))

    def test_empty_windows(self) -> None:
        scorer = fit_kernel_smoother(sample_holder(SINE, 100, 3), 1.0, bandwidth_const=0.05)
        rate = scorer.global_rate
        self.check(scorer, (rate - 1e-3, rate, rate + 1e-3, 0.5))

    def test_thresholds_at_the_clip(self) -> None:
        scorer = fit_kernel_smoother(sample_holder(SINE, 400, 5), 1.0, bandwidth_const=0.3)
        self.check(scorer, (KERNEL_CLIP / 2, KERNEL_CLIP, 2 * KERNEL_CLIP, 1 - 2 * KERNEL_CLIP,
                            1 - KERNEL_CLIP, 1 - KERNEL_CLIP / 2, 0.0, 1.0))


class TestHalfLineScorers:
    @pytest.mark.parametrize("delta", LOGISTIC_DELTAS)
    @pytest.mark.parametrize(("w", "b"), [(4.0, -2.0), (-3.0, 1.0), (0.0, 0.3), (0.5, 5.0)])
    def test_logistic(self, w: float, b: float, delta: float) -> None:
        assert_rows_match(logistic_case(w, b), LOGISTIC_DELTAS.index(delta))

    def test_fitted_logistic(self) -> None:
        scorer, _ = fit_logistic_mle(sample_holder(SINE, 4000, 1))
        assert_rows_match(compare(SINE, scorer, [0.3, 0.5, 0.7]))

    @pytest.mark.parametrize(("p", "delta"), CONSTANT_CASES)
    def test_constant(self, p: float, delta: float) -> None:
        assert_rows_match(constant_case(p), constant_deltas(p).index(delta))

    def test_two_dimensional_logistic_is_rejected(self) -> None:
        scorer = LogisticScorer([1.0, 2.0], 0.0)
        with pytest.raises(ModeUnsupportedError):
            scorer.acceptance_intervals(0.5)
        with pytest.raises(DimensionMismatchError):
            SINE.classifier_confusion(scorer, 0.5)


class TestTrueEta:
    @pytest.mark.parametrize("delta", ARC_DELTAS)
    @pytest.mark.parametrize("tag", ["sine", "flat"])
    def test_arc(self, tag: str, delta: float) -> None:
        assert_rows_match(arc_case(tag), ARC_DELTAS.index(delta))

    def test_zero_regret_at_the_optimum(self) -> None:
        delta_star, _ = population_optimum(F1, SINE)
        report = population_regret(F1, PluginClassifier(TrueEtaScorer(SINE), delta_star), SINE)
        assert report.mode == {"mode": "closed-form"}
        assert abs(report.regret) <= 1e-12

    def test_gaussian_true_eta_has_no_intervals(self) -> None:
        scorer = TrueEtaScorer(GaussianModel(np.array([1.0]), 0.5))
        with pytest.raises(ModeUnsupportedError):
            scorer.acceptance_intervals(0.5)
