"""Synthetic models: samplers, closed-form confusion curves, margin mass.

``tests/data/population_curve_v1.npz`` holds the population curve of four
models on a 99-point grid, as computed at a commit known to be right; the
curve must reproduce it bit for bit.  Regenerate only from such a commit:

    PYTHONPATH=src python tests/test_synth.py
"""

from __future__ import annotations

import functools
import math
import operator
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit, logit, ndtr

from karmic import (
    ConstantScorer,
    DimensionMismatchError,
    ExperimentConfig,
    GaussianModel,
    HolderModel,
    LogisticScorer,
    ModeUnsupportedError,
    ScoreProfile,
    PluginClassifier,
    fit_kernel_smoother,
    fit_logistic_mle,
    parse_metric,
    population_optimum,
    sample_gaussian,
    sample_holder,
)
from karmic.pipeline import population_confusion_of_model
from karmic.synth import _streams

from helpers import margin_exponent_estimate

SINE = HolderModel("sine")
GOLDEN_CURVE = Path(__file__).parent / "data" / "population_curve_v1.npz"
CONFIGS = Path(__file__).parent.parent / "configs"
CURVE_MODELS = {
    "ref": GaussianModel(np.array([2.0, 0.0]), 0.5),
    "gauss": GaussianModel([1.2, -0.7], 0.3),
    "sine": HolderModel("sine"),
    "flat": HolderModel("flat"),
}


class TestModels:
    def test_gaussian_fields(self) -> None:
        m = GaussianModel(np.array([3.0, 4.0]), 0.25)
        assert m.dim == 2
        assert m.to_dict() == {"model": "gaussian", "mu": [3.0, 4.0], "kappa": 0.25}

    def test_gaussian_scalar_mu_promoted(self) -> None:
        assert GaussianModel(2.0, 0.5).dim == 1

    @pytest.mark.parametrize("kappa", [0.0, 1.0, -0.1, 1.5])
    def test_gaussian_prior_range(self, kappa: float) -> None:
        with pytest.raises(ValueError):
            GaussianModel(np.array([1.0]), kappa)

    def test_gaussian_mu_must_be_finite_vector(self) -> None:
        with pytest.raises(ValueError):
            GaussianModel(np.array([[1.0, 2.0]]), 0.5)
        with pytest.raises(ValueError):
            GaussianModel(np.array([np.inf]), 0.5)

    def test_holder_fields(self) -> None:
        m = HolderModel("sine")
        assert m.dim == 1
        assert m.to_dict() == {"model": "holder", "eta_tag": "sine"}

    def test_holder_validation(self) -> None:
        with pytest.raises(ValueError):
            HolderModel("sawtooth")

    def test_holder_eta_curves(self) -> None:
        x = np.array([0.0, 0.25, 0.5, 0.75])
        np.testing.assert_allclose(HolderModel("sine").eta(x), [0.5, 0.95, 0.5, 0.05], atol=1e-15)
        np.testing.assert_allclose(HolderModel("flat").eta(x), 0.5)


class TestSamplers:
    def test_gaussian_determinism(self) -> None:
        m = GaussianModel(np.array([2.0, 0.0]), 0.4)
        a = sample_gaussian(m, 500, seed=9)
        b = sample_gaussian(m, 500, seed=9)
        c = sample_gaussian(m, 500, seed=10)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert not np.array_equal(a.features, c.features)

    def test_gaussian_label_fraction(self) -> None:
        m = GaussianModel(np.array([1.0]), 0.3)
        data = sample_gaussian(m, 1_000_000, seed=3)
        assert (data.labels == 1).mean() == pytest.approx(0.3, abs=2e-3)

    def test_gaussian_extreme_prior(self) -> None:
        m = GaussianModel(np.array([1.0]), 1.0 - 1e-12)
        data = sample_gaussian(m, 10_000, seed=0)
        assert (data.labels == 1).all()

    def test_gaussian_class_means(self) -> None:
        mu = np.array([2.0, -1.0])
        data = sample_gaussian(GaussianModel(mu, 0.5), 400_000, seed=5)
        pos = data.features[data.labels == 1]
        neg = data.features[data.labels == -1]
        np.testing.assert_allclose(pos.mean(axis=0), mu / 2, atol=0.02)
        np.testing.assert_allclose(neg.mean(axis=0), -mu / 2, atol=0.02)
        np.testing.assert_allclose(pos.std(axis=0), 1.0, atol=0.02)

    @pytest.mark.parametrize("mu", [[1.5], [2.0, 0.0], [0.3, -1.0, 2.0, 0.25, 7.0]])
    def test_gaussian_features_bit_for_bit(self, mu) -> None:
        # reference: the whole (n, d) mean added at once, from the same streams
        label_rng, feature_rng = _streams(4)
        labels = np.where(label_rng.random(3000) < 0.3, 1, -1)
        mu = np.array(mu)
        want = feature_rng.standard_normal((3000, mu.size)) + 0.5 * labels[:, None] * mu[None, :]
        data = GaussianModel(mu, 0.3).sample(3000, 4)
        assert data.labels.tolist() == labels.tolist()
        assert data.features.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", [HolderModel("sine"), GaussianModel(np.array([1.5]), 0.3),
                                       GaussianModel(np.array([2.0, 0.0]), 0.5),
                                       GaussianModel(np.array([0.3, -1.0, 2.0, 0.25, 7.0]), 0.6)],
                             ids=["holder", "gaussian-d1", "gaussian-d2", "gaussian-d5"])
    def test_a_sample_is_the_first_rows_of_a_larger_one(self, model) -> None:
        # a rate study draws each seed once, at its largest n, and gives each
        # row the first n rows; every n of both committed configs is checked
        sizes = sorted({n for name in ("rate_gaussian_f1.cfg", "rate_holder_f1.cfg")
                        for n in ExperimentConfig.from_file(str(CONFIGS / name)).n_list})
        for seed in (0, 7):
            full = model.sample(sizes[-1], seed)
            for n in sizes:
                data = model.sample(n, seed)
                assert data.features.tobytes() == full.features[:n].tobytes()
                assert data.labels.tobytes() == full.labels[:n].tobytes()

    def test_holder_determinism_and_support(self) -> None:
        m = HolderModel("sine")
        a = sample_holder(m, 1000, seed=4)
        b = sample_holder(m, 1000, seed=4)
        np.testing.assert_array_equal(a.features, b.features)
        np.testing.assert_array_equal(a.labels, b.labels)
        assert a.features.min() >= 0.0 and a.features.max() <= 1.0
        assert a.dim == 1

    def test_holder_conditional_calibration(self) -> None:
        m = HolderModel("sine")
        data = sample_holder(m, 400_000, seed=8)
        x = data.features[:, 0]
        y = (data.labels == 1).astype(float)
        for lo, hi in [(0.1, 0.15), (0.3, 0.35), (0.7, 0.75)]:
            mask = (x >= lo) & (x < hi)
            want = HolderModel("sine").eta(np.array([(lo + hi) / 2]))[0]
            assert y[mask].mean() == pytest.approx(want, abs=0.01)


class TestTrueEta:
    def test_closed_form(self) -> None:
        m = GaussianModel(np.array([2.0, 0.0]), 0.3)
        x = np.array([[0.5, 3.0]])
        want = expit(2.0 * 0.5 + logit(0.3))
        assert m.eta(x) == pytest.approx(want, rel=1e-14)

    def test_vector_input_and_scalar_row(self) -> None:
        m = GaussianModel(np.array([1.0]), 0.5)
        vals = m.eta(np.array([[0.0], [10.0], [-10.0]]))
        assert vals.shape == (3,)
        assert vals[0] == pytest.approx(0.5)
        assert vals[1] > 0.99 and vals[2] < 0.01

    def test_dimension_mismatch(self) -> None:
        m = GaussianModel(np.array([1.0, 0.0]), 0.5)
        with pytest.raises(DimensionMismatchError):
            m.eta(np.zeros((3, 3)))

    def test_single_point_is_refused(self) -> None:
        # eta is defined at the rows of a feature matrix only
        m = GaussianModel(np.array([2.0, 0.0]), 0.3)
        with pytest.raises(DimensionMismatchError):
            m.eta(np.array([0.5, 3.0]))

    def test_one_dimensional_gaussian_takes_a_feature_column(self) -> None:
        # a 1-d array is a feature column to eta, as it is to every scorer
        m = GaussianModel([1.5], 0.4)
        x = np.random.default_rng(1).standard_normal(20)
        assert np.array_equal(m.eta(x), m.eta(x[:, None]))
        assert np.array_equal(m.eta(x), m.scores(x))

    @pytest.mark.parametrize("tag", ["sine", "flat"])
    def test_holder_eta_refuses_two_columns(self, tag: str) -> None:
        with pytest.raises(DimensionMismatchError):
            HolderModel(tag).eta(np.zeros((3, 2)))


class TestGaussianConfusion:
    def test_reference_value(self) -> None:
        # kappa=1/2, |mu|=2, delta=1/2: TP = Phi(1)/2.
        m = GaussianModel(np.array([2.0, 0.0]), 0.5)
        c = population_confusion_of_model(m)(0.5)
        assert c[0] == pytest.approx(0.5 * ndtr(1.0), abs=1e-14)
        assert c[3] == pytest.approx(0.5 * ndtr(1.0), abs=1e-14)
        assert c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_balanced_symmetry(self) -> None:
        curve = population_confusion_of_model(GaussianModel(np.array([1.3]), 0.5))
        for delta in [0.1, 0.27, 0.44]:
            a = curve(delta)
            b = curve(1.0 - delta)
            np.testing.assert_allclose(a, b[::-1], atol=1e-14)

    def test_class_mass_is_threshold_invariant(self) -> None:
        m = GaussianModel(np.array([0.8, 0.4]), 0.35)
        for delta in np.linspace(0.05, 0.95, 7):
            tp, fp, fn, tn = population_confusion_of_model(m)(float(delta))
            assert tp + fn == pytest.approx(0.35, abs=1e-12)
            assert fp + tn == pytest.approx(0.65, abs=1e-12)

    def test_monotone_in_delta(self) -> None:
        m = GaussianModel(np.array([1.0]), 0.5)
        deltas = np.linspace(0.01, 0.99, 60)
        curve = population_confusion_of_model(m)(deltas)
        tp, tn = curve[:, 0], curve[:, 3]
        assert (np.diff(tp) <= 1e-12).all()
        assert (np.diff(tn) >= -1e-12).all()

    @pytest.mark.parametrize("kappa", [0.3, 0.5])
    def test_zero_margin_optimum_predicts_all_positive(self, kappa: float) -> None:
        # eta is the constant kappa: the F1 optimum predicts +1 everywhere
        delta_star, u_star = population_optimum(parse_metric("fbeta:1"),
                                                GaussianModel([0.0], kappa))
        assert abs(delta_star - kappa / (1 + kappa)) <= 1e-12
        assert u_star == pytest.approx(2 * kappa / (1 + kappa), rel=1e-15)

    def test_monte_carlo_agreement(self, rng) -> None:
        for _ in range(6):
            kappa = float(rng.uniform(0.2, 0.8))
            m = GaussianModel(rng.uniform(-1.5, 1.5, size=2), kappa)
            if np.linalg.norm(m.mu) < 0.2:
                m = GaussianModel(np.array([1.0, 0.0]), kappa)
            delta = float(rng.uniform(0.1, 0.9))
            data = sample_gaussian(m, 200_000, seed=int(rng.integers(1 << 31)))
            mc = ScoreProfile.from_scorer(m, data).confusion(delta)
            exact = population_confusion_of_model(m)(delta)
            np.testing.assert_allclose(mc, exact, atol=5e-3)


@pytest.mark.parametrize(
    "m",
    [GaussianModel(np.array([2.0, 1.0]), 0.3), HolderModel("sine"), HolderModel("flat")],
    ids=["gaussian", "sine", "flat"],
)
class TestPopulationCurve:
    def test_curve_matches_scalar_calls(self, m) -> None:
        deltas = np.array([[0.2, 0.5, 0.9], [0.01, 0.33, 0.99]])
        curve = population_confusion_of_model(m)
        batch = curve(deltas)
        assert batch.shape == (2, 3, 4)
        for row, delta in zip(batch.reshape(-1, 4), deltas.ravel()):
            # bitwise: the scalar and the vectorized calls share one arithmetic
            np.testing.assert_array_equal(row, curve(float(delta)))

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_boundary_thresholds_predict_constantly(self, m, delta: float) -> None:
        # every x passes eta > 0 and none passes eta > 1
        tp, fp, fn, tn = population_confusion_of_model(m)(delta)
        assert ((fn, tn) if delta == 0.0 else (tp, fp)) == (0.0, 0.0)


@pytest.mark.parametrize("name", sorted(CURVE_MODELS))
def test_curve_bits_unchanged(name: str) -> None:
    with np.load(GOLDEN_CURVE) as golden:
        grid, want = golden["grid"], golden[name]
    curve = population_confusion_of_model(CURVE_MODELS[name])
    bits = want.view(np.uint64)
    np.testing.assert_array_equal(curve(grid).view(np.uint64), bits)
    np.testing.assert_array_equal(
        np.array([curve(float(d)) for d in grid]).view(np.uint64), bits)


class TestHalfspaceConfusion:
    def test_matches_population_at_true_parameters(self) -> None:
        m = GaussianModel(np.array([1.2, -0.7]), 0.3)
        scorer = LogisticScorer(m.mu, float(logit(0.3)))
        for delta in [0.15, 0.5, 0.85]:
            np.testing.assert_allclose(m.classifier_confusion(scorer, delta),
                                       population_confusion_of_model(m)(delta), atol=1e-14)

    def test_zero_weights_predict_constantly(self) -> None:
        m = GaussianModel(np.array([1.0]), 0.4)
        scorer = LogisticScorer([0.0], 0.0)
        all_pos = m.classifier_confusion(scorer, 0.4)  # sigmoid(0)=0.5 > 0.4
        np.testing.assert_allclose(all_pos, [0.4, 0.6, 0.0, 0.0], atol=1e-15)
        all_neg = m.classifier_confusion(scorer, 0.5)  # tie goes negative
        np.testing.assert_allclose(all_neg, [0.0, 0.0, 0.4, 0.6], atol=1e-15)

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's own, too
    def test_tiny_weights_are_a_half_space(self) -> None:
        # any positive w1 with w2 = b = 0 is the rule x1 > 0 at delta = 1/2;
        # the squares of the smallest weights underflow, to zero below 1e-162
        m = GaussianModel(np.array([2.0, 0.0]), 0.5)
        unit = m.classifier_confusion(LogisticScorer([1.0, 0.0], 0.0), 0.5)
        np.testing.assert_allclose(unit, [0.42, 0.08, 0.08, 0.42], atol=0.001)
        for w in (5e-13, 1e-160, 1e-170, 1e-200, 1e-310, 5e-324):
            tiny = m.classifier_confusion(LogisticScorer([w, 0.0], 0.0), 0.5)
            np.testing.assert_allclose(tiny, unit, rtol=0.0, atol=1e-15)
            # away from 1/2 the cut x1 > logit(delta) / w leaves the float range
            # (no warning): the rule rejects, or accepts, every point
            rows = m.classifier_confusion(LogisticScorer([w, 0.0], 0.0), np.array([0.9, 0.1]))
            np.testing.assert_array_equal(rows, [[0.0, 0.0, 0.5, 0.5], [0.5, 0.5, 0.0, 0.0]])

    @pytest.mark.filterwarnings("error::RuntimeWarning")  # numpy's own, too
    def test_huge_weights_are_a_half_space(self) -> None:
        # the squares of these weights would overflow: no warning, the same rule
        m = GaussianModel(np.array([2.0, 0.0]), 0.5)
        unit = m.classifier_confusion(LogisticScorer([1.0, 0.0], 0.0), 0.5)
        for w in (1e160, 1e200, 1e300):
            huge = m.classifier_confusion(LogisticScorer([w, 0.0], 0.0), 0.5)
            np.testing.assert_allclose(huge, unit, rtol=0.0, atol=1e-15)

    def test_scaled_weights_keep_their_bits(self) -> None:
        # w and w / 2^600 put the same rule through the same arithmetic, once
        # scaled back by a power of two: the rows agree bit for bit
        m = GaussianModel(np.array([1.2, -0.7]), 0.3)
        w, b = np.array([0.75, -0.3]), 0.4
        unit = m.classifier_confusion(LogisticScorer(w, b), 0.5)
        tiny = m.classifier_confusion(LogisticScorer(np.ldexp(w, -600), np.ldexp(b, -600)), 0.5)
        assert_same_bits(tiny, unit)

    def test_weight_dimension_is_refused(self) -> None:
        m = GaussianModel(np.array([2.0, 0.0]), 0.5)
        with pytest.raises(DimensionMismatchError):
            m.classifier_confusion(LogisticScorer([1.0], 0.0), 0.5)

    def test_holder_eta_has_no_half_space(self) -> None:
        with pytest.raises(ModeUnsupportedError):
            GaussianModel(np.array([1.0]), 0.5).classifier_confusion(SINE, 0.5)

    @pytest.mark.parametrize("kind", ["logistic", "constant"])
    def test_batch_equals_scalar_calls(self, kind: str) -> None:
        m = GaussianModel(np.array([1.2, -0.7]), 0.3)
        if kind == "logistic":
            scorer, _ = fit_logistic_mle(sample_gaussian(m, 500, seed=2))
        else:
            scorer = ConstantScorer(0.3)
        deltas = np.array([[0.05, 0.3, 0.5], [0.61, 0.9, 0.999]])
        batch = m.classifier_confusion(scorer, deltas)
        assert batch.shape == (2, 3, 4)
        for row, delta in zip(batch.reshape(-1, 4), deltas.ravel()):
            np.testing.assert_array_equal(row, m.classifier_confusion(scorer, float(delta)))


def interval_scorers(model) -> dict:
    """One scorer of each kind that has acceptance intervals, the fitted ones
    fitted on 1-d data: constant, logistic, kernel and the model's true eta."""
    data = sample_holder(HolderModel("sine"), 2000, 4)
    return {"constant": ConstantScorer(0.45), "logistic": fit_logistic_mle(data)[0],
            "kernel": fit_kernel_smoother(data, 1.0), "true-eta": model}


class FixedIntervals:
    """A 1-d scorer stand-in that accepts the same pieces at every threshold."""

    dim = 1

    def __init__(self, pieces: np.ndarray) -> None:
        self.pieces = pieces

    def acceptance_intervals(self, deltas) -> np.ndarray:
        return np.broadcast_to(self.pieces, np.shape(deltas) + self.pieces.shape)


def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))


class TestIntervalBatches:
    """Every interval scorer answers a batch of thresholds with one padded
    block, and each row of its confusion has the bits of its scalar call."""

    DELTAS = np.array([[0.05, 0.3, 0.45], [0.5, 0.7, 0.999]])

    @pytest.mark.parametrize("kind", ["constant", "logistic", "kernel", "true-eta"])
    @pytest.mark.parametrize("tag", ["sine", "flat"])
    def test_batch_equals_scalar_calls(self, tag: str, kind: str) -> None:
        model = HolderModel(tag)
        scorer = interval_scorers(model)[kind]
        intervals = scorer.acceptance_intervals(self.DELTAS)
        assert intervals.ndim == 4 and intervals.shape[:2] == (2, 3) and intervals.shape[3] == 2
        batch = model.classifier_confusion(scorer, self.DELTAS)
        assert batch.shape == (2, 3, 4)
        for row, delta in zip(batch.reshape(-1, 4), self.DELTAS.ravel()):
            assert_same_bits(row, model.classifier_confusion(scorer, float(delta)))

    def test_padding_keeps_the_bits_of_short_rows(self) -> None:
        # numpy sums 8 or more entries pairwise: rows of 4-7 pieces padded
        # to the 10 of the longest row must still sum as 4-7 entries
        scorer = fit_kernel_smoother(sample_holder(SINE, 100, 3), 1.0, bandwidth_const=0.1)
        deltas = np.array([[0.2, 0.49, 0.8], [0.3, 0.68, 0.85]])
        intervals = scorer.acceptance_intervals(deltas)
        pieces = (intervals[..., 1] > intervals[..., 0]).sum(axis=-1)
        assert pieces.max() >= 8 and ((pieces >= 2) & (pieces <= 7)).sum() >= 3
        batch = SINE.classifier_confusion(scorer, deltas)
        for row, rows, delta, k in zip(batch.reshape(-1, 4), intervals.reshape(6, -1, 2),
                                       deltas.ravel(), pieces.ravel()):
            assert_same_bits(scorer.acceptance_intervals(float(delta)), rows[:k])
            assert_same_bits(row, SINE.classifier_confusion(scorer, float(delta)))

    def test_pieces_add_left_to_right(self) -> None:
        # twelve pieces whose true-positive mass numpy's pairwise sum rounds
        # differently: the integrator adds them in order, and zero-width
        # rows padding the block add nothing
        pieces = np.sort(np.random.default_rng(3).random(24)).reshape(12, 2)
        ends = np.cos(2 * np.pi * pieces)
        widths, arcs = pieces[:, 1] - pieces[:, 0], ends[:, 0] - ends[:, 1]
        in_order = [functools.reduce(operator.add, terms) for terms in (widths, arcs)]
        tp = 0.5 * in_order[0] + 0.45 / (2 * np.pi) * in_order[1]
        assert tp != 0.5 * widths.sum() + 0.45 / (2 * np.pi) * arcs.sum()
        exact = SINE.classifier_confusion(FixedIntervals(pieces), 0.5)
        assert exact[0] == tp
        padded = np.concatenate([pieces, np.ones((5, 2))])
        assert_same_bits(SINE.classifier_confusion(FixedIntervals(padded), 0.5), exact)

    def test_a_block_of_no_pieces_accepts_nothing(self) -> None:
        # a kernel accepts no point at delta = 1
        scorer = interval_scorers(SINE)["kernel"]
        assert scorer.acceptance_intervals(np.array([1.0, 1.0])).shape == (2, 0, 2)
        np.testing.assert_array_equal(SINE.classifier_confusion(scorer, np.array([1.0, 1.0])),
                                      [[0.0, 0.0, 0.5, 0.5]] * 2)


@pytest.mark.parametrize("delta", [-0.2, 1.5, math.nan])
@pytest.mark.parametrize("kind", ["constant", "logistic", "kernel", "true-eta"])
@pytest.mark.parametrize("model", [GaussianModel([1.0], 0.4), SINE, HolderModel("flat")],
                         ids=["gaussian", "sine", "flat"])
def test_thresholds_outside_the_unit_interval_are_refused(model, kind: str,
                                                          delta: float) -> None:
    scorer = interval_scorers(model)[kind]
    for deltas in (delta, [0.5, delta]):
        with pytest.raises(ValueError, match=r"delta must lie in \[0, 1\]"):
            model.classifier_confusion(scorer, deltas)


@pytest.mark.parametrize("model", [GaussianModel([0.0], 0.5), SINE, HolderModel("flat")],
                         ids=["gaussian", "sine", "flat"])
def test_constant_rule_follows_the_score(model) -> None:
    # one ulp either side of p: predict says all positive below p and all
    # negative from p on, and so must both models
    p = 0.14686858467244446
    scorer = ConstantScorer(p)
    deltas = np.array([np.nextafter(p, 0.0), p, np.nextafter(p, 1.0)])
    all_pos, all_neg = [0.5, 0.5, 0.0, 0.0], [0.0, 0.0, 0.5, 0.5]
    np.testing.assert_array_equal(model.classifier_confusion(scorer, deltas),
                                  [all_pos, all_neg, all_neg])
    x = np.zeros((1, model.dim))
    assert [int(PluginClassifier(scorer, d).predict(x)[0]) for d in deltas] == [1, -1, -1]


class TestHolderConfusion:
    @staticmethod
    def quadrature_oracle(delta: float) -> np.ndarray:
        """Integrate the sine curve over its super-level set found by root
        isolation (independent of the closed-form interval algebra)."""

        def eta(x: float) -> float:
            return 0.5 + 0.45 * math.sin(2 * math.pi * x)

        def g(x: float) -> float:
            return eta(x) - delta

        if delta > 0.5:
            x1 = brentq(g, 0.0, 0.25, xtol=1e-15)
            x2 = brentq(g, 0.25, 0.5, xtol=1e-15)
            pieces = [(x1, x2)]
        else:
            xa = brentq(g, 0.25, 0.75, xtol=1e-15)
            xb = brentq(g, 0.75, 1.0, xtol=1e-15)
            pieces = [(0.0, xa), (xb, 1.0)]
        tp = sum(quad(eta, a, b, epsabs=1e-13)[0] for a, b in pieces)
        pos_mass = sum(b - a for a, b in pieces)
        fp = pos_mass - tp
        fn = 0.5 - tp  # total positive-label mass of this curve is 1/2
        tn = 1.0 - pos_mass - fn
        return np.array([tp, fp, fn, tn])

    @pytest.mark.parametrize("delta", [0.08, 0.3, 0.492, 0.61, 0.9])
    def test_sine_matches_quadrature(self, delta: float) -> None:
        got = population_confusion_of_model(HolderModel("sine"))(delta)
        np.testing.assert_allclose(got, self.quadrature_oracle(delta), atol=1e-9)

    def test_sine_level_above_amplitude(self) -> None:
        c = population_confusion_of_model(HolderModel("sine"))(0.97)
        np.testing.assert_allclose(c, [0.0, 0.0, 0.5, 0.5], atol=1e-12)
        c = population_confusion_of_model(HolderModel("sine"))(0.02)
        np.testing.assert_allclose(c, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_flat_steps_at_half_with_strict_rule(self) -> None:
        m = HolderModel("flat")
        below = population_confusion_of_model(m)(0.49)
        np.testing.assert_allclose(below, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        at = population_confusion_of_model(m)(0.5)
        np.testing.assert_allclose(at, [0.0, 0.0, 0.5, 0.5], atol=1e-15)

    def test_rows_always_on_simplex(self) -> None:
        m = HolderModel("sine")
        for delta in np.linspace(0.01, 0.99, 33):
            arr = population_confusion_of_model(m)(float(delta))
            assert arr.shape == (4,)
            assert (arr >= -1e-12).all()
            assert arr.sum() == pytest.approx(1.0, abs=1e-12)

    def test_monte_carlo_agreement(self) -> None:
        m = HolderModel("sine")
        data = sample_holder(m, 400_000, seed=77)

        class CurveScorer:
            dim = 1

            def scores(self, X):
                return HolderModel("sine").eta(X[:, 0])

        for delta in [0.2, 0.55, 0.8]:
            mc = ScoreProfile.from_scorer(CurveScorer(), data).confusion(delta)
            exact = population_confusion_of_model(m)(delta)
            np.testing.assert_allclose(mc, exact, atol=4e-3)


class TestMarginExponent:
    def test_uniform_mass_has_unit_exponent(self) -> None:
        n = 100_000
        eta = (np.arange(n) + 0.5) / n
        t_grid = np.linspace(0.02, 0.4, 25)
        alpha = margin_exponent_estimate(eta, 0.5, t_grid)
        assert alpha == pytest.approx(1.0, abs=0.01)

    def test_square_root_concentration(self) -> None:
        # eta = delta* + u^2 (signed) puts mass ~ t^(1/2) near delta*.
        n = 50_000
        u = np.linspace(-1, 1, n)
        eta = 0.5 + 0.4 * np.sign(u) * u**2
        t_grid = np.linspace(0.01, 0.35, 20)
        alpha = margin_exponent_estimate(eta, 0.5, t_grid)
        assert alpha == pytest.approx(0.5, abs=0.02)

    def test_requires_many_values(self) -> None:
        with pytest.raises(ValueError):
            margin_exponent_estimate(np.full(9_999, 0.4), 0.5, np.linspace(0.01, 0.4, 10))

    @pytest.mark.parametrize(
        "t_grid",
        [
            np.array([0.3, 0.2, 0.1]),
            np.array([0.0, 0.1, 0.2]),
            np.array([0.1, 0.2, 0.5]),
            np.array([0.1]),
        ],
    )
    def test_grid_validation(self, t_grid) -> None:
        with pytest.raises(ValueError):
            margin_exponent_estimate(np.linspace(0, 1, 20_000), 0.5, t_grid)

    def test_no_mass_near_threshold(self) -> None:
        eta = np.full(20_000, 0.9)
        with pytest.raises(ValueError, match="carry mass near the threshold"):
            margin_exponent_estimate(eta, 0.5, np.linspace(0.01, 0.35, 12))


if __name__ == "__main__":
    grid = np.arange(1, 100) / 100.0
    np.savez_compressed(GOLDEN_CURVE, grid=grid, **{
        name: population_confusion_of_model(m)(grid) for name, m in CURVE_MODELS.items()})
    print(f"wrote {GOLDEN_CURVE}")
