"""Synthetic models: samplers, closed-form confusion curves, margin mass."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import expit, logit, ndtr

from karmic import (
    BoundaryThresholdError,
    DegenerateDistributionError,
    DimensionMismatchError,
    GaussianModel,
    HolderModel,
    ScoreProfile,
    TrueEtaScorer,
    sample_gaussian,
    sample_holder,
    gaussian_halfspace_confusion,
)

from helpers import margin_exponent_estimate


class TestModels:
    def test_gaussian_fields(self) -> None:
        m = GaussianModel(np.array([3.0, 4.0]), 0.25)
        assert m.dim == 2
        assert m.margin_norm == pytest.approx(5.0)
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

    def test_scorer_wrapper_agrees(self) -> None:
        m = GaussianModel(np.array([1.5, -0.5]), 0.4)
        X = np.random.default_rng(0).standard_normal((50, 2))
        np.testing.assert_allclose(TrueEtaScorer(m).scores(X), m.eta(X))


class TestGaussianConfusion:
    def test_reference_value(self) -> None:
        # kappa=1/2, |mu|=2, delta=1/2: TP = Phi(1)/2.
        m = GaussianModel(np.array([2.0, 0.0]), 0.5)
        c = m.population_confusion(0.5)
        assert c[0] == pytest.approx(0.5 * ndtr(1.0), abs=1e-14)
        assert c[3] == pytest.approx(0.5 * ndtr(1.0), abs=1e-14)
        assert c.sum() == pytest.approx(1.0, abs=1e-12)

    def test_balanced_symmetry(self) -> None:
        m = GaussianModel(np.array([1.3]), 0.5)
        for delta in [0.1, 0.27, 0.44]:
            a = m.population_confusion(delta)
            b = m.population_confusion(1.0 - delta)
            np.testing.assert_allclose(a, b[::-1], atol=1e-14)

    def test_class_mass_is_threshold_invariant(self) -> None:
        m = GaussianModel(np.array([0.8, 0.4]), 0.35)
        for delta in np.linspace(0.05, 0.95, 7):
            tp, fp, fn, tn = m.population_confusion(float(delta))
            assert tp + fn == pytest.approx(0.35, abs=1e-12)
            assert fp + tn == pytest.approx(0.65, abs=1e-12)

    def test_monotone_in_delta(self) -> None:
        m = GaussianModel(np.array([1.0]), 0.5)
        deltas = np.linspace(0.01, 0.99, 60)
        curve = m.population_confusion(deltas)
        tp, tn = curve[:, 0], curve[:, 3]
        assert (np.diff(tp) <= 1e-12).all()
        assert (np.diff(tn) >= -1e-12).all()

    def test_zero_margin_rejected(self) -> None:
        m = GaussianModel(np.array([0.0]), 0.5)
        with pytest.raises(DegenerateDistributionError):
            m.population_confusion(0.5)

    def test_monte_carlo_agreement(self, rng) -> None:
        for _ in range(6):
            kappa = float(rng.uniform(0.2, 0.8))
            m = GaussianModel(rng.uniform(-1.5, 1.5, size=2), kappa)
            if m.margin_norm < 0.2:
                m = GaussianModel(np.array([1.0, 0.0]), kappa)
            delta = float(rng.uniform(0.1, 0.9))
            data = sample_gaussian(m, 200_000, seed=int(rng.integers(1 << 31)))
            mc = ScoreProfile.from_scorer(TrueEtaScorer(m), data).confusion(delta)
            exact = m.population_confusion(delta)
            np.testing.assert_allclose(mc, exact, atol=5e-3)


@pytest.mark.parametrize(
    "m",
    [GaussianModel(np.array([2.0, 1.0]), 0.3), HolderModel("sine"), HolderModel("flat")],
    ids=["gaussian", "sine", "flat"],
)
class TestPopulationCurve:
    def test_curve_matches_scalar_calls(self, m) -> None:
        deltas = np.array([[0.2, 0.5, 0.9], [0.01, 0.33, 0.99]])
        curve = m.population_confusion(deltas)
        assert curve.shape == (2, 3, 4)
        for row, delta in zip(curve.reshape(-1, 4), deltas.ravel()):
            # bitwise: the scalar and the vectorized calls share one arithmetic
            np.testing.assert_array_equal(row, m.population_confusion(float(delta)))

    @pytest.mark.parametrize("delta", [0.0, 1.0])
    def test_boundary_thresholds_rejected(self, m, delta: float) -> None:
        with pytest.raises(BoundaryThresholdError):
            m.population_confusion(delta)
        with pytest.raises(BoundaryThresholdError):
            m.population_confusion([0.5, delta])

    def test_curve_is_the_true_eta_classifier(self, m) -> None:
        # bitwise: thresholding eta is the classifier rule of its own scorer
        for delta in [0.02, 0.2, 0.3, 0.5, 0.7, 0.97]:
            np.testing.assert_array_equal(m.population_confusion(delta),
                                          m.classifier_confusion(TrueEtaScorer(m), delta))


class TestHalfspaceConfusion:
    def test_matches_population_at_true_parameters(self) -> None:
        m = GaussianModel(np.array([1.2, -0.7]), 0.3)
        for delta in [0.15, 0.5, 0.85]:
            via_halfspace = gaussian_halfspace_confusion(
                m, m.mu, float(logit(0.3)), delta
            )
            direct = m.population_confusion(delta)
            np.testing.assert_allclose(via_halfspace, direct, atol=1e-14)

    def test_zero_weights_predict_constantly(self) -> None:
        m = GaussianModel(np.array([1.0]), 0.4)
        w = np.array([0.0])
        all_pos = gaussian_halfspace_confusion(m, w, 0.0, 0.4)  # sigmoid(0)=0.5 > 0.4
        np.testing.assert_allclose(all_pos, [0.4, 0.6, 0.0, 0.0], atol=1e-15)
        all_neg = gaussian_halfspace_confusion(m, w, 0.0, 0.5)  # tie goes negative
        np.testing.assert_allclose(all_neg, [0.0, 0.0, 0.4, 0.6], atol=1e-15)


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
        got = HolderModel("sine").population_confusion(delta)
        np.testing.assert_allclose(got, self.quadrature_oracle(delta), atol=1e-9)

    def test_sine_level_above_amplitude(self) -> None:
        c = HolderModel("sine").population_confusion(0.97)
        np.testing.assert_allclose(c, [0.0, 0.0, 0.5, 0.5], atol=1e-12)
        c = HolderModel("sine").population_confusion(0.02)
        np.testing.assert_allclose(c, [0.5, 0.5, 0.0, 0.0], atol=1e-12)

    def test_flat_steps_at_half_with_strict_rule(self) -> None:
        m = HolderModel("flat")
        below = m.population_confusion(0.49)
        np.testing.assert_allclose(below, [0.5, 0.5, 0.0, 0.0], atol=1e-15)
        at = m.population_confusion(0.5)
        np.testing.assert_allclose(at, [0.0, 0.0, 0.5, 0.5], atol=1e-15)

    def test_rows_always_on_simplex(self) -> None:
        m = HolderModel("sine")
        for delta in np.linspace(0.01, 0.99, 33):
            arr = m.population_confusion(float(delta))
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
            exact = m.population_confusion(delta)
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
