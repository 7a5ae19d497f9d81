"""Metric closed forms, analytic gradients, and the Karmic contraction."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karmic import (
    LinearFractional,
    MetricDomainError,
    SmoothClosedForm,
    karmic_parts,
    metric_gradient,
    metric_value,
    parse_metric,
    registered_metrics,
)
from karmic.metrics import metric_gradients_masked, metric_values_masked

from helpers import central_difference_gradient, random_interior_confusions

REFERENCE = np.array([0.4, 0.1, 0.1, 0.4])
ALL_NAMES = ("accuracy", "am", "youden", "fbeta:1", "gmean", "qmean", "hmean", "jaccard")


class TestValues:
    @pytest.mark.parametrize(
        ("name", "expected"),
        [
            ("accuracy", 0.8),
            ("am", 0.8),
            ("youden", 0.6),
            ("fbeta:1", 0.8),
            ("gmean", 0.8),
            ("qmean", 0.8),
            ("hmean", 0.8),
            ("jaccard", 2.0 / 3.0),
        ],
    )
    def test_reference_point(self, name: str, expected: float) -> None:
        assert metric_value(parse_metric(name), REFERENCE) == pytest.approx(expected, abs=1e-12)

    def test_fbeta_general_beta(self) -> None:
        # beta = 2 weights recall: (1+4)*tp / ((1+4)*tp + fp + 4*fn)
        c = np.array([0.3, 0.2, 0.1, 0.4])
        want = 5 * 0.3 / (5 * 0.3 + 0.2 + 4 * 0.1)
        assert metric_value(parse_metric("fbeta:2"), c) == pytest.approx(want, abs=1e-12)

    def test_linfrac_ratio(self) -> None:
        # precision = tp / (tp + fp)
        spec = parse_metric("linfrac:1,0,0,0/1,1,0,0")
        assert metric_value(spec, REFERENCE) == pytest.approx(0.8, abs=1e-12)

    @pytest.mark.parametrize(
        ("name", "degenerate"),
        [
            # tpr needs a positive class
            ("gmean", np.array([0.0, 0.5, 0.0, 0.5])),
            ("hmean", np.array([0.0, 0.5, 0.0, 0.5])),
            ("am", np.array([0.0, 0.5, 0.0, 0.5])),
            # these denominators vanish only when nothing is positive anywhere
            ("fbeta:1", np.array([0.0, 0.0, 0.0, 1.0])),
            ("jaccard", np.array([0.0, 0.0, 0.0, 1.0])),
        ],
    )
    def test_vanishing_denominator_is_out_of_domain(self, name: str, degenerate) -> None:
        with pytest.raises(MetricDomainError):
            metric_value(parse_metric(name), degenerate)

    def test_f1_zero_when_no_true_positives_but_errors_exist(self) -> None:
        c = np.array([0.0, 0.5, 0.0, 0.5])
        assert metric_value(parse_metric("fbeta:1"), c) == 0.0
        assert metric_value(parse_metric("jaccard"), c) == 0.0

    def test_accuracy_defined_everywhere(self) -> None:
        degenerate = np.array([0.0, 0.5, 0.0, 0.5])
        assert metric_value(parse_metric("accuracy"), degenerate) == pytest.approx(0.5)

    def test_masked_batch_mixes_valid_and_invalid(self) -> None:
        spec = parse_metric("fbeta:1")
        batch = np.array([[0.4, 0.1, 0.1, 0.4], [0.0, 0.0, 0.0, 1.0]])
        values, valid = metric_values_masked(spec, batch)
        assert valid.tolist() == [True, False]
        assert values[0] == pytest.approx(0.8)
        grads, gvalid = metric_gradients_masked(spec, batch)
        assert gvalid.tolist() == [True, False]
        assert grads.shape == (2, 4)


class TestGradients:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_finite_difference_agreement(self, name: str, rng) -> None:
        spec = parse_metric(name)
        for c in random_interior_confusions(rng, 50):
            grad = metric_gradient(spec, c)
            fd = central_difference_gradient(spec, c)
            err = np.abs(grad - fd) / np.maximum(np.abs(grad), 1.0)
            assert err.max() < 1e-6, f"{name} gradient mismatch at {c}: {err.max():.3g}"

    @settings(max_examples=80, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        name=st.sampled_from(ALL_NAMES + ("linfrac:-1,-2,0,2/1,1,1,1", "fbeta:0.5")),
    )
    def test_finite_difference_agreement_fuzzed(self, seed: int, name: str) -> None:
        gen = np.random.default_rng(seed)
        spec = parse_metric(name)
        c = random_interior_confusions(gen, 1)[0]
        grad = metric_gradient(spec, c)
        fd = central_difference_gradient(spec, c)
        err = np.abs(grad - fd) / np.maximum(np.abs(grad), 1.0)
        assert err.max() < 1e-6

    def test_gradient_out_of_domain_raises(self) -> None:
        with pytest.raises(MetricDomainError):
            metric_gradient(parse_metric("gmean"), np.array([0.0, 0.5, 0.0, 0.5]))


def sensitivity(spec, c) -> float:
    return float(karmic_parts(spec, c)[1])


def threshold_ratio(spec, c) -> float:
    """N/S, whose fixed point on a population curve is the optimal threshold."""
    numerator, sens, valid = karmic_parts(spec, c)
    assert valid
    return float(numerator / sens)


class TestKarmicFunctionals:
    def test_reference_sensitivities(self) -> None:
        # accuracy: grad = (1,0,0,1), sensitivity 2 everywhere.
        assert sensitivity(parse_metric("accuracy"), REFERENCE) == pytest.approx(2.0)
        # f1: 2/(2 tp + fp + fn) = 2/(0.8+0.2) = 2.
        assert sensitivity(parse_metric("fbeta:1"), REFERENCE) == pytest.approx(2.0)
        # am: 1/(2 pi) + 1/(2 (1-pi)) = 2 at pi = 1/2.
        assert sensitivity(parse_metric("am"), REFERENCE) == pytest.approx(2.0)

    def test_reference_threshold_maps(self) -> None:
        assert threshold_ratio(parse_metric("accuracy"), REFERENCE) == pytest.approx(0.5)
        # am maps every confusion matrix to the positive prior.
        assert threshold_ratio(parse_metric("am"), REFERENCE) == pytest.approx(0.5)
        am = parse_metric("am")
        skewed = np.array([0.1, 0.3, 0.2, 0.4])  # prior 0.3
        assert threshold_ratio(am, skewed) == pytest.approx(0.3, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_f1_map_is_half_the_value(self, seed: int) -> None:
        gen = np.random.default_rng(seed)
        spec = parse_metric("fbeta:1")
        c = random_interior_confusions(gen, 1)[0]
        assert threshold_ratio(spec, c) == pytest.approx(0.5 * metric_value(spec, c), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(ALL_NAMES))
    def test_map_stays_inside_unit_interval(self, seed: int, name: str) -> None:
        # every registered metric is Karmic at interior points, with N/S in [0, 1]
        gen = np.random.default_rng(seed)
        c = random_interior_confusions(gen, 1)[0]
        spec = parse_metric(name)
        assert sensitivity(spec, c) > 0.0
        assert 0.0 <= threshold_ratio(spec, c) <= 1.0

    def test_negative_sensitivity_rejected(self) -> None:
        # the miss rate improves by making errors; its sensitivity is -1, the
        # sign population_optimum rejects as non-Karmic
        spec = parse_metric("linfrac:0,0,1,0/1,1,1,1")
        assert sensitivity(spec, REFERENCE) == pytest.approx(-1.0)

    def test_batch_of_any_shape(self) -> None:
        spec = parse_metric("fbeta:1")
        batch = np.array([[REFERENCE, [0.0, 0.0, 0.0, 1.0]]] * 3)  # shape (3, 2, 4)
        numerator, sens, valid = karmic_parts(spec, batch)
        assert numerator.shape == sens.shape == valid.shape == (3, 2)
        assert valid[:, 0].all() and not valid[:, 1].any()
        grad = metric_gradient(spec, REFERENCE)
        assert numerator[0, 0] == grad[3] - grad[1]
        assert sens[0, 0] == (grad[0] - grad[1]) - (grad[2] - grad[3])


class TestInputs:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_arrays_and_matrices_agree(self, name: str) -> None:
        spec = parse_metric(name)
        as_list = [0.4, 0.1, 0.1, 0.4]
        for fn in (metric_value, sensitivity, threshold_ratio):
            assert fn(spec, np.array(as_list)) == fn(spec, tuple(as_list)) == fn(spec, as_list)
        np.testing.assert_array_equal(metric_gradient(spec, np.array(as_list)),
                                      metric_gradient(spec, REFERENCE))

    @pytest.mark.parametrize("bad", [[0.5, 0.5], np.full((2, 4), 0.25), np.float64(0.5)])
    def test_wrong_shape_rejected(self, bad) -> None:
        spec = parse_metric("accuracy")
        with pytest.raises(ValueError):
            metric_value(spec, bad)
        if np.shape(bad)[-1:] != (4,):  # not a batch of rows either
            for fn in (metric_values_masked, metric_gradients_masked, karmic_parts):
                with pytest.raises(ValueError, match="4 trailing entries"):
                    fn(spec, bad)


class TestParsing:
    def test_registry_size_and_names(self) -> None:
        names = [spec.name for spec in registered_metrics()]
        assert names == list(ALL_NAMES)

    def test_fbeta_aliases(self) -> None:
        assert parse_metric("fbeta").name == "fbeta:1"
        assert parse_metric("FBETA:1.0").name == "fbeta:1"
        assert parse_metric(" fbeta:0.50 ").name == "fbeta:0.5"

    @pytest.mark.parametrize(
        "bad",
        [
            "f1",
            "fbeta:zero",
            "fbeta:-1",
            "fbeta:0",
            "linfrac:1,0,0/1,1,1,1",
            "linfrac:1,0,0,0",
            "linfrac:1,x,0,0/1,1,1,1",
            "",
            "fbeta:inf",
            "fbeta:nan",
            "fbeta:1e200",  # finite, but its square overflows
            "linfrac:nan,0,0,0/1,1,1,1",
            "linfrac:1,0,0,0/1,inf,1,1",
            "linfrac:1,0,0,0/1,1,1,-1e400",
        ],
    )
    def test_bad_names_rejected(self, bad: str) -> None:
        with pytest.raises(ValueError, match=re.escape(repr(bad))):
            parse_metric(bad)

    @pytest.mark.parametrize("coeffs", [(math.nan, 0, 0, 0), (1, 0, math.inf, 0)])
    def test_linear_fractional_rejects_non_finite(self, coeffs) -> None:
        with pytest.raises(ValueError, match="finite"):
            LinearFractional(coeffs, (1, 1, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            LinearFractional((1, 1, 1, 1), coeffs)

    def test_ratio_metrics_parse_to_linear_fractional(self) -> None:
        assert parse_metric("fbeta:2").kind == LinearFractional((5, 0, 0, 0), (5, 1, 4, 0))
        assert parse_metric("jaccard").kind == LinearFractional((1, 0, 0, 0), (1, 1, 1, 0))
        assert parse_metric("fbeta").kind == parse_metric("fbeta:1").kind
        for spec in registered_metrics():
            ratio = spec.name in ("fbeta:1", "jaccard")
            assert type(spec.kind) is (LinearFractional if ratio else SmoothClosedForm)

    @pytest.mark.parametrize("tag", ["fbeta", "jaccard"])
    def test_smooth_closed_form_tags_are_the_rate_metrics(self, tag: str) -> None:
        with pytest.raises(ValueError, match="unknown metric tag"):
            SmoothClosedForm(tag)

    def test_linfrac_roundtrip(self) -> None:
        spec = parse_metric("linfrac:1,0,0,0/1,1,0,0")
        assert spec.name == "linfrac:1,0,0,0/1,1,0,0"
