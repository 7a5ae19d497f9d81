"""Metric closed forms, analytic gradients, and the threshold map."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karmic import (
    MetricDomainError,
    NonKarmicPointError,
    karmic_sensitivity,
    metric_gradient,
    metric_value,
    parse_metric,
    registered_metrics,
    threshold_map,
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


class TestKarmicFunctionals:
    def test_reference_sensitivities(self) -> None:
        # accuracy: grad = (1,0,0,1), sensitivity 2 everywhere.
        assert karmic_sensitivity(parse_metric("accuracy"), REFERENCE) == pytest.approx(2.0)
        # f1: 2/(2 tp + fp + fn) = 2/(0.8+0.2) = 2.
        assert karmic_sensitivity(parse_metric("fbeta:1"), REFERENCE) == pytest.approx(2.0)
        # am: 1/(2 pi) + 1/(2 (1-pi)) = 2 at pi = 1/2.
        assert karmic_sensitivity(parse_metric("am"), REFERENCE) == pytest.approx(2.0)

    def test_reference_threshold_maps(self) -> None:
        assert threshold_map(parse_metric("accuracy"), REFERENCE) == pytest.approx(0.5)
        # am maps every confusion matrix to the positive prior.
        assert threshold_map(parse_metric("am"), REFERENCE) == pytest.approx(0.5)
        am = parse_metric("am")
        skewed = np.array([0.1, 0.3, 0.2, 0.4])  # prior 0.3
        assert threshold_map(am, skewed) == pytest.approx(0.3, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_f1_map_is_half_the_value(self, seed: int) -> None:
        gen = np.random.default_rng(seed)
        spec = parse_metric("fbeta:1")
        c = random_interior_confusions(gen, 1)[0]
        assert threshold_map(spec, c) == pytest.approx(0.5 * metric_value(spec, c), abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(ALL_NAMES))
    def test_map_stays_inside_unit_interval(self, seed: int, name: str) -> None:
        gen = np.random.default_rng(seed)
        c = random_interior_confusions(gen, 1)[0]
        assert 0.0 <= threshold_map(parse_metric(name), c) <= 1.0

    def test_negative_sensitivity_rejected(self) -> None:
        # the miss rate improves by making errors; its sensitivity is -1
        spec = parse_metric("linfrac:0,0,1,0/1,1,1,1")
        assert karmic_sensitivity(spec, REFERENCE) == pytest.approx(-1.0)
        with pytest.raises(NonKarmicPointError):
            threshold_map(spec, REFERENCE)

    def test_map_outside_unit_interval_clamps_and_warns(self, caplog) -> None:
        spec = parse_metric("linfrac:-1,-2,0,2/1,1,1,1")
        assert karmic_sensitivity(spec, REFERENCE) == pytest.approx(3.0)
        with caplog.at_level("WARNING", logger="karmic.metrics"):
            value = threshold_map(spec, REFERENCE)
        assert value == 1.0
        assert any("clamping" in r.message for r in caplog.records)


class TestInputs:
    @pytest.mark.parametrize("name", ALL_NAMES)
    def test_arrays_and_matrices_agree(self, name: str) -> None:
        spec = parse_metric(name)
        as_list = [0.4, 0.1, 0.1, 0.4]
        for fn in (metric_value, karmic_sensitivity, threshold_map):
            assert fn(spec, np.array(as_list)) == fn(spec, tuple(as_list)) == fn(spec, as_list)
        np.testing.assert_array_equal(metric_gradient(spec, np.array(as_list)),
                                      metric_gradient(spec, REFERENCE))

    @pytest.mark.parametrize("bad", [[0.5, 0.5], np.full((2, 4), 0.25)])
    def test_wrong_shape_rejected(self, bad) -> None:
        with pytest.raises(ValueError):
            metric_value(parse_metric("accuracy"), bad)


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
        ],
    )
    def test_bad_names_rejected(self, bad: str) -> None:
        with pytest.raises(ValueError):
            parse_metric(bad)

    def test_linfrac_roundtrip(self) -> None:
        spec = parse_metric("linfrac:1,0,0,0/1,1,0,0")
        assert spec.name == "linfrac:1,0,0,0/1,1,0,0"
