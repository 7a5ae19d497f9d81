"""Probability estimators: logistic MLE, kernel smoothing, serialization."""

from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit, logit

from karmic import (
    ConstantScorer,
    Dataset,
    DegenerateDesignError,
    DimensionMismatchError,
    EmptyDataError,
    GaussianModel,
    HolderModel,
    KernelScorer,
    LogisticScorer,
    SeparableDataError,
    fit_kernel_smoother,
    fit_logistic_mle,
    sample_gaussian,
    sample_holder,
    scorer_from_dict,
    scorer_to_dict,
)
from karmic.scorers import KERNEL_CLIP

from helpers import naive_epanechnikov


class TestConstantScorer:
    def test_scores_and_single_point(self) -> None:
        s = ConstantScorer(0.7)
        np.testing.assert_allclose(s.scores(np.zeros((5, 3))), 0.7)
        assert s.scores(np.zeros((1, 3))).tolist() == [0.7]
        with pytest.raises(DimensionMismatchError):
            s.scores(0.0)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_range_check(self, p: float) -> None:
        with pytest.raises(ValueError):
            ConstantScorer(p)


class TestLogisticScorer:
    def test_closed_form(self, rng) -> None:
        w = np.array([0.5, -2.0])
        s = LogisticScorer(w, 0.3)
        X = rng.standard_normal((20, 2))
        np.testing.assert_allclose(s.scores(X), expit(X @ w + 0.3), rtol=1e-15)

    def test_dimension_guard(self) -> None:
        s = LogisticScorer(np.array([1.0, 2.0]), 0.0)
        with pytest.raises(DimensionMismatchError):
            s.scores(np.zeros((4, 3)))

    def test_rejects_non_finite_parameters(self) -> None:
        with pytest.raises(ValueError):
            LogisticScorer(np.array([np.nan]), 0.0)
        with pytest.raises(ValueError):
            LogisticScorer(np.array([1.0]), np.inf)
        # no weights at all would load as a 0-d rule that no model can evaluate
        with pytest.raises(ValueError, match="one or more"):
            LogisticScorer(np.array([]), 0.0)

    def test_one_dimensional_matrix_promotion(self) -> None:
        s = LogisticScorer(np.array([1.0]), 0.0)
        np.testing.assert_allclose(s.scores(np.array([0.0, 100.0])), [0.5, 1.0], atol=1e-12)


class TestLogisticFit:
    def test_recovers_generating_parameters(self) -> None:
        model = GaussianModel(np.array([2.0, 0.0]), 0.3)
        data = sample_gaussian(model, 100_000, seed=21)
        scorer, report = fit_logistic_mle(data)
        np.testing.assert_allclose(scorer.weights, model.mu, atol=0.05)
        assert scorer.intercept == pytest.approx(logit(0.3), abs=0.05)
        assert report.converged
        assert report.grad_norm <= 1e-10

    def test_flipped_labels_flip_the_fit(self) -> None:
        model = GaussianModel(np.array([1.5]), 0.5)
        data = sample_gaussian(model, 50_000, seed=4)
        flipped = Dataset(data.features, -data.labels)
        a, _ = fit_logistic_mle(data)
        b, _ = fit_logistic_mle(flipped)
        np.testing.assert_allclose(a.weights, -b.weights, atol=1e-6)
        assert a.intercept == pytest.approx(-b.intercept, abs=1e-6)

    def test_pure_noise_labels_give_flat_scores(self) -> None:
        model = GaussianModel(np.array([0.0, 0.0]), 0.5)
        data = sample_gaussian(model, 50_000, seed=6)
        scorer, report = fit_logistic_mle(data)
        assert report.converged
        np.testing.assert_allclose(scorer.weights, 0.0, atol=0.03)

    def test_objective_path_is_monotone(self) -> None:
        data = sample_gaussian(GaussianModel(np.array([1.0, -1.0]), 0.4), 5_000, seed=2)
        _, report = fit_logistic_mle(data)
        path = np.array(report.nll_path)
        assert (np.diff(path) <= 1e-15).all()
        assert report.iterations + 1 >= len(report.nll_path)

    @pytest.mark.parametrize("n", [2, 7, 128, 8193])
    def test_start_of_the_path_is_the_mean_loss_of_zero_margins(self, n) -> None:
        # bit for bit the logaddexp of n zero margins, averaged; at 8193 that
        # is one ulp below log 2
        rng = np.random.default_rng(n)
        labels = np.resize([1, -1], n)
        data = Dataset(rng.normal(size=n) + labels, labels)
        _, report = fit_logistic_mle(data, max_iter=0)
        start = float(np.logaddexp(0.0, -(data.labels * np.zeros(n))).mean())
        assert report.nll_path[0].hex() == start.hex()

    def test_every_exit_counts_accepted_steps(self) -> None:
        data = sample_gaussian(GaussianModel(np.array([1.0, -1.0]), 0.4), 5_000, seed=2)
        for max_iter in (0, 1, 2, 100):
            scorer, report = fit_logistic_mle(data, max_iter=max_iter)
            assert report.iterations == len(report.nll_path) - 1 <= max_iter
            assert report.converged == (report.grad_norm <= 1e-10)
            # the reported norm is the gradient at the returned weights
            X = np.column_stack([data.features, np.ones(data.n)])
            grad = X.T @ (scorer.scores(data.features) - (data.labels == 1)) / data.n
            assert report.grad_norm == pytest.approx(np.abs(grad).max(), rel=1e-6, abs=1e-15)
        assert not fit_logistic_mle(data, max_iter=2)[1].converged
        assert report.converged and report.iterations < 100
        with pytest.raises(ValueError, match="max_iter"):
            fit_logistic_mle(data, max_iter=-1)

    def test_line_search_give_up_counts_no_step(self, monkeypatch) -> None:
        # the start scores 0 and every candidate 1, so no halving is accepted
        calls = []

        def worse_after_start(margins):
            calls.append(None)
            return 0.0 if len(calls) == 1 else 1.0

        monkeypatch.setattr("karmic.scorers._mean_nll", worse_after_start)
        data = sample_gaussian(GaussianModel(np.array([1.0]), 0.5), 200, seed=0)
        scorer, report = fit_logistic_mle(data)
        assert report.iterations == 0
        assert not report.converged
        assert report.nll_path == (0.0,)
        assert len(calls) == 31
        np.testing.assert_array_equal(scorer.weights, [0.0])

    def test_separable_data_saturates_instead_of_converging_to_truth(self) -> None:
        # Clean separation sends the weights off to the float saturation
        # point of the sigmoid (margins near 37), where the gradient
        # underflows to zero.  The fit self-reports that plateau.
        x = np.concatenate([np.linspace(-3, -1, 30), np.linspace(1, 3, 30)])
        y = np.concatenate([-np.ones(30, dtype=int), np.ones(30, dtype=int)])
        scorer, report = fit_logistic_mle(Dataset(x, y))
        assert np.abs(scorer.weights).max() > 10.0

    def test_separable_divergence_guard(self, monkeypatch) -> None:
        # The hard cap cannot be hit under the damped/ridged update with
        # the default iteration budget (the sigmoid saturates first), so
        # the guard is exercised at a lowered limit: on separable data the
        # weights really do climb past any modest bound.
        monkeypatch.setattr("karmic.scorers._WEIGHT_NORM_LIMIT", 5.0)
        x = np.concatenate([np.linspace(-3, -1, 30), np.linspace(1, 3, 30)])
        y = np.concatenate([-np.ones(30, dtype=int), np.ones(30, dtype=int)])
        with pytest.raises(SeparableDataError):
            fit_logistic_mle(Dataset(x, y))

    def test_degenerate_design_detected(self, monkeypatch) -> None:
        def refuse(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")

        monkeypatch.setattr(np.linalg, "solve", refuse)
        data = sample_gaussian(GaussianModel(np.array([1.0]), 0.5), 100, seed=0)
        with pytest.raises(DegenerateDesignError):
            fit_logistic_mle(data)

    def test_validations(self) -> None:
        with pytest.raises(EmptyDataError):
            fit_logistic_mle(Dataset(np.zeros((0, 1)), np.array([], dtype=int)))
        with pytest.raises(ValueError, match="both labels"):
            fit_logistic_mle(Dataset(np.zeros((5, 1)), np.ones(5, dtype=int)))
        with pytest.raises(ValueError, match="n > d"):
            fit_logistic_mle(Dataset(np.eye(3), np.array([1, -1, 1])))

    def test_loose_tolerance_stops_early(self, monkeypatch) -> None:
        # the tolerance is a module constant; the fit reads it at each iterate
        data = sample_gaussian(GaussianModel(np.array([2.0]), 0.5), 2_000, seed=3)
        monkeypatch.setattr("karmic.scorers._GRAD_TOL", 1e-12)
        _, fine = fit_logistic_mle(data)
        monkeypatch.setattr("karmic.scorers._GRAD_TOL", 1e-2)
        _, coarse = fit_logistic_mle(data)
        assert coarse.iterations < fine.iterations
        assert coarse.grad_norm <= 1e-2


class TestKernelScorer:
    def test_no_training_data_is_refused(self) -> None:
        with pytest.raises(EmptyDataError):
            KernelScorer(np.empty((0, 1)), [], 0.1)

    def test_fast_path_matches_naive_reference(self, rng) -> None:
        n = 400
        x = rng.random(n)
        y = rng.choice([-1, 1], size=n)
        h = 0.07
        scorer = KernelScorer(x, y, bandwidth=h)
        queries = np.concatenate([rng.random(150), x[:25], [0.0, 1.0, -0.5, 1.5]])
        want = naive_epanechnikov(x, y, h, queries)
        np.testing.assert_allclose(scorer.scores(queries), want, atol=1e-12)

    def test_empty_window_falls_back_to_global_rate(self) -> None:
        x = np.full(20, 0.5)
        y = np.array([1] * 15 + [-1] * 5)
        scorer = KernelScorer(x, y, bandwidth=0.01)
        np.testing.assert_allclose(scorer.scores(np.array([0.9])), [0.75])

    def test_outputs_clipped_away_from_zero_and_one(self) -> None:
        x = np.linspace(0, 1, 50)
        scorer = KernelScorer(x, np.ones(50, dtype=int), bandwidth=0.2)
        vals = scorer.scores(np.linspace(0, 1, 11))
        assert vals.max() == 1 - KERNEL_CLIP
        scorer = KernelScorer(x, -np.ones(50, dtype=int), bandwidth=0.2)
        assert scorer.scores(np.array([0.5]))[0] == KERNEL_CLIP

    def test_flat_curve_recovered(self) -> None:
        data = sample_holder(HolderModel("flat"), 20_000, seed=12)
        scorer = fit_kernel_smoother(data, beta=1.0)
        grid = np.linspace(0.05, 0.95, 41)[:, None]
        assert np.abs(scorer.scores(grid) - 0.5).max() <= 0.1

    def test_sine_curve_recovered(self) -> None:
        data = sample_holder(HolderModel("sine"), 40_000, seed=13)
        scorer = fit_kernel_smoother(data, beta=1.0)
        grid = np.linspace(0.02, 0.98, 97)
        err = np.abs(scorer.scores(grid[:, None]) - HolderModel("sine").eta(grid))
        assert err.mean() <= 0.05

    def test_estimation_error_shrinks_with_n(self) -> None:
        errors = []
        grid = np.linspace(0.05, 0.95, 61)
        truth = HolderModel("sine").eta(grid)
        for n in (1_000, 4_000, 16_000):
            per_seed = []
            for seed in range(10):
                data = sample_holder(HolderModel("sine"), n, seed=100 + seed)
                scorer = fit_kernel_smoother(data, beta=1.0)
                per_seed.append(np.abs(scorer.scores(grid[:, None]) - truth).mean())
            errors.append(np.median(per_seed))
        assert errors[0] > errors[1] > errors[2]

    def test_bandwidth_rule(self) -> None:
        data = sample_holder(HolderModel("sine"), 1_000, seed=1)
        scorer = fit_kernel_smoother(data, beta=1.0, bandwidth_const=0.7)
        assert scorer.bandwidth == pytest.approx(0.7 * 1_000 ** (-1.0 / 3.0), rel=1e-12)
        wide = fit_kernel_smoother(data, beta=3.0)
        assert wide.bandwidth == pytest.approx(1_000 ** (-1.0 / 7.0), rel=1e-12)

    def test_validations(self) -> None:
        data = sample_holder(HolderModel("sine"), 50, seed=0)
        with pytest.raises(EmptyDataError):
            fit_kernel_smoother(Dataset(np.zeros((0, 1)), np.array([], dtype=int)), beta=1.0)
        with pytest.raises(ValueError, match="n >= 10"):
            fit_kernel_smoother(data.subset(range(9)), beta=1.0)
        for beta in (0.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="beta"):
                fit_kernel_smoother(data, beta=beta)
        for const in (-1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="bandwidth_const"):
                fit_kernel_smoother(data, beta=1.0, bandwidth_const=const)
        # 1e200 is finite, but its square overflows in every window sum
        for h in (0.0, -0.5, np.inf, np.nan, 1e200, 1e-200):
            with pytest.raises(ValueError, match="bandwidth"):
                KernelScorer(np.array([0.5]), np.array([1]), bandwidth=h)

    @pytest.mark.parametrize(
        ("x", "y", "match"),
        [([0.5, np.nan], [1, -1], "finite"), ([0.5, np.inf], [1, -1], "finite"),
         ([0.5, 0.25], [1, 0], "-1 or \\+1"), ([0.5, 0.25], [1, 1.5], "-1 or \\+1"),
         ([0.5, 0.25], [1], "one per")],
    )
    def test_rejects_a_sample_it_could_not_write_back(self, x, y, match) -> None:
        with pytest.raises(ValueError, match=match):
            KernelScorer(np.array(x), np.array(y), bandwidth=0.1)

    def test_keeps_its_training_arrays(self) -> None:
        data = sample_holder(HolderModel("sine"), 200, seed=4)
        scorer = fit_kernel_smoother(data, beta=1.0)
        assert scorer.train_x is data.features
        assert scorer.train_y is data.labels
        assert not hasattr(scorer, "beta")

    def test_traced_peak_of_a_million_queries(self) -> None:
        # the query order and the output, 8 MB each, and one block of
        # temporaries; every window at once peaked at 96.0 MB
        scorer = fit_kernel_smoother(sample_holder(HolderModel("sine"), 32768, seed=1), beta=1.0)
        queries = np.random.default_rng(5).random((1_000_000, 1))
        tracemalloc.start()
        try:
            scorer.scores(queries)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestKernelOrderFree:
    """The 1-d kernel path sorts without stability and looks queries up in
    sorted order; neither the row order of tied training x nor the order of
    the queries may change a bit of its output."""

    def test_row_order_of_tied_x(self) -> None:
        # 40 distinct x, 15 copies each, and both labels in every tie group
        x = np.repeat(np.arange(40) / 39.0, 15)
        y = np.where(np.random.default_rng(11).random(x.size) < 0.2 + 0.6 * x, 1, -1)
        y[::15], y[1::15] = 1, -1
        sine = HolderModel("sine")
        scorers = [KernelScorer(x[perm], y[perm], 0.06) for perm in
                   (np.arange(x.size), np.random.default_rng(12).permutation(x.size),
                    np.arange(x.size)[::-1])]
        ties = np.unique(x)
        queries = np.concatenate([ties, 0.5 * (ties[:-1] + ties[1:]), ties + 0.06,
                                  np.linspace(-0.1, 1.1, 601)])
        first = scorers[0]
        for other in scorers[1:]:
            assert same_bits(other.scores(queries), first.scores(queries))
            for delta in (0.3, 0.5, 0.65, first.global_rate):
                assert same_bits(other.acceptance_intervals(delta),
                                 first.acceptance_intervals(delta))
                assert same_bits(sine.classifier_confusion(other, delta),
                                 sine.classifier_confusion(first, delta))

    def test_query_order(self) -> None:
        scorer = fit_kernel_smoother(sample_holder(HolderModel("sine"), 4096, seed=1), beta=1.0)
        gen = np.random.default_rng(3)
        q = np.concatenate([gen.uniform(-0.1, 1.1, 5000), scorer.train_x[:300, 0],
                            np.full(20, 0.25)])
        perm = gen.permutation(q.size)
        out = scorer.scores(q)
        assert same_bits(scorer.scores(q[perm]), out[perm])
        assert same_bits(scorer.scores(q[:, None]), out)
        assert scorer.scores(np.empty((0, 1))).shape == (0,)
        assert [scorer.scores(np.array([v]))[0] for v in q[:40]] == out[:40].tolist()


class TestSerialization:
    def test_constant_roundtrip(self) -> None:
        payload = scorer_to_dict(ConstantScorer(0.25))
        again = scorer_from_dict(payload)
        assert isinstance(again, ConstantScorer)
        assert again.p == 0.25

    def test_logistic_roundtrip(self) -> None:
        s = LogisticScorer(np.array([1.5, -2.0]), 0.75)
        again = scorer_from_dict(scorer_to_dict(s))
        assert isinstance(again, LogisticScorer)
        np.testing.assert_array_equal(again.weights, s.weights)
        assert again.intercept == s.intercept

    @pytest.mark.parametrize(
        "model",
        [GaussianModel(np.array([2.0, 1.0]), 0.3), HolderModel("sine")],
    )
    def test_true_eta_roundtrip(self, model) -> None:
        # a model is the scorer of its own eta, written as kind "true-eta"
        payload = scorer_to_dict(model)
        assert payload == {"kind": "true-eta", "model": model.to_dict()}
        again = scorer_from_dict(payload)
        assert type(again) is type(model)
        assert again.to_dict() == model.to_dict()

    def test_true_eta_ignores_legacy_beta(self) -> None:
        payload = {"kind": "true-eta",
                   "model": {"model": "holder", "eta_tag": "flat", "beta": 2.0}}
        assert scorer_from_dict(payload) == HolderModel("flat")

    @pytest.mark.parametrize(
        "data",
        [sample_holder(HolderModel("sine"), 300, seed=5),
         sample_gaussian(GaussianModel(np.array([2.0]), 0.5), 300, seed=5)],
        ids=["holder-1d", "gaussian-1d"],
    )
    def test_kernel_roundtrip_carries_its_sample(self, data) -> None:
        scorer = fit_kernel_smoother(data, beta=1.0)
        payload = json.loads(json.dumps(scorer_to_dict(scorer)))
        assert sorted(payload) == ["bandwidth", "kind", "x", "y"]
        assert len(payload["x"]) == data.n and len(payload["x"][0]) == data.dim
        assert set(payload["y"]) == {-1, 1}
        again = scorer_from_dict(payload)
        assert isinstance(again, KernelScorer)
        assert again.bandwidth == scorer.bandwidth
        np.testing.assert_array_equal(again.train_x, data.features)
        np.testing.assert_array_equal(again.train_y, data.labels)
        queries = np.random.default_rng(0).random((257, data.dim))
        assert np.array_equal(again.scores(queries), scorer.scores(queries))

    def test_object_that_is_no_scorer_is_not_serialized(self) -> None:
        with pytest.raises(TypeError, match="cannot serialize scorer of type object"):
            scorer_to_dict(object())

    def test_unknown_kind_rejected(self) -> None:
        with pytest.raises(ValueError):
            scorer_from_dict({"kind": "mystery"})
