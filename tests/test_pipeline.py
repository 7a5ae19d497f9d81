"""Train/threshold pipeline and population-regret evaluation."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from scipy.special import logit

from karmic import (
    ConstantScorer,
    Dataset,
    EstimatorSpec,
    GaussianModel,
    HolderModel,
    ModeUnsupportedError,
    NonKarmicPointError,
    PluginClassifier,
    SplitDegenerateError,
    classifier_utility,
    parse_metric,
    population_optimum,
    population_regret,
    sample_gaussian,
    sample_holder,
    train_plugin,
)
from karmic.metrics import metric_values_masked
from karmic.thresholds import fixed_point_threshold
from karmic.pipeline import (_SPLIT_RETRIES, _SPLIT_TAG, _monte_carlo_confusion,
                             population_confusion_of_model)

MODEL = GaussianModel(np.array([2.0, 0.0]), 0.5)
#: the Gaussian model a kernel can fit: a kernel scorer is 1-d
MODEL_1D = GaussianModel(np.array([2.0]), 0.5)


class TestEstimatorSpec:
    def test_kinds(self) -> None:
        data = sample_gaussian(MODEL_1D, 200, seed=1)
        assert EstimatorSpec("logistic").build(data).__class__.__name__ == "LogisticScorer"
        assert EstimatorSpec("kernel").build(data).__class__.__name__ == "KernelScorer"
        # the model is the scorer of its own eta
        assert EstimatorSpec("true-eta", model=MODEL_1D).build(data) is MODEL_1D
        constant = EstimatorSpec("constant", p=0.3).build(data)
        assert constant.p == 0.3

    def test_validation(self) -> None:
        with pytest.raises(ValueError):
            EstimatorSpec("forest")
        with pytest.raises(ValueError):
            EstimatorSpec("true-eta").build(sample_gaussian(MODEL, 50, seed=0))

    @pytest.mark.parametrize(
        ("kwargs", "field"),
        [({"kernel_beta": -1.0}, "kernel_beta"), ({"kernel_beta": np.inf}, "kernel_beta"),
         ({"kernel_beta": np.nan}, "kernel_beta"), ({"bandwidth_const": 0.0}, "kernel_const"),
         ({"bandwidth_const": np.inf}, "kernel_const"), ({"p": 1.5}, "p"),
         ({"p": -0.1}, "p"), ({"p": np.nan}, "p")],
    )
    def test_bad_parameters_rejected_at_construction(self, kwargs, field) -> None:
        # the checks hold for every kind, so a config fails before any row runs
        for kind in ("kernel", "constant"):
            with pytest.raises(ValueError, match=field):
                EstimatorSpec(kind, **kwargs)


class TestPluginClassifier:
    def test_strict_tie_rule(self) -> None:
        clf = PluginClassifier(ConstantScorer(0.5), 0.5)
        assert clf.predict(np.zeros((3, 2))).tolist() == [-1, -1, -1]
        looser = PluginClassifier(ConstantScorer(0.5), 0.49)
        assert looser.predict(np.zeros((1, 2))).tolist() == [1]

    def test_delta_range(self) -> None:
        with pytest.raises(ValueError):
            PluginClassifier(ConstantScorer(0.5), 1.5)

    def test_serialization_roundtrip(self) -> None:
        data = sample_gaussian(MODEL, 400, seed=3)
        clf = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("logistic"), seed=5)
        again = PluginClassifier.from_dict(clf.to_dict())
        assert again.delta == clf.delta
        assert again.provenance == clf.provenance
        X = sample_gaussian(MODEL, 50, seed=4).features
        np.testing.assert_array_equal(again.predict(X), clf.predict(X))


class TestTrainPlugin:
    def test_deterministic_in_seed(self) -> None:
        data = sample_gaussian(MODEL, 600, seed=7)
        a = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("logistic"), seed=3)
        b = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("logistic"), seed=3)
        c = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("logistic"), seed=4)
        assert a.delta == b.delta
        np.testing.assert_array_equal(a.scorer.weights, b.scorer.weights)
        assert a.delta != c.delta or not np.array_equal(a.scorer.weights, c.scorer.weights)

    def test_split_sizes_and_provenance(self) -> None:
        data = sample_gaussian(MODEL, 501, seed=2)
        clf = train_plugin(parse_metric("accuracy"), data, EstimatorSpec("logistic"), seed=1)
        prov = clf.provenance
        assert prov["metric"] == "accuracy"
        assert prov["n1"] == 250
        assert prov["n2"] == 251
        assert prov["seed"] == 1
        assert prov["split_attempts"] >= 1
        assert sorted(prov["search"]) == ["final_h", "iterations", "tolerance"]
        assert prov["search"]["iterations"] >= 1
        assert prov["search"]["tolerance"] == pytest.approx(np.log(251) / 251)

    def test_accuracy_threshold_near_half(self) -> None:
        data = sample_gaussian(MODEL, 100_000, seed=11)
        clf = train_plugin(
            parse_metric("accuracy"), data, EstimatorSpec("true-eta", model=MODEL), seed=0
        )
        assert clf.delta == pytest.approx(0.5, abs=0.02)

    def test_prior_metric_threshold_near_prior(self) -> None:
        skewed = GaussianModel(np.array([2.0]), 0.3)
        data = sample_gaussian(skewed, 100_000, seed=12)
        clf = train_plugin(
            parse_metric("am"), data, EstimatorSpec("true-eta", model=skewed), seed=0
        )
        assert clf.delta == pytest.approx(0.3, abs=0.03)

    def test_minimum_size(self) -> None:
        data = sample_gaussian(MODEL, 19, seed=0)
        with pytest.raises(SplitDegenerateError):
            train_plugin(parse_metric("accuracy"), data, EstimatorSpec("logistic"))
        just_enough = sample_gaussian(MODEL, 20, seed=0)
        clf = train_plugin(parse_metric("accuracy"), just_enough, EstimatorSpec("logistic"))
        assert 0.0 <= clf.delta <= 1.0

    def test_single_label_data_cannot_split(self) -> None:
        data = Dataset(np.random.default_rng(0).standard_normal((30, 1)),
                       np.ones(30, dtype=int))
        with pytest.raises(SplitDegenerateError):
            train_plugin(parse_metric("accuracy"), data, EstimatorSpec("logistic"))

    def test_rare_label_needs_retries(self) -> None:
        # two positives among 40: about half of all permutations put both
        # in one half, so some seeds need more than one attempt.
        rng = np.random.default_rng(5)
        labels = np.full(40, -1)
        labels[:2] = 1
        data = Dataset(rng.standard_normal((40, 1)), labels)
        attempts = []
        for seed in range(12):
            clf = train_plugin(parse_metric("accuracy"), data, EstimatorSpec("logistic"),
                               seed=seed)
            attempts.append(clf.provenance["split_attempts"])
        assert all(1 <= a <= 10 for a in attempts)
        assert max(attempts) > 1

    @pytest.mark.parametrize("seed", [0, 2, 8])  # 4, 5 and 2 attempts
    def test_retried_split_is_the_attempt_th_child(self, seed: int) -> None:
        # the split streams are spawned one per attempt; the k-th attempt must
        # still permute with the k-th child of one spawn of all ten
        rng = np.random.default_rng(5)
        labels = np.full(40, -1)
        labels[:2] = 1
        data = Dataset(rng.standard_normal((40, 1)), labels)
        clf = train_plugin(parse_metric("accuracy"), data, EstimatorSpec("kernel"), seed=seed)
        attempts = clf.provenance["split_attempts"]
        assert attempts > 1
        child = np.random.SeedSequence([seed, _SPLIT_TAG]).spawn(_SPLIT_RETRIES)[attempts - 1]
        fit_rows = np.random.default_rng(child).permutation(data.n)[: data.n // 2]
        # a kernel scorer keeps its fitting half as given, in split order
        assert np.array_equal(clf.scorer.train_x, data.features[fit_rows])
        assert np.array_equal(clf.scorer.train_y, data.labels[fit_rows])

    def test_traced_peak_holds_one_copy_of_the_sample(self) -> None:
        # the halves, the design matrix and one set of Newton temporaries
        # come to 2.2x the sample's bytes; a second copy would pass 2.5x
        metric, estimator = parse_metric("fbeta:1"), EstimatorSpec("logistic")
        train_plugin(metric, MODEL.sample(200, 1), estimator, seed=1)  # loads scipy
        data = MODEL.sample(200_000, 1)
        tracemalloc.start()
        try:
            train_plugin(metric, data, estimator, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * (data.features.nbytes + data.labels.nbytes)

    def test_inline_sample_is_freed_after_the_split(self) -> None:
        # passed inline, the sample is the callee's alone: it is freed once
        # the halves exist, for 2.2x its bytes; kept to the fit, 3.2x
        metric, estimator = parse_metric("fbeta:1"), EstimatorSpec("logistic")
        train_plugin(metric, MODEL.sample(200, 1), estimator, seed=1)  # loads scipy
        n = 200_000
        tracemalloc.start()
        try:
            train_plugin(metric, MODEL.sample(n, 1), estimator, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * n * (2 * 8 + 8)

    def test_kept_sample_is_left_unchanged(self) -> None:
        data = MODEL_1D.sample(2000, 4)
        features, labels = data.features, data.labels
        expected = features.tobytes(), labels.tobytes()
        train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("kernel"), seed=3)
        assert data.features is features and data.labels is labels
        assert (features.tobytes(), labels.tobytes()) == expected


class TestMonteCarloConfusion:
    def test_deterministic_and_shard_invariant(self) -> None:
        clf = PluginClassifier(ConstantScorer(0.7), 0.5)
        a = _monte_carlo_confusion(MODEL, clf, 3000, seed=9)
        b = _monte_carlo_confusion(MODEL, clf, 3000, seed=9)
        assert np.array_equal(a, b)
        c = _monte_carlo_confusion(MODEL, clf, 3000, seed=10)
        assert not np.array_equal(a, c)

    def test_matches_closed_form_for_affine_rules(self) -> None:
        data = sample_gaussian(MODEL, 4000, seed=13)
        clf = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("logistic"), seed=2)
        spec = parse_metric("fbeta:1")
        exact = population_regret(spec, clf, MODEL, mode="closed-form")
        sampled = population_regret(spec, clf, MODEL, mode="monte-carlo",
                                    mc_samples=2_000_000, mc_seed=3)
        assert exact.delta_star == sampled.delta_star
        assert exact.u_star == sampled.u_star
        assert sampled.u_hat == pytest.approx(exact.u_hat, abs=2e-3)

    def test_holder_monte_carlo(self) -> None:
        model = HolderModel("sine")
        data = sample_holder(model, 2000, seed=3)
        clf = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("kernel"), seed=1)
        report = population_regret(parse_metric("fbeta:1"), clf, model,
                                   mode="monte-carlo", mc_samples=500_000)
        assert report.mode == {"mode": "monte-carlo", "m": 500_000, "seed": 0}
        assert report.regret == pytest.approx(report.u_star - report.u_hat, abs=1e-15)
        assert -3e-3 <= report.regret <= 0.3


#: ratios whose population H has its one root where the Karmic sensitivity is
#: negative on both models: that root is a minimum of the utility
NON_KARMIC = ("linfrac:0.2,0.8,0.4,0.0/0.1,0.5,0.2,0.1",
              "linfrac:-0.5,0.5,0.4,-0.7/0.4,0.4,0.7,0.5")


class TestGmeanOptimum:
    """gmean is undefined at both ends of the population bracket (TN = 0
    below, TP = 0 above); the domain rule reads them as a sign change."""

    MODELS = {"gaussian": MODEL, "kappa-0.2": GaussianModel(np.array([2.0, 0.0]), 0.2),
              "holder": HolderModel("sine")}

    @pytest.mark.parametrize("model", MODELS)
    def test_population_optimum_is_the_grid_argmax(self, model: str) -> None:
        spec = parse_metric("gmean")
        delta_star, u_star = population_optimum(spec, self.MODELS[model])
        grid = np.linspace(0.0, 1.0, 100_001)
        curve = population_confusion_of_model(self.MODELS[model])
        values, valid = metric_values_masked(spec, curve(grid))
        best = int(np.argmax(np.where(valid, values, -np.inf)))
        assert abs(delta_star - grid[best]) <= 2e-5
        assert u_star >= values[best] - 1e-12


class TestPopulationRegret:
    @pytest.mark.parametrize("model", [MODEL, HolderModel("sine")], ids=["gaussian", "holder"])
    @pytest.mark.parametrize("name", NON_KARMIC)
    def test_non_karmic_root_is_refused(self, name: str, model) -> None:
        with pytest.raises(NonKarmicPointError, match="sensitivity"):
            population_optimum(parse_metric(name), model)

    @pytest.mark.parametrize("model", [MODEL, HolderModel("sine")], ids=["gaussian", "holder"])
    @pytest.mark.parametrize("name", NON_KARMIC)
    def test_rising_h_is_refused_at_the_bracket_ends(self, name: str, model) -> None:
        # H < 0 at tol and > 0 at 1 - tol: the root is a minimum, refused
        # by the search itself before any halving
        curve = population_confusion_of_model(model)
        calls = []

        def counted(delta):
            calls.append(delta)
            return curve(delta)

        with pytest.raises(NonKarmicPointError, match="H rises"):
            fixed_point_threshold(parse_metric(name), counted, 1e-10)
        assert calls == [1e-10, 1.0 - 1e-10]

    def test_true_optimum_has_zero_regret(self) -> None:
        spec = parse_metric("fbeta:1")
        report = population_regret(spec, PluginClassifier(ConstantScorer(0.5), 0.5), MODEL)
        # first find the true threshold, then hand it to the true scorer
        star = PluginClassifier(MODEL, report.delta_star)
        exact = population_regret(spec, star, MODEL)
        assert exact.regret == pytest.approx(0.0, abs=1e-9)
        assert exact.u_hat == pytest.approx(exact.u_star, abs=1e-9)

    def test_constant_rule_closed_form(self) -> None:
        spec = parse_metric("accuracy")
        # constant score 0.7 with threshold 0.5 predicts everything +1
        clf = PluginClassifier(ConstantScorer(0.7), 0.5)
        report = population_regret(spec, clf, MODEL)
        assert report.u_hat == pytest.approx(0.5, abs=1e-12)
        assert report.delta_star == 0.5
        assert report.regret == pytest.approx(report.u_star - 0.5, abs=1e-12)

    def test_regret_nonnegative_in_closed_form(self) -> None:
        spec = parse_metric("fbeta:1")
        for seed in range(5):
            data = sample_gaussian(MODEL, 1000, seed=seed)
            clf = train_plugin(spec, data, EstimatorSpec("logistic"), seed=seed)
            report = population_regret(spec, clf, MODEL)
            assert report.regret >= -1e-9

    def test_large_sample_regret_is_small(self) -> None:
        spec = parse_metric("fbeta:1")
        data = sample_gaussian(MODEL, 100_000, seed=17)
        clf = train_plugin(spec, data, EstimatorSpec("logistic"), seed=1)
        report = population_regret(spec, clf, MODEL)
        assert report.regret <= 0.01

    def test_regret_shrinks_with_n(self) -> None:
        spec = parse_metric("fbeta:1")
        medians = []
        for n in (1_000, 4_000, 16_000, 64_000):
            regrets = [
                population_regret(
                    spec,
                    train_plugin(spec, sample_gaussian(MODEL, n, seed=s),
                                 EstimatorSpec("logistic"), seed=s),
                    MODEL,
                ).regret
                for s in range(20)
            ]
            medians.append(float(np.median(regrets)))
        assert medians[0] > medians[1] > medians[2] > medians[3]

    def test_kernel_closed_form_unsupported(self) -> None:
        data = sample_gaussian(MODEL_1D, 200, seed=1)
        clf = train_plugin(parse_metric("accuracy"), data, EstimatorSpec("kernel"), seed=0)
        with pytest.raises(ModeUnsupportedError):
            population_regret(parse_metric("accuracy"), clf, MODEL_1D, mode="closed-form")

    def test_holder_constant_rule_predicts_all_or_nothing(self) -> None:
        # eta integrates to 1/2 on [0, 1] for both tags; ties go negative
        for p, predicted in ((0.6, 1.0), (0.4, 0.0), (0.5, 0.0)):
            clf = PluginClassifier(ConstantScorer(p), 0.5)
            want = [0.5 * predicted, 0.5 * predicted, 0.5 * (1 - predicted),
                    0.5 * (1 - predicted)]
            for tag in ("sine", "flat"):
                model = HolderModel(tag)
                np.testing.assert_array_equal(model.classifier_confusion(clf.scorer, 0.5), want)
                report = population_regret(parse_metric("accuracy"), clf, model)
                assert report.u_hat == 0.5
                assert report.mode == {"mode": "closed-form"}

    def test_unknown_mode_rejected(self) -> None:
        clf = PluginClassifier(ConstantScorer(0.6), 0.5)
        with pytest.raises(ModeUnsupportedError):
            population_regret(parse_metric("accuracy"), clf, MODEL, mode="bootstrap")

    def test_monte_carlo_needs_a_sample(self) -> None:
        clf = PluginClassifier(ConstantScorer(0.6), 0.5)
        with pytest.raises(ValueError, match="mc_samples"):
            population_regret(parse_metric("accuracy"), clf, MODEL, mode="monte-carlo",
                              mc_samples=0)

    @pytest.mark.parametrize(
        ("p", "delta"),
        [(0.5, 0.5), (0.3, 0.3), (0.7, 0.5), (0.5, 0.7), (0.0, 0.0), (1.0, 1.0),
         (1.0, 0.5), (0.0, 0.5), (0.5, 0.0), (0.5, 1.0)],
    )
    def test_constant_rule_is_the_zero_weight_halfspace(self, p: float, delta: float) -> None:
        # the closed form must agree with the scorer's own strict rule
        clf = PluginClassifier(ConstantScorer(p), delta)
        positive = float(clf.predict(np.zeros((1, 2)))[0] == 1)
        want = [0.5 * positive, 0.5 * positive, 0.5 * (1 - positive), 0.5 * (1 - positive)]
        np.testing.assert_array_equal(MODEL.classifier_confusion(clf.scorer, delta), want)

    def test_composes_optimum_and_utility(self) -> None:
        spec = parse_metric("fbeta:1")
        data = sample_gaussian(MODEL, 2000, seed=4)
        clf = train_plugin(spec, data, EstimatorSpec("logistic"), seed=4)
        report = population_regret(spec, clf, MODEL)
        delta_star, u_star = population_optimum(spec, MODEL)
        u_hat, mode = classifier_utility(spec, clf, MODEL, "closed-form", 1, 0)
        assert (report.delta_star, report.u_star) == (delta_star, u_star)
        assert (report.u_hat, report.mode) == (u_hat, mode)
        assert report.regret == u_star - u_hat

    def test_report_serialization(self) -> None:
        clf = PluginClassifier(ConstantScorer(0.7), 0.5)
        payload = population_regret(parse_metric("accuracy"), clf, MODEL).to_dict()
        assert set(payload) == {"u_star", "u_hat", "regret", "delta_star", "delta_hat", "mode"}
        assert payload["mode"] == {"mode": "closed-form"}
