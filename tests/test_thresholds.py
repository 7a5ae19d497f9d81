"""Threshold search: bisection on H, fixed points, grids, brute force."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karmic import (
    ConstantScorer,
    Dataset,
    DegenerateDistributionError,
    EstimatorSpec,
    GaussianModel,
    HolderModel,
    MetricDomainError,
    NoSignChangeError,
    ScoreProfile,
    ThresholdResult,
    ThresholdSearchConfig,
    TooManyAtomsError,
    binary_search_threshold,
    brute_force_discrete,
    fit_logistic_mle,
    fixed_point_threshold,
    grid_search_threshold,
    karmic_parts,
    metric_gradient,
    metric_value,
    parse_metric,
    registered_metrics,
    sample_gaussian,
    train_plugin,
)
from karmic.pipeline import population_confusion_of_model
from karmic.thresholds import _h, default_tolerance

from helpers import FixedScorer, random_interior_confusions


def make_data(rng, n: int, prior: float = 0.5) -> tuple[Dataset, np.ndarray]:
    """Random scores with labels drawn at the requested positive prior."""
    scores = rng.random(n)
    labels = np.where(rng.random(n) < prior, 1, -1)
    if not (labels == 1).any():
        labels[0] = 1
    if not (labels == -1).any():
        labels[-1] = -1
    return Dataset(rng.standard_normal((n, 1)), labels), scores


class TestTolerancePolicy:
    @pytest.mark.parametrize(
        ("n", "expected"),
        [
            (1, 1e-8),
            (100, math.log(100) / 100),
            (10**9, math.log(10**9) / 10**9),
            (10**10, 1e-8),
        ],
    )
    def test_values(self, n: int, expected: float) -> None:
        assert default_tolerance(n) == pytest.approx(expected, rel=1e-15)

    def test_requires_positive_n(self) -> None:
        with pytest.raises(ValueError):
            default_tolerance(0)

    def test_config_validation(self) -> None:
        with pytest.raises(ValueError):
            ThresholdSearchConfig(tolerance=0.0)
        with pytest.raises(ValueError):
            ThresholdSearchConfig(tolerance=1.0)
        with pytest.raises(ValueError, match="tolerance"):
            ThresholdSearchConfig(tolerance="0.5")
        assert ThresholdSearchConfig().resolve_tolerance(100) == default_tolerance(100)
        assert ThresholdSearchConfig(tolerance=0.125).resolve_tolerance(100) == 0.125


def ascent(spec, confusion, delta: float) -> float:
    """H = N - delta * S, as every search computes it."""
    numerator, sensitivity, valid = karmic_parts(spec, confusion)
    assert valid
    return float(numerator - delta * sensitivity)


class TestDirectionVector:
    @pytest.mark.parametrize(
        ("delta", "expected"),
        [
            (0.0, [0.0, -1.0, 0.0, 1.0]),
            (1.0, [-1.0, 0.0, 1.0, 0.0]),
            (0.5, [-0.5, -0.5, 0.5, 0.5]),
        ],
    )
    def test_endpoints_and_midpoint(self, delta: float, expected, rng) -> None:
        # N - delta * S is the gradient along the boundary flux
        # v(delta) = (-delta, -(1 - delta), delta, 1 - delta)
        for spec in registered_metrics():
            for c in random_interior_confusions(rng, 20):
                want = float(metric_gradient(spec, c) @ np.array(expected))
                assert ascent(spec, c, delta) == pytest.approx(want, rel=1e-12, abs=1e-12)


def empirical_utility(spec, scorer, data, delta: float) -> float:
    return metric_value(spec, ScoreProfile.from_scorer(scorer, data).confusion(delta))


class TestHValue:
    def test_accuracy_closed_form(self, rng) -> None:
        # accuracy's gradient is (1,0,0,1) so H(delta) = 1 - 2*delta
        # no matter what the data look like.
        data, scores = make_data(rng, 101)
        profile = ScoreProfile.from_scorer(FixedScorer(scores), data)
        for delta in [0.1, 0.35, 0.5, 0.82]:
            got = ascent(parse_metric("accuracy"), profile.confusion(delta), delta)
            assert got == pytest.approx(1.0 - 2.0 * delta, abs=1e-12)

    def test_balanced_accuracy_closed_form(self, rng) -> None:
        # For the TPR/TNR average, H depends only on the class prior:
        # H(delta) = (1-delta)/(2(1-pi)) - delta/(2 pi).
        data, scores = make_data(rng, 200, prior=0.3)
        pi = (data.labels == 1).mean()
        profile = ScoreProfile.from_scorer(FixedScorer(scores), data)
        for delta in [0.2, 0.5, 0.8]:
            want = (1 - delta) / (2 * (1 - pi)) - delta / (2 * pi)
            got = ascent(parse_metric("am"), profile.confusion(delta), delta)
            assert got == pytest.approx(want, abs=1e-12)

    def test_population_curve_value(self) -> None:
        # the same function scores a population curve: at the fixed point of
        # accuracy (delta = 1/2) H vanishes for any confusion vector.
        model = GaussianModel(np.array([2.0, 0.0]), 0.5)
        curve = population_confusion_of_model(model)
        assert ascent(parse_metric("accuracy"), curve(0.5), 0.5) == 0.0


class TestBinarySearch:
    def test_accuracy_lands_on_half_from_above(self, rng) -> None:
        # H(0.5) = 0 counts as non-negative, so the bracket's left edge
        # moves to 0.5 and never leaves it.
        data, scores = make_data(rng, 500)
        result = binary_search_threshold(parse_metric("accuracy"), FixedScorer(scores), data)
        eps0 = default_tolerance(500)
        assert 0.5 <= result.delta_hat < 0.5 + eps0

    def test_balanced_am_tie_at_half_is_exact(self) -> None:
        # with balanced classes am's H(1/2) is exactly zero; N - delta * S
        # computes it as 0.0, so the tie rule, not a rounding residue,
        # decides the first halving
        for seed in range(20):
            rng = np.random.default_rng(seed)
            labels = np.array([1, -1] * 150)
            rng.shuffle(labels)
            data = Dataset(np.zeros((300, 1)), labels)
            scorer = FixedScorer(rng.random(300))
            result = binary_search_threshold(parse_metric("am"), scorer, data)
            assert result.h_trace[0] == (0.5, 0.0, 1), seed
            assert result.delta_hat >= 0.5

    def test_prior_sensitive_metric_finds_the_prior(self, rng) -> None:
        data, scores = make_data(rng, 2000, prior=0.3)
        pi = (data.labels == 1).mean()
        result = binary_search_threshold(parse_metric("am"), FixedScorer(scores), data)
        assert result.delta_hat == pytest.approx(pi, abs=default_tolerance(2000))

    def test_iteration_count_matches_halving(self, rng) -> None:
        # widths 1, 1/2, ... 2^-k; stop once the width drops below eps0.
        data, scores = make_data(rng, 1000)
        result = binary_search_threshold(parse_metric("accuracy"), FixedScorer(scores), data)
        eps0 = default_tolerance(1000)
        expected = math.floor(math.log2(1.0 / eps0)) + 1
        assert result.iterations == expected
        assert len(result.h_trace) == expected

    def test_explicit_tolerance_controls_depth(self, rng) -> None:
        data, scores = make_data(rng, 64)
        cfg = ThresholdSearchConfig(tolerance=0.25)
        result = binary_search_threshold(parse_metric("accuracy"), FixedScorer(scores), data, cfg)
        assert result.iterations == 3

    def test_iteration_cap(self, rng) -> None:
        # the bracket is 2^-k wide after k halvings; a tolerance below
        # 2^-64 still stops after 64
        data, scores = make_data(rng, 64)
        cfg = ThresholdSearchConfig(tolerance=1e-30)
        result = binary_search_threshold(parse_metric("accuracy"), FixedScorer(scores), data, cfg)
        assert result.iterations == len(result.h_trace) == 64

    def test_trace_rows_are_consistent(self, rng) -> None:
        data, scores = make_data(rng, 300, prior=0.4)
        result = binary_search_threshold(parse_metric("fbeta:1"), FixedScorer(scores), data)
        lo, hi = 0.0, 1.0
        for delta, h, sign in result.h_trace:
            mid = 0.5 * (lo + hi)
            assert delta == mid
            assert sign == (1 if h >= 0 else -1)
            if sign >= 0:
                lo = mid
            else:
                hi = mid
        assert result.delta_hat == pytest.approx(0.5 * (lo + hi), abs=0)

    @pytest.mark.parametrize("metric", ["fbeta:1", "gmean", "am"])
    @pytest.mark.parametrize("model", [GaussianModel([2.0], 0.3), HolderModel("sine")],
                             ids=["gaussian", "holder"])
    def test_default_tolerance_returns_a_dyadic_midpoint(self, model, metric: str) -> None:
        # k halvings of [0, 1] leave a bracket of width 2^-k on the dyadic
        # grid: delta_hat * 2^(k+1) is an odd integer,
        # so delta_hat sits up to half the final bracket off any root inside
        estimator = EstimatorSpec("kernel" if isinstance(model, HolderModel) else "logistic")
        for n, seed in ((200, 0), (1000, 1), (4000, 2)):
            clf = train_plugin(parse_metric(metric), model.sample(n, seed), estimator, seed=seed)
            k = clf.provenance["search"]["iterations"]
            scaled = math.ldexp(clf.delta, k + 1)
            assert scaled.is_integer() and int(scaled) % 2 == 1, (n, seed, clf.delta, k)

    def test_all_scores_at_one_is_degenerate_for_gmean(self) -> None:
        data = Dataset(np.zeros((40, 1)), np.array([1, -1] * 20))
        with pytest.raises(DegenerateDistributionError):
            binary_search_threshold(parse_metric("gmean"), ConstantScorer(1.0), data)

    def test_result_serialization(self) -> None:
        result = ThresholdResult(0.5, ((0.5, 0.0, 1), (0.75, -0.5, -1)))
        assert result.iterations == 2
        assert result.to_dict() == {
            "delta_hat": 0.5,
            "iterations": 2,
            "h_trace": [[0.5, 0.0, 1], [0.75, -0.5, -1]],
        }


class TestDomainRule:
    """Off the metric's domain H is undefined: below delta = 1/2 the point
    counts as H >= 0, so the search raises delta; from 1/2 up as H < 0."""

    #: tn/tp is undefined while nothing clears the threshold
    ABOVE = (parse_metric("linfrac:0,0,0,1/1,0,0,0"), np.array([0.3, 0.6]))
    #: tn/fn mirrors it: undefined until the threshold clears the positive point
    BELOW = (parse_metric("linfrac:0,0,0,1/0,0,1,0"), np.array([0.05, 0.1]))

    @pytest.mark.parametrize(("case", "delta", "sign"), [(ABOVE, 0.7, -1), (BELOW, 0.04, 1)],
                             ids=["above-half", "below-half"])
    def test_off_domain_point_takes_the_rule_sign(self, case, delta: float, sign: int) -> None:
        spec, scores = case
        profile = ScoreProfile(scores, np.array([1, -1]))
        assert _h(spec, profile.confusion(delta), delta) == (None, sign)

    def test_search_refuses_a_final_bracket_undefined_at_both_ends(self) -> None:
        # tn/tp is undefined from the positive point's score 0.3 up to the
        # negative point's 0.6; the rule reads that stretch as H < 0 from
        # 1/2 up and as H >= 0 below it, so the search climbs toward 1/2 with
        # probes 0.5 (None), 0.25 (H 1.5), 0.375 and 0.4375 (None), and ends
        # on [0.4375, 0.5], where the metric is undefined
        spec, scores = self.ABOVE
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        config = ThresholdSearchConfig(tolerance=0.1)
        with pytest.raises(DegenerateDistributionError,
                           match=r"both ends of the final bracket \[0\.4375, 0\.5\] after 4"):
            binary_search_threshold(spec, FixedScorer(scores), data, config)

    def test_constant_scores_under_precision_are_degenerate(self) -> None:
        # nothing clears a threshold above 0.3, so precision is undefined
        # there, and the search climbs toward 1/2 as above
        precision = parse_metric("linfrac:1,0,0,0/1,1,0,0")
        data = GaussianModel(np.array([2.0, 0.0]), 0.5).sample(40, 0)
        with pytest.raises(DegenerateDistributionError, match="both ends of the final bracket"):
            train_plugin(precision, data, EstimatorSpec("constant", p=0.3), seed=0)

    def test_undefined_at_every_probe_is_degenerate(self) -> None:
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        with pytest.raises(DegenerateDistributionError, match="undefined at both ends"):
            binary_search_threshold(parse_metric("gmean"), FixedScorer(np.ones(2)), data)

    def test_population_undefined_at_every_probe_is_degenerate(self) -> None:
        # every point predicted positive leaves no true negatives for gmean
        def curve(delta: float) -> np.ndarray:
            return np.array([0.5, 0.5, 0.0, 0.0])

        with pytest.raises(DegenerateDistributionError, match="undefined at both ends"):
            fixed_point_threshold(parse_metric("gmean"), curve, 1e-10)

    def test_provenance_with_an_off_domain_last_probe_is_strict_json(self) -> None:
        # precision is undefined once nothing is predicted positive; here the
        # last probe lands above every score of the threshold half
        precision = parse_metric("linfrac:1,0,0,0/1,1,0,0")
        data = GaussianModel(np.array([2.0, 0.0]), 0.5).sample(64, 1)
        clf = train_plugin(precision, data, EstimatorSpec("logistic"), seed=1)
        assert clf.provenance["search"]["final_h"] is None
        text = json.dumps(clf.to_dict(), allow_nan=False)
        assert json.loads(text)["provenance"] == clf.provenance


class TestBisectionProperty:
    """Where the empirical H changes sign, the bisection lands on a change
    from H >= 0 to H < 0; where it keeps one sign, on the matching edge."""

    # accuracy and am change sign once on [0, 1]; the two predicted-rate
    # ratios keep a constant sign (H = -1 and H = +1) and exercise the edges
    METRICS = ("accuracy", "am", "linfrac:1,1,0,0/1,1,1,1", "linfrac:0,0,1,1/1,1,1,1")

    @settings(max_examples=80, deadline=None)
    @given(
        lattice=st.integers(1, 8),
        ranks=st.lists(st.integers(0, 8), min_size=2, max_size=40),
        label_bits=st.lists(st.booleans(), min_size=2, max_size=40),
        name=st.sampled_from(METRICS),
        tolerance=st.sampled_from([None, 0.1, 1e-3, 1e-6]),
    )
    def test_lands_on_a_downward_sign_change_or_an_edge(
        self, lattice, ranks, label_bits, name, tolerance
    ) -> None:
        n = min(len(ranks), len(label_bits))
        scores = np.minimum(np.array(ranks[:n]), lattice) / lattice
        labels = np.where(label_bits[:n], 1, -1)
        labels[0], labels[-1] = 1, -1  # both classes, so am is defined everywhere
        data = Dataset(np.zeros((n, 1)), labels)
        spec = parse_metric(name)
        config = ThresholdSearchConfig(tolerance=tolerance)
        tol = config.resolve_tolerance(n)
        delta_hat = binary_search_threshold(spec, FixedScorer(scores), data, config).delta_hat

        profile = ScoreProfile.from_scorer(FixedScorer(scores), data)
        grid = np.linspace(0.0, 1.0, 257)
        h = np.array([ascent(spec, profile.confusion(d), d) for d in grid])
        down = np.nonzero((h[:-1] >= 0.0) & (h[1:] < 0.0))[0]
        if down.size:
            # the change lies in [grid[i], grid[i + 1]]
            gaps = np.maximum(0.0, np.maximum(grid[down] - delta_hat, delta_hat - grid[down + 1]))
            assert gaps.min() <= tol
        elif (h >= 0.0).all():
            assert 1.0 - delta_hat <= tol
        else:
            assert (h < 0.0).all()
            assert delta_hat <= tol


class TestFixedPoint:
    def test_accuracy_root_is_exactly_half(self) -> None:
        model = GaussianModel(np.array([2.0, 0.0]), 0.5)
        root = fixed_point_threshold(
            parse_metric("accuracy"), population_confusion_of_model(model), 1e-10
        )
        assert root == 0.5

    @pytest.mark.parametrize("kappa", [0.2, 0.3, 0.7])
    def test_prior_metric_root_is_the_prior(self, kappa: float) -> None:
        model = GaussianModel(np.array([1.5]), kappa)
        root = fixed_point_threshold(
            parse_metric("am"), population_confusion_of_model(model), 1e-9
        )
        assert root == pytest.approx(kappa, abs=1e-9)

    def test_constant_sign_raises(self) -> None:
        # tp + fp only ever improves by predicting positive: H = -1.
        model = GaussianModel(np.array([2.0]), 0.5)
        with pytest.raises(NoSignChangeError):
            fixed_point_threshold(
                parse_metric("linfrac:1,1,0,0/1,1,1,1"),
                population_confusion_of_model(model),
                1e-8,
            )

    @pytest.mark.parametrize(("metric", "end"), [("linfrac:3,0,0,1/1,1,1,1", 0.25),
                                                 ("linfrac:1,0,0,3/1,1,1,1", 0.75)])
    def test_exact_zero_at_a_bracket_end_is_the_root(self, metric: str, end: float) -> None:
        # on the constant curve (1/4, 1/4, 1/4, 1/4), H vanishes exactly at
        # delta = 1/4 for the first metric and at 3/4 for the second
        def curve(delta: float) -> np.ndarray:
            return np.full(4, 0.25)

        assert fixed_point_threshold(parse_metric(metric), curve, 0.25) == end

    @pytest.mark.parametrize("tol", [0.0, 0.5, 0.7])
    def test_tol_validation(self, tol: float) -> None:
        with pytest.raises(ValueError):
            fixed_point_threshold(parse_metric("accuracy"), None, tol)


def reference_fixed_point(metric, curve, tol: float) -> float:
    """The population bisection as it stood with a loop of its own, kept as
    the oracle of ``fixed_point_threshold``."""
    lo, hi = tol, 1.0 - tol

    def h(delta: float) -> float:
        numerator, sensitivity, valid = karmic_parts(metric, curve(delta))
        if not valid:
            raise MetricDomainError(f"undefined at delta={delta:.6g}")
        return float(numerator - delta * sensitivity)

    h_lo = h(lo)
    h_hi = h(hi)
    if h_lo == 0.0:
        return lo
    if h_hi == 0.0:
        return hi
    if np.sign(h_lo) == np.sign(h_hi):
        raise NoSignChangeError("constant sign")
    width_target = max(tol * 1e-3, 4e-16)
    while hi - lo > width_target:
        mid = 0.5 * (lo + hi)
        h_mid = h(mid)
        if h_mid == 0.0:
            return mid
        if np.sign(h_mid) == np.sign(h_lo):
            lo, h_lo = mid, h_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestFixedPointMatchesReference:
    """The shared bisection loop gives the population root and the number of
    curve calls of the population search's own loop, bit for bit."""

    MODELS = {"gaussian": GaussianModel(np.array([2.0, 0.0]), 0.5), "holder": HolderModel("sine")}
    #: the F1 bracket on both models is exactly max(tol * 1e-3, 4e-16) wide
    #: after 15 halvings, where stopping at > and at >= the target differ
    LANDS_ON_TARGET = 0.028762080073629903

    @staticmethod
    def counted(model):
        curve = population_confusion_of_model(model)
        calls = []

        def counting(delta: float) -> np.ndarray:
            calls.append(delta)
            return curve(delta)

        return counting, calls

    def outcome(self, solve, metric: str, model, tol: float):
        curve, calls = self.counted(model)
        try:
            return solve(parse_metric(metric), curve, tol), len(calls)
        except (NoSignChangeError, MetricDomainError) as exc:
            return type(exc), len(calls)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("metric", ["fbeta:1", "accuracy", "am", "jaccard", "qmean"])
    @pytest.mark.parametrize("tol", [1e-10, 1e-6, 0.01, LANDS_ON_TARGET, 0.3])
    def test_root_and_call_count_equal_the_reference(self, model: str, metric: str, tol: float) -> None:
        got = self.outcome(fixed_point_threshold, metric, self.MODELS[model], tol)
        want = self.outcome(reference_fixed_point, metric, self.MODELS[model], tol)
        assert got == want

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(("tol", "calls"), [(1e-10, 46), (LANDS_ON_TARGET, 17)])
    def test_f1_call_counts(self, model: str, tol: float, calls: int) -> None:
        assert self.outcome(fixed_point_threshold, "fbeta:1", self.MODELS[model], tol)[1] == calls


class TestGridSearch:
    def test_tie_breaks_to_smallest_delta(self) -> None:
        # all-negative data scored at 0.5: accuracy is 1 for every grid
        # threshold >= 0.5 (strict rule), so the tie breaks at 0.5.
        data = Dataset(np.zeros((4, 1)), np.array([-1, -1, -1, -1]))
        got = grid_search_threshold(
            parse_metric("accuracy"), ConstantScorer(0.5), data, step=0.25
        )
        assert got == 0.25 * 2

    def test_grid_always_contains_the_right_endpoint(self) -> None:
        data = Dataset(np.zeros((1, 1)), np.array([-1]))
        got = grid_search_threshold(
            parse_metric("accuracy"), ConstantScorer(0.95), data, step=0.3
        )
        assert got == 1.0

    def test_finer_grids_never_lose_utility(self, rng) -> None:
        data, scores = make_data(rng, 400, prior=0.4)
        scorer = FixedScorer(scores)
        spec = parse_metric("fbeta:1")
        utilities = []
        for step in [0.1, 0.01, 0.001]:
            delta = grid_search_threshold(spec, scorer, data, step)
            utilities.append(empirical_utility(spec, scorer, data, delta))
        assert utilities[0] <= utilities[1] + 1e-12
        assert utilities[1] <= utilities[2] + 1e-12

    def test_every_point_invalid_raises(self) -> None:
        data = Dataset(np.zeros((4, 1)), np.array([1, 1, 1, 1]))
        with pytest.raises(MetricDomainError):
            grid_search_threshold(parse_metric("gmean"), ConstantScorer(0.5), data, step=0.25)

    @pytest.mark.parametrize("step", [0.0, -0.1, 0.6])
    def test_step_validation(self, step: float) -> None:
        data = Dataset(np.zeros((2, 1)), np.array([1, -1]))
        with pytest.raises(ValueError):
            grid_search_threshold(parse_metric("accuracy"), ConstantScorer(0.5), data, step)


class TestBruteForce:
    def test_hand_worked_example(self) -> None:
        best, winners = brute_force_discrete(
            parse_metric("accuracy"), [(0.5, 0.9), (0.5, 0.2)]
        )
        assert best == pytest.approx(0.85, abs=1e-12)
        assert winners == [(1, -1)]

    def test_indifferent_atom_ties(self) -> None:
        best, winners = brute_force_discrete(
            parse_metric("accuracy"), [(0.5, 0.5), (0.5, 0.9)]
        )
        assert best == pytest.approx(0.7, abs=1e-12)
        assert sorted(winners) == [(-1, 1), (1, 1)]

    def test_validations(self) -> None:
        with pytest.raises(ValueError):
            brute_force_discrete(parse_metric("accuracy"), [])
        with pytest.raises(TooManyAtomsError):
            brute_force_discrete(parse_metric("accuracy"), [(1.0 / 21, 0.5)] * 21)
        with pytest.raises(ValueError):
            brute_force_discrete(parse_metric("accuracy"), [(0.7, 0.5), (0.7, 0.5)])
        with pytest.raises(ValueError):
            brute_force_discrete(parse_metric("accuracy"), [(0.5, 1.2), (0.5, 0.5)])
        # NaN passes both the sign and the sum check, and every eta comparison
        with pytest.raises(ValueError, match="finite"):
            brute_force_discrete(parse_metric("accuracy"), [(math.nan, 0.5), (math.nan, 0.5)])
        with pytest.raises(ValueError, match="eta"):
            brute_force_discrete(parse_metric("accuracy"), [(0.5, math.nan), (0.5, 0.5)])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 7))
    def test_accuracy_optimum_thresholds_eta_at_half(self, seed: int, k: int) -> None:
        gen = np.random.default_rng(seed)
        w = gen.dirichlet(np.ones(k))
        w = w / w.sum()
        eta = gen.random(k)
        eta = np.where(np.abs(eta - 0.5) < 0.05, eta + 0.1, eta)  # keep away from 1/2
        atoms = list(zip(w.tolist(), eta.tolist()))
        _, winners = brute_force_discrete(parse_metric("accuracy"), atoms)
        expected = tuple(1 if e > 0.5 else -1 for e in eta)
        assert expected in winners

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), name=st.sampled_from(["accuracy", "fbeta:1", "am"]))
    def test_winners_are_upper_sets_in_eta(self, seed: int, name: str) -> None:
        # optimal rules for these metrics are eta thresholds, so the
        # positive atoms of any winner must be the top of the eta order.
        gen = np.random.default_rng(seed)
        k = 6
        w = gen.dirichlet(np.ones(k)).tolist()
        eta = (gen.permutation(k) + gen.random(k)) / k  # distinct by construction
        _, winners = brute_force_discrete(parse_metric(name), list(zip(w, eta.tolist())))
        for assignment in winners:
            pos = [e for e, a in zip(eta, assignment) if a == 1]
            neg = [e for e, a in zip(eta, assignment) if a == -1]
            assert not pos or not neg or min(pos) > max(neg)

    def test_agrees_with_grid_search_on_matched_dataset(self, rng) -> None:
        # encode the atoms as a sample that repeats each atom's rows in
        # integer counts, with score equal to eta; a fine threshold grid
        # must then recover the brute-force optimum.
        spec = parse_metric("fbeta:1")
        positives = np.array([1, 5, 9, 13, 17])  # eta = positives / 20 per block
        blocks = rng.integers(1, 6, size=5)  # each atom holds 20 * blocks rows
        rows = 20 * blocks
        etas = positives / 20
        atoms = list(zip((rows / rows.sum()).tolist(), etas.tolist()))
        best, _ = brute_force_discrete(spec, atoms)

        pos, neg = positives * blocks, (20 - positives) * blocks
        scores = np.repeat(np.repeat(etas, 2), np.stack([pos, neg], axis=1).ravel())
        labels = np.repeat(np.tile([1, -1], 5), np.stack([pos, neg], axis=1).ravel())
        data = Dataset(np.zeros((rows.sum(), 1)), labels)
        scorer = FixedScorer(scores)
        delta = grid_search_threshold(spec, scorer, data, step=0.01)
        achieved = empirical_utility(spec, scorer, data, delta)
        assert achieved == pytest.approx(best, abs=1e-12)


class TestBisectionVersusGrid:
    """Companion facts for the empirical-utility comparison of the two searches."""

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_grid_dominates_but_stays_close(self, seed: int) -> None:
        spec = parse_metric("fbeta:1")
        model = GaussianModel(np.array([2.0, 0.0]), 0.5)
        data = sample_gaussian(model, 10_000, seed)
        scorer, _ = fit_logistic_mle(data)
        d_bis = binary_search_threshold(spec, scorer, data).delta_hat
        d_grid = grid_search_threshold(spec, scorer, data, step=1e-4)
        u_bis = empirical_utility(spec, scorer, data, d_bis)
        u_grid = empirical_utility(spec, scorer, data, d_grid)
        # the exhaustive grid can only win on the jagged empirical curve,
        # and at n = 10^4 the excess stays within a few parts per thousand
        assert u_grid >= u_bis - 1e-12
        assert u_grid - u_bis <= 5e-3
        # on the smooth population curve the two thresholds are as good
        pop_bis = metric_value(spec, model.classifier_confusion(scorer, d_bis))
        pop_grid = metric_value(spec, model.classifier_confusion(scorer, d_grid))
        assert abs(pop_bis - pop_grid) <= 5e-4
