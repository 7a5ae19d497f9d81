"""Rate experiments: config parsing, the run loop, tables, slope fits."""

from __future__ import annotations

import dataclasses
import math
import pathlib
import re

import numpy as np
import pytest

import karmic.experiments
import karmic.pipeline
from karmic import (
    EstimatorSpec,
    ExperimentConfig,
    GaussianModel,
    HolderModel,
    InsufficientPointsError,
    NoSignChangeError,
    RateRow,
    RateTable,
    fit_loglog_slope,
    run_rate_experiment,
)
from karmic.experiments import (
    CONFIG_KEYS,
    CSV_COLUMNS,
    eval_seed_for,
    model_from_config,
    parse_config_text,
)

from helpers import ols_slope

GAUSS = GaussianModel(np.array([2.0, 0.0]), 0.5)
#: the Gaussian model a kernel study can run on: a kernel scorer is 1-d
GAUSS_1D = GaussianModel(np.array([2.0]), 0.5)
ROOT = pathlib.Path(__file__).resolve().parent.parent


def tiny_config(**overrides) -> ExperimentConfig:
    base = dict(
        model=GAUSS,
        metric="fbeta:1",
        estimator=EstimatorSpec("logistic"),
        n_list=(24, 32),
        seeds=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestConfigValidation:
    def test_eval_mode_defaults(self) -> None:
        assert tiny_config().eval_mode == "closed-form"
        kernel = tiny_config(model=GAUSS_1D, estimator=EstimatorSpec("kernel"))
        assert kernel.eval_mode == "monte-carlo"
        holder = tiny_config(model=HolderModel("sine"), estimator=EstimatorSpec("kernel"))
        assert holder.eval_mode == "closed-form"

    @pytest.mark.parametrize(
        "overrides",
        [
            {"n_list": ()},
            {"n_list": (19, 40)},
            {"n_list": (40, 40)},
            {"n_list": (64, 32)},
            {"seeds": 0},
            {"seeds": 10_001},
            {"tolerance": "adaptive"},
            {"tolerance": 0.0},
            {"tolerance": 1.0},
            {"tolerance": "0.5"},
            {"mc_samples": 0},
            {"tolerance": math.nan},
            {"metric": "f1"},
            # a kernel is 1-d, and GAUSS has two dimensions
            {"estimator": EstimatorSpec("kernel")},
        ],
    )
    def test_rejections(self, overrides) -> None:
        with pytest.raises(ValueError):
            tiny_config(**overrides)

    @pytest.mark.parametrize(("key", "value", "text"), [
        ("n_list", (24.9, 32), "24.9, 32"), ("seeds", 2.7, "2.7"), ("mc_samples", 2.5, "2.5"),
    ], ids=["n_list", "seeds", "mc_samples"])
    def test_fractions_are_refused_as_in_config_text(self, key, value, text) -> None:
        with pytest.raises(ValueError) as built:
            tiny_config(**{key: value})
        raw = {**parse_config_text(TestConfigText.GAUSSIAN_TEXT), key: text}
        with pytest.raises(ValueError) as parsed:
            ExperimentConfig.from_mapping(raw)
        assert str(built.value) == str(parsed.value) == (
            f"config key {key!r} must be a whole number, got {text.split(',')[0]!r}")

    def test_whole_numbers_are_kept_as_ints(self) -> None:
        cfg = tiny_config(n_list=(24.0, "32"), seeds="3", mc_samples=5e3)
        assert (cfg.n_list, cfg.seeds, cfg.mc_samples) == ((24, 32), 3, 5000)
        assert all(type(n) is int for n in (*cfg.n_list, cfg.seeds, cfg.mc_samples))

    def test_search_config_passthrough(self) -> None:
        assert tiny_config().search_config().tolerance is None
        assert tiny_config(tolerance=0.01).search_config().tolerance == 0.01

    def test_to_dict_roundtrip_essentials(self) -> None:
        payload = tiny_config().to_dict()
        assert payload["model"] == {"model": "gaussian", "mu": [2.0, 0.0], "kappa": 0.5}
        assert payload["metric"] == "fbeta:1"
        assert payload["n_list"] == [24, 32]
        assert payload["eval_mode"] == "closed-form"

    @pytest.mark.parametrize(("estimator", "settings"), [
        (EstimatorSpec("logistic"), {}),
        (EstimatorSpec("kernel", kernel_beta=2.0, bandwidth_const=0.5),
         {"kernel_beta": 2.0, "bandwidth_const": 0.5}),
        (EstimatorSpec("true-eta", model=GAUSS_1D), {}),
        (EstimatorSpec("constant", p=0.3), {"p": 0.3}),
    ], ids=["logistic", "kernel", "true-eta", "constant"])
    def test_to_dict_records_only_the_settings_of_its_estimator(self, estimator,
                                                                settings) -> None:
        payload = tiny_config(model=GAUSS_1D, estimator=estimator).to_dict()
        assert payload["estimator"] == {"kind": estimator.kind, **settings}

    def test_to_dict_records_mc_samples_only_for_monte_carlo(self) -> None:
        assert "mc_samples" not in tiny_config(mc_samples=5000).to_dict()
        payload = tiny_config(model=GAUSS_1D, estimator=EstimatorSpec("kernel"),
                              mc_samples=5000).to_dict()
        assert payload["mc_samples"] == 5000


class TestConfigText:
    GAUSSIAN_TEXT = """
    # rate study
    model = gaussian
    mu = 2, 0            # mean separation
    kappa = 0.5
    metric = fbeta:1
    estimator = logistic
    n_list = 256, 512, 1024
    seeds = 4
    """

    def test_parse_lines(self) -> None:
        raw = parse_config_text("a = 1\n# comment\n\nb = two words # trailing")
        assert raw == {"a": "1", "b": "two words"}

    def test_repeated_key_names_both_lines(self) -> None:
        with pytest.raises(ValueError, match=r"'seeds' is set on lines 2 and 4"):
            parse_config_text("model = gaussian\nseeds = 50\n# later\nSeeds = 2")

    def test_readme_config_block_lists_every_key(self) -> None:
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        block = readme.split("```ini\n", 1)[1].split("```", 1)[0]
        keys = {line.split("=", 1)[0].strip() for line in block.splitlines()
                if "=" in line.split("#", 1)[0]}
        assert keys == CONFIG_KEYS

    @pytest.mark.parametrize("line", ["just-a-token", "= value", "key ="])
    def test_bad_lines_report_position(self, line: str) -> None:
        with pytest.raises(ValueError, match="line 2"):
            parse_config_text("ok = 1\n" + line)

    def test_gaussian_mapping(self) -> None:
        cfg = ExperimentConfig.from_mapping(parse_config_text(self.GAUSSIAN_TEXT))
        assert isinstance(cfg.model, GaussianModel)
        np.testing.assert_array_equal(cfg.model.mu, [2.0, 0.0])
        assert cfg.n_list == (256, 512, 1024)
        assert cfg.seeds == 4
        assert cfg.estimator.kind == "logistic"
        assert cfg.tolerance is None
        assert cfg.to_dict()["tolerance"] == "logn-over-n"

    def test_holder_mapping_with_scientific_n(self) -> None:
        text = """
        model = holder
        eta = sine
        metric = fbeta:1
        estimator = kernel
        kernel_const = 0.8
        n_list = 1e3, 2e3, 4e3
        seeds = 2
        """
        cfg = ExperimentConfig.from_mapping(parse_config_text(text))
        assert isinstance(cfg.model, HolderModel)
        assert cfg.n_list == (1000, 2000, 4000)
        assert cfg.estimator.bandwidth_const == 0.8
        assert cfg.eval_mode == "closed-form"

    @pytest.mark.parametrize(("model", "estimator"), [
        ({"model": "holder"}, "kernel"), ({"model": "holder"}, "logistic"),
        ({"model": "gaussian", "mu": "2", "kappa": "0.5"}, "logistic"),
    ], ids=["holder-kernel", "holder-logistic", "gaussian-logistic"])
    def test_draw_count_of_an_exact_study_is_refused(self, model, estimator) -> None:
        # an exactly evaluated study makes no draw, so the key would be ignored
        raw = {**model, "metric": "fbeta:1", "estimator": estimator, "n_list": "64, 128",
               "seeds": "2", "mc_samples": "5"}
        with pytest.raises(ValueError) as refused:
            ExperimentConfig.from_mapping(raw)
        assert str(refused.value) == ("config key 'mc_samples' does not apply to a study "
                                      "evaluated in closed-form mode")
        del raw["mc_samples"]
        assert ExperimentConfig.from_mapping(raw).eval_mode == "closed-form"

    def test_constant_estimator_and_float_tolerance(self) -> None:
        text = """
        model = gaussian
        mu = 1.5
        kappa = 0.3
        metric = am
        estimator = constant:0.4
        n_list = 64, 128, 256
        seeds = 1
        tolerance = 0.001
        """
        cfg = ExperimentConfig.from_mapping(parse_config_text(text))
        assert cfg.estimator.kind == "constant"
        assert cfg.estimator.p == 0.4
        assert cfg.tolerance == 0.001
        assert cfg.to_dict()["tolerance"] == 0.001

    def test_unknown_and_missing_keys(self) -> None:
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_mapping({"model": "gaussian", "fuel": "coal"})
        # the evaluator follows from the model and estimator, and rows run in
        # one process; neither is a key
        for key, value in (("eval", "monte-carlo"), ("workers", "2")):
            with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
                ExperimentConfig.from_mapping({**parse_config_text(self.GAUSSIAN_TEXT),
                                               key: value})
        with pytest.raises(ValueError, match="missing config keys"):
            ExperimentConfig.from_mapping({"model": "gaussian", "mu": "1", "kappa": "0.5"})
        # a count too large for a float is infinite, which int() cannot take;
        # a fraction or a word is no count either, and every error names its key
        raw = parse_config_text(TestConfigText.GAUSSIAN_TEXT)
        for key, value in (("n_list", "256, 1e400"), ("mc_samples", "1e400"),
                           ("n_list", "256.7"), ("mc_samples", "1000.9"),
                           ("seeds", "2.5"), ("seeds", "two"), ("seeds", "nan")):
            with pytest.raises(ValueError, match=key):
                ExperimentConfig.from_mapping({**raw, key: value})
        # every integer key reads 1e1 alike (mc_samples in a study that draws)
        cfg = ExperimentConfig.from_mapping({**raw, "mu": "2", "estimator": "kernel",
                                             "seeds": "1e1", "mc_samples": "2.0e4"})
        assert (cfg.seeds, cfg.mc_samples) == (10, 20_000)

    @pytest.mark.parametrize(("key", "value"), [
        ("tolerance", "abc"), ("kappa", "abc"), ("mu", "2, x"), ("kernel_beta", "abc"),
        ("kernel_const", "0.5x"),
    ])
    def test_float_key_that_is_not_a_number_names_the_key(self, key: str, value: str) -> None:
        raw = {**parse_config_text(self.GAUSSIAN_TEXT), "estimator": "kernel", key: value}
        # a key the CLI also takes as text names its flag too
        flag = "" if key == "tolerance" else f" (flag --{key.replace('_', '-')})"
        message = f"config key '{key}'{flag} must be a number"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentConfig.from_mapping(raw)

    def test_constant_score_that_is_not_a_number_names_the_key(self) -> None:
        raw = {**parse_config_text(self.GAUSSIAN_TEXT), "estimator": "constant:abc"}
        with pytest.raises(ValueError, match=re.escape(
                "config key 'estimator' (flag --estimator) must be a number, got 'abc'")):
            ExperimentConfig.from_mapping(raw)

    def test_from_file(self, tmp_path) -> None:
        path = tmp_path / "exp.cfg"
        path.write_text(self.GAUSSIAN_TEXT, encoding="utf-8")
        cfg = ExperimentConfig.from_file(str(path))
        assert cfg.metric == "fbeta:1"


class TestModelKeys:
    @pytest.mark.parametrize(("raw", "key"), [
        ({"model": "holder", "mu": "3"}, "mu"),
        ({"model": "holder", "kappa": "0.5"}, "kappa"),
        ({"model": "gaussian", "mu": "1", "kappa": "0.5", "eta": "flat"}, "eta"),
    ], ids=["holder-mu", "holder-kappa", "gaussian-eta"])
    def test_key_of_the_other_model_is_refused(self, raw, key) -> None:
        with pytest.raises(ValueError, match=f"config key '{key}' .*does not apply to the "
                                             f"{raw['model']} model"):
            model_from_config(raw)

    def test_missing_gaussian_key_names_the_config_key(self) -> None:
        with pytest.raises(ValueError) as caught:
            model_from_config({"model": "gaussian", "mu": "1"})
        assert str(caught.value) == "the gaussian model needs config key 'kappa' (flag --kappa)"

    def test_rate_config_with_a_holder_mu_is_refused(self) -> None:
        raw = {**parse_config_text(TestConfigText.GAUSSIAN_TEXT), "model": "holder"}
        del raw["kappa"]
        with pytest.raises(ValueError, match="config key 'mu'"):
            ExperimentConfig.from_mapping(raw)

    def test_each_model_keeps_its_own_keys(self) -> None:
        assert model_from_config({"model": "holder", "eta": "flat"}) == HolderModel("flat")
        assert model_from_config({"model": "Holder"}) == HolderModel("sine")
        gauss = model_from_config({"model": "gaussian", "mu": "2, 0", "kappa": "0.5"})
        assert gauss.to_dict() == GAUSS.to_dict()
        # the eta tag is read in any case, as the model and estimator names are
        assert model_from_config({"model": "holder", "eta": " Flat "}) == HolderModel("flat")


class TestEstimatorKeys:
    @pytest.mark.parametrize(("estimator", "key", "value"), [
        ("logistic", "kernel_beta", "3"), ("logistic", "kernel_const", "0.25"),
        ("constant:0.3", "kernel_beta", "-7"), ("constant:0.3", "kernel_const", "abc"),
        ("true-eta", "kernel_beta", "-7"), ("true-eta", "kernel_const", "abc"),
    ])
    def test_kernel_key_of_another_estimator_is_refused(self, estimator, key, value) -> None:
        raw = {**parse_config_text(TestConfigText.GAUSSIAN_TEXT), "estimator": estimator,
               key: value}
        kind = estimator.split(":")[0]
        flag = key.replace("_", "-")
        with pytest.raises(ValueError, match=f"config key '{key}' \\(flag --{flag}\\) "
                                             f"does not apply to the {kind} estimator"):
            ExperimentConfig.from_mapping(raw)


class TestEvalSeeds:
    def test_formula_and_disjointness(self) -> None:
        assert eval_seed_for(0, 0) == 1 << 40
        assert eval_seed_for(100, 7) == (1 << 40) + 10_007 * 100 + 7
        # far above the sampling-seed range, and unique per (n, seed)
        seen = {eval_seed_for(n, s) for n in (256, 512, 1024) for s in range(50)}
        assert len(seen) == 3 * 50
        assert min(seen) > 10_000


class TestRateTable:
    @staticmethod
    def mixed_table() -> RateTable:
        rows = [
            RateRow(100, 0, 0.02, 0.5, 0.4, 0.1),
            RateRow(100, 1, 0.04, 0.52, 0.4, 0.2),
            RateRow(100, 2, math.nan, math.nan, math.nan, 0.05, error="metric-domain"),
            RateRow(200, 0, 0.01, 0.45, 0.4, 0.3),
        ]
        return RateTable(rows)

    def test_aggregates(self) -> None:
        agg = self.mixed_table().aggregates()
        assert [e["n"] for e in agg] == [100, 200]
        first = agg[0]
        assert first["rows"] == 3
        assert first["failures"] == 1
        assert first["median_regret"] == pytest.approx(0.03)
        assert first["median_wall_time"] == pytest.approx(0.1)

    def test_csv_shape(self) -> None:
        text = self.mixed_table().csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert lines[1] == "100,0,0.02,0.5,0.4,"
        assert lines[3].endswith(",metric-domain")
        assert len(lines) == 5

    def test_csv_floats_roundtrip_exactly(self) -> None:
        regret = 1.0 / 3.0
        table = RateTable([RateRow(50, 0, regret, 0.1 + 0.2, 0.4, 1.0)])
        cells = table.csv_text().strip().split("\n")[1].split(",")
        assert float(cells[2]) == regret
        assert float(cells[3]) == 0.1 + 0.2

    def test_summary_shape(self) -> None:
        summary = self.mixed_table().summary()
        assert summary["schema"] == 1
        assert summary["failures"] == 1
        assert "slope" in summary
        # only two usable sample sizes here, so the fit reports an error
        assert summary["slope"]["error"] == "insufficient-points"
        assert summary["total_wall_time"] == pytest.approx(0.65)

    def test_write_files(self, tmp_path) -> None:
        table = self.mixed_table()
        csv_path = tmp_path / "rows.csv"
        json_path = tmp_path / "summary.json"
        table.write_csv(str(csv_path))
        table.write_summary(str(json_path))
        assert csv_path.read_text(encoding="utf-8") == table.csv_text()
        assert json_path.read_text(encoding="utf-8").startswith("{")


class TestSlopeFit:
    @staticmethod
    def table_from_medians(pairs) -> RateTable:
        return RateTable([RateRow(n, 0, r, 0.5, 0.5, 0.0) for n, r in pairs])

    def test_exact_power_law(self) -> None:
        pairs = [(n, 3.0 * n**-0.75) for n in (256, 512, 1024, 2048)]
        slope, intercept, r2 = fit_loglog_slope(self.table_from_medians(pairs))
        assert slope == pytest.approx(-0.75, abs=1e-12)
        assert intercept == pytest.approx(math.log(3.0), abs=1e-12)
        assert r2 == pytest.approx(1.0, abs=1e-12)

    def test_log_over_n_medians(self) -> None:
        # the parametric-rate picture: medians log(n)/n over a dyadic range
        # fit visibly shallower than -1 but steeper than -0.8.
        ns = [2**k for k in range(8, 15)]
        pairs = [(n, math.log(n) / n) for n in ns]
        slope, _, r2 = fit_loglog_slope(self.table_from_medians(pairs))
        want, _ = ols_slope([math.log(n) for n in ns],
                            [math.log(math.log(n) / n) for n in ns])
        assert slope == pytest.approx(want, abs=1e-12)
        assert slope == pytest.approx(-0.87, abs=0.01)
        assert r2 > 0.999

    def test_zero_medians_excluded_with_warning(self, caplog) -> None:
        pairs = [(256, 0.0), (512, 1e-3), (1024, 5e-4), (2048, 2.5e-4)]
        with caplog.at_level("WARNING", logger="karmic.experiments"):
            slope, _, _ = fit_loglog_slope(self.table_from_medians(pairs))
        assert any("excluded" in r.message for r in caplog.records)
        assert slope == pytest.approx(-1.0, abs=1e-9)

    def test_too_few_points(self) -> None:
        pairs = [(256, 1e-3), (512, 0.0), (1024, 0.0), (2048, 2.5e-4)]
        with pytest.raises(InsufficientPointsError):
            fit_loglog_slope(self.table_from_medians(pairs))


class TestRunExperiment:
    def test_rows_cover_the_grid_in_order(self) -> None:
        table = run_rate_experiment(tiny_config())
        assert [(r.n, r.seed) for r in table.rows] == [
            (24, 0), (24, 1), (24, 2), (32, 0), (32, 1), (32, 2)
        ]
        assert table.config is not None

    def test_bitwise_reproducible(self) -> None:
        a = run_rate_experiment(tiny_config())
        b = run_rate_experiment(tiny_config())
        assert a.csv_text() == b.csv_text()

    def test_failures_recorded_not_raised(self) -> None:
        # a constant scorer at 1.0 leaves gmean undefined at every
        # bisection midpoint, so every row fails but the run completes.
        cfg = tiny_config(metric="gmean", estimator=EstimatorSpec("constant", p=1.0))
        table = run_rate_experiment(cfg)
        assert len(table.rows) == 6
        assert all(not r.ok for r in table.rows)
        assert {r.error for r in table.rows} == {"degenerate-distribution"}
        assert all(math.isnan(r.regret) for r in table.rows)

    def test_gmean_study_has_no_failed_row(self) -> None:
        # the population gmean optimum exists once the bracket's undefined
        # ends count as a sign change
        table = run_rate_experiment(tiny_config(metric="gmean", n_list=(256, 1024, 4096)))
        assert len(table.rows) == 9
        assert all(row.ok and row.regret >= -1e-9 for row in table.rows)

    def test_non_karmic_optimum_recorded_on_every_row(self) -> None:
        table = run_rate_experiment(tiny_config(metric="linfrac:0.2,0.8,0.4,0.0/0.1,0.5,0.2,0.1"))
        assert {r.error for r in table.rows} == {"non-karmic-point"}
        assert all(math.isnan(r.delta_star) for r in table.rows)

    def test_mixed_success_aggregates(self) -> None:
        table = run_rate_experiment(tiny_config(seeds=4))
        agg = table.aggregates()
        assert all(e["rows"] == 4 for e in agg)
        summary = table.summary()
        assert summary["schema"] == 1
        assert summary["config"]["metric"] == "fbeta:1"


class TestExactHolderStudy:
    def test_no_negative_regret_and_no_dropped_size(self, caplog) -> None:
        # with Monte-Carlo regret, seeds = 3 gave negative rows at n = 32768
        # and the slope fit dropped that size
        cfg = ExperimentConfig.from_file(str(ROOT / "configs" / "rate_holder_f1.cfg"))
        assert cfg.eval_mode == "closed-form"
        table = run_rate_experiment(dataclasses.replace(cfg, seeds=3))
        assert len(table.rows) == 3 * len(cfg.n_list)
        assert all(row.ok and row.regret >= -1e-9 for row in table.rows)
        with caplog.at_level("WARNING", logger="karmic.experiments"):
            fit_loglog_slope(table)
        assert not any("excluded" in r.message for r in caplog.records)


class TestOneOptimumPerStudy:
    def test_fixed_point_solved_once(self, monkeypatch) -> None:
        calls = []
        solve = karmic.pipeline.fixed_point_threshold

        def counting(*args):
            calls.append(args)
            return solve(*args)

        monkeypatch.setattr(karmic.pipeline, "fixed_point_threshold", counting)
        table = run_rate_experiment(tiny_config())
        assert len(table.rows) == 6
        assert len(calls) == 1
        assert len({row.delta_star for row in table.rows}) == 1

    def test_failed_optimum_on_every_trained_row(self, monkeypatch) -> None:
        # H = -1 everywhere for the predicted-positive rate, so the population
        # fixed point has no sign change; the bisection still trains (at the
        # left edge).  The optimum's error comes first, so no row reaches
        # the Monte-Carlo evaluation of its kernel scorer.  A training error
        # wins.
        train = karmic.experiments.train_plugin

        def failing_seed_zero(metric, data, estimator, config, seed):
            if seed == 0:
                raise karmic.SplitDegenerateError("forced")
            return train(metric, data, estimator, config, seed=seed)

        monkeypatch.setattr(karmic.experiments, "train_plugin", failing_seed_zero)
        cfg = tiny_config(model=GAUSS_1D, metric="linfrac:1,1,0,0/1,1,1,1",
                          estimator=EstimatorSpec("kernel"))
        with pytest.raises(NoSignChangeError):
            karmic.pipeline.population_optimum(karmic.parse_metric(cfg.metric), GAUSS_1D)
        table = run_rate_experiment(cfg)
        assert [(r.seed, r.error) for r in table.rows] == [
            (0, "split-degenerate"), (1, "no-sign-change"), (2, "no-sign-change")
        ] * 2
        assert all(math.isnan(r.delta_star) for r in table.rows)


class TestGoldenCsv:
    """The committed studies, shrunk, reproduce the CSVs in tests/data byte
    for byte.  Both evaluate exactly; the Holder one is also checked by
    ``tests/test_exact_holder.py`` against a midpoint rule.  Its ``_v2``
    file was written once the population optimum came from the same
    interval integrator as the classifier; against the file it replaces,
    ``delta_hat`` and ``delta_star`` are byte-identical and every regret is
    within 3.4e-16.  A kernel on the 1-d Gaussian model, which no model can
    integrate, pins the Monte-Carlo path: the per-row evaluation seeds and
    ``mc_samples``.

    The files were produced with numpy 2.4.6 and scipy 1.17.1.  Other
    versions may differ in the last digit of a special function; the files
    are then regenerated from a commit known to be right, not edited.
    """

    @staticmethod
    def check(cfg: ExperimentConfig, name: str) -> None:
        want = (ROOT / "tests" / "data" / name).read_text(encoding="utf-8")
        assert run_rate_experiment(cfg).csv_text() == want

    def test_gaussian_study(self) -> None:
        cfg = ExperimentConfig.from_file(str(ROOT / "configs" / "rate_gaussian_f1.cfg"))
        self.check(dataclasses.replace(cfg, seeds=2), "rate_gaussian_f1_seeds2.csv")

    def test_gaussian_kernel_study_monte_carlo(self) -> None:
        cfg = ExperimentConfig.from_file(str(ROOT / "configs" / "rate_gaussian_f1.cfg"))
        cfg = dataclasses.replace(cfg, model=GAUSS_1D, estimator=EstimatorSpec("kernel"),
                                  n_list=(256, 512), seeds=2, mc_samples=20_000)
        assert cfg.eval_mode == "monte-carlo"
        self.check(cfg, "rate_gaussian1d_kernel_mc_seeds2.csv")

    def test_holder_study_exact(self) -> None:
        cfg = ExperimentConfig.from_file(str(ROOT / "configs" / "rate_holder_f1.cfg"))
        self.check(dataclasses.replace(cfg, seeds=2), "rate_holder_f1_seeds2_v2.csv")
