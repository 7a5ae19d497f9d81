"""Command-line interface: subcommands, JSON contracts, exit codes."""

from __future__ import annotations

import json
import os
import re
import runpy
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import karmic.cli
import karmic.experiments
from karmic import (
    Dataset,
    EstimatorSpec,
    ExperimentConfig,
    GaussianModel,
    HolderModel,
    KarmicError,
    LogisticScorer,
    PluginClassifier,
    ScoreProfile,
    binary_search_threshold,
    grid_search_threshold,
    metric_value,
    parse_metric,
    population_regret,
    train_plugin,
)
from karmic.cli import main
from karmic.dataio import load_dataset_csv, read_sidecar, save_dataset_csv


def run_cli(capsys, *argv: str) -> tuple[int, dict | None, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def npz_refusal(path) -> dict:
    """The error JSON of a dataset path ending in .npz, read or written."""
    return {"error": "invalid-argument",
            "message": f"{path}: datasets are CSV files (x_1,...,x_d,y with a header row), "
                       "plain or compressed as .csv.gz; NPZ is not supported"}


#: a well-formed classifier JSON, corrupted one field at a time below
LOGISTIC_CLASSIFIER = {"scorer": {"kind": "logistic", "weights": [1.0, 0.0], "intercept": 0.0},
                       "delta": 0.5, "provenance": {}}


@pytest.fixture
def gaussian_csv(tmp_path, capsys) -> str:
    path = str(tmp_path / "train.csv")
    code, payload, _ = run_cli(
        capsys, "gen", "--model", "gaussian", "--mu", "2,0", "--kappa", "0.5",
        "--n", "4000", "--seed", "7", "--out", path,
    )
    assert code == 0
    assert payload == {"written": path, "n": 4000, "dim": 2}
    return path


class TestGen:
    def test_csv_with_sidecar(self, gaussian_csv) -> None:
        data, meta = load_dataset_csv(gaussian_csv)
        assert data.n == 4000
        assert meta == {"model": "gaussian", "mu": [2.0, 0.0], "kappa": 0.5,
                        "n": 4000, "seed": 7}

    def test_npz_output(self, tmp_path, capsys) -> None:
        # CSV is the one format: an .npz name is refused, not filled with CSV
        path = tmp_path / "d.npz"
        code, out, err = run_cli(
            capsys, "gen", "--model", "holder", "--eta", "sine",
            "--n", "500", "--seed", "1", "--out", str(path),
        )
        assert code == 1
        assert out is None
        assert json.loads(err) == npz_refusal(path)
        assert list(tmp_path.iterdir()) == []

    def test_mu_that_is_not_a_number_names_the_key(self, tmp_path, capsys) -> None:
        code, _, err = run_cli(
            capsys, "gen", "--model", "gaussian", "--mu", "2,x", "--kappa", "0.5",
            "--n", "100", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": "config key 'mu' (flag --mu) must be a number, "
                                              "got 'x'"}

    def test_gaussian_needs_mu_and_kappa(self, tmp_path, capsys) -> None:
        code, payload, err = run_cli(
            capsys, "gen", "--model", "gaussian", "--n", "100",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert payload is None
        assert json.loads(err)["error"] == "invalid-argument"


    @pytest.mark.parametrize("model", [("holder",), ("gaussian", "--mu", "1", "--kappa", "0.5")],
                             ids=["holder", "gaussian"])
    def test_n_below_one_is_refused(self, tmp_path, capsys, model) -> None:
        out = tmp_path / "x.csv"
        code, payload, err = run_cli(capsys, "gen", "--model", *model, "--n", "0",
                                     "--out", str(out))
        assert code == 1
        assert payload is None
        assert json.loads(err) == {"error": "invalid-argument", "message": "n must be >= 1"}
        assert not out.exists()

    def test_flag_of_the_other_model_is_refused(self, tmp_path, capsys) -> None:
        out = tmp_path / "x.csv"
        code, payload, err = run_cli(capsys, "gen", "--model", "holder", "--mu", "3",
                                     "--n", "10", "--out", str(out))
        assert code == 1
        assert payload is None
        assert json.loads(err) == {
            "error": "invalid-argument",
            "message": "config key 'mu' (flag --mu) does not apply to the holder model"}
        assert not out.exists()


class TestThreshold:
    def test_reports_fit_and_utility(self, gaussian_csv, capsys) -> None:
        code, payload, _ = run_cli(
            capsys, "threshold", "--metric", "fbeta:1", "--data", gaussian_csv,
            "--estimator", "logistic",
        )
        assert code == 0
        assert payload["metric"] == "fbeta:1"
        assert 0.2 < payload["delta_hat"] < 0.6
        assert payload["iterations"] == len(payload["h_trace"])
        assert 0.7 < payload["utility"] <= 1.0

    @pytest.mark.parametrize(("command", "flags", "flag"), [
        ("threshold", ("--estimator", "svm", "--kernel-beta", "-5"), "--estimator"),
        ("threshold", ("--model", "holder"), "--model"),
        ("oracle", ("--kernel-const", "2"), "--kernel-const"),
    ], ids=["threshold-estimator", "threshold-model", "oracle-kernel-const"])
    def test_classifier_beside_a_model_or_estimator_flag_is_refused(
            self, gaussian_csv, tmp_path, capsys, command, flags, flag) -> None:
        classifier = tmp_path / "clf.json"
        classifier.write_text(json.dumps(LOGISTIC_CLASSIFIER), encoding="utf-8")
        code, out, err = run_cli(capsys, command, "--metric", "accuracy", "--data", gaussian_csv,
                                 "--classifier", str(classifier), *flags)
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": f"flag {flag} does not apply beside --classifier"}

    @pytest.mark.parametrize("command", ["threshold", "oracle"])
    def test_the_sample_is_scored_once(self, gaussian_csv, capsys, monkeypatch,
                                       command) -> None:
        # one profile serves the search and the utility printed beside it
        metric = parse_metric("fbeta:1")
        calls = []
        scores = LogisticScorer.scores
        monkeypatch.setattr(LogisticScorer, "scores",
                            lambda scorer, X: calls.append(len(X)) or scores(scorer, X))
        assert main([command, "--metric", metric.name, "--data", gaussian_csv,
                     "--estimator", "logistic"]) == 0
        assert calls == [4000]
        # what a search that scores the sample itself, and a second profile
        # for the utility, print
        data, _ = load_dataset_csv(gaussian_csv)
        scorer = EstimatorSpec("logistic").build(data)
        if command == "threshold":
            want = binary_search_threshold(metric, scorer, data).to_dict()
            delta = want["delta_hat"]
        else:
            delta = grid_search_threshold(metric, scorer, data, 1e-4)
            want = {"delta": delta, "step": 1e-4}
        want.update(metric=metric.name,
                    utility=metric_value(metric, ScoreProfile.from_scorer(scorer, data)
                                         .confusion(delta)))
        assert capsys.readouterr().out == json.dumps(want, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(("flags", "message"), [
        ((), "provide --classifier or --estimator"),
        (("--estimator", "true-eta"), "no model given (config key 'model', flag --model)"),
    ], ids=["no-scorer", "true-eta-without-model"])
    def test_missing_scorer_or_model_is_refused(self, tmp_path, capsys, flags,
                                                message) -> None:
        data_path = str(tmp_path / "h.csv")
        run_cli(capsys, "gen", "--model", "holder", "--n", "200", "--seed", "2",
                "--out", data_path)
        code, out, err = run_cli(capsys, "threshold", "--metric", "fbeta:1",
                                 "--data", data_path, *flags)
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument", "message": message}


class TestTrainEvaluate:
    def test_default_estimator_is_logistic(self, gaussian_csv, capsys) -> None:
        code, payload, _ = run_cli(
            capsys, "train", "--metric", "fbeta:1", "--data", gaussian_csv, "--seed", "7",
        )
        assert code == 0
        assert payload["scorer"]["kind"] == "logistic"
        assert payload["provenance"]["metric"] == "fbeta:1"
        assert payload["provenance"]["seed"] == 7

    def test_train_then_evaluate_closed_form(self, gaussian_csv, tmp_path, capsys) -> None:
        clf_path = str(tmp_path / "clf.json")
        code, payload, _ = run_cli(
            capsys, "train", "--metric", "fbeta:1", "--data", gaussian_csv,
            "--seed", "3", "--out", clf_path,
        )
        assert code == 0
        assert payload["written"] == clf_path

        code, report, _ = run_cli(
            capsys, "evaluate", "--classifier", clf_path, "--metric", "fbeta:1",
            "--model", "gaussian", "--mu", "2,0", "--kappa", "0.5",
        )
        assert code == 0
        assert report["mode"] == {"mode": "closed-form"}
        assert report["regret"] >= -1e-9
        assert report["regret"] < 0.05
        assert report["metric"] == "fbeta:1"

    def test_train_then_evaluate_gmean(self, gaussian_csv, tmp_path, capsys) -> None:
        clf_path = str(tmp_path / "clf.json")
        code, _, err = run_cli(capsys, "train", "--metric", "gmean", "--data", gaussian_csv,
                               "--seed", "3", "--out", clf_path)
        assert code == 0, err
        code, report, err = run_cli(
            capsys, "evaluate", "--classifier", clf_path, "--metric", "gmean",
            "--model", "gaussian", "--mu", "2,0", "--kappa", "0.5",
        )
        assert code == 0, err
        assert report["delta_star"] == 0.5
        assert 0.0 <= report["regret"] < 0.05

    def test_evaluate_refuses_a_non_karmic_optimum(self, tmp_path, capsys) -> None:
        clf_path = tmp_path / "clf.json"
        clf_path.write_text(json.dumps(LOGISTIC_CLASSIFIER), encoding="utf-8")
        code, report, err = run_cli(
            capsys, "evaluate", "--classifier", str(clf_path),
            "--metric", "linfrac:0.2,0.8,0.4,0.0/0.1,0.5,0.2,0.1",
            "--model", "gaussian", "--mu", "2,0", "--kappa", "0.5",
        )
        assert (code, report) == (1, None)
        assert json.loads(err)["error"] == "non-karmic-point"

    def test_constant_score_that_is_not_a_number_names_the_key(self, gaussian_csv,
                                                                capsys) -> None:
        code, payload, err = run_cli(
            capsys, "train", "--metric", "fbeta:1", "--data", gaussian_csv,
            "--estimator", "constant:abc",
        )
        assert (code, payload) == (1, None)
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": "config key 'estimator' (flag --estimator) must be "
                                              "a number, got 'abc'"}

    def test_zero_margin_model_is_evaluated(self, tmp_path, capsys) -> None:
        # eta is the constant kappa, so the F1 optimum predicts +1 everywhere
        clf_path = tmp_path / "clf.json"
        clf_path.write_text(json.dumps(LOGISTIC_CLASSIFIER), encoding="utf-8")
        code, report, err = run_cli(
            capsys, "evaluate", "--classifier", str(clf_path), "--metric", "fbeta:1",
            "--model", "gaussian", "--mu", "0,0", "--kappa", "0.3",
        )
        assert code == 0, err
        assert abs(report["delta_star"] - 0.3 / 1.3) <= 1e-12
        assert report["u_star"] == pytest.approx(0.6 / 1.3, rel=1e-15)

    def test_kernel_train_writes_one_json(self, tmp_path, capsys) -> None:
        data_path = str(tmp_path / "h.csv")
        run_cli(capsys, "gen", "--model", "holder", "--n", "600", "--seed", "2",
                "--out", data_path)
        (tmp_path / "out").mkdir()
        clf_path = tmp_path / "out" / "kclf.json"
        code, payload, err = run_cli(
            capsys, "train", "--metric", "fbeta:1", "--data", data_path,
            "--estimator", "kernel", "--seed", "4", "--out", str(clf_path),
        )
        assert code == 0, err
        assert sorted(os.listdir(tmp_path / "out")) == ["kclf.json"]
        stored = json.loads(clf_path.read_text(encoding="utf-8"))
        assert sorted(stored["scorer"]) == ["bandwidth", "kind", "x", "y"]
        assert len(stored["scorer"]["x"]) == len(stored["scorer"]["y"]) == 300
        # the JSON alone, moved into a fresh directory, is the whole classifier
        (tmp_path / "fresh").mkdir()
        moved = tmp_path / "fresh" / "moved.json"
        clf_path.rename(moved)
        code, report, err = run_cli(capsys, "evaluate", "--classifier", str(moved),
                                    "--metric", "fbeta:1", "--model", "holder")
        assert code == 0, err
        data, _ = load_dataset_csv(data_path)
        trained = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("kernel"), seed=4)
        want = population_regret(parse_metric("fbeta:1"), trained, HolderModel("sine"))
        assert report == {**want.to_dict(), "metric": "fbeta:1"}

    def test_classifier_file_is_compact_and_reloads_exactly(self, tmp_path, capsys) -> None:
        data_path = str(tmp_path / "h.csv")
        run_cli(capsys, "gen", "--model", "holder", "--n", "2000", "--seed", "3",
                "--out", data_path)
        clf_path = tmp_path / "kclf.json"
        code, _, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", data_path,
                               "--estimator", "kernel", "--seed", "1", "--out", str(clf_path))
        assert code == 0, err
        text = clf_path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and text.endswith("}\n")
        assert ": " not in text and ", " not in text
        stored = json.loads(text)
        data, _ = load_dataset_csv(data_path)
        trained = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("kernel"), seed=1)
        assert stored == json.loads(json.dumps(trained.to_dict()))
        queries = np.linspace(0.0, 1.0, 1001)[:, None]
        reloaded = PluginClassifier.from_dict(stored)
        assert np.array_equal(reloaded.scorer.scores(queries), trained.scorer.scores(queries))
        # the indented file earlier versions wrote gives the same report, byte for byte
        indented = tmp_path / "indented.json"
        indented.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n",
                            encoding="utf-8")
        reports = []
        for path in (clf_path, indented):
            assert main(["evaluate", "--classifier", str(path), "--metric", "fbeta:1",
                         "--model", "holder"]) == 0
            reports.append(capsys.readouterr().out)
        assert reports[0] == reports[1]

    def test_kernel_classifier_on_gaussian_data_reloads_exactly(self, tmp_path, capsys) -> None:
        data_path = str(tmp_path / "g1.csv")
        gaussian = ("--model", "gaussian", "--mu", "2", "--kappa", "0.5")
        run_cli(capsys, "gen", *gaussian, "--n", "4000", "--seed", "7", "--out", data_path)
        clf_path = str(tmp_path / "k1.json")
        code, _, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", data_path,
                               "--estimator", "kernel", "--seed", "1", "--out", clf_path)
        assert code == 0, err
        code, report, err = run_cli(
            capsys, "evaluate", "--classifier", clf_path, "--metric", "fbeta:1", *gaussian,
            "--mode", "monte-carlo", "--mc-samples", "20000", "--mc-seed", "3",
        )
        assert code == 0, err
        data, _ = load_dataset_csv(data_path)
        trained = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("kernel"), seed=1)
        with open(clf_path, encoding="utf-8") as fh:
            reloaded = PluginClassifier.from_dict(json.load(fh))
        queries = np.random.default_rng(0).normal(size=(500, 1))
        assert np.array_equal(reloaded.scorer.scores(queries), trained.scorer.scores(queries))
        want = population_regret(parse_metric("fbeta:1"), trained,
                                 GaussianModel(np.array([2.0]), 0.5),
                                 mode="monte-carlo", mc_samples=20000, mc_seed=3)
        assert report == {**want.to_dict(), "metric": "fbeta:1"}

    @pytest.mark.parametrize("command", ["train", "threshold", "oracle", "evaluate"])
    def test_kernel_on_two_columns_is_refused(self, gaussian_csv, tmp_path, capsys,
                                              command) -> None:
        # a kernel scorer is 1-d; earlier versions also fitted and wrote 2-d ones
        clf_path = tmp_path / "k2.json"
        clf_path.write_text(json.dumps({
            "scorer": {"kind": "kernel", "x": [[0.5, 0.1], [0.25, -0.3]], "y": [1, -1],
                       "bandwidth": 0.5},
            "delta": 0.5, "provenance": {}}), encoding="utf-8")
        flags = (("--classifier", str(clf_path), "--model", "gaussian", "--mu", "2,0",
                  "--kappa", "0.5", "--mode", "monte-carlo", "--mc-samples", "1000")
                 if command == "evaluate" else ("--data", gaussian_csv, "--estimator", "kernel"))
        code, out, err = run_cli(capsys, command, "--metric", "fbeta:1", *flags)
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "dimension-mismatch",
                                   "message": "a kernel scorer takes 1 feature column, "
                                              "got 2 columns"}

    def test_kernel_classifier_evaluates_from_any_directory(
        self, tmp_path, capsys, monkeypatch
    ) -> None:
        data_path = str(tmp_path / "h.csv")
        run_cli(capsys, "gen", "--model", "holder", "--n", "2000", "--seed", "4",
                "--out", data_path)
        (tmp_path / "kp").mkdir()
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", "h.csv",
                             "--estimator", "kernel", "--out", os.path.join("kp", "clf.json"))
        assert code == 0
        evaluate = ("evaluate", "--metric", "fbeta:1", "--model", "holder",
                    "--mode", "monte-carlo", "--mc-samples", "20000")
        code, from_parent, err = run_cli(capsys, *evaluate, "--classifier",
                                         os.path.join("kp", "clf.json"))
        assert code == 0, err
        monkeypatch.chdir(tmp_path / "kp")
        code, from_own_dir, err = run_cli(capsys, *evaluate, "--classifier", "clf.json")
        assert code == 0, err
        assert from_own_dir == from_parent

    def test_kernel_classifier_evaluates_exactly(self, tmp_path, capsys) -> None:
        data_path = str(tmp_path / "h.csv")
        run_cli(capsys, "gen", "--model", "holder", "--n", "3000", "--seed", "6",
                "--out", data_path)
        clf_path = str(tmp_path / "kclf.json")
        code, _, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", data_path,
                               "--estimator", "kernel", "--seed", "2", "--out", clf_path)
        assert code == 0, err
        code, report, err = run_cli(capsys, "evaluate", "--classifier", clf_path,
                                    "--metric", "fbeta:1", "--model", "holder")
        assert code == 0, err
        assert report["mode"] == {"mode": "closed-form"}
        with open(clf_path, encoding="utf-8") as fh:
            stored = json.load(fh)
        want = population_regret(parse_metric("fbeta:1"), PluginClassifier.from_dict(stored),
                                 HolderModel("sine")).to_dict()
        assert report == {**want, "metric": "fbeta:1"}
        assert 0.0 <= report["regret"] < 0.05

    @pytest.mark.parametrize(
        ("payload", "field"),
        [({"scorer": [1], "delta": 0.5}, "scorer"), ([], "classifier"),
         ({"delta": 0.5}, "scorer"),
         ({"scorer": {"kind": "true-eta", "model": "holder"}, "delta": 0.5}, "model"),
         ({**LOGISTIC_CLASSIFIER, "provenance": 5}, "provenance"),
         ({**LOGISTIC_CLASSIFIER, "delta": None}, "delta"),
         ({**LOGISTIC_CLASSIFIER,
           "scorer": {**LOGISTIC_CLASSIFIER["scorer"], "weights": {"a": 1}}}, "weights"),
         ({**LOGISTIC_CLASSIFIER,
           "scorer": {**LOGISTIC_CLASSIFIER["scorer"], "intercept": [1]}}, "intercept"),
         ({"scorer": {"kind": "true-eta", "model": {"model": "gaussian", "mu": {"a": 1},
                                                    "kappa": 0.5}}, "delta": 0.5}, "mu"),
         ({"scorer": {"kind": "true-eta", "model": {"model": "gaussian", "mu": [2, 0],
                                                    "kappa": [0.5]}}, "delta": 0.5}, "kappa"),
         # the kernel form of earlier versions, which named a training CSV
         ({"scorer": {"kind": "kernel", "train_path": "k.json.train.csv", "bandwidth": 0.1,
                      "beta": 1.0}, "delta": 0.5}, "field(s) x"),
         ({"scorer": {"kind": "kernel", "x": [0.5] * 5000, "y": [1] * 5000, "bandwidth": 0.1},
           "delta": 0.5}, "'x'"),
         ({"scorer": {"kind": "kernel", "x": [[0.5], [0.25]], "y": [[1], [-1]],
                      "bandwidth": 0.1}, "delta": 0.5}, "'y'"),
         ({"scorer": {"kind": "kernel", "x": [[0.5], [0.25]], "y": [1, -1]}, "delta": 0.5},
          "bandwidth"),
         # numpy reads a JSON boolean, or a string of digits, as a number
         ({"scorer": {"kind": "constant", "p": True}, "delta": 0.5}, "'p'"),
         ({"scorer": {"kind": "constant", "p": 0.5}, "delta": False}, "'delta'"),
         ({**LOGISTIC_CLASSIFIER,
           "scorer": {**LOGISTIC_CLASSIFIER["scorer"], "weights": [True, 2.0]}}, "'weights'"),
         ({"scorer": {"kind": "kernel", "x": [[0.5], [True]], "y": [1, -1], "bandwidth": 0.1},
           "delta": 0.5}, "'x'"),
         ({"scorer": {"kind": "kernel", "x": [[0.5], [0.25]], "y": [1, False],
                      "bandwidth": 0.1}, "delta": 0.5}, "'y'"),
         ({**LOGISTIC_CLASSIFIER, "delta": "0.5"}, "'delta'"),
         ({"scorer": {"kind": "true-eta"}, "delta": 0.5},
          "true-eta scorer lacks the field(s) model"),
         ({**LOGISTIC_CLASSIFIER,
           "scorer": {**LOGISTIC_CLASSIFIER["scorer"], "weights": []}}, "weights")],
    )
    def test_malformed_classifier_json(self, tmp_path, capsys, payload, field) -> None:
        clf_path = tmp_path / "bad.json"
        clf_path.write_text(json.dumps(payload), encoding="utf-8")
        code, out, err = run_cli(
            capsys, "evaluate", "--classifier", str(clf_path), "--metric", "fbeta:1",
            "--model", "gaussian", "--mu", "2,0", "--kappa", "0.5",
        )
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert field in failure["message"]
        assert len(failure["message"]) < 300  # a long field value is abbreviated

    def test_kernel_train_without_out_prints_classifier(self, tmp_path, capsys) -> None:
        data_path = str(tmp_path / "h.csv")
        run_cli(capsys, "gen", "--model", "holder", "--n", "200", "--seed", "2",
                "--out", data_path)
        code, payload, err = run_cli(
            capsys, "train", "--metric", "accuracy", "--data", data_path,
            "--estimator", "kernel",
        )
        assert code == 0, err
        assert payload["scorer"]["kind"] == "kernel"
        assert len(payload["scorer"]["x"]) == payload["provenance"]["n1"] == 100
        assert PluginClassifier.from_dict(payload).delta == payload["delta"]

    @pytest.mark.parametrize(
        ("flags", "field"),
        [(("--kernel-const", "inf"), "kernel_const"), (("--kernel-const", "nan"), "kernel_const"),
         (("--kernel-beta", "-1"), "kernel_beta"), (("--kernel-beta", "inf"), "kernel_beta"),
         # finite, but the bandwidth's square overflows
         (("--kernel-const", "1e200"), "bandwidth")],
    )
    def test_bad_kernel_parameters_rejected(self, tmp_path, capsys, flags, field) -> None:
        data_path = str(tmp_path / "h.csv")
        run_cli(capsys, "gen", "--model", "holder", "--n", "200", "--seed", "2",
                "--out", data_path)
        code, out, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", data_path,
                                 "--estimator", "kernel", *flags)
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert field in failure["message"]

    @pytest.mark.parametrize(("flags", "message"), [
        (("--kernel-beta", "3"), "'kernel_beta' (flag --kernel-beta) does not apply to the "
                                 "logistic estimator"),
        (("--estimator", "constant:0.3", "--kernel-const", "0.25"),
         "'kernel_const' (flag --kernel-const) does not apply to the constant estimator")],
    )
    def test_kernel_flags_of_another_estimator_are_refused(self, gaussian_csv, capsys,
                                                           flags, message) -> None:
        code, out, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", gaussian_csv,
                                 *flags)
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert message in failure["message"]

    def test_train_too_small_maps_to_error_json(self, tmp_path, capsys) -> None:
        data_path = str(tmp_path / "small.csv")
        run_cli(capsys, "gen", "--model", "gaussian", "--mu", "1", "--kappa", "0.5",
                "--n", "10", "--seed", "0", "--out", data_path)
        code, payload, err = run_cli(
            capsys, "train", "--metric", "accuracy", "--data", data_path,
        )
        assert code == 1
        assert json.loads(err)["error"] == "split-degenerate"

    def test_train_on_a_ratio_with_zero_denominator_blames_the_metric(self, gaussian_csv,
                                                                       capsys) -> None:
        code, out, err = run_cli(capsys, "train", "--metric", "linfrac:1,0,0,0/0,0,0,0",
                                 "--data", gaussian_csv)
        assert code == 1
        assert out is None
        assert json.loads(err) == {
            "error": "metric-domain",
            "message": "linfrac:1,0,0,0/0,0,0,0: the coefficients b are all zero, "
                       "so the metric is defined nowhere"}

    @pytest.mark.parametrize("command", ["evaluate", "oracle", "threshold", "oracle-discrete",
                                         "rate"])
    def test_every_command_blames_a_ratio_with_zero_denominator_as_train_does(
            self, gaussian_csv, tmp_path, capsys, command) -> None:
        metric = "linfrac:1,0,0,0/0,0,0,0"
        classifier = tmp_path / "clf.json"
        classifier.write_text(json.dumps(LOGISTIC_CLASSIFIER), encoding="utf-8")
        config = tmp_path / "exp.cfg"
        config.write_text(f"model = holder\nmetric = {metric}\nestimator = kernel\n"
                          "n_list = 24, 32, 48\nseeds = 2\n", encoding="utf-8")
        argv = {"evaluate": ["evaluate", "--classifier", str(classifier), "--model", "gaussian",
                             "--mu", "2,0", "--kappa", "0.5", "--metric", metric],
                "oracle": ["oracle", "--data", gaussian_csv, "--estimator", "logistic",
                           "--metric", metric],
                "threshold": ["threshold", "--data", gaussian_csv, "--estimator", "logistic",
                              "--metric", metric],
                "oracle-discrete": ["oracle", "--discrete", "0.5:0.2,0.5:0.8",
                                    "--metric", metric],
                # refused when the config is read: no row runs, no file is written
                "rate": ["rate", "--config", str(config), "--out", str(tmp_path / "run")],
                }[command]
        code, out, err = run_cli(capsys, *argv)
        assert code == 1
        assert out is None
        assert not (tmp_path / "run.csv").exists()
        assert json.loads(err) == {
            "error": "metric-domain",
            "message": "linfrac:1,0,0,0/0,0,0,0: the coefficients b are all zero, "
                       "so the metric is defined nowhere"}

    def test_train_traced_peak_holds_one_copy_of_the_sample(self, gaussian_csv, tmp_path,
                                                            capsys) -> None:
        # train passes the loaded sample inline, so the split frees it: the
        # halves and the fit come to 2.2x its bytes; a name bound to it in
        # the CLI keeps it beside them, about 3.2x
        n = 200_000
        path = str(tmp_path / "big.csv")
        save_dataset_csv(GaussianModel([2.0, 0.0], 0.5).sample(n, 1), path)
        assert run_cli(capsys, "train", "--metric", "fbeta:1", "--data", gaussian_csv)[0] == 0
        tracemalloc.start()
        try:
            code = main(["train", "--metric", "fbeta:1", "--data", path,
                         "--out", str(tmp_path / "clf.json")])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak <= 2.5 * n * (2 * 8 + 8)


class TestNonFiniteFeatures:
    @pytest.fixture
    def nan_csv(self, gaussian_csv, tmp_path) -> str:
        lines = Path(gaussian_csv).read_text(encoding="utf-8").splitlines()
        row = lines[5].split(",")
        lines[5] = ",".join(["nan", *row[1:]])
        path = tmp_path / "nan.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize(
        "argv",
        [("threshold", "--estimator", "logistic"), ("oracle", "--estimator", "kernel")],
    )
    def test_rejected_as_invalid_argument(self, nan_csv, capsys, argv) -> None:
        code, out, err = run_cli(capsys, argv[0], "--metric", "fbeta:1", "--data", nan_csv,
                                 *argv[1:])
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert "finite" in failure["message"]


class TestDatasetFiles:
    def test_non_integral_labels_rejected(self, tmp_path, capsys) -> None:
        path = tmp_path / "frac.csv"
        path.write_text("x_1,y\n0.5,1.7\n0.25,-1.2\n1.0,1\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", str(path))
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert "frac.csv" in failure["message"]

    @pytest.mark.parametrize(("body", "message"), [
        ("0.5,1\nabc,-1\n", "data row 2: column 1 is 'abc', not a number"),
        ("0.5,1\n0.25,1,3\n", "data row 2: 3 columns, but data row 1 has 2"),
    ], ids=["bad-float", "extra-column"])
    def test_unparsable_row_is_named(self, tmp_path, capsys, body, message) -> None:
        path = tmp_path / "bad.csv"
        path.write_text("x_1,y\n" + body, encoding="utf-8")
        code, out, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", str(path))
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": f"{path}: {message}"}

    def test_npy_renamed_to_npz_is_named(self, tmp_path, capsys) -> None:
        path = tmp_path / "d.npz"
        with open(path, "wb") as fh:
            np.save(fh, np.zeros(3))
        code, out, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", str(path))
        assert code == 1
        assert out is None
        assert json.loads(err) == npz_refusal(path)

    def test_gzip_round_trip(self, tmp_path, capsys) -> None:
        path = str(tmp_path / "d.csv.gz")
        code, _, _ = run_cli(capsys, "gen", "--model", "gaussian", "--mu", "2,0",
                             "--kappa", "0.5", "--n", "2000", "--seed", "3", "--out", path)
        assert code == 0
        with open(path, "rb") as fh:
            assert fh.read(2) == b"\x1f\x8b"
        code, payload, _ = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", path)
        assert code == 0
        assert payload["provenance"]["n1"] + payload["provenance"]["n2"] == 2000


class TestClassifierJson:
    def test_kernel_classifier_from_another_directory(self, tmp_path, capsys,
                                                      monkeypatch) -> None:
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "gen", "--model", "holder", "--n", "2000", "--seed", "4",
                "--out", "h.csv")
        (tmp_path / "sub").mkdir()
        code, _, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", "h.csv",
                               "--estimator", "kernel", "--out", os.path.join("sub", "clf.json"))
        assert code == 0, err
        commands = [("threshold", "--metric", "fbeta:1"),
                    ("oracle", "--metric", "fbeta:1", "--step", "0.01")]
        from_parent = []
        for argv in commands:
            code, payload, err = run_cli(capsys, *argv, "--data", "h.csv",
                                         "--classifier", os.path.join("sub", "clf.json"))
            assert code == 0, err
            from_parent.append(payload)
        monkeypatch.chdir(tmp_path / "sub")
        for argv, want in zip(commands, from_parent):
            code, payload, err = run_cli(capsys, *argv, "--data", os.path.join("..", "h.csv"),
                                         "--classifier", "clf.json")
            assert code == 0, err
            assert payload == want

    @pytest.mark.parametrize("command", ["threshold", "oracle"])
    def test_only_the_scorer_of_the_classifier_is_used(self, gaussian_csv, tmp_path, capsys,
                                                       command) -> None:
        # the saved delta and provenance play no part: the result is that of
        # the scorer alone, refitted here as the same logistic rule
        classifier = tmp_path / "clf.json"
        classifier.write_text(json.dumps({**LOGISTIC_CLASSIFIER, "delta": 0.9}),
                              encoding="utf-8")
        code, payload, err = run_cli(capsys, command, "--metric", "fbeta:1",
                                     "--data", gaussian_csv, "--classifier", str(classifier))
        assert code == 0, err
        data, _ = load_dataset_csv(gaussian_csv)
        scorer = LogisticScorer([1.0, 0.0], 0.0)
        if command == "threshold":
            assert payload["delta_hat"] == binary_search_threshold(
                parse_metric("fbeta:1"), scorer, data).delta_hat
        else:
            assert payload["delta"] == grid_search_threshold(
                parse_metric("fbeta:1"), scorer, data, 1e-4)

    def test_a_bare_scorer_document_is_refused(self, gaussian_csv, tmp_path, capsys) -> None:
        scorer = tmp_path / "scorer.json"
        scorer.write_text(json.dumps(LOGISTIC_CLASSIFIER["scorer"]), encoding="utf-8")
        code, out, err = run_cli(capsys, "threshold", "--metric", "fbeta:1",
                                 "--data", gaussian_csv, "--classifier", str(scorer))
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert "classifier lacks the field(s)" in failure["message"]


class TestOracle:
    def test_discrete(self, capsys) -> None:
        code, payload, _ = run_cli(
            capsys, "oracle", "--metric", "hmean", "--discrete",
            "0.25:0.9,0.25:0.6,0.25:0.4,0.25:0.1",
        )
        assert code == 0
        assert payload["metric"] == "hmean"
        assert 0.0 < payload["best_utility"] <= 1.0
        assert all(len(a) == 4 for a in payload["argmax_set"])

    def test_grid_on_data(self, gaussian_csv, capsys) -> None:
        code, payload, _ = run_cli(
            capsys, "oracle", "--metric", "fbeta:1", "--data", gaussian_csv,
            "--estimator", "logistic", "--step", "0.001",
        )
        assert code == 0
        assert payload["step"] == 0.001
        assert 0.0 <= payload["delta"] <= 1.0

    def test_needs_atoms_or_data(self, capsys) -> None:
        code, _, err = run_cli(capsys, "oracle", "--metric", "accuracy")
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"

    def test_bad_atom_grammar(self, capsys) -> None:
        code, _, err = run_cli(
            capsys, "oracle", "--metric", "accuracy", "--discrete", "0.5,0.5"
        )
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"

    def test_non_finite_atoms_rejected(self, capsys) -> None:
        # NaN fails every comparison, so range checks alone would let it through
        for atoms in ("nan:0.5,nan:0.5", "0.5:nan,0.5:0.5", "inf:0.5,0.5:0.5"):
            code, out, err = run_cli(capsys, "oracle", "--metric", "accuracy",
                                     "--discrete", atoms)
            assert code == 1
            assert out is None
            assert json.loads(err)["error"] == "invalid-argument"

    @pytest.mark.parametrize(
        "metric", ["linfrac:nan,0,0,0/1,1,1,1", "fbeta:inf", "fbeta:1e200"],
    )
    def test_non_finite_metric_parameters_rejected(self, capsys, metric: str) -> None:
        # unchecked, these gave a NaN regret, a NaN utility and an
        # OverflowError from beta**2 respectively
        code, out, err = run_cli(capsys, "oracle", "--metric", metric,
                                 "--discrete", "0.5:0.3,0.5:0.7")
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert metric in failure["message"]



class TestRate:
    CONFIG = """
    model = gaussian
    mu = 2, 0
    kappa = 0.5
    metric = fbeta:1
    estimator = logistic
    n_list = 24, 32, 48
    seeds = 2
    """

    def test_runs_and_writes_artifacts(self, tmp_path, capsys) -> None:
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG, encoding="utf-8")
        prefix = str(tmp_path / "run")
        code, payload, _ = run_cli(
            capsys, "rate", "--config", str(cfg_path), "--out", prefix,
        )
        assert code == 0
        assert payload["schema"] == 1
        assert payload["csv"] == f"{prefix}.csv"
        with open(f"{prefix}.csv", encoding="utf-8") as fh:
            lines = fh.read().strip().split("\n")
        assert lines[0] == "n,seed,regret,delta_hat,delta_star,error"
        assert len(lines) == 1 + 3 * 2
        with open(f"{prefix}.json", encoding="utf-8") as fh:
            stored = json.load(fh)
        assert stored["schema"] == 1
        assert stored["config"]["metric"] == "fbeta:1"

    def test_out_in_a_missing_directory_is_refused_before_any_row(self, tmp_path, capsys,
                                                                   monkeypatch) -> None:
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG, encoding="utf-8")
        monkeypatch.setattr(karmic.cli, "run_rate_experiment",
                            lambda cfg: pytest.fail("the study ran"))
        missing = str(tmp_path / "runs")
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg_path),
                                 "--out", os.path.join(missing, "gauss"))
        assert code == 1
        assert out is None
        assert json.loads(err) == {
            "error": "invalid-argument",
            "message": f"flag --out: directory {missing!r} does not exist"}

    def test_missing_out_fails(self, tmp_path, capsys) -> None:
        # --out is the only output prefix, so argparse requires it
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["rate", "--config", str(cfg_path)])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        ("line", "field"),
        [("kernel_beta = -1", "kernel_beta"), ("kernel_const = inf", "kernel_const"),
         ("estimator = constant:1.5", "p"), ("estimator = svm", "unknown estimator 'svm'"),
         ("estimator = logistic\nkernel_beta = 3", "'kernel_beta' (flag --kernel-beta)"),
         # the evaluator follows from the model and estimator; it is no key
         ("eval = closed-form", "'eval'")],
    )
    def test_bad_estimator_parameters_fail_before_any_row(
        self, tmp_path, capsys, line, field
    ) -> None:
        cfg_path = tmp_path / "exp.cfg"
        kernel = "" if line.startswith("estimator") else "estimator = kernel\n"
        cfg_path.write_text(f"model = holder\nmetric = fbeta:1\n{kernel}"
                            f"n_list = 24, 32, 48\nseeds = 2\n{line}\n", encoding="utf-8")
        prefix = tmp_path / "run"
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg_path),
                                 "--out", str(prefix))
        assert code == 1
        assert out is None
        failure = json.loads(err)
        assert failure["error"] == "invalid-argument"
        assert field in failure["message"]
        assert not (tmp_path / "run.csv").exists()

    def test_kernel_on_a_two_dimensional_model_fails_before_any_row(self, tmp_path,
                                                                     capsys) -> None:
        # every row would fail to fit, a study of nothing but errors
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG.replace("logistic", "kernel") + "mc_samples = 1000\n",
                            encoding="utf-8")
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "run"))
        assert code == 1
        assert out is None
        assert json.loads(err) == {
            "error": "invalid-argument",
            "message": "config key 'estimator' (flag --estimator) is kernel, which takes 1-d "
                       "data, but config key 'mu' (flag --mu) has 2 entries"}
        assert not (tmp_path / "run.csv").exists()

    def test_unknown_model_fails_before_any_row(self, tmp_path, capsys) -> None:
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG.replace("gaussian", "beta"), encoding="utf-8")
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "run"))
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": "unknown model 'beta'; use 'gaussian' or 'holder'"}
        assert not (tmp_path / "run.csv").exists()

    def test_summary_built_once(self, tmp_path, capsys, caplog, monkeypatch) -> None:
        # every row fails, so the slope fit excludes every n and warns
        fits = []
        fit = karmic.experiments.fit_loglog_slope

        def counting(table):
            fits.append(table)
            return fit(table)

        monkeypatch.setattr(karmic.experiments, "fit_loglog_slope", counting)
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG.replace("fbeta:1", "gmean")
                            .replace("logistic", "constant:1.0"), encoding="utf-8")
        prefix = str(tmp_path / "run")
        with caplog.at_level("WARNING", logger="karmic.experiments"):
            code, payload, err = run_cli(capsys, "rate", "--config", str(cfg_path),
                                         "--out", prefix)
        assert code == 0, err
        assert len(fits) == 1
        assert sum("excluded" in r.message for r in caplog.records) == 1
        assert payload["slope"]["error"] == "insufficient-points"
        with open(f"{prefix}.json", encoding="utf-8") as fh:
            stored = json.load(fh)
        assert {**stored, "csv": payload["csv"], "summary": payload["summary"]} == payload

    def test_config_that_sets_workers_is_refused(self, tmp_path, capsys) -> None:
        # rows run in one process; there is no pool to size
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG + "workers = 2\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "run"))
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": "unknown config keys: ['workers']"}
        assert not (tmp_path / "run.csv").exists()

    def test_config_that_sets_out_is_refused(self, tmp_path, capsys) -> None:
        # the output prefix is karmic rate --out alone
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG + f"out = {tmp_path / 'cfg'}\n", encoding="utf-8")
        code, out, err = run_cli(capsys, "rate", "--config", str(cfg_path),
                                 "--out", str(tmp_path / "run"))
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": "unknown config keys: ['out']"}
        assert sorted(os.listdir(tmp_path)) == ["exp.cfg"]

    def test_missing_config_file(self, tmp_path, capsys) -> None:
        code, _, err = run_cli(
            capsys, "rate", "--config", str(tmp_path / "absent.cfg"), "--out", "x"
        )
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"


class TestFlagsMatchConfig:
    """The model and estimator flags build what the config keys of the same
    names build: ``--kernel-beta 2`` is ``kernel_beta = 2``.  On ``train``
    the model flags name the model of ``true-eta`` alone."""

    MODELS = {
        # one dimension, which a kernel fits
        "gaussian": {"model": "gaussian", "mu": "2", "kappa": "0.3"},
        "holder": {"model": "holder", "eta": "flat"},
    }
    ESTIMATORS = {
        "logistic": {"estimator": "logistic"},
        "kernel": {"estimator": "kernel"},
        "kernel-tuned": {"estimator": "kernel", "kernel_beta": "2.5", "kernel_const": "0.7"},
        "true-eta": {"estimator": "true-eta"},
        "constant": {"estimator": "constant:0.3"},
    }

    class Captured(Exception):
        pass

    def captured_argument(self, monkeypatch, name: str, argv: list[str]):
        """The third positional argument ``karmic.cli`` passes to ``name``."""
        seen = []

        def capture(*args, **kwargs):
            seen.append(args[2])
            raise self.Captured

        monkeypatch.setattr(karmic.cli, name, capture)
        with pytest.raises(self.Captured):
            main(argv)
        return seen[0]

    @staticmethod
    def spec_fields(spec) -> tuple:
        model = None if spec.model is None else spec.model.to_dict()
        return spec.kind, spec.kernel_beta, spec.bandwidth_const, spec.p, model

    @staticmethod
    def flags(keys: dict[str, str]) -> list[str]:
        return [arg for key, value in keys.items()
                for arg in (f"--{key.replace('_', '-')}", value)]

    @pytest.mark.parametrize("estimator", sorted(ESTIMATORS))
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_same_model_and_estimator(self, tmp_path, monkeypatch, model, estimator) -> None:
        keys = {**self.MODELS[model], **self.ESTIMATORS[estimator]}
        cfg = ExperimentConfig.from_mapping(
            {**keys, "metric": "fbeta:1", "n_list": "256", "seeds": "1"}
        )
        data_path = str(tmp_path / "d.csv")
        save_dataset_csv(Dataset(np.zeros((2, 1)), np.array([1, -1])), data_path)
        clf_path = tmp_path / "clf.json"
        clf_path.write_text(json.dumps({"scorer": {"kind": "constant", "p": 0.5},
                                        "delta": 0.5}), encoding="utf-8")

        train_keys = keys if estimator == "true-eta" else self.ESTIMATORS[estimator]
        spec = self.captured_argument(
            monkeypatch, "train_plugin",
            ["train", "--metric", "fbeta:1", "--data", data_path, *self.flags(train_keys)])
        assert self.spec_fields(spec) == self.spec_fields(cfg.estimator)
        built = self.captured_argument(
            monkeypatch, "population_regret",
            ["evaluate", "--metric", "fbeta:1", "--classifier", str(clf_path),
             *self.flags(self.MODELS[model])])
        assert built.to_dict() == cfg.model.to_dict()


class TestFlagValues:
    """The model and estimator flags reach the config parser as text, so a
    bad value exits 1 naming its key and flag, as the same value in a config does."""

    @pytest.mark.parametrize(("argv", "message"), [
        (("gen", "--model", "gaussian", "--mu", "2,0", "--kappa", "abc"),
         "config key 'kappa' (flag --kappa) must be a number, got 'abc'"),
        (("gen", "--model", "foo"), "unknown model 'foo'; use 'gaussian' or 'holder'"),
        (("gen", "--model", "holder", "--eta", "wave"),
         "unknown eta tag 'wave'; use 'sine' or 'flat'"),
        (("train", "--estimator", "kernel", "--kernel-beta", "abc"),
         "config key 'kernel_beta' (flag --kernel-beta) must be a number, got 'abc'"),
        (("train", "--estimator", "kernel", "--kernel-const", "abc"),
         "config key 'kernel_const' (flag --kernel-const) must be a number, got 'abc'"),
    ], ids=["kappa", "model", "eta", "kernel-beta", "kernel-const"])
    def test_malformed_value_names_its_key(self, gaussian_csv, tmp_path, capsys, argv,
                                           message) -> None:
        out = tmp_path / "x.csv"
        rest = (("--n", "10", "--out", str(out)) if argv[0] == "gen"
                else ("--metric", "fbeta:1", "--data", gaussian_csv))
        code, payload, err = run_cli(capsys, *argv, *rest)
        assert code == 1
        assert payload is None
        assert json.loads(err) == {"error": "invalid-argument", "message": message}
        assert not out.exists()

    def test_model_name_is_read_as_in_a_config(self, tmp_path, capsys) -> None:
        path = str(tmp_path / "x.csv")
        code, payload, err = run_cli(capsys, "gen", "--model", "Gaussian", "--mu", "2,0",
                                     "--kappa", "0.5", "--n", "10", "--out", path)
        assert code == 0, err
        assert read_sidecar(path)["model"] == "gaussian"

    def test_eta_tag_is_read_in_any_case(self, tmp_path, capsys) -> None:
        path = str(tmp_path / "x.csv")
        code, payload, err = run_cli(capsys, "gen", "--model", "Holder", "--eta", "Flat",
                                     "--n", "10", "--out", path)
        assert code == 0, err
        assert read_sidecar(path) == {"model": "holder", "eta_tag": "flat", "n": 10, "seed": 0}

    @pytest.mark.parametrize(("command", "flags", "message"), [
        ("train", ("--estimator", "logistic", "--mu", "abc"),
         "flag --mu does not apply to the logistic estimator"),
        # train's estimator is logistic by default
        ("train", ("--model", "gaussian"), "flag --model does not apply to the logistic estimator"),
        ("threshold", ("--estimator", "kernel", "--eta", "flat"),
         "flag --eta does not apply to the kernel estimator"),
        ("oracle", ("--estimator", "constant:0.3", "--kappa", "0.5"),
         "flag --kappa does not apply to the constant estimator"),
    ], ids=["train-logistic", "train-default", "threshold-kernel", "oracle-constant"])
    def test_model_flags_go_with_true_eta_alone(self, gaussian_csv, capsys, command, flags,
                                                message) -> None:
        code, out, err = run_cli(capsys, command, "--metric", "fbeta:1", "--data", gaussian_csv,
                                 *flags)
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument", "message": message}

    @pytest.mark.parametrize(("command", "flag"), [
        ("gen", "--seed"), ("train", "--seed"), ("evaluate", "--mc-seed"),
    ], ids=["gen", "train", "evaluate"])
    def test_negative_seed_names_its_flag(self, gaussian_csv, tmp_path, capsys, command,
                                          flag) -> None:
        out = tmp_path / "out.json"
        classifier = tmp_path / "clf.json"
        classifier.write_text(json.dumps(LOGISTIC_CLASSIFIER), encoding="utf-8")
        rest = {
            "gen": ("--model", "holder", "--n", "10", "--out", str(out)),
            "train": ("--metric", "fbeta:1", "--data", gaussian_csv, "--out", str(out)),
            "evaluate": ("--classifier", str(classifier), "--metric", "fbeta:1",
                         "--model", "gaussian", "--mu", "2,0", "--kappa", "0.5",
                         "--mode", "monte-carlo", "--mc-samples", "1000"),
        }[command]
        code, payload, err = run_cli(capsys, command, *rest, flag, "-1")
        assert code == 1
        assert payload is None
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": f"flag {flag} must be >= 0, got -1"}
        assert not out.exists()

    @pytest.mark.parametrize("mode", [(), ("--mode", "closed-form")],
                             ids=["default-mode", "closed-form"])
    @pytest.mark.parametrize("flag", ["--mc-samples", "--mc-seed"])
    def test_draw_flags_need_monte_carlo_mode(self, tmp_path, capsys, flag, mode) -> None:
        # exact evaluation makes no draw: a draw flag beside it is refused, not ignored
        classifier = tmp_path / "clf.json"
        classifier.write_text(json.dumps(LOGISTIC_CLASSIFIER), encoding="utf-8")
        code, out, err = run_cli(capsys, "evaluate", "--classifier", str(classifier),
                                 "--metric", "fbeta:1", "--model", "gaussian", "--mu", "2,0",
                                 "--kappa", "0.5", *mode, flag, "7")
        assert code == 1
        assert out is None
        assert json.loads(err) == {
            "error": "invalid-argument",
            "message": f"flag {flag} does not apply without --mode monte-carlo"}

    @pytest.mark.parametrize("flags", [
        ("--data", "d.csv"), ("--step", "5"), ("--classifier", "c.json"),
        ("--estimator", "svm"), ("--model", "holder"), ("--kernel-beta", "2"),
    ], ids=["data", "step", "classifier", "estimator", "model", "kernel-beta"])
    def test_discrete_oracle_refuses_every_other_input(self, capsys, flags) -> None:
        code, out, err = run_cli(capsys, "oracle", "--metric", "fbeta:1",
                                 "--discrete", "0.5:0.3,0.5:0.7", *flags)
        assert code == 1
        assert out is None
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": f"flag {flags[0]} does not apply beside --discrete"}


@pytest.mark.parametrize("argv", [
    # a kernel classifier of 2000 points is larger than a pipe buffer, so it
    # is written while the command runs
    ["train", "--metric", "fbeta:1", "--data", "{data}", "--estimator", "kernel"],
    # a few bytes, which an unflushed stdout would write only at interpreter exit
    ["oracle", "--metric", "hmean", "--discrete", "0.5:0.3,0.5:0.7"],
], ids=["kernel-classifier", "discrete-oracle"])
def test_closed_stdout_exits_1_without_a_message(tmp_path, capsys, argv) -> None:
    data_path = str(tmp_path / "k.csv")
    run_cli(capsys, "gen", "--model", "holder", "--n", "4000", "--seed", "2",
            "--out", data_path)
    proc = subprocess.Popen(
        [sys.executable, "-m", "karmic", *(a.format(data=data_path) for a in argv)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        # stdout block-buffered, as it is by default on a pipe
        env={**{k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"},
             "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
    )
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        # train fits its own scorer, and no command reads a bare scorer document
        ["train", "--metric", "fbeta:1", "--data", "d.csv", "--classifier", "c.json"],
        ["threshold", "--metric", "fbeta:1", "--data", "d.csv", "--scorer-json", "s.json"],
        ["gen", "--model", "holder", "--beta", "2", "--n", "10", "--out", "d.csv"],
        # the bisection stops on its tolerance alone
        ["threshold", "--metric", "fbeta:1", "--data", "d.csv", "--max-iterations", "5"],
        ["train", "--metric", "fbeta:1", "--data", "d.csv", "--max-iterations", "5"],
        # rows run in one process
        ["rate", "--config", "c.cfg", "--out", "x", "--workers", "2"],
    ])
    def test_flags_a_command_lacks_exit_2(self, argv: list[str]) -> None:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_2(self) -> None:
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2

    def test_no_subcommand_exits_2(self) -> None:
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point(self) -> None:
        out = subprocess.run(
            [sys.executable, "-m", "karmic", "--help"],
            capture_output=True, text=True, check=False,
        )
        assert out.returncode == 0
        assert "threshold" in out.stdout
        assert "oracle" in out.stdout

    def test_module_entry_point_in_process(self, monkeypatch, capsys) -> None:
        monkeypatch.setattr(sys, "argv", ["karmic", "--help"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("karmic", run_name="__main__")
        assert exc.value.code == 0
        assert "threshold" in capsys.readouterr().out


def test_readme_command_line_block_runs(tmp_path, capsys, monkeypatch) -> None:
    # README's "Command line" block, line by line in a fresh directory with
    # the committed configs, so every example stays one that works
    root = Path(__file__).resolve().parent.parent
    section = (root / "README.md").read_text(encoding="utf-8").split(
        "\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```bash\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines()
                if line.strip() and not line.startswith("#")]
    assert {argv[0] for argv in commands} == {"karmic"}
    shutil.copytree(root / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        code, payload, err = run_cli(capsys, *argv[1:])
        assert (code, err) == (0, ""), argv
        assert payload, argv
    assert {"gauss.csv", "gauss.json", "clf.json", "data.csv"} <= set(os.listdir(tmp_path))


def test_readme_errors_list_every_code() -> None:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Errors\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `([a-z-]+)`", section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(cls.code for cls in KarmicError.__subclasses__())


def test_readme_model_bullets_name_attributes_of_both_models() -> None:
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Synthetic models\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^- `model\.(\w+)", section, flags=re.MULTILINE)
    assert "classifier_confusion" in listed
    for model in (GaussianModel(np.array([1.0]), 0.5), HolderModel("sine")):
        assert [name for name in listed if not hasattr(model, name)] == []
