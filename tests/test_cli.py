"""Command-line interface: subcommands, JSON contracts, exit codes."""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
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
    PluginClassifier,
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
        path = str(tmp_path / "d.npz")
        code, payload, _ = run_cli(
            capsys, "gen", "--model", "holder", "--eta", "sine",
            "--n", "500", "--seed", "1", "--out", path,
        )
        assert code == 0
        assert payload["n"] == 500
        assert read_sidecar(path)["model"] == "holder"

    def test_mu_that_is_not_a_number_names_the_key(self, tmp_path, capsys) -> None:
        code, _, err = run_cli(
            capsys, "gen", "--model", "gaussian", "--mu", "2,x", "--kappa", "0.5",
            "--n", "100", "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert json.loads(err) == {"error": "invalid-argument",
                                   "message": "config key 'mu' must be a number, got 'x'"}

    def test_gaussian_needs_mu_and_kappa(self, tmp_path, capsys) -> None:
        code, payload, err = run_cli(
            capsys, "gen", "--model", "gaussian", "--n", "100",
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 1
        assert payload is None
        assert json.loads(err)["error"] == "invalid-argument"


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

    def test_scorer_json_wins_over_estimator(self, gaussian_csv, tmp_path, capsys) -> None:
        scorer_path = tmp_path / "scorer.json"
        scorer_path.write_text(json.dumps({"kind": "constant", "p": 0.5}), encoding="utf-8")
        code, payload, _ = run_cli(
            capsys, "threshold", "--metric", "accuracy", "--data", gaussian_csv,
            "--scorer-json", str(scorer_path), "--estimator", "logistic",
        )
        assert code == 0
        # a constant scorer cannot beat the majority rule
        assert payload["utility"] == pytest.approx(0.5, abs=0.05)


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
                                   "message": "config key 'estimator' must be a number, got 'abc'"}

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

    def test_kernel_classifier_on_gaussian_data_reloads_exactly(
        self, gaussian_csv, tmp_path, capsys
    ) -> None:
        clf_path = str(tmp_path / "k2.json")
        code, _, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", gaussian_csv,
                               "--estimator", "kernel", "--seed", "1", "--out", clf_path)
        assert code == 0, err
        code, report, err = run_cli(
            capsys, "evaluate", "--classifier", clf_path, "--metric", "fbeta:1",
            "--model", "gaussian", "--mu", "2,0", "--kappa", "0.5",
            "--mode", "monte-carlo", "--mc-samples", "20000", "--mc-seed", "3",
        )
        assert code == 0, err
        data, _ = load_dataset_csv(gaussian_csv)
        trained = train_plugin(parse_metric("fbeta:1"), data, EstimatorSpec("kernel"), seed=1)
        with open(clf_path, encoding="utf-8") as fh:
            reloaded = PluginClassifier.from_dict(json.load(fh))
        queries = np.random.default_rng(0).normal(size=(500, 2))
        assert np.array_equal(reloaded.scorer.scores(queries), trained.scorer.scores(queries))
        want = population_regret(parse_metric("fbeta:1"), trained,
                                 GaussianModel(np.array([2.0, 0.0]), 0.5),
                                 mode="monte-carlo", mc_samples=20000, mc_seed=3)
        assert report == {**want.to_dict(), "metric": "fbeta:1"}

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
         ({**LOGISTIC_CLASSIFIER, "delta": "0.5"}, "'delta'")],
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

    def test_train_too_small_maps_to_error_json(self, tmp_path, capsys) -> None:
        data_path = str(tmp_path / "small.csv")
        run_cli(capsys, "gen", "--model", "gaussian", "--mu", "1", "--kappa", "0.5",
                "--n", "10", "--seed", "0", "--out", data_path)
        code, payload, err = run_cli(
            capsys, "train", "--metric", "accuracy", "--data", data_path,
        )
        assert code == 1
        assert json.loads(err)["error"] == "split-degenerate"


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


class TestScorerJson:
    def test_kernel_scorer_from_another_directory(self, tmp_path, capsys, monkeypatch) -> None:
        monkeypatch.chdir(tmp_path)
        run_cli(capsys, "gen", "--model", "holder", "--n", "2000", "--seed", "4",
                "--out", "h.csv")
        (tmp_path / "sub").mkdir()
        code, stored, err = run_cli(capsys, "train", "--metric", "fbeta:1", "--data", "h.csv",
                                    "--estimator", "kernel")
        assert code == 0, err
        (tmp_path / "sub" / "scorer.json").write_text(json.dumps(stored["scorer"]),
                                                      encoding="utf-8")
        commands = [("threshold", "--metric", "fbeta:1"),
                    ("oracle", "--metric", "fbeta:1", "--step", "0.01")]
        from_parent = []
        for argv in commands:
            code, payload, err = run_cli(capsys, *argv, "--data", "h.csv",
                                         "--scorer-json", os.path.join("sub", "scorer.json"))
            assert code == 0, err
            from_parent.append(payload)
        monkeypatch.chdir(tmp_path / "sub")
        for argv, want in zip(commands, from_parent):
            code, payload, err = run_cli(capsys, *argv, "--data", os.path.join("..", "h.csv"),
                                         "--scorer-json", "scorer.json")
            assert code == 0, err
            assert payload == want


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

    def test_missing_out_fails(self, tmp_path, capsys) -> None:
        cfg_path = tmp_path / "exp.cfg"
        cfg_path.write_text(self.CONFIG, encoding="utf-8")
        code, _, err = run_cli(capsys, "rate", "--config", str(cfg_path))
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"

    @pytest.mark.parametrize(
        ("line", "field"),
        [("kernel_beta = -1", "kernel_beta"), ("kernel_const = inf", "kernel_const"),
         ("estimator = constant:1.5", "p"),
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

    def test_missing_config_file(self, tmp_path, capsys) -> None:
        code, _, err = run_cli(
            capsys, "rate", "--config", str(tmp_path / "absent.cfg"), "--out", "x"
        )
        assert code == 1
        assert json.loads(err)["error"] == "invalid-argument"


class TestFlagsMatchConfig:
    """The model and estimator flags build what the config keys of the same
    names build: ``--kernel-beta 2`` is ``kernel_beta = 2``."""

    MODELS = {
        "gaussian": {"model": "gaussian", "mu": "2,0", "kappa": "0.3"},
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

        spec = self.captured_argument(
            monkeypatch, "train_plugin",
            ["train", "--metric", "fbeta:1", "--data", data_path, *self.flags(keys)])
        assert self.spec_fields(spec) == self.spec_fields(cfg.estimator)
        built = self.captured_argument(
            monkeypatch, "population_regret",
            ["evaluate", "--metric", "fbeta:1", "--classifier", str(clf_path),
             *self.flags(self.MODELS[model])])
        assert built.to_dict() == cfg.model.to_dict()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["train", "--metric", "fbeta:1", "--data", "d.csv", "--scorer-json", "s.json"],
        ["gen", "--model", "holder", "--beta", "2", "--n", "10", "--out", "d.csv"],
        # the bisection stops on its tolerance alone
        ["threshold", "--metric", "fbeta:1", "--data", "d.csv", "--max-iterations", "5"],
        ["train", "--metric", "fbeta:1", "--data", "d.csv", "--max-iterations", "5"],
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
