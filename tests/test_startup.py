"""Cold start: a fresh interpreter loads scipy and the process pool only on use.

``scipy.special`` (about 0.3 s to import) serves the Gaussian closed forms and
the logistic scorer; the process pool serves rate studies with more than one
worker.  ``import karmic``, the Holder/kernel path and ``karmic gen`` need
neither.
"""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import numpy as np

from karmic import EstimatorSpec, ExperimentConfig, GaussianModel, HolderModel, run_rate_experiment

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
LAZY = ("concurrent.futures.process", "multiprocessing", "scipy.special")

STUDIES = {
    "holder-kernel": ExperimentConfig(HolderModel("sine"), "fbeta:1", EstimatorSpec("kernel"),
                                      (256,), 1),
    "gaussian-logistic": ExperimentConfig(GaussianModel(np.array([2.0, 0.0]), 0.5), "fbeta:1",
                                          EstimatorSpec("logistic"), (256,), 1),
}

SCRIPT = f"""
import contextlib, io, json, sys

LAZY = {LAZY!r}
loaded = lambda: [name for name in LAZY if name in sys.modules]

import numpy as np
import karmic
from karmic import EstimatorSpec, ExperimentConfig, GaussianModel, HolderModel, run_rate_experiment
from karmic.cli import main

out = {{"import": loaded()}}
holder = ExperimentConfig(HolderModel("sine"), "fbeta:1", EstimatorSpec("kernel"), (256,), 1)
out["holder-kernel csv"] = run_rate_experiment(holder).csv_text()
out["holder-kernel"] = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    out["gen code"] = main(["gen", "--model", "holder", "--n", "100", "--seed", "1",
                            "--out", sys.argv[1]])
out["gen"] = loaded()
gauss = ExperimentConfig(GaussianModel(np.array([2.0, 0.0]), 0.5), "fbeta:1",
                         EstimatorSpec("logistic"), (256,), 1)
out["gaussian-logistic csv"] = run_rate_experiment(gauss).csv_text()
out["gaussian-logistic"] = loaded()
print(json.dumps(out))
"""


def test_scipy_and_the_pool_load_on_first_use(tmp_path) -> None:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path / "h.csv")],
                          cwd=tmp_path, env=env, capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["gen code"] == 0
    assert out["import"] == out["holder-kernel"] == out["gen"] == []
    assert out["gaussian-logistic"] == ["scipy.special"]
    for name, cfg in STUDIES.items():
        csv = run_rate_experiment(cfg).csv_text()
        assert out[f"{name} csv"] == csv
        assert csv.rstrip("\n").endswith(",")  # no error code on the row
