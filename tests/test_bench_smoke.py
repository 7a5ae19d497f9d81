"""The benchmark's workloads still run on the package.

``bench/workloads.py`` reads attributes of karmic objects (``cfg.mc_samples``,
``profile.confusion``, ``Dataset.subset``, ``clf.provenance["split_attempts"]``)
that an import check cannot see.  One short measuring run of each rate
workload, with its correctness checks, one pass over the layer calls of the
traced mode, and one in-process round trip of ``cli-roundtrip`` fail when a
change breaks them.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("workload", ["gauss-rate", "holder-rate"])
def test_rate_workload_runs_and_passes_its_checks(workload: str) -> None:
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "workloads.py"), "--workload", workload,
         "--mode", "measure", "--seed", "1", "--seconds", "0.01",
         "--t0", repr(time.monotonic())],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["attempted"] > 0
    assert result["failed"] == 0
    assert result["failures"] == []


def test_traced_layer_calls_run(monkeypatch) -> None:
    # trace mode alone reads ``profile.confusion`` and ``split_attempts``;
    # its layer calls run here on a small sample, writing no file
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads
    from tracer import Tracer

    from karmic import (
        EstimatorSpec,
        GaussianModel,
        HolderModel,
        ThresholdSearchConfig,
        parse_metric,
        train_plugin,
    )

    model = GaussianModel([2.0, 0.0], 0.5)
    metric, search = parse_metric("fbeta:1"), ThresholdSearchConfig()
    data = model.sample(2000, 3)
    tr = Tracer(0)
    clf = workloads.traced_train(tr, metric, data, EstimatorSpec("logistic"), search, 3)
    _, threshold_half = workloads.traced_split(tr, data, 3)
    workloads.traced_search(tr, metric, clf.scorer, threshold_half, search)
    workloads.traced_fixed_point(tr, metric, model)
    assert tr.counts["pipeline.split_attempts"] == 1
    assert tr.counts["thresholds.h_evals"] == tr.counts["metrics.gradient_calls"] > 0
    assert tr.counts["thresholds.fixed_point_calls"] > 0

    holder = HolderModel("sine")
    kernel = train_plugin(metric, holder.sample(2000, 3), EstimatorSpec("kernel"), search, 3)
    report = workloads.traced_regret_mc(tr, metric, kernel, holder, 20000, 0)
    assert report.mode == {"mode": "monte-carlo", "m": 20000, "seed": 0}
    assert tr.counts["scorers.kernel_queries"] == 20000


def test_cli_round_trip_runs_and_passes_its_checks(monkeypatch, tmp_path) -> None:
    # the one tier-1 run of the classifier JSON and ``evaluate --mode
    # closed-form`` as the benchmark reads them; its files go to tmp_path
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    import workloads

    monkeypatch.setattr(workloads, "WORK", str(tmp_path))
    workload = workloads.CliRoundTrip()
    workload.setup(1)
    rows, attempted, failed, report = workload.run_once()
    assert (rows, attempted, failed) == (workload.n, 3, 0)
    assert workload.check_tables([report]) == []
