"""The benchmark's three workloads, each run in a process of its own.

``run.py`` starts this file several times per run::

    python3 bench/workloads.py --workload W --mode measure|trace \
        --seed S --seconds T --t0 <time.monotonic() when the process was started>

and reads the JSON object on the last line of its standard output.  Each
process first sets up: imports karmic, parses the config, builds the reused
inputs and runs one warm-up operation, and reports the time since it was
started as ``setup_s``.

* ``measure``: repeat whole operations (one rate study, or one
  gen -> train -> evaluate round trip) for ``--seconds``; report every
  round's work and duration, the peak resident memory, and the correctness
  checks, which run after the timed part.
* ``trace``: alternate rounds of the workload's layer calls with and without
  span recording for ``--seconds``; report per-layer metrics and the tracing
  overhead, and write the spans to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from tracer import NullTracer, Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
RESULTS = os.path.join(HERE, "results")

THREAD_VARS = ("KARMIC_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")

#: population fixed-point tolerance used by ``population_regret``
FIXED_POINT_TOL = 1e-10
#: split permutations of the traced layer calls use their own stream
_TRACE_SPLIT_TAG = 0x42454E43

#: per-layer metric -> (unit, span name, count that divides the span time)
TIMED_LAYERS = {
    "synth.sample_ms": ("ms", "synth.sample", None),
    "confusion.split_ms": ("ms", "confusion.split", None),
    "confusion.profile_ms": ("ms", "confusion.profile", None),
    "scorers.logistic_fit_ms": ("ms", "scorers.logistic_fit", None),
    "scorers.kernel_fit_ms": ("ms", "scorers.kernel_fit", None),
    "scorers.kernel_query_ns": ("ns/query", "scorers.kernel_query", "scorers.kernel_queries"),
    "thresholds.bisection_ms": ("ms", "thresholds.bisection", None),
    "thresholds.fixed_point_ms": ("ms", "thresholds.fixed_point", None),
    "metrics.gradient_us": ("us", "metrics.gradient", "metrics.gradient_calls"),
    "pipeline.train_ms": ("ms", "pipeline.train", None),
    "pipeline.regret_closed_ms": ("ms", "pipeline.regret_closed", None),
    "pipeline.regret_mc_ms": ("ms", "pipeline.regret_mc", None),
    "dataio.save_csv_s": ("s", "dataio.save_csv", None),
    "dataio.load_csv_s": ("s", "dataio.load_csv", None),
}
#: per-layer counts, summed over one traced round
COUNTED_LAYERS = ("scorers.newton_iters", "thresholds.h_evals",
                  "thresholds.fixed_point_calls", "pipeline.split_attempts")
_SCALE = {"ms": 1e3, "us": 1e6, "ns/query": 1e9, "s": 1.0}
#: every per-layer metric a traced run reports, with its unit
LAYER_UNITS = {**{name: unit for name, (unit, _, _) in TIMED_LAYERS.items()},
               **{name: "count" for name in COUNTED_LAYERS}, "cli.import_s": "s"}

GAUSS_CONFIG = os.path.join("configs", "rate_gaussian_f1.cfg")
HOLDER_CONFIG = os.path.join("configs", "rate_holder_f1.cfg")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --------------------------------------------------------------------------
# Wrappers the benchmark passes into karmic


class CountingCurve:
    """A population confusion callable that counts its calls."""

    def __init__(self, curve) -> None:
        self.curve = curve
        self.calls = 0

    def __call__(self, delta):
        self.calls += 1
        return self.curve(delta)


class TimedScorer:
    """Delegates to a scorer and records each ``scores`` call as a span."""

    def __init__(self, scorer, tracer) -> None:
        self.scorer = scorer
        self.tracer = tracer
        self.dim = scorer.dim

    def scores(self, X):
        with self.tracer.span("scorers.kernel_query"):
            out = self.scorer.scores(X)
        self.tracer.count("scorers.kernel_queries", len(out))
        return out

    def score(self, x):
        return self.scorer.score(x)


# --------------------------------------------------------------------------
# Layer calls shared by the traced rounds


def traced_split(tr, data, seed: int):
    """Both halves of a seeded permutation, sized as ``train_plugin`` sizes them."""
    import numpy as np

    perm = np.random.default_rng([int(seed), data.n, _TRACE_SPLIT_TAG]).permutation(data.n)
    n1 = data.n // 2
    with tr.span("confusion.split"):
        fit_half = data.subset(perm[:n1])
        threshold_half = data.subset(perm[n1:])
    return fit_half, threshold_half


def traced_search(tr, metric, scorer, threshold_half, search_config):
    """Profile, bisection, and the metric gradient at every probed threshold."""
    from karmic import ScoreProfile, binary_search_threshold, metric_gradient

    with tr.span("confusion.profile"):
        profile = ScoreProfile.from_scorer(scorer, threshold_half)
    with tr.span("thresholds.bisection"):
        result = binary_search_threshold(metric, scorer, threshold_half, search_config)
    tr.count("thresholds.h_evals", len(result.h_trace))
    probed = [profile.confusion(delta) for delta, _, _ in result.h_trace]
    with tr.span("metrics.gradient"):
        for confusion in probed:
            metric_gradient(metric, confusion)
    tr.count("metrics.gradient_calls", len(probed))


def traced_fixed_point(tr, metric, model):
    from karmic import fixed_point_threshold
    from karmic.pipeline import population_confusion_of_model

    curve = CountingCurve(population_confusion_of_model(model))
    with tr.span("thresholds.fixed_point"):
        fixed_point_threshold(metric, curve, FIXED_POINT_TOL)
    tr.count("thresholds.fixed_point_calls", curve.calls)


def traced_train(tr, metric, data, estimator, search_config, seed: int):
    from karmic import train_plugin

    with tr.span("pipeline.train"):
        clf = train_plugin(metric, data, estimator, search_config, seed=seed)
    tr.count("pipeline.split_attempts", clf.provenance["split_attempts"])
    return clf


def traced_regret_mc(tr, metric, clf, model, mc_samples: int, mc_seed: int):
    from karmic import PluginClassifier, population_regret

    timed = PluginClassifier(TimedScorer(clf.scorer, tr), clf.delta)
    with tr.span("pipeline.regret_mc"):
        return population_regret(metric, timed, model, mode="monte-carlo",
                                 mc_samples=mc_samples, mc_seed=mc_seed)


def probe_round(tr) -> None:
    """Every layer once, on seed-0 inputs of both committed models.

    A workload that bypasses a layer takes that layer's figure from here,
    so every traced run reports every per-layer metric.
    """
    from karmic import (
        ExperimentConfig,
        fit_kernel_smoother,
        fit_logistic_mle,
        parse_metric,
        population_regret,
        sample_gaussian,
        sample_holder,
    )
    from karmic.dataio import load_dataset_csv, save_dataset_csv

    n = 16384
    os.makedirs(WORK, exist_ok=True)
    gauss = ExperimentConfig.from_file(os.path.join(ROOT, GAUSS_CONFIG))
    metric = parse_metric(gauss.metric)
    data = sample_gaussian(gauss.model, n, 0)
    fit_half, _ = traced_split(tr, data, 0)
    with tr.span("scorers.logistic_fit"):
        _, report = fit_logistic_mle(fit_half)
    tr.count("scorers.newton_iters", report.iterations)
    clf = traced_train(tr, metric, data, gauss.estimator, gauss.search_config(), 0)
    with tr.span("pipeline.regret_closed"):
        population_regret(metric, clf, gauss.model, mode="closed-form")
    path = os.path.join(WORK, "probe.csv")
    with tr.span("dataio.save_csv"):
        save_dataset_csv(data, path)
    with tr.span("dataio.load_csv"):
        load_dataset_csv(path)

    holder = ExperimentConfig.from_file(os.path.join(ROOT, HOLDER_CONFIG))
    data = sample_holder(holder.model, n, 0)
    fit_half, _ = traced_split(tr, data, 0)
    with tr.span("scorers.kernel_fit"):
        fit_kernel_smoother(fit_half, holder.estimator.kernel_beta,
                            holder.estimator.bandwidth_const)
    clf = traced_train(tr, metric, data, holder.estimator, holder.search_config(), 0)
    traced_regret_mc(tr, metric, clf, holder.model, holder.mc_samples, 0)


def layer_values(tracers) -> dict[str, float]:
    """Per-layer metrics: medians over rounds of per-call means, and the
    counts of the first round (``trace`` checks that they repeat)."""
    per_round: dict[str, list[float]] = {}
    for tr in tracers:
        seconds, calls = tr.totals()
        for name, (unit, span, per) in TIMED_LAYERS.items():
            denominator = tr.counts[per] if per else calls.get(span, 0)
            if denominator:
                per_round.setdefault(name, []).append(seconds[span] / denominator * _SCALE[unit])
    values = {name: statistics.median(v) for name, v in per_round.items()}
    values.update((name, tracers[0].counts[name]) for name in COUNTED_LAYERS
                  if name in tracers[0].counts)
    return values


def span_cost_s(spans: int = 20_000) -> float:
    """Wall time one empty span costs the recorder."""
    tr = Tracer(-2)
    t = time.perf_counter()
    for _ in range(spans):
        with tr.span("empty"):
            pass
    return (time.perf_counter() - t) / spans


# --------------------------------------------------------------------------
# Workloads


class RateStudy:
    """Whole ``run_rate_experiment`` calls on one committed config."""

    def __init__(self, config: str, seeds: int | None, checked_rows: int) -> None:
        self.config_path = config
        self.seeds = seeds
        self.checked_rows = checked_rows

    def setup(self, seed: int) -> None:
        from karmic import ExperimentConfig, GaussianModel, parse_metric, run_rate_experiment

        cfg = ExperimentConfig.from_file(os.path.join(ROOT, self.config_path))
        if self.seeds is not None:
            cfg = dataclasses.replace(cfg, seeds=self.seeds)
        self.cfg = cfg
        self.metric = parse_metric(cfg.metric)
        self.gaussian = isinstance(cfg.model, GaussianModel)
        self.seed = seed
        run_rate_experiment(dataclasses.replace(cfg, n_list=cfg.n_list[:1], seeds=1))

    def run_once(self):
        """One study; returns (rows completed, rows attempted, rows failed, table)."""
        from karmic import run_rate_experiment

        table = run_rate_experiment(self.cfg)
        failed = sum(not row.ok for row in table.rows)
        return len(table.rows) - failed, len(table.rows), failed, table

    def trace_round(self, tr):
        from karmic import fit_kernel_smoother, fit_logistic_mle, sample_gaussian, sample_holder
        from karmic.experiments import eval_seed_for

        cfg, metric, search = self.cfg, self.metric, self.cfg.search_config()
        rows = []
        for n in cfg.n_list:
            for seed in range(cfg.seeds):
                with tr.span("synth.sample"):
                    if self.gaussian:
                        data = sample_gaussian(cfg.model, n, seed)
                    else:
                        data = sample_holder(cfg.model, n, seed)
                clf = traced_train(tr, metric, data, cfg.estimator, search, seed)
                fit_half, threshold_half = traced_split(tr, data, seed)
                if self.gaussian:
                    with tr.span("scorers.logistic_fit"):
                        scorer, report = fit_logistic_mle(fit_half)
                    tr.count("scorers.newton_iters", report.iterations)
                else:
                    with tr.span("scorers.kernel_fit"):
                        scorer = fit_kernel_smoother(fit_half, cfg.estimator.kernel_beta,
                                                     cfg.estimator.bandwidth_const)
                traced_search(tr, metric, scorer, threshold_half, search)
                traced_fixed_point(tr, metric, cfg.model)
                if self.gaussian:
                    from karmic import population_regret

                    with tr.span("pipeline.regret_closed"):
                        report = population_regret(metric, clf, cfg.model, mode="closed-form")
                else:
                    report = traced_regret_mc(tr, metric, clf, cfg.model, cfg.mc_samples,
                                              eval_seed_for(n, seed))
                rows.append(self._row(n, seed, report, clf))
        return len(rows), 0, rows

    @staticmethod
    def _row(n, seed, report, clf) -> dict:
        return {"n": n, "seed": seed, "regret": report.regret, "delta_hat": report.delta_hat,
                "delta_star": report.delta_star, "error": None, "clf": clf}

    def retrain(self, row: dict):
        from karmic import sample_gaussian, sample_holder, train_plugin

        sample = sample_gaussian if self.gaussian else sample_holder
        data = sample(self.cfg.model, row["n"], row["seed"])
        return train_plugin(self.metric, data, self.cfg.estimator, self.cfg.search_config(),
                            seed=row["seed"])

    def check_tables(self, tables) -> list[str]:
        bad = []
        if any(t.csv_text() != tables[0].csv_text() for t in tables[1:]):
            bad.append("two rounds of the same study gave different CSVs")
        rows = [dataclasses.asdict(row) for row in tables[-1].rows]
        return bad + self.check_rows(rows, retrain=True)

    def check_rows(self, rows, retrain: bool) -> list[str]:
        """Checks on study rows; without ``retrain`` the rows carry their classifier."""
        import numpy as np

        import checks

        if any(row["error"] for row in rows):
            return [f"n={r['n']} seed={r['seed']}: {r['error']}" for r in rows if r["error"]]
        picks = [rows[i] for i in np.random.default_rng(self.seed).choice(
            len(rows), self.checked_rows, replace=False)]
        bad = []
        if retrain:
            for row in picks:
                row["clf"] = self.retrain(row)
                if row["clf"].delta != row["delta_hat"]:
                    bad.append(f"n={row['n']} seed={row['seed']}: retraining gave delta "
                               f"{row['clf'].delta!r}, the study {row['delta_hat']!r}")
        model = self.cfg.model
        if self.gaussian:
            f_star = checks.gaussian_f1_optimum(model.mu, model.kappa)
            bad += checks.check_gauss_rows(rows, f_star)
            bad += checks.check_gauss_retrained(
                [dict(row, weights=row["clf"].scorer.weights,
                      intercept=row["clf"].scorer.intercept) for row in picks],
                model.mu, model.kappa, f_star)
            if len({row["seed"] for row in rows}) > 1:
                bad += checks.check_gauss_slope(rows)
        else:
            f_star = checks.sine_f1_optimum()
            for row in rows:
                bad += checks.check_holder_delta_star(row["delta_star"], f_star)
            for row in picks:
                quad, se = checks.sine_regret_quadrature(row["clf"].scorer.scores,
                                                         row["delta_hat"], f_star,
                                                         self.cfg.mc_samples)
                bad += [f"n={row['n']} seed={row['seed']}: {msg}"
                        for msg in checks.check_holder_regret(row["regret"], quad, se)]
        return bad

    def check_traced(self, rows) -> list[str]:
        return self.check_rows(rows, retrain=False)


class CliRoundTrip:
    """``karmic gen`` -> ``karmic train`` -> ``karmic evaluate`` on 1e6 rows."""

    n = 1_000_000
    mu, kappa = (2.0, 0.0), 0.5
    metric = "fbeta:1"

    def _model_args(self) -> list[str]:
        return ["--model", "gaussian", "--mu", ",".join(map(str, self.mu)),
                "--kappa", str(self.kappa)]

    def _commands(self, n: int, stem: str):
        data = os.path.join(WORK, f"{stem}.csv")
        clf = os.path.join(WORK, f"{stem}.json")
        return data, clf, [
            ["gen", *self._model_args(), "--n", str(n), "--seed", str(self.seed), "--out", data],
            ["train", "--metric", self.metric, "--data", data, "--estimator", "logistic",
             "--seed", str(self.seed), "--out", clf],
            ["evaluate", "--classifier", clf, "--metric", self.metric, *self._model_args(),
             "--mode", "closed-form"],
        ]

    def setup(self, seed: int) -> None:
        from karmic.cli import main

        self.main = main
        self.seed = seed
        os.makedirs(WORK, exist_ok=True)
        self.data_path, self.clf_path, self.commands = self._commands(self.n, "roundtrip")
        self._round(self._commands(10_000, "warmup")[2])

    def _round(self, commands):
        codes, outputs = [], []
        for argv in commands:
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                codes.append(self.main(argv))
            outputs.append(out.getvalue())
        return codes, outputs

    def run_once(self):
        """One round trip; returns (dataset rows carried, commands, failures, report)."""
        codes, outputs = self._round(self.commands)
        failed = sum(code != 0 for code in codes)
        report = json.loads(outputs[-1]) if codes[-1] == 0 else None
        return (self.n if failed == 0 else 0), len(codes), failed, report

    def check_tables(self, reports) -> list[str]:
        from karmic import GaussianModel, sample_gaussian
        from karmic.dataio import load_dataset_csv

        if any(report is None for report in reports):
            return ["a round trip failed"]
        bad = []
        if any(report != reports[0] for report in reports[1:]):
            bad.append("two round trips of the same dataset gave different reports")
        data = sample_gaussian(GaussianModel(self.mu, self.kappa), self.n, self.seed)
        loaded, _ = load_dataset_csv(self.data_path)
        with open(self.clf_path, encoding="utf-8") as fh:
            saved = json.load(fh)
        return bad + self._check(data, loaded, saved["scorer"]["weights"],
                                 saved["scorer"]["intercept"], saved["delta"], reports[-1])

    def _check(self, data, loaded, weights, intercept, delta, report) -> list[str]:
        import checks

        f_star = checks.gaussian_f1_optimum(self.mu, self.kappa)
        return (checks.check_csv_roundtrip(self.data_path, data.features, data.labels)
                + checks.check_same_arrays("load_dataset_csv", loaded.features, loaded.labels,
                                           data.features, data.labels)
                + checks.check_logistic_fit(weights, intercept, self.mu, self.kappa)
                + checks.check_evaluate_report(report, weights, intercept, delta,
                                               self.mu, self.kappa, f_star))

    def trace_round(self, tr):
        from karmic import (
            EstimatorSpec,
            GaussianModel,
            ThresholdSearchConfig,
            fit_logistic_mle,
            parse_metric,
            population_regret,
            sample_gaussian,
        )
        from karmic.dataio import load_dataset_csv, save_dataset_csv

        model = GaussianModel(self.mu, self.kappa)
        metric = parse_metric(self.metric)
        search = ThresholdSearchConfig()
        with tr.span("synth.sample"):
            data = sample_gaussian(model, self.n, self.seed)
        with tr.span("dataio.save_csv"):
            save_dataset_csv(data, self.data_path, {**model.to_dict(), "n": self.n,
                                                    "seed": self.seed})
        with tr.span("dataio.load_csv"):
            loaded, _ = load_dataset_csv(self.data_path)
        clf = traced_train(tr, metric, loaded, EstimatorSpec("logistic"), search, self.seed)
        fit_half, threshold_half = traced_split(tr, loaded, self.seed)
        with tr.span("scorers.logistic_fit"):
            scorer, fit = fit_logistic_mle(fit_half)
        tr.count("scorers.newton_iters", fit.iterations)
        traced_search(tr, metric, scorer, threshold_half, search)
        traced_fixed_point(tr, metric, model)
        with tr.span("pipeline.regret_closed"):
            report = population_regret(metric, clf, model, mode="closed-form")
        outputs = (data, loaded, clf, report.to_dict())
        return 1, 0, outputs

    def check_traced(self, outputs) -> list[str]:
        data, loaded, clf, report = outputs
        return self._check(data, loaded, clf.scorer.weights, clf.scorer.intercept, clf.delta,
                           report)


WORKLOADS = {
    # the committed Gaussian study: 7 sizes x 50 seeds, closed-form regret
    "gauss-rate": lambda: RateStudy(GAUSS_CONFIG, seeds=None, checked_rows=3),
    # the committed Holder study with seed 0 only of its 50 (the full study
    # takes about two minutes), so that a round takes seconds
    "holder-rate": lambda: RateStudy(HOLDER_CONFIG, seeds=1, checked_rows=2),
    "cli-roundtrip": CliRoundTrip,
}
#: layers a workload bypasses; their figures come from ``probe_round``
OFF_PATH = {
    "gauss-rate": ("scorers.kernel_fit_ms", "scorers.kernel_query_ns", "pipeline.regret_mc_ms",
                   "dataio.save_csv_s", "dataio.load_csv_s"),
    "holder-rate": ("scorers.logistic_fit_ms", "scorers.newton_iters",
                    "pipeline.regret_closed_ms", "dataio.save_csv_s", "dataio.load_csv_s"),
    "cli-roundtrip": ("scorers.kernel_fit_ms", "scorers.kernel_query_ns",
                      "pipeline.regret_mc_ms"),
}


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def import_seconds(samples: int = 3) -> float:
    """Median wall time of ``import karmic.cli`` in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import karmic.cli; print(time.perf_counter() - t)")
    times = []
    for _ in range(samples):
        done = subprocess.run([sys.executable, "-c", code, SRC], capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def another_round(durations, seconds: float) -> bool:
    """Whole rounds until the next one would end further past ``seconds`` than
    stopping now falls short of it, so that runs measure ``seconds`` on average."""
    if not durations:
        return True
    return sum(durations) + statistics.mean(durations) / 2 < seconds


def measure(workload, seconds: float, check: bool) -> dict:
    rounds, outputs = [], []
    attempted = failed = 0
    while another_round([duration for _, duration in rounds], seconds):
        t = time.perf_counter()
        units, tried, lost, output = workload.run_once()
        rounds.append((units, time.perf_counter() - t))
        outputs.append(output)
        attempted += tried
        failed += lost
    rss = peak_rss_mb()
    return {
        "peak_rss_mb": rss,
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "failures": workload.check_tables(outputs) if check else [],
    }


def trace(name: str, workload, seconds: float, seed: int) -> dict:
    tracers, walls = [], {"traced": [], "untraced": []}
    attempted = failed = 0
    outputs = None
    pairs = []
    while another_round(pairs, seconds):
        begun = time.perf_counter()
        order = ("untraced", "traced") if len(pairs) % 2 == 0 else ("traced", "untraced")
        for kind in order:
            tr = Tracer(len(tracers)) if kind == "traced" else NullTracer()
            t = time.perf_counter()
            tried, lost, out = workload.trace_round(tr)
            walls[kind].append(time.perf_counter() - t)
            if kind == "traced":
                tracers.append(tr)
                outputs = out
                attempted += tried
                failed += lost
        pairs.append(time.perf_counter() - begun)
    values = layer_values(tracers)
    bad = []
    for count in COUNTED_LAYERS:
        seen = {tr.counts[count] for tr in tracers if count in tr.counts}
        if len(seen) > 1:
            bad.append(f"{count} differs between traced rounds of the same inputs: {sorted(seen)}")
    probe = Tracer(-1)
    probe_round(probe)
    from_probe = layer_values([probe])
    off_path = OFF_PATH[name]
    for metric in off_path:
        values[metric] = from_probe[metric]
    values["cli.import_s"] = import_seconds()
    untraced, traced = statistics.median(walls["untraced"]), statistics.median(walls["traced"])
    spans = statistics.median(len(tr.spans) for tr in tracers)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"trace-{name}-seed{seed}.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"workload": name, "seed": seed, "rounds": [tr.to_dict() for tr in tracers],
                   "probe": probe.to_dict(), "off_path": off_path, "walls": walls}, fh)
    return {
        "layers": values,
        "off_path": off_path,
        "tracing_overhead_s": traced - untraced,
        "tracing_overhead_share": (traced - untraced) / untraced,
        "round_walls_s": walls,
        "spans_per_round": spans,
        "recorder_cost_s": spans * span_cost_s(),
        "traced_rounds": len(tracers),
        "attempted": attempted,
        "failed": failed,
        "failures": bad + workload.check_traced(outputs),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--mode", choices=("measure", "trace"), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--no-check", action="store_true",
                        help="skip the correctness checks after measuring")
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed)
    setup_s = time.monotonic() - args.t0
    import karmic

    if os.path.dirname(os.path.abspath(karmic.__file__)) != os.path.join(SRC, "karmic"):
        print(f"karmic was imported from {karmic.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result = {"setup_s": setup_s, "environment": environment()}
    if args.mode == "measure":
        result.update(measure(workload, args.seconds, check=not args.no_check))
    else:
        result.update(trace(args.workload, workload, args.seconds, args.seed))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
