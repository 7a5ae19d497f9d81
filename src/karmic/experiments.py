"""Convergence-rate experiment harness: regret vs sample size, with slopes.

A run is a grid of (n, seed) rows.  The population optimum depends only on
the metric and the model, so it is solved once per run; each row then
samples a fresh training set, trains the plug-in classifier, and evaluates
its population regret against that optimum.  Rows are independent and may
execute on a process pool without changing any output (fixed task order,
per-row derived evaluation seeds).  Aggregation reports the per-n median
regret and interquartile range, and the headline statistic is the
least-squares slope of log(median regret) against log(n).

Outputs: a CSV of rows (stable column set, floats via repr so identical
runs are byte-identical) and a JSON summary (schema 1) carrying aggregates,
the slope fit, and wall-time totals.  Config files are plain ``key = value``
text; see ``ExperimentConfig.from_file``.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .errors import InsufficientPointsError, KarmicError
from .metrics import parse_metric
from .pipeline import EstimatorSpec, classifier_utility, population_optimum, train_plugin
from .synth import GaussianModel, HolderModel, model_from_dict
from .thresholds import ThresholdSearchConfig

__all__ = [
    "ExperimentConfig",
    "RateRow",
    "RateTable",
    "run_rate_experiment",
    "fit_loglog_slope",
    "parse_config_text",
    "model_from_config",
    "estimator_from_config",
]

logger = logging.getLogger(__name__)

_EVAL_SEED_BASE = 1 << 40
_EVAL_SEED_STRIDE = 10007
CSV_COLUMNS = ("n", "seed", "regret", "delta_hat", "delta_star", "error")


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a rate experiment.

    ``tolerance`` is either the string "logn-over-n" (per-search default,
    max(log n2 / n2, 1e-8) on the threshold half) or a fixed float.
    ``eval_mode`` defaults to closed-form (exact) wherever it exists: the
    Holder model with any estimator and the Gaussian model with any but the
    kernel; a kernel on the Gaussian model defaults to Monte Carlo.
    """

    model: GaussianModel | HolderModel
    metric: str
    estimator: EstimatorSpec
    n_list: tuple[int, ...]
    seeds: int
    tolerance: str | float = "logn-over-n"
    eval_mode: str = ""
    mc_samples: int = 1_000_000
    workers: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        parse_metric(self.metric)  # validate the name eagerly
        n_list = tuple(int(n) for n in self.n_list)
        object.__setattr__(self, "n_list", n_list)
        if len(n_list) < 1 or any(n < 20 for n in n_list):
            raise ValueError("n_list must hold sample sizes >= 20")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if not 1 <= self.seeds <= 10_000:
            raise ValueError("seeds must lie in [1, 10000]")
        if isinstance(self.tolerance, str):
            if self.tolerance != "logn-over-n":
                raise ValueError("tolerance must be 'logn-over-n' or a float")
        elif not 0.0 < float(self.tolerance) < 1.0:
            raise ValueError("fixed tolerance must lie in (0, 1)")
        if not self.eval_mode:
            closed = isinstance(self.model, HolderModel) or self.estimator.kind != "kernel"
            object.__setattr__(self, "eval_mode", "closed-form" if closed else "monte-carlo")
        if self.eval_mode not in ("closed-form", "monte-carlo"):
            raise ValueError("eval_mode must be 'closed-form' or 'monte-carlo'")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")

    def search_config(self) -> ThresholdSearchConfig:
        if isinstance(self.tolerance, str):
            return ThresholdSearchConfig()
        return ThresholdSearchConfig(tolerance=float(self.tolerance))

    def to_dict(self) -> dict:
        est = {
            "kind": self.estimator.kind,
            "kernel_beta": self.estimator.kernel_beta,
            "bandwidth_const": self.estimator.bandwidth_const,
        }
        if self.estimator.kind == "constant":
            est["p"] = self.estimator.p
        payload = {
            "model": self.model.to_dict(),
            "metric": self.metric,
            "estimator": est,
            "n_list": list(self.n_list),
            "seeds": self.seeds,
            "tolerance": self.tolerance,
            "eval_mode": self.eval_mode,
            "workers": self.workers,
        }
        if self.eval_mode == "monte-carlo":
            # exact evaluation makes no draw, so it records no draw count
            payload["mc_samples"] = self.mc_samples
        return payload

    @classmethod
    def from_file(cls, path: str) -> "ExperimentConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_mapping(parse_config_text(fh.read()))

    @classmethod
    def from_mapping(cls, raw: dict[str, str]) -> "ExperimentConfig":
        known = {
            "model", "mu", "kappa", "eta", "metric", "estimator",
            "kernel_beta", "kernel_const", "n_list", "seeds", "tolerance",
            "eval", "mc_samples", "workers", "out",
        }
        unknown = set(raw) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"model", "metric", "estimator", "n_list", "seeds"} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        model = model_from_config(raw)
        estimator = estimator_from_config(raw)
        tolerance: str | float = raw.get("tolerance", "logn-over-n").strip()
        if tolerance != "logn-over-n":
            tolerance = float(tolerance)
        return cls(
            model=model,
            metric=raw["metric"].strip(),
            estimator=estimator,
            n_list=tuple(_whole("n_list", v) for v in raw["n_list"].split(",")),
            seeds=_whole("seeds", raw["seeds"]),
            tolerance=tolerance,
            eval_mode=raw.get("eval", "").strip(),
            mc_samples=_whole("mc_samples", raw.get("mc_samples", 1_000_000)),
            workers=_whole("workers", raw.get("workers", 1)),
            out=raw.get("out"),
        )


def _whole(key: str, text) -> int:
    """One integer config value; ``1e6`` is allowed, a fraction or a non-finite
    value is not."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not value.is_integer():
        raise ValueError(f"config key {key!r} must be a whole number, got {str(text).strip()!r}")
    return int(value)


def model_from_config(raw: dict[str, str]) -> GaussianModel | HolderModel:
    """The model named by the keys ``model``, ``mu``, ``kappa`` and ``eta``.

    This and :func:`estimator_from_config` are the one parser of models and
    estimators: config files and the CLI flags of the same names use them.
    """
    if "model" not in raw:
        raise ValueError("no model given (config key 'model', flag --model)")
    payload: dict = {"model": raw["model"].strip().lower(),
                     "eta_tag": raw.get("eta", "sine").strip()}
    if "mu" in raw:
        payload["mu"] = [float(v) for v in raw["mu"].split(",")]
    if "kappa" in raw:
        payload["kappa"] = float(raw["kappa"])
    return model_from_dict(payload)


def estimator_from_config(raw: dict[str, str]) -> EstimatorSpec:
    """The estimator named by the key ``estimator``: ``logistic``, ``kernel``
    (with ``kernel_beta`` and ``kernel_const``, both 1 by default),
    ``true-eta`` (of the model the same keys name) or ``constant:<p>``."""
    name = raw["estimator"].strip().lower()
    if name.startswith("constant:"):
        return EstimatorSpec("constant", p=float(name.split(":", 1)[1]))
    if name == "true-eta":
        return EstimatorSpec("true-eta", model=model_from_config(raw))
    if name in ("logistic", "kernel"):
        return EstimatorSpec(name, kernel_beta=float(raw.get("kernel_beta", 1.0)),
                             bandwidth_const=float(raw.get("kernel_const", 1.0)))
    raise ValueError(f"unknown estimator {raw['estimator']!r}")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        if not sep or not key.strip() or not value.strip():
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
        out[key.strip().lower()] = value.strip()
    return out


@dataclass(frozen=True)
class RateRow:
    """One (n, seed) outcome; failed rows carry an error code and NaNs."""

    n: int
    seed: int
    regret: float
    delta_hat: float
    delta_star: float
    wall_time: float
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class RateTable:
    """Ordered experiment rows plus the config that produced them."""

    rows: list[RateRow]
    config: ExperimentConfig | None = None

    def aggregates(self) -> list[dict]:
        """Per-n medians and quartiles over the successful rows."""
        out = []
        for n in sorted({row.n for row in self.rows}):
            group = [row for row in self.rows if row.n == n]
            good = np.array([row.regret for row in group if row.ok])
            entry: dict = {
                "n": n,
                "rows": len(group),
                "failures": sum(not row.ok for row in group),
                "median_wall_time": float(np.median([row.wall_time for row in group])),
            }
            if good.size:
                entry["median_regret"] = float(np.median(good))
                entry["q25_regret"] = float(np.quantile(good, 0.25))
                entry["q75_regret"] = float(np.quantile(good, 0.75))
            out.append(entry)
        return out

    def csv_text(self) -> str:
        """Stable CSV image of the rows (wall time intentionally excluded)."""
        lines = [",".join(CSV_COLUMNS)]
        for row in self.rows:
            lines.append(
                f"{row.n},{row.seed},{row.regret!r},{row.delta_hat!r},"
                f"{row.delta_star!r},{row.error or ''}"
            )
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.csv_text())

    def summary(self) -> dict:
        """JSON-ready summary: aggregates, slope fit, wall time, failures."""
        payload: dict = {"schema": 1, "aggregates": self.aggregates()}
        if self.config is not None:
            payload["config"] = self.config.to_dict()
        try:
            slope, intercept, r2 = fit_loglog_slope(self)
            payload["slope"] = {"slope": slope, "intercept": intercept, "r2": r2}
        except (InsufficientPointsError, KarmicError) as exc:
            payload["slope"] = {"error": getattr(exc, "code", "error"), "message": str(exc)}
        payload["total_wall_time"] = float(sum(row.wall_time for row in self.rows))
        payload["failures"] = sum(not row.ok for row in self.rows)
        return payload

    def write_summary(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def eval_seed_for(n: int, seed: int) -> int:
    """Evaluation seed for a row, disjoint from all data/split seeds."""
    return _EVAL_SEED_BASE + _EVAL_SEED_STRIDE * int(n) + int(seed)


def _solve_optimum(cfg: ExperimentConfig) -> tuple[float, float] | Exception:
    """The run's ``(delta_star, u_star)``, or the error that prevented it."""
    try:
        return population_optimum(parse_metric(cfg.metric), cfg.model)
    except (KarmicError, ValueError) as exc:
        return exc


def _run_row(cfg: ExperimentConfig, optimum, n: int, seed: int) -> RateRow:
    """One row.  A sampling or training error wins over a failed optimum,
    which wins over an evaluation error."""
    start = time.perf_counter()
    metric = parse_metric(cfg.metric)
    try:
        data = cfg.model.sample(n, seed)
        clf = train_plugin(metric, data, cfg.estimator, cfg.search_config(), seed=seed)
        if not isinstance(optimum, Exception):
            delta_star, u_star = optimum
            u_hat, _ = classifier_utility(metric, clf, cfg.model, cfg.eval_mode,
                                          cfg.mc_samples, eval_seed_for(n, seed))
            return RateRow(n, seed, u_star - u_hat, clf.delta, delta_star,
                           time.perf_counter() - start)
        failure = optimum
    except (KarmicError, ValueError) as exc:
        failure = exc
    return RateRow(n, seed, math.nan, math.nan, math.nan, time.perf_counter() - start,
                   error=getattr(failure, "code", "invalid-value"))


def run_rate_experiment(cfg: ExperimentConfig) -> RateTable:
    """Run every (n, seed) row; errors are recorded, not raised.

    Row order is (n ascending, seed ascending) regardless of the worker
    pool, and all randomness is derived per row, so the table is a pure
    function of the config.  The population optimum is solved once, here,
    and shared by every row.
    """
    tasks = [(n, seed) for n in cfg.n_list for seed in range(cfg.seeds)]
    optimum = _solve_optimum(cfg)
    if cfg.workers > 1 and len(tasks) > 1:
        chunk = max(1, len(tasks) // (4 * cfg.workers))
        with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            rows = list(
                pool.map(
                    _run_row,
                    repeat(cfg),
                    repeat(optimum),
                    [t[0] for t in tasks],
                    [t[1] for t in tasks],
                    chunksize=chunk,
                )
            )
    else:
        rows = [_run_row(cfg, optimum, n, seed) for n, seed in tasks]
    return RateTable(rows, cfg)


def fit_loglog_slope(table: RateTable) -> tuple[float, float, float]:
    """OLS fit of log(median regret) on log(n); returns (slope, intercept, r2).

    Sample sizes whose median regret is <= 1e-12 cannot enter a log fit;
    they are dropped with a warning.  Needs >= 3 usable sample sizes.
    """
    points = []
    excluded = []
    for entry in table.aggregates():
        median = entry.get("median_regret")
        if median is None or not math.isfinite(median) or median <= 1e-12:
            excluded.append(entry["n"])
            continue
        points.append((math.log(entry["n"]), math.log(median)))
    if excluded:
        logger.warning("slope fit excluded n=%s (median regret <= 1e-12 or undefined)",
                       excluded)
    if len(points) < 3:
        raise InsufficientPointsError(
            f"slope fit needs >= 3 usable sample sizes, got {len(points)}"
        )
    x = np.array([p[0] for p in points])
    y = np.array([p[1] for p in points])
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    total = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if total == 0.0 else 1.0 - float((residuals**2).sum()) / total
    return float(slope), float(intercept), float(r2)
