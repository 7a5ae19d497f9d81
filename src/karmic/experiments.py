"""Convergence-rate experiment harness: regret vs sample size, with slopes.

A run is a grid of (n, seed) rows.  The population optimum depends only on
the metric and the model, so it is solved once per run; each row then
trains the plug-in classifier on the first n rows of its seed's sample,
and evaluates its population regret against that optimum.  Rows run seed by
seed in the calling process.  Aggregation reports the per-n median regret
and interquartile range, and the headline statistic is the least-squares
slope of log(median regret) against log(n).

Outputs: a CSV of rows (stable column set, floats via repr so identical
runs are byte-identical) and a JSON summary (schema 1) carrying aggregates,
the slope fit, and wall-time totals, at a prefix the caller names.  Config
files are plain ``key = value`` text; see ``ExperimentConfig.from_file``.
"""

from __future__ import annotations

import json
import logging
import math
import time
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .confusion import Dataset
from .errors import InsufficientPointsError, KarmicError
from .metrics import parse_metric
from .pipeline import (_ESTIMATOR_KINDS, EstimatorSpec, classifier_utility, population_optimum,
                       train_plugin)
from .synth import GaussianModel, HolderModel
from .thresholds import ThresholdSearchConfig

__all__ = [
    "ExperimentConfig",
    "RateRow",
    "RateTable",
    "run_rate_experiment",
    "fit_loglog_slope",
]

logger = logging.getLogger(__name__)

_EVAL_SEED_BASE = 1 << 40
_EVAL_SEED_STRIDE = 10007
CSV_COLUMNS = ("n", "seed", "regret", "delta_hat", "delta_star", "error")
#: the model keys each model reads; the holder's ``eta`` is optional
_MODEL_KEYS = {"gaussian": ("mu", "kappa"), "holder": ("eta",)}
#: the keys that name a model and an estimator, in the order the CLI checks
#: them; it takes each as a flag of the same name
_MODEL_FLAG_KEYS = ("model", *chain.from_iterable(_MODEL_KEYS.values()))
_FLAG_KEYS = (*_MODEL_FLAG_KEYS, "estimator", "kernel_beta", "kernel_const")
CONFIG_KEYS = frozenset({*_FLAG_KEYS, "metric", "n_list", "seeds", "tolerance", "mc_samples"})


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of a rate experiment.

    ``tolerance`` is a fixed float, or None for the per-search default
    max(log n2 / n2, 1e-8) on the threshold half (config text
    ``logn-over-n``).  ``n_list``, ``seeds`` and ``mc_samples`` are whole
    numbers or their text.  ``eval_mode`` follows from the model and estimator.
    """

    model: GaussianModel | HolderModel
    metric: str
    estimator: EstimatorSpec
    # __post_init__ stores these three as int
    n_list: tuple[int | str, ...]
    seeds: int | str
    tolerance: float | None = None
    mc_samples: int | str = 1_000_000

    def __post_init__(self) -> None:
        parse_metric(self.metric)  # validate the name eagerly
        self.search_config()  # and the tolerance
        n_list = tuple(_whole("n_list", n) for n in self.n_list)
        object.__setattr__(self, "n_list", n_list)
        object.__setattr__(self, "seeds", _whole("seeds", self.seeds))
        object.__setattr__(self, "mc_samples", _whole("mc_samples", self.mc_samples))
        if len(n_list) < 1 or any(n < 20 for n in n_list):
            raise ValueError("n_list must hold sample sizes >= 20")
        if any(b <= a for a, b in zip(n_list, n_list[1:])):
            raise ValueError("n_list must be strictly increasing")
        if not 1 <= self.seeds <= 10_000:
            raise ValueError("seeds must lie in [1, 10000]")
        if self.mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        if self.estimator.kind == "kernel" and self.model.dim != 1:
            raise ValueError(f"{_named('estimator')} is kernel, which takes 1-d data, but "
                             f"{_named('mu')} has {self.model.dim} entries")

    @property
    def eval_mode(self) -> str:
        """Closed form (exact) wherever the model can integrate the rule: all
        but a kernel on the 1-d Gaussian model, which takes Monte Carlo."""
        exact = isinstance(self.model, HolderModel) or self.estimator.kind != "kernel"
        return "closed-form" if exact else "monte-carlo"

    def search_config(self) -> ThresholdSearchConfig:
        return ThresholdSearchConfig(self.tolerance)

    def to_dict(self) -> dict:
        est: dict = {"kind": self.estimator.kind}
        if self.estimator.kind == "kernel":
            est["kernel_beta"] = self.estimator.kernel_beta
            est["bandwidth_const"] = self.estimator.bandwidth_const
        elif self.estimator.kind == "constant":
            est["p"] = self.estimator.p
        payload = {
            "model": self.model.to_dict(),
            "metric": self.metric,
            "estimator": est,
            "n_list": list(self.n_list),
            "seeds": self.seeds,
            "tolerance": "logn-over-n" if self.tolerance is None else self.tolerance,
            "eval_mode": self.eval_mode,
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
        unknown = set(raw) - CONFIG_KEYS
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        missing = {"model", "metric", "estimator", "n_list", "seeds"} - set(raw)
        if missing:
            raise ValueError(f"missing config keys: {sorted(missing)}")
        tolerance = raw.get("tolerance", "logn-over-n").strip()
        config = cls(
            model=model_from_config(raw),
            metric=raw["metric"].strip(),
            estimator=estimator_from_config(raw),
            n_list=tuple(raw["n_list"].split(",")),
            seeds=raw["seeds"],
            tolerance=None if tolerance == "logn-over-n" else _number("tolerance", tolerance),
            mc_samples=raw.get("mc_samples", 1_000_000),
        )
        if "mc_samples" in raw and config.eval_mode != "monte-carlo":
            # exact evaluation makes no draw: the key would be ignored
            raise ValueError(f"{_named('mc_samples')} does not apply to a study evaluated "
                             f"in {config.eval_mode} mode")
        return config


def _named(key: str) -> str:
    """A config key as a refusal names it, with its flag where it has one."""
    flag = f" (flag --{key.replace('_', '-')})" if key in _FLAG_KEYS else ""
    return f"config key {key!r}{flag}"


def _whole(key: str, text) -> int:
    """One integer setting, a number or its text; ``1e6`` is allowed, a
    fraction or a non-finite value is not."""
    try:
        value = float(text)
    except (TypeError, ValueError):
        value = math.nan
    if not value.is_integer():
        raise ValueError(f"{_named(key)} must be a whole number, got {str(text).strip()!r}")
    return int(value)


def _number(key: str, text) -> float:
    """One float config value; a value that is not a number names its key
    (and its flag)."""
    try:
        return float(text)
    except ValueError:
        pass
    raise ValueError(f"{_named(key)} must be a number, got {str(text).strip()!r}")


def model_from_config(raw: dict[str, str]) -> GaussianModel | HolderModel:
    """The model named by the keys ``model``, ``mu``, ``kappa`` and ``eta``.

    This and :func:`estimator_from_config` are the only parser of models and
    estimators, for config files and the CLI flags of the same names alike.
    A key of the other model is refused, not ignored.
    """
    if "model" not in raw:
        raise ValueError("no model given (config key 'model', flag --model)")
    tag = raw["model"].strip().lower()
    if tag not in _MODEL_KEYS:
        raise ValueError(f"unknown model {tag!r}; use 'gaussian' or 'holder'")
    for key in chain.from_iterable(_MODEL_KEYS.values()):
        if key in raw and key not in _MODEL_KEYS[tag]:
            raise ValueError(f"{_named(key)} does not apply to the {tag} model")
    if tag == "holder":
        return HolderModel(raw.get("eta", "sine").strip().lower())
    for key in _MODEL_KEYS[tag]:
        if key not in raw:
            raise ValueError(f"the gaussian model needs {_named(key)}")
    return GaussianModel([_number("mu", v) for v in raw["mu"].split(",")],
                         _number("kappa", raw["kappa"]))


def estimator_from_config(raw: dict[str, str]) -> EstimatorSpec:
    """The estimator named by the key ``estimator``: ``logistic``, ``kernel``
    (with ``kernel_beta`` and ``kernel_const``, both 1 by default),
    ``true-eta`` (of the model the same keys name) or ``constant:<p>``.
    A kernel key given to another estimator is refused, not ignored."""
    name = raw["estimator"].strip().lower()
    kind = "constant" if name.startswith("constant:") else name
    if kind not in _ESTIMATOR_KINDS:
        raise ValueError(f"unknown estimator {raw['estimator']!r}")
    for key in ("kernel_beta", "kernel_const"):
        if key in raw and kind != "kernel":
            raise ValueError(f"{_named(key)} does not apply to the {kind} estimator")
    if kind == "constant":
        return EstimatorSpec("constant", p=_number("estimator", raw["estimator"].split(":", 1)[1]))
    if kind == "true-eta":
        return EstimatorSpec("true-eta", model=model_from_config(raw))
    if kind == "logistic":
        return EstimatorSpec("logistic")
    return EstimatorSpec("kernel", kernel_beta=_number("kernel_beta", raw.get("kernel_beta", 1.0)),
                         bandwidth_const=_number("kernel_const", raw.get("kernel_const", 1.0)))


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks ignored."""
    out: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        key, sep, value = body.partition("=")
        key = key.strip().lower()
        if not sep or not key or not value.strip():
            raise ValueError(f"config line {lineno} is not 'key = value': {line!r}")
        if key in lines:
            raise ValueError(f"config key {key!r} is set on lines {lines[key]} and {lineno}")
        lines[key] = lineno
        out[key] = value.strip()
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
            lines.append(f"{row.n},{row.seed},{row.regret!r},{row.delta_hat!r},"
                         f"{row.delta_star!r},{row.error or ''}")
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
        except KarmicError as exc:
            payload["slope"] = {"error": getattr(exc, "code", "error"), "message": str(exc)}
        payload["total_wall_time"] = float(sum(row.wall_time for row in self.rows))
        payload["failures"] = sum(not row.ok for row in self.rows)
        return payload

    def write_summary(self, path: str) -> dict:
        summary = self.summary()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return summary


def eval_seed_for(n: int, seed: int) -> int:
    """Evaluation seed for a row, disjoint from all data/split seeds."""
    return _EVAL_SEED_BASE + _EVAL_SEED_STRIDE * int(n) + int(seed)


def _solve_optimum(cfg: ExperimentConfig) -> tuple[float, float] | Exception:
    """The run's ``(delta_star, u_star)``, or the error that prevented it."""
    try:
        return population_optimum(parse_metric(cfg.metric), cfg.model)
    except (KarmicError, ValueError) as exc:
        return exc


def _run_row(cfg: ExperimentConfig, optimum, n: int, seed: int, drawn: list) -> RateRow:
    """One row; a seed's first row draws its sample into ``drawn``.  A sampling
    or training error wins over a failed optimum, then an evaluation error."""
    start = time.perf_counter()
    metric = parse_metric(cfg.metric)
    try:
        if not drawn:
            drawn.append(cfg.model.sample(cfg.n_list[-1], seed))
        data = Dataset(drawn[0].features[:n], drawn[0].labels[:n])
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

    Rows run in the calling process, seed by seed: a seed's first row draws
    its sample at the largest n (its wall time counts the draw), and each row
    takes the first n rows, which are ``model.sample(n, seed)``.  The table
    lists n ascending, then seed, and is a pure function of the config.  The
    population optimum is solved once, here, and shared by every row.
    """
    optimum = _solve_optimum(cfg)
    by_seed = [[_run_row(cfg, optimum, n, seed, drawn) for n in cfg.n_list]
               for seed in range(cfg.seeds) for drawn in [[]]]
    return RateTable([row for per_n in zip(*by_seed) for row in per_n], cfg)


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
    x, y = (np.array(column) for column in zip(*points))
    slope, intercept = np.polyfit(x, y, 1)
    residuals = y - (slope * x + intercept)
    total = float(((y - y.mean()) ** 2).sum())
    r2 = 1.0 if total == 0.0 else 1.0 - float((residuals**2).sum()) / total
    return float(slope), float(intercept), float(r2)
