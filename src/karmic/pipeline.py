"""Two-stage plug-in classifier and its population-regret evaluation.

The training recipe: split the sample into two halves with a seeded
permutation, fit a conditional-probability scorer on the first half, and
pick the decision threshold on the second half by bisection on the
utility's ascent sign.  The result predicts +1 iff score(x) > delta.

Regret evaluation compares the classifier's population utility
(``classifier_utility``) against the population optimum
(``population_optimum``: the exact fixed point of the population curve,
which depends only on the metric and the model, and is refused where the
metric is not Karmic).  Both read the model's one exact evaluator,
``model.classifier_confusion``: a half-space mass for affine scorers on
the Gaussian model and an integral of eta over the acceptance intervals of
any 1-d scorer on the Holder model.  The Bayes rule thresholds eta itself,
so a model is the scorer of its own Bayes rule: the population curve
(``population_confusion_of_model``) is the model evaluated at itself, and
the "true-eta" estimator returns the model.  In "closed-form" mode the
classifier's utility is exact too.  That covers every committed study.
The one rule it cannot integrate, a kernel scorer (which is 1-d) on the 1-d
Gaussian model, needs "monte-carlo" mode: an average over sampled feature
points with labels integrated out analytically (each point contributes its
exact conditional probability, not a sampled label, which strictly reduces
variance).
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass

import numpy as np

from .confusion import Dataset
from .errors import ModeUnsupportedError, NonKarmicPointError, SplitDegenerateError
from .metrics import MetricSpec, karmic_parts, metric_value
from .scorers import (
    ConstantScorer,
    fit_kernel_smoother,
    fit_logistic_mle,
    scorer_from_dict,
    scorer_to_dict,
)
from .synth import (GaussianModel, HolderModel, Scorer, number_field, require_fields,
                    unit_thresholds)
from .thresholds import ThresholdSearchConfig, binary_search_threshold, fixed_point_threshold

__all__ = [
    "EstimatorSpec",
    "PluginClassifier",
    "RegretReport",
    "train_plugin",
    "population_optimum",
    "classifier_utility",
    "population_regret",
]

_SPLIT_TAG = 0x53504C54  # distinguishes split-permutation streams from sampling streams
_EVAL_TAG = 0x4D434556  # distinguishes Monte Carlo evaluation streams
_SPLIT_RETRIES = 10
_MC_SHARD = 1 << 20
_FIXED_POINT_TOL = 1e-10
#: the estimator kinds, as ``EstimatorSpec`` and the config parser take them
_ESTIMATOR_KINDS = ("logistic", "kernel", "true-eta", "constant")


@dataclass(frozen=True)
class EstimatorSpec:
    """Recipe for fitting a scorer on the estimation half.

    kinds: "logistic" (Newton MLE), "kernel" (needs ``kernel_beta`` and
    ``bandwidth_const``; fits 1-d data alone), "true-eta" (needs
    ``model``, which is its own scorer), "constant" (needs ``p``;
    diagnostic use).
    """

    kind: str
    kernel_beta: float = 1.0
    bandwidth_const: float = 1.0
    model: GaussianModel | HolderModel | None = None
    p: float = 0.5

    def __post_init__(self) -> None:
        if self.kind not in _ESTIMATOR_KINDS:
            raise ValueError(f"unknown estimator kind {self.kind!r}")
        for name, value in (("kernel_beta", self.kernel_beta),
                            ("bandwidth_const (config key kernel_const)", self.bandwidth_const)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value!r}")
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"constant score p must lie in [0, 1], got {self.p!r}")
        if self.kind == "true-eta" and self.model is None:
            raise ValueError("true-eta estimator needs the generating model")

    def build(self, data: Dataset) -> Scorer:
        if self.kind == "logistic":
            scorer, _ = fit_logistic_mle(data)
            return scorer
        if self.kind == "kernel":
            return fit_kernel_smoother(data, self.kernel_beta, self.bandwidth_const)
        if self.kind == "true-eta":
            return self.model
        return ConstantScorer(self.p)


class PluginClassifier:
    """A scorer plus a threshold; predicts +1 iff score(x) > delta.  ``to_dict``
    is the whole classifier, a kernel scorer's training sample included."""

    def __init__(self, scorer: Scorer, delta: float, provenance: dict | None = None) -> None:
        self.scorer = scorer
        self.delta = float(unit_thresholds(delta))
        self.provenance = dict(provenance or {})

    def predict(self, X) -> np.ndarray:
        return np.where(self.scorer.scores(X) > self.delta, 1, -1)

    def to_dict(self) -> dict:
        return {
            "scorer": scorer_to_dict(self.scorer),
            "delta": self.delta,
            "provenance": self.provenance,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PluginClassifier":
        payload = require_fields(payload, "classifier", ("scorer", "delta"))
        provenance = payload.get("provenance")
        if provenance is not None and not isinstance(provenance, dict):
            raise ValueError(f"field 'provenance' must be a JSON object, got {provenance!r}")
        return cls(scorer_from_dict(payload["scorer"]), number_field(payload, "delta"),
                   provenance)


def train_plugin(
    metric: MetricSpec,
    data: Dataset,
    estimator: EstimatorSpec,
    config: ThresholdSearchConfig | None = None,
    seed: int = 0,
) -> PluginClassifier:
    """Split / fit / threshold, deterministically in (data, seed).

    The split is a seeded permutation giving the scorer half floor(n/2)
    points and the threshold half the rest.  A half missing one of the two
    labels triggers a fresh permutation, up to 10 attempts.

    Only the halves outlive the split.  A sample passed inline, as in
    ``train_plugin(metric, load(path), ...)``, is freed once they exist, so
    the fit and the search run beside one copy of it; a caller that keeps
    the sample keeps it unchanged.
    """
    features, labels = data.features, data.labels
    del data
    n = labels.size
    if n < 20:
        raise SplitDegenerateError(f"need at least 20 samples to split, got {n}")
    # the k-th spawn(1) is the k-th child of spawn(_SPLIT_RETRIES), so spawning
    # one at a time keeps every split and skips the children a row never uses
    streams = np.random.SeedSequence([int(seed), _SPLIT_TAG])
    n1 = n // 2
    for attempt in range(1, _SPLIT_RETRIES + 1):
        perm = np.random.default_rng(streams.spawn(1)[0]).permutation(n)
        # the labels alone decide whether a split is kept
        fit_labels, threshold_labels = labels.take(perm[:n1]), labels.take(perm[n1:])
        if all((half == 1).any() and (half == -1).any()
               for half in (fit_labels, threshold_labels)):
            break
    else:
        raise SplitDegenerateError(
            f"one label missing from a half in all {_SPLIT_RETRIES} split attempts"
        )
    del labels
    fit_half = Dataset(features.take(perm[:n1], axis=0), fit_labels)
    threshold_half = Dataset(features.take(perm[n1:], axis=0), threshold_labels)
    # only the halves are kept; a kernel scorer keeps the fit half's arrays
    del features, perm, fit_labels, threshold_labels
    config = config or ThresholdSearchConfig()
    scorer = estimator.build(fit_half)
    del fit_half
    result = binary_search_threshold(metric, scorer, threshold_half, config)
    provenance = {
        "metric": metric.name,
        "n1": n1,
        "n2": threshold_half.n,
        "seed": int(seed),
        "split_attempts": attempt,
        "search": {
            "iterations": result.iterations,
            "tolerance": config.resolve_tolerance(threshold_half.n),
            "final_h": result.h_trace[-1][1] if result.h_trace else None,
        },
    }
    return PluginClassifier(scorer, result.delta_hat, provenance)


def population_confusion_of_model(model: GaussianModel | HolderModel):
    """The population curve: threshold(s) -> exact confusion of thresholding
    eta itself, ``model.classifier_confusion`` of the model as its own scorer."""
    return functools.partial(model.classifier_confusion, model)


@dataclass(frozen=True)
class RegretReport:
    """Population utilities of the optimum and of a trained classifier."""

    u_star: float
    u_hat: float
    regret: float
    delta_star: float
    delta_hat: float
    mode: dict

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


def _monte_carlo_confusion(
    model: GaussianModel | HolderModel,
    clf: PluginClassifier,
    m: int,
    seed: int,
) -> np.ndarray:
    """Average exact conditional confusion over m sampled feature points.

    Drawn in shards of at most ``_MC_SHARD`` points, so memory stays bounded
    whatever m is; each shard has its own substream derived from
    ``(seed, _EVAL_TAG)``, so the result depends only on (m, seed).
    """
    shards = math.ceil(m / _MC_SHARD)
    children = np.random.SeedSequence([int(seed), _EVAL_TAG]).spawn(shards)
    sums = np.zeros(4)
    remaining = m
    for child in children:
        k = min(_MC_SHARD, remaining)
        remaining -= k
        X = model.draw_features(np.random.default_rng(child), k)
        eta = model.eta(X)
        pred = clf.scorer.scores(X) > clf.delta
        sums += [eta[pred].sum(), (1.0 - eta[pred]).sum(),
                 eta[~pred].sum(), (1.0 - eta[~pred]).sum()]
    return sums / m


def population_optimum(
    metric: MetricSpec, model: GaussianModel | HolderModel
) -> tuple[float, float]:
    """``(delta_star, u_star)``: the fixed point of the population curve
    and the population utility there.

    Raises :class:`NonKarmicPointError` where the Karmic sensitivity at that
    confusion is not positive: the root of H is then a minimum, not the
    optimum.
    """
    curve = population_confusion_of_model(model)
    delta_star = fixed_point_threshold(metric, curve, _FIXED_POINT_TOL)
    confusion = curve(delta_star)
    u_star = metric_value(metric, confusion)
    _, sensitivity, _ = karmic_parts(metric, confusion)
    if not sensitivity > 0.0:
        raise NonKarmicPointError(
            f"{metric.name}: karmic sensitivity {float(sensitivity):.3g} is not positive "
            f"at the root delta={float(delta_star):.6g} of H"
        )
    return float(delta_star), u_star


def classifier_utility(
    metric: MetricSpec,
    clf: PluginClassifier,
    model: GaussianModel | HolderModel,
    mode: str,
    mc_samples: int,
    mc_seed: int,
) -> tuple[float, dict]:
    """Population utility of ``clf`` and the mode record of its report.

    ``mode`` is "closed-form" (exact: affine scorers on the Gaussian model,
    1-d scorers on the Holder model) or "monte-carlo" (``mc_samples`` draws
    from the stream of ``mc_seed``).
    """
    if mode == "closed-form":
        confusion = model.classifier_confusion(clf.scorer, clf.delta)
        return metric_value(metric, confusion), {"mode": "closed-form"}
    if mode == "monte-carlo":
        if mc_samples < 1:
            raise ValueError("mc_samples must be >= 1")
        confusion = _monte_carlo_confusion(model, clf, int(mc_samples), int(mc_seed))
        return metric_value(metric, confusion), {
            "mode": "monte-carlo", "m": int(mc_samples), "seed": int(mc_seed)
        }
    raise ModeUnsupportedError(f"unknown evaluation mode {mode!r}")


def population_regret(
    metric: MetricSpec,
    clf: PluginClassifier,
    model: GaussianModel | HolderModel,
    mode: str = "closed-form",
    mc_samples: int = 1_000_000,
    mc_seed: int = 0,
) -> RegretReport:
    """Utility gap between the population optimum and a classifier.

    The optimum's threshold comes from the fixed point of the model's exact
    confusion curve, so ``regret >= -1e-9`` in closed-form mode (the
    default); Monte Carlo estimates can go negative within sampling noise.
    """
    delta_star, u_star = population_optimum(metric, model)
    u_hat, mode_info = classifier_utility(metric, clf, model, mode, mc_samples, mc_seed)
    return RegretReport(
        u_star=u_star,
        u_hat=u_hat,
        regret=u_star - u_hat,
        delta_star=delta_star,
        delta_hat=clf.delta,
        mode=mode_info,
    )
