"""Threshold classifiers for non-decomposable confusion-matrix utilities.

The package trains binary classifiers of the form ``predict +1 iff
score(x) > delta`` where the score estimates P(Y=+1|x) and the threshold
maximizes a utility of the population confusion matrix (F-beta, G-mean,
balanced accuracy, ...).  The threshold is found by bisection on the sign
of the utility's ascent functional, and synthetic models with closed-form
optima support exact regret experiments.
"""

from .confusion import Dataset, ScoreProfile
from .errors import (
    DegenerateDesignError,
    DegenerateDistributionError,
    DimensionMismatchError,
    EmptyDataError,
    InsufficientPointsError,
    KarmicError,
    MetricDomainError,
    ModeUnsupportedError,
    NonKarmicPointError,
    NoSignChangeError,
    SeparableDataError,
    SplitDegenerateError,
    TooManyAtomsError,
)
from .experiments import (
    ExperimentConfig,
    RateRow,
    RateTable,
    fit_loglog_slope,
    run_rate_experiment,
)
from .metrics import (
    LinearFractional,
    MetricSpec,
    SmoothClosedForm,
    karmic_parts,
    metric_gradient,
    metric_value,
    parse_metric,
    registered_metrics,
)
from .pipeline import (
    EstimatorSpec,
    PluginClassifier,
    RegretReport,
    classifier_utility,
    population_optimum,
    population_regret,
    train_plugin,
)
from .scorers import (
    ConstantScorer,
    KernelScorer,
    LogisticFitReport,
    LogisticScorer,
    Scorer,
    TrueEtaScorer,
    fit_kernel_smoother,
    fit_logistic_mle,
    scorer_from_dict,
    scorer_to_dict,
)
from .synth import (
    GaussianModel,
    HolderModel,
    sample_gaussian,
    sample_holder,
)
from .thresholds import (
    ThresholdResult,
    ThresholdSearchConfig,
    binary_search_threshold,
    brute_force_discrete,
    fixed_point_threshold,
    grid_search_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Dataset",
    "ScoreProfile",
    "KarmicError",
    "EmptyDataError",
    "MetricDomainError",
    "NonKarmicPointError",
    "DegenerateDistributionError",
    "NoSignChangeError",
    "TooManyAtomsError",
    "SeparableDataError",
    "DegenerateDesignError",
    "DimensionMismatchError",
    "SplitDegenerateError",
    "ModeUnsupportedError",
    "InsufficientPointsError",
    "MetricSpec",
    "LinearFractional",
    "SmoothClosedForm",
    "metric_value",
    "metric_gradient",
    "karmic_parts",
    "registered_metrics",
    "parse_metric",
    "ThresholdSearchConfig",
    "ThresholdResult",
    "binary_search_threshold",
    "fixed_point_threshold",
    "grid_search_threshold",
    "brute_force_discrete",
    "Scorer",
    "ConstantScorer",
    "TrueEtaScorer",
    "LogisticScorer",
    "KernelScorer",
    "LogisticFitReport",
    "fit_logistic_mle",
    "fit_kernel_smoother",
    "scorer_to_dict",
    "scorer_from_dict",
    "GaussianModel",
    "HolderModel",
    "sample_gaussian",
    "sample_holder",
    "EstimatorSpec",
    "PluginClassifier",
    "RegretReport",
    "train_plugin",
    "population_optimum",
    "classifier_utility",
    "population_regret",
    "ExperimentConfig",
    "RateRow",
    "RateTable",
    "run_rate_experiment",
    "fit_loglog_slope",
]
