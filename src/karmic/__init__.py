"""Threshold classifiers for non-decomposable confusion-matrix utilities.

The package trains binary classifiers of the form ``predict +1 iff
score(x) > delta`` where the score estimates P(Y=+1|x) and the threshold
maximizes a utility of the population confusion matrix (F-beta, G-mean,
balanced accuracy, ...).  The threshold is found by bisection on the sign
of the utility's ascent functional, and synthetic models with closed-form
optima support exact regret experiments.

Each library module's ``__all__`` is the part of the package API it defines.
"""

from . import confusion, errors, experiments, metrics, pipeline, scorers, synth, thresholds
from .confusion import *  # noqa: F403
from .errors import *  # noqa: F403
from .experiments import *  # noqa: F403
from .metrics import *  # noqa: F403
from .pipeline import *  # noqa: F403
from .scorers import *  # noqa: F403
from .synth import *  # noqa: F403
from .thresholds import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (confusion, errors, metrics, thresholds, scorers, synth, pipeline, experiments)
    for name in module.__all__
]
