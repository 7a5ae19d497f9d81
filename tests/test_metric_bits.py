"""Golden bits of every metric's values, domain masks and gradients.

``tests/data/metric_bits.npz`` holds a fixed set of confusion rows and what
``metric_values_masked`` / ``metric_gradients_masked`` returned on them at a
commit known to be right.  A refactor of ``karmic.metrics`` must reproduce
them bit for bit: values (NaN included) and masks on every row, gradients on
the valid rows.  Regenerate only from a commit known to be right:

    PYTHONPATH=src python tests/test_metric_bits.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from karmic import parse_metric, registered_metrics
from karmic.metrics import DOMAIN_EPS, metric_gradients_masked, metric_values_masked

GOLDEN = Path(__file__).parent / "data" / "metric_bits.npz"

# the registered eight, two more betas, and two ratios that are not Karmic on
# the reference Gaussian model
NAMES = tuple(spec.name for spec in registered_metrics()) + (
    "fbeta:0.5",
    "fbeta:2",
    "linfrac:0.2,0.8,0.4,0.0/0.1,0.5,0.2,0.1",
    "linfrac:-0.5,0.5,0.4,-0.7/0.4,0.4,0.7,0.5",
)

_TINY = 0.5 * DOMAIN_EPS


def confusion_rows() -> np.ndarray:
    """Random simplex rows, unconstrained rows, and every domain edge."""
    rng = np.random.default_rng(20260915)
    simplex = rng.dirichlet(np.full(4, 0.7), size=800)
    signed = rng.normal(size=(100, 4))
    edges = np.array([
        [0.0, 0.3, 0.2, 0.5],  # TP = 0
        [0.4, 0.3, 0.3, 0.0],  # TN = 0
        [0.0, 0.5, 0.5, 0.0],  # TP = TN = 0
        [_TINY, 0.3, 0.2, 0.5 - _TINY],  # TP below the domain floor
        [0.4, 0.3, 0.3 - _TINY, _TINY],  # TN below the domain floor
        [0.0, 0.5, 0.0, 0.5],  # P = 0
        [_TINY, 0.5, 0.0, 0.5 - _TINY],  # 0 < P < DOMAIN_EPS
        [0.0, 0.4, _TINY, 0.6 - _TINY],  # 0 < P < DOMAIN_EPS through FN
        [DOMAIN_EPS, 0.3, 0.0, 0.7 - DOMAIN_EPS],  # P exactly at the floor
        [0.5, 0.0, 0.5, 0.0],  # N = 0
        [0.5, _TINY, 0.5 - _TINY, 0.0],  # 0 < N < DOMAIN_EPS
        [0.4, 0.0, 0.0, 0.6],  # no errors: qmean's domain edge
        [0.4, _TINY, _TINY, 0.6 - 2 * _TINY],  # errors below the floor
        [1.0, 0.0, 0.0, 0.0],  # only true positives
        [0.0, 0.0, 0.0, 1.0],  # only true negatives
        [_TINY, 0.5 - _TINY, 0.5 - _TINY, _TINY],  # TPR + TNR below the floor
        [0.0, 0.0, 0.0, 0.0],  # empty
        [0.25, 0.25, 0.25, 0.25],
    ])
    return np.concatenate([simplex, signed, edges])


def evaluate_all(C: np.ndarray) -> dict[str, np.ndarray]:
    out = {"C": C, "names": np.array(NAMES)}
    for i, name in enumerate(NAMES):
        spec = parse_metric(name)
        out[f"value_{i}"], out[f"valid_{i}"] = metric_values_masked(spec, C)
        out[f"grad_{i}"], _ = metric_gradients_masked(spec, C)
    return out


def _bits(x: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


@pytest.fixture(scope="module")
def golden():
    with np.load(GOLDEN) as data:
        return {key: data[key] for key in data.files}


def test_golden_covers_the_names(golden) -> None:
    assert tuple(golden["names"]) == NAMES


@pytest.mark.parametrize("index", range(len(NAMES)), ids=NAMES)
def test_bits_unchanged(golden, index: int) -> None:
    spec = parse_metric(NAMES[index])
    value, valid = metric_values_masked(spec, golden["C"])
    grad, grad_valid = metric_gradients_masked(spec, golden["C"])
    want_valid = golden[f"valid_{index}"]
    np.testing.assert_array_equal(valid, want_valid)
    np.testing.assert_array_equal(grad_valid, want_valid)
    np.testing.assert_array_equal(_bits(value), _bits(golden[f"value_{index}"]))
    np.testing.assert_array_equal(_bits(grad[want_valid]),
                                  _bits(golden[f"grad_{index}"][want_valid]))


def test_edges_hit_both_sides_of_every_domain(golden) -> None:
    # each metric except accuracy has valid and invalid rows among the inputs
    for index, name in enumerate(NAMES):
        valid = golden[f"valid_{index}"]
        assert valid.any()
        assert name == "accuracy" or not valid.all()


if __name__ == "__main__":
    np.savez_compressed(GOLDEN, **evaluate_all(confusion_rows()))
    print(f"wrote {GOLDEN}")
