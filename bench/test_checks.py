"""The benchmark's correctness checks reject deliberately corrupted outputs.

Run with ``python3 -m pytest bench/test_checks.py``.  Each test builds a
correct output from the independent computations in ``checks.py``, shows
that the check accepts it, corrupts it, and shows that the check rejects it.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks

MU, KAPPA = (2.0, 0.0), 0.5


@pytest.fixture(scope="module")
def f_star() -> float:
    return checks.gaussian_f1_optimum(MU, KAPPA)


def gauss_row(f_star: float, weights=(1.9, 0.05), intercept=0.02, delta=0.41) -> dict:
    regret = checks.gaussian_regret(MU, KAPPA, f_star, np.array(weights), intercept, delta)
    return {"n": 4096, "seed": 0, "regret": regret, "delta_hat": delta,
            "delta_star": f_star / 2.0, "error": None,
            "weights": np.array(weights), "intercept": intercept}


def test_gaussian_optimum_matches_reference(f_star):
    assert f_star / 2.0 == pytest.approx(0.422145033441, abs=1e-11)


def test_negative_closed_form_regret_is_rejected(f_star):
    row = gauss_row(f_star)
    assert checks.check_gauss_rows([row], f_star) == []
    assert checks.check_gauss_rows([dict(row, regret=-1e-6)], f_star)


def test_delta_star_off_by_1e6_is_rejected(f_star):
    row = gauss_row(f_star)
    assert checks.check_gauss_rows([dict(row, delta_star=row["delta_star"] + 1e-6)], f_star)
    assert checks.check_holder_delta_star(0.3970076944318562 + 1e-6, checks.sine_f1_optimum())


def test_regret_recomputed_from_weights(f_star):
    row = gauss_row(f_star)
    assert checks.check_gauss_retrained([row], MU, KAPPA, f_star) == []
    assert checks.check_gauss_retrained([dict(row, regret=row["regret"] + 1e-7)], MU, KAPPA,
                                        f_star)


def test_slope_band():
    rows = [{"n": n, "seed": s, "regret": 3.0 / n * (1 + 0.01 * s)}
            for n in (256, 1024, 4096) for s in range(3)]
    assert checks.check_gauss_slope(rows) == []
    flat = [dict(row, regret=1e-3) for row in rows]
    assert checks.check_gauss_slope(flat)


def test_holder_regret_off_by_1e2_is_rejected():
    f_star = checks.sine_f1_optimum()
    delta = f_star / 2.0
    quad, se = checks.sine_regret_quadrature(lambda X: checks.sine_eta(X[:, 0]), delta, f_star,
                                             mc_samples=1_000_000)
    assert abs(quad) < 1e-9
    assert 1e-5 < se < 1e-3
    assert checks.check_holder_regret(quad + 2 * se, quad, se) == []
    assert checks.check_holder_regret(quad + 1e-2, quad, se)


def test_sign_flipped_weight_is_rejected(f_star):
    weights, intercept, delta = np.array([2.01, -0.003]), 0.004, 0.4221
    assert checks.check_logistic_fit(weights, intercept, MU, KAPPA) == []
    assert checks.check_logistic_fit(weights * np.array([-1.0, 1.0]), intercept, MU, KAPPA)
    tp, fp, fn, _ = checks.halfspace_confusion(MU, KAPPA, weights, intercept, delta)
    report = {"regret": f_star - checks.f1(tp, fp, fn), "u_hat": checks.f1(tp, fp, fn),
              "u_star": f_star, "delta_star": f_star / 2.0, "delta_hat": delta}
    assert checks.check_evaluate_report(report, weights, intercept, delta, MU, KAPPA,
                                        f_star) == []
    flipped = weights * np.array([-1.0, 1.0])
    assert checks.check_evaluate_report(report, flipped, intercept, delta, MU, KAPPA, f_star)


def _write_csv(path, features, labels) -> None:
    lines = ["x_1,x_2,y"] + [f"{a:.17g},{b:.17g},{y:d}" for (a, b), y in zip(features, labels)]
    path.write_text("\n".join(lines) + "\n")


def test_csv_value_changed_in_its_last_digit_is_rejected(tmp_path):
    rng = np.random.default_rng(7)
    features = rng.standard_normal((50, 2))
    labels = np.where(rng.random(50) < 0.5, 1, -1)
    path = tmp_path / "data.csv"
    _write_csv(path, features, labels)
    assert checks.check_csv_roundtrip(str(path), features, labels) == []

    lines = path.read_text().splitlines()
    for row in range(1, len(lines)):
        field = lines[row].split(",")[0]
        last = int(field[-1]) if field[-1].isdigit() else None
        if last is None or "e" in field:
            continue
        changed = field[:-1] + str((last + 5) % 10)
        if float(changed) != float(field):
            lines[row] = ",".join([changed] + lines[row].split(",")[1:])
            break
    else:
        pytest.fail("no field whose last digit changes its value")
    path.write_text("\n".join(lines) + "\n")
    assert checks.check_csv_roundtrip(str(path), features, labels)


def test_same_arrays_is_bitwise():
    x = np.array([[0.1, 0.2]])
    y = np.array([1])
    assert checks.check_same_arrays("x", x, y, x.copy(), y.copy()) == []
    assert checks.check_same_arrays("x", x + math.ulp(0.1) * np.array([[1, 0]]), y, x, y)
