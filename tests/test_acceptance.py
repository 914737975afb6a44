"""End-to-end acceptance run: every verification criterion at its stated
tolerance and full Monte Carlo sizes, one pass/fail line each, and the
failure path of the check records that the lines are made from.

Run with -s to see the lines as they complete:
    pytest tests/test_acceptance.py -v -s
"""
import math

import numpy as np
import pytest

from tubebound.estimate import MCEstimate
from tubebound.verify import CRITERIA, DEFAULT_SEED, Check, CriterionResult, _grid_cameron_martin, _mc


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[name for name, _ in CRITERIA])
def test_criterion(name, fn):
    result = fn(False, DEFAULT_SEED)
    print(result.line())
    assert result.passed, result.detail


def test_failing_check_shows_value_target_and_tol():
    bad = _mc("mc", MCEstimate(mean=2.0, stderr=0.1, n=100, seed=1), 1.0, bias=0.05)
    result = CriterionResult("demo", [Check("exact", 1.0, "vs", 1.0, 1e-8), bad])
    assert not bad.ok and not result.passed
    assert result.detail == "mc=2.00000±0.10000 vs 1 (tol 0.35)"
    assert result.line() == "FAIL  demo: " + result.detail


@pytest.mark.parametrize("op", ["<", ">"])
def test_strict_ops_fail_on_equality(op):
    assert not Check("x", 1.0, op, 1.0).ok
    assert Check("x", 1.0, "<=", 1.0).ok and Check("x", 1.0, "vs", 1.0).ok


@pytest.mark.parametrize("op", ["vs", "<=", "<", ">"])
def test_nan_fails_every_op(op):
    assert not Check("x", math.nan, op, 0.0, 1.0).ok
    assert not Check("x", 0.0, op, math.nan, 1.0).ok
    # a sweep's worst gap, reduced with numpy, keeps a NaN draw
    assert not CriterionResult("demo", [Check("max gap", np.max([-1.0, math.nan]), op, 0.0, 1.0)]).passed


@pytest.mark.parametrize("theta, dt", [(0.25, 1e-3), (0.25, 1e-2), (1.0, 0.05), (2.0, 0.1), (0.5, 1.0 / 3.0)])
def test_grid_cameron_martin_is_the_determinant(theta, dt):
    # E exp(theta/2 dt sum_{k<N} B^2) = det(I - theta dt^2 min(j, k))^(-1/2), j, k = 1..N-1
    j = np.arange(1, round(1.0 / dt))
    sign, logdet = np.linalg.slogdet(np.eye(len(j)) - theta * dt * dt * np.minimum.outer(j, j))
    assert sign == 1.0
    assert _grid_cameron_martin(theta, 1.0, dt) == pytest.approx(math.exp(-0.5 * logdet), rel=1e-13)


def test_grid_cameron_martin_rises_to_the_continuous_value():
    # the left Riemann sum leaves out B_t^2, so the grid mean lies below
    # (cos sqrt(theta) t)^(-1/2) and rises to it as dt shrinks
    assert round(_grid_cameron_martin(0.25, 1.0, 1e-3), 7) == 1.0673979
    means = [_grid_cameron_martin(0.25, 1.0, dt) for dt in (0.1, 1e-2, 1e-3, 1e-4)]
    continuous = math.cos(0.5) ** -0.5
    assert means == sorted(means) and means[-1] < continuous
    assert continuous - means[-1] < 1e-5 < continuous - means[-2]
