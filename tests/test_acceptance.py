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
from tubebound.verify import CRITERIA, DEFAULT_SEED, Check, CriterionResult, _mc


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
