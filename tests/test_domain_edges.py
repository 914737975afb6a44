"""Domain edges of the public API in one table (ROADMAP aim 3: every edge
raises DomainError or gives the limit that its docstring names).

Each row is one call with valid arguments. Every float argument is set in
turn to NaN, +inf, -inf, and to -1 where its domain excludes negatives; the
call must raise DomainError or return the row's named limit.
"""
from __future__ import annotations

import inspect
import math
from typing import Callable, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tubebound
from tubebound import bounds, specfun
from tubebound.bounds import (
    BoundCurve,
    concentration_bound,
    concentration_bound_optimized,
    even_moment_bound,
    exit_time_bound,
    exp_dist_bound,
    exp_dist_curve,
    exp_sq_bound,
    exp_sq_curve,
    explosion_time,
    feynman_kac_bound,
    logsob_bound,
    logsob_time_constant,
    radial_R,
    second_moment_bound,
)
from tubebound.errors import ConvergenceError, DomainError
from tubebound.estimate import mc_exp_moment, mc_moment, tail_prob
from tubebound.modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    LyapunovParams,
    SphereInEuclidean,
    exact_exp_moment,
    exact_moment,
    revuz_mean_local_time,
)
from tubebound.specfun import comparison, kummer, kummerm1, laguerre, lemma_laguerre_rhs, upper_gamma

INF, NAN = math.inf, math.nan
_P = LyapunovParams(3.0, 0.5)
_FLAT, _H3, _CIRCLE = EuclideanAffine(3, 0, 0.5), HyperbolicH3Point(-1.0), CirclePoint(1.0)


class Row(NamedTuple):
    fn: Callable
    args: dict  # valid keyword arguments
    limits: dict = {}  # (argument, edge) -> the value the docstring names there
    signed: tuple = ()  # the float arguments whose domain holds -1


ROWS = {
    "radial_R": Row(radial_R, dict(lam=0.5, t=1.0), {("lam", INF): 0.0}, ("lam",)),
    "even_moment_bound": Row(even_moment_bound, dict(p=_P, r0=0.5, t=1.0, ord=2)),
    "second_moment_bound": Row(second_moment_bound, dict(p=_P, r0=0.5, t=1.0)),
    "exp_sq_bound": Row(exp_sq_bound, dict(p=_P, r0=0.5, t=1.0, theta=0.1)),
    "exp_dist_bound": Row(exp_dist_bound, dict(p=_P, r0=0.5, t=1.0, theta=0.5)),
    "explosion_time": Row(explosion_time, dict(p=_P, theta=0.1)),
    "logsob_time_constant": Row(logsob_time_constant, dict(m=3, C1=0.5, t=1.0)),
    "logsob_bound-linear": Row(
        logsob_bound, dict(mode="linear", m=3, n=1, C1=0.5, Lambda=0.2, r0=0.5, t=1.0, theta=0.1)
    ),
    "logsob_bound-quadratic": Row(
        logsob_bound, dict(mode="quadratic", m=3, n=1, C1=0.5, Lambda=0.2, r0=0.5, t=1.0, theta=0.1)
    ),
    # a start past the floats' square root, where r0 * r0 overflowed and theta = 0 read NaN
    "logsob_bound-linear-far": Row(
        logsob_bound, dict(mode="linear", m=3, n=0, C1=0.0, Lambda=0.0, r0=1e200, t=1.0, theta=0.0)
    ),
    "logsob_bound-quadratic-far": Row(
        logsob_bound, dict(mode="quadratic", m=3, n=0, C1=0.0, Lambda=0.0, r0=1e200, t=1.0, theta=0.0)
    ),
    "concentration_bound": Row(concentration_bound, dict(p=_P, r0=0.5, t=1.0, r=3.0, delta=0.5)),
    "concentration_bound_optimized": Row(concentration_bound_optimized, dict(p=_P, r0=0.5, t=1.0, r=3.0)),
    "exit_time_bound": Row(exit_time_bound, dict(p=_P, r0=0.5, t=1.0, r=3.0, delta=0.5)),
    "feynman_kac_bound-linear": Row(feynman_kac_bound, dict(mode="linear", p=_P, r0=0.5, t=1.0, C=0.1)),
    "feynman_kac_bound-quadratic": Row(feynman_kac_bound, dict(mode="quadratic", p=_P, r0=0.5, t=1.0, C=0.1)),
    "exp_sq_curve": Row(exp_sq_curve, dict(p=_P, r0=0.5, theta=0.1, grid=[0.5, 1.0])),
    "exp_dist_curve": Row(exp_dist_curve, dict(p=_P, r0=0.5, theta=0.1, grid=[0.5, 1.0])),
    "comparison": Row(comparison, dict(kappa=-1.0, lam=0.5, t=1.0), signed=("kappa", "lam")),
    "laguerre": Row(laguerre, dict(p=3, alpha=0.5, z=-1.0), signed=("z",)),
    "kummer": Row(kummer, dict(a=1.0, b=0.5, z=1.0), {("b", INF): 1.0}, ("a", "z")),
    "kummerm1": Row(kummerm1, dict(a=1.0, b=0.5, z=1.0), {("b", INF): 0.0}, ("a", "z")),
    "upper_gamma": Row(upper_gamma, dict(a=1.5, x=2.0)),
    "lemma_laguerre_rhs": Row(lemma_laguerre_rhs, dict(p=2, alpha=1.0, z=1.0)),
    "EuclideanAffine": Row(EuclideanAffine, dict(m=3, n=0, r0=0.5)),
    "CirclePoint": Row(CirclePoint, dict(r0=1.0)),
    "HyperbolicH3Point": Row(HyperbolicH3Point, dict(kappa=-1.0, r0=0.5), signed=("kappa",)),
    "SphereInEuclidean": Row(SphereInEuclidean, dict(m=3, radius=1.0)),
    "LyapunovParams": Row(LyapunovParams, dict(nu=3.0, lam=0.5), signed=("lam",)),
    "exact_moment-flat": Row(exact_moment, dict(s=_FLAT, p=1, t=1.0)),
    "exact_moment-h3": Row(exact_moment, dict(s=_H3, p=1, t=1.0)),
    "exact_moment-circle": Row(exact_moment, dict(s=_CIRCLE, p=1, t=1.0), {("t", INF): math.pi**2 / 3.0}),
    "exact_exp_moment-flat": Row(exact_exp_moment, dict(s=_FLAT, theta=0.1, t=1.0)),
    "exact_exp_moment-h3": Row(exact_exp_moment, dict(s=_H3, theta=0.1, t=1.0)),
    # radius / (m/2 - 1) at m = 3, radius 1
    "revuz_mean_local_time-sphere3": Row(revuz_mean_local_time, dict(s=SphereInEuclidean(3, 1.0), t=1.0),
                                         {("t", INF): 2.0}),
    "revuz_mean_local_time-sphere2": Row(revuz_mean_local_time, dict(s=SphereInEuclidean(2, 1.0), t=1.0)),
    "revuz_mean_local_time-circle": Row(revuz_mean_local_time, dict(s=_CIRCLE, t=1.0)),
    "mc_moment": Row(mc_moment, dict(s=_FLAT, p=1, t=1.0, n=100, seed=1)),
    "mc_exp_moment": Row(mc_exp_moment, dict(s=_FLAT, theta=0.1, t=1.0, square=True, n=100, seed=1)),
    "tail_prob-point": Row(tail_prob, dict(s=_FLAT, r=2.0, t=1.0, sup_mode=False, n=100, dt=None, seed=1)),
    "tail_prob-sup": Row(tail_prob, dict(s=_FLAT, r=2.0, t=1.0, sup_mode=True, n=100, dt=0.1, seed=1)),
}
# the public names with no float argument of their own: records of computed
# values, a type alias, exceptions, and calls on a scenario or on ints
NOT_SWEPT = {
    "BoundCurve", "ComparisonValues", "MCEstimate", "OptimizedBound", "Scenario",
    "ConvergenceError", "DomainError", "lyapunov_params", "stream",
}
# the rows whose arithmetic once read a NaN or an infinity as a number: the
# hypothesis test walks every float on them, finite ones included
MENDED = [
    "radial_R", "logsob_time_constant", "logsob_bound-linear", "logsob_bound-quadratic", "logsob_bound-linear-far",
    "logsob_bound-quadratic-far", "exp_dist_curve",
    "kummer", "kummerm1", "lemma_laguerre_rhs", "exact_moment-flat", "exact_exp_moment-flat",
    "exact_exp_moment-h3",
]


def _floats(row: Row) -> list[str]:
    return [arg for arg, value in row.args.items() if isinstance(value, float)]


def _edges():
    for name, row in ROWS.items():
        for arg in _floats(row):
            for edge in (NAN, INF, -INF) + (() if arg in row.signed else (-1.0,)):
                yield pytest.param(name, arg, edge, id=f"{name}-{arg}={edge:g}")


@pytest.mark.parametrize("name,arg,edge", list(_edges()))
def test_edge_raises_or_gives_its_named_limit(name, arg, edge):
    row = ROWS[name]
    args = {**row.args, arg: edge}
    if (arg, edge) in row.limits:
        assert row.fn(**args) == row.limits[arg, edge]
    else:
        with pytest.raises(DomainError):
            row.fn(**args)


@pytest.mark.parametrize("name", ["logsob_bound-linear-far", "logsob_bound-quadratic-far"])
def test_logsob_far_start_reads_its_value(name):
    # exp(0) = 1 exactly at theta = 0; in linear mode exp(theta |r0|) ~ 1 at
    # theta = 1e-300, where an overflowed r0 * r0 read the saturation 1e300
    row = ROWS[name]
    assert row.fn(**row.args) == 1.0
    if row.args["mode"] == "linear":
        assert row.fn(**{**row.args, "theta": 1e-300}) == pytest.approx(1.0, abs=1e-99)


def _public_float_callables(module) -> set[str]:
    # the callables a module defines whose signature names a float argument
    names = set()
    for name, obj in vars(module).items():
        if name.startswith("_") or not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
            continue
        if any(p.annotation == "float" for p in inspect.signature(obj).parameters.values()):
            names.add(name)
    return names


def test_table_covers_the_public_api_and_the_bounds():
    swept = {row.fn.__name__ for row in ROWS.values()}
    assert set(tubebound.__all__) - swept <= NOT_SWEPT
    assert (_public_float_callables(bounds) | _public_float_callables(specfun)) - swept <= NOT_SWEPT


@pytest.mark.parametrize("name", MENDED)
@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mended_edges_never_read_nan(name, data):
    # any float in one argument: DomainError, an overflow reported as
    # ConvergenceError, or a number, which at a non-finite argument is its named limit
    row = ROWS[name]
    arg = data.draw(st.sampled_from(_floats(row)))
    x = data.draw(st.floats(allow_nan=True, allow_infinity=True))
    try:
        value = row.fn(**{**row.args, arg: x})
    except DomainError:
        assert (arg, x) not in row.limits
        return
    except ConvergenceError:  # an overflow, at a finite argument only
        assert math.isfinite(x)
        return
    if not math.isfinite(x):
        assert (arg, x) in row.limits and value == row.limits[arg, x]
    if isinstance(value, BoundCurve):
        assert all(value.valid)
    else:
        assert not math.isnan(value)
