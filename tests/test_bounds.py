import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize
from scipy import special as sps

from tubebound.bounds import (
    SATURATION,
    BoundCurve,
    _bold_r,
    bound_curve,
    concentration_bound,
    concentration_bound_optimized,
    curve_to_csv,
    curves_to_csv,
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
from tubebound.errors import DomainError
from tubebound.modelspaces import (
    EuclideanAffine,
    HyperbolicH3Point,
    LyapunovParams,
    exact_exp_moment,
    exact_moment,
    lyapunov_params,
)
from tubebound.specfun import _large_z_sum, laguerre, lemma_laguerre_rhs

from oracles import (
    bold_r_mpmath,
    curve_csv_by_point,
    even_moment_mpmath,
    cameron_martin_quadratic,
    chi_tail,
    exit_tail_exact,
    flat_mgf_mpmath,
    flat_radial_moment,
    kummer_m1_mpmath,
    logsob_mpmath,
    second_moment_mpmath,
    sup_tail_reflection,
)

FLAT2 = LyapunovParams(nu=2.0, lam=0.0, exact=True)
H3 = LyapunovParams(nu=3.0, lam=2.0 / 3.0)


# ------------------------------------------------------------------ radial_R

def test_radial_r_zero_lambda_exact():
    assert radial_R(0.0, 5.0) == 5.0


def test_radial_r_infinite_lambda_is_its_limit():
    # (1 - e^(-lam t)) / lam -> 0, also at t = 0, where lam t is inf * 0
    assert radial_R(math.inf, 0.0) == 0.0 == radial_R(math.inf, 2.0)


def test_radial_r_direct_value():
    assert radial_R(1.0, 1.0) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_radial_r_series_branch_matches_formula():
    lam, t = 1e-9, 2.0
    series = radial_R(lam, t)
    direct = -math.expm1(-lam * t) / lam
    assert series == pytest.approx(direct, rel=1e-14)
    assert series == pytest.approx(2.0 - 2e-9, rel=1e-14)


def test_radial_r_high_precision_near_zero_lambda():
    import mpmath as mp

    mp.mp.dps = 40
    for lam in (1e-8, -1e-8, 1e-7, -1e-7, 0.3, -0.3):
        for t in (0.5, 2.0):
            ref = float((1 - mp.e ** (-mp.mpf(lam) * t)) / mp.mpf(lam))
            assert radial_R(lam, t) == pytest.approx(ref, rel=1e-13)


# ------------------------------------------------------- second_moment_bound

def test_second_moment_flat_equality_case():
    assert second_moment_bound(FLAT2, 1.0, 3.0) == pytest.approx(7.0, rel=1e-14)


def test_second_moment_h3_dominates_exact():
    b = second_moment_bound(H3, 0.0, 1.0)
    assert b == pytest.approx(4.5 * (math.exp(2.0 / 3.0) - 1.0), rel=1e-13)
    assert b == pytest.approx(4.2648, abs=1e-4)
    assert b >= exact_moment(HyperbolicH3Point(kappa=-1.0), 1, 1.0)


def test_second_moment_initial_condition():
    for p in (FLAT2, H3, LyapunovParams(nu=1.5, lam=-0.7)):
        assert second_moment_bound(p, 1.3, 0.0) == pytest.approx(1.3**2, rel=1e-15)


def test_second_moment_continuity_across_zero_lambda():
    lo = second_moment_bound(LyapunovParams(nu=2.0, lam=-1e-8), 1.0, 2.0)
    mid = second_moment_bound(LyapunovParams(nu=2.0, lam=0.0), 1.0, 2.0)
    hi = second_moment_bound(LyapunovParams(nu=2.0, lam=1e-8), 1.0, 2.0)
    assert lo <= mid <= hi
    assert hi - lo < 1e-6 * mid


# --------------------------------------------------------- even_moment_bound

@given(
    nu=st.floats(1.0, 6.0),
    lam=st.floats(-1.0, 1.0),
    r0=st.floats(0.0, 3.0),
    t=st.one_of(st.just(0.0), st.floats(1e-6, 4.0)),
)
@settings(max_examples=200, deadline=None)
def test_even_moment_order_one_reduces_to_second_moment(nu, lam, r0, t):
    p = LyapunovParams(nu=nu, lam=lam)
    want = float(second_moment_mpmath(nu, lam, r0, t))
    assert even_moment_bound(p, r0, t, 1) == pytest.approx(want, rel=1e-13, abs=1e-300)


def test_even_moment_fourth_moment_r3():
    # E |B_1|^4 in R^3 equals E[chi2_3^2] = 15
    p = LyapunovParams(nu=3.0, lam=0.0)
    assert even_moment_bound(p, 0.0, 1.0, 2) == pytest.approx(15.0, rel=1e-13)
    assert flat_radial_moment(3, 0.0, 1.0, 2) == 15.0


def test_even_moment_shifted_fourth_moment_r1():
    p = LyapunovParams(nu=1.0, lam=0.0)
    got = even_moment_bound(p, 1.0, 1.0, 2)
    assert got == pytest.approx(10.0, rel=1e-13)
    assert flat_radial_moment(1, 1.0, 1.0, 2) == 10.0


def test_even_moment_t_zero_limit():
    p = LyapunovParams(nu=2.0, lam=0.5)
    assert even_moment_bound(p, 1.5, 0.0, 3) == 1.5**6


def test_even_moment_flat_equality_certification():
    for d in (1, 2, 3):
        p = LyapunovParams(nu=float(d), lam=0.0, exact=True)
        for r0 in (0.0, 1.0):
            for t in (0.5, 1.0, 2.0):
                for ord in (1, 2, 3):
                    assert even_moment_bound(p, r0, t, ord) == pytest.approx(
                        flat_radial_moment(d, r0, t, ord), rel=1e-10
                    )


def test_even_moment_tiny_t_and_high_order_against_mpmath():
    # r0^2 / 2R = 5e199 overflowed the Laguerre value at order 2 (it read 1e300),
    # and q^ord ord! overflowed an int conversion at order 200
    p = LyapunovParams(nu=3.0, lam=0.0)
    for r0, t, ord in ((1.0, 1e-200, 2), (0.0, 0.01, 200)):
        want = float(even_moment_mpmath(3.0, 0.0, r0, t, ord))
        assert even_moment_bound(p, r0, t, ord) == pytest.approx(want, rel=1e-13), (r0, t, ord)


@given(
    nu=st.floats(1.0, 8.0),
    lam=st.floats(-2.0, 2.0),
    r0=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    t=st.one_of(st.just(0.0), st.floats(1e-300, 1e-3), st.floats(1e-3, 10.0)),
    ord=st.integers(1, 200),
)
@settings(max_examples=200, deadline=None)
def test_even_moment_any_order_against_mpmath(nu, lam, r0, t, ord):
    # lgamma's rounding grows with ord: under 3e-13 measured up to ord = 200
    got = even_moment_bound(LyapunovParams(nu=nu, lam=lam), r0, t, ord)
    want = even_moment_mpmath(nu, lam, r0, t, ord)
    if want >= SATURATION:
        assert got == SATURATION
    else:
        assert abs(got - want) <= 1e-12 * want + 1e-300


def test_even_moment_dominates_h3_exact_on_grid():
    s = HyperbolicH3Point(kappa=-1.0)
    p = lyapunov_params(s)
    for t in np.linspace(0.01, 5.0, 1000):
        for ord in (1, 2):
            assert even_moment_bound(p, 0.0, float(t), ord) >= exact_moment(s, ord, float(t))


# ----------------------------------------------------------- exp_dist_bound

def test_exp_dist_theta_zero_is_one():
    for nu in (2.0, 3.0, 5.5):
        for lam in (-0.5, 0.0, 1.0):
            p = LyapunovParams(nu=nu, lam=lam)
            assert exp_dist_bound(p, 1.0, 2.0, 0.0) == 1.0


def test_exp_dist_small_time_value_two_routes():
    # nu=2, lam=0, r0=0, t=0.01, theta=1: B = 12 * 0.02 = 0.24
    p = LyapunovParams(nu=2.0, lam=0.0)
    got = exp_dist_bound(p, 0.0, 0.01, 1.0)
    B = 0.24
    route1 = 1.0 + (1.0 + B**-0.5) * (float(sps.hyp1f1(1.0, 0.5, B)) - 1.0)
    terms = [B**k / math.prod(0.5 + j for j in range(k)) for k in range(1, 60)]
    route2 = 1.0 + (1.0 + B**-0.5) * sum(terms)
    assert got == pytest.approx(route1, rel=1e-12)
    assert got == pytest.approx(route2, rel=1e-12)
    assert got == pytest.approx(2.717408962991702, rel=1e-12)


def test_exp_dist_dominates_flat_mc():
    # E exp(theta |B_t|) in R^2, crude Monte Carlo with its own rng
    p = LyapunovParams(nu=2.0, lam=0.0)
    rng = np.random.default_rng(42)
    draws = math.sqrt(0.01) * rng.standard_normal((200_000, 2))
    emp = np.exp(np.linalg.norm(draws, axis=1)).mean()
    assert exp_dist_bound(p, 0.0, 0.01, 1.0) >= emp


def test_exp_dist_nondecreasing_in_time():
    # holds under lam >= 0, the regime the Feynman-Kac construction uses
    rng = np.random.default_rng(5)
    for _ in range(200):
        p = LyapunovParams(nu=rng.uniform(2.0, 6.0), lam=rng.uniform(0.0, 1.0))
        r0 = rng.uniform(0.0, 2.0)
        theta = rng.uniform(0.0, 1.0)
        t1 = rng.uniform(0.0, 3.0)
        t2 = t1 + rng.uniform(0.0, 3.0)
        assert exp_dist_bound(p, r0, t2, theta) >= exp_dist_bound(p, r0, t1, theta) - 1e-12


def test_exp_dist_requires_nu_at_least_two():
    with pytest.raises(DomainError):
        exp_dist_bound(LyapunovParams(nu=1.5, lam=0.0), 0.0, 1.0, 0.5)


def _exp_dist_closed_form(nu, B):
    # 1 + (1 + B^(-1/2)) (1F1(nu/2, 1/2, B) - 1) at 40 digits; 1 at B = 0
    if B == 0.0:
        return 1.0
    return 1 + (1 + B**-0.5) * kummer_m1_mpmath(nu / 2.0, 0.5, B)


def _switch_point(a):
    # smallest z (to 1e-9 relative) at which kummer(a, 1/2, z) sums the large-z expansion
    lo, hi = 1.0, 200.0
    assert _large_z_sum(a, 0.5, lo) is None and _large_z_sum(a, 0.5, hi) is not None
    while hi - lo > 1e-9 * hi:
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if _large_z_sum(a, 0.5, mid) is not None else (mid, hi)
    return hi


@pytest.mark.parametrize("a", [1.0, 1.5, 2.0, 2.5, 5.0])
def test_exp_dist_exact_across_kummer_switch(a):
    # just below the switch kummer runs the series, just above the expansion; an odd nu
    # (a - 1/2 an integer) sums its polynomial on both sides of z = 50, where a
    # non-terminating a would switch, and never takes the expansion
    p = LyapunovParams(nu=2.0 * a, lam=0.0)
    odd_nu = float(a - 0.5).is_integer()
    zs = 50.0 if odd_nu else _switch_point(a)
    for z, expansion in ((zs * (1.0 - 1e-6), False), (zs * (1.0 + 1e-6), not odd_nu)):
        theta = math.sqrt(z / 24.0)
        B = _bold_r(p, 0.0, 1.0, theta)
        assert (_large_z_sum(a, 0.5, B) is not None) == expansion
        want = _exp_dist_closed_form(2.0 * a, B)
        assert abs(exp_dist_bound(p, 0.0, 1.0, theta) - want) <= 1e-14 * want


@given(nu=st.floats(2.0, 12.0), B=st.floats(0.0, 2000.0), r0=st.floats(0.0, 2.0))
@settings(max_examples=300, deadline=None)
def test_exp_dist_and_linear_feynman_kac_never_below_closed_form(nu, B, r0):
    # t = 1, lam = 0: B = 12 theta^2 (r0^2 + 2); Feynman-Kac linear is e^(C t) times
    # exp_dist_bound at theta = C t
    p = LyapunovParams(nu=nu, lam=0.0)
    theta = math.sqrt(B / (12.0 * (r0 * r0 + 2.0)))
    Bx = _bold_r(p, r0, 1.0, theta)
    want = _exp_dist_closed_form(nu, Bx)
    for got, closed in (
        (exp_dist_bound(p, r0, 1.0, theta), want),
        (feynman_kac_bound("linear", p, r0, 1.0, theta), want * math.exp(theta)),
    ):
        if closed >= SATURATION:
            assert got == SATURATION
        else:
            assert got >= closed * (1.0 - 1e-13)
            assert got <= closed * (1.0 + 1e-13)


@given(
    nu=st.floats(2.0, 12.0),
    lam=st.floats(-5.0, 5.0),
    r0=st.floats(0.0, 3.0),
    t=st.floats(0.0, 1000.0),
    theta=st.floats(0.0, 10.0),
)
@settings(max_examples=300, deadline=None)
# a subnormal r0 made |log y| large and sent order 1 to the log sum, 1.0e-13 low
@example(nu=2.0, lam=4.847927695860461, r0=2.225073858507e-311, t=125.25, theta=0.0)
def test_moments_finite_and_never_below_closed_form_at_overflow_edge(nu, lam, r0, t, theta):
    # large |lam t| used to overflow e^(lam t) and R(t); the bounds must saturate
    # at 1e300 only where the closed form does, and never read below it
    p = LyapunovParams(nu=nu, lam=lam)
    got = second_moment_bound(p, r0, t)
    want = second_moment_mpmath(nu, lam, r0, t)
    assert math.isfinite(got)
    if want >= SATURATION:
        assert got == SATURATION
    else:
        assert want * (1 - 1e-13) - 1e-300 <= got <= want * (1 + 1e-13) + 1e-300
    # B is rounded once per unit of its log, so 1e-12 covers |lam t| <= 5000. Where
    # theta^2 underflows (lam t <= 600, theta < 1.5e-154), B < 1e-40, which moves
    # the bound by under 1e-19 relative
    B = _bold_r(p, r0, t, theta)
    B_exact = bold_r_mpmath(lam, r0, t, theta)
    assert abs(B - min(B_exact, SATURATION)) <= 1e-12 * B_exact + 1e-40
    got = exp_dist_bound(p, r0, t, theta)
    assert math.isfinite(got)
    # 1F1(nu/2, 1/2, B) >= e^B for nu >= 1: past B = 700 the closed form passes 1e300
    closed = _exp_dist_closed_form(nu, B) if B < 700.0 else math.inf
    if closed >= SATURATION:
        assert got == SATURATION
    else:
        assert closed * (1 - 1e-13) <= got <= closed * (1 + 1e-13)


@given(
    nu=st.floats(1.0, 6.0),
    lam=st.floats(-1.0, 1.0),
    r0=st.floats(0.0, 2.0),
    t=st.floats(0.1, 3.0),
    r=st.floats(0.5, 10.0),
    delta=st.floats(0.0, 0.95),
)
@settings(max_examples=200)
def test_concentration_equals_chernoff_combination(nu, lam, r0, t, r, delta):
    # delta parameterizes theta = delta / (R e^(lam t)); the tail bound must
    # equal e^{-theta r^2/2} times the exp-square bound at that theta
    p = LyapunovParams(nu=nu, lam=lam)
    growth = radial_R(lam, t) * math.exp(lam * t)
    theta = delta / growth
    chernoff = math.exp(-theta * r * r / 2.0) * exp_sq_bound(p, r0, t, theta)
    assert concentration_bound(p, r0, t, r, delta) == pytest.approx(chernoff, rel=1e-10)


# ------------------------------------------------------------- exp_sq_bound

def test_exp_sq_theta_zero_is_one():
    assert exp_sq_bound(H3, 1.0, 2.0, 0.0) == 1.0


def test_exp_sq_flat_equality():
    # with nu = m, lam = 0 the bound is the exact noncentral Gaussian MGF
    for m in (1, 2, 3):
        p = LyapunovParams(nu=float(m), lam=0.0, exact=True)
        for x in (0.0, 1.0):
            for tht in (0.1, 0.5, 0.9):
                got = exp_sq_bound(p, x, 1.0, tht)
                want = flat_mgf_mpmath(m, x, 1.0, tht)
                assert got == pytest.approx(want, rel=1e-10)


def test_exp_sq_dominates_h3_exact():
    s = HyperbolicH3Point(kappa=-1.0)
    for theta in (0.05, 0.1):
        for t in (0.5, 1.0):
            assert exp_sq_bound(H3, 0.0, t, theta) >= exact_exp_moment(s, theta, t)


def test_exp_sq_domain_boundary():
    p = LyapunovParams(nu=3.0, lam=1.0 / 3.0)
    tstar = 3.0 * math.log(3.0)
    assert math.isfinite(exp_sq_bound(p, 0.0, tstar - 1e-6, 1.0 / 6.0))
    with pytest.raises(DomainError) as err:
        exp_sq_bound(p, 0.0, tstar + 1e-6, 1.0 / 6.0)
    assert "1.0" in str(err.value)
    # a saturated growth R(t) e^(lam t) >= 1e300 is past the boundary for any theta > 0,
    # and where it is not saturated, e^(lam t) alone may still leave the floats
    with pytest.raises(DomainError):
        exp_sq_bound(LyapunovParams(nu=3.0, lam=5.0), 0.0, 200.0, 1e-301)
    assert exp_sq_bound(LyapunovParams(nu=3.0, lam=1e9), 1.0, 7.1e-7, 1e-300) == SATURATION


def test_exp_sq_dominates_h3_exact_on_grid():
    # 1000 points across the joint validity domain per theta sweep
    s = HyperbolicH3Point(kappa=-1.0)
    for theta, tmax in ((0.1, 3.0), (0.3, 1.6)):
        for t in np.linspace(0.01, tmax, 1000):
            bound = exp_sq_bound(H3, 0.0, float(t), theta)
            exact = exact_exp_moment(s, theta, float(t))
            assert bound >= exact


def test_bounds_continuous_in_lambda_at_zero():
    for lam in (1e-8, -1e-8):
        p = LyapunovParams(nu=3.0, lam=lam)
        p0 = LyapunovParams(nu=3.0, lam=0.0)
        for fn in (
            lambda q: second_moment_bound(q, 1.0, 2.0),
            lambda q: even_moment_bound(q, 1.0, 2.0, 2),
            lambda q: exp_sq_bound(q, 1.0, 2.0, 0.2),
            lambda q: exp_dist_bound(q, 1.0, 2.0, 0.2),
        ):
            assert fn(p) == pytest.approx(fn(p0), rel=1e-6)


def test_exp_sq_monotone_in_theta_and_r0():
    rng = np.random.default_rng(6)
    for _ in range(200):
        p = LyapunovParams(nu=rng.uniform(1.0, 5.0), lam=rng.uniform(-1.0, 1.0))
        t = rng.uniform(0.1, 2.0)
        cap = 1.0 / (radial_R(p.lam, t) * math.exp(p.lam * t))
        th1 = rng.uniform(0.0, 0.98 * cap)
        th2 = rng.uniform(th1, 0.99 * cap)
        r1 = rng.uniform(0.0, 2.0)
        r2 = r1 + rng.uniform(0.0, 2.0)
        assert exp_sq_bound(p, r1, t, th2) >= exp_sq_bound(p, r1, t, th1) - 1e-12
        assert exp_sq_bound(p, r2, t, th1) >= exp_sq_bound(p, r1, t, th1) - 1e-12


# ----------------------------------------------------------- explosion_time

def test_explosion_time_flat():
    t = explosion_time(LyapunovParams(nu=3.0, lam=0.0), 1.0 / 6.0)
    assert abs(t - 6.0) <= 1e-8


def test_explosion_time_positive_lambda():
    t = explosion_time(LyapunovParams(nu=3.0, lam=1.0 / 3.0), 1.0 / 6.0)
    assert abs(t - 3.0 * math.log(3.0)) <= 1e-8


def test_explosion_never_for_negative_lambda_small_theta():
    assert explosion_time(LyapunovParams(nu=3.0, lam=-1.0), 0.5) is None


def test_explosion_finite_for_negative_lambda_large_theta():
    t = explosion_time(LyapunovParams(nu=3.0, lam=-1.0), 1.5)
    assert abs(t - math.log(3.0)) <= 1e-8


def _explosion_brentq(lam, theta):
    # root of theta R(-lam, t) - 1, the growth evaluated at 40 digits so that
    # the root is resolved to brentq's own tolerance even near lam = -theta
    import mpmath as mp

    mp.mp.dps = 40

    def g(t):
        R = mp.mpf(t) if lam == 0.0 else mp.expm1(mp.mpf(lam) * t) / lam
        return float(theta * R - 1)

    hi = 1.0
    while g(hi) < 0.0:
        hi *= 2.0
    return optimize.brentq(g, 0.0, hi, xtol=1e-300, rtol=1e-15, maxiter=500)


@given(lam=st.floats(-3.0, 3.0), theta=st.floats(1e-3, 10.0))
@settings(max_examples=300, deadline=None)
def test_explosion_time_matches_brentq(lam, theta):
    got = explosion_time(LyapunovParams(nu=3.0, lam=lam), theta)
    if lam <= -theta:
        assert got is None
        return
    assert got == pytest.approx(_explosion_brentq(lam, theta), rel=1e-12)


@pytest.mark.parametrize("theta", [math.nan, math.inf, 0.0, -1.0])
def test_explosion_time_rejects_bad_theta(theta):
    with pytest.raises(DomainError):
        explosion_time(LyapunovParams(nu=3.0, lam=0.5), theta)


# ------------------------------------------------------------- logsob_bound

def test_logsob_quadratic_flat_point():
    # m=1, n=0, C1=Lambda=0, r0=0, theta*t=0.5: exp(0.5/(2*0.5)) = e^0.5
    got = logsob_bound("quadratic", 1, 0, 0.0, 0.0, 0.0, 1.0, 0.5)
    assert got == pytest.approx(math.exp(0.5), rel=1e-13)
    assert got >= math.sqrt(2.0)


def test_logsob_linear_theta_zero():
    assert logsob_bound("linear", 3, 1, 0.5, 1.0, 1.0, 2.0, 0.0) == 1.0


def test_logsob_small_c1_time_constant_continuity():
    # series-branch oracle: C(t) -> t as C1 -> 0
    assert abs(logsob_time_constant(3, 1e-8, 1.0) - 1.0) <= 1e-10
    assert logsob_time_constant(5, 0.0, 2.5) == 2.5
    a = logsob_bound("quadratic", 3, 0, 1e-8, 0.0, 0.5, 1.0, 0.3)
    b = logsob_bound("quadratic", 3, 0, 0.0, 0.0, 0.5, 1.0, 0.3)
    assert a == pytest.approx(b, rel=1e-7)


def test_logsob_quadratic_domain_error():
    with pytest.raises(DomainError):
        logsob_bound("quadratic", 1, 0, 0.0, 0.0, 0.0, 2.0, 0.5)


def test_logsob_saturated_time_constant_against_mpmath():
    # C(t) = (e^800 - 1) / 2 saturates at 1e300; theta^2 C(t) / 2 is still about 7e26
    want = logsob_mpmath("linear", 3, 0, 1.0, 0.0, 0.0, 400.0, 1e-160)
    assert want > SATURATION
    assert logsob_bound("linear", 3, 0, 1.0, 0.0, 0.0, 400.0, 1e-160) == SATURATION
    for theta in (2e-174, 1e-300):  # theta^2 C(t) / 2 about 0.27, then 1e-565
        want = logsob_mpmath("linear", 3, 0, 1.0, 0.0, 0.0, 400.0, theta)
        assert logsob_bound("linear", 3, 0, 1.0, 0.0, 0.0, 400.0, theta) == pytest.approx(float(want), rel=1e-13)
    # theta C(t) is about 1.4e37 at theta = 1e-310, not 1e-10: outside the quadratic domain
    assert logsob_mpmath("quadratic", 3, 0, 1.0, 0.0, 0.0, 400.0, 1e-310) is None
    with pytest.raises(DomainError):
        logsob_bound("quadratic", 3, 0, 1.0, 0.0, 0.0, 400.0, 1e-310)
    # C(350) = (e^700 - 1) / 2 saturates too, but theta C(t) is 5e-7 at theta = 1e-310
    want = logsob_mpmath("quadratic", 3, 0, 1.0, 0.0, 0.5, 350.0, 1e-310)
    assert logsob_bound("quadratic", 3, 0, 1.0, 0.0, 0.5, 350.0, 1e-310) == float(want)


def test_logsob_huge_theta_at_time_zero():
    # theta^2 = inf against C(0) = 0 made the linear bound NaN
    assert logsob_bound("linear", 3, 0, 1.0, 0.0, 0.0, 0.0, 1e200) == 1.0
    assert logsob_bound("quadratic", 3, 0, 1.0, 0.0, 0.0, 0.0, 1e200) == 1.0


def test_logsob_rejects_bad_mode():
    with pytest.raises(DomainError):
        logsob_bound("cubic", 1, 0, 0.0, 0.0, 0.0, 1.0, 0.1)


def test_logsob_strictly_dominates_flat_mgf():
    for m in (1, 3):
        for x in np.arange(0.1, 0.95, 0.1):
            bound = logsob_bound("quadratic", m, 0, 0.0, 0.0, 0.0, 1.0, float(x))
            exact = (1.0 - x) ** (-m / 2.0)
            assert bound > exact


# ------------------------------------------------------ concentration_bound

def test_concentration_delta_zero_vacuous():
    assert concentration_bound(H3, 1.0, 1.0, 2.0, 0.0) == 1.0


def test_concentration_minimiser_at_interval_ends():
    # nu + r0^2/R >= r^2/(R e^(lam t)): the bound is minimised at delta = 0, value 1
    p = LyapunovParams(nu=1.0, lam=0.0)
    opt = concentration_bound_optimized(p, 0.0, 1.0, 0.5)
    assert opt == (0.0, 1.0, 0.0)
    assert exit_time_bound(p, 0.0, 1.0, 0.5, opt.delta) == 1.0
    # r^2 overflows a float: the top of the interval, and a bound of 0
    opt = concentration_bound_optimized(p, 0.0, 1.0, 1e200)
    assert opt == (1.0 - 1e-12, 0.0, -math.inf)


def test_concentration_asymptotic_rate():
    p = LyapunovParams(nu=3.0, lam=0.0)
    opt = concentration_bound_optimized(p, 0.0, 1.0, 1000.0)
    rate = opt.log_value / 1000.0**2
    assert abs(rate - (-0.5)) <= 1e-3


def test_concentration_dominates_chi_tail():
    p = LyapunovParams(nu=3.0, lam=0.0)
    for r in (2.0, 4.0, 6.0):
        opt = concentration_bound_optimized(p, 0.0, 1.0, r)
        assert opt.value >= chi_tail(3, r, 1.0)


def test_concentration_optimized_no_worse_than_grid():
    rng = np.random.default_rng(13)
    for _ in range(50):
        p = LyapunovParams(nu=rng.uniform(1.0, 5.0), lam=rng.uniform(-0.5, 0.5))
        r0 = rng.uniform(0.0, 2.0)
        t = rng.uniform(0.2, 3.0)
        r = rng.uniform(0.5, 8.0)
        opt = concentration_bound_optimized(p, r0, t, r)
        grid_best = min(
            concentration_bound(p, r0, t, r, float(d)) for d in np.linspace(0.0, 0.999999, 500)
        )
        assert opt.value <= grid_best * (1.0 + 1e-12)


@given(
    nu=st.floats(1.0, 6.0),
    lam=st.floats(-1.0, 1.0),
    r0=st.floats(0.0, 3.0),
    t=st.floats(0.05, 3.0),
    r=st.floats(0.1, 10.0),
)
@example(nu=2.0, lam=0.0, r0=0.0, t=2.0, r=2.00001)  # a minimum near delta = 0, where the log cancels
@settings(max_examples=300, deadline=None)
def test_concentration_optimized_no_worse_than_bounded_search(nu, lam, r0, t, r):
    # the paper's log bound, minimised over [0, 1 - 1e-12] by scipy's bounded Brent search
    # and read exactly (mpmath at 40 digits) at the search's delta and at delta = 0
    import mpmath as mp

    p = LyapunovParams(nu=nu, lam=lam)
    R, growth = radial_R(lam, t), radial_R(-lam, t)

    def log_bound(d):
        return -(nu / 2.0) * math.log1p(-d) + r0 * r0 * d / (2.0 * R * (1.0 - d)) - d * r * r / (2.0 * growth)

    res = optimize.minimize_scalar(log_bound, bounds=(0.0, 1.0 - 1e-12), method="bounded",
                                   options={"xatol": 1e-12})
    with mp.workdps(40):
        d = mp.mpf(res.x)
        at_search = -(mp.mpf(nu) / 2) * mp.log1p(-d) + mp.mpf(r0) ** 2 * d / (2 * mp.mpf(R) * (1 - d)) \
            - d * mp.mpf(r) ** 2 / (2 * mp.mpf(growth))
        best = float(min(at_search, 0))  # the log bound is 0 at delta = 0, which the search never evaluates
    opt = concentration_bound_optimized(p, r0, t, r)
    assert 0.0 <= opt.delta <= 1.0 - 1e-12
    assert opt.log_value <= best + 1e-12 * abs(best)


# ---------------------------------------------------------- exit_time_bound

def test_exit_time_matches_concentration_expression():
    p = LyapunovParams(nu=2.0, lam=0.3)
    assert exit_time_bound(p, 0.5, 1.0, 3.0, 0.6) == concentration_bound(p, 0.5, 1.0, 3.0, 0.6)


def test_exit_time_dominates_reflection_tail():
    p = LyapunovParams(nu=1.0, lam=0.0)
    opt = concentration_bound_optimized(p, 0.0, 1.0, 5.0)
    assert exit_time_bound(p, 0.0, 1.0, 5.0, opt.delta) >= sup_tail_reflection(5.0, 1.0)


def test_exit_time_dominates_exact_exit_tail():
    # flat m - n = 1 at r = 2 and m - n = 3 at r = 3, t = 1
    for nu, r, exact in ((1, 2.0, 0.09100052), (3, 3.0, 0.05318218)):
        assert exit_tail_exact(nu, r, 1.0) == pytest.approx(exact, abs=1e-8)
        p = LyapunovParams(nu=float(nu), lam=0.0)
        bound = exit_time_bound(p, 0.0, 1.0, r, concentration_bound_optimized(p, 0.0, 1.0, r).delta)
        assert bound >= exit_tail_exact(nu, r, 1.0)
    # the m - n = 1 series against the image sum over reflections at +-r
    for r, t in ((2.0, 1.0), (1.0, 0.3), (0.5, 2.0)):
        x = r / math.sqrt(t)
        inside = sum((-1) ** k * (sps.ndtr((2 * k + 1) * x) - sps.ndtr((2 * k - 1) * x)) for k in range(-40, 41))
        assert exit_tail_exact(1, r, t) == pytest.approx(1.0 - inside, abs=1e-13)
    # the m - n = 3 series against the Laplace transform of the BES(3)
    # hitting time, E e^{-lam T_r} = x / sinh(x) with x = r sqrt(2 lam)
    for r, lam in ((3.0, 0.5), (3.0, 2.0), (1.0, 1.0)):
        def density(t):
            return lam * math.exp(-lam * t) * exit_tail_exact(3, r, t)

        got = integrate.quad(density, 0.0, math.inf, limit=200)[0]
        x = r * math.sqrt(2.0 * lam)
        assert got == pytest.approx(x / math.sinh(x), rel=1e-9)


def test_exit_time_requires_nonnegative_lambda():
    with pytest.raises(DomainError):
        exit_time_bound(LyapunovParams(nu=2.0, lam=-0.1), 0.0, 1.0, 2.0, 0.5)


# --------------------------------------------------------- feynman_kac_bound

def test_feynman_kac_zero_potential():
    p = LyapunovParams(nu=2.0, lam=0.0)
    assert feynman_kac_bound("linear", p, 0.5, 1.0, 0.0) == 1.0
    assert feynman_kac_bound("quadratic", p, 0.5, 1.0, 0.0) == 1.0


def test_feynman_kac_quadratic_dominates_cameron_martin():
    p = LyapunovParams(nu=1.0, lam=0.0)
    got = feynman_kac_bound("quadratic", p, 0.0, 1.0, 0.25)
    assert got == pytest.approx(0.75**-0.5 * math.exp(0.25), rel=1e-13)
    assert got >= cameron_martin_quadratic(0.25, 1.0)


def test_feynman_kac_quadratic_domain_boundary_reports_product():
    p = LyapunovParams(nu=1.0, lam=0.0)
    with pytest.raises(DomainError) as err:
        feynman_kac_bound("quadratic", p, 0.0, 1.0, 1.0)
    assert "1.0" in str(err.value)


def test_feynman_kac_linear_needs_nonnegative_lambda_and_nu2():
    with pytest.raises(DomainError):
        feynman_kac_bound("linear", LyapunovParams(nu=2.0, lam=-0.2), 0.0, 1.0, 0.1)
    with pytest.raises(DomainError):
        feynman_kac_bound("linear", LyapunovParams(nu=1.5, lam=0.0), 0.0, 1.0, 0.1)


def test_feynman_kac_linear_composes_exp_dist():
    p = LyapunovParams(nu=3.0, lam=0.2)
    got = feynman_kac_bound("linear", p, 0.5, 1.5, 0.3)
    want = math.exp(0.3 * 1.5) * exp_dist_bound(p, 0.5, 1.5, 0.3 * 1.5)
    assert got == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------- curves

def test_curve_valid_iff_finite():
    p = LyapunovParams(nu=3.0, lam=1.0 / 3.0)
    grid = np.linspace(0.01, 8.0, 300)
    curve = exp_sq_curve(p, 0.0, 1.0 / 6.0, grid)
    tstar = 3.0 * math.log(3.0)
    assert curve.explosion_point == pytest.approx(tstar, abs=1e-8)
    for t, v, ok in zip(curve.grid, curve.values, curve.valid):
        assert ok == math.isfinite(v)
        if t < tstar - 1e-6:
            assert ok
        if t > tstar + 1e-6:
            assert not ok


def test_curve_mgf_values_at_least_one():
    p = LyapunovParams(nu=3.0, lam=-1.0 / 3.0)
    grid = np.linspace(0.01, 8.0, 200)
    for curve in (exp_sq_curve(p, 0.0, 1.0 / 6.0, grid), exp_dist_curve(p, 0.0, 1.0 / 6.0, grid)):
        for v, ok in zip(curve.values, curve.valid):
            if ok:
                assert v >= 1.0


def test_curve_csv_format():
    curve = BoundCurve(grid=[0.5, 1.0], values=[1.25, math.nan], valid=[True, False])
    text = curve_to_csv(curve)
    lines = text.strip().split("\n")
    assert lines[0] == "param,value,valid"
    assert lines[1] == "0.5,1.25,true"
    assert lines[2].endswith(",false")


@pytest.mark.parametrize("order", [1.5, 2.0])
def test_orders_must_be_integers(order):
    # a float order, even a whole one, is refused where its sign is, as mc_moment does
    lp = LyapunovParams(nu=3.0, lam=0.0)
    for call in (
        lambda: laguerre(order, 0.5, -1.0),
        lambda: lemma_laguerre_rhs(order, 1.0, 1.0),
        lambda: exact_moment(EuclideanAffine(m=3), order, 1.0),
        lambda: even_moment_bound(lp, 0.0, 1.0, order),
    ):
        with pytest.raises(DomainError, match="integer"):
            call()


@pytest.mark.parametrize("lam", [0.0, 700.0])
def test_exp_dist_nan_r0_is_a_domain_error(lam):
    # a NaN B is refused by kummerm1, not read as an overflow and saturated
    with pytest.raises(DomainError):
        exp_dist_bound(LyapunovParams(nu=3.0, lam=lam), math.nan, 1.0, 0.1)


@pytest.mark.parametrize(
    "call",
    [
        lambda: even_moment_bound(LyapunovParams(3.0, 0.0), math.nan, 1.0, 2),  # the Laguerre product
        lambda: even_moment_bound(LyapunovParams(3.0, 0.0), math.nan, 1.0, 200),  # the log sum
        lambda: even_moment_bound(LyapunovParams(3.0, 0.0), math.inf, 1.0, 2),  # read nan too
        lambda: laguerre(2, math.nan, -1.0),
        lambda: laguerre(2, 0.5, math.nan),
        lambda: lemma_laguerre_rhs(2, 1.0, math.nan),
        lambda: lemma_laguerre_rhs(2, math.nan, 1.0),
    ],
    ids=["moment-product", "moment-sum", "moment-inf", "laguerre-alpha", "laguerre-z", "lemma-z", "lemma-alpha"],
)
def test_nan_arguments_are_domain_errors(call):
    # a NaN argument (or an infinite r0) must not come out as a NaN value
    with pytest.raises(DomainError):
        call()


_P3 = LyapunovParams(3.0, 0.0)
R0_CALLS = {
    "exp_sq_bound": lambda r0: exp_sq_bound(_P3, r0, 1.0, 0.1),
    "exp_sq_curve": lambda r0: exp_sq_curve(_P3, r0, 0.1, [0.5, 1.0]),
    "exp_dist_bound": lambda r0: exp_dist_bound(_P3, r0, 1.0, 0.1),
    "exp_dist_curve": lambda r0: exp_dist_curve(_P3, r0, 0.1, [0.5, 1.0]),
    "concentration_bound": lambda r0: concentration_bound(_P3, r0, 1.0, 2.0, 0.5),
    "concentration_bound_optimized": lambda r0: concentration_bound_optimized(_P3, r0, 1.0, 2.0),
    "exit_time_bound": lambda r0: exit_time_bound(_P3, r0, 1.0, 2.0, 0.5),
    "feynman_kac_bound-linear": lambda r0: feynman_kac_bound("linear", _P3, r0, 1.0, 0.1),
    "feynman_kac_bound-quadratic": lambda r0: feynman_kac_bound("quadratic", _P3, r0, 1.0, 0.1),
    "logsob_bound-linear": lambda r0: logsob_bound("linear", 3, 0, 0.0, 0.0, r0, 1.0, 0.1),
    "logsob_bound-quadratic": lambda r0: logsob_bound("quadratic", 3, 0, 0.0, 0.0, r0, 1.0, 0.1),
    "even_moment_bound": lambda r0: even_moment_bound(_P3, r0, 1.0, 2),
}


@pytest.mark.parametrize("r0", [math.nan, -1.0, math.inf], ids=["nan", "-1", "inf"])
@pytest.mark.parametrize("name", R0_CALLS)
def test_r0_outside_the_distances_is_a_domain_error(name, r0):
    # not a NaN value, nor -1 read as distance 1 through r0 * r0; a curve refuses the whole grid
    with pytest.raises(DomainError, match="r0"):
        R0_CALLS[name](r0)


def test_bound_curve_handles_domain_errors():
    p = LyapunovParams(nu=2.0, lam=0.0)
    curve = bound_curve(lambda t: exp_sq_bound(p, 0.0, t, 0.5), [1.0, 1.9, 2.5])
    assert curve.valid == [True, True, False]


# lam < 0 near -theta puts lam t* near -20 and -28, where theta R(t) e^(lam t) is so
# flat in t that the float test x >= 1 flips many ulps of t away from t*
EXP_SQ_CURVE_PAIRS = [
    *[(lam, theta) for lam in (-2.0, -1.0 / 3.0, 0.0, 1.0 / 3.0, 2.0) for theta in (1e-300, 1.0 / 6.0, 1.0, 50.0)],
    (-1.0 / 3.0, 1.0 / 3.0 + 1e-9), (-2.0, 2.0 * (1.0 + 1e-12)),
]


@pytest.mark.parametrize("lam, theta", EXP_SQ_CURVE_PAIRS)
def test_exp_sq_curve_matches_exp_sq_bound_point_by_point(lam, theta):
    # values bit for bit, and NaN and invalid exactly where exp_sq_bound raises, on a
    # dense grid, the 101 floats about t*, a window of +-2e-8 t* about it, and t < 0 or inf
    p = LyapunovParams(nu=3.0, lam=lam)
    tstar = explosion_time(p, theta)
    top = 2.0 * tstar if tstar is not None else 100.0
    grid = [top * k / 400 for k in range(401)] + [-1.0, -1e-300, math.inf]
    if tstar is not None:
        below = tstar
        for _ in range(50):
            below = math.nextafter(below, 0.0)
        grid.append(below)
        for _ in range(100):
            grid.append(math.nextafter(grid[-1], math.inf))
        grid += [tstar * (1.0 + 1e-9 * j) for j in range(-20, 21)]
    for r0 in (0.0, 0.8):
        curve = exp_sq_curve(p, r0, theta, grid)
        assert curve.grid == grid and curve.explosion_point == tstar
        for t, v, ok in zip(grid, curve.values, curve.valid):
            try:
                want = exp_sq_bound(p, r0, t, theta)
            except DomainError:
                assert math.isnan(v) and not ok, t
            else:
                assert (v, ok) == (want, math.isfinite(want)), t
        assert any(curve.valid) and not any(curve.valid[401:404])


def test_curves_to_csv_matches_each_curve_and_per_point_text():
    # curves on one grid, on equal grids of other float objects (numpy's), and on
    # grids equal in value but not in repr (-0.0 and 0.0), in runs and interleaved
    p = LyapunovParams(nu=3.0, lam=-1.0 / 3.0)
    grid = [8.0 * (k + 1) / 50 for k in range(50)]
    shared = [exp_sq_curve(p, 0.5, theta, grid) for theta in (1.0 / 6.0, 1.0)]
    from_numpy = [exp_dist_curve(p, 0.0, 1.0 / 6.0, np.array(grid)) for _ in range(2)]
    signed = [BoundCurve(grid=[x, 1.5], values=[1.0, math.nan], valid=[True, False]) for x in (-0.0, 0.0, -0.0)]
    empty = BoundCurve(grid=[], values=[], valid=[])
    curves = [*shared, *from_numpy, shared[0], *signed, empty, shared[1]]
    texts = curves_to_csv(curves)
    assert texts == [curve_to_csv(c) for c in curves] == [curve_csv_by_point(c) for c in curves]
    assert [t.split("\n")[1][:5] for t in texts[5:8]] == ["-0.0,", "0.0,1", "-0.0,"]
    assert curves_to_csv([]) == []
