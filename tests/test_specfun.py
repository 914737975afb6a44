import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special as sps

from tubebound.errors import ConvergenceError, DomainError
from tubebound.specfun import (
    comparison,
    kummer,
    kummerm1,
    laguerre,
    lemma_laguerre_rhs,
    _series_m1,
    upper_gamma,
)

from oracles import exp1_quad, kummer_m1_mpmath, laguerre_direct_sum, upper_gamma_mpmath, upper_gamma_quad


# ---------------------------------------------------------------- comparison

def test_comparison_flat():
    v = comparison(0.0, 0.0, 2.0)
    assert v.s == 2.0
    assert v.c == 1.0
    assert v.g == 0.0
    assert v.f == 0.0


def test_comparison_log_derivative_of_exp():
    # kappa=-1, lam=1: c + s = e^t, so f = 1 exactly
    v = comparison(-1.0, 1.0, 3.0)
    assert v.f == pytest.approx(1.0, rel=1e-14)


def test_comparison_g_value_and_lemma_bound():
    v = comparison(-1.0, 0.0, 10.0)
    assert v.g == pytest.approx(1.0 / math.tanh(10.0) - 0.1, rel=1e-13)
    assert v.g == pytest.approx(0.90000, abs=5e-6)
    assert v.g <= 1.0


@given(
    kappa=st.floats(-10.0, 10.0),
    lam=st.floats(-3.0, 3.0),
    t=st.floats(0.05, 5.0),
)
@settings(max_examples=200)
def test_c_is_derivative_of_s(kappa, lam, t):
    h = 1e-5 * max(t, 1.0)
    try:
        lo = comparison(kappa, lam, t - h)
        mid = comparison(kappa, lam, t)
        hi = comparison(kappa, lam, t + h)
    except DomainError:
        return
    fd = (hi.s - lo.s) / (2.0 * h)
    assert mid.c == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_comparison_bounds_negative_curvature():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        kappa = -rng.uniform(0.01, 10.0)
        lam = rng.uniform(-5.0, 5.0)
        a = math.sqrt(-kappa)
        tmax = math.atanh(min(a / -lam, 1.0 - 1e-12)) / a if lam < -a else 10.0
        t = rng.uniform(0.0, 0.99 * tmax) + 1e-6
        v = comparison(kappa, lam, t)
        assert v.g <= a * (1.0 + 1e-12)
        assert v.f <= max(lam, a) * (1.0 + 1e-12) + 1e-12


def test_f_monotonicity_dichotomy():
    rng = np.random.default_rng(8)
    for _ in range(1000):
        kappa = -rng.uniform(0.01, 10.0)
        a = math.sqrt(-kappa)
        lam = rng.uniform(-5.0, 5.0)
        tmax = math.atanh(min(a / -lam, 1.0 - 1e-12)) / a if lam < -a else 8.0
        t1 = rng.uniform(1e-3, 0.5 * tmax)
        t2 = rng.uniform(t1 + 1e-3 * tmax, 0.98 * tmax)
        f1 = comparison(kappa, lam, t1).f
        f2 = comparison(kappa, lam, t2).f
        if abs(lam) < a:
            assert f2 > f1
        else:
            assert f2 <= f1 + 1e-12


def test_comparison_domain_errors():
    with pytest.raises(DomainError):
        comparison(1.0, 0.0, math.pi + 0.1)  # S <= 0
    with pytest.raises(DomainError):
        comparison(0.0, -1.0, 2.0)  # C + lam*S = -1
    with pytest.raises(DomainError):
        comparison(-1.0, 0.0, 0.0)  # t must be positive


# ------------------------------------------------------------------ laguerre

def test_laguerre_order_zero():
    assert laguerre(0, 0.3, 5.0) == 1.0


def test_laguerre_gaussian_second_moment_link():
    # (2 sigma^2) 1! L^{-1/2}_1(-mu^2 / 2 sigma^2) equals E X^2 = mu^2 + sigma^2;
    # oracle: Monte Carlo second moment of a scalar Gaussian
    mu, sigma = 1.3, 0.7
    z0 = mu**2 / (2.0 * sigma**2)
    assert laguerre(1, -0.5, -z0) == pytest.approx(0.5 + z0, rel=1e-14)
    closed = 2.0 * sigma**2 * laguerre(1, -0.5, -z0)
    assert closed == pytest.approx(mu**2 + sigma**2, rel=1e-14)
    rng = np.random.default_rng(123)
    draws = mu + sigma * rng.standard_normal(100_000)
    m2 = np.mean(draws**2)
    stderr = np.std(draws**2, ddof=1) / math.sqrt(draws.size)
    assert abs(m2 - closed) <= 3.0 * stderr


def test_laguerre_generating_identity_partial_sum():
    # sum_p gamma^p L^alpha_p(z) -> (1-gamma)^-(alpha+1) exp(-z gamma/(1-gamma))
    gamma, alpha, z = 0.5, 0.5, 1.0
    s = sum(gamma**p * laguerre(p, alpha, z) for p in range(61))
    target = 2.0**1.5 * math.exp(-1.0)
    assert s == pytest.approx(target, rel=1e-8)
    assert target == pytest.approx(1.04052, abs=1e-5)


@given(
    p=st.integers(0, 10),
    alpha=st.floats(-0.9, 10.0),
    z=st.floats(-20.0, 0.0),
)
@settings(max_examples=200)
def test_laguerre_recurrence_matches_direct_sum(p, alpha, z):
    # z <= 0 is the regime the bounds evaluate; every sum term is positive there
    direct = laguerre_direct_sum(p, alpha, z)
    rec = laguerre(p, alpha, z)
    assert rec == pytest.approx(direct, rel=1e-10, abs=1e-10)


@given(
    p=st.integers(0, 10),
    alpha=st.floats(-0.9, 10.0),
    z=st.floats(0.0, 10.0),
)
@settings(max_examples=100)
def test_laguerre_recurrence_vs_direct_sum_alternating(p, alpha, z):
    # positive z alternates, so compare at the cancellation-limited accuracy
    direct = laguerre_direct_sum(p, alpha, z)
    rec = laguerre(p, alpha, z)
    scale = sum(
        abs(laguerre_direct_sum(p, alpha, 0.0)) * z**k / math.factorial(k) for k in range(p + 1)
    )
    assert abs(rec - direct) <= 1e-9 * max(scale, 1.0)


# -------------------------------------------------------------------- kummer

def test_kummer_at_zero():
    assert kummer(1.5, 0.5, 0.0) == 1.0


def test_kummer_exponential_case():
    assert kummer(0.5, 0.5, 2.0) == pytest.approx(math.exp(2.0), rel=1e-14)


def test_kummer_terminating_polynomial():
    for u in (0.3, 1.0, 4.2):
        assert kummer(-1.0, 1.5, -u) == pytest.approx(1.0 + 2.0 * u / 3.0, rel=1e-14)


@given(b=st.floats(0.3, 4.0), z=st.floats(0.0, 5.0), k=st.integers(0, 3))
@settings(max_examples=150)
def test_kummer_transform_on_terminating_cases(b, z, k):
    # 1F1(a, b, z) = e^z 1F1(b-a, b, -z) with b - a = -k
    a = b + k
    lhs = kummer(a, b, z)
    rhs = math.exp(z) * kummer(-float(k), b, -z)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_kummer_against_scipy_grid():
    for a in (0.5, 1.0, 1.5, 2.5):
        for z in (0.1, 1.0, 5.0, 20.0):
            assert kummer(a, 0.5, z) == pytest.approx(float(sps.hyp1f1(a, 0.5, z)), rel=1e-12)


@given(
    a=st.floats(0.0, 8.0, exclude_min=True, allow_subnormal=False),
    b=st.floats(0.25, 8.0),
    z=st.floats(0.0, 2000.0),
)
@settings(max_examples=300, deadline=None)
def test_kummer_matches_mpmath(a, b, z):
    # both regimes, the switch between them and the edge of float range; a tiny a
    # (1e-301 at z = 816) needs the series to run past its first, tiny terms. A
    # subnormal a is left out: kummerm1 sums it at a 2^600, but where 1F1 - 1 passes
    # 2^424 that sum overflows and the unscaled one keeps only a few bits of its
    # subnormal first term a z / b (test_kummerm1_subnormal_a_matches_mpmath covers
    # the rest).
    ref = 1 + kummer_m1_mpmath(a, b, z)
    if ref > sys.float_info.max:
        with pytest.raises(ConvergenceError):
            kummer(a, b, z)
        return
    assert abs(kummer(a, b, z) - ref) <= 1e-13 * ref


@pytest.mark.parametrize("a, b, z", [(1.0, 40.0, 60.0), (7.0, 0.5, 50.0)])
def test_kummer_explicit_cases_match_mpmath(a, b, z):
    # (1, 40, 60): the expansion's sum is exact (1 - a = 0) but the part it drops
    # is 1e-3 relative, so the series must be used; (7, 0.5, 50): nu = 14 at z = 50
    ref = 1 + kummer_m1_mpmath(a, b, z)
    assert abs(kummer(a, b, z) - ref) <= 1e-14 * ref


@given(
    a=st.floats(0.5, 6.0),
    b=st.floats(0.25, 4.0),
    z=st.just(0.0) | st.floats(1e-300, 1e-3),  # 1F1 - 1 ~ a z / b stays a normal float
)
@settings(max_examples=100, deadline=None)
def test_kummerm1_has_no_cancellation_near_zero(a, b, z):
    # kummer(a, b, z) - 1 keeps only ~1e-16 / z of its digits here
    ref = kummer_m1_mpmath(a, b, z)
    assert abs(kummerm1(a, b, z) - ref) <= 1e-14 * abs(ref)


@given(
    b=st.floats(0.25, 8.0),
    n=st.integers(0, 12),
    # from 1e-300, so that 1F1 - 1 ~ n z / b stays a normal float with 14 digits to test
    z=st.just(0.0) | st.floats(1e-300, 1e-3) | st.floats(1e-300, 2000.0),
)
@example(b=0.5, n=0, z=709.78)  # e^z just below float max: finite
@example(b=0.5, n=1, z=705.0)  # 1411 e^705 is past float max: raises
# nu = 3 and 5 at the B just either side of z = 50, where a non-terminating
# a = nu/2 switches from the series to the large-z expansion
@example(b=0.5, n=1, z=49.99995003119928)
@example(b=0.5, n=1, z=50.000050031199336)
@example(b=0.5, n=2, z=49.99995003119928)
@example(b=0.5, n=2, z=50.000050031199336)
@settings(max_examples=300, deadline=None)
def test_kummerm1_terminating_matches_mpmath(b, n, z):
    # a - b = n: 1F1 is e^z times a polynomial of degree n with positive terms
    a = b + n
    ref = kummer_m1_mpmath(a, b, z)
    if 1 + ref > sys.float_info.max:
        with pytest.raises(ConvergenceError):
            kummerm1(a, b, z)
        return
    assert abs(kummerm1(a, b, z) - ref) <= 1e-14 * abs(ref)


@pytest.mark.parametrize("nu", range(3, 43, 2))
def test_kummerm1_terminating_sum_is_the_series_bit_for_bit(nu):
    # P - 1 summed in its n terms has the bits of the series, whose convergence tests
    # only ever stop it past the terms that can still change the sum
    n, b = (nu - 1) // 2, 0.5
    for z in (0.0, 1e-300, 1e-8, 0.3, 1.0, 7.0, 49.9, 50.0, 300.0, 709.0):
        pm1 = _series_m1(-float(n), b, -z)
        want = math.expm1(z) * (1.0 + pm1) + pm1
        if not math.isfinite(want):
            with pytest.raises(ConvergenceError):
                kummerm1(nu / 2.0, b, z)
        else:
            assert kummerm1(nu / 2.0, b, z) == want, z


def test_kummerm1_terminating_past_the_term_cap_is_loud():
    with pytest.raises(ConvergenceError):
        kummerm1(0.5 + 100_001, 0.5, 1e-3)
    a = 0.5 + 100_000  # at the cap: summed, 1F1 - 1 = a z / b to O(z)
    assert kummerm1(a, 0.5, 1e-300) == pytest.approx(a * 1e-300 / 0.5, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("a, b, z", [
    (5e-324, 0.25, 731.0), (5e-324, 0.25, 816.0), (-1e-320, 1.5, 40.0),
    (2e-308, 0.25, 1050.0),  # 1F1 - 1 = 1.3e148: the sum at a 2^600 overflows, so a is taken as it is
])
def test_kummerm1_subnormal_a_matches_mpmath(a, b, z):
    # at 60 digits mpmath rounds 1F1 - 1 to 0 here, so the reference takes 400
    import mpmath as mp

    with mp.workdps(400):
        ref = mp.hyp1f1(a, b, z) - 1
        assert abs((kummerm1(a, b, z) - ref) / ref) <= 1e-13


def test_kummer_nonconvergence_is_loud():
    with pytest.raises(ConvergenceError):
        kummer(1.0, 2.0, 1e7)


def test_kummer_rejects_bad_b():
    with pytest.raises(DomainError):
        kummer(1.0, -2.0, 1.0)


@pytest.mark.parametrize(
    "args", [(math.nan, 0.5, 1.0), (1.0, math.nan, 1.0), (1.0, math.nan, 60.0), (1.0, 0.5, math.nan), (1.5, 0.5, math.nan)]
)
def test_kummer_rejects_nan(args):
    # not a ConvergenceError, which callers read as an overflow
    with pytest.raises(DomainError):
        kummerm1(*args)


@pytest.mark.parametrize("z", [1.0, 60.0])
def test_kummer_rejects_b_minus_inf(z):
    # 1F1 has a pole at every non-positive integer b, so it has no limit as b -> -inf
    with pytest.raises(DomainError, match="-inf"):
        kummerm1(1.0, -math.inf, z)


# --------------------------------------------------------------- upper_gamma

def test_upper_gamma_complete():
    assert upper_gamma(2.0, 0.0) == pytest.approx(1.0, rel=1e-15)


def test_upper_gamma_exponential_integral_value():
    assert upper_gamma(0.0, 1.0) == pytest.approx(exp1_quad(1.0), rel=1e-10)
    assert upper_gamma(0.0, 1.0) == pytest.approx(0.219384, abs=5e-7)


def test_upper_gamma_euler_mascheroni():
    x = 1.0 / (2.0e6)
    val = math.log(2.0e6 + 1.0) - upper_gamma(0.0, x)
    assert abs(val - 0.5772157) <= 1e-3


def test_upper_gamma_branch_continuity():
    lo = upper_gamma(0.0, 1.0 - 1e-9)
    hi = upper_gamma(0.0, 1.0 + 1e-9)
    assert lo == pytest.approx(hi, rel=1e-7)


def test_upper_gamma_against_quadrature_grid():
    for a in (0.0, 0.5, 1.0, 2.5, 6.0):
        for x in (0.05, 0.4, 1.0, 3.0, 12.0):
            if a == 0.0 and x == 0.0:
                continue
            assert upper_gamma(a, x) == pytest.approx(upper_gamma_quad(a, x), rel=1e-9)


def test_upper_gamma_against_mpmath():
    # 40-digit references; the worst grid points sit at large x, where e^-x x^a rounds
    for a in (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 6.0, 7.5):
        for x in (0.0, 1e-7, 5e-7, 1e-3, 0.2, 1.0, 5.0, 30.0, 100.0, 525.0, 700.0):
            if a == 0.0 and x == 0.0:
                continue
            assert upper_gamma(a, x) == pytest.approx(upper_gamma_mpmath(a, x), rel=1e-12)


def test_upper_gamma_past_gamma_overflow():
    # Gamma(200) = 3.9e372 leaves the floats; Gamma(200, 1000) = 6.3e162 does not
    assert upper_gamma(200.0, 1000.0) == pytest.approx(upper_gamma_mpmath(200.0, 1000.0), rel=1e-12)
    for x in (10.0, 5000.0):  # Gamma(200, x) = 3.9e372 and 4.4e-1436
        with pytest.raises(DomainError):
            upper_gamma(200.0, x)


def test_upper_gamma_raises_where_q_underflows():
    # Gamma(100, 1200) = 5.28e-217 and Gamma(3, 740) = 2.3e-316, but Q(a, x) underflows
    # below the normal floats at both, so Gamma(a) Q would read 0.0
    for a, x in ((100.0, 1200.0), (3.0, 740.0)):
        with pytest.raises(DomainError):
            upper_gamma(a, x)


def test_upper_gamma_divergent_corner():
    with pytest.raises(DomainError):
        upper_gamma(0.0, 0.0)


# -------------------------------------------------------- lemma_laguerre_rhs

def test_lemma_rhs_empty_product():
    assert lemma_laguerre_rhs(0, 3.0, 7.0) == 1.0


def test_lemma_rhs_degree_one():
    rhs = lemma_laguerre_rhs(1, 0.0, 0.0)
    assert rhs == pytest.approx(12.0, rel=1e-14)
    assert math.factorial(1) * laguerre(1, 0.0, 0.0) <= rhs


def test_lemma_bound_random_sweep():
    rng = np.random.default_rng(11)
    for _ in range(1000):
        p = int(rng.integers(0, 21))
        alpha = rng.uniform(0.0, 10.0)
        z = rng.uniform(0.0, 50.0)
        lhs = math.factorial(p) * laguerre(p, alpha, -z)
        assert lhs <= lemma_laguerre_rhs(p, alpha, z)
