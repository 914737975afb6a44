import dataclasses
import math

import mpmath as mp
import numpy as np
import pytest

from tubebound.errors import DomainError
from tubebound.modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    LyapunovParams,
    SphereInEuclidean,
    _gaussian_law,
    exact_exp_moment,
    exact_moment,
    lyapunov_params,
    radial_laplacian_half_sq,
    revuz_mean_local_time,
    scenario_from_kv,
)

from oracles import (
    circle_mean_local_time_fourier,
    circle_mean_local_time_quad,
    exp1_quad,
    flat_mgf_mpmath,
    flat_radial_moment,
    flat_radial_moment_gh,
    gaussian_law_by_kind,
    h3_mgf_quad,
    h3_moment_quad,
    lyapunov_pair_by_kind,
    radial_laplacian_half_sq_by_kind,
    sphere_mean_local_time_mpmath,
)


# ----------------------------------------------------------------- scenarios

def test_scenario_validation():
    with pytest.raises(DomainError):
        EuclideanAffine(m=2, n=2)
    with pytest.raises(DomainError):
        CirclePoint(r0=4.0)
    with pytest.raises(DomainError):
        HyperbolicH3Point(kappa=0.5)
    with pytest.raises(DomainError):
        SphereInEuclidean(m=2, radius=-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite_parameters(bad):
    for make in (
        lambda: EuclideanAffine(m=3, n=0, r0=bad),
        lambda: CirclePoint(r0=bad),
        lambda: HyperbolicH3Point(r0=bad),
        lambda: HyperbolicH3Point(kappa=bad),
        lambda: SphereInEuclidean(m=2, radius=bad),
        lambda: LyapunovParams(nu=bad, lam=0.0),
        lambda: LyapunovParams(nu=3.0, lam=bad),
    ):
        with pytest.raises(DomainError):
            make()


def test_scenario_rejects_non_integer_dimensions():
    # a float dimension would reach exact_moment and lyapunov_params as d = 1.5
    # while the sampler's d == 2 / d > 2 tests drew the d = 1 law
    for make in (
        lambda: EuclideanAffine(m=3, n=1.5),
        lambda: EuclideanAffine(m=2.5, n=0),
        lambda: EuclideanAffine(m=3.0, n=0),
        lambda: SphereInEuclidean(m=2.5),
    ):
        with pytest.raises(DomainError, match="integer"):
            make()
    assert EuclideanAffine(m=np.int64(3), n=np.int64(1)).m == 3


def test_sphere_starts_at_centre():
    assert SphereInEuclidean(m=3, radius=2.5).r0 == 2.5


def test_scenario_kv_round_trip():
    # every kind with every field given; the scenario's fields print back the kv
    table = [
        ({"kind": "flat", "m": "3", "n": "1", "r0": "0.5"}, EuclideanAffine(m=3, n=1, r0=0.5)),
        ({"kind": "circle", "r0": repr(math.pi / 2)}, CirclePoint(r0=math.pi / 2)),
        ({"kind": "h3", "kappa": "-2.0", "r0": "0.25"}, HyperbolicH3Point(kappa=-2.0, r0=0.25)),
        ({"kind": "sphere", "m": "4", "radius": "1.5"}, SphereInEuclidean(m=4, radius=1.5)),
    ]
    for kv, want in table:
        got = scenario_from_kv(kv)
        assert got == want and type(got) is type(want)
        fields = {k: repr(v) for k, v in dataclasses.asdict(got).items()}
        assert {"kind": got.kind, **fields} == kv


def test_scenario_kv_defaults():
    assert scenario_from_kv({"kind": "flat"}) == EuclideanAffine(m=3, n=0, r0=0.0)
    assert scenario_from_kv({"kind": "sphere"}) == SphereInEuclidean(m=2, radius=1.0)
    assert scenario_from_kv({"kind": "circle"}) == CirclePoint(r0=0.0)
    assert scenario_from_kv({"kind": "h3", "r0": "1"}) == HyperbolicH3Point(kappa=-1.0, r0=1.0)


def test_scenario_kv_rejects_unparsable_values():
    with pytest.raises(DomainError):
        scenario_from_kv({"kind": "flat", "m": "abc"})
    with pytest.raises(DomainError):
        scenario_from_kv({"kind": "sphere", "m": "2.5"})
    with pytest.raises(DomainError):
        scenario_from_kv({"kind": "h3", "kappa": "nan"})


def test_scenario_kv_rejects_unknown_keys():
    with pytest.raises(DomainError):
        scenario_from_kv({"kind": "circle", "m": "3"})
    with pytest.raises(DomainError):
        scenario_from_kv({"kind": "torus"})
    with pytest.raises(DomainError):
        scenario_from_kv({"r0": "1.0"})


# ----------------------------------------------------------- lyapunov_params

def test_lyapunov_flat_affine_equality_case():
    p = lyapunov_params(EuclideanAffine(m=3, n=1))
    assert (p.nu, p.lam, p.exact) == (2.0, 0.0, True)


def test_lyapunov_h3():
    p = lyapunov_params(HyperbolicH3Point(kappa=-1.0))
    assert (p.nu, p.lam, p.exact) == (3.0, 2.0 / 3.0, False)


def test_lyapunov_sphere_absorbed_linear_term():
    p = lyapunov_params(SphereInEuclidean(m=2, radius=1.0))
    assert (p.nu, p.lam) == (1.5, 0.5)


def test_lyapunov_circle():
    p = lyapunov_params(CirclePoint())
    assert (p.nu, p.lam, p.exact) == (1.0, 0.0, False)


@pytest.mark.parametrize(
    "scenario,rmax",
    [
        (EuclideanAffine(m=3, n=1), 10.0),
        (EuclideanAffine(m=5, n=0), 10.0),
        (CirclePoint(), math.pi - 1e-9),
        (HyperbolicH3Point(kappa=-1.0), 10.0),
        (HyperbolicH3Point(kappa=-4.0), 10.0),
        (SphereInEuclidean(m=2, radius=1.0), 10.0),
        (SphereInEuclidean(m=4, radius=0.5), 10.0),
    ],
)
def test_master_inequality_on_grid(scenario, rmax):
    p = lyapunov_params(scenario)
    for r in np.linspace(rmax / 1000.0, rmax, 1000):
        lhs = radial_laplacian_half_sq(scenario, float(r))
        assert lhs <= p.nu + p.lam * r * r + 1e-12


def _scenario_sweep():
    for m in range(2, 10):
        for r0 in (0.0, 1.3):
            yield from (EuclideanAffine(m=m, n=n, r0=r0) for n in range(m))
    for radius in (0.7, 1.0 / 3.0, 3.0, 50.0):
        yield from (SphereInEuclidean(m=m, radius=radius) for m in range(2, 10))
    for r0 in (0.0, 1.3):
        yield from (HyperbolicH3Point(kappa=kappa, r0=r0) for kappa in (-0.01, -1.0, -4.0, -20.0))
        yield CirclePoint(r0=r0)


def test_geometry_gives_each_kinds_closed_forms():
    # the pair and the Gaussian law to the bit (the sign of lam = 0 too), 1/2 Lap r^2 to rounding
    for s in _scenario_sweep():
        p = lyapunov_params(s)
        nu, lam, exact = lyapunov_pair_by_kind(s)
        assert (p.nu, p.lam, p.exact) == (nu, lam, exact), s
        assert math.copysign(1.0, p.lam) == math.copysign(1.0, lam), s
        for t in (0.3, 2.0):
            assert _gaussian_law(s, t) == gaussian_law_by_kind(s, t), s
        for r in (0.01, 0.3, 1.0, 2.5, 7.0, 300.0):
            if s.kind != "circle" or r < math.pi:
                want = radial_laplacian_half_sq_by_kind(s, r)
                assert radial_laplacian_half_sq(s, r) == pytest.approx(want, rel=1e-14, abs=0.0), (s, r)


def test_radial_laplacian_domain():
    for s in (EuclideanAffine(m=3, n=1), CirclePoint(), HyperbolicH3Point(), SphereInEuclidean(m=3)):
        for r in (0.0, -1.0):
            with pytest.raises(DomainError):
                radial_laplacian_half_sq(s, r)
    for r in (math.pi, 4.0):
        with pytest.raises(DomainError):
            radial_laplacian_half_sq(CirclePoint(), r)


def test_sphere_inner_branch_also_below_master():
    s = SphereInEuclidean(m=2, radius=1.0)
    p = lyapunov_params(s)
    for r in np.linspace(1e-3, s.radius - 1e-3, 200):
        inner = 1.0 - (s.m - 1) * r / (s.radius - r)
        assert inner <= p.nu + p.lam * r * r


# -------------------------------------------------------------- exact_moment

def test_h3_second_moment_value():
    # E r^2 = 3t - kappa t^2
    assert exact_moment(HyperbolicH3Point(kappa=-1.0), 1, 2.0) == pytest.approx(10.0, rel=1e-13)


def test_flat_fourth_moment_is_three():
    s = EuclideanAffine(m=1, n=0, r0=0.0)
    assert exact_moment(s, 2, 1.0) == pytest.approx(3.0, rel=1e-13)
    assert exact_moment(s, 2, 1.0) == pytest.approx(flat_radial_moment_gh(1, 0.0, 1.0, 2), rel=1e-10)


def test_circle_moment_limit():
    assert exact_moment(CirclePoint(), 1, math.inf) == pytest.approx(math.pi**2 / 3.0)
    assert exact_moment(CirclePoint(), 1, 5.0) is None
    assert exact_moment(SphereInEuclidean(m=2, radius=1.0), 1, 1.0) is None


def test_flat_moments_match_quadrature_oracle():
    for d in (1, 2, 3):
        for r0 in (0.0, 1.0):
            for t in (0.5, 1.0, 2.0):
                for p in (1, 2, 3):
                    s = EuclideanAffine(m=d, n=0, r0=r0)
                    got = exact_moment(s, p, t)
                    assert got == pytest.approx(flat_radial_moment_gh(d, r0, t, p), rel=1e-8)
                    assert got == pytest.approx(flat_radial_moment(d, r0, t, p), rel=1e-12)


def test_h3_moments_match_density_quadrature():
    for t in (0.5, 1.0, 2.0):
        for p in (1, 2, 3):
            got = exact_moment(HyperbolicH3Point(kappa=-1.0), p, t)
            assert got == pytest.approx(h3_moment_quad(-1.0, p, t), rel=1e-9)
    got = exact_moment(HyperbolicH3Point(kappa=-2.5), 2, 1.5)
    assert got == pytest.approx(h3_moment_quad(-2.5, 2, 1.5), rel=1e-9)


def test_h3_moment_unavailable_off_pole():
    assert exact_moment(HyperbolicH3Point(kappa=-1.0, r0=1.0), 1, 1.0) is None


# ---------------------------------------------------------- exact_exp_moment

def test_exp_moment_at_zero_theta_everywhere():
    for s in (
        EuclideanAffine(m=2, n=0),
        CirclePoint(),
        HyperbolicH3Point(),
        SphereInEuclidean(m=3, radius=1.0),
    ):
        assert exact_exp_moment(s, 0.0, 1.0) == 1.0


def test_flat_exp_moment_formula():
    x, theta, t = 0.7, 0.3, 1.2
    s = EuclideanAffine(m=1, n=0, r0=x)
    want = (1.0 - theta * t) ** -0.5 * math.exp(theta * x * x / (2.0 * (1.0 - theta * t)))
    got = exact_exp_moment(s, theta, t)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(flat_mgf_mpmath(1, x, t, theta), rel=1e-12)


def test_h3_exp_moment_value():
    got = exact_exp_moment(HyperbolicH3Point(kappa=-1.0), 0.1, 1.0)
    want = 0.9**-1.5 * math.exp(0.1 / 1.8)
    assert got == pytest.approx(want, rel=1e-14)
    assert got == pytest.approx(1.2381228, abs=1e-7)
    assert got == pytest.approx(h3_mgf_quad(-1.0, 0.1, 1.0), rel=1e-9)


def test_exp_moment_domain_error():
    with pytest.raises(DomainError):
        exact_exp_moment(EuclideanAffine(m=1, n=0), 1.0, 1.0)
    with pytest.raises(DomainError):
        exact_exp_moment(HyperbolicH3Point(), 2.0, 0.5)


def test_exp_moment_past_float_range_raises_domain_error():
    # exponents 1237.5 (flat, r0 = 5) and 19602 (H^3 at kappa = -400, c = 20):
    # inside theta t < 1, but e^that is no float
    for s in (EuclideanAffine(m=1, n=0, r0=5.0), HyperbolicH3Point(kappa=-400.0)):
        with pytest.raises(DomainError, match="float range"):
            exact_exp_moment(s, 0.99, 1.0)
    # just inside the range (exponent 677.7), the closed form to 30 digits
    with mp.workdps(30):
        theta, r0 = mp.mpf(0.99), mp.mpf(3.7)
        want = (1 - theta) ** -0.5 * mp.exp(theta * r0**2 / (2 * (1 - theta)))
    assert exact_exp_moment(EuclideanAffine(m=1, n=0, r0=3.7), 0.99, 1.0) == pytest.approx(float(want), rel=1e-13)


def test_exp_moment_unavailable():
    assert exact_exp_moment(CirclePoint(), 0.1, 1.0) is None
    assert exact_exp_moment(SphereInEuclidean(m=2, radius=1.0), 0.1, 1.0) is None


# ------------------------------------------------------ revuz_mean_local_time

def test_sphere_mean_local_time_value():
    got = revuz_mean_local_time(SphereInEuclidean(m=2, radius=1.0), 1.0)
    assert got == pytest.approx(exp1_quad(0.5), rel=1e-10)
    assert got == pytest.approx(0.55977, abs=5e-6)


def test_sphere_mean_local_time_vanishes_at_zero_time():
    got = revuz_mean_local_time(SphereInEuclidean(m=3, radius=1.0), 1e-8)
    assert got == pytest.approx(0.0, abs=1e-12)


def test_sphere_mean_local_time_past_gamma_overflow():
    # Gamma(m/2) overflows from m = 344; the mean is radius Q(m/2 - 1, x) / (m/2 - 1)
    for m in (344, 400, 1000):
        for radius, t in ((1.0, 1.0), (2.0, 0.01), (30.0, 1.0)):
            want = sphere_mean_local_time_mpmath(m, radius, t)
            assert revuz_mean_local_time(SphereInEuclidean(m=m, radius=radius), t) == pytest.approx(want, rel=1e-12)


def test_sphere_gamma_zero_misuse():
    with pytest.raises(DomainError):
        revuz_mean_local_time(SphereInEuclidean(m=2, radius=1.0), math.inf)


def test_circle_mean_local_time_large_time_expansion():
    # E L_t = t/(2 pi) - pi/6 + o(1) for the antipodal point; the o(1) tail
    # is (2/pi) e^{-t/2} + ..., visible at t = 20 and negligible at t = 50
    s = CirclePoint(r0=math.pi)
    for t, tol in ((20.0, 5e-5), (50.0, 1e-6)):
        want = t / (2.0 * math.pi) - math.pi / 6.0
        assert revuz_mean_local_time(s, t) == pytest.approx(want, abs=tol)


def test_circle_mean_local_time_slope():
    s = CirclePoint(r0=math.pi)
    t = 600.0
    slope = revuz_mean_local_time(s, t) / t
    assert slope == pytest.approx(1.0 / (2.0 * math.pi), rel=1e-2)


@pytest.mark.parametrize(
    "d,t", [(1e-4, 45.0), (1e-3, 45.0), (1.7314866157472324, 60.0)]
)
def test_circle_mean_local_time_affine_asymptote(d, t):
    # E L_t = t/2pi + d^2/2pi - d + pi/3 up to about e^{-t/2}; adaptive
    # quadrature of the kernel missed this by ~d at small d and by 5.5e-6
    # at the last point
    want = t / (2.0 * math.pi) + d * d / (2.0 * math.pi) - d + math.pi / 3.0
    assert revuz_mean_local_time(CirclePoint(r0=d), t) == pytest.approx(want, abs=1e-8)


def test_circle_mean_local_time_matches_fourier_series():
    for t in (0.05, 0.3, 1.0, 5.0, 20.0):
        for d in (0.0, 0.7, 2.0, math.pi):
            got = revuz_mean_local_time(CirclePoint(r0=d), t)
            assert got == pytest.approx(circle_mean_local_time_fourier(t, d), rel=0.0, abs=1e-13)


def test_circle_mean_local_time_matches_quadrature():
    for k in range(1, 13):
        d = math.pi * k / 12.0
        for t in (1.0, 45.0, 60.0):
            got = revuz_mean_local_time(CirclePoint(r0=d), t)
            assert got == pytest.approx(circle_mean_local_time_quad(d, t), abs=1e-10)


def test_revuz_at_infinite_t():
    # the circle's mean local time grows like t / 2 pi; the sphere's (m > 2) tends to radius / (m/2 - 1)
    with pytest.raises(DomainError):
        revuz_mean_local_time(CirclePoint(), math.inf)
    assert revuz_mean_local_time(SphereInEuclidean(m=3, radius=1.0), math.inf) == 2.0


def test_revuz_unavailable_for_flat():
    assert revuz_mean_local_time(EuclideanAffine(m=2, n=1), 1.0) is None
