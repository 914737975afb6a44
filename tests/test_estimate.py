import math

import numpy as np
import pytest

from tubebound.errors import DomainError
from tubebound.estimate import (
    MCEstimate,
    estimates_to_csv,
    mc_exp_moment,
    mc_moment,
    occupation,
    occupation_extrapolated,
    path_functional,
    tail_prob,
)
from tubebound.modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    SphereInEuclidean,
)
from tubebound.simulate import sample_path

from oracles import chi_tail, sup_tail_reflection


# ---------------------------------------------------------------- mc_moment

def test_mc_moment_h3_second_moment():
    est = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 1.0, 50_000, seed=21)
    assert abs(est.mean - 4.0) <= 3.0 * est.stderr


def test_mc_moment_flat_fourth_moment():
    est = mc_moment(EuclideanAffine(m=3, n=0), 2, 1.0, 50_000, seed=22)
    assert abs(est.mean - 15.0) <= 3.0 * est.stderr


def test_mc_moment_deterministic_limit():
    est = mc_moment(EuclideanAffine(m=2, n=0, r0=1.0), 1, 1e-6, 5_000, seed=23)
    assert est.mean == pytest.approx(1.0, abs=1e-2)


def test_mc_moment_validates_inputs():
    with pytest.raises(DomainError):
        mc_moment(CirclePoint(), 0, 1.0, 1000, seed=1)
    with pytest.raises(DomainError):
        mc_moment(CirclePoint(), 1, 1.0, 50, seed=1)


def test_mc_moment_reproducible_bit_for_bit():
    a = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 0.5, 2_000, seed=31, partitions=4)
    b = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 0.5, 2_000, seed=31, partitions=4)
    assert a == b
    c = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 0.5, 2_000, seed=31, partitions=2)
    assert a != c  # partition count is part of the reproducibility tuple


# ------------------------------------------------------------ mc_exp_moment

def test_mc_exp_moment_h3_square():
    est = mc_exp_moment(HyperbolicH3Point(kappa=-1.0), 0.1, 1.0, True, 50_000, seed=41)
    want = 0.9**-1.5 * math.exp(0.1 / 1.8)
    assert abs(est.mean - want) <= 3.0 * est.stderr


def test_mc_exp_moment_flat_sqrt_two():
    est = mc_exp_moment(EuclideanAffine(m=1, n=0), 0.5, 1.0, True, 50_000, seed=42)
    assert abs(est.mean - math.sqrt(2.0)) <= 3.0 * est.stderr


def test_mc_exp_moment_zero_theta_exact_one():
    est = mc_exp_moment(CirclePoint(), 0.0, 1.0, False, 1_000, seed=43)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.overflow == 0


def test_mc_exp_moment_overflow_counter():
    est = mc_exp_moment(EuclideanAffine(m=1, n=0), 1e4, 1.0, True, 2_000, seed=44)
    assert est.overflow > 0
    assert math.isfinite(est.mean)


def test_mc_exp_moment_total_overflow_is_loud():
    s = EuclideanAffine(m=1, n=0, r0=100.0)
    with pytest.raises(DomainError):
        mc_exp_moment(s, 1e6, 1.0, True, 200, seed=45)


# ---------------------------------------------------- occupation local time

def test_flat_local_time_at_zero():
    # E L_t = E |B_t| = sqrt(2t/pi) for the local time of |B| at 0
    s = EuclideanAffine(m=1, n=0, r0=0.0)
    n, dt = 2_000, 1e-4
    vals = path_functional(
        s, dt, 1.0, n, 51, lambda v: occupation_extrapolated(v, s, "submanifold", dt, 0.02)
    )
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
    truth = math.sqrt(2.0 / math.pi)
    assert abs(mean - truth) <= 3.0 * stderr
    assert abs(mean - truth) <= 0.05 * truth


def test_richardson_extrapolation_reduces_bias():
    # coarse eps so the O(eps) bias towers over the Monte Carlo noise
    s = EuclideanAffine(m=1, n=0, r0=0.0)
    n, dt, eps = 20_000, 1e-3, 0.4
    raw_full, raw_half = path_functional(
        s, dt, 1.0, n, 52,
        lambda v: np.stack(
            [occupation(v, s, "submanifold", dt, eps), occupation(v, s, "submanifold", dt, eps / 2.0)],
            axis=1,
        ),
    ).T
    extrap = 2.0 * raw_half - raw_full
    truth = math.sqrt(2.0 / math.pi)
    assert abs(np.mean(extrap) - truth) < abs(np.mean(raw_full) - truth)
    assert abs(np.mean(extrap) - truth) < abs(np.mean(raw_half) - truth)


def test_sphere_occupation_matches_closed_form():
    # curvature terms cancel across the symmetric band, so raw and
    # extrapolated estimates both sit on the closed form within noise
    s = SphereInEuclidean(m=2, radius=1.0)
    n, dt, eps = 4_000, 5e-4, 0.2
    raw, extrap = path_functional(
        s, dt, 1.0, n, 56,
        lambda v: np.stack(
            [occupation(v, s, "submanifold", dt, eps), occupation_extrapolated(v, s, "submanifold", dt, eps)],
            axis=1,
        ),
    ).T
    truth = 0.5597735947761607  # Gamma(0, 1/2)
    for vals in (raw, extrap):
        mean = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
        assert abs(mean - truth) <= 3.0 * stderr


def test_master_verification_property():
    # estimate - 3 stderr never exceeds the corresponding bound
    from tubebound.bounds import even_moment_bound, exp_sq_bound, radial_R
    from tubebound.modelspaces import lyapunov_params

    cases = [
        (HyperbolicH3Point(kappa=-1.0), 0.5),
        (HyperbolicH3Point(kappa=-2.0), 1.0),
        (EuclideanAffine(m=3, n=1, r0=1.0), 1.0),
        (SphereInEuclidean(m=2, radius=1.0), 0.5),
        (CirclePoint(r0=0.5), 0.5),
    ]
    for pos, (s, t) in enumerate(cases):
        lp = lyapunov_params(s)
        for p in (1, 2):
            est = mc_moment(s, p, t, 20_000, seed=70 + pos)
            assert est.mean - 3.0 * est.stderr <= even_moment_bound(lp, s.r0, t, p)
        theta = 0.5 / (radial_R(lp.lam, t) * math.exp(lp.lam * t))
        est = mc_exp_moment(s, theta, t, True, 20_000, seed=90 + pos)
        assert est.mean - 3.0 * est.stderr <= exp_sq_bound(lp, s.r0, t, theta)


def test_cut_locus_requires_circle():
    path = sample_path(EuclideanAffine(m=1, n=0), 0.01, 1.0, seed=53)
    with pytest.raises(DomainError):
        occupation(path.values, path.scenario, "cut_locus", path.dt, 0.05)
    with pytest.raises(DomainError):
        occupation(path.values, path.scenario, "nowhere", path.dt, 0.05)


def test_occupation_validates_eps():
    path = sample_path(CirclePoint(), 0.01, 1.0, seed=54)
    with pytest.raises(DomainError):
        occupation(path.values, path.scenario, "submanifold", path.dt, 0.0)


# ------------------------------------------------------------------ tail_prob

def test_tail_prob_point_mode_chi_square():
    est = tail_prob(EuclideanAffine(m=3, n=0), 3.0, 1.0, False, 50_000, None, seed=61)
    want = chi_tail(3, 3.0, 1.0)
    assert want == pytest.approx(0.0293, abs=2e-4)
    assert abs(est.mean - want) <= 3.0 * est.stderr


def test_tail_prob_sup_mode_reflection():
    est = tail_prob(EuclideanAffine(m=1, n=0), 2.0, 1.0, True, 2_000, 1e-3, seed=62)
    want = sup_tail_reflection(2.0, 1.0)
    assert want == pytest.approx(0.0910, abs=1e-4)
    # allow the small negative discretization bias on top of 3 stderr
    assert abs(est.mean - want) <= 3.0 * est.stderr + 0.005


def test_tail_prob_rare_event_stderr_positive():
    est = tail_prob(EuclideanAffine(m=1, n=0), 50.0, 1.0, False, 2_000, None, seed=63)
    assert est.mean == 0.0
    assert est.stderr > 0.0


def test_tail_prob_sup_needs_dt():
    with pytest.raises(DomainError):
        tail_prob(EuclideanAffine(m=1, n=0), 1.0, 1.0, True, 1000, None, seed=64)


# ------------------------------------------------------------------- export

def test_estimates_csv_format():
    rows = [
        ("h3_moment_p1", MCEstimate(mean=4.01, stderr=0.01, n=1000, seed=7, partitions=2)),
    ]
    text = estimates_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "quantity,mean,stderr,n,seed,partitions"
    assert lines[1] == "h3_moment_p1,4.01,0.01,1000,7,2"
