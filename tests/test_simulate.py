import hashlib
import math

import numpy as np
import pytest
from scipy import stats

from tubebound.errors import DomainError
from tubebound.estimate import mc_path_mean
from tubebound.modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    SphereInEuclidean,
    exact_moment,
)
from tubebound.simulate import (
    PathSample,
    grid_steps,
    sample_distances,
    sample_path,
    sample_paths,
    stream,
)

from oracles import cartesian_distances, h3_moment_quad


def _mean_with_stderr(x):
    return float(np.mean(x)), float(np.std(x, ddof=1) / math.sqrt(x.size))


# ------------------------------------------------------------ endpoint draws

def test_flat_plane_second_moment():
    s = EuclideanAffine(m=2, n=0, r0=0.0)
    draws = sample_distances(s, 1.0, stream(101), 100_000)
    mean, stderr = _mean_with_stderr(draws**2)
    assert abs(mean - 2.0) <= 3.0 * stderr


def test_h3_second_moment_closed_form():
    s = HyperbolicH3Point(kappa=-1.0)
    draws = sample_distances(s, 1.0, stream(102), 100_000)
    mean, stderr = _mean_with_stderr(draws**2)
    assert abs(mean - 4.0) <= 3.0 * stderr


def test_h3_moments_against_heat_kernel_quadrature():
    # the six checks read one stream, so they pass or fail together: over seeds
    # 0..399 their mean z lies within 0.08 of 0 and 3 seeds in 400 fail
    s = HyperbolicH3Point(kappa=-1.0)
    for t in (0.5, 1.0, 2.0):
        draws = sample_distances(s, t, stream(103 + 2**20), 100_000)
        for p in (1, 2):
            mean, stderr = _mean_with_stderr(draws ** (2 * p))
            assert abs(mean - h3_moment_quad(-1.0, p, t)) <= 3.0 * stderr


def test_circle_uniform_limit():
    s = CirclePoint(r0=0.0)
    draws = sample_distances(s, 100.0, stream(104), 100_000)
    phat = float(np.mean(draws > math.pi / 2.0))
    stderr = math.sqrt(phat * (1.0 - phat) / draws.size)
    assert abs(phat - 0.5) <= 3.0 * stderr
    assert np.all(draws >= 0.0) and np.all(draws <= math.pi)


def test_sphere_endpoint_moment():
    s = SphereInEuclidean(m=2, radius=1.0)
    draws = sample_distances(s, 1.0, stream(105), 100_000)
    # E (|G| - 1)^2 with |G| ~ chi_2: 3 - 2 E chi_2 = 3 - 2 sqrt(pi/2)
    want = 3.0 - 2.0 * math.sqrt(math.pi / 2.0)
    mean, stderr = _mean_with_stderr(draws**2)
    assert abs(mean - want) <= 3.0 * stderr


def test_h3_off_pole_endpoint_cosh_identity():
    # Lap cosh(a r) = 3 a^2 cosh(a r), so E cosh(a r_t) = cosh(a r0) e^{3 a^2 t / 2};
    # cosh(a r) is heavy-tailed, so its mean reads low more often than high
    for kappa, r0 in ((-1.0, 0.7), (-1.0, 2.0), (-2.0, 1.0)):
        a = math.sqrt(-kappa)
        draws = sample_distances(HyperbolicH3Point(kappa=kappa, r0=r0), 1.0, stream(106), 1_000_000)
        mean, stderr = _mean_with_stderr(np.cosh(a * draws))
        assert abs(mean - math.cosh(a * r0) * math.exp(1.5 * a * a)) <= 3.0 * stderr


@pytest.mark.parametrize(
    "s,want",
    [
        (EuclideanAffine(m=3, n=1, r0=0.5), [1.8609987988263372, 2.689683686021886, 0.9046822366314068]),
        (CirclePoint(r0=1.0), [2.133589870266425, 1.7345402624472719, 0.8947847858694749]),
        (SphereInEuclidean(m=3, radius=2.0), [0.349677180281732, 0.682624980927667, 0.42844136589575466]),
        (SphereInEuclidean(m=2, radius=1.0), [0.4421257431190404, 1.4999716135198429, 0.17922892143611058]),
        (HyperbolicH3Point(kappa=-1.0), [3.7490455228767776, 2.945104071279131, 2.459458412721284]),
    ],
    ids=["flat", "circle", "sphere", "sphere-m2", "h3-pole"],
)
def test_gaussian_endpoint_draws_golden(s, want):
    # first draws of stream(7, 3), pinned bit for bit; each equals its
    # construction from that stream's raw draws: the circle's normals wrapped
    # by np.mod, the others one normal about c = x0 + a t (r0 flat, 0 at the
    # sphere's centre, a t at the H^3 pole), then the chi-square, in the draw
    # order test_radial_endpoint_draws_golden spells out
    assert sample_distances(s, 2.0, stream(7, 3), 3).tolist() == want


def test_radial_endpoint_draws_golden():
    # the documented draw order of one call on stream(7, 3): the normals Z,
    # then (H^3 off the pole) the uniforms of the cosine w, then the chi-square
    t, n, c = 2.0, 3, math.sqrt(2.0)

    def rng():
        return stream(7, 3)

    g = rng()  # flat R^2 from r0 = 0.5: Z'^2 is the chi-square with one degree
    z, z2 = g.standard_normal(n), g.standard_normal(n)
    want = np.sqrt((0.5 + c * z) ** 2 + t * z2**2)
    assert sample_distances(EuclideanAffine(m=3, n=1, r0=0.5), t, rng(), n).tolist() == want.tolist()

    g = rng()  # the sphere of radius 2 in R^3: 2 Gamma(1) has two degrees
    z, gam = g.standard_normal(n), g.standard_gamma(1.0, n)
    want = np.abs(np.sqrt((c * z) ** 2 + t * (2.0 * gam)) - 2.0)
    assert sample_distances(SphereInEuclidean(m=3, radius=2.0), t, rng(), n).tolist() == want.tolist()

    g = rng()  # H^3 of curvature -1 from r0 = 0.7: c^2 = t^2 + 2 t r0 w + r0^2
    z, u, gam = g.standard_normal(n), g.random(n), g.standard_gamma(1.0, n)
    w = 1.0 + np.log1p(u * math.expm1(-1.4)) / 0.7
    centre = np.sqrt(np.maximum(t * t + 2.0 * t * 0.7 * w + 0.7 * 0.7, 0.0))
    want = np.sqrt((c * z + centre) ** 2 + t * (2.0 * gam))
    assert sample_distances(HyperbolicH3Point(r0=0.7), t, rng(), n).tolist() == want.tolist()


@pytest.mark.parametrize(
    "s",
    [EuclideanAffine(m=d, n=0, r0=0.8) for d in (1, 2, 3, 5)]
    + [SphereInEuclidean(m=m, radius=1.0) for m in (2, 3, 6)]
    + [HyperbolicH3Point(kappa=-1.0, r0=r0) for r0 in (0.0, 0.7, 2.0)],
    ids=["flat1", "flat2", "flat3", "flat5", "sphere2", "sphere3", "sphere6", "h3-0", "h3-0.7", "h3-2"],
)
def test_radial_endpoints_match_cartesian_map_kolmogorov_smirnov(s):
    # the norm of the whole Gaussian position, drawn on another stream
    n = 1_000_000
    stat = stats.ks_2samp(sample_distances(s, 1.3, stream(5), n), cartesian_distances(s, 1.3, stream(6), n)).statistic
    assert stat < 1.628 * math.sqrt(2.0 / n)  # the 1% critical value


def test_path_blocks_hash_pinned():
    # sha256 prefixes of sample_paths(s, 0.01, 1.0, 23, 5, 40), rows 5..44 of
    # block 0 (648 paths of 101 values, from stream(23, 0)); off the pole the
    # H^3 start goes through cos and sin, whose last bit depends on the CPU, so
    # that block is hashed after rounding to 9 decimals
    for s, want in (
        (EuclideanAffine(m=3, n=1, r0=0.5), "610941e2135e180b"),
        (SphereInEuclidean(m=3, radius=1.0), "5d36020d1b69dd2d"),
        (CirclePoint(r0=1.0), "0fd4cc9cd8780f28"),
        (HyperbolicH3Point(kappa=-1.0), "8571a97a85d59bf1"),
    ):
        assert hashlib.sha256(sample_paths(s, 0.01, 1.0, 23, 5, 40).tobytes()).hexdigest()[:16] == want, s
    off = np.round(sample_paths(HyperbolicH3Point(kappa=-2.0, r0=0.7), 0.01, 1.0, 23, 5, 40), 9)
    assert hashlib.sha256(off.tobytes()).hexdigest()[:16] == "04ce398d74613057"


# -------------------------------------------------------------------- paths

def test_path_initial_value_and_range():
    s = CirclePoint(r0=1.0)
    for i in range(200):
        path = sample_path(s, 0.01, 1.0, seed=20, index=i)
        assert path.values[0] == 1.0
        assert np.all(path.values >= 0.0) and np.all(path.values <= math.pi)


def test_path_determinism_bit_identical():
    s = EuclideanAffine(m=2, n=0, r0=0.3)
    a = sample_path(s, 0.01, 1.0, seed=55, index=9)
    b = sample_path(s, 0.01, 1.0, seed=55, index=9)
    c = sample_path(s, 0.01, 1.0, seed=55, index=10)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize(
    "scenario",
    [EuclideanAffine(m=2, n=0, r0=0.5), SphereInEuclidean(m=2, radius=1.0), HyperbolicH3Point(r0=0.7)],
    ids=["flat", "sphere", "h3"],
)
def test_endpoint_and_path_laws_agree_kolmogorov_smirnov(scenario):
    n = 10_000
    endpoints = sample_paths(scenario, 0.01, 1.0, 77, 0, n)[:, -1]
    direct = sample_distances(scenario, 1.0, stream(78), n)
    stat = stats.ks_2samp(endpoints, direct).statistic
    critical_1pct = 1.628 * math.sqrt(2.0 / n)
    assert stat < critical_1pct


def test_flat_exit_time_optional_stopping():
    # E tau for exit of (-1, 1) from 0 equals 1
    s = EuclideanAffine(m=1, n=0, r0=0.0)
    dt, T, n = 2.5e-4, 6.0, 4000

    def exit_time(v):
        hit = v >= 1.0
        idx = np.argmax(hit, axis=1)
        return np.where(hit[np.arange(len(v)), idx], idx * dt, T)

    mean = mc_path_mean(s, dt, T, n, 303, exit_time).mean
    assert abs(mean - 1.0) <= 0.05


def test_h3_walk_cross_checks_exact_endpoint_law():
    # paths are exact at grid times: the exact second moment at 3 sigma
    s = HyperbolicH3Point(kappa=-1.0)
    n, dt, t = 1500, 2e-3, 1.0
    finals = sample_paths(s, dt, t, 404, 0, n)[:, -1]
    mean, stderr = _mean_with_stderr(finals**2)
    want = exact_moment(s, 1, t)
    assert abs(mean - want) <= 3.0 * stderr


def test_path_rejects_bad_grid():
    with pytest.raises(DomainError):
        sample_path(CirclePoint(), 2.0, 1.0, seed=1)
    with pytest.raises(DomainError):
        sample_path(CirclePoint(), -0.1, 1.0, seed=1)


def test_endpoint_draws_need_finite_positive_t():
    for t in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(DomainError, match="0 < t < inf"):
            sample_distances(EuclideanAffine(m=3, n=0), t, stream(1), 10)


def test_grid_steps_needs_finite_positive_dt_and_t():
    for dt, T in ((math.nan, 1.0), (0.01, math.nan), (0.01, math.inf), (math.inf, math.inf), (0.0, 1.0)):
        with pytest.raises(DomainError, match="0 < dt <= T < inf"):
            grid_steps(dt, T)
    assert grid_steps(0.01, 1.0) == 100


def test_path_sample_validates_dt():
    with pytest.raises(DomainError):
        PathSample(dt=0.0, values=np.zeros(3), scenario=CirclePoint(), seed=1)
