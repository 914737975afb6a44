"""Independent reference computations used as test oracles.

Each helper recomputes a quantity by a route different from the one the
package uses (direct sums, quadrature, combinatorial Gaussian moments),
so agreement is evidence rather than tautology.
"""
from __future__ import annotations

import math

import numpy as np
from scipy import integrate, stats


def laguerre_direct_sum(p: int, alpha: float, z: float) -> float:
    """L^alpha_p(z) from the explicit finite sum over k."""
    total = 0.0
    for k in range(p + 1):
        ratio = 1.0
        for j in range(k, p):
            ratio *= alpha + 1.0 + j
        total += ratio * (-z) ** k / (math.factorial(k) * math.factorial(p - k))
    return total


def gaussian_even_moment(mu: float, var: float, p: int) -> float:
    """E[(mu + sqrt(var) Z)^(2p)] by binomial expansion over Hermite moments."""
    total = 0.0
    for j in range(p + 1):
        dfact = math.prod(range(1, 2 * j, 2)) if j > 0 else 1
        total += math.comb(2 * p, 2 * j) * mu ** (2 * (p - j)) * var**j * dfact
    return total


def chi2_moment(dof: int, q: int) -> float:
    """E[Q^q] for Q ~ chi-square with dof degrees of freedom."""
    out = 1.0
    for i in range(q):
        out *= dof + 2 * i
    return out


def flat_radial_moment(d: int, r0: float, t: float, p: int) -> float:
    """E |Y|^(2p) for Y ~ N(r0 e1, t I_d), via independence of coordinates."""
    total = 0.0
    for j in range(p + 1):
        total += (
            math.comb(p, j)
            * gaussian_even_moment(r0, t, j)
            * t ** (p - j)
            * chi2_moment(d - 1, p - j)
        )
    return total


def flat_radial_moment_gh(d: int, r0: float, t: float, p: int) -> float:
    """Same moment by brute-force Gauss-Hermite quadrature in d dimensions."""
    nodes, weights = np.polynomial.hermite.hermgauss(2 * p + 4)
    grids = np.meshgrid(*([nodes] * d), indexing="ij")
    wgrids = np.meshgrid(*([weights] * d), indexing="ij")
    w = np.ones(grids[0].shape)
    for wg in wgrids:
        w = w * wg
    sq = (math.sqrt(2.0 * t) * grids[0] + r0) ** 2
    for g in grids[1:]:
        sq = sq + 2.0 * t * g**2
    return float(np.sum(w * sq**p)) / math.pi ** (d / 2.0)


def flat_mgf_mpmath(d: int, r0: float, t: float, theta: float) -> float:
    """E exp(theta |Y|^2 / 2) by 1-d mpmath quadrature and coordinate independence."""
    import mpmath as mp

    mp.mp.dps = 30
    tt = mp.mpf(t)
    th = mp.mpf(theta)

    def one_dim(mu):
        f = lambda y: mp.exp(th * y**2 / 2) * mp.exp(-((y - mu) ** 2) / (2 * tt)) / mp.sqrt(2 * mp.pi * tt)
        span = 12 * mp.sqrt(tt / (1 - th * tt)) + abs(mu)
        return mp.quad(f, [mu - span, mu + span])

    val = one_dim(mp.mpf(r0)) * one_dim(mp.mpf(0)) ** (d - 1)
    return float(val)


def kummer_m1_mpmath(a: float, b: float, z: float):
    """1F1(a, b, z) - 1 at 40 digits as (a z / b) 2F2(a+1, 1; b+1, 2; z), an mpf.

    mpmath.hyp1f1(2.2e-308, 0.25, 679) returns 1.0, not 1 + 1.2e-13: for a tiny a
    its series stops on the first, tiny terms. This form has no leading 1 to hide
    them behind, and it keeps the digits of 1F1 - 1 near z = 0.
    """
    import mpmath as mp

    mp.mp.dps = 40
    a, b, z = mp.mpf(a), mp.mpf(b), mp.mpf(z)
    return a * z / b * mp.hyp2f2(a + 1, 1, b + 1, 2, z)


def h3_radial_density(r: float, kappa: float, t: float) -> float:
    """Density of the distance from the start for Brownian motion on H^3_kappa."""
    a = math.sqrt(-kappa)
    return (
        (2.0 * math.pi * t) ** -1.5
        * 4.0
        * math.pi
        * math.exp(kappa * t / 2.0)
        * (r / a)
        * math.sinh(a * r)
        * math.exp(-(r * r) / (2.0 * t))
    )


def h3_moment_quad(kappa: float, p: int, t: float) -> float:
    val, _ = integrate.quad(
        lambda r: r ** (2 * p) * h3_radial_density(r, kappa, t), 0.0, 80.0 * math.sqrt(t) + 80.0
    )
    return val


def h3_mgf_quad(kappa: float, theta: float, t: float) -> float:
    # exponents combined before exponentiating so the integrand cannot overflow
    a = math.sqrt(-kappa)
    front = (2.0 * math.pi * t) ** -1.5 * 2.0 * math.pi / a

    def integrand(r):
        expo = theta * r * r / 2.0 - r * r / (2.0 * t) + a * r + kappa * t / 2.0
        return front * r * (-math.expm1(-2.0 * a * r)) * math.exp(expo)

    teff = t / (1.0 - theta * t)
    upper = a * teff + 15.0 * math.sqrt(teff) + 15.0
    val, _ = integrate.quad(integrand, 0.0, upper, limit=300, epsabs=1e-13, epsrel=1e-12)
    return val


def circle_mean_local_time_fourier(t: float, d: float, terms: int = 200) -> float:
    """Mean local time at arc distance d on the unit circle by the eigenfunction
    (Fourier) route: t/2pi + pi/3 - d + d^2/2pi - (2/pi) sum_j e^{-j^2 t/2} cos(jd)/j^2."""
    total = sum(math.exp(-(j * j) * t / 2.0) * math.cos(j * d) / (j * j) for j in range(1, terms + 1))
    return t / (2.0 * math.pi) + math.pi / 3.0 - d + d * d / (2.0 * math.pi) - 2.0 / math.pi * total


def chi_tail(d: int, r: float, t: float) -> float:
    """P{|B_t| >= r} for standard Brownian motion in R^d from the origin."""
    return float(stats.chi2.sf(r * r / t, df=d))


def sup_tail_reflection(r: float, t: float) -> float:
    """Reflection-principle value 2 P{|B_t| >= r} for the sup of |B| in R^1."""
    return 4.0 * float(stats.norm.sf(r / math.sqrt(t)))


def exit_tail_exact(m_minus_n: int, r: float, t: float) -> float:
    """P{sup_{s<=t} |B_s| >= r} for Brownian motion in R^(m-n) from the
    origin, m - n in {1, 3}, by the eigenfunction series of the exit time
    from the ball of radius r:
    1 - (4/pi) sum_k (-1)^k / (2k+1) e^{-(2k+1)^2 pi^2 t / 8r^2} (m - n = 1),
    1 - 2 sum_{k>=1} (-1)^{k+1} e^{-k^2 pi^2 t / 2r^2} (m - n = 3)."""
    c = math.pi**2 * t / (r * r)
    ks = range(int(12.0 / math.sqrt(c)) + 2)  # the last exponent is below -70
    if m_minus_n == 1:
        return 1.0 - 4.0 / math.pi * sum(
            (-1) ** k / (2 * k + 1) * math.exp(-((2 * k + 1) ** 2) * c / 8.0) for k in ks
        )
    if m_minus_n == 3:
        return 1.0 - 2.0 * sum((-1) ** (k + 1) * math.exp(-k * k * c / 2.0) for k in ks[1:])
    raise ValueError(f"exit_tail_exact has m - n in {{1, 3}}, got {m_minus_n}")


def cameron_martin_quadratic(theta: float, t: float) -> float:
    """E exp((theta/2) int_0^t B_s^2 ds) = cos(sqrt(theta) t)^(-1/2)."""
    return math.cos(math.sqrt(theta) * t) ** -0.5


def exp1_quad(x: float) -> float:
    """Defining integral of the exponential integral, by adaptive quadrature."""
    val, _ = integrate.quad(
        lambda s: math.exp(-s) / s, x, np.inf, limit=400, epsabs=0.0, epsrel=1e-12
    )
    return val


def upper_gamma_quad(a: float, x: float) -> float:
    val, _ = integrate.quad(
        lambda s: s ** (a - 1.0) * math.exp(-s), x, np.inf, limit=400, epsabs=0.0, epsrel=1e-12
    )
    return val


def upper_gamma_mpmath(a: float, x: float) -> float:
    """Gamma(a, x) at 40 digits, E1(x) at a = 0, rounded to a float."""
    import mpmath as mp

    with mp.workdps(40):
        return float(mp.e1(x) if a == 0.0 else mp.gammainc(a, x))


def sphere_mean_local_time_mpmath(m: int, radius: float, t: float) -> float:
    """radius Gamma(m/2 - 1, radius^2/2t) / Gamma(m/2) at 40 digits, rounded to a float."""
    import mpmath as mp

    with mp.workdps(40):
        half = mp.mpf(m) / 2
        return float(radius * mp.gammainc(half - 1, mp.mpf(radius) ** 2 / (2 * mp.mpf(t))) / mp.gamma(half))


def cartesian_distances(s, t: float, rng, size: int) -> np.ndarray:
    """Exact endpoint draws of r_N(X_t) from the whole Gaussian position, the
    Cartesian map the radial sampler replaces: size x d normals scaled by
    sqrt(t), the start added (on H^3 the drift a t e_0 and r0 U, U von
    Mises-Fisher of concentration a r0 with its cosine by inversion and a
    uniform azimuth), then np.linalg.norm. s is flat, a sphere or H^3."""
    from tubebound.modelspaces import EuclideanAffine, HyperbolicH3Point, SphereInEuclidean

    if isinstance(s, EuclideanAffine):
        pos = math.sqrt(t) * rng.standard_normal((size, s.m - s.n))
        pos[:, 0] += s.r0
        return np.linalg.norm(pos, axis=1)
    if isinstance(s, SphereInEuclidean):
        return np.abs(np.linalg.norm(math.sqrt(t) * rng.standard_normal((size, s.m)), axis=1) - s.radius)
    if isinstance(s, HyperbolicH3Point):
        a = math.sqrt(-s.kappa)
        pos = math.sqrt(t) * rng.standard_normal((size, 3))
        pos[:, 0] += a * t
        if s.r0 > 0.0:
            k, u = a * s.r0, rng.random((size, 2))
            w = 1.0 + np.log1p(u[:, 0] * math.expm1(-2.0 * k)) / k
            rho = s.r0 * np.sqrt(np.maximum((1.0 - w) * (1.0 + w), 0.0))
            pos[:, 0] += s.r0 * w
            pos[:, 1] += rho * np.cos(2.0 * math.pi * u[:, 1])
            pos[:, 2] += rho * np.sin(2.0 * math.pi * u[:, 1])
        return np.linalg.norm(pos, axis=1)
    raise TypeError(f"no Cartesian map for {s!r}")


def gaussian_distance_block(kind: str, d: int, r0: float, dt: float, steps: int, rows: int, rng) -> np.ndarray:
    """The first `rows` exact distance paths of a block of paths, drawn the
    block way: one standard_normal((rows, steps + 1, d)) call, step 0 zeroed,
    scaled by sqrt(dt), positions by cumsum over the steps, distance by
    np.linalg.norm.

    kind is "flat" (distance to the origin from r0 e1), "sphere" (distance
    to the sphere of radius r0 from the centre) or "circle" (d = 1, angle
    wrapped to [0, pi] from r0).
    """
    inc = rng.standard_normal((rows, steps + 1, d))
    inc[:, 0] = 0.0
    pos = np.cumsum(math.sqrt(dt) * inc, axis=1)
    if kind == "circle":
        return np.abs(np.mod(r0 + pos[..., 0] + math.pi, 2.0 * math.pi) - math.pi)
    if kind == "sphere":
        return np.abs(np.linalg.norm(pos, axis=2) - r0)
    pos[..., 0] += r0
    return np.linalg.norm(pos, axis=2)


def circle_mean_local_time_quad(d: float, t: float) -> float:
    """Wrapped heat kernel at distance d integrated over [0, t] by quadrature."""
    def kernel(u):
        norm = 1.0 / math.sqrt(2.0 * math.pi * u)
        return norm * sum(
            math.exp(-((d + 2.0 * math.pi * k) ** 2) / (2.0 * u)) for k in range(-40, 41)
        )

    val, _ = integrate.quad(kernel, 0.0, t, limit=400, epsabs=1e-12, epsrel=1e-10)
    return val


def second_moment_mpmath(nu: float, lam: float, r0: float, t: float):
    """(r0^2 + nu R(t)) e^(lam t), R(t) = (1 - e^(-lam t)) / lam, at 40 digits (an mpf)."""
    import mpmath as mp

    mp.mp.dps = 40
    lam, t = mp.mpf(lam), mp.mpf(t)
    R = t if lam == 0 else -mp.expm1(-lam * t) / lam
    return (mp.mpf(r0) ** 2 + nu * R) * mp.exp(lam * t)


def bold_r_mpmath(lam: float, r0: float, t: float, theta: float):
    """B = 12 theta^2 (r0^2 + 2 R(t)) e^(lam t) of the exponential-distance bound at 40 digits."""
    import mpmath as mp

    return 12 * second_moment_mpmath(2.0, lam, r0, t) * mp.mpf(theta) ** 2


def even_moment_mpmath(nu: float, lam: float, r0: float, t: float, ord: int):
    """(2 R e^(lam t))^ord ord! L^(nu/2-1)_ord(-r0^2 / 2R) at 60 digits (an mpf), by
    mpmath's Laguerre function; r0^(2 ord) at t = 0."""
    import mpmath as mp

    mp.mp.dps = 60
    lam, t = mp.mpf(lam), mp.mpf(t)
    R = t if lam == 0 else -mp.expm1(-lam * t) / lam
    if R == 0:
        return mp.mpf(r0) ** (2 * ord)
    y = mp.mpf(r0) ** 2 / (2 * R)
    return (2 * R * mp.exp(lam * t)) ** ord * mp.factorial(ord) * mp.laguerre(ord, mp.mpf(nu) / 2 - 1, -y)


def logsob_mpmath(mode: str, m: int, n: int, C1: float, Lambda: float, r0: float, t: float, theta: float):
    """The log-Sobolev closed forms at 40 digits (an mpf), C(t) = (e^(k t) - 1) / k,
    k = (m - 1) C1^2, read as t at k = 0; None where quadratic mode needs theta C(t) < 1."""
    import mpmath as mp

    mp.mp.dps = 40
    k, t, theta = (m - 1) * mp.mpf(C1) ** 2, mp.mpf(t), mp.mpf(theta)
    C = t if k == 0 else mp.expm1(k * t) / k
    drift = n * mp.mpf(Lambda) + (m - 1) * mp.mpf(C1)
    base = mp.sqrt(mp.mpf(r0) ** 2 + (m - n) * t)
    if mode == "linear":
        return mp.exp(theta * base + drift * theta * t / 2 + theta**2 * C / 2)
    if theta * C >= 1:
        return None
    return mp.exp(theta * (base + drift * t / 2) ** 2 / (2 * (1 - theta * C)))


def lyapunov_pair_by_kind(s) -> tuple[float, float, bool]:
    """(nu, lam, exact) of each scenario kind as a closed form of its own: flat
    (m - n, 0), circle (1, 0), H^3 (3, -2 kappa/3), sphere (1 + c/2, c/2) with
    c = (m - 1)/radius; only flat is exact."""
    if s.kind == "flat":
        return float(s.m - s.n), 0.0, True
    if s.kind == "circle":
        return 1.0, 0.0, False
    if s.kind == "h3":
        return 3.0, -2.0 * s.kappa / 3.0, False
    c = (s.m - 1) / s.radius
    return 1.0 + c / 2.0, c / 2.0, False


def radial_laplacian_half_sq_by_kind(s, r: float) -> float:
    """(1/2) Lap r_N^2 at distance r of each scenario kind as a closed form of its
    own: flat m - n, circle 1, H^3 1 + 2 a r coth(a r), sphere (outer branch)
    1 + (m - 1) r/(radius + r)."""
    if s.kind == "flat":
        return float(s.m - s.n)
    if s.kind == "circle":
        return 1.0
    if s.kind == "h3":
        a = math.sqrt(-s.kappa)
        return 1.0 + 2.0 * a * r / math.tanh(a * r)
    return 1.0 + (s.m - 1) * r / (s.radius + r)


def gaussian_law_by_kind(s, t: float):
    """(d, c) with r_N(X_t) distributed as |c e + B_t| in R^d: flat (m - n, r0),
    H^3 from the pole (3, sqrt(-kappa) t); None elsewhere."""
    if s.kind == "flat":
        return s.m - s.n, s.r0
    if s.kind == "h3" and s.r0 == 0.0:
        return 3, math.sqrt(-s.kappa) * t
    return None


def curve_csv_by_point(curve) -> str:
    """A BoundCurve's CSV text, one line appended per point: reference for bounds.curve_to_csv."""
    lines = ["param,value,valid"]
    for x, v, ok in zip(curve.grid, curve.values, curve.valid):
        lines.append(f"{x!r},{v!r},{'true' if ok else 'false'}")
    return "\n".join(lines) + "\n"


def polyline_points_by_point(curve, x_max: float, y_cap: float = 25.0) -> str:
    """The points="..." text of a curve in a curves SVG, each valid point mapped by
    its own sx, sy calls on the 640 x 420 canvas (plot box x 60..620, y 20..380):
    reference for cli._render_svg."""
    def sx(x: float) -> float:
        return 60 + (x / x_max) * (620 - 60)

    def sy(y: float) -> float:
        return 380 - (min(y, y_cap * 1.05) / y_cap) * (380 - 20)

    return " ".join(f"{sx(x):.2f},{sy(v):.2f}" for x, v, ok in zip(curve.grid, curve.values, curve.valid) if ok)
