"""Model-space scenarios with exact laws.

Each scenario is an (ambient space M, submanifold N, start point) triple,
described in one place: its _geometry (m, n, kappa, rho, cut) = (dim M, dim N,
the curvature of M, negative only where n = 0, the outer radius of curvature
of N, the distance to the cut locus). The Lyapunov pair, (1/2) Lap r_N^2 and
the Brownian position _position (d, x0, a, rho, cut) all follow from it; both
samplers in simulate and the Gaussian law of r_N(X_t) read the position.
Radial moments, exponential moments and the mean local time follow where
closed forms exist. Operations return None where no closed form exists;
that is a typed "unavailable" answer, not a failure. SCENARIOS maps each
kind to its class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Union

from .errors import DomainError
from .specfun import _whole, comparison, laguerre, upper_gamma


@dataclass(frozen=True)
class EuclideanAffine:
    """R^m with N an affine subspace of dimension n; distance starts at r0."""

    kind: ClassVar[str] = "flat"
    _geometry = property(lambda s: (s.m, s.n, 0.0, math.inf, math.inf))
    m: int = 3
    n: int = 0
    r0: float = 0.0

    def __post_init__(self):
        if not (_whole(self.m) and _whole(self.n) and 0 <= self.n <= self.m - 1):
            raise DomainError(f"need integers 0 <= n <= m-1, got m={self.m}, n={self.n}")
        if not 0.0 <= self.r0 < math.inf:
            raise DomainError(f"r0 must be finite and non-negative, got {self.r0}")


@dataclass(frozen=True)
class CirclePoint:
    """Unit circle with N a single point at arc distance r0 from the start."""

    kind: ClassVar[str] = "circle"
    _geometry: ClassVar[tuple] = (1, 0, 0.0, math.inf, math.pi)
    r0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r0 <= math.pi:
            raise DomainError(f"circle r0 must lie in [0, pi], got {self.r0}")


@dataclass(frozen=True)
class HyperbolicH3Point:
    """3-dimensional hyperbolic space of curvature kappa < 0, N = start point."""

    kind: ClassVar[str] = "h3"
    _geometry = property(lambda s: (3, 0, s.kappa, math.inf, math.inf))
    kappa: float = -1.0
    r0: float = 0.0

    def __post_init__(self):
        if not -math.inf < self.kappa < 0.0:
            raise DomainError(f"kappa must be finite and negative, got {self.kappa}")
        if not 0.0 <= self.r0 < math.inf:
            raise DomainError(f"r0 must be finite and non-negative, got {self.r0}")


@dataclass(frozen=True)
class SphereInEuclidean:
    """R^m with N the sphere of the given radius; the walk starts at the centre."""

    kind: ClassVar[str] = "sphere"
    _geometry = property(lambda s: (s.m, s.m - 1, 0.0, s.radius, math.inf))
    m: int = 2
    radius: float = 1.0

    def __post_init__(self):
        if not (_whole(self.m) and self.m >= 2):
            raise DomainError(f"ambient dimension must be an integer >= 2, got {self.m}")
        if not 0.0 < self.radius < math.inf:
            raise DomainError(f"radius must be finite and positive, got {self.radius}")

    @property
    def r0(self) -> float:
        return self.radius


Scenario = Union[EuclideanAffine, CirclePoint, HyperbolicH3Point, SphereInEuclidean]
SCENARIOS = {c.kind: c for c in (EuclideanAffine, CirclePoint, HyperbolicH3Point, SphereInEuclidean)}


@dataclass(frozen=True)
class LyapunovParams:
    """Pair (nu, lam) with (1/2) Lap r_N^2 <= nu + lam r_N^2 off the cut locus.

    exact is True when the moment bounds built from the pair are attained.
    """

    nu: float
    lam: float
    exact: bool = False

    def __post_init__(self):
        if not (1.0 <= self.nu < math.inf and math.isfinite(self.lam)):
            raise DomainError(f"need finite nu >= 1 and finite lam, got nu={self.nu}, lam={self.lam}")


def lyapunov_params(s: Scenario) -> LyapunovParams:
    """Lyapunov pair for a scenario, from its geometry (m, n, kappa, rho, cut).

    Off the cut locus and N's inner side, with x = sqrt(-kappa) r (Heintze &
    Karcher 1978; see radial_laplacian_half_sq),
        (1/2) Lap r^2 = 1 + (m - n - 1) x coth x + n r / (rho + r),
    and x coth x <= 1 + x^2/3, n r / (rho + r) <= c r <= c (1 + r^2)/2 with
    c = n / rho give
        nu = m - n + c/2,    lam = c/2 - (m - n - 1) kappa / 3.
    Both steps are equalities iff kappa = 0 and rho = inf; the moment bounds
    are then attained (exact) unless a cut locus is met (cut < inf).
    """
    m, n, kappa, rho, cut = s._geometry
    c = n / rho
    exact = kappa == 0.0 and rho == cut == math.inf
    return LyapunovParams(nu=m - n + c / 2.0, lam=c / 2.0 - (m - n - 1) * kappa / 3.0, exact=exact)


def radial_laplacian_half_sq(s: Scenario, r: float) -> float:
    """(1/2) Lap r_N^2 at distance r in (0, cut): 1 + (m - n - 1)(1 + r g) + n r f,
    with g, f from specfun.comparison(kappa, 1/rho, r) (Heintze & Karcher 1978).

    The sphere has two points at distance r < radius (inside and outside the
    shell); this is the outside branch, 1/rho, which dominates the inside one.
    """
    m, n, kappa, rho, cut = s._geometry
    if not 0.0 < r < cut:
        raise DomainError(f"r must lie in (0, {cut}), got {r}")
    v = comparison(kappa, 1.0 / rho, r)
    return 1.0 + (m - n - 1) * (1.0 + r * v.g) + n * r * v.f


def _position(s: Scenario) -> tuple[int, float, float, float, float]:
    # (d, x0, a, rho, cut): r_N(X) from a Brownian position in R^d started at
    # x0 e with drift a e. Off a shell, (m - n, r0, sqrt(-kappa)) and r_N = |X|,
    # wrapped on the circle (cut < inf), started at x0 U on H^3 (see simulate); on a
    # shell, (m, rho - r0 = 0, 0) and r_N = ||X| - rho|: the walk starts at the centre.
    m, n, kappa, rho, cut = s._geometry
    if rho < math.inf:
        return m, rho - s.r0, 0.0, rho, cut
    return m - n, s.r0, math.sqrt(-kappa), rho, cut


def _gaussian_law(s: Scenario, t: float) -> Optional[tuple[int, float]]:
    # (d, c) with r_N(X_t) distributed as |c e + B_t| in R^d, where that holds:
    # no shell and no cut locus, and a fixed start (flat, or H^3 from the pole)
    d, x0, a, rho, cut = _position(s)
    if rho == cut == math.inf and (a == 0.0 or x0 == 0.0):
        return d, x0 + a * t
    return None


def exact_moment(s: Scenario, p: int, t: float) -> Optional[float]:
    """Exact E[r_N^{2p}(X_t)] where available, else None.

    Flat and H^3 at the pole: r = |c e + B_t| in R^d (_gaussian_law), so
    E r^{2p} = (2t)^p p! L^{d/2-1}_p(-c^2/2t); on H^3 at p = 1, 3t - kappa t^2.
    Circle: only the t -> inf limit pi^2/3.
    """
    if not (_whole(p) and p >= 1):
        raise DomainError(f"p must be a positive integer, got {p}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if isinstance(s, CirclePoint):
        return math.pi**2 / 3.0 if math.isinf(t) and p == 1 else None
    law = _gaussian_law(s, t)
    if law is None or math.isinf(t):
        return None
    d, c = law
    return (2.0 * t) ** p * math.factorial(p) * laguerre(p, d / 2.0 - 1.0, -(c**2) / (2.0 * t))


def exact_exp_moment(s: Scenario, theta: float, t: float) -> Optional[float]:
    """Exact E[exp(theta r_N^2(X_t) / 2)] where available, else None.

    Flat and H^3 at the pole (see exact_moment): (1 - theta t)^{-d/2}
    exp(theta c^2 / (2 (1 - theta t))), for theta * t < 1; theta = 0 is 1 everywhere.
    Evaluated in logs; a value past the float range raises DomainError.
    """
    if theta < 0.0:
        raise DomainError(f"theta must be non-negative, got {theta}")
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if theta == 0.0:
        return 1.0
    law = _gaussian_law(s, t)
    if law is None:
        return None
    if theta * t >= 1.0:
        raise DomainError(f"need theta*t < 1, got {theta * t}")
    d, c = law
    log_m = -(d / 2.0) * math.log1p(-theta * t) + theta * c**2 / (2.0 * (1.0 - theta * t))
    try:
        return math.exp(log_m)
    except OverflowError:
        raise DomainError(f"exact exponential moment e^{log_m} exceeds the float range") from None


def _circle_images(r: float, t: float) -> list[float]:
    # distances |r + 2 pi k| of the images of a point at circle distance r, cut
    # beyond r + 12 sqrt(t): an image there weighs under e^{-72} of the nearest
    k_max = math.ceil((r + 12.0 * math.sqrt(t)) / (2.0 * math.pi))
    return [abs(r + 2.0 * math.pi * k) for k in range(-k_max, k_max + 1)]


def revuz_mean_local_time(s: Scenario, t: float) -> Optional[float]:
    """Mean local time E[L^N_t] where the Revuz route gives a closed form.

    Sphere shell in R^m from the centre: radius * Gamma(m/2-1, radius^2/2t) /
    Gamma(m/2), that is radius * Q(m/2-1, radius^2/2t) / (m/2-1) for m > 2,
    free of Gamma(m/2)'s overflow, and radius * E1(radius^2/2t) at m = 2.
    Circle point: the wrapped-Gaussian heat kernel at distance r0 integrated over
    [0, t] image by image, each image at distance x giving
    sqrt(2t/pi) e^{-x^2/2t} - x erfc(x / sqrt(2t)).
    """
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if isinstance(s, SphereInEuclidean):
        a = s.m / 2.0 - 1.0
        x = s.radius**2 / (2.0 * t)
        if a == 0.0:
            return s.radius * upper_gamma(a, x)
        from scipy.special import gammaincc  # here, so that `import tubebound` loads no scipy

        return s.radius * float(gammaincc(a, x)) / a
    if isinstance(s, CirclePoint):
        if math.isinf(t):
            raise DomainError("the circle's mean local time grows like t / 2 pi: no limit at t = inf")
        rt = math.sqrt(2.0 * t)
        peak = rt / math.sqrt(math.pi)
        return sum(peak * math.exp(-((x / rt) ** 2)) - x * math.erfc(x / rt) for x in _circle_images(s.r0, t))
    return None


def scenario_from_kv(kv: dict[str, object]) -> Scenario:
    """Scenario from a 'kind' and any of its fields, each parsed with its
    annotated type; missing fields take their defaults, unknown keys are errors."""
    values = dict(kv)
    kind = values.pop("kind", None)
    if kind not in SCENARIOS:
        raise DomainError(f"unknown scenario kind {kind!r}")
    types = {f.name: {"int": int, "float": float}[f.type] for f in fields(SCENARIOS[kind])}
    extra = set(values) - set(types)
    if extra:
        raise DomainError(f"unknown scenario keys for kind={kind}: {sorted(extra)}")
    try:
        typed = {k: types[k](v) for k, v in values.items()}
    except ValueError as err:
        raise DomainError(f"bad scenario value for kind={kind}: {err}") from None
    return SCENARIOS[kind](**typed)
