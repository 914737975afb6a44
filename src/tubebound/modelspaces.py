"""Model-space scenarios with exact laws.

Each scenario is an (ambient space, submanifold, start point) triple for
which some combination of Lyapunov pair, heat kernel, radial moments,
exponential moments and mean local time is available in closed form.
Operations return None where no closed form exists; that is a typed
"unavailable" answer, not a failure. SCENARIOS maps each kind to its class.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, Optional, Union

from .errors import DomainError
from .specfun import laguerre, upper_gamma


@dataclass(frozen=True)
class EuclideanAffine:
    """R^m with N an affine subspace of dimension n; distance starts at r0."""

    kind: ClassVar[str] = "flat"
    m: int = 3
    n: int = 0
    r0: float = 0.0

    def __post_init__(self):
        if not 0 <= self.n <= self.m - 1:
            raise DomainError(f"need 0 <= n <= m-1, got m={self.m}, n={self.n}")
        if not 0.0 <= self.r0 < math.inf:
            raise DomainError(f"r0 must be finite and non-negative, got {self.r0}")


@dataclass(frozen=True)
class CirclePoint:
    """Unit circle with N a single point at arc distance r0 from the start."""

    kind: ClassVar[str] = "circle"
    r0: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.r0 <= math.pi:
            raise DomainError(f"circle r0 must lie in [0, pi], got {self.r0}")


@dataclass(frozen=True)
class HyperbolicH3Point:
    """3-dimensional hyperbolic space of curvature kappa < 0, N = start point."""

    kind: ClassVar[str] = "h3"
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
    m: int = 2
    radius: float = 1.0

    def __post_init__(self):
        if self.m < 2:
            raise DomainError(f"ambient dimension must be >= 2, got {self.m}")
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
    """Lyapunov pair for a scenario.

    Affine case is an identity with nu = m - n. The hyperbolic point uses the
    Ricci-based quadratic estimate with lower bound R = 2 kappa, giving
    nu = 3, lam = -2 kappa / 3. The sphere absorbs its mean-curvature linear
    term c*r <= c(1 + r^2)/2 with c = (m-1)/radius.
    """
    if isinstance(s, EuclideanAffine):
        return LyapunovParams(nu=float(s.m - s.n), lam=0.0, exact=True)
    if isinstance(s, CirclePoint):
        return LyapunovParams(nu=1.0, lam=0.0, exact=False)
    if isinstance(s, HyperbolicH3Point):
        return LyapunovParams(nu=3.0, lam=-2.0 * s.kappa / 3.0, exact=False)
    if isinstance(s, SphereInEuclidean):
        c = (s.m - 1) / s.radius
        return LyapunovParams(nu=1.0 + c / 2.0, lam=c / 2.0, exact=False)
    raise TypeError(f"unknown scenario {s!r}")


def radial_laplacian_half_sq(s: Scenario, r: float) -> float:
    """Closed-form (1/2) Lap r_N^2 at distance r, maximized over branches.

    The sphere has two points at distance r < radius (inside and outside the
    shell); the outside branch dominates and is returned.
    """
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    if isinstance(s, EuclideanAffine):
        return float(s.m - s.n)
    if isinstance(s, CirclePoint):
        if r >= math.pi:
            raise DomainError("circle distance formula is smooth only on (0, pi)")
        return 1.0
    if isinstance(s, HyperbolicH3Point):
        a = math.sqrt(-s.kappa)
        return 1.0 + 2.0 * a * r / math.tanh(a * r)
    if isinstance(s, SphereInEuclidean):
        return 1.0 + (s.m - 1) * r / (s.radius + r)
    raise TypeError(f"unknown scenario {s!r}")


def _gaussian_law(s: Scenario, t: float) -> Optional[tuple[int, float]]:
    # (d, c) with r_N(X_t) distributed as |c e + B_t| in R^d, where that holds:
    # flat (m - n, r0); H^3 at the pole (3, a t) by Rogers & Pitman (simulate)
    if isinstance(s, EuclideanAffine):
        return s.m - s.n, s.r0
    if isinstance(s, HyperbolicH3Point) and s.r0 == 0.0:
        return 3, math.sqrt(-s.kappa) * t
    return None


def exact_moment(s: Scenario, p: int, t: float) -> Optional[float]:
    """Exact E[r_N^{2p}(X_t)] where available, else None.

    Flat and H^3 at the pole: r = |c e + B_t| in R^d (_gaussian_law), so
    E r^{2p} = (2t)^p p! L^{d/2-1}_p(-c^2/2t); on H^3 at p = 1, 3t - kappa t^2.
    Circle: only the t -> inf limit pi^2/3.
    """
    if p < 1:
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
    return (1.0 - theta * t) ** (-d / 2.0) * math.exp(theta * c**2 / (2.0 * (1.0 - theta * t)))


def heat_kernel(s: Scenario, t: float, r: float) -> Optional[float]:
    """Transition density at distance r from the start, where known in closed form.

    Hyperbolic: Theta^{-1/2} (2 pi t)^{-3/2} exp(-r^2/2t + kappa t/2) with
    Theta^{1/2} = sinh(a r)/(a r). Circle: the wrapped Gaussian, summed over
    the images of revuz_mean_local_time.
    """
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if r < 0.0:
        raise DomainError(f"r must be non-negative, got {r}")
    if isinstance(s, HyperbolicH3Point):
        a = math.sqrt(-s.kappa)
        u = a * r
        if u < 1e-8:
            theta_half = 1.0 - u * u / 6.0
        elif u > 700.0:
            return 0.0
        else:
            theta_half = u / math.sinh(u)
        return theta_half * (2.0 * math.pi * t) ** -1.5 * math.exp(
            -r * r / (2.0 * t) + s.kappa * t / 2.0
        )
    if isinstance(s, CirclePoint):
        if r > math.pi:
            raise DomainError(f"circle distance must lie in [0, pi], got {r}")
        return sum(math.exp(-x * x / (2.0 * t)) for x in _circle_images(r, t)) / math.sqrt(2.0 * math.pi * t)
    return None


def _circle_images(r: float, t: float) -> list[float]:
    # distances |r + 2 pi k| of the images of a point at circle distance r, cut
    # beyond r + 12 sqrt(t): an image there weighs under e^{-72} of the nearest
    k_max = math.ceil((r + 12.0 * math.sqrt(t)) / (2.0 * math.pi))
    return [abs(r + 2.0 * math.pi * k) for k in range(-k_max, k_max + 1)]


def revuz_mean_local_time(s: Scenario, t: float) -> Optional[float]:
    """Mean local time E[L^N_t] where the Revuz route gives a closed form.

    Sphere shell in R^m from the centre: radius * Gamma(m/2-1, radius^2/2t) /
    Gamma(m/2). Circle point: the wrapped-Gaussian kernel at distance r0
    integrated over [0, t] image by image, each image at distance x giving
    sqrt(2t/pi) e^{-x^2/2t} - x erfc(x / sqrt(2t)).
    """
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if isinstance(s, SphereInEuclidean):
        a = s.m / 2.0 - 1.0
        x = s.radius**2 / (2.0 * t)
        return s.radius * upper_gamma(a, x) / math.gamma(s.m / 2.0)
    if isinstance(s, CirclePoint):
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
