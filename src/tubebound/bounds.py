"""Right-hand sides of the moment and concentration inequalities.

Every function takes the Lyapunov pair (nu, lam) plus the remaining scalar
parameters and returns the bound value from its closed form; the
minimising delta of the concentration bound and the explosion time are
solved exactly too, not searched for. Domains are enforced exactly;
values near an explosion are saturated at 1e300 instead of overflowing, so
curves stay plottable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import ConvergenceError, DomainError
from .modelspaces import LyapunovParams
from .specfun import _whole, kummerm1, laguerre

SATURATION = 1e300
_LOG_SAT = math.log(SATURATION)


def _exp_sat(logv: float) -> float:
    """exp with saturation at 1e300; keeps near-explosion curves finite."""
    if logv >= _LOG_SAT:
        return SATURATION
    return math.exp(logv)


def radial_R(lam: float, t: float) -> float:
    """R(t) = (1 - e^(-lam t)) / lam, with R(0, t) = t exactly; saturated at 1e300.

    R(-lam, t) = R(t) e^(lam t) is the growth factor of every bound. A short
    series replaces the quotient for |lam t| < 1e-6 so the cancellation in
    the numerator cannot surface. A caller divides by a saturated R, which
    makes its bound larger, or multiplies by it only to saturate too or to
    fail its domain check. At lam = inf R is its limit 0.0; DomainError at
    a NaN lam or at lam = -inf.
    """
    if not 0.0 <= t < math.inf:
        raise DomainError(f"t must be finite and non-negative, got {t}")
    if not lam > -math.inf:  # also at a NaN, which read as the saturation
        raise DomainError(f"lam must be a number above -inf, got {lam}")
    x = lam * t if t else 0.0  # not inf * 0
    if abs(x) < 1e-6:
        return t * (1.0 - x / 2.0 + x * x / 6.0)
    if x < -700.0:  # e^(-x) leaves the floats; R = e^(-x) / -lam to double precision
        return _exp_sat(-x - math.log(-lam))
    r = -math.expm1(-x) / lam
    return r if r < SATURATION else SATURATION


def even_moment_bound(p: LyapunovParams, r0: float, t: float, ord: int) -> float:
    """(2 G)^ord ord! L^{nu/2-1}_ord(-y), G = R e^(lam t), y = r0^2 / 2R: the 2*ord-th moment bound.

    Where a factor of that product leaves the floats (large ord, or y near
    overflow at tiny t) it is summed in logs as its positive terms
    binom(ord + a, ord - k) ord!/k! (2G)^(ord-k) (r0^2 e^(lam t))^k, a = nu/2 - 1.
    The sum alone would cover every input, but the exp of a rounded log x
    is off by about x ulps: at ord 1, lam t = 517 it reads 1.2e-13 off the
    closed form, where the product reads 3.6e-14 and the overflow-edge
    test asks for 1e-13.
    """
    if not (_whole(ord) and ord >= 1):
        raise DomainError(f"ord must be a positive integer, got {ord}")
    if not 0.0 <= r0 < math.inf:  # also at a NaN, which each branch below would read differently
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    a, G, R = p.nu / 2.0 - 1.0, radial_R(-p.lam, t), radial_R(p.lam, t)
    if G == 0.0:  # t = 0
        return r0 ** (2 * ord) if r0 == 0.0 or ord * math.log(r0) < _LOG_SAT / 2.0 else SATURATION
    lg = math.log(2.0 * G)
    # log y where y > 1; a y below 1 only shrinks the Laguerre terms past the first,
    # so a tiny r0 keeps the product
    ly = max(2.0 * math.log(r0) - math.log(2.0 * R), 0.0) if r0 > 0.0 else 0.0
    if math.lgamma(ord + a + 1) + math.lgamma(ord + 1) + ord * (abs(lg) + ly) < 700.0:  # no factor overflows
        lag = laguerre(ord, a, -r0 * r0 / (2.0 * R))
        return min((2.0 * G) ** ord * math.factorial(ord) * lag, SATURATION)
    lr = 2.0 * math.log(r0) + p.lam * t if r0 > 0.0 else -math.inf  # log 2G y = log r0^2 e^(lam t)
    lf = [math.lgamma(k + 1) for k in range(ord + 1)]  # log k!
    c = math.lgamma(ord + a + 1) + lf[ord]
    logs = [c - lf[ord - k] - math.lgamma(k + a + 1) - lf[k] + lg * (ord - k) + (lr * k if k else 0.0)
            for k in range(ord + 1)]
    top = max(logs)
    return _exp_sat(top + math.log(sum(math.exp(x - top) for x in logs)))


def second_moment_bound(p: LyapunovParams, r0: float, t: float) -> float:
    """(r0^2 + nu R(t)) e^(lam t), the second radial moment bound: even_moment_bound at ord 1."""
    return even_moment_bound(p, r0, t, 1)


def _bold_r(p: LyapunovParams, r0: float, t: float, theta: float) -> float:
    # B = 12 theta^2 (r0^2 e^(lam t) + 2 R(-lam, t)), saturated at 1e300. Past
    # lam t = 600 it is summed in logs from (r0^2 + 2 R(t)) e^(lam t), so neither a
    # saturated growth nor an underflowing theta^2 can pull it below its true value.
    x = p.lam * t
    if x > 600.0:
        if theta == 0.0:
            return 0.0
        return _exp_sat(math.log(12.0 * (r0 * r0 + 2.0 * radial_R(p.lam, t))) + 2.0 * math.log(theta) + x)
    B = 12.0 * theta * theta * (r0 * r0 * math.exp(x) + 2.0 * radial_R(-p.lam, t))
    return SATURATION if B >= SATURATION else B  # a NaN stays NaN, for kummerm1 to refuse


def exp_dist_bound(p: LyapunovParams, r0: float, t: float, theta: float) -> float:
    """Bound on E exp(theta r_N(X_t)), valid for nu >= 2.

    1 + (1 + B^(-1/2)) (1F1(nu/2, 1/2, B) - 1), B = 12 theta^2 (r0^2 + 2 R(t)) e^(lam t),
    continuously extended to 1 at B = 0 and saturated at 1e300. At odd nu it is
    1 + (1 + B^(-1/2)) (e^B P(B) - 1), P of degree (nu-1)/2 with positive coefficients (1 + 2B at nu = 3).
    """
    if p.nu < 2.0:
        raise DomainError(f"exp_dist_bound requires nu >= 2, got nu={p.nu}")
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    if not (t >= 0.0 and 0.0 <= theta < math.inf):
        raise DomainError(f"need t >= 0 and finite theta >= 0, got t={t}, theta={theta}")
    B = _bold_r(p, r0, t, theta)
    if B == 0.0:
        return 1.0
    try:
        f1m1 = kummerm1(p.nu / 2.0, 0.5, B)
    except ConvergenceError:  # 1F1 itself overflows a float
        return SATURATION
    return min(1.0 + (1.0 + B**-0.5) * f1m1, SATURATION)


def _exp_sq_log(p: LyapunovParams, r0: float, t: float, theta: float, name: Optional[str]) -> float:
    # log of (1 - x)^(-nu/2) exp(theta r0^2 e^(lam t) / (2 (1 - x))), x = theta R(-lam, t);
    # for lam > 0, theta e^(lam t) = theta + lam x, which cannot overflow as x < 1.
    # Past the domain it raises DomainError naming `name`, or with name None returns NaN
    growth = radial_R(-p.lam, t)
    x = theta * growth
    if x >= 1.0 or (growth == SATURATION and theta > 0.0):
        if name is None:
            return math.nan
        raise DomainError(f"domain requires {name} R(t) e^(lam t) < 1, got {x}")
    scale = theta * math.exp(p.lam * t) if p.lam <= 0.0 else theta + p.lam * x
    return -(p.nu / 2.0) * math.log1p(-x) + r0 * r0 * scale / (2.0 * (1.0 - x))


def exp_sq_bound(p: LyapunovParams, r0: float, t: float, theta: float) -> float:
    """Bound on E exp(theta r_N^2(X_t) / 2), valid for theta R(t) e^(lam t) < 1."""
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    if not (t >= 0.0 and 0.0 <= theta < math.inf):
        raise DomainError(f"need t >= 0 and finite theta >= 0, got t={t}, theta={theta}")
    return _exp_sat(_exp_sq_log(p, r0, t, theta, "theta"))


def explosion_time(p: LyapunovParams, theta: float) -> Optional[float]:
    """First t with theta R(t) e^(lam t) = 1, or None if that never happens.

    theta (e^(lam t) - 1) / lam = 1 solves to t = log1p(lam / theta) / lam,
    read as 1 / theta at lam = 0; there is no solution when lam <= -theta.
    Near lam = -theta the logarithm takes theta + lam, which is exact there.
    """
    if not 0.0 < theta < math.inf:
        raise DomainError(f"theta must be positive and finite, got {theta}")
    if p.lam <= -theta:
        return None
    y = p.lam / theta
    if abs(y) < 1e-8:  # log1p(y) / y by its series, also where lam / theta underflows
        return (1.0 - y / 2.0 + y * y / 3.0) / theta
    return (math.log1p(y) if y > -0.5 else math.log((theta + p.lam) / theta)) / p.lam


def logsob_time_constant(m: int, C1: float, t: float) -> float:
    """C(t) = (e^((m-1) C1^2 t) - 1) / ((m-1) C1^2), continuous value t at C1 = 0."""
    if not (m >= 1 and 0.0 <= C1 < math.inf and 0.0 <= t < math.inf):  # also at a NaN
        raise DomainError(f"need m >= 1 and finite C1, t >= 0, got m={m}, C1={C1}, t={t}")
    return radial_R(-(m - 1) * C1 * C1, t)


def logsob_bound(
    mode: str,
    m: int,
    n: int,
    C1: float,
    Lambda: float,
    r0: float,
    t: float,
    theta: float,
) -> float:
    """Heat-semigroup exponential bounds from the log-Sobolev route.

    mode "linear" bounds E exp(theta r_N); mode "quadratic" bounds
    E exp(theta r_N^2 / 2) and requires theta C(t) < 1, where
    C(t) = (e^((m-1) C1^2 t) - 1) / ((m-1) C1^2), read as t when C1 = 0.
    """
    if mode not in ("linear", "quadratic"):
        raise DomainError(f"mode must be linear or quadratic, got {mode!r}")
    if not 0 <= n <= m - 1:
        raise DomainError(f"need 0 <= n <= m-1, got m={m}, n={n}")
    if not (0.0 <= C1 < math.inf and 0.0 <= Lambda < math.inf and 0.0 <= t < math.inf
            and 0.0 <= theta < math.inf):  # also at a NaN
        raise DomainError(f"C1, Lambda, t, theta must be finite and non-negative, got {C1}, {Lambda}, {t}, {theta}")
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    if theta == 0.0:  # exp(0), also where r0 or the drift is past the floats' square root
        return 1.0
    Ct, k = logsob_time_constant(m, C1, t), (m - 1) * C1 * C1
    x = theta * Ct
    quad = theta * x / 2.0  # theta^2 C(t) / 2, where theta * theta could overflow against C(0) = 0
    if Ct == SATURATION and theta > 0.0 and k > 0.0:  # in logs, or a tiny theta hides the saturation
        logx = math.log(theta) - math.log(k)
        logx += k * t if k * t > 700.0 else math.log(math.expm1(k * t))  # + log(k C(t))
        x, quad = _exp_sat(logx), _exp_sat(logx + math.log(theta) - math.log(2.0))
    drift = n * Lambda + (m - 1) * C1
    base = math.sqrt(r0 * r0 + (m - n) * t) if r0 < 1e154 else math.hypot(r0, math.sqrt((m - n) * t))
    if mode == "linear":
        return _exp_sat(theta * base + drift * theta * t / 2.0 + quad)
    if x >= 1.0:
        raise DomainError(f"quadratic mode requires theta C(t) < 1, got {x}")
    y = base + drift * t / 2.0
    q = theta * y**2 if y < 1e154 else theta * y * y  # a float y**2 raises OverflowError past the floats
    return _exp_sat(q / (2.0 * (1.0 - x)))


def _concentration_radial(p: LyapunovParams, t: float, r: float) -> tuple[float, float]:
    # R(t) and R(t) e^(lam t) of the tail bounds, after their domain checks
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if not 0.0 < r < math.inf:
        raise DomainError(f"r must be positive and finite, got {r}")
    return radial_R(p.lam, t), radial_R(-p.lam, t)


def _concentration_log(p: LyapunovParams, r0: float, r: float, R: float, growth: float, delta: float) -> float:
    return (
        -(p.nu / 2.0) * math.log1p(-delta)
        + r0 * r0 * delta / (2.0 * R * (1.0 - delta))
        - delta * r * r / (2.0 * growth)
    )


def concentration_bound(p: LyapunovParams, r0: float, t: float, r: float, delta: float) -> float:
    """Tail bound on P{r_N(X_t) >= r} at a chosen delta in [0, 1)."""
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    R, growth = _concentration_radial(p, t, r)
    if not 0.0 <= delta < 1.0:
        raise DomainError(f"delta must lie in [0, 1), got {delta}")
    return _exp_sat(_concentration_log(p, r0, r, R, growth, delta))


class OptimizedBound(NamedTuple):
    delta: float
    value: float
    log_value: float


def concentration_bound_optimized(p: LyapunovParams, r0: float, t: float, r: float) -> OptimizedBound:
    """The concentration bound at its exact minimiser over delta in [0, 1 - 1e-12].

    The log of the bound is convex in delta. With u = 1/(1 - delta),
    a = r0^2 / R and c = r^2 / (R e^(lam t)), its derivative vanishes where
    a u^2 + nu u = c; the positive root is u = 2c / (nu + sqrt(nu^2 + 4ac)),
    and delta = 1 - 1/u is clipped to the interval. Inside it, with
    eps = u - 1 = 4c(c - nu - a) / ((2c - nu + S)(nu + S)), S = sqrt(nu^2 + 4ac),
    the log at the root is (nu/2)(log1p(eps) - eps) - (a/2) eps^2, free of the
    cancellation of the log at a small delta. log_value is reported alongside
    since the value itself underflows for large r.
    """
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    R, growth = _concentration_radial(p, t, r)
    a, c, nu = r0 * r0 / R, r * r / growth, p.nu
    S = math.sqrt(nu * nu + 4.0 * a * c)
    eps = 0.0 if c <= nu + a else 4.0 * c * (c - nu - a) / ((2.0 * c - nu + S) * (nu + S))
    if not eps < 1e12 - 1.0:  # u >= 1e12, or NaN where r^2 overflows: the top of the interval
        delta = 1.0 - 1e-12
        logv = _concentration_log(p, r0, r, R, growth, delta)
    elif eps <= 0.0:
        delta, logv = 0.0, 0.0
    else:  # log1p(eps) - eps from its series where the difference cancels
        gap = math.log1p(eps) - eps if eps >= 0.01 else -eps * eps * sum((-eps) ** k / (k + 2) for k in range(10))
        delta, logv = eps / (1.0 + eps), nu / 2.0 * gap - a / 2.0 * eps * eps
    return OptimizedBound(delta=delta, value=_exp_sat(logv), log_value=logv)


def exit_time_bound(p: LyapunovParams, r0: float, t: float, r: float, delta: float) -> float:
    """Bound on P{sup_{s<=t} r_N(X_s) >= r} at delta in [0, 1); stated for lam >= 0 only."""
    if p.lam < 0.0:
        raise DomainError(f"exit_time_bound requires lam >= 0, got {p.lam}")
    return concentration_bound(p, r0, t, r, delta)


def feynman_kac_bound(mode: str, p: LyapunovParams, r0: float, t: float, C: float) -> float:
    """Operator-norm bounds for Feynman-Kac semigroups.

    mode "linear" covers potentials V <= C (1 + r_N) and needs nu >= 2,
    lam >= 0; mode "quadratic" covers V <= C (1 + r_N^2 / 2) and needs
    C t R(t) e^(lam t) < 1.
    """
    if mode not in ("linear", "quadratic"):
        raise DomainError(f"mode must be linear or quadratic, got {mode!r}")
    if not (t >= 0.0 and 0.0 <= C < math.inf):
        raise DomainError(f"need t >= 0 and finite C >= 0, got t={t}, C={C}")
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    if mode == "linear":
        if p.nu < 2.0 or p.lam < 0.0:
            raise DomainError(
                f"linear mode requires nu >= 2 and lam >= 0, got nu={p.nu}, lam={p.lam}"
            )
        inner = exp_dist_bound(p, r0, t, C * t)
        return SATURATION if C * t + math.log(inner) >= _LOG_SAT else math.exp(C * t) * inner
    return _exp_sat(_exp_sq_log(p, r0, t, C * t, "C t") + C * t)


# ------------------------------------------------------------------- curves

@dataclass
class BoundCurve:
    """A bound evaluated over a parameter grid with domain-validity flags."""

    grid: list[float]
    values: list[float]
    valid: list[bool]
    explosion_point: Optional[float] = None

    def __post_init__(self):
        if not (len(self.grid) == len(self.values) == len(self.valid)):
            raise DomainError("grid, values and valid must have equal length")


def bound_curve(
    fn: Callable[[float], float],
    grid: Sequence[float],
    explosion_point: Optional[float] = None,
) -> BoundCurve:
    """Evaluate fn over grid, recording DomainError points as invalid NaNs."""
    xs = [float(x) for x in grid]
    values: list[float] = []
    for x in xs:
        try:
            values.append(fn(x))
        except DomainError:
            values.append(math.nan)
    return BoundCurve(grid=xs, values=values, valid=[math.isfinite(v) for v in values],
                      explosion_point=explosion_point)


def exp_sq_curve(p: LyapunovParams, r0: float, theta: float, grid: Sequence[float]) -> BoundCurve:
    """exp_sq_bound over a time grid, with its explosion time attached.

    Each value has exp_sq_bound's bits. Where exp_sq_bound fails its domain
    test (theta R(t) e^(lam t) >= 1, or a saturated growth) the point is NaN
    by that same test, with no exception raised; a t outside [0, inf) still
    raises in radial_R, and bound_curve marks it invalid. An r0 outside
    [0, inf) raises DomainError, checked once for the curve.
    """
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    return bound_curve(
        lambda t: _exp_sat(_exp_sq_log(p, r0, t, theta, None)), grid, explosion_point=explosion_time(p, theta)
    )


def exp_dist_curve(p: LyapunovParams, r0: float, theta: float, grid: Sequence[float]) -> BoundCurve:
    """exp_dist_bound over a time grid; finite for all t. DomainError at an r0
    or a theta outside [0, inf), checked once for the curve."""
    if not 0.0 <= r0 < math.inf:
        raise DomainError(f"r0 must be a finite non-negative distance, got {r0}")
    if not 0.0 <= theta < math.inf:
        raise DomainError(f"theta must be finite and non-negative, got {theta}")
    return bound_curve(lambda t: exp_dist_bound(p, r0, t, theta), grid)


def curves_to_csv(curves: Sequence[BoundCurve]) -> list[str]:
    """Each curve's CSV text, header param,value,valid; byte-stable across runs.

    Consecutive curves on one grid share one repr text of it. One grid
    means the same float objects, as bound_curve keeps them from one input
    grid: equal floats can differ in repr (0.0 and -0.0).
    """
    texts: list[str] = []
    grid: list[float] = []
    x_text: list[str] = []
    for curve in curves:
        if not (len(curve.grid) == len(grid) and all(a is b for a, b in zip(curve.grid, grid))):
            grid, x_text = curve.grid, [f"{x!r}," for x in curve.grid]
        texts.append("param,value,valid\n" + "".join(
            [f"{xt}{v!r},{'true' if ok else 'false'}\n" for xt, v, ok in zip(x_text, curve.values, curve.valid)]))
    return texts


def curve_to_csv(curve: BoundCurve) -> str:
    """One curve's CSV text: curves_to_csv of that curve alone."""
    return curves_to_csv([curve])[0]
