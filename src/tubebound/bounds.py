"""Right-hand sides of the moment and concentration inequalities.

Every function takes the Lyapunov pair (nu, lam) plus the remaining scalar
parameters and returns the bound value. Domains are enforced exactly;
values near an explosion are saturated at 1e300 instead of overflowing, so
curves stay plottable.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence

from .errors import ConvergenceError, DomainError
from .modelspaces import LyapunovParams
from .specfun import kummerm1, laguerre

SATURATION = 1e300
_LOG_SAT = math.log(SATURATION)


def _exp_sat(logv: float) -> float:
    """exp with saturation at 1e300; keeps near-explosion curves finite."""
    if logv >= _LOG_SAT:
        return SATURATION
    return math.exp(logv)


def radial_R(lam: float, t: float) -> float:
    """R(t) = (1 - e^(-lam t)) / lam, with R(0, t) = t exactly.

    A short series replaces the quotient for |lam t| < 1e-6 so the
    cancellation in the numerator cannot surface.
    """
    if t < 0.0:
        raise DomainError(f"t must be non-negative, got {t}")
    x = lam * t
    if abs(x) < 1e-6:
        return t * (1.0 - x / 2.0 + x * x / 6.0)
    return -math.expm1(-x) / lam


def _growth(lam: float, t: float) -> float:
    # R(t) e^{lam t} = (e^{lam t} - 1)/lam; increasing in t for every lam
    x = lam * t
    if abs(x) < 1e-6:
        return t * (1.0 + x / 2.0 + x * x / 6.0)
    if x > 690.0:
        return SATURATION
    return math.expm1(x) / lam


def second_moment_bound(p: LyapunovParams, r0: float, t: float) -> float:
    """(r0^2 + nu R(t)) e^(lam t), the second radial moment bound."""
    if t < 0.0:
        raise DomainError(f"t must be non-negative, got {t}")
    base = r0 * r0 + p.nu * radial_R(p.lam, t)
    if base == 0.0:
        return 0.0
    return _exp_sat(math.log(base) + p.lam * t)


def even_moment_bound(p: LyapunovParams, r0: float, t: float, ord: int) -> float:
    """(2 R e^(lam t))^ord ord! L^{nu/2-1}_ord(-r0^2 / 2R), the 2*ord-th moment bound."""
    if ord < 1:
        raise DomainError(f"ord must be a positive integer, got {ord}")
    if t < 0.0:
        raise DomainError(f"t must be non-negative, got {t}")
    if t == 0.0:
        return r0 ** (2 * ord)
    R = radial_R(p.lam, t)
    q = 2.0 * _growth(p.lam, t)
    lag = laguerre(ord, p.nu / 2.0 - 1.0, -r0 * r0 / (2.0 * R))
    logv = ord * math.log(q) + math.lgamma(ord + 1) + math.log(lag)
    if logv < 690.0:
        return q**ord * math.factorial(ord) * lag
    return _exp_sat(logv)


def _bold_r(p: LyapunovParams, r0: float, t: float, theta: float) -> float:
    return 12.0 * theta * theta * (r0 * r0 + 2.0 * radial_R(p.lam, t)) * math.exp(p.lam * t)


def exp_dist_bound(p: LyapunovParams, r0: float, t: float, theta: float) -> float:
    """Bound on E exp(theta r_N(X_t)), valid for nu >= 2.

    1 + (1 + B^(-1/2)) (1F1(nu/2, 1/2, B) - 1) with
    B = 12 theta^2 (r0^2 + 2 R(t)) e^(lam t); continuously extended to 1 at B = 0,
    saturated at 1e300.
    """
    if p.nu < 2.0:
        raise DomainError(f"exp_dist_bound requires nu >= 2, got nu={p.nu}")
    if t < 0.0 or theta < 0.0:
        raise DomainError(f"need t, theta >= 0, got t={t}, theta={theta}")
    B = _bold_r(p, r0, t, theta)
    if B == 0.0:
        return 1.0
    try:
        f1m1 = kummerm1(p.nu / 2.0, 0.5, B)
    except ConvergenceError:  # 1F1 itself overflows a float
        return SATURATION
    return min(1.0 + (1.0 + B**-0.5) * f1m1, SATURATION)


def exp_sq_bound(p: LyapunovParams, r0: float, t: float, theta: float) -> float:
    """Bound on E exp(theta r_N^2(X_t) / 2), valid while theta R(t) e^(lam t) < 1."""
    if t < 0.0 or theta < 0.0:
        raise DomainError(f"need t, theta >= 0, got t={t}, theta={theta}")
    x = theta * _growth(p.lam, t)
    if x >= 1.0:
        raise DomainError(f"domain requires theta R(t) e^(lam t) < 1, got {x}")
    logv = -(p.nu / 2.0) * math.log1p(-x) + theta * r0 * r0 * math.exp(p.lam * t) / (
        2.0 * (1.0 - x)
    )
    return _exp_sat(logv)


def explosion_time(p: LyapunovParams, theta: float) -> Optional[float]:
    """First t with theta R(t) e^(lam t) = 1, or None if that never happens.

    The product is strictly increasing in t, so bisection applies; for
    lam < 0 it is bounded by theta/(-lam), which may stay below 1.
    """
    if theta <= 0.0:
        raise DomainError(f"theta must be positive, got {theta}")
    if p.lam < 0.0 and theta / -p.lam <= 1.0:
        return None
    hi = 1.0
    while theta * _growth(p.lam, hi) < 1.0:
        hi *= 2.0
        if hi > 1e290:  # beyond any representable horizon (theta ~ 0)
            return None
    lo = 0.0
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if theta * _growth(p.lam, mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def logsob_time_constant(m: int, C1: float, t: float) -> float:
    """C(t) = (e^((m-1) C1^2 t) - 1) / ((m-1) C1^2), continuous value t at C1 = 0."""
    if m < 1 or C1 < 0.0 or t < 0.0:
        raise DomainError(f"need m >= 1 and C1, t >= 0, got m={m}, C1={C1}, t={t}")
    return _growth((m - 1) * C1 * C1, t)


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
    if min(C1, Lambda, r0, t, theta) < 0.0:
        raise DomainError("C1, Lambda, r0, t, theta must all be non-negative")
    Ct = logsob_time_constant(m, C1, t)
    drift = n * Lambda + (m - 1) * C1
    base = math.sqrt(r0 * r0 + (m - n) * t)
    if mode == "linear":
        return _exp_sat(theta * base + drift * theta * t / 2.0 + theta * theta * Ct / 2.0)
    x = theta * Ct
    if x >= 1.0:
        raise DomainError(f"quadratic mode requires theta C(t) < 1, got {x}")
    return _exp_sat(theta * (base + drift * t / 2.0) ** 2 / (2.0 * (1.0 - x)))


def _concentration_log(p: LyapunovParams, r0: float, t: float, r: float, delta: float) -> float:
    R = radial_R(p.lam, t)
    growth = _growth(p.lam, t)
    return (
        -(p.nu / 2.0) * math.log1p(-delta)
        + r0 * r0 * delta / (2.0 * R * (1.0 - delta))
        - delta * r * r / (2.0 * growth)
    )


def concentration_bound(
    p: LyapunovParams, r0: float, t: float, r: float, delta: float
) -> float:
    """Tail bound on P{r_N(X_t) >= r} at a chosen delta in [0, 1)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    if not 0.0 <= delta < 1.0:
        raise DomainError(f"delta must lie in [0, 1), got {delta}")
    return _exp_sat(_concentration_log(p, r0, t, r, delta))


class OptimizedBound(NamedTuple):
    delta: float
    value: float
    log_value: float


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def concentration_bound_optimized(
    p: LyapunovParams, r0: float, t: float, r: float
) -> OptimizedBound:
    """Minimize the concentration bound over delta by golden-section search.

    The log of the bound is convex in delta (its second derivative is a sum
    of positive terms), so the search cannot miss the minimum. log_value is
    reported alongside since the value itself underflows for large r.
    """
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if r <= 0.0:
        raise DomainError(f"r must be positive, got {r}")
    f = lambda d: _concentration_log(p, r0, t, r, d)
    lo, hi = 0.0, 1.0 - 1e-12
    x1 = hi - _INV_PHI * (hi - lo)
    x2 = lo + _INV_PHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    while hi - lo > 1e-8:
        if f1 <= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INV_PHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INV_PHI * (hi - lo)
            f2 = f(x2)
    delta = 0.5 * (lo + hi)
    logv = f(delta)
    return OptimizedBound(delta=delta, value=_exp_sat(logv), log_value=logv)


def exit_time_bound(
    p: LyapunovParams, r0: float, t: float, r: float, delta: float
) -> float:
    """Bound on P{sup_{s<=t} r_N(X_s) >= r}; stated for lam >= 0 only."""
    if p.lam < 0.0:
        raise DomainError(f"exit_time_bound requires lam >= 0, got {p.lam}")
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta must lie in (0, 1), got {delta}")
    return concentration_bound(p, r0, t, r, delta)


def feynman_kac_bound(
    mode: str, p: LyapunovParams, r0: float, t: float, C: float
) -> float:
    """Operator-norm bounds for Feynman-Kac semigroups.

    mode "linear" covers potentials V <= C (1 + r_N) and needs nu >= 2,
    lam >= 0; mode "quadratic" covers V <= C (1 + r_N^2 / 2) and needs
    C t R(t) e^(lam t) < 1.
    """
    if mode not in ("linear", "quadratic"):
        raise DomainError(f"mode must be linear or quadratic, got {mode!r}")
    if t < 0.0 or C < 0.0:
        raise DomainError(f"need t, C >= 0, got t={t}, C={C}")
    if mode == "linear":
        if p.nu < 2.0 or p.lam < 0.0:
            raise DomainError(
                f"linear mode requires nu >= 2 and lam >= 0, got nu={p.nu}, lam={p.lam}"
            )
        inner = exp_dist_bound(p, r0, t, C * t)
        return SATURATION if C * t + math.log(inner) >= _LOG_SAT else math.exp(C * t) * inner
    x = C * t * _growth(p.lam, t)
    if x >= 1.0:
        raise DomainError(f"domain requires C t R(t) e^(lam t) < 1, got {x}")
    logv = (
        -(p.nu / 2.0) * math.log1p(-x)
        + C * t
        + C * r0 * r0 * t * math.exp(p.lam * t) / (2.0 * (1.0 - x))
    )
    return _exp_sat(logv)


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
    values: list[float] = []
    valid: list[bool] = []
    for x in grid:
        try:
            v = fn(float(x))
        except DomainError:
            v = math.nan
        values.append(v)
        valid.append(math.isfinite(v))
    return BoundCurve(grid=[float(x) for x in grid], values=values, valid=valid,
                      explosion_point=explosion_point)


def exp_sq_curve(p: LyapunovParams, r0: float, theta: float, grid: Sequence[float]) -> BoundCurve:
    """exp_sq_bound over a time grid, with its explosion time attached."""
    return bound_curve(
        lambda t: exp_sq_bound(p, r0, t, theta), grid, explosion_point=explosion_time(p, theta)
    )


def exp_dist_curve(p: LyapunovParams, r0: float, theta: float, grid: Sequence[float]) -> BoundCurve:
    """exp_dist_bound over a time grid; finite for all t."""
    return bound_curve(lambda t: exp_dist_bound(p, r0, t, theta), grid)


def curve_to_csv(curve: BoundCurve) -> str:
    """CSV text with header param,value,valid; byte-stable across runs."""
    lines = ["param,value,valid"]
    for x, v, ok in zip(curve.grid, curve.values, curve.valid):
        lines.append(f"{x!r},{v!r},{'true' if ok else 'false'}")
    return "\n".join(lines) + "\n"
