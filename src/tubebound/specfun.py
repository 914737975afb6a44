"""Scalar special functions used by the geometric bounds.

Everything here is a pure function of its arguments; no shared state.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

_KUMMER_CAP = 100_000
_KUMMER_TOL = 1e-16
_ASYM_TOL = 1e-17
_TINY_A_SCALE = 2.0**600


def _whole(k) -> bool:
    # an int or a numpy integer; not a float, even a whole one
    return hasattr(k, "__index__")


@dataclass(frozen=True)
class ComparisonValues:
    """Values of the constant-curvature comparison functions at one (kappa, lam, t).

    s, c solve the Jacobi equation s'' + kappa*s = 0 with s(0)=0, c=s';
    g and f are the logarithmic derivatives of s/t and of c + lam*s.
    """

    s: float
    c: float
    g: float
    f: float


def comparison(kappa: float, lam: float, t: float) -> ComparisonValues:
    """Evaluate S, C, G and F at time t > 0.

    G and F come from closed-form derivatives, never finite differences.
    For kappa < 0 both are evaluated through tanh to stay finite for
    large sqrt(-kappa)*t. DomainError at a NaN or infinite argument.
    """
    if not 0.0 < t < math.inf:
        raise DomainError(f"t must be positive and finite, got {t}")
    # NaN-failing: a NaN kappa would reach the kappa < 0 branch and read as s = c = inf
    if not (-math.inf < kappa < math.inf and -math.inf < lam < math.inf):
        raise DomainError(f"kappa and lam must be finite, got kappa={kappa}, lam={lam}")
    if kappa > 0.0:
        rk = math.sqrt(kappa)
        v = rk * t
        s = math.sin(v) / rk
        c = math.cos(v)
        if s <= 0.0:
            raise DomainError(f"S_kappa({t}) = {s} <= 0 (need t < pi/sqrt(kappa))")
        denom = c + lam * s
        if denom <= 0.0:
            raise DomainError(f"C + lam*S = {denom} <= 0 at t={t}")
        g = rk * _cot_minus_inv(v)
        f = (-kappa * s + lam * c) / denom
    elif kappa == 0.0:
        s = t
        c = 1.0
        denom = 1.0 + lam * t
        if denom <= 0.0:
            raise DomainError(f"C + lam*S = {denom} <= 0 at t={t}")
        g = 0.0
        f = lam / denom
    else:
        a = math.sqrt(-kappa)
        u = a * t
        s = math.sinh(u) / a if u < 700.0 else math.inf
        c = math.cosh(u) if u < 700.0 else math.inf
        g = a * _coth_minus_inv(u)
        th = math.tanh(u)
        denom = 1.0 + (lam / a) * th
        if denom <= 0.0:
            raise DomainError(f"C + lam*S <= 0 at t={t} (lam={lam}, kappa={kappa})")
        f = (a * th + lam) / denom
    return ComparisonValues(s=s, c=c, g=g, f=f)


def _coth_minus_inv(u: float) -> float:
    # coth(u) - 1/u, stable near 0; tends to 1 as u -> inf
    if u < 1e-4:
        return u / 3.0 - u**3 / 45.0
    if u > 350.0:
        return 1.0 - 1.0 / u
    return 1.0 / math.tanh(u) - 1.0 / u


def _cot_minus_inv(v: float) -> float:
    # cot(v) - 1/v, stable near 0
    if v < 1e-4:
        return -v / 3.0 - v**3 / 45.0
    return 1.0 / math.tan(v) - 1.0 / v


def laguerre(p: int, alpha: float, z: float) -> float:
    """Generalized Laguerre polynomial L^alpha_p(z) by the three-term recurrence.

    Stable for the z <= 0 arguments the moment bounds use, where every
    recurrence term has the same sign. DomainError at a NaN alpha or z, or
    where the terms leave the floats and cancel (inf - inf).
    """
    if not (_whole(p) and p >= 0):
        raise DomainError(f"order must be a non-negative integer, got {p}")
    if not alpha > -1.0:  # also at a NaN
        raise DomainError(f"alpha must exceed -1, got {alpha}")
    if p == 0:
        return 1.0
    lkm1 = 1.0
    lk = 1.0 + alpha - z
    for k in range(1, p):
        lkm1, lk = lk, ((2 * k + 1 + alpha - z) * lk - (k + alpha) * lkm1) / (k + 1)
    if lk != lk:  # once, on the result: a NaN z, or inf - inf past the float range
        raise DomainError(f"L^{alpha}_{p}({z}) is not a number")
    return lk


def kummer(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric 1F1(a, b, z) = 1 + kummerm1(a, b, z), in kummerm1's three regimes."""
    return 1.0 + kummerm1(a, b, z)


def kummerm1(a: float, b: float, z: float) -> float:
    """1F1(a, b, z) - 1, free of the cancellation of kummer(a, b, z) - 1 near z = 0.

    Terminating (z >= 0, b > 0, n = a - b a non-negative integer as rounded): Kummer's
    transformation (DLMF 13.2.39) e^z P - 1 = expm1(z) P + (P - 1), P = 1F1(-n, b, -z) a
    polynomial of degree n, P - 1 summed in exactly its n terms (the terms and sum of
    _series_m1(-n, b, -z), bit for bit). Large z (>= 50): Gamma(b)/Gamma(a) e^z z^(a-b) S - 1,
    S from _large_z_sum. Otherwise the term-ratio series past its leading 1, until a
    shrinking term is twice below 1e-16 of the sum; for a subnormal a it is summed at
    a 2^600 and scaled back, so that its first term a z / b keeps every digit.
    ConvergenceError past float range or at 1e5 terms (n > 1e5 included); DomainError
    at a NaN argument, or at b a non-positive integer or -inf.
    """
    if b <= 0.0 and (b == -math.inf or float(b).is_integer()):  # poles, with no limit at -inf
        raise DomainError(f"b must not be a non-positive integer or -inf, got {b}")
    n = a - b
    if z >= 0.0 and b > 0.0 and n >= 0.0 and float(n).is_integer():
        if n > _KUMMER_CAP:
            raise ConvergenceError(f"1F1({a}, {b}, {z}) is a polynomial of more than {_KUMMER_CAP} terms")
        term, pm1 = 1.0, 0.0  # all terms positive; P >= 1: 1F1 overflows where e^z does
        for p in range(int(n)):
            term *= (n - p) * z / ((b + p) * (p + 1))  # _series_m1's ratio at (-n, b, -z)
            pm1 += term
        total = (math.expm1(z) if z <= 709.782712893384 else math.inf) * (1.0 + pm1) + pm1
        if not math.isfinite(total):
            raise ConvergenceError(f"1F1({a}, {b}, {z}) overflows a float")
        return total
    s = _large_z_sum(a, b, z)
    if s is not None:
        # the direct product, to a few ulps; e^z in halves, as it can overflow where 1F1 does not
        half = math.exp(z / 2.0) if z < 1400.0 else math.inf
        total = z ** (a - b) * math.gamma(b) / math.gamma(a) * s * half * half
        if not math.isfinite(total):
            raise ConvergenceError(f"1F1({a}, {b}, {z}) overflows a float")
        if total >= 2.0:  # below, 1F1 - 1 would cancel: the series has it exactly
            return total - 1.0
    if 0.0 < abs(a) < sys.float_info.min:
        # a + p == p for every p >= 1 at both scales, so the terms at a 2^600 are
        # the terms at a times 2^600 exactly, past the first one's rounding
        try:
            return _series_m1(a * _TINY_A_SCALE, b, z) / _TINY_A_SCALE
        except ConvergenceError:  # the scaled sum overflows: 1F1 - 1 > 2^424
            pass
    return _series_m1(a, b, z)


def _series_m1(a: float, b: float, z: float) -> float:
    # the term-ratio series of 1F1 - 1, for z >= 0 or where a is a non-positive integer
    term, total = 1.0, 0.0  # total: the terms past the leading 1
    small = 0
    for p in range(_KUMMER_CAP):
        ratio = (a + p) * z / ((b + p) * (p + 1))
        term *= ratio
        total += term
        if not math.isfinite(total):
            if math.isnan(a) or math.isnan(b) or math.isnan(z):  # a NaN ends here, off the finite calls' path
                raise DomainError(f"1F1({a}, {b}, {z}) has a NaN argument")
            raise ConvergenceError(f"1F1({a}, {b}, {z}) overflows a float")
        if abs(term) <= _KUMMER_TOL * abs(total) and abs(ratio) < 1.0:
            small += 1
            if small >= 2 or term == 0.0:
                return total
        else:
            small = 0
    raise ConvergenceError(f"1F1({a}, {b}, {z}) did not converge within {_KUMMER_CAP} terms")


def _large_z_sum(a: float, b: float, z: float) -> float | None:
    """S = sum_k (b-a)_k (1-a)_k / (k! z^k) of DLMF 13.7.2, finite for b = 1/2 and a = nu/2,
    or None where 13.7.2 would miss 1F1 by 1e-17 relative or its product leaves the floats.
    Below z = 50 the series is cheap and exact to a few ulps, so the expansion is not tried."""
    if not (0.0 < a < 170.0 and 0.0 < b < 170.0 and z >= 50.0):  # also False at a NaN
        return None
    if abs((a - b) * math.log(z)) > 350.0 or abs(math.lgamma(b) - math.lgamma(a)) > 350.0:
        return None  # z^(a-b) Gamma(b)/Gamma(a) could leave the normal floats
    if b - a <= 0.0 and float(b - a).is_integer():
        return None  # 1F1 is e^z times a polynomial: kummerm1 sums that instead
    # once its own series shrinks (z > |a (a-b+1)|), the part 13.7.2 drops is ~ Gamma(a)/
    # |Gamma(b-a)| e^-z z^(b-2a) relative
    lg = math.lgamma(a) - math.lgamma(b - a) - z + (b - 2.0 * a) * math.log(z)
    if z <= abs(a * (a - b + 1.0)) or lg > math.log(_ASYM_TOL):
        return None
    term = total = 1.0
    for k in range(1, _KUMMER_CAP):
        ratio = (b - a + k - 1) * (k - a) / (k * z)
        if abs(ratio) > 1.0:  # the terms start to grow
            return None
        term *= ratio
        total += term
        if abs(term) <= _ASYM_TOL * total:
            return total
    return None


def upper_gamma(a: float, x: float) -> float:
    """Upper incomplete gamma Gamma(a, x) = int_x^inf s^(a-1) e^(-s) ds, a, x >= 0.

    Gamma(a) Q(a, x) from scipy.special for a > 0 (DLMF 8.2.4), through
    exp(lgamma(a) + log Q) where Gamma(a) overflows (a > 171.6); a = 0 is the
    exponential integral E1(x) (DLMF 6.2.1). Raises DomainError where the
    value overflows, or where Q underflows (below the normal floats), since
    Gamma(a) Q then loses the value even where Gamma(a, x) is a normal float.
    """
    from scipy.special import exp1, gammaincc  # here, so that `import tubebound` loads no scipy

    if not (0.0 <= a < math.inf and x >= 0.0):  # also at a NaN; Gamma(inf, x) overflows
        raise DomainError(f"need finite a >= 0 and x >= 0, got a={a}, x={x}")
    if a == 0.0:
        if x == 0.0:
            raise DomainError("Gamma(0, 0) diverges")
        return float(exp1(x))
    q = float(gammaincc(a, x))
    if q < sys.float_info.min:
        raise DomainError(f"Gamma({a}, {x}) is out of reach: Q(a, x) = {q} underflows")
    try:
        return math.gamma(a) * q
    except OverflowError:
        pass
    try:
        return math.exp(math.lgamma(a) + math.log(q))
    except OverflowError:
        raise DomainError(f"Gamma({a}, {x}) overflows") from None


def lemma_laguerre_rhs(p: int, alpha: float, z: float) -> float:
    """Envelope (12(1+z))^p Gamma(alpha+1+p) / Gamma(alpha+1) for p! L^alpha_p(-z).

    Computed in log space so p up to 50 cannot overflow intermediates.
    """
    if not (_whole(p) and p >= 0):
        raise DomainError(f"order must be a non-negative integer, got {p}")
    if not (alpha >= 0.0 and z >= 0.0):  # also at a NaN
        raise DomainError(f"need alpha, z >= 0, got alpha={alpha}, z={z}")
    if p == 0:
        return 1.0
    logval = p * math.log(12.0 * (1.0 + z)) + math.lgamma(alpha + 1.0 + p) - math.lgamma(alpha + 1.0)
    return math.exp(logval)
