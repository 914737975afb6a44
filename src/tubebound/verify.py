"""Desk-scale verification suite: each criterion checks one reproducible
number or domination property at a stated tolerance.

The CLI `verify` command and the acceptance test module both run this
registry; quick mode cuts Monte Carlo sizes by a factor of ten.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import stats as scipy_stats

from .bounds import (
    concentration_bound_optimized,
    even_moment_bound,
    exp_sq_bound,
    explosion_time,
    feynman_kac_bound,
    logsob_bound,
    second_moment_bound,
)
from .estimate import _mc_reduce, mc_exp_moment, mc_moment, mc_path_mean, occupation_extrapolated
from .modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    LyapunovParams,
    SphereInEuclidean,
    exact_exp_moment,
    revuz_mean_local_time,
)
from .specfun import comparison, laguerre, lemma_laguerre_rhs, upper_gamma

DEFAULT_SEED = 20240


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def _result(name: str, checks: list[tuple[bool, str]]) -> CriterionResult:
    failed = [msg for ok, msg in checks if not ok]
    if failed:
        return CriterionResult(name, False, "; ".join(failed))
    return CriterionResult(name, True, checks[0][1] if len(checks) == 1 else f"{len(checks)} checks ok; {checks[0][1]}")


def crit_explosion_times(quick: bool, seed: int) -> CriterionResult:
    t1 = explosion_time(LyapunovParams(nu=3.0, lam=1.0 / 3.0), 1.0 / 6.0)
    t2 = explosion_time(LyapunovParams(nu=3.0, lam=0.0), 1.0 / 6.0)
    want1 = 3.0 * math.log(3.0)
    checks = [
        (abs(t1 - want1) <= 1e-8, f"explosion(lam=1/3)={t1:.10f} vs 3log3={want1:.10f}"),
        (abs(t2 - 6.0) <= 1e-8, f"explosion(lam=0)={t2:.10f} vs 6"),
    ]
    return _result("figure-explosion-times", checks)


def crit_h3_second_moment(quick: bool, seed: int) -> CriterionResult:
    n = 10_000 if quick else 100_000
    s = HyperbolicH3Point(kappa=-1.0)
    p = LyapunovParams(nu=3.0, lam=2.0 / 3.0)
    checks = []
    for t in (0.5, 1.0, 2.0):
        est = mc_moment(s, 1, t, n, seed=seed + 2)
        exact = 3.0 * t + t * t
        bound = second_moment_bound(p, 0.0, t)
        checks.append(
            (
                abs(est.mean - exact) <= 3.0 * est.stderr,
                f"t={t}: mc={est.mean:.4f}±{est.stderr:.4f} vs exact={exact:.4f}",
            )
        )
        checks.append((est.mean <= bound, f"t={t}: mc={est.mean:.4f} <= bound={bound:.4f}"))
    return _result("h3-second-moment", checks)


def _flat_even_moment_oracle(d: int, r0: float, t: float, p: int) -> float:
    # noncentral chi-square moment via independence of coordinates
    def gauss_even(mu, var, j):
        tot = 0.0
        for i in range(j + 1):
            dfact = math.prod(range(1, 2 * i, 2)) if i else 1
            tot += math.comb(2 * j, 2 * i) * mu ** (2 * (j - i)) * var**i * dfact
        return tot

    def chi2_mom(dof, q):
        out = 1.0
        for i in range(q):
            out *= dof + 2 * i
        return out

    return sum(
        math.comb(p, j) * gauss_even(r0, t, j) * t ** (p - j) * chi2_mom(d - 1, p - j)
        for j in range(p + 1)
    )


def crit_flat_equality(quick: bool, seed: int) -> CriterionResult:
    checks = []
    total = 0
    for d in (1, 2, 3):
        lp = LyapunovParams(nu=float(d), lam=0.0, exact=True)
        for p in (1, 2, 3):
            for r0 in (0.0, 1.0):
                for t in (0.5, 1.0, 2.0):
                    total += 1
                    got = even_moment_bound(lp, r0, t, p)
                    want = _flat_even_moment_oracle(d, r0, t, p)
                    if not abs(got - want) <= 1e-10 * abs(want):
                        checks.append((False, f"moment d={d},p={p},r0={r0},t={t}: {got!r} vs {want!r}"))
        for r0 in (0.0, 1.0):
            for t in (0.5, 1.0, 2.0):
                for x in (0.1, 0.5, 0.9):
                    total += 1
                    theta = x / t
                    got = exp_sq_bound(lp, r0, t, theta)
                    want = exact_exp_moment(EuclideanAffine(m=d, n=0, r0=r0), theta, t)
                    if not abs(got - want) <= 1e-10 * abs(want):
                        checks.append((False, f"mgf d={d},r0={r0},t={t},theta*t={x}: {got!r} vs {want!r}"))
    if not checks:
        checks = [(True, f"{total} moment and mgf identities matched at rel 1e-10")]
    return _result("flat-equality", checks)


def crit_h3_exp_moment(quick: bool, seed: int) -> CriterionResult:
    n = 10_000 if quick else 100_000
    s = HyperbolicH3Point(kappa=-1.0)
    lp = LyapunovParams(nu=3.0, lam=2.0 / 3.0)
    est = mc_exp_moment(s, 0.1, 1.0, True, n, seed=seed + 4)
    want = 0.9**-1.5 * math.exp(0.1 / 1.8)
    checks = [
        (
            abs(est.mean - want) <= 3.0 * est.stderr,
            f"mc={est.mean:.5f}±{est.stderr:.5f} vs exact={want:.5f}",
        )
    ]
    for theta in (0.05, 0.1):
        for t in (0.5, 1.0):
            bound = exp_sq_bound(lp, 0.0, t, theta)
            exact = exact_exp_moment(s, theta, t)
            checks.append(
                (bound >= exact, f"theta={theta},t={t}: bound={bound:.5f} >= exact={exact:.5f}")
            )
    return _result("h3-exp-moment", checks)


def crit_h3_off_pole(quick: bool, seed: int) -> CriterionResult:
    # Lap cosh r = 3 cosh r on H^3 (kappa = -1), so E cosh r_1 = cosh(r0) e^1.5;
    # endpoints and grid paths are exact, so the checks have no bias budget
    n, paths = (100_000, 2_000) if quick else (1_000_000, 20_000)
    far, near = HyperbolicH3Point(r0=2.0), HyperbolicH3Point(r0=0.7)
    end, end_se, _ = _mc_reduce(far, 1.0, n, seed + 14, 1, np.cosh)
    path = mc_path_mean(near, 0.05, 1.0, paths, seed + 15, lambda v: np.cosh(v[:, -1]))
    checks = []
    for label, r0, mean, stderr in (("endpoint", 2.0, end, end_se), ("path dt=0.05", 0.7, path.mean, path.stderr)):
        want = math.cosh(r0) * math.exp(1.5)
        checks.append((abs(mean - want) <= 3.0 * stderr, f"{label} r0={r0}: mc={mean:.4f}±{stderr:.4f} vs {want:.4f}"))
    sq = mc_moment(far, 1, 1.0, n, seed + 16).mean
    bound = even_moment_bound(LyapunovParams(nu=3.0, lam=2.0 / 3.0), 2.0, 1.0, 1)
    checks.append((sq <= bound, f"endpoint r0=2.0: E r^2={sq:.4f} <= bound={bound:.4f}"))
    return _result("h3-off-pole", checks)


def crit_circle_cut_locus_local_time(quick: bool, seed: int) -> CriterionResult:
    n = 1_000 if quick else 10_000
    dt, t, eps = 1e-4, 20.0, 0.05
    s = CirclePoint(r0=0.0)
    mean = mc_path_mean(
        s, dt, t, n, seed + 5, lambda v: occupation_extrapolated(v, s, "cut_locus", dt, eps)
    ).mean
    want = t / (2.0 * math.pi) - math.pi / 6.0
    ok = abs(mean - want) <= 0.05 * want
    return _result(
        "circle-cut-locus-local-time",
        [(ok, f"mc={mean:.4f} vs t/2pi - pi/6 = {want:.4f} (tol 5%, n={n})")],
    )


def crit_sphere_local_time(quick: bool, seed: int) -> CriterionResult:
    n = 1_000 if quick else 10_000
    dt, t, eps = 1e-4, 1.0, 0.05
    s = SphereInEuclidean(m=2, radius=1.0)
    mean = mc_path_mean(
        s, dt, t, n, seed + 6, lambda v: occupation_extrapolated(v, s, "submanifold", dt, eps)
    ).mean / s.radius
    want = revuz_mean_local_time(s, t) / s.radius
    ok = abs(mean - want) <= 0.10 * want
    return _result(
        "sphere-local-time",
        [(ok, f"mc/r={mean:.4f} vs Gamma(0, 0.5)={want:.4f} (tol 10%, n={n})")],
    )


def crit_euler_mascheroni(quick: bool, seed: int) -> CriterionResult:
    val = math.log(2.0e6 + 1.0) - upper_gamma(0.0, 5e-7)
    err = abs(val - 0.5772157)
    return _result(
        "euler-mascheroni",
        [(err <= 1e-3, f"log(2e6+1) - Gamma(0, 5e-7) = {val:.7f} vs 0.5772157 (|diff|={err:.2e})")],
    )


def crit_revuz_slope(quick: bool, seed: int) -> CriterionResult:
    # E L_t = t/2pi + G(d), G(d) = d^2/2pi - d + pi/3, up to ~e^(-t/2) at circle distance d
    t, d = 50.0, math.pi / 2.0
    got = revuz_mean_local_time(CirclePoint(r0=d), t)
    want = (t + d * d) / (2.0 * math.pi) - d + math.pi / 3.0
    ok = abs(got - want) <= 1e-8
    return _result(
        "revuz-slope",
        [(ok, f"E L_t = {got:.10f} vs t/2pi + G(pi/2) = {want:.10f} (|diff| {abs(got - want):.0e}, tol 1e-8)")],
    )


def crit_laguerre_lemma(quick: bool, seed: int) -> CriterionResult:
    rng = np.random.default_rng(seed + 9)
    violations = 0
    for _ in range(1000):
        p = int(rng.integers(0, 21))
        alpha = float(rng.uniform(0.0, 10.0))
        z = float(rng.uniform(0.0, 50.0))
        lhs = math.factorial(p) * laguerre(p, alpha, -z)
        if lhs > lemma_laguerre_rhs(p, alpha, z):
            violations += 1
    return _result(
        "laguerre-lemma-bound",
        [(violations == 0, f"{violations} violations in 1000 random (p, alpha, z)")],
    )


def crit_generating_identity(quick: bool, seed: int) -> CriterionResult:
    checks = []
    for gamma in (0.3, 0.5):
        for alpha in (0.5, 2.0):
            for z in (0.5, 1.0):
                partial = sum(gamma**p * laguerre(p, alpha, z) for p in range(61))
                closed = (1.0 - gamma) ** (-(alpha + 1.0)) * math.exp(-z * gamma / (1.0 - gamma))
                rel = abs(partial - closed) / abs(closed)
                if rel > 1e-8:
                    checks.append((False, f"gamma={gamma},alpha={alpha},z={z}: rel err {rel:.2e}"))
    if not checks:
        checks = [(True, "8 partial sums matched the closed form at rel 1e-8")]
    return _result("laguerre-generating-identity", checks)


def crit_concentration_rate(quick: bool, seed: int) -> CriterionResult:
    lp = LyapunovParams(nu=3.0, lam=0.0)
    opt = concentration_bound_optimized(lp, 0.0, 1.0, 1000.0)
    rate = opt.log_value / 1000.0**2
    checks = [(abs(rate + 0.5) <= 1e-3, f"rate={rate:.6f} vs -1/2 (tol 1e-3)")]
    for r in (2.0, 4.0, 6.0):
        bound = concentration_bound_optimized(lp, 0.0, 1.0, r).value
        tail = float(scipy_stats.chi2.sf(r * r, df=3))
        checks.append((bound >= tail, f"r={r}: bound={bound:.3e} >= chi tail={tail:.3e}"))
    return _result("concentration-rate", checks)


def crit_comparison_properties(quick: bool, seed: int) -> CriterionResult:
    rng = np.random.default_rng(seed + 12)
    violations = 0
    for _ in range(1000):
        kappa = -float(rng.uniform(0.01, 10.0))
        a = math.sqrt(-kappa)
        lam = float(rng.uniform(-5.0, 5.0))
        tmax = math.atanh(min(a / -lam, 1.0 - 1e-12)) / a if lam < -a else 8.0
        t1 = float(rng.uniform(1e-3, 0.5 * tmax))
        t2 = float(rng.uniform(t1 + 1e-3 * tmax, 0.98 * tmax))
        v1 = comparison(kappa, lam, t1)
        v2 = comparison(kappa, lam, t2)
        tol = 1e-12
        if v1.g > a * (1.0 + tol) or v2.g > a * (1.0 + tol):
            violations += 1
        if v1.f > max(lam, a) + tol * (1.0 + abs(lam)) or v2.f > max(lam, a) + tol * (1.0 + abs(lam)):
            violations += 1
        if abs(lam) < a:
            if not v2.f > v1.f:
                violations += 1
        elif not v2.f <= v1.f + tol:
            violations += 1
    return _result(
        "comparison-function-properties",
        [(violations == 0, f"{violations} violations in 1000 random (kappa, lam, t1 < t2)")],
    )


def crit_feynman_kac_quadratic(quick: bool, seed: int) -> CriterionResult:
    n = 1_000 if quick else 10_000
    theta, t, dt = 0.25, 1.0, 1e-3
    s = EuclideanAffine(m=1, n=0, r0=0.0)
    lp = LyapunovParams(nu=1.0, lam=0.0)
    est = mc_path_mean(
        s, dt, t, n, seed + 13, lambda v: np.exp(0.5 * theta * (dt * np.sum(v[:, :-1] ** 2, axis=1)))
    )
    mean, stderr = est.mean, est.stderr
    want = math.cos(math.sqrt(theta) * t) ** -0.5
    bound = feynman_kac_bound("quadratic", lp, 0.0, t, theta)
    checks = [
        (abs(mean - want) <= 3.0 * stderr, f"mc={mean:.5f}±{stderr:.5f} vs cos(1/2)^(-1/2)={want:.5f}"),
        (mean <= bound, f"mc={mean:.5f} <= bound={bound:.5f}"),
    ]
    return _result("feynman-kac-quadratic", checks)


def crit_logsob_domination(quick: bool, seed: int) -> CriterionResult:
    checks = []
    for m in (1, 3):
        for x in np.arange(0.1, 0.95, 0.1):
            bound = logsob_bound("quadratic", m, 0, 0.0, 0.0, 0.0, 1.0, float(x))
            exact = (1.0 - float(x)) ** (-m / 2.0)
            if not bound > exact:
                checks.append((False, f"m={m},theta*C={x:.1f}: bound={bound:.5f} not > exact={exact:.5f}"))
    if not checks:
        checks = [(True, "strict domination over the flat mgf at all 18 grid points")]
    return _result("logsob-domination", checks)


CRITERIA: list[tuple[str, Callable[[bool, int], CriterionResult]]] = [
    ("figure-explosion-times", crit_explosion_times),
    ("h3-second-moment", crit_h3_second_moment),
    ("flat-equality", crit_flat_equality),
    ("h3-exp-moment", crit_h3_exp_moment),
    ("h3-off-pole", crit_h3_off_pole),
    ("circle-cut-locus-local-time", crit_circle_cut_locus_local_time),
    ("sphere-local-time", crit_sphere_local_time),
    ("euler-mascheroni", crit_euler_mascheroni),
    ("revuz-slope", crit_revuz_slope),
    ("laguerre-lemma-bound", crit_laguerre_lemma),
    ("laguerre-generating-identity", crit_generating_identity),
    ("concentration-rate", crit_concentration_rate),
    ("comparison-function-properties", crit_comparison_properties),
    ("feynman-kac-quadratic", crit_feynman_kac_quadratic),
    ("logsob-domination", crit_logsob_domination),
]


def run_all(quick: bool = False, seed: int = DEFAULT_SEED) -> list[CriterionResult]:
    return [fn(quick, seed) for _, fn in CRITERIA]
