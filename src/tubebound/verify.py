"""Desk-scale verification suite: each criterion checks reproducible
numbers or domination properties at stated tolerances.

A criterion returns its checks as records (`Check`): the number, what it is
compared with, the tolerance and, for a Monte Carlo mean, its standard
error; pass/fail and the printed line are views of those records. The CLI
`verify` command and the acceptance test module both run this registry;
quick mode cuts most Monte Carlo sizes by a factor of ten. The CLI
`localtime` command runs the local-time criteria's experiment,
`local_time_mean`, at its own n, dt, t and seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Callable

import numpy as np

from .bounds import (
    concentration_bound_optimized,
    even_moment_bound,
    exp_sq_bound,
    explosion_time,
    feynman_kac_bound,
    logsob_bound,
    second_moment_bound,
)
from .errors import DomainError
from .estimate import MCEstimate, bridge_local_time, mc_exp_moment, mc_mean, mc_moment, mc_path_mean
from .modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    LyapunovParams,
    Scenario,
    SphereInEuclidean,
    exact_exp_moment,
    revuz_mean_local_time,
)
from .simulate import stream
from .specfun import comparison, laguerre, lemma_laguerre_rhs, upper_gamma

DEFAULT_SEED = 20240


@dataclass(frozen=True)
class Check:
    """One checked number. With gap = value - target, op "vs" passes when
    |gap| <= tol and "<=", "<", ">" when gap <= tol, gap < tol, gap > -tol; NaN
    fails. stderr is set on a Monte Carlo mean, whose tol is 3 stderr + bias."""

    label: str
    value: float
    op: str
    target: float
    tol: float = 0.0
    stderr: float | None = None

    @property
    def ok(self) -> bool:
        gap, tol = self.value - self.target, self.tol
        return bool({"vs": abs(gap) <= tol, "<=": gap <= tol, "<": gap < tol, ">": gap > -tol}[self.op])

    def text(self) -> str:
        # a Monte Carlo mean and its stderr in fixed point: readers parse mc=<mean>±<stderr>
        value = f"{self.value:.10g}" if self.stderr is None else f"{self.value:.5f}±{self.stderr:.5f}"
        return f"{self.label}={value} {self.op} {self.target:.10g} (tol {self.tol:.3g})"


def _mc(label: str, est: MCEstimate, target: float, bias: float = 0.0) -> Check:
    """A Monte Carlo mean against its exact value at 3 sigma plus a bias budget."""
    return Check(label, est.mean, "vs", target, 3.0 * est.stderr + bias, est.stderr)


@dataclass(frozen=True)
class CriterionResult:
    name: str
    checks: list[Check]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def detail(self) -> str:
        """The failing checks, or the count and the first check when all pass."""
        failed = [c.text() for c in self.checks if not c.ok]
        if failed:
            return "; ".join(failed)
        first = self.checks[0].text()
        return first if len(self.checks) == 1 else f"{len(self.checks)} checks ok; {first}"

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'}  {self.name}: {self.detail}"


def crit_explosion_times(quick: bool, seed: int) -> CriterionResult:
    t1 = explosion_time(LyapunovParams(nu=3.0, lam=1.0 / 3.0), 1.0 / 6.0)
    t2 = explosion_time(LyapunovParams(nu=3.0, lam=0.0), 1.0 / 6.0)
    checks = [Check("explosion(lam=1/3)", t1, "vs", 3.0 * math.log(3.0), 1e-8)]
    return CriterionResult("figure-explosion-times", checks + [Check("explosion(lam=0)", t2, "vs", 6.0, 1e-8)])


def crit_h3_second_moment(quick: bool, seed: int) -> CriterionResult:
    # no quick cut: the t = 0.5 bound is only 0.03 above the exact mean, so at
    # n = 10^4 (stderr 0.014) 2.5% of seeds failed; at 10^5 the margin is 6.8 sigma
    n = 100_000
    s = HyperbolicH3Point(kappa=-1.0)
    p = LyapunovParams(nu=3.0, lam=2.0 / 3.0)
    checks = []
    for t in (0.5, 1.0, 2.0):
        est = mc_moment(s, 1, t, n, seed=seed + 2)
        bound = second_moment_bound(p, 0.0, t)
        checks += [_mc(f"t={t}: mc", est, 3.0 * t + t * t), Check(f"t={t}: mc", est.mean, "<=", bound)]
    return CriterionResult("h3-second-moment", checks)


def _flat_even_moment_oracle(d: int, r0: float, t: float, p: int) -> float:
    # E |Y|^2p with |Y|^2 = X^2 + t chi2_(d-1), X ~ N(r0, t), by independence of coordinates
    def x_even(j):  # E X^2j, from the central moments t^i (2i - 1)!!
        return sum(
            math.comb(2 * j, 2 * i) * r0 ** (2 * (j - i)) * t**i * math.prod(range(1, 2 * i, 2)) for i in range(j + 1)
        )

    chi2 = lambda q: math.prod(d - 1 + 2 * i for i in range(q))  # E chi2_(d-1)^q
    return sum(math.comb(p, j) * x_even(j) * t ** (p - j) * chi2(p - j) for j in range(p + 1))


def crit_flat_equality(quick: bool, seed: int) -> CriterionResult:
    checks = []
    for d in (1, 2, 3):
        lp = LyapunovParams(nu=float(d), lam=0.0, exact=True)
        for p, r0, t in product((1, 2, 3), (0.0, 1.0), (0.5, 1.0, 2.0)):
            got, want = even_moment_bound(lp, r0, t, p), _flat_even_moment_oracle(d, r0, t, p)
            checks.append(Check(f"moment(d={d},p={p},r0={r0},t={t})", got, "vs", want, 1e-10 * abs(want)))
        for r0, t, x in product((0.0, 1.0), (0.5, 1.0, 2.0), (0.1, 0.5, 0.9)):
            got, want = exp_sq_bound(lp, r0, t, x / t), exact_exp_moment(EuclideanAffine(m=d, n=0, r0=r0), x / t, t)
            checks.append(Check(f"mgf(d={d},r0={r0},t={t},theta*t={x})", got, "vs", want, 1e-10 * abs(want)))
    return CriterionResult("flat-equality", checks)


def crit_h3_exp_moment(quick: bool, seed: int) -> CriterionResult:
    n = 10_000 if quick else 100_000
    s = HyperbolicH3Point(kappa=-1.0)
    lp = LyapunovParams(nu=3.0, lam=2.0 / 3.0)
    est = mc_exp_moment(s, 0.1, 1.0, True, n, seed=seed + 4)
    checks = [_mc("mc", est, 0.9**-1.5 * math.exp(0.1 / 1.8))]
    for theta, t in product((0.05, 0.1), (0.5, 1.0)):
        bound = exp_sq_bound(lp, 0.0, t, theta)
        checks.append(Check(f"theta={theta},t={t}: exact", exact_exp_moment(s, theta, t), "<=", bound))
    return CriterionResult("h3-exp-moment", checks)


def crit_h3_off_pole(quick: bool, seed: int) -> CriterionResult:
    # Lap cosh r = 3 cosh r on H^3 (kappa = -1), so E cosh r_1 = cosh(r0) e^1.5;
    # endpoints and grid paths are exact, so the checks have no bias budget
    n, paths = (100_000, 2_000) if quick else (1_000_000, 20_000)
    far, near = HyperbolicH3Point(r0=2.0), HyperbolicH3Point(r0=0.7)
    end = mc_mean(far, 1.0, n, seed + 14, np.cosh)
    path = mc_path_mean(near, 0.05, 1.0, paths, seed + 15, lambda v: np.cosh(v[:, -1]))
    bound = even_moment_bound(LyapunovParams(nu=3.0, lam=2.0 / 3.0), 2.0, 1.0, 1)
    checks = [
        _mc("endpoint r0=2.0: mc", end, math.cosh(2.0) * math.exp(1.5)),
        _mc("path dt=0.05 r0=0.7: mc", path, math.cosh(0.7) * math.exp(1.5)),
        Check("endpoint r0=2.0: E r^2", mc_moment(far, 1, 1.0, n, seed + 16).mean, "<=", bound),
    ]
    return CriterionResult("h3-off-pole", checks)


def local_time_mean(s: Scenario, t: float, n: int, dt: float, seed: int) -> tuple[MCEstimate, float]:
    """The bridge estimate of a mean local time over n paths of step dt, and
    its closed form: on the circle from N (r0 = 0) at N's cut locus, the
    antipode at distance pi - r; on the sphere at its shell, at distance r."""
    if isinstance(s, CirclePoint) and s.r0 == 0.0:
        distance, target = lambda v: math.pi - v, CirclePoint(r0=math.pi)
    elif isinstance(s, SphereInEuclidean):
        distance, target = lambda v: v, s
    else:
        raise DomainError(f"local time is measured on the circle from r0 = 0 and on the sphere, not {s}")
    est = mc_path_mean(s, dt, t, n, seed, lambda v: bridge_local_time(distance(v), dt))
    return est, revuz_mean_local_time(target, t)


def crit_circle_cut_locus_local_time(quick: bool, seed: int) -> CriterionResult:
    # the bridge local time at the antipode is exact at any dt, so the check is
    # 3 sigma with no bias budget, and quick mode keeps n; the target is t/2pi - pi/6
    n, dt, t = 10_000, 0.1, 20.0
    est, want = local_time_mean(CirclePoint(), t, n, dt, seed + 5)
    return CriterionResult("circle-cut-locus-local-time", [_mc(f"n={n}, dt={dt}: mc", est, want)])


def crit_sphere_local_time(quick: bool, seed: int) -> CriterionResult:
    # the shell's varying drift biases this by about -8e-4 at dt = 1e-2, the gap
    # between the means at dt = 2e-2 and 1e-2 (2e6 paths each, stderr 3.3e-4);
    # at radius 1 the local time is also its value per unit radius, Gamma(0, 0.5)
    n = 1_000 if quick else 10_000
    dt, t, bias = 1e-2, 1.0, 0.002
    est, want = local_time_mean(SphereInEuclidean(m=2, radius=1.0), t, n, dt, seed + 6)
    return CriterionResult("sphere-local-time", [_mc(f"n={n}, dt={dt}: mc/r", est, want, bias)])


def crit_euler_mascheroni(quick: bool, seed: int) -> CriterionResult:
    val = math.log(2.0e6 + 1.0) - upper_gamma(0.0, 5e-7)
    return CriterionResult("euler-mascheroni", [Check("log(2e6+1) - Gamma(0, 5e-7)", val, "vs", 0.5772157, 1e-3)])


def crit_revuz_slope(quick: bool, seed: int) -> CriterionResult:
    # E L_t = t/2pi + G(d), G(d) = d^2/2pi - d + pi/3, up to ~e^(-t/2) at circle distance d
    t, d = 50.0, math.pi / 2.0
    got = revuz_mean_local_time(CirclePoint(r0=d), t)
    want = (t + d * d) / (2.0 * math.pi) - d + math.pi / 3.0
    return CriterionResult("revuz-slope", [Check("E L_t(d=pi/2)", got, "vs", want, 1e-8)])


def crit_laguerre_lemma(quick: bool, seed: int) -> CriterionResult:
    rng = np.random.default_rng(seed + 9)
    gaps = []
    for _ in range(1000):
        p = int(rng.integers(0, 21))
        alpha = float(rng.uniform(0.0, 10.0))
        z = float(rng.uniform(0.0, 50.0))
        gaps.append(math.factorial(p) * laguerre(p, alpha, -z) - lemma_laguerre_rhs(p, alpha, z))
    worst = Check("max of p! L(-z) - rhs over 1000 random (p, alpha, z)", np.max(gaps), "<=", 0.0)
    return CriterionResult("laguerre-lemma-bound", [worst])


def crit_generating_identity(quick: bool, seed: int) -> CriterionResult:
    checks = []
    for gamma, alpha, z in product((0.3, 0.5), (0.5, 2.0), (0.5, 1.0)):
        partial = sum(gamma**p * laguerre(p, alpha, z) for p in range(61))
        closed = (1.0 - gamma) ** (-(alpha + 1.0)) * math.exp(-z * gamma / (1.0 - gamma))
        checks.append(Check(f"sum(gamma={gamma},alpha={alpha},z={z})", partial, "vs", closed, 1e-8 * abs(closed)))
    return CriterionResult("laguerre-generating-identity", checks)


def crit_concentration_rate(quick: bool, seed: int) -> CriterionResult:
    lp = LyapunovParams(nu=3.0, lam=0.0)
    opt = concentration_bound_optimized(lp, 0.0, 1.0, 1000.0)
    checks = [Check("rate", opt.log_value / 1000.0**2, "vs", -0.5, 1e-3)]
    for r in (2.0, 4.0, 6.0):
        # P(chi2_3 > r^2), the tail of |B_1| in R^3
        tail = math.erfc(r / math.sqrt(2.0)) + math.sqrt(2.0 / math.pi) * r * math.exp(-r * r / 2.0)
        checks.append(Check(f"r={r}: chi tail", tail, "<=", concentration_bound_optimized(lp, 0.0, 1.0, r).value))
    return CriterionResult("concentration-rate", checks)


def crit_comparison_properties(quick: bool, seed: int) -> CriterionResult:
    # one record per property: its worst gap over 1000 random (kappa, lam, t1 < t2)
    rng = np.random.default_rng(seed + 12)
    tol = 1e-12
    g_gap, f_gap, rise, fall = [], [], [], []
    for _ in range(1000):
        kappa = -float(rng.uniform(0.01, 10.0))
        a = math.sqrt(-kappa)
        lam = float(rng.uniform(-5.0, 5.0))
        tmax = math.atanh(min(a / -lam, 1.0 - 1e-12)) / a if lam < -a else 8.0
        t1 = float(rng.uniform(1e-3, 0.5 * tmax))
        t2 = float(rng.uniform(t1 + 1e-3 * tmax, 0.98 * tmax))
        v1 = comparison(kappa, lam, t1)
        v2 = comparison(kappa, lam, t2)
        g_gap += [v.g - a * (1.0 + tol) for v in (v1, v2)]
        f_gap += [v.f - (max(lam, a) + tol * (1.0 + abs(lam))) for v in (v1, v2)]
        if abs(lam) < a:
            rise.append(v1.f - v2.f)
        else:
            fall.append(v2.f - (v1.f + tol))
    checks = [
        Check("max g - a(1 + 1e-12)", np.max(g_gap), "<=", 0.0),
        Check("max f - max(lam, a) - 1e-12(1 + |lam|)", np.max(f_gap), "<=", 0.0),
        Check("max f(t1) - f(t2) at |lam| < a", np.max(rise), "<", 0.0),
        Check("max f(t2) - f(t1) - 1e-12 at |lam| >= a", np.max(fall), "<=", 0.0),
    ]
    return CriterionResult("comparison-function-properties", checks)


def crit_feynman_kac_quadratic(quick: bool, seed: int) -> CriterionResult:
    n = 1_000 if quick else 10_000
    theta, t, dt = 0.25, 1.0, 1e-3
    s = EuclideanAffine(m=1, n=0, r0=0.0)
    lp = LyapunovParams(nu=1.0, lam=0.0)
    est = mc_path_mean(s, dt, t, n, seed + 13, lambda v: np.exp(0.5 * theta * (dt * np.sum(v[:, :-1] ** 2, axis=1))))
    bound = feynman_kac_bound("quadratic", lp, 0.0, t, theta)
    checks = [_mc("mc", est, math.cos(math.sqrt(theta) * t) ** -0.5), Check("mc", est.mean, "<=", bound)]
    return CriterionResult("feynman-kac-quadratic", checks)


def crit_logsob_domination(quick: bool, seed: int) -> CriterionResult:
    # strict domination over the flat mgf (1 - theta C)^(-m/2)
    checks = []
    for m, x in product((1, 3), map(float, np.arange(0.1, 0.95, 0.1))):
        bound = logsob_bound("quadratic", m, 0, 0.0, 0.0, 0.0, 1.0, x)
        checks.append(Check(f"m={m},theta*C={x:.1f}: bound", bound, ">", (1.0 - x) ** (-m / 2.0)))
    return CriterionResult("logsob-domination", checks)


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
    stream(seed)  # DomainError for a seed stream() rejects, before the criteria offset it
    return [fn(quick, seed) for _, fn in CRITERIA]
