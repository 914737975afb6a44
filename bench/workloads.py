"""The four workloads: each a fixed list of calls into `tubebound`'s public
functions, every result checked against a closed form.

A workload has `make_inputs(seed)`, which draws everything seed-dependent
(library seeds, grid offsets) before the first timed call, and
`run(inputs, p)`, which makes the calls through `Pass` and checks them.
The library receives only these generated inputs. Every pass of a run
makes the same calls on the same inputs, except on `path-mc`, whose
library seeds also depend on the pass number `p.index`, so that a run's
short passes add up to one precise estimate per call.

Monte Carlo results are gated at Z_GATE standard errors. At 3 sigma a
correct program would fail about one check in 370, and one benchmark
evaluation makes thousands of Monte Carlo checks across seeds; at 5 sigma
the family-wise false-alarm rate stays below 1e-3. Precision lost to a
smaller n shows in `time_to_1pct_s`, not in the gate.
"""
from __future__ import annotations

import contextlib
import csv
import io
import math
import re
import shutil
import statistics
import tempfile
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy import special, stats

from tubebound import bounds, cli, estimate, modelspaces, simulate, specfun, verify
from tubebound.modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    LyapunovParams,
    SphereInEuclidean,
)

Z_GATE = 5.0


class Pass:
    """One pass over a workload's call list: timing, checks and estimates."""

    def __init__(self, scratch: Path, index: int = 0, tracer=None):
        self.scratch = scratch
        self.index = index
        self.tracer = tracer
        self.checks = 0
        self.failed = 0
        self.failures: list[str] = []
        self.times: list[float] = []  # seconds of each call, in call order
        self.estimates: list[tuple[str, int, int, float, float]] = []
        self.overflow = 0

    def call(self, label: str, fn, *args, **kwargs):
        """Run fn(*args); returns (result, seconds), or (None, seconds) if it
        raised, which counts as a failed check. The seconds are also kept
        in `times`."""
        span = self.tracer.span(f"harness.{label}") if self.tracer else contextlib.nullcontext()
        if self.tracer:
            self.tracer.call_id = label
        t0 = perf_counter()
        try:
            with span:
                result = fn(*args, **kwargs)
        except Exception as err:  # a raising call is a failed check, not a crash
            self.times.append(perf_counter() - t0)
            self.check(False, f"{label} raised {type(err).__name__}: {err}")
            return None, self.times[-1]
        self.times.append(perf_counter() - t0)
        return result, self.times[-1]

    def check(self, ok: bool, msg: str) -> None:
        self.checks += 1
        if not ok:
            self.failed += 1
            self.failures.append(msg)

    def estimate(self, label: str, mean: float, stderr: float, since: int | None = None) -> None:
        """Record a Monte Carlo result for time_to_1pct_s, made by the calls
        from index `since` on, or by the latest call."""
        start = len(self.times) - 1 if since is None else since
        self.estimates.append((label, start, len(self.times), mean, stderr))

    def close(self, label, got, want, rel, abs_tol=0.0):
        self.check(abs(got - want) <= rel * abs(want) + abs_tol, f"{label}: {got!r} vs {want!r}")

    def mc_equal(self, label, est, want):
        self.check(abs(est.mean - want) <= Z_GATE * est.stderr,
                   f"{label}: {est.mean!r}±{est.stderr!r} vs exact {want!r}")

    def mc_below(self, label, est, bound):
        self.check(est.mean - Z_GATE * est.stderr <= bound,
                   f"{label}: {est.mean!r}±{est.stderr!r} above bound {bound!r}")

    def mc_above(self, label, est, floor):
        self.check(est.mean + Z_GATE * est.stderr >= floor,
                   f"{label}: {est.mean!r}±{est.stderr!r} below {floor!r}")

    def cli(self, label: str, argv: list[str]):
        """Run `tubebound <argv>` in process with its output captured."""
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            rc, secs = self.call(label, cli.main, argv)
        self.check(rc == 0, f"{label}: exit code {rc}: {out.getvalue()[-300:]}")
        return rc, secs



def time_to_1pct(passes: list[Pass], speeds: list[float]) -> float:
    """Geometric mean over a pass's Monte Carlo results of
    seconds * (stderr / |mean| / 0.01)^2.

    A result's seconds are those of the calls that made it, each pass's
    divided by that pass's entry in `speeds`, median over the passes. Its mean
    and squared stderr are averaged over the passes that made every result
    (a call that fails makes none), so results from fresh seeds on every
    pass pool into one estimate of the precision a single call reaches.
    """
    full = max(len(q.estimates) for q in passes)
    passes = [q for q in passes if len(q.estimates) == full]
    logs = []
    for k, (_, start, end, _, _) in enumerate(passes[0].estimates):
        mean = sum(q.estimates[k][3] for q in passes) / len(passes)
        var = sum(q.estimates[k][4] ** 2 for q in passes) / len(passes)
        secs = statistics.median(sum(q.times[start:end]) / v for q, v in zip(passes, speeds))
        logs.append(math.log(secs * var / (mean * 0.01) ** 2))
    return math.exp(sum(logs) / len(logs))


def _seeds(entropy, k: int) -> list[int]:
    return [int(x) for x in np.random.SeedSequence(entropy).generate_state(k)]


def _upper_gamma(a: float, x: float) -> float:
    """scipy's Gamma(a, x), with E1 at a = 0."""
    return float(special.exp1(x)) if a == 0.0 else float(special.gammaincc(a, x) * special.gamma(a))


def _read_csv(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ------------------------------------------------------------- verify-quick

class VerifyQuick:
    """`tubebound verify --quick`, criterion by criterion, with the circle
    criterion cut to CIRCLE_PATHS of its 1,000 paths.

    Each criterion is called through `verify.CRITERIA` as `run_all` calls
    it, except the circle criterion: as one call it takes about 11 s, so a
    run could repeat it only twice and its time would follow the host's
    speed. The pass makes that criterion's own calls instead
    (`sample_path` and `occupation_local_time_extrapolated` for its first
    CIRCLE_PATHS paths) and checks their mean.

    The library seed is verify's DEFAULT_SEED whatever `--seed` says. The
    full quick circle criterion checks an n=1000 mean at a fixed 5%
    tolerance; over 16 seeds that mean read 2.673 with standard deviation
    0.071 against the exact 2.660, so roughly one seed in fifteen fails.
    That is the library's false-alarm rate, not a fault a benchmark run
    should report; the call list has no other seed-dependent input.
    """

    name = "verify-quick"
    CIRCLE = "circle-cut-locus-local-time"
    CIRCLE_PATHS = 50

    def make_inputs(self, seed: int):
        return {"seed": verify.DEFAULT_SEED}

    def run(self, inputs, p: Pass) -> None:
        seed = inputs["seed"]
        for i, (name, _) in enumerate(verify.CRITERIA):
            if name == self.CIRCLE:
                self._circle(p, seed)
                continue
            # looked up on every call, so that a traced run sees its wrapper
            r, _ = p.call(f"verify.{name}", verify.CRITERIA[i][1], True, seed)
            if r is None:
                continue
            p.check(r.passed, f"{name}: {r.detail}")
            # criteria that report a Monte Carlo mean with its stderr
            for mean, se in re.findall(r"mc=([-0-9.e]+)±([0-9.e]+)", r.detail):
                p.estimate(name, float(mean), float(se))

    def _circle(self, p: Pass, seed: int) -> None:
        # the calls of verify.crit_circle_cut_locus_local_time, quick mode
        s, dt, t, eps = CirclePoint(r0=0.0), 1e-4, 20.0, 0.05
        since = len(p.times)
        vals = []
        for i in range(self.CIRCLE_PATHS):
            path, _ = p.call("simulate.sample_path", simulate.sample_path, s, dt, t, seed=seed + 5, index=i)
            if path is None:
                return
            v, _ = p.call("estimate.occupation", estimate.occupation_local_time_extrapolated, path, "cut_locus", eps)
            if v is None:
                return
            vals.append(v)
        n = len(vals)
        mean = sum(vals) / n
        se = math.sqrt(sum((v - mean) ** 2 for v in vals) / (n - 1) / n)
        p.estimate(self.CIRCLE, mean, se, since=since)
        p.mc_equal(f"{self.CIRCLE}/{n} paths", estimate.MCEstimate(mean=mean, stderr=se, n=n, seed=seed + 5),
                   t / (2.0 * math.pi) - math.pi / 6.0)


# -------------------------------------------------------------- endpoint-mc

class EndpointMC:
    """Exact endpoint draws: rejection sampling on H^3 and the reductions.

    Each call draws N = 2.5e5, a quarter of the 10^6 first specified, so a
    pass takes about half a second and a run repeats it often enough for
    its median to settle. `time_to_1pct_s` does not depend on n.
    """

    name = "endpoint-mc"
    N = 250_000
    T = 1.0
    THETA = 0.1
    SCENARIOS = {
        "flat": EuclideanAffine(m=3, n=0),
        "h3": HyperbolicH3Point(kappa=-1.0),
        "sphere": SphereInEuclidean(m=3, radius=1.0),
    }
    TAIL_R = {"flat": 2.0, "h3": 3.0, "sphere": 1.5}

    def make_inputs(self, seed: int):
        return {"seeds": _seeds(seed, 19)}

    def run(self, inputs, p: Pass) -> None:
        seeds = iter(inputs["seeds"])
        t, n = self.T, self.N
        for key, s in self.SCENARIOS.items():
            lp = modelspaces.lyapunov_params(s)
            r = self.TAIL_R[key]
            for parts in (1, 2):
                tag = f"{key}/partitions={parts}"
                est, _ = p.call(f"mc_moment/{tag}", estimate.mc_moment, s, 1, t, n, next(seeds), parts)
                if est is not None:
                    p.estimate(f"mc_moment/{tag}", est.mean, est.stderr)
                    exact = modelspaces.exact_moment(s, 1, t)
                    if exact is None:
                        p.mc_below(f"mc_moment/{tag}", est, bounds.even_moment_bound(lp, s.r0, t, 1))
                    else:
                        p.mc_equal(f"mc_moment/{tag}", est, exact)

                est, _ = p.call(f"mc_exp_moment/{tag}", estimate.mc_exp_moment,
                                   s, self.THETA, t, True, n, next(seeds), parts)
                if est is not None:
                    p.estimate(f"mc_exp_moment/{tag}", est.mean, est.stderr)
                    p.overflow += est.overflow
                    exact = modelspaces.exact_exp_moment(s, self.THETA, t)
                    if exact is None:
                        p.mc_below(f"mc_exp_moment/{tag}", est, bounds.exp_sq_bound(lp, s.r0, t, self.THETA))
                    else:
                        p.mc_equal(f"mc_exp_moment/{tag}", est, exact)

                est, _ = p.call(f"tail_prob/{tag}", estimate.tail_prob,
                                   s, r, t, False, n, None, next(seeds), parts)
                if est is not None:
                    p.estimate(f"tail_prob/{tag}", est.mean, est.stderr)
                    if key == "flat":  # r^2 / t is chi-square with m - n = 3 degrees
                        p.mc_equal(f"tail_prob/{tag}", est, float(stats.chi2.sf(r * r / t, 3)))
                    elif key == "sphere":  # r >= radius: only the outer shell |X| >= radius + r
                        p.mc_equal(f"tail_prob/{tag}", est,
                                   float(stats.chi2.sf((s.radius + r) ** 2 / t, s.m)))
                    else:
                        p.mc_below(f"tail_prob/{tag}", est,
                                   bounds.concentration_bound_optimized(lp, 0.0, t, r).value)

        # scripts/run_mc_comparison.py: H^3 second moment, 10^5 draws
        out = p.scratch / "mc"
        rc, _ = p.cli("cli.mc", ["mc", "--scenario", "h3", "--kappa", "-1", "--t", "1", "--p", "1",
                                    "--n", "100000", "--out", str(out), "--seed", str(next(seeds))])
        if rc == 0:
            row = _read_csv(out / "mc_results.csv")[0]
            est = estimate.MCEstimate(mean=float(row["mean"]), stderr=float(row["stderr"]),
                                      n=int(row["n"]), seed=int(row["seed"]))
            p.estimate("cli.mc", est.mean, est.stderr)
            p.mc_equal("cli.mc", est, modelspaces.exact_moment(self.SCENARIOS["h3"], 1, 1.0))


# ------------------------------------------------------------------ path-mc

class PathMC:
    """Many short paths: per-path overhead, the H^3 walk and sup-mode tails.

    A pass is short (about a second), so a run repeats it often enough
    for its median to settle: the sup-mode tails run a fifth of the paths
    the workload was specified with, and `tubebound localtime`
    walks paths of 10^3 steps, like the tails, not its default 10^4. The
    command checks its own mean at a fixed 10% tolerance, so it needs its
    LOCALTIME_PATHS: at dt = 1e-3 the mean reads 1.1% high (0.566 against
    0.560 from 20,000 paths), and 3,000 paths put the tolerance 5.3
    standard errors from it. Each pass draws fresh library seeds from
    (seed, pass number), and a run pools its passes' results for
    `time_to_1pct_s`.
    """

    name = "path-mc"
    T = 1.0
    DT = 1e-3
    FLAT_PATHS = 4_000
    H3_PATHS = 400
    LOCALTIME_PATHS = 3_000

    def make_inputs(self, seed: int):
        return {"seed": seed}

    def run(self, inputs, p: Pass) -> None:
        seeds = iter(_seeds([inputs["seed"], p.index], 3))
        t = self.T
        for key, s, r, n in (
            ("flat", EuclideanAffine(m=1, n=0), 2.0, self.FLAT_PATHS),
            ("h3", HyperbolicH3Point(kappa=-1.0), 3.0, self.H3_PATHS),
        ):
            label = f"tail_prob_sup/{key}"
            est, _ = p.call(label, estimate.tail_prob, s, r, t, True, n, self.DT, next(seeds))
            if est is None:
                continue
            p.estimate(label, est.mean, est.stderr)
            lp = modelspaces.lyapunov_params(s)
            delta = bounds.concentration_bound_optimized(lp, 0.0, t, r).delta
            p.mc_below(label, est, bounds.exit_time_bound(lp, 0.0, t, r, delta))
            if key == "flat":  # the grid includes t, so sup_grid |B| >= |B_t|
                p.mc_above(label, est, float(stats.chi2.sf(r * r / t, 1)))

        out = p.scratch / "localtime"
        rc, _ = p.cli("cli.localtime", ["localtime", "--scenario", "sphere", "--n", str(self.LOCALTIME_PATHS),
                                        "--dt", str(self.DT), "--seed", str(next(seeds)), "--out", str(out)])
        if rc == 0:
            row = _read_csv(out / "localtime_results.csv")[0]
            p.estimate("cli.localtime", float(row["mean"]), float(row["stderr"]))


# --------------------------------------------------------------- bound-eval

class BoundEval:
    """Scalar sweeps with no random numbers; the seed shifts most grids."""

    name = "bound-eval"
    EXP_DIST_NU = (2.0, 3.0, 5.0, 7.0, 10.0)
    EXP_DIST_POINTS = 1000
    KUMMER_REPEATS = 500
    CURVES_RUNS = 30

    def make_inputs(self, seed: int):
        u = np.random.default_rng(seed).random(7)
        return {
            "B": [600.0 * (k + u[0]) / self.EXP_DIST_POINTS for k in range(self.EXP_DIST_POINTS)],
            "r0": (0.0, 0.5 + 0.5 * u[1], 1.0 + u[2]),
            "r": [0.25 + 0.2 * (k + u[3]) for k in range(40)],
            "C": [0.95 * (k + u[4]) / 20 for k in range(20)],
            "x": [0.05 + 0.9 * (k + u[5]) / 10 for k in range(10)],
            "gx": [0.05 + 25.0 * (k + u[6]) / 30 for k in range(30)],
        }

    def run(self, inputs, p: Pass) -> None:
        self._specfun(inputs, p)
        self._moments(inputs, p)
        self._tails_and_semigroups(inputs, p)
        self._explosions(p)
        self._local_time(p)
        for i in range(self.CURVES_RUNS):
            out = p.scratch / f"curves{i}"
            rc, _ = p.cli("cli.curves", ["curves", "--out", str(out)])
            if rc == 0:
                files = {f.name for f in out.iterdir()}
                p.check(len(files) == 9, f"cli.curves wrote {sorted(files)}")
            shutil.rmtree(out, ignore_errors=True)

    def _specfun(self, inputs, p: Pass) -> None:
        # the re-anchor rows kummer(1.5, .5, 1) and kummer(1.5, .5, 500)
        for z in (1.0, 500.0):
            want = float(special.hyp1f1(1.5, 0.5, z))
            for _ in range(self.KUMMER_REPEATS):
                got, _ = p.call("specfun.kummer", specfun.kummer, 1.5, 0.5, z)
                if got is not None:
                    p.close(f"kummer(1.5, .5, {z})", got, want, 1e-12)
        for nu in self.EXP_DIST_NU:
            lp = LyapunovParams(nu=nu, lam=0.0)
            for B in inputs["B"]:
                theta = math.sqrt(B / 24.0)  # B = 12 theta^2 (r0^2 + 2 R(1)) with r0 = 0, lam = 0
                got, _ = p.call("bounds.exp_dist_bound", bounds.exp_dist_bound, lp, 0.0, 1.0, theta)
                if got is not None:
                    Bx = 24.0 * theta * theta
                    want = 1.0 + (1.0 + Bx**-0.5) * (float(special.hyp1f1(nu / 2.0, 0.5, Bx)) - 1.0)
                    p.close(f"exp_dist_bound nu={nu} B={B}", got, want, 1e-10)
        for a in (0.0, 0.5, 1.5, 3.0):
            for x in inputs["gx"]:
                got, _ = p.call("specfun.upper_gamma", specfun.upper_gamma, a, x)
                if got is not None:
                    p.close(f"upper_gamma({a}, {x})", got, _upper_gamma(a, x), 1e-10)
        for kappa in (-4.0, -1.0, 0.0, 1.0):
            for lam in (0.0, 0.5, 1.0):
                for t in np.linspace(0.1, 1.5, 15):
                    v, _ = p.call("specfun.comparison", specfun.comparison, kappa, lam, float(t))
                    if v is None:
                        continue
                    if kappa > 0:
                        s, c = math.sin(math.sqrt(kappa) * t) / math.sqrt(kappa), math.cos(math.sqrt(kappa) * t)
                    elif kappa < 0:
                        s, c = math.sinh(math.sqrt(-kappa) * t) / math.sqrt(-kappa), math.cosh(math.sqrt(-kappa) * t)
                    else:
                        s, c = float(t), 1.0
                    # g = (log(s/t))', f = (log(c + lam s))' with s' = c, c' = -kappa s
                    p.close(f"comparison.g({kappa},{lam},{t})", v.g, c / s - 1.0 / t, 1e-9, 1e-12)
                    p.close(f"comparison.f({kappa},{lam},{t})", v.f, (-kappa * s + lam * c) / (c + lam * s), 1e-9, 1e-12)

    def _moments(self, inputs, p: Pass) -> None:
        # flat equality: (2t)^p p! L^{d/2-1}_p(-r0^2/2t), scipy's Laguerre as reference
        for d in (1, 2, 3, 5):
            lp = LyapunovParams(nu=float(d), lam=0.0, exact=True)
            for r0 in inputs["r0"]:
                for t in (0.5, 1.0, 2.0):
                    for k in range(1, 21):
                        got, _ = p.call("bounds.even_moment_bound", bounds.even_moment_bound, lp, r0, t, k)
                        if got is not None:
                            want = (2.0 * t) ** k * math.factorial(k) * float(
                                special.eval_genlaguerre(k, d / 2.0 - 1.0, -r0 * r0 / (2.0 * t)))
                            p.close(f"even_moment_bound d={d} r0={r0} t={t} p={k}", got, want, 1e-10)
        # H^3: the bound dominates the exact law
        h3 = HyperbolicH3Point(kappa=-1.0)
        lp = modelspaces.lyapunov_params(h3)
        for t in (0.5, 1.0, 2.0):
            for k in range(1, 21):
                got, _ = p.call("bounds.even_moment_bound", bounds.even_moment_bound, lp, 0.0, t, k)
                exact, _ = p.call("modelspaces.exact_moment", modelspaces.exact_moment, h3, k, t)
                if got is not None and exact is not None:
                    p.check(got >= exact * (1.0 - 1e-12), f"H3 p={k} t={t}: bound {got!r} < exact {exact!r}")

    def _tails_and_semigroups(self, inputs, p: Pass) -> None:
        for nu in (1, 2, 3):
            lp = LyapunovParams(nu=float(nu), lam=0.0)
            for r in inputs["r"]:
                got, _ = p.call("bounds.concentration_bound_optimized",
                                bounds.concentration_bound_optimized, lp, 0.0, 1.0, r)
                if got is not None:
                    tail = float(stats.chi2.sf(r * r, nu))
                    p.check(got.value >= tail * (1.0 - 1e-12), f"concentration nu={nu} r={r}: {got.value!r} < {tail!r}")
        got, _ = p.call("bounds.concentration_bound_optimized",
                        bounds.concentration_bound_optimized, LyapunovParams(3.0, 0.0), 0.0, 1.0, 1000.0)
        if got is not None:
            p.close("concentration rate at r=1000", got.log_value / 1e6, -0.5, 0.0, 1e-3)

        for m in (1, 2, 3):
            lp = LyapunovParams(nu=float(m), lam=0.0)
            for C in inputs["C"]:
                # E exp((C/2) int_0^1 |B|^2) = cos(sqrt C)^(-m/2) in R^m
                got, _ = p.call("bounds.feynman_kac_bound", bounds.feynman_kac_bound, "quadratic", lp, 0.0, 1.0, C)
                if got is not None:
                    want = math.cos(math.sqrt(C)) ** (-m / 2.0)
                    p.check(got >= want * (1.0 - 1e-12), f"feynman_kac quadratic m={m} C={C}: {got!r} < {want!r}")
                if m >= 2:  # potential C (1 + r) >= C gives at least e^C
                    got, _ = p.call("bounds.feynman_kac_bound", bounds.feynman_kac_bound, "linear", lp, 0.0, 1.0, C)
                    if got is not None:
                        p.check(got >= math.exp(C) * (1.0 - 1e-12), f"feynman_kac linear m={m} C={C}: {got!r}")

        for x in inputs["x"]:
            for m in (1, 3):
                got, _ = p.call("bounds.logsob_bound", bounds.logsob_bound, "quadratic", m, 0, 0.0, 0.0, 0.0, 1.0, x)
                if got is not None:
                    want = (1.0 - x) ** (-m / 2.0)
                    p.check(got > want, f"logsob quadratic m={m} x={x}: {got!r} <= {want!r}")
            # E exp(x |B_1|) = 2 e^{x^2/2} Phi(x)
            got, _ = p.call("bounds.logsob_bound", bounds.logsob_bound, "linear", 1, 0, 0.0, 0.0, 0.0, 1.0, x)
            if got is not None:
                want = 2.0 * math.exp(x * x / 2.0) * float(stats.norm.cdf(x))
                p.check(got >= want, f"logsob linear x={x}: {got!r} < {want!r}")

    def _explosions(self, p: Pass) -> None:
        got, _ = p.call("bounds.explosion_time", bounds.explosion_time, LyapunovParams(3.0, 1.0 / 3.0), 1.0 / 6.0)
        if got is not None:
            p.close("explosion(lam=1/3)", got, 3.0 * math.log(3.0), 0.0, 1e-8)
        got, _ = p.call("bounds.explosion_time", bounds.explosion_time, LyapunovParams(3.0, 0.0), 1.0 / 6.0)
        if got is not None:
            p.close("explosion(lam=0)", got, 6.0, 0.0, 1e-8)
        for lam in (-0.05, 0.25, 0.5, 1.0, 2.0):
            for theta in (0.1, 0.5, 1.0):
                got, _ = p.call("bounds.explosion_time", bounds.explosion_time, LyapunovParams(3.0, lam), theta)
                # theta (e^{lam t} - 1) / lam = 1  <=>  t = log(1 + lam / theta) / lam
                want = math.log1p(lam / theta) / lam if lam / theta > -1.0 else None
                p.check((got is None and want is None) or (got is not None and want is not None
                        and abs(got - want) <= 1e-8), f"explosion lam={lam} theta={theta}: {got!r} vs {want!r}")

    def _local_time(self, p: Pass) -> None:
        # circle: E L_t = t/2pi + d^2/2pi - d + pi/3 up to about e^{-t/2}.
        # The grid d = k pi/12 is fixed, not seeded: the quadrature in
        # revuz_mean_local_time is wrong at scattered d (0 < d < ~2e-3 reads
        # about d too high; d = 1.7314866157472324 at t = 60 reads 5.5e-6 low
        # while quad reports an error of 4e-10), and a seeded grid would turn
        # that library defect into failures on some seeds.
        for d in (math.pi * k / 12 for k in range(1, 13)):
            for t in (45.0, 60.0):
                got, _ = p.call("modelspaces.revuz_mean_local_time", modelspaces.revuz_mean_local_time,
                                CirclePoint(r0=d), t)
                if got is not None:
                    want = t / (2.0 * math.pi) + d * d / (2.0 * math.pi) - d + math.pi / 3.0
                    p.close(f"revuz circle d={d} t={t}", got, want, 0.0, 1e-8)
        # sphere shell from the centre: radius Gamma(m/2-1, radius^2/2t) / Gamma(m/2)
        for m in (2, 3, 4):
            for t in (0.5, 1.0, 2.0):
                got, _ = p.call("modelspaces.revuz_mean_local_time", modelspaces.revuz_mean_local_time,
                                SphereInEuclidean(m=m, radius=1.0), t)
                if got is not None:
                    want = _upper_gamma(m / 2.0 - 1.0, 1.0 / (2.0 * t)) / math.gamma(m / 2.0)
                    p.close(f"revuz sphere m={m} t={t}", got, want, 1e-10)


WORKLOADS = {w.name: w for w in (VerifyQuick(), EndpointMC(), PathMC(), BoundEval())}


def scratch_dir(root: Path) -> Path:
    base = root / ".bench_out"
    base.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="tmp-", dir=base))

