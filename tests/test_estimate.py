import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erfcx

import tubebound

from tubebound import estimate
from tubebound.errors import DomainError
from tubebound.estimate import (
    _DRAW_BLOCK,
    MCEstimate,
    _binomial_stderr,
    estimates_to_csv,
    _bridge_crossing,
    bridge_local_time,
    mc_exp_moment,
    mc_mean,
    mc_moment,
    mc_path_mean,
    occupation_local_time_extrapolated,
    tail_prob,
)
from tubebound.modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    SphereInEuclidean,
)
from tubebound.simulate import sample_distances, sample_path, sample_paths, stream

from oracles import chi_tail, exit_tail_exact


# ---------------------------------------------------------------- mc_moment

def test_mc_moment_h3_second_moment():
    est = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 1.0, 50_000, seed=21)
    assert abs(est.mean - 4.0) <= 3.0 * est.stderr


def test_mc_moment_flat_fourth_moment():
    est = mc_moment(EuclideanAffine(m=3, n=0), 2, 1.0, 50_000, seed=22)
    assert abs(est.mean - 15.0) <= 3.0 * est.stderr


def test_mc_moment_deterministic_limit():
    est = mc_moment(EuclideanAffine(m=2, n=0, r0=1.0), 1, 1e-6, 5_000, seed=23)
    assert est.mean == pytest.approx(1.0, abs=1e-2)


def test_mc_moment_validates_inputs():
    with pytest.raises(DomainError):
        mc_moment(CirclePoint(), 0, 1.0, 1000, seed=1)
    with pytest.raises(DomainError):
        mc_moment(CirclePoint(), 1, 1.0, 50, seed=1)
    for p in (1.5, 2.0):  # r^3 is not an even moment
        with pytest.raises(DomainError, match="positive integer"):
            mc_moment(CirclePoint(), p, 1.0, 1000, seed=1)


def test_mc_moment_reproducible_bit_for_bit():
    a = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 0.5, 2_000, seed=31, partitions=4)
    b = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 0.5, 2_000, seed=31, partitions=4)
    assert a == b
    c = mc_moment(HyperbolicH3Point(kappa=-1.0), 1, 0.5, 2_000, seed=31, partitions=2)
    assert a != c  # partition count is part of the reproducibility tuple


def test_mc_reduce_consumes_each_stream_in_draw_blocks():
    # n = 3 blocks + 17 over 2 partitions: each partition is one full block and
    # a short one, block j of partition i drawn from stream(seed, i, j), each
    # block's squares summed about its own mean, the blocks merged in (i, j)
    # order by Chan's rule: M2 = sum M2_b + sum k_b (mean_b - mean)^2
    s, t, seed, n = HyperbolicH3Point(r0=0.7), 1.0, 12, 3 * _DRAW_BLOCK + 17
    blocks, total, m2, hits = [], 0.0, 0.0, 0
    for i, size in enumerate((n - n // 2, n // 2)):
        for j, k in enumerate((_DRAW_BLOCK, size - _DRAW_BLOCK)):
            draws = sample_distances(s, t, stream(seed, i, j), k)
            sq = draws**2
            part = float(np.sum(sq))
            blocks.append((k, part))
            total += part
            m2 += float(np.sum((sq - part / k) ** 2))
            hits += int(np.count_nonzero(draws >= 2.5))
    mean = total / n
    for k, part in blocks:
        m2 += k * (part / k - mean) * (part / k - mean)
    stderr = math.sqrt(m2 / (n - 1) / n)
    assert mc_mean(s, t, n, seed, lambda r: r**2, 2) == MCEstimate(mean, stderr, n, seed, 2, 0)
    assert tail_prob(s, 2.5, t, False, n, None, seed, 2).mean == hits / n


def _use_workers(monkeypatch, workers):
    # a pool of `workers` threads from the next map on
    monkeypatch.setattr(estimate, "_WORKERS", workers)
    monkeypatch.setattr(estimate, "_pool", None)


@pytest.mark.parametrize("partitions", [1, 2, 3])
@pytest.mark.parametrize("n", [100, _DRAW_BLOCK, 3 * _DRAW_BLOCK + 17])
def test_endpoint_estimates_bit_identical_for_any_worker_count(n, partitions, monkeypatch):
    # one block, one block per partition, and partitions of several blocks, a ragged last one
    s, t = HyperbolicH3Point(r0=0.7), 1.0
    calls = [
        lambda: mc_moment(s, 2, t, n, 3, partitions),
        lambda: mc_exp_moment(s, 0.2, t, True, n, 4, partitions),
        lambda: mc_exp_moment(s, 0.5, t, False, n, 5, partitions),
        lambda: tail_prob(s, 2.5, t, False, n, None, 6, partitions),
        lambda: mc_mean(s, t, n, 7, np.cosh, partitions),
    ]
    runs, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap as often as they can
    try:
        for workers in (1, 2, 3):
            _use_workers(monkeypatch, workers)
            runs.append([call() for call in calls])
    finally:
        sys.setswitchinterval(interval)
    assert runs[1] == runs[0] and runs[2] == runs[0]
    assert [est.n for est in runs[0]] == [n] * 5


@pytest.mark.parametrize(
    "call,want",
    [
        (lambda: mc_moment(HyperbolicH3Point(r0=0.7), 1, 1.0, 2 * _DRAW_BLOCK, 12, 2),
         (4.801819980778577, 0.01451684984967096)),
        (lambda: mc_exp_moment(SphereInEuclidean(m=3, radius=1.0), 0.3, 1.0, False, 3 * _DRAW_BLOCK - 1, 13, 3),
         (1.253624928287692, 0.0007362985258380617)),
        (lambda: tail_prob(EuclideanAffine(m=3, n=0), 2.0, 1.0, False, 3 * _DRAW_BLOCK, None, 14, 3),
         (0.2624308268229167, 0.0014032117350493106)),
        (lambda: mc_mean(HyperbolicH3Point(kappa=-2.0), 0.5, _DRAW_BLOCK, 15, np.cosh),
         (2.3186253351939996, 0.007461598074840775)),
    ],
    ids=["moment", "exp", "tail", "mean"],
)
def test_one_block_partitions_golden(call, want):
    # partitions of at most one block each draw only from stream(seed, i, 0) =
    # stream(seed, i), in one call each: these estimates are pinned bit for bit
    est = call()
    assert (est.mean, est.stderr, est.overflow) == (*want, 0)


def _run_python(code: str, timeout: float = 60.0) -> str:
    # code in a fresh interpreter with a pool of 2 threads, whatever the CPUs:
    # a hang fails the test at the timeout instead of stalling the run
    src = os.path.dirname(os.path.dirname(tubebound.__file__))
    code = "from tubebound import estimate\nestimate._WORKERS = 2\n" + code
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=timeout
    ).stdout


def test_child_forked_after_the_pool_ran_gets_its_own():
    # the child inherits the pool object but not its threads: it makes a pool
    # of its own and computes the parent's estimate (alarm: a hung child dies)
    code = """
import os, signal
from tubebound.modelspaces import HyperbolicH3Point
args = (HyperbolicH3Point(r0=0.7), 1, 1.0, 3 * estimate._DRAW_BLOCK, 8, 2)
want, parent_pool = repr(estimate.mc_moment(*args)), estimate._pool
r, w = os.pipe()
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    got = repr(estimate.mc_moment(*args))
    os.write(w, f"{got == want} {estimate._pool not in (None, parent_pool)}".encode())
    os._exit(0)
os.close(w)
print(os.read(r, 4096).decode(), parent_pool is not None)
os.waitpid(pid, 0)
"""
    assert _run_python(code).split() == ["True", "True", "True"]


def test_estimator_inside_a_pool_worker_runs_inline():
    # an fn that calls an estimator maps from a pool thread: that map runs
    # inline instead of waiting on the pool it holds, with the same bits
    code = """
from tubebound.modelspaces import HyperbolicH3Point
s = HyperbolicH3Point(r0=0.7)
fn = lambda r: r + estimate.mc_moment(s, 1, 1.0, 3 * estimate._DRAW_BLOCK, int(r.size)).mean
pooled = estimate.mc_mean(s, 1.0, 3 * estimate._DRAW_BLOCK + 17, 4, fn, 2)
estimate._WORKERS = 1
print(pooled == estimate.mc_mean(s, 1.0, 3 * estimate._DRAW_BLOCK + 17, 4, fn, 2))
"""
    assert _run_python(code).strip() == "True"


def test_interpreter_with_a_pool_exits_promptly():
    code = """
from tubebound.modelspaces import EuclideanAffine
estimate.mc_moment(EuclideanAffine(m=3, n=0), 1, 1.0, 4 * estimate._DRAW_BLOCK, 1)
print(estimate._pool is not None)
"""
    assert _run_python(code, timeout=30.0).strip() == "True"


def test_mc_mean_stderr_survives_a_mean_far_above_the_spread():
    # E r^2 = 1e12 with a spread of 2e3 per draw: a one-pass sum of squares less
    # n mean^2 cancels every digit and read 0.0; the same draws' sample std does not
    s, t, seed, n = EuclideanAffine(m=3, n=0, r0=1e6), 1e-6, 7, 100_000
    rng = stream(seed, 0)
    blocks = [sample_distances(s, t, rng, min(_DRAW_BLOCK, n - k)) for k in range(0, n, _DRAW_BLOCK)]
    want = float(np.std(np.concatenate(blocks) ** 2, ddof=1)) / math.sqrt(n)
    assert mc_moment(s, 1, t, n, seed).stderr == pytest.approx(want, rel=0.01)


def test_mc_mean_stderr_matches_the_pooled_sample_std():
    # three partitions of two blocks each on H^3: the merged stderr is the
    # sample std of all the draws, to rounding
    s, t, seed = HyperbolicH3Point(kappa=-1.0, r0=0.7), 1.0, 11
    sizes = (_DRAW_BLOCK + 6, _DRAW_BLOCK + 6, _DRAW_BLOCK + 5)
    vals = np.concatenate([
        sample_distances(s, t, stream(seed, i, j), k) ** 2
        for i, size in enumerate(sizes) for j, k in enumerate((_DRAW_BLOCK, size - _DRAW_BLOCK))
    ])
    est = mc_moment(s, 1, t, sum(sizes), seed, 3)
    assert est.mean == pytest.approx(float(np.mean(vals)), rel=1e-12)
    assert est.stderr == pytest.approx(float(np.std(vals, ddof=1)) / math.sqrt(vals.size), rel=1e-12)


def test_mc_mean_skips_a_first_block_with_no_finite_value():
    # fn maps the full first block to inf: the estimate is that of the 500
    # draws of the second block, stream(seed, 0, 1), alone
    s, t, seed, n = HyperbolicH3Point(r0=0.7), 1.0, 9, _DRAW_BLOCK + 500
    vals = sample_distances(s, t, stream(seed, 0, 1), 500) ** 2
    mean = float(np.sum(vals)) / 500
    stderr = math.sqrt(float(np.sum((vals - mean) ** 2)) / 499 / 500)
    fn = lambda r: np.full_like(r, np.inf) if r.size == _DRAW_BLOCK else r**2
    assert mc_mean(s, t, n, seed, fn) == MCEstimate(mean, stderr, n, seed, 1, _DRAW_BLOCK)


def test_mc_mean_merges_block_means_past_the_float_square():
    # r^400 over blocks whose means differ by more than 1.3e154: their gap
    # squared is inf, quietly (a float g ** 2 would raise OverflowError there)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_moment(EuclideanAffine(m=1, n=0), 200, 100.0, 3 * _DRAW_BLOCK, 3, 2)
    assert 0 < est.overflow < est.n
    assert math.isfinite(est.mean) and est.stderr == math.inf


def test_mc_moment_counts_overflowed_draws():
    # r^400 overflows for r above about 5.9, which |B_100| mostly is: those draws are
    # dropped and counted, quietly, and the sum of squares overflows to an inf stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        est = mc_moment(EuclideanAffine(m=1, n=0), 200, 100.0, 1000, 1)
    assert 0 < est.overflow < 1000
    assert math.isfinite(est.mean) and est.stderr == math.inf


def test_mc_moment_mean_finite_past_float_range_of_sum():
    # the kept values of r^400 can sum past 1.8e308 though each is finite: the
    # mean is still that of the kept values, quietly, and where their plain sum
    # is finite it is that sum over their count, bit for bit
    s, past = EuclideanAffine(m=1, n=0), 0
    for seed in range(60):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = mc_moment(s, 200, 100.0, 1000, seed)
        with np.errstate(over="ignore"):
            vals = sample_distances(s, 100.0, stream(seed, 0), 1000) ** 400
            vals = vals[np.isfinite(vals)]
            plain = float(np.sum(vals))
        assert est.overflow == 1000 - vals.size
        assert est.mean == pytest.approx(float(np.sum(vals / vals.size)), rel=1e-12), seed
        if math.isfinite(plain):
            assert est.mean == plain / vals.size, seed
        past += not math.isfinite(plain)
    assert past > 0  # the seeds reach the scaled sum


def test_mc_mean_with_no_finite_value_raises():
    with pytest.raises(DomainError, match="not finite"):
        mc_mean(EuclideanAffine(m=3, n=0), 1.0, 100, 1, lambda r: np.full_like(r, np.inf))


def test_endpoint_estimators_reject_infinite_t():
    s = EuclideanAffine(m=3, n=0)
    with pytest.raises(DomainError, match="0 < t < inf"):
        tail_prob(s, 2.0, math.inf, False, 1000, None, 1)
    with pytest.raises(DomainError, match="0 < t < inf"):
        mc_moment(s, 1, math.inf, 1000, 1)


def test_mc_moment_memory_bounded_whatever_n():
    # 4e6 draws at once would take 32 MB; blocks of _DRAW_BLOCK keep a few of 256 kB
    tracemalloc.start()
    try:
        mc_moment(EuclideanAffine(m=3, n=0), 1, 1.0, 4_000_000, seed=5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


# ------------------------------------------------------------ mc_exp_moment

def test_mc_exp_moment_h3_square():
    est = mc_exp_moment(HyperbolicH3Point(kappa=-1.0), 0.1, 1.0, True, 50_000, seed=41)
    want = 0.9**-1.5 * math.exp(0.1 / 1.8)
    assert abs(est.mean - want) <= 3.0 * est.stderr


def test_mc_exp_moment_flat_sqrt_two():
    est = mc_exp_moment(EuclideanAffine(m=1, n=0), 0.5, 1.0, True, 50_000, seed=42)
    assert abs(est.mean - math.sqrt(2.0)) <= 3.0 * est.stderr


def test_mc_exp_moment_zero_theta_exact_one():
    est = mc_exp_moment(CirclePoint(), 0.0, 1.0, False, 1_000, seed=43)
    assert est.mean == 1.0
    assert est.stderr == 0.0
    assert est.overflow == 0


def test_mc_exp_moment_overflow_counter():
    est = mc_exp_moment(EuclideanAffine(m=1, n=0), 1e4, 1.0, True, 2_000, seed=44)
    assert est.overflow > 0
    assert math.isfinite(est.mean)


def test_mc_exp_moment_keeps_every_finite_exponential():
    # exponents about 704 are below log(max float) ~ 709.78: every value is
    # finite, so every one is kept and none counted as an overflow
    est = mc_exp_moment(EuclideanAffine(m=1, n=0, r0=704.0), 1.0, 1e-6, False, 200, seed=46)
    assert est.overflow == 0
    assert est.mean == pytest.approx(math.exp(704.0), rel=1e-2)


def test_mc_exp_moment_validates_theta():
    for theta in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError, match="theta"):
            mc_exp_moment(EuclideanAffine(m=1, n=0), theta, 1.0, True, 1000, seed=47)


def test_mc_exp_moment_total_overflow_is_loud():
    s = EuclideanAffine(m=1, n=0, r0=100.0)
    with pytest.raises(DomainError):
        mc_exp_moment(s, 1e6, 1.0, True, 200, seed=45)


# ---------------------------------------------------------- bridge local time

def test_flat_local_time_at_zero():
    # E L_t = E |B_t| = sqrt(2t/pi) for the local time of |B| at 0; the
    # bridge estimate has no dt bias, so it sits on that at coarse and fine dt
    s, n, truth = EuclideanAffine(m=1, n=0, r0=0.0), 20_000, math.sqrt(2.0 / math.pi)
    for dt in (0.1, 1e-3):
        est = mc_path_mean(s, dt, 1.0, n, 51, lambda v: bridge_local_time(v, dt))
        assert abs(est.mean - truth) <= 3.0 * est.stderr, dt
        assert est.stderr <= 0.006 * truth, dt


def test_sphere_bridge_local_time_matches_closed_form():
    # the shell's varying drift biases the estimate by under the 0.002
    # budget of the sphere-local-time criterion at dt = 1e-2, less at 1e-3
    s, n = SphereInEuclidean(m=2, radius=1.0), 10_000
    truth = 0.5597735947761607  # Gamma(0, 1/2)
    for dt in (1e-2, 1e-3):
        est = mc_path_mean(s, dt, 1.0, n, 56, lambda v: bridge_local_time(v, dt))
        assert abs(est.mean - truth) <= 3.0 * est.stderr + 0.002, dt


def test_bridge_estimators_match_per_step_sums():
    # every step summed in a loop, none dropped by the estimators' cutoff;
    # at r = 1.5 the rows hit r on the grid, cross between grid points or not
    dt, r = 0.01, 1.5
    block = sample_paths(EuclideanAffine(m=1, n=0), dt, 1.0, 3, 0, 7)
    local, cross = bridge_local_time(block, dt), _bridge_crossing(block, r, dt)
    for j, row in enumerate(block):
        want_local, survive = 0.0, 1.0
        for x, y in zip(row[:-1], row[1:]):
            e = math.exp(-2.0 * x * y / dt)
            want_local += math.sqrt(2.0 * math.pi * dt) * erfcx((x + y) / math.sqrt(2.0 * dt)) * e / (1.0 + e)
            survive *= 1.0 - math.exp(-2.0 * max(r - x, 0.0) * max(r - y, 0.0) / dt)
        assert local[j] == pytest.approx(want_local, rel=1e-12, abs=1e-300)
        assert cross[j] == pytest.approx(1.0 - survive, rel=1e-12, abs=1e-15)
        assert (cross[j] == 1.0) == (row.max() >= r)


@pytest.mark.parametrize("module", ["tubebound", "tubebound.cli"])
def test_import_loads_no_scipy(module):
    src = os.path.dirname(os.path.dirname(tubebound.__file__))
    code = f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_mc_and_curves_load_no_scipy(tmp_path):
    # end to end: the commands behind run_mc_comparison.py and reproduce_bound_curves.py
    # reach neither lazy scipy.special import (bridge_local_time, upper_gamma)
    src = os.path.dirname(os.path.dirname(tubebound.__file__))
    runs = [
        ["curves", "--steps", "20", "--out", str(tmp_path)],
        ["mc", "--n", "200"],
        ["mc", "--n", "200", "--theta", "0.1"],
        ["mc", "--n", "200", "--r", "2"],
        ["mc", "--n", "200", "--r", "2", "--dt", "0.01"],
    ]
    code = (
        "import sys; from tubebound import cli\n"
        f"for argv in {runs!r}:\n"
        "    assert cli.main(argv) in (0, 1), argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"


def test_master_verification_property():
    # estimate - 3 stderr never exceeds the corresponding bound
    from tubebound.bounds import even_moment_bound, exp_sq_bound, radial_R
    from tubebound.modelspaces import lyapunov_params

    cases = [
        (HyperbolicH3Point(kappa=-1.0), 0.5),
        (HyperbolicH3Point(kappa=-2.0), 1.0),
        (EuclideanAffine(m=3, n=1, r0=1.0), 1.0),
        (SphereInEuclidean(m=2, radius=1.0), 0.5),
        (CirclePoint(r0=0.5), 0.5),
    ]
    for pos, (s, t) in enumerate(cases):
        lp = lyapunov_params(s)
        for p in (1, 2):
            est = mc_moment(s, p, t, 20_000, seed=70 + pos)
            assert est.mean - 3.0 * est.stderr <= even_moment_bound(lp, s.r0, t, p)
        theta = 0.5 / (radial_R(lp.lam, t) * math.exp(lp.lam * t))
        est = mc_exp_moment(s, theta, t, True, 20_000, seed=90 + pos)
        assert est.mean - 3.0 * est.stderr <= exp_sq_bound(lp, s.r0, t, theta)


def test_cut_locus_requires_circle():
    path = sample_path(EuclideanAffine(m=1, n=0), 0.01, 1.0, seed=53)
    with pytest.raises(DomainError):
        occupation_local_time_extrapolated(path, "cut_locus", 0.05)
    with pytest.raises(DomainError):
        occupation_local_time_extrapolated(path, "nowhere", 0.05)


def test_occupation_validates_eps():
    path = sample_path(CirclePoint(), 0.01, 1.0, seed=54)
    with pytest.raises(DomainError):
        occupation_local_time_extrapolated(path, "submanifold", 0.0)


# ------------------------------------------------------------------ tail_prob

def test_tail_prob_point_mode_chi_square():
    est = tail_prob(EuclideanAffine(m=3, n=0), 3.0, 1.0, False, 50_000, None, seed=61)
    want = chi_tail(3, 3.0, 1.0)
    assert want == pytest.approx(0.0293, abs=2e-4)
    assert abs(est.mean - want) <= 3.0 * est.stderr


def test_tail_prob_sup_mode_reflection():
    want = exit_tail_exact(1, 2.0, 1.0)
    assert want == pytest.approx(0.0910, abs=1e-4)
    # the bridge crossing has no grid-monitoring bias, even at dt = 1e-2
    for dt in (1e-2, 1e-3):
        est = tail_prob(EuclideanAffine(m=1, n=0), 2.0, 1.0, True, 2_000, dt, seed=62)
        assert abs(est.mean - want) <= 3.0 * est.stderr, dt


def test_tail_prob_point_mode_needs_n_100():
    # the n >= 100 rule of every endpoint estimator: one draw does not test a tail bound
    for n in (1, 50, 99):
        with pytest.raises(DomainError, match="need n >= 100"):
            tail_prob(EuclideanAffine(m=3, n=0), 2.0, 1.0, False, n, None, seed=66)
    assert tail_prob(EuclideanAffine(m=3, n=0), 2.0, 1.0, False, 100, None, seed=66).n == 100


def test_tail_prob_rare_event_stderr_positive():
    est = tail_prob(EuclideanAffine(m=1, n=0), 50.0, 1.0, False, 2_000, None, seed=63)
    assert est.mean == 0.0
    assert est.stderr > 0.0


def test_tail_prob_near_certain_event_stderr_positive():
    est = tail_prob(EuclideanAffine(m=3), 0.01, 1.0, False, 1000, None, 3)
    assert est.mean == 1.0
    assert est.stderr == _binomial_stderr(0.0, 1000) > 0.0


def test_binomial_stderr_symmetric_in_p():
    # k / 1024 and 1 - k / 1024 are exact, so the two sides must agree bit for bit,
    # across the Wilson switch at 0.05 and 0.95
    for n in (1, 2, 7, 1000, 10**6):
        for k in range(1025):
            p = k / 1024
            assert _binomial_stderr(p, n) == _binomial_stderr(1.0 - p, n) > 0.0, (p, n)


def test_mc_path_mean_needs_two_paths():
    with pytest.raises(DomainError, match="n >= 2"):
        mc_path_mean(EuclideanAffine(m=1, n=0), 0.01, 1.0, 1, 3, lambda v: v[:, -1])
    assert mc_path_mean(EuclideanAffine(m=1, n=0), 0.01, 1.0, 2, 3, lambda v: v[:, -1]).stderr > 0.0


def test_tail_prob_sup_mode_reports_the_partitions_it_used():
    # sup mode runs one path per stream: it records partitions 1 and rejects any other
    args = (EuclideanAffine(m=1, n=0), 2.0, 1.0, True, 500, 1e-2)
    assert tail_prob(*args, seed=65).partitions == 1
    for partitions in (0, 3, 400):
        with pytest.raises(DomainError, match="partitions 1"):
            tail_prob(*args, seed=65, partitions=partitions)


@pytest.mark.parametrize("sup_mode,dt", [(False, None), (True, 0.01)])
def test_tail_prob_validates_r(sup_mode, dt):
    # a NaN r compared False with every draw and read 0.0
    for r in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="r must be"):
            tail_prob(EuclideanAffine(m=3, n=0), r, 1.0, sup_mode, 1000, dt, seed=67)


def test_tail_prob_sup_needs_dt():
    with pytest.raises(DomainError):
        tail_prob(EuclideanAffine(m=1, n=0), 1.0, 1.0, True, 1000, None, seed=64)


# ------------------------------------------------------------------- export

def test_estimates_csv_format():
    rows = [
        ("h3_moment_p1", MCEstimate(mean=4.01, stderr=0.01, n=1000, seed=7, partitions=2)),
    ]
    text = estimates_to_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "quantity,mean,stderr,n,seed,partitions"
    assert lines[1] == "h3_moment_p1,4.01,0.01,1000,7,2"
