"""The batched path engine: sample_paths blocks against a plain numpy draw
of each block, H^3 rows against the exact law at grid times, a block's rows
as a prefix of it and path k independent of n, mc_path_mean's blocks and its
independence of the worker count, and sup-mode tails against the exact
exit-time series."""
import math
import sys
import warnings

import numpy as np
import pytest
from scipy import integrate

from tubebound import estimate, simulate
from tubebound.bounds import concentration_bound_optimized, exit_time_bound
from tubebound.errors import DomainError
from tubebound.estimate import bridge_local_time, mc_path_mean, tail_prob
from tubebound.modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    SphereInEuclidean,
    lyapunov_params,
)
from tubebound.simulate import _h3_walk, sample_path, sample_paths, stream

from oracles import exit_tail_exact, gaussian_distance_block, h3_radial_density, path_range

# (scenario, kind, dimension, r0) for the block reference
EXACT_SCENARIOS = [
    (EuclideanAffine(m=1, n=0), "flat", 1, 0.0),
    (EuclideanAffine(m=3, n=0, r0=0.7), "flat", 3, 0.7),
    (SphereInEuclidean(m=2, radius=1.0), "sphere", 2, 1.0),
    (CirclePoint(r0=1.0), "circle", 1, 1.0),
]


@pytest.mark.parametrize("s,kind,d,r0", EXACT_SCENARIOS, ids=["flat1", "flat3", "sphere", "circle"])
def test_rows_bit_identical_to_one_path_sampling(s, kind, d, r0, monkeypatch):
    # blocks of 40 paths: n = 150 paths span four blocks, the last ragged
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 40 * 101)
    dt, T, seed, n = 0.01, 1.0, 17, 150
    rows = np.concatenate([sample_paths(s, dt, T, stream(seed, b), min(40, n - 40 * b)) for b in range(4)])
    assert rows.shape == (n, 101)
    for b, first in enumerate(range(0, n, 40)):
        want = gaussian_distance_block(kind, d, r0, dt, 100, min(40, n - first), stream(seed, b))
        assert np.array_equal(rows[first : first + 40], want), b
    for j in (0, 39, 40, 77, 149):
        assert np.array_equal(sample_path(s, dt, T, seed, index=j).values, rows[j]), j
    assert np.array_equal(sample_paths(s, dt, T, stream(seed, 1), 7), rows[40:47])  # a block's prefix


def test_h3_rows_exact_cosh_identity_at_grid_times():
    # Lap cosh(a r) = 3 a^2 cosh(a r) on H^3 of curvature -a^2, so
    # E cosh(a r_t) = cosh(a r0) e^{3 a^2 t / 2} at every grid time
    dt, T, n = 0.01, 0.5, 4000
    for kappa in (-1.0, -2.0):
        a = math.sqrt(-kappa)
        for r0 in (0.0, 0.7, 2.0):
            rows = path_range(HyperbolicH3Point(kappa=kappa, r0=r0), dt, T, 11, 3, n)
            for k in (1, 25, 50):
                x = np.cosh(a * rows[:, k])
                want = math.cosh(a * r0) * math.exp(1.5 * a * a * k * dt)
                assert abs(x.mean() - want) <= 3.0 * x.std(ddof=1) / math.sqrt(n), (kappa, r0, k)
    # a path drawn as the last row of its block's prefix is the same bits as
    # in any range of paths, in the first block (130 paths of 501 values) and
    # in the second
    s = HyperbolicH3Point(r0=0.7)
    for k, start in ((3, 0), (131, 128)):
        one = _h3_walk(-1.0, 0.7, 1e-3, 500, (stream(11, k // 130), k % 130 + 1))[-1]
        assert np.array_equal(one, path_range(s, 1e-3, 0.5, 11, start, 8)[k - start]), k


@pytest.mark.parametrize(
    "s",
    [*(case[0] for case in EXACT_SCENARIOS), HyperbolicH3Point(kappa=-1.0, r0=0.7)],
    ids=["flat1", "flat3", "sphere", "circle", "h3-off-pole"],
)
def test_path_k_independent_of_n_and_range(s, monkeypatch):
    # blocks of 40 paths: n = 100 ends in a ragged block of 20 that n = 150
    # fills, so a block's first rows are a prefix of it, and on H^3 off the
    # pole the starts must come before the increments
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 40 * 101)
    blocks = [sample_paths(s, 0.01, 1.0, stream(8, b), 40) for b in range(4)]
    for count in (1, 7, 20, 39):
        assert np.array_equal(sample_paths(s, 0.01, 1.0, stream(8, 2), count), blocks[2][:count]), count
    # path k alone is row k mod R of block k // R, inside one block and across three
    for k in (0, 35, 39, 40, 60, 66, 79, 80, 84, 119):
        assert np.array_equal(sample_path(s, 0.01, 1.0, 8, index=k).values, blocks[k // 40][k % 40]), k


def test_blocks_hold_at_most_the_value_budget(monkeypatch):
    monkeypatch.setattr(estimate, "_WORKERS", 1)  # in path order, one block at a time
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 40 * 101)
    rows = []
    mc_path_mean(CirclePoint(), 0.01, 1.0, 150, 3, lambda v: rows.append(len(v)) or v[:, -1])
    assert rows == [40, 40, 40, 30]
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 50)  # shorter than one path
    rows.clear()
    mc_path_mean(CirclePoint(), 0.01, 1.0, 3, 3, lambda v: rows.append(len(v)) or v[:, -1])
    assert rows == [1, 1, 1]


POOL_SCENARIOS = [
    EuclideanAffine(m=3, n=0, r0=0.7),
    SphereInEuclidean(m=2, radius=1.0),
    CirclePoint(r0=1.0),
    HyperbolicH3Point(kappa=-1.0, r0=0.7),
]


@pytest.mark.parametrize("s", POOL_SCENARIOS, ids=["flat", "sphere", "circle", "h3"])
def test_mc_path_mean_bit_identical_for_any_worker_count(s, monkeypatch):
    # 150 paths of 101 values in blocks of 40 rows whatever the workers:
    # several blocks per worker and a ragged last one
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 40 * 101)

    def fn(v):  # every value of a row and a bridge reduction of it
        return v.sum(axis=1) + bridge_local_time(v, 0.01)

    runs, interval = [], sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads swap as often as they can
    try:
        for workers in (1, 2, 3):
            monkeypatch.setattr(estimate, "_WORKERS", workers)
            monkeypatch.setattr(estimate, "_pool", None)  # the next map makes a pool of `workers`
            est = mc_path_mean(s, 0.01, 1.0, 150, 5, fn)
            runs.append((est.mean, est.stderr))
    finally:
        sys.setswitchinterval(interval)
    assert runs[1:] == runs[:1] * 2 and all(math.isfinite(x) for x in runs[0])


def test_error_in_a_worker_reaches_the_caller_unchanged(monkeypatch):
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 10 * 101)  # blocks of 10, 10 and 3 paths
    monkeypatch.setattr(estimate, "_WORKERS", 2)
    err = DomainError("bad block")

    def fn(v):
        if v.shape[0] < 5:  # only the last, ragged block
            raise err
        return v[:, -1]

    with pytest.raises(DomainError) as caught:
        mc_path_mean(CirclePoint(), 0.01, 1.0, 23, 3, fn)
    assert caught.value is err


def test_block_budget_independent_of_workers(monkeypatch):
    assert 1 <= estimate._WORKERS <= 4  # at most 4 blocks in flight
    shapes = {}
    for workers in (1, 2, 4):
        monkeypatch.setattr(estimate, "_WORKERS", workers)
        monkeypatch.setattr(estimate, "_pool", None)
        seen = shapes.setdefault(workers, [])
        mc_path_mean(CirclePoint(), 0.01, 1.0, 1500, 3, lambda v: seen.append(v.shape) or v[:, -1])
    assert sorted(shapes[1]) == sorted(shapes[2]) == sorted(shapes[4])
    assert len(shapes[1]) > 1 and max(r * c for r, c in shapes[1]) <= simulate._PATH_BLOCK
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 150)  # shorter than two paths
    for workers in (1, 2):
        monkeypatch.setattr(estimate, "_WORKERS", workers)
        sizes = []
        mc_path_mean(CirclePoint(), 0.01, 1.0, 3, 3, lambda v: sizes.append(v.shape) or v[:, -1])
        assert sizes == [(1, 101)] * 3


def test_mc_path_mean_validates_inputs():
    with pytest.raises(DomainError):
        mc_path_mean(CirclePoint(), 0.01, 1.0, 0, 1, lambda v: v[:, -1])
    with pytest.raises(DomainError):
        mc_path_mean(CirclePoint(), 0.0, 1.0, 10, 1, lambda v: v[:, -1])
    for index in (-1, 648 * 2**63):  # block 2**63 of 648 paths is past stream()'s range
        with pytest.raises(DomainError, match="index"):
            sample_path(CirclePoint(), 0.01, 1.0, 1, index=index)


def test_sample_paths_serves_one_block(monkeypatch):
    # 648 paths of 101 values in a block; a call past one block, or of no
    # path, raises before it draws
    for count in (0, 649, -1):
        rng = stream(1)
        with pytest.raises(DomainError, match=r"count must lie in \[1, 648\]"):
            sample_paths(CirclePoint(), 0.01, 1.0, rng, count)
        assert np.array_equal(rng.random(4), stream(1).random(4)), count
    assert sample_paths(CirclePoint(), 0.01, 1.0, stream(1), 648).shape == (648, 101)
    monkeypatch.setattr(simulate, "_PATH_BLOCK", 50)  # shorter than one path: blocks of one
    assert sample_paths(HyperbolicH3Point(r0=0.7), 0.01, 1.0, stream(1), 1).shape == (1, 101)
    with pytest.raises(DomainError, match=r"\[1, 1\]"):
        sample_paths(HyperbolicH3Point(r0=0.7), 0.01, 1.0, stream(1), 2)


def test_path_values_that_overflow_are_dropped_and_counted():
    # exp(800 |B_1|) overflows where |B_1| > 0.887, on about 38% of the paths:
    # those are dropped and counted as endpoint values are, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = mc_path_mean(EuclideanAffine(m=1, n=0), 0.01, 1.0, 200, 4, lambda v: np.exp(800.0 * v[:, -1]))
    assert math.isfinite(est.mean) and est.mean > 0.0
    assert 0 < est.overflow < 200


def test_sup_tails_pinned_on_one_path_code():
    # flat |B| in R^1 at r = 2 and BES(3) at r = 3 against the exact exit-time
    # series; the bridge crossing removes the grid's downward bias
    for m, r in ((1, 2.0), (3, 3.0)):
        est = tail_prob(EuclideanAffine(m=m, n=0), r, 1.0, True, 4000, 1e-3, seed=5)
        assert abs(est.mean - exit_tail_exact(m, r, 1.0)) <= 3.0 * est.stderr, m
    # on H^3 the grid includes t, so the sup tail is at least the exact
    # endpoint tail, and at most the exit-time bound
    s, r, t = HyperbolicH3Point(kappa=-1.0), 3.0, 1.0
    h3 = tail_prob(s, r, t, True, 4000, 1e-3, seed=5)
    endpoint = integrate.quad(h3_radial_density, r, 80.0 * math.sqrt(t) + 80.0, args=(s.kappa, t))[0]
    lp = lyapunov_params(s)
    bound = exit_time_bound(lp, 0.0, t, r, concentration_bound_optimized(lp, 0.0, t, r).delta)
    assert h3.mean + 3.0 * h3.stderr >= endpoint
    assert h3.mean - 3.0 * h3.stderr <= bound


@pytest.mark.parametrize("k", [0, 1, 7, 12345, 2**40])
def test_stream_is_sfc64_seeded_by_seed_sequence(k):
    want = np.random.Generator(np.random.SFC64(np.random.SeedSequence((9, k))))
    assert np.array_equal(stream(9, k).standard_normal(16), want.standard_normal(16))


@pytest.mark.parametrize("k", [-1, 2**63, 2**63 + 5, 1.5])
def test_stream_index_out_of_range(k):
    with pytest.raises(DomainError, match="index"):
        stream(9, k)


def test_stream_blocks_extend_the_index_streams():
    # block b of every estimate is index stream b: the blocks of one seed are
    # streams of their own, apart from those of the next seed
    first = {stream(9, b).bit_generator.random_raw() for b in range(4096)}
    other = {stream(10, b).bit_generator.random_raw() for b in range(256)}
    assert len(first) == 4096 and len(other) == 256
    assert first.isdisjoint(other)


@pytest.mark.parametrize("seed", [-3, -1, 1.5, 2.0, "1", None])
def test_stream_rejects_bad_seed(seed):
    with pytest.raises(DomainError, match="seed"):
        stream(seed, 0)


def test_occupation_rows_match_per_path_counts():
    s = CirclePoint(r0=0.0)
    dt, eps = 1e-3, 0.05
    rows = path_range(s, dt, 5.0, 4, 10, 6)  # blocks of 13 paths: 10..12 and 13..15
    for j, values in enumerate(rows, start=10):
        dist = math.pi - values[:-1]
        half = dt * np.count_nonzero(dist < eps / 2.0) / (2.0 * (eps / 2.0))
        full = dt * np.count_nonzero(dist < eps) / (2.0 * eps)
        path = sample_path(s, dt, 5.0, 4, index=j)
        assert np.array_equal(path.values, values)
        assert estimate.occupation_local_time_extrapolated(path, "cut_locus", eps) == 2.0 * half - full
