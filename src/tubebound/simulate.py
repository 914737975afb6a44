"""Samplers for the distance process r_N(X_t) on the model scenarios.

Every scenario is a function of Brownian positions in a Euclidean space,
so endpoint laws are exact and paths are exact at grid times. On H^3 the
positions get a drift and a random start (Rogers & Pitman 1981, "Markov
functions", Ann. Probab. 9): the norm of r0 U + B_t + a t e in R^3 is the
distance to N of Brownian motion on H^3 of curvature -a^2 started at
distance r0, when U is von Mises-Fisher on S^2 about e with concentration
a r0. Endpoints need only the norm of a Gaussian position, which by
rotation invariance takes one normal and one chi-square (sample_distances;
one normal on the circle); paths keep the positions themselves.

Random streams are counter-based: stream(seed, k) is the Philox generator
jumped k blocks, so path k is reproducible independently of how many
workers, or rows of a block, consume the path range.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import BinaryIO, Sequence

import numpy as np

from .errors import DomainError
from .modelspaces import (
    CirclePoint,
    EuclideanAffine,
    HyperbolicH3Point,
    Scenario,
    SphereInEuclidean,
)

DUMP_MAGIC = b"TBND"
DUMP_VERSION = 1


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent generator number `index` derived from a master seed: Philox
    with its counter at index * 2**128, where `.jumped(index)` would take it."""
    if not 0 <= index < 2**63:
        raise DomainError(f"stream index must lie in [0, 2**63), got {index}")
    return np.random.Generator(np.random.Philox(key=np.uint64(seed), counter=[0, 0, index, 0]))


@dataclass(frozen=True)
class PathSample:
    """Distance process on a uniform grid: values[k] = r_N(X_{k dt})."""

    dt: float
    values: np.ndarray
    scenario: Scenario
    seed: int

    def __post_init__(self):
        if self.dt <= 0.0:
            raise DomainError(f"dt must be positive, got {self.dt}")


def sample_distances(s: Scenario, t: float, rng: np.random.Generator, size: int) -> np.ndarray:
    """Vectorized exact draws of r_N(X_t). |c e + sqrt(t) G| in R^d, by rotation
    invariance sqrt((c + sqrt(t) Z)^2 + t chi2_{d-1}): flat d = m - n, c = r0;
    sphere d = m, c = 0, then |. - radius|; H^3 d = 3, c = |a t e + r0 U|;
    circle r0 + sqrt(t) Z wrapped. Draw order: the normals Z, (H^3 off the
    pole) the uniforms of U_0, then the chi-square (Z'^2 at d = 2,
    2 standard_gamma((d - 1) / 2) beyond)."""
    if not t > 0.0:
        raise DomainError(f"t must be positive, got {t}")
    if size < 1:
        raise DomainError(f"size must be positive, got {size}")
    r = math.sqrt(t) * rng.standard_normal(size)
    if isinstance(s, CirclePoint):
        r += s.r0
        return _circle_distance(r)
    if isinstance(s, EuclideanAffine):
        d, c = s.m - s.n, s.r0
    elif isinstance(s, SphereInEuclidean):
        d, c = s.m, 0.0
    elif isinstance(s, HyperbolicH3Point):
        a = math.sqrt(-s.kappa)
        d, c = 3, a * t
        if s.r0 > 0.0:
            w = _vmf_cosine(a * s.r0, rng.random(size))
            c = np.sqrt(np.maximum(c * c + 2.0 * c * s.r0 * w + s.r0 * s.r0, 0.0))
    else:
        raise TypeError(f"unknown scenario {s!r}")
    r += c
    np.square(r, out=r)
    if d == 2:  # a gamma of shape 1/2 costs three times two normals
        r += t * np.square(rng.standard_normal(size))
    elif d > 2:
        r += t * (2.0 * rng.standard_gamma(0.5 * (d - 1), size))
    np.sqrt(r, out=r)
    return np.abs(r - s.radius, out=r) if isinstance(s, SphereInEuclidean) else r


def _vmf_cosine(k: float, u: np.ndarray) -> np.ndarray:
    # U_0 of a von Mises-Fisher U on S^2 of concentration k, from uniforms u by
    # inverting its law, density proportional to e^{k w} on [-1, 1]
    return 1.0 + np.log1p(u * math.expm1(-2.0 * k)) / k


def _circle_distance(angle: np.ndarray) -> np.ndarray:
    """|angle| wrapped to [0, pi], computed in place."""
    angle += math.pi
    np.mod(angle, 2.0 * math.pi, out=angle)
    angle -= math.pi
    return np.abs(angle, out=angle)


def grid_steps(dt: float, T: float) -> int:
    """Number of steps of the grid k*dt, k = 0..round(T/dt)."""
    if dt <= 0.0 or dt > T:
        raise DomainError(f"need 0 < dt <= T, got dt={dt}, T={T}")
    return int(round(T / dt))


def sample_path(s: Scenario, dt: float, T: float, seed: int, index: int = 0) -> PathSample:
    """Row `index` of sample_paths as a PathSample; kept only for the benchmark, which times it."""
    return PathSample(dt=dt, values=sample_paths(s, dt, T, seed, index, 1)[0], scenario=s, seed=seed)


def sample_paths(s: Scenario, dt: float, T: float, seed: int, start: int, count: int) -> np.ndarray:
    """Paths start..start+count-1 of r_N(X) on the grid k*dt, one per row,
    exact at grid times on every scenario.

    Row j draws only from stream(seed, start + j), whatever else shares the
    block: its Gaussian increments, then (H^3 off the pole) its start.
    """
    steps = grid_steps(dt, T)
    if count < 1:
        raise DomainError(f"count must be positive, got {count}")
    if not 0 <= start <= 2**63 - count:
        raise DomainError(f"stream indices must lie in [0, 2**63), got {start}..{start + count - 1}")
    rows = (seed, range(start, start + count))
    if isinstance(s, HyperbolicH3Point):
        return _h3_walk(s.kappa, s.r0, dt, steps, rows)
    if isinstance(s, EuclideanAffine):
        pos = _gaussian_paths(rows, steps, s.m - s.n, dt)
        pos[..., 0] += s.r0
        return _radius(pos)
    if isinstance(s, SphereInEuclidean):
        return np.abs(_radius(_gaussian_paths(rows, steps, s.m, dt)) - s.radius)
    if isinstance(s, CirclePoint):
        angle = _gaussian_paths(rows, steps, 1, dt)[..., 0]
        angle += s.r0
        return _circle_distance(angle)
    raise TypeError(f"unknown scenario {s!r}")


def _h3_walk(kappa: float, r0: float, dt: float, steps: int, rows: tuple[int, Sequence[int]]) -> np.ndarray:
    """sample_paths on H^3 from r0, rows = (seed, stream indices); the benchmark times this name."""
    a = math.sqrt(-kappa)
    starts = np.empty((len(rows[1]), 1, 2))
    pos = _gaussian_paths(rows, steps, 3, dt, starts[:, 0] if r0 > 0.0 else None)
    pos[..., 0] += a * (dt * np.arange(steps + 1))  # Rogers-Pitman, e = e_0 (module docstring)
    if r0 > 0.0:  # U = (w, rho cos phi, rho sin phi), the azimuth phi uniform
        w = _vmf_cosine(a * r0, starts[..., 0])
        rho = r0 * np.sqrt(np.maximum((1.0 - w) * (1.0 + w), 0.0))
        phi = 2.0 * math.pi * starts[..., 1]
        pos[..., 0] += r0 * w
        pos[..., 1] += rho * np.cos(phi)
        pos[..., 2] += rho * np.sin(phi)
    return _radius(pos)


def _gaussian_paths(rows: tuple[int, Sequence[int]], steps: int, d: int, dt: float, starts=None) -> np.ndarray:
    # Brownian positions from 0, shape (paths, steps + 1, d); row j is drawn in
    # place from stream(seed, ks[j]), as standard_normal((steps, d)) would, then
    # its start uniforms into starts[j]. Re-keying one Philox (counter [0, 0, k,
    # 0], empty buffer) gives stream()'s bits without its fresh SeedSequence.
    seed, ks = rows
    bits = np.random.Philox(key=np.uint64(seed))
    fresh, rng = bits.state, np.random.Generator(bits)
    pos = np.empty((len(ks), steps + 1, d))
    pos[:, 0] = 0.0
    for j, k in enumerate(ks):
        fresh["state"]["counter"][2] = k
        bits.state = fresh
        rng.standard_normal(out=pos[j, 1:])
        if starts is not None:
            rng.random(out=starts[j])
    pos *= math.sqrt(dt)
    return np.cumsum(pos, axis=1, out=pos)


def _radius(pos: np.ndarray) -> np.ndarray:
    # norm over the last axis, squaring pos in place: np.linalg.norm's bits
    # for up to 7 coordinates, without its temporaries
    np.square(pos, out=pos)
    sq = pos[..., 0].copy()
    for i in range(1, pos.shape[-1]):
        sq += pos[..., i]
    return np.sqrt(sq, out=sq)


def write_path_dump(dt: float, values: np.ndarray, fh: BinaryIO) -> None:
    """Binary dump of a path on the grid k*dt: magic TBND, version u32, count u64, dt f64, values f64."""
    fh.write(DUMP_MAGIC)
    fh.write(struct.pack("<IQd", DUMP_VERSION, len(values), dt))
    fh.write(np.asarray(values, dtype="<f8").tobytes())


def read_path_dump(fh: BinaryIO) -> tuple[float, np.ndarray]:
    """Read a dump written by write_path_dump; returns (dt, values)."""
    magic = fh.read(4)
    if magic != DUMP_MAGIC:
        raise DomainError(f"bad magic {magic!r}, expected {DUMP_MAGIC!r}")
    version, count, dt = struct.unpack("<IQd", fh.read(20))
    if version != DUMP_VERSION:
        raise DomainError(f"unsupported dump version {version}")
    values = np.frombuffer(fh.read(8 * count), dtype="<f8")
    if values.size != count:
        raise DomainError(f"truncated dump: expected {count} values, got {values.size}")
    return dt, values
