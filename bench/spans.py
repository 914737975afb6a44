"""Span tracing installed from outside the library.

`Tracer.install` replaces each traced function of `tubebound` by a wrapper
that records a span (name, start, end, parent span, call id, attributes).
The wrapper is bound at every site that holds the original object: the
defining module, every module that did `from .x import f`, the package
namespace and the `verify.CRITERIA` registry. `uninstall` restores them.
Nothing under `src/tubebound` is edited, and an untraced run installs
nothing.

Spans stay in memory; `write_spans` dumps them as JSON lines at the end.
"""
from __future__ import annotations

import contextlib
import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("specfun", "modelspaces", "bounds", "simulate", "estimate", "verify", "cli")

_KINDS = {
    "EuclideanAffine": "flat",
    "CirclePoint": "circle",
    "HyperbolicH3Point": "h3",
    "SphereInEuclidean": "sphere",
}


def _kind(s) -> str:
    return _KINDS[type(s).__name__]


# Attributes a span records, computed from the call's arguments. Only the
# fields the per-layer metrics below need.
def _path_attrs(s, dt, T, *a, **k):
    return {"kind": _kind(s), "steps": int(round(T / dt))}


def _draw_attrs(s, t, rng, size):
    return {"kind": _kind(s), "size": int(size)}


def _walk_attrs(kappa, r0, dt, steps, rng):
    return {"steps": int(steps)}


def _kummer_attrs(a, b, z):
    return {"z": float(z)}


def _tail_attrs(s, r, t, sup_mode, *a, **k):
    return {"sup": bool(sup_mode)}


def _main_attrs(argv=None):
    return {"command": argv[0] if argv else None}


def _curve_attrs(p, r0, theta, grid):
    return {"points": len(grid)}


# (module, function name, attribute extractor). The public entry points
# of every layer that the workloads reach, plus the private `_h3_walk`,
# whose per-step cost is a re-anchor row of ROADMAP.md.
TARGETS = [
    ("specfun", "kummer", _kummer_attrs),
    ("specfun", "laguerre", None),
    ("specfun", "upper_gamma", None),
    ("specfun", "comparison", None),
    ("specfun", "lemma_laguerre_rhs", None),
    ("modelspaces", "exact_moment", None),
    ("modelspaces", "exact_exp_moment", None),
    ("modelspaces", "revuz_mean_local_time", None),
    ("modelspaces", "lyapunov_params", None),
    ("modelspaces", "scenario_from_kv", None),
    ("bounds", "exp_dist_bound", None),
    ("bounds", "even_moment_bound", None),
    ("bounds", "second_moment_bound", None),
    ("bounds", "exp_sq_bound", None),
    ("bounds", "concentration_bound_optimized", None),
    ("bounds", "exit_time_bound", None),
    ("bounds", "feynman_kac_bound", None),
    ("bounds", "logsob_bound", None),
    ("bounds", "explosion_time", None),
    ("bounds", "exp_dist_curve", _curve_attrs),
    ("bounds", "exp_sq_curve", _curve_attrs),
    ("bounds", "curve_to_csv", None),
    ("simulate", "stream", None),
    ("simulate", "sample_path", _path_attrs),
    ("simulate", "sample_distances", _draw_attrs),
    ("simulate", "_h3_walk", _walk_attrs),
    ("estimate", "mc_moment", None),
    ("estimate", "mc_exp_moment", None),
    ("estimate", "tail_prob", _tail_attrs),
    ("estimate", "occupation_local_time_extrapolated", None),
    ("estimate", "estimates_to_csv", None),
    ("verify", "run_all", None),
    ("cli", "main", _main_attrs),
]

# span record layout
NAME, START, END, PARENT, CALL, ATTRS = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.call_id: str | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, object, object]] = []

    def _open(self, name: str, attrs) -> list:
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.call_id, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, attrs):
        def traced(*args, **kwargs):
            span = self._open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """A span opened by the harness itself, around one of its calls."""
        span = self._open(name, None)
        try:
            yield
        finally:
            self._close(span)

    def install(self) -> None:
        from tubebound import verify

        for modname, fname, attrs in TARGETS:
            original = getattr(importlib.import_module(f"tubebound.{modname}"), fname)
            wrapper = self._wrap(f"{modname}.{fname}", original, attrs)
            for mod in _library_modules():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)
        # the registry holds the criterion functions themselves
        for i, (cname, fn) in enumerate(verify.CRITERIA):
            wrapper = self._wrap(f"verify.criterion.{cname}", fn, None)
            self._patch(verify.CRITERIA, i, (cname, wrapper))
            for attr, value in list(vars(verify).items()):
                if value is fn:
                    self._patch(verify, attr, wrapper)

    def _patch(self, target, key, value) -> None:
        if isinstance(target, list):
            self._patches.append((target, key, target[key]))
            target[key] = value
        else:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, value)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            if isinstance(target, list):
                target[key] = original
            else:
                setattr(target, key, original)
        self._patches.clear()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def _library_modules():
    return [m for n, m in list(sys.modules.items()) if n == "tubebound" or n.startswith("tubebound.")]


def write_spans(spans: list[list], path) -> None:
    with open(path, "w") as fh:
        for i, s in enumerate(spans):
            fh.write(json.dumps({"id": i, "name": s[NAME], "start": s[START], "end": s[END],
                                 "parent": s[PARENT], "call": s[CALL], "attrs": s[ATTRS]}) + "\n")


# ------------------------------------------------------------ layer metrics

def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def layer_of(name: str) -> str:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else "harness"


def layer_metrics(spans: list[list], wall_s: float, criteria: list[str]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as {name: (value, unit)}.

    A metric whose layer or call the workload does not reach reads 0.
    Module self times and `harness.self_s` add up to `wall_s` exactly:
    the harness owns everything outside library spans, including the
    gaps between its calls.
    """
    own = self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)

    def dur(i):
        return spans[i][END] - spans[i][START]

    def total(name, pred=None):
        return sum(dur(i) for i in by_name[name] if pred is None or pred(spans[i][ATTRS]))

    def mean_us(name, pred=None):
        idx = [i for i in by_name[name] if pred is None or pred(spans[i][ATTRS])]
        return 1e6 * sum(dur(i) for i in idx) / len(idx) if idx else 0.0

    def rate(name, field, k):
        idx = [i for i in by_name[name] if spans[i][ATTRS]["kind"] == k]
        secs = sum(dur(i) for i in idx)
        return sum(spans[i][ATTRS][field] for i in idx) / secs if secs > 0 else 0.0

    m: dict[str, tuple[float, str]] = {}
    self_by_layer = defaultdict(float)
    for i, s in enumerate(spans):
        self_by_layer[layer_of(s[NAME])] += own[i]

    # simulate
    for k in ("circle", "sphere", "flat", "h3"):
        m[f"simulate.sample_path.steps_per_s.{k}"] = (rate("simulate.sample_path", "steps", k), "1/s")
    m["simulate.sample_path.calls"] = (float(len(by_name["simulate.sample_path"])), "count")
    m["simulate.sample_path.circle_2e5.ms"] = (
        mean_us("simulate.sample_path", lambda a: a["kind"] == "circle" and a["steps"] == 200_000) / 1e3, "ms")
    m["simulate.stream.us"] = (mean_us("simulate.stream"), "us")
    walk_steps = sum(spans[i][ATTRS]["steps"] for i in by_name["simulate._h3_walk"])
    m["simulate.h3_walk.us_per_step"] = (
        1e6 * total("simulate._h3_walk") / walk_steps if walk_steps else 0.0, "us")
    for k in ("flat", "h3", "sphere"):
        m[f"simulate.sample_distances.draws_per_s.{k}"] = (rate("simulate.sample_distances", "size", k), "1/s")

    # estimate
    m["estimate.occupation.us"] = (mean_us("estimate.occupation_local_time_extrapolated"), "us")
    reduce_s = sum(own[i] for n in ("estimate.mc_moment", "estimate.mc_exp_moment") for i in by_name[n])
    reduce_s += sum(own[i] for i in by_name["estimate.tail_prob"] if not spans[i][ATTRS]["sup"])
    m["estimate.reduce.self_s"] = (reduce_s, "s")
    m["estimate.tail_prob_sup.s"] = (total("estimate.tail_prob", lambda a: a["sup"]), "s")

    # specfun
    for f in ("kummer", "laguerre", "upper_gamma", "comparison"):
        m[f"specfun.{f}.us"] = (mean_us(f"specfun.{f}"), "us")
        m[f"specfun.{f}.calls"] = (float(len(by_name[f"specfun.{f}"])), "count")
    m["specfun.kummer.z1.us"] = (mean_us("specfun.kummer", lambda a: a["z"] == 1.0), "us")
    m["specfun.kummer.z500.us"] = (mean_us("specfun.kummer", lambda a: a["z"] == 500.0), "us")

    # bounds
    for f in ("exp_dist_bound", "even_moment_bound", "concentration_bound_optimized", "feynman_kac_bound"):
        m[f"bounds.{f}.us"] = (mean_us(f"bounds.{f}"), "us")
    m["bounds.exp_dist_curve.ms"] = (mean_us("bounds.exp_dist_curve", lambda a: a["points"] == 400) / 1e3, "ms")

    # modelspaces
    m["modelspaces.revuz_mean_local_time.ms"] = (mean_us("modelspaces.revuz_mean_local_time") / 1e3, "ms")
    exact = by_name["modelspaces.exact_moment"] + by_name["modelspaces.exact_exp_moment"]
    m["modelspaces.exact.us"] = (1e6 * sum(dur(i) for i in exact) / len(exact) if exact else 0.0, "us")

    # verify
    for cname in criteria:
        m[f"verify.{cname}.s"] = (total(f"verify.criterion.{cname}"), "s")

    # cli
    for c in ("curves", "mc", "localtime"):
        m[f"cli.{c}.s"] = (total("cli.main", lambda a, c=c: a["command"] == c), "s")

    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_by_layer[layer], "s")
    roots = sum(dur(i) for i, s in enumerate(spans) if s[PARENT] < 0)
    m["harness.self_s"] = (self_by_layer["harness"] + (wall_s - roots), "s")
    m["trace.spans"] = (float(len(spans)), "count")
    return m
