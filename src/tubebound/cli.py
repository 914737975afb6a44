"""Experiment runner: verify / curves / mc / localtime.

Configuration comes from flags, optionally seeded by a key=value file
(--config). Each entry becomes a flag placed after the subcommand and
before the command line's own flags, so argparse types and checks it as
it does the flag, and a flag given wins: a switch (quick) is set by
1/true/yes/on, a list (R) takes the value's words, any other key is
--key=value. A key the subcommand lacks is a config error. The parser is
built once per process and never changed; the seed default is read from
$TUBEBOUND_SEED when a command runs without --seed. Every artifact
written (CSV, SVG) is a pure function of config + seed, so reruns are
byte-identical.

Exit codes: 0 all comparisons pass, 1 a comparison failed, 2 bad config.
"""
from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from pathlib import Path

from .bounds import (
    BoundCurve,
    concentration_bound_optimized,
    curves_to_csv,
    even_moment_bound,
    exit_time_bound,
    exp_dist_curve,
    exp_sq_bound,
    exp_sq_curve,
)
from .errors import DomainError
from .estimate import estimates_to_csv, mc_exp_moment, mc_moment, tail_prob
from .modelspaces import SCENARIOS, LyapunovParams, Scenario, lyapunov_params, scenario_from_kv
from .verify import DEFAULT_SEED, Check, local_time_mean, run_all

_ENV_SEED = "TUBEBOUND_SEED"


def _default_seed() -> int:
    value = os.environ.get(_ENV_SEED)
    try:
        return DEFAULT_SEED if value is None else int(value)
    except ValueError:
        raise DomainError(f"{_ENV_SEED} must be an integer, got {value!r}") from None


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=list(SCENARIOS), default=None)
    p.add_argument("--m", type=int, default=None, help="ambient dimension")
    p.add_argument("--n-dim", type=int, default=None, help="submanifold dimension (flat)")
    p.add_argument("--kappa", type=float, default=None, help="curvature (h3)")
    p.add_argument("--radius", type=float, default=None, help="sphere radius")
    p.add_argument("--r0", type=float, default=None, help="initial distance")


def _build_scenario(args: argparse.Namespace, kind: str) -> Scenario:
    """Scenario `kind` from the scenario flags given (--n-dim is n); a flag
    that is not a field of the scenario is a config error."""
    kv: dict[str, object] = {"kind": kind}
    for flag in ("m", "n_dim", "kappa", "radius", "r0"):
        value = getattr(args, flag)
        if value is not None:
            kv["n" if flag == "n_dim" else flag] = value
    return scenario_from_kv(kv)


def _load_config(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        cfg[key.strip()] = value.strip()
    return cfg


def _config_flags(args: argparse.Namespace, cfg: dict[str, str]) -> list[str]:
    """The config entries as flags, for argparse to type and check.

    `args` is the command line parsed alone: its keys are the subcommand's
    dests, a bool one is a switch and a list one takes several values.
    """
    flags: list[str] = []
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in vars(args) or dest in ("command", "config", "fn"):
            raise DomainError(f"unknown config key {key!r}")
        flag, given = "--" + dest.replace("_", "-"), getattr(args, dest)
        if isinstance(given, bool):
            flags += [flag] if value.lower() in ("1", "true", "yes", "on") else []
        elif isinstance(given, list):
            flags += [flag, *value.split()]
        else:  # one token, so that a value may start with "-" or hold spaces
            flags.append(f"{flag}={value}")
    return flags


# ------------------------------------------------------------ SVG rendering

_W, _H = 640, 420
_L, _R_, _T, _B = 60, 620, 20, 380


def _render_svg(title: str, curves: list[tuple[str, BoundCurve, str]], x_max: float,
                y_cap: float = 25.0) -> str:
    """Static plot: one polyline per curve, axis ticks, explosion markers.

    Deterministic output (no timestamps, fixed float formats); values above
    y_cap are clipped by the plot viewport.
    """
    def sx(x: float) -> float:
        return _L + (x / x_max) * (_R_ - _L)

    def sy(y: float) -> float:
        return _B - (min(y, y_cap * 1.05) / y_cap) * (_B - _T)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}">',
        f'<rect x="0" y="0" width="{_W}" height="{_H}" fill="white"/>',
        f'<clipPath id="plot"><rect x="{_L}" y="{_T}" width="{_R_ - _L}" '
        f'height="{_B - _T}"/></clipPath>',
        f'<text x="{_L}" y="14" font-size="12" font-family="monospace">{title}</text>',
        f'<line x1="{_L}" y1="{_B}" x2="{_R_}" y2="{_B}" stroke="black"/>',
        f'<line x1="{_L}" y1="{_T}" x2="{_L}" y2="{_B}" stroke="black"/>',
    ]
    for i in range(6):
        xv = x_max * i / 5.0
        parts.append(
            f'<line x1="{sx(xv):.2f}" y1="{_B}" x2="{sx(xv):.2f}" y2="{_B + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{sx(xv):.2f}" y="{_B + 18}" font-size="10" text-anchor="middle" '
            f'font-family="monospace">{xv:.3g}</text>'
        )
        yv = y_cap * i / 5.0
        parts.append(
            f'<line x1="{_L - 5}" y1="{sy(yv):.2f}" x2="{_L}" y2="{sy(yv):.2f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_L - 8}" y="{sy(yv) + 3:.2f}" font-size="10" text-anchor="end" '
            f'font-family="monospace">{yv:.3g}</text>'
        )
    # the polylines map points as sx and sy do, inline: curves on one grid share
    # its x text, and every clipped value has the same y text
    y_top, y_scale = y_cap * 1.05, _B - _T
    top_text = f"{sy(y_top):.2f}"
    grid: list[float] | None = None
    for j, (label, curve, dash) in enumerate(curves):
        if curve.grid != grid:
            grid = curve.grid
            x_text = [f"{_L + (x / x_max) * (_R_ - _L):.2f}," for x in grid]
        pts = " ".join([
            xt + top_text if v >= y_top else f"{xt}{_B - (v / y_cap) * y_scale:.2f}"
            for xt, v, ok in zip(x_text, curve.values, curve.valid)
            if ok
        ])
        dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
        parts.append(
            f'<polyline clip-path="url(#plot)" points="{pts}" fill="none" '
            f'stroke="black" stroke-width="1.2"{dash_attr}/>'
        )
        if curve.explosion_point is not None and curve.explosion_point <= x_max:
            ex = sx(curve.explosion_point)
            parts.append(
                f'<line x1="{ex:.2f}" y1="{_T}" x2="{ex:.2f}" y2="{_B}" stroke="gray" '
                f'stroke-dasharray="1,3"/>'
            )
        ly = _T + 14 + 14 * j
        parts.append(
            f'<line x1="{_L + 10}" y1="{ly}" x2="{_L + 40}" y2="{ly}" stroke="black"{dash_attr}/>'
        )
        parts.append(
            f'<text x="{_L + 46}" y="{ly + 3}" font-size="10" font-family="monospace">{label}</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------- commands

def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_all(quick=args.quick, seed=args.seed)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} criteria passed")
    return 1 if failed else 0


_DASHES = {0.0: "", -1.0: "2,3", 1.0: "7,4"}


def _fresh(path: Path) -> Path:
    """path with any old file there removed, so that writing it makes a new
    file: truncating an existing one can stall open() for tens of ms (ext4
    auto_da_alloc)."""
    path.unlink(missing_ok=True)
    return path


def _cmd_curves(args: argparse.Namespace) -> int:
    if not (args.m >= 2 and args.steps >= 1 and 0.0 < args.t_max < math.inf and 0.0 < args.theta < math.inf):
        raise DomainError("curves needs --m >= 2 (nu >= 2), --steps >= 1 and finite --t-max, --theta > 0")
    if not (args.R and all(map(math.isfinite, args.R)) and len({f"{R:g}" for R in args.R}) == len(args.R)):
        raise DomainError(f"curves needs one or more finite --R values, no two alike to 6 digits, got {args.R}")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = [args.t_max * (k + 1) / args.steps for k in range(args.steps)]
    explosion_rows = []
    for family, builder in (("exp_dist", exp_dist_curve), ("exp_sq", exp_sq_curve)):
        curves = [builder(LyapunovParams(nu=float(args.m), lam=-R / 3.0), 0.0, args.theta, grid) for R in args.R]
        for R, curve, text in zip(args.R, curves, curves_to_csv(curves)):
            name = f"{family}_R{R:g}"
            _fresh(out / f"{name}.csv").write_text(text)
            if family == "exp_sq":
                point = curve.explosion_point
                explosion_rows.append(f"{name},{point!r}" if point is not None else f"{name},never")
                if point is not None:
                    print(f"{name}: explodes at t={point:.6f}")
                else:
                    print(f"{name}: no finite explosion time")
        svg = _render_svg(
            f"{family} bound, theta={args.theta:g}, nu={args.m}",
            [(f"R={R:g}", curve, _DASHES.get(R, "4,2")) for R, curve in zip(args.R, curves)],
            args.t_max,
        )
        _fresh(out / f"{family}.svg").write_text(svg)
    _fresh(out / "explosions.csv").write_text("curve,explosion_time\n" + "\n".join(explosion_rows) + "\n")
    print(f"wrote {2 * len(args.R)} curve CSVs, 2 SVGs and explosions.csv to {out}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    s = _build_scenario(args, args.scenario or "flat")
    lp = lyapunov_params(s)
    if args.theta is not None:
        est = mc_exp_moment(s, args.theta, args.t, True, args.n, args.seed)
        bound = exp_sq_bound(lp, s.r0, args.t, args.theta)
        name = f"exp_sq_moment_theta={args.theta:g}"
    elif args.r is not None:
        if args.dt is not None:
            est = tail_prob(s, args.r, args.t, True, args.n, args.dt, args.seed)
            opt = concentration_bound_optimized(lp, s.r0, args.t, args.r)
            bound = exit_time_bound(lp, s.r0, args.t, args.r, opt.delta)
            name = f"sup_tail_r={args.r:g}"
        else:
            est = tail_prob(s, args.r, args.t, False, args.n, None, args.seed)
            bound = concentration_bound_optimized(lp, s.r0, args.t, args.r).value
            name = f"tail_r={args.r:g}"
    else:
        p = args.p if args.p is not None else 1
        est = mc_moment(s, p, args.t, args.n, args.seed)
        bound = even_moment_bound(lp, s.r0, args.t, p)
        name = f"moment_p={p}"
    ok = Check(name, est.mean, "<=", bound, 3.0 * est.stderr).ok
    print(
        f"{name} t={args.t:g}: mc mean={est.mean:.6g} stderr={est.stderr:.3g} "
        f"bound={bound:.6g} -> {'PASS' if ok else 'FAIL'}"
    )
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _fresh(out / "mc_results.csv").write_text(estimates_to_csv([(name, est)]))
        print(f"wrote {out / 'mc_results.csv'}")
    return 0 if ok else 1


# the name, default t and tolerance of each localtime job; local_time_mean
# rejects the other scenarios
_LOCALTIME_JOBS = {"circle": ("circle_cut_locus", 20.0, 0.05), "sphere": ("sphere_shell", 1.0, 0.10)}


def _cmd_localtime(args: argparse.Namespace) -> int:
    if args.t is not None and args.scenario is None:
        raise DomainError("--t needs --scenario circle or sphere (the two jobs run at different t)")
    # every scenario is built before a job runs, so that a bad flag prints no result
    scenarios = [_build_scenario(args, kind) for kind in ([args.scenario] if args.scenario else _LOCALTIME_JOBS)]
    rows = []
    status = 0
    for s in scenarios:
        name, t, tol = _LOCALTIME_JOBS.get(s.kind, (s.kind, 1.0, 0.0))
        t = t if args.t is None else args.t
        est, truth = local_time_mean(s, t, args.n, args.dt, args.seed)
        ok = Check(name, est.mean, "vs", truth, tol * truth).ok
        status |= 0 if ok else 1
        print(
            f"{name} t={t:g}: mc mean={est.mean:.5f} stderr={est.stderr:.5f} "
            f"closed form={truth:.5f} (tol {tol:.0%}) -> {'PASS' if ok else 'FAIL'}"
        )
        rows.append((name, est))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _fresh(out / "localtime_results.csv").write_text(estimates_to_csv(rows))
        print(f"wrote {out / 'localtime_results.csv'}")
    return status


def _add_verify(sub) -> None:
    p = sub.add_parser("verify", help="run the acceptance-criteria suite")
    p.add_argument("--quick", action="store_true", help="reduced Monte Carlo sizes")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_verify)


def _add_curves(sub) -> None:
    p = sub.add_parser("curves", help="emit exponential-bound curves (CSV + SVG)")
    p.add_argument("--theta", type=float, default=1.0 / 6.0)
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--R", type=float, nargs="*", default=[-1.0, 0.0, 1.0],
                   help="Ricci lower bounds; lam = -R/3")
    p.add_argument("--t-max", type=float, default=8.0)
    p.add_argument("--steps", type=int, default=400)
    p.add_argument("--out", default="out")
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_curves)


def _add_mc(sub) -> None:
    p = sub.add_parser("mc", help="Monte Carlo estimate vs bound for one scenario")
    _add_scenario_flags(p)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--p", type=int, default=None, help="moment order")
    p.add_argument("--theta", type=float, default=None, help="exp-square moment instead")
    p.add_argument("--r", type=float, default=None, help="tail radius instead")
    p.add_argument("--dt", type=float, default=None, help="path step (sup-mode tails)")
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_mc)


def _add_localtime(sub) -> None:
    p = sub.add_parser("localtime", help="local-time experiments (Brownian-bridge estimator)")
    _add_scenario_flags(p)
    p.add_argument("--t", type=float, default=None)
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--dt", type=float, default=1e-2)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)
    p.set_defaults(fn=_cmd_localtime)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The tubebound parser, built once: a config file reaches it as flags, never as defaults."""
    parser = argparse.ArgumentParser(
        prog="tubebound",
        description="Moment bounds for Brownian motion near a submanifold: "
        "verification and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add in (_add_verify, _add_curves, _add_mc, _add_localtime):
        add(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:  # its entries go between the subcommand and the flags given, which win
            args = parser.parse_args(argv[:1] + _config_flags(args, _load_config(args.config)) + argv[1:])
        if getattr(args, "seed", 0) is None:  # curves has no --seed
            args.seed = _default_seed()
        return args.fn(args)
    except (DomainError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
