"""Experiment runner: verify / curves / mc / localtime.

Configuration comes from flags, optionally seeded by a key=value file
(flags win). Every artifact written (CSV, SVG, path dumps) is a pure
function of config + seed + partitions, so reruns are byte-identical.

Exit codes: 0 all comparisons pass, 1 a comparison failed, 2 bad config.
"""
from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

from .bounds import (
    BoundCurve,
    concentration_bound_optimized,
    curve_to_csv,
    even_moment_bound,
    exit_time_bound,
    exp_dist_curve,
    exp_sq_bound,
    exp_sq_curve,
)
from .errors import DomainError
from .estimate import (
    bridge_local_time,
    estimates_to_csv,
    mc_exp_moment,
    mc_moment,
    mc_path_mean,
    tail_prob,
)
from .modelspaces import (
    SCENARIOS,
    CirclePoint,
    LyapunovParams,
    Scenario,
    lyapunov_params,
    revuz_mean_local_time,
    scenario_from_kv,
)
from .simulate import sample_paths, write_path_dump
from .verify import DEFAULT_SEED, run_all

_ENV_SEED = "TUBEBOUND_SEED"


def _default_seed() -> int:
    return int(os.environ.get(_ENV_SEED, DEFAULT_SEED))


def _add_scenario_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scenario", choices=list(SCENARIOS), default=None)
    p.add_argument("--m", type=int, default=None, help="ambient dimension")
    p.add_argument("--n-dim", type=int, default=None, help="submanifold dimension (flat)")
    p.add_argument("--kappa", type=float, default=None, help="curvature (h3)")
    p.add_argument("--radius", type=float, default=None, help="sphere radius")
    p.add_argument("--r0", type=float, default=None, help="initial distance")


def _build_scenario(args: argparse.Namespace, kind: str) -> Scenario:
    """Scenario `kind` from the flags given that are fields of it (--n-dim is n)."""
    kv: dict[str, object] = {"kind": kind}
    for f in dataclasses.fields(SCENARIOS[kind]):
        value = getattr(args, "n_dim" if f.name == "n" else f.name)
        if value is not None:
            kv[f.name] = value
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


def _apply_config(parser: argparse.ArgumentParser, cfg: dict[str, str]) -> None:
    """Turn config entries into parser defaults; flags then take precedence."""
    typed: dict[str, object] = {}
    actions = {a.dest: a for a in parser._actions}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest not in actions or dest in ("help", "config"):
            raise DomainError(f"unknown config key {key!r}")
        action = actions[dest]
        try:
            if isinstance(action, (argparse._StoreTrueAction, argparse._StoreFalseAction)):
                typed[dest] = value.lower() in ("1", "true", "yes", "on")
            elif action.nargs in ("*", "+"):
                typed[dest] = [(action.type or str)(v) for v in value.split()]
            else:
                typed[dest] = (action.type or str)(value)
                if action.choices and typed[dest] not in action.choices:
                    raise ValueError  # argparse checks only parsed flags against choices
        except ValueError:
            raise DomainError(f"bad value for config key {key!r}: {value!r}") from None
    parser.set_defaults(**typed)


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
    for j, (label, curve, dash) in enumerate(curves):
        pts = " ".join(
            f"{sx(x):.2f},{sy(v):.2f}"
            for x, v, ok in zip(curve.grid, curve.values, curve.valid)
            if ok
        )
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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = [args.t_max * (k + 1) / args.steps for k in range(args.steps)]
    explosion_rows = []
    for family, builder in (("exp_dist", exp_dist_curve), ("exp_sq", exp_sq_curve)):
        curves = []
        for R in args.R:
            lp = LyapunovParams(nu=float(args.m), lam=-R / 3.0)
            curve = builder(lp, 0.0, args.theta, grid)
            name = f"{family}_R{R:g}"
            _fresh(out / f"{name}.csv").write_text(curve_to_csv(curve))
            if family == "exp_sq":
                point = curve.explosion_point
                explosion_rows.append(f"{name},{point!r}" if point is not None else f"{name},never")
                if point is not None:
                    print(f"{name}: explodes at t={point:.6f}")
                else:
                    print(f"{name}: no finite explosion time")
            dash = _DASHES.get(R, "4,2")
            curves.append((f"R={R:g}", curve, dash))
        svg = _render_svg(
            f"{family} bound, theta={args.theta:g}, nu={args.m}", curves, args.t_max
        )
        _fresh(out / f"{family}.svg").write_text(svg)
    _fresh(out / "explosions.csv").write_text("curve,explosion_time\n" + "\n".join(explosion_rows) + "\n")
    print(f"wrote {2 * len(args.R)} curve CSVs, 2 SVGs and explosions.csv to {out}")
    return 0


def _cmd_mc(args: argparse.Namespace) -> int:
    s = _build_scenario(args, args.scenario or "flat")
    lp = lyapunov_params(s)
    rows = []
    if args.theta is not None:
        est = mc_exp_moment(s, args.theta, args.t, True, args.n, args.seed, args.partitions)
        bound = exp_sq_bound(lp, s.r0, args.t, args.theta)
        name = f"exp_sq_moment_theta={args.theta:g}"
    elif args.r is not None:
        if args.dt is not None:
            est = tail_prob(s, args.r, args.t, True, args.n, args.dt, args.seed, args.partitions)
            opt = concentration_bound_optimized(lp, s.r0, args.t, args.r)
            bound = exit_time_bound(lp, s.r0, args.t, args.r, opt.delta)
            name = f"sup_tail_r={args.r:g}"
        else:
            est = tail_prob(s, args.r, args.t, False, args.n, None, args.seed, args.partitions)
            bound = concentration_bound_optimized(lp, s.r0, args.t, args.r).value
            name = f"tail_r={args.r:g}"
    else:
        p = args.p if args.p is not None else 1
        est = mc_moment(s, p, args.t, args.n, args.seed, args.partitions)
        bound = even_moment_bound(lp, s.r0, args.t, p)
        name = f"moment_p={p}"
    ok = est.mean - 3.0 * est.stderr <= bound
    print(
        f"{name} t={args.t:g}: mc mean={est.mean:.6g} stderr={est.stderr:.3g} "
        f"bound={bound:.6g} -> {'PASS' if ok else 'FAIL'}"
    )
    rows.append((name, est))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        _fresh(out / "mc_results.csv").write_text(estimates_to_csv(rows))
        print(f"wrote {out / 'mc_results.csv'}")
    return 0 if ok else 1


def _cmd_localtime(args: argparse.Namespace) -> int:
    if args.t is not None and args.scenario is None:
        raise DomainError("--t needs --scenario circle or sphere (the two jobs run at different t)")
    jobs = []
    if args.scenario in (None, "circle"):
        t = 20.0 if args.t is None else args.t
        # the cut locus of the start is the antipode, at distance pi
        truth = revuz_mean_local_time(CirclePoint(r0=math.pi), t)
        jobs.append(("circle_cut_locus", CirclePoint(r0=0.0), lambda v: math.pi - v, t, truth, 0.05))
    if args.scenario in (None, "sphere"):
        t = 1.0 if args.t is None else args.t
        s = _build_scenario(args, "sphere")
        jobs.append(("sphere_shell", s, lambda v: v, t, revuz_mean_local_time(s, t), 0.10))
    if args.scenario == "flat" or args.scenario == "h3":
        print(f"localtime supports circle and sphere scenarios, not {args.scenario}", file=sys.stderr)
        return 2

    out = Path(args.out) if args.out else None
    if out:
        out.mkdir(parents=True, exist_ok=True)
    rows = []
    status = 0
    for name, s, distance, t, truth, tol in jobs:
        est = mc_path_mean(s, args.dt, t, args.n, args.seed, lambda v: bridge_local_time(distance(v), args.dt))
        if args.dump_paths and out:
            with open(_fresh(out / f"localtime_{name}_path0.bin"), "wb") as fh:
                write_path_dump(args.dt, sample_paths(s, args.dt, t, args.seed, 0, 1)[0], fh)
        ok = abs(est.mean - truth) <= tol * truth
        status |= 0 if ok else 1
        print(
            f"{name} t={t:g}: mc mean={est.mean:.5f} stderr={est.stderr:.5f} "
            f"closed form={truth:.5f} (tol {tol:.0%}) -> {'PASS' if ok else 'FAIL'}"
        )
        rows.append((name, est))
    if out:
        _fresh(out / "localtime_results.csv").write_text(estimates_to_csv(rows))
        print(f"wrote {out / 'localtime_results.csv'}")
    return status


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tubebound",
        description="Moment bounds for Brownian motion near a submanifold: "
        "verification and experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run the acceptance-criteria suite")
    p_verify.add_argument("--quick", action="store_true", help="reduced Monte Carlo sizes")
    p_verify.add_argument("--seed", type=int, default=_default_seed())
    p_verify.add_argument("--config", default=None)
    p_verify.set_defaults(fn=_cmd_verify)

    p_curves = sub.add_parser("curves", help="emit exponential-bound curves (CSV + SVG)")
    p_curves.add_argument("--theta", type=float, default=1.0 / 6.0)
    p_curves.add_argument("--m", type=int, default=3)
    p_curves.add_argument("--R", type=float, nargs="*", default=[-1.0, 0.0, 1.0],
                          help="Ricci lower bounds; lam = -R/3")
    p_curves.add_argument("--t-max", type=float, default=8.0)
    p_curves.add_argument("--steps", type=int, default=400)
    p_curves.add_argument("--out", default="out")
    p_curves.add_argument("--config", default=None)
    p_curves.set_defaults(fn=_cmd_curves)

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate vs bound for one scenario")
    _add_scenario_flags(p_mc)
    p_mc.add_argument("--t", type=float, default=1.0)
    p_mc.add_argument("--p", type=int, default=None, help="moment order")
    p_mc.add_argument("--theta", type=float, default=None, help="exp-square moment instead")
    p_mc.add_argument("--r", type=float, default=None, help="tail radius instead")
    p_mc.add_argument("--dt", type=float, default=None, help="path step (sup-mode tails)")
    p_mc.add_argument("--n", type=int, default=100_000)
    p_mc.add_argument("--partitions", type=int, default=1)
    p_mc.add_argument("--seed", type=int, default=_default_seed())
    p_mc.add_argument("--out", default=None)
    p_mc.add_argument("--config", default=None)
    p_mc.set_defaults(fn=_cmd_mc)

    p_lt = sub.add_parser("localtime", help="local-time experiments (Brownian-bridge estimator)")
    _add_scenario_flags(p_lt)
    p_lt.add_argument("--t", type=float, default=None)
    p_lt.add_argument("--n", type=int, default=10_000)
    p_lt.add_argument("--dt", type=float, default=1e-2)
    p_lt.add_argument("--seed", type=int, default=_default_seed())
    p_lt.add_argument("--out", default=None)
    p_lt.add_argument("--dump-paths", action="store_true")
    p_lt.add_argument("--config", default=None)
    p_lt.set_defaults(fn=_cmd_localtime)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    # find the subcommand parser to honor a config file, flags winning
    try:
        pre, _ = parser.parse_known_args(argv)
        if getattr(pre, "config", None):
            sub_actions = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
            sub_parser = sub_actions[0].choices[pre.command]
            _apply_config(sub_parser, _load_config(pre.config))
        args = parser.parse_args(argv)
        return args.fn(args)
    except (DomainError, OSError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
