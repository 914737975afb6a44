import math
import re

import pytest

from tubebound import cli, verify

from oracles import curve_csv_by_point, polyline_points_by_point


def _read_csv_rows(path):
    lines = path.read_text().strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


# -------------------------------------------------------------------- curves

def test_curves_explosion_marker_and_validity(tmp_path):
    rc = cli.main(
        ["curves", "--theta", "0.1666667", "--m", "3", "--R", "-1", "--out", str(tmp_path)]
    )
    assert rc == 0
    header, rows = _read_csv_rows(tmp_path / "exp_sq_R-1.csv")
    assert header == ["param", "value", "valid"]
    tstar = 3.0 * math.log(3.0)
    last_valid = max(float(r[0]) for r in rows if r[2] == "true")
    assert last_valid < tstar
    assert all(r[2] == "false" for r in rows if float(r[0]) > tstar + 1e-6)
    exp_lines = (tmp_path / "explosions.csv").read_text().strip().split("\n")
    assert exp_lines[0] == "curve,explosion_time"
    name, value = exp_lines[1].split(",")
    assert name == "exp_sq_R-1"
    assert float(value) == pytest.approx(3.2958, abs=1e-3)


def test_curves_no_explosion_for_positive_ricci(tmp_path):
    rc = cli.main(["curves", "--R", "1", "--steps", "50", "--out", str(tmp_path)])
    assert rc == 0
    assert "exp_sq_R1,never" in (tmp_path / "explosions.csv").read_text()


def test_curves_long_horizon_saturates_without_overflow(tmp_path):
    rc = cli.main(["curves", "--t-max", "3000", "--steps", "50", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv_rows(tmp_path / "exp_dist_R-1.csv")
    assert all(math.isfinite(float(r[1])) for r in rows)
    assert float(rows[-1][1]) == 1e300


@pytest.mark.parametrize("flags", [
    ["--R", "nan"], ["--theta", "nan"], ["--theta", "inf"], ["--t-max", "0"], ["--t-max", "-1"],
    ["--t-max", "nan"], ["--steps", "0"], ["--steps", "-3"], ["--m", "1"], ["--m", "0"], ["--theta", "0"],
    ["--R", "0", "inf"], ["--R"], ["--R", "0", "0"], ["--R", "1", "1.0000001"],
])
def test_curves_non_finite_parameter_exits_two(flags, tmp_path, capsys):
    assert cli.main(["curves", "--steps", "20", *flags, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err
    assert not any(p.is_file() for p in tmp_path.rglob("*"))  # rejected before any file is written


def test_curves_outputs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert cli.main(["curves", "--R", "-1", "0", "--steps", "80", "--out", str(out)]) == 0
    for name in ("exp_sq_R-1.csv", "exp_dist_R0.csv", "exp_sq.svg", "explosions.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


CURVES_FLAG_SETS = [
    [], ["--R", "-1", "0", "--steps", "80"], ["--t-max", "3000", "--steps", "50"], ["--m", "4", "--t-max", "3000"],
    ["--m", "41", "--t-max", "3000"], ["--theta", "0.1666667", "--R", "-1"], ["--m", "6", "--R", "-2", "0.5", "3"],
]


@pytest.mark.parametrize("flags", CURVES_FLAG_SETS, ids=lambda f: " ".join(f) or "defaults")
def test_curves_files_match_per_point_oracle(flags, tmp_path, monkeypatch):
    # every CSV and every polyline of the two SVGs, against the per-point renderings of
    # the very BoundCurves the command built
    made = {"exp_dist": [], "exp_sq": []}
    for family, curves in made.items():
        def record(*args, build=getattr(cli, f"{family}_curve"), curves=curves):
            curves.append(build(*args))
            return curves[-1]

        monkeypatch.setattr(cli, f"{family}_curve", record)
    assert cli.main(["curves", *flags, "--out", str(tmp_path)]) == 0
    args = cli._build_parser().parse_args(["curves", *flags])
    for family, curves in made.items():
        assert len(curves) == len(args.R)
        for R, curve in zip(args.R, curves):
            assert (tmp_path / f"{family}_R{R:g}.csv").read_bytes() == curve_csv_by_point(curve).encode()
        points = re.findall(r'<polyline [^>]*points="([^"]*)"', (tmp_path / f"{family}.svg").read_text())
        assert points == [polyline_points_by_point(c, args.t_max) for c in curves]


def test_curves_svg_is_static(tmp_path):
    assert cli.main(["curves", "--steps", "60", "--out", str(tmp_path)]) == 0
    svg = (tmp_path / "exp_dist.svg").read_text()
    assert svg.startswith("<svg")
    assert "polyline" in svg
    for word in ("date", "time", "2024", "2025", "2026"):
        assert word not in svg


# ------------------------------------------------------------------------ mc

def test_mc_h3_moment_passes(tmp_path, capsys):
    rc = cli.main(
        ["mc", "--scenario", "h3", "--kappa", "-1", "--t", "1", "--p", "1",
         "--n", "20000", "--out", str(tmp_path)]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS" in out
    header, rows = _read_csv_rows(tmp_path / "mc_results.csv")
    assert header == ["quantity", "mean", "stderr", "n", "seed"]
    assert float(rows[0][1]) == pytest.approx(4.0, abs=0.1)


@pytest.mark.parametrize("mode", [[], ["--theta", "0.1"]], ids=["moment", "exp_sq"])
@pytest.mark.parametrize("r0", ["0.7", "2"])
def test_mc_h3_off_pole_within_bound(r0, mode, capsys):
    rc = cli.main(["mc", "--scenario", "h3", "--r0", r0, "--t", "1", "--n", "20000", *mode])
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_mc_exp_square_mode(capsys):
    rc = cli.main(["mc", "--scenario", "h3", "--theta", "0.1", "--t", "1", "--n", "20000"])
    assert rc == 0
    assert "exp_sq_moment" in capsys.readouterr().out


def test_mc_sup_tail_mode(capsys):
    rc = cli.main(
        ["mc", "--scenario", "flat", "--m", "1", "--n-dim", "0", "--r", "2",
         "--t", "1", "--dt", "1e-3", "--n", "1000"]
    )
    assert rc == 0
    assert "sup_tail" in capsys.readouterr().out


def test_mc_sup_tail_below_mean_radius_is_vacuous(capsys):
    # r^2 / t <= nu: the minimising delta is 0 and the exit-time bound is exactly 1
    rc = cli.main(["mc", "--r", "0.5", "--dt", "0.01", "--n", "500"])
    assert rc == 0
    assert "bound=1 -> PASS" in capsys.readouterr().out


def test_mc_csv_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        rc = cli.main(
            ["mc", "--scenario", "h3", "--t", "0.5", "--n", "2000",
             "--seed", "5", "--out", str(out)]
        )
        assert rc == 0
    assert (a / "mc_results.csv").read_bytes() == (b / "mc_results.csv").read_bytes()


RERUN_COMMANDS = [
    ["curves", "--R", "-1", "0", "--steps", "40"],
    ["mc", "--scenario", "h3", "--t", "0.5", "--n", "2000"],
    ["localtime", "--scenario", "sphere", "--n", "2000", "--dt", "1e-2"],
]


@pytest.mark.parametrize("argv", RERUN_COMMANDS, ids=["curves", "mc", "localtime"])
def test_rerun_replaces_every_output_file(argv, tmp_path):
    # a rerun over old outputs, each longer than its new content, and over a
    # symlink writes the bytes of a run into an empty directory and leaves the
    # link's target alone
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    assert cli.main([*argv, "--out", str(fresh)]) == 0
    names = sorted(f.name for f in fresh.iterdir())
    reused.mkdir()
    for name in names:
        (reused / name).write_bytes(b"x" * (len((fresh / name).read_bytes()) + 4096))
    target = tmp_path / "target"
    target.write_bytes(b"keep")
    (reused / names[0]).unlink()
    (reused / names[0]).symlink_to(target)
    for _ in range(2):
        assert cli.main([*argv, "--out", str(reused)]) == 0
        assert sorted(f.name for f in reused.iterdir()) == names
        for name in names:
            assert (reused / name).read_bytes() == (fresh / name).read_bytes(), name
    assert not (reused / names[0]).is_symlink()
    assert target.read_bytes() == b"keep"


def test_mc_near_certain_tail_has_positive_stderr(capsys):
    # p-hat = 1 takes the Wilson half-width, as p-hat = 0 does
    assert cli.main(["mc", "--r", "1e-300", "--n", "1000"]) == 0
    assert "mc mean=1 stderr=0.0005 " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["localtime", "--scenario", "sphere", "--n", "1"], ["mc", "--r", "2", "--dt", "0.01", "--n", "1"],
])
def test_one_path_exits_two(argv, capsys):
    # one path has no standard error: a config error, not stderr=nan
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "need n >= 2 paths" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("n", ["1", "50"])
def test_mc_point_tail_needs_n_100(n, capsys):
    # as for the moments: one draw must not pass the concentration check
    assert cli.main(["mc", "--r", "2", "--n", n]) == 2
    captured = capsys.readouterr()
    assert "need n >= 100" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["localtime", "--scenario", "sphere", "--dt", "nan"], ["mc", "--r", "2", "--dt", "nan"],
    ["localtime", "--scenario", "sphere", "--t", "inf"],
])
def test_grid_out_of_domain_exits_two(argv, capsys):
    # a NaN step or an infinite horizon is a config error, not a traceback (exit 1)
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert "need 0 < dt <= T < inf" in captured.err
    assert captured.out == ""


# ------------------------------------------------------------------ localtime

def test_localtime_circle(capsys):
    rc = cli.main(["localtime", "--scenario", "circle", "--n", "1000", "--dt", "5e-4"])
    assert rc == 0
    assert "circle_cut_locus" in capsys.readouterr().out


def test_localtime_sphere_writes_results_csv(tmp_path, capsys):
    rc = cli.main(["localtime", "--scenario", "sphere", "--n", "400", "--dt", "5e-4", "--out", str(tmp_path)])
    assert rc == 0
    assert sorted(f.name for f in tmp_path.iterdir()) == ["localtime_results.csv"]
    header, rows = _read_csv_rows(tmp_path / "localtime_results.csv")
    assert header == ["quantity", "mean", "stderr", "n", "seed"]
    assert [r[0] for r in rows] == ["sphere_shell"]
    assert rows[0][3:5] == ["400", str(cli._default_seed())]


def test_localtime_circle_is_the_verify_criterion(capsys):
    # one definition serves both: the CLI at the criterion's n, dt and seed
    # prints the criterion's mean and stderr
    (check,) = verify.crit_circle_cut_locus_local_time(False, verify.DEFAULT_SEED).checks
    argv = ["localtime", "--scenario", "circle", "--n", "10000", "--dt", "0.1", "--seed", str(verify.DEFAULT_SEED + 5)]
    assert cli.main(argv) == 0
    assert f"mc mean={check.value:.5f} stderr={check.stderr:.5f} " in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["--scenario", "h3"], ["--scenario", "circle", "--r0", "0.3"],
    ["--scenario", "sphere", "--r0", "0.3"], ["--radius", "0.7"],
])
def test_localtime_scenarios_without_an_experiment_exit_two(argv, tmp_path, capsys):
    # local time is measured from N on the circle and at the sphere's shell; any
    # other scenario, and a flag of no job's scenario, is a config error
    assert cli.main(["localtime", *argv, "--n", "100", "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_mc_non_finite_scenario_parameter_exits_two(capsys):
    assert cli.main(["mc", "--scenario", "h3", "--kappa", "nan", "--n", "200"]) == 2
    assert "kappa" in capsys.readouterr().err
    assert cli.main(["mc", "--scenario", "flat", "--r0", "nan", "--n", "200"]) == 2
    assert cli.main(["mc", "--scenario", "sphere", "--radius", "inf", "--n", "200"]) == 2


@pytest.mark.parametrize("cmd", [["mc", "--n", "200"], ["verify", "--quick"]])
@pytest.mark.parametrize("seed", ["-3", "-1"])
def test_negative_seed_exits_two(cmd, seed, capsys):
    assert cli.main([*cmd, "--seed", seed]) == 2
    assert f"seed must be a non-negative integer, got {seed}" in capsys.readouterr().err


def test_scenario_defaults_and_inapplicable_flags(capsys):
    # flat defaults to m=3, n=0 (E r^2 = 3t); --radius is not a flat field
    assert cli.main(["mc", "--n", "200"]) == 0
    assert "bound=3 " in capsys.readouterr().out
    assert cli.main(["mc", "--n", "200", "--radius", "5"]) == 2
    captured = capsys.readouterr()
    assert "unknown scenario keys for kind=flat: ['radius']" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [
    ["--scenario", "sphere", "--r0", "0.3"], ["--scenario", "circle", "--kappa", "-1"],
    ["--scenario", "h3", "--m", "3"], ["--scenario", "circle", "--n-dim", "0"],
])
def test_mc_flag_the_scenario_lacks_exits_two(argv, capsys):
    assert cli.main(["mc", *argv, "--n", "200"]) == 2
    captured = capsys.readouterr()
    assert "unknown scenario keys" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("cmd", [["mc", "--n", "200"], ["verify", "--quick"], ["localtime", "--n", "20"]])
def test_non_integer_env_seed_exits_two(cmd, monkeypatch, capsys):
    monkeypatch.setenv("TUBEBOUND_SEED", "abc")
    assert cli.main(cmd) == 2
    captured = capsys.readouterr()
    assert "TUBEBOUND_SEED must be an integer, got 'abc'" in captured.err
    assert captured.out == ""


def test_non_integer_env_seed_is_not_read_with_seed_or_help(monkeypatch, capsys):
    monkeypatch.setenv("TUBEBOUND_SEED", "abc")
    assert cli.main(["mc", "--n", "200", "--seed", "5"]) == 0
    for argv in (["--help"], ["mc", "--help"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 0
    assert "TUBEBOUND_SEED" not in capsys.readouterr().err


def test_localtime_rejects_flat(capsys):
    assert cli.main(["localtime", "--scenario", "flat", "--n", "100"]) == 2


def test_localtime_t_without_scenario_is_config_error(capsys):
    # the circle and sphere jobs run at different t, so one --t cannot set both
    assert cli.main(["localtime", "--t", "0.5", "--n", "20", "--dt", "1e-2"]) == 2
    captured = capsys.readouterr()
    assert "config error" in captured.err and "--t" in captured.err
    assert captured.out == ""


# --------------------------------------------------------------------- config

def test_config_file_provides_defaults(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=h3\nkappa=-1\nn=2000\nt=0.5\n")
    rc = cli.main(["mc", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv_rows(tmp_path / "mc_results.csv")
    assert rows[0][3] == "2000"


def test_config_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("scenario=h3\nn=2000\n")
    rc = cli.main(["mc", "--config", str(cfg), "--n", "1500", "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv_rows(tmp_path / "mc_results.csv")
    assert rows[0][3] == "1500"


def test_config_unknown_key_is_error(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("frobnicate=1\n")
    assert cli.main(["mc", "--config", str(cfg)]) == 2
    assert "unknown config key" in capsys.readouterr().err


def test_localtime_eps_config_key_is_error(tmp_path, capsys):
    # the band width of the retired occupation estimator is no longer a key
    cfg = tmp_path / "lt.cfg"
    cfg.write_text("eps=0.05\n")
    assert cli.main(["localtime", "--config", str(cfg), "--scenario", "sphere", "--n", "20"]) == 2
    assert "unknown config key 'eps'" in capsys.readouterr().err


def test_config_bad_value_is_config_error(tmp_path, capsys):
    # argparse types and checks an entry as it does the flag: the same usage line, message and exit code
    cfg = tmp_path / "bad.cfg"
    for text, flag, message in (("m=abc\n", ["--m", "abc"], "argument --m: invalid int value: 'abc'"),
                                ("scenario=torus\n", ["--scenario", "torus"], "argument --scenario: invalid choice: 'torus'")):
        cfg.write_text(text)
        errs = []
        for argv in (["mc", "--config", str(cfg)], ["mc", *flag]):
            with pytest.raises(SystemExit) as err:
                cli.main(argv)
            assert err.value.code == 2
            errs.append(capsys.readouterr().err)
        assert errs[0] == errs[1]
        assert message in errs[0]


def _files(path):
    return {f.name: f.read_bytes() for f in path.iterdir()}


@pytest.mark.parametrize("cmd, entries, flags", [
    ("curves", "m=4\nR=-1 2\nsteps=50\n", ["--m", "4", "--R", "-1", "2", "--steps", "50"]),
    ("mc", "scenario=h3\nkappa=-1\nn=2000\nt=0.5\n", ["--scenario", "h3", "--kappa", "-1", "--n", "2000", "--t", "0.5"]),
], ids=["curves", "mc"])
def test_config_reads_as_its_flags_and_leaves_the_parser_as_built(cmd, entries, flags, tmp_path, capsys):
    # the entries become the flags, and the parser is kept across calls: a plain
    # call after a config call reads the parser's defaults, as one before it does
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entries)
    runs = {}
    for name, argv in (("plain", []), ("flags", flags), ("config", ["--config", str(cfg)]), ("plain again", [])):
        out = tmp_path / name
        rc = cli.main([cmd, *argv, "--out", str(out)])
        runs[name] = rc, capsys.readouterr().out.replace(str(out), "OUT"), _files(out)
    assert runs["config"] == runs["flags"] != runs["plain"] == runs["plain again"]


@pytest.mark.parametrize("entry, quick", [("quick=true", True), ("quick=On", True), ("quick=false", False), ("quick=no", False)])
def test_config_switch(entry, quick, tmp_path, monkeypatch):
    # a switch is set by 1/true/yes/on in any case; --quick given wins over quick=false
    cfg = tmp_path / "run.cfg"
    cfg.write_text(entry + "\n")
    seen = []
    monkeypatch.setattr(cli, "run_all", lambda quick, seed: seen.append(quick) or [])
    assert cli.main(["verify", "--config", str(cfg)]) == 0
    assert cli.main(["verify", "--config", str(cfg), "--quick"]) == 0
    assert seen == [quick, True]


def test_config_list_and_value_flags_win(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("m=4\nR=-1 2\nsteps=20\n")
    out = tmp_path / "out"
    assert cli.main(["curves", "--config", str(cfg), "--m", "5", "--R", "1", "--out", str(out)]) == 0
    assert sorted(_files(out)) == ["exp_dist.svg", "exp_dist_R1.csv", "exp_sq.svg", "exp_sq_R1.csv", "explosions.csv"]
    assert "nu=5" in (out / "exp_sq.svg").read_text()


@pytest.mark.parametrize("name", ["a b", "k=v"])
def test_config_value_is_one_token(name, tmp_path):
    # everything after the first "=" of a line, spaces and "=" included, is one value
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"steps=20\nR=1\nout={tmp_path / name}\n")
    assert cli.main(["curves", "--config", str(cfg)]) == 0
    assert (tmp_path / name / "explosions.csv").is_file()


def test_config_missing_file_is_error(tmp_path, capsys):
    assert cli.main(["mc", "--config", str(tmp_path / "nope.cfg")]) == 2


PARSER_ARGVS = [
    [], ["--help"], ["bogus"], *[[cmd, "--help"] for cmd in ("verify", "curves", "mc", "localtime")],
    ["curves", "--bogus"], ["mc", "--partitions", "x"], ["verify", "--seed", "x"],
    ["curves", "--config", "{cfg}"], ["verify", "--config", "{cfg}"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=lambda a: " ".join(a) or "none")
def test_main_reads_as_with_the_full_parser(argv, tmp_path, capsys):
    # stdout, stderr and exit code of main on the call that builds the parser and on one that reuses it
    cfg = tmp_path / "run.cfg"
    cfg.write_text("steps=50\nbogus=1\n")  # a curves key, then a key of no subcommand
    argv = [str(cfg) if a == "{cfg}" else a for a in argv]

    def run():
        try:
            rc = cli.main(argv)
        except SystemExit as err:
            rc = err.code
        captured = capsys.readouterr()
        return rc, captured.out, captured.err

    cli._build_parser.cache_clear()
    got = run()
    assert run() == got
    assert got[0] in (0, 2)


def test_bad_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        cli.main(["mc", "--no-such-flag"])
    assert err.value.code == 2


def test_out_of_domain_bound_request_exits_two(tmp_path, capsys):
    # theta t = 2 is past the exp-square explosion: a report, not a
    # traceback, and nothing is written
    rc = cli.main(["mc", "--scenario", "flat", "--m", "1", "--theta", "2.0",
                   "--t", "1", "--n", "500", "--out", str(tmp_path)])
    assert rc == 2
    assert "domain" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_partitions_is_neither_an_mc_flag_nor_a_config_key(tmp_path, capsys):
    # endpoint draws are keyed by (n, seed) alone
    with pytest.raises(SystemExit) as err:
        cli.main(["mc", "--partitions", "2", "--n", "200"])
    assert err.value.code == 2
    cfg = tmp_path / "mc.cfg"
    cfg.write_text("partitions=2\n")
    assert cli.main(["mc", "--config", str(cfg), "--n", "200"]) == 2
    assert "unknown config key 'partitions'" in capsys.readouterr().err


def test_seed_env_var_used(tmp_path, monkeypatch):
    cli._build_parser()  # the variable is read when a command runs, not when the parser is built
    monkeypatch.setenv("TUBEBOUND_SEED", "777")
    rc = cli.main(["mc", "--scenario", "circle", "--t", "1", "--n", "500",
                   "--out", str(tmp_path)])
    assert rc == 0
    _, rows = _read_csv_rows(tmp_path / "mc_results.csv")
    assert rows[0][4] == "777"


# -------------------------------------------------------------------- verify

def test_verify_quick_all_pass(capsys):
    rc = cli.main(["verify", "--quick"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PASS") == 15
    assert "15/15 criteria passed" in out
    # the Monte Carlo means that readers parse as mc=<mean>±<stderr>, one per criterion, in fixed point
    figures = {line.split()[1].rstrip(":"): re.findall(r"\bmc=([-0-9.e]+)±([0-9.e]+)", line)
               for line in out.splitlines() if line.startswith("PASS")}
    assert {name for name, found in figures.items() if found} == {
        "h3-second-moment", "h3-exp-moment", "h3-off-pole", "circle-cut-locus-local-time", "feynman-kac-quadratic"}
    for found in figures.values():
        assert len(found) <= 1 and all(re.fullmatch(r"-?\d+\.\d+", x) for pair in found for x in pair)
