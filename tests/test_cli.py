"""Command-line interface tests, run in process through main()."""

import csv
import dataclasses
import math
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stvo
from stvo import cli, metrics, runner
from stvo.cli import (
    SCENARIOS,
    apply_overrides,
    base_config,
    derive_seed,
    load_config,
    main,
    read_problem_file,
)
from stvo.scenarios import experiment_params
from stvo.solvers import OracleError

from oracles import assert_bitwise_equal


def run_cli(*argv):
    return main(list(argv))


def read_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def read_csv(path):
    """Columns of a written CSV as lists of floats, keyed by header name."""
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        cols = {name: [] for name in header}
        for row in rdr:
            for name, v in zip(header, row):
                cols[name].append(float(v))
    return cols


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def test_derive_seed_is_stable_and_spread():
    assert derive_seed(7, 0) == derive_seed(7, 0)
    seeds = {derive_seed(7, k) for k in range(100)}
    assert len(seeds) == 100


def test_load_config_parses_values_and_comments(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("# comment\nm = 6\nsnr_db = 20.5\nexperiment = exp2  # tail\n")
    cfg = load_config(f)
    assert cfg == {"m": 6, "snr_db": 20.5, "experiment": "exp2"}
    f.write_text("novalue\n")
    with pytest.raises(ValueError):
        load_config(f)
    with pytest.raises(ValueError):
        load_config(tmp_path / "missing.cfg")


def test_apply_overrides_and_lambda_alias():
    cfg = base_config("exp1", {"m": 6, "lambda": 0.5})
    assert cfg.m == 6 and cfg.lam == 0.5
    with pytest.raises(ValueError):
        base_config("exp1", {"bogus": 1})
    with pytest.raises(ValueError):
        base_config("exp1", {"m": 30})  # breaks the compressed regime
    rss = base_config("rss", {"p0_dbm": -45, "d0_m": 1.5, "exponent": 2.5})
    assert (rss.p0_dbm, rss.d0_m, rss.exponent) == (-45, 1.5, 2.5)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def problem_file(tmp_path, text):
    f = tmp_path / "prob.txt"
    f.write_text(text)
    return str(f)


def test_solve_zero_linear_term(tmp_path, capsys):
    f = problem_file(tmp_path, "2\n1 0\n0 2\n0 0\n0.5\n")
    assert run_cli("solve", f) == 0
    out = capsys.readouterr().out
    x_line = [ln for ln in out.splitlines() if ln.startswith("x:")][0]
    vals = [float(v) for v in x_line[2:].split()]
    assert vals == [0.0, 0.0]


def test_solve_scalar_closed_form(tmp_path, capsys):
    # min q x^2 / 2 + p x + lam |x| with q=2, p=-3, lam=1 has x = 1
    f = problem_file(tmp_path, "1\n2\n-3\n1\n")
    assert run_cli("solve", f) == 0
    out = capsys.readouterr().out
    x_line = [ln for ln in out.splitlines() if ln.startswith("x:")][0]
    assert float(x_line[2:]) == pytest.approx(1.0, abs=1e-9)


def test_solve_malformed_file(tmp_path, capsys):
    f = problem_file(tmp_path, "2\n1 0\n0 1\n0\n")  # too few values
    assert run_cli("solve", f) == 1
    assert "error" in capsys.readouterr().err
    f = problem_file(tmp_path, "2\n1 5\n0 1\n0 0\n0.1\n")  # asymmetric Q
    assert run_cli("solve", f) == 1
    for text in ("1\n2\n-3\ninf\n", "0\n0.1\n", "-1\n0.1\n"):
        capsys.readouterr()
        assert run_cli("solve", problem_file(tmp_path, text)) == 1
        assert "error" in capsys.readouterr().err


def test_solve_reports_non_convergence(tmp_path, capsys):
    # fixed point away from the cold start, so increments stay geometric
    f = problem_file(tmp_path, "1\n4\n-3\n1\n")
    assert run_cli("solve", f, "--tol", "1e-300", "--max-iter", "3") == 2
    assert "no convergence" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_solve_refuses_an_iteration_cap_below_one(tmp_path, capsys, cap):
    f = problem_file(tmp_path, "1\n2\n-3\n1\n")
    assert run_cli("solve", f, "--max-iter", cap) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --max-iter must be at least 1\n"


@pytest.mark.parametrize("tol", ["nan", "inf", "-1", "-inf"])
def test_solve_refuses_a_tolerance_that_is_not_finite_and_non_negative(
        tmp_path, capsys, tol):
    f = problem_file(tmp_path, "1\n2\n-3\n1\n")
    assert run_cli("solve", f, f"--tol={tol}") == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --tol must be a finite non-negative number\n"


def test_solve_accepts_a_zero_tolerance(tmp_path, capsys):
    f = problem_file(tmp_path, "1\n2\n-3\n1\n")
    assert run_cli("solve", f, "--tol", "0", "--max-iter", "50") == 0
    assert capsys.readouterr().out.startswith("converged: true\n")


def test_problem_file_comments_and_errors(tmp_path):
    f = problem_file(tmp_path, "# header\n1\n2 # Q\n-3\n1\n")
    p = read_problem_file(f)
    assert p.n == 1 and p.lam == 1.0
    with pytest.raises(ValueError):
        read_problem_file(problem_file(tmp_path, ""))
    with pytest.raises(ValueError):
        read_problem_file(problem_file(tmp_path, "1\nx\n0\n0.1\n"))


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def write_cfg(tmp_path, text):
    f = tmp_path / "scenario.cfg"
    f.write_text(text)
    return str(f)


def test_run_is_byte_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, "horizon_s = 0.25\n")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run_cli("run", "--scenario", "exp2", "--alg", "odr",
                       "--runs", "2", "--r", "2", "--seed", "7",
                       "--config", cfg, "--out", str(out)) == 0
    assert read_bytes(out1) == read_bytes(out2)


def test_run_exp1_trace_and_params_layout(tmp_path):
    cfg = write_cfg(tmp_path, "horizon_s = 0.3\n")
    out = tmp_path / "exp1"
    assert run_cli("run", "--scenario", "exp1", "--alg", "odr", "--runs", "1",
                   "--r", "3", "--seed", "1", "--config", cfg,
                   "--out", str(out)) == 0
    trace = read_csv(out / "trace_odr_0.csv")
    n_blocks = 300 // 12
    # one row per block; row 0 is the cold start against the first block
    assert len(trace["t"]) == n_blocks
    assert trace["t"][0] == 0.0
    reg = read_csv(out / "regret_odr.csv")["reg"]
    assert all(b - a >= -1e-12 for a, b in zip(reg, reg[1:]))
    params = read_csv(out / "params_odr.csv")
    assert len(params["t_ms"]) == n_blocks
    assert set(params) == {"t_ms", "a1_true", "a1_est", "b1_true", "b1_est",
                           "mse"}
    summary = (out / "summary.csv").read_text().splitlines()
    assert summary[0].startswith("scenario,alg,runs,rounds,r,")
    assert summary[1].startswith("exp1,odr,1,")


def test_run_rss_distances_and_regret_off(tmp_path):
    cfg = write_cfg(tmp_path, "path_length_steps = 5\n")
    out = tmp_path / "rss"
    assert run_cli("run", "--scenario", "rss", "--alg", "odr", "--runs", "1",
                   "--r", "5", "--seed", "3", "--config", cfg,
                   "--out", str(out)) == 0
    dist = read_csv(out / "distance_odr.csv")
    assert set(dist) == {"t", "dist", "cum_dist"}
    assert len(dist["t"]) == 5
    np.testing.assert_allclose(np.cumsum(dist["dist"]), dist["cum_dist"])
    # regret defaults to off here: no oracle columns, no regret csv
    trace = read_csv(out / "trace_odr_0.csv")
    assert all(np.isnan(v) for v in trace["reg"])
    assert not (out / "regret_odr.csv").exists()


def test_run_all_algorithms_and_svg(tmp_path):
    cfg = write_cfg(tmp_path, "blocks = 12\nn = 10\nm = 6\n")
    out = tmp_path / "syn"
    assert run_cli("run", "--scenario", "synthetic", "--alg",
                   "oist,odr,odista", "--runs", "2", "--r", "2", "--seed",
                   "5", "--config", cfg, "--out", str(out), "--svg") == 0
    for alg in ("oist", "odr", "odista"):
        assert (out / f"trace_{alg}_1.csv").exists()
        assert (out / f"regret_{alg}.csv").exists()
    summary = (out / "summary.csv").read_text().splitlines()
    assert len(summary) == 4
    svg = (out / "regret.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg


def test_run_rejects_bad_usage(tmp_path, capsys):
    assert run_cli("run", "--scenario", "exp1", "--alg", "nope",
                   "--out", str(tmp_path / "x")) == 1
    assert "--alg must be distinct names of" in capsys.readouterr().err
    assert run_cli("run", "--scenario", "exp1", "--runs", "0",
                   "--out", str(tmp_path / "y")) == 1
    # argparse rejects unknown scenarios on its own
    assert run_cli("run", "--scenario", "exp9") == 1
    cfg = write_cfg(tmp_path, "lambda = inf\n")
    assert run_cli("run", "--scenario", "exp1", "--config", cfg,
                   "--out", str(tmp_path / "x")) == 1
    assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())
    # a 1 mm grid asks for a 144 x 6.25e8 dictionary: refused before any
    # array is built
    cfg = write_cfg(tmp_path, "cell_m = 1e-3\n")
    tracemalloc.start()
    try:
        assert run_cli("run", "--scenario", "rss", "--config", cfg,
                       "--out", str(tmp_path / "z")) == 1
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "dictionary" in capsys.readouterr().err
    assert peak < 2 ** 20


# Each run setting has one source: a value given in a second place is
# refused with exit 1 before any file is written.
@pytest.mark.parametrize("scenario, key, value", [
    ("exp1", "experiment", "exp2"), ("exp2", "seed", "5"),
    ("rss", "seed", "5"), ("exp1", "P_true", "1"), ("exp1", "Q_true", "1")])
def test_config_refuses_keys_set_elsewhere(tmp_path, capsys, scenario, key,
                                           value):
    cfg = write_cfg(tmp_path, f"{key} = {value}\n")
    out = tmp_path / "out"
    for command in ("run", "check"):
        argv = [command, "--scenario", scenario, "--config", cfg]
        if command == "run":
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 1
        assert f"unknown config key {key!r}" in capsys.readouterr().err
    assert not out.exists()


# The scenario alone names the ARX experiment: a config made for exp1 builds
# exp2's stream under the name exp2, bit for bit the one its own config does.
@pytest.mark.parametrize("seed", [0, 7])
def test_build_stream_builds_the_experiment_it_is_named(seed):
    stream = cli.build_stream("exp2", base_config("exp1", {}), seed)
    own = cli.build_stream("exp2", base_config("exp2", {}), seed)
    assert len(stream.blocks) == len(own.blocks)
    for block, ref in zip(stream.blocks, own.blocks):
        assert_bitwise_equal(block.A, ref.A)
        assert_bitwise_equal(block.y, ref.y)
    assert_bitwise_equal(stream.truth, own.truth)
    a1, b1 = np.array([experiment_params("exp2", max(t, 1))
                       for t in range(len(stream.truth))]).T
    assert_bitwise_equal(stream.truth[:, 0], a1)
    assert_bitwise_equal(stream.truth[:, stream.cfg.P_hat], b1)


# Runs `stvo` in a fresh interpreter whose import system refuses scipy and
# every scipy submodule, then fails unless no scipy module got loaded.
WITHOUT_SCIPY = """
import sys

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"no module named {name!r}")

sys.meta_path.insert(0, RefuseScipy())
from stvo.cli import main
code = main(sys.argv[1:])
loaded = [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]
sys.exit(f"scipy modules loaded: {loaded}" if loaded else code)
"""


@pytest.mark.parametrize("argv", [
    ["run", "--scenario", "exp2", "--alg", "odr,oist,odista", "--r", "5",
     "--regret", "on", "--runs", "1", "--out", "out"],
    ["check", "--scenario", "rss"],
], ids=["run_exp2", "check_rss"])
def test_stvo_runs_where_scipy_cannot_be_imported(tmp_path, argv):
    src = pathlib.Path(stvo.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", WITHOUT_SCIPY, *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    if argv[0] == "run":
        assert (tmp_path / "out" / "summary.csv").is_file()


# 10^(-snr_db/10) overflows a float below snr_db = -3082.5; the config
# refuses such a value before a builder raises OverflowError.
@pytest.mark.parametrize("scenario", ["exp1", "exp2", "rss", "synthetic"])
def test_config_refuses_an_snr_whose_noise_ratio_overflows(tmp_path, capsys,
                                                          scenario):
    cfg = write_cfg(tmp_path, "snr_db = -7000\n")
    out = tmp_path / "out"
    for command in ("run", "check"):
        argv = [command, "--scenario", scenario, "--config", cfg]
        if command == "run":
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "snr_db" in err[0]
    assert not out.exists()


# round_ms is the rss round window the benchmark harness reads; a config
# file admits only finite numbers, and the config refuses the rest.
@pytest.mark.parametrize("round_ms", ["0", "-5"])
def test_rss_config_refuses_a_round_window_that_is_not_positive(
        tmp_path, capsys, round_ms):
    cfg = write_cfg(tmp_path, f"round_ms = {round_ms}\n")
    out = tmp_path / "out"
    for command in ("run", "check"):
        argv = [command, "--scenario", "rss", "--config", cfg]
        if command == "run":
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad config value: round_ms={round_ms} "
                       "is not finite and positive"]
    assert not out.exists()


# A walk of no steps, a reference distance that is not positive and a
# negative radio range are refused on one line that names the key, before
# any stream is built.
@pytest.mark.parametrize("key,value,what", [
    ("path_length_steps", "0", "below 1"),
    ("path_length_steps", "-3", "below 1"),
    ("d0_m", "0", "not positive"), ("d0_m", "-1", "not positive"),
    ("comm_radius_m", "-1", "negative")])
def test_rss_config_refuses_values_it_cannot_play(tmp_path, capsys,
                                                  monkeypatch, key, value,
                                                  what):
    refuse_streams(monkeypatch)
    cfg = write_cfg(tmp_path, f"{key} = {value}\n")
    out = tmp_path / "out"
    for command in ("run", "check"):
        argv = [command, "--scenario", "rss", "--config", cfg]
        if command == "run":
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: bad config value: {key}={value} is {what}"]
    assert not out.exists()


def no_stream(*args, **kwargs):
    raise AssertionError("a stream was built")


def refuse_streams(monkeypatch):
    """Make building a stream fail, for `stvo run` and `stvo check` alike."""
    for module in (runner, cli):
        monkeypatch.setattr(module, "build_stream", no_stream)


@pytest.mark.parametrize("budget", ["inf", "nan", "0", "-1"])
def test_run_refuses_a_budget_that_is_not_finite_and_positive(
        tmp_path, capsys, monkeypatch, budget):
    monkeypatch.setattr(runner, "build_stream", no_stream)
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "exp1", "--t-r", budget,
                   "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert err == "error: --t-r must be a finite positive number\n"
    assert not out.exists()


def test_run_refuses_an_empty_out(tmp_path, capsys, monkeypatch):
    refuse_streams(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert run_cli("run", "--scenario", "exp1", "--alg", "odr", "--r", "2",
                   "--regret", "off", "--out", "") == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --out must name a directory, got ''"]
    assert not any(tmp_path.iterdir())


# run_experiment, called as a library, refuses what the command line refuses
# before it gets there, each argument by its own name.
RUN_ARGS = dict(scenario="exp1", algs=["odr"], runs=1, r=2, budget_ms=None,
                seed=0, regret=False, n_nodes=4, tau_rule="per_node",
                common_random=True)


@pytest.mark.parametrize("name,changes", [
    ("algs", {"algs": ["foo"]}),
    ("algs", {"algs": []}),
    ("algs", {"algs": ["odr", "odr"]}),
    ("scenario", {"scenario": "rss"}),
    ("scenario", {"scenario": "foo"}),
    ("runs", {"runs": 0}),
    ("seed", {"seed": -1}),
    ("r", {"algs": ["odr", "odista"], "r": 1}),
    ("r", {"r": 0}),
    ("budget_ms", {"budget_ms": math.inf}),
    ("tau_rule", {"algs": ["odr", "odista"], "tau_rule": "bogus"}),
    ("n_nodes", {"algs": ["odr", "odista"], "n_nodes": 2}),
    ("n_nodes", {"algs": ["odr", "odista"], "n_nodes": 0}),
    ("n_nodes", {"algs": ["odr", "odista"], "n_nodes": 13}),
], ids=["unknown_alg", "no_alg", "repeated_alg", "rss_of_exp1",
        "unknown_scenario", "no_runs", "negative_seed",
        "odista_r1", "r0", "infinite_budget", "unknown_tau_rule",
        "ring_of_2", "ring_of_0", "more_nodes_than_rows"])
def test_run_experiment_refuses_an_argument_it_cannot_play(monkeypatch, name,
                                                           changes):
    monkeypatch.setattr(runner, "build_stream", no_stream)
    args = {**RUN_ARGS, "cfg": base_config("exp1", {}), **changes}
    with pytest.raises(ValueError, match=rf"^{name} "):
        runner.run_experiment(**args)


# Each argument rule is written once, in the library function that reads the
# argument: the command line prints that refusal with the flag in place of
# the argument's name, exits 1 and writes nothing.
@pytest.mark.parametrize("argv,changes", [
    (["run", "--runs", "0"], {"runs": 0}),
    (["run", "--r", "0"], {"r": 0}),
    (["run", "--alg", "odr,odista", "--r", "1"],
     {"algs": ["odr", "odista"], "r": 1}),
    (["run", "--alg", "nope"], {"algs": ["nope"]}),
    (["run", "--t-r", "inf"], {"budget_ms": math.inf}),
    (["run", "--alg", "odr,odista", "--r", "2", "--nodes", "13"],
     {"algs": ["odr", "odista"], "n_nodes": 13}),
    (["check", "--nodes", "2"], {"algs": ["odista"], "n_nodes": 2}),
    (["run", "--seed", "-1"], {"seed": -1}),
    (["check", "--seed", "-1"], {"seed": -1}),
    (["solve", "--max-iter", "0"], {"max_iter": 0}),
    (["solve", "--tol=nan"], {"tol": math.nan}),
], ids=["runs", "r", "odista_r1", "alg", "t_r", "nodes_run", "nodes_check",
        "seed_run", "seed_check", "max_iter", "tol"])
def test_the_command_line_names_the_flag_of_each_library_refusal(
        tmp_path, capsys, monkeypatch, argv, changes):
    refuse_streams(monkeypatch)
    command, *flags = argv
    out = tmp_path / "out"
    f = problem_file(tmp_path, "1\n2\n-3\n1\n")
    with pytest.raises(ValueError) as refused:
        if command == "solve":
            stvo.batch_dr(read_problem_file(f), **changes)
        else:
            runner.run_experiment(
                **{**RUN_ARGS, "cfg": base_config("exp1", {}), **changes})
    name, rest = str(refused.value).split(" ", 1)
    if command == "solve":
        argv = [command, f, *flags]
    else:
        argv = [command, "--scenario", "exp1", *flags]
        argv += ["--out", str(out)] if command == "run" else []
    assert run_cli(*argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {cli.FLAGS[name]} {rest}\n"
    assert captured.out == ""
    assert not out.exists()


# An --out that names a file, or a path under one, is refused before any
# stream is built, not after the whole run has played.
@pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
def test_run_refuses_an_out_that_cannot_be_a_directory(tmp_path, capsys,
                                                       monkeypatch, under):
    refuse_streams(monkeypatch)
    blocker = tmp_path / "F"
    blocker.write_text("kept\n")
    out = blocker / "sub" if under else blocker
    assert run_cli("run", "--scenario", "exp1", "--alg", "odr", "--r", "2",
                   "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: --out {out}: {blocker} is not a directory"]
    assert blocker.read_text() == "kept\n"


def test_run_maps_a_write_failure_to_one_error_line(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "summary.csv").mkdir(parents=True)
    cfg = write_cfg(tmp_path, "horizon_s = 0.1\n")
    assert run_cli("run", "--scenario", "exp2", "--alg", "odr", "--r", "2",
                   "--regret", "off", "--config", cfg, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: cannot write {out}: ")
    assert [p.name for p in out.iterdir()] == ["summary.csv"]


# A key set twice is refused, lam and lambda counting as one key, naming
# both lines; the last value used to win silently.
@pytest.mark.parametrize("text, key", [
    ("lam = 1e-2\nlambda = 5\n", "lambda"),
    ("lambda = 1e-2\n# note\nlam = 5\n", "lam"),
    ("mu = 1e-6\nm = 12\nmu = 1e-3\n", "mu")])
def test_config_refuses_a_key_set_twice(tmp_path, capsys, monkeypatch, text,
                                        key):
    refuse_streams(monkeypatch)
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "out"
    first, again = (ln for ln, line in enumerate(text.splitlines(), start=1)
                    if line.startswith(("lam", "mu")))
    for command in ("run", "check"):
        argv = [command, "--scenario", "exp1", "--config", cfg]
        if command == "run":
            argv += ["--out", str(out)]
        assert run_cli(*argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {cfg}:{again}: {key!r} repeats the key set "
                       f"on line {first}"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "check"])
def test_a_negative_seed_is_refused_naming_the_flag(tmp_path, capsys,
                                                    monkeypatch, command):
    refuse_streams(monkeypatch)
    argv = [command, "--scenario", "exp1", "--seed", "-1"]
    if command == "run":
        argv += ["--out", str(tmp_path / "out")]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: --seed must be a non-negative integer"]
    assert not (tmp_path / "out").exists()


def test_r_and_t_r_exclude_each_other(tmp_path, capsys):
    out = tmp_path / "out"
    # --r 1 is the default value, and is refused alongside --t-r all the same
    for r in ("400", "1"):
        assert run_cli("run", "--scenario", "exp1", "--r", r, "--t-r", "12",
                       "--out", str(out)) == 1
        assert "--t-r: not allowed with argument --r" in capsys.readouterr().err
    assert not out.exists()


def test_nodes_is_refused_on_rss(tmp_path, capsys):
    out = tmp_path / "out"
    for argv in (["run", "--out", str(out)], ["check"]):
        assert run_cli(*argv, "--scenario", "rss", "--nodes", "9") == 1
        assert "--nodes does not apply to rss" in capsys.readouterr().err
    assert not out.exists()


def test_nodes_the_ring_cannot_use_are_refused(tmp_path, capsys):
    # the ring needs three nodes, and exp1's 12-row blocks feed at most 12;
    # a node count is refused even where odista does not play
    for alg, nodes, err in (("odista", "2", "degree 3 infeasible on 2 nodes"),
                            ("odr,odista", "13",
                             "block of 12 rows cannot feed 13 nodes"),
                            ("odr", "0", "degree 3 infeasible on 0 nodes")):
        out = tmp_path / f"out_{nodes}"
        for argv in (["run", "--alg", alg, "--r", "2", "--out", str(out)],
                     ["check"]):
            assert run_cli(*argv, "--scenario", "exp1", "--nodes", nodes) == 1
            assert (f"error: --nodes {nodes}: {err}"
                    in capsys.readouterr().err)
        assert not out.exists()


def test_run_refuses_a_node_of_zero_rows_and_leaves_no_directory(tmp_path,
                                                                 capsys):
    # twelve nodes on exp1's 12-row blocks deal node 0 row 0 of the first
    # block alone, which reads only the zero warm-up, so its step is not
    # finite: the run exits 1 on one error line, before dividing by zero
    # and before it makes the output directory
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("run", "--scenario", "exp1", "--alg", "odista",
                       "--nodes", "12", "--r", "3", "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: slice 0: node 0 holds only zero rows")
    assert not out.exists()


def test_run_refuses_the_default_ring_when_odista_cannot_use_it(tmp_path,
                                                                capsys):
    # three rows a block cannot feed the default four nodes; odr needs none
    cfg = write_cfg(tmp_path, "blocks = 4\nm = 3\n")
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "synthetic", "--alg", "odista",
                   "--config", cfg, "--out", str(out)) == 1
    assert ("error: --nodes 4: block of 3 rows cannot feed 4 nodes"
            in capsys.readouterr().err)
    assert not out.exists()
    assert run_cli("run", "--scenario", "synthetic", "--alg", "odr",
                   "--config", cfg, "--out", str(out)) == 0


@pytest.mark.parametrize("r_args", [(), ("--r", "1")],
                         ids=["default", "explicit"])
def test_run_refuses_odista_at_one_half_step(tmp_path, capsys, r_args):
    # odista counts r in half-steps; a round of one is a communication
    # alone, which leaves X as it is, so every action would be the cold start
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "exp1", "--alg", "odr,odista",
                   *r_args, "--out", str(out)) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: --r must be 2 or more with odista, got 1")
    assert "half-step" in err[0]
    assert not out.exists()


def test_time_budget_grants_odista_whole_pairs(tmp_path, capsys):
    # a budget too small for one pair still grants one whole pair, r = 2
    cfg = write_cfg(tmp_path, "blocks = 4\nn = 8\nm = 5\n")
    out = tmp_path / "tr"
    assert run_cli("run", "--scenario", "synthetic", "--alg", "odista",
                   "--t-r", "0.0001", "--config", cfg, "--out", str(out)) == 0
    assert "calibrated r = 2 for odista" in capsys.readouterr().err
    with open(out / "summary.csv", newline="") as fh:
        assert [row["r"] for row in csv.DictReader(fh)] == ["2"]


def test_run_plays_odista_on_a_ring_of_three(tmp_path):
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "synthetic", "--alg", "odista",
                   "--config", write_cfg(tmp_path, "blocks = 6\n"),
                   "--nodes", "3", "--r", "2", "--out", str(out)) == 0
    assert len(read_csv(out / "trace_odista_0.csv")["t"]) == 6


def test_run_common_random_toggle(tmp_path):
    cfg = write_cfg(tmp_path, "blocks = 8\nn = 8\nm = 5\n")
    out_on = tmp_path / "on"
    out_off = tmp_path / "off"
    assert run_cli("run", "--scenario", "synthetic", "--alg", "oist,odr",
                   "--runs", "1", "--seed", "2", "--config", cfg,
                   "--common-random", "on", "--out", str(out_on)) == 0
    assert run_cli("run", "--scenario", "synthetic", "--alg", "oist,odr",
                   "--runs", "1", "--seed", "2", "--config", cfg,
                   "--common-random", "off", "--out", str(out_off)) == 0
    on = read_csv(out_on / "trace_odr_0.csv")
    off = read_csv(out_off / "trace_odr_0.csv")
    # both algorithms see run 0's stream when sharing; oracle losses differ
    # once each algorithm draws its own stream
    on_oist = read_csv(out_on / "trace_oist_0.csv")
    off_oist = read_csv(out_off / "trace_oist_0.csv")
    assert on["oracle_loss"] == on_oist["oracle_loss"]
    assert off["oracle_loss"] != off_oist["oracle_loss"]


def test_each_trace_scores_its_regret_once(tmp_path, monkeypatch):
    scored = []
    dynamic_regret = metrics.dynamic_regret

    def counted(trace):
        scored.append(trace)
        return dynamic_regret(trace)

    monkeypatch.setattr(metrics, "dynamic_regret", counted)
    cfg = write_cfg(tmp_path, "blocks = 8\nn = 8\nm = 5\n")
    assert run_cli("run", "--scenario", "synthetic", "--alg", "odr,odista",
                   "--runs", "2", "--regret", "on", "--r", "2",
                   "--config", cfg, "--out", str(tmp_path / "out")) == 0
    assert len(scored) == 4
    assert len({id(trace) for trace in scored}) == 4


def test_time_budget_calibration_logs_r(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "blocks = 6\nn = 8\nm = 5\n")
    out = tmp_path / "tr"
    assert run_cli("run", "--scenario", "synthetic", "--alg", "odr",
                   "--runs", "1", "--t-r", "5", "--seed", "2",
                   "--config", cfg, "--out", str(out)) == 0
    err = capsys.readouterr().err
    assert "calibrated r =" in err
    summary = (out / "summary.csv").read_text().splitlines()[1]
    r_logged = int(summary.split(",")[4])
    assert r_logged >= 1


def test_time_budget_calibrates_oist(tmp_path, capsys):
    # oist's default step 2/||A||^2 breaks its descent premise, so both the
    # timed round and the played rounds warn
    cfg = write_cfg(tmp_path, "blocks = 4\nn = 8\nm = 5\n")
    out = tmp_path / "tr"
    with pytest.warns(RuntimeWarning, match="descent precondition"):
        assert run_cli("run", "--scenario", "synthetic", "--alg", "oist",
                       "--t-r", "1", "--config", cfg, "--out", str(out)) == 0
    err = capsys.readouterr().err
    r_logged = int((out / "summary.csv").read_text().splitlines()[1]
                   .split(",")[4])
    assert f"calibrated r = {r_logged} for oist (1.0 ms budget)" in err


def test_run_rss_draws_the_distance_charts(tmp_path):
    cfg = write_cfg(tmp_path, "path_length_steps = 3\n")
    out = tmp_path / "rss"
    assert run_cli("run", "--scenario", "rss", "--alg", "odr,odista",
                   "--r", "2", "--config", cfg, "--svg",
                   "--out", str(out)) == 0
    for alg in ("odr", "odista"):
        svg = (out / f"distance_{alg}.svg").read_text()
        assert svg.startswith("<svg") and "polyline" in svg
        assert "target distance" in svg
    # regret is off by default on rss, so there is no regret chart
    assert not (out / "regret.svg").exists()


# A numerical routine that fails to deliver exits 2 on one line and writes
# nothing, whichever of the two failure types it raises.
@pytest.mark.parametrize("error", [
    OracleError("reference solve did not converge"),
    np.linalg.LinAlgError("Singular matrix")], ids=["oracle", "linalg"])
def test_numerical_failure_exits_2_and_writes_nothing(tmp_path, capsys,
                                                      monkeypatch, error):
    def failing(*args, **kwargs):
        raise error

    monkeypatch.setattr(runner, "oracle_minimizer", failing)
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "synthetic", "--alg", "odr",
                   "--regret", "on", "--config",
                   write_cfg(tmp_path, "blocks = 4\n"),
                   "--out", str(out)) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"numerical failure: {error}"]
    assert not out.exists()


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_synthetic(capsys):
    assert run_cli("check", "--scenario", "synthetic") == 0
    out = capsys.readouterr().out
    assert "ok: measurements finite" in out
    assert "fail" not in out


def test_check_rss(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "path_length_steps = 3\n")
    assert run_cli("check", "--scenario", "rss", "--config", cfg) == 0
    out = capsys.readouterr().out
    assert "walk of 4 positions" in out
    assert "sensor graph" in out


def test_check_names_the_operator_form(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "path_length_steps = 3\n")
    assert run_cli("check", "--scenario", "rss", "--config", cfg) == 0
    out = capsys.readouterr().out
    assert ("ok: first slice operator factored as A'A + mu I "
            "(m=144, n=625, 2m < n); positive definite because "
            "mu=1.000e-02 > 0") in out
    # 36 sensors with 4 of the 144 rows each
    assert "ok: 36 of 36 node operators factored, k_max=4 of n=625" in out
    assert ("ok: graph degrees 3-5, not regular; guarantee 9 assumes a "
            "regular graph") in out
    assert run_cli("check", "--scenario", "synthetic") == 0
    out = capsys.readouterr().out
    assert "ok: first slice operator dense (m=12, n=20, 2m >= n)" in out
    assert "first slice operator factored" not in out
    assert "ok: graph degrees 3-3, regular" in out
    assert "ok: 4 of 4 node operators factored, k_max=3 of n=20" in out
    # 12 rows on 5 nodes: slabs of 3, 3, 2, 2 and 2 rows, and only a slab
    # of k < n / 2 rows is factored
    assert run_cli("check", "--scenario", "synthetic", "--config",
                   write_cfg(tmp_path, "n = 6\n"), "--nodes", "5") == 0
    out = capsys.readouterr().out
    assert "ok: 3 of 5 node operators factored, k_max=3 of n=6" in out


def test_check_builds_the_stream_of_run_zero(tmp_path, monkeypatch):
    built = []
    build = runner.build_stream

    def recording(*args):
        built.append((args, build(*args)))
        return built[-1][1]

    monkeypatch.setattr(cli, "build_stream", recording)
    monkeypatch.setattr(runner, "build_stream", recording)
    cfg = write_cfg(tmp_path, "horizon_s = 0.06\n")
    assert run_cli("check", "--scenario", "exp2", "--seed", "3",
                   "--config", cfg) == 0
    assert run_cli("run", "--scenario", "exp2", "--seed", "3", "--runs", "2",
                   "--regret", "off", "--config", cfg,
                   "--out", str(tmp_path / "out")) == 0
    checked, run_0 = built[0][1].blocks[0], built[1][1].blocks[0]
    np.testing.assert_array_equal(checked.A, run_0.A)
    np.testing.assert_array_equal(checked.y, run_0.y)
    assert built[0][0][2] == derive_seed(3, 0)


@pytest.mark.parametrize("common_random", ["on", "off"])
def test_runs_are_played_one_live_stream_at_a_time(tmp_path, monkeypatch,
                                                   common_random):
    built, scored = [], []
    build, oracles = runner.build_stream, runner.stream_oracles

    def recording_build(scenario, cfg, seed):
        # every stream built before this one is gone by now
        assert all(ref() is None for _, ref in built)
        stream = build(scenario, cfg, seed)
        built.append((seed, weakref.ref(stream)))
        return stream

    def recording_oracles(problems):
        seed, ref = built[-1]
        assert problems is ref().problems
        scored.append(seed)
        return oracles(problems)

    monkeypatch.setattr(runner, "build_stream", recording_build)
    monkeypatch.setattr(runner, "stream_oracles", recording_oracles)
    assert run_cli("run", "--scenario", "exp2", "--alg", "odr,odista",
                   "--runs", "3", "--r", "2", "--regret", "on",
                   "--common-random", common_random, "--config",
                   write_cfg(tmp_path, "horizon_s = 0.06\n"),
                   "--out", str(tmp_path / "out")) == 0
    keys = ([(run,) for run in range(3)] if common_random == "on" else
            [(ai, run) for run in range(3) for ai in range(2)])
    seeds = [derive_seed(0, *key) for key in keys]
    # one build and one oracle solve per key, run by run
    assert [seed for seed, _ in built] == seeds
    assert scored == seeds


def test_check_refuses_the_node_count_the_run_refuses(tmp_path, capsys):
    # the run's own zero-row premise: twelve nodes deal node 0 of exp1's
    # first block its zero warm-up row alone
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli("check", "--scenario", "exp1", "--nodes", "12") == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: slice 0: node 0 holds only zero rows")
    assert run_cli("run", "--scenario", "exp1", "--alg", "odista", "--nodes",
                   "12", "--r", "2", "--out", str(tmp_path / "out")) == 1
    assert capsys.readouterr().err.splitlines() == err


@pytest.mark.parametrize("rule", ["per_node", "uniform_min"])
def test_check_refuses_exactly_what_the_run_refuses_under_its_step_rule(
        tmp_path, capsys, rule):
    # twelve nodes deal node 0 its zero warm-up row alone, which has a step
    # only when uniform_min gives it the network's smallest one; thirteen
    # nodes outnumber the rows, and two make no ring of degree 3
    refused = {"2": 1, "3": 0, "5": 0, "12": int(rule == "per_node"), "13": 1}
    cfg = write_cfg(tmp_path, "horizon_s = 0.06\n")
    for nodes, code in refused.items():
        assert run_cli("check", "--scenario", "exp1", "--nodes", nodes,
                       "--tau-rule", rule, "--config", cfg) == code
        err = capsys.readouterr().err
        assert run_cli("run", "--scenario", "exp1", "--alg", "odista",
                       "--r", "2", "--nodes", nodes, "--tau-rule", rule,
                       "--config", cfg,
                       "--out", str(tmp_path / f"out_{nodes}")) == code
        assert capsys.readouterr().err == err


def test_check_notes_a_default_ring_the_run_would_refuse(tmp_path, capsys):
    # blocks of 4 rows deal each default node one row; node 0's is zero.
    # Only the distributed solver needs the nodes, so the check passes
    cfg = write_cfg(tmp_path, "m = 4\nhorizon_s = 0.06\n")
    assert run_cli("check", "--scenario", "exp1", "--config", cfg) == 0
    out = capsys.readouterr().out
    assert ("note: slice 0: node 0 holds only zero rows, so its step "
            "1/||A_v||^2 is not finite; use fewer nodes") in out
    assert "ok: measurements finite" in out
    assert run_cli("run", "--scenario", "exp1", "--alg", "odista", "--r", "2",
                   "--config", cfg, "--out", str(tmp_path / "out")) == 1
    assert "node 0 holds only zero rows" in capsys.readouterr().err


@pytest.mark.parametrize("rule", ["per_node", "uniform_min"])
def test_check_reports_the_odista_descent_factor_of_every_slice(
        tmp_path, capsys, rule):
    # every shipped scenario's odista descent contracts under either rule
    for scenario in SCENARIOS:
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert run_cli("check", "--scenario", scenario,
                           "--tau-rule", rule) == 0
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if "descent factor" in ln]
        assert line.startswith("ok: odista descent factor theta=")
        assert line.endswith(f"under {rule} steps")
    # a ridge of 1e-17 rounds theta to one, while every tau_v mu/|V| < 1, so
    # odista plays there: the check notes theta and passes
    for scenario, text, slices in (("rss", "mu = 1e-17\n" + SHORT_RSS, 6),
                                   ("exp1", "mu = 1e-17\n" + SHORT_EXP1, 5)):
        cfg = write_cfg(tmp_path, text)
        assert run_cli("check", "--scenario", scenario, "--config", cfg,
                       "--tau-rule", rule) == 0
        line, = [ln for ln in capsys.readouterr().out.splitlines()
                 if "descent factor" in ln]
        assert line == (f"note: odista descent factor theta=1.0 over {slices} "
                        f"slices under {rule} steps rounds to one; odista "
                        f"plays, since every tau_v*mu/|V| < 1")
    # a ridge of 25 per node outweighs the rows: per-node steps 1/||A_v||^2
    # overshoot 2/lambda_max(Q_v), the smallest common step does not.  The
    # reported theta is the largest (1 - tau_v lambda)^2 over every slice,
    # node and eigenvalue of the dense Q_v
    cfg = write_cfg(tmp_path, "mu = 100\nhorizon_s = 0.06\n")
    stream = cli.build_stream("exp1", base_config("exp1", load_config(cfg)),
                              derive_seed(0, 0))
    theta = 0.0
    for block in stream.blocks:
        rows = np.array_split(block.A, 4)
        norms = np.array([np.linalg.norm(A_v, 2) ** 2 for A_v in rows])
        if rule == "uniform_min":
            norms[:] = norms.max()
        for A_v, norm in zip(rows, norms):
            eigs = np.linalg.eigvalsh(A_v.T @ A_v + 25.0 * np.eye(20))
            theta = max(theta, float(np.max((1.0 - eigs / norm) ** 2)))
    code = run_cli("check", "--scenario", "exp1", "--config", cfg,
                   "--tau-rule", rule)
    out = capsys.readouterr().out
    reported = float(out.split("theta=")[1].split()[0])
    assert abs(reported - theta) <= 1e-12 * theta
    if rule == "per_node":
        assert theta > 1.0 and code == 2
        assert ("fail: odista would diverge under per_node steps: a node's "
                "step tau_v times its ridge mu/|V| is not below one, so "
                f"neither is the descent factor theta={reported!r}") in out
    else:
        assert theta < 1.0 and code == 0


# A ridge of 25 per node makes exp1's per-node steps overshoot, so odista
# would diverge; `stvo run` refuses it with exit 2, as `stvo check` does,
# before it makes the output directory.  The smallest common step descends.
@pytest.mark.parametrize("rule,code", [("per_node", 2), ("uniform_min", 0)])
def test_run_refuses_odista_where_its_descent_factor_is_not_below_one(
        tmp_path, capsys, rule, code):
    cfg = write_cfg(tmp_path, "mu = 100\nhorizon_s = 0.06\n")
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "exp1", "--alg", "odista", "--r",
                   "20", "--regret", "off", "--tau-rule", rule, "--config",
                   cfg, "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        line, = err
        head, theta = line.split("theta=")
        assert head == (
            "numerical failure: odista would diverge under per_node steps: "
            "a node's step tau_v times its ridge mu/|V| is not below one, so "
            "neither is the descent factor ")
        assert float(theta) > 1.0
    assert out.exists() == (not code)


# At a ridge of 100 oist's step overshoots, and its rounds grow until they
# overflow: the run refuses the play with exit 2 on one line naming the
# algorithm, the run and the first round, before it makes the output
# directory.  odr plays the same stream.
@pytest.mark.parametrize("alg,code", [("oist", 2), ("odr", 0)])
def test_run_refuses_a_play_whose_actions_are_not_finite(tmp_path, capsys,
                                                         alg, code):
    cfg = write_cfg(tmp_path, "mu = 100\nhorizon_s = 0.06\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        # oist's step and its overflow warn before the refusal
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_cli("run", "--scenario", "exp1", "--alg", alg, "--r",
                       "400", "--regret", "on", "--config", cfg,
                       "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert len(err) == 1
        assert re.fullmatch(r"numerical failure: oist diverged in run 0: its "
                            r"action at round \d+ is not finite", err[0])
    assert out.exists() == (not code)


# At m = 1 exp1's first block is its zero warm-up row, which has no oist
# step 2/||A||^2: the run refuses oist with exit 1 on one line, before it
# makes the output directory, and the check notes it.
def test_run_refuses_oist_on_a_slice_whose_A_is_zero(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "m = 1\nhorizon_s = 0.06\n")
    out = tmp_path / "out"
    assert run_cli("run", "--scenario", "exp1", "--alg", "oist", "--r", "2",
                   "--config", cfg, "--out", str(out)) == 1
    line = "a slice whose A is zero has no finite step 2/||A_t||^2"
    assert capsys.readouterr().err.splitlines() == [f"error: {line}"]
    assert not out.exists()
    assert run_cli("check", "--scenario", "exp1", "--config", cfg) == 0
    assert (f"note: {line}, so oist cannot play"
            in capsys.readouterr().out.splitlines())


# An rss radio range of 0 isolates every sensor, so odista's nodes cannot
# reach consensus: the run refuses odista with exit 2, under a fixed r and a
# time budget alike, before it makes the output directory.  odr builds no
# graph and plays the same stream.
@pytest.mark.parametrize("alg,r_args,code", [
    ("odista", ("--r", "30"), 2), ("odista", ("--t-r", "12"), 2),
    ("odr", ("--r", "30"), 0)], ids=["odista-r", "odista-t-r", "odr"])
def test_run_refuses_odista_on_a_disconnected_sensor_graph(tmp_path, capsys,
                                                           alg, r_args, code):
    cfg = write_cfg(tmp_path, "comm_radius_m = 0\npath_length_steps = 5\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        # radius_graph warns about the graph before the refusal
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_cli("run", "--scenario", "rss", "--alg", alg, *r_args,
                       "--config", cfg, "--out", str(out)) == code
    err = capsys.readouterr().err.splitlines()
    if code:
        assert err == ["numerical failure: odista cannot reach consensus: "
                       "the graph of 36 nodes is disconnected"]
    assert out.exists() == (not code)


# The check fails the graph the run refuses, on the run's refusal, and
# passes the default one.  The case ids name the graph each case builds.
@pytest.mark.parametrize("radius,code,line", [
    ("0", 2, "fail: odista cannot reach consensus: the graph of 36 nodes is "
             "disconnected"),
    ("4.5", 0, "ok: sensor graph with 36 nodes is connected")],
    ids=["0-2-fail: sensor graph with 36 nodes is disconnected",
         "4.5-0-ok: sensor graph with 36 nodes is connected"])
def test_check_fails_a_disconnected_sensor_graph(tmp_path, capsys, radius,
                                                 code, line):
    cfg = write_cfg(tmp_path,
                    f"comm_radius_m = {radius}\npath_length_steps = 5\n")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        assert run_cli("check", "--scenario", "rss", "--config", cfg) == code
    out = capsys.readouterr().out.splitlines()
    assert line in out
    # a failing check stops at its fail line
    assert (out[-1] == line) == bool(code)


# Over a sweep of the ridge, the run refuses odista exactly where the check
# fails, which is exactly where the theta it reports is not below one.
@pytest.mark.parametrize("scenario,nodes", [
    ("exp1", "4"), ("exp1", "5"), ("synthetic", "4"), ("synthetic", "5")])
def test_run_refuses_odista_exactly_where_check_finds_theta_not_below_one(
        tmp_path, capsys, scenario, nodes):
    short = "horizon_s = 0.06\n" if scenario == "exp1" else "blocks = 5\n"
    refusals = []
    for mu in ("1e-6", "1", "10", "30", "100", "1000"):
        cfg = write_cfg(tmp_path, f"mu = {mu}\n{short}")
        for rule in ("per_node", "uniform_min"):
            args = ("--scenario", scenario, "--nodes", nodes, "--config", cfg,
                    "--tau-rule", rule)
            failed = run_cli("check", *args) == 2
            report = capsys.readouterr().out
            theta = float(report.split("theta=")[1].split()[0])
            out = tmp_path / f"out_{mu}_{rule}"
            code = run_cli("run", *args, "--alg", "odista", "--r", "2",
                           "--regret", "off", "--out", str(out))
            capsys.readouterr()
            assert (code == 2) == failed == (theta >= 1.0)
            assert out.exists() == (code == 0)
            refusals.append(code == 2)
    assert any(refusals) and not all(refusals)


# `stvo check` exits 2 exactly where `stvo run` refuses odista before play,
# and fails nothing that every solver plays.  A first slice whose delta
# rounds to 1.0 (a ridge of 1e-17 on rss, or beta = 1.25e301 at snr_db =
# -3000) or whose smallest eigenvalue rounds below zero (exp1 at a ridge of
# 1e-17) gates no play, only odr's regret bound: the check notes it.
SHORT_EXP1, SHORT_RSS = "horizon_s = 0.06\n", "path_length_steps = 5\n"


@pytest.mark.parametrize("scenario,text,flags", [
    *((scenario, "", ()) for scenario in SCENARIOS),
    ("rss", "comm_radius_m = 0\n" + SHORT_RSS, ()),
    ("exp1", "mu = 100\n" + SHORT_EXP1, ("--tau-rule", "per_node")),
    ("exp1", "mu = 100\n" + SHORT_EXP1, ("--tau-rule", "uniform_min")),
    ("rss", "mu = 1e-17\n" + SHORT_RSS, ()),
    ("exp1", "snr_db = -3000\n" + SHORT_EXP1, ()),
    ("exp1", "mu = 1e-17\n" + SHORT_EXP1, ()),
    ("exp1", "", ("--nodes", "12", "--tau-rule", "per_node")),
    ("exp1", "", ("--nodes", "12", "--tau-rule", "uniform_min"))],
    ids=[*(f"{scenario}-default" for scenario in SCENARIOS),
         "rss-disconnected", "exp1-mu100-per_node", "exp1-mu100-uniform_min",
         "rss-mu1e-17", "exp1-snr-3000", "exp1-mu1e-17",
         "exp1-nodes12-per_node", "exp1-nodes12-uniform_min"])
def test_check_fails_exactly_where_run_refuses(tmp_path, capsys, scenario,
                                               text, flags):
    args = ["--scenario", scenario, *flags]
    if text:
        args += ["--config", write_cfg(tmp_path, text)]
    runs, errs = {}, {}
    with warnings.catch_warnings():
        # oist's step and a disconnected radius graph warn
        warnings.simplefilter("ignore", RuntimeWarning)
        check = run_cli("check", *args)
        report = capsys.readouterr().out
        for alg in runner.ALGORITHMS:
            runs[alg] = run_cli("run", *args, "--alg", alg, "--r", "2",
                                "--regret", "off",
                                "--out", str(tmp_path / alg))
            errs[alg] = capsys.readouterr().err
    assert (check == 2) == (runs["odista"] == 2)
    assert check == 0 or any(runs.values())
    # each fail line is the run's refusal of odista
    fails = [ln.removeprefix("fail: ") for ln in report.splitlines()
             if ln.startswith("fail: ")]
    assert fails == [ln.removeprefix("numerical failure: ")
                     for ln in errs["odista"].splitlines()
                     if ln.startswith("numerical failure: ")]


# Under python -W error::RuntimeWarning, radius_graph's warning about the
# disconnected graph is raised: both commands exit 2 on one `numerical
# failure:` line, and the run makes no output directory.
@pytest.mark.parametrize("command", ["run", "check"])
def test_a_disconnected_graph_under_warnings_as_errors_exits_2(
        tmp_path, capsys, command):
    cfg = write_cfg(tmp_path, "comm_radius_m = 0\n" + SHORT_RSS)
    out = tmp_path / "out"
    argv = [command, "--scenario", "rss", "--config", cfg]
    if command == "run":
        argv += ["--alg", "odista", "--r", "30", "--out", str(out)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run_cli(*argv) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["numerical failure: radius graph is disconnected"]
    assert not out.exists()


# The check notes oist's descent premise and the slices whose minimizer is
# zero, and gates neither: at cell_m = 0.5, lam >= ||phi_t||_inf on every
# rss slice.
@pytest.mark.parametrize("text,trivial", [
    ("", None), ("cell_m = 0.5\n", "note: 6 of 6 slices have lam >= "
                 "||phi_t||_inf, so their minimizer is zero")])
def test_check_notes_oist_premise_and_trivial_slices(tmp_path, capsys, text,
                                                     trivial):
    cfg = write_cfg(tmp_path, text + SHORT_RSS)
    assert run_cli("check", "--scenario", "rss", "--config", cfg) == 0
    out = capsys.readouterr().out.splitlines()
    oist, = [ln for ln in out if "oist" in ln]
    assert oist.startswith("note: oist's descent premise tau*lambda_max <= 1 "
                           "breaks on 6 of 6 slices (max 2.02")
    assert [ln for ln in out if "lam >=" in ln] == ([trivial] if trivial
                                                    else [])


# ---------------------------------------------------------------------------
# input files from outside the program
# ---------------------------------------------------------------------------

# derandomized, so that a rerun draws the same examples as every other test
FUZZ = settings(max_examples=60, deadline=None, derandomize=True)

# Values a user might type, often a plausible number.  Sizes stay
# single-digit and positive values stay at or above 0.5 (a smaller cell_m
# makes the rss grid huge), so that every accepted configuration builds its
# stream in milliseconds.
NUMBERS = ("1", "2", "3", "4", "9", "0.5", "2.5")
CONFIG_VALUES = st.one_of(st.sampled_from(NUMBERS), st.sampled_from(
    ("-1", "0", "nan", "inf", "-inf", "1e400", "abc", "exp1", "exp2", "")))
JUNK_LINES = ("novalue", "= 3", "m =", "# note", "   ")


@st.composite
def config_texts(draw):
    scenario = draw(st.sampled_from(SCENARIOS))
    keys = [f.name for f in dataclasses.fields(base_config(scenario, {}))]
    keys += ["lambda", "bogus"]
    pairs = draw(st.lists(st.tuples(st.sampled_from(keys), CONFIG_VALUES),
                          max_size=3))
    lines = [f"{k} = {v}" for k, v in pairs]
    if draw(st.integers(0, 3)) == 0:
        lines.append(draw(st.sampled_from(JUNK_LINES)))
    return scenario, "\n".join(draw(st.permutations(lines))) + "\n"


@FUZZ
@given(case=config_texts())
def test_config_files_never_crash_the_cli(tmp_path_factory, case):
    scenario, text = case
    f = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    f.write_text(text)
    code = main(["check", "--scenario", scenario, "--config", str(f)])
    assert code in (0, 1, 2)


finite_values = st.floats(-10.0, 10.0)
any_values = st.one_of(finite_values, st.sampled_from(
    [0.0, 1e-300, 1e300, math.inf, -math.inf, math.nan]))


@st.composite
def problem_texts(draw):
    n = draw(st.integers(-1, 4))
    size = max(n, 0)
    if size and draw(st.booleans()):
        # a well-posed problem, so that the solver runs
        M = np.array(draw(st.lists(finite_values, min_size=size * size,
                                   max_size=size * size))).reshape(size, size)
        Q = M @ M.T + draw(st.sampled_from([1e-3, 1.0])) * np.eye(size)
        phi = draw(st.lists(finite_values, min_size=size, max_size=size))
        values = list(Q.ravel()) + phi + [draw(st.floats(1e-3, 10.0))]
    else:
        count = size * size + size + 1 + draw(st.sampled_from([0, -1, 1]))
        values = draw(st.lists(any_values, min_size=count, max_size=count))
    return f"{n}\n" + " ".join(repr(float(v)) for v in values) + "\n"


@FUZZ
@given(text=problem_texts())
def test_problem_files_never_crash_the_cli(tmp_path_factory, text):
    f = tmp_path_factory.mktemp("prob") / "fuzz.txt"
    f.write_text(text)
    assert main(["solve", str(f), "--max-iter", "2000"]) in (0, 1, 2)


def test_help_exits_cleanly():
    assert run_cli("--help") == 0
    assert run_cli() == 1  # missing subcommand
