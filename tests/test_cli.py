"""Command-line interface tests, run in process through main()."""

import numpy as np
import pytest

from stvo import cli
from stvo.cli import (
    UsageError,
    apply_overrides,
    base_config,
    derive_seed,
    load_config,
    main,
    read_problem_file,
)


def run_cli(*argv):
    return main(list(argv))


def read_bytes(d):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


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
    with pytest.raises(UsageError):
        load_config(f)
    with pytest.raises(UsageError):
        load_config(tmp_path / "missing.cfg")


def test_apply_overrides_and_lambda_alias():
    cfg = base_config("exp1", {"m": 6, "lambda": 0.5})
    assert cfg.m == 6 and cfg.lam == 0.5
    with pytest.raises(UsageError):
        base_config("exp1", {"bogus": 1})
    with pytest.raises(UsageError):
        base_config("exp1", {"m": 30})  # breaks the compressed regime
    rss = base_config("rss", {"exponent": 2.5})
    assert rss.pathloss.exponent == 2.5


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


def test_solve_reports_non_convergence(tmp_path, capsys):
    # fixed point away from the cold start, so increments stay geometric
    f = problem_file(tmp_path, "1\n4\n-3\n1\n")
    assert run_cli("solve", f, "--tol", "1e-300", "--max-iter", "3") == 2
    assert "no convergence" in capsys.readouterr().err


def test_problem_file_comments_and_errors(tmp_path):
    f = problem_file(tmp_path, "# header\n1\n2 # Q\n-3\n1\n")
    p = read_problem_file(f)
    assert p.n == 1 and p.lam == 1.0
    with pytest.raises(UsageError):
        read_problem_file(problem_file(tmp_path, ""))
    with pytest.raises(UsageError):
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
    trace = cli._read_csv(out / "trace_odr_0.csv")
    n_blocks = 300 // 12
    # one row per block; row 0 is the cold start against the first block
    assert len(trace["t"]) == n_blocks
    assert trace["t"][0] == 0.0
    reg = cli._read_csv(out / "regret_odr.csv")["reg"]
    assert all(b - a >= -1e-12 for a, b in zip(reg, reg[1:]))
    params = cli._read_csv(out / "params_odr.csv")
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
    dist = cli._read_csv(out / "distance_odr.csv")
    assert set(dist) == {"t", "dist", "cum_dist"}
    assert len(dist["t"]) == 5
    np.testing.assert_allclose(np.cumsum(dist["dist"]), dist["cum_dist"])
    # regret defaults to off here: no oracle columns, no regret csv
    trace = cli._read_csv(out / "trace_odr_0.csv")
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
    assert "unknown algorithm" in capsys.readouterr().err
    assert run_cli("run", "--scenario", "exp1", "--runs", "0",
                   "--out", str(tmp_path / "y")) == 1
    # argparse rejects unknown scenarios on its own
    assert run_cli("run", "--scenario", "exp9") == 1
    assert not (tmp_path / "x").exists() or not any((tmp_path / "x").iterdir())


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
    on = cli._read_csv(out_on / "trace_odr_0.csv")
    off = cli._read_csv(out_off / "trace_odr_0.csv")
    # both algorithms see run 0's stream when sharing; oracle losses differ
    # once each algorithm draws its own stream
    on_oist = cli._read_csv(out_on / "trace_oist_0.csv")
    off_oist = cli._read_csv(out_off / "trace_oist_0.csv")
    assert on["oracle_loss"] == on_oist["oracle_loss"]
    assert off["oracle_loss"] != off_oist["oracle_loss"]


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
    assert run_cli("check", "--scenario", "synthetic") == 0
    out = capsys.readouterr().out
    assert "ok: first slice operator dense (m=12, n=20, 2m >= n)" in out
    assert "factored" not in out


def test_help_exits_cleanly():
    assert run_cli("--help") == 0
    assert run_cli() == 1  # missing subcommand
