"""Command line front end: stream runs, one-off solves, scenario checks.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 when a
numerical routine fails to deliver (oracle divergence, singular data, a
RuntimeWarning that python -W error raises) or a solver's premise fails
(odista's graph or descent factor, whose refusal `stvo check` prints as its
fail line, or a played action that is not finite).
All CSV output is byte-deterministic for a fixed command line and BLAS
thread count (rss files move by up to 5.3e-15 relative from one thread to
two): floats are written with repr, which round-trips exactly.
"""

import argparse
import csv
import dataclasses
import math
import pathlib
import sys

import numpy as np

from . import _svg, runner
from .core import QuadraticL1Problem, contraction_constants, objective_value
from .distributed import theta_tau
from .runner import build_stream, derive_seed, make_graph
from .solvers import OracleError, batch_dr, optimality_residual

SCENARIOS = tuple(runner.CONFIGS)


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def load_config(path):
    """Read `key = value` lines, each key once (lam and lambda are one key);
    # starts a comment; values become numbers when they parse as such."""
    out, lines = {}, {}
    try:
        text = pathlib.Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read config file: {e}")
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{ln}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"{path}:{ln}: expected key = value")
        first = lines.setdefault("lam" if key == "lambda" else key, ln)
        if first != ln:
            raise ValueError(f"{path}:{ln}: {key!r} repeats the key set on "
                             f"line {first}")
        for conv in (int, float):
            try:
                value = conv(value)
                break
            except ValueError:
                pass
        out[key] = value
    return out


# What a config value must be, by the type of the field it sets.
FIELD_VALUES = {
    int: (lambda v: isinstance(v, int), "an integer"),
    float: (lambda v: isinstance(v, (int, float)) and math.isfinite(v),
            "a finite number"),
}


def apply_overrides(cfg, overrides):
    types = {f.name: f.type for f in dataclasses.fields(cfg)}
    updates = {}
    for key, value in overrides.items():
        if key == "lambda":
            key = "lam"
        if types.get(key) not in FIELD_VALUES:
            raise ValueError(f"unknown config key {key!r} for this scenario")
        valid, what = FIELD_VALUES[types[key]]
        if not valid(value):
            raise ValueError(
                f"config key {key!r} must be {what}, got {value!r}")
        updates[key] = value
    try:
        return dataclasses.replace(cfg, **updates)
    except ValueError as e:
        raise ValueError(f"bad config value: {e}")


def network_size(scenario, nodes, cfg, plays_odista):
    """The ring size outside rss, 4 by default, checked before anything is
    written: a given --nodes, or the default when odista plays, must pass
    runner.check_ring."""
    if scenario == "rss" and nodes is not None:
        raise ValueError("--nodes does not apply to rss, whose network is "
                         "the sensor grid")
    n_nodes = 4 if nodes is None else nodes
    if scenario != "rss" and (nodes is not None or plays_odista):
        runner.check_ring(n_nodes, cfg.m, "--nodes")
    return n_nodes


def base_config(scenario, overrides):
    return apply_overrides(runner.CONFIGS[scenario](), overrides)


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------

def _cell(v):
    if isinstance(v, str):
        return v
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(path, header, rows, written):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_cell(v) for v in row])
    written.append(path)


def write_plots(out, algs, tables, written):
    """SVG charts of the regret, coefficient and distance tables."""
    cols = {t.name: dict(zip(t.header, zip(*t.rows))) for t in tables}
    if f"regret_{algs[0]}.csv" in cols:
        series = {alg: cols[f"regret_{alg}.csv"]["reg_over_t"] for alg in algs}
        path = out / "regret.svg"
        _svg.write_line_chart(path, cols[f"regret_{algs[0]}.csv"]["t"], series,
                              title="average dynamic regret", xlabel="round",
                              ylabel="reg / t", logy=True)
        written.append(path)
    for alg in algs:
        params = cols.get(f"params_{alg}.csv")
        if params is not None:
            path = out / f"params_{alg}.svg"
            _svg.write_line_chart(
                path, params["t_ms"],
                {"a1 true": params["a1_true"], "a1 est": params["a1_est"],
                 "b1 true": params["b1_true"], "b1 est": params["b1_est"]},
                title=f"coefficient tracking ({alg})", xlabel="time [ms]",
                ylabel="value")
            written.append(path)
        dist = cols.get(f"distance_{alg}.csv")
        if dist is not None:
            path = out / f"distance_{alg}.svg"
            _svg.write_line_chart(path, dist["t"], {alg: dist["dist"]},
                                  title="target distance", xlabel="round",
                                  ylabel="distance [m]")
            written.append(path)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

def cmd_run(args):
    algs = []
    for a in args.alg.split(","):
        a = a.strip()
        if a not in runner.ALGORITHMS:
            raise ValueError(f"unknown algorithm {a!r}")
        if a not in algs:
            algs.append(a)
    overrides = load_config(args.config) if args.config else {}
    cfg = base_config(args.scenario, overrides)
    n_nodes = network_size(args.scenario, args.nodes, cfg, "odista" in algs)
    if "odista" in algs and args.t_r is None and args.r < 2:
        raise ValueError(
            f"odista needs --r 2 or more, got r = {args.r}: it counts r in "
            f"half-steps, and a round of one half-step is a communication "
            f"alone, which never descends")
    regret_on = args.regret == "on" or (args.regret == "auto"
                                        and args.scenario != "rss")
    if args.out == "":
        raise ValueError("--out must name a directory, got ''")
    out = pathlib.Path(args.out or f"stvo_{args.scenario}")
    held = next((p for p in (out, *out.parents) if p.exists()), out)
    if not held.is_dir():
        raise ValueError(f"--out {out}: {held} is not a directory")
    tables = runner.run_experiment(
        args.scenario, cfg, algs, runs=args.runs, r=args.r, budget_ms=args.t_r,
        seed=args.seed, regret=regret_on, n_nodes=n_nodes,
        tau_rule=args.tau_rule, common_random=args.common_random)
    written = []
    try:
        # made only once the tables are in memory, so a failed run leaves none
        out.mkdir(parents=True, exist_ok=True)
        for table in tables:
            write_csv(out / table.name, table.header, table.rows, written)
        if args.svg:
            write_plots(out, algs, tables, written)
    except Exception as e:
        for p in written:
            pathlib.Path(p).unlink(missing_ok=True)
        if isinstance(e, OSError):
            raise ValueError(f"cannot write {out}: {e}")
        raise
    return 0


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def read_problem_file(path):
    """Dense text format: n, then n rows of Q, then phi, then lam; values
    separated by arbitrary whitespace, # comments allowed."""
    try:
        text = pathlib.Path(path).read_text()
    except OSError as e:
        raise ValueError(f"cannot read problem file: {e}")
    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if not tokens:
        raise ValueError("empty problem file")
    try:
        n = int(tokens[0])
        values = [float(v) for v in tokens[1:]]
    except ValueError as e:
        raise ValueError(f"bad number in problem file: {e}")
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    need = n * n + n + 1
    if len(values) != need:
        raise ValueError(
            f"expected {need} values after n = {n}, found {len(values)}")
    Q = np.array(values[:n * n]).reshape(n, n)
    phi = np.array(values[n * n:n * n + n])
    lam = values[-1]
    try:
        return QuadraticL1Problem(Q, phi, lam)
    except ValueError as e:
        raise ValueError(f"invalid problem: {e}")


def cmd_solve(args):
    problem = read_problem_file(args.file)
    result = batch_dr(problem, tol=args.tol, max_iter=args.max_iter)
    if not result.converged:
        print(f"no convergence within {args.max_iter} iterations "
              f"(last increment {result.residual_history[-1]:.3e})",
              file=sys.stderr)
        return 2
    res = optimality_residual(result.x_star, problem)
    print(f"converged: true")
    print(f"iterations: {result.iterations}")
    print(f"residual: {res!r}")
    print(f"objective: {objective_value(result.x_star, problem)!r}")
    print("x: " + " ".join(repr(float(v)) for v in result.x_star))
    return 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def cmd_check(args):
    overrides = load_config(args.config) if args.config else {}
    cfg = base_config(args.scenario, overrides)
    n_nodes = network_size(args.scenario, args.nodes, cfg, False)
    stream = build_stream(args.scenario, cfg, derive_seed(args.seed, 0))
    print(f"ok: config {type(cfg).__name__} valid")
    print(f"ok: stream of {len(stream.blocks)} blocks, dimension {stream.n}")
    try:
        cc = contraction_constants(stream.problems[0])
    except ValueError as err:
        delta = f"note: first slice: {err}, so odr's regret bound is nan"
    else:
        print(f"ok: first slice positive definite "
              f"(sigma={cc.sigma:.3e}, beta={cc.beta:.3e})")
        delta = (f"ok: contraction factor delta={cc.delta:.6f}" if cc.delta < 1
                 else f"note: contraction factor {cc.delta} not below one, "
                 "so odr's regret bound is nan")
    m, op = stream.blocks[0].m, stream.problems[0].op
    if op.factored:
        print(f"ok: first slice operator factored as A'A + mu I "
              f"(m={m}, n={stream.n}, 2m < n); positive definite because "
              f"mu={op.mu:.3e} > 0")
    else:
        print(f"ok: first slice operator dense (m={m}, n={stream.n}, 2m >= n)")
    print(delta)
    try:  # oist plays whether its premise holds or not, but not on a zero A
        oist_taus = runner.block_taus(stream.blocks)
    except ValueError as err:
        print(f"note: {err}, so oist cannot play")
    else:
        steps = [t * p.lambda_max for p, t in zip(stream.problems, oist_taus)]
        print(f"note: oist's descent premise tau*lambda_max <= 1 breaks on "
              f"{sum(s > 1.0 for s in steps)} of {len(steps)} slices (max "
              f"{max(steps)!r}); oist plays regardless")
    trivial = sum(p.lam >= np.max(np.abs(p.phi)) for p in stream.problems)
    if trivial:
        print(f"note: {trivial} of {len(stream.blocks)} slices have lam >= "
              f"||phi_t||_inf, so their minimizer is zero")
    if args.scenario == "rss":
        print(f"ok: walk of {len(stream.walk)} positions stays on the grid")
    try:
        g, nodes, taus, _ = runner.odista_inputs(stream, stream.blocks,
                                                 n_nodes, args.tau_rule)
    except runner.PremiseError as err:
        print(f"fail: {err}")
        return 2
    except ValueError as err:
        if args.nodes is not None:  # refused as `stvo run` refuses it
            raise
        print(f"note: {err}")  # only the distributed solver needs the nodes
    else:
        print(f"ok: sensor graph with {g.n_nodes} nodes is connected"
              if args.scenario == "rss" else
              f"ok: ring of {g.n_nodes} nodes, degree {g.degree}")
        print(f"ok: graph degrees {g.degrees.min()}-{g.degrees.max()}, "
              + ("regular" if g.regular else
                 "not regular; guarantee 9 assumes a regular graph"))
        print(f"ok: {sum(op.factored for op in nodes[0].stack.ops)} of "
              f"{g.n_nodes} node operators factored, "
              f"k_max={nodes[0].stack.A.shape[1]} of n={stream.n}")
        theta = max(theta_tau(data, tau) for data, tau in zip(nodes, taus))
        print(f"ok: odista descent factor theta={theta!r} over "
              f"{len(nodes)} slices under {args.tau_rule} steps")
    print("ok: measurements finite")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="stvo",
        description="Online solvers for streaming sparse quadratic programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="play algorithms over a scenario")
    p_run.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_run.add_argument("--alg", default="odr",
                       help="comma-separated subset of oist,odr,odista")
    p_run.add_argument("--runs", type=int, default=1)
    # Both default to None, so that argparse sees any given value of either.
    r_group = p_run.add_mutually_exclusive_group()
    r_group.add_argument("--r", type=int, default=None,
                         help="inner iterations per round (default 1); "
                              "odista counts half-steps and needs 2 or more")
    r_group.add_argument("--t-r", type=float, default=None, dest="t_r",
                         help="per-round time budget in ms, to calibrate r")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--config", default=None,
                       help="key = value overrides for the scenario")
    p_run.add_argument("--regret", choices=("auto", "on", "off"),
                       default="auto",
                       help="compute reference minimizers and regret")
    p_run.add_argument("--nodes", type=int, default=None,
                       help="network size for odista outside rss (default 4)")
    p_run.add_argument("--common-random", choices=("on", "off"), default="on",
                       dest="common_random_flag",
                       help="share data streams across algorithms (on) or "
                            "draw fresh ones per algorithm (off)")
    p_run.add_argument("--svg", action="store_true",
                       help="also write SVG charts")
    p_run.set_defaults(func=cmd_run)

    p_solve = sub.add_parser("solve", help="solve one problem from a file")
    p_solve.add_argument("file")
    p_solve.add_argument("--tol", type=float, default=1e-10)
    p_solve.add_argument("--max-iter", type=int, default=100000,
                         dest="max_iter")
    p_solve.set_defaults(func=cmd_solve)

    p_check = sub.add_parser("check", help="validate a scenario build")
    p_check.add_argument("--scenario", required=True, choices=SCENARIOS)
    p_check.add_argument("--seed", type=int, default=0)
    p_check.add_argument("--nodes", type=int, default=None,
                         help="ring size outside rss (default 4)")
    p_check.add_argument("--config", default=None)
    p_check.set_defaults(func=cmd_check)
    # check runs the node step premise of the rule that run plays odista by
    for p in (p_run, p_check):
        p.add_argument("--tau-rule", choices=runner.TAU_RULES,
                       default="per_node", dest="tau_rule",
                       help="node step sizes of odista (default per_node)")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        if getattr(args, "seed", 0) < 0:
            raise ValueError("--seed must be a non-negative integer")
        if args.command == "run":
            args.common_random = args.common_random_flag == "on"
            if args.runs < 1:
                raise ValueError("--runs must be at least 1")
            if args.r is not None and args.r < 1:
                raise ValueError("--r must be at least 1")
            if args.t_r is not None and not 0 < args.t_r < math.inf:
                raise ValueError("--t-r must be a finite positive number")
            args.r = 1 if args.r is None else args.r
        elif args.command == "solve" and args.max_iter < 1:
            raise ValueError("--max-iter must be at least 1")
        elif args.command == "solve" and not 0 <= args.tol < math.inf:
            raise ValueError("--tol must be a finite non-negative number")
        return args.func(args)
    # before ValueError, of which LinAlgError is a subclass
    except (OracleError, runner.PremiseError, np.linalg.LinAlgError,
            RuntimeWarning) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
