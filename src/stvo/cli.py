"""Command line front end: stream runs, one-off solves, scenario checks.

Exit codes: 0 on success, 1 on usage or configuration errors, 2 when a
numerical routine fails to deliver (oracle divergence, singular data).
All CSV output is byte-deterministic for a fixed command line: floats are
written with repr, which round-trips exactly.
"""

import argparse
import csv
import dataclasses
import math
import pathlib
import sys

import numpy as np

from . import _svg, metrics, runner, scenarios
from .core import QuadraticL1Problem, contraction_constants, objective_value
from .distributed import radius_graph, ring_graph
from .solvers import OracleError, batch_dr, optimality_residual

SCENARIOS = ("exp1", "exp2", "rss", "synthetic")


class UsageError(Exception):
    pass


def derive_seed(base, *key):
    """Stable per-run seed from the base seed and run coordinates."""
    ss = np.random.SeedSequence((int(base),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint32)[0])


# ---------------------------------------------------------------------------
# config files
# ---------------------------------------------------------------------------

def load_config(path):
    """Read `key = value` lines; # starts a comment; values become numbers
    when they parse as such."""
    out = {}
    try:
        text = pathlib.Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}")
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{ln}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if not key or not value:
            raise UsageError(f"{path}:{ln}: expected key = value")
        for conv in (int, float):
            try:
                value = conv(value)
                break
            except ValueError:
                pass
        out[key] = value
    return out


PATHLOSS_KEYS = ("p0_dbm", "d0_m", "exponent")


def apply_overrides(cfg, overrides):
    fields = {f.name for f in dataclasses.fields(cfg)}
    updates = {}
    pl_updates = {}
    for key, value in overrides.items():
        if key == "lambda":
            key = "lam"
        if key in PATHLOSS_KEYS and "pathloss" in fields:
            pl_updates[key] = value
        elif key in fields:
            updates[key] = value
        else:
            raise UsageError(f"unknown config key {key!r} for this scenario")
    if pl_updates:
        updates["pathloss"] = dataclasses.replace(cfg.pathloss, **pl_updates)
    try:
        return dataclasses.replace(cfg, **updates)
    except (ValueError, TypeError) as e:
        raise UsageError(f"bad config value: {e}")


def base_config(scenario, overrides):
    if scenario in ("exp1", "exp2"):
        cfg = scenarios.TvarxConfig(experiment=scenario)
    elif scenario == "rss":
        cfg = scenarios.RssConfig()
    else:
        cfg = scenarios.SyntheticConfig()
    return apply_overrides(cfg, overrides)


# ---------------------------------------------------------------------------
# stream assembly
# ---------------------------------------------------------------------------

class Stream:
    """One run's revealed data plus whatever truth the scenario carries."""

    def __init__(self, scenario, cfg, blocks, truth=None, walk=None, sim=None):
        self.scenario = scenario
        self.cfg = cfg
        self.blocks = blocks
        self.truth = truth
        self.walk = walk
        self.sim = sim
        self._problems = None

    @property
    def problems(self):
        if self._problems is None:
            self._problems = runner.problems_from_blocks(self.blocks)
        return self._problems

    @property
    def n(self):
        return self.blocks[0].n


def build_stream(scenario, cfg, seed):
    cfg = dataclasses.replace(cfg, seed=seed)
    if scenario in ("exp1", "exp2"):
        sim = scenarios.tvarx_simulate(cfg)
        blocks = scenarios.tvarx_stream(cfg, sim)
        return Stream(scenario, cfg, blocks, truth=sim.x_true, sim=sim)
    if scenario == "rss":
        blocks, walk, _ = scenarios.rss_stream(cfg)
        return Stream(scenario, cfg, blocks, walk=walk)
    blocks, truth = scenarios.synthetic_stream(cfg)
    return Stream(scenario, cfg, blocks, truth=truth)


def make_graph(stream, n_nodes):
    if stream.scenario == "rss":
        g = radius_graph(scenarios.sensor_positions(stream.cfg),
                        stream.cfg.comm_radius_m)
        return g, stream.cfg.sensors
    return ring_graph(n_nodes, 3), n_nodes


def _odista_inputs(stream, blocks, n_nodes, tau_rule):
    """Graph, node data stream, node step sizes and per-node l1 weight of
    the distributed solver on blocks of stream."""
    graph, n_nodes = make_graph(stream, n_nodes)
    return (graph, runner.partition_stream(blocks, n_nodes),
            runner.odista_taus(blocks, n_nodes, tau_rule),
            blocks[0].lam / n_nodes)


def play(alg, stream, r, n_nodes, tau_rule):
    if alg == "oist":
        return runner.play_oist(stream.problems, runner.block_taus(stream.blocks), r)
    if alg == "odr":
        return runner.play_odr(stream.problems, r)
    graph, node_stream, taus, lam_node = _odista_inputs(stream, stream.blocks,
                                                       n_nodes, tau_rule)
    return runner.play_odista(node_stream, graph, lam_node, taus, r, stream.n)


def calibrated_r(alg, stream, budget_ms, n_nodes, tau_rule):
    p0 = stream.problems[0]
    steps_per_call = 1
    if alg == "odr":
        step = runner.odr_step_timer(p0)
    elif alg == "oist":
        step = runner.oist_step_timer(p0, runner.block_taus(stream.blocks[:1])[0])
    else:
        graph, data, taus, lam_node = _odista_inputs(stream, stream.blocks[:1],
                                                    n_nodes, tau_rule)
        step = runner.odista_step_timer(graph, data[0], lam_node, taus[0],
                                        stream.n)
        steps_per_call = runner.ODISTA_TIMED_HALF_STEPS
    r = runner.calibrate_r(step, budget_ms, steps_per_call=steps_per_call)
    print(f"calibrated r = {r} for {alg} ({budget_ms} ms budget)",
          file=sys.stderr)
    return r


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


def snap_cells(actions):
    return np.argmax(actions, axis=1)


def run_distances(stream, actions):
    """Per-round distance between the snapped estimate and the target."""
    centers = scenarios.cell_centers(stream.cfg)
    est = centers[snap_cells(actions)]
    true = centers[np.asarray(stream.walk)]
    return np.linalg.norm(est - true, axis=1)


def tvarx_param_rows(stream_cfg, truth, actions_by_run):
    """Per-block truth, mean estimate and mean running identification error
    for the two active coefficients."""
    cfg = stream_cfg
    P = cfg.P_hat
    n_blocks = cfg.n_blocks
    dims = cfg.P_hat + cfg.Q_hat
    rows = []
    mse_run = np.zeros(len(actions_by_run))
    for s in range(n_blocks):
        k = (s + 1) * cfg.m
        t_ms = k * 1000.0 / cfg.sample_rate_hz
        x_true = truth[min(k, truth.shape[0] - 1)]
        ests = np.array([acts[s + 1] if s + 1 < acts.shape[0] else acts[-1]
                         for acts in actions_by_run])
        mse_run += ((ests - x_true) ** 2).sum(axis=1) / dims
        mean_est = ests.mean(axis=0)
        rows.append((t_ms, x_true[0], mean_est[0], x_true[P], mean_est[P],
                     float(mse_run.mean())))
    return rows


def maybe_bound(stream, trace, r):
    try:
        consts = metrics.measure_bound_constants(trace, stream.problems, r)
        return metrics.theorem1_bound(trace, consts)
    except ValueError:
        return math.nan


def cmd_run(args):
    algs = []
    for a in args.alg.split(","):
        a = a.strip()
        if a not in runner.ALGORITHMS:
            raise UsageError(f"unknown algorithm {a!r}")
        if a not in algs:
            algs.append(a)
    overrides = load_config(args.config) if args.config else {}
    cfg = base_config(args.scenario, overrides)
    regret_on = args.regret == "on" or (args.regret == "auto"
                                        and args.scenario != "rss")
    out = pathlib.Path(args.out or f"stvo_{args.scenario}")
    out.mkdir(parents=True, exist_ok=True)
    written = []
    try:
        streams = {}
        oracles = {}
        summary_rows = []
        for ai, alg in enumerate(algs):
            traces = []
            bounds = []
            actions_by_run = []
            r_alg = None
            for run in range(args.runs):
                key = run if args.common_random else (ai, run)
                if key not in streams:
                    seed_key = (key,) if args.common_random else key
                    streams[key] = build_stream(args.scenario, cfg,
                                                derive_seed(args.seed, *seed_key))
                stream = streams[key]
                if r_alg is None:
                    r_alg = (args.r if args.t_r is None
                             else calibrated_r(alg, stream, args.t_r,
                                               args.nodes, args.tau_rule))
                result = play(alg, stream, r_alg, args.nodes, args.tau_rule)
                if regret_on:
                    if key not in oracles:
                        oracles[key] = runner.stream_oracles(stream.problems)
                    trace = runner.build_trace(stream.problems, result,
                                               oracles[key])
                    reg, reg_over_t = metrics.dynamic_regret(trace)
                    if alg == "odr":
                        bounds.append(maybe_bound(stream, trace, r_alg))
                else:
                    trace = None
                    loss = runner.action_losses(stream.problems, result.actions)
                rows = []
                for t in range(result.actions.shape[0]):
                    if trace is not None:
                        rows.append((t, trace.loss[t], trace.oracle_loss[t],
                                     reg[t], reg_over_t[t]))
                    else:
                        rows.append((t, loss[t], math.nan, math.nan, math.nan))
                write_csv(out / f"trace_{alg}_{run}.csv",
                          ("t", "loss", "oracle_loss", "reg", "reg_over_t"),
                          rows, written)
                traces.append(trace)
                actions_by_run.append(result.actions)
            rounds = actions_by_run[0].shape[0]
            reg_final = reg_over_t_final = math.nan
            if regret_on:
                regs = np.array([metrics.dynamic_regret(tr)[0] for tr in traces])
                reg_over = np.array([metrics.dynamic_regret(tr)[1] for tr in traces])
                reg_mean = regs.mean(axis=0)
                reg_over_mean = reg_over.mean(axis=0)
                write_csv(out / f"regret_{alg}.csv",
                          ("t", "reg", "reg_over_t"),
                          [(t, reg_mean[t], reg_over_mean[t])
                           for t in range(rounds)], written)
                reg_final = float(reg_mean[-1])
                reg_over_t_final = float(reg_over_mean[-1])
            mse_final = math.nan
            median_dist = math.nan
            if args.scenario in ("exp1", "exp2"):
                stream0 = streams[0 if args.common_random else (ai, 0)]
                rows = tvarx_param_rows(stream0.cfg, stream0.truth,
                                        actions_by_run)
                write_csv(out / f"params_{alg}.csv",
                          ("t_ms", "a1_true", "a1_est", "b1_true", "b1_est",
                           "mse"), rows, written)
                mse_final = rows[-1][-1]
            elif args.scenario == "rss":
                dists = []
                for run in range(args.runs):
                    key = run if args.common_random else (ai, run)
                    dists.append(run_distances(streams[key],
                                               actions_by_run[run]))
                dists = np.array(dists)[:, 1:]
                mean_d = dists.mean(axis=0)
                write_csv(out / f"distance_{alg}.csv",
                          ("t", "dist", "cum_dist"),
                          [(t + 1, mean_d[t], float(np.sum(mean_d[:t + 1])))
                           for t in range(mean_d.size)], written)
                median_dist = float(np.median(dists))
            bound = float(np.mean(bounds)) if bounds else math.nan
            summary_rows.append((args.scenario, alg, args.runs, rounds, r_alg,
                                 reg_final, reg_over_t_final, bound,
                                 mse_final, median_dist))
        write_csv(out / "summary.csv",
                  ("scenario", "alg", "runs", "rounds", "r", "reg_final",
                   "reg_over_t_final", "bound", "mse_final", "median_dist"),
                  summary_rows, written)
        if args.svg:
            write_plots(out, args, algs, written)
    except Exception:
        for p in written:
            pathlib.Path(p).unlink(missing_ok=True)
        raise
    return 0


def _read_csv(path):
    with open(path, newline="") as fh:
        rdr = csv.reader(fh)
        header = next(rdr)
        cols = {name: [] for name in header}
        for row in rdr:
            for name, v in zip(header, row):
                cols[name].append(float(v))
    return cols


def write_plots(out, args, algs, written):
    if args.regret != "off" and (out / f"regret_{algs[0]}.csv").exists():
        series = {}
        t = None
        for alg in algs:
            cols = _read_csv(out / f"regret_{alg}.csv")
            t = cols["t"]
            series[alg] = cols["reg_over_t"]
        path = out / "regret.svg"
        _svg.write_line_chart(path, t, series, title="average dynamic regret",
                              xlabel="round", ylabel="reg / t", logy=True)
        written.append(path)
    for alg in algs:
        pcsv = out / f"params_{alg}.csv"
        if pcsv.exists():
            cols = _read_csv(pcsv)
            path = out / f"params_{alg}.svg"
            _svg.write_line_chart(
                path, cols["t_ms"],
                {"a1 true": cols["a1_true"], "a1 est": cols["a1_est"],
                 "b1 true": cols["b1_true"], "b1 est": cols["b1_est"]},
                title=f"coefficient tracking ({alg})", xlabel="time [ms]",
                ylabel="value")
            written.append(path)
        dcsv = out / f"distance_{alg}.csv"
        if dcsv.exists():
            cols = _read_csv(dcsv)
            path = out / f"distance_{alg}.svg"
            _svg.write_line_chart(path, cols["t"], {alg: cols["dist"]},
                                  title="target distance", xlabel="round",
                                  ylabel="distance [m]")
            written.append(path)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

def read_problem_file(path):
    """Dense text format: n, then n rows of Q, then phi, then lam; values
    separated by arbitrary whitespace, # comments allowed."""
    try:
        text = pathlib.Path(path).read_text()
    except OSError as e:
        raise UsageError(f"cannot read problem file: {e}")
    tokens = []
    for raw in text.splitlines():
        tokens.extend(raw.split("#", 1)[0].split())
    if not tokens:
        raise UsageError("empty problem file")
    try:
        n = int(tokens[0])
        values = [float(v) for v in tokens[1:]]
    except ValueError as e:
        raise UsageError(f"bad number in problem file: {e}")
    need = n * n + n + 1
    if len(values) != need:
        raise UsageError(
            f"expected {need} values after n = {n}, found {len(values)}")
    Q = np.array(values[:n * n]).reshape(n, n)
    phi = np.array(values[n * n:n * n + n])
    lam = values[-1]
    try:
        return QuadraticL1Problem(Q, phi, lam)
    except ValueError as e:
        raise UsageError(f"invalid problem: {e}")


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
    stream = build_stream(args.scenario, cfg, args.seed)
    print(f"ok: config {type(cfg).__name__} valid")
    print(f"ok: stream of {len(stream.blocks)} blocks, dimension {stream.n}")
    p0 = stream.problems[0]
    cc = contraction_constants(p0)
    print(f"ok: first slice positive definite "
          f"(sigma={cc.sigma:.3e}, beta={cc.beta:.3e})")
    m, op = stream.blocks[0].m, p0.op
    if op.factored:
        print(f"ok: first slice operator factored as A'A + mu I "
              f"(m={m}, n={stream.n}, 2m < n); positive definite because "
              f"mu={op.mu:.3e} > 0")
    else:
        print(f"ok: first slice operator dense (m={m}, n={stream.n}, 2m >= n)")
    if cc.delta >= 1.0:
        print(f"fail: contraction factor {cc.delta} not below one")
        return 2
    print(f"ok: contraction factor delta={cc.delta:.6f}")
    if args.scenario == "rss":
        side = stream.cfg.cells_per_side
        if np.any(np.asarray(stream.walk) < 0) or \
                np.any(np.asarray(stream.walk) >= side * side):
            print("fail: walk leaves the grid")
            return 2
        print(f"ok: walk of {len(stream.walk)} positions stays on the grid")
        g, _ = make_graph(stream, stream.cfg.sensors)
        state = "connected" if g.connected else "disconnected"
        print(f"ok: sensor graph with {g.n_nodes} nodes is {state}")
    else:
        g, n_nodes = make_graph(stream, args.nodes)
        print(f"ok: ring of {n_nodes} nodes, degree {g.degree}")
    losses = [float(np.linalg.norm(b.y)) for b in stream.blocks[:5]]
    if not all(math.isfinite(v) for v in losses):
        print("fail: non-finite measurements")
        return 2
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
    p_run.add_argument("--r", type=int, default=1,
                       help="inner iterations per round")
    p_run.add_argument("--t-r", type=float, default=None, dest="t_r",
                       help="per-round time budget in ms; overrides --r")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--config", default=None,
                       help="key = value overrides for the scenario")
    p_run.add_argument("--regret", choices=("auto", "on", "off"),
                       default="auto",
                       help="compute reference minimizers and regret")
    p_run.add_argument("--nodes", type=int, default=4,
                       help="network size for odista outside rss")
    p_run.add_argument("--tau-rule", choices=("per_node", "uniform_min"),
                       default="per_node", dest="tau_rule")
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
    p_check.add_argument("--nodes", type=int, default=4)
    p_check.add_argument("--config", default=None)
    p_check.set_defaults(func=cmd_check)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if not e.code else 1
    try:
        if args.command == "run":
            args.common_random = args.common_random_flag == "on"
            if args.runs < 1:
                raise UsageError("--runs must be at least 1")
            if args.r < 1:
                raise UsageError("--r must be at least 1")
            if args.t_r is not None and args.t_r <= 0:
                raise UsageError("--t-r must be positive")
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except (OracleError, np.linalg.LinAlgError) as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
