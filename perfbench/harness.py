"""Phases, output checks and metrics of one benchmark run; see run.py.

Imported only after run.py has pinned the BLAS threads and put the
checkout's ``src`` first on the import path.
"""

import contextlib
import csv
import functools
import json
import math
import os
import pathlib
import resource
import statistics
import sys
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np
import scipy

from stvo import cli, core, distributed, metrics, runner, scenarios, solvers

from spans import Distinct, Tracer
from workloads import NODES, TAU_RULE

MODULES = (scenarios, core, solvers, distributed, runner, metrics, cli)
LAYERS = tuple(m.__name__.split(".")[1] for m in MODULES)
ALGS = ("odr", "oist", "odista")
FIGURES = ("reg_final", "mse_final", "median_dist")
OPT_TOL = 1e-8          # certification threshold for every oracle x*
CHECK_ROUNDS = 10       # round-driver prefix checked against the regret bound
SETUP_REPS = 2          # setups per pass; the last one is driven
MIN_PASSES = 3
MAX_PASSES = 12
PROBE_REPS = 2          # inner-iteration samples per solver and slice
clock = time.perf_counter


def host_record(blas_threads):
    """Host facts every timing depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    status = pathlib.Path("/proc/self/status")
    if status.exists():
        for line in status.read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    return {"cores": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip(),
            "blas_threads": blas_threads, "process_threads": threads}


@dataclass
class Slices:
    """One revealed stream with everything its rounds need."""

    problems: list
    oist_taus: list
    graph: object
    nodes: list
    node_taus: list
    lam_node: float
    n: int


def window_ms(cfg):
    """The scenario's round window: one measurement block, or round_ms."""
    if isinstance(cfg, scenarios.RssConfig):
        return float(cfg.round_ms)
    return 1000.0 * cfg.m / cfg.sample_rate_hz


def setup(workload, seed, k):
    """Stream k of the round driver with its slice problems, node partitions
    and step sizes: everything needed before round 0."""
    cfg = cli.base_config(workload.scenario, workload.driver_config)
    stream = cli.build_stream(workload.scenario, cfg, cli.derive_seed(seed, k))
    graph, n_nodes = cli.make_graph(stream, NODES)
    slices = Slices(
        problems=stream.problems, oist_taus=runner.block_taus(stream.blocks),
        graph=graph, nodes=runner.partition_stream(stream.blocks, n_nodes),
        node_taus=runner.odista_taus(stream.blocks, n_nodes, TAU_RULE),
        lam_node=stream.blocks[0].lam / n_nodes, n=stream.n)
    return slices, window_ms(cfg)


class Run:
    """Counts attempted and failed operations; failures are reported on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


class Driver:
    """Closed-loop round driver; keeps its samples across streams."""

    def __init__(self, run, r, probe):
        self.run = run
        self.r = r
        self.probe = probe
        self.latency = {alg: [] for alg in ALGS}
        self.inner = {alg: [] for alg in ALGS}

    def play(self, s):
        """Reveal the slices one at a time.  On each slice every solver
        commits its round, timed at the public round call; with probe set,
        one inner iteration of each solver is then timed on the same slice.
        Returns the odr actions and auxiliary states, row t committed before
        slice t was revealed."""
        r = self.r
        odr_cfg = solvers.OnlineConfig(r=r)
        state = solvers.initial_state(s.n)
        x = np.zeros(s.n)
        net = distributed.NetworkState.zeros(s.n, s.graph.n_nodes)
        xs, zs = [], []
        for t, p in enumerate(s.problems):
            xs.append(state.x)
            zs.append(state.z)
            oist_cfg = solvers.OnlineConfig(r=r, tau=float(s.oist_taus[t]))
            state = self._round("odr", solvers.odr_round, state, p, odr_cfg)
            x = self._round("oist", solvers.oist_round, x, p, oist_cfg)
            net = self._round("odista", distributed.odista_round, net, s.graph,
                              s.nodes[t], s.lam_node, s.node_taus[t], r)
            self.run.check(np.isfinite(state.x).all() and np.isfinite(x).all()
                           and np.isfinite(net.X).all(),
                           f"actions committed at round {t} are finite")
            if self.probe:
                self._inner("odr", runner.odr_step_timer(p), 1)
                self._inner("oist", runner.oist_step_timer(p, s.oist_taus[t]), 1)
                self._inner("odista", self._half_step_pair(s, t), 2)
        return np.array(xs), np.array(zs)

    def _round(self, alg, fn, *args):
        t0 = clock()
        out = fn(*args)
        self.latency[alg].append(clock() - t0)
        return out

    @staticmethod
    def _half_step_pair(s, t):
        net = distributed.NetworkState.zeros(s.n, s.graph.n_nodes)
        return lambda: distributed.odista_round(net, s.graph, s.nodes[t],
                                                s.lam_node, s.node_taus[t], 2)

    def _inner(self, alg, step, units):
        step()
        for _ in range(PROBE_REPS):
            t0 = clock()
            step()
            self.inner[alg].append((clock() - t0) / units)

    def r_budget(self, alg, window):
        """Inner iterations per round window, in the solver's unit of r:
        window / p90 time of one inner iteration, a budget that still fits
        when the host runs at its slower speed.  Not floored, so that a
        small budget (five odista half-steps on rss) moves smoothly."""
        return window / 1000.0 / float(np.percentile(self.inner[alg], 90))


@dataclass
class Captured:
    """What the timed command hands between layers, kept for the checks."""

    plays: list
    oracles: list
    bounds: list


@contextlib.contextmanager
def capture():
    """Record the results of a few public calls the command makes once per
    stream; adds no measurable time to the command."""
    cap = Captured([], [], [])
    patched = []

    def hook(owner, attr, record):
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def hooked(*args, **kwargs):
            out = fn(*args, **kwargs)
            record(args, out)
            return out

        patched.append((owner, attr, fn))
        setattr(owner, attr, hooked)

    for alg in ALGS:
        hook(runner, f"play_{alg}",
             lambda args, out, alg=alg: cap.plays.append((alg, out.actions)))
    hook(runner, "stream_oracles",
         lambda args, out: cap.oracles.append((args[0], out[0])))
    hook(metrics, "theorem1_bound",
         lambda args, out: cap.bounds.append((args[0], out)))
    try:
        yield cap
    finally:
        for owner, attr, fn in reversed(patched):
            setattr(owner, attr, fn)


def read_summary(path):
    """summary.csv as {alg: {figure: float or None for nan}}."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    out = {}
    for row in rows:
        vals = {f: float(row[f]) for f in FIGURES}
        out[row["alg"]] = {f: (None if math.isnan(v) else v)
                           for f, v in vals.items()}
    return out


def rows_written(out_dir):
    total = 0
    for path in pathlib.Path(out_dir).glob("*.csv"):
        with open(path) as fh:
            total += sum(1 for _ in fh) - 1
    return total


def write_config(path, overrides):
    """A `key = value` file for the command's --config."""
    path.write_text("".join(f"{k} = {v}\n" for k, v in overrides.items()))
    return path


class Command:
    """The workload's `stvo run` command line, run in-process and checked."""

    def __init__(self, run, workload, workdir):
        self.run = run
        self.out = workdir / "cli"
        config_path = None
        if workload.config:
            config_path = write_config(workdir / "workload.cfg", workload.config)
        self.argv = workload.argv(self.out, config_path)
        self.first_summary = None
        self.walls = []

    def __call__(self):
        """One timed execution; returns what it captured."""
        with capture() as cap:
            t0 = clock()
            code = cli.main(self.argv)
            self.walls.append(clock() - t0)
        if self.run.check(code == 0, f"exit code {code} from stvo "
                                     f"{' '.join(self.argv)}"):
            summary = (self.out / "summary.csv").read_bytes()
            if self.first_summary is None:
                self.first_summary = summary
            self.run.check(summary == self.first_summary,
                           "repeated command writes byte-identical summary.csv")
        return cap

    def check_outputs(self, cap, reference, tolerance):
        run = self.run
        for alg, actions in cap.plays:
            run.check(np.isfinite(actions).all(), f"{alg} actions finite")
        for problems, xs in cap.oracles:
            certify(run, problems, xs)
        for trace, bound in cap.bounds:
            if math.isfinite(bound):
                reg = metrics.dynamic_regret(trace)[0][-1]
                run.check(reg <= bound, f"odr regret {reg!r} <= bound {bound!r}")
        if not run.check((self.out / "summary.csv").exists(),
                         "summary.csv written"):
            return
        got = read_summary(self.out / "summary.csv")
        run.check(set(got) == set(reference), "summary.csv algorithms")
        for alg, figures in reference.items():
            for fig, want in figures.items():
                have = got.get(alg, {}).get(fig)
                if want is None or have is None:
                    ok = want is None and have is None
                else:
                    ok = math.isclose(have, want, rel_tol=tolerance["rtol"],
                                      abs_tol=tolerance["atol"])
                run.check(ok, f"summary {alg} {fig} = {have!r}, "
                              f"reference {want!r}")


def certify(run, problems, xs):
    for t, (p, x) in enumerate(zip(problems, xs)):
        res = solvers.optimality_residual(x, p)
        run.check(res <= OPT_TOL, f"oracle x*[{t}] residual {res!r} <= {OPT_TOL}")


def check_driver(run, slices, odr_path, r):
    """The first CHECK_ROUNDS committed odr actions of the round driver:
    certified oracles, and dynamic regret under the closed-form bound (the
    bound holds for every horizon, so a prefix is a valid run)."""
    problems = slices.problems[:CHECK_ROUNDS]
    try:
        xs, zs = runner.stream_oracles(problems, opt_tol=OPT_TOL)
    except solvers.OracleError as err:
        run.check(False, f"round-driver oracle: {err}")
        return
    certify(run, problems, xs)
    played = runner.PlayResult(actions=odr_path[0][:CHECK_ROUNDS],
                               z=odr_path[1][:CHECK_ROUNDS])
    try:
        trace = runner.build_trace(problems, played, (xs, zs))
    except ValueError as err:
        run.check(False, f"round-driver trace: {err}")
        return
    reg = metrics.dynamic_regret(trace)[0][-1]
    consts = metrics.measure_bound_constants(trace, problems, r)
    bound = metrics.theorem1_bound(trace, consts)
    run.check(reg <= bound, f"round-driver odr regret {reg!r} <= bound {bound!r}")


def warmup(workload, workdir):
    """Pay lazy imports and first-call costs once, on a tiny instance of the
    workload, before anything is timed."""
    tiny = {"path_length_steps": 2} if workload.scenario == "rss" \
        else {"horizon_s": 0.06}
    cli.main(replace(workload, runs=1).argv(
        workdir / "warmup", write_config(workdir / "warmup.cfg", tiny)))
    slices, _ = setup(replace(workload, driver_config=tiny), 0, 0)
    Driver(Run(), 1, probe=True).play(slices)


def percentile_ms(samples, q):
    return float(np.percentile(samples, q)) * 1000.0


def timed_run(workload, seed, seconds, workdir, reference):
    """End-to-end metrics, tracing off.  Each pass sets up a fresh stream,
    drives its rounds and runs the command once, so every metric samples
    the whole run rather than one stretch of it."""
    run = Run()
    driver = Driver(run, workload.r, probe=True)
    command = Command(run, workload, workdir)
    setups = []
    start = clock()
    k = 0
    while k < MIN_PASSES or (k < MAX_PASSES and clock() - start < seconds):
        for _ in range(SETUP_REPS):
            slices = None
            t0 = clock()
            slices, window = setup(workload, seed, k)
            setups.append(clock() - t0)
        odr_path = driver.play(slices)
        if k == 0:
            check_driver(run, slices, odr_path, workload.r)
        cap = command()
        k += 1
    command.check_outputs(cap, reference["summary"], reference["tolerance"])

    m = {"setup_s": (statistics.median(setups), "s"),
         "wall_s": (max(command.walls), "s"),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                         "MiB")}
    for alg in ALGS:
        m[f"{alg}.round_ms_p90"] = (percentile_ms(driver.latency[alg], 90), "ms")
    for alg in ALGS:
        m[f"{alg}.r_budget"] = (driver.r_budget(alg, window),
                                "half-steps" if alg == "odista" else "iterations")
    print(f"samples: {len(setups)} setups, {len(driver.latency['odr'])} rounds "
          f"and {len(driver.inner['odr'])} inner iterations per solver, "
          f"commands {command.walls}", file=sys.stderr)
    return run, m


def warning_kind(w):
    text = str(w.message)
    if "violates the descent precondition" in text:
        return "warnings.oist_descent"
    if "radius graph is disconnected" in text:
        return "warnings.radius_graph_disconnected"
    if issubclass(w.category, RuntimeWarning):
        return "warnings.other_runtime"
    return "warnings.not_runtime"


def traced_run(workload, seed, workdir, reference, spans_path):
    """Per-layer metrics.  An untraced driver pass gives the median round
    latencies; spans around setup, the command and the checks give the rest.
    Untraced commands before and after give the tracing overhead."""
    run = Run()
    command = Command(run, workload, workdir)
    command()
    slices, _ = setup(workload, seed, 0)
    driver = Driver(run, workload.r, probe=False)
    odr_path = driver.play(slices)

    factors, factored, eigs = Distinct(), Distinct(), Distinct()
    tracer = Tracer()
    methods = [
        (core.QuadraticL1Problem, "prox_factor",
         lambda args, out: (factors.add(out[0]), factored.add(args[0]))),
        (core.QuadraticL1Problem, "eig_extremes",
         lambda args, out: eigs.add(out)),
    ]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        tracer.install(MODULES, methods)
        try:
            with tracer.span("bench.setup"):
                for _ in range(SETUP_REPS):
                    setup(workload, seed, 0)
            with tracer.span("bench.cli"):
                cap = command()
            counts = {"core.factorizations": factors.count,
                      "core.slices": factored.count,
                      "core.eig_solves": eigs.count}
            with tracer.span("bench.checks"):
                command.check_outputs(cap, reference["summary"],
                                      reference["tolerance"])
                check_driver(run, slices, odr_path, workload.r)
        finally:
            tracer.uninstall()
    traced_wall = command.walls[-1]
    command()
    untraced_wall = (command.walls[0] + command.walls[-1]) / 2.0
    tracer.save(spans_path)

    a = tracer.arrays()
    names = np.array(tracer.names)
    layer = np.array(tracer.layers)[a["name"]]
    func = np.array([n.rsplit(".", 1)[-1] for n in names])[a["name"]]
    phase = names[a["name"][a["root"]]]
    dur, self_t = a["dur"], a["self"]

    def calls(fn, where=None):
        sel = func == fn
        return sel if where is None else sel & (phase == where)

    def median_us(fn):
        d = dur[calls(fn)]
        return float(np.median(d)) * 1e6 if d.size else 0.0

    oracle = dur[calls("oracle_minimizer")]
    m = {f"{alg}.round_ms_p50": (percentile_ms(driver.latency[alg], 50), "ms")
         for alg in ALGS}
    m.update({k: (v, "count") for k, v in counts.items()})
    m.update({
        "scenarios.stream_build_ms": (
            dur[calls("build_stream", "bench.setup")].sum() / SETUP_REPS * 1e3,
            "ms"),
        "core.problem_setup_ms": (
            dur[calls("problems_from_blocks", "bench.setup")].sum()
            / SETUP_REPS * 1e3, "ms"),
        "core.prox_us": (median_us("prox_quadratic"), "us"),
        "solvers.dr_step_us": (median_us("dr_step"), "us"),
        "solvers.oist_sweep_us": (median_us("oist_round") / workload.r, "us"),
        "solvers.oracle_calls": (int(oracle.size), "count"),
        "solvers.oracle_ms_p50": (percentile_ms(oracle, 50), "ms"),
        "solvers.oracle_ms_p90": (percentile_ms(oracle, 90), "ms"),
        "solvers.oracle_s": (float(oracle.sum()), "s"),
        "distributed.even_step_us": (median_us("dista_even_step"), "us"),
        "distributed.odd_step_us": (median_us("dista_odd_step"), "us"),
        "distributed.partition_ms": (
            dur[calls("partition_stream", "bench.setup")].sum()
            / SETUP_REPS * 1e3, "ms"),
        "distributed.node_q_mb": (node_q_bytes(slices) / 2 ** 20, "MiB"),
        "distributed.messages_per_half_step": (
            int(sum(len(nb) - 1 for nb in slices.graph.neighbors)), "count"),
    })
    for alg in ALGS:
        m[f"runner.play_s.{alg}"] = (float(self_t[calls(f"play_{alg}")].sum()), "s")
    m.update({
        "runner.oracles_s": (float(dur[calls("stream_oracles")].sum()), "s"),
        "runner.trace_ms": (dur[calls("build_trace")].sum() * 1e3, "ms"),
        "metrics.bound_ms": ((dur[calls("measure_bound_constants")].sum()
                              + dur[calls("theorem1_bound")].sum()) * 1e3, "ms"),
        "metrics.regret_ms": (dur[calls("dynamic_regret")].sum() * 1e3, "ms"),
        "cli.csv_ms": (dur[calls("write_csv", "bench.cli")].sum() * 1e3, "ms"),
        "cli.rows_written": (rows_written(command.out), "count"),
        "cli.self_ms": (self_t[(layer == "cli") & (phase == "bench.cli")].sum() * 1e3,
                        "ms"),
    })
    for name in LAYERS:
        m[f"{name}.self_s"] = (float(self_t[layer == name].sum()), "s")
    m["tracing.overhead_s"] = (traced_wall - untraced_wall, "s")
    kinds = {k: 0 for k in ("warnings.oist_descent",
                            "warnings.radius_graph_disconnected",
                            "warnings.other_runtime", "warnings.not_runtime")}
    for w in caught:
        kinds[warning_kind(w)] += 1
    m.update({k: (v, "count") for k, v in kinds.items()})
    print(f"spans: {dur.size} written to {spans_path}", file=sys.stderr)
    return run, m


def node_q_bytes(slices):
    """Bytes of the distinct node quadratic terms one setup holds."""
    seen = {id(nd.Q): nd.Q.nbytes for data in slices.nodes for nd in data}
    return sum(seen.values())


def result_line(run, m):
    return json.dumps({
        "correct": run.failed == 0, "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in m.items()}})
