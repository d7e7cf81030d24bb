"""Online play loops and the experiment runs built on them.

A play function receives the revealed stream one slice at a time and records
the action committed before each reveal, so row t of the result is what the
algorithm was judged on at round t.  Row 0 is always the cold start.
:func:`run_experiment` plays whole scenarios and returns their output tables.
"""

import math
import sys
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import metrics, scenarios
from .core import elastic_net_slices
from .distributed import (NetworkState, NodeData, OdistaRound, RowStack,
                          deal_rows, node_phis, odista_round, radius_graph,
                          ring_graph, theta_tau)
from .metrics import RunTrace
from .solvers import (OdrRound, OistRound, OnlineConfig,
                      _lockstep_feature_sign, initial_state, odr_round,
                      oist_round, oracle_minimizer)

ALGORITHMS = ("oist", "odr", "odista")
TAU_RULES = ("per_node", "uniform_min")
CONFIGS = {"exp1": scenarios.TvarxConfig, "exp2": scenarios.TvarxConfig,
           "rss": scenarios.RssConfig, "synthetic": scenarios.SyntheticConfig}


@dataclass
class PlayResult:
    """Actions of one online run, row t played before slice t was revealed."""

    actions: np.ndarray
    z: np.ndarray | None = None
    state: object | None = None


def _shared_runs(blocks):
    """Consecutive blocks holding the same A object with equal lam and mu.

    The blocks of one run share one quadratic term, so everything derived
    from it (factorization, spectral constants, node partition, step sizes)
    is built once from the run's first block.
    """
    runs = []
    for b in blocks:
        head = runs[-1][0] if runs else None
        if (head is not None and b.A is head.A and b.lam == head.lam
                and b.mu == head.mu):
            runs[-1].append(b)
        else:
            runs.append([b])
    return runs


# Bytes of A or of dense Q that one batch of runs stacks at most: below the
# C allocator's default 128 KiB mmap threshold.  Whole-stream stacks of
# 160-265 KB on 83-block ARX streams raised the ARX workloads' peak RSS by
# 0.16-0.19 MiB; batches of at most 40 such blocks lowered it by 0.25 MiB.
_BATCH_BYTES = 1 << 17


def _batched_runs(blocks, build):
    """Per-run results of build over the stream's shared runs, in stream
    order, with the runs: (runs, results).

    Runs whose first blocks have one shape of A and which hold equally many
    blocks form batches of as many runs as fit _BATCH_BYTES, and
    build(A, runs) returns one result per run of a batch from A, their
    first blocks' A stacked (R, m, n).  A batch of one run stacks a view of
    its A, so a stream of one run copies nothing.
    """
    runs = _shared_runs(blocks)
    groups = {}
    for i, run in enumerate(runs):
        groups.setdefault((run[0].A.shape, len(run)), []).append(i)
    out = [None] * len(runs)
    for (shape, _), group in groups.items():
        size = max(1, _BATCH_BYTES // (8 * shape[1] * max(shape)))
        for idx in (group[lo:lo + size] for lo in range(0, len(group), size)):
            batch = [runs[i] for i in idx]
            A = np.stack([run[0].A for run in batch]) if len(batch) > 1 \
                else batch[0][0].A[None]
            for i, result in zip(idx, build(A, batch)):
                out[i] = result
    return runs, out


def _slice_ys(runs, j):
    """The y of the j-th block of every run of a batch, (R, m)."""
    return np.array([run[j].y for run in runs])


def problems_from_blocks(blocks):
    """Quadratic forms of a stream of elastic-net slices, bitwise each
    block's :func:`~stvo.core.elastic_net_problem`.

    The slices of one shared run hold one operator, and so share one Q and
    its cache: the factorization and the extreme eigenvalues are computed
    once for the run.  Each batch of runs is built by one
    :func:`~stvo.core.elastic_net_slices` call: its dense Q from one
    np.matmul and the phi of the j-th slices of its runs from another.
    """
    def build(A, runs):
        return elastic_net_slices(
            A, [run[0].mu for run in runs], [run[0].lam for run in runs],
            (_slice_ys(runs, j) for j in range(len(runs[0]))))

    _, problems = _batched_runs(blocks, build)
    return [p for run in problems for p in run]


def block_taus(blocks):
    """Per-round thresholded-gradient step sizes, 2 / ||A_t||_2^2, the
    norms of a batch of runs from one np.linalg.norm call."""
    runs, norms = _batched_runs(
        blocks, lambda A, _: np.linalg.norm(A, 2, axis=(1, 2)).tolist())
    try:
        return [2.0 / s ** 2 for run, s in zip(runs, norms) for _ in run]
    except ZeroDivisionError:
        raise ValueError("a slice whose A is zero has no finite step "
                         "2/||A_t||^2") from None


def odista_taus(blocks, n_nodes, rule):
    """Per-round arrays of node step sizes.

    "uniform_min" gives every node the smallest inverse squared norm, which
    keeps the damping below one at each node; "per_node" uses each node's
    own 1 / ||A_v||_2^2.  The squared norms are the top eigenvalues of the
    small Gram matrices A_v A_v', one batched eigensolve over the
    zero-padded row stacks that one :func:`~stvo.distributed.deal_rows`
    makes of a batch of runs (zero padding rows add only zero
    eigenvalues).  A node of zero rows alone has no finite step: a
    ValueError names its slice and node.
    """
    if rule not in TAU_RULES:
        raise ValueError(f"unknown step-size rule {rule!r}")

    def build(A, _):
        stack, _ = deal_rows(A, n_nodes)
        grams = stack @ np.ascontiguousarray(stack.swapaxes(-1, -2))
        return np.linalg.eigvalsh(grams)[..., -1]

    runs, tops = _batched_runs(blocks, build)
    taus = []
    for run, norms in zip(runs, tops):
        if rule == "uniform_min":
            norms = np.full(n_nodes, np.max(norms))
        zero = np.flatnonzero(~(norms > 0.0))
        if zero.size:
            raise ValueError(
                f"slice {len(taus)}: node {zero[0]} holds only zero rows, "
                f"so its step 1/||A_v||^2 is not finite; use fewer nodes")
        taus.extend([1.0 / norms] * len(run))
    return taus


def partition_stream(blocks, n_nodes):
    """Per-round :class:`~stvo.distributed.NodeData`, one per slice.

    The slices of one shared run share its node partition, a
    :class:`~stvo.distributed.RowStack`: only the linear terms are rebuilt.
    A batch of runs is dealt to the nodes at once, each run's stack a view
    of that deal, and the phi_v of the j-th slices of its runs come from one
    :func:`~stvo.distributed.node_phis`, whose row for the run a slice's
    node data holds without a copy, so no array grows with a run's
    length: one 6 MB array for the 34 slices of an rss run, in place of
    their 34 arrays of 180 KB, raised the process's peak RSS by 0.85 MiB.
    """
    def build(A, runs):
        stack, groups = deal_rows(A, n_nodes)
        phis = [node_phis(groups, _slice_ys(runs, j))
                for j in range(len(runs[0]))]
        out = []
        for i, run in enumerate(runs):
            rows = RowStack(run[0], n_nodes,
                            (stack[i], tuple(g[i] for g in groups)))
            out.append([NodeData(rows, phi[i]) for phi in phis])
        return out

    _, nodes = _batched_runs(blocks, build)
    return [data for run in nodes for data in run]


def play_oist(problems, taus, r):
    """Run the online thresholded-gradient solver over a problem stream."""
    x = np.zeros(problems[0].n)
    actions = np.empty((len(problems), problems[0].n))
    for t, (p, tau) in enumerate(zip(problems, taus)):
        actions[t] = x
        x = oist_round(x, p, OnlineConfig(r=r, tau=float(tau)))
    return PlayResult(actions=actions, state=x)


def play_odr(problems, r):
    """Run the online splitting solver over a problem stream."""
    state = initial_state(problems[0].n)
    actions = np.empty((len(problems), problems[0].n))
    zs = np.empty_like(actions)
    for t, p in enumerate(problems):
        actions[t] = state.x
        zs[t] = state.z
        state = odr_round(state, p, OnlineConfig(r=r))
    return PlayResult(actions=actions, z=zs, state=state)


def play_odista(node_stream, graph, lam_node, taus, r, n):
    """Run the distributed solver; the action is the network average, the
    mean of the rows x_v of the state's X."""
    state = NetworkState.zeros(n, graph.n_nodes)
    actions = np.empty((len(node_stream), n))
    for t, (data, tau) in enumerate(zip(node_stream, taus)):
        actions[t] = state.X.mean(axis=0)
        state = odista_round(state, graph, data, lam_node, tau, r)
    return PlayResult(actions=actions, state=state)


def stream_oracles(problems, opt_tol=1e-8):
    """Reference minimizers and fixed points of every slice.

    Every slice gets its own certified :func:`oracle_minimizer` call, in
    stream order, started from its sign pattern where the stream's lockstep
    feature-sign search finished it, otherwise from the previous slice's
    minimizer.  x* is the reduced solve on the final pattern of the call's
    own search, or of a search its fallback starts, so the start changes
    the cost, not the bits.  The start is the pattern, not the
    point the search reached: a start that already certifies is what the
    fallback hands back, and a pattern certifies only where the minimizer
    is zero.
    """
    xs = np.empty((len(problems), problems[0].n))
    zs = np.empty_like(xs)
    pattern, done = _lockstep_feature_sign(problems)
    for t, p in enumerate(problems):
        start = pattern[t] if done[t] else xs[t - 1] if t else None
        xs[t], zs[t] = oracle_minimizer(p, max_iter=200000, opt_tol=opt_tol,
                                        initial=start)
    return xs, zs


def action_losses(problems, actions):
    """The objective of every slice at its action, row t of actions on
    problems[t], bitwise each :func:`~stvo.core.objective_value`: the
    products Q x_t slice by slice, then every dot product in one np.matmul.
    """
    X = np.asarray(actions, dtype=float)
    if len(X) != len(problems):
        raise ValueError(f"{len(X)} actions for {len(problems)} problems")
    QX = np.array([p.op.matvec(x) for p, x in zip(problems, X)])
    phi = np.array([p.phi for p in problems])
    lam = np.array([p.lam for p in problems])
    return (np.matmul((0.5 * X)[:, None], QX[:, :, None])[:, 0, 0]
            + np.matmul(X[:, None], phi[:, :, None])[:, 0, 0]
            + lam * np.abs(X).sum(axis=1))


def build_trace(problems, result, oracles):
    """The run record scored against oracles, the (x*, z*) arrays of
    :func:`stream_oracles`."""
    xs, zs = oracles
    return RunTrace(t=np.arange(len(problems)),
                    loss=action_losses(problems, result.actions),
                    oracle_loss=action_losses(problems, xs), x_star=xs,
                    z_star=zs, z=result.z)


def calibrate_r(single_step, budget_ms, steps_per_call=1):
    """Inner iterations affordable inside a round's time budget.

    Times seven calls of single_step, which performs steps_per_call
    inner iterations, and divides the budget by the median time per
    iteration; the median rides out scheduler noise better than the mean.
    At least one iteration is always granted.
    """
    if budget_ms <= 0:
        raise ValueError("time budget must be positive")
    single_step()
    samples = []
    for _ in range(7):
        t0 = time.perf_counter()
        single_step()
        samples.append(time.perf_counter() - t0)
    med = float(np.median(samples)) / steps_per_call
    if med <= 0.0:
        return 1000
    return max(1, int((budget_ms / 1000.0) / med))


def odr_step_timer(problem):
    """Closure timing one splitting iteration, for round-budget calibration:
    each call continues by one iteration a round started on problem from
    z = 0 outside the timed call."""
    rnd = OdrRound().start(problem, np.zeros(problem.n))
    return lambda: rnd.step(1)


def oist_step_timer(problem, tau):
    """Closure timing one thresholded-gradient sweep at step tau, on a
    round started from zero outside the timed call."""
    rnd = OistRound().start(problem, float(tau), np.zeros(problem.n))
    return lambda: rnd.step(1)


ODISTA_TIMED_HALF_STEPS = 32


def odista_step_timer(graph, data, lam_node, tau, n):
    """Closure timing ODISTA_TIMED_HALF_STEPS half-steps (whole pairs) of a
    round started from zero outside the timed call; calibrate with
    steps_per_call=ODISTA_TIMED_HALF_STEPS."""
    rnd = OdistaRound(graph, lam_node).start(
        data, tau, NetworkState.zeros(n, graph.n_nodes))
    return lambda: rnd.step(ODISTA_TIMED_HALF_STEPS)


# ---------------------------------------------------------------------------
# experiment runs
# ---------------------------------------------------------------------------

def derive_seed(base, *key):
    """Stable per-run seed from the base seed and run coordinates."""
    ss = np.random.SeedSequence((int(base),) + tuple(int(k) for k in key))
    return int(ss.generate_state(1, np.uint32)[0])


@dataclass
class Stream:
    """One run's revealed data plus whatever truth the scenario carries."""

    scenario: str
    cfg: object
    blocks: list
    truth: np.ndarray | None = None
    walk: np.ndarray | None = None

    @cached_property
    def problems(self):
        return problems_from_blocks(self.blocks)

    @property
    def n(self):
        return self.blocks[0].n


def build_stream(scenario, cfg, seed):
    if scenario in ("exp1", "exp2"):
        sim = scenarios.tvarx_simulate(cfg, scenario, seed)
        blocks = scenarios.tvarx_stream(cfg, sim)
        return Stream(scenario, cfg, blocks, truth=sim.x_true)
    if scenario == "rss":
        blocks, walk = scenarios.rss_stream(cfg, seed)
        return Stream(scenario, cfg, blocks, walk=walk)
    blocks, truth = scenarios.synthetic_stream(cfg, seed)
    return Stream(scenario, cfg, blocks, truth=truth)


# degree of the ring the distributed solver runs on outside rss
RING_DEGREE = 3


def check_ring(n_nodes, m, name):
    """Raise a ValueError that starts "{name} {n_nodes}:" unless n_nodes
    nodes make a ring of degree RING_DEGREE and each get a row of a block
    of m rows."""
    try:
        ring_graph(n_nodes, RING_DEGREE)
        deal_rows(np.empty((m, 0)), n_nodes)
    except ValueError as e:
        raise ValueError(f"{name} {n_nodes}: {e}")


class PremiseError(RuntimeError):
    """Raised when a solver's convergence premise fails on the stream it
    is to play, or its play commits an action that is not finite."""


def make_graph(stream, n_nodes):
    """Network of the distributed solver: the rss sensor graph, else a ring
    of n_nodes and degree RING_DEGREE; returns the graph and its node
    count."""
    if stream.scenario == "rss":
        g = radius_graph(scenarios.sensor_positions(stream.cfg),
                         stream.cfg.comm_radius_m)
        return g, stream.cfg.sensors
    return ring_graph(n_nodes, RING_DEGREE), n_nodes


def odista_inputs(stream, blocks, n_nodes, tau_rule):
    """Graph, node data, node steps and per-node l1 weight of odista on
    blocks of stream, or the PremiseError `run` and `check` refuse it on."""
    graph, n_nodes = make_graph(stream, n_nodes)
    if not graph.connected:
        raise PremiseError(
            f"odista cannot reach consensus: the graph of {n_nodes} nodes "
            "is disconnected")
    nodes = partition_stream(blocks, n_nodes)
    taus = odista_taus(blocks, n_nodes, tau_rule)
    # Both step rules give tau_v ||A_v||^2 <= 1, with equality at the node
    # whose norm sets the step, so max_v tau_v lambda_max(Q_v) = 1 + max_v
    # tau_v mu_v, mu_v = mu/|V| the ridge of Q_v = A_v'A_v + mu_v I, and
    # theta is below one exactly where every tau_v mu_v is (up to rounding)
    if not np.max(np.multiply(taus, [[d.stack.mu] for d in nodes])) < 1.0:
        theta = max(theta_tau(data, tau) for data, tau in zip(nodes, taus))
        raise PremiseError(
            f"odista would diverge under {tau_rule} steps: a node's step "
            f"tau_v times its ridge mu/|V| is not below one, so neither is "
            f"the descent factor theta={theta!r}")
    return graph, nodes, taus, blocks[0].lam / n_nodes


def play(alg, stream, r, n_nodes, tau_rule):
    """Play one algorithm over a stream at r inner iterations per round."""
    if alg == "oist":
        return play_oist(stream.problems, block_taus(stream.blocks), r)
    if alg == "odr":
        return play_odr(stream.problems, r)
    graph, node_stream, taus, lam_node = odista_inputs(stream, stream.blocks,
                                                      n_nodes, tau_rule)
    return play_odista(node_stream, graph, lam_node, taus, r, stream.n)


def calibrated_r(alg, stream, budget_ms, n_nodes, tau_rule):
    """The r that budget_ms affords alg on the stream's first slice, for
    odista in whole pairs, an even r >= 2; logged to stderr."""
    p0 = stream.problems[0]
    steps_per_call = 1
    if alg == "odr":
        step = odr_step_timer(p0)
    elif alg == "oist":
        step = oist_step_timer(p0, block_taus(stream.blocks[:1])[0])
    else:
        graph, data, taus, lam_node = odista_inputs(stream, stream.blocks[:1],
                                                   n_nodes, tau_rule)
        step = odista_step_timer(graph, data[0], lam_node, taus[0], stream.n)
        steps_per_call = ODISTA_TIMED_HALF_STEPS
    r = calibrate_r(step, budget_ms, steps_per_call=steps_per_call)
    if alg == "odista":
        # whole pairs: a round's last odd half-step never descends
        r = 2 * max(1, r // 2)
    print(f"calibrated r = {r} for {alg} ({budget_ms} ms budget)",
          file=sys.stderr)
    return r


def maybe_bound(stream, trace, r):
    """Closed-form regret bound of an odr trace; nan where it fails."""
    try:
        consts = metrics.measure_bound_constants(trace, stream.problems, r)
        return metrics.theorem1_bound(trace, consts)
    except ValueError:
        return math.nan


def run_distances(stream, actions):
    """Per-round distance between the snapped estimate and the target."""
    centers = scenarios.cell_centers(stream.cfg)
    est = centers[np.argmax(actions, axis=1)]
    true = centers[np.asarray(stream.walk)]
    return np.linalg.norm(est - true, axis=1)


def tvarx_param_rows(cfg, truth, actions_by_run):
    """Per-block truth, mean estimate and mean running identification error
    for the two active coefficients."""
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


@dataclass
class Table:
    """One output file of a run: its name, column names and rows."""

    name: str
    header: tuple
    rows: list


def run_experiment(scenario, cfg, algs, runs, r, budget_ms, seed, regret,
                   n_nodes, tau_rule, common_random):
    """Play each algorithm over runs streams of a scenario.

    The runs are played run-major: run k's stream is built, played by every
    algorithm and scored, then dropped before run k + 1's is built, so one
    run's stream and oracles are live at a time.  The stream is keyed (k,)
    when the algorithms share streams (common_random) and (algorithm index,
    k) when each draws its own; the key seeds the stream, and a stream and
    its oracles are built once per key.  Each algorithm plays at r inner
    iterations per round, or at the r that budget_ms affords it on its run
    0 stream when budget_ms is set.  With regret on, every trace is scored
    against certified oracles.

    Returns the output tables: per algorithm one trace per run, the
    run-averaged regret (with regret on), the coefficient tracking (ARX) or
    the target distance (rss); then one summary row per algorithm.  An
    argument that cannot make such a run raises a ValueError that names it,
    before any stream is built; a disconnected graph, or a stream on which
    odista's descent factor is not below one, raises PremiseError before
    odista plays, and a play that commits an action that is not finite
    raises it after.
    """
    least = 2 if "odista" in algs else 1  # odista counts half-steps
    for ok, what in (
            (isinstance(cfg, CONFIGS.get(scenario, ())),
             f"scenario {scenario!r} does not match cfg {cfg!r}"),
            (0 < len(set(algs)) == len(algs) and set(algs) <= set(ALGORITHMS),
             f"algs must be distinct names of {ALGORITHMS}, got {algs!r}"),
            (runs >= 1, f"runs must be at least 1, got {runs!r}"),
            (seed >= 0, f"seed must be non-negative, got {seed!r}"),
            (budget_ms is not None or r >= least,
             f"r must be at least {least} for {algs!r}, got {r!r}"),
            (budget_ms is None or 0 < budget_ms < math.inf,
             f"budget_ms must be finite and positive, got {budget_ms!r}"),
            (tau_rule in TAU_RULES,
             f"tau_rule must be one of {TAU_RULES}, got {tau_rule!r}")):
        if not ok:
            raise ValueError(what)
    if "odista" in algs and scenario != "rss":
        check_ring(n_nodes, cfg.m, "n_nodes")
    r_alg, truths = [r] * len(algs), [None] * len(algs)
    traces, actions, regrets, bounds, dists = ([[] for _ in algs]
                                               for _ in range(5))
    stream = oracles = None
    for run in range(runs):
        for ai, alg in enumerate(algs):
            if ai == 0 or not common_random:
                key = (run,) if common_random else (ai, run)
                # the last stream is dropped before the next is built
                stream = oracles = None
                stream = build_stream(scenario, cfg, derive_seed(seed, *key))
            if run == 0:
                truths[ai] = stream.truth
                if budget_ms is not None:
                    r_alg[ai] = calibrated_r(alg, stream, budget_ms, n_nodes,
                                             tau_rule)
            result = play(alg, stream, r_alg[ai], n_nodes, tau_rule)
            bad = np.flatnonzero(~np.isfinite(result.actions).all(axis=1))
            if bad.size:
                raise PremiseError(f"{alg} diverged in run {run}: its action "
                                   f"at round {bad[0]} is not finite")
            if regret:
                if oracles is None:
                    oracles = stream_oracles(stream.problems)
                trace = build_trace(stream.problems, result, oracles)
                reg, reg_over_t = metrics.dynamic_regret(trace)
                regrets[ai].append((reg, reg_over_t))
                if alg == "odr":
                    bounds[ai].append(maybe_bound(stream, trace, r_alg[ai]))
                loss, oracle_loss = trace.loss, trace.oracle_loss
            else:
                loss = action_losses(stream.problems, result.actions)
                oracle_loss = reg = reg_over_t = [math.nan] * loss.size
            traces[ai].append(Table(
                f"trace_{alg}_{run}.csv",
                ("t", "loss", "oracle_loss", "reg", "reg_over_t"),
                list(zip(range(loss.size), loss, oracle_loss, reg,
                         reg_over_t))))
            actions[ai].append(result.actions)
            if scenario == "rss":
                dists[ai].append(run_distances(stream, result.actions))
    tables, summary = [], []
    for ai, alg in enumerate(algs):
        tables.extend(traces[ai])
        rounds = actions[ai][0].shape[0]
        reg_final = reg_over_t_final = math.nan
        if regret:
            reg_mean, reg_over_mean = np.mean(regrets[ai], axis=0)
            tables.append(Table(
                f"regret_{alg}.csv", ("t", "reg", "reg_over_t"),
                list(zip(range(rounds), reg_mean, reg_over_mean))))
            reg_final = float(reg_mean[-1])
            reg_over_t_final = float(reg_over_mean[-1])
        mse_final = median_dist = math.nan
        if scenario in ("exp1", "exp2"):
            rows = tvarx_param_rows(cfg, truths[ai], actions[ai])
            tables.append(Table(f"params_{alg}.csv",
                                ("t_ms", "a1_true", "a1_est", "b1_true",
                                 "b1_est", "mse"), rows))
            mse_final = rows[-1][-1]
        elif scenario == "rss":
            dist = np.array(dists[ai])[:, 1:]
            mean_d = dist.mean(axis=0)
            tables.append(Table(
                f"distance_{alg}.csv", ("t", "dist", "cum_dist"),
                [(t + 1, mean_d[t], float(np.sum(mean_d[:t + 1])))
                 for t in range(mean_d.size)]))
            median_dist = float(np.median(dist))
        bound = float(np.mean(bounds[ai])) if bounds[ai] else math.nan
        summary.append((scenario, alg, runs, rounds, r_alg[ai], reg_final,
                        reg_over_t_final, bound, mse_final, median_dist))
    tables.append(Table("summary.csv",
                        ("scenario", "alg", "runs", "rounds", "r", "reg_final",
                         "reg_over_t_final", "bound", "mse_final",
                         "median_dist"), summary))
    return tables
