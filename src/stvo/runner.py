"""Online play loops shared by the command line tool and the tests.

A play function receives the revealed stream one slice at a time and records
the action committed before each reveal, so row t of the result is what the
algorithm was judged on at round t.  Row 0 is always the cold start.
"""

import time
from dataclasses import dataclass

import numpy as np

from .core import elastic_net_problem, objective_value
from .distributed import NetworkState, RowStack, odista_round
from .metrics import RunTrace
from .solvers import (DRState, OnlineConfig, consistent_state, dr_step,
                      initial_state, odr_round, oist_round, oracle_minimizer)

ALGORITHMS = ("oist", "odr", "odista")


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


def problems_from_blocks(blocks):
    """Quadratic forms of a stream of elastic-net slices.

    The slices of one shared run are built with ``with_phi`` and so share one
    Q and its cache: the factorization and the extreme eigenvalues are
    computed once for the run.
    """
    out = []
    for run in _shared_runs(blocks):
        base = elastic_net_problem(run[0])
        out.append(base)
        out.extend(base.with_phi(-b.A.T @ b.y) for b in run[1:])
    return out


def block_taus(blocks):
    """Per-round thresholded-gradient step sizes, 2 / ||A_t||_2^2."""
    taus = []
    for run in _shared_runs(blocks):
        taus.extend([2.0 / float(np.linalg.norm(run[0].A, 2)) ** 2] * len(run))
    return taus


def odista_taus(blocks, n_nodes, rule):
    """Per-round arrays of node step sizes.

    "uniform_min" gives every node the smallest inverse squared norm, which
    keeps the damping below one at each node; "per_node" uses each node's
    own 1 / ||A_v||_2^2.  The squared norms are the top eigenvalues of the
    small Gram matrices A_v A_v', one batched eigensolve over the run's row
    stack (its zero padding rows add only zero eigenvalues).
    """
    if rule not in ("uniform_min", "per_node"):
        raise ValueError(f"unknown step-size rule {rule!r}")
    taus = []
    for run in _shared_runs(blocks):
        stack = RowStack(run[0], n_nodes)
        norms = np.linalg.eigvalsh(stack.A @ stack.AT)[:, -1]
        if rule == "uniform_min":
            tau = np.full(n_nodes, 1.0 / float(np.max(norms)))
        else:
            tau = 1.0 / norms
        taus.extend([tau] * len(run))
    return taus


def partition_stream(blocks, n_nodes):
    """Per-round node data lists.

    The slices of one shared run share its node partition: only the linear
    terms are rebuilt.
    """
    out = []
    for run in _shared_runs(blocks):
        stack = RowStack(run[0], n_nodes)
        out.extend(stack.nodes(b.y) for b in run)
    return out


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
    """Run the distributed solver; the action is the network average."""
    state = NetworkState.zeros(n, graph.n_nodes)
    actions = np.empty((len(node_stream), n))
    for t, (data, tau) in enumerate(zip(node_stream, taus)):
        actions[t] = state.X.mean(axis=1)
        state = odista_round(state, graph, data, lam_node, tau, r)
    return PlayResult(actions=actions, state=state)


def stream_oracles(problems, opt_tol=1e-8):
    """Reference minimizers and fixed points of every slice.

    Each solve is warm started from the previous fixed point, which makes
    slowly drifting streams cheap without changing the answer beyond the
    solve tolerance.
    """
    xs = np.empty((len(problems), problems[0].n))
    zs = np.empty_like(xs)
    prev = None
    for t, p in enumerate(problems):
        x_star, z_star = oracle_minimizer(p, max_iter=200000, opt_tol=opt_tol,
                                          initial=prev)
        xs[t] = x_star
        zs[t] = z_star
        prev = DRState(x_star, z_star)
    return xs, zs


def action_losses(problems, actions):
    return np.array([objective_value(x, p)
                     for x, p in zip(actions, problems)])


def build_trace(problems, result, oracles=None):
    """Assemble the run record; with oracles it carries regret references."""
    loss = action_losses(problems, result.actions)
    if oracles is None:
        return RunTrace(t=np.arange(len(problems)), x=result.actions,
                        loss=loss, oracle_loss=loss)
    xs, zs = oracles
    oracle_loss = action_losses(problems, xs)
    return RunTrace(t=np.arange(len(problems)), x=result.actions, loss=loss,
                    oracle_loss=oracle_loss, x_star=xs, z_star=zs,
                    z=result.z)


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
    """Closure timing one splitting step, for round-budget calibration."""
    state = consistent_state(problem)
    return lambda: dr_step(state, problem)


def oist_step_timer(problem, tau):
    x = np.zeros(problem.n)
    cfg = OnlineConfig(r=1, tau=float(tau))
    return lambda: oist_round(x, problem, cfg)


ODISTA_TIMED_HALF_STEPS = 32


def odista_step_timer(graph, data, lam_node, tau, n):
    """Closure timing one odista round of ODISTA_TIMED_HALF_STEPS half-steps.

    A round pays its setup once, so timing short rounds would charge that
    setup to every half-step; calibrate with
    steps_per_call=ODISTA_TIMED_HALF_STEPS.
    """
    state = NetworkState.zeros(n, graph.n_nodes)
    return lambda: odista_round(state, graph, data, lam_node, tau,
                                ODISTA_TIMED_HALF_STEPS)
