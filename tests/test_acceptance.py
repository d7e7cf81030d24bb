"""Acceptance suite: one test per advertised guarantee of the package.

Every test pins its tolerances and its wall-clock budget, draws all data
from fixed integer seeds through the package's own seed-derivation helper,
and prints a one-line measurement summary (visible under ``pytest -s``).
The pytest verdict line of each test is the pass/fail record of the
corresponding guarantee.
"""

import time

import numpy as np
import pytest

import oracles
from test_distributed import lifted_network_problem

from stvo import cli, metrics, runner
from stvo.core import (ElasticNetData, QuadraticL1Problem,
                       contraction_constants, elastic_net_problem)
from stvo.distributed import (NetworkState, RowStack, odista_round,
                              ring_graph, theta_tau)
from stvo.solvers import (OdrRound, OnlineConfig, batch_dr, odr_round,
                          oracle_minimizer)

# The deliberate 2/||A||^2 step of the thresholded-gradient family trips
# the conservative precondition check; the warning is expected here.
pytestmark = pytest.mark.filterwarnings(
    "ignore:tau=.*violates the descent precondition")


def report(label, detail, started, limit_s=None):
    elapsed = time.perf_counter() - started
    budget = f" / limit {limit_s:g} s" if limit_s else ""
    print(f"{label}: {detail}  [{elapsed:.1f} s{budget}]")
    if limit_s is not None:
        assert elapsed < limit_s, (
            f"{label} took {elapsed:.1f} s, over the {limit_s:g} s budget")


# ---------------------------------------------------------------------------
# 1. Batch splitting contracts at the predicted per-iteration rate
# ---------------------------------------------------------------------------

def test_batch_splitting_contracts_every_iteration_at_the_predicted_rate():
    started = time.perf_counter()
    pairs = [(0.5, 3.0), (0.25, 9.0), (1.0, 1.0)]
    worst_slack = -np.inf
    for i in range(20):
        sigma, beta = pairs[i % 3]
        prob = oracles.spectrum_problem(n=15, sigma=sigma, beta=beta, seed=i,
                                        lam=0.1)
        delta = contraction_constants(prob).delta
        z_star = batch_dr(prob, tol=1e-12, max_iter=100000).z_star
        rnd = OdrRound().start(prob, np.zeros(prob.n))
        prev = float(np.linalg.norm(rnd.z - z_star))
        for _ in range(60):
            gap = float(np.linalg.norm(rnd.step(1).z - z_star))
            worst_slack = max(worst_slack, gap - (delta * prev + 1e-9))
            prev = gap
    assert worst_slack <= 0.0
    report("batch contraction", f"worst slack {worst_slack:.3e} (<= 0)",
           started, limit_s=5)


# ---------------------------------------------------------------------------
# 2. Batch minimizer agrees with an independent reference
# ---------------------------------------------------------------------------

def test_batch_minimizer_matches_an_independent_proximal_gradient_reference():
    started = time.perf_counter()
    probs = []
    for seed in range(10):
        rng = np.random.default_rng((seed, 99))
        A = rng.standard_normal((12, 20)) / np.sqrt(12)
        x_true = rng.uniform(0.5, 1.5, 20) * rng.choice([-1.0, 1.0], 20)
        y = A @ x_true + 0.01 * rng.standard_normal(12)
        probs.append(elastic_net_problem(
            ElasticNetData(A=A, y=y, lam=1e-2, mu=1e-6)))
    refs = oracles.prox_grad_minimize([p.Q for p in probs],
                                      [p.phi for p in probs],
                                      [p.lam for p in probs], res_tol=1e-10)
    worst = 0.0
    for prob, ref in zip(probs, refs):
        run = batch_dr(prob, tol=1e-10, max_iter=100000)
        assert run.converged
        worst = max(worst, float(np.max(np.abs(run.x_star - ref))))
    assert worst <= 1e-6
    report("oracle equivalence", f"worst |dx|_inf {worst:.3e} (tol 1e-6)",
           started, limit_s=10)


# ---------------------------------------------------------------------------
# 3. Online splitting lands within the r-step contraction of the z gap
# ---------------------------------------------------------------------------

def test_online_splitting_lands_within_the_r_step_contraction_of_the_gap():
    started = time.perf_counter()
    n, rounds, drift, lam = 8, 40, 1e-4, 0.05
    worst_slack = -np.inf
    for seed in (1, 2):
        rng = np.random.default_rng((seed, 55))
        # One near-flat coordinate pinned inactive: its linear term stays
        # zero along the whole stream, so the l1 margin keeps it out of
        # the support and the slow mode never enters the played error.
        Q = np.diag(np.concatenate([[1e-6], np.linspace(0.5, 3.0, n - 1)]))
        phi0 = rng.standard_normal(n)
        phi0[0] = 0.0
        direction = rng.standard_normal(n)
        direction[0] = 0.0
        direction /= np.linalg.norm(direction)
        probs = [QuadraticL1Problem(Q, phi0 + t * drift * direction, lam)
                 for t in range(rounds)]
        stars = [oracle_minimizer(p) for p in probs]
        q = contraction_constants(probs[0]).q
        for r in (1, 2, 5):
            state = OdrRound().start(probs[0], stars[0][1]).state()
            for t, p in enumerate(probs):
                gap = float(np.linalg.norm(state.z - stars[t][1]))
                state = odr_round(state, p, OnlineConfig(r=r))
                err = float(np.linalg.norm(state.x - stars[t][0]))
                worst_slack = max(worst_slack, err - (q ** r * gap + 1e-8))
    assert worst_slack <= 0.0
    report("online contraction", f"worst slack {worst_slack:.3e} (<= 0)",
           started, limit_s=10)


# ---------------------------------------------------------------------------
# 4. Measured regret sits under the closed-form bound
# ---------------------------------------------------------------------------

def test_measured_regret_stays_under_the_closed_form_bound():
    started = time.perf_counter()
    r = 5
    worst_margin = np.inf
    for run in range(10):
        cfg = cli.base_config("exp2", {})
        stream = cli.build_stream("exp2", cfg, cli.derive_seed(5, run))
        # Boundedness of the data stream is the bound's standing premise;
        # verify it on the generated problems before invoking the bound.
        M_Q, M_phi = metrics.assumption_bounds(stream.problems)
        assert np.isfinite(M_Q) and np.isfinite(M_phi)
        res = runner.play_odr(stream.problems, r)
        trace = runner.build_trace(stream.problems, res,
                                   runner.stream_oracles(stream.problems))
        consts = metrics.measure_bound_constants(trace, stream.problems, r)
        assert np.isfinite(consts.M_star)
        assert consts.delta ** consts.r < 1.0
        reg = metrics.dynamic_regret(trace)[0]
        bound = metrics.theorem1_bound(trace, consts)
        assert reg[-1] <= bound
        worst_margin = min(worst_margin, bound - reg[-1])
    report("regret bound", f"10 runs, worst margin {worst_margin:.3e}",
           started, limit_s=30)


# ---------------------------------------------------------------------------
# 5. Averaged regret-per-round decays to less than half its early value
# ---------------------------------------------------------------------------

def test_mean_regret_per_round_halves_from_block_ten_to_the_horizon():
    started = time.perf_counter()
    cfg = cli.base_config("exp2", {})
    budgets = {"odr": 5, "oist": 5, "odista": 10}
    curves = {alg: [] for alg in budgets}
    for run in range(20):
        stream = cli.build_stream("exp2", cfg, cli.derive_seed(9, run))
        oracle_pairs = runner.stream_oracles(stream.problems)
        for alg, r in budgets.items():
            res = runner.play(alg, stream, r, 4, "per_node")
            trace = runner.build_trace(stream.problems, res, oracle_pairs)
            curves[alg].append(metrics.dynamic_regret(trace)[1])
    ratios = {}
    for alg, per_run in curves.items():
        mean_curve = np.mean(per_run, axis=0)
        ratios[alg] = float(mean_curve[-1] / mean_curve[10])
        assert ratios[alg] <= 0.5, f"{alg}: ratio {ratios[alg]:.3f} > 0.5"
    detail = "  ".join(f"{a} {v:.3f}" for a, v in ratios.items())
    report("regret decay", f"final/(block 10) ratios: {detail} (<= 0.5)",
           started, limit_s=60)


# ---------------------------------------------------------------------------
# 6. Identification tracks jumps and zero coefficients within a tenth
# ---------------------------------------------------------------------------

def test_identification_tracks_jumps_and_null_coefficients_within_a_tenth():
    started = time.perf_counter()
    cfg = cli.base_config("exp1", {})
    stream0 = cli.build_stream("exp1", cfg, cli.derive_seed(3, 0))
    budget_ms = cfg.m * 1000.0 / cfg.sample_rate_hz
    # r is whatever the round's acquisition window affords on this machine,
    # capped only to keep the test inside its wall-clock budget.
    r = min(runner.calibrate_r(runner.odr_step_timer(stream0.problems[5]),
                               budget_ms), 1000)
    estimates = []
    for run in range(20):
        stream = cli.build_stream("exp1", cfg, cli.derive_seed(3, run))
        estimates.append(runner.play_odr(stream.problems, r).actions)
    # Row s + 1 is the estimate produced from block s; averaging is over
    # the 20 runs and then over the blocks inside each window.
    mean_est = np.mean(estimates, axis=0)
    n_rows, n_coef = mean_est.shape
    worst_a1 = 0.0
    for jump_ms in (200, 400, 500, 700):
        rows = [s + 1 for s in range(cfg.n_blocks)
                if 12 * s >= jump_ms - 50 and 12 * (s + 1) <= jump_ms]
        a1_true = -0.9 if jump_ms <= 500 else 0.9
        dev = abs(float(np.mean(mean_est[rows, 0])) - a1_true)
        worst_a1 = max(worst_a1, dev)
        assert dev <= 0.1, f"a1 off by {dev:.3f} before the {jump_ms} ms jump"
    rows = [s + 1 for s in range(cfg.n_blocks)
            if 12 * s >= 900 and s + 1 < n_rows]
    zero_idx = [i for i in range(n_coef) if i not in (0, cfg.P_hat)]
    worst_zero = float(np.max(np.abs(np.mean(mean_est[rows][:, zero_idx],
                                             axis=0))))
    assert worst_zero <= 0.1
    report("jump tracking",
           f"r={r}, worst window a1 dev {worst_a1:.3f}, "
           f"worst null coefficient {worst_zero:.3f} (tol 0.1)",
           started, limit_s=60)


# ---------------------------------------------------------------------------
# 7. Distributed solver agrees across nodes and with the centralized oracle
# ---------------------------------------------------------------------------

def _static_network(seed, n_nodes=4, m_per_node=8, n=6):
    """Node data of m_per_node rows per node, dealt from one stacked block
    whose ridge 1e-6 the nodes share."""
    rng = np.random.default_rng((seed, 31))
    x_true = np.array([1.0, -0.7, 0.4, 0.0, 0.0, 0.0])
    mats, ys = [], []
    for _ in range(n_nodes):
        A = rng.standard_normal((m_per_node, n))
        mats.append(A)
        ys.append(A @ x_true + 1e-6 * rng.standard_normal(m_per_node))
    block = ElasticNetData(np.vstack(mats), np.concatenate(ys), lam=3e-4,
                           mu=1e-6)
    return RowStack(block, n_nodes).nodes(block.y)


def test_distributed_solver_reaches_consensus_on_a_static_problem():
    started = time.perf_counter()
    graph = ring_graph(4, 3)
    lam_node = 3e-4 / 4
    worst_spread = 0.0
    worst_center = 0.0
    for seed in range(5):
        data = _static_network(seed)
        taus = [0.25 / op.eig_extremes()[1] for op in data]
        state = odista_round(NetworkState.zeros(6, 4), graph, data,
                             lam_node, taus, 2000)
        X = state.X
        spread = max(float(np.max(np.abs(X[v] - X[w])))
                     for v in range(4) for w in range(v + 1, 4))
        center = oracle_minimizer(
            oracles.consensus_problem(data, lam_node))[0]
        dist = float(np.max(np.abs(X - center)))
        worst_spread = max(worst_spread, spread)
        worst_center = max(worst_center, dist)
        assert spread <= 1e-4
        assert dist <= 1e-3
    report("static consensus",
           f"worst node spread {worst_spread:.3e} (tol 1e-4), "
           f"worst oracle distance {worst_center:.3e} (tol 1e-3)",
           started, limit_s=10)


# ---------------------------------------------------------------------------
# 8. Distributed rounds contract the network error at the predicted rate
# ---------------------------------------------------------------------------

def _drifting_node_stream(seed, rounds=25, n=6, m_per_node=8, n_nodes=4):
    """Per-round measurements of a slowly moving truth on fixed sensing rows.

    Returns the :class:`RowStack` of the rows (ridge 1e-6 over the block),
    the per-round measurement vectors and the step size; round t's node
    data is ``stack.nodes(ys[t])``.  Every node's measurement count exceeds
    n, so each local quadratic is strongly convex and the network damping
    factor stays safely below one.
    """
    rng = np.random.default_rng((seed, 77))
    mats = [rng.standard_normal((m_per_node, n)) for _ in range(n_nodes)]
    ys = []
    for t in range(rounds):
        x = np.zeros(n)
        x[0] = 1.0 + 0.2 * np.sin(0.05 * t)
        x[2] = -0.7 + 0.2 * np.cos(0.05 * t)
        x[4] = 0.4
        ys.append(np.concatenate(
            [A @ x + 1e-4 * rng.standard_normal(m_per_node) for A in mats]))
    block = ElasticNetData(np.vstack(mats), ys[0], lam=3e-4, mu=1e-6)
    tau = 1.0 / max(float(np.linalg.norm(A, 2)) ** 2 for A in mats)
    return RowStack(block, n_nodes), ys, tau


def test_distributed_rounds_contract_the_network_error_at_the_damped_rate():
    started = time.perf_counter()
    graph = ring_graph(4, 3)
    lam_node = 3e-4 / 4
    r = 2
    worst_slack = -np.inf
    for seed in range(5):
        stack, ys, tau = _drifting_node_stream(seed)
        state = NetworkState.zeros(6, 4)
        base = lifted_network_problem(graph, stack.nodes(ys[0]), lam_node,
                                      [tau] * 4)
        for y in ys:
            data = stack.nodes(y)
            lifted = base.with_phi(np.concatenate(data.phis))
            x_star = oracle_minimizer(lifted)[0].reshape(4, 6)
            theta = theta_tau(data, tau)
            factor = ((1.0 + theta) / 2.0) ** (r / 2.0)
            gap_before = float(np.linalg.norm(state.X - x_star))
            state = odista_round(state, graph, data, lam_node, tau, r)
            gap_after = float(np.linalg.norm(state.X - x_star))
            worst_slack = max(worst_slack,
                              gap_after - (factor * gap_before + 1e-8))
    assert worst_slack <= 0.0
    report("network contraction", f"worst slack {worst_slack:.3e} (<= 0)",
           started, limit_s=30)


# ---------------------------------------------------------------------------
# 9. The network objective never increases across inner iterations
# ---------------------------------------------------------------------------

def test_network_objective_is_monotone_across_inner_iterations():
    started = time.perf_counter()
    worst_rise = -np.inf
    cases = [(seed, 4) for seed in range(5)] + [(0, 6)]
    for seed, n_nodes in cases:
        graph = ring_graph(n_nodes, 3)
        lam_node = 3e-4 / n_nodes
        stack, ys, tau = _drifting_node_stream(seed, n_nodes=n_nodes)
        state = NetworkState.zeros(6, n_nodes)
        neighbor_lists = [list(a) for a in graph.neighbors]

        def objective(X, data):
            return oracles.direct_global_objective(
                X.T, neighbor_lists, [op.Q for op in data],
                list(data.phis), lam_node, [tau] * n_nodes)

        for y in ys:
            data = stack.nodes(y)
            value = objective(state.X, data)
            for _ in range(3):
                # one communication and one descent
                state = odista_round(state, graph, data, lam_node, tau, 2)
                nxt = objective(state.X, data)
                worst_rise = max(worst_rise, nxt - value - 1e-9)
                value = nxt
    assert worst_rise <= 0.0
    report("monotone descent", f"worst objective rise slack "
           f"{worst_rise:.3e} (<= 0)", started)


# ---------------------------------------------------------------------------
# 10. Moving-target estimates stay within one grid cell of the walk
# ---------------------------------------------------------------------------

def test_target_tracking_stays_within_one_cell_of_the_walk():
    started = time.perf_counter()
    cfg = cli.base_config("rss", {})
    root_two = float(np.sqrt(2.0))
    grid = np.array([0.0, 1.0, root_two])
    medians = []
    worst_transients = 0.0
    for run in range(10):
        stream = cli.build_stream("rss", cfg, cli.derive_seed(21, run))
        res = runner.play_odr(stream.problems, 30)
        # Row 0 is the cold start before any data; judge rows 1 onward.
        d = runner.run_distances(stream, res.actions)[1:]
        medians.append(float(np.median(d)))
        assert medians[-1] <= root_two
        settled = d <= root_two + 1e-9
        off_grid = np.min(np.abs(d[settled][:, None] - grid), axis=1)
        assert float(np.max(off_grid, initial=0.0)) < 1e-9
        transient_frac = 1.0 - float(np.mean(settled))
        worst_transients = max(worst_transients, transient_frac)
        assert transient_frac <= 0.20
    report("target tracking",
           f"10 walks, median distance <= {max(medians):.3f} m "
           f"(limit {root_two:.3f}), worst transient share "
           f"{worst_transients:.2f} (limit 0.20)",
           started, limit_s=120)


# ---------------------------------------------------------------------------
# 11. Repeated runs of the command-line pipeline are byte-identical
# ---------------------------------------------------------------------------

def test_repeated_cli_runs_produce_byte_identical_outputs(tmp_path):
    started = time.perf_counter()
    cfg = tmp_path / "run.cfg"
    cfg.write_text("horizon_s = 0.5\n")
    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        code = cli.main(["run", "--scenario", "exp2", "--alg", "odr",
                         "--runs", "2", "--r", "3", "--seed", "7",
                         "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert outputs[0].keys() == outputs[1].keys()
    assert outputs[0] == outputs[1]
    report("determinism",
           f"{len(outputs[0])} output files byte-identical across reruns",
           started)
