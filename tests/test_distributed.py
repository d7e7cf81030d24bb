"""Unit tests for the graph model and distributed solvers."""

import numpy as np
import pytest
import scipy.linalg

from stvo.core import QuadraticL1Problem
from stvo.distributed import (
    Graph,
    NetworkState,
    NodeData,
    consensus_problem,
    dista_even_step,
    dista_odd_step,
    global_objective,
    local_mean,
    odista_round,
    radius_graph,
    ring_graph,
    surrogate_objective,
    theta_tau,
)
from stvo.runner import ODISTA_TIMED_HALF_STEPS, odista_step_timer
from stvo.solvers import oracle_minimizer

from oracles import (
    assert_relatively_close,
    direct_global_objective,
    direct_odd_step,
    mean_of_columns,
    soft_vector,
)


def ring4():
    return ring_graph(4, 3)


def random_node_data(rng, n, n_nodes, rows=3, ridge=0.05):
    data = []
    for _ in range(n_nodes):
        A = rng.standard_normal((rows, n))
        data.append(NodeData(Q=A.T @ A + ridge * np.eye(n),
                             phi=rng.standard_normal(n)))
    return data


def lifted_network_problem(graph, data, lam, taus):
    """The network objective as one quadratic-plus-l1 in the stacked columns.

    The disagreement penalty is a quadratic form in X, so the whole
    objective reduces to the centralized container; its certified minimizer
    is an independent reference for the distributed fixed point.
    """
    V = graph.n_nodes
    n = data[0].n
    K = np.zeros((V, V))
    for v in range(V):
        d_v = len(graph.neighbors[v])
        for w in graph.neighbors[v]:
            ell = np.zeros(V)
            for u in graph.neighbors[w]:
                ell[u] += 1.0 / len(graph.neighbors[w])
            ell[v] -= 1.0
            K += np.outer(ell, ell) / (d_v * taus[v])
    Q = scipy.linalg.block_diag(*[nd.Q for nd in data]) + np.kron(K, np.eye(n))
    phi = np.concatenate([nd.phi for nd in data])
    return QuadraticL1Problem((Q + Q.T) / 2.0, phi, lam)


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------

def test_ring_graph_four_nodes_degree_three():
    g = ring4()
    for v in range(4):
        np.testing.assert_array_equal(
            np.sort(g.neighbors[v]), np.sort([(v - 1) % 4, v, (v + 1) % 4]))
    assert g.regular and g.degree == 3 and g.connected


def test_ring_graph_single_node():
    g = ring_graph(1, 1)
    np.testing.assert_array_equal(g.neighbors[0], [0])
    assert g.connected


def test_ring_graph_complete_when_degree_equals_nodes():
    g = ring_graph(5, 5)
    for v in range(5):
        np.testing.assert_array_equal(g.neighbors[v], np.arange(5))


def test_ring_graph_rejects_infeasible_degree():
    with pytest.raises(ValueError):
        ring_graph(6, 4)
    with pytest.raises(ValueError):
        ring_graph(3, 7)


def test_radius_graph_connects_close_pair():
    g = radius_graph(np.array([[0.0, 0.0], [1.0, 0.0]]), 2.0)
    np.testing.assert_array_equal(g.neighbors[0], [0, 1])
    assert g.connected


def test_radius_graph_flags_disconnected_grid():
    xx, yy = np.meshgrid(np.arange(6) * 5.0, np.arange(6) * 5.0)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    with pytest.warns(RuntimeWarning, match="disconnected"):
        g = radius_graph(pos, 4.5)
    assert not g.connected
    for v in range(36):
        np.testing.assert_array_equal(g.neighbors[v], [v])


def test_radius_graph_matches_pairwise_distances():
    xx, yy = np.meshgrid(np.arange(6) * 4.0, np.arange(6) * 4.0)
    pos = np.column_stack([xx.ravel(), yy.ravel()])
    g = radius_graph(pos, 4.5)
    assert g.connected
    for v in range(36):
        expect = sorted(w for w in range(36)
                        if np.hypot(*(pos[v] - pos[w])) <= 4.5)
        np.testing.assert_array_equal(g.neighbors[v], expect)


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(2, [[0, 1], [1]])
    with pytest.raises(ValueError, match="own list"):
        Graph(2, [[1], [0, 1]])
    with pytest.raises(ValueError, match="unknown"):
        Graph(2, [[0, 5], [1]])
    g = Graph(3, [[0, 1], [0, 1, 2], [1, 2]])
    assert not g.regular
    assert g.degree is None


# ---------------------------------------------------------------------------
# Half-steps
# ---------------------------------------------------------------------------

def test_local_mean_consensus_fixed_point():
    g = ring4()
    c = np.array([1.0, -2.0, 0.5])
    X = np.tile(c[:, None], (1, 4))
    for v in range(4):
        np.testing.assert_allclose(local_mean(X, g, v), c)


def test_local_mean_two_node_complete():
    g = ring_graph(2, 2)
    X = np.array([[0.0, 2.0]])
    for v in range(2):
        np.testing.assert_allclose(local_mean(X, g, v), [1.0])


def test_local_mean_matches_direct_summation():
    g = ring4()
    rng = np.random.default_rng(30)
    X = rng.standard_normal((5, 4))
    for v in range(4):
        assert_relatively_close(
            local_mean(X, g, v), mean_of_columns(X, list(g.neighbors[v])), X)


def test_local_mean_rejects_bad_node():
    g = ring4()
    with pytest.raises((IndexError, ValueError)):
        local_mean(np.zeros((2, 4)), g, 9)


def test_even_step_consensus_and_x_unchanged():
    g = ring4()
    rng = np.random.default_rng(31)
    c = rng.standard_normal(3)
    X = np.tile(c[:, None], (1, 4))
    state = NetworkState(X, rng.standard_normal((3, 4)))
    out = dista_even_step(state, g)
    # averaging identical columns is exact only up to rounding
    np.testing.assert_allclose(out.C, X, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(out.X, state.X)


def test_even_step_matches_direct_means():
    g = ring4()
    rng = np.random.default_rng(32)
    state = NetworkState(rng.standard_normal((5, 4)), np.zeros((5, 4)))
    out = dista_even_step(state, g)
    for v in range(4):
        assert_relatively_close(
            out.C[:, v], mean_of_columns(state.X, list(g.neighbors[v])),
            state.X)


def test_odd_step_zero_fixed_point_without_linear_terms():
    g = ring4()
    data = [NodeData(Q=np.eye(3), phi=np.zeros(3)) for _ in range(4)]
    state = NetworkState.zeros(3, 4)
    out = dista_odd_step(state, g, data, lam=0.5, tau=0.1)
    np.testing.assert_array_equal(out.X, np.zeros((3, 4)))


def test_odd_step_single_node_hand_case():
    g = ring_graph(1, 1)
    data = [NodeData(Q=np.eye(1), phi=np.array([-3.0]))]
    state = NetworkState.zeros(1, 1)
    out = dista_odd_step(state, g, data, lam=1.0, tau=0.5)
    np.testing.assert_allclose(out.X, [[0.5]])


def test_odd_step_matches_literal_transcription():
    g = ring4()
    rng = np.random.default_rng(33)
    data = random_node_data(rng, 5, 4)
    state = NetworkState(rng.standard_normal((5, 4)), rng.standard_normal((5, 4)))
    taus = [0.05, 0.08, 0.03, 0.06]
    out = dista_odd_step(state, g, data, lam=0.2, tau=taus)
    ref = direct_odd_step(state.X, state.C, [list(a) for a in g.neighbors],
                          [nd.Q for nd in data], [nd.phi for nd in data],
                          0.2, taus)
    assert_relatively_close(out.X, ref, state.X, state.C)
    np.testing.assert_array_equal(out.C, state.C)


def test_odd_step_synchronous_reads_pre_step_state():
    # Updating nodes in reverse order over a frozen copy of the state must
    # give the same result; any read of a freshly written column would break
    # this.
    g = ring4()
    rng = np.random.default_rng(34)
    data = random_node_data(rng, 4, 4)
    state = NetworkState(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    tau = 0.07
    out = dista_odd_step(state, g, data, lam=0.3, tau=tau)
    X_rev = np.empty_like(state.X)
    for v in reversed(range(4)):
        x = state.X[:, v]
        cbar = mean_of_columns(state.C, list(g.neighbors[v]))
        arg = (x + cbar - tau * (data[v].Q @ x) - tau * data[v].phi) / 2.0
        X_rev[:, v] = soft_vector(arg, 0.3 * tau / 2.0)
    assert_relatively_close(out.X, X_rev, state.X, state.C)


def test_round_opens_with_communication():
    g = ring4()
    rng = np.random.default_rng(35)
    data = random_node_data(rng, 4, 4)
    state = NetworkState(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    out = odista_round(state, g, data, lam=0.2, tau=0.05, r=1)
    np.testing.assert_array_equal(out.X, state.X)
    np.testing.assert_array_equal(out.C, dista_even_step(state, g).C)


def test_round_of_two_is_even_then_odd():
    g = ring4()
    rng = np.random.default_rng(36)
    data = random_node_data(rng, 4, 4)
    state = NetworkState(rng.standard_normal((4, 4)), rng.standard_normal((4, 4)))
    out = odista_round(state, g, data, lam=0.2, tau=0.05, r=2)
    ref = dista_odd_step(dista_even_step(state, g), g, data, lam=0.2, tau=0.05)
    # the round reads W2 X where the steps read W (W X)
    assert_relatively_close(out.X, ref.X, state.X)
    np.testing.assert_array_equal(out.C, ref.C)
    with pytest.raises(ValueError):
        odista_round(state, g, data, lam=0.2, tau=0.05, r=0)


def test_half_steps_reject_non_finite_or_non_positive_steps_and_weights():
    g = ring4()
    rng = np.random.default_rng(47)
    data = random_node_data(rng, 3, 4)
    state = NetworkState(rng.standard_normal((3, 4)), rng.standard_normal((3, 4)))
    rounds = [lambda lam, tau: odista_round(state, g, data, lam, tau, 4),
              lambda lam, tau: odista_round(state, g, data, lam, tau, 1),
              lambda lam, tau: dista_odd_step(state, g, data, lam, tau)]
    for call in rounds:
        for tau in (np.inf, np.nan, 0.0, -0.1, [0.05, np.inf, 0.05, 0.05]):
            with pytest.raises(ValueError, match="step sizes"):
                call(0.2, tau)
        for lam in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam"):
                call(lam, 0.05)
    with pytest.raises(ValueError, match="step sizes"):
        theta_tau(data, np.inf)


# ---------------------------------------------------------------------------
# Fixed points and objectives
# ---------------------------------------------------------------------------

# Communication/descent pairs that carry these two networks from a cold
# start to a fixed point; the increment check below certifies it.
FIXED_POINT_PAIRS = 1000


def run_to_fixed_point(g, data, lam, tau, tol):
    """FIXED_POINT_PAIRS pairs from zeros, plus one pair whose X increment
    must stay within tol."""
    state = odista_round(NetworkState.zeros(data[0].n, g.n_nodes), g, data,
                         lam, tau, 2 * FIXED_POINT_PAIRS)
    nxt = odista_round(state, g, data, lam, tau, 2)
    assert float(np.linalg.norm(nxt.X - state.X)) <= tol
    return nxt


def test_batch_dista_reaches_network_objective_minimizer():
    g = ring4()
    rng = np.random.default_rng(37)
    data = random_node_data(rng, 6, 4)
    lam, tau = 0.1, 0.04
    state = run_to_fixed_point(g, data, lam, tau, tol=1e-13)
    lifted = lifted_network_problem(g, data, lam, [tau] * 4)
    x_lift, _ = oracle_minimizer(lifted)
    X_star = x_lift.reshape(4, 6).T
    np.testing.assert_allclose(state.X, X_star, atol=1e-8)


def test_batch_dista_consensus_on_consistent_data():
    # Nodes observing one common ground truth settle on near-identical
    # columns; heterogeneity, and with it the disagreement, scales with the
    # l1 weight and the measurement noise.
    g = ring4()
    rng = np.random.default_rng(38)
    x_true = np.array([1.0, -0.7, 0.4, 0.0, 0.0, 0.0])
    data = []
    for _ in range(4):
        A = rng.standard_normal((8, 6))
        y = A @ x_true + 1e-7 * rng.standard_normal(8)
        data.append(NodeData(Q=A.T @ A, phi=-A.T @ y))
    taus = [0.25 / nd.lambda_max for nd in data]
    state = run_to_fixed_point(g, data, 1e-5, taus, tol=1e-13)
    spread = max(np.linalg.norm(state.X[:, i] - state.X[:, j])
                 for i in range(4) for j in range(4))
    assert spread <= 1e-6


def test_global_objective_zero():
    g = ring4()
    data = [NodeData(Q=np.eye(3), phi=np.zeros(3)) for _ in range(4)]
    assert global_objective(np.zeros((3, 4)), g, data, 0.5, 0.1) == 0.0


def test_global_objective_consensus_reduces_to_sum_of_locals():
    g = ring4()
    rng = np.random.default_rng(40)
    data = random_node_data(rng, 5, 4)
    x = rng.standard_normal(5)
    X = np.tile(x[:, None], (1, 4))
    lam = 0.3
    expect = sum(0.5 * x @ (nd.Q @ x) + nd.phi @ x + lam * np.abs(x).sum()
                 for nd in data)
    assert global_objective(X, g, data, lam, 0.1) == pytest.approx(
        expect, rel=1e-12)


def test_global_objective_matches_direct_summation():
    g = ring4()
    rng = np.random.default_rng(41)
    data = random_node_data(rng, 5, 4)
    X = rng.standard_normal((5, 4))
    taus = [0.05, 0.1, 0.2, 0.08]
    got = global_objective(X, g, data, 0.3, taus)
    ref = direct_global_objective(X, [list(a) for a in g.neighbors],
                                  [nd.Q for nd in data],
                                  [nd.phi for nd in data], 0.3, taus)
    assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_surrogate_collapses_to_global_objective():
    g = ring4()
    rng = np.random.default_rng(42)
    data = random_node_data(rng, 5, 4)
    X = rng.standard_normal((5, 4))
    C = dista_even_step(NetworkState(X, np.zeros_like(X)), g).C
    tau = 0.05
    s = surrogate_objective(X, C, X, g, data, 0.3, tau)
    f = global_objective(X, g, data, 0.3, tau)
    assert s == pytest.approx(f, rel=1e-12, abs=1e-12)


def test_surrogate_zero_case():
    g = ring4()
    data = [NodeData(Q=np.eye(3), phi=np.zeros(3)) for _ in range(4)]
    Z = np.zeros((3, 4))
    assert surrogate_objective(Z, Z, Z, g, data, 0.5, 0.1) == 0.0


def test_surrogate_majorizes_global_objective():
    g = ring4()
    rng = np.random.default_rng(43)
    data = random_node_data(rng, 5, 4)
    tau = 0.5 / max(nd.lambda_max for nd in data)
    for _ in range(20):
        X = rng.standard_normal((5, 4))
        B = rng.standard_normal((5, 4))
        C = dista_even_step(NetworkState(X, np.zeros_like(X)), g).C
        s = surrogate_objective(X, C, B, g, data, 0.3, tau)
        f = global_objective(X, g, data, 0.3, tau)
        assert s >= f - 1e-12


def test_batch_descent_on_regular_graph():
    g = ring4()
    rng = np.random.default_rng(44)
    data = random_node_data(rng, 5, 4)
    tau = 0.5 / max(nd.lambda_max for nd in data)
    lam = 0.2
    state = NetworkState.zeros(5, 4)
    prev = global_objective(state.X, g, data, lam, tau)
    for _ in range(200):
        state = dista_odd_step(dista_even_step(state, g), g, data, lam, tau)
        cur = global_objective(state.X, g, data, lam, tau)
        assert cur <= prev + 1e-9
        prev = cur


def test_odista_step_timer_runs_a_descent_half_step():
    g = ring4()
    rng = np.random.default_rng(46)
    data = random_node_data(rng, 5, 4)
    step = odista_step_timer(g, data, 0.01, 0.1, 5)
    # each call continues one started round by the half-steps calibration
    # divides by, so k calls are the round of k times as many
    for calls in (1, 2, 3):
        got = step().state()
        # from the zero state a communication half-step alone leaves X at zero
        assert np.any(got.X != 0.0)
        ref = odista_round(NetworkState.zeros(5, 4), g, data, 0.01, 0.1,
                           calls * ODISTA_TIMED_HALF_STEPS)
        np.testing.assert_array_equal(got.X, ref.X)
        np.testing.assert_array_equal(got.C, ref.C)


def test_theta_tau_values():
    data = [NodeData(Q=np.eye(2), phi=np.zeros(2))]
    assert theta_tau(data, 0.5) == pytest.approx(0.25)
    data = [NodeData(Q=np.diag([1.0, 3.0]), phi=np.zeros(2)),
            NodeData(Q=np.eye(2), phi=np.zeros(2))]
    # worst node: ||I - 0.5 diag(1,3)||^2 = max(0.5, 0.5)^2
    assert theta_tau(data, 0.5) == pytest.approx(0.25)
    assert theta_tau(data, [1.0 / 3.0, 0.5]) < 1.0


def test_consensus_problem_aggregates_node_data():
    rng = np.random.default_rng(45)
    data = random_node_data(rng, 4, 3)
    p = consensus_problem(data, 0.1)
    np.testing.assert_allclose(p.Q, sum(nd.Q for nd in data))
    np.testing.assert_allclose(p.phi, sum(nd.phi for nd in data))
    assert p.lam == pytest.approx(0.3)


def test_node_data_validation_and_with_phi():
    with pytest.raises(ValueError):
        NodeData(Q=np.ones((2, 3)), phi=np.zeros(2))
    with pytest.raises(ValueError):
        NodeData(Q=np.array([[1.0, 0.5], [0.2, 1.0]]), phi=np.zeros(2))
    nd = NodeData(Q=np.eye(2), phi=np.zeros(2))
    other = nd.with_phi(np.array([1.0, 2.0]))
    assert other.Q is nd.Q
    np.testing.assert_array_equal(other.phi, [1.0, 2.0])
    with pytest.raises(ValueError):
        nd.with_phi(np.zeros(3))


def test_network_state_validation():
    with pytest.raises(ValueError):
        NetworkState(np.zeros((2, 3)), np.zeros((2, 4)))
    s = NetworkState.zeros(3, 5)
    assert s.X.shape == (3, 5) and s.C.shape == (3, 5)
