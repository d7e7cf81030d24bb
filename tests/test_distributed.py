"""Unit tests for the graph model and distributed solvers."""

import warnings

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stvo.core import ElasticNetData, QuadraticL1Problem
from stvo.distributed import (
    Graph,
    NetworkState,
    NodeData,
    OdistaRound,
    RowStack,
    odista_round,
    radius_graph,
    ring_graph,
    theta_tau,
)
from stvo.runner import (ODISTA_TIMED_HALF_STEPS, odista_step_timer,
                         play_odista)
from stvo.solvers import oracle_minimizer

from oracles import (
    assert_bitwise_equal,
    assert_relatively_close,
    column_local_means,
    consensus_problem,
    direct_global_objective,
    direct_odd_step,
    list_graph,
    mean_of_columns,
    soft_vector,
)


# derandomized, so that a rerun draws the same examples as every other test
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

seeds = st.integers(0, 2 ** 32 - 1)


def ring4():
    return ring_graph(4, 3)


def nodes_from_rows(rows, ys, ridge):
    """Node data dealing rows[v] and ys[v] to node v, every node adding the
    ridge: Q_v = rows[v]'rows[v] + ridge I and phi_v = -rows[v]'ys[v].  All
    rows[v] have one row count, so the partition deals them back exactly."""
    block = ElasticNetData(A=np.vstack(rows), y=np.concatenate(ys), lam=1.0,
                           mu=len(rows) * ridge)
    return RowStack(block, len(rows)).nodes(block.y)


def identity_nodes(n, n_nodes, y=None, ridge=1e-3):
    """Nodes with Q_v = I to rounding: rows sqrt(1 - ridge) I plus the ridge.
    y[v] is node v's measurement vector, zero by default."""
    rows = [np.sqrt(1.0 - ridge) * np.eye(n)] * n_nodes
    ys = [np.zeros(n)] * n_nodes if y is None else y
    return nodes_from_rows(rows, ys, ridge)


def random_node_data(rng, n, n_nodes, rows=3, ridge=0.05):
    A = [rng.standard_normal((rows, n)) for _ in range(n_nodes)]
    return nodes_from_rows(A, [rng.standard_normal(rows) for _ in A], ridge)


def neighbor_lists(g):
    return [list(a) for a in g.neighbors]


def lifted_network_problem(graph, data, lam, taus):
    """The network objective as one quadratic-plus-l1 in the stacked columns.

    The disagreement penalty is a quadratic form in X, so the whole
    objective reduces to the centralized container; its certified minimizer
    is an independent reference for the distributed fixed point.
    """
    V = graph.n_nodes
    n = data.phis.shape[1]
    K = np.zeros((V, V))
    for v in range(V):
        d_v = len(graph.neighbors[v])
        for w in graph.neighbors[v]:
            ell = np.zeros(V)
            for u in graph.neighbors[w]:
                ell[u] += 1.0 / len(graph.neighbors[w])
            ell[v] -= 1.0
            K += np.outer(ell, ell) / (d_v * taus[v])
    Q = scipy.linalg.block_diag(*[op.Q for op in data]) + np.kron(K, np.eye(n))
    phi = np.concatenate(data.phis)
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


def test_graph_equality_is_identity():
    # a field-by-field comparison would compare the adjacency arrays and
    # raise on their truth value
    g, h = ring_graph(4, 3), ring_graph(4, 3)
    assert g == g and not g != g
    assert g != h and not g == h
    assert len({g, h, g}) == 2


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


def adjacency_of(n_nodes, lists):
    """The boolean adjacency matrix with row v True on lists[v]."""
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    for v, nbrs in enumerate(lists):
        adj[v, np.asarray(nbrs, dtype=int)] = True
    return adj


def test_graph_validation():
    with pytest.raises(ValueError, match="symmetric"):
        Graph(adjacency_of(2, [[0, 1], [1]]))
    with pytest.raises(ValueError, match="node 0 has no self-loop"):
        Graph(adjacency_of(2, [[1], [0, 1]]))
    for shape in ((2, 3), (3,), (0, 0), (2, 2, 2)):
        with pytest.raises(ValueError, match="not a square matrix"):
            Graph(np.ones(shape, dtype=bool))
    g = Graph(adjacency_of(3, [[0, 1], [0, 1, 2], [1, 2]]))
    assert g.n_nodes == 3
    assert not g.regular
    assert g.degree is None


def assert_graph_is_the_list_build(n_nodes, lists):
    """Graph of the adjacency that lists spell out holds the fields of the
    list-based build bit for bit, or raises its error."""
    adj = adjacency_of(n_nodes, lists)
    try:
        nbrs, degrees, connected, W = list_graph(n_nodes, lists)
    except ValueError as exc:
        with pytest.raises(ValueError) as raised:
            Graph(adj)
        assert str(raised.value) == str(exc)
        return
    g = Graph(adj)
    assert g.n_nodes == n_nodes
    assert len(g.neighbors) == n_nodes
    for out, ref in zip(g.neighbors, nbrs):
        assert_bitwise_equal(out, ref)
    assert_bitwise_equal(g.degrees, degrees)
    assert g.connected is connected
    assert_bitwise_equal(g.W, W)
    assert_bitwise_equal(g.W2, W @ W)


@SETTINGS
@given(n_nodes=st.integers(1, 30), half=st.integers(0, 14))
def test_ring_graph_is_the_list_build(n_nodes, half):
    if 2 * half + 1 > n_nodes:
        return
    lists = [(v + np.arange(-half, half + 1)) % n_nodes
             for v in range(n_nodes)]
    assert_graph_is_the_list_build(n_nodes, lists)
    g = ring_graph(n_nodes, 2 * half + 1)
    assert_bitwise_equal(g.adjacency, adjacency_of(n_nodes, lists))
    assert_graph_is_the_list_build(n_nodes, g.neighbors)


@SETTINGS
@given(seed=seeds, n_nodes=st.integers(1, 30), radius=st.floats(0.0, 6.0))
# isolated nodes: every node its own component
@example(seed=0, n_nodes=20, radius=0.0)
def test_radius_graph_lists_are_the_list_build(seed, n_nodes, radius):
    pos = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n_nodes, 2))
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2))
    lists = [np.flatnonzero(dist[v] <= radius) for v in range(n_nodes)]
    assert_graph_is_the_list_build(n_nodes, lists)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        g = radius_graph(pos, radius)
    assert_bitwise_equal(g.adjacency, adjacency_of(n_nodes, lists))


@SETTINGS
@given(seed=seeds, n_nodes=st.integers(1, 16), edges=st.integers(0, 40),
       fault=st.sampled_from([None, "self", "one-way"]))
def test_graph_from_shuffled_lists_with_repeats_is_the_list_build(
        seed, n_nodes, edges, fault):
    rng = np.random.default_rng(seed)
    lists = [[v] for v in range(n_nodes)]
    for v, w in rng.integers(n_nodes, size=(edges, 2)):
        lists[v].append(int(w))
        lists[w].append(int(v))
    for nbrs in lists:
        nbrs.extend(rng.choice(nbrs, size=rng.integers(3)))
        rng.shuffle(nbrs)
    v = int(rng.integers(n_nodes))
    if fault == "self":
        lists[v] = [w for w in lists[v] if w != v]
    elif fault == "one-way" and n_nodes > 1:
        w = (v + 1) % n_nodes
        lists[w] = [x for x in lists[w] if x != v]
        lists[v].append(w)
    assert_graph_is_the_list_build(n_nodes, lists)


# ---------------------------------------------------------------------------
# Half-steps
# ---------------------------------------------------------------------------

def local_means(g, X):
    """The communication half-step's C: W times the node-major rows of X,
    handed back as (n, |V|) columns."""
    return (g.W @ X.T).T


def test_local_mean_consensus_fixed_point():
    g = ring4()
    c = np.array([1.0, -2.0, 0.5])
    X = np.tile(c[:, None], (1, 4))
    C = local_means(g, X)
    for v in range(4):
        np.testing.assert_allclose(C[:, v], c)


def test_local_mean_two_node_complete():
    g = ring_graph(2, 2)
    C = local_means(g, np.array([[0.0, 2.0]]))
    for v in range(2):
        np.testing.assert_allclose(C[:, v], [1.0])


def test_local_mean_matches_direct_summation():
    g = ring4()
    rng = np.random.default_rng(30)
    X = rng.standard_normal((5, 4))
    C = local_means(g, X)
    for v in range(4):
        assert_relatively_close(
            C[:, v], mean_of_columns(X, list(g.neighbors[v])), X)


def test_local_mean_rejects_bad_node():
    # a state with a row for node 9 on a four-node graph
    g = ring4()
    with pytest.raises((IndexError, ValueError)):
        odista_round(NetworkState.zeros(2, 10), g, identity_nodes(2, 4),
                     0.5, 0.1, 1)
    # and one of dimension 3 for nodes of dimension 2
    with pytest.raises(ValueError, match=r"not \(\|V\|, n\)"):
        odista_round(NetworkState.zeros(3, 4), g, identity_nodes(2, 4),
                     0.5, 0.1, 1)


def test_rounds_refuse_a_column_major_state():
    # three cells on four nodes: the (n, |V|) layout is not the (|V|, n) one
    g = ring4()
    data = identity_nodes(3, 4)
    state = NetworkState(np.zeros((3, 4)))
    with pytest.raises(ValueError, match=r"\(3, 4\) is not \(\|V\|, n\)"):
        odista_round(state, g, data, 0.5, 0.1, 2)
    with pytest.raises(ValueError, match=r"\(3, 4\) is not \(\|V\|, n\)"):
        OdistaRound(g, 0.5).start(data, 0.1, state)
    odista_round(NetworkState(state.X.T), g, data, 0.5, 0.1, 2)


def test_even_step_consensus_and_x_unchanged():
    g = ring4()
    rng = np.random.default_rng(31)
    c = rng.standard_normal(3)
    X = np.tile(c[:, None], (1, 4))
    state = NetworkState(X.T)
    out = odista_round(state, g, identity_nodes(3, 4), 0.5, 0.1, 1)
    # averaging identical columns is exact only up to rounding
    np.testing.assert_allclose(local_means(g, X), X, rtol=0.0, atol=1e-15)
    np.testing.assert_array_equal(out.X, state.X)


def test_even_step_matches_direct_means():
    g = ring4()
    rng = np.random.default_rng(32)
    X = rng.standard_normal((5, 4))
    assert_relatively_close(local_means(g, X),
                            column_local_means(X, neighbor_lists(g)), X)


def test_odd_step_zero_fixed_point_without_linear_terms():
    g = ring4()
    data = identity_nodes(3, 4)
    state = NetworkState.zeros(3, 4)
    out = odista_round(state, g, data, lam=0.5, tau=0.1, r=2)
    np.testing.assert_array_equal(out.X, np.zeros((4, 3)))


def test_odd_step_single_node_hand_case():
    # Q = 1 and phi = -3: x <- S_{0.25}[(0 + 0 - 0.5 (0 - 3)) / 2] = 0.5
    g = ring_graph(1, 1)
    ridge = 1e-3
    data = identity_nodes(1, 1, y=[np.array([3.0 / np.sqrt(1.0 - ridge)])],
                          ridge=ridge)
    state = NetworkState.zeros(1, 1)
    out = odista_round(state, g, data, lam=1.0, tau=0.5, r=2)
    np.testing.assert_allclose(out.X, [[0.5]])


def test_odd_step_matches_literal_transcription():
    g = ring4()
    rng = np.random.default_rng(33)
    data = random_node_data(rng, 5, 4)
    X = rng.standard_normal((5, 4))
    state = NetworkState(X.T)
    taus = [0.05, 0.08, 0.03, 0.06]
    # a pair communicates C = means of X, then descends from it; the
    # literal steps hold x_v in column v
    out = odista_round(state, g, data, lam=0.2, tau=taus, r=2)
    C = column_local_means(X, neighbor_lists(g))
    ref = direct_odd_step(X, C, neighbor_lists(g),
                          [op.Q for op in data], list(data.phis),
                          0.2, taus)
    assert_relatively_close(out.X.T, ref, X)


def test_odd_step_synchronous_reads_pre_step_state():
    # Updating nodes in reverse order over a frozen copy of the state must
    # give the same result; any read of a freshly written column would break
    # this.
    g = ring4()
    rng = np.random.default_rng(34)
    data = random_node_data(rng, 4, 4)
    X = rng.standard_normal((4, 4))
    state = NetworkState(X.T)
    tau = 0.07
    out = odista_round(state, g, data, lam=0.3, tau=tau, r=2)
    C = column_local_means(X, neighbor_lists(g))
    X_rev = np.empty_like(X)
    for v in reversed(range(4)):
        x = X[:, v]
        cbar = mean_of_columns(C, list(g.neighbors[v]))
        arg = (x + cbar - tau * (data.stack.ops[v].Q @ x)
               - tau * data.phis[v]) / 2.0
        X_rev[:, v] = soft_vector(arg, 0.3 * tau / 2.0)
    assert_relatively_close(out.X.T, X_rev, X)


def test_round_opens_with_communication():
    g = ring4()
    rng = np.random.default_rng(35)
    data = random_node_data(rng, 4, 4)
    state = NetworkState(rng.standard_normal((4, 4)))
    out = odista_round(state, g, data, lam=0.2, tau=0.05, r=1)
    np.testing.assert_array_equal(out.X, state.X)


def test_round_of_two_is_even_then_odd():
    g = ring4()
    rng = np.random.default_rng(36)
    data = random_node_data(rng, 4, 4)
    X = rng.standard_normal((4, 4))
    state = NetworkState(X.T)
    out = odista_round(state, g, data, lam=0.2, tau=0.05, r=2)
    C = column_local_means(X, neighbor_lists(g))
    ref = direct_odd_step(X, C, neighbor_lists(g),
                          [op.Q for op in data], list(data.phis),
                          0.2, [0.05] * 4)
    # the round reads W2 X where the literal steps fold the means twice
    assert_relatively_close(out.X.T, ref, X)
    with pytest.raises(ValueError):
        odista_round(state, g, data, lam=0.2, tau=0.05, r=0)


def test_half_steps_reject_non_finite_or_non_positive_steps_and_weights():
    g = ring4()
    rng = np.random.default_rng(47)
    data = random_node_data(rng, 3, 4)
    state = NetworkState(rng.standard_normal((3, 4)).T)
    rounds = [lambda lam, tau: odista_round(state, g, data, lam, tau, 4),
              lambda lam, tau: odista_round(state, g, data, lam, tau, 1),
              lambda lam, tau: odista_round(state, g, data, lam, tau, 2)]
    for call in rounds:
        for tau in (np.inf, np.nan, 0.0, -0.1, [0.05, np.inf, 0.05, 0.05]):
            with pytest.raises(ValueError, match="step sizes"):
                call(0.2, tau)
        for lam in (-1.0, 0.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="lam"):
                call(lam, 0.05)
    with pytest.raises(ValueError, match="step sizes"):
        theta_tau(data, np.inf)


def node_data_callers(g, state):
    """Every entry point that reads node data, as calls on one slice's
    NodeData, with a step size for each node of g."""
    tau = np.full(g.n_nodes, 0.05)
    return [
        lambda data: odista_round(state, g, data, 0.2, tau, 2),
        lambda data: OdistaRound(g, 0.2).start(data, tau, state),
        lambda data: theta_tau(data, tau),
    ]


def test_node_data_iterates_its_stack_operators_in_node_order():
    rng = np.random.default_rng(52)
    data = random_node_data(rng, 3, 4)
    assert len(data) == 4 and data.phis.shape == (4, 3)
    ops = list(data)
    assert len(ops) == 4
    assert all(op is want for op, want in zip(ops, data.stack.ops))


def test_short_node_lists_are_refused():
    g = ring4()
    rng = np.random.default_rng(50)
    data = random_node_data(rng, 3, 4)
    state = NetworkState(rng.standard_normal((3, 4)).T)
    for call in node_data_callers(g, state):
        call(data)
        with pytest.raises(ValueError):
            call(random_node_data(rng, 3, 3))
    # four nodes' data on a three-node graph
    g3 = ring_graph(3, 3)
    state3 = NetworkState(state.X[:3])
    for call in node_data_callers(g3, state3):
        with pytest.raises(ValueError):
            call(data)


def test_a_step_size_array_of_another_length_is_refused():
    g = ring4()
    rng = np.random.default_rng(47)
    data = random_node_data(rng, 3, 4)
    state = NetworkState(rng.standard_normal((3, 4)).T)
    with pytest.raises(ValueError, match="^3 step sizes for 4 nodes$"):
        theta_tau(data, [0.1] * 3)
    for tau in ([0.05] * 5, np.full((4, 1), 0.05)):
        with pytest.raises(ValueError, match="step sizes for 4 nodes"):
            odista_round(state, g, data, 0.2, tau, 2)
        with pytest.raises(ValueError, match="step sizes for 4 nodes"):
            OdistaRound(g, 0.2).start(data, tau, state)
    # one step size for every node is still a scalar
    assert theta_tau(data, 0.05) == theta_tau(data, [0.05] * 4)


def test_node_data_with_phis_of_another_shape_are_refused():
    g = ring4()
    rng = np.random.default_rng(49)
    data = random_node_data(rng, 3, 4)
    state = NetworkState(rng.standard_normal((3, 4)).T)
    for phis in (data.phis[:3], data.phis[:, :2], data.phis.T, data.phis[0]):
        for call in node_data_callers(g, state):
            with pytest.raises(ValueError, match="phis"):
                call(NodeData(data.stack, phis))


def test_plain_node_lists_are_refused():
    g = ring4()
    rng = np.random.default_rng(48)
    data = random_node_data(rng, 3, 4)
    state = NetworkState(rng.standard_normal((3, 4)).T)
    for plain in (list(data), list(zip(data, data.phis))):
        for call in node_data_callers(g, state):
            with pytest.raises(ValueError, match="must be a NodeData"):
                call(plain)


# ---------------------------------------------------------------------------
# Fixed points and objectives
# ---------------------------------------------------------------------------

# Communication/descent pairs that carry these two networks from a cold
# start to a fixed point; the increment check below certifies it.  On the
# first network the increment is about 3e-13 after 1000 pairs and at the
# rounding floor, about 3e-17, after 1500.
FIXED_POINT_PAIRS = 1500


def run_to_fixed_point(g, data, lam, tau, tol):
    """FIXED_POINT_PAIRS pairs from zeros, plus one pair whose X increment
    must stay within tol."""
    state = odista_round(NetworkState.zeros(data.phis.shape[1], g.n_nodes),
                         g, data, lam, tau, 2 * FIXED_POINT_PAIRS)
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
    X_star = x_lift.reshape(4, 6)
    np.testing.assert_allclose(state.X, X_star, atol=1e-8)


def test_batch_dista_consensus_on_consistent_data():
    # Nodes observing one common ground truth settle on near-identical
    # rows; heterogeneity, and with it the disagreement, scales with the
    # l1 weight and the measurement noise.
    g = ring4()
    rng = np.random.default_rng(38)
    x_true = np.array([1.0, -0.7, 0.4, 0.0, 0.0, 0.0])
    rows, ys = [], []
    for _ in range(4):
        A = rng.standard_normal((8, 6))
        rows.append(A)
        ys.append(A @ x_true + 1e-7 * rng.standard_normal(8))
    data = nodes_from_rows(rows, ys, 1e-12)
    taus = [0.25 / op.eig_extremes()[1] for op in data]
    state = run_to_fixed_point(g, data, 1e-5, taus, tol=1e-13)
    spread = max(np.linalg.norm(state.X[i] - state.X[j])
                 for i in range(4) for j in range(4))
    assert spread <= 1e-6


def global_objective(X, g, data, lam, tau):
    """The network objective of the node-major X, the direct summation."""
    return direct_global_objective(X.T, neighbor_lists(g),
                                   [op.Q for op in data],
                                   list(data.phis), lam,
                                   np.broadcast_to(tau, len(data)))


def test_global_objective_zero():
    g = ring4()
    data = identity_nodes(3, 4)
    assert global_objective(np.zeros((4, 3)), g, data, 0.5, 0.1) == 0.0


def test_global_objective_consensus_reduces_to_sum_of_locals():
    g = ring4()
    rng = np.random.default_rng(40)
    data = random_node_data(rng, 5, 4)
    x = rng.standard_normal(5)
    X = np.tile(x, (4, 1))
    lam = 0.3
    expect = sum(0.5 * x @ (op.Q @ x) + phi @ x + lam * np.abs(x).sum()
                 for op, phi in zip(data, data.phis))
    assert global_objective(X, g, data, lam, 0.1) == pytest.approx(
        expect, rel=1e-12)


def test_batch_descent_on_regular_graph():
    g = ring4()
    rng = np.random.default_rng(44)
    data = random_node_data(rng, 5, 4)
    tau = 0.5 / max(op.eig_extremes()[1] for op in data)
    lam = 0.2
    state = NetworkState.zeros(5, 4)
    prev = global_objective(state.X, g, data, lam, tau)
    for _ in range(200):
        state = odista_round(state, g, data, lam, tau, 2)
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


def test_play_odista_commits_the_row_mean_of_the_last_state():
    g = ring4()
    rng = np.random.default_rng(51)
    rows = [rng.standard_normal((3, 5)) for _ in range(4)]
    node_stream = [
        nodes_from_rows(rows, [rng.standard_normal(3) for _ in rows], 0.05)
        for _ in range(4)]
    taus = [np.full(4, 0.05)] * 4
    played = play_odista(node_stream, g, 0.01, taus, 4, 5)
    state = NetworkState.zeros(5, 4)
    for t, data in enumerate(node_stream):
        # row t is committed before slice t is revealed: the average of the
        # node rows x_v that round t - 1 returned
        np.testing.assert_array_equal(played.actions[t], state.X.mean(axis=0))
        state = odista_round(state, g, data, 0.01, taus[t], 4)
    np.testing.assert_array_equal(played.state.X, state.X)
    assert np.any(played.actions[1:] != 0.0)


def test_theta_tau_values():
    data = identity_nodes(2, 1)
    assert theta_tau(data, 0.5) == pytest.approx(0.25)
    # rows whose Gram plus the ridge is diag(1, 3), then I
    ridge = 1e-3
    rows = [np.diag(np.sqrt([1.0 - ridge, 3.0 - ridge])),
            np.sqrt(1.0 - ridge) * np.eye(2)]
    data = nodes_from_rows(rows, [np.zeros(2)] * 2, ridge)
    # worst node: ||I - 0.5 diag(1,3)||^2 = max(0.5, 0.5)^2
    assert theta_tau(data, 0.5) == pytest.approx(0.25)
    assert theta_tau(data, [1.0 / 3.0, 0.5]) < 1.0


def test_consensus_problem_aggregates_node_data():
    rng = np.random.default_rng(45)
    data = random_node_data(rng, 4, 3)
    p = consensus_problem(data, 0.1)
    np.testing.assert_allclose(p.Q, sum(op.Q for op in data))
    np.testing.assert_allclose(p.phi, sum(data.phis))
    assert p.lam == pytest.approx(0.3)


def test_network_state_validation():
    # the round that reads X refuses it
    for X in (np.zeros(3), np.zeros((4, 3, 4))):
        with pytest.raises(ValueError, match=r"is not \(\|V\|, n\)"):
            odista_round(NetworkState(X), ring4(), identity_nodes(3, 4),
                         0.5, 0.1, 2)
    s = NetworkState.zeros(3, 5)
    assert s.X.shape == (5, 3) and s.X.flags.c_contiguous


def test_network_state_zeros_is_node_major():
    # zeros(n, n_nodes) keeps its argument order and holds one row per node
    for n, n_nodes in ((6, 4), (1, 3), (4, 1)):
        X = NetworkState.zeros(n, n_nodes).X
        assert X.shape == (n_nodes, n)
        assert not np.any(X)
