"""Property tests: the round kernels against literal transcriptions.

The online rounds iterate on plain arrays and check their inputs once per
round.  The three rounds step one shared loop, an affine map and a clip per
iteration, the clip picked once per round by the size of the array it
clips; the rounds' chunks are checked on both sides of that rule.  odr
steps in z alone, y = 2 (Q + I)^{-1} (z - phi) - z, and oist
y = x - tau Q x.  A dense slice forms y by one
gemv, with B = 2P - I (P = (Q + I)^{-1}) or B = I - tau Q, a factored
slice through its factors.  Either sums in another order than the literal
steps, so the rounds are held to ``direct_dr_step`` and
``direct_oist_sweep`` within 1e-12 relative for up to 400 iterations on
both forms, and their chunks, step(0) and their ownership of the arrays
they step are checked bitwise on both, their independence of Q's memory
layout on dense slices.  The batched node products A_v'(A_v x_v) + mu_v x_v sum
in another order than the dense Q_v, and a factored slice operator solves
through the matrix inversion lemma, so both are held to the dense formulas
within 1e-12 relative.  The proximal map applies numpy's inverse of
Q + I, or of the lemma's m x m matrix, and is held to a Cholesky solve
within 1e-10 relative in norm.  The odista half-steps
take every neighborhood mean as one product with the graph's weight matrix
W, and a round runs each communication and descent pair as one map through
W2 = W @ W; they are held to the literal left folds and to the column-major
round within 1e-12 relative.  Node data comes only from a row partition,
and the dense (Q_v, phi_v) of its spec are the literal references.  A
prepared round stepped in chunks is the
one-shot round at their sum, bitwise, a round that ends on a communication
is bitwise the round one half-step shorter, and each call of a step timer
advances its round by exactly one iteration.  An odista round writes into
neither its caller's state nor a state it handed back, and its pairs
allocate less than one node-major X.  Its lifted pairs, one dense product
on vec(X), are held to the batched pairs within 1e-12 relative, and a
round whose pairs never lift is the batched round bitwise.
"""

import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stvo.core import (_CLIP_MAX, ElasticNetData, QuadraticL1Problem, _clip,
                       _max_min, elastic_net_problem, prox_quadratic)
from stvo.distributed import (
    LIFT_AFTER,
    LIFT_MAX,
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
from stvo.runner import (block_taus, odista_taus, odr_step_timer,
                         oist_step_timer, partition_stream, play_odista,
                         problems_from_blocks)
from stvo.scenarios import RssConfig, sensor_positions
from stvo.solvers import (DRState, OdrRound, OistRound, OnlineConfig,
                          initial_state, odr_round, oist_round,
                          oracle_minimizer)

from oracles import (
    assert_bitwise_equal,
    assert_relatively_close,
    column_local_means,
    column_odista_round,
    consensus_problem,
    direct_dr_step,
    direct_odd_step,
    direct_oist_sweep,
    direct_prox,
    loop_node_phis,
    mean_of_columns,
    padded_rows,
    per_block_problems,
    per_run_block_taus,
    per_run_odista_taus,
    per_run_partition,
    shared_runs,
    stack_column_products,
)

# derandomized, so that a rerun draws the same examples as every other test
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)

seeds = st.integers(0, 2 ** 32 - 1)
lams = st.floats(1e-3, 2.0)


def random_problem(rng, n, lam):
    M = rng.standard_normal((n, n))
    return QuadraticL1Problem(M @ M.T + 0.1 * np.eye(n),
                              rng.standard_normal(n), lam)


def random_graph(rng, n_nodes, max_degree):
    """Irregular symmetric graph, self-loops included, degrees <= max_degree."""
    nbrs = [{v} for v in range(n_nodes)]
    for _ in range(3 * n_nodes * max_degree):
        v, w = rng.integers(n_nodes, size=2)
        if len(nbrs[v]) < max_degree and len(nbrs[w]) < max_degree:
            nbrs[v].add(int(w))
            nbrs[w].add(int(v))
    adj = np.zeros((n_nodes, n_nodes), dtype=bool)
    for v, s in enumerate(nbrs):
        adj[v, sorted(s)] = True
    return Graph(adj)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 9), r=st.integers(1, 6), lam=lams)
def test_odr_round_is_chained_literal_steps(seed, n, r, lam):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, n, lam)
    z = 3.0 * rng.standard_normal(n)
    out = odr_round(DRState(rng.standard_normal(n), z), p, OnlineConfig(r=r))
    # the round first re-derives x from the carried z; a dense slice steps
    # lifted, in z alone
    x, z_ref = direct_prox(z, p.Q, p.phi), z
    for _ in range(r):
        x, z_ref = direct_dr_step(x, z_ref, p.Q, p.phi, lam)
    assert_relatively_close(out.x, x, z, p.phi)
    assert_relatively_close(out.z, z_ref, z, p.phi)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 9), r=st.integers(1, 6), lam=lams,
       step=st.floats(0.05, 0.95))
def test_oist_round_is_literal_sweeps(seed, n, r, lam, step):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, n, lam)
    tau = step / p.lambda_max
    x0 = rng.standard_normal(n)
    out = oist_round(x0, p, OnlineConfig(r=r, tau=tau))
    x = x0
    for _ in range(r):
        x = direct_oist_sweep(x, p.Q, p.phi, lam, tau)
    assert_relatively_close(out, x, x0, tau * p.phi)


def relative_gap(out, ref, *scales):
    """max |out - ref| over the largest magnitude among ref and scales."""
    scale = max(float(np.max(np.abs(a))) for a in (ref,) + scales)
    return float(np.max(np.abs(out - ref))) / scale


@SETTINGS
@given(seed=seeds, m=st.integers(1, 8), extra=st.integers(1, 16),
       log_mu=st.floats(-6.0, -1.0), log_lam=st.floats(-3.0, -1.0),
       r=st.integers(1, 6), step=st.floats(0.05, 0.95))
def test_factored_slice_operator_matches_the_dense_q(seed, m, extra, log_mu,
                                                     log_lam, r, step):
    rng = np.random.default_rng(seed)
    n = 2 * m + extra
    # columns over two decades of scale make Q = A'A + mu I ill-conditioned
    A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, n)
    y = rng.standard_normal(m)
    lam = 10.0 ** log_lam * float(np.max(np.abs(A.T @ y)))
    block = ElasticNetData(A=A, y=y, lam=lam, mu=10.0 ** log_mu)
    p = elastic_net_problem(block)
    d = QuadraticL1Problem(A.T @ A + block.mu * np.eye(n), p.phi, lam)
    assert p.op.factored and not d.op.factored
    tol = 1e-12
    z = 3.0 * rng.standard_normal(n)
    x = rng.standard_normal(n)
    assert relative_gap(prox_quadratic(z, p), prox_quadratic(z, d),
                        z, p.phi) <= tol
    norm = d.lambda_max
    assert np.max(np.abs(p.op.matvec(x) - d.op.matvec(x))) \
        <= tol * norm * np.max(np.abs(x))
    act = rng.random(n) < 0.5
    assert np.max(np.abs(p.op.block(act) - d.Q[np.ix_(act, act)]),
                  initial=0.0) <= tol * norm
    # sigma is mu exactly; the dense eigvalsh finds it to within rounding
    # of ||Q||, so both extremes are compared on that scale
    assert p.eig_extremes()[0] == block.mu
    assert np.max(np.abs(np.subtract(p.eig_extremes(), d.eig_extremes()))) \
        <= tol * norm
    assert abs(p.lambda_max - norm) <= tol * norm
    state = DRState(x, z)
    out = odr_round(state, p, OnlineConfig(r=r))
    ref = odr_round(state, d, OnlineConfig(r=r))
    assert relative_gap(out.x, ref.x, z, p.phi) <= tol
    assert relative_gap(out.z, ref.z, z, p.phi) <= tol
    cfg = OnlineConfig(r=r, tau=step / d.lambda_max)
    assert relative_gap(oist_round(x, p, cfg), oist_round(x, d, cfg),
                        x, cfg.tau * p.phi) <= tol
    x_star, z_star = oracle_minimizer(p)
    x_ref, z_ref = oracle_minimizer(d)
    assert relative_gap(x_star, x_ref, z_ref, p.phi) <= tol
    assert relative_gap(z_star, z_ref, x_ref, p.phi) <= tol
    # the dense Q is formed on first read, bitwise the elastic-net formula
    assert p.op._Q is None
    np.testing.assert_array_equal(p.Q, d.Q)
    assert p.Q is p.Q


@SETTINGS
@given(seed=seeds, m=st.integers(1, 12), n=st.integers(1, 24),
       r=st.integers(1, 6), step=st.floats(0.05, 0.95))
@example(seed=0, m=12, n=20, r=5, step=0.5)
def test_blocks_with_2m_at_least_n_keep_a_dense_operator_and_its_rounds(
        seed, m, n, r, step):
    rng = np.random.default_rng(seed)
    block = random_block(rng, m, n)
    p = elastic_net_problem(block)
    assert p.op.factored == (2 * m < n)
    if p.op.factored:
        return
    np.testing.assert_array_equal(p.Q, block.A.T @ block.A
                                  + block.mu * np.eye(n))
    z = 3.0 * rng.standard_normal(n)
    out = odr_round(DRState(rng.standard_normal(n), z), p, OnlineConfig(r=r))
    x, z_ref = direct_prox(z, p.Q, p.phi), z
    for _ in range(r):
        x, z_ref = direct_dr_step(x, z_ref, p.Q, p.phi, block.lam)
    assert_relatively_close(out.x, x, z, p.phi)
    assert_relatively_close(out.z, z_ref, z, p.phi)
    tau = step / p.lambda_max
    x = x0 = rng.standard_normal(n)
    for _ in range(r):
        x = direct_oist_sweep(x, p.Q, p.phi, block.lam, tau)
    assert_relatively_close(oist_round(x0, p, OnlineConfig(r=r, tau=tau)), x,
                            x0, tau * p.phi)


@SETTINGS
@given(seed=seeds, rows=st.integers(1, 6), n_nodes=st.integers(1, 16),
       max_degree=st.integers(1, 12))
# one row and degrees past 8
@example(seed=0, rows=1, n_nodes=16, max_degree=12)
def test_batched_means_are_left_folds_on_irregular_graphs(seed, rows, n_nodes,
                                                          max_degree):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_nodes, max_degree)
    X = rng.standard_normal((rows, n_nodes))
    # a communication's C is W times the node-major rows of X
    C = (g.W @ X.T).T
    for v in range(n_nodes):
        ref = mean_of_columns(X, list(g.neighbors[v]))
        assert_relatively_close(C[:, v], ref, X)


@SETTINGS
@given(seed=seeds, rows=st.integers(1, 6), n_nodes=st.integers(1, 12),
       max_degree=st.integers(1, 12), lam=lams)
@example(seed=0, rows=1, n_nodes=12, max_degree=12, lam=0.1)
def test_descent_matches_literal_transcription_on_irregular_graphs(
        seed, rows, n_nodes, max_degree, lam):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_nodes, max_degree)
    # two rows per node and the ridge 0.05: Q_v = A_v'A_v + 0.05 I
    block = ElasticNetData(A=rng.standard_normal((2 * n_nodes, rows)),
                           y=rng.standard_normal(2 * n_nodes), lam=1.0,
                           mu=0.05 * n_nodes)
    data = RowStack(block, n_nodes).nodes(block.y)
    Qs, phis = dense_nodes(block, n_nodes)
    taus = rng.uniform(0.01, 0.2, n_nodes)
    X = rng.standard_normal((rows, n_nodes))
    # a pair of half-steps carried on arrays is the two literal steps, which
    # hold x_v in column v
    pair = odista_round(NetworkState(X.T), g, data, lam, taus, 2)
    neighbor_lists = [list(a) for a in g.neighbors]
    ref = direct_odd_step(X, column_local_means(X, neighbor_lists),
                          neighbor_lists, Qs, phis, lam, taus)
    assert_relatively_close(pair.X.T, ref, X)


def random_block(rng, m, n):
    return ElasticNetData(A=rng.standard_normal((m, n)),
                          y=rng.standard_normal(m), lam=0.1, mu=0.05)


def dense_nodes(block, n_nodes):
    """The dense spec of RowStack(block, n_nodes).nodes(block.y):
    Q_v = A_v'A_v + mu_v I and phi_v = -A_v'y_v, as two lists."""
    mu_v = block.mu / n_nodes
    pairs = [(A_v.T @ A_v + mu_v * np.eye(block.n), -A_v.T @ y_v)
             for A_v, y_v in zip(np.array_split(block.A, n_nodes),
                                 np.array_split(block.y, n_nodes))]
    return [Q for Q, _ in pairs], [phi for _, phi in pairs]


def dense_column_products(Qs):
    """Column v of products(X) is Q_v x_v over the dense node data."""
    return lambda X: np.stack([Q @ x for Q, x in zip(Qs, X.T)], axis=1)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 9), n_nodes=st.integers(1, 12),
       extra_rows=st.integers(0, 14), max_degree=st.integers(1, 12),
       lam=lams, r=st.integers(1, 8), step=st.floats(0.05, 1.0))
# 7 rows over 3 nodes: array_split deals 3, 2, 2 and pads two slabs
@example(seed=0, n=5, n_nodes=3, extra_rows=4, max_degree=2, lam=0.1, r=6,
         step=1.0)
def test_factored_descent_matches_dense_node_data(seed, n, n_nodes, extra_rows,
                                                  max_degree, lam, r, step):
    rng = np.random.default_rng(seed)
    block = random_block(rng, n_nodes + extra_rows, n)
    g = random_graph(rng, n_nodes, max_degree)
    factored = RowStack(block, n_nodes).nodes(block.y)
    Qs, phis = dense_nodes(block, n_nodes)
    eigs = [np.linalg.eigvalsh(Q) for Q in Qs]
    taus = np.array([step / e[-1] for e in eigs])
    X = rng.standard_normal((n, n_nodes))
    state = NetworkState(X.T)
    neighbor_lists = [list(a) for a in g.neighbors]
    # the node operators answer from their own form: eigenvalues of the
    # k_v x k_v Gram matrix, A_v'(A_v x) + mu_v x
    for op, e in zip(factored, eigs):
        assert abs(op.eig_extremes()[1] - e[-1]) <= 1e-12 * e[-1]
    # theta is a max of (1 - tau lambda)^2 with tau lambda <= 1: the rounding
    # of 1 - tau lambda is on the scale of 1, so theta is held to 1e-12 on
    # the scale max(1, theta)
    theta = max(float(np.max((1.0 - t * e) ** 2)) for t, e in zip(taus, eigs))
    assert abs(theta_tau(factored, taus) - theta) <= 1e-12 * max(1.0, theta)
    pair = odista_round(state, g, factored, lam, taus, 2)
    assert_relatively_close(
        pair.X.T, direct_odd_step(X, column_local_means(X, neighbor_lists),
                                  neighbor_lists, Qs, phis, lam, taus), X)
    out = odista_round(state, g, factored, lam, taus, r)
    ref_X, _ = column_odista_round(X, neighbor_lists,
                                   dense_column_products(Qs), phis, lam,
                                   taus, r)
    assert_relatively_close(out.X.T, ref_X, X)


def column_round(state, graph, data, lam, taus, r):
    """The column-major reference round on a node partition's shared stack,
    run on the columns state.X.T; returns its X transposed back to
    node-major rows."""
    stack = data.stack
    X, _ = column_odista_round(
        state.X.T, [list(a) for a in graph.neighbors],
        stack_column_products(stack.A, stack.mu),
        list(data.phis), lam, taus, r)
    return X.T


def assert_node_major_layout(state, n, n_nodes):
    assert state.X.shape == (n_nodes, n) and state.X.flags.c_contiguous


@SETTINGS
@given(seed=seeds, n=st.integers(1, 12), n_nodes=st.integers(1, 12),
       extra_rows=st.integers(0, 14), max_degree=st.integers(1, 12),
       lam=lams, r=st.integers(1, 8), step=st.floats(0.05, 1.0))
# one row per node: the product is one BLAS dot per node
@example(seed=0, n=12, n_nodes=5, extra_rows=0, max_degree=3, lam=0.1, r=4,
         step=1.0)
# 7 rows over 3 nodes: array_split deals 3, 2, 2 and pads two slabs
@example(seed=0, n=5, n_nodes=3, extra_rows=4, max_degree=2, lam=0.1, r=5,
         step=1.0)
def test_node_major_round_is_the_column_major_round(
        seed, n, n_nodes, extra_rows, max_degree, lam, r, step):
    rng = np.random.default_rng(seed)
    block = random_block(rng, n_nodes + extra_rows, n)
    g = random_graph(rng, n_nodes, max_degree)
    data = RowStack(block, n_nodes).nodes(block.y)
    taus = np.array([step / op.eig_extremes()[1] for op in data])
    state = NetworkState(rng.standard_normal((n, n_nodes)).T)
    out = odista_round(state, g, data, lam, taus, r)
    X = column_round(state, g, data, lam, taus, r)
    assert_node_major_layout(out, n, n_nodes)
    assert_relatively_close(out.X, X, state.X)


@pytest.mark.parametrize("r", [7, 30])
def test_rss_shaped_rounds_and_actions_are_the_column_major_ones(r):
    rng = np.random.default_rng(11)
    cfg = RssConfig()
    g = radius_graph(sensor_positions(cfg), cfg.comm_radius_m)
    assert g.n_nodes == 36 and not g.regular
    A = rng.standard_normal((144, 625))
    blocks = [ElasticNetData(A=A, y=rng.standard_normal(144), lam=0.1,
                             mu=0.05) for _ in range(3)]
    node_stream = partition_stream(blocks, 36)
    assert node_stream[0].stack.A.shape == (36, 4, 625)
    taus = odista_taus(blocks, 36, "per_node")
    lam = 0.1 / 36
    played = play_odista(node_stream, g, lam, taus, r, 625)
    state = NetworkState.zeros(625, 36)
    for t, (data, tau) in enumerate(zip(node_stream, taus)):
        # the action is the network average of the (|V|, n) C-contiguous X
        # that the round returned
        np.testing.assert_array_equal(played.actions[t], state.X.mean(axis=0))
        X = column_round(state, g, data, lam, tau, r)
        out = odista_round(state, g, data, lam, tau, r)
        assert_node_major_layout(out, 625, 36)
        assert_relatively_close(out.X, X, state.X)
        state = out
    np.testing.assert_array_equal(played.state.X, state.X)


# chunk sizes of a prepared round: the first at least one, later ones
# possibly zero
chunk_lists = st.builds(lambda first, rest: [first] + rest, st.integers(1, 6),
                        st.lists(st.integers(0, 6), max_size=3))


@SETTINGS
@given(seed=seeds, m=st.integers(1, 8), n=st.integers(1, 16),
       chunks=chunk_lists, step=st.floats(0.05, 0.95))
# factored (2m < n) and dense operators, on either side of the size rule
# of the rounds' clip
@example(seed=0, m=2, n=12, chunks=[3, 0, 4], step=0.5)
@example(seed=0, m=8, n=5, chunks=[1, 6], step=0.5)
@example(seed=0, m=2, n=_CLIP_MAX + 1, chunks=[3, 0, 4], step=0.5)
@example(seed=0, m=_CLIP_MAX // 2 + 1, n=_CLIP_MAX + 1, chunks=[1, 6],
         step=0.5)
def test_odr_and_oist_rounds_stepped_in_chunks_are_the_one_shot_rounds(
        seed, m, n, chunks, step):
    rng = np.random.default_rng(seed)
    p = elastic_net_problem(random_block(rng, m, n))
    state = DRState(rng.standard_normal(n), 3.0 * rng.standard_normal(n))
    tau = step / p.lambda_max
    x0 = rng.standard_normal(n)
    odr = OdrRound().start(p, state.z)
    oist = OistRound().start(p, tau, x0)
    done = 0
    for k in chunks:
        done += k
        out = odr.step(k).state()
        ref = odr_round(state, p, OnlineConfig(r=done))
        np.testing.assert_array_equal(out.x, ref.x)
        np.testing.assert_array_equal(out.z, ref.z)
        np.testing.assert_array_equal(
            oist.step(k).state(),
            oist_round(x0, p, OnlineConfig(r=done, tau=tau)))


# The proximal data is numpy's inverse of Q + I (dense) or of the m x m G
# (factored, H = G^{-1}A), not a Cholesky solve, so the prox is held to the
# Cholesky reference in norm: the solve's relative error grows with the
# condition number of Q + I, at most 1 + 1e4 / (1 + mu) here, and read up
# to 5.3e-13 over 4000 seeded operators drawn as below.
PROX_RTOL = 1e-10


@SETTINGS
@given(seed=seeds, n=st.integers(1, 40), m=st.integers(1, 40),
       factored=st.booleans(), norm=st.floats(1e-2, 1e2),
       mu=st.floats(1e-6, 10.0), chunks=chunk_lists)
@example(seed=0, n=40, m=1, factored=True, norm=1e2, mu=1e-6,
         chunks=[3, 0, 4])
@example(seed=0, n=40, m=1, factored=False, norm=1e2, mu=1e-6,
         chunks=[1, 6])
def test_numpy_prox_is_the_cholesky_solve_and_odr_chunks_stay_bitwise(
        seed, n, m, factored, norm, mu, chunks):
    # factored: m rows and 2m + n > 2m columns; dense: n <= 40 columns and
    # at least n / 2 rows
    shape = (m, 2 * m + n) if factored else ((n + 1) // 2 + m - 1, n)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal(shape)
    A *= norm / np.linalg.norm(A, 2)
    p = elastic_net_problem(ElasticNetData(A=A, y=rng.standard_normal(shape[0]),
                                           lam=0.1, mu=mu))
    assert p.op.factored == factored
    z = 3.0 * rng.standard_normal(p.n)
    ref = direct_prox(z, p.Q, p.phi)
    assert (np.linalg.norm(prox_quadratic(z, p) - ref)
            <= PROX_RTOL * np.linalg.norm(ref))
    rnd = OdrRound().start(p, z)
    done = 0
    for k in chunks:
        done += k
        rnd.step(k)
        once = OdrRound().start(p, z).step(done)
        assert_bitwise_equal(rnd.z, once.z)
        assert_bitwise_equal(rnd.x, once.x)


# chunks of a lifted round: up to 400 iterations in all, zero-length ones
# among them
lifted_chunk_lists = st.lists(st.integers(0, 200), min_size=1, max_size=3)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 12), lam=lams, chunks=lifted_chunk_lists,
       step=st.floats(0.05, 0.95), factored=st.booleans())
# the ARX size at the benchmark's r = 400, dense and factored
@example(seed=0, n=20, lam=0.1, chunks=[200, 0, 200], step=0.95,
         factored=False)
@example(seed=0, n=20, lam=0.1, chunks=[200, 0, 200], step=0.95,
         factored=True)
def test_lifted_rounds_are_the_literal_steps_and_the_one_shot_rounds(
        seed, n, lam, chunks, step, factored):
    rng = np.random.default_rng(seed)
    if factored:
        # the most rows that keep 2m < n, on at least three columns
        n = max(n, 3)
        m = (n - 1) // 2
        p = elastic_net_problem(ElasticNetData(
            A=rng.standard_normal((m, n)), y=rng.standard_normal(m), lam=lam,
            mu=0.05))
    else:
        p = random_problem(rng, n, lam)
    assert p.op.factored == factored
    tau = step / p.lambda_max
    z, x0 = 3.0 * rng.standard_normal(n), rng.standard_normal(n)
    z_in, x0_in = z.copy(), x0.copy()
    odr, oist = OdrRound().start(p, z), OistRound().start(p, tau, x0)
    # step(0) moves neither round
    odr_0, oist_0 = odr.state(), oist.state()
    assert_bitwise_equal(odr.step(0).state().z, z)
    assert_bitwise_equal(odr.state().x, odr_0.x)
    assert_bitwise_equal(oist.step(0).state(), x0)
    # the lifted rounds agree with the literal steps to rounding; chunks are
    # the one-shot rounds
    x_ref, z_ref = direct_prox(z, p.Q, p.phi), z
    xo_ref, done = x0, 0
    for k in chunks:
        odr.step(k)
        oist.step(k)
        for _ in range(k):
            x_ref, z_ref = direct_dr_step(x_ref, z_ref, p.Q, p.phi, lam)
            xo_ref = direct_oist_sweep(xo_ref, p.Q, p.phi, lam, tau)
        done += k
        out, xo = odr.state(), oist.state()
        assert_relatively_close(out.x, x_ref, z, p.phi)
        assert_relatively_close(out.z, z_ref, z, p.phi)
        assert_relatively_close(xo, xo_ref, x0, tau * p.phi)
        if done:
            ref = odr_round(DRState(x0, z), p, OnlineConfig(r=done))
            assert_bitwise_equal(out.x, ref.x)
            assert_bitwise_equal(out.z, ref.z)
            assert_bitwise_equal(
                xo, oist_round(x0, p, OnlineConfig(r=done, tau=tau)))
    # neither the caller's arrays nor the states handed back were written
    assert_bitwise_equal(z, z_in)
    assert_bitwise_equal(x0, x0_in)
    assert_bitwise_equal(odr_0.z, z_in)
    assert_bitwise_equal(oist_0, x0_in)


@SETTINGS
# n >= 2: a 1 x 1 Q is C-contiguous in any layout
@given(seed=seeds, n=st.integers(2, 12), r=st.integers(1, 20), lam=lams,
       step=st.floats(0.05, 0.95), layout=st.sampled_from(["F", "strided"]))
def test_lifted_rounds_take_q_in_any_memory_layout(seed, n, r, lam, step,
                                                   layout):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, n, lam)
    if layout == "F":
        Q = np.asfortranarray(p.Q)
    else:
        big = np.zeros((2 * n, 2 * n))
        big[::2, ::2] = p.Q
        Q = big[::2, ::2]
    q = QuadraticL1Problem(Q, p.phi, lam)
    assert not q.op.factored and not q.Q.flags.c_contiguous
    tau = step / p.lambda_max
    z, x0 = 3.0 * rng.standard_normal(n), rng.standard_normal(n)
    ref = odr_round(DRState(x0, z), p, OnlineConfig(r=r))
    out = odr_round(DRState(x0, z), q, OnlineConfig(r=r))
    assert_bitwise_equal(out.x, ref.x)
    assert_bitwise_equal(out.z, ref.z)
    cfg = OnlineConfig(r=r, tau=tau)
    assert_bitwise_equal(oist_round(x0, q, cfg), oist_round(x0, p, cfg))


# chunks of an odista round, each up to 2 LIFT_AFTER + 1 half-steps, so
# that many lists run a lifted pair and some cross the switch in a chunk
odista_chunk_lists = st.builds(
    lambda first, rest: [first] + rest, st.integers(1, 2 * LIFT_AFTER + 1),
    st.lists(st.integers(0, 2 * LIFT_AFTER + 1), max_size=3))


@SETTINGS
@given(seed=seeds, n=st.integers(1, 12), n_nodes=st.integers(1, 8),
       extra_rows=st.integers(0, 10), max_degree=st.integers(1, 8),
       lam=lams, chunks=odista_chunk_lists, step=st.floats(0.05, 1.0))
# odd chunks, so that chunks end on a communication
@example(seed=0, n=5, n_nodes=3, extra_rows=4, max_degree=2, lam=0.1,
         chunks=[1, 3, 1, 2], step=1.0)
# odd chunks across the switch: pair LIFT_AFTER runs inside the second one
@example(seed=0, n=12, n_nodes=5, extra_rows=3, max_degree=3, lam=0.1,
         chunks=[2 * LIFT_AFTER - 1, 3, 0, 5], step=1.0)
# 36 nodes of degree at most 5, as on the rss sensor graph: |V| n = 432 is
# past the clip's size rule, and batched pairs alone run
@example(seed=0, n=12, n_nodes=36, extra_rows=10, max_degree=5, lam=0.1,
         chunks=[2 * LIFT_AFTER - 1, 3, 0, 5], step=1.0)
def test_odista_rounds_stepped_in_chunks_are_the_one_shot_round(
        seed, n, n_nodes, extra_rows, max_degree, lam, chunks, step):
    rng = np.random.default_rng(seed)
    block = random_block(rng, n_nodes + extra_rows, n)
    g = random_graph(rng, n_nodes, max_degree)
    data = RowStack(block, n_nodes).nodes(block.y)
    taus = np.array([step / op.eig_extremes()[1] for op in data])
    state = NetworkState(rng.standard_normal((n, n_nodes)).T)
    rnd = OdistaRound(g, lam).start(data, taus, state)
    done = 0
    for k in chunks:
        done += k
        out = rnd.step(k).state()
        ref = odista_round(state, g, data, lam, taus, done)
        np.testing.assert_array_equal(out.X, ref.X)
        # G exists once a lifted pair has run, on |V| n <= LIFT_MAX cells:
        # on all drawn networks, at most 96 cells, and not on the 432 above
        lifts = n_nodes * n <= LIFT_MAX
        assert (rnd._lifted is not None) == (lifts and done // 2 > LIFT_AFTER)


def batched_round(state, graph, data, lam, taus, r):
    """:func:`odista_round` with every pair in the batched form: rounds of
    at most LIFT_AFTER pairs, which never lift, chained.  A pair reads X
    alone, so the chain is the one round of r half-steps."""
    for _ in range(r // (2 * LIFT_AFTER)):
        state = odista_round(state, graph, data, lam, taus, 2 * LIFT_AFTER)
    rest = r % (2 * LIFT_AFTER)
    return odista_round(state, graph, data, lam, taus, rest) if rest else state


@SETTINGS
@given(seed=seeds, n=st.integers(1, 12), n_nodes=st.integers(1, 12),
       extra_rows=st.integers(0, 10), max_degree=st.integers(1, 12),
       lam=lams, r=st.integers(1, 6 * LIFT_AFTER + 1),
       step=st.floats(0.05, 1.0))
# the first odd r that runs a lifted pair, and the last that runs none
@example(seed=0, n=12, n_nodes=12, extra_rows=2, max_degree=5, lam=0.1,
         r=2 * LIFT_AFTER + 3, step=1.0)
@example(seed=0, n=12, n_nodes=12, extra_rows=2, max_degree=5, lam=0.1,
         r=2 * LIFT_AFTER + 1, step=1.0)
def test_lifted_rounds_are_the_batched_rounds(
        seed, n, n_nodes, extra_rows, max_degree, lam, r, step):
    # irregular graphs, per-node steps, |V| n <= 144 <= LIFT_MAX
    rng = np.random.default_rng(seed)
    block = random_block(rng, n_nodes + extra_rows, n)
    g = random_graph(rng, n_nodes, max_degree)
    data = RowStack(block, n_nodes).nodes(block.y)
    taus = np.array([step / op.eig_extremes()[1] for op in data])
    state = NetworkState(rng.standard_normal((n, n_nodes)).T)
    out = odista_round(state, g, data, lam, taus, r)
    ref = batched_round(state, g, data, lam, taus, r)
    if r // 2 <= LIFT_AFTER:
        np.testing.assert_array_equal(out.X, ref.X)
    else:
        assert_relatively_close(out.X, ref.X, state.X)


# a ring of four with 40 taps is LIFT_MAX cells, a ring of seven with 23
# one more
@pytest.mark.parametrize("n_nodes, n", [(4, 40), (7, 23), (1, 160), (1, 161)])
def test_rounds_lift_only_after_lift_after_pairs_on_at_most_lift_max_cells(
        n_nodes, n):
    assert {4 * 40, 7 * 23} == {LIFT_MAX, LIFT_MAX + 1}
    rng = np.random.default_rng(16)
    g = ring_graph(n_nodes, min(3, n_nodes))
    block = random_block(rng, 2 * n_nodes, n)
    data = RowStack(block, n_nodes).nodes(block.y)
    tau = odista_taus([block], n_nodes, "per_node")[0]
    lam = block.lam / n_nodes
    state = NetworkState(rng.standard_normal((n, n_nodes)).T)
    rnd = OdistaRound(g, lam).start(data, tau, state)
    # a round of LIFT_AFTER pairs, and its trailing communication, builds
    # no G and is the batched round bitwise
    for r in (2 * LIFT_AFTER, 2 * LIFT_AFTER + 1):
        np.testing.assert_array_equal(
            rnd.step(r - rnd._done).state().X,
            batched_round(state, g, data, lam, tau, r).X)
        assert rnd._lifted is None
    out = rnd.step(3).state()
    ref = batched_round(state, g, data, lam, tau, 2 * LIFT_AFTER + 4)
    if n_nodes * n <= LIFT_MAX:
        assert rnd._lifted is not None
        assert_relatively_close(out.X, ref.X, state.X)
    else:
        assert rnd._lifted is None
        np.testing.assert_array_equal(out.X, ref.X)


# each side of the size rule, by the size of the array a round clips: 20
# (odr and oist at the arx n), the rule's edge and one cell past it; the
# odista round clips its |V| n = 4 n cells
@pytest.mark.parametrize("n", [5, _CLIP_MAX // 4, _CLIP_MAX // 4 + 1])
def test_rounds_pick_their_clip_once_by_size(n):
    rng = np.random.default_rng(19)
    p = elastic_net_problem(random_block(rng, 12, 4 * n))
    block = random_block(rng, 12, n)
    data = RowStack(block, 4).nodes(block.y)
    tau = odista_taus([block], 4, "per_node")[0]
    rounds = (OdrRound().start(p, np.zeros(4 * n)),
              OistRound().start(p, 0.5 / p.lambda_max, np.zeros(4 * n)),
              OdistaRound(ring_graph(4, 3), 0.025).start(
                  data, tau, NetworkState.zeros(n, 4)))
    for rnd in rounds:
        assert rnd._clip is (_clip if 4 * n <= _CLIP_MAX else _max_min)


def test_prepared_rounds_refuse_a_negative_step():
    rng = np.random.default_rng(17)
    block = random_block(rng, 12, 20)
    p = elastic_net_problem(block)
    g, data = ring_graph(4, 3), RowStack(block, 4).nodes(block.y)
    tau = odista_taus([block], 4, "per_node")[0]
    state = NetworkState(rng.standard_normal((20, 4)).T)
    odr = OdrRound().start(p, np.zeros(20))
    oist = OistRound().start(p, 0.5 / p.lambda_max, np.zeros(20))
    odista = OdistaRound(g, 0.025).start(data, tau, state)
    for rnd in (odr, oist, odista):
        with pytest.raises(ValueError, match="k must be >= 0, got -3"):
            rnd.step(-3)
    # a refused call moves no round: the odista half-step count keeps its
    # parity, so the next four half-steps are two whole pairs
    np.testing.assert_array_equal(
        odr.step(1).state().x,
        odr_round(initial_state(20), p, OnlineConfig(r=1)).x)
    np.testing.assert_array_equal(
        oist.step(1).state(),
        oist_round(np.zeros(20), p, OnlineConfig(r=1, tau=0.5 / p.lambda_max)))
    np.testing.assert_array_equal(
        odista.step(4).state().X,
        odista_round(state, g, data, 0.025, tau, 4).X)


@pytest.mark.parametrize("chunks", [[1, 29], [7, 8, 0, 15], [2, 3, 5]])
def test_rss_shaped_odista_rounds_stepped_in_chunks_are_the_one_shot_round(
        chunks):
    rng = np.random.default_rng(12)
    cfg = RssConfig()
    g = radius_graph(sensor_positions(cfg), cfg.comm_radius_m)
    block = ElasticNetData(A=rng.standard_normal((144, 625)),
                           y=rng.standard_normal(144), lam=0.1, mu=0.05)
    data = RowStack(block, 36).nodes(block.y)
    tau = odista_taus([block], 36, "per_node")[0]
    state = NetworkState(rng.standard_normal((625, 36)).T)
    rnd = OdistaRound(g, 0.1 / 36).start(data, tau, state)
    for k in chunks:
        rnd.step(k)
    out = rnd.state()
    ref = odista_round(state, g, data, 0.1 / 36, tau, sum(chunks))
    np.testing.assert_array_equal(out.X, ref.X)


def odista_inputs(rng, shape):
    """Graph, block, node data and step sizes of an odista round: one cell
    (n = 1) on the ring of four, one node (|V| = 1), the arx partition, 12
    rows of 20 taps on the ring of four, or the rss partition, 144 rows of
    625 cells on the 36-sensor graph."""
    if shape == "one cell":
        g, m, n = ring_graph(4, 3), 8, 1
    elif shape == "one node":
        g, m, n = ring_graph(1, 1), 3, 5
    elif shape == "arx":
        g, m, n = ring_graph(4, 3), 12, 20
    else:
        cfg = RssConfig()
        g = radius_graph(sensor_positions(cfg), cfg.comm_radius_m)
        m, n = 144, 625
    block = random_block(rng, m, n)
    data = RowStack(block, g.n_nodes).nodes(block.y)
    return g, block, data, odista_taus([block], g.n_nodes, "per_node")[0]


# a round copies its caller's X on every shape, one cell (n = 1) and one
# node (|V| = 1) included; the later steps run lifted pairs on all shapes
# but rss
@pytest.mark.parametrize("shape", ["one cell", "one node", "arx", "rss"])
def test_odista_rounds_never_alias_caller_or_returned_states(shape):
    rng = np.random.default_rng(14)
    g, block, data, tau = odista_inputs(rng, shape)
    lam = block.lam / g.n_nodes
    phis = data.phis.copy()
    X0 = rng.standard_normal((block.n, g.n_nodes)).T
    state = NetworkState(X0.copy())
    rnd = OdistaRound(g, lam).start(data, tau, state)
    np.testing.assert_array_equal(state.X, X0)
    mid = rnd.step(4).state()
    mid_X = mid.X.copy()
    end_X = rnd.step(2 * LIFT_AFTER).state().X
    # the later steps moved the round, and wrote into none of its inputs
    # nor into the state it handed back
    assert not np.array_equal(end_X, mid_X)
    np.testing.assert_array_equal(state.X, X0)
    np.testing.assert_array_equal(mid.X, mid_X)
    np.testing.assert_array_equal(data.phis, phis)
    # the one-shot round leaves its input as it is too
    odista_round(state, g, data, lam, tau, 10)
    np.testing.assert_array_equal(state.X, X0)


def test_rss_odista_pairs_allocate_less_than_one_node_major_array():
    rng = np.random.default_rng(15)
    g, block, data, tau = odista_inputs(rng, "rss")
    rnd = OdistaRound(g, block.lam / 36).start(
        data, tau, NetworkState(rng.standard_normal((625, 36)).T))
    tracemalloc.start()
    try:
        rnd.step(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (|V|, n) array is 36 * 625 doubles, 176 KiB
    assert peak < 36 * 625 * 8


def test_lifted_odista_pairs_allocate_less_than_one_node_major_array():
    rng = np.random.default_rng(18)
    g, block, data, tau = odista_inputs(rng, "arx")
    rnd = OdistaRound(g, block.lam / 4).start(
        data, tau, NetworkState(rng.standard_normal((20, 4)).T))
    rnd.step(2 * LIFT_AFTER + 2)
    assert rnd._lifted is not None
    tracemalloc.start()
    try:
        rnd.step(20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one (|V|, n) array is 4 * 20 doubles, 640 bytes
    assert peak < 4 * 20 * 8


@pytest.mark.parametrize("shape", ["arx", "rss"])
def test_a_round_ending_on_a_communication_is_the_round_before_it(shape):
    # the arx block is 12 rows of 20 taps on the ring of four, the rss
    # block 144 rows of 625 cells on the 36-sensor graph
    rng = np.random.default_rng(13)
    if shape == "arx":
        g, m, n = ring_graph(4, 3), 12, 20
    else:
        cfg = RssConfig()
        g = radius_graph(sensor_positions(cfg), cfg.comm_radius_m)
        m, n = 144, 625
    block = random_block(rng, m, n)
    data = RowStack(block, g.n_nodes).nodes(block.y)
    tau = odista_taus([block], g.n_nodes, "per_node")[0]
    lam = block.lam / g.n_nodes
    state = NetworkState(rng.standard_normal((n, g.n_nodes)).T)

    def round_x(r):
        return odista_round(state, g, data, lam, tau, r).X if r else state.X

    # the communication an odd r ends on leaves X as the r - 1 round left it
    for r in (1, 3, 5, 7):
        np.testing.assert_array_equal(round_x(r), round_x(r - 1))
    # and so does one that ends a chunk of a prepared round
    rnd = OdistaRound(g, lam).start(data, tau, state)
    done = 0
    for k in (3, 2, 4, 1, 1):
        done += k
        np.testing.assert_array_equal(rnd.step(k).state().X,
                                      round_x(done - done % 2))


@SETTINGS
@given(seed=seeds, m=st.integers(1, 8), n=st.integers(1, 16),
       calls=st.integers(1, 6), step=st.floats(0.05, 0.95))
@example(seed=0, m=2, n=12, calls=4, step=0.5)
@example(seed=0, m=8, n=5, calls=4, step=0.5)
def test_each_step_timer_call_is_one_more_iteration(seed, m, n, calls, step):
    rng = np.random.default_rng(seed)
    p = elastic_net_problem(random_block(rng, m, n))
    tau = step / p.lambda_max
    odr, oist = odr_step_timer(p), oist_step_timer(p, tau)
    z = np.zeros(n)
    x_ref, x = direct_prox(z, p.Q, p.phi), np.zeros(n)
    # the timer's round steps in z alone, the literal step from (x, z)
    for _ in range(calls):
        x_ref, z = direct_dr_step(x_ref, z, p.Q, p.phi, p.lam)
        out = odr().state()
        assert_relatively_close(out.x, x_ref, p.phi)
        assert_relatively_close(out.z, z, p.phi)
        x = oist_round(x, p, OnlineConfig(r=1, tau=tau))
        np.testing.assert_array_equal(oist().state(), x)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 12), n_nodes=st.integers(1, 12),
       extra_rows=st.integers(0, 6), max_degree=st.integers(1, 12),
       lam=lams, step=st.floats(0.05, 1.0), sensor=st.booleans())
# the 36-node rss sensor graph, degrees 3-5
@example(seed=0, n=7, n_nodes=1, extra_rows=2, max_degree=1, lam=0.01,
         step=0.9, sensor=True)
def test_weight_matrix_and_pair_map_match_the_literal_rounds(
        seed, n, n_nodes, extra_rows, max_degree, lam, step, sensor):
    rng = np.random.default_rng(seed)
    if sensor:
        cfg = RssConfig()
        g = radius_graph(sensor_positions(cfg), cfg.comm_radius_m)
        n_nodes = g.n_nodes
    else:
        g = random_graph(rng, n_nodes, max_degree)
    W = g.W
    # one weight rule: row v is 1/d_v on exactly N_v, and W2 is W @ W
    assert np.all(np.abs(W.sum(axis=1) - 1.0)
                  <= g.degrees * np.finfo(float).eps)
    for v in range(n_nodes):
        np.testing.assert_array_equal(np.flatnonzero(W[v]), g.neighbors[v])
    np.testing.assert_array_equal(g.W2, W @ W)
    block = random_block(rng, n_nodes + extra_rows, n)
    neighbor_lists = [list(a) for a in g.neighbors]
    data = RowStack(block, n_nodes).nodes(block.y)
    Qs, phis = dense_nodes(block, n_nodes)
    taus = np.array([step / np.linalg.eigvalsh(Q)[-1] for Q in Qs])
    state = NetworkState(rng.standard_normal((n, n_nodes)).T)
    stack = data.stack
    # the kernel against the column-major round on either product rule
    for products in (stack_column_products(stack.A, stack.mu),
                     dense_column_products(Qs)):
        for r in range(1, 10):
            out = odista_round(state, g, data, lam, taus, r)
            X, _ = column_odista_round(state.X.T, neighbor_lists, products,
                                       phis, lam, taus, r)
            assert_relatively_close(out.X.T, X, state.X.T)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 24), n_nodes=st.integers(1, 8),
       extra_rows=st.integers(0, 10))
def test_consensus_q_of_a_partition_is_the_node_sum_without_dense_q_v(
        seed, n, n_nodes, extra_rows):
    rng = np.random.default_rng(seed)
    block = random_block(rng, n_nodes + extra_rows, n)
    nodes = RowStack(block, n_nodes).nodes(block.y)
    Qs, phis = dense_nodes(block, n_nodes)
    p = consensus_problem(nodes, 0.1)
    # the padded rows' A'A sums in another order than the Q_v
    ref = sum(Qs)
    assert np.max(np.abs(p.Q - ref)) <= 1e-12 * np.max(np.abs(ref))
    np.testing.assert_array_equal(p.phi, sum(phis))
    assert p.lam == n_nodes * 0.1
    # a factored node operator is still unformed
    assert all(op._Q is None for op in nodes if op.factored)


@SETTINGS
@given(seed=seeds, n=st.integers(1, 12), n_nodes=st.integers(1, 8),
       extra_rows=st.integers(0, 10))
def test_lazy_node_q_is_the_dense_formula_bitwise(seed, n, n_nodes, extra_rows):
    rng = np.random.default_rng(seed)
    block = random_block(rng, n_nodes + extra_rows, n)
    nodes = RowStack(block, n_nodes).nodes(block.y)
    for op, phi_v, Q, phi in zip(nodes, nodes.phis,
                                 *dense_nodes(block, n_nodes)):
        np.testing.assert_array_equal(op.Q, Q)
        np.testing.assert_array_equal(phi_v, phi)
        assert op.Q is op.Q


@SETTINGS
@given(seed=seeds, n=st.integers(1, 30), n_nodes=st.integers(1, 16),
       extra_rows=st.integers(0, 40))
# even deals: every node gets the same row count
@example(seed=0, n=20, n_nodes=4, extra_rows=8)
@example(seed=1, n=5, n_nodes=7, extra_rows=0)
# uneven deals: 13 rows over 4 nodes, 37 over 6
@example(seed=2, n=20, n_nodes=4, extra_rows=9)
@example(seed=3, n=9, n_nodes=6, extra_rows=31)
# the rss partition's shape, 36 nodes of 4 rows over 625 cells, and one
# row more
@example(seed=4, n=625, n_nodes=36, extra_rows=108)
@example(seed=5, n=625, n_nodes=36, extra_rows=109)
def test_row_deal_is_the_node_by_node_build_bitwise(seed, n, n_nodes,
                                                    extra_rows):
    rng = np.random.default_rng(seed)
    block = random_block(rng, n_nodes + extra_rows, n)
    stack = RowStack(block, n_nodes)
    rows, ref = padded_rows(block.A, n_nodes)
    assert_bitwise_equal(stack.A, ref)
    slabs = [slab for group in stack.groups for slab in group]
    assert len(slabs) == n_nodes
    mu_v = block.mu / n_nodes
    nodes = stack.nodes(block.y)
    for v, (slab, op, phi_v, phi) in enumerate(
            zip(slabs, nodes, nodes.phis,
                loop_node_phis(block.A, block.y, n_nodes))):
        A_v = ref[v, :rows[v].size]
        assert_bitwise_equal(slab, A_v)
        assert_bitwise_equal(phi_v, phi)
        assert_bitwise_equal(op.Q, A_v.T @ A_v + mu_v * np.eye(n))


def test_slices_of_one_sensing_matrix_share_the_row_stack():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((7, 5))
    blocks = [ElasticNetData(A=A, y=rng.standard_normal(7), lam=0.1, mu=0.2)
              for _ in range(4)]
    stream = partition_stream(blocks, 3)
    stack = stream[0].stack
    assert stack.A.shape == (3, 3, 5)
    for t, nodes in enumerate(stream):
        assert nodes.stack is stack
        other = stack.nodes(np.ones(7))
        assert other.stack.A is stack.A
        # a dense Q read on one slice serves every slice
        assert list(other)[1].Q is list(stream[0])[1].Q
        for phi_v, phi in zip(nodes.phis, dense_nodes(blocks[t], 3)[1]):
            np.testing.assert_array_equal(phi_v, phi)


def test_the_slices_of_one_shared_run_hold_one_stack():
    rng = np.random.default_rng(53)
    A, B = rng.standard_normal((6, 4)), rng.standard_normal((6, 4))
    # two runs of three blocks, of one shape: one batch
    blocks = [ElasticNetData(A=M, y=rng.standard_normal(6), lam=0.1, mu=0.2)
              for M in (A, A, A, B, B, B)]
    stream = partition_stream(blocks, 2)
    assert all(type(data) is NodeData and len(data) == 2 for data in stream)
    assert all(data.stack is stream[0].stack for data in stream[:3])
    assert all(data.stack is stream[3].stack for data in stream[3:])
    assert stream[0].stack is not stream[3].stack
    # the j-th slices of both runs hold rows of one node_phis, not copies
    for j in range(3):
        base = stream[j].phis.base
        assert base is not None and stream[3 + j].phis.base is base


def test_every_slice_of_a_stream_gets_the_data_of_its_own_block():
    rng = np.random.default_rng(8)
    A = rng.standard_normal((6, 4))

    def block(A, lam, mu):
        return ElasticNetData(A=A, y=rng.standard_normal(len(A)), lam=lam,
                              mu=mu)

    # a shared-A run, then a mu change, a lam change, a fresh A, and a run
    # of two blocks on a fresh A of 7 rows, which 2 nodes deal unevenly
    B = rng.standard_normal((7, 4))
    blocks = [block(A, 0.1, 0.2), block(A, 0.1, 0.2), block(A, 0.1, 5.0),
              block(A, 0.3, 5.0), block(rng.standard_normal((6, 4)), 0.3, 5.0),
              block(B, 0.3, 5.0), block(B, 0.3, 5.0)]
    nodes = partition_stream(blocks, 2)
    problems = problems_from_blocks(blocks)
    taus = block_taus(blocks)
    rules = ("per_node", "uniform_min")
    node_taus = [odista_taus(blocks, 2, rule) for rule in rules]
    for t, b in enumerate(blocks):
        ref = partition_stream([b], 2)[0]
        for op, ref_op in zip(nodes[t], ref):
            assert_bitwise_equal(op.Q, ref_op.Q)
        assert_bitwise_equal(nodes[t].phis, ref.phis)
        assert_bitwise_equal(nodes[t].stack.A, ref.stack.A)
        ref = problems_from_blocks([b])[0]
        assert_bitwise_equal(problems[t].Q, ref.Q)
        assert_bitwise_equal(problems[t].phi, ref.phi)
        assert problems[t].lam == ref.lam
        assert taus[t] == block_taus([b])[0]
        for rule, got in zip(rules, node_taus):
            assert_bitwise_equal(got[t], odista_taus([b], 2, rule)[0])
    # the blocks of one run share one operator and one row stack; the three
    # runs of one 6 x 4 block each are dealt at once, each stack a view of
    # the deal
    assert problems[1].op is problems[0].op
    assert problems[6].op is problems[5].op
    assert nodes[1].stack is nodes[0].stack
    assert nodes[6].stack is nodes[5].stack
    deal = nodes[2].stack.A.base
    assert deal is not None and deal.shape == (3, 2, 3, 4)
    assert all(nodes[t].stack.A.base is deal for t in (3, 4))
    assert nodes[0].stack.A.base is not deal


@SETTINGS
@given(seed=seeds, m=st.integers(1, 12), n=st.integers(1, 24),
       n_nodes=st.integers(1, 12),
       runs=st.lists(st.tuples(st.sampled_from(["fresh", "mu", "lam", "rows"]),
                               st.integers(1, 3)), min_size=1, max_size=6))
# 12 rows on 5 nodes, dense: every run a new A, as on an ARX stream, and
# more runs than one batch holds
@example(seed=0, m=12, n=20, n_nodes=5, runs=[("fresh", 1)] * 45)
# a single run, factored: one sensing matrix, as on rss
@example(seed=0, m=6, n=40, n_nodes=4, runs=[("fresh", 3)])
def test_stream_wide_setup_is_the_per_run_build_bitwise(seed, m, n, n_nodes,
                                                        runs):
    rng = np.random.default_rng(seed)
    n_nodes = min(n_nodes, m)
    blocks, A, lam, mu = [], None, 0.1, 0.2
    for change, length in runs:
        # every run starts with a change, so the runs are the ones drawn
        if change == "fresh" or A is None:
            A = rng.standard_normal((m, n))
        elif change == "rows":
            A = rng.standard_normal((m + 1, n))
        elif change == "mu":
            mu *= 3.0
        else:
            lam *= 3.0
        blocks += [ElasticNetData(A=A, y=rng.standard_normal(len(A)), lam=lam,
                                  mu=mu) for _ in range(length)]
    assert len(shared_runs(blocks)) == len(runs)

    problems, ref = problems_from_blocks(blocks), per_block_problems(blocks)
    assert len(problems) == len(ref) == len(blocks)
    for t, (p, q) in enumerate(zip(problems, ref)):
        assert p.op.factored == q.op.factored == (2 * len(blocks[t].A) < n)
        assert_bitwise_equal(p.Q, q.Q)
        assert_bitwise_equal(p.phi, q.phi)
        assert p.lam == q.lam and p.eig_extremes() == q.eig_extremes()
        one = elastic_net_problem(blocks[t])
        assert_bitwise_equal(one.Q, q.Q)
        assert_bitwise_equal(one.phi, q.phi)
        for s in range(t):
            assert (p.op is problems[s].op) == (q.op is ref[s].op)
    assert block_taus(blocks) == per_run_block_taus(blocks)
    for rule in ("per_node", "uniform_min"):
        for got, want in zip(odista_taus(blocks, n_nodes, rule),
                             per_run_odista_taus(blocks, n_nodes, rule),
                             strict=True):
            assert_bitwise_equal(got, want)
    nodes, ref = (partition_stream(blocks, n_nodes),
                  per_run_partition(blocks, n_nodes))
    assert len(nodes) == len(ref) == len(blocks)
    for t, (data, want) in enumerate(zip(nodes, ref)):
        stack = data.stack
        assert stack.mu == want.stack.mu
        assert_bitwise_equal(stack.A, want.stack.A)
        for got_g, want_g in zip(stack.groups, want.stack.groups,
                                 strict=True):
            assert_bitwise_equal(got_g, want_g)
        # node data as the rounds require
        theta_tau(data, 1.0)
        assert_bitwise_equal(data.phis, want.phis)
        for op, want_op in zip(data, want, strict=True):
            assert op.factored == want_op.factored
            assert_bitwise_equal(op.Q, want_op.Q)
        for s in range(t):
            assert (stack is nodes[s].stack) == (want.stack is ref[s].stack)
    if len(runs) == 1 and problems[0].op.factored:
        # a stream of one run copies no block: its operator views the A
        assert np.shares_memory(problems[0].op.A, blocks[0].A)


def test_partition_and_node_steps_refuse_more_nodes_than_rows():
    block = random_block(np.random.default_rng(9), 12, 5)
    calls = [lambda: RowStack(block, 13).nodes(block.y)]
    calls += [lambda rule=rule: odista_taus([block], 13, rule)
              for rule in ("per_node", "uniform_min")]
    for call in calls:
        with pytest.raises(ValueError,
                           match="block of 12 rows cannot feed 13 nodes"):
            call()


def test_node_steps_refuse_a_node_of_zero_rows():
    # slice 1 deals node 1 two zero rows: per-node steps refuse it by name,
    # before any division; the smallest common step needs one nonzero node
    rng = np.random.default_rng(10)
    A = rng.standard_normal((6, 4))
    A[2:4] = 0.0
    blocks = [random_block(rng, 6, 4),
              ElasticNetData(A=A, y=rng.standard_normal(6), lam=0.1, mu=0.2)]
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=re.escape(
                "slice 1: node 1 holds only zero rows, so its step "
                "1/||A_v||^2 is not finite")):
            odista_taus(blocks, 3, "per_node")
        taus = odista_taus(blocks, 3, "uniform_min")
    assert np.isfinite(taus[1]).all() and (taus[1] > 0).all()
    zero = ElasticNetData(A=np.zeros((6, 4)), y=np.zeros(6), lam=0.1, mu=0.2)
    with pytest.raises(ValueError, match="slice 0: node 0 holds only zero"):
        odista_taus([zero], 3, "uniform_min")


def test_rss_sized_partition_forms_no_dense_q_until_read():
    rng = np.random.default_rng(5)
    block = random_block(rng, 144, 625)
    dense_bytes = 625 * 625 * 8
    tracemalloc.start()
    try:
        nodes = RowStack(block, 36).nodes(block.y)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        # the step sizes and the contraction driver from the k x k Gram
        # matrices
        taus = [0.5 / op.eig_extremes()[1] for op in nodes]
        theta_tau(nodes, taus)
        _, peak_read = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        nodes.stack.ops[0].Q
        _, peak_q = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the stack holds the rows alone, 36 * 4 * 625 doubles
    assert peak < dense_bytes
    assert peak_read < dense_bytes
    assert nodes.stack.A.nbytes == 720000
    # tracemalloc sees numpy's buffers: reading Q allocates it
    assert peak_q >= dense_bytes
