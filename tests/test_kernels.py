"""Property tests: the round kernels against literal transcriptions.

The online rounds iterate on plain arrays and check their inputs once per
round.  Their operation order is the reference steps' order, so agreement
is asserted bitwise on hypothesis-generated problems and graphs.
"""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stvo.core import QuadraticL1Problem
from stvo.distributed import (
    Graph,
    NetworkState,
    NodeData,
    dista_even_step,
    dista_odd_step,
    local_mean,
    odista_round,
)
from stvo.solvers import DRState, OnlineConfig, odr_round, oist_round

from oracles import (
    direct_dr_step,
    direct_odd_step,
    direct_oist_sweep,
    direct_prox,
    mean_of_columns,
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
    return Graph(n_nodes, [sorted(s) for s in nbrs])


@SETTINGS
@given(seed=seeds, n=st.integers(1, 9), r=st.integers(1, 6), lam=lams)
def test_odr_round_is_chained_literal_steps(seed, n, r, lam):
    rng = np.random.default_rng(seed)
    p = random_problem(rng, n, lam)
    z = 3.0 * rng.standard_normal(n)
    out = odr_round(DRState(rng.standard_normal(n), z), p, OnlineConfig(r=r))
    # the round first re-derives x from the carried z
    x, z_ref = direct_prox(z, p.Q, p.phi), z
    for _ in range(r):
        x, z_ref = direct_dr_step(x, z_ref, p.Q, p.phi, lam)
    np.testing.assert_array_equal(out.x, x)
    np.testing.assert_array_equal(out.z, z_ref)


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
    np.testing.assert_array_equal(out, x)


@SETTINGS
@given(seed=seeds, rows=st.integers(1, 6), n_nodes=st.integers(1, 16),
       max_degree=st.integers(1, 12))
# one row and degrees past 8: np.sum's pairwise summation would differ here
@example(seed=0, rows=1, n_nodes=16, max_degree=12)
def test_batched_means_are_left_folds_on_irregular_graphs(seed, rows, n_nodes,
                                                          max_degree):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_nodes, max_degree)
    X = rng.standard_normal((rows, n_nodes))
    out = dista_even_step(NetworkState(X, np.zeros_like(X)), g)
    for v in range(n_nodes):
        ref = mean_of_columns(X, list(g.neighbors[v]))
        np.testing.assert_array_equal(out.C[:, v], ref)
        np.testing.assert_array_equal(local_mean(X, g, v), ref)


@SETTINGS
@given(seed=seeds, rows=st.integers(1, 6), n_nodes=st.integers(1, 12),
       max_degree=st.integers(1, 12), lam=lams)
@example(seed=0, rows=1, n_nodes=12, max_degree=12, lam=0.1)
def test_descent_matches_literal_transcription_on_irregular_graphs(
        seed, rows, n_nodes, max_degree, lam):
    rng = np.random.default_rng(seed)
    g = random_graph(rng, n_nodes, max_degree)
    data = []
    for _ in range(n_nodes):
        A = rng.standard_normal((2, rows))
        data.append(NodeData(Q=A.T @ A + 0.05 * np.eye(rows),
                             phi=rng.standard_normal(rows)))
    taus = rng.uniform(0.01, 0.2, n_nodes)
    X = rng.standard_normal((rows, n_nodes))
    C = rng.standard_normal((rows, n_nodes))
    out = dista_odd_step(NetworkState(X, C), g, data, lam, taus)
    ref = direct_odd_step(X, C, [list(a) for a in g.neighbors],
                          [nd.Q for nd in data], [nd.phi for nd in data],
                          lam, taus)
    np.testing.assert_array_equal(out.X, ref)
    # a pair of half-steps carried on arrays is the two reference steps
    pair = odista_round(NetworkState(X, C), g, data, lam, taus, 2)
    step = dista_odd_step(dista_even_step(NetworkState(X, C), g), g, data,
                          lam, taus)
    np.testing.assert_array_equal(pair.X, step.X)
    np.testing.assert_array_equal(pair.C, step.C)
