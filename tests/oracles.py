"""Independent reference implementations used to cross-check the package.

Everything here is written in the most literal style available: scalar
branches, explicit loops, no helpers imported from the package.  Agreement
between two independently written codepaths is evidence; calling the
library from both sides would prove nothing.  Seven exceptions, besides
the grids :func:`loop_rss_dictionary` reads:
:func:`factored_odr_loop` and :func:`factored_oist_loop` transcribe, array
statement by array statement, the loop that factored rounds ran as three
steps (y, its clip w, then the iterate), through the slice's own factors,
so that the rounds' one loop can be held to it bit for bit;
:func:`prox_grad_minimize` iterates a stack of problems side by side, with
array operations, so that a suite-sized reference fits its time budget;
:func:`spectrum_problem` and :func:`drifting_quadratic_stream` are test
data made of package problems;
:func:`consensus_problem`, the centralized slice whose minimizer the
network reaches, sums its Q from a node partition's padded row stack;
:func:`sequential_stream_oracles` keeps the package's slice-by-slice oracle
loop, each call warm started from the previous slice's minimizer, as the
reference its stream-wide warm start is held to bit for bit;
:func:`lowest_objective_feature_sign`, the oracle's search with a line
search that weighs the objective at every zero crossing, forms its
reduced systems and products through the problem's operator
(``p.op.block``, ``p.op.matvec``), so that its answer can be held to the
package's bit for bit;
:func:`column_odista_round` keeps the array operations of the column-major
odista round, which sums its means as left folds where the package takes
one product with the graph's weight matrix, so the two are held to 1e-12
relative.  :func:`assert_relatively_close` is that tolerance, shared by the
tests, and :func:`assert_bitwise_equal` the exact comparison.

The loop builders at the end (:func:`loop_regressor_matrix`,
:func:`loop_tvarx_blocks`, :func:`loop_rss_dictionary`, :func:`list_graph`,
:func:`node_rows`, :func:`padded_rows`, :func:`loop_node_phis`) are
row-by-row, sensor-by-sensor, node-by-node and list-based forms of the
package's whole-array setup builders; the tests hold the two equal bit for
bit.  So are the per-block stream builders after them:
:func:`scalar_tvarx_simulate` runs the simulation's recursions over numpy
scalars one index at a time, and :func:`per_block_problems`,
:func:`per_run_block_taus`, :func:`per_run_partition` and
:func:`per_run_odista_taus` build a stream's slices, step sizes and node
data one shared run or block at a time.  The slices are built literally,
Q = A'A + mu I and phi = -A'y by plain products; the node data call the
package's one-block builders (``RowStack``, ``deal_rows``), which the
tests check on their own.  So the stream-wide builds can be held to them
bit for bit.
"""

import numpy as np
import scipy.linalg

from stvo.core import QuadraticL1Problem, SliceOperator
from stvo.distributed import RowStack, deal_rows
from stvo.scenarios import (
    STREAM_DICT,
    STREAM_INPUT,
    STREAM_NOISE,
    STREAM_PROBLEM,
    cell_centers,
    experiment_params,
    rss_model_value,
    sensor_positions,
    substream,
)
from stvo.solvers import oracle_minimizer


def assert_relatively_close(out, ref, *inputs):
    """|out - ref| within 1e-12 of the largest magnitude among ref and the
    inputs."""
    scale = max(float(np.max(np.abs(a))) for a in (ref,) + inputs)
    assert np.max(np.abs(out - ref)) <= 1e-12 * scale


def assert_bitwise_equal(out, ref):
    """Same dtype, shape and bytes."""
    assert out.dtype == ref.dtype and out.shape == ref.shape
    assert out.tobytes() == ref.tobytes()


def soft_scalar(v, b):
    """Branchy scalar soft threshold."""
    if v > b:
        return v - b
    if v < -b:
        return v + b
    return 0.0


def soft_vector(v, b):
    return np.array([soft_scalar(val, b) for val in np.asarray(v, float)])


def scalar_lasso(q, p, lam):
    """Minimizer of 0.5*q*x^2 + p*x + lam*|x|, by sign case analysis."""
    return soft_scalar(-p, lam) / q


def subgradient_violation(x, Q, phi, lam):
    """Largest violation of the first-order optimality conditions.

    Active coordinates must satisfy (Qx + phi)_i = -lam * sign(x_i); at
    zero coordinates |(Qx + phi)_i| may not exceed lam.
    """
    x = np.asarray(x, float)
    g = np.asarray(Q, float) @ x + np.asarray(phi, float)
    worst = 0.0
    for i in range(x.size):
        if x[i] > 0:
            worst = max(worst, abs(g[i] + lam))
        elif x[i] < 0:
            worst = max(worst, abs(g[i] - lam))
        else:
            worst = max(worst, max(abs(g[i]) - lam, 0.0))
    return worst


def prox_grad_minimize(Q, phi, lam, res_tol=1e-9, max_iter=400000):
    """Plain proximal-gradient descent, step 1/L, no acceleration.

    Takes one problem, or a stack of k of them ((k, n, n), (k, n), (k,))
    iterated side by side: each from zero at its own step 1/L, each
    stopping once its own subgradient violation, checked every 50
    iterations, clears res_tol.  Returns the last iterates either way
    (callers assert on agreement, which fails loudly if this stalled).
    """
    Q = np.asarray(Q, float)
    Qs = Q if Q.ndim == 3 else Q[None]
    k, n = Qs.shape[:2]
    phis = np.asarray(phi, float).reshape(k, n)
    lams = np.asarray(lam, float).reshape(k)
    tau = 1.0 / np.linalg.eigvalsh(Qs)[:, -1]
    thr = (lams * tau)[:, None, None] * np.ones((1, n, 1))
    out = np.zeros((k, n))
    # The instances still running, and their data; a stopped one leaves.
    live = np.arange(k)
    Ql, pl, tl, lo, hi = Qs, phis[:, :, None], tau[:, None, None], -thr, thr
    x = np.zeros((k, n, 1))
    for it in range(1, max_iter + 1):
        z = x - tl * (Ql @ x + pl)
        # soft threshold: z minus its clip to [-thr, thr]
        x = z - np.minimum(np.maximum(z, lo), hi)
        if it % 50 == 0:
            out[live] = x[:, :, 0]
            keep = np.array([subgradient_violation(out[i], Qs[i], phis[i],
                                                   lams[i]) > res_tol
                             for i in live])
            live, x = live[keep], x[keep]
            Ql, pl, tl = Ql[keep], pl[keep], tl[keep]
            lo, hi = lo[keep], hi[keep]
            if live.size == 0:
                break
    out[live] = x[:, :, 0]
    return out if Q.ndim == 3 else out[0]


def objective_reference(x, Q, phi, lam):
    """Objective evaluated as a sum of scalar contributions, worst order."""
    x = np.asarray(x, float)
    total = 0.0
    for i in range(x.size):
        for j in range(x.size):
            total += 0.5 * x[i] * Q[i][j] * x[j]
    for i in range(x.size):
        total += phi[i] * x[i]
    for i in range(x.size):
        total += lam * abs(x[i])
    return total


def direct_prox(z, Q, phi):
    """(Q + I)^{-1} (z - phi), refactoring Q + I on every call."""
    factor = scipy.linalg.cho_factor(Q + np.eye(len(phi)), lower=False)
    return scipy.linalg.cho_solve(factor, z - phi)


def direct_dr_step(x, z, Q, phi, lam):
    """Literal splitting iteration.

    u = S_lam(2x - z); z+ = z + 2(u - x); x+ = (Q + I)^{-1} (z+ - phi)
    """
    u = soft_vector(2.0 * x - z, lam)
    z_new = np.empty_like(z)
    for i in range(z.size):
        z_new[i] = z[i] + 2.0 * (u[i] - x[i])
    return direct_prox(z_new, Q, phi), z_new


def direct_oist_sweep(x, Q, phi, lam, tau):
    """Literal thresholded-gradient sweep x <- S_{lam tau}(x - tau (Qx + phi))."""
    g = Q @ x
    v = np.empty_like(x)
    for i in range(x.size):
        v[i] = x[i] - tau * (g[i] + phi[i])
    return soft_vector(v, lam * tau)


def factored_odr_loop(p, z, k):
    """k odr iterations on a factored slice from z: y = 2 solve(z - phi) - z
    with solve(b) = (b - A'(H b)) / (1 + mu), H the slice's cached factor,
    then w = clip(y, -lam, lam) and z = (y - w) - w.  Returns z."""
    A, s = p.op.A, 1.0 + p.op.mu
    H, = p.prox_factor()
    hi = np.full(p.n, p.lam)
    lo = -hi
    for _ in range(k):
        b = z - p.phi
        y = 2.0 * ((b - A.T @ (H @ b)) / s) - z
        w = np.clip(y, lo, hi)
        z = (y - w) - w
    return z


def factored_oist_loop(p, tau, x, k):
    """k oist sweeps on a factored slice from x: y = x - tau Q x with
    Q x = A'(A x) + mu x, then w = clip(y, c - lam tau, c + lam tau),
    c = tau phi, and x = y - w.  Returns x."""
    A, mu = p.op.A, p.op.mu
    c = tau * p.phi
    lo, hi = c - p.lam * tau, c + p.lam * tau
    for _ in range(k):
        y = x - (A.T @ (A @ x) + mu * x) * tau
        w = np.clip(y, lo, hi)
        x = y - w
    return x


def mean_of_columns(M, idx):
    """Neighborhood mean as an explicit left-fold over sorted ids."""
    acc = np.zeros(M.shape[0])
    for w in idx:
        acc = acc + M[:, w]
    return acc / len(idx)


def direct_odd_step(X, C, neighbor_lists, Qs, phis, lam, taus):
    """Literal transcription of the descent half-step listing.

    x_v <- S_{lam tau_v / 2}[ (x_v + cbar_v - tau_v Q_v x_v - tau_v phi_v) / 2 ]
    """
    X_new = np.empty_like(X)
    for v in range(X.shape[1]):
        x = X[:, v]
        cbar = mean_of_columns(C, neighbor_lists[v])
        arg = (x + cbar - taus[v] * (Qs[v] @ x) - taus[v] * phis[v]) / 2.0
        X_new[:, v] = soft_vector(arg, lam * taus[v] / 2.0)
    return X_new


def direct_global_objective(X, neighbor_lists, Qs, phis, lam, taus):
    """Network objective by direct summation over nodes and neighborhoods."""
    total = 0.0
    for v in range(X.shape[1]):
        x = X[:, v]
        total += 0.5 * float(x @ (Qs[v] @ x)) + float(phis[v] @ x)
        total += lam * float(np.sum(np.abs(x)))
        coup = 0.0
        for w in neighbor_lists[v]:
            xbar_w = mean_of_columns(X, neighbor_lists[w])
            coup += float(np.sum((xbar_w - x) ** 2))
        total += coup / (2.0 * len(neighbor_lists[v]) * taus[v])
    return total


def spectrum_problem(n, sigma, beta, seed, lam=0.1):
    """Random slice with prescribed extreme eigenvalues of Q.

    Q is a random rotation of eigenvalues spread over [sigma, beta] with the
    endpoints attained exactly.
    """
    if not 0 < sigma <= beta:
        raise ValueError("need 0 < sigma <= beta")
    rng = substream(seed, STREAM_PROBLEM)
    if n == 1:
        Q = np.array([[sigma]])
    else:
        eigs = np.linspace(sigma, beta, n)
        M = rng.standard_normal((n, n))
        U, _ = np.linalg.qr(M)
        Q = (U * eigs) @ U.T
        Q = (Q + Q.T) / 2.0
    phi = rng.standard_normal(n)
    return QuadraticL1Problem(Q, phi, lam)


def consensus_problem(data, lam):
    """Centralized slice whose minimizer is the network's consensus target.

    Restricting the network objective to equal rows zeroes the
    disagreement penalty and sums the local costs, giving Q = sum Q_v,
    phi = sum phi_v and an l1 weight of |V| * lam.  Q is A'A of the stack's
    padded rows, taken as one block, plus the summed ridge, so no node forms
    its dense Q_v; that sums in another order than the Q_v and agrees with
    their sum to rounding.  data is one slice's NodeData.
    """
    stack = data.stack
    rows = stack.A.reshape(-1, stack.A.shape[2])
    Q = rows.T @ rows + len(data) * stack.mu * np.eye(rows.shape[1])
    phi = sum(data.phis)
    return QuadraticL1Problem(Q, phi, len(data) * lam)


def drifting_quadratic_stream(n, rounds, sigma, beta, drift, seed, lam=0.05):
    """Slowly varying stream: fixed Q, linear drift of the linear term.

    The drift direction is kept orthogonal to the eigenvector of the
    smallest eigenvalue, which keeps the reference fixed point from sliding
    along the nearly flat direction when sigma is tiny.
    """
    rng = substream(seed, STREAM_PROBLEM)
    eigs = np.linspace(sigma, beta, n)
    U, _ = np.linalg.qr(rng.standard_normal((n, n)))
    Q = (U * eigs) @ U.T
    Q = (Q + Q.T) / 2.0
    phi0 = rng.standard_normal(n)
    direction = rng.standard_normal(n)
    flat = U[:, 0]
    direction = direction - (direction @ flat) * flat
    direction = direction / np.linalg.norm(direction)
    base = QuadraticL1Problem(Q, phi0, lam)
    return [base.with_phi(phi0 + drift * t * direction) for t in range(rounds)]


def sequential_stream_oracles(problems, opt_tol=1e-8):
    """(x*, z*) of every slice, one oracle call per slice in stream order,
    each warm started from the previous slice's minimizer."""
    xs, zs, prev = [], [], None
    for p in problems:
        x_star, z_star = oracle_minimizer(p, max_iter=200000, opt_tol=opt_tol,
                                          initial=prev)
        xs.append(x_star)
        zs.append(z_star)
        prev = x_star
    return np.array(xs), np.array(zs)


def lowest_objective_feature_sign(p, x, steps=400, cap=150):
    """Feature-sign search from x whose line search tries every point on
    the segment to the reduced solve: the end point and each zero crossing,
    the crossed coordinate set to exactly zero, and moves to the lowest
    objective among them, a tie going to the first crossing.  Returns
    (x*, z*) with z* = x* + Q x* + phi, or None when steps run out, the
    support outgrows cap or a reduced system is singular."""
    x = x.copy()
    act = x != 0.0
    sign = np.sign(x)
    for _ in range(steps):
        if act.sum() > cap:
            return None
        if act.any():
            xa, sa = x[act], sign[act]
            Q_act = p.op.block(act)
            try:
                new = np.linalg.solve(Q_act, -(p.phi[act] + p.lam * sa))
            except np.linalg.LinAlgError:
                return None
            cross = sa * new <= 0.0
            if cross.any():
                d = new - xa
                hit = np.flatnonzero(cross)
                t = np.divide(xa[hit], -d[hit], out=np.zeros(hit.size),
                              where=d[hit] != 0.0)
                pts = np.vstack([xa + t[:, None] * d, new])
                pts[np.arange(hit.size), hit] = 0.0
                f = (0.5 * np.einsum("ij,ij->i", pts @ Q_act, pts)
                     + pts @ p.phi[act] + p.lam * np.abs(pts).sum(axis=1))
                x[act] = pts[int(np.argmin(f))]
                act = x != 0.0
                sign = np.sign(x)
                continue
            x[act] = new
        g = p.op.matvec(x) + p.phi
        viol = np.where(act, 0.0, np.abs(g))
        i = int(np.argmax(viol))
        if not viol[i] > p.lam:
            return x, x + p.op.matvec(x) + p.phi
        act[i] = True
        sign[i] = -np.sign(g[i])
    return None


def column_local_means(X, neighbor_lists):
    """Neighborhood means of the columns of X: a left fold from zero, one
    column gather and add per neighbor slot."""
    degrees = np.array([len(nbrs) for nbrs in neighbor_lists])
    acc = np.zeros(X.shape)
    for k in range(int(degrees.max())):
        nodes = np.flatnonzero(degrees > k)
        slot = np.array([neighbor_lists[v][k] for v in nodes])
        if nodes.size == len(neighbor_lists):
            acc += X.take(slot, axis=1)
        else:
            acc[:, nodes] += X.take(slot, axis=1)
    acc /= degrees
    return acc


def column_odista_round(X, neighbor_lists, products, phis, lam, taus, r):
    """An odista round of r half-steps carried on the (n, |V|) columns of X.

    products(X) gives the columns Q_v x_v; :func:`stack_column_products`
    is the batched product over a node partition's padded rows.
    """
    taus = np.asarray(taus, dtype=float)
    tau_phi = taus * np.stack(phis, axis=1)
    thr = lam * taus / 2.0
    for h in range(r):
        if h % 2 == 0:
            C = column_local_means(X, neighbor_lists)
        else:
            z = (X + column_local_means(C, neighbor_lists)
                 - taus * products(X) - tau_phi) / 2.0
            X = np.sign(z) * np.maximum(np.abs(z) - thr, 0.0)
    return X, C


def stack_column_products(A, mu):
    """Column v of products(X) is A_v'(A_v x_v) + mu x_v, one batched
    matmul pair over the padded (|V|, k_max, n) rows A and their transpose."""
    AT = np.ascontiguousarray(A.transpose(0, 2, 1))
    return lambda X: (AT @ (A @ X.T[:, :, None]))[:, :, 0].T + mu * X


def loop_regressor_matrix(y, u, t, m, P_hat, Q_hat):
    """Lagged-measurement rows filled one row at a time: row j holds
    y[t+j-1], ..., y[t+j-P_hat] and then u[t+j-1], ..., u[t+j-Q_hat]."""
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if t < max(P_hat, Q_hat):
        raise ValueError(f"t={t} leaves lags before the start of the data")
    if t + m - 1 > min(y.size, u.size):
        raise ValueError("not enough samples after t for a full block")
    A = np.empty((m, P_hat + Q_hat))
    for j in range(m):
        A[j, :P_hat] = y[t + j - P_hat:t + j][::-1]
        A[j, P_hat:] = u[t + j - Q_hat:t + j][::-1]
    return A


def loop_tvarx_blocks(y, u, m, P_hat, Q_hat):
    """(A, y) of every full m-sample block, each A built by its own
    :func:`loop_regressor_matrix` call over a zero warm-up of
    max(P_hat, Q_hat) samples."""
    W = max(P_hat, Q_hat)
    y_ext = np.concatenate([np.zeros(W), y])
    u_ext = np.concatenate([np.zeros(W), u])
    return [(loop_regressor_matrix(y_ext, u_ext, start + W, m, P_hat, Q_hat),
             y[start:start + m])
            for start in range(0, (len(y) // m) * m, m)]


def loop_rss_dictionary(cfg, seed):
    """Fingerprint dictionary drawn one sensor and one row at a time.  It
    reads the package's sensor grid, cell grid and attenuation model, which
    it does not cross-check, and the dictionary's named sub-stream."""
    sensors = sensor_positions(cfg)
    cells = cell_centers(cfg)
    diff = sensors[:, None, :] - cells[None, :, :]
    base = rss_model_value(np.sqrt((diff ** 2).sum(axis=2)), cfg)
    rng = substream(seed, STREAM_DICT)
    scale = 10.0 ** (-cfg.snr_db / 20.0)
    rows = []
    for i in range(cfg.sensors):
        rms = np.sqrt(np.mean(base[i] ** 2))
        for _ in range(cfg.meas_per_sensor):
            rows.append(base[i] + rng.standard_normal(cfg.n_cells) * rms * scale)
    return np.array(rows)


def list_graph(n_nodes, neighbors):
    """Graph fields built from sorted neighbour lists: (neighbors, degrees,
    connected, W), or the ValueError the lists earn, checked node by node
    and edge by edge."""
    nbrs = []
    for v, raw in enumerate(neighbors):
        arr = np.unique(np.asarray(raw, dtype=int))
        if arr.size and (arr[0] < 0 or arr[-1] >= n_nodes):
            raise ValueError(f"node {v} references an unknown node")
        if v not in arr:
            raise ValueError(f"node {v} has no self-loop")
        nbrs.append(arr)
    for v, arr in enumerate(nbrs):
        for w in arr:
            if v not in nbrs[w]:
                raise ValueError(f"edge ({v},{w}) is not symmetric")
    degrees = np.array([len(a) for a in nbrs])
    seen = {0}
    frontier = [0]
    while frontier:
        v = frontier.pop()
        for w in nbrs[v]:
            if w not in seen:
                seen.add(int(w))
                frontier.append(int(w))
    W = np.zeros((n_nodes, n_nodes))
    for v, arr in enumerate(nbrs):
        W[v, arr] = 1.0 / arr.size
    return nbrs, degrees, len(seen) == n_nodes, W


def node_rows(m, n_nodes):
    """Row indices of an m-row block that np.array_split deals each node:
    the first m mod n_nodes nodes get one row more than the others."""
    if not 1 <= n_nodes <= m:
        raise ValueError(f"block of {m} rows cannot feed {n_nodes} nodes")
    k, extra = divmod(m, n_nodes)
    rows = np.arange(m)
    return [rows[v * k + min(v, extra):(v + 1) * k + min(v + 1, extra)]
            for v in range(n_nodes)]


def padded_rows(A, n_nodes):
    """The rows :func:`node_rows` deals each node, copied node by node into
    a zero-padded (|V|, k_max, n) stack: (rows, stack)."""
    rows = node_rows(A.shape[0], n_nodes)
    stack = np.zeros((n_nodes, rows[0].size, A.shape[1]))
    for v, idx in enumerate(rows):
        stack[v, :idx.size] = A[idx]
    return rows, stack


def loop_node_phis(A, y, n_nodes):
    """phi_v = -A_v'y_v, one gemv per node on its slab of the
    :func:`padded_rows` stack."""
    rows, stack = padded_rows(A, n_nodes)
    return [-stack[v, :idx.size].T @ y[idx] for v, idx in enumerate(rows)]


def scalar_tvarx_simulate(cfg, experiment, seed, noise=True):
    """(u, y, x_true) of the default simulation of a TvarxConfig, sample by
    sample: the parameters from experiment_params at every index, both
    recursions over numpy scalars indexed one at a time and each block's
    noise level from its own sum.  It reads the package's schedules and
    named sub-streams, which it does not cross-check."""
    N = cfg.n_samples
    u = np.tile(substream(seed, STREAM_INPUT).standard_normal(cfg.m),
                N // cfg.m + 1)[:N]
    a = np.empty(N)
    b = np.empty(N)
    for t in range(N):
        tt = max(t, 1) if experiment == "exp2" else t / cfg.sample_rate_hz
        a[t], b[t] = experiment_params(experiment, tt)

    def recurse(noise_seq):
        y = np.zeros(N)
        for t in range(N):
            y_prev = y[t - 1] if t >= 1 else 0.0
            u_prev = u[t - 1] if t >= 1 else 0.0
            y[t] = a[t] * y_prev + b[t] * u_prev + noise_seq[t]
        return y

    y = recurse(np.zeros(N))
    if noise:
        sigma = np.zeros(N)
        scale = 10.0 ** (-cfg.snr_db / 10.0)
        for start in range(0, N, cfg.m):
            block = y[start:start + cfg.m]
            sigma[start:start + cfg.m] = np.sqrt(
                np.sum(block ** 2) * scale / block.size)
        sigma *= np.sqrt(np.maximum(1.0 - a ** 2, 0.0))
        y = recurse(substream(seed, STREAM_NOISE).standard_normal(N)
                    * sigma)
    x_true = np.zeros((N, cfg.n))
    x_true[:, 0] = a
    x_true[:, cfg.P_hat] = b
    return u, y, x_true


def shared_runs(blocks):
    """Consecutive blocks holding the same A object with equal lam and mu."""
    runs = []
    for b in blocks:
        if runs and b.A is runs[-1][0].A and b.lam == runs[-1][0].lam \
                and b.mu == runs[-1][0].mu:
            runs[-1].append(b)
        else:
            runs.append([b])
    return runs


def per_block_problems(blocks):
    """Slices one block at a time: each shared run one operator on its first
    block, dense A'A + mu I unless 2m < n, where it holds (A, mu), and
    every block's phi = -A'y."""
    out = []
    for run in shared_runs(blocks):
        A, mu = run[0].A, run[0].mu
        op = (SliceOperator(A=A, mu=mu) if 2 * A.shape[0] < A.shape[1]
              else SliceOperator(Q=A.T @ A + mu * np.eye(A.shape[1])))
        out.extend(QuadraticL1Problem._of(op, -b.A.T @ b.y, b.lam)
                   for b in run)
    return out


def per_run_block_taus(blocks):
    """2 / ||A||_2^2 from one np.linalg.norm call per shared run."""
    return [2.0 / float(np.linalg.norm(run[0].A, 2)) ** 2
            for run in shared_runs(blocks) for _ in run]


def per_run_partition(blocks, n_nodes):
    """One RowStack per shared run and its nodes(y) slice by slice."""
    out = []
    for run in shared_runs(blocks):
        stack = RowStack(run[0], n_nodes)
        out.extend(stack.nodes(b.y) for b in run)
    return out


def per_run_odista_taus(blocks, n_nodes, rule):
    """Node step sizes from one deal_rows and one eigvalsh of the node
    Grams per shared run, or the ValueError a node of zero rows earns."""
    taus = []
    for run in shared_runs(blocks):
        A, _ = deal_rows(run[0].A, n_nodes)
        norms = np.linalg.eigvalsh(
            A @ np.ascontiguousarray(A.transpose(0, 2, 1)))[:, -1]
        if rule == "uniform_min":
            norms = np.full(n_nodes, np.max(norms))
        zero = np.flatnonzero(~(norms > 0.0))
        if zero.size:
            raise ValueError(
                f"slice {len(taus)}: node {zero[0]} holds only zero rows, "
                f"so its step 1/||A_v||^2 is not finite; use fewer nodes")
        taus.extend([1.0 / norms] * len(run))
    return taus
