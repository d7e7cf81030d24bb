"""Network model and distributed thresholded-gradient solvers.

Nodes hold private quadratic data (Q_v, phi_v) and a copy x_v of the
decision variable; the copies are the rows of a node-major (|V|, n) array X,
which the round takes and returns.  The solver alternates a communication
half-step, which sets each node's auxiliary variable c_v to the
neighborhood mean of X, and a descent half-step, which applies a damped
thresholded gradient update using the neighborhood mean of C.  Both
half-steps are synchronous: every node reads the pre-step state.  A round opens with a communication, so C is
never carried; a communication that ends a round (odd r) leaves X as it is.

Node data comes only from a row partition: :func:`deal_rows` deals an
elastic-net block's rows to the nodes as two reshapes into a
:class:`RowStack`, Q_v = A_v'A_v + mu_v I.  A slice's :class:`NodeData` is
that stack and the (|V|, n) linear terms phi_v, so all products Q_v x_v are
one batched product over the stacked rows.  Every
neighborhood mean is one product with the graph's row-normalised weight
matrix ``Graph.W`` on the rows of X, and a communication and descent pair
reads the mean of means ``Graph.W2`` = W @ W, so a round runs each pair as
one map of X.  These sums run in another order than the literal per-node
left folds; they agree with them to 1e-12 relative.

Each pair is an iteration of the rounds' shared loop
(:class:`stvo.core._Round`): a linear map, batched over the rows of X or
lifted onto vec(X) by the rule at ``LIFT_MAX``, then the shrink.  Rounds of
r < 8 half-steps, and every rss round (|V| n = 22,500), run batched pairs
alone; exp1 at r = 400 runs 196 of its 200 pairs lifted.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from .core import SliceOperator, _plus_diagonal, _Round


@dataclass(eq=False)
class Graph:
    """Undirected communication graph: its square boolean adjacency matrix,
    which must be symmetric with a True diagonal (self-loops).  Equality is
    identity: the generated field comparison would compare arrays.

    neighbors[v] is the sorted array of nodes v receives from, v included.
    W is the dense |V| x |V| neighbour-weight matrix: row v holds 1/d_v on
    neighbors[v] and zero elsewhere, so W @ X is the neighborhood mean of
    every row of a node-major X at once.  W2 = W @ W is the mean of means
    that a descent reads one communication after X.
    """

    adjacency: np.ndarray

    def __post_init__(self):
        adj = self.adjacency = np.asarray(self.adjacency, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1] or adj.size == 0:
            raise ValueError(f"adjacency of shape {adj.shape} is not a "
                             "square matrix of at least one node")
        lonely = np.flatnonzero(~adj.diagonal())
        if lonely.size:
            raise ValueError(f"node {lonely[0]} has no self-loop")
        one_way = np.argwhere(adj & ~adj.T)
        if one_way.size:
            raise ValueError(f"edge ({one_way[0, 0]},{one_way[0, 1]}) "
                             "is not symmetric")
        self.n_nodes = adj.shape[0]
        self.degrees = adj.sum(axis=1)
        self.neighbors = np.split(np.nonzero(adj)[1],
                                  np.cumsum(self.degrees)[:-1])
        self.regular = bool(np.all(self.degrees == self.degrees[0]))
        # Grow node 0's component until a step adds no node.
        reached = adj[0]
        while not np.array_equal(grown := adj[reached].any(axis=0), reached):
            reached = grown
        self.connected = bool(reached.all())
        self.W = adj / self.degrees[:, None]
        self.W2 = self.W @ self.W

    @property
    def degree(self):
        """Common degree on regular graphs, None otherwise."""
        return int(self.degrees[0]) if self.regular else None


def deal_rows(A, n_nodes):
    """np.array_split's deal of the m rows of A to n_nodes nodes, stacked.

    With k, extra = divmod(m, |V|), the first extra nodes get k + 1 rows
    and the rest k, so the rows are two contiguous blocks of A, one
    (extra, k + 1, n) and one (|V| - extra, k, n).  Returns (stack, groups):
    stack is the zero-padded (|V|, k_max, n) stack, node v's rows A_v on top
    of slab v and zero rows below where it has fewer than k_max (zero rows
    add exactly nothing), and groups the two blocks as views of it.  A may
    be a (..., m, n) stack of blocks, which are then dealt at once into a
    (..., |V|, k_max, n) stack.
    """
    *lead, m, n = A.shape
    if not 1 <= n_nodes <= m:
        raise ValueError(f"block of {m} rows cannot feed {n_nodes} nodes")
    k, extra = divmod(m, n_nodes)
    stack = np.zeros((*lead, n_nodes, -(-m // n_nodes), n))
    groups = stack[..., :extra, :, :], stack[..., extra:, :k, :]
    cut = extra * stack.shape[-2]
    groups[0][...] = A[..., :cut, :].reshape(groups[0].shape)
    groups[1][...] = A[..., cut:, :].reshape(groups[1].shape)
    return stack, groups


def node_phis(groups, y):
    """phi_v = -A_v'y_v of every node, (..., |V|, n), for the row-count
    groups of a :func:`deal_rows` stack and the block's measurements y,
    (..., m); leading dimensions broadcast.  Each group forms its phi_v as
    the row vectors -y_v' A_v, one np.matmul over its slabs, bitwise the
    per-node -A_v'y_v; an empty group is skipped, so a deal into one group
    copies nothing."""
    cut = groups[0].shape[-3] * groups[0].shape[-2]
    phis = [np.matmul(-ys.reshape(ys.shape[:-1] + slabs.shape[-3:-1])
                      [..., None, :], slabs)[..., 0, :]
            for ys, slabs in zip((y[..., :cut], y[..., cut:]), groups)
            if slabs.shape[-3]]
    return phis[0] if len(phis) == 1 else np.concatenate(phis, axis=-2)


class RowStack:
    """Row blocks of one partition's nodes, stacked once and shared.

    A and groups are the :func:`deal_rows` of data's rows, or dealt, the
    pair of rows already dealt, such as a run's views of a stream-wide
    deal; mu is the ridge each node adds.  So the Gram parts A_v'(A_v x_v)
    of every node's Q_v x_v = A_v'(A_v x_v) + mu x_v come from one batched
    matmul pair over A, the second one on row vectors, (A_v x_v)' A_v.
    ops[v] is node v's operator, the
    :meth:`~stvo.core.SliceOperator.grams` of its unpadded slab.
    """

    __slots__ = ("A", "groups", "mu", "ops")

    def __init__(self, data, n_nodes, dealt=None):
        self.A, self.groups = (deal_rows(data.A, n_nodes) if dealt is None
                               else dealt)
        self.mu = mu = data.mu / n_nodes
        self.ops = [op for slabs in self.groups if len(slabs)
                    for op in SliceOperator.grams(slabs, [mu] * len(slabs))]

    def nodes(self, y):
        """The node data of a slice with measurements y: phi_v = -A_v'y_v,
        so the node data sum back to the centralized elastic-net slice."""
        return NodeData(self, node_phis(self.groups, y))


@dataclass(eq=False)
class NodeData:
    """Private quadratic data of the nodes on one slice: node v's
    0.5 x'Q_v x + phi_v'x, Q_v the operator ``stack.ops[v]`` of the run's
    :class:`RowStack` and phi_v the row ``phis[v]`` of the (|V|, n) linear
    terms.  Its length is the node count, and iterating it yields the
    operators in node order.
    """

    stack: RowStack
    phis: np.ndarray

    def __len__(self):
        return len(self.stack.ops)

    def __iter__(self):
        return iter(self.stack.ops)


@dataclass
class NetworkState:
    """The record that the one-shot :func:`odista_round` carries: row v of
    the node-major |V| x n X is x_v, made float and checked by the round."""

    X: np.ndarray

    def __post_init__(self):
        self.X = np.asarray(self.X, dtype=float)

    @classmethod
    def zeros(cls, n, n_nodes):
        """All-zero estimates of dimension n on n_nodes nodes: X has shape
        (n_nodes, n)."""
        return cls(np.zeros((n_nodes, n)))


def ring_graph(n_nodes, d):
    """Symmetric circulant ring: each node links to its d-1 nearest nodes.

    Requires d - 1 even (split evenly on both sides) or d == n_nodes, which
    degenerates to the complete graph.  Self-loops are always present.  The
    adjacency is the circulant band of the nodes w with w - v mod |V| within
    (d - 1) / 2 of 0.
    """
    if d < 1 or d > n_nodes:
        raise ValueError(f"degree {d} infeasible on {n_nodes} nodes")
    if d == n_nodes:
        return Graph(np.ones((n_nodes, n_nodes), dtype=bool))
    if (d - 1) % 2 != 0:
        raise ValueError(f"degree {d} needs d-1 even on a ring of {n_nodes}")
    half = (d - 1) // 2
    offsets = np.arange(n_nodes) - np.arange(n_nodes)[:, None] + half
    return Graph(offsets % n_nodes <= 2 * half)


def radius_graph(positions, radius):
    """Geometric graph linking nodes within the given distance.

    A disconnected result is flagged on the Graph and warned about, not
    rejected; such topologies are representable but outside the regular-graph
    theory.
    """
    positions = np.asarray(positions, dtype=float)
    if positions.ndim != 2:
        raise ValueError("positions must be (n_nodes, dim)")
    diff = positions[:, None, :] - positions[None, :, :]
    graph = Graph(np.sqrt((diff ** 2).sum(axis=2)) <= radius)
    if not graph.connected:
        warnings.warn("radius graph is disconnected", RuntimeWarning)
    return graph


def _as_node_tau(tau, n_nodes):
    tau = np.asarray(tau, dtype=float)
    if tau.shape != (n_nodes,):
        if tau.ndim:
            raise ValueError(f"{tau.size} step sizes for {n_nodes} nodes")
        tau = np.broadcast_to(tau, (n_nodes,))
    if not (np.minimum.reduce(tau) > 0 and np.maximum.reduce(tau) < np.inf):
        raise ValueError("all step sizes must be finite and positive")
    return tau


def _check_nodes(data, n_nodes):
    """A ValueError unless data is a :class:`NodeData` of n_nodes nodes
    whose phis are (|V|, n)."""
    if not (isinstance(data, NodeData) and len(data) == n_nodes
            and data.phis.shape == (n_nodes, data.stack.A.shape[2])):
        raise ValueError(f"node data must be a NodeData of {n_nodes} nodes "
                         "with (|V|, n) phis")


# The form rule of an odista pair.  Before its shrink a pair is linear in
# the node-major vec(X), x <- S[G x - b] with the lifted pair map
# G = kron(M, I_n) - blockdiag(h_v A_v'A_v): one (|V| n)^2 gemv in place of
# the batched pair's five matmul and ufunc calls.  A round runs its first
# LIFT_AFTER pairs batched; if |V| n <= LIFT_MAX, it then builds G once and
# runs every later pair lifted.  A sweep of single pairs on a ring (2-core
# VM, BLAS on one thread, an earlier four-pass shrink) put the lifted pair
# at 0.35 of the batched one at |V| n = 80 (5 against 15 us), 0.5 at 160,
# 0.7 at 224-240 and behind it from 256 on.  Building G costs as much as the
# lifted form saves on 2.4 pairs at |V| n = 80 and on 4.1 at 160.  So a
# round waits about as many pairs as the build is worth before it makes
# it, and a round that stops soon after the switch pays at most about
# twice what its better form would have cost.
LIFT_MAX = 160
LIFT_AFTER = 4


def _batched_pair(A, h, M, AX, AX_row, X_col, X_row, X, MX):
    """The batched pair map MX = M X - h K(X) of :class:`OdistaRound`, with
    X_col and X_row views of X and AX_row one of the scratch AX."""
    np.matmul(A, X_col, out=AX)
    np.multiply(h, AX, out=AX)
    np.matmul(M, X, out=MX)
    np.matmul(AX_row, A, out=X_row)
    np.subtract(MX, X, out=MX)


class OdistaRound(_Round):
    """Odista round on one slice, stepped in half-steps on node-major rows.

    :meth:`start` checks the inputs, among them that X is node-major
    (|V|, n), and builds, once, h = tau/2 per node, the pair map
    M = W2/2 + diag(1/2 - h mu), mu the stack's ridge, and one pair of
    shrink bounds lo, hi = b -+ lam h with b = h phi.  Half-steps
    count from :meth:`start`, even ones communicate and odd ones descend.
    Each descent runs with the communication before it as one map
    X <- S_{lam h}[M X - h K(X) - b], K(X) the batched products
    A_v'(A_v x_v): that is x_v <- S_{lam h_v}[(x_v + cbar_v - tau_v (Q_v x_v
    + phi_v)) / 2], cbar_v the neighborhood mean of C = W X.  A
    communication not yet followed by its descent leaves X as it is.

    The pairs are the shared loop's iterations in two phases: batched,
    Y = M X - h K(X), then lifted, y = G vec(X), from pair LIFT_AFTER on
    when |V| n <= LIFT_MAX (G is built at that pair and agrees with the
    batched map to 1e-12 relative).  The phase depends on a pair's index
    alone, so a round stepped in chunks is bitwise the round stepped once.
    No pair allocates: a batched pair writes (h_v A_v x_v)' A_v over X
    through scratch made once.  X is the round's own C-order copy of the
    caller's array-like, overwritten by each :meth:`step`; :meth:`state`
    returns a copy.
    """

    __slots__ = ("graph", "lam", "X", "_done", "_A", "_h", "_M", "_switch",
                 "_lifted")

    def __init__(self, graph, lam):
        self.graph, self.lam = graph, lam

    def start(self, data, tau, X):
        n_nodes = self.graph.n_nodes
        _check_nodes(data, n_nodes)
        stack = data.stack
        if not 0.0 < self.lam < np.inf:
            raise ValueError(f"lam must be finite and positive, got {self.lam}")
        X = self.X = np.array(X, dtype=float, order="C")
        if X.shape != (n_nodes, stack.A.shape[2]):
            raise ValueError(f"state X {X.shape} is not (|V|, n)")
        h = _as_node_tau(tau, n_nodes).reshape(-1, 1) / 2.0
        self._A, self._h = stack.A, h[:, :, None]
        # the shrink bounds b -+ lam h, b = h phi
        b = np.multiply(data.phis, h)
        thr = self.lam * h
        lo = np.subtract(b, thr)
        self._M = _plus_diagonal(self.graph.W2, 0.5, 0.5 - h[:, 0] * stack.mu)
        # batched pairs loop on X itself, (|V|, n), with scratch for A_v x_v
        self._arm(X, lo, np.add(b, thr, out=b))
        AX = np.empty((n_nodes, stack.A.shape[1], 1))
        self._affine = functools.partial(
            _batched_pair, stack.A, self._h, self._M, AX,
            AX.reshape(n_nodes, 1, -1), X[..., None], X[:, None])
        # the form rule: the index of the first lifted pair, if any
        self._switch = LIFT_AFTER if X.size <= LIFT_MAX else np.inf
        self._lifted = None
        self._done = 0
        return self

    def step(self, k):
        """k half-steps: the pairs they complete, each in its phase."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        i, j = self._done // 2, (self._done + k) // 2
        self._done += k
        mid = max(i, min(j, self._switch))
        _Round.step(self, mid - i)
        if j > mid:
            if self._lifted is None:
                self._lifted = self._lifted_map()
                # G.dot: the gemv of np.matmul, with the least call overhead;
                # the lifted map acts on vec(X), so the loop's arrays go flat
                self._affine = self._lifted.dot
                self._x, self._y, self._lo, self._hi = (
                    a.reshape(-1) for a in (self._x, self._y, self._lo,
                                            self._hi))
            _Round.step(self, j - mid)
        return self

    def _lifted_map(self):
        """The lifted pair map G = kron(M, I_n) - blockdiag(h_v A_v'A_v),
        written through two strided views of one zeroed (N, N) buffer,
        N = |V| n: the diagonal blocks take one batched (-h A)'A product and
        the (v, i), (w, i) entries then add M."""
        V, _, n = self._A.shape
        N, s = V * n, self._A.itemsize
        G = np.zeros((N, N))
        blocks = np.ndarray((V, n, n), buffer=G,
                            strides=((N + 1) * n * s, N * s, s))
        np.matmul((-self._h * self._A).transpose(0, 2, 1), self._A, out=blocks)
        pattern = np.ndarray((V, V, n), buffer=G,
                             strides=(n * N * s, n * s, (N + 1) * s))
        np.add(pattern, self._M[:, :, None], out=pattern)
        return G

    def state(self):
        return self.X.copy()


def odista_round(state, graph, data, lam, tau, r):
    """One online round: r half-steps of :class:`OdistaRound` from the
    carried record's node-major X.  It opens with a communication, so r = 2
    is one communication and one descent, and an odd r, which ends on a
    communication no descent reads, returns the X of r - 1."""
    if r < 1:
        raise ValueError(f"r must be >= 1, got {r}")
    return NetworkState(
        OdistaRound(graph, lam).start(data, tau, state.X).step(r).state())


def theta_tau(data, tau):
    """Contraction driver of the descent half-step: max_v ||I - tau_v Q_v||^2.

    Below 1 whenever every tau_v lambda_max(Q_v) <= 2 holds strictly on one
    side; the per-round Frobenius contraction factor over p pairs is
    ((1 + theta) / 2)^(p/2).  |1 - tau_v lambda| is convex in lambda, so the
    extreme eigenvalues of Q_v, cached in its operator, attain the max.
    """
    _check_nodes(data, len(data))
    tau = _as_node_tau(tau, len(data))
    worst = 0.0
    for t, op in zip(tau, data):
        sigma, beta = op.eig_extremes()
        worst = max(worst, (1.0 - t * sigma) ** 2, (1.0 - t * beta) ** 2)
    return float(worst)

