"""Dynamic-regret instrumentation and the closed-form regret bound.

A run is summarized by a :class:`RunTrace`: per round, the loss of the
action played before the round's objective was revealed, the reference
minimizer's loss, and the reference points themselves.  Round indices start
at 1; the row at t = 0 describes the initial action against the first
revealed objective and contributes nothing to the regret.
"""

from dataclasses import dataclass, field

import numpy as np

from .core import contraction_constants


@dataclass
class RunTrace:
    """Aligned per-round arrays of one online run.

    loss scores the played actions, x_star / z_star are the reference
    minimizers and fixed points, z the played auxiliary sequence if any.
    Runner-built traces start with the t = 0 row, whose action is the cold
    start; the bound's boundary terms read that row.
    """

    t: np.ndarray
    loss: np.ndarray
    oracle_loss: np.ndarray
    x_star: np.ndarray | None = None
    z_star: np.ndarray | None = None
    z: np.ndarray | None = None

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=int)
        self.loss = np.asarray(self.loss, dtype=float)
        self.oracle_loss = np.asarray(self.oracle_loss, dtype=float)
        rounds = self.t.size
        if rounds == 0:
            raise ValueError("trace must be nonempty")
        if self.loss.shape != (rounds,) or self.oracle_loss.shape != (rounds,):
            raise ValueError("loss arrays must match the round axis")
        gap = self.loss - self.oracle_loss
        if np.min(gap) < -1e-9:
            raise ValueError(
                f"loss below oracle loss by {-np.min(gap):.3e}; "
                "reference minimizer is not optimal")


def dynamic_regret(trace):
    """Cumulative regret and its per-round average.

    Returns (reg, reg_over_t) where reg_t sums loss - oracle_loss over the
    rounds with index >= 1 and reg_over_t divides by the round index
    (zero at a leading t = 0 row).
    """
    inc = np.where(trace.t >= 1, trace.loss - trace.oracle_loss, 0.0)
    reg = np.cumsum(inc)
    denom = np.maximum(trace.t, 1)
    return reg, reg / denom


def path_length(points, squared=False):
    """Total variation of a sequence of points.

    sum_t ||p_t - p_{t-1}||_2, or the sum of squared increments when
    ``squared`` is set.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim == 1:
        points = points[:, None]
    steps = np.linalg.norm(np.diff(points, axis=0), axis=1)
    return float(np.sum(steps ** 2 if squared else steps))


@dataclass
class BoundConstants:
    """Constants of the closed-form dynamic-regret bound.

    All are measured from the run and its problem stream: M_Q and M_phi
    bound the quadratic and linear terms, M_star bounds both the reference
    minimizers and fixed points (different steps of the derivation consume
    one or the other, so the larger of the two is safe for both).  delta
    and q are worst-case contraction constants over the stream and r the
    inner budget per round.
    """

    M_Q: float
    M_phi: float
    M_star: float
    lam: float
    n: int
    delta: float
    q: float
    r: int
    delta_z0: float
    delta_zT: float
    alpha1: float = field(init=False)
    alpha2: float = field(init=False)
    zeta1: float = field(init=False)
    zeta2: float = field(init=False)
    zeta3: float = field(init=False)
    zeta4: float = field(init=False)
    c1: float = field(init=False)
    c2: float = field(init=False)
    c3: float = field(init=False)
    c4: float = field(init=False)
    c5: float = field(init=False)
    kappa: float = field(init=False)
    eta0: float = field(init=False)
    eta1: float = field(init=False)
    eta2: float = field(init=False)
    eta3: float = field(init=False)
    eta4: float = field(init=False)

    def __post_init__(self):
        if not 0 <= self.delta < 1:
            raise ValueError(f"delta must lie in [0, 1), got {self.delta}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")
        dr = self.delta ** self.r
        d2r = self.delta ** (2 * self.r)
        qr = self.q ** self.r
        dz = self.delta_z0 - self.delta_zT
        dz2 = self.delta_z0 ** 2 - self.delta_zT ** 2
        self.alpha1 = (self.M_Q * self.M_star + self.M_phi
                       + self.lam * np.sqrt(self.n))
        self.alpha2 = self.M_Q / 2.0
        self.zeta1 = self.alpha1 * qr
        self.zeta2 = 2.0 * self.alpha2 * qr ** 2
        self.zeta3 = self.alpha1
        self.zeta4 = 2.0 * self.alpha2
        self.c1 = dr * dz / (1.0 - dr)
        self.c2 = 1.0 / (1.0 - dr)
        self.c3 = (d2r * dz2 + 4.0 * self.M_star * d2r * dz
                   + 4.0 * self.M_star * dr * self.c1) / (1.0 - d2r)
        self.c4 = 4.0 * self.M_star * dr * self.c2 / (1.0 - d2r)
        self.c5 = 1.0 / (1.0 - d2r)
        self.kappa = self.zeta1 * dz + self.zeta2 * dz2
        self.eta0 = self.zeta1 * self.c1 + self.zeta2 * self.c3 + self.kappa
        self.eta1 = self.zeta1 * self.c2 + self.zeta2 * self.c4
        self.eta2 = self.zeta2 * self.c5
        self.eta3 = self.zeta3
        self.eta4 = self.zeta4


def assumption_bounds(problems):
    """Largest spectral norm of Q_t and euclidean norm of phi_t on a stream.

    Finiteness of these maxima is the boundedness assumption behind the
    regret bound; measuring them makes the assumption checkable on data.
    Each Q_t is symmetric positive definite, so its spectral norm is the
    largest eigenvalue its operator caches.
    """
    M_Q = max(p.lambda_max for p in problems)
    M_phi = max(float(np.linalg.norm(p.phi)) for p in problems)
    return M_Q, M_phi


def measure_bound_constants(trace, problems, r):
    """Bound constants measured from a splitting-solver run.

    Expects a runner-built trace whose first row is the t = 0 cold start,
    carrying the reference sequences x_star / z_star and the played auxiliary
    sequence z; delta and q are the worst case over the stream's slices.
    """
    if trace.x_star is None or trace.z_star is None:
        raise ValueError("trace must carry the reference sequences")
    M_Q, M_phi = assumption_bounds(problems)
    x_norms = np.linalg.norm(trace.x_star, axis=1)
    z_norms = np.linalg.norm(trace.z_star, axis=1)
    M_star = max(float(np.max(x_norms)), float(np.max(z_norms)))
    delta = 0.0
    q = 0.0
    for p in problems:
        cc = contraction_constants(p)
        delta = max(delta, cc.delta)
        q = max(q, cc.q)
    if trace.z is not None:
        delta_z0 = float(np.linalg.norm(trace.z[0] - trace.z_star[0]))
        delta_zT = float(np.linalg.norm(trace.z[-1] - trace.z_star[-1]))
    else:
        # Zero cold start; the final-state gap only ever enters subtracted,
        # so dropping it keeps the bound valid, just looser.
        delta_z0 = float(np.linalg.norm(trace.z_star[0]))
        delta_zT = 0.0
    lam = problems[0].lam
    return BoundConstants(M_Q=M_Q, M_phi=M_phi, M_star=M_star, lam=lam,
                          n=problems[0].n, delta=delta, q=q, r=r,
                          delta_z0=delta_z0, delta_zT=delta_zT)


def reference_paths(trace):
    """Per-round drift sums of the reference sequences.

    Returns (path_x, path_x_sq, path_z, path_z_sq) summed over consecutive
    trace rows, so a leading t = 0 row contributes the step into round 1.
    """
    if trace.x_star is None or trace.z_star is None:
        raise ValueError("trace must carry the reference sequences")
    xs = trace.x_star
    zs = trace.z_star
    return (path_length(xs), path_length(xs, squared=True),
            path_length(zs), path_length(zs, squared=True))


def theorem1_bound(trace, constants):
    """Closed-form upper bound on the cumulative dynamic regret.

    eta0 + eta1 * sum ||z*_t - z*_{t-1}|| + eta2 * sum ||z*_t - z*_{t-1}||^2
         + eta3 * sum ||x*_t - x*_{t-1}|| + eta4 * sum ||x*_t - x*_{t-1}||^2.
    """
    path_x, path_x_sq, path_z, path_z_sq = reference_paths(trace)
    return float(constants.eta0
                 + constants.eta1 * path_z + constants.eta2 * path_z_sq
                 + constants.eta3 * path_x + constants.eta4 * path_x_sq)
