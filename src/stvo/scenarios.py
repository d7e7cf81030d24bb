"""Experiment generators: time-varying ARX identification and RSS tracking.

All randomness flows from a single 64-bit seed through named sub-streams,
so regenerating any piece with the same configuration is bitwise
reproducible and adding a consumer never perturbs the draws of another.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import ElasticNetData

# Named sub-stream tags; the tuple (seed, tag, *indices) seeds a Generator.
STREAM_INPUT = 0
STREAM_NOISE = 1
STREAM_WALK = 2
STREAM_DICT = 3
STREAM_PROBLEM = 4

# Largest n_meas x n_cells dictionary RssConfig accepts.  The stream holds
# several arrays that size (distances, rows, centred copy, node row stacks).
MAX_DICTIONARY_BYTES = 2 ** 28


def substream(seed, tag, *indices):
    """Deterministic RNG for one named consumer of the run seed."""
    return np.random.default_rng((int(seed), int(tag)) + tuple(int(i) for i in indices))


# ---------------------------------------------------------------------------
# Time-varying ARX identification
# ---------------------------------------------------------------------------

def _check_snr_db(snr_db):
    """A ValueError below snr_db = -3080, where the noise power ratio
    10^(-snr_db/10) that the builders form exceeds 1e308."""
    if not snr_db >= -3080.0:
        raise ValueError(f"snr_db={snr_db} is below -3080, where the noise "
                         "power ratio 10^(-snr_db/10) overflows")


@dataclass
class TvarxConfig:
    """First-order time-varying ARX scenario, overparameterized on purpose.

    The true system has one autoregressive and one input tap; the estimator
    is given P_hat + Q_hat candidate taps and must recover the sparse truth.
    m consecutive samples form one measurement block (m < P_hat + Q_hat, the
    compressed regime).  `lam` and `mu` are the l1 and l2 weights of the
    per-block elastic net.
    """

    P_hat: int = 10
    Q_hat: int = 10
    m: int = 12
    snr_db: float = 25.0
    horizon_s: float = 1.0
    sample_rate_hz: float = 1000.0
    lam: float = 1e-2
    mu: float = 1e-6

    def __post_init__(self):
        if self.m >= self.P_hat + self.Q_hat:
            raise ValueError("m must stay below P_hat + Q_hat")
        if self.m < 1 or self.P_hat < 1 or self.Q_hat < 1:
            raise ValueError("dimensions must be positive")
        if self.n_blocks < 1:
            raise ValueError(
                "the horizon must hold at least one block of m samples")
        _check_snr_db(self.snr_db)

    @property
    def n(self):
        return self.P_hat + self.Q_hat

    @property
    def n_samples(self):
        return int(round(self.horizon_s * self.sample_rate_hz))

    @property
    def n_blocks(self):
        return self.n_samples // self.m


def experiment_params(experiment, t):
    """True parameter pair (a1, b1) at time t.

    exp1 switches both parameters piecewise at fixed instants, with t in
    seconds, one time or an array of times.  exp2 varies them smoothly as
    a1 = 0.8 (1 + 1/sqrt(t)) and b1 = 0.9 + 0.1 sin(2 ln t), with t the
    (positive) sample index; on the index scale a1 decays toward its limit
    with convergent path length and b1 oscillates with logarithmic path
    length.  Seconds would put the recursion in the unstable |a1| > 1 regime
    for the whole horizon.
    """
    if experiment == "exp1":
        t = np.asarray(t, dtype=float)
        if np.any(t < 0.0):
            raise ValueError(f"t={t.min()} before the start of the run")
        a1 = np.where(t < 0.5, -0.9, 0.9)
        b1 = np.select([t < 0.2, t < 0.4, t < 0.7], [0.7, -0.8, 0.8], -0.7)
        return a1[()], b1[()]
    if experiment == "exp2":
        if not t > 0.0:
            raise ValueError(f"t={t} must be a positive sample index")
        return 0.8 * (1.0 + 1.0 / math.sqrt(t)), 0.9 + 0.1 * math.sin(2.0 * math.log(t))
    raise ValueError(f"unknown experiment {experiment!r}")


@dataclass
class TvarxData:
    """Simulated trajectories, aligned at the sample index (t = index / rate)."""

    u: np.ndarray
    y: np.ndarray
    x_true: np.ndarray


def tvarx_simulate(cfg, experiment, seed, noise=True):
    """Simulate y_t = a1_t y_{t-1} + b1_t u_{t-1} + e_t over the horizon.

    The input is a standard Gaussian block of length m repeated
    periodically.  The equation noise e_t is white Gaussian, sized per
    measurement block so the measured y-block sits at the configured SNR:
    the recursion amplifies equation noise by roughly 1/(1 - a1_t^2) in
    power, so sigma carries the matching sqrt(1 - a1_t^2) correction.  Lags
    reaching before t = 0 read an implicit zero warm-up.
    """
    N = cfg.n_samples
    rng_u = substream(seed, STREAM_INPUT)
    u = np.tile(rng_u.standard_normal(cfg.m), N // cfg.m + 1)[:N]
    if experiment == "exp1":
        # exp1 runs on the wall clock, compared for all samples at once
        a, b = experiment_params("exp1", np.arange(N) / cfg.sample_rate_hz)
    else:
        # exp2 runs on the sample index, undefined at index 0, so the first
        # sample reuses index 1
        a, b = np.array([experiment_params(experiment, max(t, 1))
                         for t in range(N)], dtype=float).T

    def recurse(noise_seq):
        # Python floats round as numpy's float64 scalars do, at less cost
        y, y_prev, u_prev = [], 0.0, 0.0
        for a_t, b_t, e_t, u_t in zip(a.tolist(), b.tolist(),
                                      noise_seq.tolist(), u.tolist()):
            y_prev = a_t * y_prev + b_t * u_prev + e_t
            y.append(y_prev)
            u_prev = u_t
        return np.array(y)

    y_clean = recurse(np.zeros(N))
    if noise:
        scale = 10.0 ** (-cfg.snr_db / 10.0)
        # the power of each m-block and of a shorter last one; a row sum of
        # the full blocks is bitwise np.sum of each
        sq = y_clean ** 2
        full = N - N % cfg.m
        power = sq[:full].reshape(-1, cfg.m).sum(axis=1)
        sizes = [cfg.m] * power.size
        if full < N:
            power = np.append(power, np.sum(sq[full:]))
            sizes.append(N - full)
        sigma = np.repeat(np.sqrt(power * scale / sizes), sizes)
        # The AR loop turns white equation noise into output noise with
        # stationary variance sigma^2/(1 - a^2); deflate sigma so the
        # noise power observed in y matches the block target.
        sigma *= np.sqrt(np.maximum(1.0 - a ** 2, 0.0))
        e = substream(seed, STREAM_NOISE).standard_normal(N) * sigma
        y = recurse(e)
    else:
        y = y_clean
    x_true = np.zeros((N, cfg.n))
    x_true[:, 0] = a
    x_true[:, cfg.P_hat] = b
    return TvarxData(u=u, y=y, x_true=x_true)


def regressor_matrix(y, u, t, m, P_hat, Q_hat):
    """Stack m lagged-measurement rows anchored at time t.

    Row j holds (y_{t+j-1}, ..., y_{t+j-P_hat}, u_{t+j-1}, ..., u_{t+j-Q_hat})
    and pairs with target y_{t+j}: the first m sliding lag windows of y and
    u from t - P_hat and t - Q_hat on, each read newest first.  Requires
    t >= max(P_hat, Q_hat) so every lag exists in the given arrays.
    """
    y = np.asarray(y, dtype=float)
    u = np.asarray(u, dtype=float)
    if t < max(P_hat, Q_hat):
        raise ValueError(f"t={t} leaves lags before the start of the data")
    if t + m - 1 > min(y.size, u.size):
        raise ValueError("not enough samples after t for a full block")
    lags_y = sliding_window_view(y[t - P_hat:t + m], P_hat)[:m, ::-1]
    lags_u = sliding_window_view(u[t - Q_hat:t + m], Q_hat)[:m, ::-1]
    return np.hstack([lags_y, lags_u])


def tvarx_stream(cfg, sim):
    """Elastic-net data blocks of the simulated identification run sim, one
    per m-block.

    Early blocks reach into a zero warm-up of max(P_hat, Q_hat) samples so
    that the first anchor sits at t = 0.  The rows of every block are cut
    from one regressor matrix over the whole horizon, checked once as one
    block whose row slices are the blocks.
    """
    W = max(cfg.P_hat, cfg.Q_hat)
    y_ext = np.concatenate([np.zeros(W), sim.y])
    u_ext = np.concatenate([np.zeros(W), sim.u])
    m, rows = cfg.m, cfg.n_blocks * cfg.m
    whole = ElasticNetData(
        A=regressor_matrix(y_ext, u_ext, W, rows, cfg.P_hat, cfg.Q_hat),
        y=sim.y[:rows], lam=cfg.lam, mu=cfg.mu)
    return [ElasticNetData._of(whole.A[s:s + m], whole.y[s:s + m], whole.lam,
                               whole.mu) for s in range(0, rows, m)]


# ---------------------------------------------------------------------------
# RSS target tracking
# ---------------------------------------------------------------------------

@dataclass
class RssConfig:
    """Grid tracking scenario: a square area of unit cells ringed by sensors.

    `sensors` must be a perfect square (they deploy on a regular grid); each
    contributes meas_per_sensor dictionary rows drawn from the attenuation
    model (p0_dbm, d0_m, exponent; see rss_model_value) with training noise
    at snr_db.  lam and mu weight the elastic net solved against the
    offset-removed, spectrally normalized dictionary.
    """

    area_m: float = 25.0
    cell_m: float = 1.0
    sensors: int = 36
    meas_per_sensor: int = 4
    snr_db: float = 25.0
    comm_radius_m: float = 4.5
    round_ms: float = 50.0
    path_length_steps: int = 100
    p0_dbm: float = -40.0
    d0_m: float = 1.0
    exponent: float = 3.0
    lam: float = 2e-3
    mu: float = 1e-2

    def __post_init__(self):
        side = round(math.sqrt(max(self.sensors, 0)))
        if self.sensors < 1 or side * side != self.sensors:
            raise ValueError(
                f"sensors={self.sensors} is not a positive perfect square")
        if self.area_m <= 0 or self.cell_m <= 0 or self.cell_m > self.area_m:
            raise ValueError("inconsistent area and cell size")
        cells = (self.area_m / self.cell_m) ** 2
        if not 0 < 8 * self.n_meas * cells <= MAX_DICTIONARY_BYTES:
            raise ValueError(f"a {self.n_meas} x {cells:.3g} dictionary is "
                             f"empty or over {MAX_DICTIONARY_BYTES >> 20} MiB")
        for key, ok, what in (
                ("round_ms", 0 < self.round_ms < math.inf,
                 "not finite and positive"),
                ("path_length_steps", self.path_length_steps >= 1, "below 1"),
                ("d0_m", self.d0_m > 0, "not positive"),
                ("comm_radius_m", self.comm_radius_m >= 0, "negative")):
            if not ok:
                raise ValueError(f"{key}={getattr(self, key)} is {what}")
        _check_snr_db(self.snr_db)

    @property
    def cells_per_side(self):
        return int(round(self.area_m / self.cell_m))

    @property
    def n_cells(self):
        return self.cells_per_side ** 2

    @property
    def n_meas(self):
        return self.sensors * self.meas_per_sensor


def rss_model_value(d, cfg):
    """Modeled received power in dBm at distance d (meters): log-distance
    attenuation p0_dbm - 10 * exponent * log10(d / d0_m), clamped at the
    reference distance so cells nearer than d0_m read p0_dbm."""
    d = np.maximum(np.asarray(d, dtype=float), cfg.d0_m)
    return cfg.p0_dbm - 10.0 * cfg.exponent * np.log10(d / cfg.d0_m)


def _grid_centers(side, step):
    """Centers of the cells of a side x side grid of step-wide cells,
    row-major, as (side^2, 2) points."""
    coords = (np.arange(side) + 0.5) * step
    xx, yy = np.meshgrid(coords, coords)
    return np.column_stack([xx.ravel(), yy.ravel()])


def sensor_positions(cfg):
    """Regular sensor grid, centered within the area."""
    side = round(math.sqrt(cfg.sensors))
    return _grid_centers(side, cfg.area_m / side)


def cell_centers(cfg):
    """Centers of the unit cells, row-major over the grid."""
    return _grid_centers(cfg.cells_per_side, cfg.cell_m)


def rss_dictionary(cfg, seed):
    """Fingerprint dictionary, meas_per_sensor rows per sensor.

    Entry (i, j) is the modeled power at sensor i from a source in cell j;
    the rows of one sensor differ by independent training-noise draws at the
    configured SNR, which keeps them informative rather than redundant.  The
    noise of all rows is one draw, filled sensor by sensor, row by row.
    """
    sensors = sensor_positions(cfg)
    cells = cell_centers(cfg)
    diff = sensors[:, None, :] - cells[None, :, :]
    base = rss_model_value(np.sqrt((diff ** 2).sum(axis=2)), cfg)
    rms = np.sqrt(np.mean(base ** 2, axis=1))
    noise = substream(seed, STREAM_DICT).standard_normal(
        (cfg.n_meas, cfg.n_cells))
    scale = 10.0 ** (-cfg.snr_db / 20.0)
    rows = noise.reshape(cfg.sensors, cfg.meas_per_sensor, cfg.n_cells)
    rows *= rms[:, None, None]
    rows *= scale
    rows += base[:, None, :]
    return noise


def feasible_moves(cell, side):
    """In-bounds single-cell moves from a grid cell, the cell itself included."""
    row, col = divmod(cell, side)
    moves = []
    for dr in (-1, 0, 1):
        for dc in (-1, 0, 1):
            rr, cc = row + dr, col + dc
            if 0 <= rr < side and 0 <= cc < side:
                moves.append(rr * side + cc)
    return moves


def target_walk(cfg, seed):
    """Random walk over the cell grid, one move per round, drawn from seed.

    Each step picks uniformly among the in-bounds moves (staying put
    included), which realizes reflection at the borders; corners offer four
    feasible cells.  Returns the visited cell indices, length
    path_length_steps + 1.
    """
    side = cfg.cells_per_side
    rng = substream(seed, STREAM_WALK)
    cell = int(rng.integers(side * side))
    path = [cell]
    for _ in range(cfg.path_length_steps):
        moves = feasible_moves(cell, side)
        cell = moves[rng.integers(len(moves))]
        path.append(cell)
    return np.array(path, dtype=int)


def rss_measure(A, x_true, snr_db, seed, t):
    """Noisy linear measurement y = A x + e at round t.

    The noise is white Gaussian with total power ||A x||^2 10^(-snr/10),
    drawn from the sub-stream named by (seed, t) so each round's draw is
    reproducible in isolation.
    """
    y0 = A @ x_true
    m = y0.size
    sigma = math.sqrt(float(y0 @ y0) * 10.0 ** (-snr_db / 10.0) / m)
    e = substream(seed, STREAM_NOISE, t).standard_normal(m) * sigma
    return y0 + e


def _shared_blocks(A, ys, lam, mu):
    """ElasticNetData(A, y, lam, mu) of each row y of ys, bitwise, sharing
    A: A is checked once, with the first block, and ys at once, as one block
    of no columns, so a bad block fails as its own construction would."""
    first = ElasticNetData(A=A, y=ys[0], lam=lam, mu=mu)
    ElasticNetData(A=np.empty((ys.size, 0)), y=ys.reshape(-1), lam=lam, mu=mu)
    return [first] + [ElasticNetData._of(first.A, y, lam, mu) for y in ys[1:]]


def rss_stream(cfg, seed):
    """Per-round elastic-net slices of the tracking run drawn from seed.

    Measurements are taken against the raw dBm dictionary.  For the solver
    the common offset (the mean column) is subtracted from both sides and
    the result is divided by its spectral norm: the occupancy vector sums
    to one, so y - a_bar = (A - a_bar 1^T) x + noise holds exactly and the
    subtraction removes the near-rank-one component that otherwise dwarfs
    the position-dependent directions.  lam and mu are calibrated against
    the rescaled dictionary.  Returns (blocks, walk); every block holds the
    one rescaled dictionary as its A, so the slices reuse one factorization.
    """
    A = rss_dictionary(cfg, seed)
    offset = A.mean(axis=1)
    A_used = A - offset[:, None]
    scale = np.linalg.norm(A_used, 2)
    A_used /= scale
    walk = target_walk(cfg, seed)
    ys = []
    for t, cell in enumerate(walk):
        x_true = np.zeros(cfg.n_cells)
        x_true[cell] = 1.0
        ys.append(rss_measure(A, x_true, cfg.snr_db, seed, t))
    ys = (np.array(ys) - offset) / scale
    return _shared_blocks(A_used, ys, cfg.lam, cfg.mu), walk


# ---------------------------------------------------------------------------
# Synthetic drifting regression
# ---------------------------------------------------------------------------

@dataclass
class SyntheticConfig:
    """Knobs of the drifting sparse regression scenario."""

    n: int = 20
    m: int = 12
    blocks: int = 100
    drift: float = 2e-3
    lam: float = 1e-2
    mu: float = 1e-6
    snr_db: float = 25.0

    def __post_init__(self):
        if self.n < 2 or self.m < 1 or self.blocks < 1:
            raise ValueError("scenario dimensions must be positive")
        if self.lam <= 0 or self.mu <= 0:
            raise ValueError("lam and mu must be positive")
        _check_snr_db(self.snr_db)


def synthetic_stream(cfg, seed):
    """Slowly drifting sparse regression stream of seed, in elastic-net form.

    A fixed Gaussian sensing matrix observes a two-sparse target whose
    nonzero entries move smoothly; measurement noise at cfg.snr_db.
    """
    n, m, drift = cfg.n, cfg.m, cfg.drift
    rng = substream(seed, STREAM_PROBLEM)
    A = rng.standard_normal((m, n)) / math.sqrt(m)
    supp = (0, n // 2)
    ys = []
    truth = []
    noise_rng = substream(seed, STREAM_NOISE)
    scale = 10.0 ** (-cfg.snr_db / 20.0)
    for t in range(cfg.blocks):
        x = np.zeros(n)
        x[supp[0]] = 1.0 + 0.3 * math.sin(2.0 * math.pi * drift * t)
        x[supp[1]] = -0.8 + 0.3 * math.cos(2.0 * math.pi * drift * t)
        y0 = A @ x
        ys.append(y0 + noise_rng.standard_normal(m) * np.linalg.norm(y0)
                  * scale / math.sqrt(m))
        truth.append(x)
    return _shared_blocks(A, np.array(ys), cfg.lam, cfg.mu), np.array(truth)
