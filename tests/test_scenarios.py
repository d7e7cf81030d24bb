"""Unit tests for the experiment data generators."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stvo import scenarios
from stvo.core import ElasticNetData, elastic_net_problem
from stvo.distributed import RowStack
from stvo.metrics import path_length
from stvo.scenarios import (
    STREAM_NOISE,
    STREAM_PROBLEM,
    RssConfig,
    SyntheticConfig,
    TvarxConfig,
    cell_centers,
    experiment_params,
    feasible_moves,
    regressor_matrix,
    rss_dictionary,
    rss_measure,
    rss_model_value,
    rss_stream,
    sensor_positions,
    substream,
    synthetic_stream,
    target_walk,
    tvarx_simulate,
    tvarx_stream,
)
from stvo.solvers import oracle_minimizer

from oracles import (
    assert_bitwise_equal,
    drifting_quadratic_stream,
    loop_regressor_matrix,
    loop_rss_dictionary,
    loop_tvarx_blocks,
    scalar_tvarx_simulate,
    spectrum_problem,
)

# derandomized, so that a rerun draws the same examples as every other test
SETTINGS = settings(max_examples=40, deadline=None, derandomize=True)

seeds = st.integers(0, 2 ** 32 - 1)


# ---------------------------------------------------------------------------
# TVARX identification
# ---------------------------------------------------------------------------

def test_config_defaults():
    cfg = TvarxConfig()
    assert cfg.n == 20
    assert cfg.n_samples == 1000
    assert cfg.n_blocks == 83


def test_config_validation():
    with pytest.raises(ValueError):
        TvarxConfig(m=25)
    with pytest.raises(ValueError, match="unknown experiment 'exp3'"):
        tvarx_simulate(TvarxConfig(), "exp3", 0)


def test_experiment1_piecewise_values():
    assert experiment_params("exp1", 0.3) == (-0.9, -0.8)
    assert experiment_params("exp1", 0.75) == (0.9, -0.7)
    assert experiment_params("exp1", 0.1) == (-0.9, 0.7)
    assert experiment_params("exp1", 0.45) == (-0.9, 0.8)
    with pytest.raises(ValueError):
        experiment_params("exp1", -0.1)


def test_experiment2_smooth_values():
    a1, b1 = experiment_params("exp2", 1)
    assert a1 == pytest.approx(1.6)
    assert b1 == pytest.approx(0.9)
    a1, b1 = experiment_params("exp2", 4)
    assert a1 == pytest.approx(0.8 * 1.5)
    assert b1 == pytest.approx(0.9 + 0.1 * math.sin(2 * math.log(4)))
    with pytest.raises(ValueError):
        experiment_params("exp2", 0)
    with pytest.raises(ValueError):
        experiment_params("nope", 0.5)


def test_experiment2_parameter_path_lengths():
    # a1's motion is summable; b1's grows slower than any linear rate.
    def paths(T):
        pts = np.array([experiment_params("exp2", t) for t in range(1, T + 1)])
        return path_length(pts[:, 0]), path_length(pts[:, 1])

    pa_1k, pb_1k = paths(1000)
    pa_2k, pb_2k = paths(2000)
    assert pa_2k - pa_1k < 0.01
    assert pb_2k / pb_1k < 2.0


def test_simulate_places_truth_at_the_two_taps():
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, "exp1", 5, noise=False)
    t = 300
    x = sim.x_true[t]
    assert x[0] == -0.9 and x[cfg.P_hat] == -0.8
    assert np.count_nonzero(x) == 2


def test_simulate_is_deterministic():
    cfg = TvarxConfig()
    s1 = tvarx_simulate(cfg, "exp2", 11)
    s2 = tvarx_simulate(cfg, "exp2", 11)
    np.testing.assert_array_equal(s1.u, s2.u)
    np.testing.assert_array_equal(s1.y, s2.y)
    np.testing.assert_array_equal(s1.x_true, s2.x_true)


def test_simulate_input_is_m_periodic():
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, "exp1", 2, noise=False)
    np.testing.assert_array_equal(sim.u[:cfg.m], sim.u[cfg.m:2 * cfg.m])


def test_regressor_matrix_smallest_case():
    y = np.array([0.0, 1.0, 2.0, 3.0])
    u = np.array([0.0, 10.0, 20.0, 30.0])
    A = regressor_matrix(y, u, t=2, m=1, P_hat=1, Q_hat=1)
    np.testing.assert_array_equal(A, [[1.0, 10.0]])


def test_regressor_matrix_shape_and_lag_order():
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, "exp1", 7, noise=False)
    A = regressor_matrix(sim.y, sim.u, t=50, m=cfg.m, P_hat=10, Q_hat=10)
    assert A.shape == (12, 20)
    np.testing.assert_array_equal(A[0, :10], sim.y[40:50][::-1])
    np.testing.assert_array_equal(A[0, 10:], sim.u[40:50][::-1])


def test_regressor_matrix_validation():
    y = np.zeros(30)
    with pytest.raises(ValueError):
        regressor_matrix(y, y, t=5, m=2, P_hat=10, Q_hat=10)
    with pytest.raises(ValueError):
        regressor_matrix(y, y, t=25, m=12, P_hat=10, Q_hat=10)


def test_noiseless_blocks_satisfy_the_linear_model():
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, "exp1", 9, noise=False)
    # anchor inside a constant-parameter segment
    t = 300
    A = regressor_matrix(sim.y, sim.u, t, cfg.m, cfg.P_hat, cfg.Q_hat)
    resid = A @ sim.x_true[t] - sim.y[t:t + cfg.m]
    assert np.max(np.abs(resid)) < 1e-12


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
@pytest.mark.parametrize("seed", range(8))
def test_simulation_is_the_scalar_recursion_bitwise(experiment, seed):
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, experiment, seed)
    u, y, x_true = scalar_tvarx_simulate(cfg, experiment, seed)
    assert_bitwise_equal(sim.u, u)
    assert_bitwise_equal(sim.y, y)
    assert_bitwise_equal(sim.x_true, x_true)


@pytest.mark.parametrize("experiment", ["exp1", "exp2"])
def test_simulation_of_uneven_blocks_is_the_scalar_recursion(
        experiment):
    # 7-sample blocks leave a last block of 6 of the 1000 samples, with and
    # without noise
    cfg = TvarxConfig(m=7, P_hat=3, Q_hat=9)
    for noise in (False, True):
        sim = tvarx_simulate(cfg, experiment, 5, noise=noise)
        u, y, x_true = scalar_tvarx_simulate(cfg, experiment, 5, noise=noise)
        assert_bitwise_equal(sim.y, y)
        assert_bitwise_equal(sim.x_true, x_true)


def test_stream_checks_the_simulation_once_for_all_its_blocks():
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, "exp1", 2)
    sim.y[500] = np.nan
    with pytest.raises(ValueError, match="A and y must be finite"):
        tvarx_stream(cfg, sim)


def test_stream_has_one_block_per_m_samples():
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, "exp1", 1)
    blocks = tvarx_stream(cfg, sim)
    assert len(blocks) == 83
    for k, blk in enumerate(blocks):
        assert blk.A.shape == (12, 20)
        assert blk.y.shape == (12,)
        assert blk.lam == cfg.lam and blk.mu == cfg.mu
        # block k is anchored at sample 12 k: its targets start there, and
        # row j's newest y lag is the target of row j - 1
        anchor = 12 * k
        np.testing.assert_array_equal(blk.y, sim.y[anchor:anchor + 12])
        np.testing.assert_array_equal(blk.A[1:, 0], sim.y[anchor:anchor + 11])


@SETTINGS
@given(seed=seeds, experiment=st.sampled_from(["exp1", "exp2"]),
       P_hat=st.integers(1, 12), Q_hat=st.integers(1, 12),
       m=st.integers(1, 23), samples=st.integers(1, 200))
# the defaults; and m = 7 leaving 5 of 1000 samples past the last block
@example(seed=0, experiment="exp1", P_hat=10, Q_hat=10, m=12, samples=1000)
@example(seed=3, experiment="exp2", P_hat=3, Q_hat=9, m=7, samples=1000)
def test_stream_blocks_are_the_row_by_row_regressors(seed, experiment, P_hat,
                                                    Q_hat, m, samples):
    m = min(m, P_hat + Q_hat - 1)
    if m < 1 or samples < m:
        return
    cfg = TvarxConfig(P_hat=P_hat, Q_hat=Q_hat, m=m,
                      horizon_s=samples / 1000.0)
    sim = tvarx_simulate(cfg, experiment, seed)
    blocks = tvarx_stream(cfg, sim)
    ref = loop_tvarx_blocks(sim.y, sim.u, m, P_hat, Q_hat)
    assert len(blocks) == len(ref) == samples // m
    for blk, (A, y) in zip(blocks, ref):
        assert_bitwise_equal(blk.A, A)
        assert_bitwise_equal(blk.y, y)


@SETTINGS
@given(seed=seeds, size=st.integers(0, 40), t=st.integers(0, 45),
       m=st.integers(0, 30), P_hat=st.integers(1, 12), Q_hat=st.integers(1, 12))
def test_regressor_matrix_is_the_row_by_row_loop(seed, size, t, m, P_hat,
                                                 Q_hat):
    rng = np.random.default_rng(seed)
    y, u = rng.standard_normal(size), rng.standard_normal(size)

    def outcome(build):
        try:
            return build(y, u, t, m, P_hat, Q_hat)
        except ValueError as exc:
            return str(exc)

    out, ref = outcome(regressor_matrix), outcome(loop_regressor_matrix)
    if isinstance(ref, str):
        assert out == ref
    else:
        assert_bitwise_equal(out, ref)


def test_first_block_reads_the_zero_warmup():
    cfg = TvarxConfig()
    blocks = tvarx_stream(cfg, tvarx_simulate(cfg, "exp1", 1))
    np.testing.assert_array_equal(blocks[0].A[0], np.zeros(20))


def test_block_oracle_recovers_truth_on_clean_data():
    cfg = TvarxConfig()
    sim = tvarx_simulate(cfg, "exp1", 13, noise=False)
    blocks = tvarx_stream(cfg, sim=sim)
    s = 25  # anchor 300, inside a constant segment
    x_star, _ = oracle_minimizer(elastic_net_problem(blocks[s]))
    assert np.max(np.abs(x_star - sim.x_true[s * cfg.m])) < 0.1


def test_node_partition_sums_back_to_the_block():
    cfg = TvarxConfig()
    blk = tvarx_stream(cfg, tvarx_simulate(cfg, "exp1", 4))[10]
    nodes = RowStack(blk, 4).nodes(blk.y)
    assert len(nodes) == 4
    Q_sum = sum(op.Q for op in nodes)
    prob = elastic_net_problem(blk)
    np.testing.assert_allclose(Q_sum, prob.Q, atol=1e-12)
    np.testing.assert_allclose(sum(nodes.phis), prob.phi,
                               atol=1e-12)
    A_norm = np.linalg.norm(blk.A, 2)
    for v, nd in enumerate(nodes):
        rows = blk.A[3 * v:3 * (v + 1)]
        assert np.linalg.norm(rows, 2) <= A_norm + 1e-12
    with pytest.raises(ValueError):
        RowStack(blk, 20).nodes(blk.y)


# ---------------------------------------------------------------------------
# RSS tracking
# ---------------------------------------------------------------------------

def test_pathloss_clamps_at_reference_distance():
    pl = RssConfig()
    assert rss_model_value(0.2, pl) == pytest.approx(-40.0)
    assert rss_model_value(1.0, pl) == pytest.approx(-40.0)


def test_pathloss_doubling_distance():
    pl = RssConfig(p0_dbm=-40.0, d0_m=1.0, exponent=2.0)
    drop = rss_model_value(1.0, pl) - rss_model_value(2.0, pl)
    assert drop == pytest.approx(6.02, abs=0.01)


def test_rss_config_geometry():
    cfg = RssConfig()
    assert cfg.n_cells == 625
    assert cfg.n_meas == 144
    assert sensor_positions(cfg).shape == (36, 2)
    assert cell_centers(cfg).shape == (625, 2)
    with pytest.raises(ValueError):
        RssConfig(sensors=35)


def test_dictionary_shape_and_distinct_columns():
    cfg = RssConfig()
    A = rss_dictionary(cfg, 21)
    assert A.shape == (144, 625)
    assert np.unique(A, axis=1).shape[1] == 625
    np.testing.assert_array_equal(A, rss_dictionary(cfg, 21))


@SETTINGS
@given(seed=seeds, sensors=st.sampled_from([1, 4, 16, 36]),
       meas_per_sensor=st.integers(1, 6),
       area_m=st.sampled_from([6.0, 12.0, 25.0]),
       snr_db=st.floats(0.0, 40.0))
def test_dictionary_is_drawn_as_sensor_by_sensor_rows(seed, sensors,
                                                      meas_per_sensor,
                                                      area_m, snr_db):
    cfg = RssConfig(sensors=sensors, meas_per_sensor=meas_per_sensor,
                    area_m=area_m, snr_db=snr_db)
    assert_bitwise_equal(rss_dictionary(cfg, seed),
                         loop_rss_dictionary(cfg, seed))


def test_feasible_moves_geometry():
    side = 25
    assert sorted(feasible_moves(0, side)) == [0, 1, 25, 26]
    assert len(feasible_moves(12 * side + 12, side)) == 9
    edge = 12 * side  # left edge, mid row
    assert len(feasible_moves(edge, side)) == 6


def test_walk_stays_on_grid_with_single_cell_steps():
    cfg = replace(RssConfig(), path_length_steps=200)
    walk = target_walk(cfg, 8)
    assert walk.shape == (201,)
    assert np.all((walk >= 0) & (walk < 625))
    rows, cols = np.divmod(walk, 25)
    cheb = np.maximum(np.abs(np.diff(rows)), np.abs(np.diff(cols)))
    assert np.all(cheb <= 1)
    np.testing.assert_array_equal(walk, target_walk(cfg, 8))


def test_measurement_noise_matches_the_snr():
    seed = 30
    A = rss_dictionary(RssConfig(), seed)
    x = np.zeros(625)
    x[300] = 1.0
    y0 = A @ x
    clean = rss_measure(A, x, 1e9, seed, 0)
    np.testing.assert_allclose(clean, y0, atol=1e-30)
    power = np.mean([np.sum((rss_measure(A, x, 25.0, seed, t) - y0) ** 2)
                     for t in range(1000)])
    assert power / np.sum(y0 ** 2) == pytest.approx(10 ** -2.5, rel=0.05)
    np.testing.assert_array_equal(rss_measure(A, x, 25.0, seed, 5),
                                  rss_measure(A, x, 25.0, seed, 5))


def test_stream_aligns_blocks_with_the_walk():
    cfg = RssConfig(path_length_steps=10)
    blocks, walk = rss_stream(cfg, 12)
    assert len(blocks) == walk.size == 11
    assert blocks[0].A.shape == (144, 625)
    for blk in blocks:
        assert blk.A is blocks[0].A  # constant dictionary, shared slice
        assert blk.lam == cfg.lam and blk.mu == cfg.mu


def test_stream_centering_is_exact_for_one_hot_targets():
    # The offset subtraction must leave the linear model intact: with the
    # noise off, the preprocessed measurement equals the preprocessed
    # dictionary column of the occupied cell.
    cfg = RssConfig(path_length_steps=5, snr_db=500.0)
    blocks, walk = rss_stream(cfg, 12)
    for blk, cell in zip(blocks, walk):
        np.testing.assert_allclose(blk.y, blocks[0].A[:, cell], atol=1e-9)


def test_stream_normalizes_the_dictionary():
    cfg = RssConfig(path_length_steps=3)
    blocks, _ = rss_stream(cfg, 12)
    assert np.linalg.norm(blocks[0].A, 2) == pytest.approx(1.0)


def test_stream_is_the_per_round_blocks_bitwise(monkeypatch):
    # the dictionary is checked once and shared; each round's block is the
    # one built from its own measurement alone
    cfg, seed = RssConfig(path_length_steps=6), 12
    blocks, walk = rss_stream(cfg, seed)
    A = rss_dictionary(cfg, seed)
    offset = A.mean(axis=1)
    A_used = A - offset[:, None]
    scale = np.linalg.norm(A_used, 2)
    A_used /= scale
    for t, (blk, cell) in enumerate(zip(blocks, walk)):
        x_true = np.zeros(cfg.n_cells)
        x_true[cell] = 1.0
        y = rss_measure(A, x_true, cfg.snr_db, seed, t)
        ref = ElasticNetData(A=A_used, y=(y - offset) / scale, lam=cfg.lam,
                             mu=cfg.mu)
        assert blk.A is blocks[0].A
        assert_bitwise_equal(blk.A, ref.A)
        assert_bitwise_equal(blk.y, ref.y)
        assert (blk.lam, blk.mu) == (ref.lam, ref.mu)
    # a non-finite measurement past the first round fails as its block would
    measure = scenarios.rss_measure
    monkeypatch.setattr(scenarios, "rss_measure", lambda *args: measure(
        *args) * (np.nan if args[-1] == 3 else 1.0))
    with pytest.raises(ValueError, match="A and y must be finite"):
        rss_stream(cfg, seed)


# ---------------------------------------------------------------------------
# Synthetic streams
# ---------------------------------------------------------------------------

def test_spectrum_problem_attains_the_extreme_eigenvalues():
    p = spectrum_problem(8, 0.5, 3.0, seed=17)
    eigs = np.linalg.eigvalsh(p.Q)
    assert eigs[0] == pytest.approx(0.5)
    assert eigs[-1] == pytest.approx(3.0)
    p1 = spectrum_problem(1, 2.0, 2.0, seed=17)
    np.testing.assert_array_equal(p1.Q, [[2.0]])
    with pytest.raises(ValueError):
        spectrum_problem(4, 0.0, 1.0, seed=17)


def test_drifting_stream_shares_q_and_moves_linearly():
    probs = drifting_quadratic_stream(n=6, rounds=10, sigma=0.5, beta=3.0,
                                      drift=1e-3, seed=2)
    assert len(probs) == 10
    assert all(p.Q is probs[0].Q for p in probs)
    steps = [float(np.linalg.norm(probs[t].phi - probs[t - 1].phi))
             for t in range(1, 10)]
    np.testing.assert_allclose(steps, 1e-3, rtol=1e-9)


def test_synthetic_stream_is_the_per_block_builds_bitwise():
    cfg, seed = SyntheticConfig(blocks=9), 4
    blocks, truth = synthetic_stream(cfg, seed)
    rng = substream(seed, STREAM_PROBLEM)
    A = rng.standard_normal((cfg.m, cfg.n)) / math.sqrt(cfg.m)
    noise_rng = substream(seed, STREAM_NOISE)
    scale = 10.0 ** (-cfg.snr_db / 20.0)
    for blk, x in zip(blocks, truth):
        y0 = A @ x
        y = (y0 + noise_rng.standard_normal(cfg.m) * np.linalg.norm(y0)
             * scale / math.sqrt(cfg.m))
        ref = ElasticNetData(A=A, y=y, lam=cfg.lam, mu=cfg.mu)
        assert blk.A is blocks[0].A
        assert_bitwise_equal(blk.A, ref.A)
        assert_bitwise_equal(blk.y, ref.y)
        assert (blk.lam, blk.mu) == (ref.lam, ref.mu)
    with pytest.raises(ValueError, match="A and y must be finite"):
        synthetic_stream(replace(cfg, drift=math.nan), seed)


def test_synthetic_stream_shapes_and_support():
    blocks, truth = synthetic_stream(SyntheticConfig(n=10, m=6, blocks=20), 3)
    assert len(blocks) == 20 and truth.shape == (20, 10)
    assert all(b.A is blocks[0].A for b in blocks)
    nz = np.nonzero(truth[0])[0]
    np.testing.assert_array_equal(nz, [0, 5])
    assert np.all(np.count_nonzero(truth, axis=1) == 2)
