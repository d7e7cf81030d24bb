"""Unit tests for regret, path-length, and bound instrumentation."""

import numpy as np
import pytest

from stvo.metrics import (
    BoundConstants,
    RunTrace,
    dynamic_regret,
    measure_bound_constants,
    path_length,
    reference_paths,
    theorem1_bound,
)
from stvo.runner import build_trace, play_odr, stream_oracles

from oracles import drifting_quadratic_stream


def make_trace(loss, oracle_loss, t=None, **kw):
    loss = np.asarray(loss, dtype=float)
    if t is None:
        t = np.arange(1, loss.size + 1)
    return RunTrace(t=t, loss=loss, oracle_loss=oracle_loss, **kw)


# ---------------------------------------------------------------------------
# Regret and path length
# ---------------------------------------------------------------------------

def test_regret_zero_for_clairvoyant_play():
    trace = make_trace([3.0, 1.0, 2.0], [3.0, 1.0, 2.0])
    reg, avg = dynamic_regret(trace)
    np.testing.assert_array_equal(reg, np.zeros(3))
    np.testing.assert_array_equal(avg, np.zeros(3))


def test_regret_unit_gap_grows_linearly():
    oracle = np.array([0.5, 0.1, 0.2, 0.9])
    trace = make_trace(oracle + 1.0, oracle)
    reg, avg = dynamic_regret(trace)
    np.testing.assert_allclose(reg, [1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(avg, np.ones(4))


def test_regret_skips_the_cold_start_row():
    trace = make_trace([5.0, 1.0, 1.0], [0.0, 0.0, 0.0], t=np.array([0, 1, 2]))
    reg, avg = dynamic_regret(trace)
    np.testing.assert_allclose(reg, [0.0, 1.0, 2.0])
    np.testing.assert_allclose(avg, [0.0, 1.0, 1.0])


def test_regret_is_nondecreasing():
    rng = np.random.default_rng(50)
    oracle = rng.standard_normal(100)
    trace = make_trace(oracle + rng.uniform(0.0, 0.5, 100), oracle)
    reg, _ = dynamic_regret(trace)
    assert np.all(np.diff(reg) >= 0.0)


def test_path_length_constant_sequence():
    assert path_length(np.ones((5, 3))) == 0.0
    assert path_length(np.ones((5, 3)), squared=True) == 0.0


def test_path_length_scalar_sequence():
    pts = np.array([0.0, 1.0, 3.0])
    assert path_length(pts) == pytest.approx(3.0)
    assert path_length(pts, squared=True) == pytest.approx(5.0)


def test_path_length_translation_and_scaling():
    rng = np.random.default_rng(51)
    pts = rng.standard_normal((20, 4))
    base = path_length(pts)
    assert path_length(pts + 7.5) == pytest.approx(base)
    assert path_length(3.0 * pts) == pytest.approx(3.0 * base)
    assert path_length(3.0 * pts, squared=True) == pytest.approx(
        9.0 * path_length(pts, squared=True))


def test_trace_validation():
    with pytest.raises(ValueError):
        make_trace([], [])
    with pytest.raises(ValueError):
        RunTrace(t=np.array([1, 2]), loss=np.array([1.0]),
                 oracle_loss=np.array([1.0, 2.0]))
    with pytest.raises(ValueError, match="not optimal"):
        make_trace([1.0, 0.0], [1.0, 1.0])
    # sub-tolerance dips are rounding, not oracle failure
    make_trace([1.0, 1.0 - 1e-12], [1.0, 1.0])


# ---------------------------------------------------------------------------
# Bound constants
# ---------------------------------------------------------------------------

def test_bound_constants_hand_case():
    # M_Q=2, M*=1, M_phi=1, lam=0, delta=q=0.5, r=1, gaps 1 and 0: every
    # constant in the chain reduces to a small rational.
    bc = BoundConstants(M_Q=2.0, M_phi=1.0, M_star=1.0, lam=0.0, n=4,
                        delta=0.5, q=0.5, r=1, delta_z0=1.0, delta_zT=0.0)
    assert bc.alpha1 == pytest.approx(3.0)
    assert bc.alpha2 == pytest.approx(1.0)
    assert bc.zeta1 == pytest.approx(1.5)
    assert bc.zeta2 == pytest.approx(0.5)
    assert bc.zeta3 == pytest.approx(3.0)
    assert bc.zeta4 == pytest.approx(2.0)
    assert bc.c1 == pytest.approx(1.0)
    assert bc.c2 == pytest.approx(2.0)
    assert bc.c3 == pytest.approx(13.0 / 3.0)
    assert bc.c4 == pytest.approx(16.0 / 3.0)
    assert bc.c5 == pytest.approx(4.0 / 3.0)
    assert bc.kappa == pytest.approx(2.0)
    assert bc.eta0 == pytest.approx(17.0 / 3.0)
    assert bc.eta1 == pytest.approx(17.0 / 3.0)
    assert bc.eta2 == pytest.approx(2.0 / 3.0)
    assert bc.eta3 == pytest.approx(3.0)
    assert bc.eta4 == pytest.approx(2.0)


def test_bound_constants_include_the_l1_term():
    bc = BoundConstants(M_Q=2.0, M_phi=1.0, M_star=1.0, lam=0.5, n=4,
                        delta=0.5, q=0.5, r=1, delta_z0=1.0, delta_zT=0.0)
    assert bc.alpha1 == pytest.approx(4.0)


def test_bound_constants_reject_inapplicable_configs():
    with pytest.raises(ValueError):
        BoundConstants(M_Q=1.0, M_phi=1.0, M_star=1.0, lam=0.1, n=2,
                       delta=1.0, q=0.5, r=1, delta_z0=0.0, delta_zT=0.0)
    with pytest.raises(ValueError):
        BoundConstants(M_Q=1.0, M_phi=1.0, M_star=1.0, lam=0.1, n=2,
                       delta=0.5, q=0.5, r=0, delta_z0=0.0, delta_zT=0.0)


def test_static_references_reduce_bound_to_constant_term():
    bc = BoundConstants(M_Q=2.0, M_phi=1.0, M_star=1.0, lam=0.1, n=4,
                        delta=0.5, q=0.5, r=2, delta_z0=0.0, delta_zT=0.0)
    ref = np.tile(np.array([1.0, -1.0, 0.0, 0.5]), (10, 1))
    trace = make_trace(np.zeros(10), np.zeros(10), x_star=ref, z_star=ref)
    assert theorem1_bound(trace, bc) == pytest.approx(bc.eta0)
    reg, _ = dynamic_regret(trace)
    assert reg[-1] <= bc.eta0 + 1e-12


def test_reference_paths_match_direct_recomputation():
    rng = np.random.default_rng(52)
    xs = rng.standard_normal((30, 5))
    zs = rng.standard_normal((30, 5))
    trace = make_trace(np.ones(30), np.ones(30), x_star=xs, z_star=zs)
    px, px2, pz, pz2 = reference_paths(trace)
    expect_px = sum(float(np.linalg.norm(xs[i] - xs[i - 1]))
                    for i in range(1, 30))
    expect_pz2 = sum(float(np.linalg.norm(zs[i] - zs[i - 1])) ** 2
                     for i in range(1, 30))
    assert px == pytest.approx(expect_px, rel=1e-12)
    assert pz2 == pytest.approx(expect_pz2, rel=1e-12)
    assert px2 == pytest.approx(path_length(xs, squared=True))
    assert pz == pytest.approx(path_length(zs))


def test_reference_paths_require_the_sequences():
    trace = make_trace([1.0], [1.0])
    with pytest.raises(ValueError):
        reference_paths(trace)
    with pytest.raises(ValueError):
        measure_bound_constants(trace, [], r=1)


def test_measured_regret_sits_under_the_bound():
    # One slowly drifting stream end to end: play, certify references,
    # measure every constant from the data, compare.
    problems = drifting_quadratic_stream(n=8, rounds=60, sigma=0.5,
                                         beta=3.0, drift=1e-3, seed=0)
    result = play_odr(problems, r=5)
    oracles = stream_oracles(problems)
    trace = build_trace(problems, result, oracles)
    constants = measure_bound_constants(trace, problems, r=5)
    reg, _ = dynamic_regret(trace)
    bound = theorem1_bound(trace, constants)
    assert np.isfinite(bound)
    assert reg[-1] <= bound


def test_fallback_gap_when_auxiliary_sequence_missing():
    rng = np.random.default_rng(53)
    zs = rng.standard_normal((5, 3))
    trace = make_trace(np.ones(5), np.ones(5), x_star=np.zeros((5, 3)),
                       z_star=zs)
    bc = measure_bound_constants(
        trace, [_unit_problem()], r=2)
    assert bc.delta_z0 == pytest.approx(float(np.linalg.norm(zs[0])))
    assert bc.delta_zT == 0.0


def _unit_problem():
    from stvo.core import QuadraticL1Problem
    return QuadraticL1Problem(np.eye(3), np.zeros(3), 0.1)
