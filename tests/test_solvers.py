"""Unit tests for the batch and online centralized solvers."""

import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stvo import cli, runner, solvers
from stvo.core import (
    ElasticNetData,
    QuadraticL1Problem,
    contraction_constants,
    elastic_net_problem,
    objective_value,
)
from stvo.runner import stream_oracles
from stvo.solvers import (
    BatchResult,
    DRState,
    OnlineConfig,
    OdrRound,
    OracleError,
    batch_dr,
    initial_state,
    odr_round,
    oist_round,
    optimality_residual,
    oracle_minimizer,
)

from oracles import (assert_bitwise_equal, assert_relatively_close,
                     direct_dr_step, direct_prox,
                     lowest_objective_feature_sign, prox_grad_minimize,
                     scalar_lasso, sequential_stream_oracles,
                     subgradient_violation)


def random_pd_problem(n, seed, lam=0.1, ridge=0.2):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, n))
    Q = M @ M.T + ridge * np.eye(n)
    return QuadraticL1Problem(Q, rng.standard_normal(n), lam)


def test_dr_step_origin_fixed_point_without_linear_term():
    p = QuadraticL1Problem(np.eye(1), np.zeros(1), 10.0)
    x, z = OdrRound().start(p, np.zeros(1)).step(1).state()
    np.testing.assert_array_equal(x, [0.0])
    np.testing.assert_array_equal(z, [0.0])


def test_dr_iteration_reaches_optimality():
    p = random_pd_problem(5, seed=10)
    x, _ = OdrRound().start(p, np.zeros(5)).step(500).state()
    assert subgradient_violation(x, p.Q, p.phi, p.lam) <= 1e-6


def test_batch_dr_trivial_zero_linear_term():
    p = QuadraticL1Problem(np.diag([2.0, 0.7]), np.zeros(2), 0.5)
    res = batch_dr(p, tol=1e-12, max_iter=100)
    assert res.converged
    assert res.iterations == 1
    np.testing.assert_array_equal(res.x_star, [0.0, 0.0])


def test_batch_dr_matches_proximal_gradient_reference():
    rng = np.random.default_rng(11)
    for _ in range(5):
        p = QuadraticL1Problem(np.diag([0.5, 3.0]), rng.standard_normal(2), 0.1)
        res = batch_dr(p, tol=1e-11, max_iter=5000)
        assert res.converged
        ref = prox_grad_minimize(p.Q, p.phi, p.lam)
        np.testing.assert_allclose(res.x_star, ref, atol=1e-6)


def test_batch_dr_per_iteration_contraction():
    p = random_pd_problem(6, seed=12)
    cc = contraction_constants(p)
    z_star = batch_dr(p, tol=1e-13, max_iter=20000).z_star
    rnd = OdrRound().start(p, np.zeros(6))
    for _ in range(60):
        z = rnd.z.copy()
        lhs = np.linalg.norm(rnd.step(1).z - z_star)
        rhs = cc.delta * np.linalg.norm(z - z_star) + 1e-9
        assert lhs <= rhs


def test_batch_dr_residual_history_non_increasing():
    p = random_pd_problem(6, seed=13)
    res = batch_dr(p, tol=1e-10, max_iter=5000)
    assert isinstance(res, BatchResult)
    hist = res.residual_history
    assert hist.size == res.iterations
    assert np.all(np.diff(hist) <= 1e-9)


def test_batch_dr_flags_non_convergence_without_raising():
    p = random_pd_problem(6, seed=14)
    res = batch_dr(p, tol=1e-14, max_iter=3)
    assert not res.converged
    assert res.iterations == 3


# A cap below one would return an empty result that is not converged, and a
# tolerance that is nan or negative would run every iteration of the cap.
@pytest.mark.parametrize("name,kwargs", [
    ("max_iter", {"max_iter": 0}), ("max_iter", {"max_iter": -1}),
    ("tol", {"tol": np.nan}), ("tol", {"tol": -1.0}), ("tol", {"tol": np.inf})],
    ids=["max_iter_0", "max_iter_-1", "tol_nan", "tol_-1", "tol_inf"])
def test_batch_dr_refuses_an_argument_it_cannot_run(name, kwargs):
    p = random_pd_problem(3, seed=16)
    with pytest.raises(ValueError, match=rf"^{name} "):
        batch_dr(p, **kwargs)


def test_odr_round_single_iteration_equals_dr_step():
    p = random_pd_problem(4, seed=15)
    z = np.linspace(-1, 1, 4)
    s = DRState(*OdrRound().start(p, z).state())
    a = odr_round(s, p, OnlineConfig(r=1))
    b = direct_dr_step(direct_prox(z, p.Q, p.phi), z, p.Q, p.phi, p.lam)
    # the round steps in z alone, the literal step from (x, z)
    assert_relatively_close(a.x, b[0], s.z, p.phi)
    assert_relatively_close(a.z, b[1], s.z, p.phi)


def test_odr_static_stream_replays_batch_iteration():
    p = random_pd_problem(5, seed=16)
    T = 40
    s = initial_state(5)
    hist = []
    for _ in range(T):
        new = odr_round(s, p, OnlineConfig(r=1))
        hist.append(float(np.linalg.norm(new.z - s.z)))
        s = new
    res = batch_dr(p, tol=1e-300, max_iter=T)
    # a restarted round forms its loop's y again from z, where the batch
    # iteration carries (y, w), so the two agree to rounding
    assert_relatively_close(s.x, res.x_star)
    assert_relatively_close(s.z, res.z_star)
    assert_relatively_close(np.array(hist), res.residual_history)
    # the batch iteration is one round stepped T times, bitwise
    rnd = OdrRound().start(p, np.zeros(5)).step(T)
    np.testing.assert_array_equal(rnd.x, res.x_star)
    np.testing.assert_array_equal(rnd.z, res.z_star)


def test_oist_round_zero_stays_zero_without_linear_term():
    p = QuadraticL1Problem(np.eye(3), np.zeros(3), 0.2)
    out = oist_round(np.zeros(3), p, OnlineConfig(r=7, tau=0.3))
    np.testing.assert_array_equal(out, np.zeros(3))


def test_oist_round_hand_case():
    p = QuadraticL1Problem(np.eye(1), np.array([-3.0]), 1.0)
    out = oist_round(np.zeros(1), p, OnlineConfig(r=1, tau=0.5))
    np.testing.assert_allclose(out, [1.0])


def test_oist_fixed_point_is_optimal():
    p = random_pd_problem(5, seed=17)
    tau = 0.9 / p.lambda_max
    x = oist_round(np.zeros(5), p, OnlineConfig(r=20000, tau=tau))
    assert subgradient_violation(x, p.Q, p.phi, p.lam) <= 1e-6


def test_oist_objective_monotone_on_static_problem():
    p = random_pd_problem(6, seed=18)
    tau = 0.9 / p.lambda_max
    cfg = OnlineConfig(r=1, tau=tau)
    x = np.zeros(6)
    prev = objective_value(x, p)
    for _ in range(300):
        x = oist_round(x, p, cfg)
        cur = objective_value(x, p)
        assert cur <= prev + 1e-9
        prev = cur


def test_oist_warns_on_unstable_step():
    p = QuadraticL1Problem(np.eye(2), np.array([1.0, -1.0]), 0.1)
    with pytest.warns(RuntimeWarning, match="precondition"):
        oist_round(np.zeros(2), p, OnlineConfig(r=1, tau=1.5))


def test_oist_premise_is_the_proximal_gradient_step_condition():
    # lambda_max = 4 exactly, so tau = 1/4 meets tau * lambda_max <= 1 with
    # equality and the next float above breaks it
    p = QuadraticL1Problem(np.diag([1.0, 4.0]), np.array([1.0, -1.0]), 0.1)
    assert p.lambda_max == 4.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        oist_round(np.zeros(2), p, OnlineConfig(r=3, tau=0.25))
    with pytest.warns(RuntimeWarning,
                      match="violates the descent precondition"):
        oist_round(np.zeros(2), p,
                   OnlineConfig(r=3, tau=float(np.nextafter(0.25, 1.0))))


def test_oist_round_requires_a_step_size():
    p = QuadraticL1Problem(np.diag([1.0, 4.0]), np.zeros(2), 0.1)
    with pytest.raises(ValueError, match="explicit tau"):
        oist_round(np.zeros(2), p, OnlineConfig(r=1))


def test_oist_round_refuses_an_x_of_the_wrong_shape():
    rng = np.random.default_rng(23)
    dense = random_pd_problem(4, seed=22)
    # on a factored slice an (n, 1) x used to broadcast to an (n, n) result
    factored = elastic_net_problem(ElasticNetData(
        A=rng.standard_normal((3, 10)), y=rng.standard_normal(3), lam=0.1,
        mu=0.05))
    assert factored.op.factored and not dense.op.factored
    for p in (dense, factored):
        cfg = OnlineConfig(r=2, tau=0.5 / p.lambda_max)
        for x in (np.zeros((p.n, 1)), np.zeros(p.n + 1), np.zeros(())):
            with pytest.raises(ValueError,
                               match=rf"x must have shape \({p.n},\)"):
                oist_round(x, p, cfg)


def test_odr_start_and_the_objective_refuse_a_vector_of_the_wrong_shape():
    p = random_pd_problem(4, seed=22)
    for v in (np.zeros((4, 1)), np.zeros(5), np.zeros(())):
        with pytest.raises(ValueError, match=r"^z must have shape \(4,\), "):
            OdrRound().start(p, v)
        with pytest.raises(ValueError, match=r"^x must have shape \(4,\), "):
            objective_value(v, p)


def test_online_config_validation():
    with pytest.raises(ValueError):
        OnlineConfig(r=0)
    # the round that reads tau refuses it
    p = random_pd_problem(3, seed=7)
    with pytest.raises(ValueError, match="finite and positive"):
        oist_round(np.zeros(3), p, OnlineConfig(r=1, tau=-0.1))


def test_online_config_rejects_non_finite_tau():
    p = random_pd_problem(3, seed=7)
    for tau in (np.inf, np.nan, 0.0):
        with pytest.raises(ValueError, match="finite and positive"):
            oist_round(np.zeros(3), p, OnlineConfig(r=3, tau=tau))


def test_dr_state_validation():
    # the round that reads z refuses it, before any iteration
    p = random_pd_problem(2, seed=7)
    cfg = OnlineConfig(r=3)
    with pytest.raises(ValueError, match="z must have shape"):
        odr_round(DRState(np.zeros(2), np.zeros(3)), p, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for bad in (np.nan, np.inf):
            with pytest.raises(ValueError, match="z must be finite"):
                odr_round(DRState(np.zeros(2), np.array([bad, 0.0])), p, cfg)
    # no round reads x, so a state whose x has the wrong shape plays
    out = odr_round(DRState(np.zeros(5), np.zeros(2)), p, cfg)
    assert out.x.shape == out.z.shape == (2,)


def test_consistent_state_applies_proximal_map():
    p = random_pd_problem(4, seed=19)
    z = np.array([0.3, -1.0, 2.0, 0.0])
    x, z_out = OdrRound().start(p, z).state()
    np.testing.assert_array_equal(z_out, z)
    # x solves (Q + I) x = z - phi
    np.testing.assert_allclose((p.Q + np.eye(4)) @ x, z - p.phi, atol=1e-12)


def test_oracle_minimizer_zero_linear_term():
    p = QuadraticL1Problem(np.diag([1.0, 2.0]), np.zeros(2), 0.3)
    x_star, z_star = oracle_minimizer(p)
    np.testing.assert_array_equal(x_star, [0.0, 0.0])
    np.testing.assert_array_equal(z_star, [0.0, 0.0])


def test_oracle_minimizer_scalar_closed_form():
    for q, ph, lam in [(2.0, -3.0, 1.0), (0.5, 0.2, 0.3), (4.0, 5.0, 2.0),
                       (1.0, -0.05, 0.1)]:
        p = QuadraticL1Problem(np.array([[q]]), np.array([ph]), lam)
        x_star, z_star = oracle_minimizer(p)
        assert x_star[0] == pytest.approx(scalar_lasso(q, ph, lam), abs=1e-12)
        # z* satisfies the stationarity identity z* = (Q + I) x* + phi
        assert z_star[0] == pytest.approx((q + 1.0) * x_star[0] + ph, abs=1e-12)


def test_oracle_minimizer_on_compressed_elastic_net():
    rng = np.random.default_rng(20)
    for _ in range(3):
        A = rng.standard_normal((12, 20))
        y = rng.standard_normal(12)
        p = elastic_net_problem(ElasticNetData(A=A, y=y, lam=1e-2, mu=1e-6))
        x_star, z_star = oracle_minimizer(p)
        assert optimality_residual(x_star, p) < 1e-10
        np.testing.assert_allclose(
            z_star, x_star + p.Q @ x_star + p.phi, atol=1e-12)


def test_oracle_minimizer_refuses_a_bad_warm_start():
    p = random_pd_problem(4, seed=23)
    for bad in (np.zeros(3), np.zeros((4, 1)),
                np.array([0.0, np.nan, 0.0, 0.0]),
                np.array([0.0, 0.0, np.inf, 0.0])):
        with pytest.raises(ValueError):
            oracle_minimizer(p, initial=bad)


def test_oracle_minimizer_raises_when_unattainable():
    p = random_pd_problem(5, seed=21)
    with pytest.raises(OracleError):
        oracle_minimizer(p, opt_tol=0.0)


def test_optimality_residual_zero_exactly_at_minimizer():
    p = QuadraticL1Problem(np.array([[2.0]]), np.array([-3.0]), 1.0)
    x_star = np.array([scalar_lasso(2.0, -3.0, 1.0)])
    assert optimality_residual(x_star, p) <= 1e-15
    assert optimality_residual(np.array([0.0]), p) > 0.1


def test_solver_determinism():
    p = random_pd_problem(6, seed=22)
    r1 = batch_dr(p, tol=1e-11, max_iter=5000)
    r2 = batch_dr(p, tol=1e-11, max_iter=5000)
    np.testing.assert_array_equal(r1.x_star, r2.x_star)
    np.testing.assert_array_equal(r1.residual_history, r2.residual_history)
    a1 = oracle_minimizer(p)
    a2 = oracle_minimizer(p)
    np.testing.assert_array_equal(a1[0], a2[0])
    np.testing.assert_array_equal(a1[1], a2[1])


# ---------------------------------------------------------------------------
# the oracle's active-set search against its FISTA fallback
# ---------------------------------------------------------------------------

def fista_only(p, x0):
    """The oracle's fallback path alone, at the oracle's own target."""
    x, res = solvers._fista_polish(p, np.array(x0, dtype=float), 1e-12, 200000)
    assert res <= 1e-8
    return x


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 20),
       m_frac=st.floats(0.1, 0.9), log_mu=st.floats(-6.0, -1.0),
       log_lam=st.floats(-3.0, -1.0), warm=st.booleans())
def test_oracle_matches_its_fallback_on_ill_conditioned_elastic_nets(
        seed, n, m_frac, log_mu, log_lam, warm):
    rng = np.random.default_rng(seed)
    m = max(1, min(n - 1, int(m_frac * n)))
    # columns over two decades of scale make Q = A'A + mu I ill-conditioned
    A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-1.0, 1.0, n)
    y = rng.standard_normal(m)
    lam = 10.0 ** log_lam * float(np.max(np.abs(A.T @ y)))
    p = elastic_net_problem(ElasticNetData(A=A, y=y, lam=lam, mu=10.0 ** log_mu))
    # a warm start from an unrelated point, or the cold start
    x0 = (rng.standard_normal(n) * (rng.random(n) < 0.5) if warm
          else np.zeros(n))
    x_star, _ = oracle_minimizer(p, max_iter=200000, initial=x0)
    assert subgradient_violation(x_star, p.Q, p.phi, p.lam) <= 1e-8
    ref = fista_only(p, x0)
    scale = max(1.0, float(np.max(np.abs(ref))))
    np.testing.assert_allclose(x_star, ref, rtol=0.0, atol=1e-9 * scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 24),
       dense=st.booleans(), log_mu=st.floats(-4.0, -1.0),
       log_lam=st.floats(-2.0, -0.5), warm=st.booleans())
def test_oracle_equals_the_lowest_objective_search_bitwise(
        seed, n, dense, log_mu, log_lam, warm):
    rng = np.random.default_rng(seed)
    # 2m >= n gives a dense slice, 2m < n a factored one
    m = int(rng.integers(-(-n // 2), 2 * n + 1) if dense
            else rng.integers(1, -(-n // 2)))
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    lam = 10.0 ** log_lam * float(np.max(np.abs(A.T @ y)))
    p = elastic_net_problem(ElasticNetData(A=A, y=y, lam=lam, mu=10.0 ** log_mu))
    assert p.op.factored is not dense
    # zeros of +0.0: the reference keeps a -0.0 that its search never
    # activates, where the oracle answers +0.0
    x0 = (np.where(rng.random(n) < 0.5, rng.standard_normal(n), 0.0) if warm
          else np.zeros(n))
    ref = lowest_objective_feature_sign(p, x0)
    assert ref is not None
    # the two line searches differ, the final sign pattern does not
    x_star, z_star = oracle_minimizer(p, initial=x0)
    assert_bitwise_equal(x_star, ref[0])
    assert_bitwise_equal(z_star, ref[1])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(3, 24),
       dense=st.booleans(), log_mu=st.floats(-4.0, -1.0),
       log_lam=st.floats(-2.0, -0.5), warm=st.booleans())
def test_oracle_answer_is_the_same_from_negative_zero_starts(
        seed, n, dense, log_mu, log_lam, warm):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(-(-n // 2), 2 * n + 1) if dense
            else rng.integers(1, -(-n // 2)))
    A = rng.standard_normal((m, n))
    y = rng.standard_normal(m)
    lam = 10.0 ** log_lam * float(np.max(np.abs(A.T @ y)))
    p = elastic_net_problem(ElasticNetData(A=A, y=y, lam=lam, mu=10.0 ** log_mu))
    x0 = (np.where(rng.random(n) < 0.5, rng.standard_normal(n), 0.0) if warm
          else np.zeros(n))
    # the same start with every zero a -0.0
    negative = np.where(x0 == 0.0, -0.0, x0)
    assert np.signbit(negative[x0 == 0.0]).all()
    x_star, z_star = oracle_minimizer(p, initial=x0)
    x_neg, z_neg = oracle_minimizer(p, initial=negative)
    assert_bitwise_equal(x_neg, x_star)
    assert_bitwise_equal(z_neg, z_star)
    assert not np.signbit(x_star[x_star == 0.0]).any()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 6),
       n=st.integers(1, 12))
def test_first_crossing_stops_where_the_first_sign_flips(seed, rows, n):
    rng = np.random.default_rng(seed)
    # rows shaped as the lockstep search's: zero off the active set
    act = rng.random((rows, n)) < 0.7
    act[:, 0] = True
    x = np.where(act, rng.standard_normal((rows, n)), 0.0)
    new = np.where(act, rng.standard_normal((rows, n)), 0.0)
    # every row flips at least one sign
    new[:, 0] = -0.5 * x[:, 0]
    cross = act & (np.sign(x) * new <= 0.0)
    out = solvers._first_crossing(x, new, cross)
    for xr, nr, cr, o in zip(x, new, cross, out):
        ts = {i: xr[i] / (xr[i] - nr[i]) for i in np.flatnonzero(cr)}
        first = min(ts, key=ts.get)
        t = ts[first]
        assert 0.0 < t <= 1.0
        assert np.flatnonzero((o == 0.0) & (xr != 0.0)).tolist() == [first]
        keep = np.arange(n) != first
        np.testing.assert_array_equal(np.sign(o[keep]), np.sign(xr[keep]))
        np.testing.assert_allclose(o[keep], (xr + t * (nr - xr))[keep],
                                   rtol=0.0, atol=1e-12)
    # a single row is a 1-d vector, as the search alone passes it
    assert_bitwise_equal(solvers._first_crossing(x[0], new[0], cross[0]),
                         out[0])


def acceptance_prefix(scenario, seed, blocks):
    cfg = cli.base_config(scenario, {})
    return cli.build_stream(scenario, cfg, cli.derive_seed(seed, 0)).problems[:blocks]


@pytest.mark.parametrize("scenario,seed", [("exp1", 3), ("exp2", 5), ("exp2", 9),
                                           ("rss", 21)])
def test_stream_oracles_certify_every_slice_without_the_fallback(
        monkeypatch, scenario, seed):
    problems = acceptance_prefix(scenario, seed, 40)

    def no_fallback(*args):
        raise AssertionError("the active-set search did not certify a slice")

    monkeypatch.setattr(solvers, "_fista_polish", no_fallback)
    xs, _ = stream_oracles(problems)
    assert max(optimality_residual(x, p) for x, p in zip(xs, problems)) <= 1e-12


def first_searches_give_up(monkeypatch):
    """Make each oracle call's own feature-sign search give up, so that
    every slice reaches the FISTA fallback; the searches that the fallback
    starts run as they are."""
    search, fista, inside = solvers._feature_sign, solvers._fista_polish, []

    def fallback(*args):
        inside.append(True)
        try:
            return fista(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(solvers, "_fista_polish", fallback)
    monkeypatch.setattr(solvers, "_feature_sign",
                        lambda problem, x: search(problem, x) if inside else None)


def test_stream_oracles_equal_the_fallback_only_path_bitwise(monkeypatch):
    problems = acceptance_prefix("exp2", 5, 25)
    xs, zs = stream_oracles(problems)
    first_searches_give_up(monkeypatch)
    xs_ref, zs_ref = stream_oracles(problems)
    np.testing.assert_array_equal(xs, xs_ref)
    np.testing.assert_array_equal(zs, zs_ref)


@pytest.mark.parametrize("scenario", ["exp1", "synthetic", "rss"])
def test_stream_oracles_equal_the_fallback_only_path_bitwise_on_run_0_streams(
        monkeypatch, scenario):
    overrides = {"path_length_steps": 10} if scenario == "rss" else {}
    cfg = cli.base_config(scenario, overrides)
    problems = cli.build_stream(scenario, cfg, cli.derive_seed(0, 0)).problems
    xs, zs = stream_oracles(problems)
    first_searches_give_up(monkeypatch)
    xs_ref, zs_ref = stream_oracles(problems)
    assert_bitwise_equal(xs_ref, xs)
    assert_bitwise_equal(zs_ref, zs)


@pytest.mark.parametrize("t", [10, 40, 70])
def test_the_fallback_certifies_at_its_first_checkpoint(monkeypatch, t):
    p = acceptance_prefix("exp2", 0, 83)[t]
    ref = oracle_minimizer(p)
    first_searches_give_up(monkeypatch)
    # 100 sweeps make one checkpoint, whose search finds the minimizer
    x_star, z_star = oracle_minimizer(p, max_iter=100)
    assert_bitwise_equal(x_star, ref[0])
    assert_bitwise_equal(z_star, ref[1])


def test_the_oracle_keeps_the_search_answer_when_the_fallback_ends_worse(
        monkeypatch):
    p = acceptance_prefix("exp2", 0, 83)[40]
    x_star, _ = oracle_minimizer(p)
    # an answer off by 3e-11 relative: inside opt_tol, above the target
    near = x_star * (1.0 + 3e-11)
    res = optimality_residual(near, p)
    assert 1e-12 < res <= 1e-8
    calls = []

    def search(problem, x):
        # the oracle's own search answers; every search of the fallback
        # gives up, so that the fallback cannot certify
        calls.append(x)
        return near.copy() if len(calls) == 1 else None

    monkeypatch.setattr(solvers, "_feature_sign", search)
    x, z = oracle_minimizer(p, max_iter=100)
    assert len(calls) == 2
    assert_bitwise_equal(x, near)
    assert_bitwise_equal(z, near + p.op.matvec(near) + p.phi)


def random_dense_stream(n, m, T, seed, lam_frac=0.1, mu=1e-3):
    """T elastic-net slices of m x n data, 2m >= n, so every slice is dense;
    A drifts between slices and y is drawn afresh for each."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    lam = lam_frac * float(np.max(np.abs(A.T @ rng.standard_normal(m))))
    problems = []
    for _ in range(T):
        A = A + 0.1 * rng.standard_normal((m, n))
        problems.append(elastic_net_problem(ElasticNetData(
            A=A, y=rng.standard_normal(m), lam=lam, mu=mu)))
    assert not any(p.op.factored for p in problems)
    return problems


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), T=st.integers(1, 30),
       n=st.integers(2, solvers._LOCKSTEP_N), m_frac=st.floats(0.5, 2.0),
       log_mu=st.floats(-6.0, -1.0), log_lam=st.floats(-3.0, -1.0))
def test_stream_oracles_equal_the_sequential_loop_bitwise_on_dense_streams(
        seed, T, n, m_frac, log_mu, log_lam):
    problems = random_dense_stream(n, max(-(-n // 2), round(m_frac * n)), T,
                                   seed, 10.0 ** log_lam, 10.0 ** log_mu)
    with mock.patch.object(solvers, "_sign_solve",
                           wraps=solvers._sign_solve) as solves:
        xs, zs = stream_oracles(problems)
    # from the lockstep search's pattern each oracle call solves once
    assert solves.call_count == T
    xs_ref, zs_ref = sequential_stream_oracles(problems)
    assert_bitwise_equal(xs, xs_ref)
    assert_bitwise_equal(zs, zs_ref)


def test_stream_oracles_finish_every_slice_when_the_batched_solve_raises(
        monkeypatch):
    problems = acceptance_prefix("exp2", 5, 40)
    xs_ref, zs_ref = sequential_stream_oracles(problems)
    solve, batched = np.linalg.solve, []

    def singular_once(a, b):
        if a.ndim == 3:
            batched.append(a.shape)
            if len(batched) == 4:
                raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular_once)
    xs, zs = stream_oracles(problems)
    # the search ended at the raise, every slice still unfinished
    assert batched == [(40, 20, 20)] * 4
    assert_bitwise_equal(xs, xs_ref)
    assert_bitwise_equal(zs, zs_ref)


def test_stream_oracles_start_unfinished_slices_from_the_previous_minimizer(
        monkeypatch):
    problems = acceptance_prefix("exp2", 5, 25)
    starts = []

    def recording(p, **kwargs):
        starts.append(kwargs["initial"])
        return oracle_minimizer(p, **kwargs)

    monkeypatch.setattr(runner, "oracle_minimizer", recording)
    stream_oracles(problems)
    # the search finished every slice: each call starts from a sign pattern
    assert len(starts) == 25
    assert all(np.isin(s, (-1.0, 0.0, 1.0)).all() for s in starts)
    starts.clear()
    solve = np.linalg.solve

    def singular(a, b):
        if a.ndim == 3:
            raise np.linalg.LinAlgError("Singular matrix")
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", singular)
    xs, _ = stream_oracles(problems)
    # the search finished none: each call starts as in the sequential loop
    assert starts[0] is None
    for t in range(1, 25):
        assert_bitwise_equal(starts[t], xs[t - 1])


@pytest.mark.parametrize("cap", [None, 1])
def test_stream_oracles_equal_the_sequential_loop_when_every_search_gives_up(
        monkeypatch, cap):
    problems = acceptance_prefix("exp2", 9, 12)
    if cap is not None:
        # the lockstep search leaves the slices it has not finished
        monkeypatch.setattr(solvers, "_SIGN_STEPS", cap)
    first_searches_give_up(monkeypatch)
    xs, zs = stream_oracles(problems)
    xs_ref, zs_ref = sequential_stream_oracles(problems)
    assert_bitwise_equal(xs, xs_ref)
    assert_bitwise_equal(zs, zs_ref)


@pytest.mark.parametrize("extra", [0, 1])
def test_only_streams_of_small_dense_slices_run_the_lockstep_search(
        monkeypatch, extra):
    n = solvers._LOCKSTEP_N + extra
    problems = random_dense_stream(n, n, 4, seed=n)
    solve, batched = np.linalg.solve, []

    def recording(a, b):
        # the search's systems are the only batched ones
        batched.append(a.ndim == 3)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", recording)
    xs, zs = stream_oracles(problems)
    assert any(batched) == (extra == 0)
    xs_ref, zs_ref = sequential_stream_oracles(problems)
    assert_bitwise_equal(xs, xs_ref)
    assert_bitwise_equal(zs, zs_ref)


def test_stream_oracles_finish_every_slice_when_the_search_hits_its_cap(
        monkeypatch):
    problems = acceptance_prefix("exp2", 5, 25)
    xs_ref, zs_ref = sequential_stream_oracles(problems)
    monkeypatch.setattr(solvers, "_SIGN_STEPS", 1)
    xs, zs = stream_oracles(problems)
    assert_bitwise_equal(xs, xs_ref)
    assert_bitwise_equal(zs, zs_ref)


def test_stream_oracles_keep_the_batch_transient_memory_small():
    problems = acceptance_prefix("exp2", 5, 83)
    T, n = len(problems), problems[0].n
    assert T == 83
    stream_oracles(problems)
    tracemalloc.start()
    try:
        stream_oracles(problems)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # three (T, n, n) float arrays' worth: the search holds one, its buffer
    # of systems, besides arrays of (T, n)
    assert peak <= 3 * T * n * n * 8
