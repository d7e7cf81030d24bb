"""Unit tests for the problem containers and proximal building blocks."""

import sys
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stvo.core import (
    _CLIP_MAX,
    ContractionConstants,
    ElasticNetData,
    QuadraticL1Problem,
    _clip,
    _clip_for,
    _max_min,
    _numpy_clip,
    _shrink,
    contraction_constants,
    elastic_net_problem,
    objective_value,
    prox_quadratic,
    soft_threshold,
)
from stvo.metrics import assumption_bounds
from stvo.runner import (action_losses, play_odr, play_oist,
                         problems_from_blocks, stream_oracles)
from stvo.solvers import oracle_minimizer

from oracles import objective_reference, soft_vector


def test_soft_threshold_shrinks_above_threshold():
    np.testing.assert_allclose(soft_threshold(np.array([2.0]), 1.0), [1.0])


def test_soft_threshold_dead_zone():
    np.testing.assert_allclose(soft_threshold(np.array([0.5]), 1.0), [0.0])


def test_soft_threshold_componentwise():
    out = soft_threshold(np.array([-2.0, 0.3, 4.0]), 0.5)
    np.testing.assert_allclose(out, [-1.5, 0.0, 3.5])


def test_soft_threshold_rejects_nonpositive_threshold():
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), 0.0)
    with pytest.raises(ValueError):
        soft_threshold(np.array([1.0]), -0.5)


def test_soft_threshold_matches_scalar_branches():
    rng = np.random.default_rng(0)
    v = rng.standard_normal(200) * 3
    np.testing.assert_array_equal(soft_threshold(v, 0.7), soft_vector(v, 0.7))


def bits(a):
    """The IEEE bit patterns of a float array, so that equality tells
    +0.0 from -0.0."""
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


def test_copysign_shrink_is_sign_times_magnitude_bitwise():
    # outside [-beta, beta] the kernel is bitwise sign(z) * max(|z| - beta,
    # 0); inside, z - z is +0.0, where the product gave -0.0 for z < 0
    tiny = np.finfo(float).smallest_subnormal
    z = np.array([np.inf, -np.inf, 0.7, -0.7, 0.70000001, -0.69999999, tiny,
                  -tiny, 5 * tiny, -3e-310, 2.5, -1e300, 1e-300, -0.0])
    rng = np.random.default_rng(2)
    z = np.stack([z, rng.standard_normal(z.size), -z])
    beta = np.array([[0.7], [1e-310], [tiny]])

    def reference(z, beta):
        return np.sign(z) * np.maximum(np.abs(z) - beta, 0.0)

    for b in (0.7, tiny, beta):
        band = np.abs(z) <= b
        assert band.any() and not band.all()
        want = np.where(band, 0.0, reference(z, b))
        for got in (_shrink(z, -b, b), _shrink(z, -b, b, out=np.empty_like(z))):
            np.testing.assert_array_equal(bits(got), bits(want))
    out = np.empty_like(z)
    assert _shrink(z, -beta, beta, out=out) is out


finite = st.floats(-1e300, 1e300, allow_subnormal=True)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(entries=st.lists(
    st.tuples(finite | st.sampled_from([np.inf, -np.inf, 0.0, -0.0]),
              finite, finite), min_size=1, max_size=30))
def test_shrink_is_z_minus_clip_bitwise_for_array_bounds(entries):
    z, a, b = (np.array(col) for col in zip(*entries))
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    want = np.where(z > hi, z - hi, np.where(z < lo, z - lo, 0.0))
    # the one entry whose zero may keep its sign: z = -0.0 clipped to a
    # bound of +0.0 is -0.0 - 0.0 = -0.0, equal to the +0.0 wanted
    signed = (z == 0) & np.signbit(z) & ((lo == 0) | (hi == 0))
    out = np.empty_like(z)
    for got in (_shrink(z, lo, hi), _shrink(z, lo, hi, out=out)):
        np.testing.assert_array_equal(bits(got[~signed]), bits(want[~signed]))
        np.testing.assert_array_equal(got[signed], 0.0)
    assert _shrink(z, lo, hi, out=out) is out


def clip_inputs(rng, size):
    """y, lo <= hi of the given size: lo and hi normal, zeros of either
    sign, equal or infinite, and y normal, NaN, infinite, a zero of either
    sign or exactly at lo or hi."""
    lo, hi = np.sort(rng.standard_normal((2, size)), axis=0)
    pick = rng.integers(0, 8, size)
    lo[pick == 0], hi[pick == 1] = 0.0, -0.0
    lo[pick == 2], hi[pick == 3] = -0.0, 0.0
    hi[pick == 4] = lo[pick == 4]
    lo[pick == 5], hi[pick == 5] = -np.inf, np.inf
    specials = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0])
    y = np.where(rng.random(size) < 0.5, rng.standard_normal(size),
                 rng.choice(specials, size))
    at = rng.integers(0, 4, size)
    y[at == 0], y[at == 1] = lo[at == 0], hi[at == 1]
    return y, lo, hi


# both sides of the size rule; the smaller sizes draw several times, so
# that every kind of entry meets every kind of bound
@pytest.mark.parametrize("size, draws", [(1, 200), (20, 50), (_CLIP_MAX, 5),
                                         (_CLIP_MAX + 1, 5), (22500, 1)])
def test_size_chosen_clip_and_shrink_are_the_max_min_pair_bitwise(size,
                                                                   draws):
    clip = _clip_for(size)
    assert clip is (_clip if size <= _CLIP_MAX else _max_min)
    rng = np.random.default_rng(size)
    # an infinite entry minus an infinite bound is NaN, on both sides
    with np.errstate(invalid="ignore"):
        for _ in range(draws):
            check_clip(clip, *clip_inputs(rng, size),
                       float(rng.choice([1e-300, 0.5, 3.0, np.inf])))


def check_clip(clip, y, lo, hi, beta):
    # array bounds, and soft_threshold's scalar ones
    for a, b in ((lo, hi), (-beta, beta)):
        want = np.minimum(np.maximum(y, a), b)
        out = np.empty_like(y)
        assert clip(y, a, b, out) is out
        for got in (clip(y, a, b), clip(y, a, b, out=out), out):
            np.testing.assert_array_equal(bits(got), bits(want))
        for got in (_shrink(y, a, b), _shrink(y, a, b, out=out)):
            np.testing.assert_array_equal(bits(got), bits(y - want))
    np.testing.assert_array_equal(
        bits(soft_threshold(y, beta)),
        bits(y - np.minimum(np.maximum(y, -beta), beta)))


def test_clip_ufunc_comes_from_numpy_core_umath_on_numpy_1(monkeypatch):
    assert isinstance(_clip, np.ufunc) and _numpy_clip() is _clip
    # numpy 1.x has no numpy._core.umath; its clip is numpy.core.umath's
    umath = types.ModuleType("numpy.core.umath")
    umath.clip = object()
    monkeypatch.setitem(sys.modules, "numpy._core.umath", None)
    monkeypatch.setitem(sys.modules, "numpy.core.umath", umath)
    assert _numpy_clip() is umath.clip
    # a numpy that has it in neither fails loudly, naming both
    del umath.clip
    with pytest.raises(ImportError, match=r"neither numpy\._core\.umath "
                                          r"nor numpy\.core\.umath"):
        _numpy_clip()


def test_soft_threshold_firmly_nonexpansive():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        a = rng.standard_normal(6) * 2
        b = rng.standard_normal(6) * 2
        d = np.linalg.norm(soft_threshold(a, 0.3) - soft_threshold(b, 0.3))
        assert d <= np.linalg.norm(a - b) + 1e-12


def test_prox_quadratic_identity_q():
    p = QuadraticL1Problem(np.eye(2), np.zeros(2), 1.0)
    np.testing.assert_allclose(prox_quadratic(np.array([2.0, 4.0]), p), [1.0, 2.0])


def test_prox_quadratic_diagonal():
    p = QuadraticL1Problem(np.diag([1.0, 3.0]), np.array([1.0, 1.0]), 1.0)
    np.testing.assert_allclose(prox_quadratic(np.array([3.0, 9.0]), p), [1.0, 2.0])


def test_prox_quadratic_vanishing_numerator():
    z = np.array([0.4, -1.2])
    p = QuadraticL1Problem(np.eye(2), z, 1.0)
    np.testing.assert_allclose(prox_quadratic(z, p), [0.0, 0.0], atol=1e-15)


def test_prox_quadratic_rejects_dimension_mismatch():
    p = QuadraticL1Problem(np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError):
        prox_quadratic(np.zeros(3), p)


def test_prox_quadratic_lipschitz_constant():
    rng = np.random.default_rng(2)
    for seed in range(20):
        n = 5
        M = rng.standard_normal((n, n))
        Q = M @ M.T + 0.3 * np.eye(n)
        p = QuadraticL1Problem(Q, rng.standard_normal(n), 0.5)
        sigma = float(np.linalg.eigvalsh(Q)[0])
        z1 = rng.standard_normal(n)
        z2 = rng.standard_normal(n)
        lhs = np.linalg.norm(prox_quadratic(z1, p) - prox_quadratic(z2, p))
        assert lhs <= np.linalg.norm(z1 - z2) / (1.0 + sigma) + 1e-9


def test_elastic_net_identity_design():
    data = ElasticNetData(A=np.eye(2), y=np.array([1.0, 0.0]), lam=0.1, mu=1.0)
    p = elastic_net_problem(data)
    np.testing.assert_allclose(p.Q, 2.0 * np.eye(2))
    np.testing.assert_allclose(p.phi, [-1.0, 0.0])
    assert p.lam == 0.1


def test_elastic_net_zero_design():
    data = ElasticNetData(A=np.zeros((2, 2)), y=np.array([1.0, 1.0]),
                          lam=0.1, mu=0.5)
    p = elastic_net_problem(data)
    np.testing.assert_allclose(p.Q, 0.5 * np.eye(2))
    np.testing.assert_allclose(p.phi, [0.0, 0.0])


def test_elastic_net_reduction_preserves_minimizer():
    # Solve the least-squares form directly, without going through the
    # quadratic reduction, and compare minimizers.
    rng = np.random.default_rng(3)
    A = rng.standard_normal((3, 5))
    y = rng.standard_normal(3)
    lam, mu = 0.1, 0.5
    tau = 1.0 / (np.linalg.norm(A, 2) ** 2 + mu)
    x = np.zeros(5)
    for _ in range(20000):
        g = A.T @ (A @ x - y) + mu * x
        z = x - tau * g
        x = np.where(z > lam * tau, z - lam * tau,
                     np.where(z < -lam * tau, z + lam * tau, 0.0))
    x_star, _ = oracle_minimizer(elastic_net_problem(
        ElasticNetData(A=A, y=y, lam=lam, mu=mu)))
    np.testing.assert_allclose(x, x_star, atol=1e-8)


def test_elastic_net_underdetermined_still_positive_definite():
    rng = np.random.default_rng(4)
    data = ElasticNetData(A=rng.standard_normal((3, 8)),
                          y=rng.standard_normal(3), lam=0.1, mu=1e-6)
    p = elastic_net_problem(data)
    assert np.linalg.eigvalsh(p.Q)[0] > 0


def test_elastic_net_rejects_a_dense_gram_that_overflows():
    # finite data whose Gram A'A or whose phi = -A'y overflows: no slice is
    # built, alone or in a stream of one run or of several, dense or
    # factored, whichever slice of its run overflows
    rng = np.random.default_rng(5)

    def block(A, y):
        return ElasticNetData(A=A, y=y, lam=0.1, mu=1e-3)

    # every entry of phi = -A'y is -m 1e308 on the all-ones A
    big_A, ones, wide = np.full((12, 20), 1e200), np.ones((12, 20)), \
        np.ones((3, 8))
    big_y = np.full(12, 1e308)
    cases = {
        "Q must be finite": [
            [block(big_A, np.ones(12))],
            [block(big_A, np.ones(12)), block(big_A, np.ones(12))],
            [block(rng.standard_normal((12, 20)), np.ones(12)),
             block(big_A, np.ones(12))]],
        "phi must be finite": [
            [block(ones, big_y)],
            [block(wide, big_y[:3])],
            [block(ones, np.ones(12)), block(ones, big_y)],
            [block(wide, np.ones(3)), block(np.ones((3, 8)), big_y[:3])]]}
    with np.errstate(over="ignore", invalid="ignore"):
        for message, streams in cases.items():
            for blocks in streams:
                calls = [lambda blocks=blocks: problems_from_blocks(blocks)]
                if len(blocks) == 1:
                    calls.append(lambda b=blocks[0]: elastic_net_problem(b))
                for call in calls:
                    with pytest.raises(ValueError, match=message):
                        call()


def test_contraction_constants_identity():
    cc = contraction_constants(QuadraticL1Problem(np.eye(3), np.zeros(3), 1.0))
    assert cc.sigma == pytest.approx(1.0)
    assert cc.beta == pytest.approx(1.0)
    assert cc.delta == pytest.approx(0.0, abs=1e-12)
    assert cc.q == pytest.approx(0.0, abs=1e-12)


def test_contraction_constants_formulas():
    cc = contraction_constants(
        QuadraticL1Problem(np.diag([0.5, 3.0]), np.zeros(2), 1.0))
    assert cc.delta == pytest.approx(0.5)
    assert cc.q == pytest.approx(1.0 / 3.0)
    cc = contraction_constants(
        QuadraticL1Problem(np.diag([0.25, 9.0]), np.zeros(2), 1.0))
    assert cc.delta == pytest.approx(0.8)
    assert cc.q == pytest.approx(0.64)


def test_contraction_factor_below_one_for_random_pd():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 8))
        M = rng.standard_normal((n, n))
        Q = M @ M.T + 1e-3 * np.eye(n)
        cc = contraction_constants(
            QuadraticL1Problem(Q, np.zeros(n), 1.0))
        assert 0.0 <= cc.delta < 1.0
        assert isinstance(cc, ContractionConstants)


def test_objective_value_zero_action():
    p = QuadraticL1Problem(np.eye(2), np.array([3.0, -1.0]), 2.0)
    assert objective_value(np.zeros(2), p) == 0.0


def test_objective_value_hand_case():
    p = QuadraticL1Problem(np.eye(1), np.array([-1.0]), 1.0)
    assert objective_value(np.array([1.0]), p) == pytest.approx(0.5)


def test_objective_value_against_reference_evaluation():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = 6
        M = rng.standard_normal((n, n))
        Q = M @ M.T + 0.1 * np.eye(n)
        phi = rng.standard_normal(n)
        x = rng.standard_normal(n)
        p = QuadraticL1Problem(Q, phi, 0.3)
        ref = objective_reference(x, Q, phi, 0.3)
        assert objective_value(x, p) == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_problem_rejects_asymmetric_q():
    Q = np.array([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(ValueError, match="symmetric"):
        QuadraticL1Problem(Q, np.zeros(2), 1.0)


def test_problem_rejects_indefinite_q():
    with pytest.raises(ValueError, match="positive definite"):
        QuadraticL1Problem(np.diag([1.0, -0.1]), np.zeros(2), 1.0)


def test_problem_rejects_bad_lambda_and_shapes():
    with pytest.raises(ValueError):
        QuadraticL1Problem(np.eye(2), np.zeros(2), 0.0)
    with pytest.raises(ValueError):
        QuadraticL1Problem(np.eye(2), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        QuadraticL1Problem(np.eye(2), np.array([np.inf, 0.0]), 1.0)
    with pytest.raises(ValueError):
        QuadraticL1Problem(np.eye(2), np.zeros(2), np.inf)


def test_with_phi_shares_quadratic_term_and_caches():
    p = QuadraticL1Problem(np.diag([1.0, 2.0]), np.zeros(2), 0.5)
    p.prox_factor()
    q = p.with_phi(np.array([1.0, -1.0]))
    assert q.Q is p.Q
    assert q.prox_factor() is p.prox_factor()
    np.testing.assert_allclose(q.phi, [1.0, -1.0])
    with pytest.raises(ValueError):
        p.with_phi(np.zeros(3))


def test_slices_of_one_sensing_matrix_factor_and_solve_eig_once(monkeypatch):
    calls = {"inv": 0, "eigvalsh": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    # a dense Q's proximal data is numpy's inverse of Q + I, its extreme
    # eigenvalues come from numpy's eigvalsh
    counted(np.linalg, "inv")
    counted(np.linalg, "eigvalsh")
    rng = np.random.default_rng(12)
    A = rng.standard_normal((3, 5))
    blocks = [ElasticNetData(A=A, y=rng.standard_normal(3), lam=0.1, mu=0.2)
              for _ in range(6)]
    # problems_from_blocks derives every later slice before anything is
    # factored; the cache must still be filled once for all of them
    problems = problems_from_blocks(blocks)
    for p in reversed(problems):
        p.prox_factor()
        p.eig_extremes()
    assert calls == {"inv": 1, "eigvalsh": 1}
    assert all(p.prox_factor() is problems[0].prox_factor() for p in problems)
    # the bound's largest ||Q_t||_2 runs no SVD: it is bitwise the shared
    # lambda_max, whose eigvalsh has already run once for all of them
    norm = np.linalg.norm
    svds = []

    def counted_norm(x, *args, **kwargs):
        if np.ndim(x) == 2:
            svds.append(args)
        return norm(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "norm", counted_norm)
    M_Q, _ = assumption_bounds(problems)
    assert M_Q == problems[0].lambda_max
    assert assumption_bounds(problems[::-1])[0] == M_Q
    assert svds == []
    assert calls == {"inv": 1, "eigvalsh": 1}


def test_factored_slices_factor_and_solve_eig_once_at_size_m(monkeypatch):
    # 2m < n: the slices share one factored operator (A, mu)
    m, n = 6, 400
    rng = np.random.default_rng(21)
    A = rng.standard_normal((m, n))
    blocks = [ElasticNetData(A=A, y=rng.standard_normal(m), lam=0.1, mu=0.05)
              for _ in range(6)]
    shapes = {}

    def record(owner, name):
        fn = getattr(owner, name)

        def wrapper(a, *args, **kwargs):
            key = f"{owner.__name__}.{name}"
            shapes.setdefault(key, []).append(np.shape(a))
            return fn(a, *args, **kwargs)
        monkeypatch.setattr(owner, name, wrapper)

    for name in ("inv", "cholesky", "eigvalsh", "eigh", "svd", "norm",
                 "solve"):
        record(np.linalg, name)
    tracemalloc.start()
    try:
        problems = problems_from_blocks(blocks)
        play_odr(problems, 5)
        play_oist(problems, [0.9 / problems[0].lambda_max] * len(problems), 5)
        stream_oracles(problems)
        assumption_bounds(problems)
        for p in problems:
            contraction_constants(p)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        Q = problems[-1].Q
        _, peak_q = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one inverse of the m x m G, one eigensolve of the m x m AA'
    assert shapes.pop("numpy.linalg.inv") == [(m, m)]
    assert shapes.pop("numpy.linalg.eigvalsh") == [(m, m)]
    # the bound's ||Q||_2 is the cached largest eigenvalue: no SVD at all
    assert all(len(s) < 2 for s in shapes.pop("numpy.linalg.norm", []))
    # what remains is the oracle's reduced solves, none of them n x n
    assert set(shapes) <= {"numpy.linalg.solve"}
    assert all(s[0] < n for s in shapes.get("numpy.linalg.solve", []))
    assert all(p.prox_factor() is problems[0].prox_factor() for p in problems)
    # no n x n array until Q is read; then one, shared by every slice
    dense_bytes = n * n * 8
    assert peak < dense_bytes
    assert peak_q >= dense_bytes
    assert all(p.Q is Q for p in problems)
    np.testing.assert_array_equal(Q, A.T @ A + 0.05 * np.eye(n))


def test_elastic_net_data_validation():
    with pytest.raises(ValueError):
        ElasticNetData(A=np.zeros((2, 2)), y=np.zeros(3), lam=0.1, mu=0.1)
    with pytest.raises(ValueError):
        ElasticNetData(A=np.zeros((2, 2)), y=np.zeros(2), lam=0.0, mu=0.1)
    with pytest.raises(ValueError):
        ElasticNetData(A=np.zeros((2, 2)), y=np.zeros(2), lam=0.1, mu=0.0)
    for lam, mu in ((np.inf, 0.1), (0.1, np.inf), (np.nan, 0.1)):
        with pytest.raises(ValueError):
            ElasticNetData(A=np.zeros((2, 2)), y=np.zeros(2), lam=lam, mu=mu)
    data = ElasticNetData(A=np.zeros((3, 4)), y=np.zeros(3), lam=0.1, mu=0.1)
    assert (data.m, data.n) == (3, 4)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(5, 625),
       rows=st.floats(0.1, 1.5), T=st.integers(1, 6), shared=st.booleans())
def test_stream_losses_are_each_objective_value_bitwise(seed, n, rows, T,
                                                        shared):
    # dense (2m >= n) and factored slices; one shared A or one A per slice;
    # actions with zeros, negative zeros and both signs
    rng = np.random.default_rng(seed)
    m = max(1, int(rows * n))
    A = rng.standard_normal((m, n))
    blocks = [ElasticNetData(A=A if shared else rng.standard_normal((m, n)),
                             y=rng.standard_normal(m), lam=0.1 * (t + 1),
                             mu=0.01) for t in range(T)]
    problems = problems_from_blocks(blocks)
    X = rng.standard_normal((T, n)) * (rng.random((T, n)) < 0.5)
    X[rng.random((T, n)) < 0.2] = -0.0
    want = np.array([objective_value(x, p) for x, p in zip(X, problems)])
    assert action_losses(problems, X).tobytes() == want.tobytes()


def test_stream_losses_refuse_a_count_of_actions_other_than_the_slices():
    rng = np.random.default_rng(4)
    problems = problems_from_blocks(
        [ElasticNetData(A=rng.standard_normal((6, 5)),
                        y=rng.standard_normal(6), lam=0.1, mu=0.01)
         for _ in range(3)])
    for X in (np.zeros((2, 5)), np.zeros((4, 5))):
        with pytest.raises(ValueError, match="actions for 3 problems"):
            action_losses(problems, X)
    with pytest.raises(ValueError):
        action_losses(problems, np.zeros((3, 4)))
