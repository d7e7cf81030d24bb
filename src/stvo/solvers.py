"""Batch and online solvers for the quadratic-plus-l1 objective.

Their API is the rounds of the reflected-splitting family, :class:`OdrRound`,
which contracts linearly on the auxiliary sequence, and of the
thresholded-gradient family, :class:`OistRound`: each pays its slice's setup
and checks once, then steps the one loop of :class:`stvo.core._Round`, and
takes and returns its state as arrays.  The loop carries the pre-clip point
y and its clip w, from which a round reads its iterate: on a dense slice an
iteration is one gemv on the stack [y; w] (and a 1 for odr) and one clip;
on a factored slice it forms the iterate from (y, w) first, so it keeps
the arithmetic of the literal three-step loop (the map, the clip, then the
iterate) bitwise.  ``odr_round`` and ``oist_round``, a
round in one call, are the form that the command line's play loops and the
benchmark driver call; odr's carries its (x, z) in a :class:`DRState`.
``oracle_minimizer`` certifies each slice's minimizer by one exact solver,
a warm-started feature-sign search whose answer is a reduced solve; where
that does not certify, restarted FISTA sweeps only find new starts for it.
``_lockstep_feature_sign`` finds warm starts for a whole stream of small
dense slices at once.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .core import (_plus_diagonal, _Round, _vector, prox_quadratic,
                   soft_threshold)


class OracleError(RuntimeError):
    """Raised when a reference solve fails to converge or to certify."""


@dataclass
class DRState:
    """The record that the one-shot :func:`odr_round` carries: primal
    iterate x and auxiliary iterate z, of which a round reads only z."""

    x: np.ndarray
    z: np.ndarray


@dataclass
class OnlineConfig:
    """Per-round budget and step size of the online solvers.

    r counts inner iterations per round.  tau is the step of the
    thresholded-gradient family, which requires it and refuses it unless
    finite and positive; the splitting family ignores it.
    """

    r: int = 1
    tau: float | None = None

    def __post_init__(self):
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")


@dataclass
class BatchResult:
    """Converged (or truncated) batch solve.

    residual_history holds ||z_{k+1} - z_k|| for every iteration performed;
    it is non-increasing from the second entry on.  Non-convergence within
    max_iter is reported through ``converged``, not raised.
    """

    x_star: np.ndarray
    z_star: np.ndarray
    iterations: int
    residual_history: np.ndarray
    converged: bool


def initial_state(n):
    """Zero state, the conventional cold start."""
    return DRState(np.zeros(n), np.zeros(n))


class OdrRound(_Round):
    """Splitting round on one slice, started from the state consistent with
    a given z: x = (Q + I)^{-1} (z - phi), the proximal image of z.

    From a consistent state an iteration closes in z alone, the shared
    loop's reflection z+ = (y - w) - w, w = clip(y, -lam, lam), with
    y = 2x - z.  Dense Q: y = B z - c with B = 2P - I, c = 2 P phi and
    P = (Q + I)^{-1}, the operator's cached
    :meth:`~stvo.core.SliceOperator.prox_factor`; on the loop's stack
    [y; w; 1] that is one gemv with M = [B, -2B, -c].  Factored Q: z is
    formed from (y, w), then y = 2 (Q + I)^{-1} (z - phi) - z by the
    lemma's solve.  z and x are formed only when read, x by
    ``prox_quadratic``; :meth:`state` hands back the pair (x, z), new
    arrays.  The iterates agree with the literal ones to 1e-12 relative; a
    round stepped in chunks is bitwise the round stepped once by their sum.
    """

    __slots__ = ("_problem",)

    def start(self, problem, z):
        """Start on problem from the state consistent with z."""
        z = _vector("z", z, problem.n)
        if not np.isfinite(z).all():
            raise ValueError("z must be finite")
        factor = problem.prox_factor()
        solve, phi = problem.op.solver(factor), problem.phi
        self._problem = problem
        # the bounds as arrays: a ufunc takes them faster than a float
        hi = np.full(problem.n, problem.lam)
        if problem.op.factored:
            def affine(yw, y):
                # y is yw[0]: z = (y - w) - w over w, then
                # y = 2 (Q + I)^{-1} (z - phi) - z
                w = yw[1]
                z = np.subtract(np.subtract(y, w, y), w, w)
                np.subtract(np.multiply(solve(z - phi), 2.0, out=y), z, out=y)

            self._affine = affine
            self._arm(z, np.negative(hi), hi)
        else:
            B = _plus_diagonal(factor[0], 2.0, -1.0)
            # M.dot(v, y): the gemv of np.matmul, with the least call
            # overhead; -c = P (-2 phi), exactly
            self._affine = np.concatenate(
                (B, np.multiply(B, -2.0), solve(-2.0 * phi)[:, None]),
                axis=1).dot
            self._arm(z, np.negative(hi), hi, ones=1)
        return self

    @property
    def z(self):
        y, w = self._last
        return np.subtract(np.subtract(y, w), w)

    @property
    def x(self):
        return prox_quadratic(self.z, self._problem)

    def state(self):
        z = self.z
        return prox_quadratic(z, self._problem), z


class OistRound(_Round):
    """Thresholded-gradient round on one slice: sweeps
    x <- S_{lam*tau}(x - tau*(Qx + phi)).

    :meth:`start` checks x, the step and its premise once.  The threshold
    scales with tau, so each sweep exactly minimizes the majorizing
    surrogate, and the objective is non-increasing whenever
    tau * lambda_max(Q) <= 1; a larger step is warned about, not fatal.
    A sweep is the shared loop's iteration with y = x - tau Q x and bounds
    c -+ lam tau, c = tau phi, so that x = y - w.  Dense Q: one gemv on the
    loop's stack [y; w] with M = [B, -B], B = I - tau Q.  Factored Q: x is
    formed from (y, w), then y goes through the factors.  x is formed only
    when read; :meth:`state` hands back a new array.  The sweeps agree
    with the literal ones to 1e-12 relative.
    """

    __slots__ = ()

    def start(self, problem, tau, x):
        x = _vector("x", x, problem.n)
        if not 0 < tau < np.inf:
            raise ValueError(f"tau must be finite and positive, got {tau}")
        lambda_max = problem.lambda_max
        if tau * lambda_max > 1.0:
            warnings.warn(
                f"tau={tau:.3e} violates the descent precondition "
                f"tau <= 1/lambda_max(Q) = {1.0 / lambda_max:.3e}; "
                "iterating anyway", RuntimeWarning)
        thr = problem.lam * tau
        c = tau * problem.phi
        lo, hi = np.subtract(c, thr), np.add(c, thr, out=c)
        if problem.op.factored:
            matvec = problem.op.matvec

            def affine(yw, y):
                # y is yw[0]: x = y - w over w, then y = x - tau Q x
                x = np.subtract(y, yw[1], yw[1])
                np.subtract(x, np.multiply(matvec(x), tau, out=y), out=y)

            self._affine = affine
            self._arm(x, lo, hi)
        else:
            B = _plus_diagonal(problem.Q, -tau, 1.0)
            self._affine = np.concatenate((B, np.negative(B)), axis=1).dot
            self._arm(x, lo, hi, ones=0)
        return self

    def state(self):
        return np.subtract(*self._last)

    x = property(state)


def batch_dr(problem, tol=1e-10, max_iter=10000):
    """Step a splitting round from z = 0 one iteration at a time until
    the z-increment drops below tol.

    Parameters
    ----------
    problem : QuadraticL1Problem
    tol : float
        Stop once ||z_{k+1} - z_k||_2 <= tol; finite and non-negative.
    max_iter : int
        Iteration cap, at least 1; hitting it flags the result.

    Returns
    -------
    BatchResult
    """
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0 <= tol < np.inf:
        raise ValueError("tol must be a finite non-negative number")
    rnd = OdrRound().start(problem, np.zeros(problem.n))
    residuals = []
    converged = False
    z = rnd.z
    for _ in range(max_iter):
        z_prev, z = z, rnd.step(1).z
        res = float(np.linalg.norm(z - z_prev))
        residuals.append(res)
        if res <= tol:
            converged = True
            break
    return BatchResult(x_star=prox_quadratic(z, problem), z_star=z,
                       iterations=len(residuals),
                       residual_history=np.array(residuals), converged=converged)


def odr_round(state, problem, cfg):
    """One online round of the splitting solver: r iterations of
    :class:`OdrRound` from the carried z.  x is re-derived from z through
    this slice's proximal map, so every inner step applies the current
    reflected operator and the per-round contraction bound takes no drift
    term; on a static stream the rounds replay the batch iteration to
    rounding."""
    return DRState(*OdrRound().start(problem, state.z).step(cfg.r).state())


def oist_round(x, problem, cfg):
    """One online round of the thresholded-gradient solver: r sweeps of
    :class:`OistRound` at the step cfg.tau."""
    if cfg.tau is None:
        raise ValueError("oist_round requires an explicit tau")
    return OistRound().start(problem, cfg.tau, x).step(cfg.r).state()


def optimality_residual(x, problem):
    """Fixed-point residual of the optimality condition, infinity norm.

    x minimizes the objective iff x = S_lam(x - (Qx + phi)); the residual is
    the largest component-wise violation of that identity.  Unlike the raw
    subgradient case split it degrades gracefully when entries sit near zero.
    """
    x = np.asarray(x, dtype=float)
    g = problem.op.matvec(x) + problem.phi
    return float(np.max(np.abs(x - soft_threshold(x - g, problem.lam))))


# the largest support a feature-sign search carries; past it the FISTA
# fallback certifies.  Uncapped, the search alone certified every rss slice
# at lam = 2e-4 (supports up to 189) in 3-4x the time, 6.9-8.6 s against
# 2.1-2.2 s on the default stream, and at lam = 5e-5 it gave up where the
# fallback certifies
_SUPPORT_CAP = 150
# the residual the oracle aims for, or opt_tol if lower: a search answer
# above it goes to the fallback, which stops once it is reached
_ORACLE_TARGET = 1e-12
# feature-sign steps per oracle call, and per slice of a lockstep search
# over a stream; on exp1, exp2, synthetic and rss streams no slice has
# made more than 52 reduced solves alone, nor a lockstep search 48 steps
_SIGN_STEPS = 400
# the largest n at which a stream's dense slices share a lockstep search:
# its batched systems are n x n where a slice searching alone solves on its
# active set, and at n = 80 the batch no longer beat the slices alone
_LOCKSTEP_N = 40


def _sign_solve(problem, act, s):
    """Stationary point of the objective on the sign pattern (act, s).

    Solves Q_SS x_S = -(phi_S + lam s) over the boolean mask act, taken in
    index order; returns x_S, or None when the reduced system is singular.
    """
    try:
        return np.linalg.solve(problem.op.block(act),
                               -(problem.phi[act] + problem.lam * s))
    except np.linalg.LinAlgError:
        return None


def _first_crossing(x, new, cross):
    """The point where each row's segment from x to new first crosses zero.

    x and new are (..., n), cross marks the coordinates whose sign does not
    hold at new, at least one per row.  Each row moves by the smallest
    t = x_i / (x_i - new_i) over its crossing coordinates, and the
    coordinate that attains it is set to exactly zero; up to that t no
    coordinate changes sign, so every other one keeps its own.
    """
    d = new - x
    t = np.divide(x, -d, out=np.where(cross, 0.0, np.inf),
                  where=cross & (d != 0.0))
    i = np.argmin(t, axis=-1)[..., None]
    out = x + np.take_along_axis(t, i, -1) * d
    np.put_along_axis(out, i, 0.0, -1)
    return out


def _feature_sign(problem, x):
    """Feature-sign search (Lee, Battle, Raina & Ng, 2006) from x.

    The active set and its signs start as x's support and signs.  Each step
    solves the stationarity system on the pattern and moves x toward that
    solution, to its end point, or, when a sign does not hold there, to the
    first zero crossing (:func:`_first_crossing`), whose coordinate leaves
    the set.  Once the nonzeros are stationary, the zero with the largest
    violation |(Qx + phi)_i| > lam joins with the sign that descends, until
    none violates.  The objective falls at every step, since the signs hold
    up to the first crossing and a joining coordinate takes the sign it
    joins with, so no pattern repeats; _SIGN_STEPS bounds the loop where
    rounding would break that.
    The returned x is the reduced solve on its own support and signs, +0.0
    off it.  Returns None when the cap is hit, a reduced system is singular
    or the support outgrows _SUPPORT_CAP.
    """
    op, phi, lam = problem.op, problem.phi, problem.lam
    x = x.copy()
    act = x != 0.0
    sign = np.sign(x)
    for _ in range(_SIGN_STEPS):
        if act.sum() > _SUPPORT_CAP:
            return None
        if act.any():
            sa = sign[act]
            new = _sign_solve(problem, act, sa)
            if new is None:
                return None
            cross = sa * new <= 0.0
            if cross.any():
                x[act] = _first_crossing(x[act], new, cross)
                act = x != 0.0
                sign = np.sign(x)
                continue
            x[act] = new
        g = op.matvec(x) + phi
        viol = np.where(act, 0.0, np.abs(g))
        i = int(np.argmax(viol))
        if not viol[i] > lam:
            # zeros plus the active values: a -0.0 of the start stays out
            return np.where(act, x, 0.0)
        act[i] = True
        sign[i] = -np.sign(g[i])
    return None


def _lockstep_feature_sign(problems):
    """Warm starts for the oracle calls of a stream of dense slices: the
    feature-sign search from the cold start, run on every slice at once.
    Returns the (T, n) sign patterns reached, -1, 0 or +1 per coordinate,
    and the (T,) mask of the slices whose search finished.  It runs on
    dense slices of n at most _LOCKSTEP_N, below _SUPPORT_CAP, so no support
    outgrows the cap; elsewhere it finishes no slice, patterns None.

    Each step makes one batched solve over the live slices, their systems
    written into one buffer: a slice's Q with unit columns on its zero set.
    The solution y is the reduced solve on the active set and minus the
    gradient at it on the zero set, where the violation check reads it.
    A slice whose signs do not all hold at the solution steps to its first
    zero crossing (:func:`_first_crossing`), as a slice searching alone
    does.  A slice finishes once no zero coordinate violates.  A singular
    or non-finite solve ends the search; a slice still live then, or after
    _SIGN_STEPS steps, is unfinished.  The systems are formed otherwise
    than in :func:`_feature_sign`'s reduced solves, so this is a heuristic
    whose pattern only starts the slice's own search:
    from a right pattern that search makes one reduced solve and returns.
    """
    T, n = len(problems), problems[0].n
    done = np.zeros(T, dtype=bool)
    if n > _LOCKSTEP_N or any(p.op.factored for p in problems):
        return None, done
    Qs = [p.Q for p in problems]
    phi = np.stack([p.phi for p in problems])
    lam = np.array([p.lam for p in problems])
    # a slice's active set is where its sign is nonzero
    x, sign = np.zeros((T, n)), np.zeros((T, n))
    systems = np.empty((T, n, n))

    def advance(live):
        """One step of the live slices; returns the slices still live."""
        L = live.size
        s, pl, ll = sign[live], phi[live], lam[live]
        M = np.stack([Qs[t] for t in live], out=systems[:L])
        off = s == 0.0
        M.transpose(0, 2, 1)[off] = 0.0
        M.reshape(L, n * n)[:, ::n + 1][off] = 1.0
        try:
            y = np.linalg.solve(M, -(pl + ll[:, None] * s)[:, :, None])
        except np.linalg.LinAlgError:
            return live[:0]
        y = y[:, :, 0]
        if not np.isfinite(y).all():
            return live[:0]
        new = np.where(off, 0.0, y)
        cross = (s * new <= 0.0) & ~off
        settled = ~cross.any(axis=1)
        on = ~settled
        if on.any():
            new[on] = _first_crossing(x[live[on]], new[on], cross[on])
        x[live] = new
        s = np.sign(new)
        # a slice that reached its end point checks its zeros
        viol = np.where(off, np.abs(y), 0.0)
        i = np.argmax(viol, axis=1)
        grow = settled & (viol.max(axis=1) > ll)
        s[grow, i[grow]] = np.sign(y[grow, i[grow]])
        sign[live] = s
        done[live[settled & ~grow]] = True
        return live[~settled | grow]

    live = np.arange(T)
    for _ in range(_SIGN_STEPS):
        if not live.size:
            break
        live = advance(live)
    return sign, done


def _fista_polish(problem, x, target, max_iter):
    """Restarted FISTA from x, starting the feature-sign search every 100
    sweeps.

    Accelerated proximal-gradient sweeps (with gradient-based restart) only
    find a start: S_lam(v), v = x - (Qx + phi), whose support {|v| > lam}
    and signs are the pattern the sweep reads off x, so the search's first
    reduced solve is the stationarity solve on that pattern, and from a
    wrong pattern the search goes on.  The raw iterate is a candidate too,
    the one left where the pattern outgrows _SUPPORT_CAP.  Returns the best
    candidate seen and its residual; the loop stops once that residual is
    at most target.
    """
    best = x
    best_res = optimality_residual(x, problem)

    def consider(cand):
        nonlocal best, best_res
        r = np.inf if cand is None else optimality_residual(cand, problem)
        if r < best_res:
            best, best_res = cand, r

    if best_res > target:
        tau = 1.0 / problem.lambda_max
        thr = problem.lam * tau
        y = x.copy()
        t_m = 1.0
        for k in range(1, max_iter + 1):
            g = problem.op.matvec(y) + problem.phi
            x_new = soft_threshold(y - tau * g, thr)
            if np.dot(y - x_new, x_new - x) > 0.0:
                t_m = 1.0
                y = x_new
            else:
                t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t_m * t_m))
                y = x_new + ((t_m - 1.0) / t_next) * (x_new - x)
                t_m = t_next
            x = x_new
            if k % 100 == 0 or k == max_iter:
                consider(x.copy())
                v = x - (problem.op.matvec(x) + problem.phi)
                consider(_feature_sign(problem,
                                       soft_threshold(v, problem.lam)))
                if best_res <= target:
                    break
    return best, best_res


def oracle_minimizer(problem, max_iter=100000, opt_tol=1e-8, initial=None):
    """Certified reference minimizer and splitting fixed point (x*, z*).

    A feature-sign active-set search, warm started from the support and
    signs of the initial x, finds the solution's sign pattern in a handful
    of small exact solves; its answer is the reduced stationarity solve on
    that pattern.  Only when that answer's residual exceeds
    min(_ORACLE_TARGET, opt_tol) (or the search gives up) does restarted
    FISTA take over from the same start, its sweeps finding new starts for
    the search; the better of the two answers is kept.
    The splitting iteration itself is useless as an oracle here: on
    rank-deficient quadratics (tiny elastic-net mu) it stalls on near-flat
    reflection modes millions of iterations deep.  The subgradient
    optimality condition, measured through the fixed-point residual, is
    asserted before returning; failure raises OracleError, never a silently
    degraded answer.  z* follows from x* through the stationarity identity
    z* = (Q + I) x* + phi.

    Parameters
    ----------
    max_iter : int
        Cap on the fallback's proximal-gradient sweeps.
    opt_tol : float
        Residual above which the result is rejected as untrustworthy.
    initial : (n,) array_like, optional
        Finite warm start x, the cold start zero when omitted; it seeds both
        the search and the fallback.  From a point with the solution's
        support and signs the search makes one reduced solve and returns.

    Returns
    -------
    (x_star, z_star) : pair of ndarray
    """
    x = np.zeros(problem.n) if initial is None else \
        _vector("initial", initial, problem.n).copy()
    if not np.isfinite(x).all():
        raise ValueError("initial must be finite")
    target = min(_ORACLE_TARGET, opt_tol)
    best = _feature_sign(problem, x)
    best_res = np.inf if best is None else optimality_residual(best, problem)
    if not best_res <= target:
        fista, fista_res = _fista_polish(problem, x, target, max_iter)
        if fista_res < best_res:
            best, best_res = fista, fista_res
    if best_res > opt_tol:
        raise OracleError(
            f"minimizer fails the optimality check after {max_iter} sweeps: "
            f"residual {best_res:.3e} > {opt_tol}")
    x_star = best
    z_star = x_star + problem.op.matvec(x_star) + problem.phi
    return x_star, z_star
