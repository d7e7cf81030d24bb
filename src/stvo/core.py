"""Problem containers and proximal building blocks.

The objective tracked throughout this package is, per time slice,

    f(x) = 0.5 * x' Q x + phi' x + lam * ||x||_1

with Q symmetric positive definite and lam > 0.  Least-squares data enters
through the elastic-net reduction implemented by :func:`elastic_net_problem`.
"""

import importlib
from dataclasses import dataclass

import numpy as np


def _vector(name, v, n):
    """v as a float array, which must have shape (n,)."""
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    return v


def _plus_diagonal(M, scale, diag):
    """scale * M, a new C-order array, plus diag on its diagonal, added
    through the flat view of the diagonal, which C order makes a view of
    the array itself."""
    out = np.multiply(M, scale, order="C")
    out.reshape(-1)[::len(out) + 1] += diag
    return out


class SliceOperator:
    """The quadratic term Q of a slice and the data derived from it.

    Holds Q either dense, or factored as the pair (A, mu) with
    Q = A'A + mu I and fewer rows than columns (m < n).  The data of the
    proximal solve (the inverse of Q + I when dense, the m x n G^{-1}A
    below when factored) and the extreme eigenvalues are computed on first
    use, with numpy's LAPACK, and cached, so every slice holding the
    operator by reference shares them.  Q is symmetric positive definite,
    so its spectral norm is its largest eigenvalue.  On a factored operator

    * Q x is A'(A x) + mu x;
    * the solve with Q + I is the matrix inversion lemma
      (Q + I)^{-1} b = (b - A'(H b)) / (1 + mu), H = G^{-1}A with the m x m
      G = (1 + mu) I + AA' (Boyd et al., *ADMM*, 2011, section 4.2.4): two
      matrix-vector products;
    * A'A is singular, so the extreme eigenvalues are mu and mu plus the
      largest eigenvalue of AA', and mu > 0 is what makes Q positive
      definite;
    * the dense Q is formed only when read, bitwise A.T @ A + mu * I.
    """

    __slots__ = ("n", "A", "mu", "_Q", "_factor", "_eig")

    def __init__(self, Q=None, A=None, mu=0.0):
        if A is not None and not A.shape[0] < A.shape[1]:
            raise ValueError(f"a factored Q needs fewer rows than columns, "
                             f"got A of shape {A.shape}")
        self.n = Q.shape[0] if A is None else A.shape[1]
        self.A, self.mu, self._Q = A, float(mu), Q
        self._factor = self._eig = None

    @classmethod
    def grams(cls, A, mu):
        """A'A + mu I of every block of the (R, m, n) stack A, mu the (R,)
        ridges.  Factored as (A_i, mu_i), a view of A, when 2m < n, where
        A'(A x) takes fewer flops than a dense Q x; otherwise dense, all R
        from one np.matmul, bitwise each block's own A'A + mu I, and checked
        finite (finite blocks can overflow)."""
        if 2 * A.shape[1] < A.shape[2]:
            return [cls(A=a, mu=u) for a, u in zip(A, mu)]
        Q = np.matmul(A.transpose(0, 2, 1), A)
        Q += np.multiply.outer(mu, np.eye(A.shape[2]))
        if not np.isfinite(Q).all():
            raise ValueError("Q must be finite")
        return [cls(Q=q) for q in Q]

    @property
    def factored(self):
        return self.A is not None

    @property
    def Q(self):
        if self._Q is None:
            self._Q = self.A.T @ self.A + self.mu * np.eye(self.n)
        return self._Q

    def matvec(self, x):
        """Q x."""
        if self.A is None:
            return self._Q @ x
        return self.A.T @ (self.A @ x) + self.mu * x

    def block(self, act):
        """Q restricted to the rows and columns of the boolean mask act."""
        if self.A is None:
            return self._Q[np.ix_(act, act)]
        A_S = self.A[:, act]
        return A_S.T @ A_S + self.mu * np.eye(A_S.shape[1])

    def prox_factor(self):
        """The cached data of the solve with Q + I, a tuple whose first
        entry is the array that persists with the operator.  Dense: (P,),
        the inverse P = (Q + I)^{-1}.  Factored: (H,), H = G^{-1}A, the
        m x n product of the inverse of the m x m G with A, the same size
        as A (inv then a product: about half the time of a solve with A's
        n right-hand sides)."""
        if self._factor is None:
            if self.A is None:
                self._factor = (np.linalg.inv(self._Q + np.eye(self.n)),)
            else:
                G = self.A @ self.A.T + (1.0 + self.mu) * np.eye(len(self.A))
                self._factor = (np.linalg.inv(G) @ self.A,)
        return self._factor

    def solver(self, factor):
        """b -> (Q + I)^{-1} b given prox_factor(): one product with P when
        dense, the lemma's products with H and A' when factored; b is left
        as it is."""
        H, = factor
        if self.A is None:
            return lambda b: np.dot(H, b)
        A, s = self.A, 1.0 + self.mu
        return lambda b: (b - A.T @ (H @ b)) / s

    def eig_extremes(self):
        """Smallest and largest eigenvalue of Q, from numpy's eigvalsh: of
        Q when dense, of the m x m AA' when factored."""
        if self._eig is None:
            if self.A is None:
                w = np.linalg.eigvalsh(self._Q)
                self._eig = (float(w[0]), float(w[-1]))
            else:
                w = np.linalg.eigvalsh(self.A @ self.A.T)
                self._eig = (self.mu, float(w[-1]) + self.mu)
        return self._eig


class QuadraticL1Problem:
    """One time slice of the composite objective.

    Parameters
    ----------
    Q : (n, n) ndarray
        Symmetric positive definite quadratic term.
    phi : (n,) ndarray
        Linear term.
    lam : float
        Weight of the l1 penalty, positive and finite.

    Notes
    -----
    Instances are treated as read-only after construction and are safe to
    share across threads.  The quadratic term is held as a
    :class:`SliceOperator` in ``op``: dense when built from Q, in the form
    :meth:`SliceOperator.grams` picks when :func:`elastic_net_problem` builds
    it.  The operator computes the proximal factor and the extreme
    eigenvalues lazily and caches them;
    :meth:`with_phi` produces a slice with a different linear term that
    holds the same operator by reference, so a stream whose slices differ
    only in phi factors once, whichever slice asks first.  ``Q`` is the
    operator's dense Q, formed on first read when the operator is factored.
    """

    SYMMETRY_TOL = 1e-10

    def __init__(self, Q, phi, lam):
        Q = np.asarray(Q, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        n = Q.shape[0]
        phi = _vector("phi", phi, n)
        if not np.isfinite(Q).all() or not np.isfinite(phi).all():
            raise ValueError("Q and phi must be finite")
        asym = np.max(np.abs(Q - Q.T)) if n else 0.0
        if asym > self.SYMMETRY_TOL:
            raise ValueError(f"Q must be symmetric, max asymmetry {asym:.3e}")
        if not 0 < lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {lam}")
        try:
            # Cholesky succeeds iff Q is positive definite; cheaper than eigh.
            np.linalg.cholesky(Q)
        except np.linalg.LinAlgError as err:
            raise ValueError("Q must be positive definite") from err
        self.op = SliceOperator(Q=Q)
        self.phi, self.lam, self.n = phi, float(lam), n

    @classmethod
    def _of(cls, op, phi, lam):
        """Slice on an existing operator, its arguments already checked."""
        out = object.__new__(cls)
        out.op, out.phi, out.lam, out.n = op, phi, float(lam), op.n
        return out

    @property
    def Q(self):
        return self.op.Q

    def prox_factor(self):
        """Cached data of the quadratic proximal solve, see
        :meth:`SliceOperator.prox_factor`."""
        return self.op.prox_factor()

    def eig_extremes(self):
        """Smallest and largest eigenvalue of Q, cached."""
        return self.op.eig_extremes()

    @property
    def lambda_max(self):
        return self.eig_extremes()[1]

    def with_phi(self, phi):
        """New slice with a different linear term, sharing the operator."""
        phi = _vector("phi", phi, self.n)
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        return QuadraticL1Problem._of(self.op, phi, self.lam)

    def __repr__(self):
        return (f"QuadraticL1Problem(n={self.n}, lam={self.lam})")


@dataclass(frozen=True)
class ElasticNetData:
    """Least-squares data block with l1/l2 regularization weights.

    Represents min_x 0.5*||A x - y||^2 + lam*||x||_1 + 0.5*mu*||x||^2.
    """

    A: np.ndarray
    y: np.ndarray
    lam: float
    mu: float

    def __post_init__(self):
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-d, got ndim {A.ndim}")
        y = _vector("y", self.y, A.shape[0])
        if not np.isfinite(A).all() or not np.isfinite(y).all():
            raise ValueError("A and y must be finite")
        if not 0 < self.lam < np.inf:
            raise ValueError(f"lam must be positive and finite, got {self.lam}")
        if not 0 < self.mu < np.inf:
            raise ValueError(f"mu must be positive and finite, got {self.mu}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

    @classmethod
    def _of(cls, A, y, lam, mu):
        """Block of arrays and weights already checked, such as row slices
        of a checked block."""
        out = object.__new__(cls)
        for name, value in (("A", A), ("y", y), ("lam", lam), ("mu", mu)):
            object.__setattr__(out, name, value)
        return out

    @property
    def m(self):
        return self.A.shape[0]

    @property
    def n(self):
        return self.A.shape[1]


@dataclass(frozen=True)
class ContractionConstants:
    """Linear-rate constants of the reflected splitting iteration.

    sigma and beta are the extreme eigenvalues of Q; delta < 1 is the
    per-iteration contraction factor of the auxiliary sequence and q the
    factor carried onto the primal iterate by the final proximal solve.
    """

    sigma: float
    beta: float
    delta: float
    q: float


def soft_threshold(z, beta):
    """Component-wise soft thresholding, the proximal operator of beta*||.||_1.

    Maps v to v - beta for v > beta, to v + beta for v < -beta and to +0.0
    otherwise.

    Parameters
    ----------
    z : array_like
    beta : float
        Threshold, strictly positive.

    Returns
    -------
    ndarray
    """
    if not beta > 0:
        raise ValueError(f"threshold must be positive, got {beta}")
    return _shrink(np.asarray(z, dtype=float), -beta, beta)


def _numpy_clip():
    """numpy's clip ufunc, public under no name: in numpy._core.umath from
    numpy 2 on, in numpy.core.umath before."""
    for name in ("numpy._core.umath", "numpy.core.umath"):
        try:
            return importlib.import_module(name).clip
        except (ImportError, AttributeError):
            pass
    raise ImportError("numpy's clip ufunc is in neither numpy._core.umath "
                      "nor numpy.core.umath")


_clip = _numpy_clip()
# The largest array clipped by the ufunc; a larger one takes maximum and
# minimum, faster there.  Clip and subtract against the pair and subtract,
# best of 7 (2-core VM, numpy 2.4.6): 0.80 against 1.13 us at 20 cells, even
# from 320 to 500, 1.58 against 1.46 at 625, 34.4 against 23.5 at 22,500.
_CLIP_MAX = 400


def _max_min(y, lo, hi, out=None):
    out = np.maximum(y, lo, out=out)
    return np.minimum(out, hi, out=out)


def _clip_for(size):
    """The clip (y, lo, hi, out) of an array of size cells: the ufunc up to
    _CLIP_MAX, :func:`_max_min` above; bitwise equal, but where a scalar
    bound is a zero, whose sign the two read differently."""
    return _clip if size <= _CLIP_MAX else _max_min


def _shrink(z, lo, hi, out=None):
    """z - clip(z, lo, hi): the one-shot soft-threshold kernel, unchecked.

    At lo = c - t, hi = c + t it is S_t[z - c] up to rounding; at (-beta,
    beta) it is :func:`soft_threshold`, bitwise sign(z) max(|z| - beta, 0)
    outside the band and z - z = +0.0 inside (only z = -0.0 at a bound of
    +0.0 stays -0.0).  lo <= hi may be arrays that broadcast against z
    without enlarging it.  Two or three passes by z's size
    (:func:`_clip_for`), into out when it is given (out must not overlap z).
    """
    out = _clip_for(z.size)(z, lo, hi, out=out)
    return np.subtract(z, out, out=out)


class _Round:
    """The one inner loop of the online rounds.  An iteration writes
    y = affine(x), which may overwrite x, and then x <- y - clip(y, lo, hi),
    S[y - c] at lo, hi = c -+ t, or with reflect x <- (y - clip) - clip,
    odr's z+ = y - 2 clip(y, -lam, lam).  The clip goes into x, so the loop
    holds x and y alone; :meth:`_arm` picks it once per round from x's size,
    and an iteration makes no Python call of its own beyond the affine map.
    """

    __slots__ = ("_x", "_y", "_affine", "_clip", "_lo", "_hi", "_reflect")

    def _arm(self, x, lo, hi, reflect=False):
        """Loop on x, which the round owns; the round sets _affine."""
        self._x, self._y, self._lo, self._hi = x, np.empty_like(x), lo, hi
        self._clip, self._reflect = _clip_for(x.size), reflect

    def step(self, k):
        """k iterations."""
        if k < 0:
            raise ValueError(f"k must be >= 0, got {k}")
        x, y, affine, clip, lo, hi, reflect = (
            self._x, self._y, self._affine, self._clip, self._lo, self._hi,
            self._reflect)
        # out by position and a local subtract: each saves a share of the
        # call overhead that is nearly all of an iteration at n = 20
        subtract = np.subtract
        for _ in range(k):
            affine(x, y)
            clip(y, lo, hi, x)
            if reflect:
                subtract(y, x, y)
            subtract(y, x, x)
        return self


def prox_quadratic(z, problem):
    """Proximal operator of the smooth part 0.5 x'Qx + phi'x at z.

    Applies (Q + I)^{-1} to z - phi through the operator's cached
    :meth:`~SliceOperator.prox_factor`: one product with the inverse when Q
    is dense, the lemma's products with H and A' when it is factored.  This
    map is 1/(1+sigma)-Lipschitz in z, with sigma the smallest eigenvalue of
    Q.
    """
    z = _vector("z", z, problem.n)
    if not np.isfinite(z).all():
        raise ValueError("z must be finite")
    return problem.op.solver(problem.prox_factor())(z - problem.phi)


def elastic_net_problem(data):
    """Reduce an elastic-net block to quadratic-plus-l1 form.

    The slice has Q = A'A + mu*I and phi = -A'y; the constant 0.5*||y||^2 is
    dropped, so objective values differ from the least-squares form by that
    constant while the minimizer is unchanged.  mu > 0 keeps Q positive
    definite even when the block is underdetermined (m < n).  The block is
    built as the one slice of :func:`elastic_net_slices`.
    """
    (p,), = elastic_net_slices(data.A[None], [data.mu], [data.lam],
                               [data.y[None]])
    return p


def elastic_net_slices(A, mu, lam, ys):
    """Elastic-net slices on the blocks of the (R, m, n) stack A, block i
    with ridge mu[i] and l1 weight lam[i]; row i of the j-th (R, m) array
    of ys is the y of block i's j-th slice.  Returns per block the list of
    its slices, which hold one operator.

    Q is held as :meth:`SliceOperator.grams` picks: factored as (A, mu) when
    2m < n, so the proximal solve works on an m x m factor, and otherwise
    dense.  Q is symmetric positive definite by construction, so only its
    finiteness is checked, with phi's: the products of finite data can
    overflow.  The phi = -A'y of the j-th slices of all R blocks are the row
    vectors -y'A of one np.matmul.
    """
    phis = [np.matmul(-y[:, None], A)[:, 0] for y in ys]
    if not all(np.isfinite(phi).all() for phi in phis):
        raise ValueError("phi must be finite")
    ops = SliceOperator.grams(A, mu)
    return [[QuadraticL1Problem._of(op, phi[i], lam_i) for phi in phis]
            for i, (op, lam_i) in enumerate(zip(ops, lam))]


def contraction_constants(problem):
    """Contraction constants of the splitting iteration on one time slice.

    delta = max((1-sigma)/(1+sigma), (beta-1)/(beta+1)) and q = delta/(1+sigma),
    where sigma, beta are the extreme eigenvalues of Q.  0 <= delta < 1 holds
    for every positive definite Q.
    """
    sigma, beta = problem.eig_extremes()
    if not sigma > 0:
        raise ValueError(f"Q must be positive definite, smallest eig {sigma}")
    delta = max((1.0 - sigma) / (1.0 + sigma), (beta - 1.0) / (beta + 1.0))
    q = delta / (1.0 + sigma)
    return ContractionConstants(sigma=sigma, beta=beta, delta=delta, q=q)


def objective_value(x, problem):
    """Evaluate 0.5 x'Qx + phi'x + lam*||x||_1."""
    x = _vector("x", x, problem.n)
    return float(0.5 * x @ problem.op.matvec(x) + problem.phi @ x
                 + problem.lam * np.abs(x).sum())
