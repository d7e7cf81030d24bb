"""Problem containers and proximal building blocks.

The objective tracked throughout this package is, per time slice,

    f(x) = 0.5 * x' Q x + phi' x + lam * ||x||_1

with Q symmetric positive definite and lam > 0.  Least-squares data enters
through the elastic-net reduction implemented by :func:`elastic_net_problem`.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg


class _OperatorCache:
    """Derived data of one Q, filled on first use by whichever slice asks."""

    __slots__ = ("prox_factor", "eig_extremes", "spectral_norm")

    def __init__(self):
        self.prox_factor = None
        self.eig_extremes = None
        self.spectral_norm = None


class QuadraticL1Problem:
    """One time slice of the composite objective.

    Parameters
    ----------
    Q : (n, n) ndarray
        Symmetric positive definite quadratic term.
    phi : (n,) ndarray
        Linear term.
    lam : float
        Weight of the l1 penalty, strictly positive.

    Notes
    -----
    Instances are treated as read-only after construction and are safe to
    share across threads.  The factorization of Q + I used by the proximal
    solve, the extreme eigenvalues of Q and its spectral norm are computed
    lazily and kept in a cache holder; :meth:`with_phi` produces a slice
    with a different linear term that holds the same Q and the same holder
    by reference, so a stream whose slices differ only in phi factors Q
    once, whichever slice asks first.
    """

    SYMMETRY_TOL = 1e-10

    def __init__(self, Q, phi, lam):
        Q = np.asarray(Q, dtype=float)
        phi = np.asarray(phi, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError(f"Q must be square, got shape {Q.shape}")
        n = Q.shape[0]
        if phi.shape != (n,):
            raise ValueError(f"phi must have shape ({n},), got {phi.shape}")
        if not np.isfinite(Q).all() or not np.isfinite(phi).all():
            raise ValueError("Q and phi must be finite")
        asym = np.max(np.abs(Q - Q.T)) if n else 0.0
        if asym > self.SYMMETRY_TOL:
            raise ValueError(f"Q must be symmetric, max asymmetry {asym:.3e}")
        if not lam > 0:
            raise ValueError(f"lam must be positive, got {lam}")
        try:
            # Cholesky succeeds iff Q is positive definite; cheaper than eigh.
            scipy.linalg.cholesky(Q, lower=False)
        except scipy.linalg.LinAlgError as err:
            raise ValueError("Q must be positive definite") from err
        self.Q = Q
        self.phi = phi
        self.lam = float(lam)
        self.n = n
        self._cache = _OperatorCache()

    @property
    def _prox_factor(self):
        return self._cache.prox_factor

    def prox_factor(self):
        """Cached Cholesky factor of Q + I for the quadratic proximal solve."""
        cache = self._cache
        if cache.prox_factor is None:
            cache.prox_factor = scipy.linalg.cho_factor(
                self.Q + np.eye(self.n), lower=False)
        return cache.prox_factor

    def eig_extremes(self):
        """Smallest and largest eigenvalue of Q, cached."""
        cache = self._cache
        if cache.eig_extremes is None:
            w = scipy.linalg.eigvalsh(self.Q)
            cache.eig_extremes = (float(w[0]), float(w[-1]))
        return cache.eig_extremes

    @property
    def lambda_max(self):
        return self.eig_extremes()[1]

    def spectral_norm(self):
        """||Q||_2 from one SVD, cached.

        Kept apart from lambda_max, which equals it in exact arithmetic but
        comes from eigvalsh and differs in the last bits.
        """
        cache = self._cache
        if cache.spectral_norm is None:
            cache.spectral_norm = float(np.linalg.norm(self.Q, 2))
        return cache.spectral_norm

    def with_phi(self, phi):
        """New slice with a different linear term, sharing Q and its cache."""
        phi = np.asarray(phi, dtype=float)
        if phi.shape != (self.n,):
            raise ValueError(f"phi must have shape ({self.n},), got {phi.shape}")
        if not np.isfinite(phi).all():
            raise ValueError("phi must be finite")
        other = object.__new__(QuadraticL1Problem)
        other.Q = self.Q
        other.phi = phi
        other.lam = self.lam
        other.n = self.n
        other._cache = self._cache
        return other

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
        y = np.asarray(self.y, dtype=float)
        if A.ndim != 2:
            raise ValueError(f"A must be 2-d, got ndim {A.ndim}")
        if y.shape != (A.shape[0],):
            raise ValueError(
                f"y must have shape ({A.shape[0]},), got {y.shape}")
        if not np.isfinite(A).all() or not np.isfinite(y).all():
            raise ValueError("A and y must be finite")
        if not self.lam > 0:
            raise ValueError(f"lam must be positive, got {self.lam}")
        if not self.mu > 0:
            raise ValueError(f"mu must be positive, got {self.mu}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "y", y)

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

    Maps v to v - beta for v > beta, to v + beta for v < -beta and to 0
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
    return _shrink(np.asarray(z, dtype=float), beta)


def _shrink(z, beta):
    """:func:`soft_threshold` on a float array, without argument checks.

    For inner loops that validated their threshold once per round; beta may
    also be an array broadcast against z.
    """
    return np.sign(z) * np.maximum(np.abs(z) - beta, 0.0)


def prox_quadratic(z, problem):
    """Proximal operator of the smooth part 0.5 x'Qx + phi'x at z.

    Solves (Q + I) x = z - phi through the cached symmetric factorization;
    the inverse is never formed explicitly.  This map is 1/(1+sigma)-Lipschitz
    in z, with sigma the smallest eigenvalue of Q.
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (problem.n,):
        raise ValueError(f"z must have shape ({problem.n},), got {z.shape}")
    return scipy.linalg.cho_solve(problem.prox_factor(), z - problem.phi)


def elastic_net_problem(data):
    """Reduce an elastic-net block to quadratic-plus-l1 form.

    Builds Q = A'A + mu*I and phi = -A'y; the constant 0.5*||y||^2 is
    dropped, so objective values differ from the least-squares form by that
    constant while the minimizer is unchanged.  mu > 0 keeps Q positive
    definite even when the block is underdetermined (m < n).
    """
    Q = data.A.T @ data.A + data.mu * np.eye(data.n)
    phi = -data.A.T @ data.y
    return QuadraticL1Problem(Q, phi, data.lam)


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
    x = np.asarray(x, dtype=float)
    if x.shape != (problem.n,):
        raise ValueError(f"x must have shape ({problem.n},), got {x.shape}")
    return float(0.5 * x @ (problem.Q @ x) + problem.phi @ x
                 + problem.lam * np.abs(x).sum())
