"""Independent reference implementations used to cross-check the package.

Everything here is written in the most literal style available: scalar
branches, explicit loops, no helpers imported from the package.  Agreement
between two independently written codepaths is evidence; calling the
library from both sides would prove nothing.
"""

import numpy as np
import scipy.linalg


def soft_scalar(v, b):
    """Branchy scalar soft threshold."""
    if v > b:
        return v - b
    if v < -b:
        return v + b
    return 0.0


def soft_vector(v, b):
    return np.array([soft_scalar(val, b) for val in np.asarray(v, float)])


def scalar_lasso(q, p, lam):
    """Minimizer of 0.5*q*x^2 + p*x + lam*|x|, by sign case analysis."""
    return soft_scalar(-p, lam) / q


def subgradient_violation(x, Q, phi, lam):
    """Largest violation of the first-order optimality conditions.

    Active coordinates must satisfy (Qx + phi)_i = -lam * sign(x_i); at
    zero coordinates |(Qx + phi)_i| may not exceed lam.
    """
    x = np.asarray(x, float)
    g = np.asarray(Q, float) @ x + np.asarray(phi, float)
    worst = 0.0
    for i in range(x.size):
        if x[i] > 0:
            worst = max(worst, abs(g[i] + lam))
        elif x[i] < 0:
            worst = max(worst, abs(g[i] - lam))
        else:
            worst = max(worst, max(abs(g[i]) - lam, 0.0))
    return worst


def prox_grad_minimize(Q, phi, lam, res_tol=1e-9, max_iter=400000):
    """Plain proximal-gradient descent, step 1/L, no acceleration.

    Runs until the subgradient violation clears res_tol; returns the last
    iterate either way (callers assert on agreement, which fails loudly if
    this stalled).
    """
    Q = np.asarray(Q, float)
    phi = np.asarray(phi, float)
    L = float(np.linalg.eigvalsh(Q)[-1])
    tau = 1.0 / L
    thr = lam * tau
    x = np.zeros(phi.size)
    for k in range(1, max_iter + 1):
        z = x - tau * (Q @ x + phi)
        x = np.where(z > thr, z - thr, np.where(z < -thr, z + thr, 0.0))
        if k % 50 == 0 and subgradient_violation(x, Q, phi, lam) <= res_tol:
            break
    return x


def objective_reference(x, Q, phi, lam):
    """Objective evaluated as a sum of scalar contributions, worst order."""
    x = np.asarray(x, float)
    total = 0.0
    for i in range(x.size):
        for j in range(x.size):
            total += 0.5 * x[i] * Q[i][j] * x[j]
    for i in range(x.size):
        total += phi[i] * x[i]
    for i in range(x.size):
        total += lam * abs(x[i])
    return total


def direct_prox(z, Q, phi):
    """(Q + I)^{-1} (z - phi), refactoring Q + I on every call."""
    factor = scipy.linalg.cho_factor(Q + np.eye(len(phi)), lower=False)
    return scipy.linalg.cho_solve(factor, z - phi)


def direct_dr_step(x, z, Q, phi, lam):
    """Literal splitting iteration.

    u = S_lam(2x - z); z+ = z + 2(u - x); x+ = (Q + I)^{-1} (z+ - phi)
    """
    u = soft_vector(2.0 * x - z, lam)
    z_new = np.empty_like(z)
    for i in range(z.size):
        z_new[i] = z[i] + 2.0 * (u[i] - x[i])
    return direct_prox(z_new, Q, phi), z_new


def direct_oist_sweep(x, Q, phi, lam, tau):
    """Literal thresholded-gradient sweep x <- S_{lam tau}(x - tau (Qx + phi))."""
    g = Q @ x
    v = np.empty_like(x)
    for i in range(x.size):
        v[i] = x[i] - tau * (g[i] + phi[i])
    return soft_vector(v, lam * tau)


def mean_of_columns(M, idx):
    """Neighborhood mean as an explicit left-fold over sorted ids."""
    acc = np.zeros(M.shape[0])
    for w in idx:
        acc = acc + M[:, w]
    return acc / len(idx)


def direct_odd_step(X, C, neighbor_lists, Qs, phis, lam, taus):
    """Literal transcription of the descent half-step listing.

    x_v <- S_{lam tau_v / 2}[ (x_v + cbar_v - tau_v Q_v x_v - tau_v phi_v) / 2 ]
    """
    X_new = np.empty_like(X)
    for v in range(X.shape[1]):
        x = X[:, v]
        cbar = mean_of_columns(C, neighbor_lists[v])
        arg = (x + cbar - taus[v] * (Qs[v] @ x) - taus[v] * phis[v]) / 2.0
        X_new[:, v] = soft_vector(arg, lam * taus[v] / 2.0)
    return X_new


def direct_global_objective(X, neighbor_lists, Qs, phis, lam, taus):
    """Network objective by direct summation over nodes and neighborhoods."""
    total = 0.0
    for v in range(X.shape[1]):
        x = X[:, v]
        total += 0.5 * float(x @ (Qs[v] @ x)) + float(phis[v] @ x)
        total += lam * float(np.sum(np.abs(x)))
        coup = 0.0
        for w in neighbor_lists[v]:
            xbar_w = mean_of_columns(X, neighbor_lists[w])
            coup += float(np.sum((xbar_w - x) ** 2))
        total += coup / (2.0 * len(neighbor_lists[v]) * taus[v])
    return total
