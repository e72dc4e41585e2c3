"""Shared helpers: SPD generators and independent reference oracles.

The oracles deliberately avoid the package's eigh-based code paths: the
distance reference goes through ``scipy.linalg.sqrtm``/``logm`` (Schur and
inverse-scaling-and-squaring algorithms) and the mean reference through a
general-purpose optimizer over Cholesky factors.
"""

import os

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

# ``AdaptationConfig`` fields of every (solver, mass) pair that ``adapt``
# solves.  The exact solver takes only uniform mass.  At its default lambda
# and eta the label solver converges on small sets only close to its solve
# cap (48 of 50 solves with uniform mass and 22 with KDE mass on two classes
# of three 3x3 points), so it gets fixed ones.
SOLVER_MASS = [
    pytest.param({"solver": "exact"}, id="exact"),
    pytest.param({"solver": "sinkhorn"}, id="sinkhorn"),
    pytest.param({"solver": "sinkhorn", "mass": "kde"}, id="sinkhorn-kde"),
    pytest.param({"solver": "sinkhorn-labels", "lam": 2.0, "eta": 0.1}, id="labels"),
    pytest.param({"solver": "sinkhorn-labels", "lam": 2.0, "eta": 0.1, "mass": "kde"},
                 id="labels-kde"),
]


def use_cpus(monkeypatch, cpus):
    """Make the process look as if it may run on ``cpus`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def make_spd(dim, count, seed, scale=1.0):
    """Random SPD stack ``G G^T / dim + 0.1 I``, deterministic in seed."""
    rng = np.random.default_rng(seed)
    G = scale * rng.standard_normal((count, dim, dim))
    return G @ np.swapaxes(G, -1, -2) / dim + 0.1 * np.eye(dim)


def make_spd_unit_floor(dim, count, seed, scale=1.0):
    """Random SPD stack with all eigenvalues >= 1.

    Exp/log round trips at 1e-8 need the exponential's result to stay
    well-conditioned; a base point with near-floor eigenvalues turns an
    ambient-norm-5 tangent into a metric displacement of 15+, beyond what
    float64 eigensolves can round-trip.
    """
    rng = np.random.default_rng(seed)
    G = scale * rng.standard_normal((count, dim, dim))
    return G @ np.swapaxes(G, -1, -2) / dim + np.eye(dim)


def make_wide_spd(dim, count, seed, spread):
    """Random SPD stack ``exp(spread * sym(N))``, N standard normal.

    Log-eigenvalues spread by several units, so the points are far apart
    and ill-conditioned; built with scipy's ``expm``, not the package's.
    """
    rng = np.random.default_rng(seed)
    N = rng.standard_normal((count, dim, dim))
    return np.stack([scipy.linalg.expm(spread * (M + M.T) / 2) for M in N])


def eigh_sqrtm(P):
    """Matrix square root of an SPD stack through ``numpy.linalg.eigh``.

    The same operations, in the same order, as the package's own square
    roots, so instances built with it match those built before bit for bit.
    """
    w, V = np.linalg.eigh(P)
    R = (V * np.sqrt(w)[..., None, :]) @ np.swapaxes(V, -1, -2)
    return 0.5 * (R + np.swapaxes(R, -1, -2))


def make_tangent(dim, seed, norm=None):
    """Random symmetric matrix, optionally rescaled to a given Frobenius norm."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((dim, dim))
    A = (A + A.T) / 2
    if norm is not None:
        A *= norm / np.linalg.norm(A)
    return A


def random_invertible(dim, seed):
    """Random invertible matrix, rejected until well-conditioned.

    Congruence transforms amplify eigensolver error by roughly the squared
    condition number, so unconditioned draws would drown the 1e-8
    invariance tolerances in float noise.
    """
    rng = np.random.default_rng(seed)
    while True:
        A = rng.standard_normal((dim, dim))
        if np.linalg.cond(A) < 100.0:
            return A


def reference_distance(P, Q):
    """Affine-invariant distance via scipy's Schur-based matrix functions.

    Computes ``||logm(Q^{-1/2} P Q^{-1/2})||_F`` without touching the
    package's eigendecomposition route.
    """
    Qs = scipy.linalg.sqrtm(Q)
    Qis = np.linalg.inv(Qs)
    inner = Qis @ P @ Qis
    return float(np.linalg.norm(scipy.linalg.logm((inner + inner.T) / 2), "fro"))


def reference_frechet_mean(points, weights):
    """Weighted Fréchet mean by direct objective minimization.

    Parameterizes candidates as ``L L^T`` over lower-triangular ``L`` with
    log-parameterized diagonal and minimizes the weighted sum of squared
    reference distances with Nelder-Mead from the arithmetic-mean start.
    Slow but independent of the fixed-point iteration under test.
    """
    points = np.asarray(points, dtype=float)
    weights = np.asarray(weights, dtype=float)
    d = points.shape[-1]
    tril = np.tril_indices(d)

    def unpack(x):
        L = np.zeros((d, d))
        L[tril] = x
        L[np.diag_indices(d)] = np.exp(np.diag(L))
        return L @ L.T

    def objective(x):
        M = unpack(x)
        return sum(
            w * reference_distance(M, P) ** 2 for w, P in zip(weights, points)
        )

    start = np.linalg.cholesky(np.einsum("i,iab->ab", weights, points))
    x0 = start[tril].copy()
    on_diag = tril[0] == tril[1]
    x0[on_diag] = np.log(start[np.diag_indices(d)])
    res = scipy.optimize.minimize(
        objective,
        x0,
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 20000, "maxfev": 20000},
    )
    return unpack(res.x)
