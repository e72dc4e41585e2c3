"""Affine-invariant Riemannian geometry of the SPD cone.

All operations treat symmetric positive-definite (SPD) matrices as points on
the cone manifold equipped with the affine-invariant metric, whose tangent
inner product at ``P`` is ``<A, B>_P = <P^{-1/2} A P^{-1/2}, P^{-1/2} B P^{-1/2}>``.
Geodesic distance under that metric is invariant under congruence
``P -> W P W^T`` (any invertible ``W``) and under matrix inversion.

Matrices are plain ``numpy`` arrays; most functions accept stacked inputs of
shape ``(..., d, d)`` and operate on the trailing two axes.  Every function
is pure and safe to call from multiple threads.  The one piece of shared
state is a thread pool, built per process on first use, that runs the row
blocks of :func:`sq_distance_matrix` in parallel (see :func:`_each`).

Eigendecomposition (``numpy.linalg.eigh``) is the single primitive behind all
matrix functions; inputs are symmetric, so the eigensolver route is exact for
this class.  Every matrix-valued result is explicitly re-symmetrized to kill
floating-point asymmetry.
"""

import os

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
)
from .transport import PAIR_BLOCK_DOUBLES, check_mass

# Eigenvalue floor below which a matrix is rejected as not positive-definite.
EPS_PD = 1e-10
# Elementwise tolerance for the symmetry invariant.
SYM_RTOL = 1e-12
# Stopping threshold and Newton-step cap of every Karcher mean.
MEAN_TOL = 1e-10
MEAN_MAX_ITER = 200


def sym(M):
    """Symmetric part ``(M + M^T) / 2``, batched over leading axes."""
    return 0.5 * (M + np.swapaxes(M, -1, -2))


def check_symmetric(M, name="matrix"):
    """Validate elementwise symmetry of ``M`` within ``SYM_RTOL``.

    Raises
    ------
    InvalidInput
        If ``M`` is not square or ``|M[i,j] - M[j,i]|`` exceeds
        ``SYM_RTOL * max(1, |M[i,j]|)`` anywhere.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim < 2 or M.shape[-1] != M.shape[-2]:
        raise InvalidInput(f"{name} must be square, got shape {M.shape}")
    if not np.isfinite(M).all():
        raise InvalidInput(f"{name} has non-finite entries")
    diff = np.abs(M - np.swapaxes(M, -1, -2))
    bound = SYM_RTOL * np.maximum(1.0, np.abs(M))
    if not (diff <= bound).all():
        raise InvalidInput(f"{name} is not symmetric within tolerance {SYM_RTOL}")
    return M


def check_stack(A, name="stack", dim=None):
    """``A`` as a float array; :class:`InvalidInput` unless it is a nonempty
    ``(n, d, d)`` stack, with ``d == dim`` when ``dim`` is given."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 3 or A.shape[1] != A.shape[2] or not A.size:
        raise InvalidInput(f"{name} must be a nonempty (n, d, d) stack, got {A.shape}")
    if dim is not None and A.shape[2] != dim:
        raise InvalidInput(f"{name}: dimension mismatch, d={A.shape[2]}, expected {dim}")
    return A


def check_spd(P, name="matrix"):
    """Validate that ``P`` is symmetric with all eigenvalues above ``EPS_PD``.

    Returns the validated array; raises :class:`NotPositiveDefinite` when the
    smallest eigenvalue is at or below the floor.
    """
    P = check_symmetric(P, name=name)
    w = np.linalg.eigvalsh(P)
    wmin = w[..., 0].min(initial=np.inf)
    if wmin <= EPS_PD:
        raise NotPositiveDefinite(
            f"{name} has smallest eigenvalue {wmin:.3e} <= floor {EPS_PD:.1e}"
        )
    return P


def _eigh(M, floor=None, op="matrix function"):
    """Eigendecomposition ``(w, V)`` of a symmetric matrix (batched).

    Raises :class:`NumericalFailure` if the eigensolver fails and, with
    ``floor`` set, :class:`NotPositiveDefinite` if an eigenvalue is at or
    below it.  Eigenvalues come in ascending order.
    """
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed in {op}: {exc}") from exc
    if floor is not None:
        wmin = w[..., 0].min(initial=np.inf)
        if wmin <= floor:
            raise NotPositiveDefinite(
                f"{op} needs eigenvalues > {floor:.1e}, got {wmin:.3e}"
            )
    return w, V


def _eigh_fun(M, fn, floor=None, op="matrix function"):
    """Apply a scalar map to the eigenvalues of a symmetric matrix (batched)."""
    w, V = _eigh(M, floor, op)
    return sym((V * fn(w)[..., None, :]) @ np.swapaxes(V, -1, -2))


def expm(A):
    """Matrix exponential of a symmetric matrix (batched)."""
    A = check_symmetric(A, name="expm input")
    return _eigh_fun(A, np.exp, op="expm")


def invsqrtm(P):
    """Inverse matrix square root of an SPD matrix (batched)."""
    P = check_symmetric(P, name="invsqrtm input")
    return _eigh_fun(P, lambda w: 1.0 / np.sqrt(w), floor=EPS_PD, op="invsqrtm")


def _sqrt_invsqrt(P, op="sqrt/invsqrt"):
    """Square root and inverse square root from a single eigendecomposition."""
    w, V = _eigh(P, EPS_PD, op)
    s = np.sqrt(w)
    Vt = np.swapaxes(V, -1, -2)
    return sym((V * s[..., None, :]) @ Vt), sym((V * (1.0 / s)[..., None, :]) @ Vt)


def _whiten(P, X, op):
    """``(P^{1/2}, sym(P^{-1/2} X P^{-1/2}))`` at an SPD base point ``P``.

    ``P`` is checked: :class:`InvalidInput` if it is not symmetric,
    :class:`NotPositiveDefinite` if an eigenvalue is at or below ``EPS_PD``.
    """
    P = check_symmetric(P, name=f"{op} base point")
    S, Si = _sqrt_invsqrt(P, op=op)
    return S, sym(Si @ X @ Si)


def _check_pair(P, Q, op):
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape[-2:] != Q.shape[-2:]:
        raise InvalidInput(
            f"{op}: dimension mismatch, {P.shape[-2:]} vs {Q.shape[-2:]}"
        )
    return P, Q


def riemannian_distance(P, Q, squared=False):
    """Affine-invariant geodesic distance between two SPD matrices.

    Computed through the generalized eigenvalues ``lam_i`` of the pair
    ``(P, Q)``, i.e. the eigenvalues of ``Q^{-1} P``::

        d(P, Q)^2 = sum_i log^2(lam_i)

    which equals the log-Frobenius form ``||log(Q^{-1/2} P Q^{-1/2})||_F``.
    The first call imports ``scipy.linalg``; the pipeline never calls this.

    Parameters
    ----------
    P, Q : ndarray, shape (d, d)
        SPD matrices.
    squared : bool, default=False
        Return the squared distance.

    Returns
    -------
    float
        Nonnegative distance (or squared distance).
    """
    P, Q = _check_pair(P, Q, "riemannian_distance")
    if P.ndim != 2 or P.shape[0] != P.shape[1] or Q.ndim != 2:
        raise InvalidInput(
            f"riemannian_distance takes two (d, d) matrices, got {P.shape} and {Q.shape}"
        )
    check_spd(P, name="first argument")
    check_spd(Q, name="second argument")
    import scipy.linalg
    w = scipy.linalg.eigvalsh(P, Q)
    d2 = float(np.sum(np.log(np.maximum(w, 1e-300)) ** 2))
    return d2 if squared else np.sqrt(d2)


def _sq_log_norms(M):
    """Squared Frobenius norms of the logs of an SPD stack ``M`` (lower triangles read)."""
    w = np.linalg.eigvalsh(M)
    return np.sum(np.log(np.maximum(w, 1e-300)) ** 2, axis=-1)


_POOL = (None, None)  # (pid, ThreadPoolExecutor): a forked child builds its own


def _each(fn, *blocks):
    """``list(map(fn, *blocks))``, run on this process's thread pool.

    numpy's batched eigensolvers and ``matmul`` release the GIL, so the pool,
    one thread per CPU this process may use, runs the calls in parallel.
    Results come in order, and the first failing call's exception is raised.
    With one CPU or one block this is a plain loop.
    """
    global _POOL
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    if cpus < 2 or len(blocks[0]) < 2:
        return list(map(fn, *blocks))
    if _POOL[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _POOL = os.getpid(), ThreadPoolExecutor(cpus)
    return list(_POOL[1].map(fn, *blocks))


def sq_distance_matrix(A, B=None):
    """Pairwise squared Riemannian distances between two stacks of SPD matrices.

    ``d(A[i], B[j])^2`` is the sum of squared logs of the eigenvalues of
    ``B[j]^{-1/2} A[i] B[j]^{-1/2}``.  The inverse roots of ``B`` come from
    one batched eigendecomposition; the congruences and eigenvalues are then
    taken for blocks of ``max(1, PAIR_BLOCK_DOUBLES // (n2 d^2))`` source
    rows at a time, one batched eigensolve per block.  The blocks run on
    the process's thread pool (:func:`_each`), so a call holds
    O(max(PAIR_BLOCK_DOUBLES, n2 d^2)) working memory per CPU on top of its
    ``(n1, n2)`` result rather than O(n1 n2 d^2).  The partition ignores
    the CPU count, and so do the result's bits; ``taskset -c 0`` runs the
    blocks serially.

    With ``B`` omitted, the self-distances of ``A`` are computed from their
    strict upper triangle (n(n-1)/2 eigensolves rather than n^2), mirrored,
    with zeros on the diagonal, so the result is exactly symmetric.

    Parameters
    ----------
    A : ndarray, shape (n1, d, d)
    B : ndarray, shape (n2, d, d), optional
        Both nonempty.

    Returns
    -------
    ndarray, shape (n1, n2)
        ``out[i, j] = d(A[i], B[j])^2``.
    """
    self_distances = B is None
    A = check_stack(A, "first set")
    B = A if self_distances else check_stack(B, "second set", A.shape[2])
    if not self_distances:
        check_spd(A, name="first set")
    W = invsqrtm(B)  # validates B
    n1, n2, d = A.shape[0], B.shape[0], A.shape[2]
    rows = max(1, PAIR_BLOCK_DOUBLES // (n2 * d * d))
    if not self_distances:
        return np.concatenate(_each(
            lambda s: _sq_log_norms(W @ A[s:s + rows, None] @ W), range(0, n1, rows)
        ))
    # only the (i, j > i) pairs, in row order, cut at the block boundaries
    iu, ju = np.triu_indices(n1, 1)
    cuts = np.searchsorted(iu, range(rows, n1 - 1, rows))
    out = np.zeros((n1, n2))
    out[iu, ju] = np.concatenate(_each(
        lambda i, j: _sq_log_norms(W[j] @ A[i] @ W[j]),
        np.split(iu, cuts), np.split(ju, cuts),
    ))
    return out + out.T


def paired_sq_distances(A, B):
    """Squared Riemannian distances between matched pairs ``A[i], B[i]``.

    Parameters
    ----------
    A, B : ndarray, shape (n, d, d)
        Equal-length stacks of SPD matrices.

    Returns
    -------
    ndarray, shape (n,)
    """
    A = np.asarray(A, dtype=float)
    B = np.asarray(B, dtype=float)
    if A.shape != B.shape:
        raise InvalidInput(
            f"paired_sq_distances: shape mismatch, {A.shape} vs {B.shape}"
        )
    check_spd(A, name="first set")
    W = invsqrtm(B)  # validates B
    return _sq_log_norms(W @ A @ W)


def geodesic(P, Q, t):
    """Point at parameter ``t`` on the geodesic from ``P`` to ``Q``.

    The unique geodesic is ``P^{1/2} (P^{-1/2} Q P^{-1/2})^t P^{1/2}`` with
    ``t`` restricted to ``[0, 1]``; ``t=0`` gives ``P`` and ``t=1`` gives
    ``Q``, and arc length grows linearly in ``t``.
    """
    if not 0.0 <= t <= 1.0:
        raise InvalidInput(f"geodesic parameter t={t} outside [0, 1]")
    P, Q = _check_pair(P, Q, "geodesic")
    check_spd(Q, name="geodesic end")
    S, Y = _whiten(P, Q, "geodesic")
    return sym(S @ _eigh_fun(Y, lambda w: w**t, EPS_PD, "powm") @ S)


def exp_map(P, A):
    """Riemannian exponential ``Exp_P(A) = P^{1/2} exp(P^{-1/2} A P^{-1/2}) P^{1/2}``.

    Maps a symmetric tangent matrix ``A`` at base point ``P`` to the manifold.
    ``A`` may be a stack ``(..., d, d)``; the result is SPD for every slice.
    """
    P, A = _check_pair(P, A, "exp_map")
    check_symmetric(A, name="tangent vector")
    S, Y = _whiten(P, A, "exp_map")
    return sym(S @ _eigh_fun(Y, np.exp, op="expm") @ S)


def log_map(P, Q):
    """Riemannian logarithm ``Log_P(Q) = P^{1/2} log(P^{-1/2} Q P^{-1/2}) P^{1/2}``.

    Inverse of :func:`exp_map`; the returned symmetric matrix satisfies
    ``||Log_P(Q)||_P = d(P, Q)`` in the affine-invariant tangent norm.
    ``Q`` may be a stack ``(..., d, d)``.
    """
    P, Q = _check_pair(P, Q, "log_map")
    check_spd(Q, name="log_map target")
    S, Y = _whiten(P, Q, "log_map")
    return sym(S @ _eigh_fun(Y, np.log, EPS_PD, "logm") @ S)


def _karcher_hessian(U, L, w):
    """Whitened Riemannian Hessian of ``f(X) = 1/2 sum_j w_j d(X, P_j)^2``.

    The whitened points ``X^{-1/2} P_j X^{-1/2} = U_j diag(exp(L_j)) U_j^T``
    determine it.  Returns the map::

        H[D] = sum_j w_j U_j ((U_j^T D U_j) * K_j) U_j^T,
        K_j[a, b] = h(L_ja - L_jb),  h(x) = (x/2) / tanh(x/2),  h(0) = 1,

    so that ``<D, H[D]>`` is the second derivative of
    ``t -> f(X^{1/2} exp(tD) X^{1/2})`` at 0.  ``h >= 1`` and the weights
    sum to 1, hence ``H >= I``.  Leading axes of ``U (..., n, d, d)``,
    ``L (..., n, d)``, ``w (..., n)`` and ``D`` index independent problems.
    """
    *batch, n, d = L.shape
    half = 0.5 * (L[..., :, None] - L[..., None, :])
    K = np.ones_like(half)
    np.divide(half, np.tanh(half), out=K, where=half != 0)
    WK = w[..., None, None] * K
    Ut = np.ascontiguousarray(np.swapaxes(U, -1, -2))
    # [U_1 ... U_n] side by side, so the outer products and the sum over j
    # are one (d, nd) @ (nd, d) product each
    Ucat = np.swapaxes(U, -3, -2).reshape(*batch, d, n * d)
    Ucat_t = Ut.reshape(*batch, n * d, d)

    def hess(D):
        inner = (Ucat_t @ D).reshape(*batch, n, d, d) @ U
        inner *= WK
        return Ucat @ (inner @ Ut).reshape(*batch, n * d, d)

    return hess


def _newton_direction(hess, T):
    """Solve ``hess(D) = T`` by conjugate gradients from ``D = 0``.

    ``hess`` is the map of :func:`_karcher_hessian`, so ``H >= I`` makes the
    solve well posed and ``||D||_F <= ||T||_F``.  Each ``(d, d)`` problem in
    ``T`` stops on its own at ``||T - H[D]||_F <= 1e-8 ||T||_F`` or after
    ``d(d+1)/2`` steps, the dimension of the symmetric matrices, where
    exact arithmetic would have converged.
    """
    d = T.shape[-1]
    D = np.zeros_like(T)
    r = T.copy()
    p = r.copy()
    rr = np.sum(r * r, axis=(-2, -1))
    stop = 1e-16 * rr  # ||r||_F <= 1e-8 ||T||_F
    for _ in range(d * (d + 1) // 2):
        live = rr > stop
        if not live.any():
            break
        Hp = hess(p)
        pHp = np.sum(p * Hp, axis=(-2, -1))
        # stopped problems take zero-length steps
        alpha = np.divide(rr, pHp, out=np.zeros_like(rr), where=live)[..., None, None]
        D += alpha * p
        r -= alpha * Hp
        rr, rr_old = np.sum(r * r, axis=(-2, -1)), rr
        beta = np.divide(rr, rr_old, out=np.zeros_like(rr), where=live)
        p = r + beta[..., None, None] * p
    return sym(D)


# Cap on the doubles in one (rows, support, d, d) array of _karcher_means.
KARCHER_BLOCK_DOUBLES = 2**19


def _karcher_means(points, weights):
    """:func:`frechet_mean` of validated ``points`` for each row of ``weights``.

    Returns ``(means, iterations, residuals)``.  A row with one positive
    weight returns that point bit for bit.  The others iterate together, in
    blocks that keep a (rows, support, d, d) array under
    ``KARCHER_BLOCK_DOUBLES``, each row over its positive-weight points
    padded with zero-weight ones.  A row carries a frame ``F`` with
    ``F F^T = X`` in place of ``X^{1/2}``: whitening is ``F^{-1} P F^{-T}``,
    the residual ``||F T F^T||_F`` and a step ``D = Q diag(e) Q^T`` moves
    ``F`` to ``F Q diag(exp(e/2))``.  By affine invariance the iterates and
    residuals are those of ``X^{1/2}``, with no eigensolve of ``X`` after
    the first.  A failure names the lowest failing row.
    """
    support = weights > 0
    counts = support.sum(axis=1)
    # each row's positive-weight points first, in index order
    idx = np.argsort(~support, axis=1, kind="stable")
    w = np.take_along_axis(weights, idx, axis=1)
    X = points[idx[:, 0]]
    F, Finv = np.empty_like(X), np.empty_like(X)
    iterations = np.zeros(len(w), dtype=int)
    residuals = np.where(counts > 1, np.inf, 0.0)
    low = np.full(len(w), np.inf)  # least positive-weight whitened eigenvalue
    rows = np.flatnonzero(counts > 1)
    block = max(1, KARCHER_BLOCK_DOUBLES // (counts.max() * X[0].size))
    for start in range(0, rows.size, block):
        act = rows[start:start + block]  # rows of the block still iterating
        k = counts[act].max()
        X[act] = sym(np.einsum("bk,bkij->bij", w[act, :k], points[idx[act, :k]]))
        lam, V = _eigh(X[act], EPS_PD, op="frechet_mean")
        F[act] = V * np.sqrt(lam)[:, None, :]
        Finv[act] = np.swapaxes(V / np.sqrt(lam)[:, None, :], -1, -2)
        for _ in range(MEAN_MAX_ITER):
            Fi = Finv[act][:, None]
            whitened = sym(Fi @ points[idx[act, :k]] @ np.swapaxes(Fi, -1, -2))
            lam, U = _eigh(whitened, op="logm")
            low[act] = np.where(w[act, :k] > 0, lam[..., 0], np.inf).min(axis=1)
            ok = low[act] > EPS_PD
            act, lam, U = act[ok], lam[ok], U[ok]
            L = np.log(np.where(w[act, :k, None] > 0, lam, 1.0))
            logs = (U * L[..., None, :]) @ np.swapaxes(U, -1, -2)
            T = sym(np.einsum("bk,bkij->bij", w[act, :k], logs))
            Fa = F[act]
            res = np.linalg.norm(sym(Fa @ T @ np.swapaxes(Fa, -1, -2)), axis=(-2, -1))
            residuals[act] = res
            go = res > MEAN_TOL
            act, U, L, T, Fa = act[go], U[go], L[go], T[go], Fa[go]
            if not act.size:
                break
            D = _newton_direction(_karcher_hessian(U, L, w[act, :k]), T)
            e, Q = _eigh(D, op="expm")
            F[act] = Fa @ (Q * np.exp(0.5 * e)[:, None, :])
            Qt = np.swapaxes(Q, -1, -2)
            Finv[act] = (Qt * np.exp(-0.5 * e)[:, :, None]) @ Finv[act]
            X[act] = sym(F[act] @ np.swapaxes(F[act], -1, -2))
            iterations[act] += 1
    failed = np.flatnonzero((residuals > MEAN_TOL) | (low <= EPS_PD))
    if not failed.size:
        return X, iterations, residuals
    i = failed[0]
    if low[i] <= EPS_PD:
        raise NotPositiveDefinite(
            f"Karcher mean of row {i}: whitened point eigenvalue {low[i]:.3e} "
            f"<= floor {EPS_PD:.1e} at iteration {iterations[i]} "
            f"(residual {residuals[i]:.3e})"
        )
    raise ConvergenceFailure(
        f"Karcher mean of row {i}: residual {residuals[i]:.3e} > tol "
        f"{MEAN_TOL:.1e} after {MEAN_MAX_ITER} iterations",
        last=X[i].copy(),
        residual=float(residuals[i]),
        iterations=MEAN_MAX_ITER,
    )


def frechet_mean(points, weights=None):
    """Weighted Fréchet (Karcher) mean of SPD matrices.

    Minimizes ``f(X) = 1/2 sum_i w_i d(X, P_i)^2`` by Riemannian Newton
    steps from the weighted arithmetic mean.  One eigendecomposition of the
    whitened points ``X^{-1/2} P_i X^{-1/2}`` gives their weighted log
    average ``T`` (the whitened negative gradient) and the Hessian ``H``
    (:func:`_karcher_hessian`); conjugate gradients solves ``H[D] = T`` and
    the estimate moves to ``X^{1/2} exp(D) X^{1/2}``.  ``H >= I``, so a step
    is never longer than the fixed-point step ``D = T``, and near the mean
    convergence is quadratic.  Iteration stops once the tangent average
    ``sum_i w_i Log_X(P_i) = X^{1/2} T X^{1/2}`` has Frobenius norm
    ``<= MEAN_TOL``, within ``MEAN_MAX_ITER`` steps.  The problem is
    strictly convex, so the mean is unique.

    Parameters
    ----------
    points : array-like, shape (n, d, d)
        SPD matrices.  All of them are validated, but only those with
        positive weight enter the iteration.
    weights : array-like, shape (n,), optional
        Finite, nonnegative weights summing to 1.  Uniform when omitted.

    Returns
    -------
    ndarray, shape (d, d)
        The weighted mean (for a single point or one-hot weights, that point
        itself).

    Raises
    ------
    ConvergenceFailure
        If ``MEAN_MAX_ITER`` steps are used up; carries the last iterate,
        the last residual and the iteration count.
    NotPositiveDefinite
        If a whitened point's eigenvalue reaches the log's floor ``EPS_PD``.
    """
    pts = check_stack(points, "frechet_mean points")
    n = pts.shape[0]
    w = np.full(n, 1.0 / n) if weights is None else check_mass(weights, n, "weights")
    check_spd(pts, name="frechet_mean points")
    return _karcher_means(pts, w[None])[0][0]


def tangent_coordinates(points, base):
    """Whitened tangent-space coordinates of SPD matrices at ``base``.

    Returns ``A_i = log(base^{-1/2} P_i base^{-1/2})`` for each point.  The
    Frobenius norm of each coordinate equals ``d(base, P_i)``, and Euclidean
    distances between coordinates approximate Riemannian distances between
    the corresponding points near ``base``.  These are the features to hand
    to a Euclidean classifier.

    Parameters
    ----------
    points : array-like, shape (n, d, d)
        SPD matrices.
    base : ndarray, shape (d, d)
        SPD base point (typically the set's mean).

    Returns
    -------
    ndarray, shape (n, d, d)
        Symmetric coordinate matrices.
    """
    base = check_stack(np.asarray(base)[None], "tangent_coordinates base")[0]
    pts = check_stack(points, "tangent_coordinates points", base.shape[0])
    check_spd(pts, name="tangent_coordinates points")
    _, Y = _whiten(base, pts, "tangent_coordinates")
    return _eigh_fun(Y, np.log, EPS_PD, "logm")
