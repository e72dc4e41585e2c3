"""Affine-invariant Riemannian geometry of the SPD cone.

All operations treat symmetric positive-definite (SPD) matrices as points on
the cone manifold equipped with the affine-invariant metric, whose tangent
inner product at ``P`` is ``<A, B>_P = <P^{-1/2} A P^{-1/2}, P^{-1/2} B P^{-1/2}>``.
Geodesic distance under that metric is invariant under congruence
``P -> W P W^T`` (any invertible ``W``) and under matrix inversion.

Matrices are plain ``numpy`` arrays; most functions accept stacked inputs of
shape ``(..., d, d)`` and operate on the trailing two axes.  Every function
is pure and safe to call from multiple threads.  :func:`sq_distance_matrix`,
:func:`sq_euclidean_matrix` and the Karcher map (its stop and certified
residual bound: :func:`frechet_mean`) run in blocks of source rows under one
budget, ``PAIR_BLOCK_DOUBLES``.  The one piece of shared state is
a thread pool, built per process when first needed, whose threads run the
row blocks of :func:`sq_distance_matrix` and of the Karcher map beside the
calling thread (see :func:`_each`).

Eigendecomposition (``numpy.linalg.eigh``) is the single primitive behind all
matrix functions; inputs are symmetric, so the eigensolver route is exact for
this class.  Every matrix-valued result is explicitly re-symmetrized to kill
floating-point asymmetry.  Every SPD floor is one check with one message,
naming what it checked.
"""

import os

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
)
from .transport import check_mass

# Eigenvalue floor below which a matrix is rejected as not positive-definite.
EPS_PD = 1e-10
# Elementwise tolerance for the symmetry invariant.
SYM_RTOL = 1e-12
# Stopping threshold and Newton-step cap of every Karcher mean.
MEAN_TOL = 1e-10
MEAN_MAX_ITER = 200
# Cap on the doubles in one (rows, targets, ...) array of a row-blocked kernel.
PAIR_BLOCK_DOUBLES = 2**14


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


def _above_floor(w, name):
    """:class:`NotPositiveDefinite` naming ``name`` unless every eigenvalue in
    ``w`` (ascending along the last axis) is above ``EPS_PD``; a NaN is not."""
    wmin = w[..., 0].min(initial=np.inf)
    if not wmin > EPS_PD:
        raise NotPositiveDefinite(
            f"{name} has smallest eigenvalue {wmin:.3e} <= floor {EPS_PD:.1e}"
        )


def check_spd(P, name="matrix"):
    """Validate that ``P`` is symmetric with all eigenvalues above ``EPS_PD``.

    Returns the validated array; raises :class:`NotPositiveDefinite` when the
    smallest eigenvalue is at or below the floor.
    """
    P = check_symmetric(P, name=name)
    _above_floor(np.linalg.eigvalsh(P), name)
    return P


def _eigh(M, spd=None, op="matrix function"):
    """Eigendecomposition ``(w, V)`` of a symmetric matrix (batched).

    Raises :class:`NumericalFailure` if the eigensolver fails and, when
    ``spd`` names the input, :func:`check_spd`'s :class:`NotPositiveDefinite`
    if an eigenvalue is at or below ``EPS_PD``.  Eigenvalues ascend.
    """
    try:
        w, V = np.linalg.eigh(M)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailure(f"eigendecomposition failed in {op}: {exc}") from exc
    if spd is not None:
        _above_floor(w, spd)
    return w, V


def _eigh_fun(M, fn, spd=None, op="matrix function"):
    """Apply a scalar map to the eigenvalues of a symmetric matrix (batched)."""
    w, V = _eigh(M, spd, op)
    return sym((V * fn(w)[..., None, :]) @ np.swapaxes(V, -1, -2))


def expm(A):
    """Matrix exponential of a symmetric matrix (batched)."""
    A = check_symmetric(A, name="expm input")
    return _eigh_fun(A, np.exp, op="expm")


def invsqrtm(P, name="invsqrtm input"):
    """Inverse matrix square root of an SPD matrix (batched); ``P`` is
    checked as :func:`check_spd` checks it, and a failure names ``name``."""
    P = check_symmetric(P, name=name)
    return _eigh_fun(P, lambda w: 1.0 / np.sqrt(w), name, "invsqrtm")


def _sqrt_invsqrt(P, name="matrix", op="sqrt/invsqrt"):
    """Square root and inverse square root from a single eigendecomposition."""
    w, V = _eigh(P, name, op)
    s = np.sqrt(w)
    Vt = np.swapaxes(V, -1, -2)
    return sym((V * s[..., None, :]) @ Vt), sym((V * (1.0 / s)[..., None, :]) @ Vt)


def _whiten(P, X, op):
    """``(P^{1/2}, sym(P^{-1/2} X P^{-1/2}))`` at an SPD base point ``P``.

    ``P`` is checked: :class:`InvalidInput` if it is not symmetric,
    :class:`NotPositiveDefinite` if an eigenvalue is at or below ``EPS_PD``.
    """
    name = f"{op} base point"
    S, Si = _sqrt_invsqrt(check_symmetric(P, name=name), name, op)
    return S, sym(Si @ X @ Si)


def _check_pair(P, Q, op):
    P = np.asarray(P, dtype=float)
    Q = np.asarray(Q, dtype=float)
    if P.shape[-2:] != Q.shape[-2:]:
        raise InvalidInput(
            f"{op}: dimension mismatch, {P.shape[-2:]} vs {Q.shape[-2:]}"
        )
    return P, Q


def riemannian_distance(P, Q):
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

    Returns
    -------
    float
        Nonnegative distance.
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
    return np.sqrt(float(np.sum(np.log(np.maximum(w, 1e-300)) ** 2)))


def _sq_log_norms(M):
    """Squared Frobenius norms of the logs of an SPD stack ``M`` (lower triangles read)."""
    w = np.linalg.eigvalsh(M)
    return np.sum(np.log(np.maximum(w, 1e-300)) ** 2, axis=-1)


_POOL = (None, None)  # (pid, ThreadPoolExecutor): a forked child builds its own


def _each(fn, *blocks):
    """``list(map(fn, *blocks))``, with this process's thread pool helping.

    numpy's batched eigensolvers and ``matmul`` release the GIL, so the
    calling thread and up to ``cpus - 1`` pool threads, one per other CPU
    this process may use, run the calls in parallel, each taking the next
    block from one shared iterator.  Every call runs; results come in order,
    and the first failing call's exception is raised.  The caller then
    cancels helpers that never started, so nested or concurrent calls cannot
    deadlock.  With one CPU or one block, the calling thread runs them all.
    """
    global _POOL
    affinity = getattr(os, "sched_getaffinity", None)
    cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    args = list(zip(*blocks))
    helpers = min(cpus, len(args)) - 1
    if helpers > 0 and _POOL[0] != os.getpid():
        from concurrent.futures import ThreadPoolExecutor
        _POOL = os.getpid(), ThreadPoolExecutor(cpus - 1)
    out, errors = [None] * len(args), [None] * len(args)
    todo = iter(range(len(args)))  # its ``next`` is atomic under the GIL

    def work():
        for i in todo:
            try:
                out[i] = fn(*args[i])
            except Exception as exc:  # raised in the caller, lowest index first
                errors[i] = exc

    jobs = [_POOL[1].submit(work) for _ in range(helpers)]
    work()
    for job in jobs:
        job.cancel() or job.result()
    for exc in errors:
        if exc is not None:
            raise exc
    return out


def sq_distance_matrix(A, B=None):
    """Pairwise squared Riemannian distances between two stacks of SPD matrices.

    ``d(A[i], B[j])^2`` is the sum of squared logs of the eigenvalues of
    ``B[j]^{-1/2} A[i] B[j]^{-1/2}``.  The inverse roots of ``B`` come from
    one batched eigendecomposition; the congruences and eigenvalues are then
    taken for blocks of ``max(1, PAIR_BLOCK_DOUBLES // (n2 d^2))`` source
    rows at a time, one batched eigensolve per block.  The blocks run on
    the calling thread and the process's thread pool (:func:`_each`), so a
    call holds O(max(PAIR_BLOCK_DOUBLES, n2 d^2)) working memory per block
    in flight, one per CPU, on top of its ``(n1, n2)`` result rather than
    O(n1 n2 d^2).  The partition ignores the CPU count, and so do the
    result's bits; ``taskset -c 0`` runs the blocks serially.

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
    return _sq_distances(A, B, "first set", "set" if B is None else "second set")


def _sq_distances(A, B, name_a, name_b):
    """:func:`sq_distance_matrix`, naming ``A`` and ``B`` ``name_a`` and
    ``name_b`` in its checks (a self-distance check names ``name_b``)."""
    self_distances = B is None
    A = check_stack(A, name_a)
    B = A if self_distances else check_stack(B, name_b, A.shape[2])
    if not self_distances:
        check_spd(A, name=name_a)
    W = invsqrtm(B, name_b)  # validates B
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


def sq_euclidean_matrix(A, B):
    """Pairwise squared Euclidean distances between stacks of arrays.

    Trailing axes of each element are flattened, so this works for both
    vector and matrix samples (Frobenius distance for the latter).  Computed
    by direct differencing, which is exact (0.0) on identical pairs, for
    ``max(1, PAIR_BLOCK_DOUBLES // (n2 m))`` rows of ``A`` at a time (``m``
    the flattened size) rather than all ``n1 n2 m`` differences at once.
    """
    A, B = np.asarray(A, dtype=float), np.asarray(B, dtype=float)
    if not (len(A) and len(B)):
        raise InvalidInput("sq_euclidean_matrix needs nonempty stacks")
    A, B = A.reshape(len(A), -1), B.reshape(len(B), -1)
    if A.shape[1] != B.shape[1]:
        raise InvalidInput("sq_euclidean_matrix: element sizes differ")
    rows = max(1, PAIR_BLOCK_DOUBLES // max(1, B.size))
    out = np.empty((len(A), len(B)))
    for s in range(0, len(A), rows):
        diff = A[s:s + rows, None, :] - B[None, :, :]
        out[s:s + rows] = np.einsum("ijk,ijk->ij", diff, diff)
    return out


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
    W = invsqrtm(B, "second set")  # validates B
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
    return sym(S @ _eigh_fun(Y, lambda w: w**t, "powm input", "powm") @ S)


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
    return sym(S @ _eigh_fun(Y, np.log, "logm input", "logm") @ S)


def _coth_kernel(x):
    """``h(x) = (x/2) / tanh(x/2)`` elementwise, with ``h(0) = 1``."""
    half = 0.5 * x
    out = np.ones_like(half)
    np.divide(half, np.tanh(half), out=out, where=half != 0)
    return out


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
    WK = w[..., None, None] * _coth_kernel(L[..., :, None] - L[..., None, :])
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


def _karcher_means(points, weights):
    """:func:`frechet_mean` of validated ``points`` for each row of ``weights``.

    Returns ``(means, iterations, residuals, certified)``.  A row with one
    positive weight returns that point bit for bit.  The others iterate
    together, in blocks that keep a (rows, support, d, d) array under the
    cost kernels' budget ``PAIR_BLOCK_DOUBLES``, each row over its
    positive-weight points padded with zero-weight ones.  Rows never
    interact, so the partition only decides which rows share a batch;
    blocks write disjoint rows and run on the thread pool (:func:`_each`).
    A row carries a frame ``F`` with ``F F^T = X`` in place of ``X^{1/2}``:
    whitening is ``F^{-1} P F^{-T}``, the residual ``||F T F^T||_F`` and a
    step ``D = Q diag(e) Q^T`` moves ``F`` to ``F Q diag(exp(e/2))``.  By
    affine invariance the iterates and residuals are those of ``X^{1/2}``,
    with no eigensolve of ``X`` after the first.  A failure names the lowest
    failing row once all blocks finish; an exception inside a block is the
    first failing block's.

    ``residuals[i]`` bounds the residual at the returned mean from above:
    measured by a whitened pass there, or, where ``certified[i]``, proven
    after the last step, which then skips the pass that would only confirm
    the stop.  For the pass's whitened points ``A_j = U_j diag(exp(L_j))
    U_j^T``, gradient ``T``, step ``D`` and the step's true conjugate-
    gradient residual ``rho = T - H[D]`` (one more Hessian application),
    the next pass's whitened gradient ``T'`` obeys::

        ||T'||_F <= ||rho||_F + C ||D||_F^2 / 2,
        C = sum_j w_j (sqrt(2d) / 12) (2 s_j + s_D) h(s_j + s_D),

    where ``s_j`` is the spread (largest minus smallest eigenvalue) of
    ``L_j``, ``s_D`` that of ``D`` and ``h`` the kernel of
    :func:`_karcher_hessian`.  The residual is at most ``||F'||_2^2
    ||T'||_F``, and ``||F'||_2^2``, the largest eigenvalue of ``F exp(D)
    F^T``, is at most ``exp(max e) ||F||_2^2``, tracked from the start
    point's eigenvalues.  A row stops when that product is ``<= MEAN_TOL /
    2`` (the other half covers rounding; measured residuals exceed the
    bound only at the floor, by < 1e-12) and its least whitened eigenvalue
    times ``exp(-max e)``, which bounds the next one (Ostrowski, below), is
    above ``EPS_PD``.  Its iterate is the one the confirming pass would
    have returned, so means and iteration counts are those of the loop
    without certification; only a row certified at its ``MEAN_MAX_ITER``-th
    step now returns instead of raising.

    Proof (after Absil, Mahony & Sepulchre 2008, §6.3, and Ferreira &
    Svaiter, J. Complexity 2002).  Let ``G(t) = sum_j w_j l_j(t)`` with
    ``l_j(t) = log(exp(-tD/2) A_j exp(-tD/2))``: the whitened negative
    gradient at ``F exp(tD) F^T`` in the frame ``F exp(tD/2)``, so ``G(0) =
    T`` and ``T' = Q^T G(1) Q``.  Parallel transport along that geodesic is
    the identity on tangents whitened in this frame, hence ``l_j' =
    -g(ad_j^2)[D]`` and ``G' = -H_t[D]``, where ``ad_j V = l_j V - V l_j``,
    ``g(y) = h(sqrt(y))`` and ``H_t = sum_j w_j g(ad_j^2)`` is the Hessian
    at time ``t``.  So ``G(1) = rho - int_0^1 (H_t - H_0)[D] dt``, and:

    1. ``g(y) = 1 + 2 sum_k y / (y + 4 k^2 pi^2)`` (partial fractions of
       ``coth``) is increasing and concave, ``g'(0) = 1/12``, so ``0 <= g'
       <= 1/12``.  A function with ``|g'| <= c`` is ``c``-Lipschitz in the
       Hilbert-Schmidt norm on self-adjoint operators: in the eigenbases of
       ``A`` and ``B`` each entry of ``g(A) - g(B)`` is a divided difference
       of ``g`` times that of ``A - B``.
    2. ``ad_a^2 - ad_b^2 = ad_a ad_(a-b) + ad_(a-b) ad_b``, ``||ad_a||_op``
       is the spread of ``a``, and ``||ad_E||_HS^2 = sum_(a,b) (e_a -
       e_b)^2 <= 2d ||E||_F^2``.
    3. ``||l_j'||_F <= ||g(ad_j^2)||_op ||D||_F = h(spread l_j) ||D||_F``.
    4. By Ostrowski's theorem the eigenvalues of ``exp(-tD/2) A_j
       exp(-tD/2)`` are those of ``A_j`` times factors in ``[exp(-t max
       e), exp(-t min e)]``, so ``l_j(t)`` spreads at most ``s_j + t s_D``.

    As ``h`` increases, 3 and 4 give ``||l_j(t) - l_j(0)||_F <= t h(s_j +
    s_D) ||D||_F``; with 1 and 2, ``||H_t - H_0||_op <= ||H_t - H_0||_HS <=
    sum_j w_j (1/12) (2 s_j + s_D) sqrt(2d) ||l_j(t) - l_j(0)||_F <= t C
    ||D||_F``, and ``int_0^1 t C ||D||_F^2 dt = C ||D||_F^2 / 2``.
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
    certified = np.zeros(len(w), dtype=bool)
    top = np.zeros(len(w))  # upper bound on ||F||_2^2, the largest eigenvalue of X
    low = np.full(len(w), np.inf)  # least positive-weight whitened eigenvalue
    rows = np.flatnonzero(counts > 1)
    d = X.shape[-1]
    block = max(1, PAIR_BLOCK_DOUBLES // (counts.max() * d * d))

    def run(act):  # act: rows of the block still iterating
        k = counts[act].max()
        X[act] = sym(np.einsum("bk,bkij->bij", w[act, :k], points[idx[act, :k]]))
        lam, V = _eigh(X[act], "Karcher start point", op="frechet_mean")
        F[act] = V * np.sqrt(lam)[:, None, :]
        top[act] = lam[:, -1]
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
            hess = _karcher_hessian(U, L, w[act, :k])
            D = _newton_direction(hess, T)
            rho = np.linalg.norm(T - hess(D), axis=(-2, -1))
            del hess  # its arrays go before the next eigensolve
            e, Q = _eigh(D, op="expm")
            F[act] = Fa @ (Q * np.exp(0.5 * e)[:, None, :])
            Qt = np.swapaxes(Q, -1, -2)
            Finv[act] = (Qt * np.exp(-0.5 * e)[:, :, None]) @ Finv[act]
            X[act] = sym(F[act] @ np.swapaxes(F[act], -1, -2))
            iterations[act] += 1
            top[act] *= np.exp(e[:, -1])  # F' F'^T = F exp(D) F^T
            # the docstring's bound on the residual the next pass would measure
            spread = L[..., -1] - L[..., 0]
            s_d = (e[:, -1] - e[:, 0])[:, None]
            C = np.sqrt(2 * d) / 12 * np.sum(
                w[act, :k] * (2 * spread + s_d) * _coth_kernel(spread + s_d), axis=1
            )
            bound = top[act] * (rho + 0.5 * C * np.sum(e * e, axis=1))
            done = (bound <= 0.5 * MEAN_TOL) & (low[act] * np.exp(-e[:, -1]) > EPS_PD)
            residuals[act[done]] = bound[done]
            certified[act[done]] = True
            act = act[~done]
            if not act.size:
                break

    _each(run, [rows[s:s + block] for s in range(0, rows.size, block)])
    failed = np.flatnonzero((residuals > MEAN_TOL) | ~(low > EPS_PD))  # a NaN fails too
    if not failed.size:
        return X, iterations, residuals, certified
    i = failed[0]
    if not low[i] > EPS_PD:
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
    ``<= MEAN_TOL``, within ``MEAN_MAX_ITER`` steps.  A whitened pass at the
    new estimate measures that norm, unless a bound proven from the last
    step is already ``<= MEAN_TOL / 2`` (see :func:`_karcher_means`).  The
    problem is strictly convex, so the mean is unique.

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
    return _eigh_fun(Y, np.log, "logm input", "logm")
