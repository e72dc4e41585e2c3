"""Discrete optimal-transport solvers on precomputed cost matrices.

Three solvers, all returning a :class:`TransportPlan`:

* :func:`exact_ot`: unregularized OT for uniform, equal-size marginals,
  solved as a linear assignment problem (the optimal plan is then a scaled
  permutation matrix).
* :func:`sinkhorn`: entropic regularization solved by Sinkhorn matrix
  scaling (Cuturi, NeurIPS 2013).
* :func:`sinkhorn_with_labels`: Sinkhorn plus a class-group penalty on the
  plan columns, handled by majorization: repeatedly re-solve Sinkhorn with a
  cost offset proportional to the current per-class column masses, each
  solve warm-started from the previous one's scaling vector and, but for
  the last, only as exact as the offset still moves.  With ``eta = 0`` it
  is a single Sinkhorn solve.

Both entropic solvers share one Gibbs-kernel builder and one scaling loop;
a plan with its marginals off raises :class:`ConvergenceFailure`.

Solvers are sequential fixed-point iterations internally; invocations on
distinct instances are independent and thread-safe.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NumericalFailure,
    UnsupportedInstance,
)

# Entries of the Gibbs kernel below this are clamped; a fully clamped row or
# column means the kernel carries no usable signal at the requested lambda.
KERNEL_FLOOR = 1e-300

# Tolerance for the marginal constraints of a valid plan (infinity norm).
MARGINAL_TOL = 1e-6
# Stopping threshold (relative change of the scaling vector) of a full
# Sinkhorn solve and iteration cap of every solve.  Pipeline costs can put
# the scaling iteration near its worst-case contraction rate, and desk-scale
# iterations are microseconds each.
SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITER = 100000
# Scaling iterations between two stopping tests; the test costs more than
# an iteration at desk scale.
CHECK_EVERY = 10
# Cap on the doubles in one (rows, n2, ...) block of a pairwise cost kernel,
# sq_euclidean_matrix or manifold.sq_distance_matrix.
PAIR_BLOCK_DOUBLES = 2**14
# Outer stopping threshold (plan change, infinity norm) and cap of the
# label solver's majorization.
LABEL_TOL = 1e-8
LABEL_MAX_ITER = 50
# An intermediate solve of the label solver stops at this fraction of the
# last plan change (itself capped at this ratio), never below SINKHORN_TOL.
LABEL_SOLVE_RATIO = 1e-2


def check_mass(p, size=None, name="mass vector"):
    """Validate a discrete mass vector: nonnegative, summing to 1."""
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise InvalidInput(f"{name} must be a nonempty 1-D vector")
    if size is not None and p.size != size:
        raise InvalidInput(f"{name} has length {p.size}, expected {size}")
    if not np.isfinite(p).all():
        raise InvalidInput(f"{name} has non-finite entries")
    if (p < 0).any():
        raise InvalidInput(f"{name} has negative entries")
    if abs(p.sum() - 1.0) > 1e-12:
        raise InvalidInput(f"{name} sums to {p.sum()!r}, expected 1")
    return p


def uniform_mass(n):
    """Uniform mass vector of length ``n``."""
    if n < 1:
        raise InvalidInput("mass vector needs at least one entry")
    return np.full(n, 1.0 / n)


def _cost_array(cost, name="cost"):
    values = np.asarray(getattr(cost, "values", cost), dtype=float)
    if values.ndim != 2 or values.size == 0:
        raise InvalidInput(f"{name} must be a nonempty 2-D matrix")
    if not np.isfinite(values).all():
        raise InvalidInput(f"{name} has non-finite entries")
    if (values < 0).any():
        raise InvalidInput(f"{name} has negative entries")
    return values


@dataclass(frozen=True)
class CostMatrix:
    """Pairwise transport costs: finite, nonnegative, nonempty."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _cost_array(self.values))


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling with prescribed row and column marginals.

    An entropic solver also records its work: ``iterations``, the scaling
    iterations summed over its solves (a multiple of ``CHECK_EVERY``), and
    ``outer_iterations``, the number of solves.  Both are ``None`` for
    :func:`exact_ot`.
    """

    matrix: np.ndarray
    source_marginal: np.ndarray
    target_marginal: np.ndarray
    iterations: int | None = None
    outer_iterations: int | None = None

    def validate(self):
        """Check nonnegativity and both marginal constraints.

        Marginals must match within ``MARGINAL_TOL`` in infinity norm;
        negativity is not tolerated at all.
        """
        g = self.matrix
        if g.shape != (self.source_marginal.size, self.target_marginal.size):
            raise InvalidInput(
                f"plan shape {g.shape} does not match marginals "
                f"({self.source_marginal.size}, {self.target_marginal.size})"
            )
        if (g < 0).any():
            raise InvalidInput("plan has negative entries")
        row_res, col_res = self.marginal_residuals()
        if row_res > MARGINAL_TOL or col_res > MARGINAL_TOL:
            raise InvalidInput(
                f"plan marginals off by ({row_res:.3e}, {col_res:.3e}), "
                f"tolerance {MARGINAL_TOL:.1e}"
            )
        return self

    def marginal_residuals(self):
        """Infinity-norm violation of the (row, column) marginal constraints."""
        row = float(np.abs(self.matrix.sum(axis=1) - self.source_marginal).max())
        col = float(np.abs(self.matrix.sum(axis=0) - self.target_marginal).max())
        return row, col

    def objective(self, cost):
        """Transport cost ``<plan, cost>`` of this plan."""
        return float(np.sum(self.matrix * _cost_array(cost)))


def diagonal_mass(gamma):
    """Fraction of plan mass on the main diagonal (the i-to-i correspondence).

    Sums are exact (``math.fsum``), so a plan that is a scaled permutation
    matrix supported on the diagonal scores exactly 1.0.
    """
    gamma = np.asarray(gamma, dtype=float)
    k = min(gamma.shape)
    total = math.fsum(gamma.reshape(-1))
    if total <= 0:
        return 0.0
    return math.fsum(gamma[:k, :k].diagonal()) / total


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


def exact_ot(cost, p=None, q=None):
    """Exact optimal transport for uniform, equal-size marginals.

    With both marginals uniform and of the same length ``n``, an optimal
    coupling is ``1/n`` times a permutation matrix, so the problem reduces to
    a linear assignment over the cost matrix; the assignment is solved
    exactly.  Any other marginal configuration is rejected; use
    :func:`sinkhorn` there.  The first call imports ``scipy.optimize``.

    Parameters
    ----------
    cost : ndarray or CostMatrix, shape (n, n)
    p, q : array-like, optional
        Marginals; default uniform.

    Returns
    -------
    TransportPlan
        Globally optimal plan (a scaled permutation).
    """
    C = _cost_array(cost)
    n1, n2 = C.shape
    p = uniform_mass(n1) if p is None else check_mass(p, n1, "source marginal")
    q = uniform_mass(n2) if q is None else check_mass(q, n2, "target marginal")
    if n1 != n2:
        raise UnsupportedInstance(
            f"exact_ot needs equal-size sets, got {n1} x {n2}; use sinkhorn"
        )
    if np.abs(p - 1.0 / n1).max() > 1e-12 or np.abs(q - 1.0 / n2).max() > 1e-12:
        raise UnsupportedInstance(
            "exact_ot needs uniform marginals; use sinkhorn for general masses"
        )
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(C)
    gamma = np.zeros_like(C)
    gamma[rows, cols] = 1.0 / n1
    return TransportPlan(gamma, p, q).validate()


def adaptive_lambda(cost):
    """Data-driven entropic regularization strength.

    Uses ``lambda = 1 / (2 m^2)`` with ``m = 0.05 * median(cost)``, the
    median taken over all entries (the even-count median averages the two
    central values).  Scale-equivariant: scaling the cost by ``s`` scales
    the result by ``1/s^2``.
    """
    C = _cost_array(cost)
    med = float(np.median(C))
    if med <= 0.0:
        raise InvalidInput(
            "adaptive_lambda: cost median is zero (all-zero or mostly zero cost)"
        )
    m = 0.05 * med
    return 1.0 / (2.0 * m * m)


def _check_problem(cost, p, q, lam, solver):
    """Validated ``(C, p, q)`` of an entropic problem; marginals default uniform."""
    C = _cost_array(cost)
    n1, n2 = C.shape
    p = uniform_mass(n1) if p is None else check_mass(p, n1, "source marginal")
    q = uniform_mass(n2) if q is None else check_mass(q, n2, "target marginal")
    if not (lam > 0 and math.isfinite(lam)):
        raise InvalidInput(f"{solver} needs finite lam > 0, got {lam}")
    return C, p, q


def _gibbs_kernel(C, lam):
    """Gibbs kernel ``exp(-lam C)`` clamped at ``KERNEL_FLOOR``.

    Raises :class:`NumericalFailure` if a full row or column underflows.
    """
    K = np.exp(-lam * C)
    under = K < KERNEL_FLOOR
    if under.all(axis=1).any() or under.all(axis=0).any():
        raise NumericalFailure(
            f"Gibbs kernel underflowed across a full row/column at lam={lam:.3e}; "
            "lower lambda"
        )
    return np.maximum(K, KERNEL_FLOOR)


def _coupling(K, q, u):
    """The plan ``diag(u) K diag(v)`` with ``v = q / (K^T u)``."""
    v = q / K.T.dot(u)
    return u[:, None] * K * v[None, :]


def _scale(K, p, q, u, tol):
    """Sinkhorn scaling of ``K`` started from ``u``; returns ``(u, iterations)``.

    With ``K~ = K / p[:, None]`` and ``Kq = K / q[None, :]``, each iteration
    is ``u = 1 / (K~ (1 / (Kq^T u)))``.  Every ``CHECK_EVERY`` iterations the
    relative infinity-norm change of ``u`` over the last one is compared
    with ``tol``, so a successful solve reports a multiple of
    ``CHECK_EVERY`` iterations.  Raises :class:`ConvergenceFailure` with the
    last plan after ``SINKHORN_MAX_ITER`` iterations.  A zero entry of ``p``
    (``q``) gets a zero scaling, so its plan row (column) is exactly zero.
    The iteration is unchanged, bit for bit, from its ``@`` and ``1.0 /``
    spelling; bound ``ndarray.dot`` and ``np.reciprocal`` only cut dispatch.
    """
    max_iter = SINKHORN_MAX_ITER
    with np.errstate(divide="ignore"):
        Kt = K / p[:, None]
        KqT = K.T / q[:, None]
    if not (p.all() or q.all()):
        # where both masses vanish, an infinite entry would meet a zero scaling
        Kt[np.ix_(p == 0, q == 0)] = 0.0
        KqT[np.ix_(q == 0, p == 0)] = 0.0
    dot_p, dot_q, rec = Kt.dot, KqT.dot, np.reciprocal
    delta = np.inf
    it = 0
    while it < max_iter:
        block = min(CHECK_EVERY, max_iter - it)
        for _ in range(block - 1):
            u = rec(dot_p(rec(dot_q(u))))
        u_new = rec(dot_p(rec(dot_q(u))))
        # u_new >= 0, so its max is its infinity norm
        delta = float(np.abs(u_new - u).max() / u_new.max())
        u = u_new
        it += block
        if block == CHECK_EVERY and delta <= tol:
            return u, it
    raise ConvergenceFailure(
        f"sinkhorn: relative change {delta:.3e} > tol {tol:.1e} "
        f"after {max_iter} iterations",
        last=_coupling(K, q, u),
        residual=delta,
        iterations=max_iter,
    )


def _feasible(plan, solver):
    """``plan``, or :class:`ConvergenceFailure` if its marginals miss ``MARGINAL_TOL``."""
    residual = max(plan.marginal_residuals())
    if not residual <= MARGINAL_TOL:
        raise ConvergenceFailure(
            f"{solver}: plan marginals off by {residual:.3e} > tol {MARGINAL_TOL:.1e}",
            last=plan, residual=residual, iterations=plan.iterations,
        )
    return plan


def sinkhorn(cost, p=None, q=None, lam=1.0):
    """Entropy-regularized optimal transport via Sinkhorn matrix scaling.

    Minimizes ``<G, C> - h(G)/lam`` over couplings ``G`` with marginals
    ``p`` and ``q``, where ``h`` is the entropy.  Scaling iterations on the
    Gibbs kernel ``K = exp(-lam * C)``::

        K~ = K / p[:, None];  Kq = K / q[None, :]
        u <- 1/n1
        repeat:  u = 1 / (K~ (1 / (Kq^T u)))
        v = q / (K^T u);  G = diag(u) K diag(v)

    stopping when the relative infinity-norm change of ``u`` over one
    iteration drops to ``SINKHORN_TOL``, tested every ``CHECK_EVERY``
    iterations, for at most ``SINKHORN_MAX_ITER`` iterations.  A zero mass
    gets an exactly zero plan row or column.
    Larger ``lam`` weakens the entropy term and approaches the unregularized
    optimum, at the price of a narrower numerical range in ``K``: entries
    below ``KERNEL_FLOOR`` are clamped, and if an entire row or column
    underflows the solve is abandoned.

    Parameters
    ----------
    cost : ndarray or CostMatrix, shape (n1, n2)
    p, q : array-like, optional
        Marginals; default uniform.
    lam : float
        Regularization strength, > 0.

    Returns
    -------
    TransportPlan
        Its ``iterations`` are the scaling iterations, a multiple of
        ``CHECK_EVERY``, and its ``outer_iterations`` is 1.

    Raises
    ------
    NumericalFailure
        If a whole kernel row/column underflows; lower ``lam``.
    ConvergenceFailure
        If ``SINKHORN_MAX_ITER`` is exhausted, or the solve stops with its
        marginals off by more than ``MARGINAL_TOL``; carries the last plan,
        the residual and the iteration count.
    """
    C, p, q = _check_problem(cost, p, q, lam, "sinkhorn")
    K = _gibbs_kernel(C, lam)
    n1 = C.shape[0]
    u, iterations = _scale(K, p, q, np.full(n1, 1.0 / n1), SINKHORN_TOL)
    return _feasible(TransportPlan(_coupling(K, q, u), p, q, iterations, 1), "sinkhorn")


def _class_indicator(labels, n1):
    """0/1 matrix ``Y`` with ``Y[i, c] = 1`` iff point ``i`` is in class ``c``."""
    labels = np.asarray(labels)
    if labels.shape != (n1,):
        raise InvalidInput(f"labels must be a length-{n1} vector, got {labels.shape}")
    return (labels[:, None] == np.unique(labels)).astype(float)


def label_group_penalty(gamma, labels):
    """Group penalty ``sum_j sum_y ||gamma[rows(y), j]||_1 ^ 2`` of a plan."""
    gamma = np.asarray(gamma, dtype=float)
    Y = _class_indicator(labels, gamma.shape[0])
    return float(((Y.T @ gamma) ** 2).sum())


def sinkhorn_with_labels(cost0, p=None, q=None, labels=None, lam=1.0, eta=0.0):
    """Sinkhorn transport with a group penalty tied to source class labels.

    Adds ``eta * sum_j sum_y ||G(rows(y), j)||_1 ^ 2`` to the entropic
    objective and solves by majorization (Courty et al., TPAMI 2017):
    starting from a zero offset ``G``, alternate a Sinkhorn solve on
    ``cost0 + G`` with the offset update::

        G = 2 eta Y (Y^T plan),  Y[i, y] = 1 iff source point i has label y

    (the gradient of the penalty at the current plan: ``G[i, j]`` is
    ``2 eta`` times the mass that column ``j`` receives from the class of
    point ``i``) until the plan settles within ``LABEL_TOL`` in infinity
    norm, for at most ``LABEL_MAX_ITER`` solves.  Each solve after
    the first is warm-started from the previous solve's scaling vector
    ``u``: the costs of consecutive steps differ only by the shrinking
    offset change, so the scaling is already close to its fixed point.
    A solve stops its relative-change test at ``max(SINKHORN_TOL,
    LABEL_SOLVE_RATIO * min(delta, LABEL_SOLVE_RATIO))``, ``delta`` the
    last plan change (``inf`` before two solves): inexact inner solves, as
    in IPOT (Xie et al., UAI 2019).  The returned plan's own solve ran at
    ``SINKHORN_TOL`` and moved it by at most ``LABEL_TOL``.  With ``eta = 0``
    the offset never moves and the plan of the single (cold-started) solve
    is returned, bit-identical to :func:`sinkhorn` on ``cost0``; with a
    single class the offset is constant per column and the plan is
    unchanged as well.

    Parameters
    ----------
    cost0 : ndarray or CostMatrix, shape (n1, n2)
    p, q : array-like, optional
    labels : array-like of int, shape (n1,)
        Class label of every source point.
    lam : float
        Entropic regularization strength, > 0.
    eta : float, default=0.0
        Penalty weight, >= 0.

    Returns
    -------
    TransportPlan
        Its ``iterations`` are the scaling iterations summed over all
        solves, and its ``outer_iterations`` the number of solves.

    Raises
    ------
    ConvergenceFailure
        If the plan still moves after ``LABEL_MAX_ITER`` solves, or as in
        :func:`sinkhorn`; its ``last`` is the last plan, counts included.
    """
    C0, p, q = _check_problem(cost0, p, q, lam, "sinkhorn_with_labels")
    n1 = C0.shape[0]
    if not (eta >= 0 and math.isfinite(eta)):
        raise InvalidInput(f"eta must be finite and nonnegative, got {eta}")
    Y = _class_indicator(labels, n1)

    G = np.zeros_like(C0)
    u = np.full(n1, 1.0 / n1)
    prev = None
    plan = None
    delta = np.inf if eta else 0.0  # eta = 0: no offset, one full solve
    iterations = 0
    for outer in range(1, LABEL_MAX_ITER + 1):
        tol = max(SINKHORN_TOL, LABEL_SOLVE_RATIO * min(delta, LABEL_SOLVE_RATIO))
        K = _gibbs_kernel(C0 + G, lam)
        u, k = _scale(K, p, q, u, tol)
        iterations += k
        gamma = _coupling(K, q, u)
        plan = TransportPlan(gamma, p, q, iterations, outer)
        if prev is not None:
            delta = float(np.abs(gamma - prev).max())
        if delta <= LABEL_TOL and tol == SINKHORN_TOL:
            return _feasible(plan, "sinkhorn_with_labels")
        prev = gamma
        G = eta * 2 * (Y @ (Y.T @ gamma))
    raise ConvergenceFailure(
        f"sinkhorn_with_labels: plan change {delta:.3e} > tol {LABEL_TOL:.1e} "
        f"after {LABEL_MAX_ITER} outer iterations",
        last=plan,
        residual=delta,
        iterations=LABEL_MAX_ITER,
    )
