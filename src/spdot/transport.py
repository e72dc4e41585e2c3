"""Discrete optimal-transport solvers on precomputed cost matrices.

Three solvers, all returning a :class:`TransportPlan`:

* :func:`exact_ot`: unregularized OT for uniform, equal-size marginals,
  solved as a linear assignment problem (the optimal plan is then a scaled
  permutation matrix).
* :func:`sinkhorn`: entropic regularization solved by Sinkhorn matrix
  scaling (Cuturi, NeurIPS 2013).
* :func:`sinkhorn_with_labels`: Sinkhorn plus a class-group penalty on the
  plan columns, handled by an Anderson-accelerated fixed-point iteration on
  the penalty's class offsets: repeatedly re-solve Sinkhorn with a cost
  offset extrapolated from the last per-class column masses, each solve
  warm-started from the previous one's scaling vector and, but for the
  last, only as exact as the offset still moves.  Its docstring states the
  certificate a returned plan carries.  With ``eta = 0`` it is a single
  Sinkhorn solve.

Both entropic solvers run one loop, which checks ``lam`` and raises their
every :class:`ConvergenceFailure`, a plan with its marginals off included.

Solvers are sequential fixed-point iterations internally; invocations on
distinct instances are independent and thread-safe.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidInput, NumericalFailure

# Entries of the Gibbs kernel below this are clamped; a fully clamped row or
# column means the kernel carries no usable signal at the requested lambda.
KERNEL_FLOOR = 1e-300

# Tolerance for the marginal constraints of a valid plan (infinity norm).
MARGINAL_TOL = 1e-6
# Stopping threshold (relative change of the scaling vector) of a full
# Sinkhorn solve and iteration cap of every solve, a whole number of
# CHECK_EVERY blocks.  Pipeline costs can put the scaling iteration near its
# worst-case contraction rate, and desk-scale iterations are microseconds.
SINKHORN_TOL = 1e-9
SINKHORN_MAX_ITER = 100000
# Scaling iterations between two stopping tests; the test costs more than
# an iteration at desk scale.
CHECK_EVERY = 10
# Outer stopping threshold (plan change, infinity norm) and cap of the
# label solver's fixed-point iteration.
LABEL_TOL = 1e-8
LABEL_MAX_ITER = 50
# An intermediate solve of the label solver stops at this fraction of the
# last plan change (itself capped at this ratio), never below SINKHORN_TOL.
LABEL_SOLVE_RATIO = 1e-2
# Memory of the label solver's Anderson step: the offset differences it combines.
LABEL_MEMORY = 3


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

        Marginals must match within ``MARGINAL_TOL`` in infinity norm, so a
        NaN entry fails; negativity is not tolerated at all.
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
        if not (row_res <= MARGINAL_TOL and col_res <= MARGINAL_TOL):  # NaN fails
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


def exact_ot(cost, p=None, q=None):
    """Exact optimal transport for uniform, equal-size marginals.

    With both marginals uniform and of the same length ``n``, an optimal
    coupling is ``1/n`` times a permutation matrix, so the problem reduces to
    a linear assignment, solved exactly as a minimum-weight full matching
    of the complete bipartite graph (LAPJVsp).  ``scipy.sparse.csgraph``
    drops zero weights as missing edges, so zero costs enter as the
    smallest positive double.  Any other marginal configuration raises
    :class:`InvalidInput`; use :func:`sinkhorn` there.  The first call imports
    ``scipy.sparse.csgraph``.

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
    C, p, q = _check_problem(cost, p, q)
    n1, n2 = C.shape
    if n1 != n2:
        raise InvalidInput(
            f"exact_ot needs equal-size sets, got {n1} x {n2}; use sinkhorn"
        )
    if np.abs(p - 1.0 / n1).max() > 1e-12 or np.abs(q - 1.0 / n2).max() > 1e-12:
        raise InvalidInput(
            "exact_ot needs uniform marginals; use sinkhorn for general masses"
        )
    from scipy.sparse import csr_array
    from scipy.sparse.csgraph import min_weight_full_bipartite_matching
    rows, cols = min_weight_full_bipartite_matching(csr_array(np.where(C > 0, C, 5e-324)))
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


def _finite_real(x):
    return isinstance(x, numbers.Real) and not isinstance(x, bool) and math.isfinite(x)


def _check_problem(cost, p, q):
    """Validated ``(C, p, q)`` of an OT problem; marginals default uniform."""
    C = _cost_array(cost)
    n1, n2 = C.shape
    p = uniform_mass(n1) if p is None else check_mass(p, n1, "source marginal")
    q = uniform_mass(n2) if q is None else check_mass(q, n2, "target marginal")
    return C, p, q


def _gibbs_kernel(C, lam):
    """Gibbs kernel ``exp(-lam C)`` clamped at ``KERNEL_FLOOR``.

    Raises :class:`NumericalFailure` if a full row or column underflows.
    """
    K = np.exp(-lam * C)
    if not K.min() < KERNEL_FLOOR:  # nothing to clamp
        return K
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
    """Sinkhorn scaling of ``K`` started from ``u``.

    With ``K~ = K / p[:, None]`` and ``Kq = K / q[None, :]``, each iteration
    is ``u = 1 / (K~ (1 / (Kq^T u)))``.  Every ``CHECK_EVERY`` iterations the
    relative infinity-norm change of ``u`` over the last one is compared
    with ``tol``; the loop stops there or after ``SINKHORN_MAX_ITER``
    iterations and returns ``(u, iterations, change)``, ``change`` the last
    one tested.  A zero entry of ``p`` (``q``) gets a zero scaling, so its
    plan row (column) is exactly zero.  The iteration is unchanged, bit for
    bit, from its ``@`` and ``1.0 /`` spelling; bound ``ndarray.dot`` and
    ``np.reciprocal`` only cut dispatch.
    """
    with np.errstate(divide="ignore"):
        Kt = K / p[:, None]
        KqT = K.T / q[:, None]
    if not (p.all() or q.all()):
        # where both masses vanish, an infinite entry would meet a zero scaling
        Kt[np.ix_(p == 0, q == 0)] = 0.0
        KqT[np.ix_(q == 0, p == 0)] = 0.0
    dot_p, dot_q, rec = Kt.dot, KqT.dot, np.reciprocal
    it, change = 0, np.inf
    while it < SINKHORN_MAX_ITER and not change <= tol:
        for _ in range(CHECK_EVERY - 1):
            u = rec(dot_p(rec(dot_q(u))))
        u_new = rec(dot_p(rec(dot_q(u))))
        # u_new >= 0, so its max is its infinity norm
        change = float(np.abs(u_new - u).max() / u_new.max())
        u = u_new
        it += CHECK_EVERY
    return u, it, change


def _anderson(history, S, F):
    """Next offset of the label solver: type-II Anderson on ``S -> F``.

    ``history`` holds the last ``LABEL_MEMORY + 1`` pairs ``(F, F - S)`` of
    flattened offset images and residuals, newest last; this call appends
    ``(F, F - S)``.  With ``dR`` and ``dF`` the differences of consecutive
    residuals and images, the coefficients ``c`` are the least-squares
    solution of ``dR^T c = F - S`` of least norm (a rank-revealing solve, so
    linearly dependent differences are harmless), and the next offset is
    ``F - dF c`` (Walker & Ni, SIAM J. Numer. Anal. 2011); with no
    difference in the history yet it is ``F`` itself, the plain step.
    """
    history.append((F.ravel(), (F - S).ravel()))
    del history[:-LABEL_MEMORY - 1]
    if len(history) < 2:
        return F
    dF, dR = (np.diff(np.array(h), axis=0) for h in zip(*history))
    c = np.linalg.lstsq(dR.T, history[-1][1], rcond=None)[0]
    return F - (c @ dF).reshape(F.shape)


def _entropic(C0, p, q, lam, solver, Y=None, eta=0.0):
    """The plan of both entropic solvers: Sinkhorn solves on ``C0 + Y S``.

    The class offsets ``S`` (see :func:`sinkhorn_with_labels`) start at
    zero; after each solve the plain fixed-point image ``F = 2 eta Y^T plan``
    and the residual ``F - S`` go to :func:`_anderson`, which returns the
    next ``S``.  A plan is returned only with the certificate that
    :func:`sinkhorn_with_labels` states; a solve at an extrapolated offset
    that passes its test is followed by one at the plain offset ``F``, whose
    pair still joins the history.  With ``eta = 0`` a single full solve is
    all.  Every :class:`ConvergenceFailure` of both solvers is raised here,
    naming ``solver`` and carrying the last plan with its counts: a solve
    that uses up ``SINKHORN_MAX_ITER``, a returned plan with its marginals
    off by more than ``MARGINAL_TOL``, and a plan still moving after
    ``LABEL_MAX_ITER`` solves.  A bad ``lam`` raises :class:`InvalidInput`.
    """
    if not (_finite_real(lam) and lam > 0):
        raise InvalidInput(f"{solver} needs finite lam > 0, got {lam}")
    n1 = C0.shape[0]
    C, S, plain, history = C0, 0.0, True, []
    u = np.full(n1, 1.0 / n1)
    prev = None
    delta = np.inf if eta else 0.0  # eta = 0: no offset, one full solve
    iterations = 0
    for outer in range(1, LABEL_MAX_ITER + 1):
        tol = max(SINKHORN_TOL, LABEL_SOLVE_RATIO * min(delta, LABEL_SOLVE_RATIO))
        K = _gibbs_kernel(C, lam)
        u, k, change = _scale(K, p, q, u, tol)
        iterations += k
        gamma = _coupling(K, q, u)
        if not change <= tol:  # a NaN change is no convergence either
            raise ConvergenceFailure(
                f"{solver}: relative change {change:.3e} > tol {tol:.1e} "
                f"after {SINKHORN_MAX_ITER} iterations of solve {outer}",
                last=TransportPlan(gamma, p, q, iterations, outer),
                residual=change, iterations=iterations,
            )
        if prev is not None:
            delta = float(np.abs(gamma - prev).max())
        settled = delta <= LABEL_TOL and tol == SINKHORN_TOL
        if settled and plain:
            plan = TransportPlan(gamma, p, q, iterations, outer)
            residual = max(plan.marginal_residuals())
            if not residual <= MARGINAL_TOL:
                raise ConvergenceFailure(
                    f"{solver}: plan marginals off by {residual:.3e} "
                    f"> tol {MARGINAL_TOL:.1e}",
                    last=plan, residual=residual, iterations=iterations,
                )
            return plan
        prev = gamma
        F = 2 * eta * (Y.T @ gamma)
        S = _anderson(history, S, F)
        if settled:  # certify it with one solve at the plain offset
            S = F
        plain = S is F
        C = C0 + Y @ S
    raise ConvergenceFailure(
        f"{solver}: plan change {delta:.3e} > tol {LABEL_TOL:.1e} "
        f"after {LABEL_MAX_ITER} outer iterations",
        last=TransportPlan(gamma, p, q, iterations, outer),
        residual=delta, iterations=LABEL_MAX_ITER,
    )


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
    C, p, q = _check_problem(cost, p, q)
    return _entropic(C, p, q, lam, "sinkhorn")


def _class_indicator(labels, n1):
    """0/1 matrix ``Y`` with ``Y[i, c] = 1`` iff point ``i`` is in class ``c``.

    :class:`InvalidInput` unless ``labels`` is a length-``n1`` integer vector.
    """
    labels = np.asarray(labels)
    if labels.shape != (n1,):
        raise InvalidInput(f"labels must be a length-{n1} vector, got {labels.shape}")
    if not np.issubdtype(labels.dtype, np.integer):
        raise InvalidInput(f"labels must be integers, got dtype {labels.dtype}")
    return (labels[:, None] == np.unique(labels)).astype(float)


def label_group_penalty(gamma, labels):
    """Group penalty ``sum_j sum_y ||gamma[rows(y), j]||_1 ^ 2`` of a plan."""
    gamma = np.asarray(gamma, dtype=float)
    Y = _class_indicator(labels, gamma.shape[0])
    return float(((Y.T @ gamma) ** 2).sum())


def sinkhorn_with_labels(cost0, p=None, q=None, labels=None, lam=1.0, eta=0.0):
    """Sinkhorn transport with a group penalty tied to source class labels.

    Adds ``eta * sum_j sum_y ||G(rows(y), j)||_1 ^ 2`` to the entropic
    objective (after Courty et al., TPAMI 2017).  Sinkhorn solves run on
    ``cost0 + Y S``, ``Y[i, y] = 1`` iff source point ``i`` has label ``y``,
    with class offsets ``S`` (classes x targets) that start at zero.  The
    plain update::

        S = 2 eta Y^T plan

    (``Y S`` is the penalty's gradient at the plan: entry ``(i, j)`` is
    ``2 eta`` times the mass that column ``j`` receives from the class of
    point ``i``) is gradient ascent with step ``2 eta`` on the concave dual
    ``D(S) = OT_lam(cost0 + Y S) - ||S||^2 / (4 eta)``, and it cycles once
    ``eta * lam`` is large.  So the solver accelerates it: each next ``S``
    is a type-II Anderson extrapolation (Walker & Ni, SIAM J. Numer. Anal.
    2011) over the last ``LABEL_MEMORY`` differences of plain updates and
    their residuals, its coefficients a small least-squares solution.
    Each solve after the first is warm-started from the previous solve's
    scaling vector ``u``.  A solve stops its relative-change test at
    ``max(SINKHORN_TOL, LABEL_SOLVE_RATIO * min(delta, LABEL_SOLVE_RATIO))``,
    ``delta`` the last plan change (``inf`` before two solves): inexact
    inner solves, as in IPOT (Xie et al., UAI 2019).  The returned plan carries the plain iteration's
    certificate: its own solve ran at ``SINKHORN_TOL``, at the plain offset
    ``2 eta Y^T plan`` of the plan before it, and moved that plan by at most
    ``LABEL_TOL`` in infinity norm, within ``LABEL_MAX_ITER`` solves; a plan
    that settles at an extrapolated offset costs one more, plain, solve.
    With ``eta = 0`` the offset never moves and the plan of the single
    (cold-started) solve is returned, bit-identical to :func:`sinkhorn` on
    ``cost0``; with a single class the offset is constant per column and
    the plan is unchanged as well.  The
    acceleration has no global convergence guarantee, and the inexact
    solves make its residuals noisy near the fixed point: a slowly
    converging instance can still use up ``LABEL_MAX_ITER`` solves, and a
    solve can still hit ``SINKHORN_MAX_ITER``.

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
    C0, p, q = _check_problem(cost0, p, q)
    if not (_finite_real(eta) and eta >= 0):
        raise InvalidInput(f"eta must be finite and nonnegative, got {eta}")
    Y = _class_indicator(labels, C0.shape[0])
    return _entropic(C0, p, q, lam, "sinkhorn_with_labels", Y, eta)
