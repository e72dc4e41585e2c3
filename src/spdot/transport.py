"""Discrete optimal-transport solvers on precomputed cost matrices.

Three solvers, all returning a :class:`TransportPlan`:

* :func:`exact_ot`: unregularized OT for uniform, equal-size marginals,
  solved as a linear assignment problem (the optimal plan is then a scaled
  permutation matrix).
* :func:`sinkhorn`: entropic regularization (Cuturi, NeurIPS 2013).
* :func:`sinkhorn_with_labels`: the same plus a class-group penalty on the
  plan columns (after Courty et al., TPAMI 2017).

Both entropic problems have one smooth concave dual, which one Newton
solve maximizes: a fixed number of scaling sweeps, then Newton steps with
a line search until the dual gradient, which bounds the plan's marginal
errors, is within ``SINKHORN_TOL`` (see :func:`_entropic`).

Invocations on distinct instances are independent and thread-safe.
"""

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, InvalidInput

# Tolerance for the marginal constraints of a valid plan (infinity norm).
MARGINAL_TOL = 1e-6
# Stopping threshold of both entropic solvers: the infinity norm of the
# gradient of their concave dual, in units of mass.
SINKHORN_TOL = 1e-13
# Scaling sweeps that start every entropic solve, and the cap on the Newton
# steps that follow them.
WARMUP_SWEEPS = 30
NEWTON_MAX_STEPS = 100


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

    An entropic solver also records its work: ``iterations``, the Newton
    steps after its ``WARMUP_SWEEPS`` scaling sweeps, and ``dual_gradient``,
    the infinity norm of the dual gradient at the plan.  Both are ``None``
    for :func:`exact_ot`.
    """

    matrix: np.ndarray
    source_marginal: np.ndarray
    target_marginal: np.ndarray
    iterations: int | None = None
    dual_gradient: float | None = None

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


def _entropic(C0, p, q, lam, solver, Y=None, eta=0.0):
    """The plan of both entropic solvers: one Newton solve of their dual.

    The solve runs on the supports of ``p`` and ``q``; a zero mass gets an
    exactly zero plan row or column.  With ``L = lam C0``, ``K`` classes
    (one if ``eta = 0``), ``y_i`` the class of source point ``i`` and
    ``a = 1 / (2 eta lam)`` (0 if ``K = 1``), it maximizes the concave dual
    (the dual of :func:`sinkhorn_with_labels`, times ``lam``)::

        Psi(F, H) = <F, p> + sum_j q_j mean_k H_kj - sum_ij G_ij
                    - (a/2) sum_kj (H_kj - mean_k H_kj)^2,
        G_ij = exp(F_i + H_{y_i j} - L_ij).

    ``G`` is the plan.  The gradient is ``p - G 1`` in ``F`` and ``q/K -
    Y^T G - a (H - mean_k H)`` in ``H``: its infinity norm bounds the row
    errors, ``K`` times it the column errors, and ``2 eta`` times it the
    stationarity of the class offsets ``S = 2 eta Y^T G``.  With one class
    ``Psi`` is the plain entropic dual, ``H`` the target potential.

    *Start.*  ``F_i = min_j L_ij`` and ``H_j = min_i (L_ij - F_i)`` make
    every row and column of ``exp(F_i + H_j - L_ij)`` peak at exactly 1, so
    none underflows; ``WARMUP_SWEEPS`` scaling sweeps on that kernel are
    absorbed into ``(F, H)``, one row of ``H`` per class.  *Steps.*  Each
    Newton step solves the Hessian system with every diagonal entry raised
    by ``1e-12 max_i (G 1)_i`` (a Levenberg floor) through its Schur
    complement in ``F``.  The ``H`` block has one ``K x K`` block
    ``diag(Y^T G)_j + a (I - 11^T/K)`` per target, inverted in closed form
    (Sherman-Morrison), so the complement takes two ``n1 x n2 x n1``
    products; adding ``mean_i (G 1)_i / n1`` to every entry fixes the gauge
    ``(F + c, H - c)``.  A step that would move a potential by more than 30
    is scaled down to 30 (no wider trust region for the quadratic model of
    ``exp``).  Backtracking by halves then accepts a step by Armijo on
    ``Psi`` or, where its predicted gain is below the rounding of ``Psi``,
    if it halves the gradient.  *Stop.*  The plan is returned once the
    gradient is at most ``SINKHORN_TOL``.  After ``NEWTON_MAX_STEPS`` steps,
    or when no step is accepted, :class:`ConvergenceFailure` names
    ``solver``, the steps and the gradient and carries the last plan.  A
    bad ``lam`` raises :class:`InvalidInput`.
    """
    if not (_finite_real(lam) and lam > 0):
        raise InvalidInput(f"{solver} needs finite lam > 0, got {lam}")
    p_full, q_full, rows, cols = p, q, p > 0, q > 0
    p, q = p[rows], q[cols]
    Y = np.ones((p.size, 1)) if not eta else Y[rows]
    Y = Y[:, Y.any(axis=0)]
    y, K = Y.argmax(axis=1), Y.shape[1]
    same = y[:, None] == y
    a = 1.0 / (2.0 * eta * lam) if K > 1 else 0.0

    def evaluate(F, H):
        """``(Psi, gradient norm, plan, row sums, gradient in F, in H)``."""
        G = np.exp(F[:, None] + H[y] - L)
        r = G.sum(axis=1)
        mean = H.mean(axis=0)
        d = H - mean
        gF, gH = p - r, q / K - Y.T @ G - a * d
        value = F @ p + mean @ q - r.sum() - 0.5 * a * (d * d).sum()
        return value, np.maximum(np.abs(gF).max(), np.abs(gH).max()), G, r, gF, gH

    def direction(G, r, gF, gH):
        mu = 1e-12 * r.max()
        m = Y.T @ G + mu
        e = 1.0 / (m + a)
        s = a / (m * e).sum(axis=0)

        def solve_h(x):  # the K x K block solves, all targets at once
            ex = e * x
            return ex + e * (s * ex.sum(axis=0))

        W = G * e[y]
        A = -(W @ G.T) * same - (W * s) @ W.T
        A[np.diag_indices_from(A)] += r + mu
        A += r.mean() / r.size
        dF = np.linalg.solve(A, gF - (G * solve_h(gH)[y]).sum(axis=1))
        dH = solve_h(gH - Y.T @ (G * dF[:, None]))
        big = max(np.abs(dF).max(), np.abs(dH).max()) / 30.0
        return (dF / big, dH / big) if big > 1 else (dF, dH)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        L = lam * C0[np.ix_(rows, cols)]
        F = L.min(axis=1)
        H = (L - F[:, None]).min(axis=0)
        kernel = np.exp(F[:, None] + H - L)
        u, v = np.ones(p.size), np.ones(q.size)
        for _ in range(WARMUP_SWEEPS):
            v = q / (u @ kernel)
            u = p / (kernel @ v)
        F += np.log(u)
        H = np.tile(H + np.log(v), (K, 1))
        x = evaluate(F, H)
        steps = 0
        while not x[1] <= SINKHORN_TOL and steps < NEWTON_MAX_STEPS:
            value, res, G, r, gF, gH = x
            dF, dH = direction(G, r, gF, gH)
            slope = gF @ dF + (gH * dH).sum()
            noise = 1e-14 * (1.0 + np.abs(F).max() + np.abs(H).max())
            t = 1.0
            while t > 1e-9:
                trial = evaluate(F + t * dF, H + t * dH)
                if trial[0] >= value + 1e-4 * t * slope or (
                    t * slope <= noise and trial[1] <= res / 2
                ):
                    break
                t /= 2
            else:
                break  # no step accepted
            F, H, x = F + t * dF, H + t * dH, trial
            steps += 1
    gamma = np.zeros(C0.shape)
    gamma[np.ix_(rows, cols)] = x[2]
    res = float(x[1])
    plan = TransportPlan(gamma, p_full, q_full, steps, res)
    if not res <= SINKHORN_TOL:
        raise ConvergenceFailure(
            f"{solver}: dual gradient {res:.3e} not within tol {SINKHORN_TOL:.1e} "
            f"after {steps} Newton steps (cap {NEWTON_MAX_STEPS})",
            last=plan, residual=res, iterations=steps,
        )
    return plan


def sinkhorn(cost, p=None, q=None, lam=1.0):
    """Entropy-regularized optimal transport.

    Minimizes ``<G, C> - h(G)/lam`` over couplings ``G`` with marginals
    ``p`` and ``q``, where ``h`` is the entropy.  The plan is ``G_ij =
    exp(lam (f_i + g_j - C_ij))`` at the maximum of the concave dual
    ``<f, p> + <g, q> - (1/lam) sum_ij exp(lam (f_i + g_j - C_ij))``, found
    by :func:`_entropic`: ``WARMUP_SWEEPS`` Sinkhorn scaling sweeps (Cuturi,
    NeurIPS 2013) on a kernel that cannot underflow, then Newton steps until
    the dual gradient, which bounds both marginal errors, is at most
    ``SINKHORN_TOL``.  A zero mass gets an exactly zero plan row or column.
    Larger ``lam`` weakens the entropy term and approaches the unregularized
    optimum, at the price of more Newton steps.

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
        Its ``iterations`` are the Newton steps, and its ``dual_gradient``
        the final gradient norm.

    Raises
    ------
    ConvergenceFailure
        If the gradient is still above ``SINKHORN_TOL`` after
        ``NEWTON_MAX_STEPS`` steps, or no step is accepted; carries the last
        plan, the gradient norm as ``residual`` and the step count.
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
    objective of :func:`sinkhorn` (after Courty et al., TPAMI 2017).  With
    ``Y[i, y] = 1`` iff source point ``i`` has label ``y`` and class offsets
    ``S`` (classes x targets), the penalty is ``max_S <G, Y S> - ||S||^2 /
    (4 eta)``, so the problem's dual maximizes over ``(f, g, S)``; writing
    ``h_yj = g_j - S_yj`` and maximizing ``g`` in closed form leaves one
    smooth concave function of ``f`` and ``h`` (one row per class)::

        <f, p> + sum_j q_j mean_y h_yj - (1/lam) sum_ij exp(lam (f_i +
        h_{y_i j} - cost0_ij)) - (1/(4 eta)) sum_j ||h_.j - mean_y h_yj||^2,

    which :func:`_entropic` maximizes exactly as it does the dual of
    :func:`sinkhorn`.  At its maximum both marginals hold and ``S = 2 eta
    Y^T G``, the fixed point of the plain update (re-solving Sinkhorn on
    ``cost0 + Y S``), which cycles once ``eta * lam`` is large.  With ``eta
    = 0`` or a single class the last term vanishes, and the plan is
    :func:`sinkhorn`'s on ``cost0``, bit for bit.

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
        As in :func:`sinkhorn`; ``2 eta`` times its ``dual_gradient`` also
        bounds ``|S - 2 eta Y^T G|``.

    Raises
    ------
    ConvergenceFailure
        As in :func:`sinkhorn`.
    """
    C0, p, q = _check_problem(cost0, p, q)
    if not (_finite_real(eta) and eta >= 0):
        raise InvalidInput(f"eta must be finite and nonnegative, got {eta}")
    Y = _class_indicator(labels, C0.shape[0])
    return _entropic(C0, p, q, lam, "sinkhorn_with_labels", Y, eta)
