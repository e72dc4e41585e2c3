"""End-to-end domain adaptation of SPD sets by optimal transport.

The pipeline maps a source set onto the domain of a target set in four
steps: assign mass to each point (uniform or kernel-density weights), build
the pairwise squared geodesic cost, solve for a transport plan, then
send every source point to the plan-weighted Riemannian mean of the targets
(the barycentric projection).  On the SPD cone that weighted mean is unique,
so the resulting map is well defined.

A minimum-distance-to-mean (MDM) classifier over per-class Riemannian means
is included for evaluating adapted sets.

``adapt`` is a pure function of its inputs and config.  Concurrent pipeline
runs share only the per-process thread pool on which the geodesic cost
kernel and the barycentric map run their row blocks (see
:func:`spdot.manifold._each`).
"""

import contextlib
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import manifold, transport
from .errors import InvalidInput, SpdotError
from .transport import _finite_real

SOLVERS = ("exact", "sinkhorn", "sinkhorn-labels")
MASSES = ("uniform", "kde")


@dataclass(frozen=True)
class AdaptationConfig:
    """Every knob the adaptation pipeline leaves open.

    Attributes
    ----------
    metric : str
        Only "riemannian": the transport cost is the squared geodesic
        distance.  The field stays while callers still pass it.
    solver : str
        "exact", "sinkhorn", or "sinkhorn-labels".
    lam : float or "auto"
        Entropic regularization strength, finite and > 0; "auto" derives it
        from the cost median via :func:`spdot.transport.adaptive_lambda`.
    eta : float or None
        Label-penalty weight for "sinkhorn-labels", finite and >= 0;
        ``None`` resolves to ``2 * median(cost)`` so the penalty is on the
        cost's own scale.
    mass : str
        "uniform" or "kde" marginals; a KDE takes its bandwidth from each
        set's own distances (see :func:`kde_weights`).
    top_k : int or None
        Keep only the k >= 1 largest entries of each plan row, ties to the
        lowest target index, renormalized; ``None`` keeps dense rows.  Not
        exact, since entropic plans are dense (the README gives the effect).

    The pipeline is deterministic, so no seed is needed to reproduce a run.

    Numeric fields reject ``bool``.  A value outside its range raises
    :class:`InvalidInput` here, before any pipeline stage runs.
    """

    metric: str = "riemannian"
    solver: str = "sinkhorn"
    lam: float | str = "auto"
    eta: float | None = None
    mass: str = "uniform"
    top_k: int | None = None

    def __post_init__(self):
        if self.metric != "riemannian":
            raise InvalidInput(f"metric must be 'riemannian', got {self.metric!r}")
        if self.solver not in SOLVERS:
            raise InvalidInput(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        if self.lam != "auto" and not (_finite_real(self.lam) and self.lam > 0):
            raise InvalidInput(f"lam must be finite and > 0 or 'auto', got {self.lam!r}")
        if self.eta is not None and not (_finite_real(self.eta) and self.eta >= 0):
            raise InvalidInput(f"eta must be finite and >= 0 or None, got {self.eta!r}")
        if self.mass not in MASSES:
            raise InvalidInput(f"mass must be one of {MASSES}, got {self.mass!r}")
        top_k = self.top_k
        integral = isinstance(top_k, numbers.Integral) and not isinstance(top_k, bool)
        if top_k is not None and not (integral and top_k >= 1):
            raise InvalidInput(f"top_k must be an integer >= 1 or None, got {top_k!r}")


@dataclass(frozen=True)
class AdaptationResult:
    """Adapted source set plus everything needed to audit the run.

    ``diagnostics`` (see :func:`adapt`) are JSON types and depend only on the
    inputs and config; ``stage_s`` holds the wall seconds of each stage.
    """

    adapted_source: np.ndarray
    plan: transport.TransportPlan
    cost: transport.CostMatrix
    lambda_used: float | None
    eta_used: float | None
    diagnostics: dict = field(default_factory=dict)
    stage_s: dict = field(default_factory=dict)


def median_sq_distance(points):
    """Median of the pairwise squared Riemannian distances (i < j).

    Falls back to 1.0 for a single point or points that all coincide, where
    the median would degenerate to zero and a kernel bandwidth must stay
    positive.
    """
    return _upper_median(manifold.sq_distance_matrix(points))


def _upper_median(d2):
    """:func:`median_sq_distance` from a set's self-distance matrix ``d2``."""
    n = d2.shape[0]
    if n < 2:
        return 1.0
    med = float(np.median(d2[np.triu_indices(n, k=1)]))
    # identical points leave only eigensolver noise (~1e-30)
    return med if med > 1e-18 else 1.0


def kde_weights(points):
    """Kernel-density mass for a set of SPD matrices.

    ``w[i]`` is proportional to ``sum_j exp(-d(P_i, P_j)^2 / (2 sigma2))``,
    the self term included, normalized to sum to 1.  Outliers far from the
    bulk receive less than uniform mass, which damps their pull on the
    transport plan.  The bandwidth ``sigma2`` is the set's
    :func:`median_sq_distance`, read off the same self-distance matrix the
    kernel sums, so the set's distances are computed once.
    """
    return _kde_weights(manifold.check_stack(points, "kde_weights points"), "set")


def _kde_weights(points, name):
    """:func:`kde_weights` of a checked stack; its SPD check names ``name``."""
    d2 = manifold._sq_distances(points, None, name, name)
    w = np.exp(-d2 / (2.0 * _upper_median(d2))).sum(axis=1)
    return w / w.sum()


def build_cost(source, target):
    """Pairwise transport cost between two SPD sets: squared geodesic distance.

    Zero, up to rounding, on identical pairs.  Both sets are checked as
    :func:`spdot.manifold.check_spd` checks them, and a failure names the
    "source set" or the "target set".
    """
    src = manifold.check_stack(source, "source set")
    tgt = manifold.check_stack(target, "target set", src.shape[2])
    return transport.CostMatrix(manifold._sq_distances(src, tgt, "source set", "target set"))


def barycentric_map(source, target, plan):
    """Send each source point to the plan-weighted Riemannian mean of targets.

    Row ``i`` of the plan, renormalized to sum to 1, weights the targets in a
    Fréchet mean that becomes the adapted ``i``-th point; all rows are
    iterated together and the targets are validated once.  A one-hot row
    maps straight to the corresponding target.

    Parameters
    ----------
    source : array-like, shape (n1, d, d)
        Only its length is used, to validate the plan shape.
    target : array-like, shape (n2, d, d)
    plan : TransportPlan
        :class:`InvalidInput` if it is anything else.

    Returns
    -------
    adapted : ndarray, shape (n1, d, d)
    info : dict
        ``iterations``, the Riemannian Newton steps each row's mean took,
        and ``residuals``, an upper bound on the norm of each row's
        Riemannian gradient at its mean, either measured by a last pass or
        certified from the last Newton step; lists with one entry per row,
        both 0 for a one-hot row.  ``certified_rows`` counts the rows whose
        bound was certified, which skipped that pass
        (:func:`spdot.manifold._karcher_means` proves the bound).

    Raises
    ------
    InvalidInput
        If the plan's shape does not match the sets, it has a negative or
        non-finite entry, or some plan row carries no mass (named).
    NotPositiveDefinite, ConvergenceFailure
        If a target is not SPD, whether or not it carries plan mass, or if
        a row's mean fails as in :func:`spdot.manifold.frechet_mean`; the
        message names the lowest failing row.
    """
    tgt = manifold.check_spd(target, name="target set")
    return _barycentric_map(len(source), tgt, plan, None)


def _barycentric_map(n1, tgt, plan, top_k):
    """:func:`barycentric_map` for ``n1`` source points on a target array
    ``tgt`` already checked SPD, each row cut to ``AdaptationConfig.top_k``."""
    if not isinstance(plan, transport.TransportPlan):
        raise InvalidInput(f"plan must be a TransportPlan, got {type(plan).__name__}")
    n2 = tgt.shape[0]
    gamma = plan.matrix
    if gamma.shape != (n1, n2):
        raise InvalidInput(
            f"plan shape {gamma.shape} does not match sets ({n1}, {n2})"
        )
    if not np.isfinite(gamma).all():
        raise InvalidInput("plan has non-finite entries")
    if (gamma < 0).any():
        raise InvalidInput("plan has negative entries")

    totals = gamma.sum(axis=1)
    if not (totals > 0).all():
        raise InvalidInput(f"plan row {np.argmin(totals > 0)} carries no mass")
    rows = gamma
    if top_k is not None and top_k < n2:
        drop = np.argsort(-gamma, axis=1, kind="stable")[:, top_k:]
        rows = gamma.copy()
        np.put_along_axis(rows, drop, 0.0, axis=1)
        totals = rows.sum(axis=1)
    adapted, iterations, residuals, certified = manifold._karcher_means(
        tgt, rows / totals[:, None]
    )
    return adapted, {
        "iterations": iterations.tolist(),
        "residuals": residuals.tolist(),
        "certified_rows": int(certified.sum()),
    }


@contextlib.contextmanager
def _stage(step, stage_s):
    """Time the block into ``stage_s[step]``; tag a :class:`SpdotError` with ``step``."""
    start = time.perf_counter()
    try:
        yield
    except SpdotError as exc:
        exc.pipeline_step = step
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"[step: {step}] {exc.args[0]}",) + exc.args[1:]
        raise
    stage_s[step] = time.perf_counter() - start


def _row_perplexity(gamma):
    """Median over nonzero plan rows of ``exp(entropy)`` of the normalized row."""
    rows = gamma[gamma.sum(axis=1) > 0]
    r = rows / rows.sum(axis=1, keepdims=True)
    entropy = -(r * np.log(np.where(r > 0, r, 1.0))).sum(axis=1)
    return float(np.median(np.exp(entropy)))


def adapt(source, target, source_labels=None, config=None):
    """Run the full adaptation pipeline and return the adapted source set.

    Executes mass assignment, cost construction, plan solve, and barycentric
    mapping according to ``config``; see :class:`AdaptationConfig` for the
    knobs.  Deterministic given inputs and config.  Errors raised by a stage
    are re-raised with ``pipeline_step`` set to the stage name ("mass",
    "cost", "plan", or "map"); a set below the SPD floor is named "source
    set" or "target set", at the "mass" step with KDE mass and at the
    "cost" step otherwise.  Argument errors, raised before any stage
    runs (a malformed or empty stack, a dimension mismatch, labels given
    or missing against the solver or not one integer per source point,
    ``top_k`` above the target size), carry ``pipeline_step = None``.

    Parameters
    ----------
    source, target : array-like, shape (n1|n2, d, d)
        Nonempty SPD sets of equal matrix dimension.
    source_labels : array-like of int, optional
        Required for (and only for) the "sinkhorn-labels" solver.
    config : AdaptationConfig, optional

    Returns
    -------
    AdaptationResult
        Its ``diagnostics`` are ``{"plan": {...}, "map": {...}}``.  "plan":
        ``iterations`` and ``dual_gradient`` (see
        :class:`~spdot.transport.TransportPlan`; ``None`` for "exact");
        ``marginal_residuals``, the plan's ``[row, col]`` marginal violations
        in infinity norm; ``objective``, ``<plan, C>``; ``lambda_median_cost``,
        ``lambda median(C)``, and ``kernel_log10_range``, ``-lambda (max C -
        min C) / ln 10`` (both ``None`` for "exact"); ``row_perplexity`` (see
        :func:`_row_perplexity`).  "map": the info of :func:`barycentric_map`.
        The wall seconds of each stage are in ``stage_s``, not in
        ``diagnostics``, so equal inputs and config give equal diagnostics.
    """
    cfg = config or AdaptationConfig()
    src = manifold.check_stack(source, "source set")
    tgt = manifold.check_stack(target, "target set", src.shape[2])
    if (cfg.solver == "sinkhorn-labels") != (source_labels is not None):
        raise InvalidInput(
            "source labels must be given exactly when solver='sinkhorn-labels'"
        )
    if source_labels is not None:
        transport._class_indicator(source_labels, src.shape[0])  # one integer per point
    if cfg.top_k is not None and cfg.top_k > tgt.shape[0]:
        raise InvalidInput(f"top_k={cfg.top_k} exceeds target size {tgt.shape[0]}")

    stage_s = {}
    with _stage("mass", stage_s):
        if cfg.mass == "uniform":
            p = transport.uniform_mass(src.shape[0])
            q = transport.uniform_mass(tgt.shape[0])
        else:
            p = _kde_weights(src, "source set")
            q = _kde_weights(tgt, "target set")

    with _stage("cost", stage_s):
        cost = build_cost(src, tgt)

    lambda_used = eta_used = lambda_median_cost = kernel_log10_range = None
    with _stage("plan", stage_s):
        if cfg.solver == "exact":
            plan = transport.exact_ot(cost, p, q)
        else:
            median_cost = float(np.median(cost.values))
            lambda_used = (
                transport.adaptive_lambda(cost) if cfg.lam == "auto" else float(cfg.lam)
            )
            lambda_median_cost = lambda_used * median_cost
            kernel_log10_range = -lambda_used * float(np.ptp(cost.values)) / math.log(10)
            if cfg.solver == "sinkhorn":
                plan = transport.sinkhorn(cost, p, q, lambda_used)
            else:
                eta_used = 2.0 * median_cost if cfg.eta is None else float(cfg.eta)
                plan = transport.sinkhorn_with_labels(
                    cost, p, q, labels=source_labels, lam=lambda_used, eta=eta_used
                )

    with _stage("map", stage_s):
        adapted, map_info = _barycentric_map(src.shape[0], tgt, plan, cfg.top_k)
        manifold.check_spd(adapted, name="adapted source")

    plan_info = {
        "iterations": plan.iterations,
        "dual_gradient": plan.dual_gradient,
        "marginal_residuals": list(plan.marginal_residuals()),
        "objective": plan.objective(cost),
        "lambda_median_cost": lambda_median_cost,
        "kernel_log10_range": kernel_log10_range,
        "row_perplexity": _row_perplexity(plan.matrix),
    }
    return AdaptationResult(
        adapted_source=adapted,
        plan=plan,
        cost=cost,
        lambda_used=lambda_used,
        eta_used=eta_used,
        diagnostics={"plan": plan_info, "map": map_info},
        stage_s=stage_s,
    )


def mdm_fit(train, labels):
    """Per-class Riemannian means for minimum-distance-to-mean classification.

    Returns a dict mapping every distinct label to the unweighted Fréchet
    mean of its training matrices.  :class:`InvalidInput` unless ``labels``
    is an integer vector with one label per matrix.
    """
    pts = manifold.check_stack(train, "mdm_fit points")
    Y = transport._class_indicator(labels, pts.shape[0])
    manifold.check_spd(pts, name="mdm_fit points")
    means = manifold._karcher_means(pts, Y.T / Y.sum(axis=0)[:, None])[0]
    return dict(zip(np.unique(labels).tolist(), means))


def mdm_classify(query, means):
    """Label of the class mean nearest to ``query`` in Riemannian distance.

    Ties break toward the smallest class label.
    """
    if not means:
        raise InvalidInput("mdm_classify needs at least one class mean")
    labels = sorted(means)
    d2 = manifold.sq_distance_matrix(
        np.asarray(query, dtype=float)[None], np.stack([means[y] for y in labels])
    )
    return labels[int(np.argmin(d2[0]))]  # the first, hence smallest, on ties
