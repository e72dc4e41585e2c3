"""End-to-end domain adaptation of SPD sets by optimal transport.

The pipeline maps a source set onto the domain of a target set in five
steps: assign mass to each point (uniform or kernel-density weights), build
the pairwise cost under the chosen metric, solve for a transport plan, then
send every source point to the plan-weighted Riemannian mean of the targets
(the barycentric projection).  On the SPD cone that weighted mean is unique,
so the resulting map is well defined.

A minimum-distance-to-mean (MDM) classifier over per-class Riemannian means
is included for evaluating adapted sets.

``adapt`` is a pure function of its inputs and config; concurrent pipeline
runs share no state.
"""

import contextlib
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from . import manifold, transport
from .errors import DegeneratePlan, InvalidInput, SpdotError
from .transport import _finite_real

METRICS = ("riemannian", "euclidean")
SOLVERS = ("exact", "sinkhorn", "sinkhorn-labels")
MASSES = ("uniform", "kde")


@dataclass(frozen=True)
class AdaptationConfig:
    """Every knob the adaptation pipeline leaves open.

    Attributes
    ----------
    metric : str
        "riemannian" (geodesic distance squared) or "euclidean" (squared
        Frobenius distance) for the transport cost.
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
        "uniform" or "kde" marginals.
    kde_sigma : float or "auto"
        Kernel bandwidth (sigma squared), finite and > 0; "auto" uses the
        median pairwise squared distance within each set.
    top_k : int or None
        Keep only the k >= 1 largest entries of each plan row (renormalized)
        before the barycentric mean; ``None`` keeps dense rows.

    The pipeline is deterministic, so no seed is needed to reproduce a run.

    Numeric fields reject ``bool``.  A value outside its range raises
    :class:`InvalidInput` here, before any pipeline stage runs.
    """

    metric: str = "riemannian"
    solver: str = "sinkhorn"
    lam: float | str = "auto"
    eta: float | None = None
    mass: str = "uniform"
    kde_sigma: float | str = "auto"
    top_k: int | None = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidInput(f"metric must be one of {METRICS}, got {self.metric!r}")
        if self.solver not in SOLVERS:
            raise InvalidInput(f"solver must be one of {SOLVERS}, got {self.solver!r}")
        for name in ("lam", "kde_sigma"):
            value = getattr(self, name)
            if value != "auto" and not (_finite_real(value) and value > 0):
                raise InvalidInput(
                    f"{name} must be finite and > 0 or 'auto', got {value!r}"
                )
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


def kde_weights(points, sigma2):
    """Kernel-density mass for a set of SPD matrices.

    ``w[i]`` is proportional to ``sum_j exp(-d(P_i, P_j)^2 / (2 sigma2))``,
    the self term included, normalized to sum to 1.  Outliers far from the
    bulk receive less than uniform mass, which damps their pull on the
    transport plan.

    ``sigma2`` is a finite float > 0 or ``"auto"``; ``"auto"`` takes the
    :func:`median_sq_distance` of the set, read off the same self-distance
    matrix the kernel sums, so the set's distances are computed once.
    """
    pts = manifold.check_stack(points, "kde_weights points")
    auto = isinstance(sigma2, str) and sigma2 == "auto"
    if not auto and not (_finite_real(sigma2) and sigma2 > 0):
        raise InvalidInput(f"sigma2 must be finite and > 0 or 'auto', got {sigma2!r}")
    d2 = manifold.sq_distance_matrix(pts)
    if auto:
        sigma2 = _upper_median(d2)
    w = np.exp(-d2 / (2.0 * sigma2)).sum(axis=1)
    return w / w.sum()


def build_cost(source, target, metric="riemannian"):
    """Pairwise transport cost between two SPD sets under the chosen metric.

    Riemannian: squared geodesic distance.  Euclidean: squared Frobenius
    distance.  Both are zero exactly on identical pairs.
    """
    if metric not in METRICS:
        raise InvalidInput(f"metric must be one of {METRICS}, got {metric!r}")
    src = manifold.check_stack(source, "source set")
    tgt = manifold.check_stack(target, "target set", src.shape[2])
    if metric == "riemannian":
        values = manifold.sq_distance_matrix(src, tgt)
    else:
        manifold.check_spd(src, name="source set")
        manifold.check_spd(tgt, name="target set")
        values = transport.sq_euclidean_matrix(src, tgt)
    return transport.CostMatrix(values)


def barycentric_map(source, target, plan, top_k=None):
    """Send each source point to the plan-weighted Riemannian mean of targets.

    Row ``i`` of the plan, renormalized to sum to 1, weights the targets in a
    Fréchet mean that becomes the adapted ``i``-th point; all rows are
    iterated together and the targets are validated once.  With ``top_k``
    set, only the k largest entries of the row are kept (renormalized, rest
    zeroed) before averaging.  That is cheaper but not exact: Sinkhorn plans
    at the default auto lambda are dense (the README gives the measured
    effect).  A one-hot row maps straight to the corresponding target.

    Parameters
    ----------
    source : array-like, shape (n1, d, d)
        Only its length is used, to validate the plan shape.
    target : array-like, shape (n2, d, d)
    plan : TransportPlan
    top_k : int or None
        Must be <= n2 when set.

    Returns
    -------
    adapted : ndarray, shape (n1, d, d)
    info : dict
        ``iterations``, the Riemannian Newton steps each row's mean took,
        and ``residuals``, the norm of each row's last Riemannian gradient;
        lists with one entry per row, both 0 for a one-hot row.

    Raises
    ------
    DegeneratePlan
        If some plan row carries no mass.
    InvalidInput
        If the plan's shape does not match the sets or it has a negative or
        non-finite entry.
    NotPositiveDefinite, ConvergenceFailure
        If a target is not SPD, whether or not it carries plan mass, or if
        a row's mean fails as in :func:`spdot.manifold.frechet_mean`; the
        message names the lowest failing row.
    """
    tgt = np.asarray(target, dtype=float)
    n1, n2 = len(source), tgt.shape[0]
    gamma = plan.matrix
    if gamma.shape != (n1, n2):
        raise InvalidInput(
            f"plan shape {gamma.shape} does not match sets ({n1}, {n2})"
        )
    if not np.isfinite(gamma).all():
        raise InvalidInput("plan has non-finite entries")
    if (gamma < 0).any():
        raise InvalidInput("plan has negative entries")
    if top_k is not None and not 1 <= top_k <= n2:
        raise InvalidInput(f"top_k={top_k} outside [1, {n2}]")

    totals = gamma.sum(axis=1)
    if not (totals > 0).all():
        raise DegeneratePlan(f"plan row {np.argmin(totals > 0)} carries no mass")
    rows = gamma
    if top_k is not None and top_k < n2:
        drop = np.argpartition(gamma, -top_k, axis=1)[:, :-top_k]
        rows = gamma.copy()
        np.put_along_axis(rows, drop, 0.0, axis=1)
        totals = rows.sum(axis=1)
    manifold.check_spd(tgt, name="target set")
    adapted, iterations, residuals = manifold._karcher_means(tgt, rows / totals[:, None])
    return adapted, {"iterations": iterations.tolist(), "residuals": residuals.tolist()}


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
    "cost", "plan", or "map").  Argument errors, raised before any stage
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
        ``iterations`` and ``outer_iterations`` (see
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
            p = kde_weights(src, cfg.kde_sigma)
            q = kde_weights(tgt, cfg.kde_sigma)

    with _stage("cost", stage_s):
        cost = build_cost(src, tgt, cfg.metric)

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
        adapted, map_info = barycentric_map(src, tgt, plan, cfg.top_k)
        manifold.check_spd(adapted, name="adapted source")

    plan_info = {
        "iterations": plan.iterations,
        "outer_iterations": plan.outer_iterations,
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
    means, _, _ = manifold._karcher_means(pts, Y.T / Y.sum(axis=0)[:, None])
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
