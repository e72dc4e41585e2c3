"""Optimal-transport domain adaptation on the manifold of SPD matrices."""

from .adaptation import (
    AdaptationConfig,
    AdaptationResult,
    adapt,
    barycentric_map,
    build_cost,
    kde_weights,
    mdm_classify,
    mdm_fit,
    median_sq_distance,
)
from .errors import (
    ConvergenceFailure,
    InvalidInput,
    NotPositiveDefinite,
    NumericalFailure,
    SpdotError,
)
from .manifold import (
    exp_map,
    frechet_mean,
    geodesic,
    log_map,
    riemannian_distance,
    sq_distance_matrix,
    tangent_coordinates,
)
from .transport import (
    CostMatrix,
    TransportPlan,
    adaptive_lambda,
    exact_ot,
    sinkhorn,
    sinkhorn_with_labels,
)

__version__ = "0.1.0"

__all__ = [
    "AdaptationConfig",
    "AdaptationResult",
    "ConvergenceFailure",
    "CostMatrix",
    "InvalidInput",
    "NotPositiveDefinite",
    "NumericalFailure",
    "SpdotError",
    "TransportPlan",
    "adapt",
    "adaptive_lambda",
    "barycentric_map",
    "build_cost",
    "exact_ot",
    "exp_map",
    "frechet_mean",
    "geodesic",
    "kde_weights",
    "log_map",
    "mdm_classify",
    "mdm_fit",
    "median_sq_distance",
    "riemannian_distance",
    "sinkhorn",
    "sinkhorn_with_labels",
    "sq_distance_matrix",
    "tangent_coordinates",
]
