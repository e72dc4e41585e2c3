"""Desk-scale experiments probing what transport-based adaptation recovers.

Three studies, each a deterministic function of its seed:

* ``toy_a_sweep``: map a random 2x2 SPD set through a congruence
  ``P -> S P S^T`` with ``S = T U_theta`` (``T`` positive, ``U_theta`` a
  rotation) and measure how well the transport map recovers the ground
  truth as the rotation angle grows.  At ``theta = 0`` the map is positive
  and recovery is exact; a substantial rotation breaks the matching.
* ``toy_b_search``: undo an unknown orthogonal component by grid-searching
  the rotation angle, solving the inner transport problem at each candidate
  and keeping the cheapest.
* ``three_config_comparison``: pair multichannel cosine signals that share
  amplitudes and frequencies but differ in phase and noise, then match them
  three ways: raw signals under the Euclidean cost, covariances under the
  Euclidean cost, and covariances under the Riemannian cost.

Sweep points are evaluated independently (no state is carried between
them), so the loops parallelize trivially if ever needed.
"""

from dataclasses import dataclass

import numpy as np

from . import manifold, transport
from .adaptation import AdaptationConfig, adapt
from .errors import InvalidInput

# Positive factor of the congruence map used throughout the 2x2 studies.
DEFAULT_T = np.array([[0.5, -0.25], [-0.25, 1.0]])

TOY_A_GRID_SIZE = 64  # uniform over [0, pi]
TOY_B_GRID_SIZE = 256  # uniform over [0, 2*pi)

# Sampling spread for the 2x2 toy sets.  Recovery of a positive congruence
# map by transport under the curved metric is an empirical matter: it holds
# when the set is concentrated relative to the map's displacement and breaks
# down for widely spread sets.  0.3 keeps recovery at theta=0 and
# non-recovery at theta=pi/2 stable across seeds at the default set sizes.
TOY_SCALE = 0.3


def rotation_2d(theta):
    """2x2 rotation ``[[cos, sin], [-sin, cos]]`` by ``theta`` radians."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, s], [-s, c]])


@dataclass(frozen=True)
class CongruenceMap:
    """Linear map ``P -> S P S^T`` with ``S = T U_theta``, ``T`` SPD 2x2."""

    positive_part: np.ndarray
    theta: float = 0.0

    def __post_init__(self):
        T = np.asarray(self.positive_part, dtype=float)
        if T.shape != (2, 2):
            raise InvalidInput(f"positive part must be 2x2, got {T.shape}")
        manifold.check_spd(T, name="positive part")
        object.__setattr__(self, "positive_part", T)

    @property
    def matrix(self):
        return self.positive_part @ rotation_2d(self.theta)


@dataclass(frozen=True)
class MatchReport:
    """How well a transport plan matched the ground-truth correspondence.

    ``diagonal_mass`` is the fraction of plan mass on the true pairing
    (index i to index i); ``recovery_error`` is the root mean squared
    Riemannian distance between mapped and true points (NaN for studies
    that stop at the plan and never map points); ``objective`` is the
    transport cost of the plan.
    """

    diagonal_mass: float
    recovery_error: float
    objective: float

    def __post_init__(self):
        if not 0.0 <= self.diagonal_mass <= 1.0:
            raise InvalidInput(
                f"diagonal_mass must lie in [0, 1], got {self.diagonal_mass}"
            )


def random_spd(dim, count, scale=1.0, seed=0):
    """Random SPD matrices: ``G G^T / dim + 0.1 I`` for Gaussian ``G * scale``."""
    if dim < 1 or count < 1:
        raise InvalidInput("random_spd needs dim >= 1 and count >= 1")
    rng = np.random.default_rng(seed)
    G = scale * rng.standard_normal((count, dim, dim))
    return G @ np.swapaxes(G, -1, -2) / dim + 0.1 * np.eye(dim)


def isotropic_spd_cloud(count, seed=0):
    """2x2 SPD cloud whose tangent coordinates at I are exactly white.

    Gaussian symmetric tangent samples are centered and whitened (in the
    isometric coordinates ``(a11, a22, sqrt(2) a12)``), then exponentiated
    at scale 0.5, so the cloud's tangent coordinates have zero mean and
    second moment ``0.25 I``.  The rotation grid search needs this: an
    anisotropic cloud gets squeezed by the positive factor of the hidden
    map into an orientation that a wrong rotation matches more cheaply,
    producing spurious minima.  Isotropy removes that alignment incentive,
    leaving the true rotation as the minimizer.
    """
    if count < 4:
        raise InvalidInput("isotropic_spd_cloud needs at least 4 points to whiten")
    rng = np.random.default_rng(seed)
    coords = rng.standard_normal((count, 3))
    coords -= coords.mean(axis=0)
    cov = coords.T @ coords / count
    coords = coords @ np.linalg.cholesky(np.linalg.inv(cov))
    E = np.empty((count, 2, 2))
    E[:, 0, 0] = coords[:, 0]
    E[:, 1, 1] = coords[:, 1]
    E[:, 0, 1] = E[:, 1, 0] = coords[:, 2] / np.sqrt(2.0)
    return manifold.expm(0.5 * E)


def apply_congruence(cmap, points):
    """Apply ``P -> S P S^T`` to a stack of SPD matrices; outputs stay SPD."""
    S = cmap.matrix
    pts = manifold.check_stack(points, "apply_congruence points", S.shape[0])
    return manifold.sym(np.einsum("ab,ibc,dc->iad", S, pts, S))


def recovery_error(adapted, truth):
    """Root mean squared Riemannian distance between matched stacks."""
    return float(np.sqrt(manifold.paired_sq_distances(adapted, truth).mean()))


def _match_report(plan, cost, recovery=float("nan")):
    """:class:`MatchReport` of ``plan`` on ``cost``; NaN recovery by default."""
    return MatchReport(
        diagonal_mass=transport.diagonal_mass(plan.matrix),
        recovery_error=recovery,
        objective=plan.objective(cost),
    )


def _angles(theta_grid, default):
    """``theta_grid`` (``default`` when ``None``) as a nonempty 1-D float array."""
    grid = default if theta_grid is None else np.asarray(theta_grid, dtype=float)
    if grid.ndim != 1 or not grid.size:
        raise InvalidInput(f"theta_grid must be a nonempty 1-D grid, got {grid.shape}")
    return grid


def toy_a_sweep(n=50, theta_grid=None, seed=0):
    """Recovery quality of the transport map across rotation angles.

    For each ``theta`` in the grid, the source set is pushed through
    ``S_theta = T U_theta`` to build the target, the pipeline runs with the
    exact solver under the Riemannian cost, and the adapted set is compared
    to the ground-truth images.

    Returns a list of ``(theta, MatchReport)`` in grid order; an empty grid
    raises :class:`InvalidInput`.
    """
    grid = _angles(theta_grid, np.linspace(0.0, np.pi, TOY_A_GRID_SIZE))
    source = random_spd(2, n, scale=TOY_SCALE, seed=seed)
    results = []
    for theta in grid:
        target = apply_congruence(CongruenceMap(DEFAULT_T, theta), source)
        res = adapt(source, target, config=AdaptationConfig(solver="exact"))
        recovery = recovery_error(res.adapted_source, target)
        results.append((float(theta), _match_report(res.plan, res.cost, recovery)))
    return results


def toy_b_search(source, target, theta_grid=None):
    """Grid search for the rotation that makes the two sets transport-cheapest.

    Rotates the source by each candidate ``U_theta`` (``P -> U P U^T``),
    solves the inner exact transport problem on the Riemannian cost, and
    returns the angle with the smallest objective along with the full curve
    and the winning plan.  Only 2x2 inputs are supported, where rotations
    exhaust the relevant orthogonal directions.

    Returns
    -------
    (best_theta, curve, best_plan)
        ``curve`` is a list of ``(theta, MatchReport)``; recovery error is
        NaN since this study never maps points.  An empty grid raises
        :class:`InvalidInput`.
    """
    src = np.asarray(source, dtype=float)
    tgt = np.asarray(target, dtype=float)
    if src.shape[-2:] != (2, 2) or tgt.shape[-2:] != (2, 2):
        raise InvalidInput("toy_b_search supports 2x2 matrices only")
    default = np.linspace(0.0, 2.0 * np.pi, TOY_B_GRID_SIZE, endpoint=False)
    grid = _angles(theta_grid, default)

    curve = []
    best = (None, np.inf, None)
    for theta in grid:
        U = rotation_2d(theta)
        rotated = manifold.sym(np.einsum("ab,ibc,dc->iad", U, src, U))
        cost = manifold.sq_distance_matrix(rotated, tgt)
        plan = transport.exact_ot(cost)
        report = _match_report(plan, cost)
        curve.append((float(theta), report))
        if report.objective < best[1]:
            best = (float(theta), report.objective, plan)
    return best[0], curve, best[2]


def cosine_trials(n=40, channels=5, samples=101, ts=0.01, seed=0, noise=True):
    """Paired multichannel cosine recordings differing in phase and noise.

    Each of the ``n`` pairs shares per-channel amplitudes (uniform on
    [0, 20]) and frequencies (uniform on [0, 20] cycles per unit time)
    between its two trials, while phases are drawn independently from
    [0, 2*pi] and unit-variance Gaussian noise is added independently per
    sample.  Sampling runs from 0 in steps of ``ts``.  Frequencies are in
    cycles, not radians: at the default 0.01 sampling step most channels
    complete several periods, which makes a trial's covariance nearly
    phase-invariant, which is what lets covariance pairs be matched.

    Returns two stacks of shape ``(n, channels, samples)``; ``noise=False``
    produces the clean signals (handy for spectral checks).
    """
    if n < 1 or channels < 1 or samples < 2:
        raise InvalidInput("cosine_trials needs n >= 1, channels >= 1, samples >= 2")
    # the largest phase argument, 2 pi 20 (samples - 1) ts, must be finite too
    if not np.isfinite(40.0 * np.pi * (samples - 1) * float(ts)):
        raise InvalidInput(f"cosine_trials needs finite ts and phases, got ts={ts}")
    rng = np.random.default_rng(seed)
    omega_t = 2.0 * np.pi * np.arange(samples) * ts
    xs = np.empty((n, channels, samples))
    zs = np.empty((n, channels, samples))
    for i in range(n):
        amp = rng.uniform(0.0, 20.0, channels)
        freq = rng.uniform(0.0, 20.0, channels)
        phase_x = rng.uniform(0.0, 2.0 * np.pi, channels)
        phase_z = rng.uniform(0.0, 2.0 * np.pi, channels)
        xs[i] = amp[:, None] * np.cos(freq[:, None] * omega_t[None, :] + phase_x[:, None])
        zs[i] = amp[:, None] * np.cos(freq[:, None] * omega_t[None, :] + phase_z[:, None])
        if noise:
            xs[i] += rng.standard_normal((channels, samples))
            zs[i] += rng.standard_normal((channels, samples))
    return xs, zs


def covariance(trial):
    """Sample covariance of a ``(d, M)`` trial, guarded against rank loss.

    Rows are mean-centered, then ``X X^T / (M - 1)``.  If the smallest
    eigenvalue falls at or below :data:`spdot.manifold.EPS_PD` the matrix
    is repaired with a ridge of ``1e-8 * trace / d``; a matrix still not
    positive-definite after that is rejected.  :func:`covariances` with
    ``return_ridges=True`` reports the ridge that was added.
    """
    return covariances([trial])[0]


def covariances(trials, return_ridges=False):
    """Covariance of every trial in a stack; see :func:`covariance`.

    Each matrix is computed on its own; one batched ``eigvalsh`` then finds
    the trials that need the ridge.  Errors name the trial; a trial with a
    non-finite value raises :class:`InvalidInput`.  With
    ``return_ridges=True`` also returns the list of ridges added.
    """
    covs = []
    for i, trial in enumerate(trials):
        X = np.asarray(trial, dtype=float)
        if X.ndim != 2 or X.shape[1] < 2:
            raise InvalidInput(
                f"trial {i}: covariance needs a (d, M) trial with M >= 2, got {X.shape}"
            )
        if not np.isfinite(X).all():
            raise InvalidInput(f"trial {i} has non-finite values")
        Xc = X - X.mean(axis=1, keepdims=True)
        covs.append(manifold.sym(Xc @ Xc.T / (X.shape[1] - 1)))
    if not covs:
        raise InvalidInput("covariances needs at least one trial, got an empty input")
    covs = np.stack(covs)
    ridges = np.zeros(len(covs))
    for i in np.flatnonzero(np.linalg.eigvalsh(covs)[:, 0] <= manifold.EPS_PD):
        ridges[i] = 1e-8 * np.trace(covs[i]) / covs.shape[-1]
        covs[i] = covs[i] + ridges[i] * np.eye(covs.shape[-1])
        manifold._above_floor(
            np.linalg.eigvalsh(covs[i]), f"trial {i}: covariance after ridge repair"
        )
    return (covs, ridges.tolist()) if return_ridges else covs


CONFIG_RAW_EUCLIDEAN = "raw-euclidean"
CONFIG_COV_EUCLIDEAN = "cov-euclidean"
CONFIG_COV_RIEMANNIAN = "cov-riemannian"


def three_config_comparison(seed=0, n=40, channels=5, samples=101, ts=0.01):
    """Match paired cosine trials under three cost constructions.

    Solves exact transport for (1) flattened raw trials under the squared
    Euclidean cost, (2) trial covariances under the squared Frobenius cost,
    and (3) trial covariances under the squared Riemannian cost, and scores
    each plan by the mass it places on the true pairing.

    Returns a dict keyed by ``CONFIG_*`` name, in that order.
    """
    xs, zs = cosine_trials(n=n, channels=channels, samples=samples, ts=ts, seed=seed)
    return _compare_configs(xs, zs)


def _compare_configs(xs, zs):
    """:func:`three_config_comparison` on given trial stacks."""
    P = covariances(xs)
    Q = covariances(zs)
    costs = {
        CONFIG_RAW_EUCLIDEAN: manifold.sq_euclidean_matrix(xs, zs),
        CONFIG_COV_EUCLIDEAN: manifold.sq_euclidean_matrix(P, Q),
        CONFIG_COV_RIEMANNIAN: manifold.sq_distance_matrix(P, Q),
    }
    return {
        name: _match_report(transport.exact_ot(cost), cost)
        for name, cost in costs.items()
    }
