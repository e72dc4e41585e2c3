"""The three benchmark workloads: inputs, one operation, and output checks.

Each workload generates its inputs from the workload seed with its own code
(not the package's generators, so a change to them cannot change the
inputs), runs one operation of the pipeline, and checks the operation's
output through routes independent of the package's ``eigh`` path:
generalized eigenvalues and the Schur-based ``scipy.linalg.sqrtm``/``logm``
for geometry, Cholesky for definiteness.

* ``pair-d16`` loads the cost layer: exact transport between two d=16 sets,
  so the O(n^2 d^4) geodesic cost dominates and the map is one-hot.
* ``labels-d4`` loads the label-regularized plan path: ``sinkhorn-labels``
  at the default configuration (auto lambda and eta) on class-structured
  d=4 sets, cycling through a list of instances drawn from the seed.
* ``cli-cosine`` loads the map layer plus KDE mass, datasets, experiments and
  the CLI: the README's ``cosine -> covariance x2 -> adapt`` chain through
  ``spdot.cli.main``, with file I/O in the loop.
"""

import hashlib
import json
import warnings
from pathlib import Path

import numpy as np
import scipy.linalg

from spdot import adaptation, cli
from spdot.errors import SpdotError

# Marginal tolerance that ``TransportPlan.validate`` documents.
MARGINAL_TOL = 1e-6
# Relative agreement of sampled cost entries with the generalized-eigenvalue
# distance (two different eigensolver routes, both near machine precision).
COST_RTOL = 1e-8
# First-order Karcher condition ``||M^1/2 (sum_j w_j log(M^-1/2 T_j M^-1/2)) M^1/2||_F``:
# the package stops at 1e-10; the Schur-based logm adds its own rounding.
KARCHER_TOL = 1e-8
# Rows and cost entries sampled per checked output.
SAMPLED_ROWS = 3
SAMPLED_COSTS = 12


def _sym(A):
    return 0.5 * (A + np.swapaxes(A, -1, -2))


def _blobs(rng, count, dim, scale):
    G = scale * rng.standard_normal((count, dim, dim))
    return G @ np.swapaxes(G, -1, -2) / dim + 0.1 * np.eye(dim)


def _sym_fun(A, fn):
    w, V = np.linalg.eigh(A)
    return _sym((V * fn(w)[..., None, :]) @ np.swapaxes(V, -1, -2))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def ref_sq_distance(P, Q):
    """Squared geodesic distance from the generalized eigenvalues of (P, Q)."""
    return float(np.sum(np.log(scipy.linalg.eigvalsh(P, Q)) ** 2))


def check_spd_stack(stack, name):
    """Problems with a stack that must be exactly symmetric and Cholesky-factorable."""
    if not np.array_equal(stack, np.swapaxes(stack, -1, -2)):
        return [f"{name} is not exactly symmetric"]
    for i, M in enumerate(stack):
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            return [f"{name}[{i}] is not positive-definite"]
    return []


def check_marginals(plan, p, q):
    problems = []
    if (plan < 0).any():
        problems.append("plan has negative entries")
    row = np.abs(plan.sum(axis=1) - p).max()
    col = np.abs(plan.sum(axis=0) - q).max()
    if max(row, col) > MARGINAL_TOL:
        problems.append(f"plan marginals off by ({row:.3e}, {col:.3e})")
    return problems


def check_karcher(adapted, targets, plan, rows):
    """Problems with the first-order mean condition on the given plan rows."""
    problems = []
    # logm's own error estimate (~1e-13 here) is noise next to KARCHER_TOL
    warnings.filterwarnings("ignore", "logm result may be inaccurate")
    for i in rows:
        w = plan[i] / plan[i].sum()
        root = np.real(scipy.linalg.sqrtm(adapted[i]))
        inv_root = np.linalg.inv(root)
        grad = sum(
            wj * np.real(scipy.linalg.logm(inv_root @ T @ inv_root))
            for wj, T in zip(w, targets)
            if wj > 0
        )
        residual = np.linalg.norm(root @ grad @ root)
        if not residual <= KARCHER_TOL:
            problems.append(f"row {i}: Karcher residual {residual:.3e} > {KARCHER_TOL:.0e}")
    return problems


class PairD16:
    """Exact transport, uniform mass, Riemannian cost, n1 = n2, d = 16."""

    name = "pair-d16"
    dim = 16

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n = 10 if smoke else 80
        self.count = 1
        self.config = adaptation.AdaptationConfig(
            metric="riemannian", solver="exact", mass="uniform"
        )

    def setup(self, work_dir):
        # fixed congruence W W^T, the same for every seed
        W = np.eye(self.dim) + 0.2 * np.random.default_rng(0).standard_normal(
            (self.dim, self.dim)
        )
        rng = np.random.default_rng([self.seed, 16])
        self.source = _blobs(rng, self.n, self.dim, 0.5)
        self.target = _sym(W @ _blobs(rng, self.n, self.dim, 0.5) @ W.T)
        return {"source": _digest(self.source), "target": _digest(self.target)}

    def run(self, i):
        return adaptation.adapt(self.source, self.target, config=self.config)

    def digest(self, result):
        return _digest(result.adapted_source, result.plan.matrix, result.cost.values)

    def check(self, i, result):
        gamma = result.plan.matrix
        nz = np.nonzero(gamma)
        n = self.n
        if not (len(nz[0]) == n and set(nz[0]) == set(range(n))
                and set(nz[1]) == set(range(n)) and (gamma[nz] == 1.0 / n).all()):
            return ["plan is not a scaled permutation"]
        perm = np.empty(n, dtype=int)
        perm[nz[0]] = nz[1]
        if not np.array_equal(result.adapted_source, self.target[perm]):
            return ["adapted points differ from their assigned targets"]
        rng = np.random.default_rng([self.seed, 99])
        problems = []
        for a, b in rng.integers(0, n, size=(SAMPLED_COSTS, 2)):
            ref = ref_sq_distance(self.source[a], self.target[b])
            got = result.cost.values[a, b]
            if not abs(got - ref) <= COST_RTOL * max(ref, 1.0):
                problems.append(f"cost[{a},{b}] = {got!r}, reference {ref!r}")
        return problems


class LabelsD4:
    """``sinkhorn-labels`` (auto lambda and eta) on class-structured d=4 sets.

    ``top_k=1`` keeps each plan row's heaviest entry only, so the map is
    one-hot and the plan is the largest stage; with dense rows the d=4
    Karcher means take over 90% of the operation and hide the plan.
    """

    name = "labels-d4"
    dim = 4
    classes = 3
    # Class centres exp(SPREAD * S) plus tangent noise of scale NOISE; the
    # label solver converged on every such instance tried (see README).
    SPREAD = 0.7
    NOISE = 0.6
    # Tighter classes, where default auto-lambda Sinkhorn often fails to
    # converge; probed in every traced run (``transport.tight_fail_frac``).
    TIGHT_SPREAD = 0.5
    TIGHT_NOISE = 0.1
    TIGHT_N = 60
    TIGHT_COUNT = 6

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n = 36 if smoke else 48
        # The work of an instance varies (coefficient of variation about 0.4),
        # so a run covers many: with 96 the mean over one seed's instances
        # still moved by 0.08 (interquartile over median) from seed to seed.
        self.count = 2 if smoke else 256
        self.tight_count = 1 if smoke else self.TIGHT_COUNT
        self.config = adaptation.AdaptationConfig(solver="sinkhorn-labels", top_k=1)

    def _instance(self, tag, k, n, spread, noise):
        rng = np.random.default_rng([self.seed, tag, k])
        d = self.dim
        centres = _sym_fun(spread * _sym(rng.standard_normal((self.classes, d, d))), np.exp)
        labels = np.arange(n) % self.classes
        roots = _sym_fun(centres, np.sqrt)[labels]

        def draw():
            E = _sym_fun(noise * _sym(rng.standard_normal((n, d, d))), np.exp)
            return _sym(roots @ E @ roots)

        source = draw()
        W = np.eye(d) + 0.3 * rng.standard_normal((d, d))  # session congruence
        target = _sym(W @ draw() @ W.T)
        return source, target, labels

    def setup(self, work_dir):
        self.items = [
            self._instance(4, k, self.n, self.SPREAD, self.NOISE)
            for k in range(self.count)
        ]
        return {
            f"instance{k}": _digest(*item) for k, item in enumerate(self.items)
        }

    def run(self, i):
        source, target, labels = self.items[i % self.count]
        return adaptation.adapt(source, target, labels, self.config)

    def digest(self, result):
        return _digest(result.adapted_source, result.plan.matrix)

    def check(self, i, result):
        _, target, _ = self.items[i % self.count]
        gamma = result.plan.matrix
        uniform = np.full(self.n, 1.0 / self.n)
        problems = check_marginals(gamma, uniform, uniform) + check_spd_stack(
            result.adapted_source, "adapted source"
        )
        # a one-hot row's Karcher mean is its target, bit for bit
        if not np.array_equal(result.adapted_source, target[gamma.argmax(axis=1)]):
            problems.append("adapted points differ from their heaviest targets")
        return problems

    def tight_fail_frac(self):
        """Share of tight-class instances on which the default solver raises."""
        failures = 0
        for k in range(self.tight_count):
            source, target, labels = self._instance(
                5, k, self.TIGHT_N, self.TIGHT_SPREAD, self.TIGHT_NOISE
            )
            try:
                adaptation.adapt(source, target, labels, self.config)
            except SpdotError:
                failures += 1
        return failures / self.tight_count


class CliCosine:
    """The README chain ``cosine -> covariance x2 -> adapt --mass kde --solver sinkhorn``.

    Each operation runs the chain for one ``cosine --seed`` from a list
    derived from the workload seed; how ill-conditioned the covariances are,
    and so how many Karcher iterations the map needs, varies from one chain
    seed to the next by about 17% (interquartile), so one run cycles through
    several of them.
    """

    name = "cli-cosine"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.n = 8 if smoke else 48
        self.dim = 4 if smoke else 8
        self.count = 1 if smoke else 8

    def setup(self, work_dir):
        self.out = o = Path(work_dir) / "cli"
        self.chain_seeds = [self.seed * 1000 + k for k in range(self.count)]
        self.chains = [
            [
                ["cosine", "--n", str(self.n), "--channels", str(self.dim),
                 "--seed", str(chain_seed), "--out", str(o / "cos")],
                ["covariance", str(o / "cos" / "source_timeseries.json"),
                 "--out", str(o / "cov_s")],
                ["covariance", str(o / "cos" / "target_timeseries.json"),
                 "--out", str(o / "cov_t")],
                ["adapt", str(o / "cov_s" / "covariances.json"),
                 str(o / "cov_t" / "covariances.json"),
                 "--mass", "kde", "--solver", "sinkhorn", "--out", str(o / "adapted")],
            ]
            for chain_seed in self.chain_seeds
        ]
        self.data_files = [
            o / "cos" / "source_timeseries.json", o / "cos" / "target_timeseries.json",
            o / "cos" / "cosine.csv", o / "cov_s" / "covariances.json",
            o / "cov_t" / "covariances.json", o / "adapted" / "adapted.json",
            o / "adapted" / "plan.csv",
        ]
        chain = json.dumps({"n": self.n, "channels": self.dim, "seeds": self.chain_seeds})
        return {"chains": hashlib.sha256(chain.encode()).hexdigest()}

    def run(self, i):
        codes = [cli.main(argv) for argv in self.chains[i % self.count]]
        if any(codes):
            raise RuntimeError(f"cli exit codes {codes}")
        return codes

    def digest(self, codes):
        h = hashlib.sha256()
        for path in self.data_files:
            h.update(path.read_bytes())
        return h.hexdigest()

    def _spd(self, path):
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
        d = raw["dim"]
        return np.array(raw["matrices"], dtype=float).reshape(-1, d, d)

    def _kde(self, points):
        n = len(points)
        d2 = np.zeros((n, n))
        for a in range(n):
            for b in range(a + 1, n):
                d2[a, b] = d2[b, a] = ref_sq_distance(points[a], points[b])
        sigma2 = np.median(d2[np.triu_indices(n, k=1)])
        w = np.exp(-d2 / (2.0 * sigma2)).sum(axis=1)
        return w / w.sum()

    def check(self, i, codes):
        o = self.out
        source = self._spd(o / "cov_s" / "covariances.json")
        target = self._spd(o / "cov_t" / "covariances.json")
        adapted = self._spd(o / "adapted" / "adapted.json")
        gamma = np.loadtxt(o / "adapted" / "plan.csv", delimiter=",", ndmin=2)
        if gamma.shape != (len(source), len(target)) or adapted.shape != source.shape:
            return [f"output shapes {gamma.shape}, {adapted.shape} do not match inputs"]
        rng = np.random.default_rng([self.seed, 99, i])
        rows = sorted(rng.choice(self.n, size=min(SAMPLED_ROWS, self.n), replace=False))
        return (
            check_marginals(gamma, self._kde(source), self._kde(target))
            + check_spd_stack(adapted, "adapted.json")
            + check_karcher(adapted, target, gamma, rows)
        )


WORKLOADS = {cls.name: cls for cls in (PairD16, LabelsD4, CliCosine)}
