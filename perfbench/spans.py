"""Per-layer tracing of the spdot pipeline from outside the package.

A :class:`Tracer` swaps selected public functions of the ``spdot`` modules
(and ``numpy.linalg.eigh``/``eigvalsh``) for timing wrappers while it is
installed, and puts the originals back on removal.  The package looks these
names up at call time, so the wrappers see every call the pipeline makes:
``adapt`` calling ``build_cost`` and ``transport.sinkhorn``,
``sinkhorn_with_labels`` calling ``sinkhorn``, ``frechet_mean`` calling
``check_spd``, and ``manifold`` calling the eigensolvers.

Each wrapped call records a span ``[name, start, end, parent, op]``; spans
stay in memory and are written out when the benchmark ends.  Eigensolver
calls are only counted (matrices decomposed and seconds), not spanned, and
only when ``spdot.manifold`` is the caller.
"""

import collections
import functools
import importlib
import json
import math
import os
import sys
import time

import numpy as np

# (module, attribute) pairs wrapped with a span.
SPANNED = {
    "adaptation": ("adapt", "build_cost", "barycentric_map", "kde_weights",
                   "median_sq_distance"),
    "manifold": ("sq_distance_matrix", "frechet_mean", "check_spd"),
    "transport": ("exact_ot", "sinkhorn", "sinkhorn_with_labels", "adaptive_lambda"),
    "datasets": ("load_dataset", "save_spd_dataset", "save_timeseries_dataset"),
    "experiments": ("cosine_trials", "three_config_comparison", "covariance"),
    "cli": ("main",),
}

# Pipeline stage of the spans that ``adapt`` calls directly.  Any other
# direct callee (today only the final ``check_spd`` of the adapted set)
# belongs to the stage of the call before it, or failing that the one after.
STAGE_OF_CHILD = {
    "adaptation.median_sq_distance": "mass",
    "adaptation.kde_weights": "mass",
    "adaptation.build_cost": "cost",
    "transport.exact_ot": "plan",
    "transport.sinkhorn": "plan",
    "transport.sinkhorn_with_labels": "plan",
    "transport.adaptive_lambda": "plan",
    "adaptation.barycentric_map": "map",
}

# Metrics that are the inclusive time, or the number, of spans of a name.
SPAN_TIMES = {
    "manifold.sq_distance_matrix_s": ("manifold.sq_distance_matrix",),
    "manifold.frechet_mean_s": ("manifold.frechet_mean",),
    "manifold.check_spd_s": ("manifold.check_spd",),
    "transport.exact_ot_s": ("transport.exact_ot",),
    "transport.sinkhorn_s": ("transport.sinkhorn",),
    "transport.sinkhorn_labels_s": ("transport.sinkhorn_with_labels",),
    "datasets.load_s": ("datasets.load_dataset",),
    "datasets.save_s": ("datasets.save_spd_dataset", "datasets.save_timeseries_dataset"),
    "experiments.cosine_trials_s": ("experiments.cosine_trials",),
    "experiments.covariance_s": ("experiments.covariance",),
    "experiments.three_config_s": ("experiments.three_config_comparison",),
}
SPAN_CALLS = {
    "manifold.sq_distance_matrix_calls": "manifold.sq_distance_matrix",
    "manifold.frechet_mean_calls": "manifold.frechet_mean",
    "transport.sinkhorn_calls": "transport.sinkhorn",
}

# Per-layer metric names and units, in report order.
LAYER_METRICS = {
    "adaptation.adapt_s": "s",
    "adaptation.mass_s": "s",
    "adaptation.cost_s": "s",
    "adaptation.plan_s": "s",
    "adaptation.map_s": "s",
    "adaptation.self_s": "s",
    "manifold.sq_distance_matrix_s": "s",
    "manifold.sq_distance_matrix_calls": "count",
    "manifold.frechet_mean_s": "s",
    "manifold.frechet_mean_calls": "count",
    "manifold.frechet_iterations": "count",
    "manifold.check_spd_s": "s",
    "manifold.check_spd_mats": "count",
    "manifold.eigh_mats": "count",
    "manifold.eigvalsh_mats": "count",
    "manifold.eig_s": "s",
    "manifold.eigh_us": "us",
    "manifold.eigvalsh_us": "us",
    "manifold.eig_floor_s": "s",
    "manifold.floor_ratio": "ratio",
    "transport.exact_ot_s": "s",
    "transport.sinkhorn_s": "s",
    "transport.sinkhorn_calls": "count",
    "transport.sinkhorn_labels_s": "s",
    "transport.marginal_err": "mass",
    "transport.lambda": "1/cost",
    "transport.kernel_log10_range": "log10",
    "transport.tight_fail_frac": "ratio",
    "datasets.load_s": "s",
    "datasets.save_s": "s",
    "datasets.bytes_read": "bytes",
    "datasets.bytes_written": "bytes",
    "experiments.cosine_trials_s": "s",
    "experiments.covariance_s": "s",
    "experiments.three_config_s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "ratio",
}


def _stages(names):
    """Stage of each direct callee of ``adapt``, in call order."""
    stages = [STAGE_OF_CHILD.get(n) for n in names]
    for order in (range(len(stages)), reversed(range(len(stages)))):
        last = None
        for i in order:
            stages[i] = stages[i] or last
            last = stages[i]
    return stages


def _mats(a):
    shape = np.shape(a)
    return math.prod(shape[:-2]) if len(shape) > 2 else 1


class Tracer:
    """Span recorder for the ``spdot`` modules; install around one operation."""

    def __init__(self):
        self.spans = []
        self.counters = []  # one dict per operation
        self._stack = []
        self._saved = []

    def _span(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else None, len(self.counters) - 1]
            spans.append(span)
            stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(self.counters[-1], args, kwargs, result)
            return result

        return wrapper

    def _eig(self, key, fn):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != "spdot.manifold":
                return fn(a, *args, **kwargs)
            start = time.perf_counter()
            try:
                return fn(a, *args, **kwargs)
            finally:
                c = counters[-1]
                c["manifold.eig_s"] += time.perf_counter() - start
                c[key] += _mats(a)

        return wrapper

    def _hooks(self):
        def frechet(c, args, kwargs, result):
            if isinstance(result, tuple):
                c["manifold.frechet_iterations"] += result[1]["iterations"]

        def check_spd(c, args, kwargs, result):
            c["manifold.check_spd_mats"] += _mats(result)

        def adapt(c, args, kwargs, result):
            row, col = result.plan.marginal_residuals()
            c["transport.marginal_err"] = max(row, col)
            lam = result.lambda_used or 0.0
            values = result.cost.values
            c["transport.lambda"] = lam
            c["transport.kernel_log10_range"] = (
                -lam * float(values.max() - values.min()) / math.log(10)
            )

        def load(c, args, kwargs, result):
            c["datasets.bytes_read"] += os.path.getsize(args[0])

        def save(c, args, kwargs, result):
            c["datasets.bytes_written"] += os.path.getsize(args[0])

        return {
            "manifold.frechet_mean": frechet,
            "manifold.check_spd": check_spd,
            "adaptation.adapt": adapt,
            "datasets.load_dataset": load,
            "datasets.save_spd_dataset": save,
            "datasets.save_timeseries_dataset": save,
        }

    def install(self):
        """Start a new operation and wrap every traced function."""
        self.counters.append(collections.defaultdict(float))
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "spdot" or n.startswith("spdot.")]
        hooks = self._hooks()
        for mod_name, attrs in SPANNED.items():
            home = importlib.import_module(f"spdot.{mod_name}")
            for attr in attrs:
                original = getattr(home, attr)
                name = f"{mod_name}.{attr}"
                wrapper = self._span(name, original, hooks.get(name))
                # rebind every module-level reference, e.g. ``cli.adapt``
                refs = [(mod, key) for mod in modules
                        for key, value in vars(mod).items() if value is original]
                for mod, key in refs:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapper)
        for key, attr in (("manifold.eigh_mats", "eigh"),
                          ("manifold.eigvalsh_mats", "eigvalsh")):
            original = getattr(np.linalg, attr)
            self._saved.append((np.linalg, attr, original))
            setattr(np.linalg, attr, self._eig(key, original))

    def remove(self):
        """Restore every wrapped attribute."""
        for mod, key, original in reversed(self._saved):
            setattr(mod, key, original)
        self._saved.clear()

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh)
            fh.write("\n")

    def layer_metrics(self, eigh_us, eigvalsh_us):
        """Per-operation means of every layer metric except the run-level ones."""
        sums = {k: 0.0 for k in LAYER_METRICS}
        for c in self.counters:
            for k, v in c.items():
                sums[k] += v
        children = collections.defaultdict(list)
        for idx, span in enumerate(self.spans):
            if span[3] is not None:
                children[span[3]].append(idx)
        totals = collections.Counter()
        calls = collections.Counter()
        manifold_s = 0.0
        for idx, (name, start, end, parent, _) in enumerate(self.spans):
            dur = end - start
            totals[name] += dur
            calls[name] += 1
            parent_name = self.spans[parent][0] if parent is not None else ""
            if name.startswith("manifold.") and not parent_name.startswith("manifold."):
                manifold_s += dur
            kids = [(self.spans[k][0], self.spans[k][2] - self.spans[k][1])
                    for k in children[idx]]
            own = dur - sum(d for _, d in kids)
            if name == "adaptation.adapt":
                sums["adaptation.adapt_s"] += dur
                sums["adaptation.self_s"] += own
                for (_, d), stage in zip(kids, _stages([n for n, _ in kids])):
                    sums[f"adaptation.{stage}_s"] += d
            elif name == "cli.main":
                sums["cli.self_s"] += own
        for metric, names in SPAN_TIMES.items():
            sums[metric] = sum(totals[n] for n in names)
        for metric, name in SPAN_CALLS.items():
            sums[metric] = calls[name]
        ops = len(self.counters)
        out = {k: v / ops for k, v in sums.items()}
        out["manifold.eigh_us"] = eigh_us
        out["manifold.eigvalsh_us"] = eigvalsh_us
        floor = (out["manifold.eigh_mats"] * eigh_us
                 + out["manifold.eigvalsh_mats"] * eigvalsh_us) * 1e-6
        out["manifold.eig_floor_s"] = floor
        out["manifold.floor_ratio"] = manifold_s / ops / floor if floor > 0 else 0.0
        return out


def eig_floor_us(dim, count=2048, repeats=5):
    """Best per-matrix time of batched ``eigh`` and ``eigvalsh`` at ``dim``."""
    rng = np.random.default_rng(0)
    G = rng.standard_normal((count, dim, dim))
    A = G @ np.swapaxes(G, -1, -2) / dim + 0.1 * np.eye(dim)
    best = {}
    for fn in (np.linalg.eigh, np.linalg.eigvalsh):
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fn(A)
            times.append(time.perf_counter() - start)
        best[fn.__name__] = min(times) / count * 1e6
    return best["eigh"], best["eigvalsh"]
