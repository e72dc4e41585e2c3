"""Command-line front end: dataset I/O, experiment drivers, reports.

Subcommands::

    spdot adapt SOURCE TARGET --out DIR [--solver ...] [--mass ...] ...
    spdot toy-a   --out DIR [--n 50] [--grid 64] [--seed 0]
    spdot toy-b   --out DIR [--n 20] [--grid 256] [--theta-star 1.0] [--seed 0]
    spdot cosine  --out DIR [--n 40] [--channels 5] [--samples 101] [--ts 0.01] [--seed 0]
    spdot covariance TIMESERIES --out DIR

Exit codes: 0 success; 2 an input was rejected (a bad file or flag, an
argument a library call checks before computing, such as ``--n 0`` or
``--grid 0``, or an ``--out`` that cannot be a directory); 3 a computation
failed (``adapt`` names the pipeline step).  ``adapt``'s transport cost is
the squared geodesic distance; the Euclidean costs are compared by
``cosine``.
One rule in :func:`main` decides: an :class:`InvalidInput` that names no
pipeline step exits 2, and every other :class:`SpdotError` exits 3.
A command creates its ``--out`` directory only after its computation
succeeded, so a rejected or failed run leaves none.  Every command writes a
``report.json`` echoing its configuration, seeds, and input digests (the
SHA-256 of the bytes it parsed; an input that is not UTF-8 JSON exits 2), so
any run can be reproduced from its report.  Data files are deterministic for
a fixed seed and reload bit-exactly: a JSON dataset is one line of compact
JSON (see :mod:`spdot.datasets`), and CSV plans and curves write floats with
17 significant digits.
"""

import argparse
import dataclasses
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__, datasets, experiments, transport
from .adaptation import MASSES, SOLVERS, AdaptationConfig, adapt
from .errors import InvalidInput, SpdotError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SOLVER = 3


def _fmt(x):
    x = float(x)
    return "nan" if math.isnan(x) else format(x, ".17g")


_CURVE_HEADER = ["theta", "recovery_error", "diagonal_mass", "objective"]


def _write_csv(path, rows, header=None):
    """Write ``header``, if given, then ``rows``: strings as they are, numbers by ``_fmt``."""
    with open(path, "w", encoding="utf-8") as fh:
        if header is not None:
            fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(v if isinstance(v, str) else _fmt(v) for v in row) + "\n")


def _run(args, compute, write, config=None, inputs=()):
    """Finish a command: time its computation, then write ``--out``.

    An ``--out`` that is, or runs through, an existing non-directory is
    rejected (:class:`InvalidInput`) before ``compute()`` runs.
    ``compute()`` alone is timed, as ``timings.total_s``.  Only once it has
    returned is ``--out`` created (:class:`InvalidInput` if it cannot be)
    and ``write(out, result)`` called; that writes the data files and
    returns the report body, whose ``"timings"`` entry, if any, joins
    ``total_s``.  ``report.json`` echoes ``config`` (by default every
    parsed flag but ``--out``) and, per ``(path, dataset)`` input, its ``sha256``.
    """
    out = Path(args.out)
    for path in (out, *out.parents):
        if path.exists() and not path.is_dir():
            raise InvalidInput(f"--out {out}: {path} is not a directory")
    start = time.perf_counter()
    result = compute()
    elapsed = time.perf_counter() - start
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # no permission, or a file made since the check
        raise InvalidInput(f"--out {out}: {exc.strerror}") from exc
    body = write(out, result)
    if config is None:
        config = {k: v for k, v in vars(args).items()
                  if k not in ("command", "func", "out")}
    timings = {"total_s": elapsed, **body.pop("timings", {})}
    report = {
        "artifact": {"name": "spdot", "version": __version__},
        "command": args.command,
        "config": config,
        "inputs": {str(p): {"sha256": ds.sha256} for p, ds in inputs},
        **body,
        "timings": timings,
    }
    with open(out / "report.json", "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, allow_nan=False)
        fh.write("\n")
    return EXIT_OK


def _exit_code(exc):
    # stage errors carry their step; any other InvalidInput rejects an argument
    argument_error = isinstance(exc, InvalidInput) and exc.pipeline_step is None
    return EXIT_INPUT if argument_error else EXIT_SOLVER


def _theta_grid(size, stop, endpoint=True):
    """``size`` evenly spaced angles from 0 to ``stop``, at least one."""
    if size < 1:
        raise InvalidInput(f"--grid must be at least 1, got {size}")
    return np.linspace(0.0, stop, size, endpoint=endpoint)


def _auto_or_float(value):
    if value == "auto":
        return value
    try:
        return float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"lambda must be 'auto' or a number, got {value!r}")


def cmd_adapt(args):
    """Adapt a source SPD dataset onto a target one."""
    inputs = [(path, datasets.load_dataset(path)) for path in (args.source, args.target)]
    for path, ds in inputs:
        if not isinstance(ds, datasets.SpdDataset):
            raise InvalidInput(f"{path}: expected an 'spd' dataset")
    (_, source), (_, target) = inputs
    # each option but --out sets its config field; metric and top_k have no flag
    fields = {f.name for f in dataclasses.fields(AdaptationConfig)}
    config = AdaptationConfig(**{k: v for k, v in vars(args).items() if k in fields})
    labels = source.labels if config.solver == "sinkhorn-labels" else None

    def write(out, result):
        datasets.save_spd_dataset(out / "adapted.json", result.adapted_source, source.labels)
        _write_csv(out / "plan.csv", result.plan.matrix)
        return {
            "lambda_used": result.lambda_used,
            "eta_used": result.eta_used,
            "diagnostics": result.diagnostics,
            "timings": {"stage_s": result.stage_s},
        }

    return _run(
        args, lambda: adapt(source.matrices, target.matrices, labels, config), write,
        dataclasses.asdict(config), inputs,
    )


def cmd_toy_a(args):
    """Sweep the congruence-recovery experiment over rotation angles."""
    def compute():
        grid = _theta_grid(args.grid, np.pi)
        return experiments.toy_a_sweep(n=args.n, theta_grid=grid, seed=args.seed)

    def write(out, results):
        rows = [(t, r.recovery_error, r.diagonal_mass, r.objective) for t, r in results]
        _write_csv(out / "toy_a.csv", rows, _CURVE_HEADER)
        worst = max(results, key=lambda item: item[1].recovery_error)
        return {
            "rows": len(results),
            "recovery_error_at_zero": results[0][1].recovery_error,
            "worst_recovery_error": {"theta": worst[0], "value": worst[1].recovery_error},
        }

    return _run(args, compute, write)


def cmd_toy_b(args):
    """Grid-search the rotation removing an unknown orthogonal component."""
    def compute():
        grid = _theta_grid(args.grid, 2.0 * np.pi, endpoint=False)
        source = experiments.isotropic_spd_cloud(args.n, seed=args.seed)
        truth = experiments.CongruenceMap(experiments.DEFAULT_T, args.theta_star)
        target = experiments.apply_congruence(truth, source)
        return experiments.toy_b_search(source, target, grid)

    def write(out, search):
        best_theta, curve, best_plan = search
        rows = [(t, r.recovery_error, r.diagonal_mass, r.objective) for t, r in curve]
        _write_csv(out / "toy_b.csv", rows, _CURVE_HEADER)
        return {
            "rows": len(curve),
            "best_theta": best_theta,
            "best_objective": dict(curve)[best_theta].objective,
            "best_diagonal_mass": transport.diagonal_mass(best_plan.matrix),
            "objective_at_zero": curve[0][1].objective,
        }

    return _run(args, compute, write)


def cmd_cosine(args):
    """Generate paired cosine trials and compare the three cost constructions."""
    def compute():
        xs, zs = experiments.cosine_trials(
            n=args.n, channels=args.channels, samples=args.samples,
            ts=args.ts, seed=args.seed,
        )
        return xs, zs, experiments._compare_configs(xs, zs)

    def write(out, trials):
        xs, zs, reports = trials
        datasets.save_timeseries_dataset(out / "source_timeseries.json", xs)
        datasets.save_timeseries_dataset(out / "target_timeseries.json", zs)
        _write_csv(
            out / "cosine.csv",
            [(name, rep.diagonal_mass, rep.objective) for name, rep in reports.items()],
            ["config", "diagonal_mass", "objective"],
        )
        return {
            "diagonal_mass": {name: rep.diagonal_mass for name, rep in reports.items()},
        }

    return _run(args, compute, write)


def cmd_covariance(args):
    """Convert a timeseries dataset to per-trial covariance matrices."""
    ds = datasets.load_dataset(args.timeseries)
    if not isinstance(ds, datasets.TimeseriesDataset):
        raise InvalidInput(f"{args.timeseries}: expected a 'timeseries' dataset")

    def write(out, computed):
        matrices, ridges = computed
        datasets.save_spd_dataset(out / "covariances.json", matrices, ds.labels)
        return {
            "trials": len(ridges),
            "ridged_trials": [i for i, r in enumerate(ridges) if r > 0],
        }

    return _run(
        args, lambda: experiments.covariances(ds.trials, return_ridges=True), write,
        {}, [(args.timeseries, ds)],
    )


@functools.cache  # parse_args leaves the parser as it was, so one per process
def build_parser():
    parser = argparse.ArgumentParser(
        prog="spdot",
        description="Optimal-transport domain adaptation for SPD matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the defaults live in AdaptationConfig: a flag not given sets nothing
    p = sub.add_parser(
        "adapt", help="adapt a source SPD dataset onto a target",
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("source", help="source dataset (kind 'spd')")
    p.add_argument("target", help="target dataset (kind 'spd')")
    p.add_argument("--solver", choices=SOLVERS)
    p.add_argument("--lambda", dest="lam", type=_auto_or_float)
    p.add_argument("--eta", type=float)
    p.add_argument("--mass", choices=MASSES)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_adapt)

    p = sub.add_parser("toy-a", help="rotation sweep of the congruence recovery study")
    p.add_argument("--n", type=int, default=50)
    p.add_argument("--grid", type=int, default=experiments.TOY_A_GRID_SIZE)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_toy_a)

    p = sub.add_parser("toy-b", help="grid search for the hidden rotation")
    p.add_argument("--n", type=int, default=20)
    p.add_argument("--grid", type=int, default=experiments.TOY_B_GRID_SIZE)
    p.add_argument("--theta-star", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_toy_b)

    p = sub.add_parser("cosine", help="paired cosine trials and cost comparison")
    p.add_argument("--n", type=int, default=40)
    p.add_argument("--channels", type=int, default=5)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--ts", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_cosine)

    p = sub.add_parser("covariance", help="timeseries dataset to covariance dataset")
    p.add_argument("timeseries", help="dataset (kind 'timeseries')")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_covariance)

    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SpdotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
