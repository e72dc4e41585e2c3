"""spdot benchmark: run one workload, check its outputs, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload pair-d16 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 perfbench/run.py --workload labels-d4 --seed 1 --seconds 5 --smoke

Load model: closed loop, one client.  One process runs one operation at a
time on one BLAS/OpenMP thread (pinned before numpy is imported), imports
the package from ``src/`` next to this directory, and builds its inputs from
``--seed`` alone.  Set-up is timed in two parts, each five times: the
imports, in fresh interpreters, and the rest (inputs, files, warm-up);
``setup_s`` is the sum of the two medians.  Operations then run until the
next one would overrun ``--seconds``.

Operations are timed in blocks of at least ``REF_BLOCK_S`` seconds, each
followed by a fixed reference computation that does not use the package
(see ``Reference``), and operation times are reported in reference seconds:
the operation's wall time times ``REF_S`` over the time of the reference
right after its block, i.e. what the operation would take on a host that
runs the reference in ``REF_S``.  The speed a shared host gives one
process drifts by a third and more within minutes, and the drift hits the
reference and the operation alike, so the ratio is what stays put from run
to run.  Set-up is scaled by the run's median ratio (its host speed): a
single reference timing beside an import is too noisy to scale it by.
Wall-clock values are printed in the summary line.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations on the same inputs and reports the per-layer
metrics (see ``spans.py``), writing the spans under ``perfbench/work/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--workload all`` runs every workload in its own process, one after another.
``--smoke`` runs the same operations and checks at reduced sizes.
"""

import os

THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
NAMES = ("pair-d16", "labels-d4", "cli-cosine")
# Seed kept out of every run made while writing a change, for the claim
# that must also hold on an unseen seed.
HOLDOUT_SEED = 7919
SETUP_ROUNDS = 5
MIN_OPS = 2
# Median time of ``Reference`` on the baseline host (Intel Xeon, 2 vCPUs,
# 1 BLAS thread); it only scales reference seconds to about wall seconds.
REF_S = 0.05
# Operations shorter than this share one reference timing (labels-d4 runs
# about 15 per block), so that the reference costs at most a tenth of a run.
REF_BLOCK_S = 0.5

END_TO_END = {
    "points_per_s": "points/s",
    "op_s_p50": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced sizes, same checks")
    return parser.parse_args(argv)


def provenance(seed, inputs):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": THREADS,
        "nproc": os.cpu_count(),
        "seed": seed,
        "holdout_seed": HOLDOUT_SEED,
        "inputs_sha256": inputs,
    }


class Reference:
    """A fixed computation, independent of the package, to gauge host speed.

    It mixes the kinds of work the workloads do: a batched ``einsum`` with a
    few-MB result (the cost kernel's kind), batched small ``eigh`` calls
    (the map's kind) and a pure-Python loop (the interpreter overhead of
    the small-matrix paths).  Its inputs are the same in every run.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(12345)
        self.np = np
        self.A = rng.standard_normal((56, 16, 16))
        G = rng.standard_normal((64, 8, 8))
        self.S = G @ np.swapaxes(G, -1, -2) + np.eye(8)
        self()  # first calls pay numpy's lazy set-up

    def __call__(self):
        """Seconds the reference computation takes now."""
        start = time.perf_counter()
        self.np.einsum("aij,bjk->abik", self.A, self.A, optimize=False)
        for _ in range(20):
            self.np.linalg.eigh(self.S)
        total = 0
        for k in range(150_000):
            total += k * k
        return time.perf_counter() - start


# Imports of one benchmark process, timed in a fresh interpreter: the
# import is the largest part of set-up and can only be repeated that way.
IMPORT_CODE = """
import sys, time
start = time.perf_counter()
sys.path[:0] = sys.argv[1:]
import spdot, spans, workloads
print(time.perf_counter() - start)
"""


def timed_import():
    """Seconds a fresh interpreter takes to import what the benchmark imports."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CODE, str(SRC), str(HERE)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(proc.stdout)


def timed_op(wl, i, tracer):
    """Run operation ``i``; returns (seconds, result or None, error or None)."""
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    try:
        result, error = wl.run(i), None
    except Exception as exc:  # noqa: BLE001 - any raise is a failed operation
        result, error = None, "".join(traceback.format_exception_only(exc)).strip()
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()
    return elapsed, result, error


def measure(wl, seconds, tracer, reference):
    """Run operations until the next would overrun ``seconds``.

    With a tracer, each input runs untraced and then traced.  Returns the
    untraced durations in wall and in reference seconds, the traced
    durations, the points adapted by operations that succeeded, and one
    problem string per failed operation.
    """
    plain, refs, traced, problems = [], [], [], []
    block = 0  # operations at the end of ``plain`` not yet given a reference
    points_ok = 0
    seen = {}  # instance -> (digest, problems) of its first output
    begin = time.perf_counter()
    i = 0
    while True:
        key = i % wl.count
        for t in ([None, tracer] if tracer is not None else [None]):
            elapsed, result, error = timed_op(wl, i, t)
            if t is None:
                plain.append(elapsed)
                block += 1
                if sum(plain[-block:]) >= REF_BLOCK_S:
                    refs += [reference()] * block
                    block = 0
            else:
                traced.append(elapsed)
            if error is None:
                digest = wl.digest(result)
                if key not in seen:
                    seen[key] = (digest, "; ".join(wl.check(i, result)) or None)
                first, error = seen[key]
                if digest != first:
                    error = f"instance {key}: output differs from its first run"
            if error is None:
                points_ok += wl.n
            else:
                problems.append(f"op {len(plain) + len(traced)}: {error}")
        i += 1
        spent = time.perf_counter() - begin
        last = sum(plain[-1:] + traced[-1:])
        if len(plain) + len(traced) >= MIN_OPS and spent + last > seconds:
            refs += [reference()] * block
            plain_ref = [w * REF_S / r for w, r in zip(plain, refs)]
            return plain, plain_ref, traced, points_ok, problems


def run_workload(args):
    sys.path.insert(0, str(SRC))
    import spdot

    if Path(spdot.__file__).resolve().parent != SRC / "spdot":
        sys.exit(f"error: imported spdot from {spdot.__file__}, not {SRC}")
    import spans as tracing
    import workloads

    imports = [timed_import() for _ in range(SETUP_ROUNDS)]

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    rounds, inputs = [], None
    for _ in range(SETUP_ROUNDS):
        t0 = time.perf_counter()
        digests = wl.setup(work)
        warm = workloads.WORKLOADS[args.workload](args.seed, smoke=True)
        warm.setup(work / "warm")
        warm.run(0)
        rounds.append(time.perf_counter() - t0)
        if inputs not in (None, digests):
            sys.exit("error: set-up is not deterministic in the seed")
        inputs = digests
    setup_wall = statistics.median(imports) + statistics.median(rounds)
    reference = Reference()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        eigh_us, eigvalsh_us = tracing.eig_floor_us(wl.dim)
    plain, plain_ref, traced, points_ok, problems = measure(
        wl, args.seconds, tracer, reference
    )
    failed = len(problems)
    attempted = len(plain) + len(traced)

    durations = plain + traced
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    summary = {
        "workload": args.workload,
        "ops": len(durations),
        "fail_frac": failed / attempted,
        "checks": "pass" if not problems else problems[:5],
    }
    if args.trace:
        metrics = tracer.layer_metrics(eigh_us, eigvalsh_us)
        metrics["trace.overhead_frac"] = sum(traced) / sum(plain) - 1.0
        metrics["transport.tight_fail_frac"] = workloads.LabelsD4(
            args.seed, args.smoke
        ).tight_fail_frac()
        spans_path = WORK / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(spans_path)
        summary["spans"] = str(spans_path.relative_to(ROOT))
        units = tracing.LAYER_METRICS
    else:
        host_speed = statistics.median(r / w for w, r in zip(plain, plain_ref))
        metrics = {
            "points_per_s": points_ok / sum(plain_ref),
            "op_s_p50": statistics.median(plain_ref),
            "setup_s": setup_wall * host_speed,
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END
        summary["op_s_samples"] = len(plain_ref)
        summary["op_s_min_q1_q2_q3_max"] = [
            min(plain_ref), *statistics.quantiles(plain_ref, n=4), max(plain_ref)
        ]
        summary["wall"] = {
            "points_per_s": points_ok / sum(plain),
            "op_s_p50": statistics.median(plain),
            "setup_s": setup_wall,
            "host_speed": host_speed,
        }
    shutil.rmtree(work, ignore_errors=True)

    for name, value in metrics.items():
        print(f"{args.workload:10s} {name:36s} {value:14.6g} {units[name]}")
    print(json.dumps({"summary": summary}))
    print(json.dumps({"provenance": provenance(args.seed, inputs)}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args):
    """Every workload in its own process; their outputs, then all results."""
    results, code = {}, 0
    for name in NAMES:
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        code = code or int(not results[name]["correct"])
    print(json.dumps(results))
    return code


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "spdot" / "__init__.py").is_file():
        print(f"error: no spdot package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
