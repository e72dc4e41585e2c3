"""Tests of the benchmark itself, at smoke sizes.

Run from the repository root::

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    proc = subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )
    return proc


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_the_declared_metrics(name, trace):
    proc = bench("--workload", name, "--seed", "3", "--seconds", "0.1",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 2
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        stages = sum(m[f"adaptation.{s}_s"] for s in ("mass", "cost", "plan", "map", "self"))
        assert stages == pytest.approx(m["adaptation.adapt_s"], rel=1e-9)
    else:
        assert all(v > 0 for v in m.values())


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "__pycache__"))
    proc = bench("--workload", "pair-d16", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_restores_every_wrapped_function():
    import spdot.cli
    from spdot import adaptation, manifold

    before = (adaptation.adapt, spdot.cli.adapt, manifold.check_spd, np.linalg.eigh)
    tracer = spans.Tracer()
    tracer.install()
    assert spdot.cli.adapt is not before[1]
    tracer.remove()
    assert (adaptation.adapt, spdot.cli.adapt, manifold.check_spd, np.linalg.eigh) == before


def test_pair_check_rejects_a_perturbed_output():
    wl = workloads.PairD16(seed=3, smoke=True)
    wl.setup(None)
    result = wl.run(0)
    assert wl.check(0, result) == []
    result.adapted_source[0, 0, 0] = np.nextafter(result.adapted_source[0, 0, 0], 2.0)
    assert wl.check(0, result) == ["adapted points differ from their assigned targets"]


def test_labels_check_rejects_a_moved_mean_and_broken_marginals():
    wl = workloads.LabelsD4(seed=3, smoke=True)
    wl.setup(None)
    result = wl.run(0)
    assert wl.check(0, result) == []
    adapted = result.adapted_source.copy()
    adapted *= 1.0 + 1e-6
    gamma = result.plan.matrix.copy()
    gamma[0, 0] += 1e-5
    uniform = np.full(wl.n, 1.0 / wl.n)
    assert workloads.check_marginals(gamma, uniform, uniform)
    assert workloads.check_karcher(adapted, wl.items[0][1], result.plan.matrix, [0])


def test_every_operation_is_counted_against_the_reference_after_its_block():
    class Sleeper:
        n, count = 1, 1

        def run(self, i):
            time.sleep(0.01)
            return i

        def digest(self, result):
            return "same"

        def check(self, i, result):
            return []

    readings = []

    def reference():  # a host twice as fast as the baseline
        readings.append(run.REF_S / 2)
        return readings[-1]

    plain, plain_ref, traced, points_ok, problems = run.measure(
        Sleeper(), 1.2, None, reference
    )
    assert problems == [] and traced == [] and points_ok == len(plain)
    assert 2 <= len(readings) < len(plain) / 10
    assert plain_ref == pytest.approx([2 * w for w in plain], rel=1e-12)
