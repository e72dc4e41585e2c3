"""What ``import spdot`` loads: numpy and the package, and SciPy and
``concurrent.futures`` only on use.

``scipy.optimize`` is never loaded: the exact solver uses
``scipy.sparse.csgraph``.

Checked in a fresh interpreter, because ``conftest`` imports SciPy into this
one.
"""

import subprocess
import sys
from pathlib import Path

import spdot

CHILD = """
import sys
sys.path.insert(0, sys.argv[1])
tmp = sys.argv[2]


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


import spdot, spdot.cli
assert not scipy_modules(), scipy_modules()
# the cost kernel's thread pool is built on first use
assert "concurrent.futures" not in sys.modules

import numpy as np
from spdot import datasets, transport
from spdot.adaptation import AdaptationConfig, adapt

rng = np.random.default_rng(0)
G = rng.standard_normal((12, 3, 3))
P = G @ G.transpose(0, 2, 1) / 3 + 0.1 * np.eye(3)
adapt(P[:6], P[6:], source_labels=[0, 0, 0, 1, 1, 1],
      config=AdaptationConfig(solver="sinkhorn-labels", lam=0.5, eta=0.05))
datasets.save_timeseries_dataset(tmp + "/ts.json", rng.standard_normal((4, 3, 20)))
assert spdot.cli.main(["covariance", tmp + "/ts.json", "--out", tmp + "/cov"]) == 0
assert "scipy.optimize" not in sys.modules, scipy_modules()

C = rng.random((5, 5))
plan = transport.exact_ot(C)
assert "scipy.sparse.csgraph" in sys.modules
assert sorted(np.argmax(plan.matrix, axis=1)) == list(range(5))
assert np.count_nonzero(plan.matrix) == 5

# the exact solver's commands: a comparison and a self-pair adapt
assert spdot.cli.main(["cosine", "--n", "6", "--channels", "3", "--out", tmp + "/cos"]) == 0
cov = tmp + "/cov/covariances.json"
assert spdot.cli.main(["covariance", tmp + "/cos/source_timeseries.json",
                       "--out", tmp + "/cov"]) == 0
assert spdot.cli.main(["adapt", cov, cov, "--solver", "exact", "--out", tmp + "/ad"]) == 0
assert "scipy.optimize" not in sys.modules, scipy_modules()
print("ok")
"""


def test_scipy_loads_only_where_called(tmp_path):
    src = str(Path(spdot.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, src, str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
