#!/usr/bin/env bash
# The label solver through the console script.
#
# Usage: label_chain.sh DIR
#
# DIR holds the README chain's covariances at n=8 (cov_s, cov_t) and n=48
# (cov48_s, cov48_t).  The source sets are relabeled i % 3 and adapted with
# --solver sinkhorn-labels at uniform and KDE mass, on every CPU and on one;
# both runs must write the same bytes, and each report must show at least
# one Newton step, a dual gradient within 1e-9 and marginals within 1e-6.
set -euo pipefail
d=$1
python - "$d/cov_s/covariances.json" "$d/cov48_s/covariances.json" <<'PY'
import sys
from spdot import datasets
for path in sys.argv[1:]:
    ds = datasets.load_dataset(path)
    labels = [i % 3 for i in range(len(ds.matrices))]
    datasets.save_spd_dataset(path.replace(".json", "_labeled.json"),
                              ds.matrices, labels)
PY
for n in "" 48; do
  for mass in uniform kde; do
    run="labels${n}_$mass"
    args=("$d/cov${n}_s/covariances_labeled.json" "$d/cov${n}_t/covariances.json"
          --solver sinkhorn-labels --mass "$mass")
    spdot adapt "${args[@]}" --out "$d/$run"
    taskset -c 0 spdot adapt "${args[@]}" --out "$d/${run}_1cpu"
    for f in adapted.json plan.csv; do
      cmp "$d/$run/$f" "$d/${run}_1cpu/$f"
    done
    python - "$d/$run/report.json" <<'PY'
import json, sys
with open(sys.argv[1], encoding="utf-8") as fh:
    plan = json.load(fh)["diagnostics"]["plan"]
steps = plan["iterations"]
assert type(steps) is int and steps >= 1, plan
assert plan["dual_gradient"] <= 1e-9, plan
assert max(plan["marginal_residuals"]) <= 1e-6, plan
print(sys.argv[1], "Newton steps:", steps)
PY
  done
done
