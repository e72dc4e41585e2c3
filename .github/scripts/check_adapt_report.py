"""Check the layout of an ``spdot adapt`` report.

Usage: python check_adapt_report.py REPORT.json SOURCE.json

The report is strict JSON; its diagnostics hold the "plan" and "map"
sections and its timings the wall seconds of the four stages.  The map
gives one residual bound per row of the SOURCE dataset, each at most
1e-10, and counts its certified rows as an int in [0, n].
"""

import json
import sys


def reject(name):
    raise ValueError(f"{name} in {sys.argv[1]}")


with open(sys.argv[1], encoding="utf-8") as fh:
    report = json.load(fh, parse_constant=reject)
assert set(report["diagnostics"]) == {"plan", "map"}, report["diagnostics"]
stages = report["timings"]["stage_s"]
assert set(stages) == {"mass", "cost", "plan", "map"}, stages
with open(sys.argv[2], encoding="utf-8") as fh:
    n = len(json.load(fh)["matrices"])
m = report["diagnostics"]["map"]
assert len(m["residuals"]) == n and max(m["residuals"]) <= 1e-10, m
c = m["certified_rows"]
assert type(c) is int and 0 <= c <= n, m
