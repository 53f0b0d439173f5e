#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes, in a few seconds.

For every workload it proves that the output check passes a correct pass and
reports failures once the reference is deliberately corrupted, and that a
traced pass yields only catalogued per-layer metrics.  It also checks that
BENCHMARK.json lists the metrics of metrics.py.  Run from the repository root:

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import importlib
import json
import sys

from metrics import END_TO_END, PER_LAYER, WORKLOADS
from proc import ROOT, SRC
from run import MODULES
from spans import Tracer


def check_workload(name: str) -> list[str]:
    wl = importlib.import_module(MODULES[name])
    work = wl.prepare(seed=7, tiny=True)
    out = wl.run_pass(work)
    attempted, failed = wl.check(work, out)
    problems = []
    if attempted < 1 or failed:
        problems.append(f"{name}: clean pass reported {failed} of {attempted} failed")
    wl.corrupt(work)
    attempted, failed = wl.check(work, out)
    if failed < 1:
        problems.append(f"{name}: corrupted reference went unnoticed ({attempted} attempted)")
    tr = Tracer()
    wl.run_pass(work, tr)
    unknown = set(wl.layer_metrics(work, tr, 1)) - {m.name for m in PER_LAYER}
    if unknown:
        problems.append(f"{name}: per-layer metrics missing from metrics.py: {sorted(unknown)}")
    print(f"{name}: clean pass ok, corrupted reference caught ({failed} of {attempted} failed)")
    return problems


def check_benchmark_json() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want_e2e = [{"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound} for m in END_TO_END]
    want_layer = [{"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER]
    problems = []
    if spec["end_to_end"] != want_e2e:
        problems.append("BENCHMARK.json end_to_end differs from metrics.END_TO_END")
    if spec["per_layer"] != want_layer:
        problems.append("BENCHMARK.json per_layer differs from metrics.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from metrics.WORKLOADS")
    return problems


def main() -> int:
    sys.path.insert(0, str(SRC))
    problems = check_benchmark_json()
    for name in WORKLOADS:
        problems += check_workload(name)
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
