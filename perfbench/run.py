#!/usr/bin/env python3
"""Benchmark of pptalgebra: four workloads, checked outputs, traced per-layer splits.

Run from the repository root:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Workloads (see each module's docstring for why it was chosen): sweep, level,
deep and cli.  With --trace 0 a run reports the end-to-end metrics, measured
with no spans recorded; with --trace 1 it reports the per-layer metrics from
spans the benchmark takes around its own calls into the package, plus a
replay of the lower layers.  Traced runs write their spans and scaling
records to perfbench/out/.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  A readable summary, using the names
<workload>.<metric>, goes to stderr.  --workload all runs each workload in
its own process and reports their metrics under those names.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from metrics import END_TO_END, PER_LAYER, WORKLOADS
from proc import SRC, child_env, run_python
from spans import Tracer
from speed import CPU, PROCESS, Clock

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
MODULES = {"sweep": "sweep", "level": "level", "deep": "deep", "cli": "cliloop"}
SETUP_RUNS = 11


def log(line: str) -> None:
    print(line, file=sys.stderr, flush=True)


def measure_setup(wl, env: dict[str, str]) -> tuple[float, float]:
    """Median (wall, calibrated) seconds of a fresh process that imports pptalgebra and warms up."""
    code = "import pptalgebra as P\n" + wl.WARMUP
    walls, seconds = [], []
    for _ in range(SETUP_RUNS + 1):
        before = PROCESS.kernel()
        wall, done = run_python(["-c", code], env)
        if done.returncode != 0:
            raise RuntimeError(f"warm-up process failed:\n{done.stderr}")
        walls.append(wall)
        seconds.append(PROCESS.scaled(wall, before, PROCESS.kernel()))
    # the first process also writes bytecode caches
    return statistics.median(walls[1:]), statistics.median(seconds[1:])


def pin_to_one_cpu() -> None:
    """Keep this process and its children on one CPU, so the calibration
    kernel measures the core the timed work runs on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024  # Linux reports KiB


class Tally:
    """Checked passes: attempted and failed operations, and pass times.

    Untraced passes are timed by a calibrating Clock (`seconds`) as well as
    by wall time; traced passes by wall time only.
    """

    def __init__(self, wl, work) -> None:
        self.wl, self.work = wl, work
        self.attempted = self.failed = 0
        self.walls: list[float] = []
        self.seconds: list[float] = []
        self.latencies: list[float] = []
        self.note = ""

    def run(self, tr=None) -> None:
        clock = Clock(getattr(self.wl, "CALIBRATION", CPU)) if tr is None else None
        t0 = time.perf_counter()
        try:
            out = self.wl.run_pass(self.work, tr, clock and clock.tick)
        except Exception:  # a pass that raises fails all of its operations
            log(traceback.format_exc())
            out = None
        wall = time.perf_counter() - t0
        if clock is not None:
            clock.stop()
            wall = clock.wall
            self.seconds.append(clock.seconds)
        self.walls.append(wall)
        if out is None:
            self.attempted += self.work.items
            self.failed += self.work.items
            return
        attempted, failed = self.wl.check(self.work, out)
        self.attempted += attempted
        self.failed += failed
        if hasattr(self.wl, "latencies"):
            self.latencies += self.wl.latencies(out)
        self.note = self.wl.summary(self.work, out)


def _values(metrics: dict[str, float], catalogue) -> dict:
    units = {m.name: m.unit for m in catalogue}
    return {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}


def run_untraced(name: str, wl, work, seconds: float, setup: tuple[float, float]) -> tuple[Tally, dict]:
    tally = Tally(wl, work)
    deadline = time.perf_counter() + seconds
    while not tally.walls or time.perf_counter() < deadline:
        tally.run()
    rss = peak_rss_mb(children=name == "cli")
    pass_s, pass_wall = statistics.median(tally.seconds), statistics.median(tally.walls)
    metrics = {"setup_s": setup[1], "items_per_s": work.items / pass_s, "peak_rss_mb": rss}
    log(f"{name}: {work.items} {wl.ITEMS} per pass, {len(tally.walls)} passes; {tally.note}")
    log(f"  {name}.{wl.ITEMS}_per_s = {metrics['items_per_s']:.6g} 1/s (wall: {work.items / pass_wall:.6g})")
    log(f"  {name}.pass_s = {pass_s:.6g} s (wall: {pass_wall:.6g}; median of {len(tally.walls)})")
    log(f"  {name}.peak_rss_mb = {rss:.6g} MB")
    log(f"  {name}.fail_frac = {tally.failed / max(tally.attempted, 1):.6g} ({tally.failed} of {tally.attempted})")
    log(f"  {name}.setup_s = {setup[1]:.6g} s (wall: {setup[0]:.6g}; median of {SETUP_RUNS})")
    if tally.latencies:
        lat = sorted(tally.latencies)
        p90 = statistics.quantiles(lat, n=10, method="inclusive")[-1]
        log(f"  {name}.p50_ms = {1e3 * statistics.median(lat):.6g} ms, {name}.p90_ms = {1e3 * p90:.6g} ms ({len(lat)} requests)")
    return tally, _values(metrics, END_TO_END)


def run_traced(name: str, wl, work, seconds: float) -> tuple[Tally, dict]:
    """Untraced and traced passes in turn until `seconds` are up; the untraced
    ones give the overhead ratio."""
    deadline = time.perf_counter() + seconds
    plain, tally = Tally(wl, work), Tally(wl, work)
    tr = Tracer()
    while not tally.walls or time.perf_counter() < deadline:
        if len(plain.walls) == len(tally.walls):
            plain.run()
            continue
        i = tr.begin(name + ".pass")
        tally.run(tr)
        tr.finish(i)
    metrics = {m.name: 0.0 for m in PER_LAYER}
    metrics.update(wl.layer_metrics(work, tr, len(tally.walls)))
    metrics["trace.overhead_ratio"] = statistics.median(tally.walls) / statistics.median(plain.walls)
    tally.attempted += plain.attempted
    tally.failed += plain.failed
    spans_path, scaling_path = OUT_DIR / f"{name}.spans.csv", OUT_DIR / f"{name}.scaling.json"
    tr.write(spans_path)
    scaling_path.write_text(json.dumps(tr.scaling(), indent=1) + "\n")
    log(f"{name} traced: {len(tally.walls)} traced passes; spans in {spans_path}, scaling records in {scaling_path}")
    for m in PER_LAYER:
        if name in m.workloads:
            log(f"  {m.name} = {metrics[m.name]:.6g} {m.unit}  -> {m.moves}")
    return tally, _values(metrics, PER_LAYER)


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS and imports stay separate."""
    merged: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            log(f"{name}: exited {done.returncode} without a result")
            return 1
        result = json.loads(lines[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        merged.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": merged}))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "pptalgebra" / "__init__.py").is_file():
        log(f"perfbench: no package at {SRC / 'pptalgebra'}; run it from a checkout of the repository")
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    name = args.workload
    wl = importlib.import_module(MODULES[name])
    setup = (0.0, 0.0) if args.trace else measure_setup(wl, child_env())
    work = wl.prepare(args.seed)
    if args.trace:
        tally, metrics = run_traced(name, wl, work, args.seconds)
    else:
        tally, metrics = run_untraced(name, wl, work, args.seconds, setup)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
