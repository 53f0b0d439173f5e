"""The benchmark's metrics: units, direction, bounds, and what each layer metric should move.

BENCHMARK.json at the repository root lists the same names, units and
directions; smoke.py checks that the two agree.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = ("sweep", "level", "deep", "cli")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end only: allowed worsening, as a share of the parent's median
    workloads: tuple[str, ...] = WORKLOADS  # where a layer metric is measured (0 elsewhere)
    moves: str = ""  # the end-to-end metric, on which workload, that a change here should move


END_TO_END = (
    # Fresh process from start to ready (import pptalgebra plus the workload's
    # warm-up), median of several per run.  Widest bound: it is the noisiest.
    Metric("setup_s", "s", "lower", 0.25),
    # Triples per second (sweep, level) or requests per second (deep, cli),
    # from the median pass.
    Metric("items_per_s", "1/s", "higher", 0.20),
    # Peak resident set of the process doing the work: the benchmark process,
    # or for cli the largest `ppt` child process.
    Metric("peak_rss_mb", "MB", "lower", 0.10),
)

_SWEEP = "items_per_s on sweep"
_LEVEL = "items_per_s on level"
_DEEP = "items_per_s on deep"
_CLI = "items_per_s on cli"

PER_LAYER = (
    Metric("tree.iter_by_hypotenuse.s", "s", "lower", workloads=("sweep",), moves=_SWEEP),
    Metric("tree.enumerate_level.s", "s", "lower", workloads=("level",), moves=_LEVEL),
    Metric("tree.locate.s.mixed", "s", "lower", workloads=("deep",), moves=_DEEP),
    Metric("tree.locate.s.bheavy", "s", "lower", workloads=("deep",), moves=_DEEP + "; batching B runs moves this, not .mixed"),
    Metric("tree.locate.s.astro", "s", "lower", workloads=("deep",), moves=_DEEP),
    Metric("tree.apply_path.s", "s", "lower", workloads=("deep",), moves=_DEEP),
    Metric("tree.derivative_location.s", "s", "lower", workloads=("deep",), moves=_DEEP + "; an O(log n) pell moves this"),
    Metric("tree.family_generator.s", "s", "lower", workloads=("deep",), moves=_DEEP + "; an O(log n) pell moves this"),
    Metric("tree.locate.in_bits", "bits", "lower", workloads=("deep",), moves="none: mean input size of the locate calls"),
    Metric("tree.locate.calls", "count", "lower", workloads=("deep",), moves="none: locate calls per pass"),
    Metric("symphonic.is_derivative.s", "s", "lower", workloads=("sweep",), moves=_SWEEP),
    Metric("symphonic.is_derivative.calls", "count", "lower", workloads=("sweep",), moves="none: calls per pass"),
    Metric("symphonic.is_derivative.hit_ratio", "ratio", "higher", workloads=("sweep",), moves="none: preimages found per call, 337/318278"),
    Metric("symphonic.QuadraticSurd.s", "s", "lower", workloads=("sweep",), moves=_SWEEP + " (replay)"),
    Metric("symphonic.anti_derivative.s.big", "s", "lower", workloads=("deep",), moves=_DEEP),
    Metric("symphonic.QuadraticSurd.s.gcd", "s", "lower", workloads=("deep",), moves=_DEEP + "; a gcd-only normalisation moves this"),
    Metric("generators.generators_of.s", "s", "lower", workloads=("sweep",), moves=_SWEEP + " (replay)"),
    Metric("generators.KeySequence.s", "s", "lower", workloads=("sweep", "level"), moves=_SWEEP + ", " + _LEVEL + " (replay)"),
    Metric("generators.triple_from_key.s", "s", "lower", workloads=("sweep", "level"), moves=_SWEEP + ", " + _LEVEL + " (replay)"),
    Metric("triple_core.make_ppt.s", "s", "lower", workloads=("sweep",), moves=_SWEEP + ", " + _CLI + " (replay)"),
    Metric("triple_core.PPT.s", "s", "lower", workloads=("sweep", "level"), moves=_SWEEP + ", " + _LEVEL + " (replay)"),
    Metric("cli.p50_ms", "ms", "lower", workloads=("cli",), moves=_CLI),
    Metric("cli.p90_ms", "ms", "lower", workloads=("cli",), moves=_CLI),
    Metric("cli.import_ms", "ms", "lower", workloads=("cli",), moves="setup_s on every workload, " + _CLI),
    Metric("cli.run_ms", "ms", "lower", workloads=("cli",), moves=_CLI),
    Metric("cli.startup_ms", "ms", "lower", workloads=("cli",), moves=_CLI),
    Metric("cli.out_bytes", "bytes", "lower", workloads=("cli",), moves=_CLI + " (p90 requests are the big outputs)"),
    Metric("cli.fail.ValueError", "count", "lower", workloads=("cli",), moves="none: limit probes outside the mix; a fix lets them join it"),
    Metric("cli.fail.traceback", "count", "lower", workloads=("cli",), moves="none: limit probes outside the mix; a fix lets them join it"),
    Metric("trace.overhead_ratio", "ratio", "lower", moves="none: traced over untraced pass time"),
)
