"""sweep: every PPT with hypotenuse <= 10**6, each through both is_derivative kinds.

This is acceptance criterion 7's sweep.  Every integer stays below 2**41, so
the time is per-object Python overhead (validation, Fraction reduction, surd
construction), not big-integer arithmetic.  It never calls locate.  The input
is fixed by the bound; the seed does not change it.
"""

from __future__ import annotations

from dataclasses import dataclass

import pptalgebra as P
import reference as R
from replay import replay_triples

ITEMS = "triples"
BOUND = 10**6
TINY_BOUND = 3_000
WARMUP = "for t in P.iter_by_hypotenuse(2000): P.is_derivative(t, P.DerivativeKind.MINOR)"

MAJOR, MINOR = P.DerivativeKind.MAJOR, P.DerivativeKind.MINOR


@dataclass
class Work:
    bound: int
    count: int  # reference: number of triples
    csum: int  # reference: sum of hypotenuses
    majors: set  # reference: major images with hypotenuse <= bound
    minors: set

    @property
    def items(self) -> int:
        return self.count


def prepare(seed: int, tiny: bool = False) -> Work:
    bound = TINY_BOUND if tiny else BOUND
    count = csum = 0
    for t in R.ppts_upto(bound):
        count += 1
        csum += t[2]
    return Work(bound, count, csum, *R.derivative_images(bound))


def run_pass(work: Work, tr=None, tick=None):
    """Returns (triples seen, hypotenuse sum, [(t, major preimage, minor preimage)] hits)."""
    is_derivative = P.is_derivative
    n = csum = 0
    hits = []
    if tr is None:
        for t in P.iter_by_hypotenuse(work.bound):
            n += 1
            if tick is not None and not n & 1023:
                tick()
            csum += t.c
            x = is_derivative(t, MAJOR)
            y = is_derivative(t, MINOR)
            if x is not None or y is not None:
                hits.append((t, x, y))
        return n, csum, hits
    begin, finish = tr.begin, tr.finish
    it = P.iter_by_hypotenuse(work.bound)
    while True:
        i = begin("tree.iter_by_hypotenuse")
        t = next(it, None)
        finish(i)
        if t is None:
            break
        n += 1
        csum += t.c
        i = begin("symphonic.is_derivative")
        x = is_derivative(t, MAJOR)
        finish(i)
        i = begin("symphonic.is_derivative")
        y = is_derivative(t, MINOR)
        finish(i)
        if x is not None or y is not None:
            hits.append((t, x, y))
    found = sum((x is not None) + (y is not None) for _, x, y in hits)
    tr.counts["symphonic.is_derivative.found"] = tr.counts.get("symphonic.is_derivative.found", 0) + found
    return n, csum, hits


def check(work: Work, out) -> tuple[int, int]:
    """(attempted, failed) triples.

    Each preimage returned must map back onto its triple under the inline
    formula [c(a+b), ab, c^2 +- ab]; the sets of triples reported as major and
    minor derivatives must equal the reference sets (139 and 198 at 10**6,
    with none in both).
    """
    n, csum, hits = out
    failed = abs(n - work.count) + (csum != work.csum)
    majors, minors = set(), set()
    for t, x, y in hits:
        tt = (t.a, t.b, t.c)
        for pre, formula, seen in ((x, R.major, majors), (y, R.minor, minors)):
            if pre is None:
                continue
            seen.add(tt)
            if formula((pre.a, pre.b, pre.c)) != tt:
                failed += 1
    failed += len(majors ^ work.majors) + len(minors ^ work.minors)
    return work.count, min(failed, work.count)


def corrupt(work: Work) -> None:
    work.majors = set(list(work.majors)[1:])


def summary(work: Work, out) -> str:
    _, _, hits = out
    majors = sum(1 for _, x, _ in hits if x is not None)
    minors = sum(1 for _, _, y in hits if y is not None)
    both = sum(1 for _, x, y in hits if x is not None and y is not None)
    return f"major {majors}, minor {minors}, both {both}"


def layer_metrics(work: Work, tr, passes: int) -> dict[str, float]:
    totals = tr.totals()
    isd_s, isd_calls = totals.get("symphonic.is_derivative", (0.0, 0))
    found = tr.counts.get("symphonic.is_derivative.found", 0)
    metrics = {
        "tree.iter_by_hypotenuse.s": totals.get("tree.iter_by_hypotenuse", (0.0, 0))[0] / passes,
        "symphonic.is_derivative.s": isd_s / passes,
        "symphonic.is_derivative.calls": isd_calls / passes,
        "symphonic.is_derivative.hit_ratio": found / isd_calls if isd_calls else 0.0,
    }
    metrics.update(
        replay_triples(
            P.iter_by_hypotenuse(work.bound),
            (
                "triple_core.PPT.s",
                "triple_core.make_ppt.s",
                "generators.generators_of.s",
                "generators.KeySequence.s",
                "generators.triple_from_key.s",
                "symphonic.QuadraticSurd.s",
            ),
        )
    )
    return metrics
