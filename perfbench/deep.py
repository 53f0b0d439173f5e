"""deep: a seeded set of big-integer navigation requests, laddered in size.

Four request classes, with sizes from about 10**2 to 10**5 bits:

- apply_path -> locate round trips on three code shapes: `mixed` (short
  random runs), `bheavy` (Fermat-like long B runs, which locate takes one B
  at a time) and `astro` (A/C runs of 10**6 to 10**30, which locate batches);
- family_generator, derivative_location and apply_path of that location, for
  all three families and both kinds over a geometric ladder of indices (the
  Fermat ones run the O(n) Pell loop);
- anti_derivative of the large triples those requests produce;
- direct QuadraticSurd(u, d, v) constructions whose shared factor of u and v
  climbs a ladder (the normalisation searches downward from it).

It skips the per-object overhead that dominates the sweep.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pptalgebra as P
import reference as R
from spans import NullTracer

ITEMS = "requests"
WARMUP = "P.locate(P.apply_path(P.ROOT_GENERATOR, P.PathCode.parse('A B^40 C^9 A')))"

KINDS = {"major": P.DerivativeKind.MAJOR, "minor": P.DerivativeKind.MINOR}
SHAPES = ("mixed", "bheavy", "astro")
# full size, then the tiny size the smoke check uses
CODE_BITS = ((128, 1024, 8192, 32768, 65536), (64, 256))
FERMAT_INDEX = ((10, 100, 1000, 5000, 20_000), (5, 20))
LINE_INDEX = ((10**2, 10**6, 10**12, 10**24), (10, 1000))
SURD_FACTOR = ((10**2, 10**3, 10**4, 10**5, 10**6), (10, 100))
# A prime larger than every shared factor above, so no candidate's square
# divides it and the normalisation has to scan down to the planted factor.
SURD_PRIME = 2_147_483_647


@dataclass
class Request:
    kind: str  # roundtrip, family, anti or surd
    shape: str  # code shape, family line or derivative kind
    size: int  # input bit length, for the scaling records
    args: tuple
    expect: tuple


@dataclass
class Work:
    requests: list[Request]

    @property
    def items(self) -> int:
        return len(self.requests)


def _surd(rng: random.Random, factor: int) -> Request:
    k = rng.choice((1, 2, 3, 6))
    g = k * (factor // k + rng.randrange(factor // k))
    x, y = rng.randrange(1, 10**6), rng.randrange(1, 10**6)
    while math.gcd(x, y) != 1:
        y += 1
    x *= rng.choice((1, -1))
    sign = rng.choice((1, -1))
    args = (g * x, SURD_PRIME * k * k, g * y, sign)
    return Request("surd", "gcd", g.bit_length(), args, (g * x // k, SURD_PRIME, g * y // k, sign))


def _anti(t: tuple[int, int, int], kind: str, shape: str) -> Request:
    q, p = R.generators(t)[0].as_integer_ratio()
    hyp = p - q if kind == "major" else p + q
    return Request("anti", shape, t[2].bit_length(), (t, kind), (hyp, R.anti_integral(t, kind)))


def prepare(seed: int, tiny: bool = False) -> Work:
    rng = random.Random(seed)
    size = 1 if tiny else 0
    requests: list[Request] = []
    for shape in SHAPES:
        for bits in CODE_BITS[size]:
            runs, (q, p) = R.random_code(rng, shape, bits)
            requests.append(Request("roundtrip", shape, p.bit_length(), runs, ((q, p), R.merge_runs(runs))))
            requests.append(_anti(R.triple_of(q, p), rng.choice(tuple(KINDS)), "random"))
    for line in ("platonic", "pythagorean", "fermat"):
        ladder = FERMAT_INDEX[size] if line == "fermat" else LINE_INDEX[size]
        for base in ladder:
            n = base + rng.randrange(base // 10 + 1)
            q, p = R.family_generator(line, n)
            member = R.triple_of(q, p)
            for kind, formula in (("major", R.major), ("minor", R.minor)):
                d = formula(member)
                dq, dp = R.generators(d)[0].as_integer_ratio()
                requests.append(Request("family", line, n.bit_length(), (line, n, kind), ((q, p), (dq, dp))))
                requests.append(_anti(d, kind, "derived"))
    requests += [_surd(rng, f) for f in SURD_FACTOR[size]]
    return Work(requests)


def _serve(r: Request, tr):
    if r.kind == "roundtrip":
        code = P.PathCode(r.args)
        with tr.span("tree.apply_path", (r.shape, r.size)):
            f = P.apply_path(P.ROOT_GENERATOR, code)
        with tr.span("tree.locate." + r.shape, (r.shape, r.size)):
            back = P.locate(f)
        return (f.numerator, f.denominator), back.runs
    if r.kind == "family":
        line, n, kind = r.args
        fam = P.Family(P.FamilyLine(line), n)
        with tr.span("tree.family_generator", (line, n)):
            g = P.family_generator(fam)
        with tr.span("tree.derivative_location", (line + "." + kind, n)):
            where = P.derivative_location(fam, KINDS[kind])
        with tr.span("tree.apply_path", (line + "." + kind, n)):
            d = P.apply_path(P.ROOT_GENERATOR, where)
        return (g.numerator, g.denominator), (d.numerator, d.denominator)
    if r.kind == "anti":
        t, kind = r.args
        triple = P.PPT(*t)
        with tr.span("symphonic.anti_derivative", (r.shape, r.size)):
            a = P.anti_derivative(triple, KINDS[kind])
        return a.hypotenuse, None if a.integral is None else a.integral.sides()
    with tr.span("symphonic.QuadraticSurd", (r.shape, r.size)):
        s = P.QuadraticSurd(*r.args)
    return s.u, s.d, s.v, s.sign


def run_pass(work: Work, tr=None, tick=None) -> list:
    """One output per request; a request that raises yields its exception."""
    tr = tr or NullTracer()
    out = []
    for r in work.requests:
        if tick is not None:
            tick()
        with tr.span("deep.request"):
            try:
                out.append(_serve(r, tr))
            except Exception as exc:  # counted as a failed request by check()
                out.append(exc)
    return out


def check(work: Work, out: list) -> tuple[int, int]:
    """(attempted, failed) requests.

    Round trips must reproduce the reference generator and give back their
    code; family requests must reach the generator and the derivative's
    generator computed from the inline formulas; anti-derivatives must match
    the reference preimage; surds must come out in lowest terms.
    """
    failed = sum(1 for r, got in zip(work.requests, out) if got != r.expect)
    return len(work.requests), failed + abs(len(out) - len(work.requests))


def corrupt(work: Work) -> None:
    for r in work.requests:
        if r.kind == "roundtrip":
            (q, p), runs = r.expect
            r.expect = ((q, p + 2), runs)


def summary(work: Work, out: list) -> str:
    kinds: dict[str, int] = {}
    for r in work.requests:
        kinds[r.kind] = kinds.get(r.kind, 0) + 1
    bits = max(r.size for r in work.requests if r.kind == "roundtrip")
    return ", ".join(f"{n} {k}" for k, n in kinds.items()) + f"; codes up to {bits} bits"


def layer_metrics(work: Work, tr, passes: int) -> dict[str, float]:
    totals = tr.totals()

    def per_pass(name: str) -> float:
        return totals.get(name, (0.0, 0))[0] / passes

    located = [r.size for r in work.requests if r.kind == "roundtrip"]
    metrics = {f"tree.locate.s.{shape}": per_pass("tree.locate." + shape) for shape in SHAPES}
    metrics.update(
        {
            "tree.apply_path.s": per_pass("tree.apply_path"),
            "tree.derivative_location.s": per_pass("tree.derivative_location"),
            "tree.family_generator.s": per_pass("tree.family_generator"),
            "tree.locate.in_bits": sum(located) / len(located),
            "tree.locate.calls": len(located),
            "symphonic.anti_derivative.s.big": per_pass("symphonic.anti_derivative"),
            "symphonic.QuadraticSurd.s.gcd": per_pass("symphonic.QuadraticSurd"),
        }
    )
    return metrics
