"""Replay of the lower layers on the triples a workload produced.

The lower layers (triple_core, generators, QuadraticSurd) are reached only
through tree and symphonic, so the traced run times their public functions
directly, on the same triples, and reports the numbers as replay.
"""

from __future__ import annotations

import time

import pptalgebra as P
from pptalgebra.generators import KeySequence, triple_from_key
from pptalgebra.symphonic import QuadraticSurd

CHUNK = 4096


def _keys(chunk: list) -> list[tuple[int, int, int, int]]:
    keys = []
    for t in chunk:
        f, g = P.generators_of(t)
        keys.append((g.numerator, f.numerator, f.denominator, g.denominator))
    return keys


def _surds(chunk: list) -> list[tuple[int, int, int, int]]:
    """The two roots each of the two anti-derivatives of a triple builds."""
    surds = []
    for t in chunk:
        f = P.generators_of(t)[0]
        q, p = f.numerator, f.denominator
        for u, disc in ((p + q, (p + q) ** 2 - 8 * p * q), (p - q, (p - q) ** 2 + 8 * p * q)):
            surds += [(u, disc, 2, 1), (u, disc, 2, -1)]
    return surds


# layer metric -> (function, its arguments for a chunk of triples, built untimed):
# PPT and make_ppt once per triple, generators_of once per is_derivative call,
# KeySequence and triple_from_key once per tree node.
LAYERS = {
    "triple_core.PPT.s": (P.PPT, lambda chunk: [(t.a, t.b, t.c) for t in chunk]),
    "triple_core.make_ppt.s": (P.make_ppt, lambda chunk: [(t.b, t.a, t.c) for t in chunk]),
    "generators.generators_of.s": (P.generators_of, lambda chunk: [(t,) for t in chunk] * 2),
    "generators.KeySequence.s": (KeySequence, _keys),
    "generators.triple_from_key.s": (triple_from_key, lambda chunk: [(KeySequence(*k),) for k in _keys(chunk)]),
    "symphonic.QuadraticSurd.s": (QuadraticSurd, _surds),
}


def replay_triples(triples, layers: tuple[str, ...]) -> dict[str, float]:
    """Seconds each named layer function takes over all of `triples`."""
    spent = dict.fromkeys(layers, 0.0)
    chunk: list = []

    def flush() -> None:
        for name in layers:
            fn, arguments = LAYERS[name]
            rows = arguments(chunk)
            t0 = time.perf_counter()
            for args in rows:
                fn(*args)
            spent[name] += time.perf_counter() - t0
        chunk.clear()

    for t in triples:
        chunk.append(t)
        if len(chunk) == CHUNK:
            flush()
    if chunk:
        flush()
    return spent
