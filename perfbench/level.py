"""level: enumerate_level(11), all 177,147 triples of one tree level, held in memory.

Same tree -> generators -> triple_core construction path as the sweep, but
breadth-first, materialised, and without symphonic: it separates the cost of
building triples from the cost of testing them, and it is where memory shows.
The input is fixed by the depth; the seed does not change it.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass

import pptalgebra as P
import reference as R
from replay import replay_triples

ITEMS = "triples"
DEPTH = 11
TINY_DEPTH = 5
WARMUP = "P.enumerate_level(5)"


@dataclass
class Work:
    depth: int
    hashes: array  # reference: hash((a, b, c)) per triple, left to right

    @property
    def items(self) -> int:
        return len(self.hashes)


def prepare(seed: int, tiny: bool = False) -> Work:
    depth = TINY_DEPTH if tiny else DEPTH
    return Work(depth, array("q", map(hash, R.level_triples(depth))))


def run_pass(work: Work, tr=None, tick=None) -> list:
    if tr is None:
        return P.enumerate_level(work.depth)
    i = tr.begin("tree.enumerate_level")
    out = P.enumerate_level(work.depth)
    tr.finish(i)
    return out


def check(work: Work, out: list) -> tuple[int, int]:
    """(attempted, failed) triples: each must equal the reference triple in its slot."""
    expected = work.hashes
    failed = abs(len(out) - len(expected))
    for t, h in zip(out, expected):
        if hash((t.a, t.b, t.c)) != h:
            failed += 1
    return len(expected), min(failed, len(expected))


def corrupt(work: Work) -> None:
    work.hashes[len(work.hashes) // 2] ^= 1


def summary(work: Work, out: list) -> str:
    return f"level {work.depth}: {len(out)} triples"


def layer_metrics(work: Work, tr, passes: int) -> dict[str, float]:
    metrics = {"tree.enumerate_level.s": tr.totals().get("tree.enumerate_level", (0.0, 0))[0] / passes}
    metrics.update(
        replay_triples(
            P.enumerate_level(work.depth),
            ("triple_core.PPT.s", "generators.KeySequence.s", "generators.triple_from_key.s"),
        )
    )
    return metrics
