"""Navigation of the Barning-Hall ternary tree of primitive Pythagorean triples.

Every PPT appears exactly once in the tree rooted at [3,4,5].  Nodes are
addressed by path codes over the letters A (down-left), B (straight down),
C (down-right); the same steps act on primary generators as fraction maps,
which is how everything here is computed.  Path codes are held run-length
compressed because the closed-form locations of some family derivatives
contain runs far too long to materialize letter by letter.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .triple_core import PPT, TripleError
from .generators import (
    _generator_pair,
    _primary_triple,
    format_fraction,
    require_proper,
    triple_from_primary,
)
from .symphonic import DerivativeKind, corollary_generators

__all__ = [
    "ROOT", "ROOT_GENERATOR", "DegenerateIndex", "Family", "FamilyLine",
    "NotInPrimaryTree", "PathCode", "PellPair", "Root", "SecondaryRoot",
    "apply_path", "children", "derivative_location", "derive_generator",
    "enumerate_level", "family_generator", "family_member",
    "iter_by_hypotenuse", "locate", "parent", "pell",
    "square_triangle_triple", "step", "walk",
]


class SecondaryRoot(TripleError):
    """The generator 1/3 roots the even-sum companion tree and has no parent here."""


class NotInPrimaryTree(TripleError):
    """Regression from the given fraction bottoms out at 1/3, not at the root 1/2."""


class DegenerateIndex(TripleError):
    """A closed-form location would need a negative run length at this index."""


class Root:
    """Marker returned by parent() at the top of the tree (generator 1/2)."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "Root"


ROOT = Root()

ROOT_GENERATOR = Fraction(1, 2)

_TOKEN_RE = re.compile(r"([ABC])(?:\^([0-9]+))?")

# Longest code printed letter-by-letter; anything longer renders run-length.
_MAX_EXPANDED_LETTERS = 10_000


@dataclass(frozen=True)
class PathCode:
    """A word over {A, B, C}, stored as maximal (letter, count) runs.

    The empty code addresses the root.  Counts are exact integers, so codes
    like C^129858761423 are first-class values; only printing and letters()
    care about materializability.
    """

    runs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        merged: list[tuple[str, int]] = []
        for letter, count in self.runs:
            if letter not in ("A", "B", "C"):
                raise ValueError(f"path letter must be A, B or C, got {letter!r}")
            if not isinstance(count, int):
                raise ValueError(f"run length must be an integer, got {count!r} for {letter}")
            if count < 0:
                raise ValueError(f"negative run length {count} for {letter}")
            if count == 0:
                continue
            if merged and merged[-1][0] == letter:
                merged[-1] = (letter, merged[-1][1] + count)
            else:
                merged.append((letter, count))
        object.__setattr__(self, "runs", tuple(merged))

    @classmethod
    def parse(cls, text: str) -> "PathCode":
        """Parse letters with optional run-length tokens, ASCII only: 'AACAA', 'C^13', 'AA C^16 B'."""
        runs = []
        pos, end = 0, len(text)
        while pos < end:
            if text[pos] in " \t\n\r\f\v":
                pos += 1
                continue
            match = _TOKEN_RE.match(text, pos)
            if match is None:
                raise ValueError(f"invalid path code {text!r} at position {pos}")
            runs.append((match.group(1), int(match.group(2)) if match.group(2) else 1))
            pos = match.end()
        return cls(tuple(runs))

    @property
    def length(self) -> int:
        """Number of letters, exact at any size (len() overflows past sys.maxsize)."""
        return sum(count for _, count in self.runs)

    def __len__(self) -> int:
        return self.length

    def __add__(self, other: "PathCode") -> "PathCode":
        return PathCode(self.runs + other.runs)

    def __mul__(self, times: int) -> "PathCode":
        if times < 0:
            raise ValueError(f"cannot repeat a path code {times} times")
        return PathCode(self.runs * times)

    def letters(self) -> str:
        """The fully expanded word; refuses codes too long to materialize."""
        if self.length > _MAX_EXPANDED_LETTERS:
            raise ValueError(f"path code of length {self.length} is too long to expand")
        return "".join(letter * count for letter, count in self.runs)

    def compact(self) -> str:
        """Run-length rendering, e.g. 'B C^3 B A^9'; parse() accepts it back."""
        if not self.runs:
            return ""
        return " ".join(
            letter if count == 1 else f"{letter}^{count}" for letter, count in self.runs
        )

    def __str__(self) -> str:
        if self.length <= _MAX_EXPANDED_LETTERS:
            return self.letters()
        return self.compact()


def step(f: Fraction, letter: str) -> Fraction:
    """One child step on a primary generator: A, B or C."""
    return apply_path(f, PathCode(((letter, 1),)))


def _up(q: int, p: int) -> tuple[str, int, int, int]:
    # The maximal run ending at q/p: (letter, count, parent q, parent p).
    # d = p - 2q picks the letter: d > q means A, 0 < d <= q means B, else C.
    # An A run subtracts 2q from p with q fixed and a C run subtracts the
    # invariant p - q from both, so their lengths come from one division;
    # B steps shrink the pair geometrically and are taken singly.
    d = p - 2 * q
    if d > q:
        count = (p - q - 1) // (2 * q)
        return "A", count, q, p - 2 * count * q
    if d > 0:
        return "B", 1, d, q
    delta = p - q
    count = (q - 1) // delta
    return "C", count, q - count * delta, p - count * delta


def parent(f: Fraction) -> tuple[Fraction, str] | Root:
    """Invert one step: the parent generator and the letter that reached f.

    Returns ROOT for 1/2.
    """
    require_proper(f)
    q, p = f.numerator, f.denominator
    if q == 1 and p == 2:
        return ROOT
    if q == 1 and p == 3:
        raise SecondaryRoot("1/3 roots the secondary tree and has no parent here")
    letter, count, q, p = _up(q, p)
    return apply_path(Fraction(q, p), PathCode(((letter, count - 1),))), letter


def locate(f: Fraction) -> PathCode:
    """Path code from the root 1/2 down to the generator f, one whole run at a time."""
    require_proper(f)
    q, p = f.numerator, f.denominator
    reversed_runs: list[tuple[str, int]] = []
    while not (q == 1 and p == 2):
        if q == 1 and p == 3:
            raise NotInPrimaryTree(
                f"{format_fraction(f)} regresses to 1/3; it generates no triple"
            )
        letter, count, q, p = _up(q, p)
        reversed_runs.append((letter, count))
    return PathCode(tuple(reversed(reversed_runs)))


def _b_run(q: int, p: int, count: int) -> tuple[int, int]:
    # (q, p) -> (p, q + 2p) iterated `count` times, via 2x2 matrix power.
    xa, xb, xc, xd = 1, 0, 0, 1
    ya, yb, yc, yd = 0, 1, 1, 2
    while count:
        if count & 1:
            xa, xb, xc, xd = (
                xa * ya + xb * yc,
                xa * yb + xb * yd,
                xc * ya + xd * yc,
                xc * yb + xd * yd,
            )
        ya, yb, yc, yd = (
            ya * ya + yb * yc,
            ya * yb + yb * yd,
            yc * ya + yd * yc,
            yc * yb + yd * yd,
        )
        count >>= 1
    return xa * q + xb * p, xc * q + xd * p


def apply_path(f: Fraction, code: PathCode) -> Fraction:
    """Follow a path code downward from f, one whole run at a time."""
    require_proper(f)
    q, p = f.numerator, f.denominator
    for letter, count in code.runs:
        if letter == "A":
            p += 2 * count * q
        elif letter == "C":
            delta = p - q
            q += count * delta
            p += count * delta
        else:
            q, p = _b_run(q, p, count)
    return Fraction(q, p)


def _children(q: int, p: int) -> tuple[tuple[int, int], ...]:
    # The A, B and C children of the generator q/p.
    return (q, p + 2 * q), (p, 2 * p + q), (p, 2 * p - q)


def _levels(depth: int) -> Iterator[list[tuple[int, int]]]:
    # Generator pairs of levels 0..depth, each level in left-to-right order.
    pairs = [(1, 2)]
    yield pairs
    for _ in range(depth):
        pairs = [child for q, p in pairs for child in _children(q, p)]
        yield pairs


def children(t: PPT) -> tuple[PPT, PPT, PPT]:
    """The left, middle and right successors of a triple."""
    left, middle, right = _children(*_generator_pair(t))
    return _primary_triple(*left), _primary_triple(*middle), _primary_triple(*right)


def enumerate_level(n: int) -> list[PPT]:
    """All 3^n triples of tree level n, in left-to-right order."""
    if n < 0:
        raise ValueError(f"tree level must be nonnegative, got {n}")
    for pairs in _levels(n):
        pass
    return [_primary_triple(q, p) for q, p in pairs]


def walk(max_depth: int) -> Iterator[PPT]:
    """Breadth-first triples, level by level, through depth max_depth."""
    if max_depth < 0:
        raise ValueError(f"depth must be nonnegative, got {max_depth}")
    for pairs in _levels(max_depth):
        for q, p in pairs:
            yield _primary_triple(q, p)


def iter_by_hypotenuse(bound: int) -> Iterator[PPT]:
    """Every PPT with hypotenuse <= bound, in unspecified order.

    Depth-first over the tree; children never shrink the hypotenuse
    q^2 + p^2, so subtrees above the bound are pruned whole.
    """
    if bound < 5:
        return
    stack = [(1, 2)]
    while stack:
        q, p = stack.pop()
        yield _primary_triple(q, p)
        for cq, cp in _children(q, p):
            if cq * cq + cp * cp <= bound:
                stack.append((cq, cp))


def derive_generator(f: Fraction, kind: DerivativeKind) -> Fraction:
    """Primary generator of the major/minor derivative of the triple f generates."""
    return corollary_generators(triple_from_primary(f), kind)[0]


@dataclass(frozen=True)
class PellPair:
    """n-th terms of the twin Pell sequences 1,2,5,12,29,... and 1,3,7,17,41,...

    Both follow next = 2*current + previous.  Consecutive pairs assemble into
    the key sequences [q(n), p(n), p(n+1), q(n+1)] of the straight-down family.
    """

    index: int
    p: int
    q: int


def pell(n: int) -> PellPair:
    """The n-th Pell pair in O(log n) big-integer steps.

    A run of n B steps takes (0, 1) to (p(n), p(n+1)), and q(n) = p(n+1) - p(n).
    """
    if n < 1:
        raise ValueError(f"Pell index must be positive, got {n}")
    p, p_next = _b_run(0, 1, n)
    return PellPair(n, p, p_next - p)


class FamilyLine(Enum):
    """The three classical one-parameter families, one per pure-letter path."""

    PLATONIC = "platonic"
    PYTHAGOREAN = "pythagorean"
    FERMAT = "fermat"

    def __str__(self) -> str:
        return self.value


_FAMILY_LETTER = {
    FamilyLine.PLATONIC: "A",
    FamilyLine.PYTHAGOREAN: "C",
    FamilyLine.FERMAT: "B",
}


@dataclass(frozen=True)
class Family:
    """The n-th member of a classical family (1-based)."""

    line: FamilyLine
    index: int

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"family index must be positive, got {self.index}")

    @property
    def path_code(self) -> PathCode:
        return PathCode(((_FAMILY_LETTER[self.line], self.index - 1),))


def family_generator(fam: Family) -> Fraction:
    """Primary generator of the n-th family member, read off its pure-letter path.

    Following A^(n-1), C^(n-1) or B^(n-1) from the root puts Platonic members
    at 1/(2n), Pythagorean at n/(n+1), and the Fermat family at ratios
    p(n)/p(n+1) of consecutive Pell numbers.
    """
    return apply_path(ROOT_GENERATOR, fam.path_code)


def family_member(fam: Family) -> PPT:
    """The n-th member triple of the family."""
    return triple_from_primary(family_generator(fam))


def derivative_location(fam: Family, kind: DerivativeKind) -> PathCode:
    """Closed-form tree address of a family member's major/minor derivative.

    Each family/kind pairing has a fixed-shape code whose run lengths are
    linear in the index (Pell-sized for the straight-down minor).  Indices
    where a run length would go negative raise DegenerateIndex instead of
    guessing.
    """
    n = fam.index
    if fam.line is FamilyLine.PYTHAGOREAN:
        if kind is DerivativeKind.MAJOR:
            return PathCode((("C", n - 1), ("A", n + 1)))
        return PathCode((("C", n), ("A", n - 1)))
    if fam.line is FamilyLine.FERMAT:
        if kind is DerivativeKind.MAJOR:
            return PathCode((("A", 2),)) + PathCode((("C", 1), ("A", 2))) * (n - 1)
        k = (pell(2 * n + 1).p - 1) // 2
        return PathCode((("C", k - 1),))
    if n == 1:
        raise DegenerateIndex(
            f"no closed form for the first Platonic member's {kind} derivative"
        )
    half = n // 2
    if kind is DerivativeKind.MAJOR:
        lead = "C" if n % 2 == 0 else "B"
        return PathCode(((lead, 1), ("A", half - 1), ("B", 1), ("A", n)))
    if n % 2 == 0:
        return PathCode((("B", 1), ("A", half - 1), ("B", 1), ("A", n - 2)))
    return PathCode((("C", 1), ("A", half), ("B", 1), ("A", n - 2)))


def square_triangle_triple(i: int) -> PPT:
    """The i-th triple with consecutive legs, which is the i-th Fermat family member.

    The squares among the triangular numbers have sides 1, 6, 35, 204, ...
    (next = 6*current - previous); a consecutive pair (x, y) of those gives
    hypotenuse y - x and legs splitting x + y into two consecutive integers.
    Those triples are exactly the straight-down B line of the tree.
    """
    return family_member(Family(FamilyLine.FERMAT, i))
