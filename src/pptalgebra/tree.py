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
from collections.abc import Iterable, Iterator
from enum import Enum
from fractions import Fraction
from itertools import accumulate, repeat, takewhile

from .triple_core import PPT, TripleError, _OpenPPT, _assign, _proven, _proven_fraction, _record, _shown
from .generators import _generator_pair, _primary_pair, _primary_triple, _proper_pair, triple_from_primary
from .symphonic import _MAJOR, _MINOR, DerivativeKind, _derivative_pair

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
# The longest prefix of tokens and ASCII whitespace: a path code is all prefix.
_CODE_PREFIX_RE = re.compile(r"(?:[ \t\n\r\f\v]*[ABC](?:\^[0-9]+)?)*[ \t\n\r\f\v]*")

# Longest code printed letter-by-letter; anything longer renders run-length.
_MAX_EXPANDED_LETTERS = 10_000

# Most runs a product PathCode * times may hold, about 80 MB of shared runs: the longest code any caller here builds
# by a product, the major derivative location of the n-th Fermat member, has 2n - 1 runs.
_MAX_RUNS = 10**7

# A run of fewer than _SHARED_RUN letters is held as the one shared tuple _RUNS[letter][count], so a code holds 8
# bytes for it, not the 64 of a pointer and a tuple of its own.  On a random generator's path about one run in k has
# k or more letters (1.6% of 220,627 runs reach 64, on 20 random 20,000-bit generators), so the bound 64 holds a run
# in about 9 bytes on average for 192 shared tuples, about 12 KB; a larger bound saves under a byte a run.
_SHARED_RUN = 64
_RUNS = {letter: tuple((letter, count) for count in range(_SHARED_RUN)) for letter in "ABC"}


def _run(letter: str, count: int) -> tuple[str, int]:
    # The run (letter, count) for a count >= 1, shared when short; a count of an int subclass is stored as a plain int.
    # _regress and PathCode.__init__ copy this rule into their loops, to save a Python call per run: a change here
    # must be made in both.
    return _RUNS[letter][count] if count < _SHARED_RUN else (letter, int(count))


@_record
class PathCode:
    """A word over {A, B, C}, stored as maximal (letter, count) runs.

    The empty code addresses the root.  Counts are exact plain ints, so codes
    like C^129858761423 are first-class values; only printing and letters()
    care about materializability.  A run of fewer than 64 letters is one
    tuple shared by every code that has it, so a long code of short runs
    holds about 8 bytes a run.
    """

    runs: tuple[tuple[str, int], ...]

    def __init__(self, runs: tuple[tuple[str, int], ...] = ()) -> None:
        merged: list[tuple[str, int]] = []
        shared, bound, last = _RUNS, _SHARED_RUN, None
        for letter, count in runs:
            # One test passes the common run: a letter A, B or C (by a tuple, which an unhashable letter fails) and a
            # plain int count of at least 1.  The rest take the checks in turn.  The append copies _run's rule.
            if not (letter in ("A", "B", "C") and type(count) is int and count > 0):
                if letter not in ("A", "B", "C"):
                    raise ValueError(f"path letter must be A, B or C, got {_shown(letter, 'integer', repr)}")
                if not isinstance(count, int):
                    raise TypeError(f"run length must be an integer, got {_shown(count, 'integer', repr)} for {letter}")
                if count < 0:
                    raise ValueError(f"negative run length {_shown(count, 'integer')} for {letter}")
                if count == 0:
                    continue
            if letter == last:
                count += merged.pop()[1]
            last = letter
            merged.append(shared[letter][count] if count < bound else (letter, int(count)))
        _assign(self, tuple(merged))

    @classmethod
    def parse(cls, text: str) -> "PathCode":
        """Parse letters with optional run-length tokens, ASCII only: 'AACAA', 'C^13', 'AA C^16 B'."""
        pos = _CODE_PREFIX_RE.match(text).end()
        if pos < len(text):
            raise ValueError(f"invalid path code {text!r} at position {pos}")
        return cls(tuple((letter, int(count) if count else 1) for letter, count in _TOKEN_RE.findall(text)))

    @property
    def length(self) -> int:
        """Number of letters, exact at any size (len() overflows past sys.maxsize)."""
        return sum(count for _, count in self.runs)

    def __len__(self) -> int:
        return self.length

    def __add__(self, other: "PathCode") -> "PathCode":
        left, right = self.runs, other.runs
        if left and right and left[-1][0] == right[0][0]:
            left, right = left[:-1], (_run(left[-1][0], left[-1][1] + right[0][1]),) + right[1:]
        return _proven(PathCode, left + right)

    def __mul__(self, times: int) -> "PathCode":
        if not isinstance(times, int):
            return NotImplemented
        if times < 0:
            raise ValueError(f"cannot repeat a path code {_shown(times, 'integer')} times")
        runs = self.runs
        if not runs:
            return _proven(PathCode, runs)
        # Each copy's last run meets the next copy's first run of the same letter: one run per seam.
        seam = times > 1 and runs[0][0] == runs[-1][0]
        if (size := (len(runs) - seam) * times + seam) > _MAX_RUNS:
            raise ValueError(f"path code of {_shown(size, 'integer')} runs is too long to build")
        if not seam:
            return _proven(PathCode, runs * times)
        if len(runs) == 1:
            return _proven(PathCode, (_run(runs[0][0], runs[0][1] * times),))
        joined = (_run(runs[0][0], runs[-1][1] + runs[0][1]),)
        return _proven(PathCode, runs[:-1] + (joined + runs[1:-1]) * (times - 1) + runs[-1:])

    def letters(self) -> str:
        """The fully expanded word; refuses codes too long to materialize."""
        if self.length > _MAX_EXPANDED_LETTERS:
            raise ValueError(f"path code of length {_shown(self.length, 'integer')} is too long to expand")
        return "".join(letter * count for letter, count in self.runs)

    def compact(self) -> str:
        """Run-length rendering, e.g. 'B C^3 B A^9'; parse() accepts it back."""
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


def _regress(q: int, p: int, runs: list[tuple[str, int]], floor: int = 0) -> tuple[int, int]:
    # Regress q/p by maximal runs while 0 < q < p, a step takes letters and p stays
    # at or above floor (an A or C run is refused whole, a B run is cut letter by
    # letter); append the runs, bottom first, to `runs`, merging equal letters, and
    # return the pair reached.  d = p - 2q picks the letter: d > q means A,
    # 0 < d <= q B, else C.  An A run keeps q and a C run keeps p - q, so each takes
    # one division.  This is the one inverse step; parent takes one letter by the
    # same rule.  A B run that reaches 32 letters jumps over most of the rest
    # (_b_jump): a shorter run rarely pays for the test.  An exact pair stops at the
    # root 1/2 (a step of no letters) or at 1/1, reached only from 1/3.  Each run is
    # made by _run's rule, copied here to save a Python call per run: a change to
    # that rule must be made here too.
    shared, bound = _RUNS, _SHARED_RUN
    while 0 < q < p:
        d = p - 2 * q
        if d > q:
            count = (p - q - 1) // (2 * q)
            if (p_up := p - 2 * count * q) < floor:
                break
            letter, p = "A", p_up
        elif d > 0:
            if q < floor:
                break
            letter, count, q, p = "B", 1, d, q
            while 0 < (d := p - 2 * q) <= q and q >= floor:
                count, q, p = count + 1, d, q
                if count == 32:
                    jump, q, p = _b_jump(q, p, floor)
                    count += jump
        else:
            delta = p - q
            count = (q - 1) // delta
            taken = count * delta
            if count == 0 or p - taken < floor:
                break
            letter, q, p = "C", q - taken, p - taken
        if runs and runs[-1][0] == letter:
            count += runs.pop()[1]
        runs.append(shared[letter][count] if count < bound else (letter, count))
    return q, p


def _b_jump(q: int, p: int, floor: int) -> tuple[int, int, int]:
    # (k, B^-k (q, p)) for most of the k further letters of the B run at (q, p),
    # or (0, q, p).  Each B^-1 multiplies u = p - (1 + sqrt 2) q by
    # -(1 + sqrt 2) and p by about 1/(1 + sqrt 2); the run ends once |u| nears p/5, so about
    # (bits(p) - bits(u)) / 2.543 letters remain.  u times its conjugate, about
    # 1.17 p, is the integer norm p d - q^2.  The norm of the top `width` bits is
    # off by less than 2^(width + 3): past 2^(width + 7) it gives bits(u) within a
    # bit, and below, enough letters remain to pay for the full norm.  A jump of
    # fewer than about 16 letters costs more than the loop.  A landing that is still
    # a B pair proves every letter skipped: forward B maps (0, 1) into (1/3, 1/2).
    # The cap alone keeps the floor, which the skipped letters need only of q_(k-1) = p_k.
    # Up from a B pair q_(i-1) = 2 q_i + q_(i+1) and p_k <= 3 q_k, so q_0 <= H_(k+1) q_k with
    # H = 1, 3, 7, 17, 41, ...: q loses under 1.2716 k + 0.32 bits.  The cap leaves log2(q / floor)
    # > 1.2715 k + 1 after bit_length's rounding: enough for k < 6000; a chunk's floor keeps k <= _CHUNK_B_RUN.
    width = 96 + p.bit_length() // 32
    shift = max(p.bit_length() - width, 0)
    top_p, top_q = p >> shift, q >> shift
    norm = (top_p * (top_p - 2 * top_q) - top_q * top_q).bit_length()
    if norm > 2 * top_p.bit_length() - 50:  # fewer than about 16 letters to jump
        return 0, q, p
    if shift and norm <= width + 7:
        norm = (p * (p - 2 * q) - q * q).bit_length() - 2 * shift
    k = int(min(2 * top_p.bit_length() - norm - 9, 2 * (q.bit_length() - floor.bit_length()) - 4) / 2.543)
    if k < 1:  # the floor is near
        return 0, q, p
    b0, b1, _, b3 = _B_POWERS[k] if k <= _CHUNK_B_RUN else _b_power(k)
    q_k, p_k = (b1 * p - b3 * q, b1 * q - b0 * p) if k & 1 else (b3 * q - b1 * p, b0 * p - b1 * q)
    if 0 < p_k - 2 * q_k <= q_k:
        return k, q_k, p_k
    return 0, q, p


# A chunk regresses the top _TOP_BITS of (q, p) in small ints and stops before
# the small p falls below _TOP_FLOOR: the truncation error grows like the
# entries of the chunk's matrix, so only about the top half stays trustworthy.
# This is Lehmer's top-digits step (Amer. Math. Monthly 45, 1938); the one width
# and the floor at 75/128 of it were measured (ROADMAP item 6 has the losing ones).
_TOP_BITS = 512
_TOP_FLOOR = 1 << (_TOP_BITS * 75 // 128)
# Generators whose p has more than two tops of bits regress in chunks: below it a
# full-size pass costs about what a chunk spends per run (starts of 1024, 1200
# and 1600 bits measured alike).
_CHUNK_FROM_BITS = 2 * _TOP_BITS
# A chunk regresses its top (q0, p0) as (q0 2^K, p0 2^K + 1), K = _UNIT_BITS: the inverse M of the runs is linear, so
# it reaches 2^K M(q0, p0) + (x, z), where (x, z) = M(0, 1) is read back rounded to nearest.  With u = F(0, 1) and
# v = F(1, 1) for the forward product F = M^-1, (x, z) = +-(-u_q, v_q - u_q), and F keeps the cone 0 <= q <= p, so
# |x|, |z| <= max(u_p, v_p).  The stop (q_s, p_s) has p0 = (p_s - q_s) u_p + q_s v_p.  A last A run maps (u, v) to
# (u, v + 2ku) and leaves q_s >= p_s / 3; a C run maps it to (u + kv, v) and leaves p_s - q_s >= p_s / 2; a B maps it
# to (u + v, 2u + v).  So max(u_p, v_p) <= 3 p0 / p_s, which the floor, just under _TOP_FLOOR 2^K, keeps below
# 2^(K-2) = 2^(_TOP_BITS - _TOP_FLOOR.bit_length() + 3) for any top.  _regress's tests move by at most 4 entries,
# under 2^K, and the floor sits half a unit low, so off exact ties in the top the runs are those of (q0, p0).
_UNIT_BITS = _TOP_BITS - _TOP_FLOOR.bit_length() + 5
_UNIT_HALF = 1 << (_UNIT_BITS - 1)


def _top_chunk(q: int, p: int) -> tuple[list[tuple[str, int]], int, int]:
    # Regress the top bits of (q, p) in small ints.  Returns the runs taken,
    # bottom first, and the pair that undoing them sends (q, p) to.  The runs
    # are the true top of the path exactly when that pair is strictly in the
    # domain 0 < q < p: the forward maps send (0, 1) onto the disjoint open
    # intervals (0, 1/3), (1/3, 1/2) and (1/2, 1), so a proper preimage fixes
    # every letter above it.  A wrong truncated guess only fails that test.
    # The regression yields the column on p of the matrix that undoes the runs
    # (see _UNIT_BITS), and two exact divisions the column on q.
    shift = p.bit_length() - _TOP_BITS
    q0, p0 = q >> shift, p >> shift
    runs: list[tuple[str, int]] = []
    q_u, p_u = _regress(q0 << _UNIT_BITS, (p0 << _UNIT_BITS) + 1, runs, (_TOP_FLOOR << _UNIT_BITS) - _UNIT_HALF)
    if not runs:
        return runs, q, p
    q_s, p_s = (q_u + _UNIT_HALF) >> _UNIT_BITS, (p_u + _UNIT_HALF) >> _UNIT_BITS
    x, z = q_u - (q_s << _UNIT_BITS), p_u - (p_s << _UNIT_BITS)
    # The matrix sends (q0, p0) to (q_s, p_s), so q_s - x p0 and p_s - z p0 are multiples of q0 > 0.
    w, y = (q_s - x * p0) // q0, (p_s - z * p0) // q0
    return runs, w * q + x * p, y * q + z * p


def parent(f: Fraction) -> tuple[Fraction, str] | Root:
    """Invert one step: the parent generator and the letter that reached f.

    Returns ROOT for 1/2.
    """
    q, p = _proper_pair(f)
    if q == 1 and p == 2:
        return ROOT
    if q == 1 and p == 3:
        raise SecondaryRoot("1/3 roots the secondary tree and has no parent here")
    d = p - 2 * q  # picks the letter as in _regress; one step up is unimodular, so the pair stays coprime
    letter, q, p = ("A", q, d) if d > q else ("B", d, q) if d > 0 else ("C", -d, q)
    return _proven_fraction(q, p), letter


def locate(f: Fraction) -> PathCode:
    """Path code from the root 1/2 down to the generator f.

    Generators past a kilobit regress in chunks: their top 512 bits are
    regressed in small ints, with a unit vector below them that gives the
    matrix undoing the runs taken, and that matrix is applied to the full
    pair once, so each full-size pass takes off about 200 bits, not one run.
    """
    q, p = _proper_pair(f)
    runs: list[tuple[str, int]] = []  # maximal, bottom first
    while p.bit_length() > _CHUNK_FROM_BITS:
        chunk, q_up, p_up = _top_chunk(q, p)
        if not (chunk and 0 < q_up < p_up):
            # A refused chunk: regress at full size with the floor min(q, p - q), which admits the first run, so
            # each pass takes one.  An A run keeps q and lands at p >= q + 1, a C run keeps p - q and lands above
            # it, and a B letter needs only q >= floor.  Of the pairs in the domain only (m, 2m), m > 1, takes no
            # run; a right chunk never lands there, and without this test locate would go round forever.
            q, p_up = _regress(q, p, runs, min(q, p - q))
            if p_up == p:
                raise AssertionError(f"a full-size step took no run from a {p.bit_length()}-bit pair")
            p = p_up
            continue
        if runs and runs[-1][0] == chunk[0][0]:  # the seam
            chunk[0] = _run(chunk[0][0], runs[-1][1] + chunk[0][1])
            runs.pop()
        runs += chunk
        q, p = q_up, p_up
    q, p = _regress(q, p, runs)
    if p != 2:
        raise NotInPrimaryTree(f"{_shown(f, 'generator')} regresses to 1/3; it generates no triple")
    return _proven(PathCode, tuple(reversed(runs)))


def _mat_mul(x: tuple[int, ...], y: tuple[int, ...]) -> tuple[int, int, int, int]:
    # Product of two row-major 2x2 matrices.
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _b_power(count: int) -> tuple[int, int, int, int]:
    # B^count for count >= 0, the matrix of (q, p) -> (p, q + 2p) iterated:
    # (P(count - 1), P(count); P(count), P(count + 1)) in the Pell numbers
    # 0, 1, 2, 5, 12, ...  Left to right over the bits of count, (P(k), P(k + 1))
    # doubles to P(2k) = 2 P(k) (P(k + 1) - P(k)) and P(2k + 1) = P(k)^2 + P(k + 1)^2,
    # three products a bit, and a set bit steps on by P(k + 2) = 2 P(k + 1) + P(k).
    a, b = 0, 1
    for bit in bin(count)[2:]:
        a, b = 2 * a * (b - a), a * a + b * b
        if bit == "1":
            a, b = b, 2 * b + a
    return b - 2 * a, a, a, b


# B^k = B^(k-1) B for 0 <= k <= _CHUNK_B_RUN: _b_jump and _path_pair read short B runs here, and no chunk doubles
# Pell numbers.  A chunk's B run of k letters goes up from (q_k, p_k) to B^k (q_k, p_k), whose p >= P(k + 1) p_k.  p
# only falls as a chunk regresses, from below 2^_TOP_BITS, and a B letter is taken only while its new p keeps
# _TOP_FLOOR, so P(k + 1) _TOP_FLOOR < 2^_TOP_BITS: the table ends at the last such k, 166.
_B_POWERS = tuple(takewhile(lambda power: power[3] * _TOP_FLOOR < 1 << _TOP_BITS,
                            accumulate(repeat((0, 1, 1, 2)), _mat_mul, initial=(1, 0, 0, 1))))
_CHUNK_B_RUN = len(_B_POWERS) - 1


# A leaf product whose last row passes this bound goes onto the binary-splitting stack.
_LEAF_MAX = 1 << 384


def _path_pair(runs: Iterable[tuple[str, int]], q: int, p: int) -> tuple[int, int]:
    # The image of (q, p) under the runs, the first run applied first.  Runs
    # multiply in place into a small leaf (w, x; y, z): A^k adds 2k row 0 to row 1,
    # C^k adds k (row 1 - row 0) to both rows, and a B run multiplies by B^count,
    # read from _B_POWERS when short.  Each maps the cone 0 <= q <= p into itself,
    # so y and z bound all four entries within a bit.  Full leaves multiply by
    # binary splitting: a stack merges products of equally many leaves, so big
    # products pair numbers of like size.  A product that empties the stack and is
    # at least as long as p is applied to the pair (4 products) instead of being
    # merged into a bigger one (8 products), so the pair absorbs products of about
    # its own size.  Whatever is left at the end is multiplied out and applied once.
    stack: list[tuple[tuple[int, int, int, int], int]] = []
    w, x, y, z = 1, 0, 0, 1
    for letter, count in runs:
        if letter == "A":
            y, z = y + 2 * count * w, z + 2 * count * x
        elif letter == "C":
            dw, dx = count * (y - w), count * (z - x)
            w, x, y, z = w + dw, x + dx, y + dw, z + dx
        else:
            b0, b1, _, b3 = _B_POWERS[count] if count <= _CHUNK_B_RUN else _b_power(count)
            w, x, y, z = b0 * w + b1 * y, b0 * x + b1 * z, b1 * w + b3 * y, b1 * x + b3 * z
        if y > _LEAF_MAX or z > _LEAF_MAX:
            m, size = (w, x, y, z), 1
            while stack and stack[-1][1] == size:
                m, size = _mat_mul(m, stack.pop()[0]), 2 * size
            if stack or max(m[2].bit_length(), m[3].bit_length()) < p.bit_length():
                stack.append((m, size))
            else:
                q, p = m[0] * q + m[1] * p, m[2] * q + m[3] * p
            w, x, y, z = 1, 0, 0, 1
    for m, _ in reversed(stack):
        w, x, y, z = _mat_mul((w, x, y, z), m)
    return w * q + x * p, y * q + z * p


def apply_path(f: Fraction, code: PathCode) -> Fraction:
    """Follow a path code downward from f: its runs' products applied to the generator's pair."""
    q, p = _proper_pair(f)
    if not isinstance(code, PathCode):
        raise TypeError(f"expected a PathCode, got {_shown(code, 'integer', repr)}")
    # The runs are unimodular, so they send the coprime pair of f to a coprime pair.
    return _proven_fraction(*_path_pair(code.runs, q, p))


def _child_pairs(pairs: Iterable[tuple[int, int]]) -> Iterator[tuple[int, int]]:
    # The A, B and C child pairs of each pair, in order: q/p has the children (q, p + 2q), (p, 2p + q), (p, 2p - q).
    for q, p in pairs:
        yield q, p + 2 * q
        yield p, 2 * p + q
        yield p, 2 * p - q


def _level_pairs(n: int) -> Iterator[tuple[int, int]]:
    # Generator pairs of level n, left to right.  One _child_pairs generator per level, each over the one above, so
    # only one pending pair per level is held.
    pairs: Iterator[tuple[int, int]] = iter(((1, 2),))
    for _ in range(n):
        pairs = _child_pairs(pairs)
    return pairs


def _child_triples(parents: Iterable[tuple[int, int]]) -> Iterator[PPT]:
    # The A, B and C child triples of each pair, in order, one block each.  These blocks and iter_by_hypotenuse copy
    # the child map of _child_pairs, the sides of _primary_triple and _proven(PPT, ...), to save a Python call and a
    # tuple per triple: a change to any of those three must be made in each block and in iter_by_hypotenuse too.  Each
    # triple is an empty _OpenPPT(), a PPT subclass that adds no slots and has object's __init__, __setattr__ and
    # __delattr__, so the call and the three plain slot stores run in C; then it becomes its base PPT, so every triple
    # yielded is exactly a PPT; it keeps no pair.
    for q, p in parents:
        qq, pp = q * q, p * p
        r = p + 2 * q
        rr = r * r
        t = _OpenPPT()
        t.a = rr - qq
        t.b = 2 * q * r
        t.c = rr + qq
        t.__class__ = PPT
        yield t
        r = 2 * p + q
        rr = r * r
        t = _OpenPPT()
        t.a = rr - pp
        t.b = 2 * p * r
        t.c = rr + pp
        t.__class__ = PPT
        yield t
        r = 2 * p - q
        rr = r * r
        t = _OpenPPT()
        t.a = rr - pp
        t.b = 2 * p * r
        t.c = rr + pp
        t.__class__ = PPT
        yield t


def children(t: PPT) -> tuple[PPT, PPT, PPT]:
    """The left, middle and right successors of a triple."""
    return tuple(_child_triples((_generator_pair(t),)))


def enumerate_level(n: int) -> list[PPT]:
    """All 3^n triples of tree level n, in left-to-right order."""
    if n < 0:
        raise ValueError(f"tree level must be nonnegative, got {_shown(n, 'integer')}")
    # The triples of level n straight from the streamed pairs of level n - 1: no list of pairs is built.
    return list(_child_triples(_level_pairs(n - 1))) if n else [_primary_triple(1, 2)]


def walk(max_depth: int) -> Iterator[PPT]:
    """Breadth-first triples, level by level, through depth max_depth."""
    if max_depth < 0:
        raise ValueError(f"depth must be nonnegative, got {_shown(max_depth, 'integer')}")
    yield _primary_triple(1, 2)
    # Each level streams from the root again: about 1.5 times the pair steps, with O(depth) pairs held.
    for depth in range(max_depth):
        yield from _child_triples(_level_pairs(depth))


def iter_by_hypotenuse(bound: int) -> Iterator[PPT]:
    """Every PPT with hypotenuse <= bound, in unspecified order.

    Depth-first over the tree; children never shrink the hypotenuse
    q^2 + p^2, so subtrees above the bound are pruned whole.
    """
    if bound < 5:
        return
    q, p, stack = 1, 2, []
    while True:
        # _primary_triple(q, p) with no Python call: an empty _OpenPPT() made a PPT, as in _child_triples' blocks.
        qq, pp, b = q * q, p * p, 2 * p * q
        t = _OpenPPT()
        t.a = pp - qq
        t.b = b
        t.c = pp + qq
        t.__class__ = PPT
        yield t
        # Children A, B, C by _child_pairs' child map, yielded as by pushing all three and popping: on into C,
        # pushing A and B, else into A.  B's hypotenuse is C's plus (2p + q)^2 - (2p - q)^2 = 8pq = 4b: B waits on C.
        r, s = 2 * p - q, p + 2 * q
        if (c := pp + r * r) <= bound:
            if qq + s * s <= bound:
                stack.append((q, s))
            if c + 4 * b <= bound:
                stack.append((p, 2 * p + q))
            q, p = p, r
        elif qq + s * s <= bound:
            p = s
        elif stack:
            q, p = stack.pop()
        else:
            return


def derive_generator(f: Fraction, kind: DerivativeKind) -> Fraction:
    """Primary generator of the major/minor derivative of the triple f generates."""
    return _proven_fraction(*_derivative_pair(*_primary_pair(f), kind))


@_record
class PellPair:
    """n-th terms of the twin Pell sequences 1,2,5,12,29,... and 1,3,7,17,41,...

    Both follow next = 2*current + previous.  Consecutive pairs assemble into
    the key sequences [q(n), p(n), p(n+1), q(n+1)] of the straight-down family.
    """

    index: int
    p: int
    q: int

    def __init__(self, index: int, p: int, q: int) -> None:
        _assign(self, index, p, q)


def pell(n: int) -> PellPair:
    """The n-th Pell pair in O(log n) big-integer steps.

    A run of n B steps takes (0, 1) to (p(n), p(n+1)), and q(n) = p(n+1) - p(n).
    """
    if not isinstance(n, int):
        raise TypeError(f"Pell index must be an integer, got {_shown(n, 'integer', repr)}")
    if n < 1:
        raise ValueError(f"Pell index must be positive, got {_shown(n, 'integer')}")
    _, p, _, p_next = _b_power(n)
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


@_record
class Family:
    """The n-th member of a classical family (1-based)."""

    line: FamilyLine
    index: int

    def __init__(self, line: FamilyLine, index: int) -> None:
        _assign(self, line, index)
        if not isinstance(line, FamilyLine):
            raise TypeError(f"expected a FamilyLine, got {_shown(line, 'integer', repr)}")
        if not isinstance(index, int):
            raise TypeError(f"family index must be an integer, got {_shown(index, 'integer', repr)}")
        if index < 1:
            raise ValueError(f"family index must be positive, got {_shown(index, 'integer')}")

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
    if kind is not _MAJOR and kind is not _MINOR:
        raise TypeError(f"expected a DerivativeKind, got {_shown(kind, 'integer', repr)}")
    n = fam.index
    if fam.line is FamilyLine.PYTHAGOREAN:
        if kind is _MAJOR:
            return PathCode((("C", n - 1), ("A", n + 1)))
        return PathCode((("C", n), ("A", n - 1)))
    if fam.line is FamilyLine.FERMAT:
        if kind is _MAJOR:
            return PathCode((("A", 2),)) + PathCode((("C", 1), ("A", 2))) * (n - 1)
        k = (pell(2 * n + 1).p - 1) // 2
        return PathCode((("C", k - 1),))
    if n == 1:
        raise DegenerateIndex(
            f"no closed form for the first Platonic member's {kind} derivative"
        )
    half = n // 2
    if kind is _MAJOR:
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
