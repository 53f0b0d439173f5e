"""Reference arithmetic the benchmark checks the package against, and its seeded codes.

Everything here is written from the formulas, not from the package: Euclid's
parametrisation for enumeration, the step maps on primary generators q/p for
the tree, the inline derivative formulas, and a Pell matrix power.  Nothing in
this module imports pptalgebra.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

MAX_EXPANDED_LETTERS = 10_000  # the CLI prints longer codes run-length


def canon(x: int, y: int, z: int) -> tuple[int, int, int]:
    """Sides in the order odd leg, even leg, hypotenuse."""
    lo, hi = sorted((x, y))
    return (lo, hi, z) if lo % 2 else (hi, lo, z)


def major(t: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = t
    return canon(c * (a + b), a * b, c * c + a * b)


def minor(t: tuple[int, int, int]) -> tuple[int, int, int]:
    a, b, c = t
    return canon(c * abs(a - b), a * b, c * c - a * b)


def ppts_upto(bound: int):
    """Every primitive triple with hypotenuse <= bound, by Euclid's formula."""
    m = 2
    while m * m + 1 <= bound:
        for n in range(1 + m % 2, m, 2):
            if m * m + n * n > bound:
                break
            if math.gcd(m, n) == 1:
                yield (m * m - n * n, 2 * m * n, m * m + n * n)
        m += 1


def derivative_images(bound: int) -> tuple[set, set]:
    """Major and minor images with hypotenuse <= bound.

    c^2 + ab <= bound needs c <= sqrt(bound), and c^2 - ab >= c^2/2 needs
    c <= sqrt(2 bound), so only a few hundred preimages are scanned.
    """
    majors = {major(t) for t in ppts_upto(math.isqrt(bound))}
    minors = {minor(t) for t in ppts_upto(math.isqrt(2 * bound))}
    return ({t for t in majors if t[2] <= bound}, {t for t in minors if t[2] <= bound})


def step(q: int, p: int, letter: str) -> tuple[int, int]:
    if letter == "A":
        return q, p + 2 * q
    if letter == "B":
        return p, 2 * p + q
    return p, 2 * p - q


def _mat_mul(x, y):
    return (
        x[0] * y[0] + x[1] * y[2],
        x[0] * y[1] + x[1] * y[3],
        x[2] * y[0] + x[3] * y[2],
        x[2] * y[1] + x[3] * y[3],
    )


def _mat_pow(m, k: int):
    out = (1, 0, 0, 1)
    while k:
        if k & 1:
            out = _mat_mul(out, m)
        m = _mat_mul(m, m)
        k >>= 1
    return out


def apply_runs(runs, q: int = 1, p: int = 2) -> tuple[int, int]:
    """Follow (letter, count) runs down from q/p (default: the root 1/2).

    A^k and C^k are linear in k in closed form; B^k is the k-th power of
    (q, p) -> (p, 2p + q).
    """
    for letter, k in runs:
        if letter == "A":
            p += 2 * k * q
        elif letter == "C":
            d = p - q
            q, p = q + k * d, p + k * d
        else:
            m = _mat_pow((0, 1, 1, 2), k)
            q, p = m[0] * q + m[1] * p, m[2] * q + m[3] * p
    return q, p


def random_code(rng, shape: str, bits: int):
    """Seeded runs of one shape, extended until the generator has `bits` bits.

    `mixed`: short runs of any letter.  `bheavy`: long B runs (200 to 2000,
    like the Fermat family) split by single A or C steps.  `astro`: A and C
    runs of 10**6 to 10**30 letters with an occasional single B.
    Returns (runs, (q, p)).
    """
    runs: list[tuple[str, int]] = []
    q, p = 1, 2
    prev = ""
    while p.bit_length() < bits:
        if shape == "mixed":
            letter, k = rng.choice([c for c in "ABC" if c != prev]), rng.randint(1, 4)
        elif shape == "bheavy":
            if prev == "B":
                letter, k = rng.choice("AC"), 1
            else:
                left = (bits - p.bit_length()) * 4 // 5 + 1  # a B adds about 1.27 bits
                letter, k = "B", min(rng.randint(200, 2000), left)
        elif prev in ("A", "C") and rng.random() < 0.2:
            letter, k = "B", 1
        else:
            letter, k = rng.choice([c for c in "AC" if c != prev]), int(10 ** rng.uniform(6, 30))
        runs.append((letter, k))
        q, p = apply_runs(((letter, k),), q, p)
        prev = letter
    return tuple(runs), (q, p)


def merge_runs(runs) -> tuple[tuple[str, int], ...]:
    out: list[tuple[str, int]] = []
    for letter, k in runs:
        if k == 0:
            continue
        if out and out[-1][0] == letter:
            out[-1] = (letter, out[-1][1] + k)
        else:
            out.append((letter, k))
    return tuple(out)


def code_text(runs) -> str:
    """A code as the CLI prints it: letters, or 'B C^3' form when too long."""
    runs = merge_runs(runs)
    if sum(k for _, k in runs) <= MAX_EXPANDED_LETTERS:
        return "".join(letter * k for letter, k in runs)
    return compact_text(runs)


def compact_text(runs) -> str:
    return " ".join(letter if k == 1 else f"{letter}^{k}" for letter, k in merge_runs(runs))


_CODE_RE = re.compile(r"(?:[ABC](?:\^\d+)?\s*)*")
_TOKEN_RE = re.compile(r"([ABC])(?:\^(\d+))?")


def parse_code(text: str):
    """Runs of a printed code ('AACAA', 'C^13 A', or '(root)'); None if malformed."""
    if text == "(root)":
        return ()
    if not _CODE_RE.fullmatch(text):
        return None
    return merge_runs((m[1], int(m[2] or 1)) for m in _TOKEN_RE.finditer(text))


def triple_of(q: int, p: int) -> tuple[int, int, int]:
    """The triple (p^2 - q^2, 2pq, p^2 + q^2) of a primary generator q/p."""
    return (p * p - q * q, 2 * p * q, p * p + q * q)


def generators(t: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    a, b, c = t
    return Fraction(b, c + a), Fraction(a, c + b)


def level_triples(n: int):
    """Every triple on tree level n, left to right.

    Depth-first to the leaves visits level n in the same order as a
    breadth-first sweep, and keeps only the path in memory.
    """
    stack = [(1, 2, 0)]
    while stack:
        q, p, depth = stack.pop()
        if depth == n:
            yield triple_of(q, p)
            continue
        for letter in "CBA":  # pushed in reverse so A is visited first
            stack.append((*step(q, p, letter), depth + 1))


def pell(n: int) -> int:
    """n-th Pell number, 1, 2, 5, 12, 29, ... for n = 1, 2, ..."""
    return _mat_pow((2, 1, 1, 0), n)[1]


def family_generator(line: str, n: int) -> tuple[int, int]:
    if line == "platonic":
        return 1, 2 * n
    if line == "pythagorean":
        return n, n + 1
    return pell(n), pell(n + 1)


FAMILY_LETTER = {"platonic": "A", "pythagorean": "C", "fermat": "B"}


def classify(t: tuple[int, int, int]) -> str:
    a, b, c = t
    row = 0 if c % 5 == 0 else 2 if a % 5 == 0 else 4
    return f"T{row + (1 if a % 3 == 0 else 2)}"


def anti_integral(t: tuple[int, int, int], kind: str):
    """The integral preimage of t under `kind`, or None.

    The preimage legs x, y solve x + y = P + Q, xy = 2PQ (major) or
    x - y = P - Q, xy = 2PQ (minor), with Q/P the primary generator of t; the
    answer counts only if the derivative formula maps it back onto t.
    """
    g = generators(t)[0]
    q, p = g.numerator, g.denominator
    s = p + q if kind == "major" else p - q
    disc = s * s - 8 * p * q if kind == "major" else s * s + 8 * p * q
    if disc < 0 or math.isqrt(disc) ** 2 != disc:
        return None
    r = math.isqrt(disc)
    x, y = (s + r) // 2, ((s - r) if kind == "major" else (r - s)) // 2
    hyp = p - q if kind == "major" else p + q
    if x <= 0 or y <= 0 or x * x + y * y != hyp * hyp or math.gcd(x, y) != 1:
        return None
    pre = canon(x, y, hyp)
    return pre if (major if kind == "major" else minor)(pre) == t else None
