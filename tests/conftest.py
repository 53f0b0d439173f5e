"""Shared fixtures and an independent brute-force enumeration oracle."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import settings

from pptalgebra import (
    PPT,
    ROOT_GENERATOR,
    Family,
    FamilyLine,
    PathCode,
    apply_path,
    family_member,
    iter_by_hypotenuse,
    triple_from_primary,
    walk,
)

settings.register_profile("suite", deadline=None, max_examples=100)
settings.load_profile("suite")


def brute_force_ppts(max_c: int) -> list[PPT]:
    """Every PPT with hypotenuse <= max_c, found by scanning leg pairs.

    Deliberately ignorant of generators and the tree so it can act as an
    oracle for both.
    """
    found = []
    for a in range(3, max_c, 2):
        if a * a + 16 > max_c * max_c:
            break
        for b in range(4, max_c, 2):
            c2 = a * a + b * b
            if c2 > max_c * max_c:
                break
            c = math.isqrt(c2)
            if c * c == c2 and math.gcd(a, b) == 1:
                found.append(PPT(a, b, c))
    return sorted(found)


def assert_same_fraction(got: Fraction, want: Fraction) -> None:
    """`got`, built without a gcd, is `want` in every way a caller can see."""
    assert type(got) is Fraction
    assert got.as_integer_ratio() == want.as_integer_ratio()
    assert got == want and hash(got) == hash(want)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert str(got) == str(want) and repr(got) == repr(want)
    finally:
        sys.set_int_max_str_digits(limit)
    third = Fraction(1, 3)
    assert (got + third) - third == want and (got * third) / third == want


@pytest.fixture(scope="session")
def same_fraction():
    return assert_same_fraction


@pytest.fixture(scope="session")
def brute_force():
    return brute_force_ppts


@pytest.fixture(scope="session")
def corpus() -> list[PPT]:
    """All 9841 triples through tree depth 8, breadth-first."""
    return list(walk(8))


@pytest.fixture(scope="session")
def small_corpus() -> list[PPT]:
    """All 1093 triples through tree depth 6."""
    return list(walk(6))


@pytest.fixture(scope="session")
def by_hypotenuse() -> list[PPT]:
    """All 15919 triples with hypotenuse <= 10^5, in iter_by_hypotenuse order; callers must not mutate it."""
    return list(iter_by_hypotenuse(10**5))


@pytest.fixture(scope="session")
def big_triples() -> list[PPT]:
    """Triples with 7.7k-10.2k-bit hypotenuses, far past float range."""
    return [
        family_member(Family(FamilyLine.FERMAT, 4000)),
        family_member(Family(FamilyLine.PLATONIC, 10**1200)),
        family_member(Family(FamilyLine.PYTHAGOREAN, 10**1200)),
        triple_from_primary(apply_path(ROOT_GENERATOR, PathCode.parse("A^1000 B^3000 C^1000"))),
    ]


def draw_triple(rng: random.Random, c_bits: int, p_parity: int) -> PPT:
    """A random primitive triple with c of exactly c_bits bits and p of the given parity, keeping its pair (q, p)."""
    while True:
        p = (rng.getrandbits((c_bits + 1) // 2) | 1 << (c_bits - 1) // 2) & -2 | p_parity
        q = rng.randrange(1, p)
        if (p + q) % 2 and math.gcd(p, q) == 1 and (p * p + q * q).bit_length() == c_bits:
            return triple_from_primary(Fraction(q, p))


@pytest.fixture(scope="session")
def random_triple():
    return draw_triple


@pytest.fixture(scope="session")
def root_triples() -> list[PPT]:
    """Random triples of 8193 and 16385 bits of c, p even then odd at each size, whose generator pair PPT() reads by
    one 2-adic root, not by an isqrt: from ROOT_FROM_BITS = 8192 bits of c on."""
    rng = random.Random(33)
    return [draw_triple(rng, bits, parity) for bits in (8193, 16385) for parity in (0, 1)]
