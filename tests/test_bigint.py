"""The exact big-integer kernels against the builtins they stand in for, and the size threshold that picks them."""

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from pptalgebra import PPT, ROOT_GENERATOR, PathCode, apply_path, triple_from_primary
from pptalgebra._bigint import ROOT_FROM_BITS, root_cofactor
from pptalgebra.generators import _generator_pair
from pptalgebra.triple_core import _proven, _root_pair
from test_triple_core import pair_by_isqrt


def by_builtins(x: int, m: int) -> tuple[int, int]:
    """The oracle: isqrt of x and the quotient of m by it."""
    r = math.isqrt(x)
    return r, m // r


def assert_rooted(r: int, s: int) -> None:
    # root_cofactor of r^2 and r*s gives r and s back, at the least bits that bound both and at a few more.
    bits = max(r.bit_length(), s.bit_length())
    for extra in (0, 1, 2, 65):
        assert root_cofactor(r * r, r * s, bits + extra) == by_builtins(r * r, r * s) == (r, s)


@given(st.integers(0, 2**10000).map(lambda n: 2 * n + 1), st.integers(0, 2**10000), st.data())
def test_drawn_squares_root_as_isqrt_and_divide(r, s, data):
    assert_rooted(r, s)
    small = data.draw(st.integers(0, 2**64))
    assert_rooted(r, small)
    assert_rooted(2 * small + 1, s)


@pytest.mark.parametrize("k", [*range(1, 70), 127, 128, 129, 1000, 4095, 4096, 4097, 9999])
def test_roots_next_to_powers_of_two(k):
    for r in ((1 << k) - 1, (1 << k) + 1):
        for s in (0, 1, 2, r - 1, r, r + 1, (1 << k) - 1, 1 << k, (1 << k) + 1, 3 * r):
            assert_rooted(r, s)


def test_small_roots_exhaustively():
    for r in range(1, 400, 2):
        for s in range(0, 300, 7):
            assert_rooted(r, s)


@pytest.mark.parametrize("x", [0, 1, 2, 3, 5, 7, 8, 15, 17, 33, 2**64 + 1, 3**200, -1, -9, -(7**99), 9 * 2**40, 4**100])
def test_any_other_input_gives_ints_and_raises_nothing(x):
    # Non-squares, x not 1 mod 8, even x and negative x: any pair of ints, so the caller's checks decide.
    for m in (0, 1, -5, 3**300, x):
        for bits in (0, 1, 2, 3, 50, 700):
            r, s = root_cofactor(x, m, bits)
            assert type(r) is int and type(s) is int


def test_root_pair_reads_both_halves_with_p_of_either_parity(random_triple):
    rng = random.Random(7)
    for c_bits in (64, 1000, 8192, 16384):
        for parity in (0, 1):
            t = random_triple(rng, c_bits, parity)
            assert t._pair[1] % 2 == parity
            assert _root_pair(*t.sides()) == t._pair == pair_by_isqrt(t)


def test_a_checked_triple_past_the_threshold_takes_no_isqrt(monkeypatch, root_triples):
    isqrt, roots = math.isqrt, []
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    # The fixture's triples, of 8193 bits of c and more, pin the threshold from above: deep's 16k-bit triples and
    # every larger one take the root.
    for t in root_triples:
        checked, twin = PPT(*t.sides()), _proven(PPT, *t.sides())
        assert checked._pair == _generator_pair(twin) == t._pair
    assert roots == []


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_pairs_at_the_threshold(monkeypatch, random_triple, offset):
    # Below ROOT_FROM_BITS bits of c, PPT() and a pair read take one isqrt each, as both read by _root_pair; from there
    # on, none.  Either way it keeps the pair the sides give, and a pair-less twin reads the same.
    rng, bits = random.Random(offset), ROOT_FROM_BITS + offset
    for parity in (0, 1):
        t = random_triple(rng, bits, parity)
        isqrt, roots = math.isqrt, []
        monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
        checked, twin = PPT(*t.sides()), _proven(PPT, *t.sides())
        assert checked._pair == _generator_pair(twin) == t._pair
        monkeypatch.undo()
        assert t._pair == pair_by_isqrt(t)
        assert len(roots) == (0 if bits >= ROOT_FROM_BITS else 2)


@pytest.mark.parametrize("k", [3300, 40_000])
def test_a_pairless_b_line_triple_reads_its_pair_by_the_root(monkeypatch, k):
    # Legs that differ by 1 take the sides' check and keep no pair, so each read roots (c -+ a)/2.
    t = PPT(*triple_from_primary(apply_path(ROOT_GENERATOR, PathCode((("B", k),)))).sides())
    assert t.c.bit_length() >= ROOT_FROM_BITS and not hasattr(t, "_pair")
    want = pair_by_isqrt(t)
    isqrt, roots = math.isqrt, []
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    assert _generator_pair(t) == want and roots == []
