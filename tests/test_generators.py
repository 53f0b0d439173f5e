"""Generators, key sequences, parametric constructions and tangent-circle radii."""

import math
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pptalgebra import (
    ROOT_GENERATOR,
    DerivativeKind,
    KeySequence,
    PathCode,
    Radii,
    WrongParity,
    apply_path,
    derive_generator,
    format_fraction,
    generators_of,
    key_sequence_from_fraction,
    key_sequence_of,
    locate,
    make_ppt,
    parent,
    parse_fraction,
    parse_key_sequence,
    proper_fraction,
    radii,
    require_proper,
    triple_from_key,
    triple_from_primary,
    triple_from_secondary,
)


@st.composite
def reduced_proper(draw, max_den: int = 600):
    p = draw(st.integers(min_value=2, max_value=max_den))
    q = draw(st.integers(min_value=1, max_value=p - 1))
    assume(math.gcd(p, q) == 1)
    return Fraction(q, p)


@st.composite
def secondary_fraction(draw, max_den: int = 600):
    # Both terms odd by construction (an even-sum reduced fraction has no other form).
    p = 2 * draw(st.integers(min_value=1, max_value=(max_den - 1) // 2)) + 1
    q = 2 * draw(st.integers(min_value=0, max_value=(p - 3) // 2)) + 1
    assume(math.gcd(p, q) == 1)
    return Fraction(q, p)


@st.composite
def primary_fraction(draw, max_den: int = 600):
    f = draw(reduced_proper(max_den))
    assume((f.numerator + f.denominator) % 2 == 1)
    return f


def test_generator_goldens():
    assert generators_of(make_ppt(3, 4, 5)) == (Fraction(1, 2), Fraction(1, 3))
    assert generators_of(make_ppt(5, 12, 13)) == (Fraction(2, 3), Fraction(1, 5))
    assert generators_of(make_ppt(15, 8, 17)) == (Fraction(1, 4), Fraction(3, 5))


def test_key_sequence_goldens():
    assert key_sequence_of(make_ppt(3, 4, 5)) == KeySequence(1, 1, 2, 3)
    assert key_sequence_of(make_ppt(5, 12, 13)) == KeySequence(1, 2, 3, 5)
    assert str(key_sequence_of(make_ppt(3, 4, 5))) == "[1,1,2,3]"


def test_key_sequence_validation():
    with pytest.raises(ValueError):
        KeySequence(2, 1, 3, 4)  # first entry even
    with pytest.raises(ValueError):
        KeySequence(1, 2, 3, 4)  # Fibonacci rule broken at the last step
    with pytest.raises(ValueError):
        KeySequence(3, 6, 9, 15)  # common factor
    with pytest.raises(ValueError):
        KeySequence(1, 0, 1, 1)


def test_key_roundtrip(corpus):
    for t in corpus:
        assert triple_from_key(key_sequence_of(t)) == t


def test_hypotenuse_two_expressions_agree(corpus):
    # p1*p2 - q1*q2 and p1*q2 + p2*q1 both give the hypotenuse.
    for t in corpus:
        k = key_sequence_of(t)
        assert k.p1 * k.p2 - k.q1 * k.q2 == t.c
        assert k.p1 * k.q2 + k.p2 * k.q1 == t.c


@given(primary_fraction())
def test_primary_construction_roundtrip(f):
    t = triple_from_primary(f)
    assert generators_of(t)[0] == f


@given(secondary_fraction())
def test_secondary_construction_roundtrip(f):
    t = triple_from_secondary(f)
    assert generators_of(t)[1] == f


@given(reduced_proper())
def test_key_completion_contains_fraction(f):
    k = key_sequence_from_fraction(f)
    if (f.numerator + f.denominator) % 2 == 0:
        assert k.secondary == f
    else:
        assert k.primary == f


def test_key_completion_goldens():
    assert key_sequence_from_fraction(Fraction(1, 3)) == KeySequence(1, 1, 2, 3)
    assert key_sequence_from_fraction(Fraction(2, 3)) == KeySequence(1, 2, 3, 5)


def test_wrong_parity_is_refused():
    with pytest.raises(WrongParity, match="^1/3 has even numerator"):
        triple_from_primary(Fraction(1, 3))
    with pytest.raises(WrongParity, match="^1/2 has odd numerator"):
        triple_from_secondary(Fraction(1, 2))
    # Too long to print under the default int-to-str limit: named by size, still WrongParity.
    with pytest.raises(WrongParity, match="^a 16610-bit fraction has even numerator"):
        triple_from_primary(Fraction(10**5000 - 1, 10**5000 + 1))
    with pytest.raises(WrongParity, match="^a 16610-bit fraction has odd numerator"):
        triple_from_secondary(Fraction(10**5000 - 1, 10**5000))


def test_huge_entries_in_errors_are_named_by_size():
    with pytest.raises(ValueError, match=r"^\[a 16610-bit integer,1,2,3\] violates the Fibonacci rule$"):
        KeySequence(10**5000 + 1, 1, 2, 3)
    with pytest.raises(ValueError, match="^a 16610-bit numerator/3 is not a proper fraction$"):
        proper_fraction(10**5000, 3)


def test_primary_and_secondary_generate_the_same_triple(corpus):
    for t in corpus[:2000]:
        t1, t2 = generators_of(t)
        assert triple_from_primary(t1) == t
        assert triple_from_secondary(t2) == t


def test_radii_golden():
    assert radii(key_sequence_of(make_ppt(3, 4, 5))) == Radii(1, 3, 2, 6)


def test_radii_circle_identities(corpus):
    for t in corpus:
        r = radii(key_sequence_of(t))
        assert r.r1 + r.r2 + r.r3 == r.r4
        assert r.r1 * r.r4 == r.r2 * r.r3
        assert Counter((r.r1 + r.r2, r.r1 + r.r3, r.r2 + r.r3)) == Counter(t.sides())
        assert r.r4 - r.r1 == t.c


def test_radii_validation():
    with pytest.raises(ValueError):
        Radii(1, 2, 2, 6)
    with pytest.raises(ValueError):
        Radii(1, 4, 2, 7)


def test_fraction_wire_format():
    assert parse_fraction("6/35") == Fraction(6, 35)
    assert format_fraction(Fraction(246792, 2150905)) == "246792/2150905"
    for bad in ("6/ 35", "3", "-1/2", "0/5", "5/3", "q/p", "1/0", "1/2\n", "\u0661/\u0662", "\uff11/\uff12"):
        with pytest.raises(ValueError):
            parse_fraction(bad)


def test_key_sequence_wire_format():
    assert parse_key_sequence("[1,1,2,3]") == KeySequence(1, 1, 2, 3)
    assert parse_key_sequence(str(KeySequence(3, 2, 5, 7))) == KeySequence(3, 2, 5, 7)
    for bad in ("[1, 1, 2, 3]", "1,1,2,3", "[1,1,2]", "[2,1,3,4]", "[1,1,2,3]\n"):
        with pytest.raises(ValueError):
            parse_key_sequence(bad)


def test_proper_fraction_guards():
    assert proper_fraction(2, 4) == Fraction(1, 2)
    with pytest.raises(ValueError):
        proper_fraction(3, 3)
    with pytest.raises(ValueError):
        proper_fraction(-1, 2)
    with pytest.raises(ValueError, match="^expected a proper fraction, got 5/3$"):
        require_proper(Fraction(5, 3))


GENERATOR_READERS = {
    "apply_path": lambda f: apply_path(f, PathCode.parse("A")),
    "derive_generator": lambda f: derive_generator(f, DerivativeKind.MAJOR),
    "key_sequence_from_fraction": key_sequence_from_fraction,
    "locate": locate,
    "parent": parent,
    "require_proper": require_proper,
    "triple_from_primary": triple_from_primary,
    "triple_from_secondary": triple_from_secondary,
}


@pytest.mark.parametrize("name", sorted(GENERATOR_READERS))
def test_generators_that_are_not_fractions_raise_type_error(name):
    read = GENERATOR_READERS[name]
    for bad, kind in ((0.5, "float"), (Decimal("0.5"), "Decimal"), ("1/2", "str"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"^expected a fraction, got {kind}$"):
            read(bad)
    for improper in (0, 1, True, Fraction(5, 3), Fraction(-1, 2)):
        with pytest.raises(ValueError, match=f"^expected a proper fraction, got {improper}$"):
            read(improper)
    read(ROOT_GENERATOR if name != "triple_from_secondary" else Fraction(1, 3))
