"""Validation, canonical orientation and divisibility classes."""

from fractions import Fraction
from itertools import permutations

import pytest

from pptalgebra import (
    PPT,
    InvalidParity,
    NotATriple,
    NotPrimitive,
    TClass,
    TripleError,
    altitude_kappa,
    classify,
    divisibility_witness,
    make_ppt,
    triple_from_primary,
)


def test_make_ppt_accepts_any_leg_order():
    expected = PPT(3, 4, 5)
    for sides in permutations((3, 4, 5)):
        assert make_ppt(*sides) == expected


def test_str_form():
    assert str(make_ppt(3, 4, 5)) == "[3, 4, 5]"
    assert str(make_ppt(8, 15, 17)) == "[15, 8, 17]"


def test_sides_in_canonical_order():
    t = make_ppt(12, 13, 5)
    assert t.sides() == (5, 12, 13)
    assert (t.a % 2, t.b % 2) == (1, 0)


def test_rejects_non_triple():
    with pytest.raises(NotATriple):
        make_ppt(3, 4, 6)
    with pytest.raises(NotATriple, match=r"^6\^2 \+ 8\^2 != 9\^2$"):
        make_ppt(6, 8, 9)
    with pytest.raises(NotATriple):
        make_ppt(1, 1, 1)


def test_rejects_common_factor():
    with pytest.raises(NotPrimitive, match="^legs 6, 8 share a common factor$"):
        make_ppt(6, 8, 10)
    with pytest.raises(NotPrimitive):
        make_ppt(9, 12, 15)


def test_rejects_nonpositive_and_nonint():
    for bad in ((0, 4, 5), (-3, 4, 5)):
        with pytest.raises(TripleError):
            make_ppt(*bad)
    with pytest.raises(TripleError):
        make_ppt(3.0, 4, 5)  # type: ignore[arg-type]
    with pytest.raises(TripleError, match="^sides must be positive integers, got 0$"):
        PPT(0, 4, 5)
    with pytest.raises(TripleError, match=r"^sides must be positive integers, got 3\.0$"):
        PPT(3.0, 4, 5)  # type: ignore[arg-type]


def test_huge_sides_in_errors_are_named_by_size():
    # Past the default int-to-str limit the sides cannot be printed; the error
    # keeps its class and gives their size.
    with pytest.raises(NotATriple, match=r"^a 16610-bit integer\^2 \+ 2\^2 != 3\^2$"):
        PPT(10**5000 + 1, 2, 3)
    with pytest.raises(NotATriple, match=r"^5\^2 \+ 4\^2 != a 16610-bit integer\^2$"):
        make_ppt(10**5000, 4, 5)
    with pytest.raises(TripleError, match="^sides must be positive integers, got a 16610-bit integer$"):
        make_ppt(-(10**5000), 4, 5)


def test_direct_constructor_enforces_orientation():
    with pytest.raises(InvalidParity):
        PPT(4, 3, 5)
    with pytest.raises(InvalidParity):
        PPT(8, 15, 17)
    assert PPT(15, 8, 17).b == 8


def test_huge_sides_are_fine():
    t = make_ppt(4565486027761, 1061652293520, 4687298610289)
    assert t.a == 4565486027761


def test_ordering_and_hashing():
    triples = {make_ppt(3, 4, 5), make_ppt(5, 12, 13), make_ppt(3, 4, 5)}
    assert len(triples) == 2
    assert min(triples) == PPT(3, 4, 5)


def test_classify_simplest_member_of_each_class():
    # The smallest member of each class, identified by its primary generator.
    simplest = {
        Fraction(1, 2): TClass.T1,
        Fraction(3, 4): TClass.T2,
        Fraction(1, 4): TClass.T3,
        Fraction(2, 3): TClass.T4,
        Fraction(2, 5): TClass.T5,
        Fraction(5, 6): TClass.T6,
    }
    for generator, expected in simplest.items():
        assert classify(triple_from_primary(generator)) is expected


def test_classify_consistent_with_divisibility(brute_force):
    row_by_five = {"c": (TClass.T1, TClass.T2), "a": (TClass.T3, TClass.T4), "b": (TClass.T5, TClass.T6)}
    for t in brute_force(400):
        witness = divisibility_witness(t)
        expected = row_by_five[witness.five_divides][0 if witness.three_divides == "a" else 1]
        assert classify(t) is expected


def test_witness_factors_divide_what_they_claim(brute_force):
    for t in brute_force(300):
        witness = divisibility_witness(t)
        assert t.b % 4 == 0
        assert getattr(t, witness.three_divides) % 3 == 0
        assert getattr(t, witness.five_divides) % 5 == 0
        assert (t.a * t.b * t.c) % 60 == 0


def test_altitude():
    assert altitude_kappa(make_ppt(3, 4, 5)) == Fraction(12, 5)
    assert altitude_kappa(make_ppt(5, 12, 13)) == Fraction(60, 13)
