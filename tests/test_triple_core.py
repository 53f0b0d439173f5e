"""Validation, canonical orientation and divisibility classes."""

import copy
import math
import pickle
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pptalgebra import (
    PPT,
    DerivativeKind,
    InvalidParity,
    KeySequence,
    NotATriple,
    NotPrimitive,
    PathCode,
    ROOT_GENERATOR,
    TClass,
    TripleError,
    altitude_kappa,
    anti_derivative,
    apply_path,
    classify,
    derivative,
    divisibility_witness,
    generators_of,
    key_sequence_of,
    make_ppt,
    triple_from_key,
    triple_from_primary,
    triple_from_secondary,
)
from pptalgebra import generators
from pptalgebra.generators import _generator_pair
from pptalgebra.symphonic import _NOT_SQUARE_MOD
from pptalgebra.triple_core import _proven, _shown


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
    # Sides that sorted() cannot order with ints: the side check comes first, so these raise no TypeError.
    with pytest.raises(TripleError, match="^sides must be positive integers, got '3'$"):
        make_ppt("3", 4, 5)  # type: ignore[arg-type]
    with pytest.raises(TripleError, match="^sides must be positive integers, got None$"):
        make_ppt(None, 4, 5)  # type: ignore[arg-type]
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


# ------------------------------------------------------------ the trust boundary


def validate_by_sides(a, b, c):
    """The check on the sides alone, two full products and a full gcd, as (error class, message), or None for a
    PPT; the oracle for what PPT() accepts and raises."""
    for side in (a, b, c):
        if not isinstance(side, int) or side <= 0:
            return TripleError, f"sides must be positive integers, got {_shown(side, 'integer', repr)}"
    if (c - a) * (c + a) != b * b:
        problem, error = "{}^2 + {}^2 != {}^2", NotATriple
    elif math.gcd(a, b) != 1:
        problem, error = "legs {}, {} share a common factor", NotPrimitive
    elif a % 2 == 0 or b % 2 == 1:
        problem, error = "expected odd leg, even leg; got ({}, {})", InvalidParity
    else:
        return None
    return error, problem.format(*(_shown(side, "integer") for side in (a, b, c)))


def keeps_pair(a: int, b: int, c: int) -> bool:
    """Whether a valid triple is checked on its generator pair: unless its legs differ in at most half the bits."""
    return 2 * (a - b).bit_length() > c.bit_length()


def pair_by_isqrt(t: PPT) -> tuple[int, int]:
    p = math.isqrt((t.c + t.a) // 2)
    return t.b // (2 * p), p


def assert_checked_as_by_sides(*sides) -> PPT | None:
    # PPT() and make_ppt on every order of the sides raise what the sides' check raises, class and message, or
    # accept exactly what it accepts; an accepted triple is its _proven twin and keeps the pair the sides give.
    for build, args in [(PPT, sides)] + [(make_ppt, order) for order in set(permutations(sides))]:
        if build is make_ppt and all(isinstance(side, int) and side > 0 for side in args):
            x, y, z = sorted(args)
            want = validate_by_sides(*((y, x, z) if x % 2 == 0 and y % 2 else (x, y, z)))
        else:
            want = validate_by_sides(*args)
        try:
            got = build(*args)
        except TripleError as error:
            assert want == (type(error), str(error)), args
            continue
        assert want is None, args
        twin = _proven(PPT, *got.sides())
        assert type(got) is PPT and got == twin and hash(got) == hash(twin)
        if keeps_pair(*got.sides()):
            assert got._pair == pair_by_isqrt(twin) == _generator_pair(got)
        else:
            assert not hasattr(got, "_pair")
    return None if validate_by_sides(*sides) else PPT(*sides)


def test_valid_triples_keep_their_pair(by_hypotenuse, big_triples, root_triples):
    kept = 0
    for t in by_hypotenuse + big_triples + root_triples:
        checked = PPT(*t.sides())
        assert checked == t and validate_by_sides(*t.sides()) is None
        if keeps_pair(*t.sides()):
            kept += 1
            assert checked._pair == pair_by_isqrt(t)
        else:
            assert not hasattr(checked, "_pair")
    assert 0 < kept < len(by_hypotenuse)
    for t in big_triples + root_triples:
        assert_checked_as_by_sides(*t.sides())


# p from 2^4096 on gives c of more than 8192 bits, whose pair PPT() reads by a 2-adic root (ROOT_FROM_BITS).
@given(st.integers(2, 2**4096) | st.integers(2**4096, 2**8192), st.data())
def test_drawn_triples_keep_their_pair(p, data):
    q = data.draw(st.integers(1, p - 1))
    assume((p + q) % 2 and math.gcd(p, q) == 1)
    t = assert_checked_as_by_sides(p * p - q * q, 2 * p * q, p * p + q * q)
    assert getattr(t, "_pair", (q, p)) == (q, p)


def invalid_variants(t: PPT) -> list[tuple[int, int, int]]:
    # Multiples by 4 and by odd squares, which pass the square checks and fail only on gcd(P, Q); swapped legs;
    # c and b off by 2, which keeps every side's parity; c off by 1, which makes c + a odd; and c at or below a.
    # Each near miss below fails one check of the pair route alone: a - 2 and c + 2 keep P and fail 2Q^2 = c - a,
    # a + 2 and c + 2 keep Q and fail 2P^2 = c + a, and twice the swapped triple is Euclid's (P, Q) = (p + q, p - q)
    # with an even first leg, which only the parity of a refuses.
    a, b, c = t.sides()
    return [
        *((k * a, k * b, k * c) for k in (4, 9, 25, 225)),
        (b, a, c),
        *((a, b, c + e) for e in (2, -2, 1, -1)),
        *((a, b + e, c) for e in (2, -2)),
        (a - 2, b, c + 2),
        (a + 2, b, c + 2),
        (2 * b, 2 * a, 2 * c),
        (a, b, a),
        (c, b, a),
        (a, b, a - 2),
    ]


def test_invalid_inputs_raise_as_the_sides_check(by_hypotenuse, big_triples, root_triples):
    triples = by_hypotenuse[::50] + big_triples + root_triples
    rejected = set()
    for t in triples:
        for sides in invalid_variants(t):
            if all(side > 0 for side in sides):
                assert assert_checked_as_by_sides(*sides) is None
                rejected.add(validate_by_sides(*sides)[0])
    assert rejected == {NotATriple, NotPrimitive, InvalidParity}
    for sides in [(9 * 3, 9 * 4, 9 * 5), (0, 4, 5), (3.0, 4, 5), (1, 1, 1), (6, 8, 9), (10**5000 + 1, 2, 3)]:
        assert_checked_as_by_sides(*sides)


@given(st.integers(2, 2**512), st.data())
def test_odd_square_multiples_fail_on_the_pair_gcd(p, data):
    q = data.draw(st.integers(1, p - 1))
    k = data.draw(st.sampled_from((3, 5, 15, 105)))
    assume((p + q) % 2 and math.gcd(p, q) == 1)
    assert assert_checked_as_by_sides(*(k * k * side for side in (p * p - q * q, 2 * p * q, p * p + q * q))) is None


def test_a_checked_generic_triple_reads_its_pair_with_no_isqrt(monkeypatch, big_triples):
    # derivative and generators_of read the kept pair and take no isqrt; anti_derivative takes only the one of
    # its discriminant c -+ 3b, when that is positive and passes the square screen.  The _proven twin, which keeps
    # no pair, takes the isqrt of (c + a)/2 for each read, so the spy sees the pair reads it is there to catch.
    t = big_triples[-1]
    checked, twin = PPT(*t.sides()), _proven(PPT, *t.sides())
    assert keeps_pair(*t.sides())
    outputs = {kind: (derivative(twin, kind), anti_derivative(twin, kind)) for kind in DerivativeKind}
    isqrt, roots = math.isqrt, []
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    assert generators_of(checked) == generators_of(twin)
    assert roots == [(t.c + t.a) // 2]
    roots.clear()
    for kind in DerivativeKind:
        assert derivative(checked, kind) == outputs[kind][0]
    assert roots == []
    for kind in DerivativeKind:
        assert anti_derivative(checked, kind) == outputs[kind][1]
    discs = (t.c - 3 * t.b, t.c + 3 * t.b)
    assert roots == [disc for disc in discs if disc > 0 and not _NOT_SQUARE_MOD[disc % len(_NOT_SQUARE_MOD)]]


@pytest.mark.parametrize("k", [0, 1, 2, 3, 10, 97, 1000, 4000])
def test_b_line_triples_keep_no_pair(k):
    # Legs that differ by 1: gcd(a, b) ends at once, so the sides' check is taken and no pair is kept.
    t = triple_from_primary(apply_path(ROOT_GENERATOR, PathCode((("B", k),))))
    assert abs(t.a - t.b) == 1
    checked = PPT(*t.sides())
    assert checked == t and not hasattr(checked, "_pair")
    assert _generator_pair(checked) == pair_by_isqrt(t)


def test_triples_built_from_a_pair_keep_it(monkeypatch, big_triples):
    # derivative of both kinds and the three constructions build the triple from its pair and keep that pair, as
    # PPT() does, so reading it takes no isqrt; the pair is the one the sides give.
    built = []
    for t in [PPT(5, 12, 13), *big_triples]:
        key = key_sequence_of(t)
        built += [derivative(t, kind) for kind in DerivativeKind]
        built += [triple_from_primary(key.primary), triple_from_key(key), triple_from_secondary(key.secondary)]
    built.append(triple_from_key(KeySequence(True, True, 2, 3)))  # bool entries, kept as plain ints
    want = [pair_by_isqrt(t) for t in built]
    isqrt, roots = math.isqrt, []
    monkeypatch.setattr(generators.math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    pairs = [_generator_pair(t) for t in built]
    assert roots == []
    assert pairs == want and all(type(v) is int for pair in pairs for v in pair)


def test_a_kept_pair_is_no_field():
    t = PPT(5, 12, 13)
    assert t._pair == (2, 3)
    assert PPT.__match_args__ == ("a", "b", "c")
    assert repr(t) == "PPT(a=5, b=12, c=13)" and t == _proven(PPT, 5, 12, 13)
    assert hash(t) == hash(_proven(PPT, 5, 12, 13)) == hash((5, 12, 13))


def test_a_kept_pair_copies_and_pickles_away(big_triples):
    # A copy or an unpickled triple is built by _proven, with no pair: it reads its pair lazily, the same one.
    for sides in [(5, 12, 13), *(t.sides() for t in big_triples)]:
        t = PPT(*sides)
        twins = [copy.copy(t), copy.deepcopy(t)]
        twins += [pickle.loads(pickle.dumps(t, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        for twin in twins:
            assert type(twin) is PPT and twin == t and hash(twin) == hash(t)
            assert not hasattr(twin, "_pair")
            assert _generator_pair(twin) == _generator_pair(t) == pair_by_isqrt(t)
