"""Inscribed squares, the reciprocal identity, derivatives and anti-derivatives."""

import math
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pptalgebra import (
    AntiDerivative,
    DerivativeKind,
    QuadraticSurd,
    TClass,
    anti_derivative,
    classify,
    corollary_generators,
    derivative,
    factor_class_transition,
    generators_of,
    harmonic_sum,
    inscribed_squares,
    integer_square_scale,
    is_derivative,
    major_derivative,
    make_ppt,
    minor_derivative,
    reciprocal_triple,
    square_triangle_triple,
    altitude_kappa,
    iter_by_hypotenuse,
    triple_from_primary,
    triple_from_secondary,
    trivial_reciprocal_solution,
)

MAJOR, MINOR = DerivativeKind.MAJOR, DerivativeKind.MINOR


def test_harmonic_sum_goldens():
    assert harmonic_sum(3, 4) == Fraction(12, 7)
    assert harmonic_sum(Fraction(12, 5), 5) == Fraction(60, 37)
    assert harmonic_sum(777, 1036) == 444


@given(st.fractions(min_value=Fraction(1, 100), max_value=100))
def test_harmonic_sum_symmetric_case(x):
    assert harmonic_sum(x, x) == x / 2
    assert harmonic_sum(x, 2 * x) == Fraction(2, 3) * x


def test_harmonic_sum_requires_positive():
    with pytest.raises(ValueError):
        harmonic_sum(0, 3)
    with pytest.raises(ValueError):
        harmonic_sum(3, -4)


def test_inscribed_squares_goldens():
    sq = inscribed_squares(make_ppt(3, 4, 5))
    assert (sq.h, sq.s) == (Fraction(12, 7), Fraction(60, 37))
    sq = inscribed_squares(make_ppt(5, 12, 13))
    assert (sq.h, sq.s) == (Fraction(60, 17), Fraction(780, 229))


def test_symphonic_square_is_harmonic_sum_of_altitude_and_hypotenuse(small_corpus):
    for t in small_corpus:
        sq = inscribed_squares(t)
        assert sq.s == harmonic_sum(altitude_kappa(t), t.c)
        assert sq.h == harmonic_sum(t.a, t.b)


def test_square_ordering_and_reciprocal_identity(corpus):
    for t in corpus:
        sq = inscribed_squares(t)
        assert t.c > sq.h > sq.s
        assert 1 / Fraction(t.c) ** 2 + 1 / sq.h**2 == 1 / sq.s**2


def test_reciprocal_triple_golden():
    assert reciprocal_triple(make_ppt(3, 4, 5)) == (
        Fraction(7, 12),
        Fraction(1, 5),
        Fraction(37, 60),
    )
    scaled = [x * 60 for x in reciprocal_triple(make_ppt(3, 4, 5))]
    assert scaled == [35, 12, 37]
    assert make_ppt(*(int(v) for v in scaled)) == make_ppt(35, 12, 37)


def test_trivial_reciprocal_solution(small_corpus):
    assert trivial_reciprocal_solution(make_ppt(3, 4, 5)) == (20, 15, 12)
    assert trivial_reciprocal_solution(make_ppt(5, 12, 13)) == (156, 65, 60)
    for t in small_corpus[:200]:
        x, y, z = trivial_reciprocal_solution(t)
        assert Fraction(1, x * x) + Fraction(1, y * y) == Fraction(1, z * z)


def test_integer_square_scale_goldens():
    scaled = integer_square_scale(make_ppt(3, 4, 5))
    assert scaled.scale == 259
    assert scaled.scaled == (777, 1036, 1295)
    assert (scaled.h, scaled.s) == (444, 420)
    scaled = integer_square_scale(make_ppt(5, 12, 13))
    assert scaled.scale == math.lcm(17, 229) == 3893
    assert (scaled.h, scaled.s) == (13740, 13260)


@pytest.mark.parametrize("sides", [(3, 4, 5), (5, 12, 13), (15, 8, 17)])
def test_integer_square_scale_is_minimal(sides):
    t = make_ppt(*sides)
    sq = inscribed_squares(t)
    lam = integer_square_scale(t).scale
    for smaller in range(1, lam):
        assert (smaller * sq.h).denominator > 1 or (smaller * sq.s).denominator > 1


def test_harmonic_square_is_never_integral(small_corpus):
    # a and b are coprime, so ab/(a+b) is already in lowest terms with
    # denominator a+b > 1; no primitive triple has integer inscribed squares
    # without scaling.
    for t in small_corpus:
        sq = inscribed_squares(t)
        assert sq.h.denominator == t.a + t.b
        assert integer_square_scale(t).scale > 1


# ------------------------------------------------------------- derivatives


DERIVATIVE_TABLE = {
    (3, 4, 5): ((35, 12, 37), (5, 12, 13)),
    (5, 12, 13): ((221, 60, 229), (91, 60, 109)),
    (15, 8, 17): ((391, 120, 409), (119, 120, 169)),
    (7, 24, 25): ((775, 168, 793), (425, 168, 457)),
}


def test_derivative_table():
    for sides, (major, minor) in DERIVATIVE_TABLE.items():
        t = make_ppt(*sides)
        assert major_derivative(t).sides() == major
        assert minor_derivative(t).sides() == minor


def test_derivatives_of_level_one():
    assert major_derivative(make_ppt(21, 20, 29)).sides() == (1189, 420, 1261)
    assert minor_derivative(make_ppt(21, 20, 29)).sides() == (29, 420, 421)


def test_derivatives_stay_primitive_and_class_restricted(corpus):
    for t in corpus[:3000]:
        for kind in (MAJOR, MINOR):
            d = derivative(t, kind)
            assert classify(d) in (TClass.T4, TClass.T6)


def test_substitution_identity_holds_for_arbitrary_integers():
    # [c(a+b)]^2 + [ab]^2 == [ab + c^2]^2 with c^2 = a^2 + b^2 is a polynomial
    # identity, not just a fact about triples.
    for a in range(-20, 21):
        for b in range(-20, 21):
            c2 = a * a + b * b
            assert c2 * (a + b) ** 2 + (a * b) ** 2 == (a * b + c2) ** 2


def test_corollary_generators_goldens():
    t = make_ppt(3, 4, 5)
    assert corollary_generators(t, MAJOR) == (Fraction(1, 6), Fraction(5, 7))
    assert corollary_generators(t, MINOR) == (Fraction(2, 3), Fraction(1, 5))


def test_corollary_generators_generate_the_derivative(small_corpus):
    for t in small_corpus:
        for kind in (MAJOR, MINOR):
            primary, secondary = corollary_generators(t, kind)
            d = derivative(t, kind)
            assert generators_of(d) == (primary, secondary)
            assert triple_from_primary(primary) == d
            assert triple_from_secondary(secondary) == d


def test_sastry_consecutive_leg_minors():
    # Triples with consecutive legs pair with [c, ab, ab+1].
    for i in range(1, 9):
        t = square_triangle_triple(i)
        assert minor_derivative(t) == make_ppt(t.c, t.a * t.b, t.a * t.b + 1)


# -------------------------------------------------------------------- surds


def test_surd_normalization():
    assert QuadraticSurd(1, 49, 2, -1) == QuadraticSurd(-3, 0, 1)
    assert QuadraticSurd(1, 49, 2, -1).as_fraction() == -3
    assert QuadraticSurd(2, 8, 2) == QuadraticSurd(1, 2, 1)
    assert QuadraticSurd(4, 0, 6) == QuadraticSurd(2, 0, 3)
    assert QuadraticSurd(3, 5, -2) == QuadraticSurd(-3, 5, 2)


def test_surd_with_a_huge_common_factor_of_u_and_v():
    # gcd(u, v) = 3 * 10^12; a scan down from there would run for about a day.
    surd = QuadraticSurd(21 * 10**12, 9 * 2147483647, 33 * 10**12)
    assert (surd.u, surd.d, surd.v, surd.sign) == (7 * 10**12, 2147483647, 11 * 10**12, 1)


def test_surd_factor_scan_is_capped():
    # gcd(u, v, d) = g ~ 10^12 and g does not divide 10^40 + 7, so only a scan over
    # every candidate below g would settle on g = 1; the cap refuses it at once.
    g = 10**12 + 39
    start = time.perf_counter()
    with pytest.raises(ValueError, match="cap of 100000 candidates"):
        QuadraticSurd(g, g * (10**40 + 7), 2 * g)
    assert time.perf_counter() - start < 1
    # A factor found within the cap still divides out.
    assert QuadraticSurd(g, 5 * g * g, 2 * g) == QuadraticSurd(1, 5, 2)


@given(st.integers(-300, 300), st.integers(-3000, 3000), st.integers(1, 300))
def test_surd_factor_matches_full_scan(u, d, v):
    # The largest g <= gcd(|u|, v) with g | u, g | v and g^2 | d.
    assume(math.isqrt(max(d, 0)) ** 2 != d)
    g = max(g for g in range(1, math.gcd(u, v) + 1) if u % g == 0 and v % g == 0 and d % (g * g) == 0)
    surd = QuadraticSurd(u, d, v)
    assert (surd.u, surd.d, surd.v) == (u // g, d // (g * g), v // g)


def test_surd_str():
    assert str(QuadraticSurd(5, -7, 2)) == "(5 + sqrt(-7))/2"
    assert str(QuadraticSurd(5, -7, 2, -1)) == "(5 - sqrt(-7))/2"
    assert str(QuadraticSurd(-3, 0, 1)) == "-3"
    assert str(QuadraticSurd(1, 0, 2)) == "1/2"


def test_surd_guards():
    with pytest.raises(ValueError, match="^zero denominator$"):
        QuadraticSurd(1, 2, 0)
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got 5$"):
        QuadraticSurd(1, 2, 3, 5)
    with pytest.raises(ValueError, match=r"^\(1 \+ sqrt\(2\)\)/3 is irrational$"):
        QuadraticSurd(1, 2, 3).as_fraction()


def test_huge_surd_values_in_errors_are_named_by_size():
    # Past the default int-to-str limit the values cannot be printed; the error
    # keeps its class and gives their size.
    with pytest.raises(ValueError, match=r"^sign must be \+1 or -1, got a 16610-bit integer$"):
        QuadraticSurd(1, 2, 3, 10**5000)
    with pytest.raises(ValueError, match="^a 16610-bit surd is irrational$"):
        QuadraticSurd(10**5000, 2, 3).as_fraction()


# --------------------------------------------------------- anti-derivatives


def test_anti_derivative_surd_goldens():
    t = make_ppt(15, 8, 17)
    major = anti_derivative(t, MAJOR)
    assert major.roots == (QuadraticSurd(5, -7, 2, 1), QuadraticSurd(5, -7, 2, -1))
    assert major.hypotenuse == 3
    assert major.integral is None
    minor = anti_derivative(t, MINOR)
    assert minor.roots == (QuadraticSurd(3, 41, 2, 1), QuadraticSurd(3, 41, 2, -1))
    assert minor.hypotenuse == 5
    assert minor.integral is None


def test_anti_derivative_integral_golden():
    assert anti_derivative(make_ppt(35, 12, 37), MAJOR).integral == make_ppt(3, 4, 5)
    assert is_derivative(make_ppt(221, 60, 229), MAJOR) == make_ppt(5, 12, 13)
    assert is_derivative(make_ppt(5, 12, 13), MINOR) == make_ppt(3, 4, 5)


def test_anti_derivative_round_trip(corpus, big_triples):
    for t in corpus[:2000] + big_triples:
        for kind in (MAJOR, MINOR):
            d = derivative(t, kind)
            back = anti_derivative(d, kind)
            assert back.integral == t
            assert back.hypotenuse == t.c
            assert is_derivative(d, kind) == t
    # The Fermat and Pythagorean members have c < 3b, a negative major discriminant.
    negative = [t for t in big_triples if t.c < 3 * t.b]
    assert len(negative) >= 2
    for t in negative:
        assert is_derivative(t, MAJOR) is None
        assert anti_derivative(t, MAJOR).roots[0].d < 0


def test_is_derivative_matches_forward_table(by_hypotenuse):
    # S(t) has hypotenuse c^2 + ab > c^2, and S'(t) has c^2 - ab >= c^2/2 since 2ab <= a^2 + b^2.  So the
    # derivatives with hypotenuse <= bound are the images of the triples with c <= sqrt(bound) (major) or
    # c <= sqrt(2 bound) (minor): about sqrt(bound) triples, where the sweep takes bound/(2 pi).
    bound = 10**5
    hits = {}
    for kind, below in (MAJOR, math.isqrt(bound)), (MINOR, math.isqrt(2 * bound)):
        table = {d: s for s in iter_by_hypotenuse(below) if (d := derivative(s, kind)).c <= bound}
        hits[kind] = {}
        for t in by_hypotenuse:
            expected = table.get(t)
            assert is_derivative(t, kind) == expected
            assert anti_derivative(t, kind).integral == expected
            if expected is not None:
                hits[kind][t] = expected
        assert hits[kind] == table
    assert (len(hits[MAJOR]), len(hits[MINOR])) == (43, 62)
    assert not hits[MAJOR].keys() & hits[MINOR].keys()


def test_root_triple_is_underivable():
    assert is_derivative(make_ppt(3, 4, 5), MAJOR) is None
    assert is_derivative(make_ppt(3, 4, 5), MINOR) is None


def test_fermat_triple_is_neither_kind_of_derivative():
    t = make_ppt(4565486027761, 1061652293520, 4687298610289)
    assert is_derivative(t, MAJOR) is None
    assert is_derivative(t, MINOR) is None


# ------------------------------------------------------------ factor classes


def test_factor_class_transitions():
    assert factor_class_transition(make_ppt(3, 4, 5)) == (TClass.T1, TClass.T4)
    assert factor_class_transition(make_ppt(5, 12, 13)) == (TClass.T4, TClass.T6)


def test_factor_class_transition_theorem(small_corpus):
    for t in small_corpus:
        original, derived = factor_class_transition(t)
        assert original is classify(t)
        assert classify(major_derivative(t)) is derived
        assert classify(minor_derivative(t)) is derived


def test_second_derivatives_land_in_t6(small_corpus):
    for t in small_corpus[:200]:
        for first in (MAJOR, MINOR):
            for second in (MAJOR, MINOR):
                assert classify(derivative(derivative(t, first), second)) is TClass.T6
