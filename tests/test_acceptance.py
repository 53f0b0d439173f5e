"""Acceptance gate: eight criteria, each a single test printing PASS or FAIL.

Every check here is exact integer/rational arithmetic — there are no
tolerances anywhere.  Each criterion is independent and self-contained so a
red line points directly at the broken area.
"""

import functools
import time
from fractions import Fraction
from math import gcd

from pptalgebra import (
    AntiDerivative,
    DerivativeKind,
    Family,
    FamilyLine,
    PathCode,
    anti_derivative,
    apply_path,
    classify,
    corollary_generators,
    derivative,
    derivative_location,
    derive_generator,
    enumerate_level,
    factor_class_transition,
    family_generator,
    generators_of,
    harmonic_sum,
    inscribed_squares,
    integer_square_scale,
    is_derivative,
    iter_by_hypotenuse,
    key_sequence_of,
    locate,
    major_derivative,
    make_ppt,
    minor_derivative,
    parent,
    parse_fraction,
    radii,
    reciprocal_triple,
    step,
    triple_from_key,
    triple_from_primary,
    walk,
)
from pptalgebra.cli import fermat_demo
from pptalgebra.tree import ROOT, Root
from pptalgebra.triple_core import TClass, divisibility_witness

MAJOR = DerivativeKind.MAJOR
MINOR = DerivativeKind.MINOR


def criterion(number):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"ACCEPTANCE-{number}: FAIL")
                raise
            print(f"ACCEPTANCE-{number}: PASS")

        return wrapper

    return decorate


@criterion(1)
def test_acceptance_1_inscribed_square_goldens():
    t = make_ppt(3, 4, 5)
    squares = inscribed_squares(t)
    assert squares.h == Fraction(12, 7)
    assert squares.s == Fraction(60, 37)
    assert reciprocal_triple(t) == (Fraction(7, 12), Fraction(1, 5), Fraction(37, 60))

    scaled = integer_square_scale(t)
    assert scaled.scale == 259
    assert scaled.scaled == (777, 1036, 1295)
    assert scaled.h == 444
    assert scaled.s == 420

    table = {
        (3, 4, 5): ((35, 12, 37), (5, 12, 13)),
        (5, 12, 13): ((221, 60, 229), (91, 60, 109)),
        (15, 8, 17): ((391, 120, 409), (119, 120, 169)),
        (7, 24, 25): ((775, 168, 793), (425, 168, 457)),
    }
    for source, (major, minor) in table.items():
        t = make_ppt(*source)
        assert major_derivative(t).sides() == major
        assert minor_derivative(t).sides() == minor

    # Same table read at the generator level.
    generator_table = {
        (Fraction(1, 2), MAJOR): Fraction(1, 6),
        (Fraction(1, 2), MINOR): Fraction(2, 3),
        (Fraction(2, 3), MAJOR): Fraction(2, 15),
        (Fraction(2, 3), MINOR): Fraction(3, 10),
        (Fraction(1, 4), MAJOR): Fraction(3, 20),
        (Fraction(1, 4), MINOR): Fraction(5, 12),
        (Fraction(2, 5), MAJOR): Fraction(6, 35),
        (Fraction(2, 5), MINOR): Fraction(14, 15),
    }
    for (f, kind), expected in generator_table.items():
        assert derive_generator(f, kind) == expected
        assert triple_from_primary(expected) == derivative(triple_from_primary(f), kind)


@criterion(2)
def test_acceptance_2_tree_goldens():
    assert [t.sides() for t in enumerate_level(0)] == [(3, 4, 5)]
    assert [t.sides() for t in enumerate_level(1)] == [(15, 8, 17), (21, 20, 29), (5, 12, 13)]
    assert [t.sides() for t in enumerate_level(2)] == [
        (35, 12, 37),
        (65, 72, 97),
        (33, 56, 65),
        (77, 36, 85),
        (119, 120, 169),
        (39, 80, 89),
        (45, 28, 53),
        (55, 48, 73),
        (7, 24, 25),
    ]
    assert locate(Fraction(6, 35)) == PathCode.parse("AACAA")
    landing = apply_path(Fraction(1, 4), PathCode.parse("CAA"))
    assert landing == Fraction(4, 23)
    assert triple_from_primary(landing).sides() == (513, 184, 545)


# Regression of Fermat's generator 246792/2150905 to the root, one row per
# step: the letter just undone and the fraction that remains.
FERMAT_REGRESSION = (
    ("A", "246792/1657321"),
    ("A", "246792/1163737"),
    ("A", "246792/670153"),
    ("B", "176569/246792"),
    ("C", "106346/176569"),
    ("C", "36123/106346"),
    ("B", "34100/36123"),
    ("C", "32077/34100"),
    ("C", "30054/32077"),
    ("C", "28031/30054"),
    ("C", "26008/28031"),
    ("C", "23985/26008"),
    ("C", "21962/23985"),
    ("C", "19939/21962"),
    ("C", "17916/19939"),
    ("C", "15893/17916"),
    ("C", "13870/15893"),
    ("C", "11847/13870"),
    ("C", "9824/11847"),
    ("C", "7801/9824"),
    ("C", "5778/7801"),
    ("C", "3755/5778"),
    ("C", "1732/3755"),
    ("B", "291/1732"),
    ("A", "291/1150"),
    ("A", "291/568"),
    ("C", "14/291"),
    ("A", "14/263"),
    ("A", "14/235"),
    ("A", "14/207"),
    ("A", "14/179"),
    ("A", "14/151"),
    ("A", "14/123"),
    ("A", "14/95"),
    ("A", "14/67"),
    ("A", "14/39"),
    ("B", "11/14"),
    ("C", "8/11"),
    ("C", "5/8"),
    ("C", "2/5"),
    ("B", "1/2"),
)


@criterion(3)
def test_acceptance_3_fermat_reproduction():
    started = time.perf_counter()

    triple = make_ppt(4565486027761, 1061652293520, 4687298610289)
    primary, _ = generators_of(triple)
    assert primary == Fraction(246792, 2150905)

    payload = fermat_demo()
    rows = [(row["letter"], row["fraction"]) for row in payload["regression"]]
    assert rows == list(FERMAT_REGRESSION)

    assert payload["block_lengths"] == ["5", "9", "4", "16", "4", "3"]
    assert "".join(payload["blocks"]) == payload["path"]
    assert len(payload["path"]) == 41
    assert payload["class"] == "T6"

    # Neither derivative family contains this triple — shown structurally,
    # with no factoring of the 13-digit sides.
    assert is_derivative(triple, MAJOR) is None
    assert is_derivative(triple, MINOR) is None
    assert payload["major_integral"] is None
    assert payload["minor_integral"] is None

    assert time.perf_counter() - started < 1.0


@criterion(4)
def test_acceptance_4_symphonic_theorem(corpus):
    assert len(corpus) == 9841
    for t in corpus:
        squares = inscribed_squares(t)
        assert (
            Fraction(1, t.c**2) + 1 / squares.h**2 == 1 / squares.s**2
        ), f"reciprocal identity failed for {t}"

    # The cleared-fraction form, as a pure integer identity over all coprime
    # opposite-parity pairs up to 200 (no Pythagorean hypothesis needed).
    checked = 0
    for a in range(1, 201):
        for b in range(1, 201):
            if (a + b) % 2 == 1 and gcd(a, b) == 1:
                c2 = a * a + b * b
                assert c2 * (a + b) ** 2 + (a * b) ** 2 == (a * b + c2) ** 2
                checked += 1
    assert checked > 10_000


@criterion(5)
def test_acceptance_5_structure(corpus, small_corpus):
    for t in corpus:
        f, _ = generators_of(t)

        for letter in "ABC":
            child = step(f, letter)
            assert parent(child) == (f, letter)

        key = key_sequence_of(t)
        assert triple_from_key(key) == t

        r = radii(key)
        assert r.r1 + r.r2 + r.r3 == r.r4
        assert r.r1 * r.r4 == r.r2 * r.r3
        assert sorted((r.r1 + r.r2, r.r1 + r.r3, r.r2 + r.r3)) == sorted(t.sides())

        assert key.p1 * key.p2 - key.q1 * key.q2 == t.c
        assert key.p1 * key.q2 + key.p2 * key.q1 == t.c

    assert parent(Fraction(1, 2)) is ROOT
    assert isinstance(ROOT, Root)
    assert repr(ROOT) == "Root"

    # Generator-level and triple-level derivatives commute.
    for t in small_corpus:
        f, _ = generators_of(t)
        for kind in (MAJOR, MINOR):
            assert triple_from_primary(derive_generator(f, kind)) == derivative(t, kind)
            assert corollary_generators(t, kind) == generators_of(derivative(t, kind))


KNOWN_SHORT_CODES = {
    (3, 4, 5): ("AA", "C"),
    (15, 8, 17): ("CBAA", "BB"),
    (21, 20, 29): ("AACAA", "C^13"),
    (5, 12, 13): ("CAAA", "CCA"),
}


@criterion(6)
def test_acceptance_6_derivative_location():
    for source, (major_code, minor_code) in KNOWN_SHORT_CODES.items():
        t = make_ppt(*source)
        for kind, code in ((MAJOR, major_code), (MINOR, minor_code)):
            d = derivative(t, kind)
            assert locate(generators_of(d)[0]) == PathCode.parse(code)

    for line in FamilyLine:
        for n in range(2, 16):
            fam = Family(line, n)
            f = family_generator(fam)
            for kind in (MAJOR, MINOR):
                predicted = derivative_location(fam, kind)
                assert predicted == locate(derive_generator(f, kind)), (
                    f"{line} member {n}, {kind}"
                )


@criterion(7)
def test_acceptance_7_anti_derivative(corpus):
    for t in corpus:
        for kind in (MAJOR, MINOR):
            d = derivative(t, kind)
            recovered = anti_derivative(d, kind)
            assert isinstance(recovered, AntiDerivative)
            assert recovered.integral == t
            assert recovered.hypotenuse == t.c
            assert all(root.is_rational for root in recovered.roots)

    surds = anti_derivative(make_ppt(15, 8, 17), MAJOR)
    assert [str(root) for root in surds.roots] == ["(5 + sqrt(-7))/2", "(5 - sqrt(-7))/2"]
    assert surds.integral is None
    surds = anti_derivative(make_ppt(15, 8, 17), MINOR)
    assert [str(root) for root in surds.roots] == ["(3 + sqrt(41))/2", "(3 - sqrt(41))/2"]
    assert surds.integral is None

    # No triple with hypotenuse up to a million is both a major and a minor
    # derivative of integral triples.
    started = time.perf_counter()
    majors = minors = both = 0
    for t in iter_by_hypotenuse(10**6):
        from_major = is_derivative(t, MAJOR)
        from_minor = is_derivative(t, MINOR)
        majors += from_major is not None
        minors += from_minor is not None
        both += from_major is not None and from_minor is not None
    assert both == 0
    assert majors > 100 and minors > 100  # the sweep actually saw derivatives
    assert time.perf_counter() - started < 60.0


@criterion(8)
def test_acceptance_8_classification(corpus, small_corpus):
    simplest = {
        Fraction(1, 2): TClass.T1,
        Fraction(3, 4): TClass.T2,
        Fraction(1, 4): TClass.T3,
        Fraction(2, 3): TClass.T4,
        Fraction(2, 5): TClass.T5,
        Fraction(5, 6): TClass.T6,
    }
    for f, expected in simplest.items():
        assert classify(triple_from_primary(f)) is expected

    for t in small_corpus:
        expected = TClass.T4 if classify(t) in (TClass.T1, TClass.T2) else TClass.T6
        transition = factor_class_transition(t)
        assert transition == (classify(t), expected)
        assert classify(major_derivative(t)) is expected
        assert classify(minor_derivative(t)) is expected

    for t in corpus:
        a, b, c = t.sides()
        assert (a * b * c) % 60 == 0
        divisibility_witness(t)  # raises if the 3/4/5 pattern is violated
