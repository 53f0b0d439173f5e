"""Tree navigation: path codes, parent/child steps, families, closed-form locations."""

import math
import random
import re
import sys
import tracemalloc
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pptalgebra import (
    PPT,
    ROOT,
    ROOT_GENERATOR,
    DegenerateIndex,
    DerivativeKind,
    Family,
    FamilyLine,
    NotInPrimaryTree,
    PathCode,
    Root,
    SecondaryRoot,
    TClass,
    anti_derivative,
    apply_path,
    children,
    classify,
    corollary_generators,
    derivative,
    derivative_location,
    derive_generator,
    enumerate_level,
    family_generator,
    family_member,
    generators_of,
    is_derivative,
    iter_by_hypotenuse,
    locate,
    major_derivative,
    make_ppt,
    minor_derivative,
    parent,
    pell,
    square_triangle_triple,
    step,
    triple_from_primary,
    walk,
)
from pptalgebra import tree
from pptalgebra.generators import KeySequence


@st.composite
def primary_fraction(draw, max_den: int = 5000):
    p = draw(st.integers(min_value=2, max_value=max_den))
    q = draw(st.integers(min_value=1, max_value=p - 1))
    assume(math.gcd(p, q) == 1)
    assume((p + q) % 2 == 1)
    return Fraction(q, p)


def naive_parent(f: Fraction):
    """Single-step inverse formulas; the oracle for parent().

    The quotient q/(p-2q) decides the letter: a proper value means A, an
    improper one B (take the reciprocal), a negative one C (negate and take
    the reciprocal).
    """
    q, p = f.numerator, f.denominator
    if q == 1 and p == 2:
        return ROOT
    if q == 1 and p == 3:
        raise SecondaryRoot("1/3 has no parent")
    d = p - 2 * q
    if d > q:
        return Fraction(q, d), "A"
    if d > 0:
        return Fraction(d, q), "B"
    return Fraction(-d, q), "C"


def naive_locate(f: Fraction) -> str:
    """Single-step regression; the letter-by-letter oracle for locate()."""
    letters = []
    while True:
        up = naive_parent(f)
        if isinstance(up, Root):
            return "".join(reversed(letters))
        f, letter = up
        letters.append(letter)


def naive_step(f: Fraction, letter: str) -> Fraction:
    """The explicit A/B/C fraction maps; the oracle for step() and apply_path()."""
    q, p = f.numerator, f.denominator
    if letter == "A":
        return Fraction(q, p + 2 * q)
    if letter == "B":
        return Fraction(p, 2 * p + q)
    return Fraction(p, 2 * p - q)


def naive_apply(f: Fraction, letters: str) -> Fraction:
    for letter in letters:
        f = naive_step(f, letter)
    return f


def locate_by_runs(f: Fraction) -> PathCode:
    """One full-size regression pass per maximal run, B one letter at a time; the oracle for locate()."""
    q, p = f.numerator, f.denominator
    reversed_runs = []
    while not (q == 1 and p == 2):
        if q == 1 and p == 3:
            raise NotInPrimaryTree("regresses to 1/3")
        d = p - 2 * q
        if d > q:
            count = (p - q - 1) // (2 * q)
            reversed_runs.append(("A", count))
            p -= 2 * count * q
        elif d > 0:
            reversed_runs.append(("B", 1))
            q, p = d, q
        else:
            delta = p - q
            count = (q - 1) // delta
            reversed_runs.append(("C", count))
            q, p = q - count * delta, p - count * delta
    return PathCode(tuple(reversed(reversed_runs)))


def mat_mul(x, y) -> tuple[int, int, int, int]:
    return (x[0] * y[0] + x[1] * y[2], x[0] * y[1] + x[1] * y[3],
            x[2] * y[0] + x[3] * y[2], x[2] * y[1] + x[3] * y[3])


def b_power_by_squaring(count: int) -> tuple[int, int, int, int]:
    """B^count by squaring the whole 2x2 matrix, 8 products a step; the oracle for tree._b_power()."""
    power, base = (1, 0, 0, 1), (0, 1, 1, 2)
    while count:
        if count & 1:
            power = mat_mul(power, base)
        base = mat_mul(base, base)
        count >>= 1
    return power


def b_run(q: int, p: int, count: int) -> tuple[int, int]:
    """(q, p) -> (p, q + 2p) iterated `count` times, by squaring the step matrix."""
    w, x, y, z = b_power_by_squaring(count)
    return w * q + x * p, y * q + z * p


def matrix_by_runs(runs) -> tuple[int, int, int, int]:
    """One matrix per run, later runs on the left, multiplied by binary splitting; the oracle for the path
    products of tree._path_pair() and tree._regress(), and for the column tree._top_chunk() reads."""

    def run_matrix(letter, count):
        if letter == "A":
            return 1, 0, 2 * count, 1
        if letter == "C":
            return 1 - count, count, -count, 1 + count
        return b_power_by_squaring(count)

    stack = []
    for letter, count in runs:
        m, size = run_matrix(letter, count), 1
        while stack and stack[-1][1] == size:
            m, size = mat_mul(m, stack.pop()[0]), 2 * size
        stack.append((m, size))
    product = (1, 0, 0, 1)
    for m, _ in stack:
        product = mat_mul(m, product)
    return product


def assert_maximal(code: PathCode) -> None:
    """The runs are maximal: letters A, B or C, integer counts >= 1, no two adjacent runs of one letter."""
    runs = code.runs
    assert type(runs) is tuple and code == PathCode(runs)
    assert all(letter in ("A", "B", "C") and type(count) is int and count >= 1 for letter, count in runs)
    assert all(x[0] != y[0] for x, y in zip(runs, runs[1:]))


def apply_by_runs(f: Fraction, code: PathCode) -> Fraction:
    """One full-size pass per run, A and C runs in closed form; the oracle for apply_path()."""
    q, p = f.numerator, f.denominator
    for letter, count in code.runs:
        if letter == "A":
            p += 2 * count * q
        elif letter == "C":
            delta = p - q
            q, p = q + count * delta, p + count * delta
        else:
            q, p = b_run(q, p, count)
    return Fraction(q, p)


def drawn_code(seed: int, shape: str, bits: int) -> PathCode:
    """A seeded code whose generator has about `bits` bits.

    `mixed`: runs of one to four letters, any letter.  `bheavy`: B runs of 200
    to 2000 letters split by single A or C steps.  `astro`: A and C runs of
    10^6 to 10^30 letters with an occasional single B.
    """
    rng = random.Random(seed)
    runs, size, prev = [], 2.0, ""
    while size < bits:
        if shape == "mixed":
            letter, count = rng.choice([c for c in "ABC" if c != prev]), rng.randint(1, 4)
        elif shape == "bheavy":
            letter, count = ("B", rng.randint(200, 2000)) if prev != "B" else (rng.choice("AC"), 1)
        elif prev in ("A", "C") and rng.random() < 0.2:
            letter, count = "B", 1
        else:
            letter, count = rng.choice([c for c in "AC" if c != prev]), int(10 ** rng.uniform(6, 30))
        runs.append((letter, count))
        # A B adds about log2(1 + sqrt 2) bits a letter; an A or C run about log2 of its length.
        size += 1.2716 * count if letter == "B" else math.log2(2 * count + 1)
        prev = letter
    return PathCode(tuple(runs))


def complete_key(q2: int, q1: int) -> KeySequence:
    return KeySequence(q2, q1, q1 + q2, 2 * q1 + q2)


def key_children(key: KeySequence) -> tuple[KeySequence, KeySequence, KeySequence]:
    """Left, middle and right children by key-sequence completion; the oracle for enumeration."""
    return (
        complete_key(key.p2, key.q1),
        complete_key(key.p2, key.p1),
        complete_key(key.q2, key.p1),
    )


ROOT_KEY = KeySequence(1, 1, 2, 3)


def mixed_form(key: KeySequence) -> PPT:
    """[p2*q2, 2*p1*q1, p1*p2 - q1*q2], checked by PPT; the oracle's triple for a key."""
    return PPT(key.p2 * key.q2, 2 * key.p1 * key.q1, key.p1 * key.p2 - key.q1 * key.q2)


def pell_loop(count: int):
    """(p(n), q(n)) for n = 1..count by the two-term recurrences; the oracle for pell()."""
    p_prev, p_cur = 0, 1
    q_prev, q_cur = 1, 1
    for _ in range(count):
        yield p_cur, q_cur
        p_prev, p_cur = p_cur, 2 * p_cur + p_prev
        q_prev, q_cur = q_cur, 2 * q_cur + q_prev


def derive_generator_formula(f: Fraction, kind: DerivativeKind) -> Fraction:
    """The derivative generator straight from f = q/p; the oracle for derive_generator().

    Major sends q/p to q(p-q)/(p(p+q)).  Minor sends it to q(p+q)/(p(p-q)),
    read with numerator and denominator exchanged when that comes out improper.
    """
    q, p = f.numerator, f.denominator
    if kind is DerivativeKind.MAJOR:
        return Fraction(q * (p - q), p * (p + q))
    numerator, denominator = q * (p + q), p * (p - q)
    return Fraction(min(numerator, denominator), max(numerator, denominator))


_LOOP_TOKEN_RE = re.compile(r"([ABC])(?:\^([0-9]+))?")


def parse_loop(text: str) -> PathCode:
    """The scanner loop PathCode.parse once ran; the oracle for parse()."""
    runs = []
    pos, end = 0, len(text)
    while pos < end:
        if text[pos] in " \t\n\r\f\v":
            pos += 1
            continue
        match = _LOOP_TOKEN_RE.match(text, pos)
        if match is None:
            raise ValueError(f"invalid path code {text!r} at position {pos}")
        runs.append((match.group(1), int(match.group(2)) if match.group(2) else 1))
        pos = match.end()
    return PathCode(tuple(runs))


# ---------------------------------------------------------------- path codes


def test_parse_letters_and_run_length():
    assert PathCode.parse("AACAA").runs == (("A", 2), ("C", 1), ("A", 2))
    assert PathCode.parse("C^13") == PathCode((("C", 13),))
    assert PathCode.parse("AA C^16 B") == PathCode((("A", 2), ("C", 16), ("B", 1)))
    assert PathCode.parse("") == PathCode()
    assert PathCode.parse("  ") == PathCode()


def _parsed(parse, text: str) -> PathCode | str:
    try:
        return parse(text)
    except ValueError as exc:
        return str(exc)


def test_parse_matches_the_scanner_loop():
    # Random strings of tokens, stray carets and digits, ASCII and other whitespace,
    # non-ASCII digits and other letters: the same code or the same error position.
    pieces = ["A", "B", "C", "^", "^1", "^07", "^23", "9", " ", "\t", "\n", "\r\f\v", "\u3000", "\u00a0",
              "\u0663", "\uff13", "a", "D", "-"]
    rng = random.Random(20013)
    texts = ["".join(rng.choices(pieces, k=rng.randrange(9))) for _ in range(20_000)]
    for text in texts + ["", " A^2 ", "A^2A^3", "A^0 B", "A B^12 C^0"]:
        assert _parsed(PathCode.parse, text) == _parsed(parse_loop, text), text


def test_adjacent_runs_merge():
    assert PathCode((("A", 2), ("A", 3))) == PathCode((("A", 5),))
    assert PathCode.parse("A^2A^3") == PathCode.parse("A^5")
    assert (PathCode.parse("AAC") + PathCode.parse("CCB")).runs == (("A", 2), ("C", 3), ("B", 1))


def test_zero_runs_vanish():
    assert PathCode((("A", 0), ("B", 1))) == PathCode.parse("B")
    # The runs on each side of a vanished run merge.
    assert PathCode((("A", 1), ("B", 0), ("A", 2))).runs == (("A", 3),)


def test_repeat():
    assert PathCode.parse("CAA") * 3 == PathCode.parse("CAACAACAA")
    assert PathCode.parse("CAA") * 0 == PathCode()
    with pytest.raises(ValueError):
        PathCode.parse("A") * -1


run_lists = st.lists(st.tuples(st.sampled_from("ABC"), st.integers(0, 3)), max_size=8)


@given(run_lists, run_lists, st.integers(0, 5))
def test_sums_and_repeats_merge_at_the_seams(left, right, times):
    x, y = PathCode(tuple(left)), PathCode(tuple(right))
    for code, runs in ((x + y, left + right), (x * times, left * times)):
        assert_maximal(code)
        assert code == PathCode(tuple(runs))


def test_repeat_of_one_run_is_one_run():
    assert PathCode.parse("A^3") * 10**30 == PathCode((("A", 3 * 10**30),))
    assert (PathCode.parse("A^2 C A^2") * 3).runs == (("A", 2), ("C", 1), ("A", 4), ("C", 1), ("A", 4), ("C", 1), ("A", 2))
    with pytest.raises(TypeError):
        PathCode.parse("A") * 2.0


@pytest.mark.parametrize("times", [5 * 10**18, 10**19, tree._MAX_RUNS // 2 + 1])
def test_an_oversized_repeat_is_refused_before_it_is_built(times):
    # The product's runs are counted before any tuple is built: a bare MemoryError or OverflowError is never raised.
    for text, runs in ("AB", 2 * times), ("ABA", 2 * times + 1):
        with pytest.raises(ValueError, match=f"^path code of {runs} runs is too long to build$"):
            PathCode.parse(text) * times
    assert PathCode() * times == PathCode()
    assert (PathCode.parse("A^2") * times).runs == (("A", 2 * times),)


def test_the_run_cap_admits_every_product_built_here(monkeypatch):
    # The longest product in the package, the Fermat major derivative location at the largest index the benchmark
    # asks for; then a cap of 7 runs, which admits a repeat of exactly 7 runs, seams merged, and refuses one more.
    code = derivative_location(Family(FamilyLine.FERMAT, 22_000), DerivativeKind.MAJOR)
    assert len(code.runs) == 2 * 22_000 - 1
    monkeypatch.setattr(tree, "_MAX_RUNS", 7)
    assert len((PathCode.parse("ABA") * 3).runs) == 7 and len((PathCode.parse("C^2 AB") * 2).runs) == 6
    for text, times in ("ABA", 4), ("AB", 4), ("C^2 AB", 3):
        with pytest.raises(ValueError, match="runs is too long to build"):
            PathCode.parse(text) * times


def test_length_and_str():
    code = PathCode.parse("BCCCB A^9")
    assert len(code) == 14
    assert str(code) == "BCCCBAAAAAAAAA"
    assert str(PathCode()) == ""
    assert PathCode.parse(str(code)) == code


def test_huge_codes_stay_compact():
    huge = PathCode((("C", 129858761422),))
    assert len(huge) == 129858761422
    assert str(huge) == "C^129858761422"
    assert PathCode.parse(str(huge)) == huge
    with pytest.raises(ValueError):
        huge.letters()


def test_compact_rendering():
    assert PathCode.parse("BCCCBAAAAAAAAA").compact() == "B C^3 B A^9"
    assert PathCode.parse("ABC").compact() == "A B C"


def test_invalid_codes_rejected():
    for bad in ("AD", "a", "A^", "^3", "A^-2", "A 3", "A^\u0663", "A^\uff13", "A\u3000B", "A\u00a0B"):
        with pytest.raises(ValueError):
            PathCode.parse(bad)
    with pytest.raises(ValueError):
        PathCode((("A", -1),))
    with pytest.raises(ValueError):
        PathCode((("D", 1),))
    with pytest.raises(TypeError):
        PathCode((("A", 1.5),))
    # The edges of the one test a common run takes: an unhashable letter fails the letter's tuple test, not a
    # lookup, a float count equal to an int is still no int, and a bad letter is reported before a bad count.
    with pytest.raises(ValueError, match=re.escape("path letter must be A, B or C, got ['A']")):
        PathCode(((["A"], 1),))
    with pytest.raises(TypeError, match="^run length must be an integer, got 1.0 for A$"):
        PathCode((("A", 1.0),))
    with pytest.raises(ValueError, match="^path letter must be A, B or C, got 'D'$"):
        PathCode((("D", 1.5),))


class Count(int):
    """An int subclass, which PathCode accepts as a run length and must store as a plain int."""


def test_run_counts_are_stored_as_plain_ints():
    for count in (True, Count(1), Count(63), Count(64), Count(2**70)):
        code = PathCode((("A", count),))
        assert code.runs == (("A", int(count)),) and type(code.runs[0][1]) is int
        assert code == PathCode((("A", int(count)),)) and hash(code) == hash(PathCode((("A", int(count)),)))
    assert repr(PathCode((("A", True),))) == "PathCode(runs=(('A', 1),))"
    assert type(PathCode((("A", True), ("A", Count(70)))).runs[0][1]) is int


def assert_short_runs_shared(code: PathCode) -> None:
    """The runs are maximal, and every run below the bound is the table's own tuple."""
    assert_maximal(code)
    assert all(run is tree._RUNS[run[0]][run[1]] for run in code.runs if run[1] < tree._SHARED_RUN)


def test_short_runs_are_shared_tuples():
    bound = tree._SHARED_RUN
    assert bound == 64 and all(row[count] == (letter, count) for letter, row in tree._RUNS.items()
                               for count in range(bound))
    edges = PathCode(tuple((letter, count) for count in (bound - 1, bound, bound + 1) for letter in "ACB"))
    assert [count for _, count in edges.runs] == [bound - 1] * 3 + [bound] * 3 + [bound + 1] * 3
    assert_short_runs_shared(edges)
    for seed, shape in enumerate(("mixed", "bheavy", "astro")):
        code = drawn_code(seed, shape, 9000) + edges + drawn_code(seed + 3, shape, 600)
        located = locate(apply_path(ROOT_GENERATOR, code))
        assert located == code
        for made in (code, PathCode(code.runs), PathCode.parse(code.compact()), code + code, code * 3, located):
            assert_short_runs_shared(made)
    # Seams that sum to just below, at and just above the bound, in +, *, the constructor and parse.
    for left, right in ((30, 33), (32, 32), (32, 33)):
        for letter, other in ("AC", "BA", "CB"):
            x, y = PathCode(((letter, left),)), PathCode(((letter, right), (other, 1)))
            z = PathCode(((letter, left), (other, 1), (letter, right)))
            for made in (x + y, PathCode(x.runs + y.runs), PathCode.parse(f"{x.compact()} {y.compact()}"), z * 2,
                         PathCode(((letter, 1),)) * (left + right)):
                assert_short_runs_shared(made)
                assert left + right in [count for _, count in made.runs]


def test_a_located_code_of_short_runs_holds_about_a_pointer_a_run():
    # A drawn 2^16-bit mixed code regresses in chunks; its 24k runs of one to four letters are all shared, so the
    # code holds its tuple of pointers, 8 bytes a run.  A tuple of its own for each run would hold about 64.
    g = apply_path(ROOT_GENERATOR, drawn_code(1, "mixed", 1 << 16))
    code, held, _ = traced(lambda: locate(g))
    assert len(code.runs) > 15_000
    assert held <= 16 * len(code.runs)


# ------------------------------------------------------------- single steps


def test_step_goldens():
    assert step(Fraction(1, 2), "A") == Fraction(1, 4)
    assert step(Fraction(1, 2), "B") == Fraction(2, 5)
    assert step(Fraction(1, 2), "C") == Fraction(2, 3)
    assert naive_apply(Fraction(1, 4), "CAA") == Fraction(4, 23)


def test_step_rejects_bad_letter():
    with pytest.raises(ValueError):
        step(Fraction(1, 2), "D")


def test_parent_goldens():
    assert parent(Fraction(6, 35)) == (Fraction(6, 23), "A")
    assert parent(Fraction(6, 11)) == (Fraction(1, 6), "C")
    assert parent(Fraction(2, 5)) == (Fraction(1, 2), "B")
    assert isinstance(parent(Fraction(1, 2)), Root)


@given(st.fractions(min_value=0, max_value=1, max_denominator=5000))
def test_parent_matches_single_step_formulas(f):
    assume(0 < f < 1 and f != Fraction(1, 3))
    assert parent(f) == naive_parent(f)


def test_parent_of_secondary_root():
    with pytest.raises(SecondaryRoot):
        parent(Fraction(1, 3))


@given(primary_fraction(max_den=2000), st.sampled_from("ABC"))
def test_parent_inverts_step(f, letter):
    assert step(f, letter) == naive_step(f, letter)
    assert parent(step(f, letter)) == (f, letter)


def test_parent_inverts_step_over_corpus(corpus):
    for t in corpus:
        f = generators_of(t)[0]
        for letter in "ABC":
            assert parent(step(f, letter)) == (f, letter)


# ------------------------------------------------------------------- locate


def test_locate_goldens():
    assert locate(Fraction(6, 35)) == PathCode.parse("AACAA")
    assert locate(Fraction(1, 2)) == PathCode()
    assert locate(Fraction(4, 23)) == PathCode.parse("ACAA")


def test_locate_rejects_even_sum_fractions():
    with pytest.raises(NotInPrimaryTree, match="^1/3 regresses to 1/3; it generates no triple$"):
        locate(Fraction(1, 3))
    with pytest.raises(NotInPrimaryTree, match="^3/7 regresses to 1/3"):
        locate(Fraction(3, 7))
    with pytest.raises(ValueError, match="^expected a proper fraction, got 7/3$"):
        locate(Fraction(7, 3))


def test_huge_improper_fractions_are_named_by_size():
    # Under the default int-to-str limit the fraction is too long to print in
    # full, so the message gives its size instead of the interpreter's own error.
    f = Fraction(10**5000 + 1, 10**5000)
    with pytest.raises(ValueError, match="^expected a proper fraction, got a 16610-bit fraction$"):
        locate(f)
    with pytest.raises(ValueError, match="^expected a proper fraction, got a 16610-bit fraction$"):
        apply_path(f, PathCode.parse("A"))


def test_huge_negative_counts_are_named_by_size():
    # As above, for integers: each guard keeps its own message instead of the
    # interpreter's "Exceeds the limit" error.
    huge = -(10**5000)
    with pytest.raises(ValueError, match="^negative run length a 16610-bit integer for A$"):
        PathCode((("A", huge),))
    with pytest.raises(ValueError, match="^family index must be positive, got a 16610-bit integer$"):
        Family(FamilyLine.FERMAT, huge)
    with pytest.raises(ValueError, match="^Pell index must be positive, got a 16610-bit integer$"):
        pell(huge)


@given(primary_fraction())
def test_locate_matches_naive_regression(f):
    code = locate(f)
    assert_maximal(code)
    assert code.letters() == naive_locate(f)


@given(primary_fraction())
def test_apply_path_inverts_locate(same_fraction, f):
    same_fraction(apply_path(ROOT_GENERATOR, locate(f)), f)


@given(st.lists(st.tuples(st.sampled_from("ABC"), st.integers(1, 5)), max_size=12))
def test_apply_path_matches_naive_stepping(same_fraction, runs):
    code = PathCode(tuple(runs))
    same_fraction(apply_path(ROOT_GENERATOR, code), naive_apply(ROOT_GENERATOR, code.letters()))


def test_apply_path_batches_are_exact():
    # One run of each letter, long enough that batching must be used.
    for text, expected in (
        ("A^1000", Fraction(1, 2002)),
        ("C^1000", Fraction(1001, 1002)),
    ):
        assert apply_path(ROOT_GENERATOR, PathCode.parse(text)) == expected
    b_run = apply_path(ROOT_GENERATOR, PathCode.parse("B^20"))
    p = [p for p, _ in pell_loop(22)]
    assert b_run == Fraction(p[20], p[21])


def test_locate_is_fast_on_astronomical_runs():
    k = (pell(31).p - 1) // 2
    f = Fraction(k, k + 1)
    code = locate(f)
    assert code == PathCode((("C", k - 1),))
    assert apply_path(ROOT_GENERATOR, code) == f


# -------------------------------------------------------- chunked regression


@pytest.fixture
def chunks(monkeypatch):
    """Spy on locate's chunks: one (runs taken, accepted) entry per attempt."""
    seen = []
    real = tree._top_chunk

    def spy(q, p):
        assert 0 < q < p, "locate went on from a pair outside the domain"
        runs, q_up, p_up = real(q, p)
        accepted = bool(runs) and 0 < q_up < p_up
        assert p_up < p or not accepted, "an accepted chunk took the pair no higher"
        seen.append((len(runs), accepted))
        return runs, q_up, p_up

    monkeypatch.setattr(tree, "_top_chunk", spy)
    return seen


def assert_navigation_matches_oracles(code: PathCode, same_fraction) -> None:
    f = apply_path(ROOT_GENERATOR, code)
    same_fraction(f, apply_by_runs(ROOT_GENERATOR, code))
    back = locate(f)
    assert_maximal(back)
    assert back == locate_by_runs(f) == code


@settings(max_examples=5)
@given(st.integers(0, 2**32), st.integers(1000, 20_000))
def test_mixed_codes_match_oracles(same_fraction, seed, bits):
    assert_navigation_matches_oracles(drawn_code(seed, "mixed", bits), same_fraction)


@settings(max_examples=5)
@given(st.integers(0, 2**32), st.integers(1000, 30_000))
def test_b_heavy_codes_match_oracles(same_fraction, seed, bits):
    assert_navigation_matches_oracles(drawn_code(seed, "bheavy", bits), same_fraction)


@settings(max_examples=5)
@given(st.integers(0, 2**32), st.integers(1000, 130_000))
def test_astronomical_codes_match_oracles(same_fraction, seed, bits):
    assert_navigation_matches_oracles(drawn_code(seed, "astro", bits), same_fraction)


def assert_path_pair_matches_the_product(runs, q: int = 0, p: int = 0) -> None:
    # The images of (1, 0) and (0, 1) are the columns of the product, and that of (q, p) is their combination.
    runs = tuple(runs)
    a, b, c, d = matrix_by_runs(runs)
    assert tree._path_pair(runs, 1, 0) == (a, c)
    assert tree._path_pair(runs, 0, 1) == (b, d)
    assert tree._path_pair(runs, q, p) == (a * q + b * p, c * q + d * p)


@settings(max_examples=20)
@given(st.sampled_from(("mixed", "bheavy", "astro")), st.integers(0, 2**32), st.integers(0, 20_000))
def test_path_pair_matches_the_run_by_run_product(shape, seed, bits):
    q, p = apply_path(ROOT_GENERATOR, drawn_code(seed + 1, "mixed", bits // 2)).as_integer_ratio()
    assert_path_pair_matches_the_product(drawn_code(seed, shape, bits).runs, q, p)


@given(st.lists(st.one_of(
    st.tuples(st.sampled_from("AC"), st.integers(1, 10**30)),
    st.tuples(st.just("B"), st.integers(1, 600)),
), max_size=30), st.integers(0, 2**3000), st.integers(0, 2**3000))
def test_path_pair_matches_the_run_by_run_product_on_raw_runs(runs, q, p):
    # Any runs, adjacent equal letters included, and any pair, short or long beside the runs.
    assert_path_pair_matches_the_product(runs, q, p)


def test_path_pair_spans_many_leaves():
    assert tree._path_pair((), 3, 7) == (3, 7)
    for shape in ("mixed", "bheavy", "astro"):
        runs = drawn_code(3, shape, 8000).runs
        assert max(abs(entry) for entry in matrix_by_runs(runs)) > tree._LEAF_MAX**8
        assert any(letter == "C" for letter, _ in runs)
        assert_path_pair_matches_the_product(runs, 5, 12)
    # B^310 has entries past _LEAF_MAX and B^4 does not, so each B^310 run is one leaf: the stack empties, or
    # does not, on each side of a power of two, and a B^4 run leaves a partial leaf at the end.
    assert tree._B_POWERS[4][3] < tree._LEAF_MAX < min(tree._b_power(310)[1:])
    for j in range(6):
        for leaves in (2**j - 1, 2**j, 2**j + 1):
            for tail in (), (("B", 4),):
                assert_path_pair_matches_the_product((("B", 310),) * leaves + tail, 2, 5)
    runs = (("C", 10**30), ("A", 2)) * 20
    assert_path_pair_matches_the_product(runs, 1, 2)
    assert min(matrix_by_runs(runs)) < 0  # a C run leaves negative entries


def assert_unit_column(q: int, p: int, top_chunk=tree._top_chunk) -> tuple[int, int]:
    # A chunk reads the column on p of the matrix that undoes its runs from its own regression.  (2q, 2p) and
    # (2q, 2p + 1) have the top bits of (q, p), so their chunks take the same runs, and the difference of the pairs
    # they return is that column: it must be det * (-b, a) for the forward product (a, b; c, d) of the runs, and each
    # entry below 2^(_UNIT_BITS - 1), where the rounded read is exact.  Returns the column.
    runs, q_up, p_up = top_chunk(2 * q, 2 * p)
    again, q_one, p_one = top_chunk(2 * q, 2 * p + 1)
    assert runs and again == runs
    a, b, c, d = matrix_by_runs(reversed(runs))
    det = a * d - b * c
    x, z = q_one - q_up, p_one - p_up
    assert (x, z) == (-det * b, det * a)
    assert max(abs(x), abs(z)) < 1 << (tree._UNIT_BITS - 1)
    return x, z


@pytest.mark.parametrize("shape", ["mixed", "bheavy", "astro"])
def test_a_chunk_reads_its_unit_column_from_its_regression(monkeypatch, shape):
    # Every chunk top that takes runs as locate goes, on drawn codes of each shape: a C run, or a B run of two or more
    # letters, alone leaves a negative entry, which the rounded read takes back from below a multiple of 2^_UNIT_BITS.
    columns = []
    real = tree._top_chunk

    def spy(q, p):
        chunk = real(q, p)
        if chunk[0]:
            columns.append(assert_unit_column(q, p, real))
        return chunk

    monkeypatch.setattr(tree, "_top_chunk", spy)
    for seed in range(3):
        code = drawn_code(seed, shape, 20_000)
        assert locate(apply_path(ROOT_GENERATOR, code)) == code
    assert len(columns) > 10 and any(min(column) < 0 for column in columns)


def longest_b_run_base() -> int:
    """The p_0 = _TOP_FLOOR 2^j, j >= 0 least, above which the table's longest B run, B^_CHUNK_B_RUN from (1, p_0),
    reaches a top of exactly _TOP_BITS bits: the floor itself at a 1024-bit top, twice it at a 512-bit one."""
    reached = tree._b_power(tree._CHUNK_B_RUN)[3] * tree._TOP_FLOOR
    return tree._TOP_FLOOR << (tree._TOP_BITS - reached.bit_length())


def test_unit_columns_of_the_chunks_with_the_largest_products():
    # Tops whose chunk stops just above the floor after the runs with the largest products, with s = _TOP_BITS -
    # bits(_TOP_FLOOR): B^_CHUNK_B_RUN, whose entries are Pell numbers of s - 1 bits, the truncated B run one letter
    # longer, and C^k and A^k B from the floor's pairs, whose k has about 2^(s + 2) and 2^(s + 1) letters.  The bound
    # 3 * 2^(s + 1) on the column leaves every entry below 2^(_UNIT_BITS - 2).
    floor, limit, base = tree._TOP_FLOOR, 1 << tree._TOP_BITS, longest_b_run_base()
    span = tree._TOP_BITS - floor.bit_length()
    c_k = (limit - 2 - floor) // (floor // 2 + 1)
    q_s = floor // 3 + 1
    a_k = ((limit - 1 - 2 * floor) // q_s - 1) // 4
    tops = [
        ((("B", tree._CHUNK_B_RUN),), 1, base, span - 1),
        ((("B", tree._CHUNK_B_RUN + 1),), 1, base, None),
        ((("C", c_k),), floor // 2, floor + 1, span + 2),
        ((("A", a_k), ("B", 1)), q_s, floor, span + 2),
    ]
    for runs, q, p, bits in tops:
        q, p = tree._path_pair(runs, q, p)
        x, z = assert_unit_column(q, p)
        assert max(abs(x), abs(z)) < 1 << (tree._UNIT_BITS - 2)
        if bits:
            assert p.bit_length() == tree._TOP_BITS
            assert tree._top_chunk(q, p)[0] == list(reversed(runs))
            assert max(abs(x), abs(z)).bit_length() == bits


def test_locate_returns_maximal_runs_on_both_sides_of_the_chunk_size(chunks):
    for bits in (tree._CHUNK_FROM_BITS // 2, 4 * tree._CHUNK_FROM_BITS):
        for shape in ("mixed", "bheavy", "astro"):
            code = drawn_code(bits, shape, bits)
            f = apply_path(ROOT_GENERATOR, code)
            assert (f.denominator.bit_length() > tree._CHUNK_FROM_BITS) == (bits > tree._CHUNK_FROM_BITS)
            back = locate(f)
            assert_maximal(back)
            assert back == code
    assert any(accepted for _, accepted in chunks)


def test_long_b_heavy_code_regresses_in_accepted_chunks(chunks, same_fraction):
    code = drawn_code(2024, "bheavy", 130_000)
    assert sum(count for letter, count in code.runs if letter == "B") >= 10**5
    assert_navigation_matches_oracles(code, same_fraction)
    # Every chunk that took runs was the true top of the path, and on average each took off more than 3/5 of the
    # bits between its top and its floor: far fewer chunks than the code's 10^5 letters.
    assert chunks and all(accepted for taken, accepted in chunks if taken)
    span = tree._TOP_BITS - tree._TOP_FLOOR.bit_length()
    assert len(chunks) < 5 * apply_path(ROOT_GENERATOR, code).denominator.bit_length() // (3 * span)


def test_generators_straddling_a_letter_boundary(chunks, same_fraction):
    # A huge run sends the pair within 2^-far of 0 or 1, and one more letter puts
    # it next to 1/3 (A or B after C^k) or 1/2 (B or C after A^k).  Past the
    # chunk's top bits the truncated pair cannot tell the sides apart.
    rejected = 0
    for far in (tree._TOP_BITS + 8, tree._TOP_BITS + 76, tree._TOP_BITS + 576):
        for run, letter in (("C", "A"), ("C", "B"), ("A", "B"), ("A", "C")):
            chunks.clear()
            code = drawn_code(far, "mixed", 8000) + PathCode(((run, 2**far), (letter, 1)))
            f = apply_path(ROOT_GENERATOR, code)
            boundary = Fraction(1, 3) if run == "C" else Fraction(1, 2)
            assert abs(f - boundary) < Fraction(1, 2 ** (far - 4))
            assert_navigation_matches_oracles(code, same_fraction)
            assert not all(accepted for _, accepted in chunks)
            rejected += sum(1 for taken, accepted in chunks if taken and not accepted)
    # Some truncated guesses took a wrong letter; only the in-domain test caught them.
    assert rejected > 0


def test_zero_count_run_in_the_top_bits(chunks, same_fraction):
    # q/p = 1/2 + 2^-1100 or so: the small pair has p = 2q exactly, a C run of length 0.  The chunk regresses it
    # with the unit vector (0, 1) below its bits, just under 1/2, so it guesses one B letter, which the in-domain test
    # refuses; the full-size step then takes the C, and the next top's q truncates to 0.
    code = drawn_code(7, "mixed", 8000) + PathCode((("A", 2**1100), ("C", 1)))
    f = apply_path(ROOT_GENERATOR, code)
    shift = f.denominator.bit_length() - tree._TOP_BITS
    assert f.denominator >> shift == 2 * (f.numerator >> shift)
    assert tree._regress(f.numerator >> shift, f.denominator >> shift, [], tree._TOP_FLOOR) == (
        f.numerator >> shift, f.denominator >> shift)
    assert_navigation_matches_oracles(code, same_fraction)
    assert chunks[:2] == [(1, False), (0, False)]


def test_large_secondary_tree_generator_is_not_in_primary_tree(chunks):
    # Hung below 1/3, the generator regresses to 1/3 however large it is.
    code = drawn_code(11, "mixed", 20_000)
    f = apply_path(Fraction(1, 3), code)
    with pytest.raises(NotInPrimaryTree):
        locate_by_runs(f)
    with pytest.raises(NotInPrimaryTree, match="^a [0-9]+-bit generator regresses to 1/3"):
        locate(f)  # too long to print in full under the default int-to-str limit
    assert any(accepted for _, accepted in chunks)


# ------------------------------------------------------- regression engine


def regress_by_letters(q: int, p: int, runs: list, floor: int, budget: int = 10**5):
    """One letter per step, B cut at the floor letter by letter, an A or C run refused whole when it would end
    below the floor; the oracle for tree._regress.  Appends the runs, merged, and returns the pair reached, or
    None past `budget` letters."""
    while 0 < q < p:
        d = p - 2 * q
        letter = "A" if d > q else "B" if d > 0 else "C"
        q_up, p_up, count = q, p, 0
        while count < budget:
            d = p_up - 2 * q_up
            if letter == "A" and d > q_up:
                p_up = d
            elif letter == "B" and 0 < d <= q_up and q_up >= floor:
                q_up, p_up = d, q_up
            elif letter == "C" and d < 0:
                q_up, p_up = -d, q_up
            else:
                break
            count += 1
        if count == budget:
            return None
        if count == 0 or p_up < floor:
            break
        budget -= count
        q, p = q_up, p_up
        if runs and runs[-1][0] == letter:
            runs[-1] = (letter, runs[-1][1] + count)
        else:
            runs.append((letter, count))
    return q, p


def assert_regress_matches_oracles(q: int, p: int, floor: int, prefix: list) -> None:
    # The pair and runs of the letter-at-a-time regression, from either a fresh or a filled run list.
    want_runs = list(prefix)
    want = regress_by_letters(q, p, want_runs, floor)
    assume(want is not None)
    got_runs = list(prefix)
    assert tree._regress(q, p, got_runs, floor) == want
    assert got_runs == want_runs
    taken: list = []
    want_taken: list = []
    regress_by_letters(q, p, want_taken, floor)
    q_up, p_up = tree._regress(q, p, taken, floor)
    assert (q_up, p_up) == want and taken == want_taken


def assert_chunk_undoes_its_runs(q: int, p: int) -> tuple[list, int, int]:
    # A chunk takes the runs that _regress takes on the top bits of (q, p), and sends (q, p) to its pair by the
    # matrix that undoes them: det * adjugate of the forward product of the runs.  Returns what the chunk returned.
    shift = p.bit_length() - tree._TOP_BITS
    want_runs: list = []
    tree._regress(q >> shift, p >> shift, want_runs, tree._TOP_FLOOR)
    runs, q_up, p_up = tree._top_chunk(q, p)
    assert runs == want_runs
    a, b, c, d = matrix_by_runs(reversed(runs))
    det = a * d - b * c
    assert det in (1, -1)
    w, x, y, z = det * d, -det * b, -det * c, det * a
    assert (q_up, p_up) == (w * q + x * p, y * q + z * p)
    return runs, q_up, p_up


@settings(max_examples=60)
@given(
    st.lists(st.tuples(st.sampled_from("ABC"), st.integers(1, 40)), max_size=40),
    st.sampled_from((Fraction(1, 2), Fraction(1, 3))),
    st.integers(0, 16),
    st.one_of(st.none(), st.integers(0, 300)),
    st.lists(st.tuples(st.sampled_from("ABC"), st.integers(1, 5)), max_size=1),
)
def test_regress_matches_the_letter_at_a_time_regression(runs, root, shift, floor_shift, prefix):
    # Exact pairs regress to 1/2 or 1/1; shifted ones, like a chunk's top bits, may stop at a zero-count C run.
    f = apply_path(root, PathCode(tuple(runs)))
    q, p = f.numerator >> shift, f.denominator >> shift
    floor = 0 if floor_shift is None else p >> floor_shift
    assert_regress_matches_oracles(q, p, floor, prefix)


@settings(max_examples=20)
@given(st.lists(st.tuples(st.sampled_from("ABC"), st.integers(1, 12)), max_size=12))
def test_regress_stops_at_floors_on_its_path(runs):
    # A floor equal to, or one above, the p of a node the regression passes: the top of a run, or one letter
    # below it, which inside a B run is a node too.
    code = PathCode(tuple(runs))
    q, p = apply_path(ROOT_GENERATOR, code).as_integer_ratio()
    for top in range(len(code.runs) + 1):
        for below in range(2):
            node = apply_path(ROOT_GENERATOR, PathCode(code.runs[:top]) + PathCode.parse("B" * below))
            for floor in node.denominator, node.denominator + 1:
                assert_regress_matches_oracles(q, p, floor, [])


@settings(max_examples=10)
@given(st.sampled_from(("mixed", "bheavy")), st.integers(0, 2**32), st.integers(2000, 20_000))
def test_regress_matches_the_letter_at_a_time_regression_on_chunk_tops(shape, seed, bits):
    f = apply_path(ROOT_GENERATOR, drawn_code(seed, shape, bits))
    shift = f.denominator.bit_length() - tree._TOP_BITS
    assert_regress_matches_oracles(f.numerator >> shift, f.denominator >> shift, tree._TOP_FLOOR, [])
    assert_chunk_undoes_its_runs(f.numerator, f.denominator)


def test_regress_matrix_on_astronomical_runs():
    # A and C runs of up to 10^30 letters, each one row operation: too long for the letter-at-a-time oracle.  The
    # runs taken, replayed from the pair reached, give the pair back, and a chunk's pair is the one the matrix that
    # undoes its runs sends the full pair to.
    for seed in range(5):
        f = apply_path(ROOT_GENERATOR, drawn_code(seed, "astro", 8000))
        q, p = f.numerator, f.denominator
        for top, floor in ((q, p), 0), ((q >> 7000, p >> 7000), 1 << 300):
            taken: list = []
            q_up, p_up = tree._regress(*top, taken, floor)
            a, b, c, d = matrix_by_runs(reversed(taken))
            assert (a * q_up + b * p_up, c * q_up + d * p_up) == top
        assert assert_chunk_undoes_its_runs(q, p)[0]


def test_regress_of_a_top_whose_q_truncates_to_zero(chunks):
    # After an A run of 2^1100 letters q/p is under 2^-1100, so a chunk's top bits hold q = 0: the regression
    # takes no step, the chunk returns the pair it was given, and locate falls back to one full-size run.
    code = drawn_code(5, "mixed", 8000) + PathCode((("A", 2**1100),))
    q, p = apply_path(ROOT_GENERATOR, code).as_integer_ratio()
    shift = p.bit_length() - tree._TOP_BITS
    assert q >> shift == 0
    taken: list = []
    assert tree._regress(0, p >> shift, taken, tree._TOP_FLOOR) == (0, p >> shift)
    assert taken == []
    assert assert_chunk_undoes_its_runs(q, p) == ([], q, p)
    assert locate(Fraction(q, p)) == locate_by_runs(Fraction(q, p)) == code
    assert (0, False) in chunks


def up_one_run(q: int, p: int) -> tuple[str, int, int, int]:
    """The run ending at q/p, for 0 < q < p: (letter, count, parent q, parent p), a maximal A or C run or one B
    letter; the oracle for locate's full-size step after a refused chunk."""
    d = p - 2 * q
    if d > q:
        count = (p - q - 1) // (2 * q)
        return "A", count, q, p - 2 * count * q
    if d > 0:
        return "B", 1, d, q
    delta = p - q
    count = (q - 1) // delta
    return "C", count, q - count * delta, p - count * delta


def assert_refused_chunk_step_takes_the_run_ending_there(q: int, p: int) -> int:
    # After a refused chunk locate regresses (q, p) at full size with the floor min(q, p - q): it takes the run
    # that ends at q/p and at most one letter more, a whole run or a B letter.  Returns the letters taken more.
    runs: list = []
    q_got, p_got = tree._regress(q, p, runs, min(q, p - q))
    letter, count, q_up, p_up = up_one_run(q, p)
    assert p_got < p
    assert runs[0] == (letter, count) and len(runs) <= 2
    if len(runs) == 2:
        letter, count, q_up, p_up = up_one_run(q_up, p_up)
        assert runs[1] == (letter, count) == (letter, 1)
    assert (q_got, p_got) == (q_up, p_up)
    return len(runs) - 1


@given(st.integers(3, 2**8000), st.data())
def test_a_refused_chunk_step_takes_a_run_on_drawn_pairs(p, data):
    q = data.draw(st.integers(1, p - 1))
    assume(math.gcd(q, p) == 1)
    assert_refused_chunk_step_takes_the_run_ending_there(q, p)


def test_a_refused_chunk_step_takes_a_run_past_huge_runs_and_next_to_boundaries():
    # Below A or C runs of 2^1100 letters the pair is near 0 or 1, and one more letter puts it next to 1/3 or 1/2:
    # the pairs whose chunks are refused.
    tails = [((letter, 2**1100),) for letter in "AC"] + [(("B", 1), (letter, 2**1100)) for letter in "AC"]
    tails += [((run, 2**far), (letter, 1)) for far in (1032, 1100, 1600)
              for run, letter in (("C", "A"), ("C", "B"), ("A", "B"), ("A", "C"))]
    more = set()
    for seed in range(3):
        for tail in tails:
            q, p = apply_path(ROOT_GENERATOR, drawn_code(seed, "mixed", 8000) + PathCode(tail)).as_integer_ratio()
            more.add(assert_refused_chunk_step_takes_the_run_ending_there(q, p))
    assert more == {0, 1}


def test_a_full_size_step_that_takes_no_run_raises(monkeypatch):
    # A wrong chunk that lands on an in-domain pair that is not coprime, (m, 2m), leaves a pair whose chunk is
    # refused and from which the full-size step takes no run: locate must raise, not go round forever.  The _regress
    # spy stops a locate that would.
    code = drawn_code(3, "mixed", 20_000)
    real_chunk, real_regress = tree._top_chunk, tree._regress
    landed, calls = [], []

    def chunk(q, p):
        runs, q_up, p_up = real_chunk(q, p)
        if not landed:
            landed.append(q_up)
            return runs, q_up, 2 * q_up
        return runs, q_up, p_up

    def regress(*args):
        calls.append(None)
        if len(calls) > 10**4:
            raise RuntimeError("locate made 10^4 regressions without ending")
        return real_regress(*args)

    monkeypatch.setattr(tree, "_top_chunk", chunk)
    monkeypatch.setattr(tree, "_regress", regress)
    f = apply_path(ROOT_GENERATOR, code)
    with pytest.raises(AssertionError) as caught:
        locate(f)
    bits = (2 * landed[0]).bit_length()
    assert bits > tree._CHUNK_FROM_BITS
    assert str(caught.value) == f"a full-size step took no run from a {bits}-bit pair"


def test_b_power_table_holds_b_powers():
    # One entry per B run a chunk can take: a run of k letters from p_0 < 2^_TOP_BITS down to p_k >= _TOP_FLOOR has
    # p_0 >= P(k + 1) p_k, so P(k + 1) _TOP_FLOOR < 2^_TOP_BITS, which holds up to k = _CHUNK_B_RUN, 166 at a 512-bit
    # top.
    longest = tree._CHUNK_B_RUN
    assert tree._B_POWERS[0] == (1, 0, 0, 1)
    assert longest == len(tree._B_POWERS) - 1 == 166
    assert tree._B_POWERS == tuple(map(tree._b_power, range(longest + 1)))
    assert (tree._b_power(longest)[3] * tree._TOP_FLOOR < 1 << tree._TOP_BITS
            <= tree._b_power(longest + 1)[3] * tree._TOP_FLOOR)


@pytest.mark.parametrize("extra", [0, 1])
def test_a_chunk_takes_at_most_the_tables_longest_b_run(monkeypatch, extra):
    # B^count above (1, p_0), p_0 = longest_b_run_base() at or just above the floor, with count = _CHUNK_B_RUN +
    # extra: at the table's longest run the top has exactly _TOP_BITS bits and the chunk takes the whole run from its
    # table entry; one letter more and the top has more bits, and its truncated run ends above the floor after fewer
    # letters.  Neither calls _b_power.
    longest, base = tree._CHUNK_B_RUN, longest_b_run_base()
    q, p = tree._path_pair((("B", longest + extra),), 1, base)
    assert (p.bit_length() == tree._TOP_BITS) == (extra == 0)
    calls = []
    monkeypatch.setattr(tree, "_b_power", lambda count: calls.append(count))
    runs, q_up, p_up = assert_chunk_undoes_its_runs(q, p)
    assert calls == []
    assert len(runs) == 1 and runs[0][0] == "B" and runs[0][1] <= longest
    assert (runs[0][1] == longest and (q_up, p_up) == (1, base)) == (extra == 0)
    assert 0 < q_up < p_up and tree._path_pair(runs, q_up, p_up) == (q, p)


def test_b_power_matches_matrix_squaring():
    for count in [*range(301), *random.Random(5).sample(range(301, 10**5 + 1), 20), 10**5]:
        assert tree._b_power(count) == b_power_by_squaring(count)


# ------------------------------------------------------------ long B runs


def b_run_codes(count: int) -> list[PathCode]:
    """A B run of `count` letters alone, between other letters, and below a code past the chunk size."""
    run = PathCode((("B", count),))
    return [
        run,
        PathCode.parse("A^3") + run + PathCode.parse("C^7 A"),
        PathCode.parse("C A") + run + PathCode.parse("A B C") + run + PathCode.parse("C"),
        drawn_code(count, "mixed", 9000) + run + PathCode.parse("A") + run,
    ]


@pytest.mark.parametrize("count", [7, 8, 9, 31, 32, 33, 52, 53, 64, 65, 66, 97])
def test_locate_takes_b_runs_near_the_jump_lengths(count, same_fraction):
    for code in b_run_codes(count):
        assert_navigation_matches_oracles(code, same_fraction)


@settings(max_examples=10)
@given(st.sampled_from((7, 8, 9, 31, 32, 33, 52, 64, 65, 66, 300)), st.integers(0, 300))
def test_regress_stops_at_floors_inside_long_b_runs(count, depth):
    # A floor equal to, or one above, the p of a node `depth` letters below the top of the B run: the jump must
    # land at or above it, and the letters below it are taken one at a time.
    code = PathCode.parse("A^3") + PathCode((("B", count),)) + PathCode.parse("C^7 A")
    q, p = apply_path(ROOT_GENERATOR, code).as_integer_ratio()
    node = apply_path(ROOT_GENERATOR, PathCode.parse("A^3") + PathCode((("B", min(depth, count)),)))
    for floor in node.denominator, node.denominator + 1:
        assert_regress_matches_oracles(q, p, floor, [])


def test_b_jump_lands_inside_the_run_with_few_letters_left():
    # From every pair of B runs of 8 to 200 letters, under floors at every node, a jump lands on the pair the
    # letter-at-a-time steps reach, still a B pair at or above the floor, and leaves at most four letters.  With
    # no floor, every pair with 24 or more letters left jumps.
    for count in (8, 9, 10, 17, 40, 65, 200):
        code = PathCode.parse("C^3") + PathCode((("B", count),)) + PathCode.parse("A")
        q, p = apply_path(ROOT_GENERATOR, code).as_integer_ratio()
        p -= 2 * q  # regress the A
        pairs = []  # the B run's pairs, bottom first
        while 0 < p - 2 * q <= q:
            pairs.append((q, p))
            q, p = p - 2 * q, q
        pairs.append((q, p))
        assert len(pairs) == count + 1
        for floor in [0] + [p_i for _, p_i in pairs]:
            for start, (q, p) in enumerate(pairs):
                left = sum(1 for q_i, _ in pairs[start:-1] if q_i >= floor)
                k, q_k, p_k = tree._b_jump(q, p, floor)
                assert (q_k, p_k) == pairs[start + k]
                assert k == 0 or (0 < p_k - 2 * q_k <= q_k and q_k >= floor and left - k <= 4)
                assert k > 0 or floor or left < 24


@pytest.mark.parametrize("counts,shifted", [((97, 150, 423), True),
                                            ((97, 200, 1000, 4000), False)])
def test_a_tracked_regression_takes_one_b_power_per_long_b_run(monkeypatch, counts, shifted):
    # Every B jump a chunk makes reads its power from _B_POWERS: the chunks that take a code's top bits (shifted),
    # one after another as locate takes them, make no _b_power call, each takes no B run longer than the
    # _CHUNK_B_RUN letters the table holds, and each chunk's pair is the one the matrix that undoes its runs sends the full pair
    # to.  The run of 423 letters, longer than the table, splits across chunks.  A full-size regression makes at
    # most one call per B run of 65 or more letters, and only for a jump past the table.
    code = drawn_code(1, "mixed", 3000 if shifted else 200)
    for count in counts:
        code = code + PathCode((("B", count),)) + PathCode.parse("C A")
    q, p = apply_path(ROOT_GENERATOR, code).as_integer_ratio()
    calls = []
    power = tree._b_power
    monkeypatch.setattr(tree, "_b_power", lambda count: calls.append(count) or power(count))
    taken: list = []
    if shifted:
        while p.bit_length() > tree._TOP_BITS:
            chunk, q, p = assert_chunk_undoes_its_runs(q, p)
            assert chunk and 0 < q < p
            assert max((count for letter, count in chunk if letter == "B"), default=0) <= tree._CHUNK_B_RUN
            if taken and taken[-1][0] == chunk[0][0]:
                chunk[0] = (chunk[0][0], taken.pop()[1] + chunk[0][1])
            taken += chunk
        assert calls == []
    else:
        q_up, p_up = tree._regress(q, p, taken, 0)
        a, b, c, d = matrix_by_runs(reversed(taken))
        assert (a * q_up + b * p_up, c * q_up + d * p_up) == (q, p)
        assert len(calls) <= sum(1 for letter, count in taken if letter == "B" and count >= 65)
        assert all(count > tree._CHUNK_B_RUN for count in calls)
    long_runs = [count for letter, count in taken if letter == "B" and count >= 65]
    assert long_runs == list(reversed(counts))


@pytest.mark.parametrize("count", [1000, 4000, 4719, 10**4, 33_333, 10**5])
def test_locate_takes_long_b_runs(count, same_fraction):
    # The oracles take one full-size step a B letter, so the longest run is checked alone.
    for code in b_run_codes(count)[:1 if count == 10**5 else 2]:
        assert_navigation_matches_oracles(code, same_fraction)


def package_lines(call, *args) -> int:
    """The line events that call(*args) runs in the package's Python frames: deterministic for an interpreter."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return local

    def trace(frame, event, arg):
        return local if frame.f_globals.get("__name__", "").partition(".")[0] == "pptalgebra" else None

    sys.settrace(trace)
    try:
        call(*args)
    finally:
        sys.settrace(None)
    return lines


def test_locate_takes_a_long_b_run_in_a_few_steps():
    # The full-size regression that ends locate takes a B run of 4000 letters as 32 letters, one jump and a few
    # letters: about 200 lines, where a loop turn a letter runs about 8,000.  The pair is driven through _regress
    # itself, since at 5088 bits locate would take its top in chunks.
    q, p = apply_path(ROOT_GENERATOR, PathCode.parse("B^4000")).as_integer_ratio()
    runs: list = []
    assert package_lines(tree._regress, q, p, runs) < 400
    assert runs == [("B", 4000)]


# --------------------------------------------------------- derivative towers


def climb_tower(kinds) -> int:
    """Derivatives of (3, 4, 5) of the given kinds in turn until c passes 2^16 bits, each step checked by the
    anti-derivative, PPT()'s own checks, a locate round trip and its factor class; returns the steps taken."""
    t = make_ppt(3, 4, 5)
    for step, kind in enumerate(kinds, 1):
        d = derivative(t, kind)
        assert anti_derivative(d, kind).integral == t
        assert is_derivative(d, kind) == t
        assert make_ppt(*d.sides()) == d
        g = generators_of(d)[0]
        assert apply_path(ROOT_GENERATOR, locate(g)) == g
        assert classify(d) is (TClass.T4 if step == 1 else TClass.T6)
        t = d
        if t.c.bit_length() > 1 << 16:
            return step
    raise AssertionError(f"{len(kinds)} steps stayed at {t.c.bit_length()} bits")


@pytest.mark.parametrize("kind", list(DerivativeKind))
def test_derivative_towers_round_trip_past_the_chunk_size(chunks, kind):
    # Each step doubles the bits of c, so 16 steps pass 2^16 bits, and the last generators regress in chunks.
    assert climb_tower([kind] * 20) <= 16
    assert any(accepted for _, accepted in chunks)


@settings(max_examples=5)
@given(st.lists(st.sampled_from(list(DerivativeKind)), min_size=20, max_size=20))
def test_derivative_towers_of_drawn_kinds_round_trip(kinds):
    climb_tower(kinds)


# ----------------------------------------------------------------- children


LEVEL_TWO = [
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


def test_children_goldens():
    assert children(make_ppt(3, 4, 5)) == (
        make_ppt(15, 8, 17),
        make_ppt(21, 20, 29),
        make_ppt(5, 12, 13),
    )
    assert children(make_ppt(15, 8, 17)) == (
        make_ppt(35, 12, 37),
        make_ppt(65, 72, 97),
        make_ppt(33, 56, 65),
    )
    assert children(make_ppt(5, 12, 13)) == (
        make_ppt(45, 28, 53),
        make_ppt(55, 48, 73),
        make_ppt(7, 24, 25),
    )


def test_children_commute_with_generator_steps(small_corpus):
    for t in small_corpus:
        f = generators_of(t)[0]
        left, middle, right = children(t)
        assert generators_of(left)[0] == step(f, "A")
        assert generators_of(middle)[0] == step(f, "B")
        assert generators_of(right)[0] == step(f, "C")


def test_levels():
    assert enumerate_level(0) == [make_ppt(3, 4, 5)]
    assert enumerate_level(1) == [make_ppt(15, 8, 17), make_ppt(21, 20, 29), make_ppt(5, 12, 13)]
    assert [t.sides() for t in enumerate_level(2)] == LEVEL_TWO
    with pytest.raises(ValueError):
        enumerate_level(-1)
    with pytest.raises(ValueError, match="^depth must be nonnegative, got -1$"):
        next(walk(-1))


def test_levels_match_fraction_stepping():
    # Generator-pair stepping and single fraction steps must build the same levels.
    generators = [ROOT_GENERATOR]
    for depth in range(8):
        assert enumerate_level(depth) == [triple_from_primary(g) for g in generators]
        generators = [step(g, letter) for g in generators for letter in "ABC"]


def test_levels_are_the_last_levels_of_walk():
    # enumerate_level lists the level that walk streams last.  Both build through _child_triples, so each
    # is held to key-sequence stepping, which shares no code with them.
    keys = [ROOT_KEY]
    for depth in range(9):
        level = [mixed_form(key) for key in keys]
        assert enumerate_level(depth) == level
        assert list(walk(depth))[-3**depth :] == level
        keys = [child for key in keys for child in key_children(key)]


def pairs_by_lists(n: int) -> list[tuple[int, int]]:
    """Level n's generator pairs, one list per level; the oracle for _level_pairs()."""
    pairs = [(1, 2)]
    for _ in range(n):
        pairs = [child for q, p in pairs for child in ((q, p + 2 * q), (p, 2 * p + q), (p, 2 * p - q))]
    return pairs


def test_level_pairs_match_the_list_per_level_construction():
    for n in range(10):
        assert list(tree._level_pairs(n)) == pairs_by_lists(n)


def traced(run):
    """(result of run(), bytes it still holds, peak bytes while it ran), counted from the traced memory at the start."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = run()
        held, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, held - base, peak - base


def test_enumerate_level_holds_nothing_beside_its_result():
    level, held, peak = traced(lambda: enumerate_level(9))
    assert len(level) == 3**9
    assert peak <= 1.05 * held


def test_streamed_levels_hold_o_depth_pairs():
    # A full traced walk(11) takes seconds, so walk(11) is traced across its last level boundary: there a walk
    # that lists each level builds the 59,049 pairs of level 10 (several MB) before its first level-11 triple.
    stream = walk(11)
    for _ in islice(stream, (3**11 - 1) // 2 - 1):  # all but the last triple of levels 0 to 10
        pass
    _, _, peak = traced(lambda: sum(1 for _ in islice(stream, 10_000)))
    assert peak < 1 << 20
    # The pairs of level 10 in full: only one pending pair per level is held.
    count, _, peak = traced(lambda: sum(1 for _ in tree._level_pairs(10)))
    assert count == 3**10
    assert peak < 1 << 16


def test_level_sizes_and_uniqueness():
    seen = set()
    for depth in range(6):
        level = enumerate_level(depth)
        assert len(level) == 3**depth
        seen.update(level)
    assert len(seen) == (3**6 - 1) // 2


def test_walk_covers_levels(corpus):
    assert len(corpus) == 9841
    assert len(set(corpus)) == 9841
    assert corpus[:4] == enumerate_level(0) + enumerate_level(1)


def test_every_small_triple_has_exactly_one_position(corpus, brute_force):
    everyone = set(corpus)
    for t in brute_force(120):
        assert t in everyone
        assert len(locate(generators_of(t)[0])) <= 8


def test_iter_by_hypotenuse_matches_brute_force(brute_force):
    for bound in (300, 2000):
        assert sorted(iter_by_hypotenuse(bound)) == brute_force(bound)
    assert list(iter_by_hypotenuse(4)) == []


# Children with hypotenuses up to here have their edges checked; the 3184 streams up to 10^4 would take seconds.
_EDGE_CHILDREN_UP_TO = 2000


def _reference_by_hypotenuse(bound: int) -> list[tuple[int, int, int]]:
    # The sides iter_by_hypotenuse yields, from a depth-first walk that pops every pair from its stack,
    # tests each of the A, B and C children against the bound on its own and pushes them in that order.
    if bound < 5:
        return []
    found, stack = [], [(1, 2)]
    while stack:
        q, p = stack.pop()
        found.append((p * p - q * q, 2 * p * q, p * p + q * q))
        for cq, cp in (q, p + 2 * q), (p, 2 * p + q), (p, 2 * p - q):
            if cq * cq + cp * cp <= bound:
                stack.append((cq, cp))
    return found


def test_iter_by_hypotenuse_matches_the_childwise_reference_at_every_edge():
    # B is tested only once C is in, since B's hypotenuse is C's plus 8pq.  So the bounds
    # that matter sit at a child's hypotenuse: every child is checked just in and just out.
    edges = {c + d for _, _, c in _reference_by_hypotenuse(_EDGE_CHILDREN_UP_TO)[1:] for d in (-1, 0)}
    for bound in sorted(set(range(601)) | edges | {10**5}):
        assert [t.sides() for t in iter_by_hypotenuse(bound)] == _reference_by_hypotenuse(bound)


def test_enumeration_order_matches_key_sequence_stepping():
    breadth_first = []
    keys = [ROOT_KEY]
    for _ in range(8):
        breadth_first += [mixed_form(key) for key in keys]
        keys = [child for key in keys for child in key_children(key)]
    assert list(walk(7)) == breadth_first

    depth_first = []
    stack = [ROOT_KEY]
    while stack:
        key = stack.pop()
        depth_first.append(mixed_form(key))
        stack += [child for child in key_children(key) if mixed_form(child).c <= 10**5]
    assert list(iter_by_hypotenuse(10**5)) == depth_first


# ------------------------------------------------- generator-level derivatives


def test_derive_generator_goldens():
    assert derive_generator(Fraction(1, 2), DerivativeKind.MAJOR) == Fraction(1, 6)
    assert derive_generator(Fraction(1, 2), DerivativeKind.MINOR) == Fraction(2, 3)
    assert derive_generator(Fraction(2, 5), DerivativeKind.MAJOR) == Fraction(6, 35)


def test_derive_generator_commutes_with_triples(small_corpus):
    for t in small_corpus:
        f = generators_of(t)[0]
        for kind in DerivativeKind:
            assert derive_generator(f, kind) == derive_generator_formula(f, kind)
        assert triple_from_primary(derive_generator(f, DerivativeKind.MAJOR)) == major_derivative(t)
        assert triple_from_primary(derive_generator(f, DerivativeKind.MINOR)) == minor_derivative(t)


# ----------------------------------------------------------- Pell & families


def test_pell_goldens():
    assert (pell(1).p, pell(1).q) == (1, 1)
    assert (pell(3).p, pell(3).q) == (5, 7)
    assert (pell(5).p, pell(5).q) == (29, 41)
    with pytest.raises(ValueError):
        pell(0)


def test_pell_matches_two_term_loop():
    for n, (p, q) in enumerate(pell_loop(2000), start=1):
        pair = pell(n)
        assert (pair.p, pair.q) == (p, q)


def test_pell_recurrence_and_key_property():
    for n in range(1, 30):
        a, b = pell(n), pell(n + 1)
        assert pell(n + 2).p == 2 * b.p + a.p
        assert pell(n + 2).q == 2 * b.q + a.q
        # consecutive pairs assemble into a valid key sequence
        KeySequence(a.q, a.p, b.p, b.q)


def test_family_generators_and_members():
    assert family_generator(Family(FamilyLine.PLATONIC, 2)) == Fraction(1, 4)
    assert family_generator(Family(FamilyLine.PYTHAGOREAN, 2)) == Fraction(2, 3)
    assert family_generator(Family(FamilyLine.FERMAT, 2)) == Fraction(2, 5)
    assert family_member(Family(FamilyLine.PLATONIC, 2)) == make_ppt(15, 8, 17)
    assert family_member(Family(FamilyLine.FERMAT, 2)) == make_ppt(21, 20, 29)
    for n in (1, 2, 3):
        assert family_member(Family(FamilyLine.PYTHAGOREAN, n)).sides()[2] - family_member(
            Family(FamilyLine.PYTHAGOREAN, n)
        ).sides()[1] == 1


def test_family_index_validation():
    with pytest.raises(ValueError):
        Family(FamilyLine.PLATONIC, 0)


def test_family_paths_reach_family_generators():
    # Closed forms: 1/(2n), n/(n+1) and consecutive Pell ratios p(n)/p(n+1).
    p = [p for p, _ in pell_loop(301)]
    for n in [*range(1, 301), 10**6, 10**12 + 7]:
        expected = {
            FamilyLine.PLATONIC: Fraction(1, 2 * n),
            FamilyLine.PYTHAGOREAN: Fraction(n, n + 1),
        }
        if n < 301:
            expected[FamilyLine.FERMAT] = Fraction(p[n - 1], p[n])
        for line, generator in expected.items():
            assert family_generator(Family(line, n)) == generator


def test_platonic_members_are_the_one_over_even_family():
    for n in range(1, 10):
        t = family_member(Family(FamilyLine.PLATONIC, n))
        assert t.sides() == (4 * n * n - 1, 4 * n, 4 * n * n + 1)


# --------------------------------------------------- derivative location law


KNOWN_MAJOR_CODES = {
    (3, 4, 5): "AA",
    (15, 8, 17): "CBAA",
    (21, 20, 29): "AACAA",
    (5, 12, 13): "CAAA",
}

KNOWN_MINOR_CODES = {
    (3, 4, 5): "C",
    (15, 8, 17): "BB",
    (21, 20, 29): "C^13",
    (5, 12, 13): "CCA",
}


@pytest.mark.parametrize("table,kind", [
    (KNOWN_MAJOR_CODES, DerivativeKind.MAJOR),
    (KNOWN_MINOR_CODES, DerivativeKind.MINOR),
])
def test_known_derivative_locations(table, kind):
    for sides, code in table.items():
        t = make_ppt(*sides)
        derived = major_derivative(t) if kind is DerivativeKind.MAJOR else minor_derivative(t)
        assert locate(generators_of(derived)[0]) == PathCode.parse(code)


def test_closed_forms_for_level_one_members():
    assert derivative_location(Family(FamilyLine.PYTHAGOREAN, 1), DerivativeKind.MAJOR) == PathCode.parse("AA")
    assert derivative_location(Family(FamilyLine.PYTHAGOREAN, 1), DerivativeKind.MINOR) == PathCode.parse("C")
    assert derivative_location(Family(FamilyLine.FERMAT, 1), DerivativeKind.MAJOR) == PathCode.parse("AA")
    assert derivative_location(Family(FamilyLine.FERMAT, 1), DerivativeKind.MINOR) == PathCode.parse("C")
    assert derivative_location(Family(FamilyLine.PLATONIC, 2), DerivativeKind.MAJOR) == PathCode.parse("CBAA")
    assert derivative_location(Family(FamilyLine.PLATONIC, 2), DerivativeKind.MINOR) == PathCode.parse("BB")


@pytest.mark.parametrize("line", list(FamilyLine))
@pytest.mark.parametrize("kind", list(DerivativeKind))
def test_closed_forms_match_actual_locations(line, kind):
    for n in range(2, 16):
        fam = Family(line, n)
        actual = locate(derive_generator(family_generator(fam), kind))
        assert derivative_location(fam, kind) == actual


def test_fermat_identities_at_large_index():
    # The old O(n) Pell loop took seconds per call at this index.
    n = 10**5
    fam = Family(FamilyLine.FERMAT, n)
    pair = pell(n)
    assert pair.q**2 - 2 * pair.p**2 == (-1) ** n
    assert family_generator(fam) == Fraction(pair.p, pair.p + pair.q)
    code = derivative_location(fam, DerivativeKind.MINOR)
    assert apply_path(ROOT_GENERATOR, code) == derive_generator(family_generator(fam), DerivativeKind.MINOR)


def test_closed_forms_are_maximal_runs():
    for line in FamilyLine:
        for kind in DerivativeKind:
            for n in list(range(2 if line is FamilyLine.PLATONIC else 1, 40)) + [10**4 + 1]:
                assert_maximal(derivative_location(Family(line, n), kind))


def test_kinds_and_lines_of_the_wrong_type_raise_type_error():
    t, fam = make_ppt(3, 4, 5), Family(FamilyLine.FERMAT, 3)
    # is_derivative checks the kind before its square test: t misses both kinds, each derivative hits one.
    hits = [derivative(t, kind) for kind in DerivativeKind]
    assert [is_derivative(hit, kind) for hit, kind in zip(hits, DerivativeKind)] == [t, t]
    calls = [
        (derivative, t), (corollary_generators, t), (anti_derivative, t), (is_derivative, t),
        (derive_generator, Fraction(1, 2)), (derivative_location, fam),
        *((call, hit) for hit in hits for call in (anti_derivative, is_derivative)),
    ]
    for bad in ("major", None, 1):
        for call, arg in calls:
            with pytest.raises(TypeError, match=f"^expected a DerivativeKind, got {re.escape(repr(bad))}$"):
                call(arg, bad)
    for bad in ("fermat", None, 1):
        with pytest.raises(TypeError, match=f"^expected a FamilyLine, got {re.escape(repr(bad))}$"):
            Family(bad, 3)
    for kind in DerivativeKind:
        assert derivative_location(fam, kind) == locate(derive_generator(family_generator(fam), kind))


def test_non_integer_indices_and_codes_that_are_not_path_codes_raise_type_error():
    # The type is checked before the sign, so 0.5 is refused as a non-integer; integers keep their ValueError.
    # A PathCode run length of the wrong type is a TypeError too, as the index arguments are.
    for bad in (2.5, 0.5, Fraction(3), "3", None):
        shown = re.escape(repr(bad))
        with pytest.raises(TypeError, match=f"^Pell index must be an integer, got {shown}$"):
            pell(bad)
        with pytest.raises(TypeError, match=f"^family index must be an integer, got {shown}$"):
            Family(FamilyLine.FERMAT, bad)
        with pytest.raises(TypeError, match=f"^family index must be an integer, got {shown}$"):
            square_triangle_triple(bad)
        with pytest.raises(TypeError, match=f"^run length must be an integer, got {shown} for A$"):
            PathCode((("B", 2), ("A", bad)))
    # A run length past the interpreter's int-to-str digit limit is named by its size, as the other messages do.
    with pytest.raises(TypeError, match="^run length must be an integer, got a 16610-bit integer for C$"):
        PathCode((("C", Fraction(10**5000, 3)),))
    for bad in ("AB", (("A", 1),), None):
        with pytest.raises(TypeError, match=f"^expected a PathCode, got {re.escape(repr(bad))}$"):
            apply_path(ROOT_GENERATOR, bad)
    with pytest.raises(ValueError, match="^Pell index must be positive, got 0$"):
        pell(0)
    with pytest.raises(ValueError, match="^family index must be positive, got -1$"):
        Family(FamilyLine.PLATONIC, -1)


def test_degenerate_indices():
    for kind in DerivativeKind:
        with pytest.raises(DegenerateIndex):
            derivative_location(Family(FamilyLine.PLATONIC, 1), kind)


# -------------------------------------------------------- square triangles


def test_square_triangle_goldens():
    assert square_triangle_triple(1) == make_ppt(3, 4, 5)
    assert square_triangle_triple(2) == make_ppt(21, 20, 29)
    assert square_triangle_triple(3) == make_ppt(119, 120, 169)
    with pytest.raises(ValueError):
        square_triangle_triple(0)


def test_square_triangle_relation():
    # The square-sides sequence: squares among the triangular numbers.
    x, y = 1, 6
    for i in range(1, 300):
        t = square_triangle_triple(i)
        low, high = sorted((t.a, t.b))
        assert high - low == 1
        assert 2 * x * x == (t.c - high) * (t.c - low)
        x, y = y, 6 * y - x
