"""The private integer hot path: the generator pair and triples built without re-checking."""

import copy
import gc
import inspect
import math
import pickle
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from pptalgebra import (
    PPT,
    ROOT_GENERATOR,
    AntiDerivative,
    DerivativeKind,
    Family,
    FamilyLine,
    IntegerSquareScale,
    KeySequence,
    PathCode,
    QuadraticSurd,
    Radii,
    SquarePair,
    altitude_kappa,
    anti_derivative,
    apply_path,
    children,
    corollary_generators,
    derivative,
    derive_generator,
    enumerate_level,
    family_generator,
    family_member,
    generators_of,
    inscribed_squares,
    integer_square_scale,
    is_derivative,
    iter_by_hypotenuse,
    key_sequence_of,
    locate,
    major_derivative,
    make_ppt,
    radii,
    reciprocal_triple,
    step,
    triple_from_key,
    triple_from_primary,
    triple_from_secondary,
    walk,
)
from pptalgebra import symphonic, tree
from pptalgebra.generators import _generator_pair
from pptalgebra.triple_core import _OpenPPT, _proven, _proven_fraction


@st.composite
def primary_pair(draw):
    # Coprime q < p of opposite parity, small or far past 10^9.
    p = draw(st.one_of(st.integers(2, 1000), st.integers(2, 2**512)))
    q = draw(st.integers(1, p - 1))
    assume((p + q) % 2 == 1 and math.gcd(q, p) == 1)
    return q, p


def _half_angle(t: PPT) -> tuple[int, int]:
    # The defining tangent b/(c+a) of the primary generator, reduced by Fraction's gcd.
    return Fraction(t.b, t.c + t.a).as_integer_ratio()


@given(primary_pair())
def test_generator_pair_is_the_half_angle_tangent(pair):
    t = triple_from_primary(Fraction(*pair))
    assert _generator_pair(t) == _half_angle(t) == pair
    assert generators_of(t)[0].as_integer_ratio() == pair


@given(primary_pair())
def test_children_are_the_triples_of_the_stepped_generators(pair):
    # children builds each child from the parent's pair in a block of its own, with no check: each must be the triple
    # of the generator one step down, exactly a PPT, keeping no pair.
    f = Fraction(*pair)
    got = children(triple_from_primary(f))
    assert got == tuple(triple_from_primary(step(f, letter)) for letter in "ABC")
    for t in got:
        assert type(t) is PPT and not hasattr(t, "_pair")


def test_generator_pair_on_big_triples(big_triples):
    for t in big_triples:
        assert _generator_pair(t) == _half_angle(t)
        assert generators_of(t)[0].as_integer_ratio() == _half_angle(t)


def derivative_formula(t: PPT, kind: DerivativeKind) -> PPT:
    """[c(a+b), ab, c^2 + ab] or [c|a-b|, ab, c^2 - ab], checked by make_ppt; the oracle for derivative()."""
    a, b, c = t.sides()
    if kind is DerivativeKind.MAJOR:
        return make_ppt(c * (a + b), a * b, c * c + a * b)
    return make_ppt(c * abs(a - b), a * b, c * c - a * b)


def corollary_formula(t: PPT, kind: DerivativeKind) -> tuple[Fraction, Fraction]:
    """The derivative's generators as fractions in a, b, c; the oracle for corollary_generators().

    Major: ab/((c+a)(c+b)) and c/(a+b).  Minor: ab/((c-a)(c+b)) and (b-a)/c,
    with the legs ordered smaller-first so both come out proper.
    """
    a, b, c = t.sides()
    if kind is DerivativeKind.MAJOR:
        return Fraction(a * b, (c + a) * (c + b)), Fraction(c, a + b)
    lo, hi = min(a, b), max(a, b)
    return Fraction(lo * hi, (c - lo) * (c + hi)), Fraction(hi - lo, c)


def _assert_derivatives_match_formulas(t):
    for kind in DerivativeKind:
        assert derivative(t, kind) == derivative_formula(t, kind)
        assert corollary_generators(t, kind) == corollary_formula(t, kind)


def test_derivatives_match_formulas_by_hypotenuse(by_hypotenuse):
    for t in by_hypotenuse:
        _assert_derivatives_match_formulas(t)


def test_derivatives_match_formulas_on_big_triples(big_triples):
    members = [
        family_member(Family(FamilyLine.FERMAT, 2 * 10**4)),
        family_member(Family(FamilyLine.PLATONIC, 10**12)),
        family_member(Family(FamilyLine.PYTHAGOREAN, 10**12)),
    ]
    for t in big_triples + members:
        _assert_derivatives_match_formulas(t)


@given(primary_pair())
def test_derivatives_match_formulas_on_drawn_generators(pair):
    _assert_derivatives_match_formulas(triple_from_primary(Fraction(*pair)))


def key_formula(t: PPT) -> PPT:
    """The mixed form of t's key sequence, checked by PPT; the oracle for triple_from_key()."""
    k = key_sequence_of(t)
    return PPT(k.p2 * k.q2, 2 * k.p1 * k.q1, k.p1 * k.p2 - k.q1 * k.q2)


def secondary_formula(t: PPT) -> PPT:
    """[pq, (p^2 - q^2)/2, (p^2 + q^2)/2] from t's secondary q/p, checked by PPT; the
    oracle for triple_from_secondary()."""
    q, p = generators_of(t)[1].as_integer_ratio()
    return PPT(p * q, (p * p - q * q) // 2, (p * p + q * q) // 2)


def _assert_key_and_secondary_triples_match_formulas(t):
    for built, expected in (
        (triple_from_key(key_sequence_of(t)), key_formula(t)),
        (triple_from_secondary(generators_of(t)[1]), secondary_formula(t)),
    ):
        assert type(built) is PPT
        assert built == expected == t
        assert hash(built) == hash(expected)


def test_key_and_secondary_triples_match_formulas_by_hypotenuse(by_hypotenuse):
    for t in by_hypotenuse:
        _assert_key_and_secondary_triples_match_formulas(t)


def test_key_and_secondary_triples_match_formulas_on_big_triples(big_triples):
    for t in big_triples:
        _assert_key_and_secondary_triples_match_formulas(t)


def _assert_same_as_checked(built):
    # A record built without its constructor's checks is the one the checked constructor
    # builds from the same fields, down to its repr, its slotted layout and its size.  A PPT
    # has one private slot after its fields, for the pair a checked triple may keep.
    cls = type(built)
    fields = tuple(getattr(built, name) for name in cls.__match_args__)
    checked = cls(*fields)
    assert tuple(getattr(checked, name) for name in cls.__match_args__) == fields
    assert not hasattr(built, "__dict__") and not hasattr(checked, "__dict__")
    assert cls.__slots__ == cls.__match_args__ + (("_pair",) if cls is PPT else ())
    assert built == checked and hash(built) == hash(checked)
    assert sys.getsizeof(built) == sys.getsizeof(checked)
    with pytest.raises(FrozenInstanceError):
        setattr(built, cls.__match_args__[0], fields[0])
    with pytest.raises(FrozenInstanceError):
        delattr(built, cls.__match_args__[0])
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert repr(built) == repr(checked)
    finally:
        sys.set_int_max_str_digits(limit)


def test_proven_triples_equal_checked_ones(by_hypotenuse):
    sweep = by_hypotenuse
    built = enumerate_level(8) + list(walk(6)) + sweep
    for t in sweep:
        built.extend(children(t))
        built.extend(derivative(t, kind) for kind in DerivativeKind)
    hits = 0
    for t in sweep:
        for kind in DerivativeKind:
            pre = is_derivative(t, kind)
            assert anti_derivative(t, kind).integral == pre
            if pre is not None:
                hits += 1
                built.append(pre)
                built.append(anti_derivative(t, kind).integral)
    assert hits > 0
    for t in built:
        assert type(t) is PPT
        _assert_same_as_checked(t)


def test_tree_triples_copy_and_pickle_as_ppts():
    # The tree stores a triple's sides on an empty _OpenPPT, a PPT subclass that adds no slots and keeps object's
    # attribute hooks, then makes it its base PPT: what it yields copies and pickles as a PPT.
    # test_proven_triples_equal_checked_ones compares the same triples with checked ones.
    assert _OpenPPT.__bases__ == (PPT,)
    assert _OpenPPT.__slots__ == () and _OpenPPT.__basicsize__ == PPT.__basicsize__
    assert _OpenPPT.__setattr__ is object.__setattr__ and _OpenPPT.__delattr__ is object.__delattr__
    built = list(iter_by_hypotenuse(2000)) + enumerate_level(5) + list(walk(4)) + list(children(PPT(3, 4, 5)))
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    for t in built:
        for twin in [copy.copy(t), copy.deepcopy(t), *(pickle.loads(pickle.dumps(t, n)) for n in protocols)]:
            assert type(twin) is PPT
            assert twin == t and hash(twin) == hash(t) and repr(twin) == repr(t)


def test_no_layout_twin_outlives_a_sweep_pass():
    # Every _OpenPPT the tree makes becomes a PPT before it is yielded, so a pass of any builder leaves none behind.
    # _OpenPPT is a PPT subclass, so a leak shows only by exact type, and as a triple that takes attribute stores.
    streams = [
        list(iter_by_hypotenuse(10**5)),
        enumerate_level(7),
        list(walk(6)),
        [u for t in enumerate_level(3) for u in children(t)],
    ]
    kinds = [type(o) for o in gc.get_objects()]
    sizes = [len(kept) for kept in streams]
    assert sizes == [15919, 3**7, (3**7 - 1) // 2, 3**4]
    assert kinds.count(PPT) >= sum(sizes)
    assert _OpenPPT not in kinds
    for kept in streams:
        for t in kept[:: len(kept) // 50]:
            assert type(t) is PPT
            with pytest.raises(FrozenInstanceError):
                setattr(t, "a", t.a)
            with pytest.raises(FrozenInstanceError):
                delattr(t, "c")


def _python_calls(call, *args) -> list[str]:
    # The names of the package's Python frames that call(*args) starts, in order, leaving out generator frames:
    # the profiler reports each resumption of a generator as a call.  Calls into C are not counted, nor frames
    # of other modules, such as a gc callback a collection runs.
    names: list[str] = []

    def profile(frame, event, arg):
        if event == "call" and not frame.f_code.co_flags & inspect.CO_GENERATOR:
            if frame.f_globals.get("__name__", "").partition(".")[0] == "pptalgebra":
                names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        call(*args)
    finally:
        sys.setprofile(None)
    return names


def test_is_derivative_decides_a_miss_in_one_frame():
    misses = 0
    for t in iter_by_hypotenuse(2000):
        for kind in DerivativeKind:
            if is_derivative(t, kind) is None:
                misses += 1
                assert _python_calls(is_derivative, t, kind) == ["is_derivative"]
            else:
                # A hit goes on into anti_derivative's step past the root, with the root it took.
                calls = _python_calls(is_derivative, t, kind)
                assert "_anti_derivative" in calls and "anti_derivative" not in calls
    assert misses > 0


def test_tree_streams_make_no_python_call_per_triple():
    # The calls a stream makes do not grow with the triples it yields.
    def drain(stream, n):
        for _ in stream(n):
            pass

    for stream, small, large in (iter_by_hypotenuse, 10**3, 10**4), (enumerate_level, 4, 7):
        calls = _python_calls(drain, stream, small)
        assert _python_calls(drain, stream, large) == calls
        assert calls == ([] if stream is iter_by_hypotenuse else ["enumerate_level", "_level_pairs"])


def test_locate_takes_b_runs_whole():
    # The full-size regression that ends locate makes a bounded number of Python calls plus O(log k) for a B run of
    # k letters: one B letter per call would make over 2000 calls at k = 1000.  The pairs are driven through
    # _regress itself, since past the chunk size (at k = 1000) locate would take their tops in chunks.
    for k in (10, 100, 1000):
        code = PathCode.parse(f"A B^{k} C B^{k}")
        q, p = apply_path(ROOT_GENERATOR, code).as_integer_ratio()
        assert locate(Fraction(q, p)) == code
        runs: list = []
        assert len(_python_calls(tree._regress, q, p, runs)) <= 10 + 4 * k.bit_length()
        assert runs[::-1] == list(code.runs)


def _assert_roots_equal_checked_surds(t: PPT) -> int:
    # The roots are built without QuadraticSurd's normalisation; they must equal
    # what the public constructor makes of (u, u^2 -+ 8pq, 2, +-1), field for field.
    # Returns the number of integral preimages.
    q, p = generators_of(t)[0].as_integer_ratio()
    hits = 0
    for kind, sign in ((DerivativeKind.MAJOR, 1), (DerivativeKind.MINOR, -1)):
        u = p + sign * q
        disc = u * u - sign * 8 * p * q
        got = anti_derivative(t, kind)
        assert got.kind is kind
        assert got.hypotenuse == p - sign * q
        assert got.integral == is_derivative(t, kind)
        hits += got.integral is not None
        for root, root_sign in zip(got.roots, (1, -1)):
            checked = QuadraticSurd(u, disc, 2, root_sign)
            assert type(root) is QuadraticSurd
            assert (root.u, root.d, root.v, root.sign) == (checked.u, checked.d, checked.v, checked.sign)
            assert root == checked and hash(root) == hash(checked)
    return hits


def test_anti_derivative_roots_equal_checked_surds(big_triples):
    hits = sum(_assert_roots_equal_checked_surds(t) for t in list(iter_by_hypotenuse(20000)) + big_triples)
    assert hits > 0


@given(primary_pair())
def test_anti_derivative_roots_equal_checked_surds_on_drawn_generators(pair):
    # The drawn triple and both its derivatives, so each kind meets a square discriminant.
    t = triple_from_primary(Fraction(*pair))
    _assert_roots_equal_checked_surds(t)
    assert all(_assert_roots_equal_checked_surds(derivative(t, kind)) for kind in DerivativeKind)


def test_misses_never_read_the_generator_pair(monkeypatch):
    # is_derivative decides a miss from the sides alone and reads the generator pair
    # only when the discriminant is a square.  A preimage's hypotenuse is below its
    # image's, so mapping every triple forward finds every hit.
    triples = list(iter_by_hypotenuse(10**4))
    images = {kind: {derivative(s, kind) for s in triples} for kind in DerivativeKind}

    def spy(t):
        raise AssertionError(f"generator pair read for {t}")

    monkeypatch.setattr(symphonic, "_generator_pair", spy)
    hits = 0
    for t in triples:
        for kind in DerivativeKind:
            if t in images[kind]:
                hits += 1
                with pytest.raises(AssertionError, match="generator pair read"):
                    is_derivative(t, kind)
            else:
                assert is_derivative(t, kind) is None
    assert 0 < hits < len(triples)


def test_square_screen_marks_exactly_the_non_squares():
    # Recomputed naively: r is marked when no x over a whole period 0..M-1 squares to it mod M.
    modulus = len(symphonic._NOT_SQUARE_MOD)
    squares = {x * x % modulus for x in range(modulus)}
    assert symphonic._NOT_SQUARE_MOD == tuple(r not in squares for r in range(modulus))


def test_square_screen_spares_most_misses_their_isqrt(monkeypatch, by_hypotenuse):
    # A positive discriminant c -+ 3b reaches isqrt only when its residue passes the screen: every hit's, and
    # at most a tenth of the misses'.  Some misses do pass it without being squares; the preimage-route oracle
    # tests below meet them.
    isqrt, roots = math.isqrt, []
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    hits = misses = reached = 0
    for t in by_hypotenuse:
        for kind, disc in (DerivativeKind.MAJOR, t.c - 3 * t.b), (DerivativeKind.MINOR, t.c + 3 * t.b):
            roots.clear()
            if is_derivative(t, kind) is None:
                misses += disc > 0
                reached += disc in roots
            else:
                hits += 1
                assert disc in roots
    assert hits > 0 and 0 < reached <= misses // 10


def test_a_hit_takes_one_root(monkeypatch, big_triples):
    # is_derivative passes the root of a hit's discriminant on, so a derivative of either kind, which keeps its
    # generator pair, costs one isqrt in all: the one of its discriminant.
    isqrt, roots = math.isqrt, []
    monkeypatch.setattr(math, "isqrt", lambda n: roots.append(n) or isqrt(n))
    for t in big_triples:
        for kind, sign in (DerivativeKind.MAJOR, 1), (DerivativeKind.MINOR, -1):
            d = derivative(t, kind)
            roots.clear()
            assert is_derivative(d, kind) == t
            assert roots == [d.c - sign * 3 * d.b]


def _square_root_or_none(disc: int) -> int | None:
    # isqrt and compare: the oracle for _discriminant's m.
    m = math.isqrt(disc) if disc >= 0 else None
    return m if m is not None and m * m == disc else None


def anti_derivative_by_preimage(t: PPT, kind: DerivativeKind) -> AntiDerivative:
    """The discriminant c -+ 3b and its root, then the preimage from the generator pair, then the
    roots, each a step of its own; the oracle for anti_derivative()."""
    sign = 1 if kind is DerivativeKind.MAJOR else -1
    disc = t.c - sign * 3 * t.b
    m = _square_root_or_none(disc)
    q, p = _generator_pair(t)
    u, hyp = p + sign * q, p - sign * q
    if m is None:
        roots, integral = (_proven(QuadraticSurd, u, disc, 2, 1), _proven(QuadraticSurd, u, disc, 2, -1)), None
    else:
        x, y = (u + m) // 2, abs(u - m) // 2
        integral = _proven(PPT, x, y, hyp) if x % 2 else _proven(PPT, y, x, hyp)
        roots = (_proven(QuadraticSurd, (u + m) // 2, 0, 1, 1), _proven(QuadraticSurd, (u - m) // 2, 0, 1, 1))
    return AntiDerivative(kind, roots, hyp, integral)


def _assert_anti_derivatives_match_preimage_route(t: PPT) -> int:
    # Field for field, with the same types, repr and hash; returns the number of integral preimages.
    hits = 0
    for kind in DerivativeKind:
        got, want = anti_derivative(t, kind), anti_derivative_by_preimage(t, kind)
        assert type(got) is AntiDerivative
        for name in AntiDerivative.__match_args__:
            assert getattr(got, name) == getattr(want, name)
            assert type(getattr(got, name)) is type(getattr(want, name))
        assert [type(root) for root in got.roots] == [type(root) for root in want.roots] == [QuadraticSurd] * 2
        assert repr(got) == repr(want) and hash(got) == hash(want)
        assert is_derivative(t, kind) == got.integral
        hits += got.integral is not None
    return hits


def test_anti_derivative_matches_the_preimage_route_by_hypotenuse(by_hypotenuse):
    assert sum(map(_assert_anti_derivatives_match_preimage_route, by_hypotenuse)) > 0


def test_anti_derivative_matches_the_preimage_route_on_big_triples(big_triples):
    for t in big_triples:
        _assert_anti_derivatives_match_preimage_route(t)
        assert all(_assert_anti_derivatives_match_preimage_route(derivative(t, kind)) for kind in DerivativeKind)


@given(primary_pair())
def test_anti_derivative_matches_the_preimage_route_on_drawn_generators(pair):
    # The drawn triple and both its derivatives, so each kind meets a square discriminant.
    t = triple_from_primary(Fraction(*pair))
    _assert_anti_derivatives_match_preimage_route(t)
    assert all(_assert_anti_derivatives_match_preimage_route(derivative(t, kind)) for kind in DerivativeKind)


@st.composite
def coprime_pair(draw):
    # Coprime q and p > 0, small or up to 2^20000; q of either sign and either side of p.
    bound = draw(st.sampled_from((1000, 2**20000)))
    p = draw(st.integers(1, bound))
    q = draw(st.integers(-bound, bound))
    assume(math.gcd(q, p) == 1)
    return q, p


@given(coprime_pair())
def test_proven_fraction_is_the_reduced_fraction(same_fraction, pair):
    same_fraction(_proven_fraction(*pair), Fraction(*pair))


def test_proven_fraction_takes_the_interpreter_branch():
    # 3.12 added a private constructor for coprime pairs; before it a Fraction is two slots.
    if sys.version_info >= (3, 12):
        assert _proven_fraction == Fraction._from_coprime_ints
    else:
        assert not hasattr(Fraction, "_from_coprime_ints")
        assert Fraction.__slots__ == ("_numerator", "_denominator")
        assert _proven_fraction.__module__ == "pptalgebra.triple_core"


def test_generators_are_proven_fractions(same_fraction, big_triples):
    for t in list(iter_by_hypotenuse(10**4)) + big_triples:
        a, b, c = t.sides()
        for got, want in zip(generators_of(t), (Fraction(b, c + a), Fraction(a, c + b))):
            same_fraction(got, want)
        k = key_sequence_of(t)
        same_fraction(k.primary, Fraction(k.q1, k.p1))
        same_fraction(k.secondary, Fraction(k.q2, k.p2))
        for kind in DerivativeKind:
            for got, want in zip(corollary_generators(t, kind), corollary_formula(t, kind)):
                same_fraction(got, want)


def test_key_sequence_generators_hold_plain_ints(same_fraction):
    # A key of bool entries passes the checks; its generators hold plain ints, as Fraction's would.
    k = KeySequence(True, True, 2, 3)
    same_fraction(k.primary, Fraction(1, 2))
    same_fraction(k.secondary, Fraction(1, 3))


def test_proven_records_equal_checked_ones(big_triples):
    built = [
        _proven(PathCode, ()),
        _proven(PathCode, (("A", 2), ("C", 3))),
        _proven(PathCode, (("B", 10**5000),)),
        _proven(QuadraticSurd, 5, -7, 2, -1),
        _proven(QuadraticSurd, 4, 0, 1, 1),
    ]
    for t in list(iter_by_hypotenuse(2000)) + big_triples:
        code = locate(generators_of(t)[0])
        built += [code, code + code, code * 3, *anti_derivative(t, DerivativeKind.MAJOR).roots]
        built += anti_derivative(derivative(t, DerivativeKind.MINOR), DerivativeKind.MINOR).roots
    for record in built:
        assert type(record) in (PathCode, QuadraticSurd)
        _assert_same_as_checked(record)


def derive_generator_by_triple(f: Fraction, kind: DerivativeKind) -> Fraction:
    """The route through the member triple and an isqrt of it; the oracle for derive_generator()."""
    return corollary_generators(triple_from_primary(f), kind)[0]


@given(primary_pair())
def test_derive_generator_takes_the_triple_route_on_drawn_generators(same_fraction, pair):
    for kind in DerivativeKind:
        same_fraction(derive_generator(Fraction(*pair), kind), derive_generator_by_triple(Fraction(*pair), kind))


def test_derive_generator_takes_the_triple_route_on_fermat_generators(same_fraction):
    for n in list(range(1, 40)) + [100, 1000, 10**4]:
        f = family_generator(Family(FamilyLine.FERMAT, n))
        for kind in DerivativeKind:
            same_fraction(derive_generator(f, kind), derive_generator_by_triple(f, kind))


def _error(call, *args) -> tuple[type, str]:
    with pytest.raises((TypeError, ValueError)) as caught:
        call(*args)
    return caught.type, str(caught.value)


def test_derive_generator_errors_match_the_triple_route():
    bad = [
        Fraction(1, 3), Fraction(3, 2), Fraction(0), Fraction(-1, 2), Fraction(1, 10**5000 + 1),
        Fraction(10**5000 + 1, 10**5000), 0.5, "1/2", None,
    ]
    for f in bad:
        for kind in DerivativeKind:
            assert _error(derive_generator, f, kind) == _error(derive_generator_by_triple, f, kind)


def squares_by_gcd(t: PPT) -> tuple:
    """inscribed_squares, reciprocal_triple, integer_square_scale and altitude_kappa as Fraction's gcd and
    math.lcm reduce them; the oracle for their closed forms in lowest terms."""
    a, b, c = t.sides()
    h, s = Fraction(a * b, a + b), Fraction(a * b * c, a * b + c * c)
    lam = math.lcm(h.denominator, s.denominator)
    scale = IntegerSquareScale(lam, (lam * a, lam * b, lam * c), int(lam * h), int(lam * s))
    return SquarePair(h, s), (1 / h, Fraction(1, c), 1 / s), scale, Fraction(a * b, c)


def _values(squares: SquarePair, reciprocals: tuple, scale: IntegerSquareScale, kappa: Fraction) -> list:
    return [squares.h, squares.s, *reciprocals, scale.scale, *scale.scaled, scale.h, scale.s, kappa]


def _terms(x) -> tuple:
    # The type of an int or a Fraction, and its terms with their types: its ==, hash, repr and str follow from these.
    n, d = x.as_integer_ratio()
    return type(x), type(n), type(d), n, d


def _seen(x) -> tuple:
    # All a caller sees of an int or a Fraction.
    return *_terms(x), x, hash(x), repr(x), str(x)


def _assert_squares_match_the_gcd_route(t: PPT, seen=_seen) -> None:
    got = inscribed_squares(t), reciprocal_triple(t), integer_square_scale(t), altitude_kappa(t)
    assert list(map(seen, _values(*got))) == list(map(seen, _values(*squares_by_gcd(t))))
    assert all(type(f) is Fraction for f in (got[0].h, got[0].s, *got[1], got[3]))
    # key_sequence_of and radii build their records unchecked; the checked constructors accept the same fields.
    key = key_sequence_of(t)
    r = radii(key)
    assert key == KeySequence(key.q2, key.q1, key.p1, key.p2) and r == Radii(r.r1, r.r2, r.r3, r.r4)
    for kind in DerivativeKind:
        if is_derivative(t, kind) is not None:
            for root in anti_derivative(t, kind).roots:
                assert seen(root.as_fraction()) == seen(Fraction(root.u, root.v))
                assert str(root) == str(Fraction(root.u, root.v))


def test_squares_match_the_gcd_route_by_hypotenuse(by_hypotenuse):
    for t in by_hypotenuse:
        _assert_squares_match_the_gcd_route(t, _terms)


def test_squares_match_the_gcd_route_on_big_triples(big_triples):
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        for t in big_triples:
            _assert_squares_match_the_gcd_route(t)
            key = key_sequence_of(t)
            _assert_same_as_checked(key)
            _assert_same_as_checked(radii(key))
    finally:
        sys.set_int_max_str_digits(limit)


def test_rational_surds_give_the_reduced_fraction(same_fraction):
    for surd in QuadraticSurd(1, 49, 2, -1), QuadraticSurd(6, 0, -4), QuadraticSurd(0, 0, 5), QuadraticSurd(7, 9, 1):
        same_fraction(surd.as_fraction(), Fraction(surd.u, surd.v))
        assert str(surd) == str(Fraction(surd.u, surd.v))


def test_squares_of_int_subclass_sides_hold_plain_ints():
    # PPT accepts sides of an int subclass; the closed forms then hold plain ints, as the gcd route's Fractions do.
    class Side(int):
        pass

    t = PPT(Side(3), Side(4), Side(5))
    got = inscribed_squares(t), reciprocal_triple(t), integer_square_scale(t), altitude_kappa(t)
    assert list(map(_seen, _values(*got))) == list(map(_seen, _values(*squares_by_gcd(t))))


@given(primary_pair())
def test_squares_satisfy_the_reciprocal_identity_on_drawn_generators(pair):
    t = triple_from_primary(Fraction(*pair))
    a, b, c = t.sides()
    sq, scale = inscribed_squares(t), integer_square_scale(t)
    assert 1 / Fraction(c * c) + 1 / sq.h**2 == 1 / sq.s**2
    assert tuple(x * a * b * c for x in reciprocal_triple(t)) == major_derivative(t).sides()
    assert (scale.h, scale.s) == (scale.scale * sq.h, scale.scale * sq.s)
    assert scale.scaled == tuple(scale.scale * side for side in (a, b, c))
