"""The eleven value classes against the dataclasses they replace.

Each oracle below is the class as it was declared with `dataclasses`, with its
validation unchanged; the records must construct, print, compare, hash and
refuse mutation exactly as these do.  The oracles carry the public class names,
so that repr text and TypeError messages can be compared byte for byte.
"""

from __future__ import annotations

import copy
import copyreg
import math
import pickle
import pickletools
import random
import sys
from dataclasses import FrozenInstanceError, dataclass, fields
from fractions import Fraction

import pytest

import pptalgebra as pa
from pptalgebra.symphonic import _SURD_SCAN_CAP
from pptalgebra.triple_core import _proven, _shown


@dataclass(frozen=True, order=True)
class PPT:
    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        for side in (self.a, self.b, self.c):
            if not isinstance(side, int) or side <= 0:
                raise pa.TripleError(f"sides must be positive integers, got {_shown(side, 'integer', repr)}")
        sides = (self.a, self.b, self.c)
        if self.a * self.a + self.b * self.b != self.c * self.c:
            a, b, c = (_shown(side, "integer") for side in sides)
            raise pa.NotATriple(f"{a}^2 + {b}^2 != {c}^2")
        if math.gcd(self.a, self.b) != 1:
            a, b, _ = (_shown(side, "integer") for side in sides)
            raise pa.NotPrimitive(f"legs {a}, {b} share a common factor")
        if self.a % 2 == 0 or self.b % 2 == 1:
            a, b, _ = (_shown(side, "integer") for side in sides)
            raise pa.InvalidParity(f"expected odd leg, even leg; got ({a}, {b})")


@dataclass(frozen=True)
class DivisibilityWitness:
    four_divides_b: bool
    three_divides: str
    five_divides: str


@dataclass(frozen=True)
class KeySequence:
    q2: int
    q1: int
    p1: int
    p2: int

    def __post_init__(self) -> None:
        entries = (self.q2, self.q1, self.p1, self.p2)
        for v in entries:
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"key sequence entries must be positive integers, got {_shown(v, 'integer', repr)}")
        if self.q2 + self.q1 != self.p1 or self.q1 + self.p1 != self.p2:
            problem = "{} violates the Fibonacci rule"
        elif self.q2 % 2 == 0:
            problem = "first entry of {} must be odd"
        elif math.gcd(self.q1, self.q2) != 1:
            problem = "first two entries of {} must be coprime"
        else:
            return
        raise ValueError(problem.format(f"[{','.join(_shown(v, 'integer') for v in entries)}]"))


@dataclass(frozen=True)
class Radii:
    r1: int
    r2: int
    r3: int
    r4: int

    def __post_init__(self) -> None:
        if self.r1 + self.r2 + self.r3 != self.r4 or self.r1 * self.r4 != self.r2 * self.r3:
            shown = ", ".join(_shown(r, "integer") for r in (self.r1, self.r2, self.r3, self.r4))
            raise ValueError(f"({shown}) violates the radius identities")


@dataclass(frozen=True)
class SquarePair:
    h: Fraction
    s: Fraction


@dataclass(frozen=True)
class QuadraticSurd:
    u: int
    d: int
    v: int
    sign: int = 1

    def __post_init__(self) -> None:
        u, d, v, sign = self.u, self.d, self.v, self.sign
        if sign not in (1, -1):
            raise ValueError(f"sign must be +1 or -1, got {_shown(sign, 'integer')}")
        if v == 0:
            raise ValueError("zero denominator")
        if v < 0:
            u, v = -u, -v
        root = math.isqrt(abs(d))
        if root * root == d:
            u += sign * root
            d, sign = 0, 1
        if d == 0:
            g = math.gcd(u, v)
        else:
            g = 1
            top = min(math.gcd(u, v, d), root)
            for cand in range(top, max(top - _SURD_SCAN_CAP, 1), -1):
                if u % cand == 0 and v % cand == 0 and d % (cand * cand) == 0:
                    g = cand
                    break
            else:
                if top - 1 > _SURD_SCAN_CAP:
                    raise ValueError(
                        f"the common-factor scan would try more than its cap of {_SURD_SCAN_CAP} candidates"
                    )
        object.__setattr__(self, "u", u // g)
        object.__setattr__(self, "d", d // (g * g))
        object.__setattr__(self, "v", v // g)
        object.__setattr__(self, "sign", sign)


@dataclass(frozen=True)
class AntiDerivative:
    kind: pa.DerivativeKind
    roots: tuple[pa.QuadraticSurd, pa.QuadraticSurd]
    hypotenuse: int
    integral: pa.PPT | None


@dataclass(frozen=True)
class IntegerSquareScale:
    scale: int
    scaled: tuple[int, int, int]
    h: int
    s: int


@dataclass(frozen=True)
class PathCode:
    runs: tuple[tuple[str, int], ...] = ()

    def __post_init__(self) -> None:
        merged: list[tuple[str, int]] = []
        for letter, count in self.runs:
            if letter not in ("A", "B", "C"):
                raise ValueError(f"path letter must be A, B or C, got {_shown(letter, 'integer', repr)}")
            if not isinstance(count, int):
                raise TypeError(f"run length must be an integer, got {_shown(count, 'integer', repr)} for {letter}")
            if count < 0:
                raise ValueError(f"negative run length {_shown(count, 'integer')} for {letter}")
            if count == 0:
                continue
            if merged and merged[-1][0] == letter:
                merged[-1] = (letter, merged[-1][1] + count)
            else:
                merged.append((letter, count))
        object.__setattr__(self, "runs", tuple(merged))


@dataclass(frozen=True)
class PellPair:
    index: int
    p: int
    q: int


@dataclass(frozen=True)
class Family:
    line: pa.FamilyLine
    index: int

    def __post_init__(self) -> None:
        if not isinstance(self.line, pa.FamilyLine):
            raise TypeError(f"expected a FamilyLine, got {_shown(self.line, 'integer', repr)}")
        if self.index < 1:
            raise ValueError(f"family index must be positive, got {_shown(self.index, 'integer')}")


ORACLES = {
    cls: getattr(pa, cls.__name__)
    for cls in (
        PPT, DivisibilityWitness, KeySequence, Radii, SquarePair, QuadraticSurd,
        AntiDerivative, IntegerSquareScale, PathCode, PellPair, Family,
    )
}

_BIG = 10**5000  # past the int-to-str limit: errors name it by size
_G = 10**12 + 39  # a common factor the surd scan refuses to search for
_SURDS = (pa.QuadraticSurd(5, -7, 2), pa.QuadraticSurd(5, -7, 2, -1))

# Arguments per class, valid ones first; the rest raise in the oracle.
CASES = {
    PPT: [
        (3, 4, 5), (5, 12, 13), (15, 8, 17), (4565486027761, 1061652293520, 4687298610289),
        (4, 3, 5), (6, 8, 10), (3, 4, 6), (0, 4, 5), (-3, 4, 5), (3.0, 4, 5), ("3", 4, 5), (True, 4, 5),
        (_BIG + 1, 2, 3), (3, 2 * _BIG, 5), (3 * _BIG, 4 * _BIG, 5 * _BIG), (2 * _BIG + 2, 3, 5),
    ],
    DivisibilityWitness: [(True, "a", "c"), (True, "b", "a")],
    KeySequence: [
        (1, 1, 2, 3), (1, 2, 3, 5), (3, 2, 5, 7),
        (2, 1, 3, 4), (1, 2, 4, 6), (3, 6, 9, 15), (0, 1, 1, 2), (1.0, 1, 2, 3), (_BIG + 1, 1, 2, 3),
        (_BIG, _BIG, 2 * _BIG, 3 * _BIG),
    ],
    Radii: [(1, 2, 3, 6), (2, 3, 10, 15), (1, 2, 3, 7), (_BIG, 2, 3, 4)],
    SquarePair: [(Fraction(12, 7), Fraction(60, 37)), (Fraction(1), Fraction(1, 2))],
    QuadraticSurd: [
        (3, 8, 2), (3, 8, 2, -1), (1, 4, 2), (4, 8, -2), (6, 72, 4), (5, -7, 2), (_G, 5 * _G * _G, 2 * _G),
        (1, 2, 0), (1, 2, 3, 5), (1, 2, 3, 0), (1, 2, 3, _BIG), (_G, _G * (10**40 + 7), 2 * _G),
    ],
    AntiDerivative: [
        (pa.DerivativeKind.MAJOR, _SURDS, 7, None),
        (pa.DerivativeKind.MINOR, (pa.QuadraticSurd(4, 0, 1), pa.QuadraticSurd(-3, 0, 1)), 5, pa.PPT(3, 4, 5)),
    ],
    IntegerSquareScale: [(37, (111, 148, 185), 84, 60), (1, (3, 4, 5), 2, 1)],
    PathCode: [
        (), ((("A", 2), ("C", 3)),), ((("A", 1), ("A", 2), ("B", 0), ("A", 1)),), ((("B", _BIG),),),
        ((("D", 1),),), ((("A", -1),),), ((("A", 1.5),),), ((("A", Fraction(_BIG, 3)),),), ((("A", -_BIG),),),
        (((1, 1),),),
    ],
    PellPair: [(1, 1, 1), (3, 5, 7), (40, 10**15, 10**15 + 1)],
    Family: [
        (pa.FamilyLine.FERMAT, 3), (pa.FamilyLine.PLATONIC, 1), (pa.FamilyLine.PLATONIC, 0),
        (pa.FamilyLine.PYTHAGOREAN, -_BIG), ("fermat", 3), (None, 0), (_BIG, 1),
    ],
}


def _build(cls, *args, **kwargs):
    # (instance, None) or (None, (exception class, message)).
    try:
        return cls(*args, **kwargs), None
    except (TypeError, ValueError) as exc:
        return None, (type(exc), str(exc))


def _repr(record) -> str | None:
    # repr, or None where it raises: the dataclass repr cannot print a field past the int-to-str limit.
    try:
        return repr(record)
    except ValueError:
        return None


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in type(record).__match_args__)


def _pairs():
    # (oracle, record) instance pairs for every valid case.
    for oracle, cls in ORACLES.items():
        for args in CASES[oracle]:
            old, _ = _build(oracle, *args)
            if old is not None:
                yield old, cls(*args)


def test_every_class_has_an_oracle_and_valid_cases():
    assert all(cls is not oracle and cls.__qualname__ == oracle.__qualname__ for oracle, cls in ORACLES.items())
    valid = {type(old) for old, _ in _pairs()}
    assert valid == set(ORACLES)


@pytest.mark.parametrize("oracle", list(ORACLES), ids=lambda cls: cls.__name__)
def test_construction_and_validation_errors_match(oracle):
    cls = ORACLES[oracle]
    for args in CASES[oracle]:
        old, old_error = _build(oracle, *args)
        new, new_error = _build(cls, *args)
        assert new_error == old_error, args
        if old is not None:
            assert type(new) is cls
            assert _values(new) == _values(old)
            assert [type(v) for v in _values(new)] == [type(v) for v in _values(old)]


@pytest.mark.parametrize("oracle", list(ORACLES), ids=lambda cls: cls.__name__)
def test_keywords_defaults_and_argument_errors_match(oracle):
    cls = ORACLES[oracle]
    names = [f.name for f in fields(oracle)]
    assert cls.__match_args__ == oracle.__match_args__ == tuple(names)
    old, new = next((old, new) for old, new in _pairs() if type(old) is oracle)
    values = _values(old)
    by_name = dict(zip(names, values))
    assert _values(cls(**by_name)) == _values(oracle(**by_name))
    calls = [
        ((), {}),
        (values[:-1], {}),
        (values + (1, 1), {}),
        (values, {"extra": 1}),
        (values, {names[0]: values[0]}),
        ((), {**by_name, "extra": 1}),
    ]
    for args, kwargs in calls:
        old_result, new_result = _build(oracle, *args, **kwargs), _build(cls, *args, **kwargs)
        if old_result[0] is None:
            assert new_result == old_result, (args, kwargs)
        else:
            assert _values(new_result[0]) == _values(old_result[0])


def test_defaults_match():
    assert _values(pa.QuadraticSurd(3, 8, 2)) == _values(QuadraticSurd(3, 8, 2)) == (3, 8, 2, 1)
    assert _values(pa.PathCode()) == _values(PathCode()) == ((),)
    assert pa.PathCode(runs=(("A", 1),)) == pa.PathCode((("A", 1),))


def test_repr_names_ints_past_the_digit_limit_by_size():
    # The dataclass repr raised the interpreter's digit-limit ValueError on these four.
    assert repr(pa.pell(20000)) == "PellPair(index=20000, p=a 25430-bit integer, q=a 25431-bit integer)"
    assert repr(pa.PathCode((("B", _BIG),))) == "PathCode(runs=(('B', a 16610-bit integer),))"
    big = pa.triple_from_primary(pa.apply_path(pa.ROOT_GENERATOR, pa.PathCode.parse("B^7000")))
    assert repr(big) == "PPT(a=a 17804-bit integer, b=a 17804-bit integer, c=a 17805-bit integer)"
    assert repr(pa.inscribed_squares(big)) == "SquarePair(h=a 35608-bit fraction, s=a 53412-bit fraction)"


def test_repr_hash_and_equality_match():
    pairs = list(_pairs())
    for old, new in pairs:
        old_repr = _repr(old)
        assert repr(new) == old_repr or old_repr is None
        assert hash(new) == hash(old) == hash(_values(new))
        twin = type(new)(*_values(old))
        assert new == twin and not new != twin
        assert hash(new) == hash(twin)
    # One-field records hash as a one-tuple, as a dataclass does.
    code = pa.PathCode((("C", 3),))
    assert hash(code) == hash(((("C", 3),),))
    # Equal fields in another class are never equal: both sides return NotImplemented.
    for (old_x, x), (old_y, y) in zip(pairs, pairs[1:] + pairs[:1]):
        same_class = type(x) is type(y)
        assert (x == y) == (old_x == old_y)
        assert (x != y) == (old_x != old_y)
        if not same_class:
            assert x.__eq__(y) is NotImplemented and old_x.__eq__(old_y) is NotImplemented
    assert pa.PellPair(1, 1, 1) != pa.KeySequence(1, 1, 2, 3)
    assert pa.PellPair(1, 1, 1) != (1, 1, 1)
    assert pa.PPT(3, 4, 5) != PPT(3, 4, 5)


def test_ppt_ordering_matches():
    rng = random.Random(11)
    sides = [t.sides() for t in pa.iter_by_hypotenuse(500)] + [(3, 4, 5)] * 3
    rng.shuffle(sides)
    olds, news = [PPT(*s) for s in sides], [pa.PPT(*s) for s in sides]
    assert [_values(t) for t in sorted(news)] == [_values(t) for t in sorted(olds)]
    assert [_values(t) for t in sorted(news, reverse=True)] == [_values(t) for t in sorted(olds, reverse=True)]
    for (x, old_x), (y, old_y) in zip(zip(news, olds), zip(news[1:], olds[1:])):
        assert (x < y, x <= y, x > y, x >= y) == (old_x < old_y, old_x <= old_y, old_x > old_y, old_x >= old_y)
    assert max(news) == pa.PPT(*max(sides)) and min(news) == pa.PPT(*min(sides))
    # Across classes the orderings return NotImplemented, so Python raises the same TypeError.
    t, old_t = pa.PPT(3, 4, 5), PPT(3, 4, 5)
    for other in (pa.KeySequence(1, 1, 2, 3), (3, 4, 5), 1):
        for op in ("__lt__", "__le__", "__gt__", "__ge__"):
            assert getattr(t, op)(other) is NotImplemented
        with pytest.raises(TypeError) as new_error:
            t < other
        with pytest.raises(TypeError) as old_error:
            old_t < other
        assert str(new_error.value) == str(old_error.value)
    # Only PPT is ordered.
    with pytest.raises(TypeError, match="'<' not supported between instances of 'PellPair' and 'PellPair'"):
        pa.PellPair(1, 1, 1) < pa.PellPair(2, 2, 3)


def test_mutation_raises_frozen_instance_error():
    for old, new in _pairs():
        for name in (*new.__match_args__, "other"):
            with pytest.raises(FrozenInstanceError) as new_error:
                setattr(new, name, 1)
            with pytest.raises(FrozenInstanceError) as old_error:
                setattr(old, name, 1)
            assert str(new_error.value) == str(old_error.value)
        name = new.__match_args__[0]
        with pytest.raises(FrozenInstanceError) as new_error:
            delattr(new, name)
        with pytest.raises(FrozenInstanceError) as old_error:
            delattr(old, name)
        assert str(new_error.value) == str(old_error.value) == f"cannot delete field {name!r}"
        assert _values(new) == _values(old)


def test_copy_pickle_and_match():
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # protocols 0 and 1 write an int in decimal
    try:
        pairs = [(old, new, [pickle.loads(pickle.dumps(new, n)) for n in protocols]) for old, new in _pairs()]
    finally:
        sys.set_int_max_str_digits(limit)
    for old, new, pickled in pairs:
        for twin in [copy.copy(new), copy.deepcopy(new), *pickled]:
            assert type(twin) is type(new) and twin == new and _values(twin) == _values(new)
            # A twin is as frozen as the original, with the dataclass's messages.
            for name in (*new.__match_args__, "other"):
                with pytest.raises(FrozenInstanceError) as new_error:
                    setattr(twin, name, 1)
                with pytest.raises(FrozenInstanceError) as old_error:
                    setattr(old, name, 1)
                assert str(new_error.value) == str(old_error.value)
            with pytest.raises(FrozenInstanceError, match=f"cannot delete field {new.__match_args__[0]!r}"):
                delattr(twin, new.__match_args__[0])
            assert _values(twin) == _values(new)
    match pa.PPT(5, 12, 13):
        case pa.PPT(a, b, c=c):
            assert (a, b, c) == (5, 12, 13)
    match pa.PathCode((("B", 2),)):
        case pa.PathCode(runs):
            assert runs == (("B", 2),)


class _UnslottedPickle:
    """Pickles as a record did before records had slots: the class, then its instance dict as state."""

    def __init__(self, cls: type, **fields: object) -> None:
        self.cls, self.fields = cls, fields

    @property
    def __class__(self) -> type:  # the pickler requires __newobj__'s class to be the object's
        return self.cls

    def __reduce_ex__(self, protocol: int):
        return copyreg.__newobj__, (self.cls,), self.fields


def _opcodes(stream: bytes) -> set[str]:
    return {op.name for op, _, _ in pickletools.genops(stream)}


def test_records_pickled_before_slots_still_load():
    h, s = Fraction(60, 17), Fraction(780, 229)
    for record, shim in (
        (pa.PPT(3, 4, 5), _UnslottedPickle(pa.PPT, a=3, b=4, c=5)),
        (pa.SquarePair(h, s), _UnslottedPickle(pa.SquarePair, h=h, s=s)),
    ):
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            stream = pickle.dumps(shim, protocol)
            assert "BUILD" in _opcodes(stream)  # the dict state goes through __setstate__
            loaded = pickle.loads(stream)
            assert type(loaded) is type(record) and loaded == record and hash(loaded) == hash(record)
            assert _values(loaded) == _values(record) and repr(loaded) == repr(record)
            assert not hasattr(loaded, "__dict__")
            with pytest.raises(FrozenInstanceError):
                setattr(loaded, type(record).__match_args__[0], 1)
            # A new pickle still rebuilds through _proven, with no state to set.
            assert record.__reduce_ex__(protocol) == (_proven, (type(record), *_values(record)))
            assert "BUILD" not in _opcodes(pickle.dumps(record, protocol))


def test_slotted_layout():
    # Every record is slotted: no instance dict and one slot per field in declaration order, and PPT has one private
    # slot after its fields for the generator pair its constructor keeps.  So a triple built by _proven or by the
    # tree's slot stores on its layout twin is the size of one built by the checked constructor, with a kept pair
    # (5, 12, 13) or without one (3, 4, 5, whose legs differ by 1).
    for _, new in _pairs():
        assert not hasattr(new, "__dict__")
        private = ("_pair",) if type(new) is pa.PPT else ()
        assert type(new).__slots__ == type(new).__match_args__ + private
    checked, kept = pa.PPT(3, 4, 5), pa.PPT(5, 12, 13)
    proven, built = pa.triple_from_primary(Fraction(1, 2)), pa.children(checked)[0]
    assert kept._pair == (2, 3) and not hasattr(checked, "_pair")
    assert {sys.getsizeof(t) for t in (checked, kept, proven, built)} == {sys.getsizeof(checked)}
    with pytest.raises(TypeError):
        vars(checked)
