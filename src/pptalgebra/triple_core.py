"""Primitive Pythagorean triples: validation, canonical orientation, divisibility classes."""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction

from ._bigint import ROOT_FROM_BITS, root_cofactor

__all__ = [
    "PPT", "DivisibilityWitness", "InvalidParity", "NotATriple", "NotPrimitive",
    "TClass", "TripleError", "altitude_kappa", "classify", "divisibility_witness",
    "make_ppt",
]


class TripleError(ValueError):
    """Base class for invalid primitive-triple input."""


class NotATriple(TripleError):
    """The squares of the two smaller values do not sum to the square of the largest."""


class NotPrimitive(TripleError):
    """The sides share a common factor."""


class InvalidParity(TripleError):
    """The legs are not one odd, one even."""


def _shown(x: object, noun: str, form=str, parts: tuple[int, ...] | None = None) -> str:
    # form(x) for an error message, or x by size past the interpreter's int-to-str digit
    # limit; x is then an int or a Fraction, or made of the ints in parts.
    try:
        return form(x)
    except ValueError:
        parts = parts or (x.numerator, x.denominator)
        return f"a {max(abs(n) for n in parts).bit_length()}-bit {noun}"


_setattr = object.__setattr__


def _assign(record: object, *values: object) -> None:
    # Set the fields, in declaration order, through their slots past the frozen __setattr__.
    for name, value in zip(record.__match_args__, values):
        _setattr(record, name, value)


def _frozen(record: object, name: str, *value: object):
    from dataclasses import FrozenInstanceError  # imported here only: it is slow to import
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def _field_repr(value: object) -> str:
    # repr of a record field, an int or Fraction past the int-to-str digit limit named by its size, in tuples too.
    if isinstance(value, tuple):
        return f"({', '.join(map(_field_repr, value))}{',' if len(value) == 1 else ''})"
    noun = "integer" if isinstance(value, int) else "fraction" if isinstance(value, Fraction) else None
    return _shown(value, noun, repr) if noun else repr(value)


def _compare(op, key):
    return lambda self, other: op(key(self), key(other)) if other.__class__ is self.__class__ else NotImplemented


def _record(cls: type | None = None, *, order: bool = False, private: tuple[str, ...] = ()):
    # dataclass(frozen=True, order=order, slots=True) without its import or compiled code.  repr, hash, == and the
    # orderings use the tuple of annotated fields; == takes a lone field bare, which compares the same.  copy and
    # pickle rebuild through _proven, past the frozen __setattr__; __setstate__ loads a pre-slots pickle's dict.
    # The private slots follow the fields and are none of these: a rebuilt record leaves them unset.
    if cls is None:
        return lambda cls: _record(cls, order=order, private=private)
    fields = tuple(cls.__annotations__)
    body = {name: value for name, value in vars(cls).items() if name not in ("__dict__", "__weakref__")}
    cls = type(cls)(cls.__name__, cls.__bases__, {**body, "__slots__": fields + private})
    get = operator.attrgetter(*fields)
    key = get if len(fields) > 1 else lambda record: (get(record),)
    cls.__reduce__ = lambda self: (_proven, (self.__class__, *key(self)))
    cls.__setstate__ = lambda self, state: _assign(self, *map(state.__getitem__, fields))
    template = "{}(" + ", ".join(f"{name}={{}}" for name in fields) + ")"
    cls.__repr__ = lambda self: template.format(self.__class__.__qualname__, *map(_field_repr, key(self)))
    cls.__hash__ = lambda self: hash(key(self))
    cls.__setattr__ = cls.__delattr__ = _frozen
    cls.__match_args__ = fields
    for op in ("eq", "lt", "le", "gt", "ge") if order else ("eq",):
        setattr(cls, f"__{op}__", _compare(getattr(operator, op), get))
    return cls


class TClass(Enum):
    """Divisibility class of a primitive triple.

    Rows select which side carries the factor 5 (c, a, or b); columns select
    which leg carries the factor 3 (a or b).  Every primitive triple lands in
    exactly one class.
    """

    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    T4 = "T4"
    T5 = "T5"
    T6 = "T6"

    def __str__(self) -> str:
        return self.value


@_record(order=True, private=("_pair",))
class PPT:
    """A primitive Pythagorean triple in canonical orientation.

    `a` is the odd leg, `b` the even leg, `c` the hypotenuse.  All three are
    positive, pairwise coprime, and satisfy a^2 + b^2 = c^2.  Instances are
    immutable; use `make_ppt` to build one from sides in arbitrary order.
    """

    a: int
    b: int
    c: int

    def __init__(self, a: int, b: int, c: int) -> None:
        _assign(self, a, b, c)
        for side in (a, b, c):
            if not isinstance(side, int) or side <= 0:
                raise TripleError(f"sides must be positive integers, got {_shown(side, 'integer', repr)}")
        # The check on the half-size generator pair, kept in _pair for generators._generator_pair: Euclid's
        # parametrization (a, b, c) = (P^2 - Q^2, 2PQ, P^2 + Q^2) with gcd(P, Q) = 1 and a odd, which gives every
        # PPT with a odd and only those.  It reads the pair by _root_pair, as _generator_pair does, then takes two
        # half-size squares (p * p, which CPython squares faster than 2p times p), a product and a half-size gcd,
        # where the sides' check takes two full products and a full gcd.  A wrong root only fails a check, so the
        # pair is proven by the checks alone; c <= a fails 2q^2 = c - a or 2pq = b > 0.
        # But gcd(a, b) ends after one short division when the legs' difference is short, as on the Pell line B^k
        # where it is 1: measured at 8k-262k bits, the pair check pays only once the difference has more than about
        # half the bits of c.  Shorter differences, and every input the pair check refuses, take the sides' check
        # below, whose errors are the ones raised.
        if a & 1 and 2 * (a - b).bit_length() > c.bit_length():
            s, d = c + a, c - a
            q, p = _root_pair(a, b, c)
            if 2 * (p * p) == s and 2 * (q * q) == d and 2 * p * q == b and math.gcd(p, q) == 1:
                _setattr(self, "_pair", (q, p))
                return
        if (c - a) * (c + a) != b * b:  # a^2 + b^2 = c^2 with two products, not three squares
            problem, error = "{}^2 + {}^2 != {}^2", NotATriple
        elif math.gcd(a, b) != 1:
            problem, error = "legs {}, {} share a common factor", NotPrimitive
        elif a % 2 == 0 or b % 2 == 1:
            problem, error = "expected odd leg, even leg; got ({}, {})", InvalidParity
        else:
            return
        raise error(problem.format(*(_shown(side, "integer") for side in (a, b, c))))

    def sides(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def __str__(self) -> str:
        return f"[{self.a}, {self.b}, {self.c}]"


@_record
class DivisibilityWitness:
    """Which sides carry the guaranteed factors 4, 3, and 5."""

    four_divides_b: bool
    three_divides: str  # "a" or "b"
    five_divides: str  # "a", "b", or "c"

    def __init__(self, four_divides_b: bool, three_divides: str, five_divides: str) -> None:
        _assign(self, four_divides_b, three_divides, five_divides)


def _root_pair(a: int, b: int, c: int) -> tuple[int, int]:
    # The (q, p) with c + a = 2p^2, c - a = 2q^2 and b = 2pq that a PPT has; for other positive sides, some pair of
    # ints.  Below ROOT_FROM_BITS bits of c, by an isqrt and the division of b by 2p.  From there on, by one
    # root_cofactor: p and q have opposite parity, so the half that is odd is the odd one's square, and b/2 = pq is
    # its multiple.  Both are below 2^bits, as p^2 < c.
    half = (c + a) >> 1
    if c.bit_length() < ROOT_FROM_BITS:
        p = math.isqrt(half)
        return b // (2 * p), p
    bits = (c.bit_length() + 1) // 2
    if half & 1:
        return root_cofactor(half, b >> 1, bits)[::-1]
    return root_cofactor((c - a) >> 1, b >> 1, bits)


def _proven(cls: type, *values: object):
    # A record without its constructor's checks, for field values a caller has proven valid.
    record = object.__new__(cls)
    _assign(record, *values)
    return record


class _OpenPPT(PPT):
    # A subclass of PPT that adds no slots, for a hot path: _OpenPPT() takes no arguments and makes an empty record,
    # the hot path stores proven sides on it by plain attribute stores, then sets its __class__ to PPT, which CPython
    # allows from a subclass that adds no slots to its base without comparing slot names.  __init__ is object's, so
    # the class call stays in C and runs no PPT.__init__.  Both attribute hooks are object's: CPython fills the one
    # setattr slot from __setattr__ and __delattr__ together, so restoring only __setattr__ would leave the frozen
    # __delattr__ there, and every store would take the generic slot dispatch, several times slower.
    __slots__ = ()
    __init__ = object.__init__
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__


def _proven_fraction(q: int, p: int) -> Fraction:
    # Fraction(q, p) without its gcd, for coprime q and p > 0; 3.12+ has _from_coprime_ints for this.
    f = object.__new__(Fraction)
    f._numerator, f._denominator = q, p  # before 3.12 a Fraction is these two slots
    return f


_proven_fraction = getattr(Fraction, "_from_coprime_ints", _proven_fraction)


def make_ppt(x: int, y: int, z: int) -> PPT:
    """Build a canonical PPT from three sides given in any leg order.

    The hypotenuse is recognized as the largest side; the legs are oriented
    odd-first, else smaller-first.  PPT then raises NotATriple, NotPrimitive,
    or InvalidParity when the input is not a primitive Pythagorean triple.
    """
    for side in (x, y, z):
        if not isinstance(side, int) or side <= 0:
            raise TripleError(f"sides must be positive integers, got {_shown(side, 'integer', repr)}")
    s, m, c = sorted((x, y, z))
    a, b = (m, s) if s % 2 == 0 and m % 2 else (s, m)
    return PPT(a, b, c)


def classify(t: PPT) -> TClass:
    """Assign the divisibility class: row by which side 5 divides, column by 3."""
    w = divisibility_witness(t)
    return list(TClass)[2 * "cab".index(w.five_divides) + "ab".index(w.three_divides)]


def divisibility_witness(t: PPT) -> DivisibilityWitness:
    """Report the guaranteed factors: 4 divides b, 3 divides exactly one leg,
    5 divides exactly one side."""
    three = [name for name, v in (("a", t.a), ("b", t.b)) if v % 3 == 0]
    five = [name for name, v in (("a", t.a), ("b", t.b), ("c", t.c)) if v % 5 == 0]
    if len(three) != 1 or len(five) != 1 or t.b % 4 != 0:
        raise AssertionError(f"divisibility pattern violated for {t}")
    return DivisibilityWitness(True, three[0], five[0])


def altitude_kappa(t: PPT) -> Fraction:
    """Altitude to the hypotenuse, a*b/c, in lowest terms."""
    return _proven_fraction(t.a * t.b, operator.index(t.c))  # c is prime to ab; index() gives Fraction's plain int
