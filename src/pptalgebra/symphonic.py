"""Inscribed-square identities and the major/minor derivative calculus on triples."""

from __future__ import annotations

import math
import operator
from enum import Enum
from fractions import Fraction
from numbers import Rational

from .triple_core import PPT, TClass, _assign, _proven, _proven_fraction, _record, _shown, classify
from .generators import _generator_pair, _generators, _primary_triple

__all__ = [
    "AntiDerivative", "DerivativeKind", "IntegerSquareScale", "QuadraticSurd",
    "SquarePair", "anti_derivative", "corollary_generators", "derivative",
    "factor_class_transition", "harmonic_sum", "inscribed_squares",
    "integer_square_scale", "is_derivative", "major_derivative",
    "minor_derivative", "reciprocal_triple", "trivial_reciprocal_solution",
]


class DerivativeKind(Enum):
    MAJOR = "major"
    MINOR = "minor"

    def __str__(self) -> str:
        return self.value


# Plain names read faster than DerivativeKind.MAJOR, on the sweep's path through is_derivative.
_MAJOR, _MINOR = DerivativeKind

# True at the residues mod 1155 = 3*5*7*11 that no square has (Cohen, GTM 138, 1.7.2): 92.3% of the 10^6 sweep's
# positive discriminants, which need no isqrt.  Mod 2^k none: each is 1 mod 8.  Mod 9 none beyond 3, as disc = c mod 3.
# A tuple of bools, as the interpreter indexes and tests those fastest.
_NOT_SQUARE_MOD = [True] * 1155
for _x in range(578):
    _NOT_SQUARE_MOD[_x * _x % 1155] = False
_NOT_SQUARE_MOD = tuple(_NOT_SQUARE_MOD)


@_record
class SquarePair:
    """Sides of the two inscribed squares of a right triangle: h against a leg
    corner, s against the hypotenuse.  Satisfies c > h > s and the reciprocal
    identity 1/c^2 + 1/h^2 = 1/s^2."""

    h: Fraction
    s: Fraction

    def __init__(self, h: Fraction, s: Fraction) -> None:
        _assign(self, h, s)


# Most candidates QuadraticSurd tries for the common factor of u, v and d, so
# that its time is not linear in their gcd.
_SURD_SCAN_CAP = 100_000


@_record
class QuadraticSurd:
    """Exact value (u + sign*sqrt(d))/v with integer u, d and positive v.

    Normalized at construction: a perfect-square radicand collapses to a plain
    rational (d = 0, sign = +1, u/v reduced), and a common factor g with
    g | u, g | v, g^2 | d is divided out.  The radicand may be negative.
    The search for g tries a capped number of candidates and raises
    ValueError when it would need more.
    """

    u: int
    d: int
    v: int
    sign: int

    def __init__(self, u: int, d: int, v: int, sign: int = 1) -> None:
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
            # g divides u, v and d, and g^2 <= |d|.
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
        _assign(self, u // g, d // (g * g), v // g, sign)

    @property
    def is_rational(self) -> bool:
        return self.d == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{_shown(self, 'surd', parts=(self.u, self.d, self.v))} is irrational")
        return _proven_fraction(self.u, self.v)  # a rational surd is stored reduced, with v > 0

    def __str__(self) -> str:
        if self.is_rational:
            return str(self.as_fraction())
        op = "+" if self.sign == 1 else "-"
        return f"({self.u} {op} sqrt({self.d}))/{self.v}"


@_record
class AntiDerivative:
    """Exact preimage of a triple under one derivative kind.

    The roots encode the preimage legs: for the major kind they are the legs
    themselves, for the minor kind they are (larger leg, -smaller leg).  When
    the preimage is a genuine primitive triple it appears in `integral`,
    otherwise the roots are irrational (or complex) surds.
    """

    kind: DerivativeKind
    roots: tuple[QuadraticSurd, QuadraticSurd]
    hypotenuse: int
    integral: PPT | None

    def __init__(
        self, kind: DerivativeKind, roots: tuple[QuadraticSurd, QuadraticSurd], hypotenuse: int, integral: PPT | None
    ) -> None:
        _assign(self, kind, roots, hypotenuse, integral)


def harmonic_sum(alpha: Rational, beta: Rational) -> Fraction:
    """Exact harmonic sum alpha*beta/(alpha + beta)."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha <= 0 or beta <= 0:
        raise ValueError("harmonic sum requires positive operands")
    return alpha * beta / (alpha + beta)


def inscribed_squares(t: PPT) -> SquarePair:
    """Sides of the leg-corner square ab/(a+b) and the hypotenuse square abc/(ab + c^2), in lowest terms."""
    # gcd(a, a + b) = gcd(a, b) = 1, likewise for b; ab + c^2 is c^2 mod a and mod b, ab mod c: each a unit.
    a, b, c = t.sides()
    ab = a * b
    return SquarePair(_proven_fraction(ab, a + b), _proven_fraction(ab * c, ab + c * c))


@_record
class IntegerSquareScale:
    """Smallest integer multiple of a triple whose inscribed squares are integers."""

    scale: int
    scaled: tuple[int, int, int]
    h: int
    s: int

    def __init__(self, scale: int, scaled: tuple[int, int, int], h: int, s: int) -> None:
        _assign(self, scale, scaled, h, s)


def integer_square_scale(t: PPT) -> IntegerSquareScale:
    """Scale a triple by the least factor making both inscribed squares integral."""
    # The squares' denominators a + b and ab + c^2 = (a + b)^2 - ab are coprime, as gcd(a + b, ab) = 1.
    a, b, c = t.sides()
    ab, u = a * b, a + b
    w = ab + c * c
    lam = u * w
    return IntegerSquareScale(lam, (lam * a, lam * b, lam * c), ab * w, ab * c * u)


def reciprocal_triple(t: PPT) -> tuple[Fraction, Fraction, Fraction]:
    """The rational right triangle (1/h, 1/c, 1/s): two legs and hypotenuse; times abc, the major derivative."""
    sq = inscribed_squares(t)  # reduced and positive, so each reciprocal swaps the terms; c as in altitude_kappa
    (hn, hd), (sn, sd) = sq.h.as_integer_ratio(), sq.s.as_integer_ratio()
    return _proven_fraction(hd, hn), _proven_fraction(1, operator.index(t.c)), _proven_fraction(sd, sn)


def trivial_reciprocal_solution(t: PPT) -> tuple[int, int, int]:
    """Integer solution (bc, ac, ab) of 1/x^2 + 1/y^2 = 1/z^2."""
    a, b, c = t.sides()
    return b * c, a * c, a * b


def major_derivative(t: PPT) -> PPT:
    """The triple (c(a+b), ab, c^2 + ab), canonically oriented."""
    return derivative(t, DerivativeKind.MAJOR)


def minor_derivative(t: PPT) -> PPT:
    """The triple (c|a-b|, ab, c^2 - ab), canonically oriented."""
    return derivative(t, DerivativeKind.MINOR)


def _derivative_pair(q: int, p: int, kind: DerivativeKind) -> tuple[int, int]:
    # With q/p the primary generator of (a, b, c), its derivative's generator Q/P is
    # q(p-q)/(p(p+q)) (major) or p(p-q), q(p+q) smaller first (minor): 2PQ = ab and
    # P^2 + Q^2 = c^2 +- ab.  p +- q is odd and prime to p and q, so Q and P are
    # coprime and of opposite parity, and _primary_triple need not check them.
    if kind is _MAJOR:
        return q * (p - q), p * (p + q)
    if kind is not _MINOR:
        raise TypeError(f"expected a DerivativeKind, got {_shown(kind, 'integer', repr)}")
    x, y = p * (p - q), q * (p + q)
    return min(x, y), max(x, y)


def derivative(t: PPT, kind: DerivativeKind) -> PPT:
    """S(t) = (c(a+b), ab, c^2 + ab) for MAJOR or S'(t) = (c|a-b|, ab, c^2 - ab) for MINOR, canonically oriented."""
    return _primary_triple(*_derivative_pair(*_generator_pair(t), kind))


def corollary_generators(t: PPT, kind: DerivativeKind) -> tuple[Fraction, Fraction]:
    """Primary and secondary generators of the chosen derivative, read directly off t.

    Major: T = ab/((c+a)(c+b)), T' = c/(a+b).  Minor: T = ab/((c-a)(c+b)),
    T' = (b-a)/c, evaluated with the legs ordered smaller-first so both
    fractions come out proper.
    """
    return _generators(*_derivative_pair(*_generator_pair(t), kind))


def anti_derivative(t: PPT, kind: DerivativeKind) -> AntiDerivative:
    """Invert a derivative exactly.

    With Q/P the primary generator of t, the major preimage legs are the roots
    of x^2 - (P+Q)x + 2PQ and its hypotenuse is P-Q; the minor preimage has
    hypotenuse P+Q and root pair ((P-Q) +- sqrt((P-Q)^2 + 8PQ))/2, read as
    (larger leg, -smaller leg).  Roots are returned as exact surds; `integral`
    is set exactly when they collapse to integers, which are then the legs of
    a primitive triple whose derivative is t.
    """
    if kind is not _MAJOR and kind is not _MINOR:
        raise TypeError(f"expected a DerivativeKind, got {_shown(kind, 'integer', repr)}")
    disc = t.c - 3 * t.b if kind is _MAJOR else t.c + 3 * t.b  # read off the sides, screened as is_derivative does
    return _anti_derivative(t, kind, disc, math.isqrt(disc) if disc > 0 and not _NOT_SQUARE_MOD[disc % 1155] else 0)


def _anti_derivative(t: PPT, kind: DerivativeKind, disc: int, m: int) -> AntiDerivative:
    # anti_derivative's step past the root: m = isqrt(disc) when disc is a square, else any m with m^2 != disc, so
    # is_derivative's hit passes on the root it took.
    # t = (P^2 - Q^2, 2PQ, P^2 + Q^2) and u = P +- Q is odd, so no g > 1 divides both u and 2: the roots are
    # what QuadraticSurd(u, disc, 2, +-1) normalises to, in lowest terms.  disc = u^2 -+ 8PQ = c -+ 3b, as
    # u^2 = c +- b and 8PQ = 4b, is odd too: never 0, so never 0^2.  A square disc = m^2, the case with an
    # integral preimage, collapses the roots to the integers x, y = (u +- m)/2 over 1 as the public constructor
    # does; u +- m is even.  Then x + y = P + Q (major) or x - y = P - Q (minor) and xy = 2PQ, so the legs x, |y|
    # are positive and x^2 + y^2 = hyp^2 with hyp = P -+ Q.  A prime dividing both legs divides P + Q and P - Q,
    # hence P and Q, so the legs are coprime.  Two odd squares sum to 2 mod 4, so exactly one leg is odd; it goes
    # first.  Their derivative is (P^2 - Q^2, 2PQ, P^2 + Q^2) = t, so nothing is re-checked.
    q, p = _generator_pair(t)
    sign = 1 if kind is _MAJOR else -1
    u, hyp = p + sign * q, p - sign * q
    if m * m != disc:
        roots = (_proven(QuadraticSurd, u, disc, 2, 1), _proven(QuadraticSurd, u, disc, 2, -1))
        return AntiDerivative(kind, roots, hyp, None)
    x, y = (u + m) // 2, (u - m) // 2
    roots = (_proven(QuadraticSurd, x, 0, 1, 1), _proven(QuadraticSurd, y, 0, 1, 1))
    y = abs(y)
    return AntiDerivative(kind, roots, hyp, _proven(PPT, x, y, hyp) if x % 2 else _proven(PPT, y, x, hyp))


def is_derivative(t: PPT, kind: DerivativeKind) -> PPT | None:
    """The integral anti-derivative of t under `kind`, or None when there is none.

    A miss is decided from the sides alone, reading neither the generator pair nor any surd."""
    # anti_derivative's disc = u^2 -+ 8PQ read off the sides ((P +- Q)^2 = c +- b, 8PQ = 4b) and screened as there: a
    # miss reads no pair, takes no second frame, no isqrt if disc < 0 or marked.  Only a hit goes on, with its root,
    # into anti_derivative's step past the root.
    if kind is _MAJOR:
        disc = t.c - 3 * t.b
        if disc < 0:
            return None
    elif kind is _MINOR:
        disc = t.c + 3 * t.b
    else:
        raise TypeError(f"expected a DerivativeKind, got {_shown(kind, 'integer', repr)}")
    if _NOT_SQUARE_MOD[disc % 1155] or (m := math.isqrt(disc)) * m != disc:
        return None
    return _anti_derivative(t, kind, disc, m).integral


def factor_class_transition(t: PPT) -> tuple[TClass, TClass]:
    """Class of t and the shared class of both its derivatives (T4 from T1/T2, else T6)."""
    original = classify(t)
    return original, TClass.T4 if original in (TClass.T1, TClass.T2) else TClass.T6
