"""Half-angle-tangent generators, key sequences, parametric triple constructions, radii."""

from __future__ import annotations

import math
import re
from fractions import Fraction
from numbers import Rational

from .triple_core import PPT, TripleError, _assign, _proven, _proven_fraction, _record, _root_pair, _setattr, _shown

__all__ = [
    "KeySequence", "Radii", "WrongParity", "format_fraction", "generators_of",
    "key_sequence_from_fraction", "key_sequence_of", "parse_fraction",
    "parse_key_sequence", "proper_fraction", "radii", "require_proper",
    "triple_from_key", "triple_from_primary", "triple_from_secondary",
]

_FRACTION_RE = re.compile(r"([0-9]+)/([0-9]+)")
_KEY_SEQUENCE_RE = re.compile(r"\[([0-9]+),([0-9]+),([0-9]+),([0-9]+)\]")


class WrongParity(TripleError):
    """Fraction has the wrong numerator+denominator parity for the requested construction."""


def proper_fraction(numerator: int, denominator: int) -> Fraction:
    """A fraction strictly between 0 and 1, reduced at construction."""
    if denominator <= 0 or numerator <= 0:
        problem = "need positive numerator and denominator, got {}"
    elif numerator >= denominator:
        problem = "{} is not a proper fraction"
    else:
        return Fraction(numerator, denominator)
    raise ValueError(problem.format(f"{_shown(numerator, 'numerator')}/{_shown(denominator, 'denominator')}"))


def _proper_pair(f: Fraction) -> tuple[int, int]:
    # The (q, p) of a proper fraction: each public call reads its generator here, once.
    if not isinstance(f, Rational):
        raise TypeError(f"expected a fraction, got {type(f).__name__}")
    if not 0 < f.numerator < f.denominator:
        raise ValueError(f"expected a proper fraction, got {_shown(f, 'fraction')}")
    return f.numerator, f.denominator


def _primary_pair(f: Fraction) -> tuple[int, int]:
    # The (q, p) of a primary generator: a proper fraction with an odd q + p.
    q, p = _proper_pair(f)
    if (q + p) % 2 == 0:
        raise WrongParity(f"{_shown(f, 'fraction')} has even numerator+denominator sum; it is a secondary generator")
    return q, p


def require_proper(f: Fraction) -> Fraction:
    _proper_pair(f)
    return f


def parse_fraction(text: str) -> Fraction:
    """Parse the "q/p" wire format (ASCII digits, no spaces) into a proper fraction."""
    m = _FRACTION_RE.fullmatch(text)
    if not m:
        raise ValueError(f"malformed fraction {text!r}, expected q/p")
    return proper_fraction(int(m.group(1)), int(m.group(2)))


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@_record
class KeySequence:
    """Four positive integers [q2, q1, p1, p2] packaging both generators of a triple.

    The Fibonacci rule q2+q1 = p1, q1+p1 = p2 must hold, q2 must be odd, and
    q1, q2 must be coprime.  q1/p1 is the primary generator, q2/p2 the
    secondary.
    """

    q2: int
    q1: int
    p1: int
    p2: int

    def __init__(self, q2: int, q1: int, p1: int, p2: int) -> None:
        _assign(self, q2, q1, p1, p2)
        entries = (q2, q1, p1, p2)
        for v in entries:
            if not isinstance(v, int) or v <= 0:
                raise ValueError(f"key sequence entries must be positive integers, got {_shown(v, 'integer', repr)}")
        if q2 + q1 != p1 or q1 + p1 != p2:
            problem = "{} violates the Fibonacci rule"
        elif q2 % 2 == 0:
            problem = "first entry of {} must be odd"
        elif math.gcd(q1, q2) != 1:
            problem = "first two entries of {} must be coprime"
        else:
            return
        raise ValueError(problem.format(f"[{','.join(_shown(v, 'integer') for v in entries)}]"))

    # gcd(q1, p1) = gcd(q1, q2) = 1, and gcd(q2, p2) = gcd(q2, 2*q1) = 1 as q2 is odd.
    # int() gives a bool or int-subclass entry as the plain int Fraction would hold.
    @property
    def primary(self) -> Fraction:
        return _proven_fraction(int(self.q1), int(self.p1))

    @property
    def secondary(self) -> Fraction:
        return _proven_fraction(int(self.q2), int(self.p2))

    def __str__(self) -> str:
        return f"[{self.q2},{self.q1},{self.p1},{self.p2}]"


def parse_key_sequence(text: str) -> KeySequence:
    """Parse the "[q2,q1,p1,p2]" wire format."""
    m = _KEY_SEQUENCE_RE.fullmatch(text)
    if not m:
        raise ValueError(f"malformed key sequence {text!r}, expected [q2,q1,p1,p2]")
    return KeySequence(*(int(g) for g in m.groups()))


@_record
class Radii:
    """In-circle radius r1 and ex-circle radii r2, r3, r4 of a primitive triple.

    Always satisfies r1 + r2 + r3 = r4 and r1*r4 = r2*r3.
    """

    r1: int
    r2: int
    r3: int
    r4: int

    def __init__(self, r1: int, r2: int, r3: int, r4: int) -> None:
        _assign(self, r1, r2, r3, r4)
        if r1 + r2 + r3 != r4 or r1 * r4 != r2 * r3:
            shown = ", ".join(_shown(r, "integer") for r in (r1, r2, r3, r4))
            raise ValueError(f"({shown}) violates the radius identities")


def _generator_pair(t: PPT) -> tuple[int, int]:
    # The primary generator q/p of t in lowest terms, with no Fraction and no gcd: the pair PPT() or _primary_triple
    # kept, else read off t = (p^2 - q^2, 2pq, p^2 + q^2) for coprime q < p by _root_pair.
    pair = getattr(t, "_pair", None)
    return _root_pair(t.a, t.b, t.c) if pair is None else pair


def _generators(q: int, p: int) -> tuple[Fraction, Fraction]:
    # For coprime q < p of opposite parity: p -+ q are odd, and a common factor divides 2p and 2q.
    return _proven_fraction(q, p), _proven_fraction(p - q, p + q)  # a/(c+b) = (p-q)(p+q)/(p+q)^2


def generators_of(t: PPT) -> tuple[Fraction, Fraction]:
    """Primary and secondary generators: the half-angle tangents b/(c+a) and a/(c+b)."""
    return _generators(*_generator_pair(t))


def key_sequence_from_fraction(f: Fraction) -> KeySequence:
    """Complete a proper fraction into the unique key sequence containing it.

    An even numerator+denominator sum places the fraction in the outer slots
    (secondary), an odd sum in the inner slots (primary).
    """
    q, p = _proper_pair(f)
    if (q + p) % 2 == 0:
        return KeySequence(q, (p - q) // 2, (p + q) // 2, p)
    return KeySequence(p - q, q, p, p + q)


def key_sequence_of(t: PPT) -> KeySequence:
    """The key sequence whose inner pair is the primary generator and outer pair the secondary."""
    # q < p are coprime and of opposite parity, so p - q is odd and prime to q: the key is valid.
    q, p = _generator_pair(t)
    return _proven(KeySequence, p - q, q, p, p + q)


def triple_from_key(k: KeySequence) -> PPT:
    """Mixed-form construction: a = p2*q2, b = 2*p1*q1, c = p1*p2 - q1*q2."""
    # A valid key has q1 < p1 coprime (gcd(q1, p1) = gcd(q1, q2)) and of opposite parity (q2 odd); int() as in primary.
    return _primary_triple(int(k.q1), int(k.p1))


def triple_from_primary(f: Fraction) -> PPT:
    """The triple (p^2 - q^2, 2pq, p^2 + q^2) generated by a primary fraction q/p."""
    return _primary_triple(*_primary_pair(f))


def _primary_triple(q: int, p: int) -> PPT:
    # triple_from_primary without the input checks, for coprime q < p of opposite parity.
    # Euclid: p^2 - q^2 is then odd and 2pq even, and a prime dividing p^2 - q^2 and
    # p^2 + q^2 is odd and divides 2p^2 and 2q^2, hence p and q.  A common factor of two
    # sides divides the third, so the triple is primitive and canonically oriented, and
    # PPT need not check it again.  It keeps (q, p) as PPT() does, so its pair reads are free.
    t = _proven(PPT, p * p - q * q, 2 * p * q, p * p + q * q)
    _setattr(t, "_pair", (q, p))
    return t


def triple_from_secondary(f: Fraction) -> PPT:
    """The triple (pq, (p^2 - q^2)/2, (p^2 + q^2)/2) generated by a secondary fraction q/p."""
    q, p = _proper_pair(f)
    if (q + p) % 2 == 1:
        raise WrongParity(f"{_shown(f, 'fraction')} has odd numerator+denominator sum; it is a primary generator")
    # A reduced secondary q/p has both terms odd, so the halves are coprime and sum to the odd p.
    return _primary_triple((p - q) // 2, (p + q) // 2)


def radii(k: KeySequence) -> Radii:
    """The four tangent-circle radii as pairwise products of the key sequence."""
    # p1 = q1 + q2 and p2 = 2q1 + q2, so r1 + r2 + r3 = 2q1^2 + 3q1q2 + q2^2 = r4, and r1*r4 = r2*r3 = q1q2p1p2.
    return _proven(Radii, k.q1 * k.q2, k.q1 * k.p2, k.q2 * k.p1, k.p1 * k.p2)
