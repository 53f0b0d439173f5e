"""Exact big-integer kernels built from products, for sizes where CPython's quadratic builtins lose."""

from __future__ import annotations

# Bits of c from which a triple's generator pair is read by root_cofactor, not by math.isqrt.  On CPython 3.11 the
# pair from root_cofactor broke even with two isqrts at about 3-5k bits of c and was 1.4-1.6x as fast at 8k-16k bits
# (median over 3 random triples of the best of 9); 2^13 leaves a margin above the noisy crossover.
ROOT_FROM_BITS = 1 << 13


def root_cofactor(x: int, m: int, bits: int) -> tuple[int, int]:
    """(r, m // r) for x = r^2 with r odd and r | m, when r and m // r are below 2^bits.

    Any other ints give some pair of ints and raise nothing, so a caller checks what it cannot prove.
    """
    # Newton/Hensel lifting as in Brent & Zimmermann, "Modern Computer Arithmetic" (2010), with the 2-adic
    # exactness of Jebelean, "An algorithm for exact division" (1993).  An odd square is 1 mod 8, so y = 1 is an
    # inverse square root of x mod 2^3, and y <- y + y(1 - xy^2)/2 takes one mod 2^j to one mod 2^(2j - 2): mod
    # 2^k needs (k + 1)//2 + 1 bits from the level below, and one bit fewer loses a bit on odd k.  From xy^2 = 1
    # mod 2^(h + 1) follows y = +-1/r mod 2^h.  Then one Newton step each, at twice the precision, gives the root
    # and the cofactor without the full-size inverse (Karp & Markstein, ACM TOMS 1997): r0 = xy = +-r mod 2^h and
    # r0 + y(x - r0^2)/2 = +-r mod 2^(2h - 1), a modulus of at least 2^(bits + 1), where +r is the residue below
    # 2^bits and -r the one above.  With y's sign then fixed to +1/r, s0 = my = m/r mod 2^h and s0 + y(m - r*s0) =
    # m/r mod 2^(2h).
    h = (bits + 3) // 2
    k, levels = h + 1, []
    while k > 3:
        levels.append(k)
        k = (k + 1) // 2 + 1
    y = 1
    for k in reversed(levels):
        mask = (1 << k) - 1
        y = (y + y * (((1 - (x & mask) * (y * y)) & mask) >> 1)) & mask
    low, full = (1 << h) - 1, (2 << bits) - 1
    r = (x & low) * y & low
    r = (r + (y * ((x - r * r) >> (h + 1) & low) << h)) & full
    if r >> bits:
        r, y = full + 1 - r, -y
    s = (m & low) * y & low
    return r, (s + (y * ((m - r * s) >> h & low) << h)) & full
