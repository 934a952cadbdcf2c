"""Certified real arithmetic over outward-rounded interval enclosures.

Everything downstream (gap enumeration, thickness, the certification
pipelines) runs on the Enclosure type defined here: a closed interval
[lo, hi] of binary floats, outward-rounded by construction, guaranteed to
contain the exact real number it stands for.  Comparisons are tri-valued:
True / False only when the endpoints certify the answer, None when the
enclosures overlap and the question is undecidable at the working precision.

Also provided: bonacci_root(k), the root in (1, 2) of x^k = x^(k-1) + ...
+ x + 1, isolated by exact integer sign tests of x^(k+1) - 2 x^k + 1 at
the ends of a dyadic cell; pi_q(seq, q), the value sum_j d_j q^(-j) of a
finite or eventually periodic digit sequence.

An Enclosure holds four ints (lo man, lo exp, hi man, hi exp), each end
the value man * 2**exp with a signed mantissa, trailing zero bits allowed.
Arithmetic, negation, abs, the int and Fraction constructors, compares and
min / max form the exact integer result and round it once, outward, to the
working precision: the values mpmath's interval kernels give.  Integer
powers round step by step exactly as mpmath's mpi_pow_int does, on the
same ints.  A Fraction power p/r of a base not below zero is the outward
r-th root of the outward p-th power.  Membership, the branch walk's level
kernel (_walk_level), decimal parsing and printing run on them too:
str_digits and repr print "[lo, hi]" with lo rounded down and hi up, so
the text read back encloses the value.

Both endpoints are always finite.  Division and powers raise
PrecisionError where they would make an infinite or nan endpoint (a
division by an enclosure that contains zero, say); a string that is not a
decimal literal, such as "inf", raises ValueError.  A non-integer power of
a base that reaches below zero raises ValueError if the base is
certifiably negative, else PrecisionError.  An exponent is an int or a
Fraction; any other type raises TypeError.

The working precision belongs to this module: 256 bits at import,
overridable with set_precision() or the `precision` context manager (at
least 64 bits).  The library reads no environment variable; the command
line reads BETACERT_PREC.  Values are immutable: an Enclosure built at one
precision keeps its exact endpoints; only new operations round at the
then-current precision.
"""

from __future__ import annotations

import re
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import ROUND_FLOOR, Context, Decimal
from fractions import Fraction
from functools import lru_cache
from math import copysign, inf, isqrt, ldexp, log2
from sys import float_info
from typing import Optional

__all__ = [
    "DEFAULT_PRECISION",
    "BonacciRoot",
    "Enclosure",
    "PrecisionError",
    "as_enclosure",
    "bonacci_root",
    "enc_max",
    "enc_min",
    "get_precision",
    "membership",
    "pi_q",
    "precision",
    "set_precision",
]

DEFAULT_PRECISION = 256

_prec = DEFAULT_PRECISION  # the working precision, in bits of mantissa


class PrecisionError(ArithmeticError):
    """Raised when the working precision cannot certify a required claim."""


# ======================================================================
# precision control
# ======================================================================

def set_precision(bits: int) -> int:
    """Set the global working precision (bits of mantissa). Returns it."""
    global _prec
    if bits < 64:
        raise ValueError(f"precision must be >= 64 bits, got {bits}")
    _prec = bits
    return bits


def get_precision() -> int:
    return _prec


@contextmanager
def precision(bits: int):
    """Temporarily run at a different working precision."""
    old = _prec
    set_precision(bits)
    try:
        yield
    finally:
        set_precision(old)


# ======================================================================
# Enclosure
# ======================================================================
#
# An end is a pair of ints (m, e) with the value m * 2**e.  Each kernel
# forms its exact result and rounds it once, outward, to _prec bits.

_ZERO = (0, 0, 0, 0)
_ONE = (1, 0, 1, 0)
_POW = "a power of an enclosure that contains zero"
_DIV = "a division by an enclosure that contains zero"


def _floor(m: int, e: int) -> tuple:
    """m 2**e rounded down to _prec bits (>> on a signed int is the floor)."""
    n = m.bit_length() - _prec
    return (m >> n, e + n) if n > 0 else (m, e)


def _ceil(m: int, e: int) -> tuple:
    """m 2**e rounded up to _prec bits."""
    n = m.bit_length() - _prec
    return (-(-m >> n), e + n) if n > 0 else (m, e)


def _cmp(m: int, e: int, n: int, f: int) -> int:
    """An int with the sign of m 2**e - n 2**f.  A term whose lowest bit lies
    above the other's highest decides alone, so no shift outgrows both."""
    if e >= f:
        d = e - f
        return (m or -n) if d > n.bit_length() else (m << d) - n
    d = f - e
    return (-n or m) if d > m.bit_length() else m - (n << d)


def _sum(m: int, e: int, n: int, f: int) -> tuple:
    """m 2**e + n 2**f, exact at the smaller exponent; but a term wholly below
    the other's last bit and _prec + 1 bits below its first becomes one unit
    of its sign just under both, which rounds to _prec bits as the exact sum
    does, at a cost that does not grow with the distance."""
    if e < f:
        m, e, n, f = n, f, m, e
    d = e - f
    if d > _prec:
        if not n:
            return m, e
        cut = e + min(0, m.bit_length() - _prec - 1)
        if m and f + n.bit_length() <= cut:
            d = e - cut + 1
            return (m << d) + (1 if n > 0 else -1), e - d
    return (m << d) + n, f


def _add(x, y) -> tuple:
    """x + y, with _sum's common case (exponents within _prec) and the
    rounding written out."""
    am, ae, bm, be = x
    cm, ce, dm, de = y
    prec = _prec
    if -prec <= ae - ce <= prec:
        am, ae = ((am << (ae - ce)) + cm, ce) if ae >= ce else (am + (cm << (ce - ae)), ae)
    else:
        am, ae = _sum(am, ae, cm, ce)
    if -prec <= be - de <= prec:
        bm, be = ((bm << (be - de)) + dm, de) if be >= de else (bm + (dm << (de - be)), be)
    else:
        bm, be = _sum(bm, be, dm, de)
    n = am.bit_length() - prec
    if n > 0:
        am, ae = am >> n, ae + n
    n = bm.bit_length() - prec
    if n > 0:
        bm, be = -(-bm >> n), be + n
    return am, ae, bm, be


def _sub(x, y) -> tuple:
    cm, ce, dm, de = y
    return _add(x, (-dm, de, -cm, ce))


def _abs(x) -> tuple:
    am, ae, bm, be = x
    if am >= 0:
        return _floor(am, ae) + _ceil(bm, be)
    if bm <= 0:
        return _sub(_ZERO, x)
    return (0, 0) + (_ceil(bm, be) if _cmp(bm, be, -am, ae) > 0 else _ceil(-am, ae))


def _mul(x, y) -> tuple:
    """The product, its ends picked by the operands' signs as mpi_mul picks
    them; only two intervals that both straddle zero compare products."""
    am, ae, bm, be = x
    cm, ce, dm, de = y
    if am >= 0:
        lo = (am * cm, ae + ce) if cm >= 0 else (bm * cm, be + ce)
        hi = (bm * dm, be + de) if dm >= 0 else (am * dm, ae + de)
    elif bm <= 0:
        lo = (am * dm, ae + de) if dm >= 0 else (bm * dm, be + de)
        hi = (bm * cm, be + ce) if cm >= 0 else (am * cm, ae + ce)
    elif cm >= 0:
        lo, hi = (am * dm, ae + de), (bm * dm, be + de)
    elif dm <= 0:
        lo, hi = (bm * cm, be + ce), (am * cm, ae + ce)
    else:
        lo, p = (am * dm, ae + de), (bm * cm, be + ce)
        lo = p if _cmp(*p, *lo) < 0 else lo
        hi, p = (am * cm, ae + ce), (bm * dm, be + de)
        hi = p if _cmp(*p, *hi) > 0 else hi
    return _floor(*lo) + _ceil(*hi)


def _quotient(m: int, e: int, n: int, f: int, up: bool) -> tuple:
    """m 2**e / n 2**f for n > 0, rounded down (or up): the integer quotient
    keeps _prec + 1 bits or more, so rounding it rounds the exact one."""
    k = max(0, _prec + 1 + n.bit_length() - m.bit_length())
    if up:
        return _ceil(-((-m << k) // n), e - f - k)
    return _floor((m << k) // n, e - f - k)


def _div(x, y, op: str = _DIV) -> tuple:
    """The quotient; PrecisionError naming op when y contains zero."""
    cm, ce, dm, de = y
    if cm <= 0 <= dm:
        raise PrecisionError(f"non-finite endpoint from {op}")
    am, ae, bm, be = x
    if dm < 0:  # x / y = -x / -y, both negated exactly
        am, ae, bm, be, cm, ce, dm, de = -bm, be, -am, ae, -dm, de, -cm, ce
    lo = _quotient(am, ae, dm, de, False) if am >= 0 else _quotient(am, ae, cm, ce, False)
    return lo + (_quotient(bm, be, dm, de, True) if bm <= 0 else _quotient(bm, be, cm, ce, True))


def _round(m: int, e: int, prec: int, up: bool) -> tuple:
    """m 2**e rounded down (or up) to prec bits."""
    n = m.bit_length() - prec
    if n <= 0:
        return m, e
    return (-(-m >> n) if up else m >> n), e + n


def _pow_end(m: int, e: int, n: int, prec: int, up: bool) -> tuple:
    """(m 2**e) ** n for n >= 2, rounded down (or up) to prec bits as
    mpmath's mpf_pow_int rounds it: the odd mantissa's exact power while
    bitlen(mantissa) n < 1000, else binary powering at prec + 4 bitlen(n) + 4
    bits that rounds every partial product's magnitude the final way."""
    if not m:
        return 0, 0
    z = (m & -m).bit_length() - 1
    neg = m < 0 and n % 2 == 1
    man, e = abs(m) >> z, e + z
    if man == 1:
        return (-1 if neg else 1), e * n
    if man.bit_length() * n < 1000:
        p = man ** n
        return _round(-p if neg else p, e * n, prec, up)
    work, away = prec + 4 * n.bit_length() + 4, up != neg  # away: magnitudes round up
    pm, pe = 1, 0
    while True:
        if n & 1:
            pm, pe = pm * man, pe + e
            c = pm.bit_length() - work
            if c > 0:
                pm, pe = (-(-pm >> c) if away else pm >> c), pe + c
            n -= 1
            if not n:
                break
        man, e = man * man, e + e
        c = man.bit_length() - work
        if c > 0:
            man, e = (-(-man >> c) if away else man >> c), e + c
        n >>= 1
    return _round(-pm if neg else pm, pe, prec, up)


def _pow_int(x, n: int) -> tuple:
    """x ** n for an int n, rounded as mpmath's mpi_pow_int rounds it: 1 at
    n = 0, x unrounded at n = 1, an even power's ends picked by x's signs,
    and n < 0 as 1 / x ** -n with x ** -n rounded 20 bits finer (so a
    PrecisionError when x contains zero)."""
    prec, k = (_prec, n) if n >= 0 else (_prec + 20, -n)
    if k < 2:
        p = x if k else _ONE
    else:
        am, ae, bm, be = x
        if k & 1 or am >= 0:  # odd powers keep the ends' signs, even ones of x >= 0 their order
            p = _pow_end(am, ae, k, prec, False) + _pow_end(bm, be, k, prec, True)
        elif bm <= 0:
            p = _pow_end(bm, be, k, prec, False) + _pow_end(am, ae, k, prec, True)
        else:
            top = (am, ae) if _cmp(-am, ae, bm, be) >= 0 else (bm, be)
            p = (0, 0) + _pow_end(*top, k, prec, True)
    return p if n >= 0 else _div(_ONE, p, _POW)


def _int(n: int) -> tuple:
    """n, exact when it fits in _prec bits, else rounded down and up."""
    return _floor(n, 0) + _ceil(n, 0)


def _canon(m: int, e: int) -> tuple:
    """The end m 2**e with its trailing zero bits moved into the exponent."""
    z = (m & -m).bit_length() - 1
    return (m >> z, e + z) if m else (0, 0)


def _to_fraction(m: int, e: int) -> Fraction:
    return Fraction(m << e) if e >= 0 else Fraction(m, 1 << -e)


def _double(m: int, e: int, up: bool) -> float:
    """m 2**e rounded down (or up) to a double: the mantissa cut to 53 bits
    or to the 2**-1074 grid, whichever keeps fewer; a result of 2**1024 or
    more is an infinity, or the largest double where rounding goes to zero."""
    n = m.bit_length() - 53
    if n < -1074 - e:
        n = -1074 - e
    if n > 0:
        m, e = (-(-m >> n) if up else m >> n), e + n
    if e <= 970 or not m or m.bit_length() + e <= 1024:  # a cut m has <= 54 bits
        return ldexp(m, e)
    return copysign(inf if up == (m > 0) else float_info.max, m)


# -- rational powers ------------------------------------------------------
#
# x ** (p/r) for x not below zero is the r-th root of x ** p, rounded
# outward end by end.  Newton's method (Brent and Zimmermann, Modern
# Computer Arithmetic, 2010, section 4.2) approximates each root, or square
# roots where r is too long for it; one power of the rounded end, itself
# rounded toward the side it must certify, confirms it or steps it one unit
# outward.

_GUARD = 10  # bits the approximations carry past the working precision


def _newton(m: int, e: int, r: int, w: int) -> tuple:
    """(z, x), z 2**x within a few units of z's last bit of the r-th root of
    m 2**e (m > 0), z of about w bits.  With m 2**e = c 2**(r s), c in
    [2**(t-1), 2**t), each step z <- ((r-1) z + c / z**(r-1)) / r runs on
    z 2**-v in [1/2, 2), with z**(r-1) rounded to v bits, and doubles v from
    a double's start, at 50 bits or fewer, up to w, each level g bits past
    half the next, g = max(8, r.bit_length() // 2 + 4), for the step's
    error term (r - 1) / 2 times the last one's square.  An r of over 32
    bits, where a double's start is too coarse to converge, goes to
    _square_roots."""
    if r.bit_length() > 32:
        return _square_roots(m, e, r, w)
    n = m.bit_length()
    s, t = divmod(e + n, r)
    g = max(8, r.bit_length() // 2 + 4)
    ladder = [w]
    while ladder[-1] > 50:
        ladder.append(ladder[-1] // 2 + g)
    v = ladder.pop()
    head = m >> (n - 53) if n > 53 else m << (53 - n)
    z = int(ldexp(2.0 ** ((log2(ldexp(head, -53)) + t) / r), v))
    for u in reversed(ladder):
        z, v = z << (u - v), u
        pm, pe = _pow_end(z, 0, r - 1, v, False)
        d = e - r * s + r * v - pe  # c / z**(r-1), times 2**v, is m 2**d / pm
        z = ((r - 1) * z + ((m << d) if d >= 0 else (m >> -d)) // pm) // r
    return z, s - v


def _square_roots(m: int, e: int, r: int, w: int) -> tuple:
    """(z, x) as _newton gives it, for any r: y ** (j / 2**k), y = m 2**e and
    j / 2**k = 1 / r within 2**-(k+1), as y ** j at w bits, then k square
    roots.  For 2**(K-1) <= y < 2**K that moves the root by a factor within
    2**-(k+1) (|K| + 1) of 1, below z's last bit at k = w + 8 + the length
    of |K| + 1: the work grows with r's and K's lengths, not with r."""
    k = w + 8 + (abs(e + m.bit_length()) + 1).bit_length()
    z, x = _pow_end(m, e, ((1 << (k + 1)) // r + 1) >> 1, w, False)
    for _ in range(k):
        d = 2 * w - z.bit_length()
        d += (x - d) & 1  # an even exponent halves exactly
        z, x = isqrt(z << d), (x - d) // 2
    return z, x


def _root_end(m: int, e: int, r: int, up: bool, approx: tuple) -> tuple:
    """The r-th root of m 2**e rounded down (or up) to _prec bits: approx
    rounded so, then stepped one unit outward while its r-th power, rounded
    toward m 2**e, does not reach past m 2**e."""
    y, g = _round(*approx, _prec, up)
    while True:
        c = _cmp(*_pow_end(y, g, r, _prec + _GUARD, not up), m, e)
        if (c >= 0) if up else (c <= 0):
            return _round(y, g, _prec, up)
        y += 1 if up else -1


def _rational_power(x, p: int, r: int) -> tuple:
    """x ** (p/r) for p/r in lowest terms, r >= 2, and x's lower end not
    below zero: the r-th roots of the ends a <= b of x ** p (from _pow_int,
    outward), the lower rounded down and the upper up; a = 0 (p > 0) is its
    own root.  When b < a (1 + 2**-(w/2)), as for a point, b's root is a's
    approximation z moved by the first-order term z (b - a) / (r a), whose
    error is below z's last bit; a wider (band) enclosure's take one each."""
    am, ae, bm, be = _pow_int(x, p)
    w = _prec + _GUARD
    lo = _newton(am, ae, r, w) if am else (0, 0)
    h = w // 2
    if not am or _cmp(bm, be, am * ((1 << h) + 1), ae - h) >= 0:
        hi = _newton(bm, be, r, w) if bm else (0, 0)
    else:
        (z, g), (dm, de) = lo, _sum(bm, be, -am, ae)
        d = de - ae
        hi = z + ((z * dm << d) if d >= 0 else (z * dm >> -d)) // (r * am), g
    return _root_end(am, ae, r, False, lo) + _root_end(bm, be, r, True, hi)


@lru_cache(maxsize=64)  # a request asks for the same radii and constants again
def _power(x, y, prec: int) -> tuple:
    """The ends of x ** y, y an int or a Fraction, at the working precision
    prec, which keys the cache (an exception is not kept, so it raises again
    on every call): an integer y goes to _pow_int, any other to
    _rational_power, on a base not below zero."""
    if isinstance(y, int) or y.denominator == 1:
        return _pow_int(x, int(y))
    if x[0] < 0:  # a certifiably negative base is outside the domain
        raise (ValueError if x[2] < 0 else PrecisionError)(
            "the base of a non-integer power reaches below zero")
    return _rational_power(x, y.numerator, y.denominator)


_FLOAT_ERROR = ("binary floats are not exact inputs; pass a Fraction or a "
                "decimal string such as '0.1'")


def _endpoint(x, side: int) -> tuple:
    """End for from_endpoints: a dyadic Fraction exactly, anything else the
    lower (side 0) or upper (side 1) end of Enclosure(x)."""
    if isinstance(x, Fraction) and x.denominator & (x.denominator - 1) == 0:
        return x.numerator, 1 - x.denominator.bit_length()
    return Enclosure(x)._ends[2 * side:2 * side + 2]


class Enclosure:
    """A closed interval [lo, hi] certified to contain one exact real.

    Its only state is its endpoints' four ints; every operation rounds its
    exact result outward.  Comparisons are explicit tri-valued methods --
    the class deliberately defines no ordering dunders, so an Enclosure can
    never end up inside sorted() by accident.
    """

    __slots__ = ("_ends",)

    def __init__(self, value):
        ends = self._coerce(value)
        if ends is None:
            raise TypeError(f"cannot enclose a {type(value).__name__}; pass an int, "
                            "a Fraction, a decimal string or an Enclosure")
        self._ends = ends

    @classmethod
    def from_endpoints(cls, lo, hi) -> "Enclosure":
        """[lo, hi]: a dyadic Fraction endpoint is kept exactly, any other is
        the lower (for lo) or upper (for hi) end of its own enclosure."""
        ends = _endpoint(lo, 0) + _endpoint(hi, 1)
        if _cmp(*ends) > 0:
            raise ValueError("endpoints must be properly ordered")
        return cls._wrap(ends)

    # -- exact endpoint access -----------------------------------------

    @property
    def lo(self) -> Fraction:
        """Exact lower endpoint as a rational (endpoints are binary floats)."""
        return _to_fraction(*self._ends[:2])

    @property
    def hi(self) -> Fraction:
        return _to_fraction(*self._ends[2:])

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.hi + self.lo) / 2

    def float_bounds(self) -> tuple[float, float]:
        """Endpoints as doubles, rounded *outward* (for reports only); past
        the largest double an end reports as that double or as an infinity."""
        m, e, n, f = self._ends
        return _double(m, e, False), _double(n, f, True)

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        """The ends of an operand, or None for an unsupported type."""
        if isinstance(other, Enclosure):
            return other._ends
        if isinstance(other, int):
            return _int(other)
        if isinstance(other, Fraction):  # one rounding per end, at any length
            p, q = other.numerator, other.denominator
            if q & (q - 1) == 0 and p.bit_length() <= _prec:  # dyadic, and exact in _prec bits
                return _canon(p, 1 - q.bit_length()) * 2
            return _quotient(p, 0, q, 0, False) + _quotient(p, 0, q, 0, True)
        if isinstance(other, str):
            return _text_ends(other)
        if isinstance(other, float):
            raise TypeError(_FLOAT_ERROR)
        return None

    @staticmethod
    def _wrap(ends) -> "Enclosure":
        """Enclosure around ends already computed (no rounding)."""
        out = Enclosure.__new__(Enclosure)
        out._ends = ends
        return out

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_add(self._ends, o))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_sub(self._ends, o))

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_sub(o, self._ends))

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_mul(self._ends, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_div(self._ends, o))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_div(o, self._ends))

    def __pow__(self, exponent):
        """x ** y for an exact y: an int or a Fraction."""
        if isinstance(exponent, (int, Fraction)):
            return self._wrap(_power(self._ends, exponent, _prec))
        if isinstance(exponent, float):
            raise TypeError("binary floats are not exact exponents; pass an int or "
                            "a Fraction")
        return NotImplemented

    def __neg__(self):
        return self._wrap(_sub(_ZERO, self._ends))

    def __abs__(self):
        return self._wrap(_abs(self._ends))

    # -- tri-valued comparisons ------------------------------------------
    #
    # .lt(b) asks: is the real in self certainly < the real in b?
    # True / False only with certainty, else None.  All four are decided
    # exactly on the endpoints.

    def lt(self, other) -> Optional[bool]:
        am, ae, bm, be = self._ends
        cm, ce, dm, de = as_enclosure(other)._ends
        if _cmp(bm, be, cm, ce) < 0:
            return True
        if _cmp(am, ae, dm, de) >= 0:
            return False
        return None

    def le(self, other) -> Optional[bool]:
        am, ae, bm, be = self._ends
        cm, ce, dm, de = as_enclosure(other)._ends
        if _cmp(bm, be, cm, ce) <= 0:
            return True
        if _cmp(am, ae, dm, de) > 0:
            return False
        return None

    def gt(self, other) -> Optional[bool]:
        r = self.le(other)
        return None if r is None else not r

    def ge(self, other) -> Optional[bool]:
        r = self.lt(other)
        return None if r is None else not r

    def encloses(self, x) -> bool:
        """Exact test: does the interval [lo, hi] contain x, an int or a
        Fraction?"""
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"encloses takes an int or a Fraction, not a "
                            f"{type(x).__name__}")
        return self.lo <= x <= self.hi

    def intersects(self, other: "Enclosure") -> bool:
        am, ae, bm, be = self._ends
        cm, ce, dm, de = other._ends
        return _cmp(am, ae, dm, de) <= 0 and _cmp(cm, ce, bm, be) <= 0

    # -- structural equality (same endpoint values), usable for dedup ----

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        am, ae, bm, be = self._ends
        cm, ce, dm, de = other._ends
        return not _cmp(am, ae, cm, ce) and not _cmp(bm, be, dm, de)

    def __hash__(self):
        am, ae, bm, be = self._ends
        return hash(_canon(am, ae) + _canon(bm, be))

    def __repr__(self):
        return f"Enclosure({self.str_digits()})"

    def str_digits(self, digits: int = 20) -> str:
        """"[lo, hi]", lo rounded down and hi up to digits significant
        digits: the text, read back by Enclosure(), contains this one."""
        m, e, n, f = self._ends
        return f"[{_print_end(m, e, digits, False)}, {_print_end(n, f, digits, True)}]"


def as_enclosure(x) -> Enclosure:
    """Coerce int / Fraction / decimal string / Enclosure to an Enclosure."""
    return x if isinstance(x, Enclosure) else Enclosure(x)


# -- decimal literals ------------------------------------------------------

# an exact power of ten up to 10**400, a 1,329-bit int; past it an outward
# one, whose cost grows with the exponent's length, not with the exponent
_EXACT_EXPONENT = 400
_DECIMAL = re.compile(r"([+-]?)(?=\.?[0-9])([0-9]*)(?:\.([0-9]*))?(?:[eE]([+-]?[0-9]+))?")


def _decimal(text: str):
    """The value of a decimal literal such as "-1.5e-7": the exact Fraction
    while its exponent (the fraction's digits moved into it) lies within
    +-_EXACT_EXPONENT, else its mantissa times an outward-rounded
    Enclosure(10) ** exponent, so that no literal costs a power of ten as
    long as its exponent.  ValueError for any other text ("inf", "1/3")."""
    got = _DECIMAL.fullmatch(text.strip())
    if not got:
        raise ValueError(f"cannot parse the decimal string {text!r}")
    sign, whole, frac, exp = got.groups()
    frac = (frac or "").rstrip("0")
    # Decimal reads any number of digits, where int(str) stops at 4,300
    man, exp = int(Decimal(sign + (whole + frac or "0"))), int(exp or 0) - len(frac)
    if abs(exp) > _EXACT_EXPONENT:
        return Enclosure(10) ** exp * man
    return Fraction(man * 10 ** exp) if exp >= 0 else Fraction(man, 10 ** -exp)


def _print_end(m: int, e: int, digits: int, up: bool) -> str:
    """m 2**e rounded down (or up) to digits significant digits, as text
    _decimal reads: its magnitude a 2**e becomes N 10**E, N of digits
    digits, where N is a 2**(e-E) / 5**E rounded toward zero or away from
    it, exactly while |E| <= _EXACT_EXPONENT, else with 5**|E| from
    _pow_end at 4 digits + 64 bits, rounded to the side that keeps N's."""
    if not m:
        return "0"
    a, away = abs(m), up == (m > 0)
    # E = floor(k log10(2)) - digits and 2**k <= a 2**e < 2**(k+1) put N in
    # [10**digits, 10**(digits+2)); the product, to nine places past its
    # integer part, may be one off, leaving N at least 10**(digits - 1)
    k = a.bit_length() + e - 1
    c = Context(prec=k.bit_length() // 3 + 10)
    E = int(c.multiply(k, c.log10(2)).to_integral_value(ROUND_FLOOR)) - digits
    f, g = (5 ** abs(E), 0) if abs(E) <= _EXACT_EXPONENT else \
        _pow_end(5, 0, abs(E), 4 * digits + 64, away == (E < 0))
    num, den, s = (a, f, e - E - g) if E >= 0 else (a * f, 1, e - E + g)
    num, den = (num << s, den) if s >= 0 else (num, den << -s)
    N = -(-num // den) if away else num // den
    while N >= 10 ** digits:  # floor(floor(v) / 10) = floor(v / 10), and so for ceil
        N, E = -(-N // 10) if away else N // 10, E + 1
    n = str(Decimal(N))  # Decimal prints past int's 4,300-digit limit for str
    t, x, sign = n.rstrip("0"), E + len(n) - 1, "-" if m < 0 else ""  # x: t[0]'s exponent
    if -5 <= x < digits:
        return f"{Decimal(f'{sign}{t}e{x + 1 - len(t)}'):f}"  # exact
    return f"{sign}{t[0]}{'.' * (len(t) > 1)}{t[1:]}e{x:+d}"  # x may pass Decimal's 10**18


def _text_ends(text: str) -> tuple:
    """The ends of Enclosure(text): a decimal literal's exact value rounded
    once per end, or the "[lo, hi]" form str_digits prints, end by end."""
    t = text.strip()
    if t[:1] == "[" and t[-1:] == "]":
        lo, _, hi = t[1:-1].partition(",")
        return Enclosure.from_endpoints(lo, hi)._ends
    return Enclosure._coerce(_decimal(t))


def _envelope(xs, sign: int) -> Enclosure:
    """Endpoint-wise min (sign -1) or max (sign +1) of xs: nothing rounds."""
    picked = ()
    for side in (0, 2):
        (m, e), *rest = [x._ends[side:side + 2] for x in xs]
        for n, f in rest:
            if _cmp(n, f, m, e) * sign > 0:
                m, e = n, f
        picked += (m, e)
    return Enclosure._wrap(picked)


def enc_min(*xs: Enclosure) -> Enclosure:
    """Enclosure of min(x_1, ..., x_n) for reals x_i enclosed by xs."""
    return _envelope(xs, -1)


def enc_max(*xs: Enclosure) -> Enclosure:
    return _envelope(xs, 1)


def membership(x: Enclosure, lo: Enclosure, hi: Enclosure) -> Optional[bool]:
    """Certified membership of the real x in the interval [lo, hi].

    lo and hi are themselves enclosures of the (possibly irrational)
    interval endpoints.  True means: for every admissible choice of the
    endpoints, x surely lies inside.  False means x surely lies outside.
    None otherwise (fail-closed for callers that count).
    """
    return _within(lo._ends, hi._ends)(as_enclosure(x)._ends)


# -- the branch-walk kernel ----------------------------------------------
#
# A node is an Enclosure's four ints.  The walk steps, classifies and
# measures nodes with integer shifts, products and compares, and wraps a
# node as an Enclosure only as a branch event.

def _within(lo, hi):
    """membership on nodes: the test of a node x against the bounds lo and
    hi, whose ends are read once; _walk_level's test where no table serves.

    Each compare of an end with a bound is written out: of a 2**d and b
    (d >= 0 the exponent gap), b is shifted right, rounded as the relation
    needs (a 2**d >= b exactly when a > (b - 1) >> d, and a 2**d > b when
    a > b >> d), so no compare costs more as d grows."""
    lam, lae, lbm, lbe = lo
    ham, hae, hbm, hbe = hi
    lam1, lbm1 = lam - 1, lbm - 1

    def within(x) -> Optional[bool]:
        am, ae, bm, be = x
        if (am > (lbm1 >> (ae - lbe)) if ae >= lbe else (am >> (lbe - ae)) >= lbm) and \
                (bm <= (ham >> (be - hae)) if be >= hae else ((bm - 1) >> (hae - be)) < ham):
            return True
        if (bm <= (lam1 >> (be - lae)) if be >= lae else (bm >> (lae - be)) < lam) or \
                (am > (hbm >> (ae - hbe)) if ae >= hbe else ((am - 1) >> (hbe - ae)) >= hbm):
            return False
        return None

    return within


def _bounds_at(e: int, s_hi, s_lo, top):
    """The domain bounds moved to 2**e, rounded so that one int compare with
    a node end at e decides as _within's does (floor(t) for a <= t and
    a > t, ceil(t) for a >= t and a < t): the upper end's s_hi.lo, top.lo,
    s_lo.lo, the lower end's s_hi.hi, s_lo.hi, top.hi.  None for an e more
    than 2 _prec bits below a bound's, where they would grow with the gap."""
    ends = s_hi[:2], top[:2], s_lo[:2], s_hi[2:], s_lo[2:], top[2:]
    if e < max(f for _, f in ends) - 2 * _prec:
        return None
    return tuple(m << (f - e) if f >= e else -(-m >> (e - f)) if up else m >> (e - f)
                 for (m, f), up in zip(ends, (False, False, True, False, True, False)))


def _walk_level(q, s_hi, s_lo, top, nodes, flags, tables, last=False):
    """One level of the branch walk: the children, their flags and the
    forks of the nodes with the given flags, or None at the first undecided
    node wider than the switch region [s_lo, s_hi] (by _wider, unless the
    node's table entry shows it narrower).  A node is tested
    against digit 0's domain [0, s_hi] and digit 1's [s_lo, top] by int
    compares with the bounds at its ends' exponents, or by _within where
    no entry serves; its children are q y, rounded as _mul rounds it for
    q > 0, and q y - 1, rounded as _add rounds it.  tables is the walk's
    own pair of dicts, empty at its first level, which fill by a node
    end's exponent e: _bounds_at's entries, made before the first node at
    e is classified from them, and digit 1's units 2**-e for
    -_prec <= e < 0.  At the walk's last level (last true) every node is
    classified and the forks found as above, but the children are only
    counted: the number of children and the number of certified ones
    stand in for the two lists."""
    qam, qae, qbm, qbe = q
    bounds, units = tables
    prec = _prec
    within = None  # _within's two tests, built at most once a level
    nxt, marks, forks = [], [], []
    push, mark = nxt.append, marks.append
    size = sure = 0
    for y, certified in zip(nodes, flags):
        am, ae, bm, be = y
        try:
            t = bounds[ae] if ae == be else bounds[be][:3] + bounds[ae][3:]
        except (KeyError, TypeError):  # an exponent met first, or None (too far)
            for e in (ae, be):
                if e not in bounds:
                    bounds[e] = _bounds_at(e, s_hi, s_lo, top)
            lo, hi = bounds[ae], bounds[be]
            t = lo and hi and hi[:3] + lo[3:]  # None where either is
        if t is None:
            within = within or (_within(_ZERO, s_hi), _within(s_lo, top))
            m0, m1 = within[0](y), within[1](y)
        else:
            b0, b1, b2, a0, a1, a2 = t
            m0 = m1 = None
            if am >= 0 and bm <= b0:
                m0 = True
            elif bm < 0 or am > a0:
                m0 = False
            if am >= a1 and bm <= b1:
                m1 = True
            elif bm < b2 or am > a2:
                m1 = False
        if m0 is None or m1 is None:
            # at one exponent e, a width of at most floor(s_hi.hi / 2**e) -
            # ceil(s_lo.lo / 2**e) units 2**e is not wider than the region
            if (t is None or ae != be or bm - am > a0 - b2) and _wider(y, s_lo[:2] + s_hi[2:]):
                return None
        elif m0 and m1:
            forks.append(y)
        elif m0 is False and m1 is False:
            continue
        if last:
            size += (m0 is not False) + (m1 is not False)
            if certified:
                sure += (m0 is True) + (m1 is True)
            continue
        if am >= 0:
            am, ae = am * qam, ae + qae
        else:
            am, ae = am * qbm, ae + qbe
        if bm >= 0:
            bm, be = bm * qbm, be + qbe
        else:
            bm, be = bm * qam, be + qae
        n = am.bit_length() - prec
        if n > 0:
            am, ae = am >> n, ae + n
        n = bm.bit_length() - prec
        if n > 0:
            bm, be = -(-bm >> n), be + n
        if m0 is not False:
            push((am, ae, bm, be))
            mark(certified and m0 is True)
        if m1 is not False:
            try:  # _add's exact sum, a subtraction where the table holds the units
                am, bm = am - units[ae], bm - units[be]
            except KeyError:  # an exponent met first, or one outside [-_prec, 0)
                push(_add((am, ae, bm, be), (-1, 0, -1, 0)))
                units.update((e, 1 << -e) for e in (ae, be) if -prec <= e < 0)
            else:
                n = am.bit_length() - prec
                if n > 0:
                    am, ae = am >> n, ae + n
                n = bm.bit_length() - prec
                if n > 0:
                    bm, be = -(-bm >> n), be + n
                push((am, ae, bm, be))
            mark(certified and m1 is True)
    return (size, sure, forks) if last else (nxt, marks, forks)


def _sign(*terms) -> int:
    """The sign of the sum of at most four ends (m, e): added exactly from the
    highest top bit down until the partial sum's last unit lies two bits above
    the next term's top bit, where it decides (what is left sums to less than
    three such top bits), so no shift outgrows the mantissas."""
    m = e = 0
    for t, f, n in sorted([(f + abs(n).bit_length(), f, n) for n, f in terms if n], reverse=True):
        if not m:
            m, e = n, f
        elif e >= t + 2:
            break
        elif e >= f:
            m, e = (m << (e - f)) + n, f
        else:
            m += n << (f - e)
    return (m > 0) - (m < 0)


def _wider(x, y) -> bool:
    """Is the node x wider than the node y?  Exact: the sign of
    (x_hi - x_lo) - (y_hi - y_lo), which _sign decides on the four ends, so
    no shift grows with an exponent gap."""
    am, ae, bm, be = x
    cm, ce, dm, de = y
    return _sign((bm, be), (-am, ae), (-dm, de), (cm, ce)) > 0


# ======================================================================
# k-Bonacci roots
# ======================================================================

@dataclass(frozen=True)
class BonacciRoot:
    """The unique root in (1, 2) of x^k = x^(k-1) + ... + x + 1.

    `value` is a certified enclosure; `bracket` the exact dyadic bracket it
    came from, the aligned cell of width 2^-(bits+2) that holds the root,
    confirmed by two exact sign tests; kept for exact downstream sign
    arguments.
    """
    k: int
    value: Enclosure
    bracket: tuple[Fraction, Fraction]


def characteristic_sign(k: int, x: Fraction) -> int:
    """Exact sign of x^(k+1) - 2 x^k + 1 at a rational point.

    This form has no cancellation blow-up: with x = n/d the sign equals
    sign(n^k (n - 2d) + d^(k+1)), a pure integer computation.
    """
    n, d = x.numerator, x.denominator
    v = n ** k * (n - 2 * d) + d ** (k + 1)
    return (v > 0) - (v < 0)


def _newton_cell(k: int, e: int) -> int:
    """Estimate n with the root in the cell [n, n+1] / 2^e: Newton's method on
    x^(k+1) - 2x^k + 1 in integers, x held as X / 2^p with 32 guard bits.

    Started at 2 - 2^-k, where the polynomial is positive, increasing and
    convex, every iterate stays at or above the root: each step is rounded
    down, so it moves no farther than the exact Newton step.  The iteration
    stops when the step rounds to 0.
    """
    p = e + 32
    one = 1 << p
    x = 2 * one - (one >> k)
    top = 1 << (p * (k + 1))  # the constant 1, scaled like x^(k+1)
    while True:
        xk1 = x ** (k - 1)
        xk = xk1 * x
        f = xk * x - (xk << (p + 1)) + top
        df = (k + 1) * xk - ((2 * k * xk1) << p)
        step = f // df
        if step <= 0:
            return x >> (p - e)
        x -= step


def _confirm_cell(k: int, e: int, n: int) -> tuple[int, int]:
    """Numerators (lo, hi) of the aligned cell [lo, lo+1] / 2^e that holds
    the root, found from the estimate n by exact sign tests.

    On [3/2, 2] the polynomial x^(k+1) - 2x^k + 1 changes sign exactly
    once, at the root we want: it is negative at 3/2 (value 1 - x^k(2-x)
    with x^k(2-x) > 1 there for every k >= 2) and equals +1 at x = 2.  By
    the rational root theorem its only rational root is 1, so no grid
    point is a root and the sign is never 0.  The estimate n, clamped into
    the open range (3/2, 2) of grid points, is probed, then its neighbour on
    the root's side, so that an estimate one cell off (as Newton's method
    gives where the root lies just below a grid point, or at 2 itself for
    orders past its guard bits) costs two tests too; one farther off falls
    back to bisection between grid points of known sign, so it costs time,
    never correctness.
    """
    def probe(m: int) -> None:
        nonlocal lo, hi
        if characteristic_sign(k, Fraction(m, 1 << e)) < 0:
            lo = m
        else:
            hi = m

    assert characteristic_sign(k, Fraction(3, 2)) < 0
    lo, hi = 3 << (e - 1), 1 << (e + 1)  # 3/2 and 2, of known sign
    n = min(max(n, lo + 1), hi - 1)
    probe(n)
    m = n + 1 if lo == n else n - 1
    if lo < m < hi:
        probe(m)
    while hi - lo > 1:
        probe((lo + hi) // 2)
    return lo, hi


@lru_cache(maxsize=None)
def _root_bracket(k: int, precision_bits: int) -> tuple[Fraction, Fraction]:
    # the aligned dyadic cell of width 2^-(bits+2) that holds the root
    e = precision_bits + 2
    lo, hi = _confirm_cell(k, e, _newton_cell(k, e))
    return Fraction(lo, 1 << e), Fraction(hi, 1 << e)


def bonacci_root(k: int) -> BonacciRoot:
    """Certified enclosure of the k-Bonacci base (k = 2: the golden ratio).

    The returned enclosure has width <= 2^(-p) at the working precision p
    and provably contains the unique root in (1, 2): the characteristic
    polynomial changes sign across the bracket, checked in exact integer
    arithmetic.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    lo, hi = _root_bracket(k, _prec)
    # the bracket ends are dyadic, so from_endpoints keeps them exactly
    return BonacciRoot(k=k, value=Enclosure.from_endpoints(lo, hi), bracket=(lo, hi))


# ======================================================================
# projections of digit sequences
# ======================================================================

def _seq_parts(seq) -> tuple[tuple, tuple]:
    """Duck-typed (preperiod, period) digit tuples from seq.

    Accepts anything with .preperiod / .period (each a word or tuple),
    anything with .digits (a finite word, implicitly padded with 0^inf),
    or a bare iterable of digits.
    """
    if hasattr(seq, "preperiod") and hasattr(seq, "period"):
        pre, per = seq.preperiod, seq.period
        pre = tuple(pre.digits) if hasattr(pre, "digits") else tuple(pre)
        per = tuple(per.digits) if hasattr(per, "digits") else tuple(per)
        return pre, per
    if hasattr(seq, "digits"):
        return tuple(seq.digits), ()
    return tuple(seq), ()


@lru_cache(maxsize=4)  # a request reads its runs of ones at one or two bases
def _ones_chain(q: tuple, prec: int) -> list:
    """Horner's accumulator after j ones, at entry j, for q's ends at working
    precision prec; _horner extends the list as longer runs come."""
    return [_ZERO]


def _horner(word, q) -> tuple:
    """The ends of sum_j word[j-1] q^(-j), as the loop acc = (acc + d) / q
    over word back to front from its last nonzero digit: _add's digit sum
    and _div's two _quotient roundings are written out, with q's sign and
    zero test taken once (for any nonempty word).  The loop starts from the
    accumulator after the word's trailing run of ones, kept per (q's ends,
    precision) in _ones_chain: the same steps in the same order, so the
    same ends, with each base's run divided through once, not per word."""
    if not word:
        return _ZERO
    cm, ce, dm, de = q
    if cm <= 0 <= dm:
        raise PrecisionError(f"non-finite endpoint from {_DIV}")
    flip = dm < 0  # x / q = -x / -q, both negated exactly
    if flip:
        cm, ce, dm, de = -dm, de, -cm, ce
    cb, db, prec = cm.bit_length(), dm.bit_length(), _prec
    n = len(word)
    while n and not word[n - 1]:  # a zero accumulator stays exactly zero
        n -= 1
    j = n
    while j and word[j - 1] == 1:
        j -= 1
    chain = _ones_chain(q, prec)
    held = min(n - j, len(chain) - 1)  # the run's ones the chain holds
    grow = n - j - held  # the loop's first steps extend the chain
    am, ae, bm, be = chain[held]
    for d in reversed(word[:n - held]):
        if d:  # acc has at most _prec bits, or is a power of two: + 0 keeps it
            if -prec <= ae <= prec:
                am, ae = ((am << ae) + d, 0) if ae >= 0 else (am + (d << -ae), ae)
            else:
                am, ae = _sum(am, ae, d, 0)
            if -prec <= be <= prec:
                bm, be = ((bm << be) + d, 0) if be >= 0 else (bm + (d << -be), be)
            else:
                bm, be = _sum(bm, be, d, 0)
            n = am.bit_length() - prec
            if n > 0:
                am, ae = am >> n, ae + n
            n = bm.bit_length() - prec
            if n > 0:
                bm, be = -(-bm >> n), be + n
        if flip:
            am, ae, bm, be = -bm, be, -am, ae
        # each end has at most prec + 1 bits here (rounding up carries
        # one) and q's mantissas at least one, so both shifts k are >= 1.
        # lower end: over q's upper end when it is not negative, else its lower
        m, f, b = (dm, de, db) if am >= 0 else (cm, ce, cb)
        k = prec + 1 + b - am.bit_length()
        am, ae = (am << k) // m, ae - f - k
        n = am.bit_length() - prec
        if n > 0:
            am, ae = am >> n, ae + n
        m, f, b = (dm, de, db) if bm <= 0 else (cm, ce, cb)
        k = prec + 1 + b - bm.bit_length()
        bm, be = -((-bm << k) // m), be - f - k
        n = bm.bit_length() - prec
        if n > 0:
            bm, be = -(-bm >> n), be + n
        if grow:
            chain.append((am, ae, bm, be))
            grow -= 1
    return am, ae, bm, be


def pi_q(seq, q) -> Enclosure:
    """Certified value of a digit sequence in base q:  sum_j d_j q^(-j).

    `seq` may be a finite word (padded with 0^inf) or an eventually periodic
    sequence with preperiod u and period v, evaluated in closed form as

        value(u) + q^(-|u|) * value(v) / (1 - q^(-|v|)).

    Digits may come from {-1, 0, 1}; the result always lies within
    [-1/(q-1), 1/(q-1)].  u and v go through _horner, which divides through
    a base's run of ones once for every word that ends in part of it.
    """
    q = as_enclosure(q)
    pre, per = _seq_parts(seq)
    for d in pre + per:
        if d not in (-1, 0, 1):
            raise ValueError(f"digit {d!r} outside {{-1, 0, 1}}")
    acc, pv = (Enclosure._wrap(_horner(word, q._ends)) for word in (pre, per))
    if per:
        acc = acc + q ** (-len(pre)) * pv / (1 - q ** (-len(per)))
    return acc
