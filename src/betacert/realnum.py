"""Certified real arithmetic over outward-rounded interval enclosures.

Everything downstream (gap enumeration, thickness, the certification
pipelines) runs on the Enclosure type defined here: a closed interval
[lo, hi] of binary floats, outward-rounded by construction, guaranteed to
contain the exact real number it stands for.  Comparisons are tri-valued:
True / False only when the endpoints certify the answer, None when the
enclosures overlap and the question is undecidable at the working precision.

Also provided:

    bonacci_root(k)     the unique root in (1, 2) of
                            x^k = x^(k-1) + ... + x + 1,
                        isolated by bisection with *exact* integer sign
                        tests of the cancellation-free equivalent
                            x^(k+1) - 2 x^k + 1 = 0
                        (dyadic midpoints, no rounding anywhere);

    pi_q(seq, q)        evaluation of a digit sequence (d_j) as
                            sum_j d_j q^(-j),  d_j in {-1, 0, 1},
                        for finite words (implicitly padded with 0^inf)
                        and eventually periodic sequences, via the closed
                        form  value(u) + q^(-|u|) value(v) / (1 - q^(-|v|));

    projection_gap      |pi_{q1}(seq) - pi_{q2}(seq)| together with a
                        consistency check against the a-priori bound
                            |q1 - q2| / ((q1 - 1)(q2 - 1)).

An Enclosure holds its two endpoints as raw mpmath (libmp) tuples.  Every
operation -- arithmetic, powers, logarithms, parsing and printing -- calls
mpmath's interval kernels (libmpi) on them directly, passing the working
precision; comparisons and report floats read them directly.  No mpmath
context is read or written, so a host program's mpmath settings and this
module's precision never affect each other.

Both endpoints are always finite.  Only division, powers, logarithms and
decimal parsing can make an infinite or nan endpoint from finite operands,
and each of them raises where it happens: PrecisionError for the three
operations (a division by an enclosure that contains zero, say), and
ValueError for a string such as "inf".  Compares, keys and exact reads
therefore never re-check.  A logarithm or a non-integer power is refused
before the kernel runs when its argument reaches below zero: ValueError
if the argument is certifiably negative, PrecisionError if it straddles
zero.  A logarithm of exactly 0, or to a base of exactly 0 or 1, raises
ValueError.

The working precision belongs to this module: default 256 bits,
overridable with set_precision() or the `precision` context manager, or the
BETACERT_PREC environment variable at import time (at least 64 bits, like
set_precision).  Values are immutable: an Enclosure built at one precision
keeps its exact endpoints; only new operations round at the then-current
precision.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import nextafter
from typing import Optional

from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_cmp, mpf_mul, mpf_sign,
                          mpf_sub, round_ceiling, round_floor, to_float, to_int)
from mpmath.libmp.libmpi import (mpi_abs, mpi_add, mpi_div, mpi_from_str, mpi_log,
                                 mpi_mul, mpi_neg, mpi_pow, mpi_sub, mpi_to_str)


DEFAULT_PRECISION = 256
_ENV_PRECISION = "BETACERT_PREC"  # the environment variable read at import

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


def _precision_from_env() -> int:
    text = os.environ.get(_ENV_PRECISION)
    if text is None:
        return DEFAULT_PRECISION
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{_ENV_PRECISION} must be an integer number of bits "
                         f">= 64, got {text!r}") from None


set_precision(_precision_from_env())


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

def _finite(raw, op: str, error: type = PrecisionError) -> tuple:
    """raw, the endpoints op produced, if both are finite; else raise error
    naming op.  A libmp tuple (sign, man, exp, bc) with bc < 0 is inf or nan."""
    if raw[0][3] < 0 or raw[1][3] < 0:
        raise error(f"non-finite endpoint from {op}")
    return raw


_DIVISION = "a division by an enclosure that contains zero"


def _not_negative(raw, what: str) -> tuple:
    """raw, the argument of a logarithm or the base of a non-integer power,
    unless it reaches below zero: ValueError naming what when it is
    certifiably negative, PrecisionError when it straddles zero or reaches
    it from below."""
    lo, hi = raw
    if mpf_sign(lo) >= 0:
        return raw
    if mpf_sign(hi) < 0:
        raise ValueError(f"{what} is negative")
    raise PrecisionError(f"{what} reaches below zero")


def _raw_to_fraction(raw) -> Fraction:
    # raw is a finite libmp mpf tuple (sign, man, exp, bc); zero has exp 0
    sign, man, exp, _ = raw
    m = int(man)
    if sign:
        m = -m
    return Fraction(m) * Fraction(2) ** exp if exp >= 0 else Fraction(m, 2 ** (-exp))


def exact_keys(raws) -> list[int]:
    """Integers ordered exactly as the given raw libmp endpoints.

    Each finite endpoint +-man * 2**exp becomes +-man << (exp - e0), with
    e0 the least exponent in this list, so integer order and equality are
    exactly rational order and equality.  Keys from different calls are
    not comparable.  ``Enclosure.raw`` supplies the endpoints.
    """
    raws = list(raws)
    e0 = min((exp for (_, _, exp, _) in raws), default=0)
    return [(-man if sign else man) << (exp - e0) for (sign, man, exp, _) in raws]


_FLOAT_ERROR = ("binary floats are not exact inputs; pass a Fraction or a "
                "decimal string such as '0.1'")


def _int_raw(n: int) -> tuple:
    """Endpoints of n at the working precision: the exact point when n fits
    in it, else n rounded down and up."""
    if n.bit_length() <= _prec:
        v = from_int(n)
        return v, v
    return from_int(n, _prec, round_floor), from_int(n, _prec, round_ceiling)


def _fraction_raw(fr: Fraction) -> tuple:
    """Endpoints of numerator / denominator, each converted like an int and
    divided with outward rounding at the working precision."""
    return mpi_div(_int_raw(fr.numerator), _int_raw(fr.denominator), _prec)


def _endpoint(x, side: int) -> tuple:
    """Raw endpoint for from_endpoints: a dyadic Fraction exactly, anything
    else the lower (side 0) or upper (side 1) end of Enclosure(x)."""
    if isinstance(x, Fraction) and x.denominator & (x.denominator - 1) == 0:
        return from_man_exp(x.numerator, 1 - x.denominator.bit_length())
    return Enclosure(x)._raw[side]


def _double_safe(raw) -> bool:
    """Is raw zero, or in the normal double range with room to round up?
    There libmp's floor and ceiling to a double give the right neighbour;
    subnormals and values near 2**1024 take the rational route instead."""
    _, man, exp, bc = raw
    return not man or -1021 <= exp + bc <= 1023


class Enclosure:
    """A closed interval [lo, hi] certified to contain one exact real.

    The endpoints are raw libmp tuples, the only state an Enclosure holds.
    Every operation calls mpmath's interval kernels on them at the working
    precision (outward rounding).  Comparisons are explicit tri-valued
    methods -- the class deliberately defines no ordering dunders, so an
    Enclosure can never end up inside sorted() by accident.
    """

    __slots__ = ("_raw",)

    def __init__(self, value):
        raw = self._coerce(value)
        if raw is None:
            raise TypeError(f"cannot enclose a {type(value).__name__}; pass an int, "
                            "a Fraction, a decimal string or an Enclosure")
        self._raw = raw

    @classmethod
    def from_endpoints(cls, lo, hi) -> "Enclosure":
        """[lo, hi]: a dyadic Fraction endpoint is kept exactly, any other is
        the lower (for lo) or upper (for hi) end of its own enclosure."""
        a, b = _endpoint(lo, 0), _endpoint(hi, 1)
        if mpf_cmp(a, b) > 0:
            raise ValueError("endpoints must be properly ordered")
        return cls._wrap((a, b))

    # -- exact endpoint access -----------------------------------------

    @property
    def raw(self) -> tuple:
        """The (lo, hi) endpoints as raw libmp tuples, for exact_keys."""
        return self._raw

    @property
    def lo(self) -> Fraction:
        """Exact lower endpoint as a rational (endpoints are binary floats)."""
        return _raw_to_fraction(self._raw[0])

    @property
    def hi(self) -> Fraction:
        return _raw_to_fraction(self._raw[1])

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    @property
    def mid(self) -> Fraction:
        return (self.hi + self.lo) / 2

    def float_bounds(self) -> tuple[float, float]:
        """Endpoints as doubles, rounded *outward* (for reports only)."""
        a, b = self._raw
        if _double_safe(a) and _double_safe(b):
            return to_float(a, rnd=round_floor), to_float(b, rnd=round_ceiling)
        # subnormal or huge: the exact route, which raises OverflowError
        # beyond the double range
        lo, hi = self.lo, self.hi
        lo_f, hi_f = float(lo), float(hi)
        if Fraction(lo_f) > lo:
            lo_f = nextafter(lo_f, float("-inf"))
        if Fraction(hi_f) < hi:
            hi_f = nextafter(hi_f, float("inf"))
        return lo_f, hi_f

    # -- arithmetic ------------------------------------------------------

    @staticmethod
    def _coerce(other):
        """Raw endpoints of an operand, or None for an unsupported type."""
        if isinstance(other, Enclosure):
            return other._raw
        if isinstance(other, int):
            return _int_raw(other)
        if isinstance(other, Fraction):
            return _fraction_raw(other)
        if isinstance(other, str):
            return _finite(mpi_from_str(other, _prec), f"the decimal string {other!r}",
                           ValueError)
        if isinstance(other, float):
            raise TypeError(_FLOAT_ERROR)
        return None

    @staticmethod
    def _wrap(raw) -> "Enclosure":
        """Enclosure around raw endpoints already computed (no rounding)."""
        out = Enclosure.__new__(Enclosure)
        out._raw = raw
        return out

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_add(self._raw, o, _prec))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_sub(self._raw, o, _prec))

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_sub(o, self._raw, _prec))

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_mul(self._raw, o, _prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_finite(
            mpi_div(self._raw, o, _prec), _DIVISION))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(_finite(
            mpi_div(o, self._raw, _prec), _DIVISION))

    def __pow__(self, exponent):
        o = self._coerce(exponent)
        if o is None:
            return NotImplemented
        base = self._raw
        if o[0] != o[1] or from_int(to_int(o[0])) != o[0]:
            base = _not_negative(base, "the base of a non-integer power")
        return self._wrap(_finite(
            mpi_pow(base, o, _prec), "a power of an enclosure that contains zero"))

    def __neg__(self):
        return self._wrap(mpi_neg(self._raw, _prec))

    def __abs__(self):
        return self._wrap(mpi_abs(self._raw, _prec))

    # -- tri-valued comparisons ------------------------------------------
    #
    # .lt(b) asks: is the real in self certainly < the real in b?
    # True / False only with certainty, else None.  All four are decided
    # exactly on the raw endpoints.

    def lt(self, other) -> Optional[bool]:
        a, b = self._raw
        c, d = as_enclosure(other)._raw
        if mpf_cmp(b, c) < 0:
            return True
        if mpf_cmp(a, d) >= 0:
            return False
        return None

    def le(self, other) -> Optional[bool]:
        a, b = self._raw
        c, d = as_enclosure(other)._raw
        if mpf_cmp(b, c) <= 0:
            return True
        if mpf_cmp(a, d) > 0:
            return False
        return None

    def gt(self, other) -> Optional[bool]:
        r = self.le(other)
        return None if r is None else not r

    def ge(self, other) -> Optional[bool]:
        r = self.lt(other)
        return None if r is None else not r

    def encloses(self, x) -> bool:
        """Exact test: does the interval [lo, hi] contain the rational x?"""
        if isinstance(x, float):
            raise TypeError(_FLOAT_ERROR)
        x = Fraction(x)
        return self.lo <= x <= self.hi

    def is_subset_of(self, other: "Enclosure") -> bool:
        a, b = self._raw
        c, d = other._raw
        return mpf_cmp(a, c) >= 0 and mpf_cmp(b, d) <= 0

    def intersects(self, other: "Enclosure") -> bool:
        a, b = self._raw
        c, d = other._raw
        return mpf_cmp(a, d) <= 0 and mpf_cmp(c, b) <= 0

    # -- structural equality (same endpoints), usable for dedup ----------
    # libmp tuples are normalised, so equal values have equal tuples

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        return self._raw == other._raw

    def __hash__(self):
        return hash(self._raw)

    def __repr__(self):
        return f"Enclosure({mpi_to_str(self._raw, 20)})"

    def str_digits(self, digits: int = 20) -> str:
        return mpi_to_str(self._raw, digits)


def as_enclosure(x) -> Enclosure:
    """Coerce int / Fraction / decimal string / Enclosure to an Enclosure."""
    return x if isinstance(x, Enclosure) else Enclosure(x)


def _envelope(xs, sign: int) -> Enclosure:
    """Endpoint-wise min (sign -1) or max (sign +1) of the enclosures xs.

    The chosen endpoints are exact, so nothing rounds."""
    picked = []
    for side in (0, 1):
        best, *rest = [x._raw[side] for x in xs]
        for r in rest:
            if mpf_cmp(r, best) == sign:
                best = r
        picked.append(best)
    return Enclosure._wrap(tuple(picked))


def enc_min(*xs: Enclosure) -> Enclosure:
    """Enclosure of min(x_1, ..., x_n) for reals x_i enclosed by xs."""
    return _envelope(xs, -1)


def enc_max(*xs: Enclosure) -> Enclosure:
    return _envelope(xs, 1)


def enc_log(x, base=None) -> Enclosure:
    x = _not_negative(as_enclosure(x)._raw, "the argument of a logarithm")
    if x == (fzero, fzero):  # mpi_log would give -inf
        raise ValueError("the argument of a logarithm is zero")
    value = mpi_log(x, _prec)
    if base is not None:
        base = _not_negative(as_enclosure(base)._raw, "the base of a logarithm")
        if base == (fzero, fzero):  # mpi_log would give -inf and the quotient 0
            raise ValueError("the base of a logarithm is zero")
        if base == (fone, fone):  # mpi_log would give a zero divisor
            raise ValueError("the base of a logarithm is one")
        value = mpi_div(value, mpi_log(base, _prec), _prec)
    return Enclosure._wrap(_finite(value, "a logarithm of an enclosure that reaches "
                                          "zero, or to a base that contains 1"))


def membership(x: Enclosure, lo: Enclosure, hi: Enclosure) -> Optional[bool]:
    """Certified membership of the real x in the interval [lo, hi].

    lo and hi are themselves enclosures of the (possibly irrational)
    interval endpoints.  True means: for every admissible choice of the
    endpoints, x surely lies inside.  False means x surely lies outside.
    None otherwise (fail-closed for callers that count).
    """
    return _within(as_enclosure(x)._raw, lo._raw, hi._raw)


def _within(x, lo, hi) -> Optional[bool]:
    """membership on raw pairs, the kernel it shares with the branch walk.
    A lower end that is exactly 0 (mantissa 0; endpoints are finite) is a
    sign test: libmp's zero has sign bit 0."""
    a, b = x
    lo_a, lo_b = lo
    hi_a, hi_b = hi
    if (mpf_cmp(a, lo_b) >= 0 if lo_b[1] else not a[0]) and mpf_cmp(b, hi_a) <= 0:
        return True
    if (mpf_cmp(b, lo_a) < 0 if lo_a[1] else b[0]) or mpf_cmp(a, hi_b) > 0:
        return False
    return None


def _affine(q, x, eps: int) -> tuple:
    """Raw q x - eps for a digit eps, rounded exactly as Enclosure's
    q * x - eps; q's lower end must be positive."""
    a, b = x
    if a[1] and not a[0]:  # x > 0 as well: mpi_mul's positive branch, inlined
        x = mpf_mul(q[0], a, _prec, round_floor), mpf_mul(q[1], b, _prec, round_ceiling)
    else:
        x = mpi_mul(q, x, _prec)
    if eps:  # the product has at most _prec bits: subtracting 0 would return it
        n = from_int(eps)
        x = mpf_sub(x[0], n, _prec, round_floor), mpf_sub(x[1], n, _prec, round_ceiling)
    return x


def _wider(x, y) -> bool:
    """Is the raw pair x wider than the raw pair y?  Exact: no rounding."""
    return mpf_cmp(mpf_sub(x[1], x[0]), mpf_sub(y[1], y[0])) > 0


# ======================================================================
# k-Bonacci roots
# ======================================================================

@dataclass(frozen=True)
class BonacciRoot:
    """The unique root in (1, 2) of x^k = x^(k-1) + ... + x + 1.

    `value` is a certified enclosure; `bracket` the exact dyadic bisection
    bracket it came from, kept for exact downstream sign arguments.
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


@lru_cache(maxsize=None)
def _root_bracket(k: int, precision_bits: int) -> tuple[Fraction, Fraction]:
    # On [3/2, 2] the polynomial x^(k+1) - 2x^k + 1 changes sign exactly
    # once, at the root we want: it is negative at 3/2 (value 1 - x^k(2-x)
    # with x^k(2-x) > 1 there for every k >= 2) and equals +1 at x = 2.
    lo, hi = Fraction(3, 2), Fraction(2)
    assert characteristic_sign(k, lo) < 0
    target = Fraction(1, 2 ** (precision_bits + 2))
    while hi - lo > target:
        mid = (lo + hi) / 2
        s = characteristic_sign(k, mid)
        if s < 0:
            lo = mid
        elif s > 0:
            hi = mid
        else:  # rational root impossible for k >= 2, but be total
            return (mid, mid)
    return (lo, hi)


def bonacci_root(k: int, precision_bits: Optional[int] = None) -> BonacciRoot:
    """Certified enclosure of the k-Bonacci base (k = 2: the golden ratio).

    The returned enclosure has width <= 2^(-precision_bits) (default: the
    working precision) and provably contains the unique root in (1, 2):
    the characteristic polynomial changes sign across the bracket, checked
    in exact integer arithmetic.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    bits = _prec if precision_bits is None else precision_bits
    if bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {bits}")
    lo, hi = _root_bracket(k, bits)
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


def _horner(digits: tuple, q: Enclosure) -> Enclosure:
    # sum_{i=1..n} d_i q^(-i), evaluated back to front, one division per digit
    acc = Enclosure(0)
    for d in reversed(digits):
        acc = (acc + d) / q
    return acc


def pi_q(seq, q) -> Enclosure:
    """Certified value of a digit sequence in base q:  sum_j d_j q^(-j).

    `seq` may be a finite word (padded with 0^inf) or an eventually periodic
    sequence with preperiod u and period v, evaluated in closed form as

        value(u) + q^(-|u|) * value(v) / (1 - q^(-|v|)).

    Digits may come from {-1, 0, 1}; the result always lies within
    [-1/(q-1), 1/(q-1)].
    """
    q = as_enclosure(q)
    pre, per = _seq_parts(seq)
    for d in pre + per:
        if d not in (-1, 0, 1):
            raise ValueError(f"digit {d!r} outside {{-1, 0, 1}}")
    acc = _horner(pre, q)
    if per:
        pv = _horner(per, q)
        acc = acc + q ** (-len(pre)) * pv / (1 - q ** (-len(per)))
    return acc


def projection_gap(q1, q2, seq) -> Enclosure:
    """|pi_{q1}(seq) - pi_{q2}(seq)|, sanity-checked against the a-priori
    bound |q1 - q2| / ((q1 - 1)(q2 - 1)).

    Returns the computed difference.  A *certified* violation of the bound
    would mean a broken invariant somewhere upstream and raises.
    """
    q1, q2 = as_enclosure(q1), as_enclosure(q2)
    diff = abs(pi_q(seq, q1) - pi_q(seq, q2))
    bound = abs(q1 - q2) / ((q1 - 1) * (q2 - 1))
    if diff.gt(bound) is True:
        raise ArithmeticError(
            f"projection difference {diff!r} certified above its bound {bound!r}"
        )
    return diff
