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

An Enclosure holds its two endpoints as raw mpmath (libmp) tuples.  The
arithmetic operators call mpmath's interval kernels (libmpi) on them
directly, and comparisons and report floats read them directly, so the hot
paths never go through mpmath's number-object dispatch; powers, logarithms
and printing still do.

Precision is a module-global (mpmath's interval context), default 256 bits,
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

from mpmath import iv, mp
from mpmath.libmp import from_int, fzero, mpf_cmp, round_ceiling, round_floor, to_float
from mpmath.libmp.libmpi import mpi_abs, mpi_add, mpi_div, mpi_mul, mpi_neg, mpi_sub


DEFAULT_PRECISION = 256


class PrecisionError(ArithmeticError):
    """Raised when the working precision cannot certify a required claim."""


# ======================================================================
# precision control
# ======================================================================

def set_precision(bits: int) -> int:
    """Set the global working precision (bits of mantissa). Returns it."""
    if bits < 64:
        raise ValueError(f"precision must be >= 64 bits, got {bits}")
    iv.prec = bits
    return bits


def get_precision() -> int:
    return iv.prec


def _precision_from_env() -> int:
    text = os.environ.get("BETACERT_PREC")
    if text is None:
        return DEFAULT_PRECISION
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"BETACERT_PREC must be an integer number of bits "
                         f">= 64, got {text!r}") from None


set_precision(_precision_from_env())


@contextmanager
def precision(bits: int):
    """Temporarily run at a different working precision."""
    old = iv.prec
    set_precision(bits)
    try:
        yield
    finally:
        iv.prec = old


# ======================================================================
# Enclosure
# ======================================================================

def _raw_to_fraction(raw) -> Fraction:
    # raw is a libmp mpf tuple (sign, man, exp, bc); man == 0 with bc < 0
    # encodes inf/nan, which never legitimately appears in an enclosure.
    sign, man, exp, bc = raw
    if man == 0:
        if bc != 0:
            raise PrecisionError("non-finite endpoint in enclosure")
        return Fraction(0)
    m = int(man)
    if sign:
        m = -m
    return Fraction(m) * Fraction(2) ** exp if exp >= 0 else Fraction(m, 2 ** (-exp))


def _cmp(s, t) -> int:
    """Exact order (-1, 0, 1) of two raw libmp endpoints, decided with no
    rational conversion; a non-finite one (bc < 0) raises like .lo/.hi."""
    if s[3] < 0 or t[3] < 0:
        raise PrecisionError("non-finite endpoint in enclosure")
    return mpf_cmp(s, t)


def exact_keys(raws) -> list[int]:
    """Integers ordered exactly as the given raw libmp endpoints.

    Each finite endpoint +-man * 2**exp becomes +-man << (exp - e0), with
    e0 the least exponent in this list, so integer order and equality are
    exactly rational order and equality.  Keys from different calls are
    not comparable.  ``Enclosure.raw`` supplies the endpoints.
    """
    raws = list(raws)
    if any(bc < 0 for (_, _, _, bc) in raws):
        raise PrecisionError("non-finite endpoint in enclosure")
    e0 = min((exp for (_, _, exp, _) in raws), default=0)
    return [(-man if sign else man) << (exp - e0) for (sign, man, exp, _) in raws]


_FLOAT_ERROR = ("binary floats are not exact inputs; pass a Fraction or a "
                "decimal string such as '0.1'")


def _fraction_to_mpf_exact(fr: Fraction):
    """Exact mpf for a dyadic rational (denominator a power of two)."""
    num, den = fr.numerator, fr.denominator
    with mp.workprec(max(abs(num).bit_length(), den.bit_length(), 64) + 8):
        return mp.mpf(num) / mp.mpf(den)


def _int_raw(n: int) -> tuple:
    """Endpoints of n at the working precision: the exact point when n fits
    in it, else n rounded down and up, as mpmath's interval context
    converts an int."""
    prec = iv.prec
    if n.bit_length() <= prec:
        v = from_int(n)
        return v, v
    return from_int(n, prec, round_floor), from_int(n, prec, round_ceiling)


def _fraction_raw(fr: Fraction) -> tuple:
    """Endpoints of numerator / denominator, each converted like an int and
    divided with outward rounding at the working precision."""
    return mpi_div(_int_raw(fr.numerator), _int_raw(fr.denominator), iv.prec)


def _double_safe(raw) -> bool:
    """Is raw zero, or in the normal double range with room to round up?
    There libmp's floor and ceiling to a double give the right neighbour;
    subnormals and values near 2**1024 take the rational route instead."""
    _, man, exp, bc = raw
    return raw == fzero or (bool(man) and -1021 <= exp + bc <= 1023)


class Enclosure:
    """A closed interval [lo, hi] certified to contain one exact real.

    The endpoints are raw libmp tuples.  Arithmetic calls mpmath's interval
    kernels on them at the working precision (outward rounding); powers
    and printing go through mpmath's interval context.  Comparisons are
    explicit tri-valued methods -- the class deliberately defines no
    ordering dunders, so an Enclosure can never end up inside sorted() by
    accident.
    """

    __slots__ = ("_raw", "_lo", "_hi")

    def __init__(self, value):
        if isinstance(value, float):
            raise TypeError(_FLOAT_ERROR)
        if isinstance(value, Enclosure):
            self._raw = value._raw
        elif isinstance(value, int):
            self._raw = _int_raw(value)
        elif isinstance(value, Fraction):
            self._raw = _fraction_raw(value)
        else:
            # decimal string, ivmpf, mpf
            self._raw = iv.mpf(value)._mpi_
        self._lo = None
        self._hi = None

    @classmethod
    def from_endpoints(cls, lo, hi) -> "Enclosure":
        if isinstance(lo, float) or isinstance(hi, float):
            raise TypeError(_FLOAT_ERROR)
        if isinstance(lo, Fraction):
            lo = _fraction_to_mpf_exact(lo) if lo.denominator & (lo.denominator - 1) == 0 \
                else iv.make_mpf(_fraction_raw(lo))
        if isinstance(hi, Fraction):
            hi = _fraction_to_mpf_exact(hi) if hi.denominator & (hi.denominator - 1) == 0 \
                else iv.make_mpf(_fraction_raw(hi))
        return cls._wrap(iv.mpf([lo, hi])._mpi_)

    # -- exact endpoint access -----------------------------------------

    @property
    def raw(self) -> tuple:
        """The (lo, hi) endpoints as raw libmp tuples, for exact_keys."""
        return self._raw

    @property
    def _iv(self):
        """The value as an mpmath interval, for its dispatching functions."""
        return iv.make_mpf(self._raw)

    @property
    def lo(self) -> Fraction:
        """Exact lower endpoint as a rational (endpoints are binary floats)."""
        if self._lo is None:
            self._lo = _raw_to_fraction(self._raw[0])
        return self._lo

    @property
    def hi(self) -> Fraction:
        if self._hi is None:
            self._hi = _raw_to_fraction(self._raw[1])
        return self._hi

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
        # subnormal, huge or non-finite: the exact route, which raises on
        # a non-finite endpoint or a double overflow
        lo_f = float(self.lo)
        hi_f = float(self.hi)
        if Fraction(lo_f) > self.lo:
            lo_f = nextafter(lo_f, float("-inf"))
        if Fraction(hi_f) < self.hi:
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
        if isinstance(other, float):
            raise TypeError(_FLOAT_ERROR)
        return None

    @staticmethod
    def _wrap(raw) -> "Enclosure":
        """Enclosure around raw endpoints already computed (no rounding)."""
        out = Enclosure.__new__(Enclosure)
        out._raw = raw
        out._lo = None
        out._hi = None
        return out

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_add(self._raw, o, iv.prec))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_sub(self._raw, o, iv.prec))

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_sub(o, self._raw, iv.prec))

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_mul(self._raw, o, iv.prec))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_div(self._raw, o, iv.prec))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else self._wrap(mpi_div(o, self._raw, iv.prec))

    def __pow__(self, exponent):
        if isinstance(exponent, int):
            return self._wrap((self._iv ** exponent)._mpi_)
        o = self._coerce(exponent)
        return NotImplemented if o is None else self._wrap((self._iv ** iv.make_mpf(o))._mpi_)

    def __neg__(self):
        return self._wrap(mpi_neg(self._raw, iv.prec))

    def __abs__(self):
        return self._wrap(mpi_abs(self._raw, iv.prec))

    # -- tri-valued comparisons ------------------------------------------
    #
    # .lt(b) asks: is the real in self certainly < the real in b?
    # True / False only with certainty, else None.  All four are decided
    # exactly on the raw endpoints.

    def lt(self, other) -> Optional[bool]:
        a, b = self._raw
        c, d = as_enclosure(other)._raw
        if _cmp(b, c) < 0:
            return True
        if _cmp(a, d) >= 0:
            return False
        return None

    def le(self, other) -> Optional[bool]:
        a, b = self._raw
        c, d = as_enclosure(other)._raw
        if _cmp(b, c) <= 0:
            return True
        if _cmp(a, d) > 0:
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
        return _cmp(a, c) >= 0 and _cmp(b, d) <= 0

    def intersects(self, other: "Enclosure") -> bool:
        a, b = self._raw
        c, d = other._raw
        return _cmp(a, d) <= 0 and _cmp(c, b) <= 0

    # -- structural equality (same endpoints), usable for dedup ----------
    # libmp tuples are normalised, so equal values have equal tuples

    def __eq__(self, other):
        if not isinstance(other, Enclosure):
            return NotImplemented
        return self._raw == other._raw

    def __hash__(self):
        return hash(self._raw)

    def __repr__(self):
        return f"Enclosure({iv.nstr(self._iv, 20)})"

    def str_digits(self, digits: int = 20) -> str:
        return iv.nstr(self._iv, digits)


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
            if _cmp(r, best) == sign:
                best = r
        picked.append(best)
    return Enclosure._wrap(tuple(picked))


def enc_min(*xs: Enclosure) -> Enclosure:
    """Enclosure of min(x_1, ..., x_n) for reals x_i enclosed by xs."""
    return _envelope(xs, -1)


def enc_max(*xs: Enclosure) -> Enclosure:
    return _envelope(xs, 1)


def enc_log(x, base=None) -> Enclosure:
    x = as_enclosure(x)
    value = iv.log(x._iv) if base is None else iv.log(x._iv) / iv.log(as_enclosure(base)._iv)
    return Enclosure._wrap(value._mpi_)


def membership(x: Enclosure, lo: Enclosure, hi: Enclosure) -> Optional[bool]:
    """Certified membership of the real x in the interval [lo, hi].

    lo and hi are themselves enclosures of the (possibly irrational)
    interval endpoints.  True means: for every admissible choice of the
    endpoints, x surely lies inside.  False means x surely lies outside.
    None otherwise (fail-closed for callers that count).
    """
    a, b = as_enclosure(x)._raw
    lo_a, lo_b = lo._raw
    hi_a, hi_b = hi._raw
    if _cmp(a, lo_b) >= 0 and _cmp(b, hi_a) <= 0:
        return True
    if _cmp(b, lo_a) < 0 or _cmp(a, hi_b) > 0:
        return False
    return None


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
    bits = iv.prec if precision_bits is None else precision_bits
    if bits < 64:
        raise ValueError(f"precision_bits must be >= 64, got {bits}")
    lo, hi = _root_bracket(k, bits)
    with precision(bits + 16):
        value = Enclosure.from_endpoints(lo, hi)
    return BonacciRoot(k=k, value=value, bracket=(lo, hi))


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
