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
                        isolated in the aligned dyadic cell of width
                        2^-(bits+2) that holds it: an integer Newton
                        estimate, confirmed by two *exact* integer sign
                        tests of the cancellation-free equivalent
                            x^(k+1) - 2 x^k + 1 = 0
                        at the cell's ends (no rounding anywhere);

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
precision; comparisons and report floats read them directly.  The branch
walk's kernel (membership, _step) holds the endpoints as signed integer
mantissas and exponents instead, and rounds exactly as those kernels do.
No mpmath context is read or written, so a host program's mpmath settings
and this module's precision never affect each other.

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
from math import ldexp, nextafter
from typing import Optional

from mpmath.libmp import (fone, from_int, from_man_exp, fzero, mpf_add, mpf_cmp, mpf_div,
                          mpf_sign, round_ceiling, round_floor, to_int)
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
        (s, m, e, c), (t, n, f, d) = self._raw
        # zero, or in the normal double range with room to round up: there
        # the signed mantissa cut to 53 bits (floor at the lower end, ceiling
        # at the upper) times its power of two is a double, exactly
        if (not m or -1021 <= e + c <= 1023) and (not n or -1021 <= f + d <= 1023):
            if s:
                m = -m
            if c > 53:
                m >>= c - 53
                e += c - 53
            if t:
                n = -n
            if d > 53:
                n = -(-n >> d - 53)
                f += d - 53
            return ldexp(m, e), ldexp(n, f)
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
    return _within(_ints(lo._raw), _ints(hi._raw))(_ints(as_enclosure(x)._raw))


# -- the branch-walk kernel ----------------------------------------------
#
# A node is an enclosure held as four Python ints (lo man, lo exp, hi man,
# hi exp), each end the value man * 2**exp with a signed mantissa.  The
# walk steps, classifies and measures nodes with integer shifts, products
# and compares; only nodes that leave it become libmp tuples.

def _ints(raw) -> tuple:
    """The node of a raw libmp pair (finite endpoints)."""
    (s, m, e, _), (t, n, f, _) = raw
    return -int(m) if s else int(m), e, -int(n) if t else int(n), f


def _mpf(m: int, e: int) -> tuple:
    """The raw libmp value m 2**e, normalised as from_man_exp normalises it:
    the sign apart, the trailing zero bits moved into the exponent."""
    if not m:
        return fzero
    s = 0
    if m < 0:
        s, m = 1, -m
    z = (m & -m).bit_length() - 1
    return s, m >> z, e + z, m.bit_length() - z


def _mpf_pair(node) -> tuple:
    """The raw libmp pair of a node: the same values, normalised."""
    am, ae, bm, be = node
    return _mpf(am, ae), _mpf(bm, be)


def _cmp(m: int, e: int, n: int, f: int) -> int:
    """An int with the sign of m 2**e - n 2**f: the difference, exact, at
    the smaller of the two exponents."""
    return (m << (e - f)) - n if e >= f else m - (n << (f - e))


def _within(lo, hi):
    """membership on nodes, the kernel it shares with the branch walk: the
    test of a node x against the bounds lo and hi, whose ends are read once.

    Each compare of an end m 2**e with a bound n 2**f is written out as
    _cmp's alignment, which this hot loop cannot afford to call."""
    lam, lae, lbm, lbe = lo
    ham, hae, hbm, hbe = hi

    def within(x) -> Optional[bool]:
        am, ae, bm, be = x
        if ((am << (ae - lbe)) >= lbm if ae >= lbe else am >= (lbm << (lbe - ae))) and \
                ((bm << (be - hae)) <= ham if be >= hae else bm <= (ham << (hae - be))):
            return True
        if ((bm << (be - lae)) < lam if be >= lae else bm < (lam << (lae - be))) or \
                ((am << (ae - hbe)) > hbm if ae >= hbe else am > (hbm << (hbe - ae))):
            return False
        return None

    return within


def _step(q, x, eps: int, scaled: bool = False) -> tuple:
    """The node q x - eps for a digit eps, rounded exactly as Enclosure's
    q * x - eps: the product rounded outward to _prec bits (floor at the
    lower end, ceiling at the upper; >> on a signed int is the floor), then
    eps subtracted exactly and the difference rounded outward again.  q's
    lower end must be positive, so each end of x takes the end of q that
    mpi_mul pairs with it.  With ``scaled``, x is already the rounded
    product _step(q, y, 0) of a node y, which rounding leaves as it is, so
    only eps is subtracted: the same node as _step(q, y, eps)."""
    am, ae, bm, be = x
    if not scaled:
        qam, qae, qbm, qbe = q
        if am >= 0:
            am *= qam
            ae += qae
        else:
            am *= qbm
            ae += qbe
        if bm >= 0:
            bm *= qbm
            be += qbe
        else:
            bm *= qam
            be += qae
    prec = _prec
    while True:  # round; a nonzero digit is then subtracted and rounded once more
        n = am.bit_length() - prec
        if n > 0:
            am >>= n
            ae += n
        n = bm.bit_length() - prec
        if n > 0:
            bm = -(-bm >> n)
            be += n
        if not eps:
            return am, ae, bm, be
        if ae < 0:
            am -= eps << -ae
        else:
            am, ae = (am << ae) - eps, 0
        if be < 0:
            bm -= eps << -be
        else:
            bm, be = (bm << be) - eps, 0
        eps = 0


def _wider(x, y) -> bool:
    """Is the node x wider than the node y?  Exact: no rounding."""
    xam, xae, xbm, xbe = x
    yam, yae, ybm, ybe = y
    return _cmp(_cmp(xbm, xbe, xam, xae), min(xae, xbe),
                _cmp(ybm, ybe, yam, yae), min(yae, ybe)) > 0


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
    point is a root and the sign is never 0.  The cell n is confirmed by
    two tests; a wrong estimate falls back to bisection between grid
    points of known sign (a probe outside (3/2, 2) is skipped), so it
    costs time, never correctness.
    """
    def probe(m: int) -> None:
        nonlocal lo, hi
        if characteristic_sign(k, Fraction(m, 1 << e)) < 0:
            lo = m
        else:
            hi = m

    assert characteristic_sign(k, Fraction(3, 2)) < 0
    lo, hi = 3 << (e - 1), 1 << (e + 1)  # 3/2 and 2, of known sign
    for m in (n, n + 1):
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
    """sum_{i=1..n} d_i q^(-i), evaluated back to front as acc = (acc + d) / q
    on raw endpoints, rounded exactly as those Enclosure operations."""
    qa, qb = q._raw
    positive = mpf_sign(qa) > 0
    a = b = fzero
    for d in reversed(digits):
        if d:  # acc has at most _prec bits: adding 0 would return it unchanged
            n = from_int(d)
            a, b = mpf_add(a, n, _prec, round_floor), mpf_add(b, n, _prec, round_ceiling)
        if positive and not a[0]:  # acc >= 0 and q > 0: mpi_div's branch, inlined
            a, b = mpf_div(a, qb, _prec, round_floor), mpf_div(b, qa, _prec, round_ceiling)
        else:
            a, b = _finite(mpi_div((a, b), q._raw, _prec), _DIVISION)
    return Enclosure._wrap((a, b))


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
