"""Enclosure arithmetic, root isolation and projection values, checked
against exact rational arithmetic wherever an exact route exists."""

import os
import random
import re
import subprocess
import sys
import time
from contextlib import contextmanager
from decimal import Decimal
from fractions import Fraction
from functools import cmp_to_key
from math import inf, nextafter
from pathlib import Path

import mpmath
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv
from mpmath.libmp import (finf, fnan, fninf, from_int, from_man_exp, from_rational, fzero,
                          mpf_abs, mpf_add, mpf_cmp, mpf_neg, mpf_sub, round_ceiling,
                          round_floor)
from mpmath.libmp.libmpi import mpi_mul, mpi_pow

from betacert import realnum
from betacert.constructions import EpsilonQ, contraction_block
from betacert.expansions import count_prefixes
from betacert.realnum import (
    Enclosure,
    PrecisionError,
    as_enclosure,
    bonacci_root,
    characteristic_sign,
    enc_max,
    enc_min,
    membership,
    pi_q,
    precision,
    _add,
    _confirm_cell,
    _div,
    _horner,
    _mul,
    _newton_cell,
    _pow_int,
    _power,
    _root_bracket,
    _walk_level,
    _wider,
    _within,
)
from betacert.thickness import Gap, GapSet, _position_order


rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000)
bases = st.fractions(min_value=Fraction(11, 10), max_value=Fraction(199, 100), max_denominator=100)
digits_word = st.lists(st.sampled_from([-1, 0, 1]), max_size=25)


def exact_word_value(word, q: Fraction) -> Fraction:
    return sum(Fraction(d, 1) / q ** (i + 1) for i, d in enumerate(word))


def to_raw(ends) -> tuple:
    """The normalised libmp (lo, hi) pair of an enclosure's four ints, for
    the mpmath reference side."""
    return from_man_exp(ends[0], ends[1]), from_man_exp(ends[2], ends[3])


def raw(x: Enclosure) -> tuple:
    return to_raw(x._ends)


def from_raw(pair) -> tuple:
    """The four ints of a finite libmp (lo, hi) pair."""
    (s, m, e, _), (t, n, f, _) = pair
    return -int(m) if s else int(m), e, -int(n) if t else int(n), f


# ----------------------------------------------------------------------
# Enclosure arithmetic vs exact rationals
# ----------------------------------------------------------------------

@given(rationals, rationals)
@settings(max_examples=200, deadline=None)
def test_arithmetic_contains_exact(a, b):
    ea, eb = Enclosure(a), Enclosure(b)
    assert (ea + eb).encloses(a + b)
    assert (ea - eb).encloses(a - b)
    assert (ea * eb).encloses(a * b)
    if b != 0:
        assert (ea / eb).encloses(Fraction(a, 1) / b)
    assert (-ea).encloses(-a)
    assert abs(ea).encloses(abs(a))


@given(rationals, st.integers(min_value=-6, max_value=9))
@settings(max_examples=150, deadline=None)
def test_integer_powers_contain_exact(a, n):
    if a == 0 and n <= 0:
        return
    assert (Enclosure(a) ** n).encloses(a ** n)


def test_decimal_string_outward():
    e = Enclosure("0.1")
    assert e.encloses(Fraction(1, 10))
    assert e.width > 0  # 1/10 is not a binary float: must be outward-rounded
    assert Enclosure("2").width == 0


def test_a_fraction_rounds_once_per_end_at_any_length():
    # a Fraction is rounded as its decimal literal is: its exact value, once
    # per end, to the neighbours on the working precision's grid, also where
    # its numerator or denominator is longer than the precision
    assert Enclosure(Fraction(1, 10 ** 400)) == Enclosure("1e-400")
    rng = random.Random(5)
    for bits in (64, 256):
        with precision(bits):
            for f in [Fraction(3 ** 200, 7 ** 150)] + [
                    Fraction(rng.choice((1, -1)) * rng.randint(1, 10 ** 150),
                             rng.randint(1, 10 ** 150)) for _ in range(200)]:
                x = Enclosure(f)
                top = abs(f).numerator.bit_length() - f.denominator.bit_length()
                top -= abs(f) < Fraction(2) ** top  # 2**top <= |f| < 2**(top + 1)
                assert x.lo <= f <= x.hi and x.width <= Fraction(2) ** (top + 1 - bits), f



def test_a_dyadic_fraction_is_exact_without_trailing_zero_bits():
    # a Fraction whose denominator is a power of two and whose numerator
    # fits the working precision is its own ends, with no trailing zero
    # bits, as the literal "1.5" is; a longer numerator still rounds
    assert Enclosure(Fraction(3, 2))._ends == as_enclosure("1.5")._ends == (3, -1, 3, -1)
    assert Enclosure(Fraction(-12))._ends == (-3, 2, -3, 2)
    assert Enclosure(Fraction(0))._ends == (0, 0, 0, 0)
    rng = random.Random(28)
    with precision(64):
        assert Enclosure(Fraction(2 ** 64 - 1, 2 ** 70))._ends == (2 ** 64 - 1, -70) * 2
        assert Enclosure(Fraction(2 ** 64 + 1, 2 ** 70))._ends == (2 ** 63, -69, 2 ** 63 + 1, -69)
        for _ in range(200):
            f = Fraction(rng.randint(-2 ** 70, 2 ** 70), 2 ** rng.randint(0, 90))
            m, e, n, g = Enclosure(f)._ends
            if abs(f.numerator).bit_length() <= 64:
                assert (m, e) == (n, g) and m % 2 == (m != 0) and Enclosure(f).lo == f
            else:
                assert Enclosure(f).lo <= f <= Enclosure(f).hi

#: literals whose enclosure mpmath's parse misses: past an exponent of 400
#: it multiplies by a power of ten rounded toward zero (found by search)
MISSED_BY_MPMATH = {64: ["281292682099624809705851e458", "419578838188e949",
                         "26663504424733637595e-1592"],
                    256: ["76128858981281900760876788843e960"]}


@pytest.mark.parametrize("bits", [64, 256])
def test_decimal_strings_past_the_exact_exponent_contain_their_value(bits):
    rng = random.Random(bits)
    texts = list(MISSED_BY_MPMATH[bits])
    for _ in range(300):
        whole, frac = rng.randint(0, 10 ** rng.randint(1, 25)), rng.randint(0, 10 ** 6)
        exponent = rng.choice((1, -1)) * rng.randint(401, 5000)
        texts.append(f"{rng.choice('+-')}{whole}.{frac}e{exponent}")
    with precision(bits):
        for text in texts:
            assert Enclosure(text).encloses(Fraction(Decimal(text))), text


def test_decimal_strings_are_exact_within_the_exponent_bound():
    # the exponent counts the fraction's digits: 2.5e-399 is 25e-400
    assert realnum._decimal(" -1.50e400 ") == Fraction(-15 * 10 ** 399)
    assert realnum._decimal("2.5e-399") == Fraction(25, 10 ** 400)
    assert realnum._decimal("1.0e-400") == Fraction(1, 10 ** 400)
    for past in ("2.5e-400", "1e401", "-7e-401"):
        assert isinstance(realnum._decimal(past), Enclosure)
    assert realnum._decimal("0e999999999999") == Enclosure(0)


def test_decimal_strings_take_only_decimals_and_the_printed_interval():
    e = Enclosure("[0.25, 1e500]")
    assert e.lo == Fraction(1, 4) and e.encloses(10 ** 500)
    assert Enclosure(" [1, 1] ") == Enclosure(1)
    for text in ("1/3", "1+-0.1", "2.8(42)", "inf", "nan", ".", "1e", "[2, 1]", "[1]",
                 "[1, 2, 3]", "0x10", "1_0"):
        with pytest.raises(ValueError):
            Enclosure(text)


def test_trivalued_comparisons():
    a = Enclosure.from_endpoints(1, 2)
    b = Enclosure.from_endpoints(3, 4)
    c = Enclosure.from_endpoints(Fraction(3, 2), Fraction(7, 2))
    assert a.lt(b) is True
    assert b.lt(a) is False
    assert a.lt(c) is None
    assert a.le(Enclosure(1)) is None
    assert Enclosure(1).le(a) is True
    assert b.gt(a) is True
    assert a.ge(b) is False


def test_membership_trivalued():
    lo, hi = Enclosure(0), Enclosure.from_endpoints(Fraction(99, 100), Fraction(101, 100))
    assert membership(Enclosure(Fraction(1, 2)), lo, hi) is True
    assert membership(Enclosure(2), lo, hi) is False
    assert membership(Enclosure(1), lo, hi) is None  # straddles the fuzzy endpoint
    assert membership(Enclosure(-1), lo, hi) is False


def test_min_max_envelopes():
    a = Enclosure.from_endpoints(0, 3)
    b = Enclosure.from_endpoints(1, 2)
    m = enc_min(a, b)
    assert m.lo == 0 and m.hi == 2
    mx = enc_max(a, b)
    assert mx.lo == 1 and mx.hi == 3


# endpoints for the compare kernels: zero, negative values, rationals that
# round outward, exact dyadics of widely spread exponents
endpoints = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=Fraction(-4), max_value=Fraction(4), max_denominator=10 ** 6),
    st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
              st.integers(-(2 ** 70), 2 ** 70), st.integers(-300, 40)),
)


@st.composite
def enclosures(draw):
    """Random enclosures: point intervals, endpoints rounded at a precision
    other than the current one, and k-Bonacci roots."""
    if draw(st.integers(0, 5)) == 0:
        return bonacci_root(draw(st.integers(2, 40))).value
    a = draw(endpoints)
    b = draw(st.one_of(st.just(a), endpoints))
    with precision(draw(st.sampled_from([64, 256, 272, 600]))):
        return Enclosure.from_endpoints(min(a, b), max(a, b))


def last_digit_unit(v: Fraction, digits: int) -> Fraction:
    """10**(x + 1 - digits), the unit of v's digits-th significant digit,
    for 10**x <= |v| < 10**(x + 1)."""
    v = abs(v)
    x = int((v.numerator.bit_length() - v.denominator.bit_length()) * 0.30103)
    while Fraction(10) ** x > v:
        x -= 1
    while Fraction(10) ** (x + 1) <= v:
        x += 1
    return Fraction(10) ** (x + 1 - digits)


def assert_prints_outward(x: Enclosure, digits: int, units: int = 1) -> None:
    """x.str_digits(digits) is "[lo, hi]" with lo <= x.lo and hi >= x.hi, each
    less than units of its digits-th significant digit away, and read back
    it contains x."""
    text = x.str_digits(digits)
    assert text[0] == "[" and text[-1] == "]", text
    lo, hi = (Fraction(Decimal(end)) for end in text[1:-1].split(", "))
    assert lo <= x.lo and x.hi <= hi, text
    for end, printed in ((x.lo, lo), (x.hi, hi)):
        assert abs(end - printed) < units * last_digit_unit(end, digits) if end else not printed
    back = Enclosure(text)
    assert back.lo <= x.lo and x.hi <= back.hi


@given(enclosures(), st.integers(1, 60))
@settings(max_examples=400, deadline=None)
def test_printed_text_encloses_the_value(x, digits):
    # each end rounds outward to digits significant digits, exactly: the
    # text Enclosure() reads back contains x, and repr prints 20 digits
    assert_prints_outward(x, digits)
    assert repr(x) == f"Enclosure({x.str_digits(20)})"


def test_printed_text_of_far_exponents_is_quick_and_outward():
    # past 10**+-400 the ends divide by an outward power of five, whose
    # cost grows with the exponent's length: one unit of the last digit,
    # and a second only where the exact quotient lies within 2**-(4 digits
    # + 60) above an integer
    rng = random.Random(29)
    start = time.perf_counter()
    assert repr(Enclosure(2) ** -10 ** 7).startswith("Enclosure([1.1049946823756706658e-3010300, ")
    assert time.perf_counter() - start < 1
    for _ in range(60):
        e = rng.choice((1, -1)) * rng.randint(1340, 40000)
        x = Enclosure.from_endpoints(*sorted(
            Fraction(rng.randint(-2 ** 300, 2 ** 300)) * Fraction(2) ** e for _ in range(2)))
        for digits in (1, 7, 20, 60):
            assert_prints_outward(x, digits, units=2)
    for text in ("1e-401", "-9.99999e999", "1e500"):
        x = Enclosure(text)
        for digits in (1, 20):
            assert_prints_outward(x, digits, units=2)
    # ends whose decimal exponents pass 10**18, out of Decimal's range, and
    # whose values no Fraction could hold: read back, the text contains them
    big = Enclosure(3) ** (2 ** 300 + 1)
    for x in (big, -big, 1 / big):
        text = x.str_digits(20)
        assert re.fullmatch(r"\[-?\d(\.\d+)?e[+-]\d{89,91}, -?\d(\.\d+)?e[+-]\d{89,91}\]", text), text
        (am, ae, bm, be), (cm, ce, dm, de) = Enclosure(text)._ends, x._ends
        assert realnum._cmp(am, ae, cm, ce) <= 0 <= realnum._cmp(bm, be, dm, de)


def oracle_lt(x, y):
    return True if x.hi < y.lo else (False if x.lo >= y.hi else None)


def oracle_le(x, y):
    return True if x.hi <= y.lo else (False if x.lo > y.hi else None)


def negated(r):
    return None if r is None else not r


@given(enclosures(), enclosures(), enclosures())
@settings(max_examples=300, deadline=None)
def test_compare_kernels_match_fraction_oracle(x, y, z):
    assert x.lt(y) is oracle_lt(x, y)
    assert x.le(y) is oracle_le(x, y)
    assert x.gt(y) is negated(oracle_le(x, y))
    assert x.ge(y) is negated(oracle_lt(x, y))
    inside = x.lo >= y.hi and x.hi <= z.lo
    outside = x.hi < y.lo or x.lo > z.hi
    assert membership(x, y, z) is (True if inside else (False if outside else None))
    m, mx = enc_min(x, y, z), enc_max(x, y, z)
    assert (m.lo, m.hi) == (min(x.lo, y.lo, z.lo), min(x.hi, y.hi, z.hi))
    assert (mx.lo, mx.hi) == (max(x.lo, y.lo, z.lo), max(x.hi, y.hi, z.hi))
    assert (x == y) is ((x.lo, x.hi) == (y.lo, y.hi))
    twin = Enclosure.from_endpoints(x.lo, x.hi)  # same value, fresh tuples
    assert twin == x and hash(twin) == hash(x)


@given(st.lists(enclosures(), min_size=1, max_size=6),
       st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11)), max_size=12))
@settings(max_examples=200, deadline=None)
def test_position_order_sorts_as_fractions(xs, picks):
    # pairs drawn from a few enclosures and their twins with trailing zero
    # bits, so that ends tie often and in unequal forms; the order is the
    # stable sort by the rational lower ends
    twins = [Enclosure._wrap((m << 3, e - 3, n << 5, f - 5)) for m, e, n, f in
             (x._ends for x in xs)]
    pool = xs + twins
    pairs = [(pool[i % len(pool)], pool[j % len(pool)]) for i, j in picks]
    want = sorted(range(len(pairs)), key=lambda i: (pairs[i][0].lo, pairs[i][1].lo))
    assert _position_order(pairs) == want


def test_non_finite_endpoints_raise():
    # the operation that would make an infinite or nan endpoint raises,
    # naming itself, so no such enclosure is ever built
    one, unit = Enclosure(1), Enclosure.from_endpoints(0, 1)
    straddle = Enclosure.from_endpoints(-1, 1)
    for build, op in ((lambda: one / straddle, "division"),
                      (lambda: one / Enclosure.from_endpoints(0, 0), "division"),
                      (lambda: 1 / straddle, "division"),
                      (lambda: Fraction(1, 3) / unit, "division"),
                      (lambda: unit ** -1, "power")):
        with pytest.raises(PrecisionError, match=op):
            build()
    for build in (lambda: Enclosure("inf"), lambda: Enclosure("nan"),
                  lambda: Enclosure.from_endpoints(0, "inf")):
        with pytest.raises(ValueError, match="decimal string"):
            build()


def test_real_powers_below_zero():
    # a base that straddles zero is a precision matter, like the non-finite
    # endpoints above; a certifiably negative one is outside the domain,
    # with the library's own message
    straddle = Enclosure.from_endpoints(-1, 1)
    unit = Enclosure.from_endpoints(0, 1)
    negative = Enclosure(-2)
    half = Fraction(1, 2)
    with pytest.raises(PrecisionError, match="power"):
        straddle ** half
    with pytest.raises(ValueError, match="power") as caught:
        negative ** half
    assert type(caught.value) is ValueError
    # a base whose lower end is exactly 0 keeps it, for a positive exponent
    assert unit ** half == unit  # sqrt of [0, 1] is [0, 1]
    assert Enclosure(0) ** Fraction(7, 3) == Enclosure(0)
    sqrt_half = Enclosure.from_endpoints(0, half) ** half
    assert sqrt_half.lo == 0 and 0 <= sqrt_half.hi ** 2 - half < Fraction(1, 2 ** 250)
    with pytest.raises(PrecisionError, match="contains zero"):
        unit ** -half
    # integer exponents keep the integer power on any base, an int exponent
    # at any length
    assert negative ** 3 == Enclosure(-8)
    assert straddle ** 2 == unit
    assert (Enclosure(2) ** 2 ** 300)._ends == (1, 2 ** 300) * 2
    assert Enclosure(4) ** half == Enclosure(2)
    # an exponent is an int or a Fraction: a float, a string or an
    # enclosure is refused
    with pytest.raises(TypeError, match="int or a Fraction"):
        Enclosure(2) ** 0.5
    for exponent in ("0.5", Enclosure(2)):
        with pytest.raises(TypeError):
            Enclosure(4) ** exponent


def test_binary_floats_rejected():
    for build in (Enclosure, as_enclosure, Enclosure._coerce,
                  lambda v: Enclosure(1) + v,
                  lambda v: Enclosure.from_endpoints(0, v)):
        with pytest.raises(TypeError, match="Fraction or a decimal string"):
            build(0.1)


def test_float_bounds_outward():
    e = Enclosure(Fraction(1, 3))
    lo_f, hi_f = e.float_bounds()
    assert Fraction(lo_f) <= e.lo and Fraction(hi_f) >= e.hi


def test_encloses_rejects_binary_floats():
    e = Enclosure("0.1")
    with pytest.raises(TypeError, match="int or a Fraction"):
        e.encloses(0.1)
    assert e.encloses(Fraction(1, 10))
    assert Enclosure(3).encloses(3) and not Enclosure(3).encloses(2)


def test_encloses_refuses_a_string_at_once():
    # read as Fraction("1e-9999999"), the text would cost 10**9999999
    start = time.perf_counter()
    for text in ("1e-9999999", "0.1"):
        with pytest.raises(TypeError, match="int or a Fraction"):
            Enclosure(1).encloses(text)
    assert time.perf_counter() - start < 0.1


# ----------------------------------------------------------------------
# arithmetic kernels vs mpmath's interval operators
# ----------------------------------------------------------------------

# ints of 1 to 700 bits, nearly all of them significant, either sign:
# shorter and longer than every tested precision
dense_ints = st.builds(lambda neg, bits, low: (-1) ** neg * ((1 << bits) - 1 - low),
                       st.booleans(), st.integers(1, 700), st.integers(0, 2 ** 40))
operand_ints = st.one_of(st.integers(-5, 5), dense_ints)
operand_fractions = st.one_of(
    st.fractions(min_value=Fraction(-10 ** 9), max_value=Fraction(10 ** 9), max_denominator=10 ** 6),
    st.builds(lambda n, d: Fraction(n, abs(d) or 1), dense_ints, dense_ints),
)


@st.composite
def straddling_zero(draw):
    """Divisors that contain zero: an endpoint on it, or zero inside."""
    a = draw(st.fractions(min_value=Fraction(-4), max_value=Fraction(0), max_denominator=100))
    b = draw(st.fractions(min_value=Fraction(0), max_value=Fraction(4), max_denominator=100))
    return Enclosure.from_endpoints(a, b)


def mpmath_operand(v):
    """The operand the interval operators were given before: an interval
    for enclosures, the int itself for ints, and for fractions the exact
    quotient rounded once per end (mpf_div of exact ints)."""
    if isinstance(v, Enclosure):
        return iv.make_mpf(raw(v))
    if isinstance(v, Fraction):
        p, q = v.numerator, v.denominator
        return iv.make_mpf((from_rational(p, q, iv.prec, round_floor),
                            from_rational(p, q, iv.prec, round_ceiling)))
    return v


@contextmanager
def interval_precision(bits):
    """Run mpmath's interval context, the reference side, at bits; the
    library's precision() leaves that context alone."""
    saved = iv.prec
    iv.prec = bits
    try:
        yield
    finally:
        iv.prec = saved


def unbounded(raw) -> bool:
    """Does a raw (lo, hi) pair have an infinite or nan endpoint?"""
    return any(end in (finf, fninf, fnan) for end in raw)


def finite_raw(e: Enclosure) -> tuple:
    """raw(e), once both of its endpoints are checked to be finite."""
    assert not unbounded(raw(e))
    return raw(e)


def assert_quotient(quotient, reference) -> None:
    """quotient() has exactly the reference interval's endpoints; where
    those are not all finite, it raises PrecisionError instead."""
    if unbounded(reference._mpi_):
        with pytest.raises(PrecisionError, match="division"):
            quotient()
    else:
        assert finite_raw(quotient()) == reference._mpi_


small_fractions = st.fractions(min_value=Fraction(-8), max_value=Fraction(8), max_denominator=1000)
# decimal literals of up to 15 significant digits and either sign
decimal_literals = st.builds(lambda m, frac, e: f"{m}.{frac}e{e}",
                             st.integers(-10 ** 8, 10 ** 8), st.integers(0, 10 ** 6),
                             st.integers(-40, 40))


@given(st.one_of(enclosures(), straddling_zero()),
       st.one_of(enclosures(), straddling_zero(), operand_ints, operand_fractions),
       st.sampled_from([64, 256, 600]),
       st.integers(-40, 40), small_fractions, decimal_literals, st.integers(1, 60))
@settings(max_examples=400, deadline=None)
def test_arithmetic_kernels_match_interval_operators(x, y, bits, n, f, text, digits):
    with precision(bits), interval_precision(bits):
        a, b = iv.make_mpf(raw(x)), mpmath_operand(y)
        assert finite_raw(x + y) == (a + b)._mpi_
        assert finite_raw(x - y) == (a - b)._mpi_
        assert finite_raw(x * y) == (a * b)._mpi_
        assert_quotient(lambda: x / y, a / b)
        assert finite_raw(-x) == (-a)._mpi_
        assert finite_raw(abs(x)) == abs(a)._mpi_
        if not isinstance(y, Enclosure):
            assert finite_raw(y + x) == (b + a)._mpi_
            assert finite_raw(y - x) == (b - a)._mpi_
            assert finite_raw(y * x) == (b * a)._mpi_
            assert_quotient(lambda: y / x, b / a)
        assert finite_raw(Enclosure(y)) == iv.mpf(b)._mpi_
        # powers of a positive base
        base = abs(x) + Fraction(1, 3)
        p = iv.make_mpf(raw(base))
        assert finite_raw(base ** n) == (p ** n)._mpi_
        # a Fraction exponent rounds in realnum's root kernel (tested on its
        # own below): its ends bound the power at the base's ends exactly
        y, r = base ** f, f.denominator
        powers = [end ** f.numerator for end in (base.lo, base.hi)]
        assert y.lo > 0 and y.lo ** r <= min(powers) and y.hi ** r >= max(powers)
        # parsing, of literals and of the printed form
        assert finite_raw(Enclosure(text)) == iv.mpf(text)._mpi_
        printed = x.str_digits(digits)
        assert finite_raw(Enclosure(printed)) == iv.mpf(printed)._mpi_


@st.composite
def power_ends(draw, bits):
    """An end for an integer power's base: zero, a small or a power-of-two
    mantissa, or one of up to twice the precision, with trailing zero bits
    that the power must strip, over exponents far below and above 1."""
    m = draw(st.one_of(st.just(0), st.integers(-8, 8), st.sampled_from([1, -1, 2, -4]),
                       st.integers(1 - 2 ** (2 * bits), 2 ** (2 * bits) - 1)))
    return m << draw(st.sampled_from([0, 0, 1, 7])), draw(st.integers(-bits - 60, 30))


@given(st.data(), st.sampled_from([64, 96, 256, 512]),
       st.one_of(st.sampled_from([0, 1, 2, -1, -2, 3, -3, 300, -300]), st.integers(-301, 301)))
@settings(max_examples=600, deadline=None)
def test_integer_power_kernel_matches_mpi_pow(data, bits, n):
    # every sign case of the base (positive, negative, straddling or touching
    # zero), the exact and the binary-powering branches (mantissa bits times
    # n from below to far above 1000), and zero-containing bases under n < 0
    a, b = data.draw(power_ends(bits)), data.draw(power_ends(bits))
    if realnum._cmp(*a, *b) > 0:
        a, b = b, a
    x = Enclosure._wrap(a + data.draw(st.sampled_from([a, b, b])))
    with precision(bits):
        reference = mpi_pow(raw(x), (from_int(n), from_int(n)), bits)
        if unbounded(reference):
            assert n < 0 and x.lo <= 0 <= x.hi
            for exponent in (n, Fraction(n)):
                with pytest.raises(PrecisionError, match="power of an enclosure that contains zero"):
                    x ** exponent
        else:
            assert to_raw(_pow_int(x._ends, n)) == reference
            for exponent in (n, Fraction(n)):
                assert raw(x ** exponent) == reference


@pytest.mark.parametrize("bits, ends, n", [
    # 191 mantissa bits to the 6th: past 1000 bits, so binary powering's
    # truncations, not the exact power, decide the upper end
    (96, (846546905752457652466616730846565050679465425547841832841, 0) * 2, 6),
    # the binary powering's guard bits, prec + 4 bitlen(n) + 4, decide it
    (64, (-3590482101872946826678442761121, 0) * 2, 11),
    # the 20 bits the power below a reciprocal carries decide the lower end
    (384, (-int("398999431973182615381467798570412957675772127597145101628901704931229935497584501"
                "363888617327899274958384388183386"), -258, -369, -420), -2),
])
def test_integer_power_kernel_keeps_mpmaths_working_precisions(bits, ends, n):
    # found by search: a random base almost never lands this close to a
    # rounding boundary, so these pin the precisions the kernel works at
    with precision(bits):
        assert to_raw(_pow_int(ends, n)) == mpi_pow(to_raw(ends), (from_int(n),) * 2, bits)


@given(st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(50), max_denominator=1000),
       st.booleans(),
       st.sampled_from([0, 1, 2, 3, 17, -1, -2, -17, Fraction(20, 19), Fraction(19, 20),
                        Fraction(-20, 19)]))
@settings(max_examples=80, deadline=None)
def test_power_cache_matches_the_uncached_kernel_across_precisions(base, negate, exponent):
    # the same operand ends at alternating precisions: a power kept at one
    # precision must not serve another (only integer powers take a negative base)
    x = Enclosure(-base if negate and exponent.denominator == 1 else base)
    key = exponent if exponent.denominator > 1 else exponent.numerator
    for bits in (64, 256, 512, 64, 512, 256):
        with precision(bits):
            kernel = _power.__wrapped__(x._ends, key, bits)
            assert (x ** exponent)._ends == kernel


@st.composite
def root_bases(draw, bits):
    """A base above zero for a rational power: a point with up to twice the
    precision's bits, or a band whose upper end lies a relative 2**-j above
    its lower one, j from 1 to past the kernel's 2**-(w/2) switch, or a
    factor of up to 2**40 above; exponents far below and above 1."""
    lo = Fraction(draw(st.integers(1, 2 ** (2 * bits))), 2 ** draw(st.integers(0, 2 * bits)))
    lo *= Fraction(2) ** draw(st.integers(-200, 200))
    kind = draw(st.sampled_from(["point", "rounded", "near", "wide"]))
    if kind == "point":
        return Enclosure.from_endpoints(lo, lo)
    if kind == "rounded":  # a rational, rounded outward at the precision
        return Enclosure(lo * Fraction(draw(st.integers(1, 10 ** 6)),
                                       draw(st.integers(1, 10 ** 6))))
    if kind == "near":
        j = draw(st.integers(1, bits + 40))
        return Enclosure.from_endpoints(lo, lo * (1 + Fraction(1, 2 ** j)))
    return Enclosure.from_endpoints(lo, lo * draw(st.integers(2, 2 ** 40)))


def ulps_off(end: Fraction, true, bits: int) -> float:
    """|end - true| in units of 2**(1 - bits) times |true|, in mpmath at the
    current (4x) working precision."""
    end = mpmath.mpf(end.numerator) / end.denominator
    return float(abs(end - true) / (abs(true) * mpmath.mpf(2) ** (1 - bits)))


@given(st.data(), st.sampled_from([64, 256, 512]),
       st.integers(-40, 40).filter(bool), st.integers(2, 25))
@settings(max_examples=300, deadline=None)
def test_rational_power_kernel_contains_the_power_within_a_few_ulps(data, bits, p, r):
    exponent = Fraction(p, r)
    if exponent.denominator == 1:
        return
    x = data.draw(root_bases(bits))
    with precision(bits):
        y = x ** exponent
    p, r = exponent.numerator, exponent.denominator
    # exactly: y's ends bound the power's least and greatest values, which
    # x's ends take (x ** p is monotone on x > 0)
    small, large = sorted([x.lo ** p, x.hi ** p])
    assert y.lo > 0 and y.lo ** r <= small and y.hi ** r >= large
    # and tightly: each end within three units of the true end, which
    # mpmath finds at four times the precision
    with mpmath.workprec(4 * bits):
        true = [mpmath.root(mpmath.mpf(v.numerator) / v.denominator, r) for v in (small, large)]
        assert ulps_off(y.lo, true[0], bits) <= 3 and ulps_off(y.hi, true[1], bits) <= 3


@pytest.mark.parametrize("r", [10 ** 7, 10 ** 8, 10 ** 399 + 1], ids=["1e7", "1e8", "1e399+1"])
def test_roots_of_long_denominators_take_time_in_their_length(r):
    # Newton's start is refined with guard bits that grow with r's length,
    # and an r too long for it takes square roots of a dyadic power: each
    # power returns at once, and its ends bound the power mpmath finds at
    # 2,000 bits (through logarithms, far from either end)
    bases = [Enclosure(2), Enclosure(Fraction(1, 3)), Enclosure(3), Enclosure(Fraction(1, 8)),
             Enclosure.from_endpoints(Fraction(1, 3), Fraction(7, 2)), bonacci_root(10).value]
    with mpmath.workprec(2000):
        for base in bases:
            for p in (1, -3, r - 1, r + 1):
                start = time.perf_counter()
                y = base ** Fraction(p, r)
                assert time.perf_counter() - start < 2, (base, p)
                exact = sorted(mpmath.power(mpmath.mpf(end.numerator) / end.denominator,
                                            mpmath.mpf(p) / r) for end in (base.lo, base.hi))
                assert mpmath.mpf(y.lo.numerator) / y.lo.denominator < exact[0]
                assert mpmath.mpf(y.hi.numerator) / y.hi.denominator > exact[1]
                assert ulps_off(y.lo, exact[0], 256) <= 3 and ulps_off(y.hi, exact[1], 256) <= 3


def test_power_errors_raise_on_every_call():
    # an exception is never kept in place of a value
    straddle = Enclosure.from_endpoints(Fraction(-1, 3), Fraction(1, 2))
    for _ in range(2):
        with pytest.raises(PrecisionError):
            straddle ** -3
    for _ in range(2):
        with pytest.raises(ValueError):
            Enclosure(-2) ** Fraction(1, 2)


def reference_ends(x, y, pick):
    """The endpoint-wise min (pick 0) or max (pick -1) of two enclosures,
    chosen by mpmath's exact compare of the raw endpoints."""
    return tuple(sorted(ends, key=cmp_to_key(mpf_cmp))[pick] for ends in zip(raw(x), raw(y)))


@pytest.mark.parametrize("gap", [10 ** 3, 10 ** 5, 10 ** 8])
def test_far_apart_exponents_match_interval_operators(gap):
    # a term far below the other's last bit rounds as one sticky bit of its
    # sign, and a compare decides on signs and top bits before it shifts:
    # neither may cost time in proportion to the exponent gap
    with precision(256), interval_precision(256):
        scale = Enclosure(2) ** -gap
        small = [scale * 3, scale * Fraction(-1, 3), scale * Enclosure.from_endpoints(-1, 1)]
        large = [Enclosure(1), bonacci_root(10).value, Enclosure(Fraction(-5, 7)),
                 Enclosure(2) ** gap * Fraction(1, 3)]
        pairs = [(x, y) for x in small + large for y in small + large]
        start = time.perf_counter()
        rows = [(x + y, x - y, x.lt(y), x.le(y), x.gt(y), x.ge(y), x.intersects(y),
                 enc_min(x, y), enc_max(x, y)) for x, y in pairs]
        elapsed = time.perf_counter() - start
        for (x, y), (total, diff, lt, le, gt, ge, meets, low, high) in zip(pairs, rows):
            a, b = iv.make_mpf(raw(x)), iv.make_mpf(raw(y))
            assert raw(total) == (a + b)._mpi_
            assert raw(diff) == (a - b)._mpi_
            assert (lt, le, gt, ge) == (a < b, a <= b, a > b, a >= b)
            assert meets is (mpf_cmp(raw(x)[0], raw(y)[1]) <= 0 and
                             mpf_cmp(raw(y)[0], raw(x)[1]) <= 0)
            assert raw(low) == reference_ends(x, y, 0)
            assert raw(high) == reference_ends(x, y, -1)
    if gap == 10 ** 8:
        assert elapsed < 0.05


def test_membership_cost_does_not_grow_with_the_exponent_gap():
    unit = Enclosure(0), Enclosure(1)
    for n, inside in ((10 ** 9, False), (-10 ** 9, True)):
        x = Enclosure(2) ** n
        start = time.perf_counter()
        assert membership(x, *unit) is inside
        assert time.perf_counter() - start < 0.05


def test_within_matches_the_fraction_reference_on_ties_and_far_ends():
    # bounds whose ends tie with the node's (the same value with more
    # trailing zero bits, or one unit of the finer grid off), zero ends and
    # ends far apart: each right-shifted compare decides as exact rationals
    rng = random.Random(40000)
    value = lambda m, e: Fraction(m) * Fraction(2) ** e

    def end(pool):
        if pool and rng.random() < 0.6:
            m, e = rng.choice(pool)
            shift = rng.randint(0, 40)
            return (m << shift) + rng.choice((-1, 0, 0, 1)), e - shift
        m = rng.choice((0, rng.randint(-2 ** 70, 2 ** 70)))
        return m, rng.choice((rng.randint(-80, 80), rng.randint(-3000, 3000),
                              rng.randint(-20000, 20000)))

    for _ in range(4000):
        pool = []
        for _ in range(6):
            pool.append(end(pool))
        rng.shuffle(pool)
        x, lo, hi = (tuple(a for v in sorted(pool[i:i + 2], key=lambda v: value(*v))
                           for a in v) for i in (0, 2, 4))
        xl, xh, ll, lh, hl, hh = (value(*v) for v in (x[:2], x[2:], lo[:2], lo[2:],
                                                     hi[:2], hi[2:]))
        want = True if xl >= lh and xh <= hl else (False if xh < ll or xl > hh else None)
        assert _within(lo, hi)(x) is want, (x, lo, hi)


def test_wider_and_position_order_match_fractions_on_ties_and_far_ends():
    # the same kind of ends: node widths compare, and points at the ends
    # sort, exactly as the rationals they stand for
    rng = random.Random(40001)
    value = lambda m, e: Fraction(m) * Fraction(2) ** e
    for _ in range(3000):
        pool = [(rng.choice((0, rng.randint(-2 ** 70, 2 ** 70))),
                 rng.choice((rng.randint(-80, 80), rng.randint(-20000, 20000))))]
        for _ in range(3):
            m, e = rng.choice(pool)
            shift = rng.randint(0, 40)
            pool.append(rng.choice((((m << shift) + rng.choice((-1, 0, 1)), e - shift),
                                    (rng.randint(-2 ** 70, 2 ** 70), rng.randint(-20000, 20000)))))
        x, y = (tuple(a for v in sorted(pool[i:i + 2], key=lambda v: value(*v)) for a in v)
                for i in (0, 2))
        width = lambda n: value(*n[2:]) - value(*n[:2])
        assert _wider(x, y) is (width(x) > width(y)), (x, y)
        ends = [x[:2], x[2:], y[:2], y[2:]]
        points = [Enclosure._wrap(v + v) for v in ends]
        pairs = [(a, b) for a in points for b in points]
        exact = [(value(*a), value(*b)) for a in ends for b in ends]
        assert _position_order(pairs) == sorted(range(16), key=exact.__getitem__)


@pytest.mark.parametrize("gap", [10 ** 8, 10 ** 12])
def test_wider_and_position_order_cost_ignores_the_exponent_gap(gap):
    # a node whose own ends lie 2**gap apart: no shift by the gap, which at
    # 10**12 would need some 125 GB
    near, far = (1, -1, 3, -1), (-1, -gap, 1, -1)
    start = time.perf_counter()
    assert _wider(near, far) and not _wider(far, near)
    # 3/2, 1/2, -2**-gap, 1/2 as points; the tie keeps its input order
    points = [Enclosure._wrap(v + v) for v in (near[2:], near[:2], far[:2], far[2:])]
    assert _position_order([(p, p) for p in points]) == [2, 1, 3, 0]
    near, far = Enclosure._wrap(near), Enclosure._wrap(far)
    assert _position_order([(near, near), (far, near), (near, far)]) == [1, 2, 0]
    assert time.perf_counter() - start < 0.05


def test_equality_is_by_value_on_unnormalised_endpoints():
    # the kernels leave trailing zero bits in the mantissas; == and hash
    # still go by the endpoint values
    events = [v for _, v in count_prefixes(Fraction(3, 2), Fraction(11, 20), 30).branch_events]
    twins = [Enclosure.from_endpoints(v.lo, v.hi) for v in events]
    assert any(v._ends != twin._ends for v, twin in zip(events, twins))
    for v, twin in zip(events, twins):
        assert v == twin and hash(v) == hash(twin)
    # a cut placed on a gap's own (non-point) endpoint drops that gap
    end = Enclosure.from_endpoints(Fraction(1, 4), Fraction(1, 2)) * 6
    cut = Enclosure.from_endpoints(Fraction(3, 2), Fraction(3))
    assert end._ends != cut._ends and end == cut and hash(end) == hash(cut)
    gaps = GapSet(Enclosure(0), Enclosure(8), (Gap(Enclosure(Fraction(1, 2)), end),
                                               Gap(Enclosure(5), Enclosure(6))))
    assert [g.left for g in gaps.restrict(lo=cut).gaps] == [Enclosure(5)]
    # an exact zero with a nonzero exponent is still signed 0
    zero = Enclosure(Fraction(3, 8)) - Enclosure(Fraction(3, 8))
    assert zero._ends != (0, 0, 0, 0) and zero == Enclosure(0)
    assert EpsilonQ(q=Enclosure(Fraction(15, 8)), k=3, value=zero).sign == 0


def reference_float_bounds(e):
    """Outward doubles through the exact rational endpoints."""
    lo_f, hi_f = float(e.lo), float(e.hi)
    if Fraction(lo_f) > e.lo:
        lo_f = nextafter(lo_f, float("-inf"))
    if Fraction(hi_f) < e.hi:
        hi_f = nextafter(hi_f, float("inf"))
    return lo_f, hi_f


def clamped_float_bounds(e):
    """Outward doubles where an end lies past the largest double: that
    double where the end rounds toward zero, else an infinity."""
    top = Fraction(sys.float_info.max)

    def end(x, up):
        if x > top:
            return inf if up else sys.float_info.max
        if x < -top:
            return -sys.float_info.max if up else -inf
        return reference_float_bounds(Enclosure.from_endpoints(x, x))[up]

    return end(e.lo, False), end(e.hi, True)


# zero, and dyadics of both signs with 1 to 70 or 54 to 600 significant
# bits, from the subnormal range up past the largest double: the long
# mantissas are rounded to 53 bits
long_mantissas = st.integers(54, 600).flatmap(
    lambda n: st.integers(2 ** (n - 1), 2 ** n - 1)).flatmap(lambda m: st.sampled_from([m, -m]))
report_endpoints = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
              st.integers(-(2 ** 70), 2 ** 70),
              st.one_of(st.integers(-1150, -1000), st.integers(-80, 80),
                        st.integers(950, 1030))),
    # the leading bit at 2**(top - 1)
    st.builds(lambda m, top: Fraction(m) * Fraction(2) ** (top - abs(m).bit_length()),
              long_mantissas,
              st.one_of(st.integers(-1080, -1000), st.integers(-80, 80),
                        st.integers(1000, 1030))),
)


@given(report_endpoints, report_endpoints)
@settings(max_examples=400, deadline=None)
def test_float_bounds_match_the_rational_reference(a, b):
    e = Enclosure.from_endpoints(min(a, b), max(a, b))
    try:
        want = reference_float_bounds(e)
    except OverflowError:
        want = clamped_float_bounds(e)
    assert e.float_bounds() == want


def test_float_bounds_edge_endpoints():
    tiny, huge = Fraction(2) ** -1074, Fraction(2) ** 1023
    for lo, hi in [(0, 0), (-tiny, tiny), (Fraction(2) ** -1022, Fraction(3, 2)),
                   (-huge * 2 + Fraction(2) ** 971, huge),  # minus the largest double
                   (Fraction(1, 3), Fraction(2, 3))]:
        e = Enclosure.from_endpoints(Fraction(lo), Fraction(hi))
        assert e.float_bounds() == reference_float_bounds(e)
    # above the largest double: within half an ulp of it the rational
    # route gives inf, beyond that float() overflows, and an end reports as
    # the largest double or an infinity
    top = huge * 2 - Fraction(2) ** 971
    e = Enclosure.from_endpoints(Fraction(0), top + Fraction(2) ** 900)
    assert e.float_bounds() == reference_float_bounds(e) == (0.0, float("inf"))
    for hi in (huge * 2 - Fraction(2) ** 900, huge * 2):
        assert Enclosure.from_endpoints(0, hi).float_bounds() == (0.0, inf)
    most = sys.float_info.max
    assert Enclosure.from_endpoints(huge * 2, huge * 4).float_bounds() == (most, inf)
    assert Enclosure.from_endpoints(-huge * 4, -huge * 2).float_bounds() == (-inf, -most)
    with pytest.raises(PrecisionError):
        (Enclosure(1) / Enclosure.from_endpoints(-1, 1)).float_bounds()


# ----------------------------------------------------------------------
# bonacci_root
# ----------------------------------------------------------------------

def test_golden_ratio():
    r = bonacci_root(2)
    # distance to the 17-digit decimal stays below one ulp of its last digit
    g = Enclosure("1.6180339887498949")
    assert abs(r.value - g).lt(Enclosure(Fraction(1, 10 ** 16))) is True
    assert r.value.width <= Fraction(1, 2 ** 256)
    # golden ratio satisfies x^2 = x + 1: enclosure of x^2 - x - 1 straddles 0
    resid = r.value ** 2 - r.value - 1
    assert resid.encloses(0)


def test_root_bracket_sign_change():
    for k in (2, 5, 9, 31):
        with precision(128):
            r = bonacci_root(k)
        lo, hi = r.bracket
        assert characteristic_sign(k, lo) < 0 < characteristic_sign(k, hi)
        assert hi - lo <= Fraction(1, 2 ** 128)
        assert Fraction(3, 2) < lo and hi < 2


def reference_bracket(k, bits):
    """Bisection of [3/2, 2] on exact midpoints down to width 2^-(bits+2)."""
    lo, hi = Fraction(3, 2), Fraction(2)
    while hi - lo > Fraction(1, 2 ** (bits + 2)):
        mid = (lo + hi) / 2
        if characteristic_sign(k, mid) < 0:
            lo = mid
        else:
            hi = mid
    return lo, hi


@pytest.mark.parametrize("bits", [64, 96, 256, 384, 512])
def test_root_bracket_matches_reference_bisection(bits, monkeypatch):
    signs = []
    monkeypatch.setattr(realnum, "characteristic_sign",
                        lambda k, x: signs.append(x) or characteristic_sign(k, x))
    cell = Fraction(1, 2 ** (bits + 2))
    for k in range(2, 46):
        signs.clear()
        lo, hi = _root_bracket.__wrapped__(k, bits)
        assert (lo, hi) == reference_bracket(k, bits), k
        assert (lo / cell).denominator == 1
        # the Newton estimate is the cell itself: its two ends are the only
        # sign tests besides the one at 3/2
        assert signs == [Fraction(3, 2), lo, hi]
        assert hi - lo == cell
        assert Fraction(3, 2) <= lo


def test_root_isolation_at_a_high_order_probes_the_neighbouring_cell():
    # at k = 200 and 1,024 bits Newton's estimate is one cell above the
    # root; the probe of the cell below finds it without a bisection
    e = 1024 + 2
    start = time.perf_counter()
    with precision(1024):
        lo, hi = bonacci_root(200).bracket
    assert time.perf_counter() - start < 1
    assert _newton_cell(200, e) == lo * 2 ** e + 1
    assert (lo * 2 ** e, hi * 2 ** e) == _confirm_cell(200, e, -1)  # a plain bisection


@pytest.mark.parametrize("k", [291, 2000])
def test_root_isolation_past_the_guard_bits_probes_the_top_cell(k, monkeypatch):
    # past 256 + 34 bits Newton starts at 2 itself and returns it; the
    # estimate, clamped below 2, is the top cell, which holds the root
    signs = []
    monkeypatch.setattr(realnum, "characteristic_sign",
                        lambda k, x: signs.append(x) or characteristic_sign(k, x))
    lo, hi = _root_bracket.__wrapped__(k, 256)
    assert len(signs) <= 3
    assert (lo, hi) == (2 - Fraction(1, 2 ** 258), 2)
    assert characteristic_sign(k, lo) < 0 < characteristic_sign(k, hi)


@pytest.mark.parametrize("bits", [64, 256])
def test_root_cell_from_bad_estimates(bits, monkeypatch):
    # a wrong Newton estimate costs sign tests, never the bracket
    e = bits + 2
    for k in (2, 10, 45):
        expected = reference_bracket(k, bits)
        lo = expected[0] * 2 ** e
        n = lo.numerator
        for start in (n - 1, n + 1, n + 2, n - 2 ** 10, n + 2 ** 10,
                      3 * 2 ** (e - 1), 3 * 2 ** (e - 1) - 5, 0, -7,
                      2 ** (e + 1) - 1, 2 ** (e + 1), 2 ** (e + 2)):
            assert _confirm_cell(k, e, start) == (n, n + 1), (k, start)
        monkeypatch.setattr(realnum, "_newton_cell", lambda k, e: n + 2 ** 10)
        assert _root_bracket.__wrapped__(k, bits) == expected
        monkeypatch.undo()


def test_root_enclosure_sign_change_via_intervals():
    # the defining polynomial, evaluated *with enclosures* at the exact
    # dyadic endpoints, has certified opposite signs
    r = bonacci_root(9)
    with precision(320):
        for endpoint, expect_neg in ((r.bracket[0], True), (r.bracket[1], False)):
            x = Enclosure(endpoint.numerator) / Enclosure(endpoint.denominator)
            v = x ** 10 - 2 * x ** 9 + 1
            if expect_neg:
                assert v.lt(0) is True
            else:
                assert v.gt(0) is True


def test_roots_increase_to_two():
    prev = bonacci_root(2).value
    for k in range(3, 16):
        cur = bonacci_root(k).value
        assert prev.lt(cur) is True
        assert cur.lt(Enclosure(2)) is True
        prev = cur


def test_root_domain_error():
    with pytest.raises(ValueError):
        bonacci_root(1)


# ----------------------------------------------------------------------
# pi_q
# ----------------------------------------------------------------------

def test_pi_zero_sequence():
    assert pi_q((), Fraction(3, 2)).encloses(0)
    assert pi_q((0, 0, 0), Fraction(3, 2)).encloses(0)


def test_pi_all_ones_is_right_endpoint():
    # 1^inf sums to 1/(q-1)
    class Seq:
        preperiod = ()
        period = (1,)

    for q in (Fraction(3, 2), Fraction(7, 4), Fraction(9, 5)):
        v = pi_q(Seq(), q)
        assert v.encloses(Fraction(1, 1) / (q - 1))


def test_pi_periodic_value_of_one_at_root():
    # (1^(k-1) 0)^inf evaluates to exactly 1 at the k-Bonacci base
    class Seq:
        def __init__(self, k):
            self.preperiod = ()
            self.period = (1,) * (k - 1) + (0,)

    for k in (3, 5, 9):
        v = pi_q(Seq(k), bonacci_root(k).value)
        assert v.encloses(1)
        assert v.width < Fraction(1, 2 ** 200)


def test_pi_switch_identity_at_two():
    assert pi_q((1, 0), 2).encloses(Fraction(1, 2))
    class Seq:
        preperiod = (0,)
        period = (1,)
    assert pi_q(Seq(), 2).encloses(Fraction(1, 2))


@given(digits_word, bases)
@settings(max_examples=200, deadline=None)
def test_pi_finite_word_matches_exact(word, q):
    assert pi_q(tuple(word), q).encloses(exact_word_value(word, q))


@given(
    st.lists(st.sampled_from([-1, 0, 1]), max_size=8),
    st.lists(st.sampled_from([-1, 0, 1]), min_size=1, max_size=6),
    bases,
)
@settings(max_examples=150, deadline=None)
def test_pi_eventually_periodic_matches_exact(pre, per, q):
    class Seq:
        preperiod = tuple(pre)
        period = tuple(per)

    v = pi_q(Seq(), q)
    # closed form in exact rationals
    u, w = tuple(pre), tuple(per)
    exact = exact_word_value(u, q) + q ** (-len(u)) * exact_word_value(w, q) / (
        1 - q ** (-len(w))
    )
    assert v.encloses(exact)
    # independent route: truncated partial sum plus a geometric tail bracket
    expanded = u + w * ((400 - len(u)) // len(w) + 1)
    n = len(expanded)
    partial = exact_word_value(expanded, q)
    tail = q ** (-n) / (q - 1)
    assert v.lo <= partial + tail and v.hi >= partial - tail


def test_pi_result_within_ambient_interval():
    q = Fraction(8, 5)
    kappa = Fraction(1, 1) / (q - 1)
    for word in [(1, -1, 1, 0, 1), (-1, -1, -1), (1, 1, 1, 1)]:
        v = pi_q(word, q)
        assert -kappa <= v.mid <= kappa


def test_pi_rejects_bad_digit():
    with pytest.raises(ValueError):
        pi_q((0, 2), Fraction(3, 2))


def reference_horner(digits, q):
    acc = Enclosure(0)
    for d in reversed(digits):
        acc = (acc + d) / q
    return acc


def horner_words():
    rng = random.Random(13)
    words = [(), (0,), (0,) * 40, (-1,), (-1,) * 30, (1,) * 30]
    for _ in range(60):
        word = tuple(rng.choice((-1, 0, 1)) for _ in range(rng.randrange(1, 70)))
        words.append(word)
        # leading -1s: the last steps divide a negative accumulator
        words.append((-1,) * rng.randrange(1, 4) + word)
    words += [tuple(contraction_block(k).digits) for k in (2, 9, 10, 13, 31, 40)]
    return words


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_horner_kernel_matches_enclosure_reference(bits):
    class Periodic:
        def __init__(self, k):
            self.preperiod = (1, 0, -1)
            self.period = tuple(contraction_block(k).digits)

    with precision(bits):
        bases = [Enclosure(Fraction(3, 2)), Enclosure(Fraction(8, 5)), Enclosure(2),
                 Enclosure(Fraction(-3, 2))]
        for k in (10, 40):
            root = bonacci_root(k).value
            radius = Enclosure(2) ** (-(3 * k + 3))
            bases += [root, root - radius, Enclosure.from_endpoints(
                (root - radius).lo, (root + radius).hi)]
        for q in bases:
            for word in horner_words():
                expected = reference_horner(word, q)
                assert pi_q(word, q) == expected, (q, word)
            for k in (2, 10, 40):
                seq = Periodic(k)
                closed = reference_horner(seq.preperiod, q) + q ** (-3) * reference_horner(
                    seq.period, q) / (1 - q ** (-k))
                assert pi_q(seq, q) == closed
        straddle = Enclosure.from_endpoints(Fraction(-1, 4), Fraction(3, 2))
        for q in (straddle, Enclosure(0), Enclosure.from_endpoints(0, 2)):
            for word in ((1,), (0,), (-1, 1, 0)):
                with pytest.raises(PrecisionError, match="contains zero"):
                    reference_horner(word, q)
                with pytest.raises(PrecisionError, match="contains zero"):
                    pi_q(word, q)
            assert pi_q((), q) == reference_horner((), q)


def reference_add_div_loop(word, q):
    """pi_q's Horner loop on the kernels _horner writes out."""
    acc = (0, 0, 0, 0)
    for d in reversed(word):
        if d:
            acc = _add(acc, (d, 0, d, 0))
        acc = _div(acc, q)
    return acc


@given(st.lists(st.sampled_from([-1, 0, 1]), max_size=80),
       st.one_of(enclosures(), enclosures().map(lambda q: -q), straddling_zero()),
       st.sampled_from([64, 96, 256, 512]))
@settings(max_examples=400, deadline=None)
def test_horner_kernel_matches_add_div_loop(word, q, bits):
    with precision(bits):
        try:
            expected = reference_add_div_loop(word, q._ends)
        except PrecisionError as exc:
            with pytest.raises(PrecisionError, match=re.escape(str(exc))):
                _horner(tuple(word), q._ends)
        else:
            # the kernel starts at the word's last nonzero digit, so an
            # all-zero word is a plain zero, where the loop's zero carries
            # the exponents of its divisions
            if not any(word):
                assert not expected[0] and not expected[2]
                expected = (0, 0, 0, 0)
            assert _horner(tuple(word), q._ends) == expected


def run_words(j):
    """Words whose last nonzero digits are a run of exactly j ones (all-zero
    words aside: the loop's zero carries the exponents of its divisions)."""
    return [head + (1,) * j + tail for head in ((), (-1,), (1, 0, -1, 0))
            for tail in ((), (0, 0)) if head or j]


def run_bases():
    root = bonacci_root(10).value
    radius = Enclosure(2) ** (-33)
    return [Enclosure(Fraction(13, 8)), Enclosure(Fraction(-3, 2)),
            Enclosure.from_endpoints((root - radius).lo, (root + radius).hi)]


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_horner_reads_runs_of_ones_from_one_chain_per_base(bits):
    # the chain of a base's run of ones grows one entry at a time (ascending
    # runs), is read back (descending), and grows by many entries at once
    # (descending after a clear); every word ends as the plain loop ends it
    with precision(bits):
        for order in (range(61), range(60, -1, -1)):
            realnum._ones_chain.cache_clear()
            for runs in (order, range(60, -1, -1)):
                for q in run_bases():
                    for j in runs:
                        for word in run_words(j):
                            assert _horner(word, q._ends) == \
                                reference_add_div_loop(word, q._ends), (q, j, word)
            for q in run_bases():
                assert len(realnum._ones_chain(q._ends, bits)) == 61


def test_horner_run_chain_is_kept_per_precision():
    # the same ends at 512 and 64 bits: each precision has its own chain
    q = Enclosure(Fraction(13, 8))._ends
    realnum._ones_chain.cache_clear()
    for bits in (512, 64, 512, 64):
        with precision(bits):
            for j in (40, 10, 60):
                word = (-1,) + (1,) * j
                assert _horner(word, q) == reference_add_div_loop(word, q), (bits, j)


def test_horner_run_chain_after_eviction():
    # more bases than the chain cache holds, then the first base again
    bases = [Enclosure(Fraction(p, 8))._ends
             for p in range(9, 10 + realnum._ones_chain.cache_info().maxsize)]
    realnum._ones_chain.cache_clear()
    for q in bases + bases[:1]:
        for j in (30, 5, 50):
            for word in run_words(j):
                assert _horner(word, q) == reference_add_div_loop(word, q), (q, j, word)


def test_horner_skips_a_words_trailing_zeros():
    # a zero accumulator divided by q stays exactly zero, so the trailing
    # zeros change nothing; q's zero test still holds for any nonempty word
    q = bonacci_root(3).value._ends
    assert _horner((1, 0, -1) + (0,) * 50, q) == _horner((1, 0, -1), q)
    assert _horner((0,) * 5, q) == (0, 0, 0, 0)
    for word in ((0,), (0, 0, 1)):
        with pytest.raises(PrecisionError, match="division"):
            _horner(word, (-1, 0, 1, 0))


# ----------------------------------------------------------------------
# the branch-walk kernel vs mpmath's rounded operations
# ----------------------------------------------------------------------

@st.composite
def raw_values(draw, bits):
    """A finite libmp value with at most `bits` mantissa bits, zero among
    them, over exponents that put it far below, near and far above 1."""
    man = draw(st.one_of(st.just(0), st.integers(1 - 2 ** bits, 2 ** bits - 1),
                         st.integers(-8, 8)))
    return from_man_exp(man, draw(st.integers(-bits - 80, 8)))


@st.composite
def raw_nodes(draw, bits, lower=None):
    """A raw pair lo <= hi whose lower end is zero, negative with hi <= 0,
    negative with hi > 0 (straddling zero), or anything (lower None)."""
    nonzero = raw_values(bits).filter(lambda v: v[1])
    if lower == "zero":
        a, b = fzero, mpf_abs(draw(raw_values(bits)))
    elif lower == "negative":
        a, b = mpf_neg(mpf_abs(draw(nonzero))), mpf_neg(mpf_abs(draw(raw_values(bits))))
    elif lower == "straddling":
        a, b = mpf_neg(mpf_abs(draw(nonzero))), mpf_abs(draw(nonzero))
    else:
        a, b = draw(raw_values(bits)), draw(raw_values(bits))
    return (a, b) if mpf_cmp(a, b) <= 0 else (b, a)


def reference_step(q, x, eps, bits):
    lo, hi = mpi_mul(q, x, bits)
    if eps:
        n = from_int(eps)
        lo, hi = mpf_sub(lo, n, bits, round_floor), mpf_sub(hi, n, bits, round_ceiling)
    return lo, hi


def reference_within(x, lo, hi):
    if mpf_cmp(x[0], lo[1]) >= 0 and mpf_cmp(x[1], hi[0]) <= 0:
        return True
    if mpf_cmp(x[1], lo[0]) < 0 or mpf_cmp(x[0], hi[1]) > 0:
        return False
    return None


@st.composite
def kernel_cases(draw):
    """bits, a raw q with a positive lower end, a node x whose lower end is
    zero, negative, straddling or anything, and a random node."""
    bits = draw(st.sampled_from([53, 64, 256, 512]))
    q_lo = mpf_abs(draw(raw_values(bits).filter(lambda v: v[1])))
    q = q_lo, mpf_add(q_lo, mpf_abs(draw(raw_values(bits))))
    lower = draw(st.sampled_from([None, "zero", "negative", "straddling"]))
    return bits, q, draw(raw_nodes(bits, lower)), draw(raw_nodes(bits))


@given(kernel_cases(), st.sampled_from([-1, 0, 1]))
@settings(max_examples=500, deadline=None)
def test_walk_kernel_matches_mpmath(case, eps):
    bits, q, x, y = case
    node = from_raw
    width = lambda v: mpf_sub(v[1], v[0])  # exact
    saved = realnum._prec
    realnum._prec = bits  # 53 bits is below set_precision's floor
    try:
        # the product kernel, then the digit subtracted by the shared add
        child = to_raw(_add(_mul(node(q), node(x)), (-eps, 0, -eps, 0)))
        nodes = (x, y, child)
        # the level kernel with the nodes in every role: probe and domain end;
        # each probe twice in a walk's fresh tables, so that the first takes
        # the path for an exponent met first and the second the table's
        levels = [(s_hi, s_lo, top, probe, certified,
                   _walk_level(node(q), node(s_hi), node(s_lo), node(top),
                               [node(probe)] * 2, [certified] * 2, ({}, {})))
                  for s_hi in nodes for s_lo in nodes for top in nodes
                  for probe, certified in zip(nodes, (True, False, True))]
    finally:
        realnum._prec = saved
    assert child == reference_step(q, x, eps, bits)
    assert to_raw(node(x)) == x
    # each level as the walk reads it: digit 0 on [0, s_hi], digit 1 on
    # [s_lo, top], a child per digit not excluded, rounded as
    # reference_step rounds it, and a stop at an undecided node wider
    # than [s_lo, s_hi]
    for s_hi, s_lo, top, probe, certified, got in levels:
        m0, m1 = reference_within(probe, (fzero, fzero), s_hi), reference_within(probe, s_lo, top)
        if None in (m0, m1) and mpf_cmp(width(probe), mpf_sub(s_hi[1], s_lo[0])) > 0:
            assert got is None
            continue
        want = [(reference_step(q, probe, digit, bits), certified and m is True)
                for digit, m in ((0, m0), (1, m1)) if m is not False]
        children, flags, forks = got
        assert [(to_raw(c), f) for c, f in zip(children, flags)] == want * 2
        assert forks == ([node(probe)] * 2 if m0 is True and m1 is True else [])
    # membership with the three nodes in every role: probe, lower and upper bound
    for lo in nodes:
        for hi in nodes:
            for probe in nodes:
                assert _within(node(lo), node(hi))(node(probe)) == \
                    reference_within(probe, lo, hi)
    for a in nodes:
        for b in nodes:
            assert _wider(node(a), node(b)) == (mpf_cmp(width(a), width(b)) > 0)


@st.composite
def bound_cases(draw):
    """A precision, the six domain-bound ends of a walk (negative, zero and
    positive mantissas at nearby exponents) and a node end's exponent on
    either side of theirs, out to past the tables' reach."""
    bits = draw(st.sampled_from([64, 256]))
    mantissas = st.one_of(st.just(0), st.integers(-8, 8),
                          st.integers(1 - 2 ** bits, 2 ** bits - 1))
    f = draw(st.integers(-bits - 80, 40))
    ends = [(draw(mantissas), f + draw(st.integers(-40, 40))) for _ in range(6)]
    return bits, ends, f + draw(st.integers(-2 * bits - 60, 2 * bits + 60))


@given(bound_cases(), st.lists(st.integers(-2 ** 600, 2 ** 600), max_size=4))
@settings(max_examples=400, deadline=None)
def test_walk_bounds_and_units_agree_with_fraction_compares(case, more):
    bits, ends, e = case
    value = lambda m, f: Fraction(m) * Fraction(2) ** f
    (hl, tl, ll, hh, lh, th) = ends  # s_hi, top and s_lo's lower ends, then their upper ends
    with precision(bits):
        got = realnum._bounds_at(e, hl + hh, ll + lh, tl + th)
    if e < max(f for _, f in ends) - 2 * bits:
        assert got is None  # no bound shifted further than the tables reach
    else:
        # the upper end's compares with s_hi.lo, top.lo, s_lo.lo (<=, <=, <),
        # the lower end's with s_hi.hi, s_lo.hi, top.hi (>, >=, >)
        relations = ((lambda a, t: a <= t),) * 2 + (
            (lambda a, t: a < t), (lambda a, t: a > t), (lambda a, t: a >= t), (lambda a, t: a > t))
        for k, (end, bound, holds) in enumerate(zip(ends, got, relations)):
            for a in [bound - 1, bound, bound + 1, 0, -bound] + more:
                assert holds(a, bound) == holds(value(a, e), value(*end)), (k, a, e, end)
    # digit 1's unit: a level of two copies of the point a 2**e at q = 1,
    # outside digit 0's domain and inside digit 1's, so that each has the
    # one child a 2**e - 1; the first copy's comes from _add and fills the
    # unit table where -bits <= e < 0, the second's from the table
    low, high = (-1, 8 * bits, -1, 8 * bits), (1, 8 * bits, 1, 8 * bits)
    for a in [0, 1, -1, 2 ** bits - 1, 1 - 2 ** bits] + [m for m, _ in ends]:
        units = {}
        with precision(bits):
            children, _, _ = _walk_level((1, 0, 1, 0), low, low, high, [(a, e, a, e)] * 2,
                                         [True] * 2, ({}, units))
            want = _add((a, e, a, e), (-1, 0, -1, 0))
        assert children == [want, want]
        assert units == ({e: 2 ** -e} if -bits <= e < 0 else {})
        assert value(*want[:2]) <= value(a, e) - 1 <= value(*want[2:])


def test_walk_cost_does_not_grow_with_the_exponent_gap():
    # from x = 2**-(10**6) at q = 3/2 every node lies about 10**6 bits
    # below the domain bounds, too far to shift them to: each is tested by
    # _within's compares, and no shifted bound is built
    x = Enclosure(2) ** -10 ** 6
    start = time.perf_counter()
    report = count_prefixes(Fraction(3, 2), x)
    assert time.perf_counter() - start < 0.05
    assert set(report.certified_min) == set(report.possible_max) == {1}


# ----------------------------------------------------------------------
# projection gap: |pi_q1(s) - pi_q2(s)| <= |q1 - q2| / ((q1 - 1)(q2 - 1)),
# the bound s_family_drift_within_margin rests on
# ----------------------------------------------------------------------

def projection_gap(q1, q2, seq) -> tuple[Enclosure, Enclosure]:
    """The difference of one sequence's values at two bases, and its bound."""
    q1, q2 = as_enclosure(q1), as_enclosure(q2)
    return (abs(pi_q(seq, q1) - pi_q(seq, q2)),
            abs(q1 - q2) / ((q1 - 1) * (q2 - 1)))


def test_projection_gap_same_base():
    d, bound = projection_gap(Fraction(3, 2), Fraction(3, 2), (1, 0, 1))
    assert d.encloses(0) and bound.encloses(0)


def test_projection_gap_zero_sequence():
    d, bound = projection_gap(Fraction(3, 2), Fraction(9, 5), (0, 0))
    assert d.encloses(0) and bound.gt(0) is True


def test_projection_gap_bound_attained():
    # for 1^inf at q1=3/2, q2=8/5 both sides equal 1/3 exactly
    class Seq:
        preperiod = ()
        period = (1,)

    d, bound = projection_gap(Fraction(3, 2), Fraction(8, 5), Seq())
    assert d.encloses(Fraction(1, 3)) and bound.encloses(Fraction(1, 3))


@given(
    st.lists(st.sampled_from([0, 1]), min_size=1, max_size=15).filter(lambda w: any(w)),
    bases,
    bases,
)
@settings(max_examples=100, deadline=None)
def test_projections_decrease_with_base(word, q1, q2):
    # for a nonzero 0/1 word, a larger base gives a strictly smaller value
    if q1 == q2:
        return
    lo_q, hi_q = min(q1, q2), max(q1, q2)
    a = pi_q(tuple(word), lo_q)
    b = pi_q(tuple(word), hi_q)
    assert b.lt(a) is True


def test_projection_gap_respects_bound_on_random_words():
    class Seq:
        preperiod = (1, 0, 1)
        period = (1, 1, 0)

    d, bound = projection_gap(Fraction(3, 2), Fraction(19, 10), Seq())
    assert d.lt(bound) is True


# ----------------------------------------------------------------------
# precision plumbing
# ----------------------------------------------------------------------

def test_precision_context_narrows_enclosures():
    q = Fraction(13, 8)
    with precision(64):
        wide = pi_q((1, 0, 1, 1), Enclosure(1) / 3 + q)
    with precision(512):
        narrow = pi_q((1, 0, 1, 1), Enclosure(1) / 3 + q)
    assert narrow.width < wide.width


def test_pi_q_value_is_kept_per_precision():
    # the same word and the same q ends at 64 and 512 bits: the precision is
    # part of the key under which a base's run of ones is kept
    q = Enclosure(Fraction(13, 8))
    widths = []
    for bits in (64, 512, 64, 512):
        with precision(bits):
            widths.append(pi_q((1, 0, 1, 1, 0, 1), q).width)
    assert widths[0] == widths[2] > widths[1] == widths[3] > 0


def test_set_precision_floor():
    with pytest.raises(ValueError):
        precision(32).__enter__()


SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# no mpmath at run time
# ----------------------------------------------------------------------

_PIPELINES_WITHOUT_MPMATH = """
import contextlib, io, sys
from fractions import Fraction
import betacert, betacert.cli
from betacert import Enclosure, bonacci_root
assert "mpmath" not in sys.modules, "import"
for argv in (["certify", "--k", "10", "--interval"],
             ["certify", "--m", "1", "--k", "31", "--interval"],
             ["count", "--q", "3/2", "--x", "1/2", "--depth", "30"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert betacert.cli.main(argv) == 0, argv
    assert "mpmath" not in sys.modules, argv
# the pipelines' Fraction powers at a point too
for base in (bonacci_root(31).value ** 27, Enclosure(Fraction(1, 8)), Enclosure(3)):
    for exponent in (Fraction(-19, 20), Fraction(19, 20), Fraction(1, 20), Fraction(20, 19)):
        base ** exponent
assert "mpmath" not in sys.modules, "Fraction powers"
# printing and a square root neither
print(Enclosure(2).str_digits(5), Enclosure(Fraction(1, 3)).str_digits(5),
      (Enclosure(4) ** Fraction(1, 2)).str_digits(5))
print("mpmath" in sys.modules)
"""


def test_import_and_pipelines_leave_mpmath_unloaded():
    # the library imports no mpmath: not at import, not in a pipeline, not
    # to print or to take a non-integer power
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("BETACERT_PREC", None)
    proc = subprocess.run([sys.executable, "-c", _PIPELINES_WITHOUT_MPMATH],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[2, 2] [0.33333, 0.33334] [2, 2]", "False"]
