"""Enclosure arithmetic, root isolation and projection values, checked
against exact rational arithmetic wherever an exact route exists."""

import os
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from math import nextafter
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import iv
from mpmath.libmp import finf, fnan, fninf

from betacert.certify import theorem_b_certify
from betacert.realnum import (
    Enclosure,
    PrecisionError,
    as_enclosure,
    bonacci_root,
    characteristic_sign,
    enc_log,
    enc_max,
    enc_min,
    exact_keys,
    get_precision,
    membership,
    pi_q,
    precision,
    projection_gap,
)


rationals = st.fractions(min_value=Fraction(-50), max_value=Fraction(50), max_denominator=1000)
bases = st.fractions(min_value=Fraction(11, 10), max_value=Fraction(199, 100), max_denominator=100)
digits_word = st.lists(st.sampled_from([-1, 0, 1]), max_size=25)


def exact_word_value(word, q: Fraction) -> Fraction:
    return sum(Fraction(d, 1) / q ** (i + 1) for i, d in enumerate(word))


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


@given(st.lists(enclosures(), max_size=12))
@settings(max_examples=200, deadline=None)
def test_exact_keys_order_as_fractions(xs):
    raws = [end for x in xs for end in x.raw]
    exact = [end for x in xs for end in (x.lo, x.hi)]
    keys = exact_keys(raws)
    for i in range(len(raws)):
        for j in range(len(raws)):
            assert (keys[i] < keys[j]) is (exact[i] < exact[j])
            assert (keys[i] == keys[j]) is (exact[i] == exact[j])


def test_non_finite_endpoints_raise():
    # the operation that would make an infinite or nan endpoint raises,
    # naming itself, so no such enclosure is ever built
    one, unit = Enclosure(1), Enclosure.from_endpoints(0, 1)
    straddle = Enclosure.from_endpoints(-1, 1)
    for build, op in ((lambda: one / straddle, "division"),
                      (lambda: one / Enclosure.from_endpoints(0, 0), "division"),
                      (lambda: 1 / straddle, "division"),
                      (lambda: Fraction(1, 3) / unit, "division"),
                      (lambda: unit ** -1, "power"),
                      (lambda: enc_log(unit), "logarithm")):
        with pytest.raises(PrecisionError, match=op):
            build()
    for build in (lambda: Enclosure("inf"), lambda: Enclosure("nan"),
                  lambda: Enclosure.from_endpoints(0, "inf")):
        with pytest.raises(ValueError, match="decimal string"):
            build()


def test_logarithms_and_real_powers_below_zero():
    # an argument that reaches or straddles zero is a precision matter,
    # like the non-finite endpoints above; a certifiably negative one is
    # outside the domain, with the library's own message, not mpmath's
    straddle = Enclosure.from_endpoints(-1, 1)
    unit = Enclosure.from_endpoints(0, 1)
    negative = Enclosure(-2)
    half = Fraction(1, 2)
    for x in (straddle, unit):
        with pytest.raises(PrecisionError, match="logarithm"):
            enc_log(x)
    with pytest.raises(PrecisionError, match="power"):
        straddle ** half
    assert (unit ** half).raw == unit.raw  # sqrt of [0, 1] is defined
    for build, op in ((lambda: enc_log(negative), "logarithm"),
                      (lambda: negative ** half, "power")):
        with pytest.raises(ValueError, match=op) as caught:
            build()
        assert type(caught.value) is ValueError
    # log to a base below zero, and non-integer exponents given as enclosures
    with pytest.raises(PrecisionError, match="logarithm"):
        enc_log(2, straddle)
    with pytest.raises(ValueError, match="logarithm"):
        enc_log(2, negative)
    # a base of exactly zero is outside the domain; one that only reaches
    # zero is a precision matter
    with pytest.raises(ValueError, match="base of a logarithm is zero") as caught:
        enc_log(2, Enclosure(0))
    assert type(caught.value) is ValueError
    with pytest.raises(PrecisionError, match="logarithm"):
        enc_log(2, unit)
    # so are an argument of exactly zero and a base of exactly one; a base
    # that only contains one is a precision matter
    for build, what in ((lambda: enc_log(Enclosure(0)), "argument of a logarithm is zero"),
                        (lambda: enc_log(2, Enclosure(1)), "base of a logarithm is one")):
        with pytest.raises(ValueError, match=what) as caught:
            build()
        assert type(caught.value) is ValueError
    with pytest.raises(PrecisionError, match="logarithm"):
        enc_log(2, Enclosure.from_endpoints(half, 2))
    with pytest.raises(ValueError, match="power"):
        negative ** Enclosure.from_endpoints(1, 2)
    # integer exponents keep the integer power on any base
    assert (negative ** 3).raw == Enclosure(-8).raw
    assert (straddle ** Enclosure(2)).raw == unit.raw


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
    with pytest.raises(TypeError, match="Fraction or a decimal string"):
        e.encloses(0.1)
    assert e.encloses(Fraction(1, 10)) and e.encloses("0.1")
    assert Enclosure(3).encloses(3) and not Enclosure(3).encloses(2)


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
    for enclosures and fractions, the int itself for ints."""
    if isinstance(v, Enclosure):
        return iv.make_mpf(v.raw)
    if isinstance(v, Fraction):
        return iv.mpf(v.numerator) / iv.mpf(v.denominator)
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
    """e.raw, once both of its endpoints are checked to be finite."""
    assert not unbounded(e.raw)
    return e.raw


def assert_quotient(quotient, reference) -> None:
    """quotient() has exactly the reference interval's endpoints; where
    those are not all finite, it raises PrecisionError instead."""
    if unbounded(reference._mpi_):
        with pytest.raises(PrecisionError, match="division|logarithm"):
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
       st.integers(-40, 40), small_fractions, small_fractions, decimal_literals,
       st.integers(1, 60))
@settings(max_examples=400, deadline=None)
def test_arithmetic_kernels_match_interval_operators(x, y, bits, n, f, g, text, digits):
    with precision(bits), interval_precision(bits):
        a, b = iv.make_mpf(x.raw), mpmath_operand(y)
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
        # powers and logarithms of a positive base
        base = abs(x) + Fraction(1, 3)
        p = iv.make_mpf(base.raw)
        exponent = Enclosure.from_endpoints(min(f, g), max(f, g))
        for e in (n, f, exponent):
            assert finite_raw(base ** e) == (p ** mpmath_operand(e))._mpi_
        assert finite_raw(enc_log(base)) == iv.log(p)._mpi_
        other = abs(Enclosure(y)) + Fraction(1, 3)
        for log_base in (2, other):
            assert_quotient(lambda: enc_log(base, log_base),
                            iv.log(p) / iv.log(mpmath_operand(log_base)))
        # parsing and printing
        assert finite_raw(Enclosure(text)) == iv.mpf(text)._mpi_
        assert x.str_digits(digits) == iv.nstr(a, digits)
        assert repr(x) == f"Enclosure({iv.nstr(a, 20)})"
        printed = x.str_digits(digits)
        assert finite_raw(Enclosure(printed)) == iv.mpf(printed)._mpi_


def reference_float_bounds(e):
    """Outward doubles through the exact rational endpoints."""
    lo_f, hi_f = float(e.lo), float(e.hi)
    if Fraction(lo_f) > e.lo:
        lo_f = nextafter(lo_f, float("-inf"))
    if Fraction(hi_f) < e.hi:
        hi_f = nextafter(hi_f, float("inf"))
    return lo_f, hi_f


# zero, and dyadics with 1 to 70 significant bits from the subnormal
# range up past the largest double
report_endpoints = st.one_of(
    st.just(Fraction(0)),
    st.builds(lambda m, e: Fraction(m) * Fraction(2) ** e,
              st.integers(-(2 ** 70), 2 ** 70),
              st.one_of(st.integers(-1150, -1000), st.integers(-80, 80),
                        st.integers(950, 1030))),
)


@given(report_endpoints, report_endpoints)
@settings(max_examples=400, deadline=None)
def test_float_bounds_match_the_rational_reference(a, b):
    e = Enclosure.from_endpoints(min(a, b), max(a, b))
    try:
        want = reference_float_bounds(e)
    except OverflowError:
        with pytest.raises(OverflowError):
            e.float_bounds()
        return
    assert e.float_bounds() == want


def test_float_bounds_edge_endpoints():
    tiny, huge = Fraction(2) ** -1074, Fraction(2) ** 1023
    for lo, hi in [(0, 0), (-tiny, tiny), (Fraction(2) ** -1022, Fraction(3, 2)),
                   (-huge * 2 + Fraction(2) ** 971, huge),  # minus the largest double
                   (Fraction(1, 3), Fraction(2, 3))]:
        e = Enclosure.from_endpoints(Fraction(lo), Fraction(hi))
        assert e.float_bounds() == reference_float_bounds(e)
    # above the largest double: within half an ulp of it the rational
    # route gives inf, beyond that float() overflows
    top = huge * 2 - Fraction(2) ** 971
    e = Enclosure.from_endpoints(Fraction(0), top + Fraction(2) ** 900)
    assert e.float_bounds() == reference_float_bounds(e) == (0.0, float("inf"))
    for hi in (huge * 2 - Fraction(2) ** 900, huge * 2):
        with pytest.raises(OverflowError):
            Enclosure.from_endpoints(0, hi).float_bounds()
    with pytest.raises(PrecisionError):
        (Enclosure(1) / Enclosure.from_endpoints(-1, 1)).float_bounds()


def test_log_contains():
    v = enc_log(Enclosure(8), base=Enclosure(2))
    assert v.encloses(3)


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
        r = bonacci_root(k, 128)
        lo, hi = r.bracket
        assert characteristic_sign(k, lo) < 0 < characteristic_sign(k, hi)
        assert hi - lo <= Fraction(1, 2 ** 128)
        assert Fraction(3, 2) < lo and hi < 2


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


# ----------------------------------------------------------------------
# projection_gap
# ----------------------------------------------------------------------

def test_projection_gap_same_base():
    assert projection_gap(Fraction(3, 2), Fraction(3, 2), (1, 0, 1)).encloses(0)


def test_projection_gap_zero_sequence():
    assert projection_gap(Fraction(3, 2), Fraction(9, 5), (0, 0)).encloses(0)


def test_projection_gap_bound_attained():
    # for 1^inf at q1=3/2, q2=8/5 both sides equal 1/3 exactly
    class Seq:
        preperiod = ()
        period = (1,)

    d = projection_gap(Fraction(3, 2), Fraction(8, 5), Seq())
    assert d.encloses(Fraction(1, 3))


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

    q1, q2 = Fraction(3, 2), Fraction(19, 10)
    d = projection_gap(q1, q2, Seq())
    bound = abs(q1 - q2) / ((q1 - 1) * (q2 - 1))
    assert d.lt(Enclosure(bound)) is True


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


def test_set_precision_floor():
    with pytest.raises(ValueError):
        precision(32).__enter__()


SRC = Path(__file__).resolve().parent.parent / "src"


def import_with_env_precision(value: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, BETACERT_PREC=value,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", "import betacert; print(betacert.get_precision())"],
        env=env, capture_output=True, text=True, timeout=120)


def test_env_precision_is_validated_at_import():
    ok = import_with_env_precision("128")
    assert ok.returncode == 0 and ok.stdout.strip() == "128"
    for bad in ("16", "256.5"):
        proc = import_with_env_precision(bad)
        assert proc.returncode != 0
        assert "ValueError" in proc.stderr and ">= 64" in proc.stderr


# ----------------------------------------------------------------------
# isolation from the host's mpmath contexts
# ----------------------------------------------------------------------

def test_host_interval_precision_leaves_certificates_alone():
    def certificate():
        doc = theorem_b_certify(10).to_json_dict()
        del doc["wall_time_ms"]
        return doc

    reference = certificate()
    with interval_precision(64):
        assert certificate() == reference


def test_precision_leaves_host_interval_precision_alone():
    with interval_precision(99):
        with precision(512):
            assert get_precision() == 512 and iv.prec == 99
        assert iv.prec == 99


def test_import_leaves_host_interval_precision_alone():
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    env.pop("BETACERT_PREC", None)
    code = "from mpmath import iv; before = iv.prec; import betacert; print(before, iv.prec)"
    proc = subprocess.run([sys.executable, "-c", code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    before, after = proc.stdout.split()
    assert after == before
