"""Branch counting, the switch region, and digit cycles.

Oracles:
  * an exhaustive exact-Fraction branch walk over all digit strings
    (closed-interval domain tests, no enclosures anywhere);
  * an exact golden-base walk in Z[G] (G^2 = G + 1, sign decisions through
    the minimal polynomial) for the classic x = 1 instance whose true
    per-depth count is d + 1;
  * the first witness value at the order-9 root, whose two children both
    continue along eventually periodic run-limited digit strings.
"""

import math
from fractions import Fraction
from functools import lru_cache
from types import FunctionType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacert.expansions import (
    NODE_BUDGET,
    CountReport,
    DigitMaps,
    certify_m_expansions,
    count_prefixes,
)
from betacert import realnum
from betacert.realnum import (Enclosure, PrecisionError, _canon, _walk_level,
                              as_enclosure, bonacci_root, membership, pi_q, precision)
from betacert.symbolic import ResourceError, SymbolicSeq, Word

F = Fraction


# ------------------------------------------------------- exact oracles


def oracle_counts(q: F, x: F, depth: int):
    """True per-depth branch counts by exhaustive exact-rational walk.

    Also reports whether any orbit value landed exactly on a domain
    endpoint (the cases where fail-closed certified counts may lag)."""
    hi = 1 / (q - 1)
    f0_hi = hi / q
    f1_lo = 1 / q
    frontier = [x]
    counts = []
    boundary = False
    for _ in range(depth):
        nxt = []
        for y in frontier:
            if y in (0, f0_hi, f1_lo, hi):
                boundary = True
            if 0 <= y <= f0_hi:
                nxt.append(q * y)
            if f1_lo <= y <= hi:
                nxt.append(q * y - 1)
        frontier = nxt
        counts.append(len(nxt))
    return counts, boundary


def oracle_words(q: F, x: F, depth: int):
    """The surviving digit strings themselves (exact arithmetic)."""
    hi = 1 / (q - 1)
    f0_hi = hi / q
    f1_lo = 1 / q
    frontier = [(x, ())]
    for _ in range(depth):
        nxt = []
        for y, w in frontier:
            if 0 <= y <= f0_hi:
                nxt.append((q * y, w + (0,)))
            if f1_lo <= y <= hi:
                nxt.append((q * y - 1, w + (1,)))
        frontier = nxt
    return frontier


class GoldenNumber:
    """Exact arithmetic in Z[G] with G the positive root of t^2 = t + 1."""

    __slots__ = ("a", "b")

    def __init__(self, a, b=0):
        self.a, self.b = F(a), F(b)

    def times_g(self):
        # G (a + bG) = aG + b(G + 1) = b + (a + b) G
        return GoldenNumber(self.b, self.a + self.b)

    def __sub__(self, other):
        return GoldenNumber(self.a - other.a, self.b - other.b)

    def sign(self):
        a, b = self.a, self.b
        if b == 0:
            return (a > 0) - (a < 0)
        # a + bG > 0  <=>  G > -a/b (b > 0)  or  G < -a/b (b < 0)
        t = -a / b
        below_g = t <= 0 or t * t - t - 1 < 0  # t < G (equality impossible)
        if b > 0:
            return 1 if below_g else -1
        return -1 if below_g else 1


def oracle_golden_counts(depth: int):
    """True counts for x = 1 at the golden base, all decisions exact."""
    one = GoldenNumber(1)
    g = GoldenNumber(0, 1)
    zero = GoldenNumber(0)
    # f0 domain [0, 1/(G(G-1))] = [0, 1]; f1 domain [1/G, G] = [G-1, G]
    f0_hi = GoldenNumber(1)
    f1_lo = GoldenNumber(-1, 1)
    frontier = [one]
    counts = []
    for _ in range(depth):
        nxt = []
        for y in frontier:
            if (y - zero).sign() >= 0 and (f0_hi - y).sign() >= 0:
                nxt.append(y.times_g())
            if (y - f1_lo).sign() >= 0 and (g - y).sign() >= 0:
                shifted = y.times_g()
                nxt.append(GoldenNumber(shifted.a - 1, shifted.b))
        frontier = nxt
        counts.append(len(nxt))
    return counts


# ------------------------------------------------------- digit maps


def test_digit_maps_domains_are_the_exact_formulas():
    q = F(3, 2)
    maps = DigitMaps(q)
    assert maps.attractor[1].lo <= F(2) <= maps.attractor[1].hi
    assert maps.switch[0].lo <= F(2, 3) <= maps.switch[0].hi
    assert maps.switch[1].lo <= F(4, 3) <= maps.switch[1].hi


def test_digit_maps_membership_is_tri_valued():
    maps = DigitMaps(F(3, 2))
    assert membership(as_enclosure(F(3, 4)), *maps.switch) is True
    assert membership(as_enclosure(F(1, 2)), *maps.switch) is False
    assert maps.in_attractor(F(5, 2)) is False
    # golden base: 1 is exactly the right end of the switch region, and
    # two different computation routes cannot certify that
    golden = DigitMaps(bonacci_root(2).value)
    assert membership(Enclosure(1), *golden.switch) is None


def test_digit_maps_validation():
    with pytest.raises(ValueError):
        DigitMaps(F(5, 2))


# ------------------------------------------------------- counting


def test_count_zero_is_always_one():
    r = count_prefixes(F(3, 2), 0, depth=25)
    assert set(r.certified_min) == {1}
    assert set(r.possible_max) == {1}
    assert r.stabilized
    assert r.branch_events == ()


def test_count_right_endpoint_is_always_one():
    # 1/(q-1) = 2 at q = 3/2: only the all-ones string survives
    r = count_prefixes(F(3, 2), 2, depth=25)
    assert set(r.certified_min) == {1}
    assert set(r.possible_max) == {1}


def test_count_golden_base_at_one_grows_linearly():
    # the true count at depth d is d + 1; x = 1 sits exactly on the switch
    # region's right end, so the certified lower bound stays at 1 while
    # the possible count tracks the true value exactly
    r = count_prefixes(bonacci_root(2).value, 1, depth=14)
    assert r.possible_max == tuple(range(2, 16))
    assert set(r.certified_min) == {1}
    assert not r.stabilized
    assert oracle_golden_counts(12) == list(r.possible_max[:12])


def test_count_rejects_certified_outsiders():
    with pytest.raises(ValueError):
        count_prefixes(F(3, 2), F(5, 2), depth=5)
    with pytest.raises(ValueError):
        count_prefixes(F(3, 2), F(1, 2), depth=0)


def test_count_node_budget_overflow():
    # the budget's 11th node is the first of depth 5's six
    with pytest.raises(ResourceError, match=r"budget of 10 at depth 5 \(frontier size 6\)$"):
        count_prefixes(F(3, 2), 1, depth=20, node_budget=10)


def test_widening_node_within_the_budget_stops_the_walk_first():
    # golden base, x = 1, 64 bits: the levels before depth 88 hold
    # 1 + 2 + ... + 87 = 3,828 nodes, and the first of depth 88's 88 nodes
    # is wider than the switch region
    with precision(64):
        q = bonacci_root(2).value
        with pytest.raises(ResourceError,
                           match=r"budget of 3828 at depth 88 \(frontier size 88\)$"):
            count_prefixes(q, 1, depth=400, node_budget=3828)
        # the budget runs out later in that level, after the widening node
        with pytest.raises(PrecisionError, match="node at depth 87 .* wider than the switch"):
            count_prefixes(q, 1, depth=400, node_budget=3900)


def test_widening_node_with_far_apart_ends_stops_the_walk_at_once():
    # x = [-2**-(10**12), 1/2]: undecided, and wider than the switch region;
    # the widening test compares the widths without a 10**12-bit shift
    x = Enclosure._wrap((-1, -10 ** 12, 1, -1))
    with pytest.raises(PrecisionError, match="wider than the switch region"):
        count_prefixes(F(3, 2), x)


def reference_walk(q, x, depth: int):
    """count_prefixes written with Enclosure operations only: each
    membership is also read off the tri-valued compares, each step is
    ``q * y - eps``, and an undecided node wider than the widest reading
    of the switch region stops the walk.  Returns the CountReport, or the
    depth at which the walk stopped."""
    q, x = as_enclosure(q), as_enclosure(x)
    top = 1 / (q - 1)
    zero, s_lo, s_hi = Enclosure(0), 1 / q, top / q

    def member(y, lo, hi):
        m = membership(y, lo, hi)
        if y.ge(lo) is True and y.le(hi) is True:
            assert m is True
        elif y.lt(lo) is True or y.gt(hi) is True:
            assert m is False
        else:
            assert m is None
        return m

    frontier = [(x, member(x, zero, top) is True)]
    cmin, cmax, events = [], [], []
    processed = 0
    for d in range(1, depth + 1):
        nxt = []
        for y, certified in frontier:
            processed += 1
            m0, m1 = member(y, zero, s_hi), member(y, s_lo, top)
            if None in (m0, m1) and y.width > s_hi.hi - s_lo.lo:
                return d - 1
            if m0 is True and m1 is True:
                events.append((d - 1, y))
            for eps, m in ((0, m0), (1, m1)):
                if m is not False:
                    nxt.append((q * y - eps, certified and m is True))
        frontier = nxt
        cmin.append(sum(1 for _, c in frontier if c))
        cmax.append(len(frontier))
    tail = cmin[-max(1, depth // 4):] + cmax[-max(1, depth // 4):]
    return CountReport(x=x, depth=depth, certified_min=tuple(cmin),
                       possible_max=tuple(cmax), branch_events=tuple(events),
                       nodes_processed=processed,
                       stabilized=len(set(tail)) == 1)


def _walk_cases():
    """(q, x, depth) built at the current precision: the branch-walk
    bases, x = 0 (lower end 0, the product's general branch), golden at
    x = 1 (undecided memberships), a forking point, and band enclosures
    whose nodes straddle the domain ends and, deeper down, outgrow the
    switch region: around the order-10 root with both memberships
    undecided there, around 3/2 with only digit 1's; a start wider than
    the switch region, which stops the walk at once; a start whose digit-1
    child subtracts 1 from an end far below 2**-_prec (_add's general sum);
    and starts that straddle zero (the product's negative lower end)."""
    golden = bonacci_root(2).value
    root = bonacci_root(10).value
    band = Enclosure.from_endpoints(root.lo - F(1, 10 ** 9), root.hi + F(1, 10 ** 9))
    wide = Enclosure.from_endpoints(F(3, 2) - F(1, 10 ** 4), F(3, 2) + F(1, 10 ** 4))
    cases = [(q, F(j, 20), 24) for q in (F(3, 2), F(8, 5), F(5, 3), F(17, 10), golden)
             for j in (3, 11, 19)]
    cases += [(F(3, 2), 0, 30), (golden, 0, 30), (golden, 1, 16), (F(3, 2), 1, 14),
              (F(17, 10), F(4, 5), 16), (band, 1, 17), (band, F(1, 4), 22),
              (band, F(1, 2), 60), (wide, F(1, 20), 40),
              (F(3, 2), Enclosure.from_endpoints(F(1, 10), F(9, 10)), 5),
              (F(5, 4), Enclosure._wrap((1, -1000, 1, 0)), 3),
              (F(3, 2), Enclosure._wrap((-1, -300, 1, -2)), 3),
              (F(8, 5), Enclosure._wrap((-1, -300, 1, -70)), 30)]
    return cases


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_walk_kernel_matches_enclosure_reference(bits):
    with precision(bits):
        stopped = 0
        for q, x, depth in _walk_cases():
            want = reference_walk(q, x, depth)
            if isinstance(want, int):
                stopped += 1
                with pytest.raises(PrecisionError, match=f"widening.*depth {want} "):
                    count_prefixes(q, x, depth)
                continue
            got = count_prefixes(q, x, depth)
            assert got == want
            assert got.x == want.x
            assert list(got.branch_events) == list(want.branch_events)
        assert stopped == 3  # the deep band walks and the wide start


# The level kernel as it was before its bound and unit tables, verbatim: it
# shifts each domain bound to a node end's exponent at every compare and
# each digit-1 unit at every subtraction.  Bound to realnum's globals, so
# that it reads the working precision and the helpers the kernel reads.
def _reference_walk_level(q, s_hi, s_lo, top, nodes, flags):
    """One level of the branch walk: the children, their flags and the
    forks of the nodes with the given flags, or None at the first undecided
    node wider than the switch region [s_lo, s_hi].  A node is tested
    against digit 0's domain [0, s_hi] and digit 1's [s_lo, top] with
    _within's compares (at 0 a sign test); its children are q y, rounded as
    _mul rounds it for q > 0, and q y - 1, rounded as _add rounds it."""
    qam, qae, qbm, qbe = q
    sam, sae, sbm, sbe = s_hi
    tam, tae, tbm, tbe = s_lo
    uam, uae, ubm, ube = top
    tam1, tbm1, prec = tam - 1, tbm - 1, _prec
    nxt, marks, forks = [], [], []
    push, mark = nxt.append, marks.append
    for y, certified in zip(nodes, flags):
        am, ae, bm, be = y
        m0 = m1 = None
        if am >= 0 and \
                (bm <= (sam >> (be - sae)) if be >= sae else ((bm - 1) >> (sae - be)) < sam):
            m0 = True
        elif bm < 0 or \
                (am > (sbm >> (ae - sbe)) if ae >= sbe else ((am - 1) >> (sbe - ae)) >= sbm):
            m0 = False
        if (am > (tbm1 >> (ae - tbe)) if ae >= tbe else (am >> (tbe - ae)) >= tbm) and \
                (bm <= (uam >> (be - uae)) if be >= uae else ((bm - 1) >> (uae - be)) < uam):
            m1 = True
        elif (bm <= (tam1 >> (be - tae)) if be >= tae else (bm >> (tae - be)) < tam) or \
                (am > (ubm >> (ae - ube)) if ae >= ube else ((am - 1) >> (ube - ae)) >= ubm):
            m1 = False
        if m0 is None or m1 is None:
            if _wider(y, s_lo[:2] + s_hi[2:]):
                return None
        elif m0 and m1:
            forks.append(y)
        elif m0 is False and m1 is False:
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
            if -prec <= ae <= prec and -prec <= be <= prec:  # _add's exact sum, written out
                am, ae = ((am << ae) - 1, 0) if ae >= 0 else (am - (1 << -ae), ae)
                bm, be = ((bm << be) - 1, 0) if be >= 0 else (bm - (1 << -be), be)
                n = am.bit_length() - prec
                if n > 0:
                    am, ae = am >> n, ae + n
                n = bm.bit_length() - prec
                if n > 0:
                    bm, be = -(-bm >> n), be + n
                push((am, ae, bm, be))
            else:
                push(_add((am, ae, bm, be), (-1, 0, -1, 0)))
            mark(certified and m1 is True)
    return nxt, marks, forks


reference_walk_level = FunctionType(_reference_walk_level.__code__, vars(realnum))


def assert_kernel_matches_reference(q, x, depth: int) -> int:
    """Walk x's branch tree with _walk_level and with reference_walk_level
    side by side, as count_prefixes sets the walk up, asserting equal
    (nodes, flags, forks), or None, at every level; returns the number of
    levels walked before a stop.  The walk starts from two copies of x, so
    that the second is read from the tables that the first one's
    exponents filled."""
    maps = DigitMaps(q)
    x = as_enclosure(x)
    qe = _canon(*maps.q._ends[:2]) + _canon(*maps.q._ends[2:])
    s_lo, s_hi = (e._ends for e in maps.switch)
    top = maps.attractor[1]._ends
    tables = {}, {}
    nodes, flags = [x._ends] * 2, [maps.in_attractor(x) is True] * 2
    for d in range(depth):
        want = reference_walk_level(qe, s_hi, s_lo, top, nodes, flags)
        got = _walk_level(qe, s_hi, s_lo, top, nodes, flags, tables)
        assert got == want, (q, x, d)
        if got is None:
            return d
        nodes, flags, _ = got
    return depth


@pytest.mark.parametrize("bits", [64, 256, 512])
def test_walk_kernel_matches_its_reference_on_the_walk_cases(bits):
    with precision(bits):
        stops = [assert_kernel_matches_reference(*case) for case in _walk_cases()]
    assert sum(d < case[2] for d, case in zip(stops, _walk_cases())) == 3


def test_walk_kernel_matches_its_reference_on_golden_requests():
    # one request per branch-walk base whose walk processes about 1,000
    # nodes, at the default precision as the command line runs it
    for q, x, depth in ((F(3, 2), F(1, 10), 24), (F(8, 5), F(1, 10), 28),
                        (F(5, 3), F(1, 4), 30), (F(17, 10), F(1, 10), 32),
                        (bonacci_root(2).value, F(1, 4), 26)):
        assert assert_kernel_matches_reference(q, x, depth) == depth
        assert 850 < count_prefixes(q, x, depth).nodes_processed < 1150


@pytest.mark.parametrize("gap", ["prec+1", 10 ** 6])
def test_walk_kernel_matches_its_reference_at_far_exponents(gap):
    # nodes whose ends sit gap bits below the domain bounds' exponents (a
    # node's ends padded with zero bits) or above them (a zero end, or one
    # outside the attractor), one end or both: the far ones are tested by
    # _within's compares, the others through the tables
    with precision(256):
        g = 257 if gap == "prec+1" else gap
        for q in (F(3, 2), bonacci_root(2).value):
            for x in (F(1, 10), F(1, 2), F(7, 10)):
                am, ae, bm, be = Enclosure(x)._ends
                fine = [(am << g, ae - g, bm << g, be - g), (am << g, ae - g, bm, be),
                        (am, ae, bm << g, be - g)]
                for node in fine:
                    assert Enclosure._wrap(node) == Enclosure(x)
                    assert assert_kernel_matches_reference(q, Enclosure._wrap(node), 6) == 6
            e = g - 255
            for node in ((0, e, 1, -1), (0, e, 0, e), (0, e, 1, e), (-1, e, 1, -1),
                         (-1, -g - 255, 1, -1), (1, -g - 255, 1, -2)):
                assert assert_kernel_matches_reference(q, Enclosure._wrap(node), 6) >= 0


def test_walk_kernel_matches_its_reference_on_a_root_wider_than_the_precision():
    # enclosures built at 512 bits, whose mantissas are twice as long as
    # the 256-bit walk rounds to, walked at 256 bits
    with precision(512):
        roots = [Enclosure(F(1, 10)), Enclosure(F(11, 20)), pi_q(
            SymbolicSeq.periodic(Word.from_str("10")), F(8, 5))]
        q512 = bonacci_root(2).value
    for q in (F(3, 2), F(8, 5), q512):
        for x in roots:
            assert assert_kernel_matches_reference(q, x, 24) == 24


def assert_deeper_walk_cut_short(q, x, depth: int) -> CountReport:
    """The walk to depth, whose last level is counted, equals the walk to
    depth + 1, which builds that level, cut to depth: the counts, the
    events above depth, the nodes processed and the stabilization flag."""
    short, deep = count_prefixes(q, x, depth), count_prefixes(q, x, depth + 1)
    assert short.certified_min == deep.certified_min[:depth]
    assert short.possible_max == deep.possible_max[:depth]
    assert [(d, y._ends) for d, y in short.branch_events] == \
        [(d, y._ends) for d, y in deep.branch_events if d < depth]
    assert short.nodes_processed == deep.nodes_processed - deep.possible_max[depth - 1]
    window = max(1, depth // 4)
    tail = short.certified_min[-window:] + short.possible_max[-window:]
    assert short.stabilized == (len(set(tail)) == 1)
    return short


@pytest.mark.parametrize("bits", [64, 256])
def test_count_is_the_deeper_walk_cut_short(bits):
    with precision(bits):
        golden, root = bonacci_root(2).value, bonacci_root(10).value
        last_forks = 0
        for q in (F(3, 2), F(8, 5), F(17, 10), golden, root):
            for j in (1, 5, 9, 14, 19):
                for depth in (1, 7, 20):
                    report = assert_deeper_walk_cut_short(q, F(j, 20), depth)
                    last_forks += sum(d == depth - 1 for d, _ in report.branch_events)
        assert last_forks > 20  # forks in the counted level too
        # golden at x = 1: nodes reached through undecided memberships, in
        # the last level too
        report = assert_deeper_walk_cut_short(golden, 1, 30)
        assert report.certified_min[-1] < report.possible_max[-1]


def test_count_stops_in_its_last_level_as_the_deeper_walk_does():
    # the budget's 11th node is the first of depth 5's six: the walk to
    # depth 5 stops in its last level with the message of every deeper walk
    for depth in (5, 6, 20):
        with pytest.raises(ResourceError) as stop:
            count_prefixes(F(3, 2), 1, depth=depth, node_budget=10)
        assert str(stop.value) == ("branch walk exceeded the node budget of 10 "
                                   "at depth 5 (frontier size 6)")
    # golden base, x = 1, 64 bits: the first node of level 88 is wider than
    # the switch region, in the walk to depth 88 too, ahead of a budget
    # that runs out later in that level
    with precision(64):
        q = bonacci_root(2).value
        assert count_prefixes(q, 1, depth=87).possible_max[-1] == 88
        for depth in (88, 89):
            for budget in (NODE_BUDGET, 3900):
                with pytest.raises(PrecisionError, match="node at depth 87 .* wider than the switch"):
                    count_prefixes(q, 1, depth=depth, node_budget=budget)
            with pytest.raises(ResourceError, match=r"budget of 3828 at depth 88 \(frontier size 88\)$"):
                count_prefixes(q, 1, depth=depth, node_budget=3828)


def _dyadic(v: F) -> tuple:
    """The end (m, e) of the dyadic rational v, m odd or zero."""
    if v == 0:
        return 0, 0
    m, e = v.numerator, 1 - v.denominator.bit_length()
    z = (m & -m).bit_length() - 1
    return m >> z, e + z


@lru_cache(maxsize=None)
def _rounded(v: F, bits: int, up: bool) -> F:
    """v rounded down (or up) to bits significant bits: to the multiple of
    2**k below (or above) it, for the k with 2**(k+bits-1) <= |v| < 2**(k+bits)."""
    if v == 0:
        return v
    k = abs(v.numerator).bit_length() - v.denominator.bit_length() - bits
    while abs(v) >= F(2) ** (k + bits):
        k += 1
    while abs(v) < F(2) ** (k + bits - 1):
        k -= 1
    return (math.ceil if up else math.floor)(v / F(2) ** k) * F(2) ** k


def _exact_node(q, s_hi, s_lo, top, y, certified, bits):
    """One node of a branch-walk level in exact Fractions: the node and the
    bounds are (lo, hi) pairs; a digit's membership is decided by the
    compares of the node's ends with the bounds' far and near ends.  A child
    is the exact q y rounded outward to bits bits, or that child's ends
    minus 1 rounded outward again.  Returns the (child, flag) pairs and
    whether the node forks, or None if it is undecided and wider than
    [s_lo.lo, s_hi.hi]."""
    (ql, qh), (s0, s1), (l0, l1), (t0, t1), (a, b) = q, s_hi, s_lo, top, y
    m0 = True if a >= 0 and b <= s0 else False if b < 0 or a > s1 else None
    m1 = True if a >= l1 and b <= t0 else False if b < l0 or a > t1 else None
    if None in (m0, m1) and b - a > s1 - l0:
        return None
    lo = _rounded(a * (ql if a >= 0 else qh), bits, False)
    hi = _rounded(b * (qh if b >= 0 else ql), bits, True)
    children = (((lo, hi), m0),
                ((_rounded(lo - 1, bits, False), _rounded(hi - 1, bits, True)), m1))
    return [(c, certified and m is True) for c, m in children if m is not False], \
        m0 is True and m1 is True


def _small_precision_cases(bits):
    """Walk levels at bits bits: (q, s_hi, s_lo, top) and nodes, as ends.

    The bases are the values in (1, 2) with bits-bit mantissas, each as a
    point and up to the next one, with the domain bounds 1/(q(q-1)), 1/q
    and 1/(q-1) rounded outward to bits bits, plus three bound triples
    that straddle or sit below zero.  The node ends are every bits-bit
    mantissa at three exponents, some of them padded with zero bits, and
    ends more than 2 * bits bits below the bounds, where the kernel's
    tables give no entry; a node joins an end to itself and to ends 1, 3 and 40
    places above it in value."""
    one = 1 << (bits - 1)
    grid = [F(one + i, one) for i in range(1, one)]
    out = lambda lo, hi: (_rounded(lo, bits, False), _rounded(hi, bits, True))
    walks = []
    for ql, qh in [(g, g) for g in grid] + list(zip(grid, grid[1:])):
        walks.append(((ql, qh), out(1 / (qh * (qh - 1)), 1 / (ql * (ql - 1))),
                      out(1 / qh, 1 / ql), out(1 / (qh - 1), 1 / (ql - 1))))
    q = (grid[0], grid[-1])
    walks += [(q, (F(-1, 4), F(1, 4)), (F(-1, 2), F(0)), (F(0), F(3))),
              (q, (F(-3, 8), F(-1, 8)), (F(-1), F(-1, 2)), (F(-1, 4), F(1, 2))),
              (q, (F(1, 2), F(5, 8)), (F(0), F(1, 8)), (F(7, 8), F(1)))]
    ends = [(m, e) for e in (-bits - 1, -1, 1) for m in range(1 - 2 * one, 2 * one)]
    ends += [(m << 3, e - 3) for m, e in ends[::5]]
    ends += [(m, -6 * bits) for m in (-1, 1, 2 * one - 1)] + [(0, -2 * bits), (0, 4)]
    ends.sort(key=lambda end: F(end[0]) * F(2) ** end[1])
    nodes = [ends[i][:2] + ends[j] for i in range(len(ends))
             for j in (i, i + 1, i + 3, i + 40) if j < len(ends)]
    return walks, nodes


@pytest.mark.parametrize("bits", [3, 4, 5])
def test_walk_kernel_matches_exact_fractions_at_small_precision(bits, monkeypatch):
    # below set_precision's floor of 64 bits, so that every rounding edge
    # of a few-bit mantissa is met; the kernel reads the working precision
    # from realnum._prec
    monkeypatch.setattr(realnum, "_prec", bits)
    value = lambda m, e: F(m) * F(2) ** e
    pair = lambda ends: (value(*ends[:2]), value(*ends[2:]))
    to_ends = lambda lo, hi: _dyadic(lo) + _dyadic(hi)
    canon = lambda ends: _dyadic(value(*ends[:2])) + _dyadic(value(*ends[2:]))
    walks, nodes = _small_precision_cases(bits)
    exact_nodes = [pair(y) for y in nodes]
    flags = [i % 3 > 0 for i in range(len(nodes))]
    built = stopped = 0
    for walk in walks:
        q, s_hi, s_lo, top = (to_ends(*b) for b in walk)
        # the nodes that do not stop a level make one level; each that does
        # is walked on its own
        ys, fs, stops, children, marks, forks = [], [], [], [], [], []
        for y, exact, certified in zip(nodes, exact_nodes, flags):
            node = _exact_node(*walk, exact, certified, bits)
            if node is None:
                stops.append(y)
                continue
            ys.append(y)
            fs.append(certified)
            children += [to_ends(*child) for child, _ in node[0]]
            marks += [mark for _, mark in node[0]]
            if node[1]:
                forks.append(y)
        tables = {}, {}
        got = _walk_level(q, s_hi, s_lo, top, ys, fs, tables)
        assert [canon(child) for child in got[0]] == children, walk
        assert got[1:] == (marks, forks)
        assert _walk_level(q, s_hi, s_lo, top, ys, fs, tables, True) == \
            (len(children), marks.count(True), forks)
        # again, from the tables the two walks filled
        assert _walk_level(q, s_hi, s_lo, top, ys, fs, tables) == got
        for y in stops:
            for last in (False, True):
                assert _walk_level(q, s_hi, s_lo, top, [y], [True], ({}, {}), last) is None
        built += len(children)
        stopped += len(stops)
    assert built > 700 and stopped > 150


def test_count_accepts_symbolic_points():
    q = F(39, 20)
    seq = SymbolicSeq.periodic(Word.from_str("10"))
    by_seq = count_prefixes(q, pi_q(seq, q), depth=18)
    by_value = count_prefixes(q, q / (q ** 2 - 1), depth=18)
    assert by_seq.certified_min == by_value.certified_min
    assert by_seq.possible_max == by_value.possible_max


def test_count_accepts_decimal_strings():
    r = count_prefixes(F(3, 2), "0.25", depth=6)
    assert r.possible_max[0] >= 1


def test_branch_walk_bypasses_interval_operator_dispatch(monkeypatch):
    # the walk classifies, steps and subtracts nodes in realnum's level
    # kernel on integer endpoints; the same walk through Enclosure's
    # operators and membership (operand coercion, wrapping, a call per
    # compare) ran about four times slower, so count their calls instead
    # of timing: a walk that makes them per node makes more at depth 24
    import betacert.expansions as expansions

    calls = []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__"):
        monkeypatch.setattr(Enclosure, op, counted(op, getattr(Enclosure, op)))
    monkeypatch.setattr(expansions, "membership", counted("membership", membership))
    counts = []
    for depth in (12, 24):
        calls.clear()
        report = count_prefixes(F(3, 2), F(1, 20), depth)
        assert report.nodes_processed > depth and report.branch_events
        counts.append(len(calls))
    assert counts[0] == counts[1]


@settings(deadline=None, max_examples=40)
@given(
    q=st.fractions(min_value=F(5, 4), max_value=F(19, 10), max_denominator=24),
    t=st.fractions(min_value=0, max_value=1, max_denominator=40),
    depth=st.integers(min_value=1, max_value=7),
)
def test_count_sandwiches_the_exact_oracle(q, t, depth):
    x = t / (q - 1)  # sweeps the whole attractor, endpoints included
    report = count_prefixes(q, x, depth=depth)
    true_counts, boundary = oracle_counts(q, x, depth)
    for cmin, true, cmax in zip(report.certified_min, true_counts,
                                report.possible_max):
        assert cmin <= true <= cmax
    # away from exact domain endpoints all three agree
    if not boundary:
        assert list(report.certified_min) == true_counts
        assert list(report.possible_max) == true_counts
    # the certified lower bound never regresses
    assert all(a <= b for a, b in
               zip(report.certified_min, report.certified_min[1:]))


@settings(deadline=None, max_examples=25)
@given(
    q=st.fractions(min_value=F(4, 3), max_value=F(19, 10), max_denominator=20),
    t=st.fractions(min_value=F(1, 40), max_value=F(39, 40), max_denominator=40),
    depth=st.integers(min_value=2, max_value=7),
)
def test_surviving_words_reconstruct_the_point(q, t, depth):
    x = t / (q - 1)
    hi = 1 / (q - 1)
    for _, word in oracle_words(q, x, depth):
        value = sum(eps * q ** -j for j, eps in enumerate(word, start=1))
        remainder = x - value
        assert 0 <= remainder <= q ** -depth * hi


def test_branch_events_mark_certified_forks():
    # the m = 2 instance forks exactly once, at the root
    q = bonacci_root(9).value
    a = 1 + q ** -9 * q ** 2 / (q ** 4 - 1)
    r = count_prefixes(q, a / q, depth=30)
    assert len(r.branch_events) == 1
    assert r.branch_events[0][0] == 0
    # a point whose orbit never meets the switch region never forks
    assert count_prefixes(F(3, 2), 2, depth=10).branch_events == ()


# ------------------------------------------------------- digit cycles


def test_chain_fixed_point_cycle_across_the_root():
    # the digit cycle 1^9 0 carries the contraction's fixed point back to
    # itself, off the switch region until its last intermediate; that one
    # falls just left of the region when the base exceeds the order-10
    # root, and certifiably inside it when the base is below the root
    from betacert.constructions import contraction_block
    from betacert.realnum import pi_q
    root = bonacci_root(10).value
    for offset, above in [(F(1, 10 ** 9), True), (-F(1, 10 ** 9), False)]:
        q = root + as_enclosure(offset)
        maps = DigitMaps(q)
        fp = pi_q(SymbolicSeq.periodic(contraction_block(10)), q)
        y = fp
        for _ in range(9):
            assert membership(y, *maps.switch) is False
            y = maps.q * y - 1
        assert (maps.q * y).intersects(fp)
        if above:
            assert y.lt(maps.switch[0]) is True
        else:
            assert membership(y, *maps.switch) is True


# ------------------------------------------------------- m-expansion calls


def test_certify_one_expansion_at_zero():
    cert = certify_m_expansions(F(3, 2), 0, m=1, depth=40)
    assert cert.certified
    assert cert.grade == "finite-depth-evidence"
    assert cert.evidence_depth == 40


def test_certify_two_expansions_at_the_witness_child():
    # qx equals the first witness value pi(1^9 (0100)^inf) at the order-9
    # root: both children continue along run-limited periodic strings, so
    # the count is exactly 2 from depth 1 on
    q = bonacci_root(9).value
    a = 1 + q ** -9 * q ** 2 / (q ** 4 - 1)
    cert = certify_m_expansions(q, a / q, m=2, depth=60)
    assert cert.certified


def test_certificate_withheld_without_stabilization():
    # golden base, x = 1: the possible count grows forever
    cert = certify_m_expansions(bonacci_root(2).value, 1, m=1, depth=40)
    assert not cert.certified
    statuses = {c.name: c.status for c in cert.checks}
    assert statuses["possible_maximum_stays_m_over_window"] == "failed"


def test_certify_wrong_m_fails_cleanly():
    cert = certify_m_expansions(F(3, 2), 0, m=2, depth=20)
    assert not cert.certified


def test_certify_validates_m():
    with pytest.raises(ValueError):
        certify_m_expansions(F(3, 2), 0, m=0, depth=10)
