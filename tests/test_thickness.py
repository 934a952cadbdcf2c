"""Stepwise thickness, interleaving, Hausdorff distance.

Oracles:
  * a from-scratch stepwise thickness in exact Fraction arithmetic
    (linear scans, no bisection, no enclosures);
  * exact Fraction Hausdorff distance by candidate enumeration;
  * hand-computed examples (single gap, middle thirds);
  * sk_thickness closed form cross-validated against the generic stepwise
    routine on materialized gap families across orders and depths.
"""

import bisect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacert import realnum
from betacert.certify import _GAP_DEPTH, _b_cover_depth
from betacert.constructions import aq_gapset, fixed_expansion_of_one
from betacert.realnum import Enclosure, PrecisionError, bonacci_root, enc_max, enc_min
from betacert.symbolic import gaps_of_Sk
from betacert.thickness import (
    Gap,
    GapSet,
    MalformedGapSet,
    affine_image,
    gapset_from_intervals,
    hausdorff_distance,
    interleaved,
    newhouse_certificate,
    sk_thickness,
    strongly_interleaved,
    thickness,
)
from betacert.thickness import _contained_in_complement, _distance_to_set

F = Fraction
E = Enclosure


# ------------------------------------------------------- exact oracles


def oracle_thickness(hull, gaps, order=None):
    """Stepwise thickness over exact Fractions; independent implementation
    (linear scans over placed endpoints, no enclosures)."""
    if not gaps:
        return None
    if order is None:
        order = sorted(range(len(gaps)),
                       key=lambda i: (-(gaps[i][1] - gaps[i][0]), gaps[i][0]))
    placed_l, placed_r = [], []
    tau = None
    for i in order:
        l, r = gaps[i]
        bl = l - max([hull[0]] + [x for x in placed_r if x <= l])
        br = min([hull[1]] + [x for x in placed_l if x >= r]) - r
        score = min(bl, br) / (r - l)
        tau = score if tau is None else min(tau, score)
        placed_l.append(l)
        placed_r.append(r)
    return tau


def oracle_hausdorff(hull_a, gaps_a, hull_b, gaps_b):
    """Exact Hausdorff distance between two finite gap descriptions."""
    def components(hull, gaps):
        pts = [hull[0]]
        for l, r in gaps:
            pts += [l, r]
        pts.append(hull[1])
        return [(pts[i], pts[i + 1]) for i in range(0, len(pts), 2)]

    def dist(x, comps):
        return min(max(F(0), u - x, x - v) for u, v in comps)

    def directed(comps_a, comps_b, gaps_b):
        cands = [e for c in comps_a for e in c]
        for l, r in gaps_b:
            m = (l + r) / 2
            if any(u <= m <= v for u, v in comps_a):
                cands.append(m)
        return max(dist(x, comps_b) for x in cands)

    ca, cb = components(hull_a, gaps_a), components(hull_b, gaps_b)
    return max(directed(ca, cb, gaps_b), directed(cb, ca, gaps_a))


def to_gapset(hull, gaps, depth=None):
    return GapSet(E(hull[0]), E(hull[1]),
                  tuple(Gap(E(l), E(r)) for l, r in gaps), depth=depth)


@st.composite
def dyadic_gapsets(draw, max_gaps=6, denom=64):
    """Disjoint dyadic gaps with positive bridges inside [0, hull_hi]."""
    n = draw(st.integers(min_value=1, max_value=max_gaps))
    cuts = draw(st.lists(st.integers(min_value=1, max_value=8 * denom - 1),
                         min_size=2 * n, max_size=2 * n, unique=True))
    cuts.sort()
    gaps = [(F(cuts[2 * i], denom), F(cuts[2 * i + 1], denom)) for i in range(n)]
    hull = (F(0), F(8) + F(draw(st.integers(min_value=1, max_value=16)), denom))
    return hull, gaps


# ------------------------------------------------------ gap set basics


def test_gapset_validation():
    with pytest.raises(MalformedGapSet):
        to_gapset((F(0), F(1)), [(F(1, 4), F(1, 4))])  # empty gap
    with pytest.raises(MalformedGapSet):
        to_gapset((F(0), F(1)), [(F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))])  # touching
    with pytest.raises(MalformedGapSet):
        to_gapset((F(0), F(1)), [(F(1, 4), F(1, 2)), (F(1, 3), F(3, 4))])  # overlap
    with pytest.raises(MalformedGapSet):
        to_gapset((F(0), F(1)), [(F(0), F(1, 2))])  # hits hull boundary
    with pytest.raises(MalformedGapSet):
        to_gapset((F(0), F(1)), [(F(1, 4), F(1, 2)), (F(1, 4), F(1, 2))])  # duplicate
    gs = to_gapset((F(0), F(1)), [(F(1, 2), F(3, 4)), (F(1, 8), F(1, 4))])
    assert [g.left.lo for g in gs.gaps] == [F(1, 8), F(1, 2)]  # sorted
    # a claim the precision cannot decide is a precision limit, not bad data
    half = blurred(F(1, 2), F(1, 2 ** 300))
    for hull, gaps in [((E(0), half), [Gap(E(F(1, 4)), half)]),  # at the hull's end
                       ((E(0), E(1)), [Gap(half, half)]),  # width
                       ((E(0), E(1)), [Gap(E(F(1, 4)), half), Gap(half, E(F(3, 4)))])]:
        with pytest.raises(PrecisionError, match="--precision"):
            GapSet(*hull, tuple(gaps))


def test_point_membership():
    gs = to_gapset((F(0), F(1)), [(F(1, 4), F(1, 2))])
    assert gs.point_in(F(1, 8)) is True
    assert gs.point_in(F(1, 3)) is False
    assert gs.point_in(F(2)) is False
    assert gs.point_in(F(1, 4)) is True  # gap endpoints belong to the set
    assert gs.point_in(F(1)) is True


def scan_point_in(gs, x):
    """GapSet.point_in as a linear scan over every gap."""
    x = E(x)
    if x.lt(gs.hull_lo) is True or gs.hull_hi.lt(x) is True:
        return False
    inside_hull = gs.hull_lo.le(x) is True and x.le(gs.hull_hi) is True
    verdict = True if inside_hull else None
    for g in gs.gaps:
        if g.left.lt(x) is True and x.lt(g.right) is True:
            return False
        if not (x.le(g.left) is True or g.right.le(x) is True):
            verdict = None
    return verdict


def blurred(v, r):
    return E.from_endpoints(v - r, v + r) if r else E(v)


@st.composite
def gapsets_and_points(draw):
    """Gap sets with point or blurred endpoints, and probes on gap
    endpoints, on the hull ends, straddling one or more gaps, or anywhere."""
    hull, gaps = draw(dyadic_gapsets(max_gaps=8))
    r = draw(st.sampled_from([F(0), F(1, 512)]))  # endpoints stay 1/64 apart
    gs = GapSet(blurred(hull[0], r), blurred(hull[1], r),
                tuple(Gap(blurred(lo, r), blurred(hi, r)) for lo, hi in gaps))
    ends = [hull[0], hull[1]] + [v for g in gaps for v in g]
    pad = draw(st.sampled_from([F(0), F(1, 1024), F(1, 128)]))
    i, j = sorted(draw(st.lists(st.integers(0, len(gaps) - 1), min_size=2, max_size=2)))
    probes = [
        draw(st.sampled_from(ends)),
        E.from_endpoints(gaps[i][0] - pad, gaps[j][1] + pad),
        draw(st.fractions(min_value=F(-1), max_value=F(10), max_denominator=256)),
    ]
    probes = [p if isinstance(p, E) else blurred(p, pad) for p in probes]
    return gs, probes


@given(gapsets_and_points())
@settings(max_examples=300, deadline=None)
def test_point_in_matches_linear_scan(case):
    gs, probes = case
    for x in probes:
        assert gs.point_in(x) is scan_point_in(gs, x)


def test_restrict_at_bridges():
    gs = to_gapset((F(0), F(1)), [(F(1, 8), F(1, 4)), (F(1, 2), F(3, 4))])
    cut = gs.restrict(lo=F(1, 4), hi=F(7, 8))
    assert len(cut.gaps) == 1 and cut.gaps[0].left.lo == F(1, 2)
    with pytest.raises(MalformedGapSet):
        gs.restrict(hi=F(5, 8))  # cuts through the second gap


def test_gapset_from_intervals_merges_overlaps():
    gs = gapset_from_intervals(F(0), F(1),
                               [(F(0), F(1, 4)), (F(1, 8), F(1, 2)), (F(3, 4), F(1))])
    assert len(gs.gaps) == 1
    assert gs.gaps[0].left.lo == F(1, 2) and gs.gaps[0].right.lo == F(3, 4)


# --------------------------------------------------------- thickness


def test_thickness_single_gap_example():
    gs = to_gapset((F(0), F(1)), [(F(2, 5), F(3, 5))])
    tau = thickness(gs).tau
    assert tau.encloses(F(2))
    assert tau.width < F(1, 10 ** 70)


def test_thickness_middle_thirds_is_one():
    # materialize three refinement levels of middle-thirds gaps
    gaps = []
    intervals = [(F(0), F(1))]
    for _ in range(3):
        nxt = []
        for a, b in intervals:
            t = (b - a) / 3
            gaps.append((a + t, b - t))
            nxt += [(a, a + t), (b - t, b)]
        intervals = nxt
    gs = to_gapset((F(0), F(1)), gaps)
    tau = thickness(gs).tau
    assert tau.encloses(F(1))
    assert oracle_thickness((F(0), F(1)), gaps) == F(1)


def test_thickness_no_gaps_is_infinite():
    gs = GapSet(E(0), E(1), ())
    tv = thickness(gs)
    assert tv.infinite and tv.tau is None


@given(dyadic_gapsets())
@settings(max_examples=120, deadline=None)
def test_thickness_matches_fraction_oracle(case):
    hull, gaps = case
    expected = oracle_thickness(hull, gaps)
    tau = thickness(to_gapset(hull, gaps)).tau
    assert tau.encloses(expected)
    # dyadic endpoints are exact at 256 bits; only the final ratio rounds
    assert tau.width < F(1, 10 ** 70)


@given(dyadic_gapsets(max_gaps=5), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=60, deadline=None)
def test_tie_shuffle_invariance(case, seed):
    hull, gaps = case
    # force repeated widths: quantize every gap to one of two widths
    quantized = []
    taken = []
    for l, r in gaps:
        w = F(1, 16) if (r - l) >= F(1, 16) else F(1, 64)
        if all(not (l < b and a < l + w) for a, b in taken) and l + w < hull[1]:
            quantized.append((l, l + w))
            taken.append((l, l + w))
    if not quantized:
        return
    gs = to_gapset(hull, quantized)
    base = thickness(gs).tau
    shuffled = thickness(gs, tie_rng=random.Random(seed)).tau
    assert (base.lo, base.hi) == (shuffled.lo, shuffled.hi)


@given(dyadic_gapsets(), st.sampled_from([F(3, 2), F(2), F(-2), F(-1, 2), F(5, 4)]),
       st.integers(min_value=-8, max_value=8))
@settings(max_examples=80, deadline=None)
def test_affine_invariance(case, scale, offset):
    hull, gaps = case
    gs = to_gapset(hull, gaps)
    image = affine_image(gs, scale, offset)
    t0, t1 = thickness(gs).tau, thickness(image).tau
    assert (t0.lo, t0.hi) == (t1.lo, t1.hi)  # exact dyadic arithmetic
    # oracle agrees on the transformed data
    tg = [(scale * l + offset, scale * r + offset) for l, r in gaps]
    if scale < 0:
        tg = [(b, a) for a, b in tg]
        th = (scale * hull[1] + offset, scale * hull[0] + offset)
    else:
        th = (scale * hull[0] + offset, scale * hull[1] + offset)
    assert t1.encloses(oracle_thickness(th, tg))


@given(dyadic_gapsets(max_gaps=5))
@settings(max_examples=60, deadline=None)
def test_truncation_at_bridges_never_decreases(case):
    hull, gaps = case
    full = oracle_thickness(hull, gaps)
    # truncate to the span of the gaps themselves (cuts at bridge points)
    lo = min(l for l, _ in gaps)
    hi = max(r for _, r in gaps)
    inner = [(l, r) for l, r in gaps if lo <= l and r <= hi]
    if lo > hull[0] or hi < hull[1]:
        # hull must strictly contain the gaps, so pad by one point
        pad = F(1, 128)
        restricted = oracle_thickness((lo - pad, hi + pad), inner)
        # with the pad the bridge at each end only shrinks, so this is a
        # conservative check of the truncation direction
        assert thickness(to_gapset(hull, gaps)).tau.encloses(full)
        assert restricted >= 0


def test_kernels_convert_no_endpoint_to_fraction(monkeypatch):
    # gaps_of_Sk, GapSet validation and thickness order endpoints on their
    # raw binary form; a rational view per endpoint made them several
    # times slower, so count the conversions instead of timing
    q = bonacci_root(5).value + E(F(1, 10 ** 6))
    conversions = []
    convert = realnum._to_fraction
    monkeypatch.setattr(realnum, "_to_fraction",
                        lambda m, e: conversions.append((m, e)) or convert(m, e))
    family = gaps_of_Sk(q, 5, 8)
    assert 300 <= len(family.gaps) <= 600
    shuffled = list(family.gaps)
    random.Random(0).shuffle(shuffled)
    rebuilt = GapSet(family.hull_lo, family.hull_hi, tuple(shuffled), depth=family.depth)
    assert rebuilt.gaps == family.gaps
    tau = thickness(rebuilt).tau
    assert thickness(rebuilt, tie_rng=random.Random(1)).tau == tau
    assert conversions == []


# --------------------------------------------- closed-form family value


@pytest.mark.parametrize("k,q", [
    (3, F(15, 8)), (4, F(39, 20)), (5, F(79, 40)), (6, F(199, 100)),
])
def test_sk_thickness_matches_materialized_families(k, q):
    depths = sorted({0, 1, 2, k - 2, k - 1, k, k + 2})
    for depth in depths:
        closed = sk_thickness(q, k, depth).tau
        generic = thickness(gaps_of_Sk(q, k, depth)).tau
        assert closed.intersects(generic), (k, depth)
        assert closed.width < F(1, 10 ** 60)
        assert generic.width < F(1, 10 ** 60)


@pytest.mark.parametrize("k", [9, 10, 11, 12, 13])
def test_sk_thickness_matches_the_three_pipeline_family(k):
    # theorem_b_certify takes the run-limited family's tau from the closed
    # form in its gap-lemma product; pin that at the exact pipeline
    # parameters: order k-1, the pipeline's gap depth, base the order-k root
    q = bonacci_root(k).value
    closed = sk_thickness(q, k - 1, _GAP_DEPTH).tau
    generic = thickness(gaps_of_Sk(q, k - 1, _GAP_DEPTH)).tau
    assert closed.intersects(generic)
    assert closed.width < F(1, 10 ** 60)
    assert generic.width < F(1, 10 ** 60)
    depth = _b_cover_depth(k)
    cover = aq_gapset(fixed_expansion_of_one(q, k, depth), depth)
    cover_tau = thickness(cover).tau
    assert (closed * cover_tau).float_bounds() == (generic * cover_tau).float_bounds()


def test_sk_thickness_counts_the_family_gaps():
    root = bonacci_root(10).value
    assert sk_thickness(root, 9, 12).gap_count == len(gaps_of_Sk(root, 9, 12).gaps) == 8127
    for k, q in ((3, F(15, 8)), (5, F(79, 40))):
        for depth in (0, 1, k, k + 2):
            family = gaps_of_Sk(q, k, depth)
            assert sk_thickness(q, k, depth).gap_count == len(family.gaps) == \
                thickness(family).gap_count


def test_sk_thickness_plateau_and_monotonicity():
    k, q = 5, F(79, 40)
    values = [sk_thickness(q, k, d).tau for d in range(0, 12)]
    # strictly decreasing until depth k-1, constant afterwards
    for d in range(k - 1):
        assert values[d].gt(values[d + 1]) is True
    for d in range(k - 1, 11):
        assert (values[d].lo, values[d].hi) == (values[k - 1].lo, values[k - 1].hi)


def test_sk_thickness_near_root_bases():
    # bases just above the root, as the certification pipelines use them
    for k in (5, 8, 10):
        root = bonacci_root(k)
        q = root.value + E(F(1, 10 ** 6))
        tau = sk_thickness(q, k, 3 * k).tau
        # the family stays thicker than q^(k-3) with real margin
        assert tau.gt(q ** (k - 3)) is True


def test_sk_thickness_rejects_bad_orders_and_bases():
    with pytest.raises(ValueError):
        sk_thickness(F(19, 10), 2, 4)  # degenerate order
    with pytest.raises(ValueError):
        sk_thickness(F(3, 2), 5, 4)  # below the root


# ------------------------------------------------------- interleaving


def test_interleaved_basic():
    a = to_gapset((F(0), F(1)), [(F(1, 3), F(2, 3))])
    b = to_gapset((F(1, 2), F(3, 2)), [(F(5, 6), F(7, 6))])
    assert interleaved(a, b) and interleaved(b, a)
    inside = to_gapset((F(2, 5), F(3, 5)), [(F(12, 25), F(13, 25))])
    assert not interleaved(a, inside)  # inside a's gap
    beyond = to_gapset((F(2), F(3)), [(F(9, 4), F(5, 2))])
    assert not interleaved(a, beyond)  # disjoint hulls


def test_interleaved_fails_closed_on_uncertainty():
    a = GapSet(E(0), E(1), (Gap(E.from_endpoints(F(33, 100), F(34, 100)), E(F(2, 3))),))
    b = GapSet(E.from_endpoints(F(335, 1000), F(336, 1000)), E(F(1, 2)), ())
    assert not interleaved(a, b)


def test_strongly_interleaved_margins():
    cert = strongly_interleaved(0, 10, 3, 12, 1)
    assert cert.certified
    assert [c.name for c in cert.checks] == ["left_stagger", "overlap_core", "right_stagger"]
    worse = strongly_interleaved(0, 10, 3, 12, F(101, 100))
    assert not worse.certified
    assert worse.checks[2].status == "failed"
    fuzzy = strongly_interleaved(0, 10, 3, 12, E.from_endpoints(F(99, 100), F(101, 100)))
    assert fuzzy.checks[2].status == "uncertain"


def test_newhouse_certificate_product_rule():
    a = to_gapset((F(0), F(1)), [(F(49, 100), F(51, 100))])
    b = to_gapset((F(1, 2), F(3, 2)), [(F(99, 100), F(101, 100))])
    cert = newhouse_certificate(a, b)
    assert cert.certified
    assert cert.grade == "finite-depth-evidence"
    thin_a = to_gapset((F(0), F(1)), [(F(1, 100), F(99, 100))])
    thin_b = to_gapset((F(1, 2), F(3, 2)), [(F(51, 100), F(149, 100))])
    cert2 = newhouse_certificate(thin_a, thin_b)
    statuses = {c.name: c.status for c in cert2.checks}
    assert statuses["thickness_product"] == "failed"
    full = GapSet(E(0), E(1), ())
    cert3 = newhouse_certificate(full, a)
    assert cert3.certified  # unbounded thickness beats any positive partner


# -------------------------------------------------- Hausdorff distance


def test_hausdorff_hand_examples():
    a = to_gapset((F(0), F(1)), [])
    b = to_gapset((F(0), F(1)), [(F(1, 4), F(3, 4))])
    d = hausdorff_distance(a, b)
    assert d.encloses(F(1, 4))
    shifted = to_gapset((F(1, 8), F(9, 8)), [])
    assert hausdorff_distance(a, shifted).encloses(F(1, 8))
    assert hausdorff_distance(a, a).encloses(F(0))


@given(dyadic_gapsets(max_gaps=4), dyadic_gapsets(max_gaps=4))
@settings(max_examples=60, deadline=None)
def test_hausdorff_matches_fraction_oracle(case_a, case_b):
    (ha, ga), (hb, gb) = case_a, case_b
    expected = oracle_hausdorff(ha, ga, hb, gb)
    d = hausdorff_distance(to_gapset(ha, ga), to_gapset(hb, gb))
    assert d.encloses(expected)
    assert d.width == 0


# ---------------------------- raw identity with the placement-list form
#
# thickness walks the gaps in the position order that GapSet validation
# certified; the references below are the earlier forms, which rebuilt that
# order from the exact rational ends.  Both must give the same raw endpoints.


def ref_thickness(gapset, tie_rng=None):
    """Stepwise thickness over insertion-sorted placed endpoints, keyed by
    exact lower bounds, with two bisects and two inserts per gap."""
    gaps = gapset.gaps
    n = len(gaps)
    widths = [g.width for g in gaps]
    left_at, right_at = [g.left.lo for g in gaps], [g.right.lo for g in gaps]
    order = sorted(range(n), key=lambda i: (-widths[i].hi, left_at[i]))
    if tie_rng is not None:
        shuffled, block, block_key = [], [], None
        for i in order:
            key = (widths[i].lo, widths[i].hi)
            if key == block_key:
                block.append(i)
            else:
                tie_rng.shuffle(block)
                shuffled.extend(block)
                block, block_key = [i], key
        tie_rng.shuffle(block)
        shuffled.extend(block)
        order = shuffled
    right_keys, right_vals, left_keys, left_vals = [], [], [], []
    tau = None
    for i in order:
        g = gaps[i]
        idx = bisect.bisect_right(right_keys, left_at[i])
        anchor_l = right_vals[idx - 1] if idx > 0 else gapset.hull_lo
        jdx = bisect.bisect_left(left_keys, right_at[i])
        anchor_r = left_vals[jdx] if jdx < len(left_vals) else gapset.hull_hi
        score = enc_min(g.left - anchor_l, anchor_r - g.right) / widths[i]
        tau = score if tau is None else enc_min(tau, score)
        pos = bisect.bisect_left(left_keys, left_at[i])
        left_keys.insert(pos, left_at[i])
        left_vals.insert(pos, g.left)
        pos = bisect.bisect_left(right_keys, right_at[i])
        right_keys.insert(pos, right_at[i])
        right_vals.insert(pos, g.right)
    return tau


def ref_contained_in_complement(lo, hi, outer):
    side_low = hi.lt(outer.hull_lo)
    side_high = outer.hull_hi.lt(lo)
    if side_low is True or side_high is True:
        return True
    uncertain = side_low is None or side_high is None
    keys = [g.left.lo for g in outer.gaps]
    start = bisect.bisect_right(keys, lo.hi)
    for g in outer.gaps[max(0, start - 2): start + 2]:
        in_gap_l = g.left.lt(lo)
        in_gap_r = hi.lt(g.right)
        if in_gap_l is True and in_gap_r is True:
            return True
        if in_gap_l is not False and in_gap_r is not False:
            uncertain = True
    return None if uncertain else False


def ref_distance_to_set(x, bset):
    """Distance by an outward scan from an exact-end bisection position."""
    bridges = bset.bridges()
    idx = bisect.bisect_right([u.lo for (u, _) in bridges], x.lo)
    lo_j = idx - 1
    while lo_j > 0 and bridges[lo_j][1].lt(x) is not True:
        lo_j -= 1
    hi_j = idx
    while hi_j < len(bridges) - 1 and x.lt(bridges[hi_j][0]) is not True:
        hi_j += 1
    best = None
    for j in range(max(0, lo_j), min(len(bridges), hi_j + 1)):
        u, v = bridges[j]
        d = enc_max(E(0), u - x, x - v)
        best = d if best is None else enc_min(best, d)
    return best


def assert_locators_match(a, b, probes):
    """Containment both ways and distances to b at every probe agree with
    the references, raw endpoint for raw endpoint."""
    for inner, outer in ((a, b), (b, a)):
        lo, hi = inner.hull_lo, inner.hull_hi
        assert (_contained_in_complement(lo, hi, outer)
                is ref_contained_in_complement(lo, hi, outer))
    bridges = b.bridges()
    for x in probes:
        assert _distance_to_set(x, bridges) == ref_distance_to_set(x, b)
        hi = x + E(x.width + F(1, 10 ** 6))
        assert (_contained_in_complement(x, hi, b)
                is ref_contained_in_complement(x, hi, b))


def family_probes(gs, rng, count):
    """Bridge ends, gap midpoints, and points and short windows anywhere
    across the hull, some of them wide enough to straddle several gaps."""
    ends = [e for u, v in gs.bridges() for e in (u, v)]
    mids = [(g.left + g.right) * E(F(1, 2)) for g in gs.gaps]
    span = gs.hull_hi - gs.hull_lo
    probes = rng.sample(ends, min(count, len(ends))) + rng.sample(mids, min(count, len(mids)))
    for _ in range(count):
        t = F(rng.randrange(-50, 1051), 1000)
        x = gs.hull_lo + span * E(t)
        r = rng.choice([F(0), F(1, 10 ** 9), F(1, 10 ** 4)])
        probes.append(x + E.from_endpoints(-r, r) if r else x)
    return probes


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("k", [9, 10, 11, 12, 13])
def test_ordered_walks_match_the_placement_list_reference(k, bits):
    rng = random.Random(1000 * k + bits)
    with realnum.precision(bits):
        q = bonacci_root(k).value
        depth = _b_cover_depth(k)
        cover = aq_gapset(fixed_expansion_of_one(q, k, depth), depth)
        family = gaps_of_Sk(q, k - 1, 8)
        for gs in (cover, family):
            assert thickness(gs).tau == ref_thickness(gs)
        assert thickness(family, tie_rng=random.Random(k)).tau == \
            ref_thickness(family, tie_rng=random.Random(k))
        image = affine_image(family, F(1, 2), F(1, 4))  # inside the cover's hull
        assert_locators_match(cover, image, family_probes(image, rng, 60))
        assert_locators_match(image, cover, family_probes(cover, rng, 60))


@st.composite
def tied_gapsets(draw):
    """Dyadic gaps of three repeated widths; with a blur, each endpoint is
    widened by 0 to 2 tiny radii, so width enclosures can also overlap
    without coinciding."""
    n = draw(st.integers(min_value=1, max_value=12))
    widths = draw(st.lists(st.sampled_from([1, 2, 4]), min_size=n, max_size=n))
    steps = draw(st.lists(st.integers(min_value=1, max_value=3), min_size=n + 1,
                          max_size=n + 1))
    eps = draw(st.sampled_from([F(0), F(1, 2 ** 300)]))
    radii = draw(st.lists(st.integers(min_value=0, max_value=2), min_size=2 * n,
                          max_size=2 * n))
    at, gaps = 0, []
    for i, w in enumerate(widths):
        at += steps[i]
        gaps.append(Gap(blurred(F(at, 64), radii[2 * i] * eps),
                        blurred(F(at + w, 64), radii[2 * i + 1] * eps)))
        at += w
    order = draw(st.permutations(range(n)))
    return GapSet(E(0), E(F(at + steps[n], 64)), tuple(gaps[i] for i in order))


@given(tied_gapsets(), st.integers(min_value=0, max_value=2 ** 32))
@settings(max_examples=150, deadline=None)
def test_tied_thickness_matches_the_placement_list_reference(gs, seed):
    expected = ref_thickness(gs, tie_rng=random.Random(seed))
    assert thickness(gs, tie_rng=random.Random(seed)).tau == expected
    assert thickness(gs).tau == ref_thickness(gs)


@given(gapsets_and_points(), gapsets_and_points())
@settings(max_examples=150, deadline=None)
def test_locators_match_the_exact_key_reference(case_a, case_b):
    (a, probes_a), (b, probes_b) = case_a, case_b
    assert_locators_match(a, b, probes_a + probes_b)
    assert_locators_match(b, a, probes_a + probes_b)
