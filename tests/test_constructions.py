"""The interacting families: epsilon, the contraction, P/Q hulls, the
signed-digit spine, witness points.

Oracles:
  * exact Fraction closed forms at rational bases for the contraction's
    fixed point, epsilon, and every P/Q hull anchor (independent of the
    projection routine: plain rational arithmetic on geometric sums);
  * the materialized gap families (enumeration route) against the
    closed-form anchors (no shared code path: one walks the language,
    the other never enumerates anything);
  * digit-sequence route vs affine route for the contraction;
  * hand-checked rank classes for the spine's zero positions;
  * base-perturbation stability measured with the exact-arithmetic
    Hausdorff routine from the thickness tests;
  * the whole signed-digit cover, built and measured stepwise, for its
    closed-form thickness and its probe-path walk.
"""

import importlib
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacert import realnum
from betacert.certificate import STATUS_CERTIFIED, STATUS_FAILED
from betacert.constructions import (
    EpsilonQ,
    GMap,
    W2_BLOCKS,
    _cover_near,
    _cover_tree,
    aq_gapset,
    build_pq_family,
    contraction_block,
    cover_thickness,
    fixed_expansion_of_one,
    g_apply,
    g_apply_symbolic,
    pq_certificate,
    pq_hull_data,
    witness_points,
)
from betacert.certify import _b_cover_depth
from betacert.realnum import (
    Enclosure,
    PrecisionError,
    as_enclosure,
    bonacci_root,
    pi_q,
    precision,
)
from betacert.symbolic import ResourceError, SubshiftSk, SymbolicSeq, Word
from betacert.thickness import (
    ThicknessValue,
    _contained_in_complement,
    hausdorff_distance,
    thickness,
)

F = Fraction

# rational bases certifiably above the order-k root, reused across files
BASE_ABOVE = {3: F(15, 8), 4: F(39, 20), 5: F(79, 40), 6: F(199, 100)}


# ------------------------------------------------------- exact oracles


def oracle_fixed_point(q: Fraction, k: int) -> Fraction:
    """Value of (1^{k-1}0)^inf at a rational base, by plain rational
    arithmetic on the geometric sum: (sum_{j=1}^{k-1} q^-j) / (1 - q^-k)."""
    head = sum(q ** -j for j in range(1, k))
    return head / (1 - q ** -k)


def oracle_periodic_value(q: Fraction, pre: str, per: str) -> Fraction:
    """Value of pre (per)^inf at a rational base, digits as '0'/'1' text."""
    val = Fraction(0)
    for j, d in enumerate(pre, start=1):
        val += int(d) * q ** -j
    tail = Fraction(0)
    for j, d in enumerate(per, start=1):
        tail += int(d) * q ** -j
    return val + q ** -len(pre) * tail / (1 - q ** -len(per))


def contains_fraction(enc: Enclosure, x: Fraction) -> bool:
    return enc.lo <= x <= enc.hi


# ------------------------------------------------------- epsilon


def epsilon(q, k: int) -> EpsilonQ:
    """The EpsilonQ that pq_hull_data builds, at any order and base."""
    q = as_enclosure(q)
    return EpsilonQ(q=q, k=k, value=1 - pi_q(SymbolicSeq.periodic(contraction_block(k)), q))


def test_epsilon_matches_fraction_oracle():
    for k in (3, 4, 5, 6):
        q = BASE_ABOVE[k]
        assert contains_fraction(epsilon(q, k).value, 1 - oracle_fixed_point(q, k))
    # pq_hull_data's own, at the orders it takes
    for k in (5, 6):
        q = BASE_ABOVE[k]
        eps = pq_hull_data(q, k, 1).epsilon
        assert eps.k == k and contains_fraction(eps.value, 1 - oracle_fixed_point(q, k))


def test_epsilon_sign_trichotomy(monkeypatch):
    # root_3 ~ 1.8393: 9/5 sits below it, 15/8 above it
    below, above = epsilon(F(9, 5), 3), epsilon(F(15, 8), 3)
    # an enclosure of the root itself cannot be signed
    at_root = epsilon(bonacci_root(10).value, 10)
    exact_zero = replace(above, value=Enclosure(0))
    # the sign is read off the integer endpoints, with no rational view of them
    conversions = []
    convert = realnum._to_fraction
    monkeypatch.setattr(realnum, "_to_fraction",
                        lambda m, e: conversions.append((m, e)) or convert(m, e))
    assert below.sign == -1
    assert above.sign == 1
    assert at_root.sign is None
    assert exact_zero.sign == 0
    assert conversions == []


# ------------------------------------------------------- the contraction


def test_gmap_fixed_point_matches_fraction_oracle():
    for k in (3, 4, 5, 6):
        q = BASE_ABOVE[k]
        g = GMap(q, k)
        assert contains_fraction(g.fixed_point, oracle_fixed_point(q, k))


def test_g_apply_is_the_affine_map():
    q = F(39, 20)
    g = GMap(q, 4)
    x = F(1, 3)
    expected = q ** -4 * x + sum(q ** -j for j in range(1, 4))
    assert contains_fraction(g_apply(g, x), expected)


def test_g_apply_iterations_compose():
    q, k = F(79, 40), 5
    g = GMap(q, k)
    exact = F(1, 7)
    for _ in range(2):
        exact = q ** -k * exact + sum(q ** -j for j in range(1, k))
    assert contains_fraction(g_apply(g, g_apply(g, F(1, 7))), exact)


@settings(deadline=None, max_examples=40)
@given(
    digits=st.lists(st.sampled_from([0, 1]), min_size=0, max_size=12),
    k=st.sampled_from([3, 4, 5]),
    iterations=st.integers(min_value=1, max_value=3),
)
def test_g_apply_routes_agree(digits, k, iterations):
    """Affine action on the value vs block-prefixing on the sequence."""
    q = BASE_ABOVE[k]
    g = GMap(q, k)
    seq = SymbolicSeq.finite(Word(tuple(digits)))
    via_value = pi_q(seq, g.q)
    for _ in range(iterations):
        via_value, seq = g_apply(g, via_value), g_apply_symbolic(g, seq)
    assert via_value.intersects(pi_q(seq, g.q))


def test_g_apply_symbolic_prepends_the_block():
    g = GMap(F(39, 20), 4)
    seq = SymbolicSeq.periodic(Word.from_str("10"))
    out = g_apply_symbolic(g, g_apply_symbolic(g, seq))
    want = contraction_block(4).digits * 2
    assert tuple(out.digit(i) for i in range(8)) == want


def test_gmap_rejects_bad_arguments():
    with pytest.raises(ValueError):
        GMap(F(5, 2), 4)
    with pytest.raises(ValueError):
        GMap(F(39, 20), 1)


# ------------------------------------------------------- P/Q hull anchors


def oracle_anchors(q: Fraction, k: int, m: int):
    """All hull anchors by plain rational arithmetic."""
    fp = oracle_fixed_point(q, k)
    eps = 1 - fp
    cut_left = oracle_periodic_value(q, "0" * (k - 3), "0" + "1" * (k - 2))
    D = q ** (-k * m) * cut_left
    left_P = [fp + q ** (-k * i) * eps for i in range(m + 1)]
    right_Q = fp + q ** (-k * m) / (q ** k - 1)
    return fp, D, left_P, right_Q


@pytest.mark.parametrize("k,m", [(5, 1), (5, 2), (6, 1), (6, 3)])
def test_pq_anchors_match_fraction_oracle(k, m):
    q = BASE_ABOVE[k]
    a = pq_hull_data(q, k, m)
    fp, D, left_P, right_Q = oracle_anchors(q, k, m)
    assert contains_fraction(a.fixed_point, fp)
    assert contains_fraction(a.D, D)
    assert contains_fraction(a.right_Q, right_Q)
    assert contains_fraction(a.left_Q, right_Q - D)
    for i in range(m + 1):
        assert contains_fraction(a.left_P[i], left_P[i])
        assert contains_fraction(a.right_P[i], left_P[i] + D)


def test_pq_diameter_complement_identity_certifies():
    # the two digitwise-complementary routes to the common diameter
    for k, m in [(5, 1), (6, 2)]:
        cert = pq_certificate(pq_hull_data(BASE_ABOVE[k], k, m))
        by_name = {c.name: c for c in cert.checks}
        assert by_name["common_diameter_complement_route"].status == STATUS_CERTIFIED


def test_pq_layout_matches_epsilon_sign():
    root = bonacci_root(5).value
    near = as_enclosure(F(1, 10 ** 7))
    below = pq_certificate(pq_hull_data(root - near, 5, 1))
    above = pq_certificate(pq_hull_data(root + near, 5, 1))
    at = pq_certificate(pq_hull_data(root, 5, 1))
    assert any(c.name == "p_left_ends_ascending" for c in below.checks)
    assert any(c.name == "p_left_ends_descending" for c in above.checks)
    assert any(c.name == "p_left_ends_indistinguishable" for c in at.checks)
    for cert in (below, above, at):
        assert cert.certified, [c for c in cert.checks
                                if c.status != STATUS_CERTIFIED]


def test_pq_overlap_fails_far_from_the_root():
    # far outside the pinning band the hulls certifiably fail to overlap;
    # the layout certificate must report that, not hide it
    cert = pq_certificate(pq_hull_data(F(39, 20), 5, 1))
    by_name = {c.name: c for c in cert.checks}
    assert by_name["hulls_overlap"].status == STATUS_FAILED
    assert not cert.certified


def test_pq_hull_data_rejects_bad_arguments():
    with pytest.raises(ValueError):
        pq_hull_data(F(39, 20), 4, 1)  # k too small
    with pytest.raises(ValueError):
        pq_hull_data(F(39, 20), 5, 0)  # m too small
    with pytest.raises(ValueError):
        pq_hull_data(F(9, 5), 5, 1)  # below the order-(k-1) root


# ------------------------------------------------------- materialized P/Q


@pytest.mark.parametrize("k,m,offset_sign", [(5, 1, +1), (5, 1, -1), (5, 2, +1)])
def test_build_pq_family_certifies_near_the_root(k, m, offset_sign):
    q = bonacci_root(k).value + as_enclosure(offset_sign * F(1, 10 ** 8))
    fam = build_pq_family(q, k, m)
    assert fam.certificate.certified, [
        (c.name, c.status) for c in fam.certificate.checks
        if c.status != STATUS_CERTIFIED]
    assert len(fam.P) == m + 1
    # hulls against the closed-form anchors, directly
    for i, gs in enumerate(fam.P):
        assert gs.hull_lo.intersects(fam.anchors.left_P[i])
        assert gs.hull_hi.intersects(fam.anchors.right_P[i])
    assert fam.Q.hull_lo.intersects(fam.anchors.left_Q)
    assert fam.Q.hull_hi.intersects(fam.anchors.right_Q)
    # every family's diameter is the common one
    for gs in (*fam.P, fam.Q):
        assert (gs.hull_hi - gs.hull_lo).intersects(fam.D)
    assert fam.beta.gt(F(1, 8)) is True


def test_build_pq_family_at_the_root_enclosure():
    fam = build_pq_family(bonacci_root(6).value, 6, 1, depth=9)
    assert fam.certificate.certified
    assert fam.certificate.grade == "finite-depth-evidence"
    assert fam.certificate.evidence_depth == 9


def test_build_pq_family_depth_precondition():
    q = bonacci_root(5).value
    with pytest.raises(ValueError, match="depth"):
        build_pq_family(q, 5, 3, depth=15)  # needs (m+1)k-3 = 17
    # and the smallest admissible depth works
    fam = build_pq_family(q, 5, 1, depth=7)
    assert fam.certificate.certified


def test_build_pq_family_p0_is_translate_of_truncation():
    # the i=0 family is just the +1 shift of the truncated base family:
    # its hull starts at 1 + 0 and spans one common diameter
    fam = build_pq_family(bonacci_root(5).value, 5, 1, depth=8)
    assert fam.P[0].hull_lo.intersects(as_enclosure(1))
    assert (fam.P[0].hull_hi - 1).intersects(fam.D)


def test_pq_thickness_is_preserved_by_truncation():
    # each materialized family keeps at least the base family's thickness
    # (truncating at a gap endpoint only removes *smaller* gaps here: every
    # gap left of the cut gap has a strictly longer all-zero index)
    from betacert.symbolic import gaps_of_Sk
    q = bonacci_root(5).value + as_enclosure(F(1, 10 ** 8))
    fam = build_pq_family(q, 5, 1, depth=10)
    base_tau = thickness(gaps_of_Sk(q, 4, 10)).tau
    for gs in (*fam.P, fam.Q):
        tau = thickness(gs).tau
        if tau is None:
            continue  # no gaps survived the cut: infinite thickness
        assert tau.ge(base_tau) is not False


# ------------------------------------------------------- the spine


def test_spine_at_the_root_is_the_forced_prefix_then_zeros():
    # at the order-k root the value of 1^k 0^inf is exactly 1, so every
    # continuation block is (0,0)
    desc = fixed_expansion_of_one(bonacci_root(9).value, 9, 49)
    assert desc.c.digits[:9] == (1,) * 9
    assert all(d == 0 for d in desc.c.digits[9:])
    assert desc.certificate.certified


def test_spine_rank_classes_are_the_three_residue_ladders():
    desc = fixed_expansion_of_one(bonacci_root(9).value, 9, 49)
    # zeros start right after the 1^k prefix; ranks alternate
    # free, fixed-1, free, fixed-0, free, fixed-1, ...
    assert desc.J_free[:6] == (10, 12, 14, 16, 18, 20)
    assert desc.J_fixed1[:4] == (11, 15, 19, 23)
    assert desc.J_fixed0[:4] == (13, 17, 21, 25)
    ranked = sorted(desc.J_free + desc.J_fixed1 + desc.J_fixed0)
    assert ranked == [j for j in range(1, 50) if desc.c.digits[j - 1] == 0]


def test_spine_off_root_stays_near_one_and_uses_signed_blocks():
    # nudge the base: the tail is no longer all zeros, yet the truncated
    # value still matches 1 to within the geometric tail band
    q = bonacci_root(10).value + as_enclosure(F(1, 10 ** 8))
    desc = fixed_expansion_of_one(q, 10, 60)
    tail = desc.c.digits[24:]
    assert any(d != 0 for d in tail)
    assert all((a, b) in W2_BLOCKS
               for a, b in zip(tail[::2], tail[1::2]))
    assert desc.certificate.certified
    band = q ** (-60) / (q - 1)
    assert abs(1 - pi_q(desc.c, q)).le(band) is True


def test_spine_rejects_bases_outside_the_pinning_radius():
    with pytest.raises(ValueError):
        fixed_expansion_of_one(F(39, 20), 9, 30)


def test_spine_pin_beyond_the_precision_is_a_precision_error():
    # at k = 130 the radius root^(-266) is below what 256 bits resolve: the
    # pin check is uncertain, not failed
    k = 130
    with precision(256):
        with pytest.raises(PrecisionError, match="--precision"):
            fixed_expansion_of_one(bonacci_root(k).value, k, _b_cover_depth(k))
    with precision(512):
        assert fixed_expansion_of_one(bonacci_root(k).value, k, _b_cover_depth(k)).depth == 268


def test_spine_rejects_bad_depth_and_order():
    root9 = bonacci_root(9).value
    with pytest.raises(ValueError):
        fixed_expansion_of_one(root9, 9, 10)  # below the forced prefix
    with pytest.raises(ValueError):
        fixed_expansion_of_one(bonacci_root(8).value, 8, 40)  # k too small


# ------------------------------------------------------- the cover


@pytest.fixture(scope="module")
def spine9():
    return fixed_expansion_of_one(bonacci_root(9).value, 9, 49)


def test_cover_piece_count_is_two_to_the_free_zeros(spine9):
    free = [j for j in spine9.J_free if j <= 26]
    cover = aq_gapset(spine9, 26)
    # pieces merge when separations cannot be certified, so gaps can only
    # be fewer than pieces-minus-one
    assert len(cover.gaps) <= (1 << len(free)) - 1
    assert cover.depth == 26


def test_cover_members_and_their_complements_stay_run_limited(spine9):
    # a truncated member zero-padded would end in a long zero run, so test
    # the forced continuation instead: past the last fixed-0 position the
    # digit pattern is 4-periodic (free, forced-1, free, forced-0)
    lang = SubshiftSk(9)
    fixed1 = set(spine9.J_fixed1)
    fixed0 = set(spine9.J_fixed0)

    def member_digit(j, free_bit):
        cj = spine9.c.digits[j - 1]
        if cj == 1 or j in fixed1:
            return 1
        if cj == -1 or j in fixed0:
            return 0
        return free_bit

    cut = spine9.J_fixed0[0]  # 4-cycle phase starts right after
    for free_bit in (0, 1):
        pre = Word(tuple(member_digit(j, free_bit)
                         for j in range(1, cut + 1)))
        per = Word(tuple(member_digit(j, free_bit)
                         for j in range(cut + 1, cut + 5)))
        a = SymbolicSeq.eventually(pre, per)
        assert lang.contains(a)
        # digitwise difference from the spine is again a binary member
        diff_pre = Word(tuple(member_digit(j, free_bit) - spine9.c.digits[j - 1]
                              for j in range(1, cut + 1)))
        assert set(diff_pre.digits) <= {0, 1}
        assert lang.contains(SymbolicSeq.eventually(diff_pre, per))


def test_cover_contains_the_all_ones_member_value(spine9):
    # the member with every free zero set to 1; its value plus half a tail
    # band sits strictly inside one covering piece
    q = spine9.q
    depth = 26
    fixed1 = set(spine9.J_fixed1)
    digits = []
    for j in range(1, depth + 1):
        cj = spine9.c.digits[j - 1]
        one = cj == 1 or (cj == 0 and (j in fixed1 or j in spine9.J_free))
        digits.append(1 if one else 0)
    x = pi_q(Word(tuple(digits)), q) + q ** (-depth) / (q - 1) / 2
    cover = aq_gapset(spine9, depth)
    assert cover.point_in(x) is True


def test_cover_thickness_clears_the_coarse_bound(spine9):
    cover = aq_gapset(spine9, 26)
    tau = thickness(cover)
    assert tau.tau is not None
    assert tau.tau.ge(spine9.q ** -5) is True


def test_cover_is_built_without_measuring_it(spine9, monkeypatch):
    # aq_gapset only builds the cover; its callers measure it
    thickness_mod = importlib.import_module("betacert.thickness")
    constructions = importlib.import_module("betacert.constructions")
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return thickness(*args, **kwargs)

    monkeypatch.setattr(thickness_mod, "thickness", counting)
    monkeypatch.setattr(constructions, "thickness", counting, raising=False)
    assert aq_gapset(spine9, 26).gaps
    assert calls == []


def test_cover_cylinders_by_doubling_equal_the_bit_decoded_ones(spine9, monkeypatch):
    # each cylinder's left end adds the powers of its set bits, lowest
    # first, to the base value: the same left fold by doubling as by
    # decoding every index, down to the exact endpoints
    constructions = importlib.import_module("betacert.constructions")
    pieces = []
    build = constructions.gapset_from_intervals

    def record(hull_lo, hull_hi, rows, depth=None):
        pieces.extend(rows)
        return build(hull_lo, hull_hi, rows, depth=depth)

    monkeypatch.setattr(constructions, "gapset_from_intervals", record)
    depth = 26
    aq_gapset(spine9, depth)
    q = spine9.q
    fixed1 = set(spine9.J_fixed1)
    base = pi_q(Word(tuple(
        1 if spine9.c.digits[j - 1] == 1 or (spine9.c.digits[j - 1] == 0 and j in fixed1) else 0
        for j in range(1, depth + 1))), q)
    powers = [q ** (-j) for j in spine9.J_free if j <= depth]
    tail = q ** (-depth) / (q - 1)
    decoded = []
    for bits in range(1 << len(powers)):
        value = base
        for i, p in enumerate(powers):
            if bits >> i & 1:
                value = value + p
        decoded.append((value, value + tail))
    assert len(decoded) > 8
    assert [tuple(piece) for piece in pieces] == decoded


def test_cover_budget_and_depth_guards(spine9):
    with pytest.raises(ResourceError):
        aq_gapset(spine9, 49)  # 2**20 cylinders, over the cover's budget
    with pytest.raises(ValueError):
        aq_gapset(spine9, 50)
    with pytest.raises(ValueError):
        aq_gapset(spine9, 0)


# ------------------------------------------------------- the cover's closed forms
#
# Oracle: the whole cover, built by aq_gapset and measured by the stepwise
# thickness, at the root and at six offsets across the band (right side
# only at k = 9), from 64 to 512 bits.

_BAND_OFFSETS = (-7, -4, -1, 1, 4, 7)  # eighths of the band radius


@pytest.fixture(scope="module",
                params=[(k, bits) for bits in (64, 96, 256, 512)
                        for k in range(9, 14)],
                ids=lambda p: f"k{p[0]}-{p[1]}bits")
def band_covers(request):
    """(bits, depth, [(spine, whole cover)] at each base) for one (k, bits);
    module-scoped, so the three tests below share each build."""
    k, bits = request.param
    depth = _b_cover_depth(k)
    with realnum.precision(bits):
        root = bonacci_root(k).value
        rho = root ** (-2 * k - 6)
        bases = [root] + [root + rho * F(t, 8) for t in _BAND_OFFSETS
                          if k > 9 or t > 0]
        cases = []
        for q in bases:
            spine = fixed_expansion_of_one(q, k, depth)
            cases.append((spine, aq_gapset(spine, depth)))
    return bits, depth, cases


def _closed_form(spine, depth):
    return cover_thickness(*_cover_tree(spine, depth)[1:])


def test_cover_thickness_refuses_covers_outside_its_premises(spine9):
    # the closed form needs separated levels, then overlapping ones, and
    # strictly decreasing gap widths; moving the free zeros breaks each,
    # and the reader then refuses the cover
    depth = 26

    def free(*positions):
        return replace(spine9, J_free=positions)

    # first: the first level overlaps, the later ones are separated;
    # second: every level is separated, but consecutive free zeros widen
    # the gaps
    for spine in (free(*range(10, 20), 21, 23, 25),
                  free(*range(10, 16), 20, 24)):
        assert _closed_form(spine, depth) is None
        with pytest.raises(PrecisionError, match="cover.*--precision"):
            _cover_near(spine, depth, None)
    # every level overlaps: a solid interval, as the stepwise route finds
    solid = free(*range(17, depth + 1))
    assert thickness(aq_gapset(solid, depth)).infinite
    assert _closed_form(solid, depth) == (0, None)
    whole, tau = _cover_near(solid, depth, None)
    assert whole.gaps == ()
    assert tau == ThicknessValue(tau=None, infinite=True, depth=depth,
                                 gap_count=0)


def _gap_ends(gs):
    return ([(g.left, g.right) for g in gs.gaps],
            gs.hull_lo, gs.hull_hi)


def test_cover_thickness_closed_form_matches_stepwise(band_covers):
    bits, depth, cases = band_covers
    with realnum.precision(bits):
        for spine, cover in cases:
            _, closed = _cover_near(spine, depth, ())
            stepwise = thickness(cover)
            assert closed.gap_count == stepwise.gap_count == len(cover.gaps)
            assert (closed.depth, closed.infinite) == (depth, False)
            assert closed.tau.intersects(stepwise.tau)
            if bits >= 96:
                assert closed.tau.float_bounds() == stepwise.tau.float_bounds()
            else:
                assert closed.tau.width < stepwise.tau.width


def test_cover_walker_visiting_every_node_is_the_cover(band_covers, monkeypatch):
    bits, depth, cases = band_covers
    constructions = importlib.import_module("betacert.constructions")
    with realnum.precision(bits):
        for spine, cover in cases:
            # every node is visited and agrees with its level's class
            whole, _ = _cover_near(spine, depth, None)
            assert _gap_ends(whole) == _gap_ends(cover)
            assert whole.depth == depth
        # a node that disagrees with its level's class is caught: the
        # root's gap, at a level declared overlapping
        monkeypatch.setattr(constructions, "cover_thickness",
                            lambda powers, tail_band: (0, None))
        for spine, _ in cases:
            with pytest.raises(PrecisionError, match="level-0 node"):
                _cover_near(spine, depth, ())


@pytest.mark.parametrize("bits", [64, 512])
def test_cover_closed_form_applies_across_orders(bits):
    # past the orders the pipelines' bands are tested at: at the root and
    # at 15/16 of the radius on either side, the closed form's premises
    # hold and a walk through every node finds a gap at each of its
    # separated levels and none below them
    with realnum.precision(bits):
        for k in (14, 17, 20):
            depth = _b_cover_depth(k)
            root = bonacci_root(k).value
            rho = root ** (-2 * k - 6)
            for q in (root, root - rho * F(15, 16), root + rho * F(15, 16)):
                spine = fixed_expansion_of_one(q, k, depth)
                assert _closed_form(spine, depth) is not None
                whole, tau = _cover_near(spine, depth, None)
                assert len(whole.gaps) == tau.gap_count > 0
                assert tau.tau.gt(q ** -5) is True


def _cover_queries(cover, rng):
    """Groups of points and intervals near a cover, each group read by one
    walk: the hull ends and beyond; per sampled gap, its ends as they are
    and points and intervals inside and across it; random points and
    short intervals in the hull."""
    lo, hi = cover.hull_lo, cover.hull_hi
    span = hi - lo
    groups = [([lo, hi, lo - span / 64, hi + span / 64],
               [(lo - span, lo - span / 2), (lo - span / 2, hi + span / 2)])]
    for g in rng.sample(cover.gaps, min(6, len(cover.gaps))):
        w = g.right - g.left
        groups.append(([g.left, g.right, g.left + w / 2, g.left - w / 4,
                        g.right + w / 4],
                       [(g.left + w / 4, g.right - w / 4),
                        (g.left - w / 4, g.right - w / 4),
                        (g.left, g.right),
                        (g.left + w / 4, g.right + w)]))
    for _ in range(6):
        a, b = sorted(F(rng.randrange(1, 10 ** 6), 10 ** 6) for _ in range(2))
        groups.append(([lo + span * a],
                       [(lo + span * a, lo + span * b + span / 10 ** 7)]))
    return groups


def test_cover_walker_answers_at_its_probes_equal_the_whole_cover(band_covers):
    bits, depth, cases = band_covers
    rng = random.Random(bits)
    seen_in, seen_out = set(), set()
    with realnum.precision(bits):
        for spine, cover in cases:
            for points, intervals in _cover_queries(cover, rng):
                probes = points + [end for pair in intervals for end in pair]
                near, _ = _cover_near(spine, depth, probes)
                for x in points:
                    verdict = cover.point_in(x)
                    assert near.point_in(x) is verdict
                    seen_in.add(verdict)
                assert (near.hull_lo, near.hull_hi) == (cover.hull_lo, cover.hull_hi)
                for a, b in intervals:
                    verdict = _contained_in_complement(a, b, cover)
                    assert _contained_in_complement(a, b, near) is verdict
                    seen_out.add(verdict)
    # every verdict occurs: the oracle bites
    assert seen_in == seen_out == {True, False, None}


# ------------------------------------------------------- witnesses


def test_witnesses_certify_and_order(spine9):
    ws = witness_points(9)
    assert ws.certificate.certified, [
        (c.name, c.status) for c in ws.certificate.checks
        if c.status != STATUS_CERTIFIED]
    assert [p.label for p in ws.points] == ["0100", "0110", "1100", "1110"]
    vals = [p.value for p in ws.points]
    assert all(vals[i + 1].gt(vals[i]) is True for i in range(3))
    # the images sit two contraction scales below, same order
    imgs = [p.image for p in ws.points]
    assert all(imgs[i + 1].gt(imgs[i]) is True for i in range(3))


def test_witness_values_match_fraction_free_closed_form():
    ws = witness_points(9)
    q = ws.q
    denom = q ** 4 - 1
    closed = [q ** 2, q + q ** 2, q ** 2 + q ** 3, q + q ** 2 + q ** 3]
    for p, c in zip(ws.points, closed):
        assert p.value.intersects(1 + q ** -9 * c / denom)


def test_witness_images_are_prefixed_sequences():
    ws = witness_points(9)
    block = contraction_block(9).digits
    for p in ws.points:
        assert tuple(p.image_seq.digit(i) for i in range(len(block))) == block
        # image - 1 re-expands with a 2k-zero prefix, inside the
        # order-(k-1) language
        assert tuple(p.shifted_seq.digit(i) for i in range(18)) == (0,) * 18
        assert SubshiftSk(8).contains(p.shifted_seq)


def test_witness_separation_scales_with_the_contraction():
    for k in (9, 11):
        ws = witness_points(k)
        q = ws.q
        assert ws.min_image_separation.intersects(
            q ** (-2 * k + 1) / (q ** 4 - 1))
        assert ws.min_image_separation.ge(2 * q ** (-2 * k - 4)) is True


def test_witnesses_reject_small_k():
    with pytest.raises(ValueError):
        witness_points(8)


# ----------------------------------------- stability under base nudges


def test_run_limited_family_is_stable_under_base_nudges():
    # moving the base by delta moves every described point by at most
    # delta / (q-1)^2 < (5/4) delta here; check the materialized families
    from betacert.symbolic import gaps_of_Sk
    k = 9
    root = bonacci_root(k).value
    delta = root ** (-2 * k - 7)
    a = gaps_of_Sk(root, k - 1, 9)
    b = gaps_of_Sk(root + delta, k - 1, 9)
    d = hausdorff_distance(a, b)
    assert d.le(root ** (-2 * k - 4)) is True


def test_cover_is_stable_under_base_nudges(spine9):
    k = 9
    root = bonacci_root(k).value
    delta = root ** (-2 * k - 7)
    near = fixed_expansion_of_one(root + delta, k, 49)
    d = hausdorff_distance(aq_gapset(spine9, 26), aq_gapset(near, 26))
    assert d.le(root ** (-2 * k - 4)) is True
