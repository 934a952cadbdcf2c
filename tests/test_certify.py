"""The end-to-end pipelines: thresholds, the overlap inequality, the
dimension bound, both interval certifications, table reproduction.

Oracles:
  * plain mpmath floating evaluation (no enclosures, 60 digits, compared
    with a safety margin far above double rounding) for the threshold
    expression, the overlap inequality's two sides, and the dimension
    bound;
  * the reference tables themselves for radii and thresholds -- these
    columns are reproducible and pin the pipelines' arithmetic;
  * exact Fraction closed forms for the three-expansion point's value;
  * structural cross-checks between modes (interval vs point at the band
    center must agree on every shared check name and status).

The known reference discrepancies are pinned as facts: the five twin
roots as printed differ from the computed enclosures by about one unit
in the last place, and the first dimension bound was evidently computed
with the count parameter of the row below it.  The reproduction must
report exactly that mismatch pattern, not paper over it.
"""

import importlib
import json
import sys
from dataclasses import replace
from fractions import Fraction
from types import SimpleNamespace

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacert import cli
from betacert.certificate import (
    Certificate,
    GRADE_EVIDENCE,
    GRADE_PROVED,
    STATUS_CERTIFIED,
    STATUS_FAILED,
    STATUS_UNCERTAIN,
)
from betacert.certify import (
    TABLE_MAIN_REFERENCE,
    TABLE_PRECISION_FLOOR,
    TABLE_THREE_REFERENCE,
    VERDICT_COMPLETE,
    VERDICT_HYPOTHESIS_NOT_MET,
    _GAP_DEPTH,
    _reference_band,
    _render_like,
    dim_lower_bound,
    fy_inequality,
    k_threshold,
    reproduce_tables,
    theorem_a_certify,
    theorem_b_certify,
)
from betacert.constructions import GMap, aq_gapset, witness_points
from betacert.realnum import (
    PrecisionError,
    as_enclosure,
    bonacci_root,
    pi_q,
    precision,
)
from betacert.symbolic import ResourceError, gaps_of_Sk
from betacert.thickness import GapSet, affine_image, interleaved, thickness

F = Fraction


def checks_by_name(cert):
    return {c.name: c for c in cert.checks}


def mp_eval(fn, digits=60):
    with mpmath.workdps(digits):
        return fn()


def mpf_of(x):
    if isinstance(x, Fraction):
        return mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
    return mpmath.mpf(x)


# ------------------------------------------------------- k_threshold


def oracle_threshold(m: int) -> int:
    """Ceiling of the threshold expression by plain floating arithmetic,
    guarded: the fractional part must sit far from 0 and 1."""
    val = mp_eval(lambda: mpf_of(Fraction(20, 19))
                  * (mpmath.log(m + 2) / mpmath.log(mpf_of(Fraction(1999, 1000))) + 24)
                  + 4)
    frac = val - mpmath.floor(val)
    assert 1e-6 < frac < 1 - 1e-6, "oracle too close to an integer to trust"
    return int(mpmath.floor(val)) + 1


def test_threshold_reference_values():
    assert [k_threshold(m) for m in (1, 2, 3, 4, 5)] == [31, 32, 32, 32, 33]


def test_threshold_matches_float_oracle():
    for m in range(1, 30):
        assert k_threshold(m) == oracle_threshold(m)


def test_threshold_rejects_nonpositive():
    with pytest.raises(ValueError):
        k_threshold(0)
    with pytest.raises(ValueError):
        k_threshold(-3)


@given(st.integers(min_value=1, max_value=200))
@settings(max_examples=60, deadline=None)
def test_threshold_monotone_and_bounded_below(m):
    k1, k2 = k_threshold(m), k_threshold(m + 1)
    assert k1 <= k2
    # the additive constants alone force > 29 regardless of m
    assert k1 >= 30


def test_threshold_survives_low_ambient_precision():
    # the retry loop must rescue a starting precision far too small to
    # separate the expression from an integer by accident
    with precision(64):
        assert k_threshold(1) == 31
        assert k_threshold(5) == 33


# ------------------------------------------------------- fy_inequality


def oracle_fy_sides(m, tau, beta, c):
    lhs = mp_eval(lambda: (m + 2) * mpf_of(tau) ** (-mpf_of(c)))
    rhs = mp_eval(lambda: mpf_of(beta) ** mpf_of(c)
                  * (1 - mpf_of(beta) ** (1 - mpf_of(c))) / 432 ** 2)
    return lhs, rhs


def test_fy_certifies_reference_instance():
    # tau = 1.999^27 with m = 1: the weakest instance the main pipeline
    # ever relies on
    tau = as_enclosure(F(1999, 1000)) ** 27
    cert = fy_inequality(1, tau, F(1, 8))
    assert cert.certified
    assert cert.grade == GRADE_PROVED
    main = checks_by_name(cert)["count_term_within_overlap_budget"]
    assert main.rhs.lo >= F(73389, 10 ** 12)  # rhs at least 7.3389e-8
    lhs_o, rhs_o = oracle_fy_sides(1, F(1999, 1000) ** 27, F(1, 8), F(19, 20))
    assert abs(float(main.lhs.mid) - float(lhs_o)) < 1e-12 * float(lhs_o)
    assert abs(float(main.rhs.mid) - float(rhs_o)) < 1e-12 * float(rhs_o)


def test_fy_fails_at_unit_thickness():
    for m in range(1, 8):
        cert = fy_inequality(m, 1, F(1, 8))
        assert not cert.certified
        main = checks_by_name(cert)["count_term_within_overlap_budget"]
        assert main.status == STATUS_FAILED


def test_fy_premise_failure_leaves_main_undecided():
    cert = fy_inequality(1, -2, F(1, 8))
    by = checks_by_name(cert)
    assert by["premise_tau_positive"].status == STATUS_FAILED
    assert by["count_term_within_overlap_budget"].status == STATUS_UNCERTAIN

    cert = fy_inequality(1, 5, F(1, 2))  # beta above a quarter
    by = checks_by_name(cert)
    assert by["premise_beta_in_quarter"].status == STATUS_FAILED
    assert by["count_term_within_overlap_budget"].status == STATUS_UNCERTAIN


@given(st.integers(min_value=1, max_value=6),
       st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_fy_monotone_in_thickness(m, t):
    # enlarging tau only shrinks the left side: certification is upward
    # closed in tau
    small = fy_inequality(m, t, F(1, 8))
    large = fy_inequality(m, 2 * t, F(1, 8))
    if small.certified:
        assert large.certified


# ------------------------------------------------------- dim_lower_bound


def test_dim_matches_float_oracle():
    for m, k in ((1, 31), (2, 32), (3, 32), (4, 32), (5, 33)):
        q = bonacci_root(k).value
        enc = dim_lower_bound(m, q, k)
        oracle = float(mp_eval(
            lambda: 1 - 1024 * mpmath.mpf(m + 2) ** (mpmath.mpf(20) / 19)
            * mpmath.mpf(float(q.mid)) ** (4 - k)))
        assert abs(float(enc.mid) - oracle) < 1e-12


def test_dim_reference_values():
    # computed bounds; the m=1 row deliberately disagrees with the
    # published table (see the reproduction tests below)
    expected = {1: "0.999975749", 2: "0.999983586", 3: "0.999979240",
                4: "0.999974848", 5: "0.999985209"}
    for m, k in ((1, 31), (2, 32), (3, 32), (4, 32), (5, 33)):
        enc = dim_lower_bound(m, bonacci_root(k).value, k)
        assert _render_like("0.999999999", enc.mid) == expected[m]


def test_dim_total_below_meaningful_orders():
    # the formula is total: at k = 4 the base power is q^0 = 1 and the
    # bound is deeply negative
    enc = dim_lower_bound(1, 2, 4)
    assert enc.hi < 0
    with pytest.raises(ValueError):
        dim_lower_bound(0, 2, 31)


def test_dim_lower_bound_is_computed_at_each_precision():
    # realnum keeps (m+2)^(20/19) per precision: a value kept at one
    # precision must not serve another
    for bits in (64, 256, 64, 512, 256):
        with precision(bits):
            q = bonacci_root(31).value
            fresh = 1 - 1024 * as_enclosure(3) ** Fraction(20, 19) * q ** (4 - 31)
            assert dim_lower_bound(1, q, 31) == fresh


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=20, max_value=40))
@settings(max_examples=40, deadline=None)
def test_dim_monotone(m, k):
    q = F(1999, 1000)
    lower_m = dim_lower_bound(m, q, k)
    higher_m = dim_lower_bound(m + 1, q, k)
    assert higher_m.lo <= lower_m.hi  # more expansions, weaker bound
    deeper = dim_lower_bound(m, q, k + 1)
    assert deeper.lo >= lower_m.lo  # larger order, stronger bound


# ------------------------------------------------------- main pipeline


def test_main_pipeline_interval_all_reference_rows():
    for m, k_ref, _root, radius_ref, _dim in TABLE_MAIN_REFERENCE:
        cert = theorem_a_certify(m, k_ref)
        assert cert.certified, [c.name for c in cert.checks
                                if c.status != STATUS_CERTIFIED]
        assert cert.grade == GRADE_EVIDENCE
        assert cert.params["verdict"] == VERDICT_COMPLETE
        assert cert.params["mode"] == "interval"
        lo, hi = cert.params["radius"]
        assert lo == pytest.approx(float(radius_ref), rel=5e-6)
        assert hi == pytest.approx(float(radius_ref), rel=5e-6)
        assert cert.params["beta"][0] > 1 / 8
        assert cert.params["dim_lower_bound"][0] > 0.9999


def test_main_pipeline_interval_dimension_bound_covers_the_band():
    # the bound is evaluated on the band enclosure, not at the root, so its
    # positivity check covers every base the certificate claims
    for m, k, *_ in TABLE_MAIN_REFERENCE:
        root = bonacci_root(k).value
        rho = root ** (-(m + 2) * k - 3)
        lhs = checks_by_name(theorem_a_certify(m, k))["dimension_bound_positive"].lhs
        for end in (root.lo - rho.hi, root.hi + rho.hi):
            assert lhs.intersects(dim_lower_bound(m, end, k))


def test_main_pipeline_below_threshold_is_verdict_not_error():
    cert = theorem_a_certify(1, 30)
    assert cert.params["verdict"] == VERDICT_HYPOTHESIS_NOT_MET
    assert not cert.certified
    assert cert.grade == GRADE_PROVED
    by = checks_by_name(cert)
    assert by["order_meets_threshold"].status == STATUS_FAILED


def test_main_pipeline_point_mode_at_center():
    root = bonacci_root(31).value
    cert = theorem_a_certify(1, 31, root)
    assert cert.certified
    assert cert.params["mode"] == "point"
    by = checks_by_name(cert)
    assert by["pinning_within_radius"].status == STATUS_CERTIFIED
    # same checks as interval mode, plus the pinning membership
    interval_names = {c.name for c in theorem_a_certify(1, 31).checks}
    point_names = {c.name for c in cert.checks}
    assert point_names == interval_names | {"pinning_within_radius"}


def test_main_pipeline_point_mode_off_band():
    q = bonacci_root(31).value + F(1, 10 ** 20)
    cert = theorem_a_certify(1, 31, q)
    assert cert.params["verdict"] == VERDICT_HYPOTHESIS_NOT_MET
    assert not cert.certified
    assert checks_by_name(cert)["pinning_within_radius"].status == STATUS_FAILED


def test_main_pipeline_check_inventory():
    cert = theorem_a_certify(1, 31)
    names = [c.name for c in cert.checks]
    for expected in (
        "order_meets_threshold",
        "epsilon_above_lower_band",
        "epsilon_below_upper_band",
        "layout_q_hull_left_of_p_hulls",
        "layout_hulls_overlap",
        "layout_relative_overlap_exceeds_one_eighth",
        "family_thickness_exceeds_power",
        "fy_count_term_within_overlap_budget",
        "dimension_bound_positive",
    ):
        assert expected in names, expected


def test_main_pipeline_rejects_bad_arguments():
    with pytest.raises(ValueError):
        theorem_a_certify(0, 31)
    with pytest.raises(ValueError):
        theorem_a_certify(1, 31, "everywhere")


# ------------------------------------------------------- three-expansions


def oracle_preimage_value(k: int, digits=40) -> float:
    """Float value of the three-expansion point at the order-k root, by
    plain floating arithmetic: the intersection point is the contraction
    image of the second witness, y = 1 + q^-2k (q + q^2) / (q^4 - 1)
    (one q^-k from the witness offset, one from the contraction, and the
    affine offset closes to 1 by the root's defining identity); the
    three-expansion point is its switch-region preimage y / q."""
    with mpmath.workdps(digits):
        q = mpmath.findroot(
            lambda x: x ** (k + 1) - 2 * x ** k + 1, mpmath.mpf(2) - mpmath.mpf(2) ** -k)
        y = 1 + q ** (-2 * k) * (q + q ** 2) / (q ** 4 - 1)
        return float(y / q)


@pytest.mark.parametrize("k", [9, 10, 11, 12, 13])
def test_three_pipeline_interval_rows(k):
    cert = theorem_b_certify(k)
    assert cert.certified, [c.name for c in cert.checks
                            if c.status != STATUS_CERTIFIED]
    assert cert.grade == GRADE_EVIDENCE
    assert cert.params["verdict"] == VERDICT_COMPLETE
    assert cert.params["radius_side"] == ("right" if k == 9 else "both")
    radius_ref = dict((row[0], row[2]) for row in TABLE_THREE_REFERENCE)[k]
    assert cert.params["radius"][0] == pytest.approx(float(radius_ref), rel=5e-6)
    lo, hi = cert.params["three_expansion_point"]
    oracle = oracle_preimage_value(k)
    assert lo <= oracle <= hi or abs(lo - oracle) < 1e-14


def test_three_pipeline_check_inventory():
    cert = theorem_b_certify(10)
    names = [c.name for c in cert.checks]
    for expected in (
        "witness_construction_certified",
        "interleaving_left_stagger",
        "interleaving_overlap_core",
        "interleaving_right_stagger",
        "s_family_drift_within_margin",
        "a_family_drift_within_margin",
        "s_family_thickness_exceeds_power",
        "a_family_thickness_exceeds_inverse_power",
        "thickness_product_at_least_one",
        "newhouse_interleaved",
        "newhouse_thickness_product",
        "intersection_point_in_both_descriptions",
        "count_certified_minimum_reaches_m",
        "count_possible_maximum_stays_m_over_window",
        "count_certified_minimum_stable_over_window",
    ):
        assert expected in names, expected


def test_three_pipeline_one_sided_order_nine():
    root9 = bonacci_root(9).value

    below = theorem_b_certify(9, root9 - F(1, 10 ** 9))
    assert below.params["verdict"] == VERDICT_HYPOTHESIS_NOT_MET
    assert not below.certified

    inside = theorem_b_certify(9, root9 + F(1, 10 ** 8))
    assert inside.certified
    by = checks_by_name(inside)
    assert by["base_strictly_above_root"].status == STATUS_CERTIFIED
    assert by["offset_within_radius"].status == STATUS_CERTIFIED


def test_three_pipeline_point_mode_off_band():
    q = bonacci_root(10).value + F(1, 10 ** 6)
    cert = theorem_b_certify(10, q)
    assert cert.params["verdict"] == VERDICT_HYPOTHESIS_NOT_MET
    assert checks_by_name(cert)["pinning_within_radius"].status == STATUS_FAILED


def test_three_pipeline_rejects_low_order():
    with pytest.raises(ValueError):
        theorem_b_certify(8)


def test_three_pipeline_depth_override():
    shallow = theorem_b_certify(10, depth=8)
    assert shallow.params["gap_depth"] == 8
    assert shallow.certified
    # the run-limited family is walked only along search paths, but a
    # depth whose whole family exceeds the enumeration budget is refused
    with pytest.raises(ResourceError):
        theorem_b_certify(10, depth=40)


def _spy(monkeypatch, module, name):
    """Record (args, result) of every call to ``module.name``, through
    every binding of it in the package's modules."""
    calls = []
    target = getattr(module, name)

    def spy(*args, **kwargs):
        out = target(*args, **kwargs)
        calls.append((args, out))
        return out

    for mod in list(sys.modules.values()):
        if (mod.__name__.split(".")[0] == "betacert"
                and getattr(mod, name, None) is target):
            monkeypatch.setattr(mod, name, spy)
    return calls


def test_three_pipeline_builds_and_measures_each_family_once(monkeypatch):
    # both families take their tau from closed forms and neither is
    # materialized or moved: of each, only the gaps on the search paths of
    # the pipeline's probes are built, in the family's own coordinates,
    # the cover's from one cylinder tree.  No stepwise thickness pass runs
    # and no affine image is taken
    symbolic = importlib.import_module("betacert.symbolic")
    constructions = importlib.import_module("betacert.constructions")
    thickness_module = importlib.import_module("betacert.thickness")
    built = []
    validate = GapSet.__post_init__

    def record(self):
        validate(self)
        built.append(self)

    monkeypatch.setattr(GapSet, "__post_init__", record)
    families = _spy(monkeypatch, symbolic, "gaps_of_Sk")
    near = _spy(monkeypatch, symbolic, "_sk_gaps_near")
    covers = _spy(monkeypatch, constructions, "aq_gapset")
    cover_near = _spy(monkeypatch, constructions, "_cover_near")
    trees = _spy(monkeypatch, constructions, "_cover_tree")
    closed = _spy(monkeypatch, constructions, "cover_thickness")
    measured = _spy(monkeypatch, thickness_module, "thickness")
    imaged = _spy(monkeypatch, thickness_module, "affine_image")

    assert theorem_b_certify(10).certified
    assert families == []
    assert covers == []
    assert measured == []
    assert imaged == []
    [(_, s_near)] = near
    assert len(s_near.gaps) <= 3 * (_GAP_DEPTH + 1)
    [((spine, depth, probes), (cover, a_tau))] = cover_near
    assert [args for args, _ in trees] == [(spine, depth)]
    [(_, (separated, _))] = closed
    assert a_tau.gap_count == (1 << separated) - 1 > 0
    levels = len([j for j in spine.J_free if j <= depth])
    assert len(probes) == 3
    assert 0 < len(cover.gaps) <= levels * len(probes) < a_tau.gap_count
    # one GapSet per family, and validation sees each built gap once
    assert len(built) == 2
    assert built[0] is cover and built[1] is s_near
    assert (sum(len(g.gaps) for g in built)
            == len(cover.gaps) + len(s_near.gaps))


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("k", [9, 10, 11, 12, 13])
def test_three_pipeline_gap_lemma_in_cover_coordinates(monkeypatch, k, bits):
    # oracle: the interleaving verdict the pipeline reaches on the gaps
    # next to its probes, each family in its own coordinates, equals the
    # whole-family route, which builds both families whole and moves the
    # cover into the run-limited family's coordinates (x -> g(x) - 1); and
    # the A-membership verdict equals that of y - 1 there.  A second run
    # places the cover with its hull in the run-limited family's widest
    # gap, so the interleaving oracle also sees a False verdict.  The
    # branch count, which raises PrecisionError at 64 bits after every
    # check that reads the families, is left out
    certify_module = importlib.import_module("betacert.certify")
    monkeypatch.setattr(certify_module, "certify_m_expansions",
                        lambda q, x, m, depth: Certificate("expansion-count", {}))
    cover_near = _spy(monkeypatch, importlib.import_module("betacert.constructions"),
                      "_cover_near")
    near = _spy(monkeypatch, importlib.import_module("betacert.symbolic"),
                "_sk_gaps_near")
    members = []
    point_in = GapSet.point_in

    def record(self, x):
        out = point_in(self, x)
        members.append((self, out))
        return out

    def interleaving(q, place):
        monkeypatch.setattr(certify_module, "GMap", place)
        status = checks_by_name(theorem_b_certify(k, q))["newhouse_interleaved"].status
        monkeypatch.setattr(certify_module, "GMap", GMap)
        return status

    monkeypatch.setattr(GapSet, "point_in", record)
    seen_in, seen_inter = set(), set()
    with precision(bits):
        root = bonacci_root(k).value
        for q in _band_bases(k):
            for calls in (cover_near, near, members):
                calls.clear()
            status = interleaving(q, GMap)
            [((spine, depth, cover_probes), (cover, _))] = cover_near
            [((_, _, _, probes), _)] = near
            [in_a] = [out for gs, out in members if gs is cover]
            q_eval = root if q == "interval" else q
            gmap = GMap(q_eval, k)
            whole_a = aq_gapset(spine, depth)
            gs_a = affine_image(whole_a, gmap.scale, gmap.offset - 1)
            whole_s = gaps_of_Sk(q_eval, k - 1, _GAP_DEPTH)
            y = pi_q(witness_points(k).points[1].image_seq, q_eval)
            assert list(probes[:2]) == [gs_a.hull_lo, gs_a.hull_hi]
            q_k = q_eval ** k
            s_in_a = affine_image(GapSet(whole_s.hull_lo, whole_s.hull_hi, ()),
                                  q_k, -((gmap.offset - 1) * q_k))
            assert list(cover_probes[:2]) == [s_in_a.hull_lo, s_in_a.hull_hi]
            verdict = interleaved(whole_s, gs_a)
            assert status == (STATUS_CERTIFIED if verdict else STATUS_FAILED)
            assert in_a is point_in(gs_a, y - 1)
            seen_in.add(in_a)
            seen_inter.add(verdict)

            widest = max(whole_s.gaps, key=lambda g: (g.right - g.left).mid)
            t = (widest.left + widest.right - gs_a.hull_lo - gs_a.hull_hi) / 2
            moved = SimpleNamespace(scale=gmap.scale, offset=gmap.offset + t)
            status = interleaving(q, lambda q, k: moved)
            verdict = interleaved(
                whole_s, affine_image(whole_a, moved.scale, moved.offset - 1))
            assert status == (STATUS_CERTIFIED if verdict else STATUS_FAILED)
            seen_inter.add(verdict)
    # both verdicts occur: the oracles bite
    assert seen_in == seen_inter == {True, False}


def _band_bases(k):
    """The band center in interval mode, then points at 1/8, 4/8 and 7/8 of
    the radius on each side (right side only at k = 9)."""
    root = bonacci_root(k).value
    rho = root ** (-2 * k - 6)
    return ["interval"] + [root + rho * F(t, 8) for t in (-7, -4, -1, 1, 4, 7)
                           if k > 9 or t > 0]


def _stepwise_cover(desc, depth, probes):
    # the reference route: the whole cover, built and measured stepwise
    cover = aq_gapset(desc, depth)
    return cover, thickness(cover)


@pytest.mark.parametrize("k", [9, 10, 11, 12, 13])
def test_three_pipeline_unreadable_cover_exits_3(monkeypatch, capsys, k):
    # where the cover's closed form does not apply, or a node on a probe's
    # path disagrees with its levels, the request fails closed: exit 3,
    # nothing on stdout, and an error naming the cover and --precision.
    # The whole cover is never built instead
    constructions = importlib.import_module("betacert.constructions")
    closed = constructions.cover_thickness

    def no_closed_form(powers, tail_band):
        return None

    def one_level_short(powers, tail_band):
        # the true tau, but one separated level fewer: the walk meets a
        # gap at a level declared overlapping
        levels, tau = closed(powers, tail_band)
        return levels - 1, tau

    covers = _spy(monkeypatch, constructions, "aq_gapset")
    for route in (no_closed_form, one_level_short):
        monkeypatch.setattr(constructions, "cover_thickness", route)
        assert cli.main(["certify", "--k", str(k), "--interval"]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert "cover" in err and "--precision" in err
    assert covers == []


def test_three_pipeline_uncertain_spine_exits_3(monkeypatch, capsys):
    # the spine's own checks fail closed too: where its value check comes
    # back uncertain the request exits 3 with nothing on stdout and an
    # error naming the spine and --precision
    certify_module = importlib.import_module("betacert.certify")
    real = certify_module.fixed_expansion_of_one

    def uncertain_value(q, k, depth):
        spine = real(q, k, depth)
        checks = [replace(c, status=STATUS_UNCERTAIN)
                  if c.name == "prefix_value_near_one" else c
                  for c in spine.certificate.checks]
        assert checks != spine.certificate.checks
        return replace(spine, certificate=replace(spine.certificate,
                                                  checks=checks))

    monkeypatch.setattr(certify_module, "fixed_expansion_of_one", uncertain_value)
    assert cli.main(["certify", "--k", "10", "--interval"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert "spine" in err and "--precision" in err


@pytest.mark.parametrize("bits", [64, 80])
@pytest.mark.parametrize("k", [9, 10, 11, 12, 13])
def test_three_pipeline_verdicts_match_the_stepwise_route(monkeypatch, k, bits):
    # no verdict changes at low precision either: every check status equals
    # the stepwise route's, and the closed form's tau is the tighter one.
    # At these precisions the branch count, which runs after every check
    # that reads the cover, raises PrecisionError; it is left out
    certify_module = importlib.import_module("betacert.certify")
    reader = certify_module._cover_near
    with pytest.raises(PrecisionError):
        with precision(bits):
            theorem_b_certify(k)
    monkeypatch.setattr(certify_module, "certify_m_expansions",
                        lambda q, x, m, depth: Certificate("expansion-count", {}))

    def run(q, route):
        monkeypatch.setattr(certify_module, "_cover_near", route)
        cert = theorem_b_certify(k, q)
        tau = checks_by_name(cert)["a_family_thickness_exceeds_inverse_power"].lhs
        return [(c.name, c.status) for c in cert.checks], tau

    with precision(bits):
        for q in _band_bases(k):
            statuses, tau = run(q, reader)
            stepwise_statuses, stepwise_tau = run(q, _stepwise_cover)
            assert statuses == stepwise_statuses
            assert {"a_family_thickness_exceeds_inverse_power", "newhouse_interleaved",
                    "intersection_point_in_both_descriptions"} <= dict(statuses).keys()
            assert tau.width < stepwise_tau.width


# ------------------------------------------------------- grade honesty


def test_grades_are_honest():
    # anything that went through a finite-depth cover or count is
    # evidence; pure formula certificates are proved
    assert theorem_a_certify(1, 31).grade == GRADE_EVIDENCE
    assert theorem_b_certify(10).grade == GRADE_EVIDENCE
    assert fy_inequality(1, 100, F(1, 8)).grade == GRADE_PROVED
    assert theorem_a_certify(1, 5).grade == GRADE_PROVED  # short-circuit


def test_certificate_json_shape():
    cert = theorem_a_certify(1, 31)
    doc = cert.to_json_dict()
    assert list(doc)[-1] == "wall_time_ms"
    assert doc["claim"] == "pinned-interval-m-plus-2"
    for chk in doc["checks"]:
        assert {"name", "status"} <= set(chk)
        if chk["lhs"] is not None:
            lo, hi = chk["lhs"]
            assert lo <= hi
    # deterministic modulo the timing field
    again = theorem_a_certify(1, 31).to_json_dict()
    doc.pop("wall_time_ms"), again.pop("wall_time_ms")
    assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)


# ------------------------------------------------------- reproduction


def test_reference_band_windows():
    lo, hi = _reference_band("1.2500")
    assert lo == F("1.24995") and hi == F("1.25005")
    lo, hi = _reference_band("0.999967173", round_or_truncate=True)
    assert lo == F("0.9999671725") and hi == F("0.999967174")
    lo, hi = _reference_band("6.10316e-8")
    assert lo == F("6.103155e-8") and hi == F("6.103165e-8")


def test_render_like_is_round_half_even():
    assert _render_like("1.24", F("1.245")) == "1.24"
    assert _render_like("1.24", F("1.255")) == "1.26"
    assert _render_like("1.24", F("1.2551")) == "1.26"
    assert _render_like("1.00000e-8", F("1.234567e-8")) == "1.23457e-8"
    assert _render_like("0.999999999", F("0.9999999994")) == "0.999999999"
    assert _render_like("0.999999999", F("0.9999999996")) == "1.000000000"


def test_reproduction_mismatch_pattern():
    rep = reproduce_tables()
    assert rep.rows_matched == 5
    assert len(rep.rows) == 10
    assert not rep.all_matched

    by_label = {(r.table, r.label): r for r in rep.rows}
    for m in (1, 2, 3, 4, 5):
        row = by_label[(1, f"m={m}")]
        cols = {e.column: e for e in row.entries}
        # thresholds and radii reproduce; the printed roots of orders 31,
        # 32 and 33 are off by 3, 1 and 9 ulps; the first dimension bound
        # was published from the neighbouring count parameter
        assert cols["threshold"].matched
        assert cols["radius"].matched
        assert not cols["root"].matched
        assert cols["dim"].matched == (m != 1)
    for k in (9, 10, 11, 12, 13):
        assert by_label[(2, f"k={k}")].matched


def test_reproduction_precision_guard():
    with precision(TABLE_PRECISION_FLOOR - 1):
        with pytest.raises(PrecisionError):
            reproduce_tables()
    with precision(64):
        with pytest.raises(PrecisionError):
            reproduce_tables()


def test_reproduction_json_roundtrip():
    rep = reproduce_tables()
    doc = rep.to_json_dict()
    assert doc["rows_total"] == 10
    assert doc["rows_matched"] == 5
    assert doc["precision_bits"] >= TABLE_PRECISION_FLOOR
    encoded = json.dumps(doc)
    assert json.loads(encoded) == doc


# ----------------------------------------------------------------------
# the package surface
# ----------------------------------------------------------------------

EXPORTS = [
    "AqDescription", "BonacciRoot", "Certificate", "Check", "ColumnReport",
    "CountReport", "DEFAULT_PRECISION", "DigitMaps", "Enclosure", "EpsilonQ",
    "GMap", "GRADE_EVIDENCE", "GRADE_PROVED", "Gap", "GapSet",
    "MalformedGapSet", "PQAnchors", "PQFamily", "PrecisionError",
    "ResourceError", "RowReport", "STATUS_CERTIFIED", "STATUS_FAILED",
    "STATUS_UNCERTAIN", "SubshiftSk", "SymbolicSeq", "TablesReport",
    "ThicknessValue", "VERDICT_COMPLETE", "VERDICT_HYPOTHESIS_NOT_MET",
    "WitnessPoint", "WitnessSet", "Word", "__version__", "affine_image",
    "aq_gapset", "as_enclosure", "avoids", "bonacci_root", "build_pq_family",
    "certify_m_expansions", "count_prefixes", "dim_lower_bound", "enc_max",
    "enc_min", "fixed_expansion_of_one", "fy_inequality", "gaps_of_Sk",
    "gapset_from_intervals", "get_precision", "hausdorff_distance",
    "interleaved", "k_threshold", "membership", "newhouse_certificate", "pi_q",
    "pq_certificate", "pq_hull_data", "precision", "reproduce_tables",
    "set_precision", "sk_thickness", "strongly_interleaved",
    "theorem_a_certify", "theorem_b_certify", "thickness", "witness_points",
]


def test_public_surface_is_pinned():
    # adding or dropping an export is a contract change: it shows here
    import betacert

    assert sorted(betacert.__all__) == EXPORTS
    for name in ("betacert", *(f"betacert.{m}" for m in (
            "certificate", "certify", "cli", "constructions", "expansions",
            "realnum", "symbolic", "thickness"))):
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert missing == [], name
