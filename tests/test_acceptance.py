"""Acceptance gate: the library's published reference targets.

One test per criterion, one pass/fail line each.  Reference digits are
the printed tables this library is expected to reproduce; comparisons
use containment in a half-ulp band of the printed precision (a printed
value is a correctly rounded decimal of the true one iff the true value
lies within half an ulp of it).  Dimension references additionally allow
a full ulp upward, since a truncating printer is indistinguishable from
a rounding one on a single sample.

Published digits stay verbatim in the tables below.  A printed digit is
replaced only by an erratum proved in this module, by an oracle that
imports nothing from betacert and works in exact rationals.  The oracle
proves both halves: the printed value is wrong and the erratum is right.
So an erratum can neither hide a library error nor outlive the misprint
it corrects.  Nothing here is loosened to force a green run.
"""

import contextlib
import io
import json
import random
import time
from collections import namedtuple
from decimal import Decimal
from fractions import Fraction as F

import jsonschema

from betacert.certify import (
    dim_lower_bound,
    fy_inequality,
    k_threshold,
)
from betacert.cli import main as cli_main
from betacert.constructions import (
    GMap,
    aq_gapset,
    fixed_expansion_of_one,
    pq_certificate,
    pq_hull_data,
    witness_points,
)
from betacert.expansions import count_prefixes
from betacert.realnum import as_enclosure, bonacci_root, pi_q
from betacert.symbolic import SubshiftSk, SymbolicSeq, avoids, gaps_of_Sk
from betacert.thickness import (
    Gap,
    GapSet,
    affine_image,
    hausdorff_distance,
    sk_thickness,
    thickness,
)
from test_thickness import ref_thickness

# ----------------------------------------------------------------------
# printed reference digits
# ----------------------------------------------------------------------

ROOTS_15_DIGITS = {
    9: "1.99802947026229",
    10: "1.99901863271010",
    11: "1.99951040197829",
    12: "1.99975550093732",
    13: "1.99987783271155",
}
ROOTS_16_DIGITS = {
    31: "1.999999999534342",
    32: "1.999999999767168",
    33: "1.999999999883594",
}
THREE_EXPANSION_RADII = {
    9: "6.10316e-8",
    10: "1.50925e-8",
    11: "3.75092e-9",
    12: "9.34745e-10",
    13: "2.33286e-10",
}
MAIN_RADII = {
    1: "1.26218e-29",
    2: "3.67342e-40",
    3: "8.55285e-50",
    4: "1.99136e-59",
    5: "3.62227e-71",
}
MAIN_THRESHOLDS = [31, 32, 32, 32, 33]
MAIN_DIMS = {
    1: "0.999967173",
    2: "0.999983586",
    3: "0.999979240",
    4: "0.999974848",
    5: "0.999985209",
}


# ----------------------------------------------------------------------
# errata: printed digits that exact arithmetic contradicts
# ----------------------------------------------------------------------

# order k: the root correctly rounded to the printed number of digits
ROOT_ERRATA = {
    31: "1.999999999534339",    # printed ...534342, 3 ulps high
    32: "1.999999999767169",    # printed ...767168, 1 ulp low
    33: "1.999999999883585",    # printed ...883594, 9 ulps high
}
# m: (the bound at count m+2, the count the printed value was evaluated at)
DIM_ERRATA = {
    1: ("0.999975749", 4),      # printed 0.999967173, the m=2 count
}


def half_ulp_band(printed: str) -> tuple[F, F]:
    d = Decimal(printed)
    ulp = F(10) ** d.as_tuple().exponent
    v = F(d)
    return v - ulp / 2, v + ulp / 2


def round_or_truncate_band(printed: str) -> tuple[F, F]:
    d = Decimal(printed)
    ulp = F(10) ** d.as_tuple().exponent
    v = F(d)
    return v - ulp / 2, v + ulp


def within(enc, band) -> bool:
    lo, hi = band
    return lo <= enc.lo and enc.hi <= hi


def disjoint(enc, band) -> bool:
    lo, hi = band
    return enc.hi < lo or hi < enc.lo


def same_ulp(a: str, b: str) -> bool:
    return Decimal(a).as_tuple().exponent == Decimal(b).as_tuple().exponent


# ----------------------------------------------------------------------
# exact oracle for the errata: Fraction arithmetic only, no betacert
# ----------------------------------------------------------------------

Bounds = namedtuple("Bounds", "lo hi")


def bonacci_poly(k: int, x: F) -> F:
    """f_k(x) = x^k (x - 2) + 1 = (x - 1)(x^k - x^(k-1) - ... - 1).

    On (1, 2) it is negative below q_k and positive above it.
    """
    return x ** k * (x - 2) + 1


def root_in_band(k: int, printed: str) -> bool:
    """Whether q_k lies in the half-ulp band of ``printed``: f_k changes
    sign across the band.  q_k is irrational (the rational-root test
    leaves only +-1), so neither end of the band is a zero of f_k.
    """
    lo, hi = half_ulp_band(printed)
    assert 1 < lo and hi < 2
    return bonacci_poly(k, lo) < 0 < bonacci_poly(k, hi)


def bisect(below, lo: F, hi: F) -> Bounds:
    """Halve [lo, hi] 160 times, keeping ``below(lo)`` true and
    ``below(hi)`` false."""
    for _ in range(160):
        mid = (lo + hi) / 2
        if below(mid):
            lo = mid
        else:
            hi = mid
    return Bounds(lo, hi)


def exact_root(k: int) -> Bounds:
    # f_k is negative at its minimum 2k/(k+1) and f_k(2) = 1
    return bisect(lambda x: bonacci_poly(k, x) < 0, F(2 * k, k + 1), F(2))


def exact_dim_bound(count: int, k: int) -> Bounds:
    """Enclosure of 1 - 1024 count^(20/19) q_k^(4-k): at count m+2, the
    bound that ``dim_lower_bound`` documents."""
    q = exact_root(k)
    scale = bisect(lambda y: y ** 19 < F(count) ** 20, F(1), F(count) ** 2)
    return Bounds(1 - 1024 * scale.hi * q.lo ** (4 - k),
                  1 - 1024 * scale.lo * q.hi ** (4 - k))


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(argv)
    return code, out.getvalue(), err.getvalue()


# ----------------------------------------------------------------------
# 1. root enclosures against every printed digit
# ----------------------------------------------------------------------

def test_01_roots_match_all_printed_reference_digits():
    references = {}
    for table in (ROOTS_15_DIGITS, ROOTS_16_DIGITS):
        for k, printed in table.items():
            erratum = ROOT_ERRATA.get(k)
            assert root_in_band(k, printed) == (erratum is None), (
                f"k={k}: printed {printed} and the errata table disagree")
            if erratum is not None:
                assert same_ulp(erratum, printed)
                assert root_in_band(k, erratum), (
                    f"k={k}: erratum {erratum} does not hold the root")
            references[k] = erratum or printed
    assert ROOT_ERRATA.keys() <= references.keys()

    t0 = time.perf_counter()
    failures = []
    for k, reference in references.items():
        enc = bonacci_root(k).value
        if not within(enc, half_ulp_band(reference)):
            failures.append(f"k={k}: reference {reference}, "
                            f"computed {enc.str_digits(18)}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"root reproduction took {elapsed:.2f}s"
    assert not failures, (
        "root enclosures outside the reference half-ulp bands: "
        + "; ".join(failures))


# ----------------------------------------------------------------------
# 2. three-expansions pinning radii to six significant digits
# ----------------------------------------------------------------------

def test_02_three_expansion_radii_match_to_six_significant_digits():
    t0 = time.perf_counter()
    for k, printed in THREE_EXPANSION_RADII.items():
        radius = bonacci_root(k).value ** (-2 * k - 6)
        assert within(radius, half_ulp_band(printed)), (
            f"k={k}: printed {printed}, computed {radius.str_digits(8)}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"radius reproduction took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# 3. main-pipeline pinning radii to six significant digits
# ----------------------------------------------------------------------

def test_03_main_pipeline_radii_match_to_six_significant_digits():
    t0 = time.perf_counter()
    for m, printed in MAIN_RADII.items():
        k = k_threshold(m)
        radius = bonacci_root(k).value ** (-(m + 2) * k - 3)
        assert within(radius, half_ulp_band(printed)), (
            f"m={m}: printed {printed}, computed {radius.str_digits(8)}")
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"radius reproduction took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# 4. order thresholds, exactly
# ----------------------------------------------------------------------

def test_04_order_thresholds_match_exactly():
    assert [k_threshold(m) for m in range(1, 6)] == MAIN_THRESHOLDS


# ----------------------------------------------------------------------
# 5. dimension bounds on all printed digits
# ----------------------------------------------------------------------

def test_05_dimension_bounds_match_on_all_printed_digits():
    failures = []
    for m, printed in MAIN_DIMS.items():
        k_printed = MAIN_THRESHOLDS[m - 1]
        exact = exact_dim_bound(m + 2, k_printed)
        reference = printed
        if m in DIM_ERRATA:
            reference, misprint_count = DIM_ERRATA[m]
            misprint = exact_dim_bound(misprint_count, k_printed)
            assert same_ulp(reference, printed)
            assert disjoint(exact, round_or_truncate_band(printed)), (
                f"m={m}: printed {printed} is the bound at count {m + 2}")
            assert within(misprint, half_ulp_band(printed)), (
                f"m={m}: printed {printed} is not the bound at count "
                f"{misprint_count}")
        assert within(exact, half_ulp_band(reference)), (
            f"m={m}: {reference} is not the bound at count {m + 2}")

        k = k_threshold(m)
        dim = dim_lower_bound(m, bonacci_root(k).value, k)
        if not within(dim, round_or_truncate_band(reference)):
            failures.append(f"m={m}: reference {reference}, "
                            f"computed {dim.str_digits(12)}")
    assert DIM_ERRATA.keys() <= MAIN_DIMS.keys()
    assert not failures, (
        "dimension bounds off the reference digits: " + "; ".join(failures))


# ----------------------------------------------------------------------
# 6. the overlap-budget inequality engine
# ----------------------------------------------------------------------

def test_06_overlap_inequality_engine_reference_instances():
    # the engine instance used at m = 1, where the thickness floor is the
    # 27th power of the band's growth floor
    cert = fy_inequality(1, F(1999, 1000) ** 27, F(1, 8))
    main = next(c for c in cert.checks
                if c.name == "count_term_within_overlap_budget")
    assert main.rhs.lo >= F(73389, 10 ** 12)          # rhs >= 7.3389e-8
    assert cert.certified
    # a unit thickness cannot clear the budget
    degenerate = fy_inequality(1, 1, F(1, 8))
    bad = next(c for c in degenerate.checks
               if c.name == "count_term_within_overlap_budget")
    assert bad.status == "failed"
    assert not degenerate.certified


# ----------------------------------------------------------------------
# 7. thickness: banded bounds, tie invariance, affine invariance
# ----------------------------------------------------------------------

def random_tied_gapset(rng: random.Random) -> GapSet:
    """Dyadic gaps with widths from a tiny palette, so ties are common."""
    palette = [F(1, 256), F(1, 128), F(3, 256), F(1, 64)]
    gaps = []
    pos = rng.randint(2, 6)
    for i in range(rng.randint(3, 9)):
        width = rng.choice(palette)
        left = F(pos, 128)
        gaps.append(Gap(as_enclosure(left), as_enclosure(left + width),
                        label=str(i)))
        pos += rng.randint(3, 9)
    return GapSet(hull_lo=as_enclosure(0),
                  hull_hi=as_enclosure(F(pos + 4, 128)),
                  gaps=tuple(gaps))


def test_07_thickness_bands_tie_shuffle_and_affine_invariance():
    t0 = time.perf_counter()
    # run-limited families beat the power bound across the pinned bands
    for k in range(5, 13):
        root = bonacci_root(k).value
        radius = root ** (-2 * k - 6)
        for q in (root - radius, root + radius):
            tv = sk_thickness(q, k - 1, 3 * k)
            assert tv.tau.gt(q ** (k - 4)) is True, (
                f"k={k}: thickness {tv.tau.str_digits(8)} does not clear "
                f"the power bound")

    # the stepwise value is independent of tie-processing order: the
    # reference processes each tie block in a shuffled order
    rng = random.Random(20260819)
    cases = [random_tied_gapset(rng) for _ in range(100)]
    for i, gs in enumerate(cases):
        ref = thickness(gs).tau
        for seed in (i, i + 1000):
            shuffled = ref_thickness(gs, tie_rng=random.Random(seed))
            assert (shuffled.lo, shuffled.hi) == (ref.lo, ref.hi)

    # affine images preserve the value exactly (dyadic data, exact maps)
    transforms = [(F(2), F(1)), (F(1, 2), F(-3)), (F(-2), F(5, 8)),
                  (F(3, 2), F(0)), (F(-1, 4), F(7))]
    for i, gs in enumerate(cases[:25]):
        scale, offset = transforms[i % len(transforms)]
        ref = thickness(gs).tau
        image = thickness(affine_image(gs, scale, offset)).tau
        assert (image.lo, image.hi) == (ref.lo, ref.hi)
    elapsed = time.perf_counter() - t0
    assert elapsed < 120, f"thickness suite took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 8. witnesses: closed forms, separation, language membership
# ----------------------------------------------------------------------

def test_08_witness_closed_forms_separation_and_language():
    t0 = time.perf_counter()
    for k in range(9, 14):
        ws = witness_points(k)
        assert ws.certificate.certified
        root = ws.q
        denom = root ** 4 - 1
        tail_value = {
            "0100": root ** 2,
            "0110": root + root ** 2,
            "1100": root ** 2 + root ** 3,
            "1110": root + root ** 2 + root ** 3,
        }
        forbidden = SubshiftSk(k - 1).forbidden
        for p in ws.points:
            closed = 1 + root ** (-k) * tail_value[p.label] / denom
            assert p.value.intersects(closed), (
                f"k={k} tail {p.label}: value {p.value.str_digits(20)} vs "
                f"closed form {closed.str_digits(20)}")
            assert p.value.hi - p.value.lo < F(1, 10 ** 40)
            assert closed.hi - closed.lo < F(1, 10 ** 40)
            # the image translated by -1 lives in the run-limited language
            for word in forbidden:
                assert avoids(p.shifted_seq, word)
        margin = root ** (-2 * k - 4)
        assert ws.min_image_separation.ge(2 * margin) is True
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"witness suite took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 9. transport bounds on depth-matched descriptions
# ----------------------------------------------------------------------

def test_09_hausdorff_transport_bounds_on_depth_matched_descriptions():
    gap_depth = 7
    for k in (9, 10):
        root = bonacci_root(k).value
        rad = (root ** (-2 * k - 6)).lo
        margin = root ** (-2 * k - 4)
        cover_depth = 2 * k + 4
        # strictly interior displacements: the cover construction is
        # fail-closed about its pinning hypothesis, so a boundary-exact
        # |q - root| = radius cannot be certified inside the band
        if k == 9:
            offsets = [rad * 9 / 10, rad / 2, rad / 5, rad / 17, rad / 3]
        else:
            offsets = [rad * 9 / 10, -rad * 9 / 10, rad / 2, -rad / 3, rad / 7]

        s_root = affine_image(gaps_of_Sk(root, k - 1, gap_depth), 1, 1)
        g_root = GMap(root, k)
        a_root = affine_image(
            aq_gapset(fixed_expansion_of_one(root, k, cover_depth),
                      cover_depth),
            g_root.scale, g_root.offset)

        for off in offsets:
            q = root + off
            s_q = affine_image(gaps_of_Sk(q, k - 1, gap_depth), 1, 1)
            d_s = hausdorff_distance(s_q, s_root)
            assert d_s.lt(margin) is True, (
                f"k={k} offset {float(off):.2e}: translated-family distance "
                f"{d_s.str_digits(6)} not under {margin.str_digits(6)}")
            g_q = GMap(q, k)
            a_q = affine_image(
                aq_gapset(fixed_expansion_of_one(q, k, cover_depth),
                          cover_depth),
                g_q.scale, g_q.offset)
            d_a = hausdorff_distance(a_q, a_root)
            assert d_a.lt(margin) is True, (
                f"k={k} offset {float(off):.2e}: contracted-cover distance "
                f"{d_a.str_digits(6)} not under {margin.str_digits(6)}")


# ----------------------------------------------------------------------
# 10. hull-layout trichotomy and the overlap fraction
# ----------------------------------------------------------------------

def test_10_layout_trichotomy_and_overlap_fraction():
    k, m = 31, 1
    root = bonacci_root(k).value
    rho = root ** (-(m + 2) * k - 3)
    half = rho.lo / 2
    expected = {
        -1: "p_left_ends_ascending",
        0: "p_left_ends_indistinguishable",
        1: "p_left_ends_descending",
    }
    for side in (-1, 0, 1):
        q = root + side * half
        cert = pq_certificate(pq_hull_data(q, k, m))
        names = [c.name for c in cert.checks]
        assert expected[side] in names, f"side {side}: got {names}"
        assert cert.certified, f"side {side}: {cert.to_json_dict()['checks']}"
        anchors = pq_hull_data(q, k, m)
        assert anchors.beta.gt(as_enclosure(F(1, 8))) is True


# ----------------------------------------------------------------------
# 11. expansion-oracle properties
# ----------------------------------------------------------------------

def exhaustive_prefix_counts(q: F, x: F, n: int) -> list[int]:
    """Exact-rational search over all 2^n digit strings.

    A string survives to depth d when every partial orbit value sits in
    its digit's closed domain; the per-depth count is the number of
    distinct surviving prefixes.  Independent of the branch walk: no
    enclosures, no frontier, one string at a time.
    """
    dom0_hi = 1 / (q * (q - 1))
    dom1_lo = 1 / q
    att_hi = 1 / (q - 1)
    seen = [set() for _ in range(n)]
    for word in range(1 << n):
        y = x
        prefix = []
        for j in range(n):
            digit = (word >> (n - 1 - j)) & 1
            ok = (0 <= y <= dom0_hi) if digit == 0 else (dom1_lo <= y <= att_hi)
            if not ok:
                break
            prefix.append(digit)
            seen[j].add(tuple(prefix))
            y = q * y - digit
    return [len(s) for s in seen]


def _random_instance(rng, max_den, max_xden):
    den = rng.randint(3, max_den)
    q = F(rng.randint(den + 1, 2 * den - 1), den)
    xden = rng.randint(2, max_xden)
    hi = 1 / (q - 1)
    x = F(rng.randint(0, int(hi * xden)), xden)
    return q, min(x, hi)


def test_11_expansion_oracle_properties():
    t0 = time.perf_counter()
    rng = random.Random(20260819)

    # exhaustive-search equivalence on 50 small rational instances
    for _ in range(50):
        q, x = _random_instance(rng, 40, 60)
        oracle = exhaustive_prefix_counts(q, x, 12)
        r = count_prefixes(q, x, depth=12)
        assert list(r.certified_min) == oracle, f"q={q} x={x}"
        assert list(r.possible_max) == oracle, f"q={q} x={x}"

    # certified lower bounds never decrease with depth
    for _ in range(1000):
        den = rng.randint(3, 97)
        q = F(rng.randint(den + 1, 2 * den - 1), den)
        xden = rng.randint(1, 997)
        hi = 1 / (q - 1)
        x = min(F(rng.randint(0, int(hi * xden)), xden), hi)
        r = count_prefixes(q, x, depth=10)
        assert all(a <= b for a, b in
                   zip(r.certified_min, r.certified_min[1:])), f"q={q} x={x}"

    # the two trivial endpoints have exactly one expansion; at these bases
    # the right endpoint stays exactly representable through the walk
    for q in (F(3, 2), F(5, 4), F(9, 8)):
        for x in (F(0), 1 / (q - 1)):
            r = count_prefixes(q, x, depth=200)
            assert r.certified_min[-1] == r.possible_max[-1] == 1, (q, x)
            assert r.stabilized

    # the pinned-band pipeline's switch-region point shows exactly three
    # expansions, stable over the final quarter of a depth-200 walk
    anchor = witness_points(10).points[1]
    x_seq = SymbolicSeq((0,) + anchor.image_seq.preperiod.digits,
                        anchor.image_seq.period)
    root = bonacci_root(10).value
    r = count_prefixes(root, pi_q(x_seq, root), depth=200)
    assert all(r.certified_min[d] == r.possible_max[d] == 3
               for d in range(149, 200))

    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"oracle property suite took {elapsed:.1f}s"


# ----------------------------------------------------------------------
# 12. command-line end to end
# ----------------------------------------------------------------------

BOUNDS_PAIR = {
    "type": "array",
    "items": {"type": "number"},
    "minItems": 2,
    "maxItems": 2,
}

CERTIFICATE_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": ["claim", "params", "checks", "evidence_depth", "grade",
                 "certified", "wall_time_ms"],
    "additionalProperties": False,
    "properties": {
        "claim": {"type": "string", "minLength": 1},
        "params": {"type": "object"},
        "checks": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["name", "lhs", "rhs", "status"],
                "additionalProperties": False,
                "properties": {
                    "name": {"type": "string", "minLength": 1},
                    "lhs": {"oneOf": [{"type": "null"}, BOUNDS_PAIR]},
                    "rhs": {"oneOf": [{"type": "null"}, BOUNDS_PAIR]},
                    "status": {"enum": ["certified", "failed", "uncertain"]},
                    "margin": {"oneOf": [{"type": "null"}, BOUNDS_PAIR]},
                    "note": {"type": "string"},
                },
            },
        },
        "evidence_depth": {
            "oneOf": [{"type": "null"}, {"type": "integer", "minimum": 0}],
        },
        "grade": {"enum": ["proved-inequality", "finite-depth-evidence"]},
        "certified": {"type": "boolean"},
        "wall_time_ms": {
            "oneOf": [{"type": "null"}, {"type": "number", "minimum": 0}],
        },
    },
}


def test_12_cli_tables_and_certificate_schema():
    for argv in (["certify", "--m", "1", "--k", "31", "--interval",
                  "--format", "json"],
                 ["certify", "--k", "10", "--interval", "--format", "json"]):
        code, out, err = run_cli(argv)
        assert code == 0, f"{argv}: exit {code}, stderr {err!r}"
        jsonschema.validate(json.loads(out), CERTIFICATE_SCHEMA)

    # a row reproduces its published digits unless it holds an erratum
    errata_rows = (
        {f"m={m}" for m, k in zip(MAIN_DIMS, MAIN_THRESHOLDS)
         if k in ROOT_ERRATA or m in DIM_ERRATA}
        | {f"k={k}" for k in THREE_EXPANSION_RADII if k in ROOT_ERRATA})
    rows_total = len(MAIN_DIMS) + len(THREE_EXPANSION_RADII)
    rows_matched = rows_total - len(errata_rows)

    code, out, _ = run_cli(["tables"])
    assert "rows match the reference tables" in out
    rows = [line.split()[:2] for line in out.splitlines()
            if line.split()[:1] in (["ok"], ["DIFF"])]
    assert len(rows) == rows_total
    assert {label for status, label in rows if status == "DIFF"} == errata_rows
    assert code == 1 and f"{rows_matched}/{rows_total} rows match" in out, (
        f"table reproduction is expected to match {rows_matched} reference "
        f"rows and exit 1 but exited {code}: "
        + out.strip().splitlines()[-1])


def test_12b_base_past_the_double_range_is_refused_with_a_schema_valid_document():
    # the refusal reports the base's ends outward: the largest double and
    # an infinity
    start = time.perf_counter()
    code, out, err = run_cli(["certify", "--k", "10", "--q", "1e309", "--format", "json"])
    assert time.perf_counter() - start < 2
    assert (code, err) == (1, "")
    doc = json.loads(out)
    jsonschema.validate(doc, CERTIFICATE_SCHEMA)
    assert doc["params"]["q"] == [1.7976931348623157e+308, float("inf")]
    assert doc["params"]["verdict"] == "hypothesis-not-met"
