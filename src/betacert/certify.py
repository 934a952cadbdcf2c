"""End-to-end certification pipelines and the reference-table reproduction.

This module strings the lower layers into the two headline claims:

* ``theorem_a_certify`` -- for m >= 1 and k at least the order threshold
  ``k_threshold(m)``, every base within ``root_k^(-(m+2)k-3)`` of the
  order-k root admits points with exactly m+2 expansions, and the set of
  such points has Hausdorff dimension at least
  ``1 - 1024 (m+2)^(20/19) q^(4-k)``.  The chain is: layout of the
  truncated families, overlap band, beta > 1/8, family thickness, and the
  thickness-vs-overlap inequality run by ``fy_inequality``.

* ``theorem_b_certify`` -- for k >= 10 every base within
  ``root_k^(-2k-6)`` of the order-k root (for k = 9: within
  ``root_9^(-24)`` on the right only) admits points with exactly three
  expansions.  The chain is: the four explicit interleaving witnesses at
  the root, closed-form drift bounds moving both families from the root
  to the given base, thickness of both families, the gap-lemma
  conclusion on finite-depth descriptions, and a branch count of the
  switch-region preimage of the located intersection point (the preimage
  is where the three expansions live: one branch falls into the
  run-limited family, the other reaches the intersection point's two).
  Neither family is materialized or moved: both thicknesses are closed
  forms (``sk_thickness``, ``cover_thickness``), and each family is read
  in its own coordinates, next to the few probes the gap lemma needs.  A
  cover whose closed form or probe paths cannot be certified raises
  PrecisionError; there is no stepwise fallback.

``reproduce_tables`` recomputes every row of the two reference tables
(roots, radii, dimension bounds, order thresholds) and flags each column
against the published digits at printed precision.

Grade honesty: pure-formula results (thresholds, radii, dimension
bounds, the overlap inequality) are proved-inequality; any chain through
a finite-depth thickness, cover, or branch count is finite-depth
evidence.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, replace
from decimal import Decimal
from fractions import Fraction
from typing import Optional, Union

from .certificate import (
    Certificate,
    Check,
    GRADE_EVIDENCE,
    GRADE_PROVED,
    STATUS_CERTIFIED,
    STATUS_UNCERTAIN,
    check_flag,
    check_ge,
    check_gt,
    check_le,
    check_lt,
    _float_pair,
)
from .constructions import (
    GMap,
    _cover_near,
    _interleaving_margin,
    _pinned_radius,
    _three_radius,
    fixed_expansion_of_one,
    pq_certificate,
    pq_hull_data,
    witness_points,
)
from .expansions import certify_m_expansions
from .realnum import (
    Enclosure,
    PrecisionError,
    _decimal,
    as_enclosure,
    bonacci_root,
    get_precision,
    pi_q,
)
from .symbolic import SymbolicSeq, _sk_gaps_near
from .thickness import (
    _contained_in_complement,
    _gap_lemma_checks,
    sk_thickness,
    strongly_interleaved,
)

__all__ = [
    "k_threshold",
    "fy_inequality",
    "dim_lower_bound",
    "theorem_a_certify",
    "theorem_b_certify",
    "reproduce_tables",
    "ColumnReport",
    "RowReport",
    "TablesReport",
    "TABLE_MAIN_REFERENCE",
    "TABLE_THREE_REFERENCE",
    "VERDICT_COMPLETE",
    "VERDICT_HYPOTHESIS_NOT_MET",
]

#: growth floor used by the threshold formula: every root of order >= 10
#: certifiably exceeds 1999/1000, so a logarithm in this base lower-bounds
#: the logarithm in any of the roots the pipelines run at.
GROWTH_FLOOR = Fraction(1999, 1000)

#: exponent split c of the thickness-vs-overlap inequality: the paper's
#: chain fixes this one value for every order and target count.
DEFAULT_SPLIT = Fraction(19, 20)

#: squared modulus constant of the overlap inequality's right-hand side.
_OVERLAP_MODULUS = 432 ** 2

VERDICT_COMPLETE = "complete"
VERDICT_HYPOTHESIS_NOT_MET = "hypothesis-not-met"

#: index depth of the run-limited gap family inside the three-expansions
#: pipeline.  Twelve index digits resolve the gap structure three orders
#: finer than the witness cluster; the family has a few thousand gaps at
#: this depth, of which the pipeline builds only those on its probes'
#: search paths.
_GAP_DEPTH = 12

#: branch-count horizon handed to the expansion counter.
_COUNT_DEPTH = 200


def _merge(checks: list[Check], sub: list[Check], prefix: str) -> None:
    checks.extend(replace(c, name=prefix + c.name) for c in sub)


def _timed(pipeline):
    """Set the returned certificate's wall_time_ms to the call's duration."""
    @functools.wraps(pipeline)
    def run(*args, **kwargs) -> Certificate:
        start = time.perf_counter()
        cert = pipeline(*args, **kwargs)
        cert.wall_time_ms = (time.perf_counter() - start) * 1000.0
        return cert
    return run


def _interval_mode(q) -> bool:
    """True for the whole band ("interval"), False for a concrete base."""
    if isinstance(q, str) and q != "interval":
        raise ValueError(
            f"q must be an enclosure-like value or 'interval', got {q!r}")
    return isinstance(q, str)


def _not_met(claim: str, params: dict, checks: list[Check], **after) -> Certificate:
    """The proved-grade refusal of a request whose premise fails: the
    verdict follows ``params`` and precedes ``after``."""
    return Certificate(
        claim, {**params, "verdict": VERDICT_HYPOTHESIS_NOT_MET, **after},
        checks, grade=GRADE_PROVED)


def _pinning(claim: str, params: dict, checks: list[Check], pin: Check,
             q: Enclosure, root: Enclosure, rho: Enclosure) -> Optional[Certificate]:
    """Append a point's pin check to ``checks``; unless it certifies, return
    the refusal, with the base, center and radius after ``params``."""
    checks.append(pin)
    if pin.status == STATUS_CERTIFIED:
        return None
    if pin.status == STATUS_UNCERTAIN:
        pin.note += "; undecidable at current precision"
    return _not_met(claim, {**params, "q": _float_pair(q),
                            "center": _float_pair(root),
                            "radius": _float_pair(rho)}, checks)


# ======================================================================
# the order threshold
# ======================================================================

def k_threshold(m: int) -> int:
    """Smallest order the main pipeline supports for target count m+2.

    The ceiling of (20/19) (log_{1999/1000}(m+2) + 24) + 4, decided in
    integers: an order K meets the bound iff e = 19 (K - 4) - 480 is
    nonnegative and 1999^e >= (m+2)^20 1000^e.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    # e = 14 at K = 30, which no m >= 1 meets (m+2 >= 3 > 1.999^(14/20)),
    # and e grows by 19 per order
    num, den = GROWTH_FLOOR.numerator, GROWTH_FLOOR.denominator
    k, lhs, rhs = 30, num ** 14, (m + 2) ** 20 * den ** 14
    while lhs < rhs:
        k, lhs, rhs = k + 1, lhs * num ** 19, rhs * den ** 19
    return k


# ======================================================================
# the thickness-vs-overlap inequality
# ======================================================================

@_timed
def fy_inequality(m: int, tau, beta, c=None) -> Certificate:
    """Certify (m+2) tau^(-c) <= beta^c (1 - beta^(1-c)) / 432^2.

    ``c`` defaults to ``DEFAULT_SPLIT``.  Premises -- tau > 0, beta in
    (0, 1/4], c in (0, 1) -- are emitted as checks, and the main
    comparison is left undecided when they fail.  ``c`` is exact: an int,
    a Fraction, or a decimal string within 400 places, read exactly (past
    them, as ``"1e-9999999"``, whose exact value would cost time in its
    exponent, ValueError at once); any other type raises TypeError.
    """
    tau = as_enclosure(tau)
    beta = as_enclosure(beta)
    split = _decimal(c) if isinstance(c, str) else DEFAULT_SPLIT if c is None else c
    if not isinstance(split, (int, Fraction)):  # an Enclosure from _decimal: past 400 places
        raise (ValueError if isinstance(c, str) else TypeError)(
            f"the split c = {c!r} is not an int, a Fraction or a decimal string "
            "within 400 decimal places")
    checks = [
        check_gt("premise_tau_positive", tau, as_enclosure(0)),
        check_flag(
            "premise_beta_in_quarter",
            beta.gt(0) is True and beta.le(as_enclosure(Fraction(1, 4))) is True,
            note="beta must lie in (0, 1/4]"),
        check_flag("premise_c_in_unit_interval", 0 < split < 1),
    ]
    if all(p.status == STATUS_CERTIFIED for p in checks):
        lhs = (m + 2) * tau ** (-split)
        rhs = beta ** split * (1 - beta ** (1 - split)) / _OVERLAP_MODULUS
        checks.append(check_le("count_term_within_overlap_budget", lhs, rhs))
    else:
        checks.append(Check(name="count_term_within_overlap_budget",
                            lhs=None, rhs=None, status=STATUS_UNCERTAIN,
                            note="not evaluated: a premise is not certified"))

    return Certificate(
        "count-vs-overlap-inequality",
        {"m": m, "tau": _float_pair(tau), "beta": _float_pair(beta),
         "c": _float_pair(as_enclosure(split))},
        checks, grade=GRADE_PROVED)


# ======================================================================
# the dimension bound
# ======================================================================

def dim_lower_bound(m: int, q, k: int) -> Enclosure:
    """Enclosure of 1 - 1024 (m+2)^(20/19) q^(4-k).

    The value is a meaningful dimension claim only when positive, which
    needs k >= 5 (at k = 4 the q power is 1 and the bound is negative);
    the formula itself is total and the caller can check the sign.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    q = as_enclosure(q)
    return 1 - 1024 * as_enclosure(m + 2) ** Fraction(20, 19) * q ** (4 - k)


# ======================================================================
# main pipeline: intervals of bases admitting exactly m+2 expansions
# ======================================================================

@_timed
def theorem_a_certify(m: int, k: int, q: Union[Enclosure, str] = "interval") -> Certificate:
    """Certify the order-k pinned interval for target count m+2.

    ``q`` is either a concrete base (enclosure-like) or the string
    "interval".  In interval mode every closed-form check is evaluated
    over one wide enclosure spanning the whole pinned band
    [root_k - rho, root_k + rho], rho = root_k^(-(m+2)k-3), so a
    certified check holds simultaneously for every base in the band,
    the dimension bound's positivity included.  In concrete mode the
    membership |q - root_k| < rho is itself a check.

    Orders below ``k_threshold(m)`` short-circuit to a
    hypothesis-not-met verdict rather than raising: the caller asked a
    well-formed question whose premise simply fails.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    claim = "pinned-interval-m-plus-2"
    threshold = k_threshold(m)
    head = {"m": m, "k": k, "k_threshold": threshold}
    if k < threshold:
        return _not_met(claim, head, [check_flag(
            "order_meets_threshold", False,
            note=f"k = {k} is below the supported threshold {threshold}")])

    root = bonacci_root(k).value
    rho = _pinned_radius(root, m, k)
    interval_mode = _interval_mode(q)
    q_eval = (Enclosure.from_endpoints(root.lo - rho.hi, root.hi + rho.hi)
              if interval_mode else as_enclosure(q))

    checks: list[Check] = [check_flag(
        "order_meets_threshold", True,
        note=f"k = {k} >= threshold {threshold}")]
    if not interval_mode:
        pin = check_lt("pinning_within_radius", abs(q_eval - root), rho,
                       note="|q - root_k| < root_k^(-(m+2)k-3)")
        if refusal := _pinning(claim, head, checks, pin, q_eval, root, rho):
            return refusal

    anchors = pq_hull_data(q_eval, k, m)
    eps = anchors.epsilon.value
    checks.append(check_gt(
        "epsilon_above_lower_band", eps, -(root ** (-(m + 1) * k + 1)),
        note="pinning keeps the defect of 1 above -root^(-(m+1)k+1)"))
    checks.append(check_lt(
        "epsilon_below_upper_band", eps, root ** (-(m + 2) * k + 1),
        note="pinning keeps the defect of 1 below root^(-(m+2)k+1)"))
    _merge(checks, pq_certificate(anchors).checks, "layout_")

    sk = sk_thickness(q_eval, k - 1, 3 * k)
    tau_floor = q_eval ** (k - 4)
    checks.append(check_gt(
        "family_thickness_exceeds_power", sk.tau, tau_floor,
        note="the truncations cut at gap endpoints, so they inherit the "
             "full-family bound"))

    _merge(checks,
           fy_inequality(m, tau_floor, Fraction(1, 8)).checks,
           "fy_")

    dim = dim_lower_bound(m, q_eval, k)
    checks.append(check_gt(
        "dimension_bound_positive", dim, as_enclosure(0)))

    params = {
        **head,
        "mode": "interval" if interval_mode else "point",
        "center": _float_pair(root),
        "radius": _float_pair(rho),
        "beta": _float_pair(anchors.beta),
        "dim_lower_bound": _float_pair(dim),
        "verdict": VERDICT_COMPLETE,
    }
    if not interval_mode:
        params["q"] = _float_pair(q_eval)
    return Certificate(claim, params, checks, evidence_depth=3 * k,
                       grade=GRADE_EVIDENCE)


# ======================================================================
# three-expansions pipeline
# ======================================================================

def _b_cover_depth(k: int) -> int:
    # deep enough to resolve the witness cluster (scale root^(-2k+1))
    return 2 * k + 8


@_timed
def theorem_b_certify(k: int, q: Union[Enclosure, str] = "interval",
                      depth: Optional[int] = None) -> Certificate:
    """Certify the order-k pinned interval for exactly three expansions.

    For k >= 10 the band is two-sided with radius root_k^(-2k-6); for
    k = 9 only the right half is claimed (the signed-digit family's
    thickness bound needs bases above the order-9 root), with the same
    radius value root_9^(-24).

    Closed-form checks (interleaving at the root, drift bounds, family
    thickness floors) are evaluated over the whole band in interval
    mode.  With a concrete ``q`` the set descriptions of the gap-lemma
    run are read at that base.  Neither is materialized.  The signed-digit
    cover is read from one cylinder tree (constructions._cover_near): its
    thickness in the closed form cover_thickness, and its gaps along the
    search paths of three probes (the run-limited family's hull ends,
    mapped into the cover's coordinates, and the located point's
    preimage).  Where a premise of the closed form, or a node on those
    paths, cannot be certified, the run raises PrecisionError.  Of the
    run-limited family only the gaps on the search paths of three probes
    (the cover's hull ends, mapped into its coordinates, and the located
    point) are built; its thickness is the closed form sk_thickness.  So
    each interleaving containment reads one family's gaps at the other's
    hull ends, and neither family is moved.
    The branch count of the located three-expansion point always runs at
    the band center -- the one base where that point is exactly
    representable; elsewhere the claim rides the drift and gap-lemma
    checks.

    ``depth`` overrides the index depth of the run-limited gap family
    (default 12 index digits); a depth whose whole family exceeds the
    enumeration budget is refused with ResourceError, as gaps_of_Sk
    refuses it.
    """
    if k < 9:
        raise ValueError(f"k must be >= 9, got {k}")
    claim = "pinned-interval-three"
    root = bonacci_root(k).value
    rho = _three_radius(root, k)
    one_sided = k == 9
    interval_mode = _interval_mode(q)
    checks: list[Check] = []
    if interval_mode:
        q_eval = root
        lo = root.lo if one_sided else root.lo - rho.hi
        q_span = Enclosure.from_endpoints(lo, root.hi + rho.hi)
        dq_bound = rho
    else:
        q_eval = as_enclosure(q)
        q_span = q_eval
        dq_bound = abs(q_eval - root)
        if one_sided and q_eval.le(root) is True:
            return _not_met(claim, {"k": k}, [check_flag(
                "base_strictly_above_root", False,
                note="the order-9 band is one-sided: bases at or below "
                     "the root are not claimed")],
                q=_float_pair(q_eval), center=_float_pair(root))
        if one_sided:
            checks.append(check_gt(
                "base_strictly_above_root", q_eval, root,
                note="one-sided band: the signed-digit thickness floor "
                     "needs bases above the order-9 root"))
            pin = check_le(
                "offset_within_radius", q_eval - root, rho,
                note="0 < q - root_9 <= root_9^(-24)")
        else:
            pin = check_le(
                "pinning_within_radius", dq_bound, rho,
                note="|q - root_k| <= root_k^(-2k-6)")
        if refusal := _pinning(claim, {"k": k}, checks, pin, q_eval, root, rho):
            return refusal

    # four explicit common points at the root, interleaved with margin
    ws = witness_points(k)
    checks.append(check_flag(
        "witness_construction_certified", ws.certificate.certified,
        note="four explicit points of both families at the root, with "
             "closed-form values and separations"))
    margin = _interleaving_margin(root, k)
    imgs = [p.image for p in ws.points]
    stagger = strongly_interleaved(imgs[0], imgs[2], imgs[1], imgs[3], margin)
    _merge(checks, stagger.checks, "interleaving_")

    # moving both families from the root to any base in the band shifts
    # them by less than the interleaving margin: per-sequence projection
    # drift is uniform over digit sequences
    recip = 1 / ((q_span - 1) * (root - 1))
    checks.append(check_lt(
        "s_family_drift_within_margin", dq_bound * recip, margin,
        note="uniform projection drift |dq| / ((q-1)(root-1)) over the "
             "run-limited family"))
    a_drift = root ** (-3 * k - 4) / (root - 1) + dq_bound * recip
    checks.append(check_lt(
        "a_family_drift_within_margin", a_drift, margin,
        note="spines at nearby bases share their first 2k+4 digits, so "
             "the drift is a shared-prefix tail bound plus projection "
             "drift"))

    # thickness floors for both families
    sk = sk_thickness(q_span, k - 1, 3 * k)
    checks.append(check_gt(
        "s_family_thickness_exceeds_power", sk.tau, q_span ** (k - 4)))
    cover_depth = _b_cover_depth(k)
    spine = fixed_expansion_of_one(q_eval, k, cover_depth)
    if not spine.certificate.certified:
        raise PrecisionError(
            f"cannot certify the order-{k} spine's value at depth "
            f"{cover_depth}; raise the working precision (--precision)")

    # gap-lemma run with neither family moved: A is the cover placed by
    # x -> g(x) - 1, and interleaving, membership and thickness are affine
    # invariant, so each family is read in its own coordinates and A keeps
    # the cover's tau.  The located intersection point y is the second
    # witness image (exact at the root, within the drift bounds
    # elsewhere), so g^-1(y) is the value of the witness seq.
    gap_depth = _GAP_DEPTH if depth is None else depth
    gmap = GMap(q_eval, k)
    shift = gmap.offset - 1
    q_k = q_eval ** k
    anchor = ws.points[1]
    y_val = pi_q(anchor.image_seq, q_eval)
    a_point = pi_q(anchor.seq, q_eval)
    # interleaving asks whether either hull lies in a gap of the other,
    # membership whether the located point does; so each family is read
    # on the search paths of the other's hull ends, mapped into its
    # coordinates, and of the located point.  S's hull [0, 1/(q-1)] maps
    # by x -> q^k (x - shift) without building S.
    s_hull_in_a = tuple(q_k * h - shift * q_k
                        for h in (Enclosure(0), 1 / (q_eval - 1)))
    cover, a_tau = _cover_near(spine, cover_depth, s_hull_in_a + (a_point,))
    a_note = ("cover evidence at the evaluation base; the floor holds for "
              "bases above the order-9 root")
    checks.append(check_gt(
        "a_family_thickness_exceeds_inverse_power", a_tau.tau,
        q_eval ** (-5), note=a_note))
    checks.append(check_ge(
        "thickness_product_at_least_one", sk.tau * a_tau.tau,
        as_enclosure(1)))

    a_hull_in_s = tuple(gmap.scale * h + shift
                        for h in (cover.hull_lo, cover.hull_hi))
    gs_s = _sk_gaps_near(q_eval, k - 1, gap_depth, a_hull_in_s + (y_val - 1,))
    inter = (_contained_in_complement(*s_hull_in_a, cover) is False
             and _contained_in_complement(*a_hull_in_s, gs_s) is False)
    _merge(checks, _gap_lemma_checks(
        inter, sk_thickness(q_eval, k - 1, gap_depth), a_tau), "newhouse_")
    in_s = gs_s.point_in(y_val - 1)
    in_a = cover.point_in(a_point)
    # three-valued and: one certified miss decides, else undecided unless
    # both are certified
    located_flag = False if False in (in_s, in_a) else in_s and in_a
    checks.append(check_flag(
        "intersection_point_in_both_descriptions", located_flag,
        note="membership in the outer finite-depth descriptions"))

    # the three-expansion point is the switch-region preimage of the
    # intersection point: digit 1 leads into the run-limited family (one
    # branch), digit 0 leads to the intersection point (two branches).
    # The branch count runs at the band center, the one base where the
    # located point is exactly representable; away from the center the
    # claim rides the drift and gap-lemma checks, and a count of the
    # transported point would measure a different point than the moving
    # intersection.
    x_seq = SymbolicSeq((0,) + anchor.image_seq.preperiod.digits,
                        anchor.image_seq.period)
    x_val = pi_q(x_seq, root)
    count = certify_m_expansions(root, x_val, 3, depth=_COUNT_DEPTH)
    for c in count.checks:
        checks.append(replace(
            c, name="count_" + c.name,
            note=(c.note + "; " if c.note else "")
                 + "instantiated at the band center"))

    params = {
        "k": k,
        "mode": "interval" if interval_mode else "point",
        "center": _float_pair(root),
        "radius": _float_pair(rho),
        "radius_side": "right" if one_sided else "both",
        "intersection_point": _float_pair(y_val),
        "three_expansion_point": _float_pair(x_val),
        "count_base": "band-center",
        "gap_depth": gap_depth,
        "cover_depth": cover_depth,
        "verdict": VERDICT_COMPLETE,
    }
    if not interval_mode:
        params["q"] = _float_pair(q_eval)
    return Certificate(
        claim, params, checks,
        evidence_depth=max(gap_depth, cover_depth, _COUNT_DEPTH, 3 * k),
        grade=GRADE_EVIDENCE)


# ======================================================================
# reference-table reproduction
# ======================================================================

#: published reference rows for the main pipeline: (m, order threshold,
#: root digits, band radius, dimension lower bound)
TABLE_MAIN_REFERENCE = (
    (1, 31, "1.999999999534342", "1.26218e-29", "0.999967173"),
    (2, 32, "1.999999999767168", "3.67342e-40", "0.999983586"),
    (3, 32, "1.999999999767168", "8.55285e-50", "0.999979240"),
    (4, 32, "1.999999999767168", "1.99136e-59", "0.999974848"),
    (5, 33, "1.999999999883594", "3.62227e-71", "0.999985209"),
)

#: published reference rows for the three-expansions pipeline:
#: (k, root digits, band radius -- one-sided length at k = 9)
TABLE_THREE_REFERENCE = (
    (9, "1.99802947026229", "6.10316e-8"),
    (10, "1.99901863271010", "1.50925e-8"),
    (11, "1.99951040197829", "3.75092e-9"),
    (12, "1.99975550093732", "9.34745e-10"),
    (13, "1.99987783271155", "2.33286e-10"),
)

#: the smallest reference radius is ~2^-234 of the unit-scale roots;
#: requiring the working mantissa to cover that whole dynamic range with
#: a guard band pins the floor at 255 bits.
TABLE_PRECISION_FLOOR = 255


@dataclass(frozen=True)
class ColumnReport:
    """One compared cell: the computed value rendered at the reference's
    printed precision, next to the reference digits."""
    column: str
    computed: str
    reference: str
    matched: bool


@dataclass(frozen=True)
class RowReport:
    table: int
    label: str
    entries: tuple[ColumnReport, ...]

    @property
    def matched(self) -> bool:
        return all(e.matched for e in self.entries)

    def to_json_dict(self) -> dict:
        return {
            "table": self.table,
            "label": self.label,
            "entries": [e.__dict__ for e in self.entries],
            "matched": self.matched,
        }


@dataclass(frozen=True)
class TablesReport:
    rows: tuple[RowReport, ...]
    precision_bits: int

    @property
    def rows_matched(self) -> int:
        return sum(1 for r in self.rows if r.matched)

    @property
    def all_matched(self) -> bool:
        return all(r.matched for r in self.rows)

    def to_json_dict(self) -> dict:
        return {
            "rows": [r.to_json_dict() for r in self.rows],
            "rows_matched": self.rows_matched,
            "rows_total": len(self.rows),
            "all_matched": self.all_matched,
            "precision_bits": self.precision_bits,
        }


def _reference_band(printed: str, round_or_truncate: bool = False
                    ) -> tuple[Fraction, Fraction]:
    """Acceptance window around a printed value.

    Plain printed values are taken as correctly rounded: the window is
    +/- half an ulp of the last printed digit.  With round_or_truncate
    set (values published with a trailing ellipsis, so the display
    convention is unstated) the window extends a full ulp upward to admit
    a truncated rendering as well.
    """
    d = Decimal(printed)
    value = Fraction(d)
    ulp = Fraction(10) ** d.as_tuple().exponent
    hi = value + (ulp if round_or_truncate else ulp / 2)
    return value - ulp / 2, hi


def _match(e: Enclosure, band: tuple[Fraction, Fraction], what: str) -> bool:
    lo, hi = band
    if lo <= e.lo and e.hi <= hi:
        return True
    if e.hi < lo or e.lo > hi:
        return False
    raise PrecisionError(
        f"enclosure for {what} straddles the acceptance window; "
        "rerun at higher precision")


def _render_like(printed: str, value: Fraction) -> str:
    """Render ``value`` with the same last-place precision and notation
    as the printed reference string (round half to even, exactly)."""
    exp = Decimal(printed).as_tuple().exponent
    scaled = value / Fraction(10) ** exp
    n, d = scaled.numerator, scaled.denominator
    quo, rem = divmod(n, d)
    if 2 * rem > d or (2 * rem == d and quo % 2):
        quo += 1
    out = str(Decimal(quo).scaleb(exp))
    return out.lower() if "e" in printed.lower() else out


def reproduce_tables() -> TablesReport:
    """Recompute both reference tables and flag every column.

    Requires at least ``TABLE_PRECISION_FLOOR`` working bits so the
    smallest radii are resolved within the same certificate scale as the
    roots; raises PrecisionError below that.
    """
    bits = get_precision()
    if bits < TABLE_PRECISION_FLOOR:
        raise PrecisionError(
            f"reproducing the reference radii (down to ~1e-71) needs at "
            f"least {TABLE_PRECISION_FLOOR} bits, current precision is "
            f"{bits}")

    rows: list[RowReport] = []
    for m, k_ref, root_ref, radius_ref, dim_ref in TABLE_MAIN_REFERENCE:
        k = k_threshold(m)
        root = bonacci_root(k).value
        radius = _pinned_radius(root, m, k)
        dim = dim_lower_bound(m, root, k)
        entries = (
            ColumnReport("threshold", str(k), str(k_ref), k == k_ref),
            ColumnReport("root", _render_like(root_ref, root.mid), root_ref,
                         _match(root, _reference_band(root_ref),
                                f"root of order {k}")),
            ColumnReport("radius", _render_like(radius_ref, radius.mid),
                         radius_ref,
                         _match(radius, _reference_band(radius_ref),
                                f"radius at m={m}")),
            ColumnReport("dim", _render_like(dim_ref, dim.mid), dim_ref,
                         _match(dim, _reference_band(dim_ref,
                                                     round_or_truncate=True),
                                f"dimension bound at m={m}")),
        )
        rows.append(RowReport(table=1, label=f"m={m}", entries=entries))

    for k, root_ref, radius_ref in TABLE_THREE_REFERENCE:
        root = bonacci_root(k).value
        radius = _three_radius(root, k)
        entries = (
            ColumnReport("root", _render_like(root_ref, root.mid), root_ref,
                         _match(root, _reference_band(root_ref),
                                f"root of order {k}")),
            ColumnReport("radius", _render_like(radius_ref, radius.mid),
                         radius_ref,
                         _match(radius, _reference_band(radius_ref),
                                f"radius at k={k}")),
        )
        rows.append(RowReport(table=2, label=f"k={k}", entries=entries))

    return TablesReport(rows=tuple(rows), precision_bits=bits)
