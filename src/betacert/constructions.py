"""Certified constructions of the interacting Cantor families.

Everything here lives inside the attractor [0, 1/(q-1)] of the base-q digit
maps.  Two families are built:

* the truncated, rescaled run-limited families ``P_0 .. P_m`` and ``Q_m``
  built from the order-(k-1) gap description: their convex hulls overlap in
  a band ``B`` whose size relative to the common hull diameter ``D`` is the
  quantity ``beta`` that the dimension certificates need bounded below;

* the signed-digit family described by :class:`AqDescription`: a rigid
  "spine" sequence c with value exactly 1, whose zero positions alternate
  between free and forced digits.  Its projection meets both the
  unique-expansion set and the +1 translate of that set, and four explicit
  witness points pin down how its image interleaves with the run-limited
  family.

All endpoint formulas used here are the closed forms for the *attained*
extremes of the constructed sets (gap endpoints of the run-limited
language), so identities such as the common diameter hold exactly, not just
up to the width of a discarded gap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certificate import (
    GRADE_EVIDENCE,
    GRADE_PROVED,
    STATUS_CERTIFIED,
    STATUS_FAILED,
    Certificate,
    Check,
    check_consistent,
    check_flag,
    check_ge,
    check_gt,
    check_le,
    _float_pair,
)
from .expansions import _require_base
from .realnum import (
    Enclosure,
    PrecisionError,
    as_enclosure,
    bonacci_root,
    enc_max,
    enc_min,
    membership,
    pi_q,
)
from .symbolic import ResourceError, SubshiftSk, SymbolicSeq, Word, gaps_of_Sk
from .thickness import (
    Gap,
    GapSet,
    ThicknessValue,
    _probe_sides,
    affine_image,
    gapset_from_intervals,
)

__all__ = [
    "AqDescription",
    "EpsilonQ",
    "GMap",
    "PQAnchors",
    "PQFamily",
    "WitnessPoint",
    "WitnessSet",
    "aq_gapset",
    "build_pq_family",
    "fixed_expansion_of_one",
    "pq_certificate",
    "pq_hull_data",
    "witness_points",
]


def contraction_block(k: int) -> Word:
    """The digit block 1^{k-1} 0 whose prefix map is the contraction g."""
    return Word.ones(k - 1) + Word.zeros(1)


def _pinned_radius(root: Enclosure, m: int, k: int) -> Enclosure:
    """root_k^(-(m+2)k-3), the radius of the band with m+2 expansions."""
    return root ** (-(m + 2) * k - 3)


def _three_radius(root: Enclosure, k: int) -> Enclosure:
    """root_k^(-2k-6), the radius of the band with three expansions."""
    return root ** (-2 * k - 6)


def _interleaving_margin(root: Enclosure, k: int) -> Enclosure:
    """root_k^(-2k-4), the margin of the witness images' interleaving."""
    return root ** (-2 * k - 4)


# ======================================================================
# epsilon: how far the base sits from the order-k root, measured through
# the value of the periodic block (1^{k-1} 0)^inf
# ======================================================================

@dataclass(frozen=True)
class EpsilonQ:
    """value = 1 - pi_q((1^{k-1}0)^inf).

    Zero exactly at the order-k root; negative below it, positive above.
    """
    q: Enclosure
    k: int
    value: Enclosure

    @property
    def sign(self) -> Optional[int]:
        above, below = self.value.ge(0), self.value.le(0)
        if below is False:
            return 1
        if above is False:
            return -1
        return 0 if above and below else None


# ======================================================================
# the contraction g and its action on values and on digit sequences
# ======================================================================

@dataclass(frozen=True)
class GMap:
    """Affine contraction x -> q^{-k} x + pi_q(1^{k-1} 0^inf).

    On digit sequences this is prefixing by the block 1^{k-1}0; its unique
    fixed point is the value of the periodic sequence (1^{k-1}0)^inf.
    """
    q: Enclosure
    k: int
    scale: Enclosure = field(init=False, repr=False, compare=False)
    offset: Enclosure = field(init=False, repr=False, compare=False)
    fixed_point: Enclosure = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        q = _require_base(self.q)
        if self.k < 2:
            raise ValueError(f"k must be >= 2, got {self.k}")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "scale", q ** (-self.k))
        object.__setattr__(self, "offset", pi_q(Word.ones(self.k - 1), q))
        fp = pi_q(SymbolicSeq.periodic(contraction_block(self.k)), q)
        object.__setattr__(self, "fixed_point", fp)
        if not (self.scale * fp + self.offset).intersects(fp):
            raise PrecisionError(
                "affine form and fixed-point value disagree beyond enclosure "
                "width; computed enclosures are inconsistent")


def g_apply(gmap: GMap, x) -> Enclosure:
    """g(x) through the fixed point: fp + q^{-k} (x - fp)."""
    x = as_enclosure(x)
    return gmap.fixed_point + gmap.scale * (x - gmap.fixed_point)


def g_apply_symbolic(gmap: GMap, seq) -> SymbolicSeq:
    """The sequence route: prefix one copy of 1^{k-1}0."""
    if not isinstance(seq, SymbolicSeq):
        seq = SymbolicSeq.finite(seq)
    return SymbolicSeq.eventually(contraction_block(gmap.k) + seq.preperiod, seq.period)


# ======================================================================
# the truncated families P_0..P_m and Q_m
# ======================================================================

@dataclass(frozen=True)
class PQAnchors:
    """Closed-form hull data for the truncated families (no enumeration).

    ``scales[i]`` = q^(-ki) is the scale factor of g^i for i = 0..m;
    ``left_P[i]`` / ``right_P[i]`` are the attained extremes of the i-th
    left family, ``left_Q`` / ``right_Q`` of the right family; ``D`` is the
    common hull diameter, ``B`` the intersection band of all the hulls and
    ``beta`` = min(1/4, |B| / D).
    """
    q: Enclosure
    k: int
    m: int
    fixed_point: Enclosure
    scales: tuple[Enclosure, ...]
    epsilon: EpsilonQ
    left_P: tuple[Enclosure, ...]
    right_P: tuple[Enclosure, ...]
    left_Q: Enclosure
    right_Q: Enclosure
    D: Enclosure
    B_left: Enclosure
    B_right: Enclosure
    B_width: Enclosure
    beta: Enclosure


def _pq_validate(q, k: int, m: int) -> Enclosure:
    q = _require_base(q)
    if k < 5:
        raise ValueError(
            f"k must be >= 5 (the order-(k-1) thickness bound needs order >= 4), got {k}")
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    root_prev = bonacci_root(k - 1).value
    if q.gt(root_prev) is not True:
        raise ValueError(
            "q must certifiably exceed the order-(k-1) root for the gap "
            "description to be valid")
    return q


def pq_hull_data(q, k: int, m: int) -> PQAnchors:
    """Endpoints, overlap band and beta for the truncated families.

    Everything is a closed form in q, so this scales to large k where the
    materialized gap description (see build_pq_family) is out of reach.
    """
    q = _pq_validate(q, k, m)
    fp = pi_q(SymbolicSeq.periodic(contraction_block(k)), q)
    eps = EpsilonQ(q=q, k=k, value=1 - fp)
    # the cut gap's left endpoint: value of 0^{k-3} (0 1^{k-2})^inf; one
    # overall factor q^{-km} turns it into the common hull diameter
    cut_left_tail = SymbolicSeq.eventually(
        Word.zeros(k - 3), Word.zeros(1) + Word.ones(k - 2))
    scales = tuple(q ** (-k * i) for i in range(m + 1))
    D = scales[m] * pi_q(cut_left_tail, q)
    left_P = tuple(fp + s * eps.value for s in scales)
    right_P = tuple(lp + D for lp in left_P)
    right_Q = fp + scales[m] / (q ** k - 1)
    left_Q = right_Q - D
    B_left = enc_max(left_Q, *left_P)
    B_right = enc_min(right_Q, *right_P)
    B_width = B_right - B_left
    beta = enc_min(as_enclosure(Fraction(1, 4)), B_width / D)
    return PQAnchors(q=q, k=k, m=m, fixed_point=fp, scales=scales, epsilon=eps,
                     left_P=left_P, right_P=right_P,
                     left_Q=left_Q, right_Q=right_Q, D=D,
                     B_left=B_left, B_right=B_right, B_width=B_width,
                     beta=beta)


def pq_certificate(anchors: PQAnchors) -> Certificate:
    """Layout and overlap checks for the truncated families.

    The check set certifies, from closed forms alone:

    * the right family's hull starts left of every left-family hull (with
      a common diameter this also orders all the right ends the same way),
    * the left-family hulls are strictly ordered by the certified sign of
      epsilon (ascending below the order-k root, descending above it;
      indistinguishable when the base enclosure contains the root),
    * the common-diameter identity through the digit-complement route,
    * all hulls overlap in a band of positive width, and
    * beta exceeds 1/8.
    """
    a = anchors
    q, k, m = a.q, a.k, a.m
    checks: list[Check] = []
    checks.append(check_gt(
        "q_hull_left_of_p_hulls", enc_min(*a.left_P), a.left_Q,
        note="common diameter makes the right-end ordering identical"))
    sign = a.epsilon.sign
    if sign is not None and sign < 0:
        steps = [a.left_P[i + 1] - a.left_P[i] for i in range(m)]
        checks.append(check_gt(
            "p_left_ends_ascending", enc_min(*steps), as_enclosure(0),
            note="base certifiably below the order-k root"))
    elif sign is not None and sign > 0:
        steps = [a.left_P[i] - a.left_P[i + 1] for i in range(m)]
        checks.append(check_gt(
            "p_left_ends_descending", enc_min(*steps), as_enclosure(0),
            note="base certifiably above the order-k root"))
    else:
        coincide = all(a.left_P[i].intersects(a.left_P[0])
                       for i in range(1, m + 1))
        checks.append(check_flag(
            "p_left_ends_indistinguishable", True if coincide else False,
            note="base enclosure contains the order-k root; the left ends "
                 "coincide within enclosure width"))
    complement_route = a.scales[m] * (
        1 / (q - 1)
        - pi_q(SymbolicSeq.eventually(Word.ones(k - 3),
                                      Word.ones(1) + Word.zeros(k - 2)), q))
    checks.append(check_consistent(
        "common_diameter_complement_route", a.D, complement_route,
        note="1^inf minus the right cut tail is the left cut tail, digitwise"))
    checks.append(check_gt("hulls_overlap", a.B_width, as_enclosure(0)))
    checks.append(check_gt(
        "relative_overlap_exceeds_one_eighth", a.beta,
        as_enclosure(Fraction(1, 8))))
    return Certificate(
        claim="pq-hull-layout",
        params={"k": k, "m": m, "q": _float_pair(q)},
        checks=checks,
        grade=GRADE_PROVED,
    )


@dataclass(frozen=True)
class PQFamily:
    """Materialized truncated families, cross-checked against closed forms."""
    q: Enclosure
    k: int
    m: int
    depth: int
    P: tuple[GapSet, ...]
    Q: GapSet
    D: Enclosure
    B: tuple[Enclosure, Enclosure]
    beta: Enclosure
    anchors: PQAnchors
    certificate: Certificate


def _gap_with_label(gs: GapSet, label: str):
    for g in gs.gaps:
        if g.label == label:
            return g
    raise ValueError(f"no gap labelled {label!r} in this description "
                     f"(depth {gs.depth})")


def build_pq_family(q, k: int, m: int, depth: Optional[int] = None) -> PQFamily:
    """Materialize P_0..P_m and Q_m as gap descriptions at a given depth.

    Each P_i is the order-(k-1) family cut at the left endpoint of its gap
    indexed 0^{(m-i)k + k-3}, shifted by +1 and contracted i times; Q_m is
    the same family cut at the right endpoint of the gap indexed 1^{k-3}
    and contracted m times.  The i-dependent cut index makes all the hull
    diameters equal.

    The cut gaps must exist in the enumerated description, which requires
    depth >= (m+1)k - 3; gap counts grow exponentially with depth, so this
    constructor is for moderate k (validation against pq_hull_data's closed
    forms).  Certification at large k uses the closed forms directly.
    """
    anchors = pq_hull_data(q, k, m)
    q = anchors.q
    if depth is None:
        depth = 3 * k
    min_depth = (m + 1) * k - 3
    if depth < min_depth:
        raise ValueError(
            f"depth {depth} cannot reach the truncation gap: need at least "
            f"(m+1)k-3 = {min_depth}")
    base = gaps_of_Sk(q, k - 1, depth)
    fp = anchors.fixed_point
    P = []
    for i in range(m + 1):
        cut = _gap_with_label(base, "0" * ((m - i) * k + k - 3))
        kept = base.restrict(hi=cut.left)
        scale = anchors.scales[i]
        # g^i(x + 1) = fp + q^{-ki} (x + 1 - fp)
        P.append(affine_image(kept, scale, fp + scale * (1 - fp)))
    hcut = _gap_with_label(base, "1" * (k - 3))
    kept_q = base.restrict(lo=hcut.right)
    scale_m = anchors.scales[m]
    Q = affine_image(kept_q, scale_m, fp * (1 - scale_m))

    cert = pq_certificate(anchors)
    for i, gs in enumerate(P):
        cert.checks.append(check_consistent(
            f"p{i}_hull_left", gs.hull_lo, anchors.left_P[i]))
        cert.checks.append(check_consistent(
            f"p{i}_hull_right", gs.hull_hi, anchors.right_P[i]))
        cert.checks.append(check_consistent(
            f"p{i}_diameter", gs.hull_hi - gs.hull_lo, anchors.D))
    cert.checks.append(check_consistent("q_hull_left", Q.hull_lo, anchors.left_Q))
    cert.checks.append(check_consistent("q_hull_right", Q.hull_hi, anchors.right_Q))
    cert.checks.append(check_consistent(
        "q_diameter", Q.hull_hi - Q.hull_lo, anchors.D))
    cert.claim = "pq-family"
    cert.params["depth"] = depth
    cert.evidence_depth = depth
    cert.grade = GRADE_EVIDENCE

    return PQFamily(q=q, k=k, m=m, depth=depth, P=tuple(P), Q=Q,
                    D=anchors.D, B=(anchors.B_left, anchors.B_right),
                    beta=anchors.beta, anchors=anchors, certificate=cert)


# ======================================================================
# the signed-digit family with a rigid spine
# ======================================================================

#: two-digit continuation blocks over {-1, 0, 1}, tried in this fixed order
W2_BLOCKS: tuple[tuple[int, int], ...] = (
    (-1, 0), (0, -1), (0, 0), (0, 1), (1, 0))


@dataclass(frozen=True)
class AqDescription:
    """A depth-truncated description of the signed-digit family.

    ``c`` is the spine prefix c_1..c_depth (1-based positions), an initial
    segment of a sequence in 1^k 0^{k+4} W2^N with value exactly 1.  The
    zero positions of c, ranked in increasing order starting from rank 0,
    split into:

    * ``J_free``  (even ranks): the family's binary choices,
    * ``J_fixed1`` (rank = 1 mod 4): digit forced to 1,
    * ``J_fixed0`` (rank = 3 mod 4): digit forced to 0.

    Family members agree with c on its nonzero positions (1 stays 1, -1
    becomes 0), which keeps both the member sequence and its digitwise
    difference from c inside the run-limited binary language.
    """
    q: Enclosure
    k: int
    c: Word
    J_free: tuple[int, ...]
    J_fixed1: tuple[int, ...]
    J_fixed0: tuple[int, ...]
    certificate: Certificate

    @property
    def depth(self) -> int:
        return len(self.c)


def fixed_expansion_of_one(q, k: int, depth: int) -> AqDescription:
    """Compute the spine c to ``depth`` digits and its zero-rank classes.

    Preconditions: k >= 9 and |q - root_k| <= root_k^(-2k-6) (ValueError
    where either fails, PrecisionError where the second is uncertain).
    After the forced prefix 1^k 0^{k+4} the remainder of 1 is certified to
    lie in the invariant band [-q/(q^2-1), q/(q^2-1)], and each further
    two-digit block is the first of W2_BLOCKS whose forward image is
    certified to stay in the band (PrecisionError when none can be
    certified — retry with more bits).
    """
    q = _require_base(q)
    if k < 9:
        raise ValueError(f"k must be >= 9, got {k}")
    prefix_len = 2 * k + 4
    if depth < prefix_len:
        raise ValueError(
            f"depth must cover the forced prefix of length {prefix_len}")
    root = bonacci_root(k).value
    pin = check_le("pinning_radius", abs(q - root), _three_radius(root, k),
                   note="|q - root_k| <= root_k^(-2k-6)")
    if pin.status == STATUS_FAILED:
        raise ValueError("q is not within root_k^(-2k-6) of the order-k root")
    if pin.status != STATUS_CERTIFIED:
        raise PrecisionError(
            "cannot certify q within root_k^(-2k-6) of the order-k root; "
            "raise the working precision (--precision)")

    band_hi = q / (q * q - 1)
    band_lo = -band_hi
    y = as_enclosure(1)
    for _ in range(k):
        y = q * y - 1
    for _ in range(k + 4):
        y = q * y
    start = membership(y, band_lo, band_hi)
    start_check = check_flag(
        "remainder_in_band_after_prefix", start,
        note="value of the suffix after 1^k 0^{k+4} lies in "
             "[-q/(q^2-1), q/(q^2-1)]")
    if start is False:
        raise ValueError(
            "the remainder after the forced prefix is certifiably outside "
            "the invariant band; the pinning hypothesis fails for this q")
    if start is None:
        raise PrecisionError(
            "cannot certify the remainder inside the invariant band; "
            "retry at higher precision")

    digits = [1] * k + [0] * (k + 4)
    steps = 0
    while len(digits) < depth:
        for b1, b2 in W2_BLOCKS:
            cand = q * (q * y) - (q * b1 + b2)
            if membership(cand, band_lo, band_hi) is True:
                digits.extend((b1, b2))
                y = cand
                steps += 1
                break
        else:
            raise PrecisionError(
                f"no continuation block certifiable at spine position "
                f"{len(digits) + 1}; retry at higher precision")
    del digits[depth:]

    zeros = [j for j, d in enumerate(digits, start=1) if d == 0]
    j_free = tuple(z for n, z in enumerate(zeros) if n % 2 == 0)
    j_fixed1 = tuple(z for n, z in enumerate(zeros) if n % 4 == 1)
    j_fixed0 = tuple(z for n, z in enumerate(zeros) if n % 4 == 3)

    word = Word(tuple(digits))
    tail_band = q ** (-depth) / (q - 1)
    value_check = check_le(
        "prefix_value_near_one", abs(1 - pi_q(word, q)), tail_band,
        note="truncation error bounded by the geometric tail")
    cert = Certificate(
        claim="fixed-spine-expansion",
        params={"k": k, "depth": depth,
                "q": _float_pair(q),
                "certified_blocks": steps},
        checks=[pin, start_check, value_check],
        evidence_depth=depth,
        grade=GRADE_EVIDENCE,
    )
    return AqDescription(q=q, k=k, c=word, J_free=j_free,
                         J_fixed1=j_fixed1, J_fixed0=j_fixed0,
                         certificate=cert)


def _cover_tree(desc: AqDescription, depth: int):
    """The cover's cylinder tree: the base value (every free zero 0), the
    powers q^(-j_i) of the free zeros j_i <= depth, where level i of the
    binary tree chooses the digit at j_i, and the tail band
    q^(-depth)/(q-1) that each cylinder adds to its value."""
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > desc.depth:
        raise ValueError(
            f"depth {depth} exceeds the spine's computed depth {desc.depth}")
    q = desc.q
    # 1 on the spine's 1s and rank-1 zeros; 0 on its -1s, its rank-3 zeros
    # and (for the base value) the free zeros
    fixed1 = set(desc.J_fixed1)
    base_value = pi_q(Word(tuple(
        int(cj == 1 or (cj == 0 and j in fixed1))
        for j, cj in enumerate(desc.c.digits[:depth], start=1))), q)
    powers = [q ** (-j) for j in desc.J_free if j <= depth]
    return base_value, powers, q ** (-depth) / (q - 1)


#: the most cylinders aq_gapset enumerates; a deeper cover is refused
COVER_BUDGET = 1 << 14


def aq_gapset(desc: AqDescription, depth: int) -> GapSet:
    """Outer cylinder cover of the signed-digit family's projection.

    Enumerates all 2^(free zeros <= depth) admissible prefixes, projects
    each cylinder to [value, value + q^{-depth}/(q-1)], and merges them
    into a gap description, which this function does not measure.  The
    three-expansions pipeline never builds the whole cover: it reads the
    same gaps along its probes' paths and the thickness in closed form
    (_cover_near).  This function stays as the public way to build the
    whole cover, and as the tests' oracle for that reader.
    """
    base_value, powers, tail_band = _cover_tree(desc, depth)
    count = 1 << len(powers)
    if count > COVER_BUDGET:
        raise ResourceError(
            f"cover needs {count} cylinders at depth {depth}, over the "
            f"budget of {COVER_BUDGET}")
    # by doubling: values[bits] adds powers[i] for each set bit i of bits,
    # lowest first
    values = [base_value]
    for p in powers:
        values += [v + p for v in values]
    pieces = [(v, v + tail_band) for v in values]
    hull_lo = enc_min(*values)
    hull_hi = enc_max(*(p[1] for p in pieces))
    return gapset_from_intervals(hull_lo, hull_hi, pieces, depth=depth)


def cover_thickness(powers, tail_band) -> Optional[tuple[int, Optional[Enclosure]]]:
    """The stepwise thickness of aq_gapset's cover in closed form, from its
    cylinder tree (_cover_tree): the number s of separated levels and tau,
    which is None when s = 0 (the cover is one solid interval); or None
    where the closed form does not apply.

    Every cylinder value is the base value plus a subset of the powers
    p_i = q^(-j_i), so the nodes of one level of the binary tree are
    translates of each other: the cover is a homogeneous Moran set (Feng,
    Wen and Wu, Sci. China Ser. A 40, 1997).  A level-i node spans
    L_i = p_i + ... + p_(n-1) + tail band; its two children span L_(i+1)
    each and start p_i apart, so they leave one gap of width
    w_i = p_i - L_(i+1) if that is positive and merge otherwise.

    Suppose levels 0..s-1 are separated, levels s..n-1 overlap (so a
    level-s node spans a solid interval) and w_0 > ... > w_(s-1).  Then
    the stepwise pass processes the gaps level by level, the gaps or hull
    ends nearest a level-i gap on each side bound its node, both its
    bridges span L_(i+1), and over the 2^s - 1 gaps

        tau = min_(i<s) L_(i+1) / w_i.

    Each of those premises must be certified, else None.
    """
    spans = [tail_band]  # L_n, then L_(n-1), ..., L_0
    for p in reversed(powers):
        spans.append(p + spans[-1])
    spans.reverse()
    apart = [spans[i + 1].lt(p) for i, p in enumerate(powers)]
    s = next((i for i, v in enumerate(apart) if v is not True), len(apart))
    if any(v is not False for v in apart[s:]):
        return None
    widths = [powers[i] - spans[i + 1] for i in range(s)]
    if any(b.lt(a) is not True for a, b in zip(widths, widths[1:])):
        return None
    if s == 0:
        return 0, None
    return s, enc_min(*(spans[i + 1] / w for i, w in enumerate(widths)))


def _cover_near(desc: AqDescription, depth: int,
                probes) -> tuple[GapSet, ThicknessValue]:
    """Read aq_gapset(desc, depth) from one cylinder tree: its gaps on the
    search paths of the probe enclosures, in a GapSet with the cover's hull
    (with ``probes=None``, the whole cover), and its thickness in closed
    form (cover_thickness).

    A node's value v is the base value plus the powers it chose, added
    lowest level first, which is the order of aq_gapset's doubling, so
    every endpoint here is the same enclosure as there.  A level-i node
    has a gap when its left subtree's top (v plus every deeper power, plus
    the tail band) is certifiably below its right child's value v + p_i;
    the hull runs from the base value to the top of the root.  Probes are
    routed at each gap by thickness._probe_sides.

    The closed form's premises must be certified, and every visited node
    must agree with its level (a gap at each of the s separated levels,
    none below them), else PrecisionError: the tau would not measure the
    gaps read.
    """
    base_value, powers, tail_band = _cover_tree(desc, depth)
    closed = cover_thickness(powers, tail_band)
    if closed is None:
        raise PrecisionError(
            f"cannot certify the closed-form thickness of the signed-digit "
            f"cover at depth {depth}; raise the working precision "
            f"(--precision)")
    separated, tau = closed
    n = len(powers)

    def top(v, i):
        # the largest cylinder end below a level-i node of value v
        for p in powers[i:]:
            v = v + p
        return v + tail_band

    gaps: list[Gap] = []

    def descend(v, i, here):
        # here: the probes whose search paths reach this node, None for all
        if i == n:
            return
        right = v + powers[i]
        gap = Gap(left=top(v, i + 1), right=right)
        split = gap.left.lt(right) is True
        if split != (i < separated):
            raise PrecisionError(
                f"a level-{i} node of the signed-digit cover at depth "
                f"{depth} disagrees with the closed form's {separated} "
                f"separated levels; raise the working precision "
                f"(--precision)")
        sides = (here, here)
        if split:
            gaps.append(gap)
            sides = _probe_sides(gap, here)
        for child, live in ((v, sides[0]), (right, sides[1])):
            if live is None or live:
                descend(child, i + 1, live)

    descend(base_value, 0, None if probes is None else tuple(probes))
    return (GapSet(base_value, top(base_value, 0), tuple(gaps), depth=depth),
            ThicknessValue(tau=tau, infinite=tau is None, depth=depth,
                           gap_count=(1 << separated) - 1))


# ======================================================================
# witness points
# ======================================================================

@dataclass(frozen=True)
class WitnessPoint:
    """One of the four interleaving witnesses at the order-k root."""
    label: str
    seq: SymbolicSeq          # 1^k (tail)^inf
    value: Enclosure
    image_seq: SymbolicSeq    # 1^{k-1} 0 1^k (tail)^inf
    image: Enclosure
    shifted_seq: SymbolicSeq  # 0^{2k} (tail)^inf  — expansion of image - 1


@dataclass(frozen=True)
class WitnessSet:
    k: int
    q: Enclosure              # enclosure of the order-k root
    points: tuple[WitnessPoint, ...]
    min_image_separation: Enclosure
    certificate: Certificate


#: repeating tail blocks of the four witnesses, in increasing value order
_WITNESS_TAILS = ("0100", "0110", "1100", "1110")


def witness_points(k: int) -> WitnessSet:
    """The four explicit points 1^k (tail)^inf at the order-k root.

    Returns their values (closed form cross-checked against the projection
    route), their images under the contraction, the digit identity
    image - 1 = value of 0^{2k} (tail)^inf with the shifted sequence
    verified inside the order-(k-1) run-limited language, and the minimum
    pairwise separation of the images, certified at least
    2 root_k^(-2k-4).
    """
    if k < 9:
        raise ValueError(f"k must be >= 9, got {k}")
    q = bonacci_root(k).value
    gmap = GMap(q, k)
    lang = SubshiftSk(k - 1)
    denom = q ** 4 - 1
    q2, q3 = q ** 2, q ** 3
    closed = (q2, q + q2, q2 + q3, q + q2 + q3)

    checks: list[Check] = []
    points = []
    for i, tail in enumerate(_WITNESS_TAILS):
        period = Word.from_str(tail)
        seq = SymbolicSeq.eventually(Word.ones(k), period)
        value = pi_q(seq, q)
        closed_value = 1 + q ** (-k) * closed[i] / denom
        checks.append(check_consistent(
            f"value_closed_form_{tail}", value, closed_value,
            note="projection route vs closed form"))
        image = g_apply(gmap, value)
        image_seq = g_apply_symbolic(gmap, seq)
        checks.append(check_consistent(
            f"image_routes_agree_{tail}", image, pi_q(image_seq, q),
            note="affine route vs prefixed-sequence route"))
        shifted_seq = SymbolicSeq.eventually(Word.zeros(2 * k), period)
        checks.append(check_consistent(
            f"image_minus_one_{tail}", image - 1, pi_q(shifted_seq, q),
            note="the image translated by -1 is the value of "
                 "0^{2k}(tail)^inf"))
        checks.append(check_flag(
            f"shifted_in_run_limited_language_{tail}",
            lang.contains(shifted_seq)))
        points.append(WitnessPoint(label=tail, seq=seq, value=value,
                                   image_seq=image_seq, image=image,
                                   shifted_seq=shifted_seq))

    diffs = [points[i + 1].image - points[i].image for i in range(3)]
    min_sep = enc_min(*diffs)
    checks.append(check_gt(
        "images_strictly_increasing", min_sep, as_enclosure(0)))
    checks.append(check_consistent(
        "min_image_separation_closed_form", min_sep,
        q ** (-2 * k + 1) / denom))
    checks.append(check_ge(
        "image_separation_vs_twice_epsilon", min_sep,
        2 * _interleaving_margin(q, k),
        note="feeds the four-point strong-interleaving bound"))

    cert = Certificate(
        claim="interleaving-witnesses",
        params={"k": k},
        checks=checks,
        grade=GRADE_PROVED,
    )
    return WitnessSet(k=k, q=q, points=tuple(points),
                      min_image_separation=min_sep, certificate=cert)
