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

import logging
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from .certificate import (
    GRADE_EVIDENCE,
    GRADE_PROVED,
    STATUS_CERTIFIED,
    Certificate,
    Check,
    check_consistent,
    check_flag,
    check_ge,
    check_gt,
    check_le,
    check_lt,
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
from .thickness import GapSet, affine_image, gapset_from_intervals, thickness

__all__ = [
    "AqDescription",
    "EpsilonQ",
    "GMap",
    "PQAnchors",
    "PQFamily",
    "W2_BLOCKS",
    "WitnessPoint",
    "WitnessSet",
    "aq_gapset",
    "build_pq_family",
    "contraction_block",
    "epsilon_q",
    "fixed_expansion_of_one",
    "g_apply",
    "g_apply_symbolic",
    "pq_certificate",
    "pq_hull_data",
    "witness_points",
]

log = logging.getLogger(__name__)


def contraction_block(k: int) -> Word:
    """The digit block 1^{k-1} 0 whose prefix map is the contraction g."""
    return Word.ones(k - 1) + Word.zeros(1)


# ======================================================================
# epsilon: how far the base sits from the order-k root, measured through
# the value of the periodic block (1^{k-1} 0)^inf
# ======================================================================

@dataclass(frozen=True)
class EpsilonQ:
    """value = 1 - pi_q((1^{k-1}0)^inf).

    Zero exactly at the order-k root; negative below it, positive above.
    ``bounds`` carries the pinning-band bound checks when a band index m
    was supplied.
    """
    q: Enclosure
    k: int
    value: Enclosure
    bounds: Optional[Certificate] = None

    @property
    def sign(self) -> Optional[int]:
        if self.value.lo > 0:
            return 1
        if self.value.hi < 0:
            return -1
        if self.value.lo == self.value.hi:
            return 0
        return None


def epsilon_q(q, k: int, m: Optional[int] = None) -> EpsilonQ:
    """Signed distance of 1 from the value of the k-cycle (1^{k-1}0)^inf.

    With ``m`` given, additionally evaluates the pinning-band estimate:
    when |q - root_k| < root_k^(-(m+2)k-3) is certified, the checks

        -root_k^(-(m+1)k+1)  <  value  <  root_k^(-(m+2)k+1)

    are recorded in ``bounds``; if the pinning radius itself cannot be
    certified, only that (failed or undecided) premise check is recorded.
    """
    q = _require_base(q)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    value = 1 - pi_q(SymbolicSeq.periodic(contraction_block(k)), q)
    bounds: Optional[Certificate] = None
    if m is not None:
        if m < 0:
            raise ValueError(f"m must be >= 0, got {m}")
        root = bonacci_root(k).value
        premise = check_le(
            "pinning_radius",
            abs(q - root),
            root ** (-(m + 2) * k - 3),
            note="|q - root_k| < root_k^(-(m+2)k-3)",
        )
        checks = [premise]
        if premise.status == STATUS_CERTIFIED:
            checks.append(check_gt(
                "above_lower_bound", value, -(root ** (-(m + 1) * k + 1))))
            checks.append(check_lt(
                "below_upper_bound", value, root ** (-(m + 2) * k + 1)))
        bounds = Certificate(
            claim="epsilon-band",
            params={"k": k, "m": m},
            checks=checks,
            grade=GRADE_PROVED,
        )
    return EpsilonQ(q=q, k=k, value=value, bounds=bounds)


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


def g_apply(gmap: GMap, x, iterations: int = 1) -> Enclosure:
    """g^i(x) through the fixed point: fp + q^{-k i} (x - fp).

    This form keeps the enclosure tight for large iteration counts (the
    naive i-fold composition compounds rounding of the offset term).
    """
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    x = as_enclosure(x)
    shrink = gmap.q ** (-gmap.k * iterations)
    return gmap.fixed_point + shrink * (x - gmap.fixed_point)


def g_apply_symbolic(gmap: GMap, seq, iterations: int = 1) -> SymbolicSeq:
    """The sequence route: prefix ``iterations`` copies of 1^{k-1}0."""
    if iterations < 1:
        raise ValueError(f"iterations must be >= 1, got {iterations}")
    if not isinstance(seq, SymbolicSeq):
        seq = SymbolicSeq.finite(seq)
    block = contraction_block(gmap.k) * iterations
    return SymbolicSeq.eventually(block + seq.preperiod, seq.period)


# ======================================================================
# the truncated families P_0..P_m and Q_m
# ======================================================================

@dataclass(frozen=True)
class PQAnchors:
    """Closed-form hull data for the truncated families (no enumeration).

    ``left_P[i]`` / ``right_P[i]`` are the attained extremes of the i-th
    left family, ``left_Q`` / ``right_Q`` of the right family; ``D`` is the
    common hull diameter, ``B`` the intersection band of all the hulls and
    ``beta`` = min(1/4, |B| / D).
    """
    q: Enclosure
    k: int
    m: int
    fixed_point: Enclosure
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
    D = q ** (-k * m) * pi_q(cut_left_tail, q)
    left_P = tuple(fp + q ** (-k * i) * eps.value for i in range(m + 1))
    right_P = tuple(lp + D for lp in left_P)
    right_Q = fp + q ** (-k * m) / (q ** k - 1)
    left_Q = right_Q - D
    B_left = enc_max(left_Q, *left_P)
    B_right = enc_min(right_Q, *right_P)
    B_width = B_right - B_left
    beta = enc_min(as_enclosure(Fraction(1, 4)), B_width / D)
    return PQAnchors(q=q, k=k, m=m, fixed_point=fp, epsilon=eps,
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
    complement_route = q ** (-k * m) * (
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
        scale = q ** (-k * i)
        # g^i(x + 1) = fp + q^{-ki} (x + 1 - fp)
        P.append(affine_image(kept, scale, fp + scale * (1 - fp)))
    hcut = _gap_with_label(base, "1" * (k - 3))
    kept_q = base.restrict(lo=hcut.right)
    scale_m = q ** (-k * m)
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

    Preconditions (both certified, else ValueError): k >= 9 and
    |q - root_k| <= root_k^(-2k-6).  After the forced prefix 1^k 0^{k+4}
    the remainder of 1 is certified to lie in the invariant band
    [-q/(q^2-1), q/(q^2-1)], and each further two-digit block is the first
    of W2_BLOCKS whose forward image is certified to stay in the band
    (PrecisionError when none can be certified — retry with more bits).
    """
    q = _require_base(q)
    if k < 9:
        raise ValueError(f"k must be >= 9, got {k}")
    prefix_len = 2 * k + 4
    if depth < prefix_len:
        raise ValueError(
            f"depth must cover the forced prefix of length {prefix_len}")
    root = bonacci_root(k).value
    pin = check_le("pinning_radius", abs(q - root), root ** (-2 * k - 6),
                   note="|q - root_k| <= root_k^(-2k-6)")
    if pin.status != STATUS_CERTIFIED:
        raise ValueError(
            "q is not certifiably within root_k^(-2k-6) of the order-k root")

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


def aq_gapset(desc: AqDescription, depth: int, budget: int = 1 << 14,
              check: bool = True) -> GapSet:
    """Outer cylinder cover of the signed-digit family's projection.

    Enumerates all 2^(free zeros <= depth) admissible prefixes, projects
    each cylinder to [value, value + q^{-depth}/(q-1)], and merges them
    into a gap description.  With ``check`` set, the cover's thickness is
    compared against q^{-5} and a warning is logged if that bound cannot
    be certified at this depth.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    if depth > desc.depth:
        raise ValueError(
            f"depth {depth} exceeds the spine's computed depth {desc.depth}")
    q = desc.q
    free = [j for j in desc.J_free if j <= depth]
    count = 1 << len(free)
    if count > budget:
        raise ResourceError(
            f"cover needs {count} cylinders at depth {depth}, over the "
            f"budget of {budget}")
    # 1 on the spine's 1s and rank-1 zeros; 0 on its -1s, its rank-3 zeros
    # and (for the base value) the free zeros
    fixed1 = set(desc.J_fixed1)
    base_value = pi_q(Word(tuple(
        int(cj == 1 or (cj == 0 and j in fixed1))
        for j, cj in enumerate(desc.c.digits[:depth], start=1))), q)
    powers = [q ** (-j) for j in free]
    tail_band = q ** (-depth) / (q - 1)
    # by doubling: values[bits] adds powers[i] for each set bit i of bits,
    # lowest first
    values = [base_value]
    for p in powers:
        values += [v + p for v in values]
    pieces = [(v, v + tail_band) for v in values]
    hull_lo = enc_min(*values)
    hull_hi = enc_max(*(p[1] for p in pieces))
    cover = gapset_from_intervals(hull_lo, hull_hi, pieces, depth=depth)
    if check:
        tau = thickness(cover)
        bound = q ** (-5)
        if tau.tau is not None and tau.tau.ge(bound) is not True:
            log.warning(
                "cover thickness at depth %d not certifiably >= q^-5 "
                "(tau in %s)", depth, tau.tau)
    return cover


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
        2 * q ** (-2 * k - 4),
        note="feeds the four-point strong-interleaving bound"))

    cert = Certificate(
        claim="interleaving-witnesses",
        params={"k": k},
        checks=checks,
        grade=GRADE_PROVED,
    )
    return WitnessSet(k=k, q=q, points=tuple(points),
                      min_image_separation=min_sep, certificate=cert)
