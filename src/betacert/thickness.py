"""Gap geometry: finite gap families, Newhouse thickness, interleaving.

A GapSet is a finite outer description of a compact set: a hull interval
minus finitely many certifiably disjoint open gaps.  Everything here is
enclosure arithmetic; a comparison that cannot be certified either fails
closed (predicates) or raises PrecisionError (GapSet validation, whose
certifiably false claims raise MalformedGapSet instead).

Thickness is computed stepwise, in Newhouse's sense: gaps are processed
in decreasing diameter (ties left to right; widths whose enclosures
overlap in the order of their upper ends), and a gap's bridges end at
the nearest gap on each side processed before it, or at the hull.  Both
orders, by position and by diameter, compare exact endpoints with
realnum._cmp, whose cost does not grow with the exponents' spread.  One
nearest-earlier-gap pass each way over the validated position order finds
those ends for every gap; each gap scores its shorter bridge over its
width, and tau is the minimum of the scores.  Both families of the
three-expansions pipeline have a closed form for the same minimum, so
the pipeline measures neither stepwise: sk_thickness for the
base-avoidance families produced by symbolic.gaps_of_Sk, and
constructions.cover_thickness for the signed-digit cover built by
constructions.aq_gapset.  The tests cross-validate both against the
generic routine.  The pipeline reads each family only along the search
paths of a few probes through its tree of gaps, and both walks route
their probes by _probe_sides.

Interleaving reads one set's gaps at the other's hull ends only
(_contained_in_complement), so the pipeline moves neither family.  The
gap lemma's checks are built in one place from an interleaving verdict
and two ThicknessValues, however each tau was obtained: stepwise in
newhouse_certificate, from values already at hand in the pipelines.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key, lru_cache
from typing import Iterable, Optional

from .certificate import (
    Certificate,
    Check,
    check_flag,
    check_ge,
    GRADE_EVIDENCE,
)
from .realnum import (
    Enclosure,
    PrecisionError,
    _cmp,
    as_enclosure,
    bonacci_root,
    enc_max,
    enc_min,
)

__all__ = [
    "Gap",
    "GapSet",
    "MalformedGapSet",
    "ThicknessValue",
    "affine_image",
    "gapset_from_intervals",
    "hausdorff_distance",
    "interleaved",
    "newhouse_certificate",
    "sk_thickness",
    "strongly_interleaved",
    "thickness",
]


class MalformedGapSet(ValueError):
    """The gap data cannot be certified as disjoint open gaps inside the hull."""


@dataclass(frozen=True)
class Gap:
    left: Enclosure
    right: Enclosure
    label: str = ""

    @property
    def width(self) -> Enclosure:
        return self.right - self.left


def _probe_sides(gap: Gap, probes):
    """The probes that search on the left and on the right of ``gap``, in
    a tree whose subtrees lie on either side of it.  A probe goes left
    unless it is certifiably above the gap and right unless it is
    certifiably below it, so a probe the gap cannot separate from either
    side goes both ways and the gaps next to it on either side are
    visited.  ``None`` stands for every point and goes both ways."""
    if probes is None:
        return None, None
    return (tuple(x for x in probes if gap.right.lt(x) is not True),
            tuple(x for x in probes if x.lt(gap.left) is not True))


@dataclass(frozen=True)
class GapSet:
    """Hull interval minus finitely many certified-disjoint open gaps.

    ``gaps`` must already be, or be sortable into, strictly increasing
    position order with certified positive widths and certified separation
    from each other and from the hull endpoints.  ``depth`` is optional
    metadata recording the refinement depth this description was built at;
    it is carried into ThicknessValue so results are always reported as
    finite-depth quantities.
    """

    hull_lo: Enclosure
    hull_hi: Enclosure
    gaps: tuple[Gap, ...]
    depth: Optional[int] = None

    def __post_init__(self):
        _require(self.hull_lo.lt(self.hull_hi), None, "of positive length")
        order = _position_order([(g.left, g.right) for g in self.gaps])
        gaps = tuple(self.gaps[i] for i in order)
        object.__setattr__(self, "gaps", gaps)
        prev_right = None
        for g in gaps:
            _require(g.left.lt(g.right), g.label, "of positive width")
            _require(self.hull_lo.lt(g.left), g.label, "interior to the hull")
            _require(g.right.lt(self.hull_hi), g.label, "interior to the hull")
            if prev_right is not None:
                _require(prev_right.lt(g.left), g.label, "disjoint from its predecessor")
            prev_right = g.right

    def bridges(self) -> list[tuple[Enclosure, Enclosure]]:
        """Closed intervals remaining when the open gaps are removed."""
        out = []
        lo = self.hull_lo
        for g in self.gaps:
            out.append((lo, g.left))
            lo = g.right
        out.append((lo, self.hull_hi))
        return out

    def restrict(self, lo=None, hi=None) -> "GapSet":
        """Truncate to ``[lo, hi]``.  The cut must fall on bridge points:
        a gap that straddles either boundary raises MalformedGapSet."""
        new_lo = self.hull_lo if lo is None else as_enclosure(lo)
        new_hi = self.hull_hi if hi is None else as_enclosure(hi)
        kept = []
        for g in self.gaps:
            inside_lo = new_lo.lt(g.left)
            inside_hi = g.right.lt(new_hi)
            if inside_lo is True and inside_hi is True:
                kept.append(g)
            elif g.right.le(new_lo) is True or new_hi.le(g.left) is True:
                continue
            elif g.left == new_hi or g.right == new_lo:
                # Cut placed exactly on this gap's own endpoint (structural
                # equality of enclosures): the gap sits entirely outside the
                # kept interval, touching it at the cut point.
                continue
            else:
                raise MalformedGapSet(
                    f"gap {g.label!r} straddles a truncation boundary; cut at a bridge point"
                )
        return GapSet(new_lo, new_hi, tuple(kept), depth=self.depth)

    def point_in(self, x) -> Optional[bool]:
        """Tri-valued membership of a point in the described set."""
        x = as_enclosure(x)
        if x.lt(self.hull_lo) is True or self.hull_hi.lt(x) is True:
            return False
        inside_hull = self.hull_lo.le(x) is True and x.le(self.hull_hi) is True
        verdict: Optional[bool] = True if inside_hull else None
        # Validation chains every endpoint strictly upward, so the gaps
        # certifiably left of x (g.right <= x) form a prefix and those
        # certifiably right of it (x <= g.left) a suffix; only the gaps
        # between can hold x or leave it undecided.
        gaps = self.gaps
        start = bisect_left(gaps, True, key=lambda g: g.right.le(x) is not True)
        stop = bisect_left(gaps, True, lo=start, key=lambda g: x.le(g.left) is True)
        for g in gaps[start:stop]:
            if g.left.lt(x) is True and x.lt(g.right) is True:
                return False
            strictly_out = x.le(g.left) is True or g.right.le(x) is True
            if not strictly_out:
                verdict = None
        return verdict


def _require(verdict: Optional[bool], label: Optional[str], claim: str) -> None:
    """Pass a certified claim about the hull (label None) or a gap:
    MalformedGapSet when it is certifiably false, PrecisionError when the
    working precision cannot decide it."""
    if verdict is True:
        return
    subject = "the hull" if label is None else f"gap {label!r}"
    if verdict is False:
        raise MalformedGapSet(f"{subject} is not {claim}")
    raise PrecisionError(f"cannot certify {subject} {claim} at this precision; "
                         "raise the working precision (--precision)")


def _position_order(pairs) -> list[int]:
    """Indices of (left, right) enclosure pairs in exact position order:
    by lower end of left, then lower end of right."""
    ends = [a._ends[:2] + b._ends[:2] for a, b in pairs]

    def cmp(i, j):
        (m, e, n, f), (m2, e2, n2, f2) = ends[i], ends[j]
        return _cmp(m, e, m2, e2) or _cmp(n, f, n2, f2)

    return sorted(range(len(ends)), key=cmp_to_key(cmp))


def gapset_from_intervals(hull_lo, hull_hi, pieces: Iterable[tuple], depth=None) -> GapSet:
    """Build a GapSet from closed covering pieces instead of gaps.

    ``pieces`` are (lo, hi) interval endpoints of set members; pieces whose
    separation cannot be certified are merged.  The gaps are the certified
    spacings that remain.  This is the constructor used for cylinder covers,
    where adjacent cylinders may touch or overlap within rounding.
    """
    hull_lo = as_enclosure(hull_lo)
    hull_hi = as_enclosure(hull_hi)
    rows = [(as_enclosure(a), as_enclosure(b)) for (a, b) in pieces]
    if not rows:
        raise MalformedGapSet("need at least one covering piece")
    rows = [rows[i] for i in _position_order(rows)]
    merged = [list(rows[0])]
    for a, b in rows[1:]:
        if merged[-1][1].lt(a) is True:
            merged.append([a, b])
        else:
            merged[-1][1] = enc_max(merged[-1][1], b)
    gaps = []
    for (left_piece, right_piece) in zip(merged, merged[1:]):
        gaps.append(Gap(left=left_piece[1], right=right_piece[0]))
    return GapSet(hull_lo, hull_hi, tuple(gaps), depth=depth)


@dataclass(frozen=True)
class ThicknessValue:
    """Result of a stepwise thickness evaluation at a recorded depth.

    ``tau is None`` together with ``infinite=True`` means the description
    has no gaps at all (a full interval), whose thickness is unbounded.
    """

    tau: Optional[Enclosure]
    infinite: bool = False
    depth: Optional[int] = None
    gap_count: int = 0


def thickness(gapset: GapSet) -> ThicknessValue:
    """Stepwise Newhouse thickness of a finite gap description.

    Gaps are processed in decreasing diameter.  Each is scored against the
    nearest gap on either side processed before it (or the hull end), and
    tau is the minimum score.  Gaps whose width enclosures coincide exactly
    form a tie block processed left to right (the value is independent of
    the order within a block).  When two width enclosures overlap without
    coinciding, the true diameter order is unknowable at this precision,
    and the sort order (upper width bound descending) is used as the
    processing order, which is the right call for families whose
    equal-width gaps acquire unequal enclosures through rounding.
    """
    gaps = gapset.gaps
    n = len(gaps)
    if n == 0:
        return ThicknessValue(tau=None, infinite=True, depth=gapset.depth, gap_count=0)

    widths = [g.width for g in gaps]
    tops = [w._ends[2:] for w in widths]
    # validation left the gaps in position order, so a stable sort breaks
    # width ties left to right
    order = sorted(range(n), key=cmp_to_key(lambda i, j: _cmp(*tops[j], *tops[i])))

    # a gap's anchors are the nearest gaps on each side processed before it
    rank = {i: r for r, i in enumerate(order)}
    anchor_l = _nearest_earlier(rank, range(n), [g.right for g in gaps], gapset.hull_lo)
    anchor_r = _nearest_earlier(rank, reversed(range(n)), [g.left for g in gaps],
                                gapset.hull_hi)
    tau = enc_min(*(enc_min(g.left - a, b - g.right) / w
                    for g, w, a, b in zip(gaps, widths, anchor_l, anchor_r)))
    return ThicknessValue(tau=tau, infinite=False, depth=gapset.depth, gap_count=n)


def _nearest_earlier(rank, scan, ends, hull_end) -> list[Enclosure]:
    """Per gap, the end in ``ends`` of the nearest gap before it in ``scan``
    with a smaller processing rank, or ``hull_end`` if there is none: one
    monotonic-stack pass ("all nearest smaller values"; Berkman, Schieber
    and Vishkin, J. Algorithms 14, 1993)."""
    anchors = [hull_end] * len(ends)
    stack: list[int] = []
    for i in scan:
        while stack and rank[stack[-1]] > rank[i]:
            stack.pop()
        if stack:
            anchors[i] = ends[stack[-1]]
        stack.append(i)
    return anchors


@lru_cache(maxsize=None)  # a sweep asks again for each base at one order
def _admissible_count(k: int, max_len: int) -> int:
    """Number of gap index words of length <= max_len (see symbolic._is_gap_index).

    A nonempty word is a first digit (two choices), an initial run of any
    length r >= 1, then non-initial runs of lengths 1..k-1 whose last is at
    most k-2.  Let c(s) count the compositions of s into parts 1..k-1 and
    g(s) those whose last part is at most k-2, with g(0) = 1 for the
    initial run alone.  A word of length L counts 2 g(L - r) for each
    r <= L, so the words of lengths 0..n number

        1 + 2 sum_{s<n} (n - s) g(s),

    and with C(t) = c(0) + ... + c(t) (zero for t < 0) both terms are
    differences of prefix sums: c(s) = C(s-1) - C(s-k) and
    g(s) = C(s-1) - C(s-k+1).  The tests check this against a count over
    the run-limited automaton's states.
    """
    prefix = [1]  # C(0), C(1), ...

    def C(t: int) -> int:
        return prefix[t] if t >= 0 else 0

    total = max_len  # the term s = 0
    for s in range(1, max_len):
        prefix.append(prefix[-1] + C(s - 1) - C(s - k))
        total += (max_len - s) * (C(s - 1) - C(s - k + 1))
    return 1 + 2 * total


def _family_base(q, k: int, max_delta_len: int) -> Enclosure:
    """q as an enclosure, once the checks every run-limited family makes
    pass: a nonnegative depth and a base certifiably above the order-k root."""
    if max_delta_len < 0:
        raise ValueError("max_delta_len must be nonnegative")
    q = as_enclosure(q)
    root = bonacci_root(k)
    if q.gt(root.value) is not True:
        raise ValueError(
            f"base must certifiably exceed the order-{k} root "
            f"{root.value.str_digits(20)}"
        )
    return q


def sk_thickness(q, k: int, max_delta_len: int) -> ThicknessValue:
    """Finite-depth thickness of the order-k avoidance gap family, in closed
    form, without materializing the gaps.

    Every depth-n gap of the family is a copy of the depth-0 gap scaled by
    q**-n, so the stepwise pass processes whole depth levels at a time and
    the score of a depth-n gap is controlled by the nearest shallower gap
    ending closest on its tight side.  Minimizing over a level gives a
    ratio that is strictly decreasing in depth until the run-length cap
    stops producing new adjacency patterns, after which the infimum sits on
    a plateau.  With p0, p1 the depth-0 gap endpoints and C = p1 - p0:

        tau(0)      = p0 / C
        tau(D>=1)   = (p0 - q**(i-k+1) * p1) / C,   i = min(D-1, k-2)

    The tests cross-validate this against thickness() on materialized
    families for small k and every depth through the plateau.
    """
    if k < 3:
        raise ValueError(
            "order must be at least 3: the order-2 family has touching gaps "
            "(adjacent index words share an endpoint sequence), so no "
            "positive-bridge gap structure exists"
        )
    q = _family_base(q, k, max_delta_len)
    one = Enclosure(1)
    q_k1, q_k = q ** (k - 1), q ** k
    p0 = (q_k1 - one) / ((q - one) * (q_k - one))
    p1 = q_k1 / (q_k - one)
    cw = p1 - p0
    if max_delta_len == 0:
        tau = p0 / cw
    else:
        i = min(max_delta_len - 1, k - 2)
        tau = (p0 - q ** (i - k + 1) * p1) / cw
    return ThicknessValue(tau=tau, infinite=False, depth=max_delta_len,
                          gap_count=_admissible_count(k, max_delta_len))


def affine_image(gapset: GapSet, scale, offset) -> GapSet:
    """Image of the described set under x -> scale*x + offset.

    ``scale`` must be certified nonzero; a negative scale reflects the
    family, swapping and reversing the gaps.
    """
    scale = as_enclosure(scale)
    offset = as_enclosure(offset)
    zero = Enclosure(0)
    positive = scale.gt(zero)
    negative = scale.lt(zero)
    if positive is not True and negative is not True:
        raise ValueError("scale must be certified nonzero")

    def fwd(x: Enclosure) -> Enclosure:
        return scale * x + offset

    if positive:
        hull_lo, hull_hi = fwd(gapset.hull_lo), fwd(gapset.hull_hi)
        gaps = tuple(Gap(fwd(g.left), fwd(g.right), g.label) for g in gapset.gaps)
    else:
        hull_lo, hull_hi = fwd(gapset.hull_hi), fwd(gapset.hull_lo)
        gaps = tuple(Gap(fwd(g.right), fwd(g.left), g.label) for g in reversed(gapset.gaps))
    return GapSet(hull_lo, hull_hi, gaps, depth=gapset.depth)


def _contained_in_complement(lo: Enclosure, hi: Enclosure,
                              outer: GapSet) -> Optional[bool]:
    """Tri-valued: is the hull [lo, hi] certifiably inside one component of
    the complement of outer (a gap or an unbounded side)?  True means the
    hull misses outer entirely; None means some containment is undecidable."""
    side_low = hi.lt(outer.hull_lo)
    side_high = outer.hull_hi.lt(lo)
    if side_low is True or side_high is True:
        return True
    uncertain = side_low is None or side_high is None
    # only gaps positioned to straddle the hull can contain it; the
    # gaps certifiably right of lo form a suffix of the validated order
    start = bisect_left(outer.gaps, True, key=lambda g: lo.lt(g.left) is True)
    for g in outer.gaps[max(0, start - 2): start + 2]:
        in_gap_l = g.left.lt(lo)
        in_gap_r = hi.lt(g.right)
        if in_gap_l is True and in_gap_r is True:
            return True
        if in_gap_l is not False and in_gap_r is not False:
            uncertain = True
    return None if uncertain else False


def interleaved(a: GapSet, b: GapSet) -> bool:
    """True iff neither described set fits inside a single complementary
    component of the other, certified on the finite descriptions.  Any
    undecidable containment fails closed to False."""
    return (_contained_in_complement(a.hull_lo, a.hull_hi, b) is False
            and _contained_in_complement(b.hull_lo, b.hull_hi, a) is False)


def strongly_interleaved(a1, a2, b1, b2, eps) -> Certificate:
    """Certificate that hulls [a1,a2] and [b1,b2] interleave with margin:
    each of b1-a1, a2-b1, b2-a2 certified >= 2*eps."""
    a1, a2 = as_enclosure(a1), as_enclosure(a2)
    b1, b2 = as_enclosure(b1), as_enclosure(b2)
    eps = as_enclosure(eps)
    two_eps = Enclosure(2) * eps
    checks = [
        check_ge("left_stagger", b1 - a1, two_eps),
        check_ge("overlap_core", a2 - b1, two_eps),
        check_ge("right_stagger", b2 - a2, two_eps),
    ]
    return Certificate(
        claim="strongly-interleaved",
        params={"eps": str(eps.lo)},
        checks=checks,
        evidence_depth=None,
        grade=GRADE_EVIDENCE,
    )


def _distance_to_set(x: Enclosure, bridges) -> Enclosure:
    """Enclosure of dist(x, union of the closed ``bridges``), the bridge
    list of a validated GapSet.

    Validation chains every bridge endpoint strictly upward, so the bridges
    certified entirely left of x form a prefix and those certified entirely
    right of it a suffix.  The window runs from the last of the first to the
    first of the second (or the ends of the list); bridges beyond such a wall
    are certifiably farther than the wall itself, so the minimum over the
    window encloses the true distance.
    """
    lo_j = bisect_left(bridges, True, key=lambda b: b[1].lt(x) is not True) - 1
    hi_j = bisect_left(bridges, True, key=lambda b: x.lt(b[0]) is True)
    zero = Enclosure(0)
    window = bridges[max(0, lo_j):hi_j + 1]
    return enc_min(*(enc_max(zero, u - x, x - v) for u, v in window))


def _directed_hausdorff(a: GapSet, b: GapSet) -> tuple[Fraction, Fraction]:
    """Bounds on sup_{x in A} dist(x, B).

    The supremum over a union of closed intervals of the piecewise-linear
    distance-to-B function is attained either at a bridge endpoint of A or
    at a midpoint of a gap of B that belongs to A.  Candidates with
    undecidable membership contribute to the upper bound only.
    """
    half = Fraction(1, 2)
    candidates: list[tuple[Enclosure, Optional[bool]]] = []
    for (u, v) in a.bridges():
        candidates.append((u, True))
        candidates.append((v, True))
    for g in b.gaps:
        mid = (g.left + g.right) * Enclosure(half)
        member = a.point_in(mid)
        if member is not False:
            candidates.append((mid, member))
    bridges = b.bridges()
    lo = Fraction(0)
    hi = Fraction(0)
    for x, member in candidates:
        d = _distance_to_set(x, bridges)
        hi = max(hi, d.hi)
        if member is True:
            lo = max(lo, d.lo)
    return lo, hi


def hausdorff_distance(a: GapSet, b: GapSet) -> Enclosure:
    """Enclosure of the Hausdorff distance between the two described sets."""
    lo1, hi1 = _directed_hausdorff(a, b)
    lo2, hi2 = _directed_hausdorff(b, a)
    return Enclosure.from_endpoints(max(lo1, lo2), max(hi1, hi2))


def _gap_lemma_checks(inter: bool, ta: ThicknessValue,
                      tb: ThicknessValue) -> list[Check]:
    """The gap lemma's hypotheses as checks: interleaving, and a thickness
    product of at least one (a full interval's thickness is unbounded, so
    then the partner only needs positive thickness)."""
    checks = [check_flag("interleaved", inter)]
    if ta.infinite or tb.infinite:
        other = tb if ta.infinite else ta
        if other.infinite:
            checks.append(check_flag("thickness_product", True,
                                     note="both descriptions are full intervals"))
        else:
            checks.append(check_flag(
                "thickness_product", other.tau.gt(Enclosure(0)),
                note="one description is a full interval; product is unbounded",
            ))
    else:
        checks.append(check_ge("thickness_product", ta.tau * tb.tau, Enclosure(1)))
    return checks


def newhouse_certificate(a: GapSet, b: GapSet) -> Certificate:
    """Gap lemma certificate: interleaved hulls and thickness product >= 1.

    Always graded finite-depth-evidence: the inputs are finite outer
    descriptions, so the product bound is a statement about the described
    approximations, not a closed-form inequality about the limit sets.
    """
    depths = [d for d in (a.depth, b.depth) if d is not None]
    return Certificate(
        claim="newhouse-intersection",
        params={"gaps_a": len(a.gaps), "gaps_b": len(b.gaps)},
        checks=_gap_lemma_checks(interleaved(a, b), thickness(a), thickness(b)),
        evidence_depth=max(depths) if depths else None,
        grade=GRADE_EVIDENCE,
    )
