"""Digit dynamics: the two forward maps, the switch region, and certified
branch counting.

A point x of the attractor [0, 1/(q-1)] digit-expands by repeatedly
applying f_eps(x) = q x - eps for a digit eps that keeps the value inside
the attractor.  Both digits work exactly on the switch region
J_q = [1/q, 1/(q(q-1))]; elsewhere at most one does.  Counting surviving
digit strings therefore bounds the number of distinct expansions of x:
every certified prefix leaves a remainder inside the attractor, so it
extends to at least one full expansion, and distinct prefixes extend to
distinct expansions.

All memberships are tri-valued and fail closed: a value whose enclosure
straddles a domain boundary contributes to the possible count but never to
the certified one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .certificate import Certificate, GRADE_EVIDENCE, _float_pair, check_flag
from .realnum import (Enclosure, PrecisionError, _canon, _walk_level, as_enclosure,
                      membership)
from .symbolic import ResourceError

__all__ = [
    "CountReport",
    "DigitMaps",
    "NODE_BUDGET",
    "certify_m_expansions",
    "count_prefixes",
]

#: processed-node cap for the breadth-first branch walk; the count of
#: expansions can be uncountable, so the walk only ever reports bounds and
#: must refuse to pretend otherwise by grinding forever
NODE_BUDGET = 10 ** 6


def _require_base(q) -> Enclosure:
    q = as_enclosure(q)
    if q.gt(1) is not True or q.lt(2) is not True:
        raise ValueError("q must be certifiably inside (1, 2)")
    return q


@dataclass(frozen=True)
class DigitMaps:
    """The maps x -> qx - eps with their exact domains.

    Binary digits: f_0 on [0, 1/(q(q-1))], f_1 on [1/q, 1/(q-1)]; their
    overlap is the switch region, the only place both digits keep the
    value inside the attractor.
    """
    q: Enclosure
    attractor: tuple[Enclosure, Enclosure] = field(init=False, repr=False)
    switch: tuple[Enclosure, Enclosure] = field(init=False, repr=False)

    def __post_init__(self):
        q = _require_base(self.q)
        object.__setattr__(self, "q", q)
        hi = 1 / (q - 1)
        object.__setattr__(self, "attractor", (Enclosure(0), hi))
        object.__setattr__(self, "switch", (1 / q, hi / q))

    def in_attractor(self, x) -> Optional[bool]:
        return membership(as_enclosure(x), *self.attractor)


@dataclass(frozen=True)
class CountReport:
    """Per-depth prefix counts from the breadth-first branch walk.

    ``certified_min[d-1]`` counts length-d digit strings whose entire
    orbit is certified inside the respective domains — a true lower bound
    for the number of expansions of x.  ``possible_max[d-1]`` additionally
    counts strings with undecided memberships.  ``branch_events`` lists
    (depth, value) for nodes certified inside the switch region, i.e. the
    places where the tree genuinely forks.  ``stabilized`` reports whether
    both counts agree and stay constant over the final quarter of depths.
    """
    x: Enclosure
    depth: int
    certified_min: tuple[int, ...]
    possible_max: tuple[int, ...]
    branch_events: tuple[tuple[int, Enclosure], ...]
    nodes_processed: int
    stabilized: bool


def count_prefixes(q, x, depth: int = 200,
                   node_budget: int = NODE_BUDGET) -> CountReport:
    """Breadth-first walk of the digit branch tree rooted at x.

    A node spawns a child for each digit whose domain does not certifiably
    exclude it; only children reached through all-certified memberships
    count toward ``certified_min``.  Nodes are realnum's integer endpoint
    quadruples, classified and stepped a whole level at a time by its
    kernel; a node becomes an Enclosure only as a branch event.  The last
    level is classified like every other (its forks are branch events, its
    nodes count toward ``nodes_processed`` and the budget), but its
    children are only counted, never built.  An undecided node wider than
    the switch region raises PrecisionError: the enclosures have widened
    past deciding anything, and the walk would only grind into the node
    budget.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    maps = DigitMaps(q)
    x = as_enclosure(x)
    root_in = maps.in_attractor(x)
    if root_in is False:
        raise ValueError("x is certifiably outside the attractor [0, 1/(q-1)]")

    # q without trailing zero bits, so that a dyadic q multiplies as a short
    # int; digit 0's domain is [0, s_hi], digit 1's [s_lo, top]; the
    # kernel's tables (bounds and units by exponent) last as long as this walk
    q = _canon(*maps.q._ends[:2]) + _canon(*maps.q._ends[2:])
    s_lo, s_hi = (e._ends for e in maps.switch)
    top = maps.attractor[1]._ends
    tables = {}, {}
    # the frontier: its nodes, and whether each is reached through
    # certified memberships only
    nodes: list[tuple] = [x._ends]
    flags: list[bool] = [root_in is True]
    cmin: list[int] = []
    cmax: list[int] = []
    events: list[tuple[int, Enclosure]] = []
    processed = 0
    for d in range(1, depth + 1):
        size = len(nodes)
        # where the budget runs out inside this level, the nodes it still
        # covers are walked first, so a widening among them stops the walk
        spent = processed + size > node_budget
        if spent:
            nodes = nodes[:max(0, node_budget - processed)]
        last = d == depth
        level = _walk_level(q, s_hi, s_lo, top, nodes, flags, tables, last)
        if level is None:
            raise PrecisionError(
                f"enclosure widening: a node at depth {d - 1} of the branch "
                "walk is wider than the switch region; raise the working "
                "precision (--precision)")
        children, certified, forks = level
        for y in forks:
            events.append((d - 1, Enclosure._wrap(y)))
        if spent:
            raise ResourceError(
                f"branch walk exceeded the node budget of {node_budget} "
                f"at depth {d} (frontier size {size})")
        processed += size
        if last:  # the two counts
            cmin.append(certified)
            cmax.append(children)
        else:  # the next frontier
            nodes, flags = children, certified
            cmin.append(flags.count(True))
            cmax.append(len(nodes))

    window = max(1, depth // 4)
    tail = cmin[-window:] + cmax[-window:]
    stabilized = len(set(tail)) == 1
    return CountReport(x=x, depth=depth,
                       certified_min=tuple(cmin), possible_max=tuple(cmax),
                       branch_events=tuple(events),
                       nodes_processed=processed, stabilized=stabilized)


def certify_m_expansions(q, x, m: int, depth: int = 200) -> Certificate:
    """Finite-depth evidence that x has exactly m expansions.

    Certifies when the certified lower bound reaches m and the possible
    upper bound sits at m throughout the final quarter of depths.  The
    result is always evidence-grade: equality of the true count with m is
    a statement about an infinite tree, and a deeper walk could in
    principle still fork.
    """
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    report = count_prefixes(q, x, depth)
    window = max(1, depth // 4)
    checks = [
        check_flag(
            "certified_minimum_reaches_m",
            report.certified_min[-1] == m),
        check_flag(
            "possible_maximum_stays_m_over_window",
            all(v == m for v in report.possible_max[-window:]),
            note="exact-count equality is finite-depth evidence, not proof"),
        check_flag(
            "certified_minimum_stable_over_window",
            all(v == m for v in report.certified_min[-window:])),
    ]
    return Certificate(
        claim="expansion-count",
        params={"m": m, "depth": depth, "window": window,
                "q": _float_pair(q), "x": _float_pair(report.x)},
        checks=checks,
        evidence_depth=depth,
        grade=GRADE_EVIDENCE,
    )
