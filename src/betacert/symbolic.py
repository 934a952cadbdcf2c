"""Digit words, eventually periodic digit sequences, and the avoidance
subshift whose gap structure drives every thickness bound in the package.

Sequences are over the digit alphabet {-1, 0, 1}; the subshift machinery
only ever sees {0, 1}, the signed digit appears in relative expansions.
A SymbolicSeq is canonicalized on construction so that equal sequences
compare equal: minimal period, preperiod rolled back into the period where
possible, and a trailing zero tail normalized to a finite word.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .realnum import Enclosure, pi_q
from .thickness import (Gap, GapSet, MalformedGapSet, _admissible_count, _family_base,
                        _probe_sides)

__all__ = [
    "ResourceError",
    "SubshiftSk",
    "SymbolicSeq",
    "Word",
    "avoids",
    "gaps_of_Sk",
]

ENUMERATION_BUDGET = 1 << 24
_DIGITS = frozenset((-1, 0, 1))


class ResourceError(RuntimeError):
    """An enumeration was refused because its certified size exceeds budget."""


@dataclass(frozen=True)
class Word:
    """Finite digit word over {-1, 0, 1}."""

    digits: tuple[int, ...] = ()

    def __post_init__(self):
        digits = tuple(map(int, self.digits))
        if not _DIGITS.issuperset(digits):
            raise ValueError("digits must lie in {-1, 0, 1}")
        object.__setattr__(self, "digits", digits)

    @classmethod
    def from_str(cls, s: str) -> "Word":
        """Parse '0'/'1' characters, with '-' standing for the digit -1."""
        table = {"0": 0, "1": 1, "-": -1}
        try:
            return cls(tuple(table[c] for c in s))
        except KeyError as exc:
            raise ValueError(f"unexpected digit character {exc.args[0]!r}") from None

    @classmethod
    def zeros(cls, n: int) -> "Word":
        return cls((0,) * n)

    @classmethod
    def ones(cls, n: int) -> "Word":
        return cls((1,) * n)

    def __len__(self) -> int:
        return len(self.digits)

    def __add__(self, other: "Word") -> "Word":
        return Word(self.digits + Word_coerce(other).digits)

    def __str__(self) -> str:
        return "".join("-" if d < 0 else str(d) for d in self.digits)


def Word_coerce(w) -> Word:
    if isinstance(w, Word):
        return w
    if isinstance(w, str):
        return Word.from_str(w)
    return Word(tuple(w))


@dataclass(frozen=True)
class SymbolicSeq:
    """Eventually periodic digit sequence ``preperiod . (period)^inf``.

    An empty period means the finite word followed by zeros forever.
    Construction canonicalizes, so two descriptions of the same sequence
    are equal as values:

    * the period is reduced to its minimal length;
    * while the last preperiod digit equals the last period digit, the
      boundary is rolled left (preperiod shrinks, period rotates);
    * an all-zero period becomes the empty period, and a finite sequence
      drops trailing zeros.
    """

    preperiod: Word = Word()
    period: Word = Word()

    def __post_init__(self):
        pre = list(Word_coerce(self.preperiod).digits)
        per = list(Word_coerce(self.period).digits)
        if per:
            n = len(per)
            for p in range(1, n + 1):
                if n % p == 0 and per == per[:p] * (n // p):
                    per = per[:p]
                    break
        while pre and per and pre[-1] == per[-1]:
            pre.pop()
            per = [per[-1]] + per[:-1]
        if per and all(d == 0 for d in per):
            per = []
        if not per:
            while pre and pre[-1] == 0:
                pre.pop()
        object.__setattr__(self, "preperiod", Word(tuple(pre)))
        object.__setattr__(self, "period", Word(tuple(per)))

    @classmethod
    def finite(cls, word) -> "SymbolicSeq":
        return cls(Word_coerce(word), Word())

    @classmethod
    def periodic(cls, word) -> "SymbolicSeq":
        return cls(Word(), Word_coerce(word))

    @classmethod
    def eventually(cls, pre, per) -> "SymbolicSeq":
        return cls(Word_coerce(pre), Word_coerce(per))

    @property
    def is_finite(self) -> bool:
        return len(self.period) == 0

    def digit(self, i: int) -> int:
        pre, per = self.preperiod.digits, self.period.digits
        if i < len(pre):
            return pre[i]
        if not per:
            return 0
        return per[(i - len(pre)) % len(per)]

    def __str__(self) -> str:
        if self.is_finite:
            return f"{self.preperiod}" if len(self.preperiod) else "0^inf"
        return f"{self.preperiod}({self.period})^inf"


def avoids(seq, pattern) -> bool:
    """True iff the (finite or eventually periodic) sequence contains no
    occurrence of the finite pattern.

    A window of |preperiod| + 2*|period| + |pattern| digits is scanned:
    every occurrence in the infinite sequence induces one whose start lies
    before |preperiod| + |period|, and such an occurrence ends inside the
    window.  Finite sequences are padded with zeros, matching their value.
    """
    pattern = Word_coerce(pattern)
    if len(pattern) == 0:
        raise ValueError("pattern must be nonempty")
    if isinstance(seq, Word) or isinstance(seq, (tuple, list, str)):
        seq = SymbolicSeq.finite(Word_coerce(seq))
    window = len(seq.preperiod) + 2 * len(seq.period) + len(pattern)
    digits = tuple(seq.digit(i) for i in range(window))
    pat = pattern.digits
    m = len(pat)
    return all(digits[i:i + m] != pat for i in range(window - m + 1))


@dataclass(frozen=True)
class SubshiftSk:
    """Binary sequences avoiding both 0 1^k and 1 0^k."""

    k: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("order must be at least 2")

    @property
    def forbidden(self) -> tuple[Word, Word]:
        k = self.k
        return (Word((0,) + (1,) * k), Word((1,) + (0,) * k))

    def contains(self, seq) -> bool:
        a, b = self.forbidden
        return avoids(seq, a) and avoids(seq, b)


#: automaton state of the empty word; see _next_state
_EMPTY = (None, 0, True)


def _next_state(k: int, state: tuple, e: int) -> Optional[tuple]:
    """Run-limited automaton for the order-k avoidance patterns.

    A state is (last digit, length of the final run, whether that run is
    the initial one).  Appending ``e`` gives the next state, or None when
    a non-initial run would reach length k -- the word would then contain
    01^k or 10^k.  Initial runs are unbounded.
    """
    last, run, initial = state
    if e != last:
        return (e, 1, last is None)
    if initial or run + 1 <= k - 1:
        return (e, run + 1, initial)
    return None


def _is_gap_index(k: int, state: tuple) -> bool:
    """A word ending in ``state`` indexes a gap: its final non-initial run
    is at most k-2, so both endpoint tails stay pattern-free."""
    _, run, initial = state
    return initial or run <= k - 2


def gaps_of_Sk(q, k: int, max_delta_len: int) -> GapSet:
    """Materialize the gap family of the order-k avoidance set in base q.

    Requires a base certifiably above the order-k root.  Each admissible
    index word delta contributes the open gap between the values of
    delta(01^{k-1})^inf and delta(10^{k-1})^inf; admissibility means both
    tails stay pattern-free: non-initial runs below k throughout delta and
    a final non-initial run of at most k-2.  Gaps are returned inside the
    hull [0, 1/(q-1)], sorted by position, with the index word as label.

    This is the walk of _sk_gaps_near that visits every child.  Its callers
    are the ``gaps`` command, build_pq_family and the tests, which measure
    it stepwise to cross-validate sk_thickness; the three-expansions
    pipeline builds only the gaps next to its probes.

    For k = 2 any positive depth raises MalformedGapSet — adjacent index
    words there share an endpoint sequence, so the gaps touch and the
    family has no positive-bridge structure.
    """
    return _sk_gaps_near(q, k, max_delta_len, None)


def _sk_gaps_near(q, k: int, max_delta_len: int, probes) -> GapSet:
    """The gaps of gaps_of_Sk(q, k, max_delta_len) on the search paths of
    the probe enclosures, in a GapSet with the family's hull; with
    ``probes=None``, the whole family.

    The index words form a binary search tree over the gaps: the gap of
    delta lies between the delta0 subtree (at most delta(01^{k-1})^inf, its
    left end) and the delta1 subtree (at least delta(10^{k-1})^inf, its
    right end), and a word that is not a gap index has only its forced
    child.  Probes are routed at each gap by thickness._probe_sides, so
    the gaps next to each probe on either side are visited.  GapSet
    validation certifies every visited gap, and the budget refusal is the
    family's.
    """
    if k < 2:
        raise ValueError(f"order must be at least 2, got {k}")
    if k == 2 and max_delta_len > 0:
        # touching ends enclose the same value, which no precision separates
        raise MalformedGapSet("the order-2 gaps touch at every positive depth: "
                              "adjacent index words share an endpoint sequence")
    q = _family_base(q, k, max_delta_len)
    total = _admissible_count(k, max_delta_len)
    if total > ENUMERATION_BUDGET:
        raise ResourceError(
            f"{total} index words up to length {max_delta_len} exceed the "
            f"enumeration budget {ENUMERATION_BUDGET}"
        )

    one = Enclosure(1)
    hull_lo = Enclosure(0)
    hull_hi = one / (q - one)
    tail0 = SymbolicSeq.periodic(Word((0,) + (1,) * (k - 1)))
    tail1 = SymbolicSeq.periodic(Word((1,) + (0,) * (k - 1)))
    p0 = pi_q(tail0, q)
    p1 = pi_q(tail1, q)

    qinv = one / q
    qinv_pow = [one]
    for _ in range(max_delta_len + 1):
        qinv_pow.append(qinv_pow[-1] * qinv)

    gaps: list[Gap] = []
    word: list[int] = []

    def descend(val: Enclosure, state, here):
        # here: the probes whose search paths reach this node, None for all
        sides = (here, here)
        if _is_gap_index(k, state):
            scale = qinv_pow[len(word)]
            gap = Gap(left=val + scale * p0, right=val + scale * p1,
                      label="".join(str(d) for d in word))
            gaps.append(gap)
            sides = _probe_sides(gap, here)
        if len(word) == max_delta_len:
            return
        for e, live in zip((0, 1), sides):
            nxt = _next_state(k, state, e)
            if nxt is not None and (live is None or live):
                word.append(e)
                descend(val + qinv_pow[len(word)] if e else val, nxt, live)
                word.pop()

    descend(Enclosure(0), _EMPTY, probes)
    return GapSet(hull_lo, hull_hi, tuple(gaps), depth=max_delta_len)
