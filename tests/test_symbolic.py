"""Word/sequence canonicalization, avoidance, gap families.

Oracles:
  * substring membership on fully materialized strings (avoidance);
  * word counts per state of the run-limited automaton (the closed-form
    gap count);
  * exact Fraction evaluation of eventually periodic values at rational
    bases (gap endpoints);
  * definitional gap admissibility: both endpoint tails pattern-free,
    checked through avoids() on the assembled sequences;
  * the materialized gap family, for the gaps built along probes' search
    paths (point membership and containment answers).
"""

import itertools
import random
from fractions import Fraction
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from betacert import symbolic
from betacert.realnum import Enclosure, as_enclosure, bonacci_root, pi_q, precision
from betacert.symbolic import (
    ResourceError,
    SubshiftSk,
    SymbolicSeq,
    Word,
    _admissible_count,
    _is_gap_index,
    _EMPTY,
    _next_state,
    _sk_gaps_near,
    avoids,
    gaps_of_Sk,
)
from betacert.thickness import GapSet, MalformedGapSet, _contained_in_complement

# bases certifiably above the order-k roots, exact rationals
BASE_ABOVE = {3: Fraction(15, 8), 4: Fraction(39, 20), 5: Fraction(79, 40), 6: Fraction(199, 100)}


def exact_seq_value(pre, per, q: Fraction) -> Fraction:
    val = sum(Fraction(d) * q ** -(i + 1) for i, d in enumerate(pre))
    if per:
        pval = sum(Fraction(d) * q ** -(i + 1) for i, d in enumerate(per))
        val += q ** (-len(pre)) * pval / (1 - q ** (-len(per)))
    return val


# ---------------------------------------------------------------- words


def test_word_validation_and_ops():
    w = Word((0, 1, -1))
    assert str(w) == "01-"
    assert Word.from_str("01-") == w
    assert len(w) == 3 and w.digits == (0, 1, -1)
    assert Word.ones(2) + Word.zeros(1) == Word((1, 1, 0))
    with pytest.raises(ValueError):
        Word((0, 2))
    with pytest.raises(ValueError):
        Word.from_str("0x1")


# ------------------------------------------------------ canonicalization


@st.composite
def pre_per(draw):
    pre = tuple(draw(st.lists(st.sampled_from((-1, 0, 1)), max_size=6)))
    per = tuple(draw(st.lists(st.sampled_from((-1, 0, 1)), max_size=6)))
    return pre, per


@given(pre_per())
def test_canonicalization_preserves_digits(parts):
    pre, per = parts
    seq = SymbolicSeq.eventually(Word(pre), Word(per))

    def naive(i):
        if i < len(pre):
            return pre[i]
        if not per:
            return 0
        return per[(i - len(pre)) % len(per)]

    for i in range(40):
        assert seq.digit(i) == naive(i)


@given(pre_per(), st.integers(min_value=0, max_value=5), st.integers(min_value=1, max_value=3))
def test_equal_sequences_compare_equal(parts, j, reps):
    pre, per = parts
    canonical = SymbolicSeq.eventually(Word(pre), Word(per))
    if per:
        j = j % len(per)
        rolled = SymbolicSeq.eventually(Word(pre + per[:j]), Word(per[j:] + per[:j]))
        assert rolled == canonical
        repeated = SymbolicSeq.eventually(Word(pre), Word(per * reps))
        assert repeated == canonical
    else:
        padded = SymbolicSeq.finite(Word(pre + (0,) * j))
        assert padded == canonical


def test_canonical_forms():
    assert SymbolicSeq.eventually("10", "0") == SymbolicSeq.finite("1")
    assert SymbolicSeq.periodic("0101") == SymbolicSeq.periodic("01")
    assert SymbolicSeq.eventually("11", "01") == SymbolicSeq.eventually("1", "10")
    assert SymbolicSeq.periodic("0") == SymbolicSeq.finite("")
    assert SymbolicSeq.finite("100").is_finite


# ----------------------------------------------------------- avoidance


@given(pre_per(), st.lists(st.sampled_from((0, 1)), min_size=1, max_size=4))
@settings(max_examples=200)
def test_avoids_matches_long_window_scan(parts, pat):
    pre, per = parts
    seq = SymbolicSeq.eventually(Word(pre), Word(per))
    pattern = Word(tuple(pat))
    # oracle: scan a much longer materialized window
    horizon = len(pre) + 5 * max(1, len(per)) + len(pat) + 25
    digits = tuple(seq.digit(i) for i in range(horizon))
    occurs = any(digits[i:i + len(pat)] == tuple(pat)
                 for i in range(horizon - len(pat) + 1))
    assert avoids(seq, pattern) == (not occurs)


def test_avoids_finite_and_edge_cases():
    assert avoids(Word.from_str("0110"), Word.from_str("111"))
    assert not avoids(Word.from_str("0110"), Word.from_str("11"))
    # zero tail of a finite word is part of the sequence
    assert not avoids(Word.from_str("1"), Word.from_str("100"))
    with pytest.raises(ValueError):
        avoids(Word.from_str("01"), Word(()))


def test_subshift_membership():
    s3 = SubshiftSk(3)
    assert s3.contains(SymbolicSeq.periodic("011"))
    assert s3.contains(SymbolicSeq.periodic("1"))
    assert not s3.contains(SymbolicSeq.periodic("0111"))
    assert not s3.contains(SymbolicSeq.eventually("1", "000"))  # 1000 = 10^3
    assert s3.contains(SymbolicSeq.eventually("111111", "011"))  # initial run free
    with pytest.raises(ValueError):
        SubshiftSk(1)


# ---------------------------------------------------------- gap families


def admissible_brute(k: int, max_len: int) -> list[str]:
    """Definitional oracle: delta indexes a gap iff both endpoint tails
    remain pattern-free."""
    t0 = Word((0,) + (1,) * (k - 1))
    t1 = Word((1,) + (0,) * (k - 1))
    sk = SubshiftSk(k)
    out = []
    for n in range(max_len + 1):
        for bits in itertools.product((0, 1), repeat=n):
            left = SymbolicSeq.eventually(Word(bits), t0)
            right = SymbolicSeq.eventually(Word(bits), t1)
            if sk.contains(left) and sk.contains(right):
                out.append("".join(map(str, bits)))
    return sorted(out)


@pytest.mark.parametrize("k,depth", [(3, 5), (4, 6), (5, 6)])
def test_gap_index_words_match_definitional_oracle(k, depth):
    gs = gaps_of_Sk(BASE_ABOVE[k], k, depth)
    assert sorted(g.label for g in gs.gaps) == admissible_brute(k, depth)
    assert len(gs.gaps) == _admissible_count(k, depth)
    assert gs.depth == depth


@pytest.mark.parametrize("k,depth", [(3, 4), (4, 5)])
def test_gap_endpoints_against_fraction_oracle(k, depth):
    q = BASE_ABOVE[k]
    gs = gaps_of_Sk(q, k, depth)
    t0 = (0,) + (1,) * (k - 1)
    t1 = (1,) + (0,) * (k - 1)
    assert gs.hull_lo.encloses(Fraction(0))
    assert gs.hull_hi.encloses(1 / (q - 1))
    for g in gs.gaps:
        delta = tuple(int(c) for c in g.label)
        assert g.left.encloses(exact_seq_value(delta, t0, q))
        assert g.right.encloses(exact_seq_value(delta, t1, q))
        assert g.left.width < Fraction(1, 10 ** 60)


def test_gap_endpoints_equal_pi_q_of_endpoint_sequences():
    k, depth = 4, 4
    q = as_enclosure(BASE_ABOVE[k])
    gs = gaps_of_Sk(q, k, depth)
    t0 = Word((0,) + (1,) * (k - 1))
    for g in gs.gaps[:10]:
        delta = Word.from_str(g.label)
        seq = SymbolicSeq.eventually(delta, t0)
        diff = g.left - pi_q(seq, q)
        assert abs(diff).le(Enclosure(Fraction(1, 10 ** 70))) is True


@pytest.mark.parametrize("k", [3, 4])
def test_gap_geometry_orderings(k):
    depth = 5
    gs = gaps_of_Sk(BASE_ABOVE[k], k, depth)
    by_label = {g.label: g for g in gs.gaps}
    labels = sorted(by_label)
    for a, b in itertools.combinations(labels, 2):
        ga, gb = by_label[a], by_label[b]
        if len(a) < len(b):
            assert ga.width.gt(gb.width) is True
        elif len(a) == len(b) and a < b:
            assert ga.right.lt(gb.left) is True  # lex order = position order


def test_gaps_precondition_and_degenerate_orders():
    with pytest.raises(ValueError):
        gaps_of_Sk(Fraction(3, 2), 4, 3)  # below the order-4 root
    with pytest.raises(ValueError):
        gaps_of_Sk(bonacci_root(4).value, 4, 3)  # not certifiably above
    with pytest.raises(MalformedGapSet):
        gaps_of_Sk(Fraction(19, 10), 2, 1)  # order-2 gaps touch
    with pytest.raises(ResourceError):
        gaps_of_Sk(Fraction(1999, 1000), 9, 40)  # ~10^12 index words
    # order 2 at depth 0 is a single-gap family and still fine
    gs = gaps_of_Sk(Fraction(19, 10), 2, 0)
    assert len(gs.gaps) == 1


def test_gap_count_growth_is_budgeted(monkeypatch):
    # the admissibility count is what the budget is checked against
    assert _admissible_count(3, 0) == 1
    assert _admissible_count(3, 1) == 3  # "", "0", "1"
    n8 = _admissible_count(3, 8)
    monkeypatch.setattr(symbolic, "ENUMERATION_BUDGET", n8 - 1)
    with pytest.raises(ResourceError):
        gaps_of_Sk(BASE_ABOVE[3], 3, 8)
    monkeypatch.setattr(symbolic, "ENUMERATION_BUDGET", n8)
    assert len(gaps_of_Sk(BASE_ABOVE[3], 3, 8).gaps) == n8


def _state_counts(k: int, n: int) -> Iterator[dict]:
    """Number of words in each automaton state, for lengths 0, 1, ..., n."""
    counts = {_EMPTY: 1}
    yield counts
    for _ in range(n):
        nxt: dict = {}
        for state, c in counts.items():
            for e in (0, 1):
                key = _next_state(k, state, e)
                if key is not None:
                    nxt[key] = nxt.get(key, 0) + c
        counts = nxt
        yield counts


def test_admissible_count_matches_the_automaton():
    # the prefix-sum closed form against the count over the automaton's states
    for k in range(2, 15):
        total = 0
        for n, counts in enumerate(_state_counts(k, 45)):
            total += sum(c for state, c in counts.items() if _is_gap_index(k, state))
            assert _admissible_count(k, n) == total, (k, n)


# ------------------------------------------- gaps near probes vs the family

def _gap_sample(family: GapSet, rng: random.Random, size: Optional[int]) -> list:
    """All gaps of the family (size None), or a seeded sample of at most
    ``size`` of them, in position order."""
    n = len(family.gaps)
    if size is None or size >= n:
        return list(family.gaps)
    return [family.gaps[i] for i in sorted(rng.sample(range(n), size))]


def _point_probes(family: GapSet, rng: random.Random, endpoints: Optional[int]) -> list:
    """Hull ends; gap endpoints and enclosures straddling them, at all gaps
    or at a seeded sample of ``endpoints`` gaps; points inside a few gaps;
    seeded random points across the hull and a little beyond it."""
    probes = [family.hull_lo, family.hull_hi]
    for g in _gap_sample(family, rng, endpoints):
        quarter = g.width / 4
        probes += [g.left, g.right,
                   Enclosure.from_endpoints((g.left - quarter).lo, (g.left + quarter).hi),
                   Enclosure.from_endpoints((g.right - quarter).lo, (g.right + quarter).hi)]
    for g in _gap_sample(family, rng, 8):
        quarter = g.width / 4
        probes += [g.left + quarter, g.right - quarter]
    probes += [family.hull_hi * Fraction(rng.randrange(-50, 1051), 1000)
               for _ in range(20)]
    return probes


def _hull_probes(family: GapSet, rng: random.Random) -> list:
    """(lo, hi) hulls: inside a gap, exactly a gap, straddling one end of a
    gap or a whole gap, spanning neighbouring gaps, and random ones."""
    gaps = _gap_sample(family, rng, 8)
    hulls = [(family.hull_lo - 1, family.hull_hi + 1)]
    for i, g in enumerate(gaps):
        quarter = g.width / 4
        hulls += [(g.left + quarter, g.right - quarter), (g.left, g.right),
                  (g.left - quarter, g.left + quarter), (g.left - quarter, g.right + quarter)]
        if i + 1 < len(gaps):
            hulls.append((g.left + quarter, gaps[i + 1].right - quarter))
    for _ in range(20):
        a, b = sorted(rng.sample(range(-50, 1051), 2))
        hulls.append((family.hull_hi * Fraction(a, 1000), family.hull_hi * Fraction(b, 1000)))
    return hulls


def _assert_near_agrees(family: GapSet, q, order: int, depth: int,
                        rng: random.Random, endpoints: Optional[int]) -> None:
    """Gaps built along the probes' search paths answer point membership
    and containment in both directions as the whole family does."""
    gaps = set(family.gaps)
    for x in _point_probes(family, rng, endpoints):
        near = _sk_gaps_near(q, order, depth, (x,))
        assert set(near.gaps) <= gaps
        assert (near.hull_lo, near.hull_hi) == (family.hull_lo, family.hull_hi)
        assert near.point_in(x) is family.point_in(x)
    for lo, hi in _hull_probes(family, rng):
        near = _sk_gaps_near(q, order, depth, (lo, hi))
        assert set(near.gaps) <= gaps
        assert (near.hull_lo, near.hull_hi) == (family.hull_lo, family.hull_hi)
        assert (_contained_in_complement(lo, hi, near)
                is _contained_in_complement(lo, hi, family))


@pytest.mark.parametrize("k", range(9, 14))
def test_gaps_near_probes_answer_like_the_whole_family(k):
    # the three-expansions pipeline's families: order k-1 at the order-k
    # root, every depth up to its default of 12
    rng = random.Random(k)
    q = bonacci_root(k).value
    for depth in range(13):
        family = gaps_of_Sk(q, k - 1, depth)
        _assert_near_agrees(family, q, k - 1, depth, rng,
                            None if depth <= 6 else 8)


@pytest.mark.parametrize("k", range(9, 14))
def test_gaps_near_probes_answer_like_the_whole_family_at_64_bits(k):
    rng = random.Random(100 + k)
    with precision(64):
        q = bonacci_root(k).value
        family = gaps_of_Sk(q, k - 1, 12)
        _assert_near_agrees(family, q, k - 1, 12, rng, 8)
