"""Request lists of the three benchmark workloads.

A request is one ``betacert`` command line, given as its argv list.  Every
list is a pure function of the workload name and the seed and is built
without importing betacert: the program under test only ever sees the
generated argv lists.

Each workload draws from a finite universe of requests (``universe``), so
that every request any seed can produce has a recorded golden output.
"""

from __future__ import annotations

import json
import math
import random
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("three-band", "pinned-sweep", "branch-walk")

HERE = Path(__file__).resolve().parent
BRANCH_INPUTS = HERE / "data" / "branch_walk_inputs.jsonl"

#: offsets of seeded points, as shares of the band radius: j/8 for
#: j = 1..7 keeps every point strictly inside the band even though the
#: radii below carry only six significant digits.
OFFSET_SHARES = tuple(range(1, 8))

#: band radii root_k^(-2k-6) of the three-expansions pipeline, as printed
#: in the second reference table (one-sided length at k = 9).
THREE_BAND_RADIUS = {
    9: "6.10316e-8",
    10: "1.50925e-8",
    11: "3.75092e-9",
    12: "9.34745e-10",
    13: "2.33286e-10",
}

#: order thresholds k_threshold(m) for m = 1..5, as printed in the first
#: reference table.  The harness self-test checks them against the library.
K_THRESHOLD = {1: 31, 2: 32, 3: 32, 4: 32, 5: 33}
PINNED_ORDERS = 12
PINNED_PRECISIONS = (256, 384, 512)

BRANCH_BASES = ("3/2", "8/5", "5/3", "17/10", "golden")
#: node levels of branch-walk requests, with the number of requests a pass
#: draws at each level for each base.  A request sits at a level when its
#: walk processes within LEVEL_TOLERANCE of that many nodes.  Fixed counts
#: at narrow levels keep the work of a pass nearly the same for every seed.
BRANCH_LEVELS = ((150, 6), (250, 6), (400, 6), (650, 6), (1000, 6), (1600, 6),
                 (2600, 6), (4200, 6), (7000, 2), (12000, 1), (25000, 1))
LEVEL_TOLERANCE = 0.15
#: the deepest walk of a base sets the pass's peak memory (its output runs
#: to several hundred kB), so at this level every seed sends the same
#: request per base: the first recorded one
FIXED_LEVEL = 25000


def _offset_text(radius: Decimal, share: int) -> str:
    return f"{radius * share / 8:.4e}"


# ------------------------------------------------------------ three-band

def _three_band_interval(k: int) -> list[str]:
    return ["certify", "--k", str(k), "--interval",
            "--precision", "256", "--format", "json"]


def _three_band_point(k: int, sign: str, share: int) -> list[str]:
    off = _offset_text(Decimal(THREE_BAND_RADIUS[k]), share)
    return ["certify", "--k", str(k), "--q", f"qk:{k}{sign}{off}",
            "--precision", "256", "--format", "json"]


def _three_band_signs(k: int) -> tuple[str, ...]:
    return ("+",) if k == 9 else ("+", "-")


def _three_band(rng: random.Random) -> list[list[str]]:
    out = []
    for k in sorted(THREE_BAND_RADIUS):
        if rng.random() < 0.5:
            out.append(_three_band_interval(k))
        else:
            out.append(_three_band_point(
                k, rng.choice(_three_band_signs(k)), rng.choice(OFFSET_SHARES)))
    return out


def _three_band_universe() -> list[list[str]]:
    out = []
    for k in sorted(THREE_BAND_RADIUS):
        out.append(_three_band_interval(k))
        out += [_three_band_point(k, s, j)
                for s in _three_band_signs(k) for j in OFFSET_SHARES]
    return out


# ------------------------------------------------------------ pinned-sweep

def _root_float(k: int) -> float:
    # the order-k root is the fixed point of x = 2 - x^(-k), a contraction
    # with tiny derivative near 2
    x = 2.0
    for _ in range(60):
        x = 2.0 - x ** (-k)
    return x


def _pinned_radius(m: int, k: int) -> Decimal:
    rho = math.exp(-((m + 2) * k + 3) * math.log(_root_float(k)))
    return Decimal(f"{rho:.6e}")


def _pinned_pairs():
    for m in sorted(K_THRESHOLD):
        for k in range(K_THRESHOLD[m], K_THRESHOLD[m] + PINNED_ORDERS):
            yield m, k


def _pinned_interval(m: int, k: int, bits: int) -> list[str]:
    return ["certify", "--m", str(m), "--k", str(k), "--interval",
            "--precision", str(bits), "--format", "json"]


def _pinned_point(m: int, k: int, bits: int, sign: str, share: int) -> list[str]:
    off = _offset_text(_pinned_radius(m, k), share)
    return ["certify", "--m", str(m), "--k", str(k), "--q", f"qk:{k}{sign}{off}",
            "--precision", str(bits), "--format", "json"]


def _tables(bits: int) -> list[str]:
    return ["tables", "--format", "json", "--precision", str(bits)]


def _pinned_sweep(rng: random.Random) -> list[list[str]]:
    out = []
    for bits in PINNED_PRECISIONS:
        for m, k in _pinned_pairs():
            out.append(_pinned_interval(m, k, bits))
            out.append(_pinned_point(m, k, bits, rng.choice("+-"),
                                     rng.choice(OFFSET_SHARES)))
        out.append(_tables(bits))
    return out


def _pinned_universe() -> list[list[str]]:
    out = []
    for bits in PINNED_PRECISIONS:
        for m, k in _pinned_pairs():
            out.append(_pinned_interval(m, k, bits))
            out += [_pinned_point(m, k, bits, s, j)
                    for s in "+-" for j in OFFSET_SHARES]
        out.append(_tables(bits))
    return out


# ------------------------------------------------------------ branch-walk

def branch_argv(q: str, x: str, depth: int) -> list[str]:
    return ["count", "--q", q, "--x", x, "--depth", str(depth),
            "--format", "json"]


def branch_candidates():
    """(base, point, depth ladder) triples the calibration walks through;
    points are x = j/20 in (0, 1], inside the attractor of every base."""
    depths = tuple(range(6, 81, 2))
    for q in BRANCH_BASES:
        for j in range(1, 21):
            yield q, str(Fraction(j, 20)), depths


def _branch_inputs() -> list[dict]:
    """Calibrated branch-walk requests, one JSON object per line with the
    node count the walk processed when it was recorded."""
    with open(BRANCH_INPUTS) as fh:
        return [json.loads(line) for line in fh]


def branch_level(nodes: int):
    """The level a walk of ``nodes`` processed nodes sits at, or None."""
    for level, _ in BRANCH_LEVELS:
        if abs(nodes - level) <= LEVEL_TOLERANCE * level:
            return level
    return None


def _branch_walk(rng: random.Random) -> list[list[str]]:
    pools: dict[tuple[str, int], list[list[str]]] = {}
    for r in _branch_inputs():
        pools.setdefault((r["q"], branch_level(r["nodes"])), []).append(
            branch_argv(r["q"], r["x"], r["depth"]))
    out = []
    for q in BRANCH_BASES:
        for level, count in BRANCH_LEVELS:
            pool = pools[(q, level)]
            out += pool[:count] if level == FIXED_LEVEL else rng.sample(pool, count)
    rng.shuffle(out)
    return out


def _branch_universe() -> list[list[str]]:
    return [branch_argv(r["q"], r["x"], r["depth"]) for r in _branch_inputs()]


# ------------------------------------------------------------ entry points

_GENERATORS = {
    "three-band": (_three_band, _three_band_universe),
    "pinned-sweep": (_pinned_sweep, _pinned_universe),
    "branch-walk": (_branch_walk, _branch_universe),
}


def requests(workload: str, seed: int) -> list[list[str]]:
    """The request list one pass of ``workload`` sends at ``seed``."""
    return _GENERATORS[workload][0](random.Random(f"{workload}:{seed}"))


def universe(workload: str) -> list[list[str]]:
    """The recorded requests of ``workload``: whatever the seed, every
    request of ``requests(workload, seed)`` is one of them."""
    return _GENERATORS[workload][1]()
