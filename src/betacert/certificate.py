"""Certificate records.

A Certificate is the exchange format of every pipeline in the package: a
claim identifier, the parameters it was run with, a list of enclosure-level
checks, and an honesty grade distinguishing closed-form inequality proofs
from finite-depth set evidence.  Serialization is deterministic except for
wall_time_ms, which is the schema's designated timing field and always
rendered last.

Also here: how reports write values -- _float_pair for an enclosure, and
_json_text for a whole document, which the command line emits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _escape
from math import inf, ldexp
from typing import Optional

from .realnum import Enclosure, _double, as_enclosure

GRADE_PROVED = "proved-inequality"
GRADE_EVIDENCE = "finite-depth-evidence"

STATUS_CERTIFIED = "certified"
STATUS_FAILED = "failed"
STATUS_UNCERTAIN = "uncertain"


def _float_pair(x) -> list[float]:
    """[lo, hi] of x as outward-rounded doubles: how reports write an enclosure."""
    return list(as_enclosure(x).float_bounds())


def _json_float(o: float) -> str:
    """A float as the standard library writes it, NaN and Infinity included."""
    if o != o:
        return "NaN"
    if o == inf:
        return "Infinity"
    if o == -inf:
        return "-Infinity"
    return float.__repr__(o)


def _int_text(n: int) -> str:
    """n in decimal, also past the interpreter's limit on int-to-str
    conversion (that limit is host state, so it is not raised): the digits
    come in chunks of a thousand, by divmod from the low end."""
    try:
        return int.__repr__(n)
    except ValueError:
        pass
    chunks = []
    rest = abs(n)
    while rest:
        rest, low = divmod(rest, 10 ** 1000)
        chunks.append(low)
    return ("-" if n < 0 else "") + int.__repr__(chunks.pop()) + "".join(
        int.__repr__(c).zfill(1000) for c in reversed(chunks))


class _EventRows(tuple):
    """Branch events (depth, Enclosure), which _json_text writes as rows
    [depth, [lo, hi]], each end rounded outward to a double by _double."""


def _json_text(o, nl: str = "\n") -> str:
    """json.dumps(o, indent=2), byte for byte, for str-keyed dicts, lists,
    tuples, str, int, float, bool and None; any other type raises
    TypeError.  nl is the newline and indent that close o.  An _EventRows
    is written as json.dumps writes its rows [depth, list(x.float_bounds())].

    With an indent the standard library leaves its C encoder for a
    pure-Python generator chain; this writer makes one call per container
    and renders the plain ints and floats inside a list in place, and an
    _EventRows row by row, from each event's ends, through one %-template.
    Each container is a single join, brackets included: concatenating around
    a large joined string would copy it, and the freed copies leave holes
    that raise the process's peak memory."""
    if isinstance(o, str):
        return _escape(o)
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return _int_text(o)
    if isinstance(o, float):
        return _json_float(o)
    inner = nl + "  "
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        if type(o) is _EventRows:
            # events lie in the switch region, so both doubles are finite
            # and %r writes them as JSON does (an infinity would be "inf")
            r, p = inner + "  ", inner + "    "
            row = f"[{r}%d,{r}[{p}%r,{p}%r{r}]{inner}]"
            items = []
            for d, x in o:
                m, e, n, f = x._ends
                c, k = m.bit_length() - 53, n.bit_length() - 53
                if c > 0 < k and -1074 <= e + c <= 970 and -1074 <= f + k <= 970:
                    # _double's common case: each end cut to a normal double
                    items.append(row % (d, ldexp(m >> c, e + c), ldexp(-(-n >> k), f + k)))
                else:
                    items.append(row % (d, _double(m, e, False), _double(n, f, True)))
        else:
            try:
                items = [int.__repr__(v) if type(v) is int else
                         _json_float(v) if type(v) is float else
                         _json_text(v, inner) for v in o]
            except ValueError:  # an int past the int-to-str limit
                items = [_json_text(v, inner) for v in o]
        items[0] = "[" + inner + items[0]
        items[-1] += nl + "]"
        return ("," + inner).join(items)
    if isinstance(o, dict):
        if not o:
            return "{}"
        items = []
        for k, v in o.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            items.append(_escape(k) + ": " + _json_text(v, inner))
        items[0] = "{" + inner + items[0]
        items[-1] += nl + "}"
        return ("," + inner).join(items)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


@dataclass
class Check:
    """One enclosure-certified comparison inside a Certificate."""
    name: str
    lhs: Optional[Enclosure]
    rhs: Optional[Enclosure]
    status: str
    margin: Optional[Enclosure] = None
    note: str = ""

    def to_json_dict(self) -> dict:
        def bounds(e):
            return None if e is None else _float_pair(e)

        out = {
            "name": self.name,
            "lhs": bounds(self.lhs),
            "rhs": bounds(self.rhs),
            "status": self.status,
        }
        if self.margin is not None:
            out["margin"] = bounds(self.margin)
        if self.note:
            out["note"] = self.note
        return out


def _status(verdict: Optional[bool]) -> str:
    if verdict is True:
        return STATUS_CERTIFIED
    return STATUS_FAILED if verdict is False else STATUS_UNCERTAIN


def _compare(name: str, relation: str, lhs: Enclosure, rhs: Enclosure,
             note: str) -> Check:
    """Certified `lhs <relation> rhs` ("ge", "le", "gt", "lt"), fail-closed on overlap."""
    verdict = getattr(lhs, relation)(rhs)
    margin = lhs - rhs if relation in ("ge", "gt") else rhs - lhs
    return Check(name=name, lhs=lhs, rhs=rhs, status=_status(verdict),
                 margin=margin, note=note)


def check_ge(name: str, lhs: Enclosure, rhs: Enclosure, note: str = "") -> Check:
    """Certified `lhs >= rhs` comparison, fail-closed on overlap."""
    return _compare(name, "ge", lhs, rhs, note)


def check_le(name: str, lhs: Enclosure, rhs: Enclosure, note: str = "") -> Check:
    return _compare(name, "le", lhs, rhs, note)


def check_gt(name: str, lhs: Enclosure, rhs: Enclosure, note: str = "") -> Check:
    return _compare(name, "gt", lhs, rhs, note)


def check_lt(name: str, lhs: Enclosure, rhs: Enclosure, note: str = "") -> Check:
    return _compare(name, "lt", lhs, rhs, note)


def check_consistent(name: str, lhs: Enclosure, rhs: Enclosure, note: str = "") -> Check:
    """Consistency-with-equality check for two routes to the same real.

    Exact equality of two independently computed enclosures is never
    decidable numerically, so the certified outcome here is the refutable
    one: FAILED when the enclosures are provably different (disjoint),
    CERTIFIED when they overlap, i.e. the computations are consistent at
    working precision.
    """
    return Check(name=name, lhs=lhs, rhs=rhs, status=_status(lhs.intersects(rhs)),
                 margin=lhs - rhs, note=note)


def check_flag(name: str, ok: Optional[bool], note: str = "") -> Check:
    return Check(name=name, lhs=None, rhs=None, status=_status(ok), note=note)


@dataclass
class Certificate:
    claim: str
    params: dict
    checks: list[Check] = field(default_factory=list)
    evidence_depth: Optional[int] = None
    grade: str = GRADE_PROVED
    wall_time_ms: float = 0.0

    @property
    def certified(self) -> bool:
        return bool(self.checks) and all(c.status == STATUS_CERTIFIED for c in self.checks)

    def to_json_dict(self) -> dict:
        # deterministic field order; wall_time_ms intentionally last so that
        # everything before it is byte-stable across identical runs
        return {
            "claim": self.claim,
            "params": self.params,
            "checks": [c.to_json_dict() for c in self.checks],
            "evidence_depth": self.evidence_depth,
            "grade": self.grade,
            "certified": self.certified,
            "wall_time_ms": self.wall_time_ms,
        }
