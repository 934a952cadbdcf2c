"""Request driver shared by the worker, the golden recorder and the self-test.

A request is one ``betacert`` CLI invocation driven in-process through
``betacert.cli.main(argv)`` with stdout and stderr captured.  Its outcome
is the exit code plus the captured stdout; the golden digest covers both,
with every ``wall_time_ms`` value masked, so a certificate must come out
byte-identical apart from its timing field.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GOLDEN_DIR = Path(__file__).resolve().parent / "goldens"

_WALL_TIME = re.compile(r'("wall_time_ms": )[^,\n}]*')


def import_betacert():
    """Import betacert from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "betacert" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no betacert sources under {SRC}")
    # goldens are recorded at the library default precision
    os.environ.pop("BETACERT_PREC", None)
    sys.path.insert(0, str(SRC))
    import betacert
    import betacert.cli
    if Path(betacert.__file__).resolve().parent != SRC / "betacert":
        raise SystemExit(f"benchmark: betacert imported from {betacert.__file__}, "
                         f"not from {SRC}")
    return betacert


def digest(exit_code: int, stdout: str) -> str:
    masked = _WALL_TIME.sub(r"\1null", stdout)
    return hashlib.sha256(f"{exit_code}\n{masked}".encode()).hexdigest()[:16]


def request_key(argv: list[str]) -> str:
    """Golden-table key of a request."""
    return " ".join(argv)


def golden_path(workload: str) -> Path:
    """One JSON line per request: [key, exit code, digest]."""
    return GOLDEN_DIR / f"{workload}.jsonl"


def load_goldens(workload: str) -> dict[str, str]:
    with open(golden_path(workload)) as fh:
        return {key: want for key, _, want in map(json.loads, fh)}


@dataclass
class Outcome:
    exit_code: Optional[int]
    stdout: str
    start: float
    end: float
    error: str = ""


def invoke(betacert, argv: list[str]) -> Outcome:
    """Run one request and time the ``cli.main`` call alone."""
    out, err = io.StringIO(), io.StringIO()
    error = ""
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = betacert.cli.main(argv)
    except SystemExit as exc:  # argparse rejects a flag
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a raising request is a failed request
        code, error = None, f"raised {type(exc).__name__}: {exc}"
    end = time.perf_counter()
    return Outcome(code, out.getvalue(), start, end, error or err.getvalue().strip())


def check(betacert, argv: list[str],
          goldens: dict[str, str]) -> tuple[Outcome, str]:
    """Run one request; return its outcome and why it failed ('' if it
    passed).  It fails when it raises, exits 2 or 3, leaks a precision
    change to later requests, or differs from its golden output."""
    before = betacert.get_precision()
    outcome = invoke(betacert, argv)
    after = betacert.get_precision()
    if after != before:
        betacert.set_precision(before)
        return outcome, f"precision leaked: {before} -> {after} bits"
    if outcome.exit_code not in (0, 1):
        return outcome, f"exit {outcome.exit_code}: {outcome.error[:200]}"
    want = goldens.get(request_key(argv))
    if want is None:
        return outcome, "no golden output recorded"
    if digest(outcome.exit_code, outcome.stdout) != want:
        return outcome, "output differs from the golden output"
    return outcome, ""


def run_pass(betacert, reqs: list[list[str]], goldens: dict[str, str],
             before_request: Optional[Callable[[int], None]] = None) -> dict:
    """Send every request once, one after another (one closed-loop
    client); report the loop's and each request's (start, end) and the
    failures."""
    intervals, failures = [], []
    start = time.perf_counter()
    for i, argv in enumerate(reqs):
        if before_request is not None:
            before_request(i)
        outcome, why = check(betacert, argv, goldens)
        intervals.append((outcome.start, outcome.end))
        if why:
            failures.append({"argv": argv, "why": why})
    return {"loop": (start, time.perf_counter()),
            "intervals": intervals,
            "attempted": len(reqs),
            "failures": failures}
