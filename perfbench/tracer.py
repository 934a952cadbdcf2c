"""Outside-in span recorder for the traced benchmark run.

The recorder wraps public functions of each betacert module from the
outside; nothing under ``src/`` knows about it.  ``from .x import f``
copies the binding into every importing module, so a call such as
``newhouse_certificate -> thickness`` goes through the importer's copy:
the recorder therefore replaces every module-level binding of a wrapped
function in every loaded betacert module, and restores all of them on
``uninstall``.

A span is (name, start_ns, end_ns, index of the parent span or -1,
request id, [quantity, size] or None).  Spans stay in memory until
``write``.  Enclosure comparisons (``lt``/``le``/``gt``/
``ge``) and endpoint reads (``.lo``/``.hi``) are counted, not timed: they
run millions of times and a span each would swamp what they measure.
"""

from __future__ import annotations

import json
import sys
import time
from functools import wraps
from pathlib import Path
from typing import Callable


def _gaps_of_result(args, result):
    return len(result.gaps)


def _gaps_of_first_arg(args, result):
    return len(args[0].gaps)


def _nodes(args, result):
    return result.nodes_processed


# (module, function, span name, (quantity, size of one call) or None)
FUNCTIONS = (
    ("realnum", "bonacci_root", "realnum.bonacci_root", None),
    ("realnum", "pi_q", "realnum.pi_q", None),
    ("symbolic", "gaps_of_Sk", "symbolic.gaps_of_Sk", ("gaps", _gaps_of_result)),
    ("thickness", "thickness", "thickness.thickness", ("gaps", _gaps_of_first_arg)),
    ("thickness", "affine_image", "thickness.affine_image", None),
    ("thickness", "newhouse_certificate", "thickness.newhouse_certificate", None),
    ("thickness", "sk_thickness", "thickness.sk_thickness", None),
    ("constructions", "aq_gapset", "constructions.aq_gapset",
     ("gaps", _gaps_of_result)),
    ("constructions", "witness_points", "constructions.witness_points", None),
    ("constructions", "fixed_expansion_of_one",
     "constructions.fixed_expansion_of_one", None),
    ("constructions", "pq_hull_data", "constructions.pq_hull_data", None),
    ("constructions", "pq_certificate", "constructions.pq_certificate", None),
    ("expansions", "count_prefixes", "expansions.count_prefixes", ("nodes", _nodes)),
    ("certify", "theorem_a_certify", "certify.theorem_a_certify", None),
    ("certify", "theorem_b_certify", "certify.theorem_b_certify", None),
    ("certify", "reproduce_tables", "certify.reproduce_tables", None),
    ("certify", "k_threshold", "certify.k_threshold", None),
    ("cli", "main", "cli.main", None),
)

# (module, class, method, span name, (quantity, size of one call) or None)
METHODS = (
    ("thickness", "GapSet", "__post_init__", "thickness.gapset_validate",
     ("gaps", _gaps_of_first_arg)),
    ("thickness", "GapSet", "point_in", "thickness.point_in", None),
    ("certificate", "Certificate", "to_json_dict", "certificate.to_json_dict", None),
)

SPAN_NAMES = tuple(f[2] for f in FUNCTIONS) + tuple(m[3] for m in METHODS)
SIZE_NAMES = tuple(f"{f[2]}.{f[3][0]}" for f in FUNCTIONS if f[3]) + \
    tuple(f"{m[3]}.{m[4][0]}" for m in METHODS if m[4])
#: span of a reference-speed probe (speed.py): subtracted from the self time
#: of the span it interrupts, and not reported itself
PROBE_SPAN = "speed.probe"
COMPARES = ("lt", "le", "gt", "ge")
ENDPOINTS = ("lo", "hi")


class Recorder:
    """Span and counter store with the patches that feed it."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts = {"realnum.enclosure.compares": 0,
                       "realnum.enclosure.endpoint_reads": 0}
        self.request_id = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def timed(self, name: str, fn: Callable, size=None) -> Callable:
        """``fn`` wrapped to record a span per call."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        quantity, measure = size if size is not None else (None, None)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request_id, None)
            if measure is not None:
                spans[index] = (name, start, end, parent, self.request_id,
                                [quantity, measure(args, result)])
            return result
        return wrapper

    def _counted(self, counter: str, fn: Callable) -> Callable:
        counts = self.counts

        @wraps(fn)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- patching --------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind_everywhere(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "betacert" and not modname.startswith("betacert."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        """Patch the loaded betacert modules; ``uninstall`` undoes it."""
        modules = {name: sys.modules[f"betacert.{name}"] for name in
                   ("realnum", "symbolic", "thickness", "constructions",
                    "expansions", "certificate", "certify", "cli")}
        for mod, fn_name, span, size in FUNCTIONS:
            original = getattr(modules[mod], fn_name)
            self._rebind_everywhere(original, self.timed(span, original, size))
        for mod, cls_name, meth, span, size in METHODS:
            cls = getattr(modules[mod], cls_name)
            self._set(cls, meth, self.timed(span, cls.__dict__[meth], size))
        enclosure = modules["realnum"].Enclosure
        for meth in COMPARES:
            self._set(enclosure, meth,
                      self._counted("realnum.enclosure.compares", enclosure.__dict__[meth]))
        for prop in ENDPOINTS:
            fget = enclosure.__dict__[prop].fget
            self._set(enclosure, prop,
                      property(self._counted("realnum.enclosure.endpoint_reads", fget)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- output ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write the counters, then one span per line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"counts": self.counts}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_totals(path: Path) -> dict[str, float]:
    """Per-layer totals of one traced pass: calls, self time and sizes per
    span name, plus the counters.  Self time is a span's duration minus the
    durations of its direct child spans (calls are nested, one thread)."""
    with open(path) as fh:
        totals = dict(json.loads(fh.readline())["counts"])
        spans = [json.loads(line) for line in fh]
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    for name in SPAN_NAMES:
        totals[f"{name}.calls"] = 0
        totals[f"{name}.self_ms"] = 0.0
    for key in SIZE_NAMES:
        totals[key] = 0
    for i, (name, start, end, _, _, n) in enumerate(spans):
        if name == PROBE_SPAN:
            continue
        totals[f"{name}.calls"] += 1
        totals[f"{name}.self_ms"] += (end - start - child_ns[i]) / 1e6
        if n is not None:
            totals[f"{name}.{n[0]}"] += n[1]
    return totals
