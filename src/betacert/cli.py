"""Command-line surface: table reproduction, certification, data files.

Commands:
    tables      recompute the reference tables and flag every column
    certify     run an interval or point certification pipeline
    gaps        gap structure of a run-limited family, plot-ready CSV
    thickness   finite-depth thickness of a run-limited family
    count       per-depth branch profile of one point's expansions
    witness     the four interleaving witnesses at an order-k root

Exit codes: 0 everything certified or matched, 1 something uncertified
or mismatched, 2 usage, 3 precision or resource limits.

Precision: the --precision flag wins over the BETACERT_PREC environment
variable, which wins over the library default.  All precisions are
mantissa bits, minimum 64.

Base and point syntax (--q, --x): a decimal literal ("1.999"), a
rational "p/r" ("4/3"), "qk:<k>" for the order-k root, offset forms
"qk:<k>+<decimal>" / "qk:<k>-<decimal>" for exact displacements from an
irrational center, and "golden" as a synonym for qk:2.  The gaps and
thickness commands also accept --q auto, the order-k root for the
command's --k.

JSON documents are deterministic for identical flags and precision;
only the wall_time_ms field varies run to run.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import re
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from pathlib import Path
from typing import Optional, Sequence

from .certificate import (
    Certificate,
    STATUS_CERTIFIED,
    STATUS_FAILED,
    STATUS_UNCERTAIN,
    _float_pair,
)
from .certify import (
    k_threshold,
    reproduce_tables,
    theorem_a_certify,
    theorem_b_certify,
)
from .constructions import witness_points
from .expansions import count_prefixes
from .realnum import (
    DEFAULT_PRECISION,
    PrecisionError,
    _ENV_PRECISION,
    _precision_from_env,
    as_enclosure,
    bonacci_root,
    precision,
)
from .symbolic import ResourceError, gaps_of_Sk
from .thickness import sk_thickness

__all__ = ["RunConfig", "main", "parse_base"]


class UsageError(Exception):
    """Bad flag combination or unparsable value; maps to exit 2."""


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by every command."""
    precision_bits: int = DEFAULT_PRECISION
    depth: Optional[int] = None
    output_format: str = "text"
    output_path: Optional[str] = None

    def __post_init__(self):
        if self.precision_bits < 64:
            raise UsageError(
                f"precision must be at least 64 bits, got {self.precision_bits}")
        if self.depth is not None and self.depth < 1:
            raise UsageError(f"depth must be at least 1, got {self.depth}")
        if self.output_format not in ("json", "csv", "text"):
            raise UsageError(f"unknown format {self.output_format!r}")


_QK_FORM = re.compile(r"^qk:(\d+)(?:([+-])([0-9.eE+-]+))?$")


def _decimal_fraction(text: str) -> Fraction:
    try:
        return Fraction(Decimal(text))
    except (InvalidOperation, ValueError, OverflowError) as exc:  # Infinity overflows
        raise UsageError(f"cannot parse decimal {text!r}") from exc


def parse_base(text: str):
    """Parse the --q / --x grammar into an exact rational or enclosure."""
    t = text.strip()
    if t.lower() == "golden":
        t = "qk:2"
    got = _QK_FORM.match(t)
    if got:
        k = int(got.group(1))
        if k < 2:
            raise UsageError("root orders start at 2")
        root = bonacci_root(k).value
        if got.group(2) is None:
            return root
        offset = _decimal_fraction(got.group(3))
        return root + offset if got.group(2) == "+" else root - offset
    if "/" in t:
        num, _, den = t.partition("/")
        try:
            return Fraction(int(num), int(den))
        except (ValueError, ZeroDivisionError) as exc:
            raise UsageError(f"cannot parse rational {t!r}") from exc
    return _decimal_fraction(t)


def _emit_json(doc: dict, cfg: RunConfig) -> None:
    """Write the document to --out if given; print it in json mode."""
    text = json.dumps(doc, indent=2) + "\n"
    if cfg.output_path:
        Path(cfg.output_path).write_text(text)
    if cfg.output_format == "json":
        sys.stdout.write(text)


def _fmt_bounds(pair) -> str:
    lo, hi = pair
    return f"[{lo!r}, {hi!r}]" if lo != hi else repr(lo)


# ----------------------------------------------------------------- tables

def _tables_csv_rows(rep, table: int) -> tuple[list[str], list[list[str]]]:
    rows = [r for r in rep.rows if r.table == table]
    header = ["label"]
    for e in rows[0].entries:
        header += [e.column, f"{e.column}_reference", f"{e.column}_matched"]
    header.append("row_matched")
    body = []
    for r in rows:
        line = [r.label]
        for e in r.entries:
            line += [e.computed, e.reference, str(e.matched).lower()]
        line.append(str(r.matched).lower())
        body.append(line)
    return header, body


def _csv_text(header, body) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(body)
    return buf.getvalue()


def _tables_paths(cfg: RunConfig) -> tuple[Optional[Path], Optional[Path]]:
    if not cfg.output_path:
        return None, None
    base = Path(cfg.output_path)
    stem = base.with_suffix("") if base.suffix == ".csv" else base
    return (stem.parent / f"{stem.name}-main.csv",
            stem.parent / f"{stem.name}-three.csv")


def cmd_tables(cfg: RunConfig) -> int:
    with precision(cfg.precision_bits):
        rep = reproduce_tables()

    if cfg.output_format == "csv":
        main_path, three_path = _tables_paths(cfg)
        main_csv = _csv_text(*_tables_csv_rows(rep, 1))
        three_csv = _csv_text(*_tables_csv_rows(rep, 2))
        if main_path:
            main_path.write_text(main_csv)
            three_path.write_text(three_csv)
            print(f"wrote {main_path} and {three_path}")
        else:
            sys.stdout.write(main_csv + "\n" + three_csv)
    elif cfg.output_format == "json":
        _emit_json(rep.to_json_dict(), cfg)
    else:
        for table, title in ((1, "main pipeline"), (2, "three-expansions")):
            print(f"{title} reference rows:")
            for r in rep.rows:
                if r.table != table:
                    continue
                cells = "  ".join(
                    f"{e.column}={e.computed}"
                    f"{'' if e.matched else ' (reference ' + e.reference + ')'}"
                    for e in r.entries)
                mark = "ok " if r.matched else "DIFF"
                print(f"  {mark} {r.label:5s} {cells}")
        print(f"{rep.rows_matched}/{len(rep.rows)} rows match the reference "
              f"tables at {rep.precision_bits} bits")
        if cfg.output_path:
            _emit_json(rep.to_json_dict(), cfg)
    return 0 if rep.all_matched else 1


# ----------------------------------------------------------------- certify

def _certificate_text(cert: Certificate) -> str:
    lines = [f"claim: {cert.claim}"]
    for key, val in cert.params.items():
        if isinstance(val, list) and len(val) == 2:
            lines.append(f"  {key}: {_fmt_bounds(val)}")
        else:
            lines.append(f"  {key}: {val}")
    lines.append(f"grade: {cert.grade}")
    if cert.evidence_depth is not None:
        lines.append(f"evidence depth: {cert.evidence_depth}")
    counts = {}
    for c in cert.checks:
        counts[c.status] = counts.get(c.status, 0) + 1
    summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
    lines.append(f"checks ({summary}):")
    marks = {STATUS_CERTIFIED: "ok  ", STATUS_FAILED: "FAIL",
             STATUS_UNCERTAIN: "??  "}
    for c in cert.checks:
        lines.append(f"  {marks[c.status]} {c.name}")
    lines.append(f"certified: {'yes' if cert.certified else 'no'}")
    return "\n".join(lines) + "\n"


def cmd_certify(m: Optional[int], k: Optional[int], q_text: Optional[str],
                interval: bool, cfg: RunConfig) -> int:
    if k is None:
        raise UsageError("certify requires --k")
    if interval == (q_text is not None):
        raise UsageError("certify requires exactly one of --q or --interval")
    if m is not None and m < 1:
        raise UsageError(f"--m must be at least 1, got {m}")
    q = "interval" if interval else parse_base(q_text)

    with precision(cfg.precision_bits):
        if m is not None and (m >= 2 or k >= k_threshold(m)):
            cert = theorem_a_certify(m, k, q)
        elif m is not None and k < 9:
            cert = theorem_a_certify(m, k, q)  # reports the order shortfall
        else:
            # m absent, or m = 1 with an order only the three-expansions
            # band supports (three expansions is the m = 1 target count)
            cert = theorem_b_certify(k, q, depth=cfg.depth)

    if cfg.output_format == "text":
        sys.stdout.write(_certificate_text(cert))
    _emit_json(cert.to_json_dict(), cfg)
    return 0 if cert.certified else 1


# ----------------------------------------------------------------- gaps

def _family_base(q_text: Optional[str], k: int):
    if q_text is None or q_text.strip().lower() == "auto":
        return bonacci_root(k).value
    return parse_base(q_text)


def cmd_gaps(k: Optional[int], q_text: Optional[str], cfg: RunConfig) -> int:
    if k is None:
        raise UsageError("gaps requires --k")
    if k < 3:
        raise UsageError("gap families start at order 3 (order k-1 = 2)")
    depth = cfg.depth if cfg.depth is not None else 8
    with precision(cfg.precision_bits):
        q = _family_base(q_text, k)
        gapset = gaps_of_Sk(q, k - 1, depth)
        rows = []
        for g in gapset.gaps:
            left = float(g.left.mid)
            right = float(g.right.mid)
            rows.append([g.label, str(len(g.label)), repr(left), repr(right),
                         repr(right - left)])
        hull = (float(gapset.hull_lo.mid), float(gapset.hull_hi.mid))

    header = ["delta", "delta_length", "gap_left", "gap_right", "gap_width"]
    if cfg.output_format == "json":
        doc = {
            "family_order": k - 1,
            "base": _float_pair(q),
            "depth": depth,
            "hull": [hull[0], hull[1]],
            "gaps": [dict(zip(header, r)) for r in rows],
        }
        _emit_json(doc, cfg)
    else:
        text = _csv_text(header, rows)
        if cfg.output_path:
            Path(cfg.output_path).write_text(text)
            print(f"wrote {len(rows)} gaps to {cfg.output_path}")
        else:
            sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------- thickness

def cmd_thickness(k: Optional[int], q_text: Optional[str], cfg: RunConfig) -> int:
    if k is None:
        raise UsageError("thickness requires --k")
    if k < 3:
        raise UsageError("thickness families start at order 3 (order k-1 = 2)")
    depth = cfg.depth if cfg.depth is not None else 3 * k
    with precision(cfg.precision_bits):
        q = _family_base(q_text, k)
        value = sk_thickness(q, k - 1, depth)
        power = as_enclosure(q) ** (k - 4)
        exceeds = True if value.infinite else value.tau.gt(power)

    doc = {
        "family_order": k - 1,
        "base": _float_pair(q),
        "depth": depth,
        "tau": None if value.infinite else _float_pair(value.tau),
        "infinite": value.infinite,
        "gap_count": value.gap_count,
        "reference_power": k - 4,
        "reference_power_value": _float_pair(power),
        "exceeds_reference_power": exceeds,
    }
    if cfg.output_format == "text":
        print(f"family order {k - 1} at base {_fmt_bounds(doc['base'])}, "
              f"gap depth {depth}")
        tau_text = ("unbounded (no gaps)" if value.infinite
                    else _fmt_bounds(doc["tau"]))
        print(f"thickness: {tau_text} over {value.gap_count} gaps")
        verdict = {True: "exceeds", False: "does not exceed",
                   None: "cannot be separated from"}[exceeds]
        print(f"{verdict} the reference power q^{k - 4}"
              f" = {_fmt_bounds(doc['reference_power_value'])}")
    _emit_json(doc, cfg)
    return 0 if exceeds is True else 1


# ----------------------------------------------------------------- count

def cmd_count(q_text: Optional[str], x_text: Optional[str], cfg: RunConfig) -> int:
    if q_text is None or x_text is None:
        raise UsageError("count requires --q and --x")
    depth = cfg.depth if cfg.depth is not None else 200
    with precision(cfg.precision_bits):
        q = parse_base(q_text)
        x = parse_base(x_text)
        report = count_prefixes(q, x, depth=depth)

    doc = {
        "base": _float_pair(q),
        "x": _float_pair(report.x),
        "depth": report.depth,
        "certified_min": list(report.certified_min),
        "possible_max": list(report.possible_max),
        "stabilized": report.stabilized,
        "branch_events": [[d, _float_pair(v)] for d, v in report.branch_events],
        "nodes_processed": report.nodes_processed,
    }
    if cfg.output_format == "csv":
        header = ["depth", "certified_min", "possible_max"]
        rows = [[str(i + 1), str(lo), str(hi)]
                for i, (lo, hi) in enumerate(
                    zip(report.certified_min, report.possible_max))]
        text = _csv_text(header, rows)
        if cfg.output_path:
            Path(cfg.output_path).write_text(text)
            print(f"wrote profile to {cfg.output_path}")
        else:
            sys.stdout.write(text)
    elif cfg.output_format == "text":
        print(f"branch profile of x = {_fmt_bounds(doc['x'])} "
              f"at base {_fmt_bounds(doc['base'])}, depth {depth}")
        changes = [(0, report.certified_min[0], report.possible_max[0])]
        for i in range(1, len(report.certified_min)):
            pair = (report.certified_min[i], report.possible_max[i])
            if pair != (changes[-1][1], changes[-1][2]):
                changes.append((i, *pair))
        for i, lo, hi in changes:
            band = str(lo) if lo == hi else f"{lo}..{hi}"
            print(f"  depth {i + 1:4d}: count {band}")
        print(f"stabilized: {'yes' if report.stabilized else 'no'}; "
              f"{len(report.branch_events)} branch events; "
              f"{report.nodes_processed} nodes")
        _emit_json(doc, cfg)
    else:
        _emit_json(doc, cfg)
    return 0


# ----------------------------------------------------------------- witness

def cmd_witness(k: Optional[int], cfg: RunConfig) -> int:
    if k is None:
        raise UsageError("witness requires --k")
    with precision(cfg.precision_bits):
        ws = witness_points(k)
        margin = bonacci_root(k).value ** (-2 * k - 4)
        seps = []
        pts = ws.points
        for a, b in zip(pts, pts[1:]):
            seps.append(_float_pair(b.image - a.image))

    doc = {
        "k": k,
        "base": _float_pair(ws.q),
        "points": [
            {
                "label": p.label,
                "sequence": str(p.seq),
                "value": _float_pair(p.value),
                "image_sequence": str(p.image_seq),
                "image": _float_pair(p.image),
            }
            for p in pts
        ],
        "image_separations": seps,
        "min_image_separation": _float_pair(ws.min_image_separation),
        "interleaving_margin": _float_pair(margin),
        "certificate": ws.certificate.to_json_dict(),
    }
    if cfg.output_format == "text":
        print(f"four common points of both families at the order-{k} root "
              f"{_fmt_bounds(doc['base'])}:")
        for p in doc["points"]:
            print(f"  {p['label']}: value {_fmt_bounds(p['value'])}")
            print(f"        image {_fmt_bounds(p['image'])}  ({p['image_sequence']})")
        print(f"consecutive image separations: "
              + ", ".join(_fmt_bounds(s) for s in seps))
        print(f"minimum separation {_fmt_bounds(doc['min_image_separation'])} "
              f"vs twice the margin {_fmt_bounds(doc['interleaving_margin'])}")
        print(f"construction certified: "
              f"{'yes' if ws.certificate.certified else 'no'}")
    _emit_json(doc, cfg)
    return 0 if ws.certificate.certified else 1


# ----------------------------------------------------------------- plumbing

@functools.cache  # parse_args leaves the parser unchanged; built on first use
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betacert",
        description="certified interval computations for counting base-q "
                    "digit expansions")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, depth_default=None):
        p.add_argument("--precision", type=int, default=None,
                       help="working precision in mantissa bits (>= 64); "
                            f"overrides ${_ENV_PRECISION}")
        p.add_argument("--format", choices=("json", "csv", "text"),
                       default="text", dest="output_format")
        p.add_argument("--out", default=None, dest="output_path",
                       help="write the JSON/CSV document(s) to this path")
        p.add_argument("--depth", type=int, default=depth_default,
                       help="finite-depth budget where the command takes one")

    p = sub.add_parser("tables", help="recompute the reference tables")
    common(p)

    p = sub.add_parser("certify", help="run a certification pipeline")
    common(p)
    p.add_argument("--m", type=int, default=None,
                   help="target count minus 2 for the main pipeline")
    p.add_argument("--k", type=int, default=None, help="root order")
    p.add_argument("--q", default=None, help="concrete base (see syntax)")
    p.add_argument("--interval", action="store_true",
                   help="certify the whole pinned band")

    p = sub.add_parser("gaps", help="gap structure of a run-limited family")
    common(p)
    p.add_argument("--k", type=int, default=None,
                   help="order: the command works with the order-(k-1) "
                        "family at the order-k root by default")
    p.add_argument("--q", default="auto", help="base, or auto for the order-k root")

    p = sub.add_parser("thickness", help="finite-depth family thickness")
    common(p)
    p.add_argument("--k", type=int, default=None,
                   help="order: the command works with the order-(k-1) "
                        "family at the order-k root by default")
    p.add_argument("--q", default="auto", help="base, or auto for the order-k root")

    p = sub.add_parser("count", help="branch profile of one point")
    common(p)
    p.add_argument("--q", default=None, help="base (see syntax)")
    p.add_argument("--x", default=None, help="the point (same syntax)")

    p = sub.add_parser("witness", help="the four interleaving witnesses")
    common(p)
    p.add_argument("--k", type=int, default=None, help="root order (>= 9)")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = RunConfig(
            precision_bits=(_precision_from_env() if args.precision is None
                            else args.precision),
            depth=args.depth,
            output_format=args.output_format,
            output_path=args.output_path,
        )
        if args.command == "tables":
            return cmd_tables(cfg)
        if args.command == "certify":
            return cmd_certify(args.m, args.k, args.q, args.interval, cfg)
        if args.command == "gaps":
            return cmd_gaps(args.k, args.q, cfg)
        if args.command == "thickness":
            return cmd_thickness(args.k, args.q, cfg)
        if args.command == "count":
            return cmd_count(args.q, args.x, cfg)
        if args.command == "witness":
            return cmd_witness(args.k, cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrecisionError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
