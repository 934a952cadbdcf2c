"""Command-line surface tests.

The CLI is plumbing over already-tested library calls, so the oracles
here are the documented contract itself: exit codes (0 certified or
matched, 1 not, 2 usage, 3 precision/resource), the base-syntax grammar,
file emission, environment-variable precedence, and byte-determinism of
the JSON documents modulo the wall_time_ms field.  Everything runs
in-process through main(argv) so stdout/stderr and exit codes can be
captured without spawning interpreters.
"""

import contextlib
import io
import json
import re
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betacert import realnum
from betacert.certificate import _json_text
from betacert.cli import RunConfig, UsageError, main, parse_base
from betacert.expansions import count_prefixes
from betacert.realnum import bonacci_root
from betacert.symbolic import _admissible_count, gaps_of_Sk


def run(argv):
    """main() with captured stdout/stderr; returns (code, out, err)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def run_json(argv):
    code, out, err = run(argv)
    assert err == "", f"unexpected stderr: {err}"
    return code, json.loads(out)


# ----------------------------------------------------------------------
# base / point syntax
# ----------------------------------------------------------------------

def test_parse_decimal_is_exact():
    assert parse_base("1.999") == F(1999, 1000)
    assert parse_base("1") == F(1)
    # scientific notation is exact too, up to an exponent of 400
    assert parse_base("1e-8") == F(1, 10**8)
    assert parse_base("3e400") == 3 * 10 ** 400
    # past int()'s 4,300-digit limit for strings
    assert parse_base("1" * 5000) == (10 ** 5000 - 1) // 9


def test_parse_rational():
    assert parse_base("4/3") == F(4, 3)
    assert parse_base("1999/1000") == F(1999, 1000)


def test_parse_root_forms():
    root = bonacci_root(9).value
    q = parse_base("qk:9")
    assert q.lo == root.lo and q.hi == root.hi
    # offsets are added in outward-rounded arithmetic: the result must
    # enclose the exactly displaced root band and stay razor thin
    shifted = parse_base("qk:9+0.00000001")
    assert shifted.lo <= root.lo + F(1, 10**8) <= root.hi + F(1, 10**8) <= shifted.hi
    assert shifted.hi - shifted.lo < F(1, 10**60)
    below = parse_base("qk:9-0.25")
    assert below.lo <= root.lo - F(1, 4) <= root.hi - F(1, 4) <= below.hi


def test_parse_golden_synonym():
    g = parse_base("golden")
    q2 = parse_base("qk:2")
    assert (g.lo, g.hi) == (q2.lo, q2.hi)


@pytest.mark.parametrize("bad", [
    "qk:1",          # roots start at order 2
    "qk:nine",
    "1.2.3",
    "4/0",
    "one",
    "qk:9+bogus",
    "inf",           # a decimal must be finite
    "-Infinity",
])
def test_parse_rejects_garbage(bad):
    with pytest.raises(UsageError):
        parse_base(bad)


def test_runconfig_invariants():
    with pytest.raises(UsageError):
        RunConfig(precision_bits=40)
    with pytest.raises(UsageError):
        RunConfig(depth=0)
    with pytest.raises(UsageError):
        RunConfig(output_format="yaml")
    cfg = RunConfig()
    assert cfg.precision_bits >= 64 and cfg.output_format == "text"


# ----------------------------------------------------------------------
# certify: routing and exit codes
# ----------------------------------------------------------------------

def test_certify_usage_errors_exit_2():
    assert run(["certify", "--q", "1.9"])[0] == 2                  # no --k
    assert run(["certify", "--m", "0", "--k", "31", "--interval"])[0] == 2
    assert run(["certify", "--m", "1", "--k", "31"])[0] == 2       # neither
    assert run(["certify", "--m", "1", "--k", "31", "--q", "1.9",
                "--interval"])[0] == 2                             # both
    assert run(["certify", "--k", "8", "--interval"])[0] == 2      # order < 9


def test_certify_main_pipeline_interval():
    code, doc = run_json(["certify", "--m", "1", "--k", "31",
                          "--interval", "--format", "json"])
    assert code == 0
    assert doc["claim"] == "pinned-interval-m-plus-2"
    assert doc["params"]["verdict"] == "complete"
    assert doc["params"]["mode"] == "interval"
    assert doc["certified"] is True


def test_certify_three_expansions_interval():
    code, doc = run_json(["certify", "--k", "10", "--interval",
                          "--format", "json"])
    assert code == 0
    assert doc["claim"] == "pinned-interval-three"
    assert doc["certified"] is True


def test_certify_m1_low_order_takes_three_expansion_route():
    # m = 1 asks for three expansions; at orders below the main pipeline's
    # threshold the three-expansions band is the route that can certify it
    code, doc = run_json(["certify", "--m", "1", "--k", "9",
                          "--q", "qk:9+0.00000001", "--format", "json"])
    assert code == 0
    assert doc["claim"] == "pinned-interval-three"
    assert doc["params"]["mode"] == "point"
    assert doc["params"]["verdict"] == "complete"


def test_certify_below_threshold_exits_1():
    code, doc = run_json(["certify", "--m", "2", "--k", "20",
                          "--interval", "--format", "json"])
    assert code == 1
    assert doc["params"]["verdict"] == "hypothesis-not-met"
    assert doc["certified"] is False


def test_certify_point_off_band_exits_1():
    code, doc = run_json(["certify", "--k", "10", "--q", "1.5",
                          "--format", "json"])
    assert code == 1
    assert doc["params"]["verdict"] == "hypothesis-not-met"


def test_certify_text_mode_prints_summary_and_writes_json(tmp_path):
    out_path = tmp_path / "cert.json"
    code, out, err = run(["certify", "--m", "1", "--k", "31", "--interval",
                          "--out", str(out_path)])
    assert code == 0
    assert "claim: pinned-interval-m-plus-2" in out
    assert "certified: yes" in out
    assert re.search(r"ok\s+dimension_bound_positive", out)
    doc = json.loads(out_path.read_text())
    assert doc["certified"] is True


def test_certify_depth_flag_reaches_pipeline():
    code, doc = run_json(["certify", "--k", "10", "--interval",
                          "--depth", "8", "--format", "json"])
    assert code == 0
    assert doc["params"]["gap_depth"] == 8


# ----------------------------------------------------------------------
# determinism of the JSON documents
# ----------------------------------------------------------------------

def test_certify_json_deterministic_modulo_wall_time():
    argv = ["certify", "--m", "1", "--k", "31", "--interval",
            "--format", "json"]
    _, first, _ = run(argv)
    _, second, _ = run(argv)
    strip = lambda s: re.sub(r'"wall_time_ms": [0-9.]+', '"wall_time_ms": X', s)
    assert strip(first) == strip(second)
    doc = json.loads(first)
    assert list(doc)[-1] == "wall_time_ms"


#: certify requests of both pipelines, bands and points, a point off its
#: band among them
CROSS_PRECISION = [
    ["--k", "9", "--interval"], ["--k", "11", "--interval"], ["--k", "13", "--interval"],
    ["--k", "9", "--q", "qk:9+3.8145e-8"], ["--k", "10", "--q", "qk:10-1.3206e-8"],
    ["--k", "11", "--q", "qk:11-1.8755e-9"], ["--k", "12", "--q", "qk:12+1.1684e-10"],
    ["--k", "13", "--q", "qk:13-8.7482e-11"],
    ["--m", "1", "--k", "31", "--interval"], ["--m", "2", "--k", "35", "--interval"],
    ["--m", "3", "--k", "40", "--interval"], ["--m", "4", "--k", "33", "--interval"],
    ["--m", "5", "--k", "36", "--interval"], ["--m", "5", "--k", "38", "--interval"],
    ["--m", "1", "--k", "31", "--q", "qk:31+4.7332e-30"],
    ["--m", "2", "--k", "36", "--q", "qk:36-4.2039e-45"],
    ["--m", "3", "--k", "34", "--q", "qk:34+7.3083e-53"],
    ["--m", "4", "--k", "40", "--q", "qk:40-1.7687e-74"],
    ["--m", "5", "--k", "33", "--q", "qk:33+1.8111e-71"],
    ["--m", "2", "--k", "33", "--q", "qk:33+1e-40"],
]


def test_certify_agrees_with_itself_across_precisions():
    # outward rounding: a check certified at one precision never fails at
    # another, and each parameter's enclosures meet; run in one process,
    # 256 bits after 512 must give 256's document again, whatever realnum
    # kept from the runs before
    mask = lambda s: re.sub(r'"wall_time_ms": [0-9.e-]+', '"wall_time_ms": X', s)
    for argv in CROSS_PRECISION:
        outs = [run(["certify", *argv, "--precision", bits, "--format", "json"])[1]
                for bits in ("256", "512", "256")]
        assert mask(outs[0]) == mask(outs[2]), argv
        docs = [json.loads(out) for out in outs[:2]]
        status = [{c["name"]: c["status"] for c in doc["checks"]} for doc in docs]
        for name in status[0].keys() & status[1].keys():
            assert {status[0][name], status[1][name]} != {"certified", "failed"}, (argv, name)
        for name, value in docs[0]["params"].items():
            if isinstance(value, list):
                (a, b), (c, d) = value, docs[1]["params"][name]
                assert a <= d and c <= b, (argv, name)


#: the refusal documents no benchmark golden holds: below the order
#: threshold, off the band at m = 1 and at k = 10, and below the one-sided
#: order-9 root; recorded with wall_time_ms masked to null
REFUSALS = json.loads(
    (Path(__file__).parent / "refusal_documents.json").read_text())


@pytest.mark.parametrize("case", REFUSALS, ids=lambda c: " ".join(c["argv"][:-2]))
def test_certify_refusal_documents_are_pinned(case):
    code, doc = run_json(case["argv"])
    assert code == 1
    assert list(doc)[-1] == "wall_time_ms" and doc["wall_time_ms"] > 0
    doc["wall_time_ms"] = None
    # text comparison, so the key order is compared too
    assert json.dumps(doc, indent=2) == json.dumps(case["document"], indent=2)


# ----------------------------------------------------------------------
# tables
# ----------------------------------------------------------------------

def test_tables_text_reports_mismatches_and_exits_1():
    code, out, err = run(["tables"])
    assert code == 1
    assert "5/10 rows match" in out
    # the three-expansions table reproduces; the main table does not
    assert out.count("DIFF") == 5
    assert out.count("ok ") >= 5


def test_tables_json_document():
    code, doc = run_json(["tables", "--format", "json"])
    assert code == 1
    assert doc["rows_matched"] == 5 and doc["rows_total"] == 10
    assert doc["all_matched"] is False
    assert doc["precision_bits"] >= 255


def test_tables_csv_writes_two_files(tmp_path):
    out = tmp_path / "tables.csv"
    code, stdout, _ = run(["tables", "--format", "csv", "--out", str(out)])
    assert code == 1
    main_file = tmp_path / "tables-main.csv"
    three_file = tmp_path / "tables-three.csv"
    assert main_file.exists() and three_file.exists()
    main_lines = main_file.read_text().strip().split("\n")
    three_lines = three_file.read_text().strip().split("\n")
    assert len(main_lines) == 6 and len(three_lines) == 6   # header + 5 rows
    assert main_lines[0].startswith("label,threshold,threshold_reference")
    assert three_lines[0].startswith("label,root,root_reference")
    # every root cell in the main table disagrees with the reference
    assert all("false" in line for line in main_lines[1:])
    assert all(line.endswith("true") for line in three_lines[1:])


def test_tables_csv_to_stdout_without_out():
    code, out, _ = run(["tables", "--format", "csv"])
    assert code == 1
    assert out.startswith("label,threshold")
    assert "label,root" in out  # second table follows


def test_tables_insufficient_precision_exits_3():
    code, out, err = run(["tables", "--precision", "64"])
    assert code == 3
    assert "255" in err


def test_certify_widening_walk_fails_fast_on_precision():
    # at 64 bits the three-expansion branch walk's nodes outgrow the switch
    # region near depth 60; the walk used to grind on into the node budget
    # for half a minute and blame it
    start = time.perf_counter()
    code, out, err = run(["certify", "--k", "10", "--interval", "--precision", "64"])
    assert code == 3
    assert "enclosure widening" in err and "--precision" in err
    assert "node budget" not in err
    assert time.perf_counter() - start < 5


#: a request per command, both pipelines among them, and a usage error
#: whose message prints the order-9 root
_EVERY_COMMAND = [
    ["tables"],
    ["certify", "--k", "10", "--interval"],
    ["certify", "--m", "1", "--k", "31", "--interval"],
    ["gaps", "--k", "10", "--depth", "3"],
    ["thickness", "--k", "10", "--depth", "50"],
    ["count", "--q", "3/2", "--x", "1/2", "--depth", "30"],
    ["witness", "--k", "9"],
    ["thickness", "--k", "10", "--q", "1.5"],
]


def test_three_band_certificate_takes_no_mpmath_power(monkeypatch):
    # no command needs mpmath: with every mpmath module unimportable, each
    # gives the exit code and output it gives with them
    def masked(argv):
        code, out, err = run(argv)
        return code, re.sub(r'"wall_time_ms": [0-9.]+', "", out), err

    with monkeypatch.context() as blocked:
        for name in {"mpmath"} | {n for n in sys.modules if n.split(".")[0] == "mpmath"}:
            blocked.setitem(sys.modules, name, None)
        realnum._power.cache_clear()  # no power kept from an earlier test may serve
        got = [masked(argv) for argv in _EVERY_COMMAND]
    assert got == [masked(argv) for argv in _EVERY_COMMAND]
    assert [code for code, _, _ in got] == [1, 0, 0, 0, 0, 0, 0, 2]


def test_base_below_the_root_names_an_interval_around_it():
    # the printed root is an enclosure: read back, it contains the root's
    code, _, err = run(["thickness", "--k", "10", "--q", "1.5"])
    assert code == 2
    printed = realnum.Enclosure(re.search(r"\[.*\]", err).group())
    root = bonacci_root(9).value
    assert printed.lo <= root.lo and root.hi <= printed.hi


def test_precision_below_floor_is_usage_error():
    assert run(["tables", "--precision", "40"])[0] == 2


# ----------------------------------------------------------------------
# environment variable
# ----------------------------------------------------------------------

def test_env_precision_honored(monkeypatch):
    monkeypatch.setenv("BETACERT_PREC", "128")
    assert run(["tables"])[0] == 3          # 128 < the tables floor


def test_env_precision_overridden_by_flag(monkeypatch):
    monkeypatch.setenv("BETACERT_PREC", "128")
    assert run(["tables", "--precision", "256"])[0] == 1


def test_env_precision_garbage_is_usage_error(monkeypatch):
    monkeypatch.setenv("BETACERT_PREC", "lots")
    assert run(["tables"])[0] == 2


# ----------------------------------------------------------------------
# gaps
# ----------------------------------------------------------------------

def test_gaps_csv_shape(tmp_path):
    out = tmp_path / "gaps.csv"
    code, stdout, _ = run(["gaps", "--k", "10", "--depth", "6",
                           "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "delta,delta_length,gap_left,gap_right,gap_width"
    assert len(lines) > 1
    for line in lines[1:]:
        delta, length, left, right, width = line.split(",")
        assert set(delta) <= {"0", "1"} and int(length) == len(delta)
        assert float(right) > float(left) and float(width) > 0


def test_gaps_json_matches_csv_row_count():
    code, doc = run_json(["gaps", "--k", "10", "--depth", "6",
                          "--format", "json"])
    assert code == 0
    assert doc["family_order"] == 9 and doc["depth"] == 6
    code2, out, _ = run(["gaps", "--k", "10", "--depth", "6"])
    assert len(out.strip().split("\n")) - 1 == len(doc["gaps"])


def test_gaps_requires_sane_order():
    assert run(["gaps", "--depth", "4"])[0] == 2       # no --k
    assert run(["gaps", "--k", "2", "--depth", "4"])[0] == 2
    # the order-2 family's gaps touch at every depth: the library refuses
    code, out, err = run(["gaps", "--k", "3", "--depth", "1"])
    assert (code, out) == (2, "") and "order-2" in err


# ----------------------------------------------------------------------
# thickness
# ----------------------------------------------------------------------

def test_thickness_exceeds_reference_power():
    code, doc = run_json(["thickness", "--k", "10", "--q", "auto",
                          "--depth", "24", "--format", "json"])
    assert code == 0
    assert doc["family_order"] == 9
    assert doc["exceeds_reference_power"] is True
    q_hi = doc["base"][1]
    assert doc["tau"][0] > q_hi ** 6


def test_thickness_explicit_base_below_root_is_usage_error():
    # the family needs a base certifiably above its defining root
    assert run(["thickness", "--k", "10", "--q", "1.5"])[0] == 2
    # and an order of at least 3: the library refuses the order-2 family,
    # whose gaps touch
    code, out, err = run(["thickness", "--k", "3"])
    assert (code, out) == (2, "") and "order-2" in err


def test_thickness_text_mode():
    code, out, _ = run(["thickness", "--k", "10", "--depth", "24"])
    assert code == 0
    assert "exceeds the reference power q^6" in out


def test_thickness_reports_the_family_gap_count():
    # the closed form builds no gaps, but the count is the whole family's
    family = gaps_of_Sk(bonacci_root(10).value, 9, 8)
    code, doc = run_json(["thickness", "--k", "10", "--depth", "8",
                          "--format", "json"])
    assert code == 0
    assert doc["gap_count"] == len(family.gaps) > 0
    code, out, _ = run(["thickness", "--k", "10", "--depth", "8"])
    assert f"over {len(family.gaps)} gaps" in out


def _digits_value(digits: str) -> int:
    # int(digits) is refused past the interpreter's int-to-str limit, so
    # read the digits a thousand at a time
    value = 0
    for i in range(0, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    return value


def test_thickness_prints_a_gap_count_past_the_int_to_str_limit():
    # the exact count at depth 15000 has more than 4300 digits, which the
    # interpreter will not convert in one piece; the request is valid and
    # exits 0 with every digit, in JSON and in text
    expected = _admissible_count(9, 15000)
    code, out, err = run(["thickness", "--k", "10", "--depth", "15000",
                          "--format", "json"])
    assert (code, err) == (0, "")
    [digits] = re.findall(r'"gap_count": (\d+),', out)
    assert len(digits) > 4300
    assert _digits_value(digits) == expected
    code, out, _ = run(["thickness", "--k", "10", "--depth", "15000"])
    assert code == 0
    [digits] = re.findall(r"over (\d+) gaps", out)
    assert _digits_value(digits) == expected
    assert _json_text([-expected]) == "[\n  -" + digits + "\n]"
    # chunks of zeros inside the number keep their width
    assert _json_text({"n": 10 ** 5000}) == '{\n  "n": 1' + "0" * 5000 + "\n}"


# ----------------------------------------------------------------------
# count
# ----------------------------------------------------------------------

def test_count_golden_profile_grows():
    code, doc = run_json(["count", "--q", "golden", "--x", "1",
                          "--depth", "30", "--format", "json"])
    assert code == 0
    # true count at depth d is d + 1; the possible count tracks it exactly
    # while the certified floor stays honest at the boundary coincidence
    assert doc["possible_max"] == list(range(2, 32))
    assert set(doc["certified_min"]) == {1}
    assert doc["stabilized"] is False


def test_count_csv_profile(tmp_path):
    out = tmp_path / "profile.csv"
    code, _, _ = run(["count", "--q", "golden", "--x", "1", "--depth", "10",
                      "--format", "csv", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "depth,certified_min,possible_max"
    assert len(lines) == 11
    assert lines[1] == "1,1,2" and lines[10] == "10,1,11"


def test_count_unique_point_stabilizes():
    # the attractor's right endpoint at q = 3/2 stays exactly representable
    # through the walk, so its trivial expansion certifies at both ends
    code, doc = run_json(["count", "--q", "3/2", "--x", "2",
                          "--depth", "60", "--format", "json"])
    assert code == 0
    assert doc["certified_min"][-1] == doc["possible_max"][-1] == 1
    assert doc["stabilized"] is True


def test_count_requires_both_q_and_x():
    assert run(["count", "--q", "golden"])[0] == 2
    assert run(["count", "--x", "1"])[0] == 2


@pytest.mark.parametrize("q", ["1e9999999", "-1e9999999", "1e-9999999", "2", "1"])
def test_count_refuses_a_decimal_base_outside_the_range_fast(q):
    # decided on the Decimal: the exact parse of 1e9999999 alone builds a
    # ten-million-digit integer, about 12 s
    start = time.perf_counter()
    code, out, err = run(["count", f"--q={q}", "--x", "1"])
    assert (code, out) == (2, "")
    assert "q must be certifiably inside (1, 2)" in err
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("x", ["1e9999999", "-1e9999999", "2.5"])
def test_count_refuses_a_decimal_point_outside_the_attractor_fast(x):
    # decided on the Decimal where its exponent alone places it above
    # 1/(q-1) = 2 or its sign below 0; 2.5 takes the exact route
    start = time.perf_counter()
    code, out, err = run(["count", "--q", "1.5", f"--x={x}", "--depth", "5"])
    assert (code, out) == (2, "")
    assert "x is certifiably outside the attractor [0, 1/(q-1)]" in err
    assert time.perf_counter() - start < 2


def test_count_takes_a_zero_with_a_large_exponent_as_zero():
    # 0e9999999 has the exponent of a huge number, but is 0: in the attractor
    code, out, _ = run(["count", "--q", "1.5", "--x", "0e9999999", "--depth", "5"])
    assert code == 0 and "count 1" in out


@pytest.mark.parametrize("q, x, depth", [("3/2", "11/20", 30), ("8/5", "3/10", 40),
                                          ("golden", "1", 10)])
def test_count_json_writes_branch_events_as_float_bounds_rows(q, x, depth):
    # the writer rounds each event's ends to doubles itself; the document
    # built from float_bounds rows must read the same through json.dumps
    code, out, err = run(["count", "--q", q, "--x", x, "--depth", str(depth),
                          "--format", "json"])
    assert code == 0 and err == ""
    base, point = parse_base(q), parse_base(x)
    report = count_prefixes(base, point, depth=depth)
    doc = {
        "base": list(realnum.as_enclosure(base).float_bounds()),
        "x": list(report.x.float_bounds()),
        "depth": report.depth,
        "certified_min": list(report.certified_min),
        "possible_max": list(report.possible_max),
        "stabilized": report.stabilized,
        "branch_events": [[d, list(v.float_bounds())] for d, v in report.branch_events],
        "nodes_processed": report.nodes_processed,
    }
    assert bool(doc["branch_events"]) == (q != "golden")
    assert out == json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("argv, code, message", [
    # past the exact exponent bound a literal is its mantissa times an
    # outward-rounded power of ten, which each range check decides at once
    (["certify", "--k", "10", "--q", "1e999999999999"], 1, ""),
    (["count", "--q", "1.5", "--x", "1e-999999999999", "--depth", "200"], 0, ""),
    (["count", "--q", "1.5", "--x", "1e999999999999"], 2,
     "x is certifiably outside the attractor [0, 1/(q-1)]"),
    (["count", "--q", "qk:10+1e-9999999", "--x", "1/2"], 0, ""),
])
def test_literals_with_huge_exponents_are_decided_fast(argv, code, message):
    start = time.perf_counter()
    got, _, err = run(argv)
    assert got == code and message in err
    assert time.perf_counter() - start < 2


def test_gap_family_at_a_base_with_a_huge_exponent_exits_with_a_contract_code():
    # the gaps' validation orders their ends without shifting any end to the
    # least exponent (here some 3.3e12 bits); gaps whose separation 256 bits
    # cannot decide are a precision limit (3), not a usage error (2)
    start = time.perf_counter()
    code, _, err = run(["gaps", "--k", "10", "--q", "1e999999999999"])
    assert code == 3 and "--precision" in err
    assert time.perf_counter() - start < 2


def test_three_expansions_band_at_every_order_exits_0_or_3():
    # the cover depth 2k + 8 covers the spine's forced prefix 2k + 4 at
    # every order; where 256 bits cannot resolve the band the pin check is
    # uncertain, a precision limit, never a usage error
    for k in (9, 14, 19, 23, 30, 40, 60, 100, 120, 130):
        code, out, err = run(["certify", "--k", str(k), "--interval",
                              "--precision", "256", "--format", "json"])
        assert code in (0, 3), (k, code, err)
        if code == 3:
            assert "--precision" in err


# ----------------------------------------------------------------------
# witness
# ----------------------------------------------------------------------

def test_witness_prints_four_points_and_certifies():
    code, out, _ = run(["witness", "--k", "9"])
    assert code == 0
    for tail in ("0100", "0110", "1100", "1110"):
        assert tail in out
    assert "construction certified: yes" in out


def test_witness_json_document():
    code, doc = run_json(["witness", "--k", "9", "--format", "json"])
    assert code == 0
    assert doc["k"] == 9
    assert [p["label"] for p in doc["points"]] == ["0100", "0110",
                                                   "1100", "1110"]
    assert len(doc["image_separations"]) == 3
    assert doc["certificate"]["certified"] is True
    # images strictly increase and separations beat twice the margin
    images = [p["image"] for p in doc["points"]]
    assert all(a[1] < b[0] for a, b in zip(images, images[1:]))
    assert doc["min_image_separation"][0] > 2 * doc["interleaving_margin"][1]


def test_witness_low_order_is_usage_error():
    assert run(["witness", "--k", "5"])[0] == 2


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "10", "--interval"],
    ["thickness", "--k", "10"],
    ["witness", "--k", "9"],
])
def test_csv_format_is_a_usage_error_where_no_csv_exists(argv, tmp_path):
    out_path = tmp_path / "x.csv"
    code, out, err = run(argv + ["--format", "csv", "--out", str(out_path)])
    assert code == 2
    assert out == ""
    assert "text or json" in err
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [
    ["tables", "--depth", "5"],
    ["witness", "--k", "9", "--depth=5"],
    ["certify", "--m", "2", "--k", "40", "--interval", "--depth", "5"],
    ["certify", "--m", "1", "--k", "31", "--interval", "--depth", "5"],
])
def test_depth_is_a_usage_error_where_nothing_reads_it(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects an undeclared flag
            code = exc.code
    assert code == 2
    assert out.getvalue() == ""
    assert "--depth applies to gaps, thickness, count" in err.getvalue()


# ----------------------------------------------------------------------
# the JSON writer
# ----------------------------------------------------------------------

json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2, 2),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([-0.0, 1e308, 5e-324, float("nan"), float("-inf")]),
    st.text(), st.text(st.characters(max_codepoint=0x20)),
    st.text(st.characters(min_codepoint=0x7f)))
# lists of rows shaped like branch events [depth, [lo, hi]], and near misses:
# nested lists of ints and floats, each item written on its own
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
row_depths = st.one_of(st.integers(), st.sampled_from([2 ** 63 - 1, 2 ** 63, -(2 ** 63)]))
event_pairs = st.builds(lambda lo, hi: [lo, hi], finite_floats, finite_floats)
event_rows = st.builds(lambda d, pair: [d, pair], row_depths, event_pairs)
near_miss_rows = st.one_of(
    st.builds(lambda b, pair: [b, pair], st.booleans(), event_pairs),
    st.builds(lambda d, n, x: [d, [n, x]], row_depths, st.integers(), finite_floats),
    st.builds(lambda d, x, n: [d, [x, n]], row_depths, finite_floats, st.integers()),
    st.builds(lambda d, x, v: [d, [x, v]], row_depths, finite_floats,
              st.sampled_from([float("nan"), float("inf"), float("-inf")])),
    st.builds(lambda d, v, x: [d, [v, x]], row_depths,
              st.sampled_from([float("nan"), float("inf"), float("-inf")]), finite_floats),
    st.builds(lambda d, pair, x: [d, pair + [x]], row_depths, event_pairs, finite_floats),
    st.builds(lambda d, pair: (d, pair), row_depths, event_pairs),
    st.builds(lambda d, pair: [d, tuple(pair)], row_depths, event_pairs),
    st.builds(lambda d, pair: [d, pair, d], row_depths, event_pairs))
event_lists = st.one_of(
    st.lists(event_rows, min_size=1, max_size=5),
    st.builds(lambda good, bad: good + [bad],
              st.lists(event_rows, max_size=4), near_miss_rows))
json_docs = st.recursive(
    st.one_of(json_scalars, event_lists),
    lambda inner: st.one_of(st.lists(inner, max_size=5),
                            st.lists(inner, max_size=5).map(tuple),
                            st.dictionaries(st.text(), inner, max_size=5)),
    max_leaves=30)


@given(json_docs)
@example({"a\u00e9\n\t\x00\u2028\U0001f600": [True, 1, False, 0, None, -0.0, 1e308,
                                               5e-324, float("nan"), float("inf")],
          "": {}, "e": [], "t": (1, (2.5, "\x1f"), ()), "d": {"x": [{}, []]}})
@example({"branch_events": [[0, [0.5, 1.25]], [7, [-0.0, 1e-300]]], "n": [[1, [2.0, 3.0]]]})
@example([[3, [0.5, 1.5]], [True, [0.5, 1.5]]])
@example([[3, [0.5, 1.5]], [4, [1, 1.5]]])
@example([[3, [0.5, 1.5]], [4, [0.5, float("nan")]]])
@example([[3, [0.5, 1.5]], [4, [float("-inf"), 1.5]]])
@example([[3, [0.5, 1.5]], [4, [0.5, 1.5, 2.5]]])
@example([[3, [0.5, 1.5]], (4, [0.5, 1.5])])
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_stdlib_indent_2(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2)


def test_json_writer_event_row_depth_past_the_int_to_str_limit():
    # json.dumps refuses such a depth; the writer prints its digits in full
    big = 7 * 10 ** 5000
    want = json.dumps([[0, [0.5, 1.5]], [7, [-0.0, 2.0]]], indent=2)
    assert _json_text([[0, [0.5, 1.5]], [big, [-0.0, 2.0]]]) == \
        want.replace("7", str(7 * 10 ** 500) + "0" * 4500)


@pytest.mark.parametrize("doc", [{1: "int key"}, {None: 1}, [F(1, 2)], {"s": {1}},
                                 (b"bytes",), [object()]])
def test_json_writer_rejects_what_it_cannot_write(doc):
    with pytest.raises(TypeError):
        _json_text(doc)


@pytest.mark.parametrize("argv", [
    ["certify", "--k", "10", "--interval"],
    ["certify", "--m", "2", "--k", "32", "--interval"],
    ["count", "--q", "golden", "--x", "1", "--depth", "30"],
    ["gaps", "--k", "10", "--depth", "6"],
    ["thickness", "--k", "10", "--depth", "8"],
    ["witness", "--k", "9"],
    ["tables"],
])
def test_json_output_is_stdlib_indent_2(argv):
    text = run(argv + ["--format", "json"])[1]
    assert text == json.dumps(json.loads(text), indent=2) + "\n"


# ----------------------------------------------------------------------
# argparse-level behavior
# ----------------------------------------------------------------------

def test_missing_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        run([])
    assert exc.value.code == 2


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        run(["tables", "--bogus"])
    assert exc.value.code == 2
