"""betacert benchmark: one workload, one seed, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A pass is one fresh interpreter that imports betacert, builds the seed's
request list and sends each request once through ``betacert.cli.main``
(one client, closed loop, single thread).  The run repeats whole passes,
one after another, while the next one still fits in S seconds, and always
makes at least one.

--trace 0 reports the end-to-end metrics:
  setup_s         median set-up time (import + request list) over at
                  least SETUP_SAMPLES fresh interpreters
  wall_s          median wall time of one pass's request loop
  latency_p50_ms  median over passes of a pass's median request latency
  latency_p90_ms  median over passes of a pass's 90th-percentile latency
  peak_rss_mb     median peak resident memory of a pass
wall_s and the latencies are at reference speed (see speed.py).
--trace 1 spends half of S on untraced passes and half on passes under
the span recorder, and reports the per-layer metrics of the traced passes
(medians over passes) and trace.overhead_ratio, traced over untraced
wall_s.

Every request's output is checked against its golden; the last stdout
line is the JSON result.  Exit status is nonzero, with no result line,
when the benchmark cannot run.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
TRACE_DIR = ROOT / ".perfbench"

SETUP_SAMPLES = 11
PASS_TIMEOUT_S = 170

sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402


def _worker(workload: str, seed: int, *extra: str) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PASS_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: worker failed ({proc.returncode}):\n"
                         f"{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _passes(workload: str, seed: int, seconds: float, traced: bool) -> list[dict]:
    out: list[dict] = []
    start = time.perf_counter()
    while True:
        extra = ()
        if traced:
            TRACE_DIR.mkdir(exist_ok=True)
            spans = TRACE_DIR / f"spans-{workload}-{len(out)}.jsonl"
            extra = ("--trace", str(spans))
        result = _worker(workload, seed, *extra)
        if traced:
            result["layers"] = tracer.layer_totals(spans)
        out.append(result)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def _p90(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    passes = _passes(workload, seed, seconds, traced=False)
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(_worker(workload, seed, "--setup-only")["setup_s"])
    # medians over passes: one pass caught in a slow spell moves them less
    # than it moves quantiles of the pooled latencies
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "latency_p50_ms": (statistics.median(
            statistics.median(p["latencies_ms"]) for p in passes), "ms"),
        "latency_p90_ms": (statistics.median(
            _p90(p["latencies_ms"]) for p in passes), "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }
    return metrics, passes


def traced(workload: str, seed: int, seconds: float) -> tuple[dict, list[dict]]:
    plain = _passes(workload, seed, seconds / 2, traced=False)
    spanned = _passes(workload, seed, seconds / 2, traced=True)
    metrics = {}
    for name in spanned[0]["layers"]:
        if name.endswith("_ms"):
            value = statistics.median(p["layers"][name] * p["speed_factor"]
                                      for p in spanned)
            metrics[name] = (value, "ms")
        else:
            metrics[name] = (statistics.median(p["layers"][name] for p in spanned),
                             "count")
    ratio = statistics.median(p["wall_s"] for p in spanned) / \
        statistics.median(p["wall_s"] for p in plain)
    metrics["trace.overhead_ratio"] = (ratio, "ratio")
    return metrics, plain + spanned


def main() -> int:
    parser = argparse.ArgumentParser(description="betacert benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "betacert" / "__init__.py").is_file():
        print(f"benchmark: no betacert sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = traced if args.trace else end_to_end
    metrics, passes = run(args.workload, args.seed, args.seconds)
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    samples = sum(len(p["latencies_ms"]) for p in passes)

    raw_walls = [p["raw_wall_s"] for p in passes]
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"{attempted} requests, {samples} latency samples; "
          f"raw pass wall time {min(raw_walls):.3f}..{max(raw_walls):.3f} s, "
          f"speed factor {statistics.median(p['speed_factor'] for p in passes):.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6f} {unit}")
    print(f"  {'error_rate':44s} {len(failures) / attempted:14.6f} "
          f"({len(failures)}/{attempted})")
    for f in failures[:10]:
        print(f"  FAILED {' '.join(f['argv'])}: {f['why']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
