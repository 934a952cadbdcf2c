"""Record the golden outputs of every request the benchmark can send.

    python3 perfbench/record.py [--workload NAME ...]

For three-band and pinned-sweep this runs every request of the workload's
universe once.  For branch-walk it first calibrates the inputs: for each
base and point it deepens the walk two levels at a time and keeps every
depth whose node count sits at one of the workload's node levels, writing
those requests to
``data/branch_walk_inputs.jsonl``.  Goldens are (exit code, digest) per
request; a later run fails a request whose output no longer matches.

Recording trusts the program as it is: run it only on the commit whose
outputs the benchmark should pin.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import workloads  # noqa: E402

NODE_CEILING = int(workloads.BRANCH_LEVELS[-1][0] * (1 + workloads.LEVEL_TOLERANCE))


def _write_lines(path: Path, rows: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def _record(betacert, argv: list[str]) -> tuple[list, harness.Outcome]:
    outcome = harness.invoke(betacert, argv)
    if outcome.exit_code not in (0, 1):
        raise SystemExit(f"{harness.request_key(argv)}: exit {outcome.exit_code} "
                         f"{outcome.error}")
    return [outcome.exit_code, harness.digest(outcome.exit_code, outcome.stdout)], outcome


def _fits_budget(betacert, q: str, x: str, depth: int) -> bool:
    from betacert.cli import parse_base
    try:
        with betacert.precision(betacert.DEFAULT_PRECISION):
            betacert.count_prefixes(parse_base(q), parse_base(x), depth=depth,
                                    node_budget=NODE_CEILING)
    except betacert.ResourceError:
        return False
    return True


def calibrate_branch_walk(betacert) -> dict:
    inputs, goldens = [], {}
    for q, x, depths in workloads.branch_candidates():
        bound = 1
        for depth in depths:
            # every node has at most two children, so the walk two levels
            # deeper processes at most bound nodes; probe with a node budget
            # only when that bound could pass the ceiling
            if bound > NODE_CEILING and not _fits_budget(betacert, q, x, depth):
                break
            argv = workloads.branch_argv(q, x, depth)
            entry, outcome = _record(betacert, argv)
            report = json.loads(outcome.stdout)
            nodes = report["nodes_processed"]
            frontier = report["possible_max"]
            bound = nodes + 3 * frontier[-1]
            if workloads.branch_level(nodes) is not None:
                inputs.append({"q": q, "x": x, "depth": depth, "nodes": nodes})
                goldens[harness.request_key(argv)] = entry
        print(f"branch-walk {q} {x}: {sum(r['q'] == q and r['x'] == x for r in inputs)} "
              "depths kept", flush=True)
    _write_lines(workloads.BRANCH_INPUTS, inputs)
    return goldens


def record(betacert, workload: str) -> None:
    if workload == "branch-walk":
        goldens = calibrate_branch_walk(betacert)
    else:
        goldens = {}
        for argv in workloads.universe(workload):
            goldens[harness.request_key(argv)] = _record(betacert, argv)[0]
    _write_lines(harness.golden_path(workload),
                 [[key, *entry] for key, entry in goldens.items()])
    exits = [code for code, _ in goldens.values()]
    print(f"{workload}: {len(goldens)} goldens, {exits.count(1)} exit 1", flush=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    args = parser.parse_args()
    betacert = harness.import_betacert()
    for workload in args.workload or workloads.WORKLOADS:
        record(betacert, workload)


if __name__ == "__main__":
    main()
