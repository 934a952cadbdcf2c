"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N [--setup-only]
                                [--trace SPANS.jsonl]

Times set-up (import betacert, build the request list), then sends every
request of the list once and checks each output against its golden.
Prints one JSON object on stdout.  With --trace the pass runs under the
span recorder, which writes its spans to the given file.

A fresh interpreter per pass is what a user's sweep script gets: the
library's caches (the bonacci_root brackets among them) start cold and
fill inside the timed loop.
"""

import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import speed  # noqa: E402

# set-up time is scaled by reference loops run just before and just after
# it; the first run of the loop in a fresh interpreter is a cold one
speed.reference_loop()
_SETUP_PROBE = speed.Probe()
for _ in range(3):
    _SETUP_PROBE.sample()
_START = time.perf_counter()

import harness  # noqa: E402

betacert = harness.import_betacert()

import workloads  # noqa: E402


def main() -> None:
    import argparse
    import json
    import resource

    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", default=None)
    args = parser.parse_args()

    reqs = workloads.requests(args.workload, args.seed)
    setup_raw = time.perf_counter() - _START
    for _ in range(3):
        _SETUP_PROBE.sample()
    result = {"setup_s": setup_raw * speed.REFERENCE_S / _SETUP_PROBE.reference_time()}
    if not args.setup_only:
        goldens = harness.load_goldens(args.workload)
        recorder = None
        if args.trace:
            import tracer
            recorder = tracer.Recorder()
            recorder.install()
        try:
            hook = None if recorder is None else \
                (lambda i: setattr(recorder, "request_id", i))
            wrap = None if recorder is None else \
                (lambda fn: recorder.timed(tracer.PROBE_SPAN, fn))
            with speed.Probe(wrap) as probe:
                ran = harness.run_pass(betacert, reqs, goldens, hook)
        finally:
            if recorder is not None:
                recorder.uninstall()
                recorder.write(args.trace)
        (start, end), intervals = ran["loop"], ran["intervals"]
        result.update({
            "wall_s": probe.scaled(start, end),
            "latencies_ms": [probe.scaled(s, e) * 1000.0 for s, e in intervals],
            "raw_wall_s": end - start,
            "speed_factor": speed.REFERENCE_S / probe.reference_time(),
            "attempted": ran["attempted"],
            "failures": ran["failures"],
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        })
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
