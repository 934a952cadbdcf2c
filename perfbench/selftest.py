"""Self-test of the benchmark harness.

    python3 perfbench/selftest.py

Checks, in about half a minute, that:
  * the order thresholds the pinned-sweep generator uses match k_threshold;
  * every seed's requests lie in the workload's universe and every request
    of a universe has a golden output;
  * the first requests of each workload at the default seed pass;
  * a corrupted golden digest, a leaked precision change and a usage error
    are each counted as a failed request;
  * the span recorder nests spans and restores every patched binding.
Exits nonzero on the first check that does not hold.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 0
SMOKE_REQUESTS = {"three-band": 1, "pinned-sweep": 4, "branch-walk": 4}


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        raise SystemExit(1)


def _failures(betacert, reqs, goldens) -> list[str]:
    return [f["why"] for f in harness.run_pass(betacert, reqs, goldens)["failures"]]


def _bindings(betacert) -> dict:
    snapshot = {}
    for name, module in list(sys.modules.items()):
        if name == "betacert" or name.startswith("betacert."):
            snapshot[name] = dict(vars(module))
    realnum, thickness, certificate = (sys.modules[f"betacert.{m}"] for m in
                                       ("realnum", "thickness", "certificate"))
    for cls in (realnum.Enclosure, thickness.GapSet, certificate.Certificate):
        snapshot[cls.__qualname__] = dict(cls.__dict__)
    return snapshot


def main() -> None:
    betacert = harness.import_betacert()

    expect(all(betacert.k_threshold(m) == k for m, k in workloads.K_THRESHOLD.items()),
           "pinned-sweep order thresholds match k_threshold")

    goldens = {w: harness.load_goldens(w) for w in workloads.WORKLOADS}
    for w in workloads.WORKLOADS:
        keys = {harness.request_key(a) for a in workloads.universe(w)}
        expect(keys == set(goldens[w]), f"{w}: one golden per universe request")
        expect(all(harness.request_key(a) in keys
                   for seed in range(20) for a in workloads.requests(w, seed)),
               f"{w}: seeds 0..19 draw only from the universe")

    for w in workloads.WORKLOADS:
        reqs = workloads.requests(w, DEFAULT_SEED)[:SMOKE_REQUESTS[w]]
        expect(_failures(betacert, reqs, goldens[w]) == [],
               f"{w}: first {len(reqs)} requests at seed {DEFAULT_SEED} match goldens")

    argv = workloads.requests("pinned-sweep", DEFAULT_SEED)[0]
    corrupted = {harness.request_key(argv): "0" * 16}
    expect(_failures(betacert, [argv], corrupted) ==
           ["output differs from the golden output"],
           "a corrupted golden digest counts as a failure")

    bits = betacert.get_precision()

    def leaky_main(args):
        code = betacert.cli.main(args)
        betacert.set_precision(bits + 64)
        return code

    leaky = SimpleNamespace(cli=SimpleNamespace(main=leaky_main),
                            get_precision=betacert.get_precision,
                            set_precision=betacert.set_precision)
    why = _failures(leaky, [argv], goldens["pinned-sweep"])
    expect(why == [f"precision leaked: {bits} -> {bits + 64} bits"]
           and betacert.get_precision() == bits,
           "a leaked precision counts as a failure and is undone")

    expect([w[:6] for w in _failures(betacert, [["certify"]], {})] == ["exit 2"],
           "a usage error (exit 2) counts as a failure")

    before = _bindings(betacert)
    recorder = tracer.Recorder()
    recorder.install()
    try:
        expect(_failures(betacert, [argv], goldens["pinned-sweep"]) == [],
               "a traced request still matches its golden")
    finally:
        recorder.uninstall()
    expect(_bindings(betacert) == before, "uninstall restores every binding")
    path = harness.ROOT / ".perfbench" / "spans-selftest.jsonl"
    path.parent.mkdir(exist_ok=True)
    recorder.write(path)
    totals = tracer.layer_totals(path)
    names = [s[0] for s in recorder.spans]
    parents = {recorder.spans[s[3]][0] for s in recorder.spans if s[3] >= 0}
    expect(names.count("cli.main") == 1 and "cli.main" in parents
           and totals["certify.theorem_a_certify.calls"] == 1
           and totals["realnum.enclosure.compares"] > 0,
           "spans nest under cli.main and counters count")


if __name__ == "__main__":
    main()
