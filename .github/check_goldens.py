"""Send every golden request of the benchmark's three universes through
betacert.cli.main and compare each output with its golden digest.

Every universe runs front to back, then back to front: an answer that
depends on what ran before it (a cached power, a fixed point, state kept by
the branch walk) misses its golden in one pass.  The perfbench harness
imports betacert from this checkout's src/.  Exits 1 if any request fails.

    python .github/check_goldens.py
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import harness  # noqa: E402
import workloads  # noqa: E402


def main() -> int:
    betacert = harness.import_betacert()
    failed = 0
    for name, backwards in (("three-band", False), ("pinned-sweep", False),
                            ("branch-walk", False), ("three-band", True),
                            ("pinned-sweep", True), ("branch-walk", True)):
        goldens = harness.load_goldens(name)
        reqs = workloads.universe(name)
        start = time.perf_counter()
        for argv in reversed(reqs) if backwards else reqs:
            why = harness.check(betacert, argv, goldens)[1]
            if why:
                failed += 1
                print("FAIL", name, " ".join(argv), why)
        print(name, len(reqs), "requests checked" + " in reverse" * backwards,
              f"in {time.perf_counter() - start:.1f} s", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
