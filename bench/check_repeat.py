"""The per-layer counts of a traced run repeat exactly for the same seed.

    python3 bench/check_repeat.py [--seed N] [workload ...]

Runs ``bench/run.py --trace 1`` twice per workload (all four by default) and
compares every count and share it reports: the ``*calls`` and ``*_share``
metrics, ``semigroup.estar_products``, ``action.edge_steps`` and the
``*.raised`` counts, with ``attempted`` and ``failed``. Timings are not
compared. Exits 1 on the first difference. It is not collected by the test
suite, since it takes about a minute and a half; ``python -m pytest
bench/check_repeat.py`` also runs it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
WORKLOADS = ("sweep", "algebra", "germs", "cli")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    outcome = json.loads(proc.stdout.strip().splitlines()[-1])
    counts = {name: m["value"] for name, m in outcome["metrics"].items()
              if m["unit"] in ("count", "ratio") and name != "trace.slowdown"}
    counts["attempted"] = outcome["attempted"]
    counts["failed"] = outcome["failed"]
    return counts


def differences(workload: str, seed: int) -> list[str]:
    first, second = traced_counts(workload, seed), traced_counts(workload, seed)
    return [f"{workload}: {name} {first[name]} != {second.get(name)}"
            for name in first if first[name] != second.get(name)]


def test_counts_repeat():
    for workload in WORKLOADS:
        assert differences(workload, 7) == []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="check that traced counts repeat")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args(argv)
    for workload in args.workloads:
        found = differences(workload, args.seed)
        for line in found:
            print(line)
        if found:
            return 1
        print(f"{workload}: counts repeat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
