"""Benchmark for selfsim: one seeded workload per run, every answer checked.

    python3 bench/run.py --workload {sweep,algebra,germs,cli} --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; the library is imported from ``src/``.
One client runs a closed loop: each operation starts when the previous one
has been checked. The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` replays the seeded operations in whole passes for
``--seconds`` and reports the end-to-end metrics. ``--trace 1`` runs one
pass twice, untraced and then under the layer tracer, and reports the
per-layer metrics; the spans are written to ``bench/out/``.
``bench/NOTES.md`` explains the workloads, the timing and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REQUIRED = ("src/selfsim/__init__.py", "specs/odometer.spec", "tests/golden/act_odometer.txt")
SETUP_REPEATS = 9
SAMPLES = 16  # execution times kept per operation
PROBE_LOOP = 20000
PROBE_EVERY_S = 0.05
PROBE_REFERENCE_S = 0.0013  # about the probe's time where the benchmark was defined
ENV_REPEATS = 5


def lower_half_mean(values) -> float:
    """Mean of the faster half: slower runs of the same work measure other tenants."""
    ranked = sorted(values)
    return statistics.fmean(ranked[: (len(ranked) + 1) // 2])


class Tally:
    """Outcomes of every execution, and a latency sample of each operation.

    Each operation keeps a seeded reservoir of ``SAMPLES`` execution times,
    spread over the run, in memory fixed before the run starts.
    """

    def __init__(self, n_ops: int, seed: int):
        self.kept = array("d", [0.0]) * (n_ops * SAMPLES)
        self.runs = array("l", [0]) * n_ops
        self.rng = random.Random(f"samples-{seed}")
        self.count = 0
        self.failed = 0
        self.failed_kinds: Counter = Counter()
        self.wrong = 0
        self.three_valued = 0
        self.decided = 0

    def record(self, index: int, kind: str, seconds: float, outcome) -> None:
        runs = self.runs[index]
        slot = runs if runs < SAMPLES else self.rng.randrange(runs + 1)
        if slot < SAMPLES:
            self.kept[index * SAMPLES + slot] = seconds
        self.runs[index] = runs + 1
        self.count += 1
        if outcome.status != "ok":
            self.failed += 1
            self.failed_kinds[f"{kind} ({outcome.status})"] += 1
            self.wrong += outcome.status == "wrong"
        if outcome.decided is not None:
            self.three_valued += 1
            self.decided += outcome.decided

    def latencies(self) -> list[float]:
        """Each operation's latency: the mean of the faster half of its samples."""
        return [
            lower_half_mean(self.kept[i * SAMPLES : i * SAMPLES + min(n, SAMPLES)])
            for i, n in enumerate(self.runs)
        ]

    def busy(self) -> float:
        """Seconds one pass over every operation takes."""
        return math.fsum(self.latencies())

    def percentile_ms(self, q: float) -> float:
        """Nearest-rank percentile over the operations' latencies, in ms."""
        ranked = sorted(self.latencies())
        return 1000.0 * ranked[max(math.ceil(q * len(ranked)) - 1, 0)]


class Speed:
    """How fast the machine runs Python, from a fixed probe loop.

    On a shared machine the same work takes 10-25% longer in some minutes
    than in others, for every program alike. The probe runs between
    operations, at most every ``PROBE_EVERY_S``. Its time, taken like an
    operation's latency and set against ``PROBE_REFERENCE_S``, scales the
    times measured alongside it, so a run in a slow minute reads like one
    in a fast minute.
    """

    def __init__(self):
        self.times: list[float] = []
        self.last = -math.inf

    def probe(self, force: bool = False) -> None:
        if force or time.perf_counter() - self.last >= PROBE_EVERY_S:
            start = time.perf_counter()
            total = 0
            for i in range(PROBE_LOOP):
                total += i * i % 7
            self.last = time.perf_counter()
            self.times.append(self.last - start)

    def scale(self) -> float:
        """Factor taking a time measured here to the reference machine."""
        return PROBE_REFERENCE_S / lower_half_mean(self.times)


def run_pass(ops, order, tally: Tally, speed: Speed | None = None, tracer=None) -> None:
    """Run and check each operation once, in the given order."""
    for index in order:
        op = ops[index]
        if speed is not None:
            speed.probe()
        if tracer is not None:
            tracer.op = index + 1
            tracer.enabled = True
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception as err:  # the check decides whether raising was right
            result = err
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.enabled = False
        tally.record(index, op.kind, elapsed, op.check(result))


def purge_selfsim() -> None:
    for name in [n for n in sys.modules if n == "selfsim" or n.startswith("selfsim.")]:
        del sys.modules[name]


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # kilobytes on Linux


def result(tally: Tally, metrics: dict) -> dict:
    return {
        "correct": tally.wrong == 0,
        "attempted": tally.count,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }


def unit_of(name: str) -> str:
    if name in ("ops_per_s", "peak_rss_mb"):
        return {"ops_per_s": "ops/s", "peak_rss_mb": "MB"}[name]
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name == "trace.slowdown":
        return "ratio"
    return "count"


def end_to_end(workload, args) -> dict:
    setup_speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        if workload.in_process:
            purge_selfsim()
        setups.append(workload.setup())
        for _ in range(3):
            setup_speed.probe(force=True)
    workload.prepare()
    rng = random.Random(args.seed)
    ops = workload.operations(rng)
    tally = Tally(len(ops), args.seed)
    speed = Speed()
    # Whole passes, enough of them that the operations beyond the 90th
    # percentile account for at least ten executions.
    beyond = len(ops) - math.ceil(0.9 * len(ops))
    min_passes = math.ceil(10 / beyond)
    order = list(range(len(ops)))
    start = time.perf_counter()
    passes = 0
    while passes < min_passes or time.perf_counter() - start < args.seconds:
        rng.shuffle(order)
        run_pass(ops, order, tally, speed)
        passes += 1
    scale = speed.scale()
    metrics = {
        "ops_per_s": len(ops) / tally.busy() / scale,
        "op_p50_ms": tally.percentile_ms(0.5) * scale,
        "op_p90_ms": tally.percentile_ms(0.9) * scale,
        "correct_share": (tally.count - tally.failed) / tally.count,
        "decided_share": tally.decided / tally.three_valued,
        "setup_s": statistics.median(setups) * setup_speed.scale(),
        "peak_rss_mb": peak_rss_mb(children=not workload.in_process),
    }
    print(f"{workload.name}: {passes} passes of {len(ops)} operations; probe "
          f"{lower_half_mean(speed.times) * 1e3:.4f} ms over {len(speed.times)} probes, times scaled by "
          f"{scale:.4f}; unscaled ops_per_s {len(ops) / tally.busy():.6g}; failed executions "
          f"{dict(tally.failed_kinds)}", file=sys.stderr)
    return result(tally, metrics)


def traced(workload, args) -> dict:
    from tracer import Tracer
    from workloads import import_selfsim

    env = environment_metrics()
    ss = import_selfsim()

    def one_pass(tracer=None) -> Tally:
        ops = workload.operations(random.Random(args.seed), in_process=True)
        tally = Tally(len(ops), args.seed)
        run_pass(ops, range(len(ops)), tally, tracer=tracer)
        return tally

    workload.setup()
    workload.prepare()
    plain = one_pass()

    tracer = Tracer()
    tracer.install(ss)
    tracer.enabled = True
    workload.setup()
    tracer.enabled = False
    workload.prepare()
    tally = one_pass(tracer)
    tracer.write(ROOT / "bench" / "out" / f"spans-{workload.name}.bin", args.seed)

    metrics = tracer.layer_metrics()
    metrics.update(env)
    metrics["cli.main_s"] = tracer.span_time_of("cli.main")
    metrics["trace.slowdown"] = tally.busy() / plain.busy()
    return result(tally, metrics)


def environment_metrics() -> dict:
    """The interpreter's own start-up, and the import of selfsim.cli, in fresh processes."""
    from workloads import cli_env

    env = cli_env(ROOT)
    bare, imports = [], []
    for _ in range(ENV_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True, timeout=60)
        bare.append(1000.0 * (time.perf_counter() - start))
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import selfsim.cli"],
                              env=env, cwd=ROOT, capture_output=True, check=True, timeout=60)
        for line in proc.stderr.decode().splitlines():
            fields = line.split("|")
            if len(fields) == 3 and fields[2].strip() == "selfsim.cli":
                imports.append(int(fields[1]) / 1000.0)  # cumulative microseconds
    return {"cli.interpreter_ms": statistics.median(bare), "cli.import_ms": statistics.median(imports)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not a selfsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](ROOT)
    outcome = traced(workload, args) if args.trace else end_to_end(workload, args)
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
