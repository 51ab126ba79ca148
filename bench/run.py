"""Benchmark for the bpartitions command line and library.

Run from the repository root:

    python3 bench/run.py --workload map-batch --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones, plus the tracing overhead.  Either way
the last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are for
people.  The package is imported from ``src/`` next to this directory, and
nothing else; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

from gauge import Gauge
from spans import Tracer
from workloads import WORKLOADS, Tally, percentile

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "bpartitions"
MODULES = ("core", "textio", "peelpatch", "enumeration", "counting", "verification", "cli")
SETUP_REPS = 5


class Package:
    """The freshly imported package and its seven modules, by short name."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        self.package = importlib.import_module(PACKAGE)
        if Path(self.package.__file__).resolve().parent != SRC / PACKAGE:
            raise ImportError(f"{PACKAGE} was not imported from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"{PACKAGE}.{name}"))


def set_up(workload, seed: int, gauge: Gauge) -> tuple[Package, list[float]]:
    """Import, build inputs and warm up, ``SETUP_REPS`` times from cold.

    Each repetition drops the package from ``sys.modules`` first, so module
    code, caches and first calls are paid again.  The last one is kept.
    """
    def once() -> Package:
        bp = Package()
        workload.prepare(bp, seed)
        workload.warm_up()
        return bp

    times = []
    for _ in range(SETUP_REPS):
        bp, scaled, _ = gauge.time(once)
        times.append(scaled)
    return bp, times


def measure(workload, seconds: float, tally: Tally, gauge: Gauge) -> list[dict]:
    """Untraced passes until ``seconds`` have gone by and ``min_passes`` ran."""
    passes = []
    t0 = perf_counter()
    while len(passes) < workload.min_passes or perf_counter() - t0 < seconds:
        outputs, timing = workload.run_pass(gauge)
        workload.check(outputs, tally)
        passes.append(timing)
    return passes


def measure_traced(workload, seconds: float, tally: Tally, gauge: Gauge) -> dict:
    """Alternate untraced and traced passes; return the per-layer metrics.

    Values are per traced pass.  Every pass does the same work, so call
    counts are exact integers that repeat from run to run.  Which of the two
    goes first flips every pair, so a drift in machine speed during the run
    does not load the overhead one way.
    """
    tracer = Tracer()
    walls: dict[bool, list[float]] = {False: [], True: []}
    t0 = perf_counter()
    while not walls[True] or perf_counter() - t0 < seconds:
        traced_first = len(walls[True]) % 2 == 1
        for traced in (traced_first, not traced_first):
            if traced:
                tracer.install(PACKAGE)
            try:
                outputs, timing = workload.run_pass(gauge)
            finally:
                tracer.uninstall()
            workload.check(outputs, tally)
            walls[traced].append(timing["raw_s"])
    plain, traced = walls[False], walls[True]
    k = len(traced)
    spans = tracer.by_name()
    layers = tracer.counts["peelpatch.peel.layers"]

    def per_layer(count: int) -> float:
        return count / layers if layers else 0.0

    values = {"trace.overhead_s": median(traced) - median(plain)}
    for name, (calls, self_s) in spans.items():
        values[f"{name}.calls"] = calls // k
        values[f"{name}.self_s"] = self_s / k
    for name, count in tracer.counts.items():
        values[name] = count // k
    values["peelpatch.statistics_per_layer"] = per_layer(
        tracer.calls_under("core.statistics", "peelpatch."))
    values["peelpatch.make_partition_per_layer"] = per_layer(
        tracer.calls_under("core.make_partition", "peelpatch."))
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    per_layer = {m["name"]: m["unit"]
                 for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]()
    tally = Tally()
    with Gauge() as gauge:
        try:
            _, setup_times = set_up(workload, args.seed, gauge)
        except ImportError as exc:
            print(f"cannot import {PACKAGE} from {SRC}: {exc}", file=sys.stderr)
            return 2
        print(f"workload {workload.name}, seed {args.seed}, "
              f"python {sys.version.split()[0]}")
        for line in workload.profile():
            print(line)
        if args.trace:
            values = measure_traced(workload, args.seconds, tally, gauge)
        else:
            passes = measure(workload, args.seconds, tally, gauge)

    if args.trace:
        metrics = {}
        for name, unit in per_layer.items():
            value = values.get(name, 0)
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value} {unit}")
    else:
        items_per_s, calls = workload.e2e(passes)
        calls.sort()
        p50, p99 = median(calls), percentile(calls, 0.99)
        for line in workload.readout(items_per_s, p50, p99, len(calls)):
            print(line)
        metrics = {
            "setup_s": {"value": median(setup_times), "unit": "s"},
            "items_per_s": {"value": items_per_s, "unit": "1/s"},
            "call_p50_ms": {"value": p50, "unit": "ms"},
            "call_p99_ms": {"value": p99, "unit": "ms"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "unit": "MB",
            },
        }
        print(f"setup_s {metrics['setup_s']['value']:.4f} s (median of {SETUP_REPS}); "
              f"peak_rss_mb {metrics['peak_rss_mb']['value']:.1f} MB; "
              f"{len(passes)} passes")
        print("pass wall times (s, unscaled): "
              + " ".join(f"{p['raw_s']:.3f}" for p in passes))
    print(f"failed_ratio {tally.failed / max(tally.attempted, 1)} "
          f"({tally.failed} of {tally.attempted} operations)")
    for note in tally.notes:
        print(f"FAIL {note}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
