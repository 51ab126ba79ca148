"""The three workloads: what each one runs, times and checks.

Every workload drives the command line in-process through ``cli.run`` with
stdin, stdout and stderr swapped for in-memory buffers, so the program sees
only the generated text.  A workload object has these parts:

* ``prepare`` builds the inputs (from the seed, where there are any);
* ``warm_up`` runs a small version of the pass;
* ``profile`` describes the inputs in a few printed lines;
* ``run_pass`` runs one full pass and returns its outputs and its timings,
  each timed section scaled to the reference speed by a ``Gauge``;
* ``check`` compares the outputs with references that share no code with
  the library (see ``reference.py``).  It runs after the pass, outside every
  timed region and outside tracing;
* ``e2e`` reduces the timings of all passes to ``items_per_s`` and the call
  latencies, and ``readout`` prints them under the names the workload gives
  them.
"""

from __future__ import annotations

import io
import random
import sys
import traceback
from collections import Counter
from statistics import median
from time import perf_counter

import reference
from gauge import Gauge


class Tally:
    """Operations attempted and failed, with the first few failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, note: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(note)


def run_cli(cli, argv: list[str], stdin_text: str = "") -> tuple[int, str]:
    """Run one command through ``cli.run``; return (exit code, stdout).

    An exception escaping ``cli.run`` is a failed command (exit code -1).
    """
    saved = sys.stdin, sys.stdout, sys.stderr
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(stdin_text), io.StringIO(), io.StringIO()
    try:
        rc = cli.run(argv)
    except Exception:
        rc = -1
        saved[2].write(traceback.format_exc())
    finally:
        out = sys.stdout.getvalue()
        sys.stdin, sys.stdout, sys.stderr = saved
    return rc, out


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; with few values, q near 1 gives the largest."""
    rank = max(1, -(-len(sorted_values) * q // 1))
    return sorted_values[int(rank) - 1]




# --------------------------------------------------------------------------
# map-batch

SHALLOW = 400
DEEP = 10
DEEP_BASE_N = 150


def _shallow(rng: random.Random, n: int, density: float) -> str:
    """A random partition of {1..n}; ``density`` is the chance that an element
    continues the signed block of its predecessor, i.e. makes an adjacency."""
    blocks: list[list[int]] = []
    where: dict[int, tuple[int, int]] = {}
    for i in range(1, n + 1):
        u = rng.random()
        if i > 1 and u < density:
            bi, sign = where[i - 1]
        elif not blocks or u < density + (1 - density) * 0.3:
            blocks.append([])
            bi, sign = len(blocks) - 1, 1
        else:
            bi, sign = rng.randrange(len(blocks)), rng.choice((1, -1))
        blocks[bi].append(sign * i)
        where[i] = (bi, sign)
    return reference.canonical(blocks)


def _deep(n: int) -> str:
    """``1,-n / 2,n-1 / 3,n-2 / ...``; its left peel takes n - 2 layers."""
    blocks = [[i, n + 1 - i] for i in range(2, n // 2 + 1)]
    blocks.append([1, -n])
    if n % 2:
        blocks.append([(n + 1) // 2])
    return reference.canonical(blocks)


def map_batch_texts(seed: int) -> tuple[list[str], list[bool]]:
    """The seeded batch and, per line, whether it is a deep-family input.

    The sizes and densities of the shallow inputs are fixed strata (sizes
    log-spaced over 8..1000, densities spread over 0..0.5); the seed shuffles
    how they pair, draws each partition, jitters the deep sizes and places
    the deep inputs.  Fixed strata keep the medians steady from seed to seed.
    """
    rng = random.Random(seed)
    sizes = [round(8 * 125 ** ((k + 0.5) / SHALLOW)) for k in range(SHALLOW)]
    densities = [0.5 * (k + 0.5) / SHALLOW for k in range(SHALLOW)]
    rng.shuffle(densities)
    items = [(_shallow(rng, n, d), False) for n, d in zip(sizes, densities)]
    rng.shuffle(items)
    for k in range(DEEP):
        n = DEEP_BASE_N + 2 * k + rng.randrange(2)
        items.insert(rng.randrange(len(items) + 1), (_deep(n), True))
    return [t for t, _ in items], [d for _, d in items]


class MapBatch:
    """psi / psi-inv / involution over a seeded batch, plus psi(part) calls."""

    name = "map-batch"
    min_passes = 3  # at least 1,000 psi calls, so p99 has ten samples beyond it

    def prepare(self, bp, seed: int) -> None:
        self.bp = bp
        self.texts, self.deep = map_batch_texts(seed)
        self.batch = "".join(t + "\n" for t in self.texts)
        self.parts = [bp.textio.parse_partition(t) for t in self.texts]
        self.stats = [reference.stats(t) for t in self.texts]

    def warm_up(self) -> None:
        # Every tenth size stratum, so the warm-up costs the same for every seed.
        shallow = sorted((t for t, d in zip(self.texts, self.deep) if not d), key=len)
        head = "".join(t + "\n" for t in shallow[::10])
        out = run_cli(self.bp.cli, ["psi", "--stdin"], head)[1]
        run_cli(self.bp.cli, ["psi-inv", "--stdin"], out)
        run_cli(self.bp.cli, ["involution", "--stdin"], head)

    def profile(self) -> list[str]:
        """The batch's input profile: sizes, peel depths, deep share."""
        sizes = sorted(len(p.ground) for p in self.parts)
        left = self.bp.peelpatch.Side.LEFT
        layers = Counter(len(self.bp.peelpatch.peel(p, left).layers) for p in self.parts)
        q = [percentile(sizes, f) for f in (0.25, 0.5, 0.75)]
        return [
            f"inputs: {len(sizes)}, deep-family share {sum(self.deep) / len(sizes):.2%}",
            f"n: min {sizes[0]}, quartiles {q[0]}/{q[1]}/{q[2]}, max {sizes[-1]}",
            "left-peel layers histogram: "
            + ", ".join(f"{k}:{v}" for k, v in sorted(layers.items())),
        ]

    def _psi_calls(self) -> tuple[list, list[float]]:
        psi = self.bp.package.psi  # looked up per pass, so tracing sees the calls
        images, latencies = [], []
        for part in self.parts:
            t0 = perf_counter()
            images.append(psi(part))
            latencies.append(perf_counter() - t0)
        return images, latencies

    def run_pass(self, gauge: Gauge) -> tuple[dict, dict]:
        cli = self.bp.cli
        fwd, t_fwd, r_fwd = gauge.time(run_cli, cli, ["psi", "--stdin"], self.batch)
        back, t_back, r_back = gauge.time(run_cli, cli, ["psi-inv", "--stdin"], fwd[1])
        inv, t_inv, r_inv = gauge.time(run_cli, cli, ["involution", "--stdin"], self.batch)
        (images, latencies), t_lib, r_lib = gauge.time(self._psi_calls)
        outputs = {"psi": fwd, "psi-inv": back, "involution": inv, "images": images}
        scale = t_lib / r_lib
        return outputs, {
            "latencies": [s * scale for s in latencies],
            "cli_s": t_fwd + t_back + t_inv,
            "raw_s": r_fwd + r_back + r_inv + r_lib,
        }

    def check(self, outputs: dict, tally: Tally) -> None:
        rows = len(self.texts)
        lines = {}
        for cmd in ("psi", "psi-inv", "involution"):
            rc, out = outputs[cmd]
            lines[cmd] = out.splitlines() if rc == 0 else []
            if len(lines[cmd]) != rows:
                lines[cmd] = [None] * rows
        for i, (text, (s, a)) in enumerate(zip(self.texts, self.stats)):
            image = lines["psi"][i]
            tally.check(image is not None and reference.stats(image) == (a, s),
                        f"psi does not swap (s, a) on line {i + 1}")
            tally.check(lines["psi-inv"][i] == text,
                        f"psi-inv(psi(x)) differs from x on line {i + 1}")
            inv = lines["involution"][i]
            tally.check(inv is not None and reference.stats(inv) == (a, s),
                        f"involution does not swap (s, a) on line {i + 1}")
            tally.check(image is not None and str(outputs["images"][i]) == image,
                        f"psi(part) differs from psi --stdin on line {i + 1}")

    def e2e(self, passes: list[dict]) -> tuple[float, list[float]]:
        """(items per second, call latencies in ms) over the measured passes."""
        rates = [len(self.texts) / p["cli_s"] for p in passes]
        calls = [s * 1e3 for p in passes for s in p["latencies"]]
        return median(rates), calls

    def readout(self, items_per_s, p50, p99, calls) -> list[str]:
        return [
            f"map_cli_per_s {items_per_s:.2f} partitions/s through psi, psi-inv and "
            f"involution --stdin (items_per_s)",
            f"psi_call_p50_ms {p50:.4f} ms, psi_call_p99_ms {p99:.4f} ms over {calls} "
            f"psi(part) calls (call_p50_ms, call_p99_ms)",
        ]


# --------------------------------------------------------------------------
# verify-sweep

VERIFY_ARGV = ["verify", "--max-n", "7", "--quiet", "--jobs", "1"]
VERIFY_OUT = "91 checks, 0 failures (max n=7, jobs=1)\n"
VERIFY_VISITS = sum(reference.total_count(n) for n in range(1, 8))  # 12,159


class VerifySweep:
    """``verify --max-n 7``: every peel/patch entry point on every V_n, n <= 7."""

    name = "verify-sweep"
    min_passes = 2

    def prepare(self, bp, seed: int) -> None:
        self.bp = bp

    def warm_up(self) -> None:
        run_cli(self.bp.cli, ["verify", "--max-n", "5", "--quiet", "--jobs", "1"])

    def profile(self) -> list[str]:
        return [f"verify --max-n 7: {VERIFY_VISITS} visits, 91 checks expected"]

    def run_pass(self, gauge: Gauge) -> tuple[dict, dict]:
        (rc, out), seconds, raw = gauge.time(run_cli, self.bp.cli, VERIFY_ARGV)
        return {"rc": rc, "out": out}, {"cli_s": seconds, "raw_s": raw}

    def check(self, outputs: dict, tally: Tally) -> None:
        tally.check(outputs["rc"] == 0 and outputs["out"] == VERIFY_OUT,
                    f"verify printed {outputs['out'][-200:]!r} with exit code {outputs['rc']}")

    def e2e(self, passes: list[dict]) -> tuple[float, list[float]]:
        return (median([VERIFY_VISITS / p["cli_s"] for p in passes]),
                [p["cli_s"] * 1e3 for p in passes])

    def readout(self, items_per_s, p50, p99, calls) -> list[str]:
        return [
            f"verify_visits_per_s {items_per_s:.2f} visits/s (items_per_s)",
            f"verify command p50 {p50:.1f} ms, slowest {p99:.1f} ms over {calls} "
            f"runs (call_p50_ms, call_p99_ms)",
        ]


# --------------------------------------------------------------------------
# census

POLY_N = 9
POLY_VISITS = reference.total_count(POLY_N)  # 609,441
EGF_ORDER = 300
EGF_PINNED = {2: 2, 3: 4, 4: 20, 8: 25104}


class Census:
    """``poly --n 9`` then the three counting commands at order 300."""

    name = "census"
    min_passes = 2

    def prepare(self, bp, seed: int) -> None:
        self.bp = bp
        self.total = reference.total_count(EGF_ORDER)

    def _commands(self, poly_n: int, order: int) -> list[list[str]]:
        return [
            ["poly", "--n", str(poly_n)],
            ["count", "--egf", "--upto", str(order)],
            ["count", "--singleton-free", "--n", str(order)],
            ["count", "--n", str(order)],
        ]

    def warm_up(self) -> None:
        for argv in self._commands(7, 100):
            run_cli(self.bp.cli, argv)

    def profile(self) -> list[str]:
        return [f"poly --n {POLY_N}: {POLY_VISITS} visits; counting order {EGF_ORDER}"]

    def run_pass(self, gauge: Gauge) -> tuple[dict, dict]:
        runs = [gauge.time(run_cli, self.bp.cli, argv)
                for argv in self._commands(POLY_N, EGF_ORDER)]
        outputs = {"results": [result for result, _, _ in runs]}
        return outputs, {"poly_s": runs[0][1], "egf_s": runs[1][1],
                         "raw_s": sum(raw for _, _, raw in runs)}

    def check(self, outputs: dict, tally: Tally) -> None:
        (rc_poly, poly), (rc_egf, egf), (rc_sf, sf), (rc_total, total) = outputs["results"]
        lines = poly.splitlines()
        table = {}
        try:
            for line in lines[:-1]:
                s, a, c = map(int, line.split())
                table[s, a] = c
        except ValueError:
            table = {}
        tally.check(
            rc_poly == 0 and lines[-1:] == ["SYMMETRIC"]
            and all(table.get((a, s)) == c for (s, a), c in table.items())
            and sum(table.values()) == POLY_VISITS,
            f"poly --n {POLY_N} table is not symmetric or does not sum to {POLY_VISITS}",
        )
        values = {}
        try:
            for line in egf.splitlines():
                k, v = map(int, line.split())
                values[k] = v
        except ValueError:
            values = {}
        tally.check(
            rc_egf == 0 and rc_sf == 0 and sorted(values) == list(range(EGF_ORDER + 1))
            and all(values[k] == v for k, v in EGF_PINNED.items())
            and sf == f"{values[EGF_ORDER]}\n",
            "count --egf disagrees with its pinned values or with count --singleton-free",
        )
        tally.check(rc_total == 0 and total == f"{self.total}\n",
                    f"count --n {EGF_ORDER} disagrees with the reference total")

    def e2e(self, passes: list[dict]) -> tuple[float, list[float]]:
        return (median([POLY_VISITS / p["poly_s"] for p in passes]),
                [p["egf_s"] * 1e3 for p in passes])

    def readout(self, items_per_s, p50, p99, calls) -> list[str]:
        return [
            f"poly_visits_per_s {items_per_s:.2f} visits/s (items_per_s)",
            f"egf_s {p50 / 1e3:.4f} s median, slowest {p99 / 1e3:.4f} s over {calls} "
            f"runs of count --egf --upto {EGF_ORDER} (call_p50_ms, call_p99_ms)",
        ]


WORKLOADS = {w.name: w for w in (MapBatch, VerifySweep, Census)}
