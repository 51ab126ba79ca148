"""Exhaustive property suite covering every documented invariant.

For each n, one sweep over V_n accumulates the joint statistic table and the
block-pair histogram while checking per-partition properties: canonical form,
text round trip, the complement involution, the peel/patch round trips with
their statistic swaps, the per-stage swap, and the double application of the
complement-conjugated map.  Aggregate counts are then reconciled against the
closed formulas and the generating function.

Sweeps can be split across processes along enumeration slices; slices are
merged in a fixed order, so the output never depends on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from .core import complement, statistics, validate
from .counting import (
    BivariateDistribution,
    singleton_free_egf,
    singleton_free_ie,
    stirling2,
    total_count,
)
from .enumeration import EnumerationState, complete, slice as enumeration_slice
from .peelpatch import Side, patch_stages, peel, psi, psi_inverse, trace_stages
from .textio import parse_partition

PER_PARTITION_PROPERTIES = (
    "validity",
    "textio-roundtrip",
    "complement-involution",
    "psi-statistic-swap",
    "psi-round-trip",
    "involution",
    "per-stage-swap",
)

# Memory guard: duplicate detection and text round trips keep every canonical
# string, so they stop at this level while the other checks keep going.
TEXT_SWEEP_LIMIT = 7


@dataclass(frozen=True)
class Report:
    """Outcome of one property at one n."""

    n: int
    name: str
    ok: bool
    detail: str = ""


class _Accumulator:
    def __init__(self, n: int, want_texts: bool, want_roundtrip: bool):
        self.n = n
        self.table = [[0] * (n + 1) for _ in range(n + 1)]
        self.hist = [0] * (n + 1)
        self.witnesses: dict[str, str] = {}
        self.texts: set[str] | None = set() if want_texts else None
        self.roundtrip = want_roundtrip

    def fail(self, prop: str, text: str, detail: str = "") -> None:
        if prop not in self.witnesses:
            suffix = f" ({detail})" if detail else ""
            self.witnesses[prop] = f"witness {text}{suffix}"


def _inspect(part, acc: _Accumulator) -> None:
    n = acc.n
    text = str(part)
    st = statistics(part)
    acc.table[st.singletons][st.adjacencies] += 1
    acc.hist[len(part.blocks)] += 1
    if acc.texts is not None:
        acc.texts.add(text)

    try:
        validate(part)
        ts = part.ground.elements
        r = len(ts)
        lp = {ts[j - 1] for j in st.adjacency_positions}
        rp = {ts[j % r] for j in st.adjacency_positions} if r else set()
        if not (len(lp) == len(rp) == st.adjacencies):
            acc.fail("validity", text, "point sets do not match the adjacency count")
        if r >= 2 and (lp | rp) & set(st.singleton_elements):
            acc.fail("validity", text, "singletons overlap adjacency points")
    except Exception as exc:
        acc.fail("validity", text, str(exc))

    if acc.roundtrip:
        try:
            if parse_partition(text) != part:
                acc.fail("textio-roundtrip", text)
        except Exception as exc:
            acc.fail("textio-roundtrip", text, str(exc))

    try:
        mirrored = complement(part, n)
        mst = statistics(mirrored)
        if (mst.singletons, mst.adjacencies) != (st.singletons, st.adjacencies):
            acc.fail("complement-involution", text, "statistics changed")
        elif complement(mirrored, n) != part:
            acc.fail("complement-involution", text, "double complement differs")
    except Exception as exc:
        acc.fail("complement-involution", text, str(exc))

    try:
        trace = peel(part, Side.LEFT)
        rebuilt = trace_stages(trace)
        if rebuilt[0] != part:
            acc.fail("per-stage-swap", text, "trace does not rebuild its input")
        forward = patch_stages(trace, Side.RIGHT)
        image = forward[-1]
        ist = statistics(image)
        if (ist.singletons, ist.adjacencies) != (st.adjacencies, st.singletons):
            acc.fail("psi-statistic-swap", text)
        k = len(trace.layers)
        for idx in range(k + 1):
            a = statistics(forward[idx])
            b = statistics(rebuilt[k - idx])
            if (a.singletons, a.adjacencies) != (b.adjacencies, b.singletons):
                acc.fail("per-stage-swap", text, f"stage {k - idx}")
                break
        if psi_inverse(image) != part or psi(psi_inverse(part)) != part:
            acc.fail("psi-round-trip", text)
        if complement(psi(complement(image, n)), n) != part:
            acc.fail("involution", text)
    except Exception as exc:
        acc.fail("psi-round-trip", text, str(exc))


def _sweep_slice(args: tuple) -> tuple:
    n, blocks, want_texts, want_roundtrip = args
    acc = _Accumulator(n, want_texts, want_roundtrip)
    visits = complete(EnumerationState(n, blocks), lambda part: _inspect(part, acc))
    texts = frozenset(acc.texts) if acc.texts is not None else None
    return visits, acc.table, acc.hist, acc.witnesses, texts


@dataclass
class SweepResult:
    visits: int
    table: list[list[int]]
    hist: list[int]
    witnesses: dict[str, str]
    distinct_texts: int | None


def sweep(n: int, jobs: int = 1) -> SweepResult:
    """One full pass over V_n, optionally split across processes.

    The worker count is ``jobs`` clamped to the CPU count and the number of
    slices, so no argument starts more processes than can run at once.
    """
    jobs = min(jobs, os.cpu_count() or 1)
    want_texts = n <= TEXT_SWEEP_LIMIT
    depth = 1
    if jobs > 1 and n >= 3:
        depth = 3
        while depth < min(n, 5) and len(enumeration_slice(n, depth)) < 4 * jobs:
            depth += 1
    states = enumeration_slice(n, depth)
    payloads = [(n, s.blocks, want_texts, want_texts) for s in states]
    workers = min(jobs, len(payloads))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_slice, payloads))
    else:
        results = [_sweep_slice(p) for p in payloads]

    visits = 0
    table = [[0] * (n + 1) for _ in range(n + 1)]
    hist = [0] * (n + 1)
    witnesses: dict[str, str] = {}
    seen: set[str] | None = set() if want_texts else None
    text_total = 0
    for part_visits, part_table, part_hist, part_witnesses, part_texts in results:
        visits += part_visits
        for s in range(n + 1):
            for a in range(n + 1):
                table[s][a] += part_table[s][a]
        for j in range(n + 1):
            hist[j] += part_hist[j]
        for prop, witness in part_witnesses.items():
            witnesses.setdefault(prop, witness)
        if seen is not None and part_texts is not None:
            text_total += len(part_texts)
            seen |= part_texts
    distinct = None
    if seen is not None:
        # Cross-slice duplicates would make the union smaller than the sum.
        distinct = len(seen) if len(seen) == text_total else -1
    return SweepResult(visits, table, hist, witnesses, distinct)


def iter_suite(max_n: int, jobs: int = 1) -> Iterator[Report]:
    """Yield one :class:`Report` per property per n, for n = 1..max_n."""
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    egf = singleton_free_egf(max_n)
    for n in range(1, max_n + 1):
        res = sweep(n, jobs)
        for prop in PER_PARTITION_PROPERTIES:
            if prop == "textio-roundtrip" and n > TEXT_SWEEP_LIMIT:
                continue
            yield Report(n, prop, prop not in res.witnesses, res.witnesses.get(prop, ""))

        expected = total_count(n)
        table_total = sum(map(sum, res.table))
        ok = res.visits == expected == table_total
        yield Report(
            n,
            "enumeration-count",
            ok,
            "" if ok else f"visited {res.visits}, tabulated {table_total}, expected {expected}",
        )
        if res.distinct_texts is not None:
            ok = res.distinct_texts == res.visits
            yield Report(
                n,
                "no-duplicates",
                ok,
                "" if ok else f"{res.distinct_texts} distinct of {res.visits} visits",
            )
        bad = [
            j
            for j in range(n + 1)
            if res.hist[j] != 2 ** (n - j) * stirling2(n, j)
        ]
        yield Report(
            n,
            "block-histogram",
            not bad,
            "" if not bad else f"wrong count for {2 * bad[0]} blocks",
        )
        dist = BivariateDistribution(n, tuple(tuple(row) for row in res.table))
        yield Report(
            n,
            "polynomial-symmetry",
            dist.is_symmetric(),
            "" if dist.is_symmetric() else "joint table is not symmetric",
        )
        sf_enum = dist.evaluate(0, 1)
        af_enum = dist.evaluate(1, 0)
        yield Report(
            n,
            "corollary",
            sf_enum == af_enum,
            "" if sf_enum == af_enum else f"{sf_enum} singleton-free vs {af_enum} adjacency-free",
        )
        sf_ie = singleton_free_ie(n)
        ok = sf_enum == sf_ie == egf[n]
        yield Report(
            n,
            "singleton-free-triple",
            ok,
            "" if ok else f"enumeration {sf_enum}, inclusion-exclusion {sf_ie}, series {egf[n]}",
        )


def run_suite(max_n: int, jobs: int = 1) -> list[Report]:
    """Collect the whole suite; convenience wrapper over :func:`iter_suite`."""
    return list(iter_suite(max_n, jobs))
