"""Exhaustive property suite covering every documented invariant.

For each n, one sweep over V_n accumulates the joint statistic table and the
block-pair histogram while checking per-partition properties: canonical form,
text round trip, the complement involution, the peel/patch round trips with
their statistic swaps, the per-stage swap, and the double application of the
complement-conjugated map.  Aggregate counts are then reconciled against the
closed formulas, the closed-form joint table and the generating function.  An
exception is charged to the property whose check raised it, and the witness
names the failing call.

Sweeps can be split across processes along enumeration slices; slices are
merged in a fixed order, so the output never depends on the worker count.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Iterator

from .core import InternalInvariantError, adjacency_pairs, complement, statistics, validate
from .counting import (
    BivariateDistribution,
    distribution,
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


class _Charge:
    """A ``with`` block that charges any exception raised in it to one property."""

    def __init__(self, acc: _Accumulator, prop: str, text: str):
        self.acc, self.prop, self.text = acc, prop, text

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> bool:
        failed = isinstance(exc, Exception)
        if failed:
            self.acc.fail(self.prop, self.text, str(exc))
        return failed


def _call(name: str, fn, *args):
    """``fn(*args)``; an exception it raises becomes a failure that names ``name``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise InternalInvariantError(f"{name} raised {type(exc).__name__}: {exc}") from exc


def _expect(ok: bool, detail: str = "") -> None:
    if not ok:
        raise InternalInvariantError(detail)


def _inspect(part, acc: _Accumulator) -> None:
    n = acc.n
    text = str(part)
    st = statistics(part)
    acc.table[st.singletons][st.adjacencies] += 1
    acc.hist[len(part.blocks)] += 1
    if acc.texts is not None:
        acc.texts.add(text)

    with _Charge(acc, "validity", text):
        _call("validate", validate, part)
        pairs = _call("adjacency_pairs", adjacency_pairs, part, st)
        lp, rp = {t for t, _ in pairs}, {u for _, u in pairs}
        _expect(len(lp) == len(rp) == st.adjacencies, "point sets do not match the adjacency count")
        overlap = len(part.ground) >= 2 and (lp | rp) & set(st.singleton_elements)
        _expect(not overlap, "singletons overlap adjacency points")

    if acc.roundtrip:
        with _Charge(acc, "textio-roundtrip", text):
            _expect(_call("parse_partition", parse_partition, text) == part)

    with _Charge(acc, "complement-involution", text):
        mirrored = _call("complement", complement, part, n)
        mst = _call("statistics", statistics, mirrored)
        same = (mst.singletons, mst.adjacencies) == (st.singletons, st.adjacencies)
        _expect(same, "statistics changed")
        _expect(_call("complement", complement, mirrored, n) == part, "double complement differs")

    # The trace and its patch stages are the input of every remaining property.
    try:
        trace = _call("peel", peel, part, Side.LEFT)
        forward = _call("patch_stages", patch_stages, trace, Side.RIGHT)
    except InternalInvariantError as exc:
        for prop in ("psi-statistic-swap", "psi-round-trip", "involution", "per-stage-swap"):
            acc.fail(prop, text, str(exc))
        return
    image = forward[-1]

    with _Charge(acc, "psi-statistic-swap", text):
        ist = _call("statistics", statistics, image)
        _expect((ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons))

    with _Charge(acc, "psi-round-trip", text):
        _expect(_call("psi_inverse", psi_inverse, image) == part)
        _expect(_call("psi", psi, _call("psi_inverse", psi_inverse, part)) == part)

    with _Charge(acc, "involution", text):
        mirrored = _call("complement", complement, image, n)
        _expect(_call("complement", complement, _call("psi", psi, mirrored), n) == part)

    with _Charge(acc, "per-stage-swap", text):
        rebuilt = _call("trace_stages", trace_stages, trace)
        _expect(rebuilt[0] == part, "trace does not rebuild its input")
        k = len(trace.layers)
        for idx in range(k + 1):
            a = _call("statistics", statistics, forward[idx])
            b = _call("statistics", statistics, rebuilt[k - idx])
            if (a.singletons, a.adjacencies) != (b.adjacencies, b.singletons):
                raise InternalInvariantError(f"stage {k - idx}")


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
        problems = []
        if not dist.is_symmetric():
            problems.append("joint table is not symmetric")
        if dist != distribution(n, limit=n):
            problems.append("joint table differs from the closed form")
        yield Report(n, "polynomial-symmetry", not problems, "; ".join(problems))
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

