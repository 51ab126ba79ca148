"""Exhaustive property suite covering every documented invariant.

For each n, one sweep over V_n accumulates the joint statistic table and the
block-pair histogram while checking per-partition properties: canonical form,
text round trip, the complement involution, the peel/patch round trips with
their statistic swaps, the per-stage swap, and the double application of the
complement-conjugated map.  Aggregate counts are then reconciled against the
closed formulas, the closed-form joint table and the generating function.  A
report passes exactly when its detail is empty.  Any exception raised while a
visit is inspected is charged to the property whose check raised it, and the
witness names the failing call.  ``no-duplicates`` holds when every
partition's rank in the walk's order equals its visit index, so a worker
keeps no per-partition state beyond one batch: its table, histogram and
leaf-count table take O(n^2) space, plus ``CHUNK`` visits, whatever |V_n| is.

A worker buffers the visits it inspects into batches of ``CHUNK`` and runs
one call at a time over a whole batch, each peel/patch entry point in a loop
of its own.  Inspecting a visit calls about a dozen different functions, and
in that mix each call cost 15-115% more than in a loop of its own (on V_6,
157 us a visit against 114 us); loading ``psi`` and ``trace_stages`` from two
copies of the package did not help, so the cost is the CPU's instruction
cache and branch predictors.  One call at a time over a batch keeps each
one's code hot, as buffering between database operators does (Zhou and Ross,
SIGMOD 2004).  So a property that makes two different calls in a row makes
them in two loops and keeps the first result on the visit.  Over V_1..V_7
(CPU seconds, best of 3), ``peel`` then ``patch_stages`` took 0.56 in one loop
and 0.20 + 0.25 in two, ``trace_stages`` then the stage statistics 0.46
against 0.23 + 0.13, and ``complement`` then ``involution`` 0.29 against
0.04 + 0.21.  A visit whose call raises drops out of its property's later
loops, so the witness still names the first call to fail.  The round trip's
three calls stay in one loop: they share one kernel entry, and splitting them
measured level.  A witness is the failing visit with the smallest index, so
the batch size never shows.

A sweep can be split across W processes by visit index: every worker walks
all of V_n, which costs well under a microsecond a leaf, and inspects only the
leaves whose index is its own modulo W.  A witness carries its visit index and
the merge keeps the smallest, so the output never depends on the worker count.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator

from .core import InternalInvariantError, adjacency_pairs, complement, statistics, validate
from .counting import (
    BivariateDistribution,
    distribution,
    singleton_free_egf,
    singleton_free_ie,
    stirling_row,
    total_count,
)
from .enumeration import for_each, leaf_counts, rank
from .peelpatch import Side, involution, patch_stages, peel, psi, psi_inverse, trace_stages
from .textio import parse_partition

PER_PARTITION_PROPERTIES = (
    "validity",
    "textio-roundtrip",
    "complement-involution",
    # the last four read the peel's trace and its patch stages
    "psi-statistic-swap",
    "psi-round-trip",
    "involution",
    "per-stage-swap",
)

CHUNK = 64  # visits a batch holds: 256 was about 1% faster and held 0.4 MB more


@dataclass(frozen=True)
class Report:
    """Outcome of one property at one n."""

    n: int
    name: str
    ok: bool
    detail: str = ""


class _Visit:
    """One inspected visit, and the results its checks hand on to later ones."""

    __slots__ = ("index", "part", "text", "st", "trace", "forward", "ist", "mirrored", "rebuilt")

    def __init__(self, index: int, part):
        self.index = index  # its place in the walk's order
        self.part = part
        self.text = str(part)
        self.st = self.trace = self.forward = self.ist = self.mirrored = self.rebuilt = None


class _Accumulator:
    """Per-worker totals, and the ``with`` block that charges a failure.

    ``with acc.charge(visit, *props):`` charges any exception raised in it to
    each of ``props``, witnessed by ``visit``.  A property keeps the witness
    with the smallest visit index, as the merge across workers does, so the
    order in which checks reach their visits never shows.
    """

    def __init__(self, n: int):
        self.n = n
        self.table = [[0] * (n + 1) for _ in range(n + 1)]
        self.hist = [0] * (n + 1)
        self.visit: _Visit | None = None  # the visit under inspection
        self.props: tuple[str, ...] = ()
        self.witnesses: dict[str, tuple[int, str]] = {}
        self.leaf_counts = leaf_counts(n)

    def charge(self, visit: _Visit, *props: str) -> _Accumulator:
        self.visit = visit
        self.props = props
        return self

    def __enter__(self) -> None:
        pass

    def __exit__(self, kind, exc, tb) -> bool:
        if not isinstance(exc, Exception):
            return False
        detail = str(exc)
        text = self.visit.text
        found = (self.visit.index, f"witness {text} ({detail})" if detail else f"witness {text}")
        for prop in self.props:
            self.witnesses[prop] = min(self.witnesses.get(prop, found), found)
        return True


def _call(name: str, fn, *args):
    """``fn(*args)``; an exception it raises becomes a failure that names ``name``."""
    try:
        return fn(*args)
    except Exception as exc:
        raise InternalInvariantError(f"{name} raised {type(exc).__name__}: {exc}") from exc


def _expect(ok: bool, detail: str = "") -> None:
    if not ok:
        raise InternalInvariantError(detail)


def _inspect_batch(batch: list[tuple], acc: _Accumulator) -> None:
    """Run each call over every visit of ``batch``, in visit order, before the next."""
    n = acc.n
    visits = []  # without statistics a visit tabulates nothing and checks no further
    for index, part in batch:
        v = _Visit(index, part)
        with acc.charge(v, "validity"):
            v.st = _call("statistics", statistics, part)
        if v.st is not None:
            acc.table[v.st.singletons][v.st.adjacencies] += 1
            acc.hist[len(part.blocks)] += 1
            visits.append(v)

    for v in visits:
        with acc.charge(v, "no-duplicates"):
            r = _call("rank", rank, v.part.blocks, acc.leaf_counts)
            _expect(r == v.index, f"rank {r} at visit {v.index}")

    for v in visits:
        part, st = v.part, v.st
        with acc.charge(v, "validity"):
            _call("validate", validate, part)
            pairs = _call("adjacency_pairs", adjacency_pairs, part, st)
            lp, rp = {t for t, _ in pairs}, {u for _, u in pairs}
            counted = len(lp) == len(rp) == st.adjacencies
            _expect(counted, "point sets do not match the adjacency count")
            overlap = len(part.ground) >= 2 and (lp | rp) & set(st.singleton_elements)
            _expect(not overlap, "singletons overlap adjacency points")

    for v in visits:
        with acc.charge(v, "textio-roundtrip"):
            _expect(_call("parse_partition", parse_partition, v.text) == v.part)

    for v in visits:
        part, st = v.part, v.st
        with acc.charge(v, "complement-involution"):
            mirrored = _call("complement", complement, part, n)
            mst = _call("statistics", statistics, mirrored)
            same = (mst.singletons, mst.adjacencies) == (st.singletons, st.adjacencies)
            _expect(same, "statistics changed")
            twice = _call("complement", complement, mirrored, n)
            _expect(twice == part, "double complement differs")

    # The trace and its patch stages are the input of every remaining property.
    # A visit whose call raises drops out of its properties' later loops, so
    # each keeps the witness that names the first call to fail.
    peeled = []
    for v in visits:
        with acc.charge(v, *PER_PARTITION_PROPERTIES[3:]):
            v.trace = _call("peel", peel, v.part, Side.LEFT)
            peeled.append(v)

    traced = []
    for v in peeled:
        with acc.charge(v, *PER_PARTITION_PROPERTIES[3:]):
            v.forward = _call("patch_stages", patch_stages, v.trace, Side.RIGHT)
            traced.append(v)

    for v in traced:
        st = v.st
        with acc.charge(v, "psi-statistic-swap"):
            _call("validate", validate, v.forward[-1])
            v.ist = ist = _call("statistics", statistics, v.forward[-1])
            _expect((ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons))

    for v in traced:
        part = v.part
        with acc.charge(v, "psi-round-trip"):
            _expect(_call("psi_inverse", psi_inverse, v.forward[-1]) == part)
            _expect(_call("psi", psi, _call("psi_inverse", psi_inverse, part)) == part)

    mirrored = []
    for v in traced:
        with acc.charge(v, "involution"):
            v.mirrored = _call("complement", complement, v.forward[-1], n)
            mirrored.append(v)

    for v in mirrored:
        with acc.charge(v, "involution"):
            _expect(_call("involution", involution, v.mirrored) == v.part)

    rebuilt = []
    for v in traced:
        with acc.charge(v, "per-stage-swap"):
            v.rebuilt = _call("trace_stages", trace_stages, v.trace)
            rebuilt.append(v)

    for v in rebuilt:
        forward, stages = v.forward, v.rebuilt
        with acc.charge(v, "per-stage-swap"):
            _expect(stages[0] == v.part, "trace does not rebuild its input")
            # Each stage's statistics once, by identity: stages[0] equals the
            # input, forward[k] is the image, and forward[0] is stages[k], the core.
            known = {id(stages[0]): v.st}
            if v.ist is not None:
                known[id(forward[-1])] = v.ist

            def stage_statistics(stage):
                if id(stage) not in known:
                    known[id(stage)] = _call("statistics", statistics, stage)
                return known[id(stage)]

            k = len(v.trace.layers)
            for idx in range(k + 1):
                a = stage_statistics(forward[idx])
                b = stage_statistics(stages[k - idx])
                if (a.singletons, a.adjacencies) != (b.adjacencies, b.singletons):
                    raise InternalInvariantError(f"stage {k - idx}")


def _sweep_stripe(args: tuple[int, int, int]) -> tuple:
    """Walk V_n; inspect the leaves whose visit index is ``stripe`` modulo ``stripes``."""
    n, stripe, stripes = args
    acc = _Accumulator(n)
    batch: list[tuple] = []  # (visit index, partition) pairs
    index = 0

    def visit(part) -> None:
        nonlocal index
        if index % stripes == stripe:
            batch.append((index, part))
            if len(batch) == CHUNK:
                _inspect_batch(batch, acc)
                batch.clear()
        index += 1

    visits = for_each(n, visit)
    if batch:
        _inspect_batch(batch, acc)
    return visits, acc.table, acc.hist, acc.witnesses


@dataclass
class SweepResult:
    visits: int
    table: list[list[int]]
    hist: list[int]
    witnesses: dict[str, str]


def sweep(n: int, jobs: int = 1) -> SweepResult:
    """One full pass over V_n, optionally split across processes.

    The worker count is ``jobs`` clamped to the CPU count and to |V_n|, so no
    argument starts more processes than can run at once or have work to do.
    Worker w inspects the partitions whose visit index is w modulo the worker
    count; each witness is the first failing partition in :func:`for_each`
    order, whatever the worker count.
    """
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:  # a single worker needs no |V_n|
        workers = min(workers, total_count(n))
    if workers > 1:
        # imported here: the pool pulls in multiprocessing, which no other
        # command needs
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sweep_stripe, [(n, w, workers) for w in range(workers)]))
    else:
        results = [_sweep_stripe((n, 0, 1))]

    # every worker walks all of V_n, so each returns the same visit count
    visits = results[0][0]
    table = [[0] * (n + 1) for _ in range(n + 1)]
    hist = [0] * (n + 1)
    found: dict[str, tuple[int, str]] = {}
    for _, part_table, part_hist, part_witnesses in results:
        for s in range(n + 1):
            for a in range(n + 1):
                table[s][a] += part_table[s][a]
        for j in range(n + 1):
            hist[j] += part_hist[j]
        for prop, witness in part_witnesses.items():
            found[prop] = min(found.get(prop, witness), witness)
    witnesses = {prop: text for prop, (_, text) in found.items()}
    return SweepResult(visits, table, hist, witnesses)


def iter_suite(max_n: int, jobs: int = 1) -> Iterator[Report]:
    """Yield one :class:`Report` per property per n, for n = 1..max_n."""
    if max_n < 1:
        raise ValueError(f"max_n must be at least 1, got {max_n}")
    egf = singleton_free_egf(max_n)
    for n in range(1, max_n + 1):
        for name, detail in _details(n, sweep(n, jobs), egf[n]):
            yield Report(n, name, not detail, detail)


def _details(n: int, res: SweepResult, egf_n: int) -> Iterator[tuple[str, str]]:
    """Each property's name and detail at n, in report order."""
    for prop in PER_PARTITION_PROPERTIES:
        yield prop, res.witnesses.get(prop, "")

    expected = total_count(n)
    table_total = sum(map(sum, res.table))
    counts = f"visited {res.visits}, tabulated {table_total}, expected {expected}"
    yield "enumeration-count", "" if res.visits == expected == table_total else counts
    yield "no-duplicates", res.witnesses.get("no-duplicates", "")
    row = stirling_row(n)
    bad = [j for j in range(n + 1) if res.hist[j] != 2 ** (n - j) * row[j]]
    yield "block-histogram", f"wrong count for {2 * bad[0]} blocks" if bad else ""
    dist = BivariateDistribution(n, tuple(tuple(row) for row in res.table))
    problems = []
    if not dist.is_symmetric():
        problems.append("joint table is not symmetric")
    if dist != distribution(n, limit=n):
        problems.append("joint table differs from the closed form")
    yield "polynomial-symmetry", "; ".join(problems)
    sf_enum = dist.evaluate(0, 1)
    af_enum = dist.evaluate(1, 0)
    sides = f"{sf_enum} singleton-free vs {af_enum} adjacency-free"
    yield "corollary", "" if sf_enum == af_enum else sides
    sf_ie = singleton_free_ie(n)
    routes = f"enumeration {sf_enum}, inclusion-exclusion {sf_ie}, series {egf_n}"
    yield "singleton-free-triple", "" if sf_enum == sf_ie == egf_n else routes
