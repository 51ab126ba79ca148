"""The property suite itself: clean passes, and failure detection when broken."""

from __future__ import annotations

import pytest

import bpartitions.verification as verification
from bpartitions import (
    BivariateDistribution,
    SignedPartition,
    for_each,
    make_partition,
    psi,
    total_count,
)
from bpartitions.peelpatch import Side, peel
from bpartitions.cli import run
from bpartitions.verification import Report, iter_suite, sweep


def test_suite_passes_cleanly():
    reports = list(iter_suite(4))
    assert reports and all(r.ok for r in reports)
    names = {r.name for r in reports}
    assert {
        "validity",
        "textio-roundtrip",
        "complement-involution",
        "psi-statistic-swap",
        "psi-round-trip",
        "involution",
        "per-stage-swap",
        "enumeration-count",
        "no-duplicates",
        "block-histogram",
        "polynomial-symmetry",
        "corollary",
        "singleton-free-triple",
    } <= names


def test_sweep_counts_and_table(monkeypatch):
    ranks = []
    real_rank = verification.rank

    def recorded(blocks, w):
        ranks.append(real_rank(blocks, w))
        return ranks[-1]

    monkeypatch.setattr(verification, "rank", recorded)
    res = sweep(4)
    assert res.visits == 49
    assert sum(map(sum, res.table)) == 49
    # the duplicate check ranked 49 distinct partitions
    assert sorted(ranks) == list(range(49))
    assert not res.witnesses


def test_parallel_sweep_matches_sequential():
    a, b = sweep(5, jobs=1), sweep(5, jobs=3)
    assert (a.visits, a.table, a.hist, a.witnesses) == (b.visits, b.table, b.hist, b.witnesses)
    assert "no-duplicates" not in b.witnesses


@pytest.fixture
def in_process_pool(monkeypatch):
    """Three CPUs, and a process pool that runs each stripe in this process,
    so the stripes see the test's sabotage; returns the sizes of the pools."""
    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr("os.cpu_count", lambda: 3)
    return pools


def test_split_sweep_reports_the_first_witness_in_walk_order(monkeypatch, in_process_pool):
    pools = in_process_pool
    real_validate = verification.validate

    def signed(part):
        return any(m < 0 for b in part.blocks for m in b)

    def broken(part):
        if signed(part):
            raise RuntimeError("sabotaged")
        return real_validate(part)

    monkeypatch.setattr(verification, "validate", broken)
    order = []
    for_each(5, lambda p: order.append(p))
    first = next(i for i, p in enumerate(order) if signed(p))
    # the first failure lies outside worker 0's share, so keeping worker 0's
    # witness, or the first worker's to report, would name a later partition
    assert first % 3 != 0

    # psi-statistic-swap validates the image of psi, so it fails too, first
    # at the first partition whose image is signed
    first_image = next(i for i, p in enumerate(order) if signed(psi(p)))
    assert first_image % 3 != 0

    split, whole = sweep(5, jobs=3), sweep(5, jobs=1)
    assert pools == [3]
    assert split.witnesses == whole.witnesses
    assert set(whole.witnesses) == {"validity", "psi-statistic-swap"}
    assert whole.witnesses["validity"] == (
        f"witness {order[first]} (validate raised RuntimeError: sabotaged)"
    )
    assert whole.witnesses["psi-statistic-swap"] == (
        f"witness {order[first_image]} (validate raised RuntimeError: sabotaged)"
    )


def _signed(part):
    return any(m < 0 for b in part.blocks for m in b)


def _sabotage_validate(monkeypatch, order):
    real = verification.validate

    def broken(part):
        if _signed(part):
            raise RuntimeError("sabotaged")
        return real(part)

    monkeypatch.setattr(verification, "validate", broken)


def _sabotage_psi_inverse(monkeypatch, order):
    # psi-round-trip calls psi_inverse on the input and on its image: it
    # raises only on a partition visited past visit 100 whose preimage under
    # psi is also visited past visit 100, so every visit it fails lies past
    # visit 100, in a later batch than validity's first witness; returns the
    # index of psi-round-trip's first witness
    real = verification.psi_inverse
    late = set(order[101:]) & {psi(p) for p in order[101:]}

    def broken(part):
        if part in late:
            raise RuntimeError("sabotaged")
        return real(part)

    monkeypatch.setattr(verification, "psi_inverse", broken)
    _sabotage_validate(monkeypatch, order)
    return next(i for i, p in enumerate(order) if p in late or psi(p) in late)


def _sabotage_statistics_after_validate(monkeypatch, order):
    # validity fails at the first signed visit, through validate, and again
    # a few visits later, through statistics, which an earlier check runs
    first = next(i for i, p in enumerate(order) if _signed(p))
    real = verification.statistics

    def broken(part):
        if part == order[first + 4]:
            raise RuntimeError("sabotaged")
        return real(part)

    monkeypatch.setattr(verification, "statistics", broken)
    _sabotage_validate(monkeypatch, order)


@pytest.mark.parametrize(
    "sabotage",
    [None, _sabotage_validate, _sabotage_psi_inverse, _sabotage_statistics_after_validate],
)
def test_witnesses_do_not_depend_on_the_batch_size(monkeypatch, in_process_pool, sabotage):
    order = []
    for_each(5, order.append)
    round_trip = sabotage(monkeypatch, order) if sabotage else None

    def outcome(jobs):
        res = sweep(5, jobs)
        return res.visits, res.table, res.hist, res.witnesses

    default = [outcome(jobs) for jobs in (1, 3)]
    assert default[0] == default[1]
    for chunk in (1, 2, 5):
        monkeypatch.setattr(verification, "CHUNK", chunk)
        assert [outcome(jobs) for jobs in (1, 3)] == default

    witnesses = default[0][3]
    if sabotage is None:
        assert not witnesses
        return
    first = next(i for i, p in enumerate(order) if _signed(p))
    assert witnesses["validity"] == (
        f"witness {order[first]} (validate raised RuntimeError: sabotaged)"
    )
    if sabotage is _sabotage_psi_inverse:
        assert round_trip > 100 and first < 64
        assert witnesses["psi-round-trip"] == (
            f"witness {order[round_trip]} (psi_inverse raised RuntimeError: sabotaged)"
        )


def test_a_sweep_holds_at_most_one_batch(monkeypatch):
    sizes = []
    real = verification._inspect_batch

    def recorded(batch, acc):
        sizes.append(len(batch))
        return real(batch, acc)

    monkeypatch.setattr(verification, "_inspect_batch", recorded)
    assert not sweep(6).witnesses
    assert max(sizes) <= verification.CHUNK
    assert sum(sizes) == total_count(6) == 1539


def test_a_repeated_partition_is_caught(monkeypatch, in_process_pool):
    # sabotage: at one visit index of V_4 the walk hands over the partition
    # it visited just before, so one partition comes twice and one never
    real_for_each = verification.for_each
    repeat = 10

    def repeating(n, visitor):
        seen = []

        def visit(part):
            seen.append(part)
            return visitor(seen[-2] if n == 4 and len(seen) == repeat + 1 else part)

        return real_for_each(n, visit)

    monkeypatch.setattr(verification, "for_each", repeating)
    order = []
    real_for_each(4, order.append)
    # worker 0 of three does not inspect the repeat
    assert repeat % 3 != 0
    expected = f"witness {order[repeat - 1]} (rank {repeat - 1} at visit {repeat})"
    for jobs in (1, 3):
        failed = [r for r in iter_suite(4, jobs) if not r.ok and r.name == "no-duplicates"]
        assert [(r.n, r.detail) for r in failed] == [(4, expected)]
    # the split run stripes n = 2, 3 and 4 over three workers
    assert in_process_pool == [3, 3, 3]


def test_a_raising_statistics_is_charged_to_validity(monkeypatch, capsys, in_process_pool):
    # sabotage: statistics raises on every 3-block partition, so the visit
    # can tabulate nothing and checks no further
    real_statistics = verification.statistics

    def broken(part):
        if len(part.blocks) == 3:
            raise RuntimeError("sabotaged")
        return real_statistics(part)

    monkeypatch.setattr(verification, "statistics", broken)
    order = []
    for_each(3, order.append)
    first = next(p for p in order if len(p.blocks) == 3)
    expected = f"witness {first} (statistics raised RuntimeError: sabotaged)"
    for jobs in (1, 3):
        assert sweep(3, jobs).witnesses["validity"] == expected
    assert run(["verify", "--max-n", "3", "--jobs", "3"]) == 3
    assert f"FAIL n=3 validity: {expected}\n" in capsys.readouterr().out


def test_broken_patch_is_caught(monkeypatch):
    # sabotage: "patching" that just un-peels cannot swap the statistics
    monkeypatch.setattr(
        verification,
        "patch_stages",
        lambda trace, attach: tuple(reversed(verification.trace_stages(trace))),
    )
    reports = [r for r in iter_suite(2) if r.name == "psi-statistic-swap"]
    failed = [r for r in reports if not r.ok]
    assert failed and "witness" in failed[0].detail


def test_a_non_canonical_image_is_caught(monkeypatch):
    # sabotage: the image of psi with its blocks out of order keeps both
    # statistics, so only validating it shows the fault
    real = verification.patch_stages

    def unsorted(trace, attach):
        *stages, image = real(trace, attach)
        return (*stages, SignedPartition(image.ground, image.blocks[::-1]))

    monkeypatch.setattr(verification, "patch_stages", unsorted)
    failed = {r.name: r.detail for r in iter_suite(3) if not r.ok}
    assert "validate raised InternalInvariantError" in failed["psi-statistic-swap"]


def test_broken_map_is_caught(monkeypatch):
    monkeypatch.setattr(verification, "psi", lambda part: part)
    reports = [r for r in iter_suite(2) if r.name == "psi-round-trip"]
    assert any(not r.ok for r in reports)


def test_an_involution_that_forgets_the_mirror_is_caught(monkeypatch):
    # sabotage: psi without the complement that follows it
    monkeypatch.setattr(verification, "involution", psi)
    failed = {r.name for r in iter_suite(3) if not r.ok}
    assert failed == {"involution"}


def test_a_wrong_core_stage_is_caught(monkeypatch):
    # sabotage: the un-peeled stages still rebuild the input, but the stage
    # given as the core is the one above it, so only the stage-by-stage
    # comparison with the patch stages can see it
    real = verification.trace_stages

    def wrong_core(trace):
        stages = real(trace)
        return (*stages[:-1], stages[-2]) if len(stages) > 1 else stages

    monkeypatch.setattr(verification, "trace_stages", wrong_core)
    failed = {(r.n, r.name): r.detail for r in iter_suite(3) if not r.ok}
    assert failed == {
        (n, "per-stage-swap"): f"witness {' / '.join(map(str, range(1, n + 1)))} (stage 1)"
        for n in (1, 2, 3)
    }


def test_broken_closed_form_is_caught(monkeypatch):
    # sabotage: a symmetric table that is not the enumerated one
    def broken(n, *, limit):
        table = [[0] * (n + 1) for _ in range(n + 1)]
        table[0][0] = total_count(n)
        return BivariateDistribution(n, tuple(tuple(row) for row in table))

    monkeypatch.setattr(verification, "distribution", broken)
    failed = {(r.n, r.name): r.detail for r in iter_suite(3) if not r.ok}
    assert set(failed) == {(n, "polynomial-symmetry") for n in (1, 2, 3)}
    for detail in failed.values():
        assert detail == "joint table differs from the closed form"


def test_broken_complement_is_caught(monkeypatch):
    # sabotage: complement that scatters everything into singletons
    monkeypatch.setattr(
        verification,
        "complement",
        lambda part, n: make_partition([[t] for t in range(1, n + 1)]),
    )
    reports = [r for r in iter_suite(2) if r.name == "complement-involution"]
    assert any(not r.ok for r in reports)


PEEL_PROPERTIES = {"psi-statistic-swap", "psi-round-trip", "involution", "per-stage-swap"}


@pytest.mark.parametrize(
    "call, charged",
    [
        ("psi_inverse", {"psi-round-trip"}),
        ("trace_stages", {"per-stage-swap"}),
        # the image of psi is the last patch stage: every peel property needs it
        ("patch_stages", PEEL_PROPERTIES),
        ("peel", PEEL_PROPERTIES),
        ("psi", {"psi-round-trip"}),
        ("involution", {"involution"}),
        # complement-involution mirrors the input, involution the image
        ("complement", {"complement-involution", "involution"}),
        ("parse_partition", {"textio-roundtrip"}),
        ("rank", {"no-duplicates"}),
        ("adjacency_pairs", {"validity"}),
        # psi-statistic-swap validates the image of psi
        ("validate", {"validity", "psi-statistic-swap"}),
    ],
)
def test_an_exception_is_charged_to_the_property_that_raised(monkeypatch, call, charged):
    def broken(*args):
        raise RuntimeError("sabotaged")

    monkeypatch.setattr(verification, call, broken)
    failed = {r.name: r.detail for r in iter_suite(3) if not r.ok}
    assert set(failed) == charged
    for detail in failed.values():
        assert f"{call} raised RuntimeError: sabotaged" in detail


def _fail_peel(order):
    # peel raises on the chosen visit; patch_stages would then be handed the
    # trace that visit never got
    chosen = order[20]
    real_peel, real_patch = verification.peel, verification.patch_stages

    def broken(part, side):
        if part == chosen:
            raise RuntimeError("sabotaged")
        return real_peel(part, side)

    def watched(trace, attach):
        later.append(trace)
        return real_patch(trace, attach)

    later = []
    return chosen, "peel", PEEL_PROPERTIES, {"peel": broken, "patch_stages": watched}, later


def _fail_trace_stages(order):
    # trace_stages raises on the chosen visit; comparing its stages with the
    # patch stages would then read stages that were never built
    chosen = order[20]
    real = verification.trace_stages

    def broken(trace):
        stages = real(trace)
        if stages[0] == chosen:
            raise RuntimeError("sabotaged")
        return stages

    # the comparison makes no call of its own that could be watched
    return chosen, "trace_stages", {"per-stage-swap"}, {"trace_stages": broken}, None


def _fail_complement(order):
    # complement raises on the image of the chosen visit; involution would
    # then return a wrong partition for the mirror that was never built
    chosen = order[20]
    image = psi(chosen)
    real_complement, real_involution = verification.complement, verification.involution

    def broken(part, n):
        if part == image:
            raise RuntimeError("sabotaged")
        return real_complement(part, n)

    def watched(part):
        later.append(part)
        return image if part is None else real_involution(part)

    later = []
    calls = {"complement": broken, "involution": watched}
    return chosen, "complement", {"involution"}, calls, later


@pytest.mark.parametrize("sabotage", [_fail_peel, _fail_trace_stages, _fail_complement])
def test_a_failed_call_keeps_its_witness(monkeypatch, sabotage):
    # A property that makes several calls in a row charges the first one to
    # fail, and makes no later call on that visit: the witness names the
    # first call, and a watched later call runs on a real result of every
    # other visit and never on the failed visit's missing one.
    order = []
    for_each(4, order.append)
    chosen, first, props, calls, later = sabotage(order)
    assert chosen != psi(chosen) and peel(chosen, Side.LEFT).layers
    for name, fn in calls.items():
        monkeypatch.setattr(verification, name, fn)
    witnesses = sweep(4).witnesses
    for prop in props:
        assert witnesses[prop] == f"witness {chosen} ({first} raised RuntimeError: sabotaged)"
    if later is not None:
        assert None not in later and len(later) == len(order) - 1


def test_rejects_bad_max_n():
    with pytest.raises(ValueError):
        list(iter_suite(0))


def test_report_is_frozen():
    r = Report(1, "validity", True)
    with pytest.raises(AttributeError):
        r.ok = False
