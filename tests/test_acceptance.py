"""End-to-end acceptance checks, one per shipped guarantee.

Each test pins exact expected values and, where a budget is stated, measures
wall time.  Run with ``pytest tests/test_acceptance.py -v -s`` to see one
pass line per criterion.
"""

from __future__ import annotations

import time

import pytest

from bpartitions import (
    BivariateDistribution,
    Side,
    complement,
    distribution,
    for_each,
    involution,
    patch_stages,
    peel,
    psi,
    psi_inverse,
    singleton_free_egf,
    singleton_free_ie,
    statistics,
    total_count,
    trace_stages,
    validate,
)
from bpartitions.enumeration import walk
from bpartitions.textio import parse_partition
from conftest import (
    BIG,
    BIG_IMAGE,
    BIG_MIRROR,
    BIG_MIRROR_IMAGE,
    CORE,
    MIRROR_CORE,
    PATCH_LEFT_ROWS,
    PATCH_RIGHT_ROWS,
    PEEL_LEFT_ROWS,
    PEEL_RIGHT_ROWS,
)

P2 = {(0, 0): 1, (0, 2): 1, (2, 0): 1}
P3 = {(0, 1): 3, (0, 3): 1, (1, 0): 3, (1, 1): 3, (3, 0): 1}
P4 = {
    (0, 0): 7, (0, 1): 4, (0, 2): 8, (0, 4): 1, (1, 0): 4,
    (1, 1): 8, (1, 2): 4, (2, 0): 8, (2, 1): 4, (4, 0): 1,
}


def report(criterion: int, label: str) -> None:
    print(f"criterion {criterion}: PASS - {label}")


def best_of(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


@pytest.fixture(scope="module")
def tables_to_9():
    """Enumerated joint tables for n = 1..9 with the sweep's wall time.

    A count-only leaf of the enumeration walk tallies them, so the theorem is
    checked by enumeration, independently of the closed-form ``distribution``.
    """
    t0 = time.perf_counter()
    tables = {}
    for n in range(1, 10):
        table = [[0] * (n + 1) for _ in range(n + 1)]

        def tally(blocks, s, a, table=table):
            table[s][a] += 1

        walk(n, tally)
        tables[n] = BivariateDistribution(n, tuple(tuple(row) for row in table))
    return tables, time.perf_counter() - t0


def check_rows(layers, stages, rows):
    assert len(layers) == len(rows)
    for step, singles, points, stage_text in rows:
        layer = layers[step - 1]
        assert layer.step == step
        assert set(layer.singletons) == singles
        assert set(layer.side_points) == points
        assert str(stages[step]) == stage_text


def test_criterion_1_forward_worked_example():
    part = parse_partition(BIG)
    trace = peel(part, Side.LEFT)
    check_rows(trace.layers, trace_stages(trace), PEEL_LEFT_ROWS)
    assert str(trace.core) == CORE

    stages = patch_stages(trace, Side.RIGHT)
    k = len(trace.layers)
    for step, singles, points, before in PATCH_RIGHT_ROWS:
        layer = trace.layers[step - 1]
        assert (set(layer.singletons), set(layer.side_points)) == (singles, points)
        assert str(stages[k - step]) == before
    image = psi(part)
    assert str(image) == BIG_IMAGE
    assert image == stages[-1]

    elapsed = best_of(lambda: psi(part))
    assert elapsed < 0.001, f"psi took {elapsed * 1000:.3f} ms"
    report(1, f"forward map and both stage tables exact ({elapsed * 1e6:.0f} us)")


def test_criterion_2_inverse_worked_example():
    mirror = parse_partition(BIG_MIRROR)
    trace = peel(mirror, Side.RIGHT)
    check_rows(trace.layers, trace_stages(trace), PEEL_RIGHT_ROWS)
    assert str(trace.core) == MIRROR_CORE

    stages = patch_stages(trace, Side.LEFT)
    k = len(trace.layers)
    for step, singles, points, before in PATCH_LEFT_ROWS:
        layer = trace.layers[step - 1]
        assert (set(layer.singletons), set(layer.side_points)) == (singles, points)
        assert str(stages[k - step]) == before
    image = psi_inverse(mirror)
    assert str(image) == BIG_MIRROR_IMAGE

    # conjugation identity on this instance
    part = parse_partition(BIG)
    assert complement(psi(part), 12) == psi_inverse(complement(part, 12)) == image

    elapsed = best_of(lambda: psi_inverse(mirror))
    assert elapsed < 0.001, f"psi_inverse took {elapsed * 1000:.3f} ms"
    report(2, f"inverse map and both stage tables exact ({elapsed * 1e6:.0f} us)")


def test_criterion_3_small_joint_polynomials():
    t0 = time.perf_counter()
    dists = {n: distribution(n) for n in (2, 3, 4)}
    elapsed = time.perf_counter() - t0
    for n, expected in ((2, P2), (3, P3), (4, P4)):
        assert {(s, a): c for s, a, c in dists[n].terms()} == expected
    assert elapsed < 1.0, f"distribution sweep took {elapsed:.3f} s"
    report(3, f"joint polynomials for n=2,3,4 exact ({elapsed * 1000:.0f} ms)")


def test_criterion_4_symmetry_to_8(tables_to_9):
    tables, elapsed = tables_to_9
    for n, dist in tables.items():
        table = dist.table
        for s in range(n + 1):
            for a in range(n + 1):
                assert table[s][a] == table[a][s], (n, s, a)
        assert dist == distribution(n), n
    assert tables[8].evaluate(1, 1) == 75905
    assert tables[9].evaluate(1, 1) == total_count(9)
    assert elapsed < 30.0, f"n=1..9 sweep took {elapsed:.1f} s"
    report(4, f"enumerated joint tables symmetric and equal to the closed form "
              f"for n=1..9 ({elapsed:.2f} s)")


def test_criterion_5_bijection_and_swap_to_7():
    t0 = time.perf_counter()
    for n in range(1, 8):
        images = set()

        def check(part):
            st = statistics(part)
            image = psi(part)
            validate(image)
            ist = statistics(image)
            assert (ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons)
            assert psi_inverse(image) == part
            images.add(image)

        count = for_each(n, check)
        assert len(images) == count == total_count(n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
    report(5, f"bijectivity and statistic swap exhaustive to n=7 ({elapsed:.2f} s)")


def test_criterion_6_involution_to_7():
    t0 = time.perf_counter()
    for n in range(1, 8):
        for_each(n, lambda part: None if involution(involution(part)) == part else pytest.fail(str(part)))
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"sweep took {elapsed:.1f} s"
    report(6, f"double involution is the identity to n=7 ({elapsed:.2f} s)")


def test_criterion_7_corollary_to_8(tables_to_9):
    tables, _ = tables_to_9
    for n, dist in tables.items():
        assert dist.evaluate(0, 1) == dist.evaluate(1, 0)
    report(7, "singleton-free equals adjacency-free for n=1..9")


def test_criterion_8_counting_triple_agreement(tables_to_9):
    t0 = time.perf_counter()
    series = singleton_free_egf(30)
    series_elapsed = time.perf_counter() - t0
    assert series_elapsed < 1.0, f"series expansion took {series_elapsed:.3f} s"
    for n in range(31):
        assert series[n] == singleton_free_ie(n)
    assert (series[2], series[3], series[4]) == (2, 4, 20)
    assert total_count(2) == 3

    tables, _ = tables_to_9
    for n in range(1, 10):
        assert tables[n].evaluate(0, 1) == series[n]
        assert tables[n].evaluate(1, 1) == total_count(n)

    # n = 9 and 10 by direct enumeration, counting on the walk's live blocks
    # (none is empty, so a block of size one is exactly a singleton pair)
    for n in (9, 10):
        free = [0]

        def leaf(blocks, s, a):
            if 1 not in map(len, blocks):
                free[0] += 1

        assert walk(n, leaf) == total_count(n)
        assert free[0] == singleton_free_ie(n) == series[n]
    report(8, f"three counting pipelines agree (n<=30 series, n<=10 enumeration; "
              f"series in {series_elapsed * 1000:.0f} ms)")


def test_criterion_9_per_stage_swap_to_6():
    for n in range(1, 7):

        def check(part):
            trace = peel(part, Side.LEFT)
            peeled = trace_stages(trace)
            patched = patch_stages(trace, Side.RIGHT)
            k = len(trace.layers)
            for j in range(k + 1):
                a = statistics(peeled[j])
                b = statistics(patched[k - j])
                assert (b.singletons, b.adjacencies) == (a.adjacencies, a.singletons), (
                    str(part),
                    j,
                )

        for_each(n, check)
    report(9, "per-stage statistic swap holds at every layer to n=6")
