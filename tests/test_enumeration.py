"""Exhaustive generation: counts, order, running statistics, and a raising visitor."""

from __future__ import annotations

import hashlib

import pytest

from bpartitions import counting, for_each, statistics, total_count, validate
from bpartitions.enumeration import leaf_counts, rank, walk
from conftest import brute_stirling


def collect(n):
    seen = []
    for_each(n, lambda p: seen.append(str(p)))
    return seen


class TestForEach:
    def test_n0_visits_empty_partition(self):
        seen = []
        assert for_each(0, lambda p: seen.append(p)) == 1
        assert not seen[0].blocks

    def test_n1(self):
        assert collect(1) == ["1"]

    def test_n2_exact_order(self):
        assert collect(2) == ["1 / 2", "1,2", "1,-2"]

    def test_n3_count(self):
        assert len(collect(3)) == 11

    def test_n4_count_against_oracle(self):
        # sum over block counts j of 2**(4-j) * S(4, j), with S from the
        # brute-force oracle: 8*1 + 4*7 + 2*6 + 1*1 = 49
        expected = sum(2 ** (4 - j) * brute_stirling(4, j) for j in range(5))
        assert expected == 49
        assert for_each(4, lambda p: None) == 49

    @pytest.mark.parametrize("n", range(8))
    def test_count_matches_formula(self, n):
        assert for_each(n, lambda p: None) == total_count(n)

    def test_no_duplicates_and_valid(self):
        seen = set()

        def visit(part):
            validate(part)
            assert len(part.ground) == 6
            seen.add(part)

        count = for_each(6, visit)
        assert len(seen) == count == total_count(6)

    def test_a_raising_visitor_ends_the_walk(self):
        # what a visitor returns is ignored; an exception it raises ends the
        # walk and reaches the caller unchanged
        assert for_each(4, lambda p: False) == 49
        visits = []

        def visit(part):
            visits.append(part)
            if len(visits) == 5:
                raise KeyError("stop")

        with pytest.raises(KeyError, match="stop"):
            for_each(4, visit)
        assert len(visits) == 5

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            for_each(-1, lambda p: None)

    def test_walk_rejects_negative_n_before_any_leaf(self):
        leaves = []
        with pytest.raises(ValueError, match="^n must be nonnegative, got -1$"):
            walk(-1, lambda blocks, s, a: leaves.append(blocks))
        assert leaves == []


# Recorded from the walk that kept its blocks as lists: the text of every
# partition for_each(n) visits, n = 0..7, one line each in visit order.
FOR_EACH_DIGEST = "ea6680e5646e649f9f0ba7cc4bb50ab21137e292a5dcbada3215aae092ec0172"


def test_visit_order_is_pinned():
    digest = hashlib.sha256()
    for n in range(8):
        for_each(n, lambda p: digest.update(f"{p}\n".encode()))
    assert digest.hexdigest() == FOR_EACH_DIGEST


def test_walk_counts_follow_for_each_order():
    # the walk's running (s, a) at each leaf is the recount of the partition
    # for_each builds at the same leaf, at every leaf of V_0..V_7
    for n in range(8):
        counts = []
        walk(n, lambda blocks, s, a: counts.append((s, a)))
        expected = []
        for_each(n, lambda p: expected.append((statistics(p).singletons, statistics(p).adjacencies)))
        assert counts == expected, n
        assert len(counts) == total_count(n)


def test_per_block_pair_counts():
    # stratified count: partitions with exactly 2j blocks number
    # 2**(n-j) * S(n, j); checked against the brute-force Stirling oracle
    n = 6
    hist = [0] * (n + 1)

    def visit(part):
        hist[len(part.blocks)] += 1

    for_each(n, visit)
    for j in range(n + 1):
        assert hist[j] == 2 ** (n - j) * brute_stirling(n, j)


def test_rank_is_the_visit_index():
    # one table serves every n below its own
    w = leaf_counts(7)
    for n in range(8):
        ranks = []
        for_each(n, lambda p: ranks.append(rank(p.blocks, w)))
        assert ranks == list(range(total_count(n)))


def test_leaf_counts_give_total_count():
    # W(n, 0) = |V_n|, a count that shares no code with stirling_row;
    # total_count(n) for every n <= 300, from one pass over the Stirling rows
    w = leaf_counts(300)
    totals = [counting._total(row) for row in counting._stirling_rows(300)]
    assert [w[n][0] for n in range(301)] == totals
    assert w[300][0] == total_count(300)
