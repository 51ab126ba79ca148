"""Exhaustive generation: counts, order, slicing, and early abort."""

from __future__ import annotations

import pytest

from bpartitions import for_each, make_partition, statistics, total_count, validate
from bpartitions.enumeration import EnumerationState, complete, slice, walk


def brute_stirling(k: int, j: int) -> int:
    """Independent oracle: count set partitions of {1..k} into j blocks by
    enumerating block-index assignments and discarding non-surjective ones."""
    if j == 0:
        return 1 if k == 0 else 0
    from itertools import product
    from math import factorial

    hits = sum(
        1
        for assign in product(range(j), repeat=k)
        if len(set(assign)) == j
    )
    return hits // factorial(j)


def collect(n):
    seen = []
    for_each(n, lambda p: seen.append(str(p)))
    return seen


class TestForEach:
    def test_n0_visits_empty_partition(self):
        seen = []
        assert for_each(0, lambda p: seen.append(p)) == 1
        assert seen[0].is_empty

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

    def test_abort_propagates(self):
        visits = []

        def visit(part):
            visits.append(part)
            if len(visits) == 5:
                return False

        assert for_each(4, visit) == 5
        assert len(visits) == 5

    def test_negative_n_rejected(self):
        with pytest.raises(ValueError):
            for_each(-1, lambda p: None)


class TestSlice:
    def test_depth_one_is_single_root(self):
        states = slice(3, 1)
        assert len(states) == 1
        assert states[0].blocks == ((1,),)

    def test_depth_two_branching(self):
        states = slice(3, 2)
        assert len(states) == 3
        assert [s.blocks for s in states] == [((1,), (2,)), ((1, 2),), ((1, -2),)]

    def test_states_are_valid_prefixes(self):
        for state in slice(4, 3):
            assert sum(map(len, state.blocks)) == 3
            validate(make_partition(state.blocks))

    def test_completions_cover_for_each_in_order(self):
        full = collect(4)
        pieces = []
        for state in slice(4, 2):
            complete(state, lambda p: pieces.append(str(p)))
        assert pieces == full
        assert len(pieces) == 49

    @pytest.mark.parametrize("depth", range(1, 6))
    def test_completions_cover_for_each_at_every_depth(self, depth):
        pieces = []
        counts = []
        for state in slice(5, depth):
            complete(state, lambda p: pieces.append(str(p)))
            prefix = [list(b) for b in state.blocks]
            walk(5, prefix, 5, lambda blocks, s, a: counts.append((s, a)))
        assert pieces == collect(5)
        # the running counts, seeded from the prefix, match a full recount
        expected = []
        for_each(5, lambda p: expected.append((statistics(p).singletons, statistics(p).adjacencies)))
        assert counts == expected

    def test_depth_bounds(self):
        with pytest.raises(ValueError):
            slice(3, 0)
        with pytest.raises(ValueError):
            slice(3, 4)

    def test_full_depth_states_are_leaves(self):
        states = slice(3, 3)
        assert len(states) == 11
        for state in states:
            assert complete(state, lambda p: None) == 1


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
