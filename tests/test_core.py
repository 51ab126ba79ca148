"""Canonical form, statistics, point sets, and the complement map."""

from __future__ import annotations

import pytest
from hypothesis import given

from bpartitions import (
    DuplicateElementError,
    GroundMismatchError,
    GroundSet,
    InternalInvariantError,
    NotFullGroundError,
    PartitionError,
    SignedPartition,
    ZeroBlockError,
    complement,
    left_points,
    make_partition,
    right_points,
    statistics,
    validate,
)
from conftest import BIG, BIG_MIRROR_IMAGE, partitions
from bpartitions.textio import parse_partition


class TestGroundSet:
    def test_of_sorts_and_validates(self):
        g = GroundSet.of([7, 3, 5])
        assert g.elements == (3, 5, 7)
        assert list(g) == [3, 5, 7]
        assert 5 in g and 4 not in g

    def test_rejects_duplicates_and_nonpositive(self):
        with pytest.raises(DuplicateElementError):
            GroundSet.of([1, 1])
        with pytest.raises(PartitionError):
            GroundSet.of([0, 1])

    def test_is_full(self):
        assert GroundSet.full(4).is_full()
        assert GroundSet.of([]).is_full()
        assert not GroundSet.of([1, 3]).is_full()


class TestMakePartition:
    def test_worked_example_canonical_text(self):
        part = make_partition(
            [[1], [2], [3, 11, 12], [4, -7, 9, 10], [5, 6, -8]],
            GroundSet.full(12),
        )
        assert str(part) == BIG

    def test_blocks_are_plain_int_tuples(self):
        assert make_partition([[2], [-1, 3]]).blocks == ((1, -3), (2,))

    def test_negated_representative_is_normalized(self):
        part = make_partition([[-4, 7], [6, -8]], [4, 6, 7, 8])
        assert str(part) == "4,-7 / 6,-8"

    def test_zero_block_rejected(self):
        with pytest.raises(ZeroBlockError):
            make_partition([[1, -1]], [1])

    def test_duplicate_across_blocks(self):
        with pytest.raises(DuplicateElementError):
            make_partition([[1, 2], [2, 3]])

    def test_duplicate_within_block(self):
        with pytest.raises(DuplicateElementError):
            make_partition([[3, 3]])

    def test_ground_mismatch(self):
        with pytest.raises(GroundMismatchError):
            make_partition([[1], [2]], [1, 2, 3])

    def test_ground_mismatch_message_names_sizes_and_first_difference(self):
        with pytest.raises(GroundMismatchError) as info:
            make_partition([[1], [3]], GroundSet.full(100_000))
        assert str(info.value) == (
            "blocks cover 2 elements but the ground set has 100000; "
            "first difference at index 1: 3 vs 2"
        )

    def test_empty_and_zero_member(self):
        with pytest.raises(PartitionError):
            make_partition([[]])
        with pytest.raises(PartitionError):
            make_partition([[0, 1]])

    def test_validate_catches_raw_garbage(self):
        bad = SignedPartition(GroundSet.full(2), ((2,), (1,)))
        with pytest.raises(InternalInvariantError):
            validate(bad)


class TestStatistics:
    def test_worked_example(self, big):
        st = statistics(big)
        assert (st.singletons, st.adjacencies) == (2, 3)
        assert st.singleton_elements == (1, 2)
        # positions j name the pairs (5,6), (9,10), (11,12)
        assert st.adjacency_positions == (5, 9, 11)

    def test_two_element_block_has_two_adjacencies(self):
        st = statistics(make_partition([[1, 2]]))
        assert (st.singletons, st.adjacencies) == (0, 2)
        assert st.adjacency_positions == (1, 2)

    def test_mixed_sign_pair_has_none(self):
        st = statistics(make_partition([[1, -2]]))
        assert (st.singletons, st.adjacencies) == (0, 0)

    def test_one_element_ground(self):
        st = statistics(make_partition([[5]]))
        assert (st.singletons, st.adjacencies) == (1, 1)
        assert st.singleton_elements == (5,)
        assert st.adjacency_positions == (1,)

    def test_empty_partition(self):
        st = statistics(make_partition([]))
        assert (st.singletons, st.adjacencies) == (0, 0)


class TestPoints:
    def test_worked_example_left(self, big):
        assert left_points(big) == (5, 9, 11)
        assert right_points(big) == (6, 10, 12)

    def test_mirror_right(self, big_mirror):
        assert right_points(big_mirror) == (2, 4, 8)
        assert left_points(big_mirror) == (1, 3, 7)

    def test_core_has_none(self):
        core = make_partition([[1, -2]])
        assert left_points(core) == ()
        assert right_points(core) == ()


class TestComplement:
    def test_worked_example(self):
        image = parse_partition("1,2,12 / 3,10 / 4,-7 / 5 / 6,-8 / 9 / 11")
        assert str(complement(image, 12)) == BIG_MIRROR_IMAGE

    def test_single_element(self):
        part = make_partition([[1]])
        assert complement(part, 1) == part

    def test_double_application(self, big):
        assert complement(complement(big, 12), 12) == big

    def test_requires_full_ground(self):
        with pytest.raises(NotFullGroundError):
            complement(make_partition([[1], [3]]), 3)
        with pytest.raises(NotFullGroundError, match="2 elements .* index 2: end vs 3$"):
            complement(make_partition([[1], [2]]), 3)


@given(partitions(max_n=8, full_ground=False))
def test_reparsing_stored_blocks_is_identity(part):
    assert make_partition([list(b) for b in part.blocks], part.ground) == part


@given(partitions(max_n=8, full_ground=False))
def test_renegated_blocks_normalize_back(part):
    assert make_partition([[-m for m in b] for b in part.blocks], part.ground) == part


@given(partitions(max_n=8, full_ground=False))
def test_point_counts_match_adjacencies(part):
    st = statistics(part)
    lp, rp = left_points(part), right_points(part)
    assert len(lp) == len(rp) == st.adjacencies
    assert len(set(lp)) == len(lp) and len(set(rp)) == len(rp)
    if len(part.ground) >= 2:
        singles = set(st.singleton_elements)
        assert not singles & set(lp)
        assert not singles & set(rp)


@given(partitions(max_n=8))
def test_complement_preserves_statistics(part):
    n = len(part.ground)
    mirrored = complement(part, n)
    assert complement(mirrored, n) == part
    a, b = statistics(part), statistics(mirrored)
    assert (a.singletons, a.adjacencies) == (b.singletons, b.adjacencies)


def adjacency_pairs(part):
    st = statistics(part)
    ts = part.ground.elements
    r = len(ts)
    return {(ts[j - 1], ts[j % r]) for j in st.adjacency_positions}


def test_complement_exhaustive_small():
    from bpartitions import for_each

    for n in range(1, 7):

        def check(part):
            mirrored = complement(part, n)
            assert complement(mirrored, n) == part
            a, b = statistics(part), statistics(mirrored)
            assert (a.singletons, a.adjacencies) == (b.singletons, b.adjacencies)
            # singletons mirror elementwise; the adjacency at (t_j, t_{j+1})
            # lands on (n-t_{j+1}+1, n-t_j+1)
            assert set(b.singleton_elements) == {n + 1 - t for t in a.singleton_elements}
            assert adjacency_pairs(mirrored) == {
                (n - right + 1, n - left + 1) for left, right in adjacency_pairs(part)
            }

        for_each(n, check)


@given(partitions(max_n=8, full_ground=False))
def test_statistics_bounds(part):
    st = statistics(part)
    r = len(part.ground)
    assert 0 <= st.singletons <= r
    assert 0 <= st.adjacencies <= r
    assert st.singletons == len(st.singleton_elements)
    assert st.adjacencies == len(st.adjacency_positions)
    validate(part)
