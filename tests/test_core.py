"""Canonical form, statistics, point sets, and the complement map."""

from __future__ import annotations

import hashlib
import random
from collections import Counter

import pytest
from hypothesis import given, settings

from bpartitions import (
    DuplicateElementError,
    GroundMismatchError,
    InternalInvariantError,
    NotFullGroundError,
    PartitionError,
    SignedPartition,
    ZeroBlockError,
    adjacency_pairs,
    complement,
    for_each,
    make_partition,
    require_full_ground,
    statistics,
    validate,
)
from conftest import BIG, BIG_MIRROR_IMAGE, partitions
from bpartitions.textio import parse_partition


class TestMakePartition:
    def test_worked_example_canonical_text(self):
        part = make_partition(
            [[1], [2], [3, 11, 12], [4, -7, 9, 10], [5, 6, -8]],
            tuple(range(1, 13)),
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
            make_partition([[1], [3]], tuple(range(1, 100_001)))
        assert str(info.value) == (
            "blocks cover 2 elements but the ground set has 100000; "
            "first difference at index 1: 3 vs 2"
        )

    def test_unsorted_explicit_ground_is_stored_sorted(self):
        part = make_partition([[7], [3, -5]], [7, 3, 5])
        assert part.ground == (3, 5, 7)
        assert part == make_partition([[7], [3, -5]])

    @pytest.mark.parametrize("ground", [[1, 1], [0, 1], [-1, 1], [1] * 100_000])
    def test_bad_explicit_ground_is_a_bounded_mismatch(self, ground):
        with pytest.raises(GroundMismatchError) as info:
            make_partition([[1]], ground)
        assert isinstance(info.value, PartitionError)
        assert len(str(info.value)) < 120

    def test_empty_and_zero_member(self):
        with pytest.raises(PartitionError):
            make_partition([[]])
        with pytest.raises(PartitionError):
            make_partition([[0, 1]])

    def test_validate_catches_raw_garbage(self):
        # each corruption fails the one-pass check, and the walk names it
        cases = [
            ((1, 2, 3), ((1, 3, -2),), r"block \(1, 3, -2\) is not sorted by absolute value"),
            ((1, 2), ((-1, 2),), r"block \(-1, 2\) is not the positive representative"),
            ((1, 2), ((2,), (1,)), "blocks are not sorted by minimum absolute value"),
            ((1, 2, 3), ((1, 2), (2, 3)), "blocks do not cover the ground set exactly"),
            ((1,), ((), (1,)), "empty block"),
            ((1, 2), ((1,), (2,), (3,)), "blocks do not cover the ground set exactly"),
            ((0, 1), ((1,),), r"ground \(0, 1\) has a nonpositive element"),
            ((2, 1), ((1,), (2,)), r"ground \(2, 1\) is not strictly increasing"),
        ]
        for ground, blocks, message in cases:
            with pytest.raises(InternalInvariantError, match=f"^{message}$"):
                validate(SignedPartition(ground, blocks))


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


def points(part):
    """Left points (first members of the adjacency pairs, in position order)
    and right points (the second members, sorted)."""
    pairs = adjacency_pairs(part, statistics(part))
    return tuple(t for t, _ in pairs), tuple(sorted(u for _, u in pairs))


class TestPoints:
    def test_worked_example_left(self, big):
        assert adjacency_pairs(big, statistics(big)) == ((5, 6), (9, 10), (11, 12))
        assert points(big) == ((5, 9, 11), (6, 10, 12))

    def test_mirror_right(self, big_mirror):
        assert points(big_mirror) == ((1, 3, 7), (2, 4, 8))

    def test_core_has_none(self):
        core = make_partition([[1, -2]])
        assert adjacency_pairs(core, statistics(core)) == ()


class TestComplement:
    def test_worked_example(self):
        image = parse_partition("1,2,12 / 3,10 / 4,-7 / 5 / 6,-8 / 9 / 11")
        assert str(complement(image, 12)) == BIG_MIRROR_IMAGE

    def test_single_element(self):
        part = make_partition([[1]])
        assert complement(part, 1) == part

    def test_double_application(self, big):
        assert complement(complement(big, 12), 12) == big

    def test_full_ground_check(self):
        assert require_full_ground(make_partition([])) == 0
        assert require_full_ground(make_partition([[1, -3], [2]])) == 3
        with pytest.raises(NotFullGroundError):
            require_full_ground(make_partition([[1], [3]]))
        with pytest.raises(NotFullGroundError):
            require_full_ground(make_partition([[1], [2]]), 10**30)

    def test_requires_full_ground(self):
        sparse = make_partition([[1], [3]])
        with pytest.raises(NotFullGroundError, match="2 elements .* 1..3; .* index 1: 3 vs 2$"):
            complement(sparse, 3)
        with pytest.raises(NotFullGroundError, match="2 elements .* 1..2; .* index 1: 3 vs 2$"):
            complement(sparse, 2)
        with pytest.raises(NotFullGroundError, match="2 elements .* index 2: end vs 3$"):
            complement(make_partition([[1], [2]]), 3)
        with pytest.raises(NotFullGroundError, match="1..a 100-bit number; .* index 2: end vs 3$"):
            complement(make_partition([[1], [2]]), 10**30)


@given(partitions(max_n=8, full_ground=False))
def test_reparsing_stored_blocks_is_identity(part):
    assert make_partition([list(b) for b in part.blocks], part.ground) == part


@given(partitions(max_n=8, full_ground=False))
def test_renegated_blocks_normalize_back(part):
    assert make_partition([[-m for m in b] for b in part.blocks], part.ground) == part


@pytest.mark.parametrize("n", range(7))
def test_every_raw_form_canonicalizes_back(n):
    # make_partition rearranges only what fails its one-pass check: each form
    # below fails it in a different place, or not at all
    rng = random.Random(n)

    def check(part):
        blocks = part.blocks
        shuffled = list(blocks)
        rng.shuffle(shuffled)
        ground = list(part.ground)
        rng.shuffle(ground)
        forms = {
            "stored": (blocks, None),
            "reversed": ([b[::-1] for b in blocks], None),
            "negated": ([[-m for m in b] for b in blocks], None),
            "shuffled": (shuffled, None),
            "iterators": (iter(list(map(iter, blocks))), None),
            "shuffled ground": (blocks, iter(ground)),
        }
        for name, (raw, given) in forms.items():
            assert make_partition(raw, given) == part, (name, str(part))

    for_each(n, check)


@given(partitions(max_n=8, full_ground=False))
def test_point_counts_match_adjacencies(part):
    st = statistics(part)
    lp, rp = points(part)
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


def check_complement_against_make_partition(part):
    # complement builds its result canonical without make_partition; it must
    # be what make_partition builds from the mirrored raw blocks
    n = len(part.ground)
    mirrored = [[(n + 1 - abs(m)) * (1 if m > 0 else -1) for m in b] for b in part.blocks]
    image = complement(part, n)
    assert image == make_partition(mirrored, part.ground), str(part)
    validate(image)


@pytest.mark.parametrize("n", range(8))
def test_complement_matches_make_partition(n):
    for_each(n, check_complement_against_make_partition)


@settings(max_examples=60, deadline=None)
@given(partitions(max_n=300))
def test_complement_matches_make_partition_at_scale(part):
    check_complement_against_make_partition(part)


def pair_set(part):
    return set(adjacency_pairs(part, statistics(part)))


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
            assert pair_set(mirrored) == {
                (n - right + 1, n - left + 1) for left, right in pair_set(part)
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


def _raw_case(rng):
    """Seeded raw blocks and ground: a partition in any representative and
    order, with up to two corruptions, and a ground that is often wrong."""
    elements = rng.sample(range(1, 14), rng.randrange(8))
    blocks: list[list[int]] = []
    for t in elements:
        choice = rng.randrange(2 * len(blocks) + 1)
        if choice == 0:
            blocks.append([t])
        else:
            blocks[(choice - 1) // 2].append(t if choice % 2 else -t)
    for _ in range(rng.choice((0, 0, 1, 2))):
        kind = rng.randrange(5)
        if kind == 0:
            blocks.append([])
        elif blocks:
            block = rng.choice(blocks)
            x = rng.choice(rng.choice(blocks) or [1])
            block.append((0, -x, x, rng.choice((x, -x)))[kind - 1])
    for block in blocks:
        rng.shuffle(block)
    rng.shuffle(blocks)
    support = sorted({abs(m) for b in blocks for m in b})
    kind = rng.randrange(8)
    if kind < 3:
        ground = None
    elif kind == 3:
        ground = support
    elif kind == 4:
        ground = rng.sample(support, len(support))
    elif kind == 5:
        ground = support + [rng.choice((0, -1, 20, *support[:1]))]
    elif kind == 6:
        ground = support[1:]
    else:
        ground = [rng.randrange(-1, 14) for _ in range(len(support))]
    if rng.random() < 0.3:  # single-pass iterables
        return map(iter, blocks), iter(ground) if ground is not None else None
    return blocks, ground


def make_partition_outcomes(seed, cases):
    rng = random.Random(seed)
    outcomes = []
    for _ in range(cases):
        blocks, ground = _raw_case(rng)
        try:
            part = make_partition(blocks, ground)
            outcomes.append(f"ok {part.ground} {part}")
        except PartitionError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


# Recorded from the member-by-member canonicaliser: the outcomes of the
# 20,000 raw cases of seed 5, counted by outcome, and a digest of every line.
MAKE_FUZZ_COUNTS = {
    "DuplicateElementError": 3011,
    "GroundMismatchError": 3548,
    "PartitionError": 4280,
    "ZeroBlockError": 1753,
    "ok": 7408,
}
MAKE_FUZZ_DIGEST = "5c56b27cf252f09a34654e0603291c5ed17290b082b7733430fe95395c4341d3"


def test_make_partition_outcomes_are_pinned():
    outcomes = make_partition_outcomes(5, 20_000)
    counts = Counter(line.split(":", 1)[0] if ":" in line else "ok" for line in outcomes)
    assert counts == MAKE_FUZZ_COUNTS
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == MAKE_FUZZ_DIGEST
