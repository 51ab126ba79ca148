"""Shared fixtures: the size-12 worked example, a partition strategy and a
Stirling oracle."""

from __future__ import annotations

from itertools import product
from math import factorial

import hypothesis.strategies as st
import pytest

from bpartitions import make_partition
from bpartitions.textio import parse_partition

# A size-12 partition whose peel/patch run exercises every mechanism: multiple
# layers, wrap-around runs, mixed-sign blocks, and a nonempty core.
BIG = "1 / 2 / 3,11,12 / 4,-7,9,10 / 5,6,-8"
BIG_IMAGE = "1,2,12 / 3,10 / 4,-7 / 5 / 6,-8 / 9 / 11"
BIG_MIRROR = "1,2,10 / 3,4,-6,9 / 5,-7,-8 / 11 / 12"
BIG_MIRROR_IMAGE = "1,11,12 / 2 / 3,10 / 4 / 5,-7 / 6,-9 / 8"

CORE = "4,-7 / 6,-8"
MIRROR_CORE = "5,-7 / 6,-9"

# Left-sided peel of BIG: (step, singletons, left points, remainder).
PEEL_LEFT_ROWS = [
    (1, {1, 2}, {5, 9, 11}, "3,12 / 4,-7,10 / 6,-8"),
    (2, set(), {12}, "3 / 4,-7,10 / 6,-8"),
    (3, {3}, set(), "4,-7,10 / 6,-8"),
    (4, set(), {10}, "4,-7 / 6,-8"),
]

# Right-sided patch of that trace: (step, singletons, left points, stage the
# layer is patched into), from the core upward.
PATCH_RIGHT_ROWS = [
    (4, set(), {10}, "4,-7 / 6,-8"),
    (3, {3}, set(), "4,-7 / 6,-8 / 10"),
    (2, set(), {12}, "3,10 / 4,-7 / 6,-8"),
    (1, {1, 2}, {5, 9, 11}, "3,10 / 4,-7 / 6,-8 / 12"),
]

# Right-sided peel of BIG_MIRROR: (step, singletons, right points, remainder).
PEEL_RIGHT_ROWS = [
    (1, {11, 12}, {2, 4, 8}, "1,10 / 3,-6,9 / 5,-7"),
    (2, set(), {1}, "3,-6,9 / 5,-7 / 10"),
    (3, {10}, set(), "3,-6,9 / 5,-7"),
    (4, set(), {3}, "5,-7 / 6,-9"),
]

# Left-sided patch of that trace.
PATCH_LEFT_ROWS = [
    (4, set(), {3}, "5,-7 / 6,-9"),
    (3, {10}, set(), "3 / 5,-7 / 6,-9"),
    (2, set(), {1}, "3,10 / 5,-7 / 6,-9"),
    (1, {11, 12}, {2, 4, 8}, "1 / 3,10 / 5,-7 / 6,-9"),
]


def brute_stirling(k: int, j: int) -> int:
    """Stirling oracle, independent of the recurrence: the surjections of
    {1..k} onto j block indices, divided by the j! orders of the blocks."""
    if j == 0:
        return 1 if k == 0 else 0
    hits = sum(1 for a in product(range(j), repeat=k) if len(set(a)) == j)
    return hits // factorial(j)


@pytest.fixture
def big():
    return parse_partition(BIG)


@pytest.fixture
def big_mirror():
    return parse_partition(BIG_MIRROR)


@st.composite
def partitions(draw, max_n: int = 9, full_ground: bool = True):
    """Random canonical partitions, built by the same choices as enumeration."""
    if full_ground:
        n = draw(st.integers(min_value=0, max_value=max_n))
        elements = list(range(1, n + 1))
    else:
        elements = sorted(
            draw(st.sets(st.integers(min_value=1, max_value=2 * max_n), max_size=max_n))
        )
    blocks: list[list[int]] = []
    for t in elements:
        choice = draw(st.integers(min_value=0, max_value=2 * len(blocks)))
        if choice == 0:
            blocks.append([t])
        else:
            blocks[(choice - 1) // 2].append(t if choice % 2 == 1 else -t)
    return make_partition(blocks)


@st.composite
def nested_partitions(draw, max_n: int = 300):
    """Partitions of {1..n} pairing i with n+1-i, each pair signed at random.

    Peeling works from the middle outwards, so these take many more layers
    than the partitions drawn by :func:`partitions`.
    """
    n = draw(st.integers(min_value=0, max_value=max_n))
    blocks = [[i, draw(st.sampled_from((1, -1))) * (n + 1 - i)] for i in range(1, n // 2 + 1)]
    if n % 2:
        blocks.append([(n + 1) // 2])
    return make_partition(blocks)
