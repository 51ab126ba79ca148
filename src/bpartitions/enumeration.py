"""Exhaustive generation of V_n, the zero-block-free signed partitions of {1..n}.

One depth-first, element-major walk, a signed restricted-growth walk (Knuth,
TAOCP 4A, 7.2.1.5): element i opens a new block pair {i} or joins an existing
pair as +i or -i relative to the stored representative, tried in that fixed
order (new block first, then pairs in creation order, + before -).  There are
sum_j 2**(n-j) * S(n, j) leaves, j running over the number of block pairs.

The walk keeps both statistics as it places elements.  Opening a block adds a
singleton pair and joining a block of size one removes one; (i-1, i) is an
adjacency pair exactly when i joins the block of i-1 with the same sign, and
the wrap-around pair (n, 1) exactly when n ends in block 0 with sign +.
:func:`walk` calls ``leaf(blocks, s, a)`` at every leaf with the live list
of blocks and the two counts, so a leaf that only counts builds no object.
A block is kept as a tuple, extended by one element at each placement, so
:func:`for_each` builds its :class:`SignedPartition` there with one
``tuple(blocks)``.  The leaf order is fixed, so a leaf's visit index names
it; a parallel sweep splits V_n by that index.
"""

from __future__ import annotations

from typing import Callable

from .core import SignedPartition

Visitor = Callable[[SignedPartition], object]
Leaf = Callable[[list[tuple[int, ...]], int, int], object]


class _Stop(Exception):
    """A leaf returned ``False``; unwinds the walk."""


def walk(n: int, leaf: Leaf) -> int:
    """Place elements 1..n in every way; return the leaf count.

    ``leaf`` receives the live list of blocks, each a tuple, with the
    singleton and adjacency counts, the wrap-around pair included; the list
    changes as the walk goes on, its tuples do not.  Returning ``False``
    from ``leaf`` stops the walk.
    """
    blocks: list[tuple[int, ...]] = []
    count = 0

    def descend(i: int, s: int, a: int, pb: int, ps: bool) -> None:
        # pb and ps: block index and sign of element i - 1
        nonlocal count
        if i > n:
            if pb == 0 and ps:
                a += 1
            count += 1
            if leaf(blocks, s, a) is False:
                raise _Stop
            return
        j = i + 1
        blocks.append((i,))
        descend(j, s + 1, a, len(blocks) - 1, True)
        blocks.pop()
        for k, b in enumerate(blocks):
            t = s - (len(b) == 1)
            blocks[k] = b + (i,)
            descend(j, t, a + (k == pb and ps), k, True)
            blocks[k] = b + (-i,)
            descend(j, t, a + (k == pb and not ps), k, False)
            blocks[k] = b

    try:
        descend(1, 0, 0, -1, True)
    except _Stop:
        pass
    return count


def for_each(n: int, visitor: Visitor) -> int:
    """Visit every partition in V_n exactly once; return the visit count.

    The visitor receives a canonical :class:`SignedPartition` it may keep.
    Returning ``False`` aborts the enumeration; any other value continues it.
    ``n = 0`` yields a single visit, the empty partition.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    ground = tuple(range(1, n + 1))

    def leaf(blocks: list[tuple[int, ...]], s: int, a: int) -> object:
        return visitor(SignedPartition(ground, tuple(blocks)))

    return walk(n, leaf)
