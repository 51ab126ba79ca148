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
:func:`walk` calls ``leaf(blocks, s, a)`` at every leaf with the live block
lists and the two counts, so a leaf that only counts builds no object;
:func:`for_each` and :func:`complete` build a :class:`SignedPartition` there.
``slice`` is the same walk cut at a depth: its leaves are independent subtree
roots, and completing them in order reproduces the ``for_each`` order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .core import GroundSet, SignedPartition

Visitor = Callable[[SignedPartition], object]
Leaf = Callable[[list[list[int]], int, int], object]


@dataclass(frozen=True, slots=True)
class EnumerationState:
    """An independent subtree root: elements 1..depth already placed."""

    n: int
    blocks: tuple[tuple[int, ...], ...]


class _Stop(Exception):
    """A leaf returned ``False``; unwinds the walk."""


def walk(n: int, blocks: list[list[int]], end: int, leaf: Leaf) -> int:
    """Place elements depth+1..end after the prefix ``blocks``; return the leaf count.

    ``blocks`` holds elements 1..depth and is extended in place; ``leaf``
    receives it with the singleton and adjacency counts of the placed
    elements, the wrap-around pair included only once element n is placed.
    Returning ``False`` from ``leaf`` stops the walk.
    """
    where = {abs(m): (k, m > 0) for k, b in enumerate(blocks) for m in b}
    depth = len(where)
    count = 0

    def descend(i: int, s: int, a: int, pb: int, ps: bool) -> None:
        # pb and ps: block index and sign of element i - 1
        nonlocal count
        if i > end:
            if i > n and pb == 0 and ps:
                a += 1
            count += 1
            if leaf(blocks, s, a) is False:
                raise _Stop
            return
        j = i + 1
        blocks.append([i])
        descend(j, s + 1, a, len(blocks) - 1, True)
        blocks.pop()
        for k, b in enumerate(blocks):
            t = s - (len(b) == 1)
            b.append(i)
            descend(j, t, a + (k == pb and ps), k, True)
            b[-1] = -i
            descend(j, t, a + (k == pb and not ps), k, False)
            b.pop()

    try:
        descend(
            depth + 1,
            sum(len(b) == 1 for b in blocks),
            sum(where[i - 1] == where[i] for i in range(2, depth + 1)),
            *where.get(depth, (-1, True)),
        )
    except _Stop:
        pass
    return count


def _objects(n: int, visitor: Visitor) -> Leaf:
    """A leaf that hands ``visitor`` a canonical partition of {1..n}."""
    ground = GroundSet.full(n)

    def leaf(blocks: list[list[int]], s: int, a: int) -> object:
        return visitor(SignedPartition(ground, tuple(map(tuple, blocks))))

    return leaf


def for_each(n: int, visitor: Visitor) -> int:
    """Visit every partition in V_n exactly once; return the visit count.

    The visitor receives a canonical :class:`SignedPartition` it may keep.
    Returning ``False`` aborts the enumeration; any other value continues it.
    ``n = 0`` yields a single visit, the empty partition.
    """
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    return walk(n, [], n, _objects(n, visitor))


def complete(state: EnumerationState, visitor: Visitor) -> int:
    """Visit every completion of ``state``; same contract as :func:`for_each`."""
    return walk(state.n, [list(b) for b in state.blocks], state.n, _objects(state.n, visitor))


def slice(n: int, prefix_depth: int) -> list[EnumerationState]:
    """Independent subtree roots with elements 1..prefix_depth placed.

    Completing the returned states in order visits each member of V_n exactly
    once, in the same overall order as :func:`for_each`.
    """
    if not 1 <= prefix_depth <= n:
        raise ValueError(f"prefix depth must be in 1..{n}, got {prefix_depth}")
    states: list[EnumerationState] = []

    def root(blocks: list[list[int]], s: int, a: int) -> None:
        states.append(EnumerationState(n, tuple(map(tuple, blocks))))

    walk(n, [], prefix_depth, root)
    return states
