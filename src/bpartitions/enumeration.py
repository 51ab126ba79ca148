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

:func:`rank` computes that index from a partition's blocks alone, by the
standard ranking of restricted growth strings (Nijenhuis and Wilf,
Combinatorial Algorithms, 1978).  Let W(r, j) count the leaves below a walk
node with j block pairs and r elements left to place: W(0, j) = 1 and
W(r, j) = W(r-1, j+1) + 2j W(r-1, j), so W(n, 0) = |V_n|.  When element i
joins pair k of the j already open, with sign +, the walk has passed the
subtrees of "new block" and of both signs of pairs 0..k-1, W(n-i, j+1) +
2k W(n-i, j) leaves; sign - passes one more subtree, W(n-i, j).  The rank
sums these over the elements that join a pair.  Rank is a function of the
partition and visit indices are distinct, so a walk whose every leaf has
rank equal to its visit index visits no partition twice.
"""

from __future__ import annotations

from typing import Callable

from .core import _PRECEDING, SignedPartition, _key

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
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
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
    ground = tuple(range(1, n + 1))

    def leaf(blocks: list[tuple[int, ...]], s: int, a: int) -> object:
        return visitor(SignedPartition(ground, tuple(blocks)))

    return walk(n, leaf)


def leaf_counts(n: int) -> list[list[int]]:
    """The table W of leaf counts: ``w[r][j]`` = W(r, j) for r + j <= n."""
    w = [[1] * (n + 1)]
    for r in range(1, n + 1):
        prev = w[-1]
        w.append([prev[j + 1] + 2 * j * prev[j] for j in range(n - r + 1)])
    return w


def rank(blocks: tuple[tuple[int, ...], ...], w: list[list[int]]) -> int:
    """The visit index at which :func:`walk` reaches ``blocks``.

    ``blocks`` are those of a canonical member of V_n, and ``w`` is
    :func:`leaf_counts` of some N >= n.  It reads ``core._key``: element i
    opens a block exactly when its label is the number opened before it, and
    else ``key ^ 1`` is 2k + (sign < 0) for the pair k it joins.
    """
    n = sum(map(len, blocks))
    index = j = 0
    for i, k in enumerate(_key(blocks, range(1, n + 1), _PRECEDING), 1):
        if k >> 1 == j:
            j += 1
        else:
            row = w[n - i]
            index += row[j + 1] + (k ^ 1) * row[j]
    return index
