"""Output checks that share no code with the library.

Everything here works on partition text (``1,-4 / 2 / 3``) and imports
nothing from ``bpartitions``, so a bug in the library's own statistics,
canonical form or counting cannot hide itself from these checks.
"""

from __future__ import annotations


def blocks_of(text: str) -> list[list[int]]:
    """Blocks of canonical partition text; ``()`` is the empty partition."""
    if text == "()":
        return []
    return [[int(m) for m in block.split(",")] for block in text.split(" / ")]


def stats(text: str) -> tuple[int, int]:
    """(singleton pairs, adjacency pairs) of partition text.

    +t_j and +t_{j+1} are adjacent when they sit in the same stored block with
    the same sign; positions are cyclic, so a one-element ground counts its
    element once as a singleton and once as an adjacency.
    """
    where: dict[int, tuple[int, bool]] = {}
    singles = 0
    for bi, block in enumerate(blocks_of(text)):
        singles += len(block) == 1
        for m in block:
            where[abs(m)] = (bi, m > 0)
    ts = sorted(where)
    r = len(ts)
    return singles, sum(where[ts[j]] == where[ts[(j + 1) % r]] for j in range(r))


def canonical(blocks: list[list[int]]) -> str:
    """Canonical text: members by absolute value, leading member positive,
    blocks ordered by their leading member."""
    norm = []
    for block in blocks:
        block = sorted(block, key=abs)
        norm.append([-m for m in block] if block[0] < 0 else block)
    norm.sort(key=lambda b: b[0])
    return " / ".join(",".join(map(str, b)) for b in norm) if norm else "()"


def total_count(n: int) -> int:
    """|V_n| = sum_j 2^(n-j) S(n, j), with S from its triangle recurrence."""
    row = [1]  # S(0, 0..0)
    for k in range(1, n + 1):
        row = [0] + [row[j - 1] + (j * row[j] if j < k else 0) for j in range(1, k + 1)]
    return sum(2 ** (n - j) * s for j, s in enumerate(row))
