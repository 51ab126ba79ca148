"""Canonical symmetric signed partitions and their singleton/adjacency statistics.

A signed partition lives on a ground set {t_1 < t_2 < ... < t_r} of positive
integers, stored as the sorted tuple (t_1, ..., t_r) and read cyclically: it
partitions {-t_r, ..., -t_1, t_1, ..., t_r} so that the negation of every
block is again a block.  Blocks therefore come in pairs {B, -B}, and only one
representative per pair is stored, normalized so that the member of smallest
absolute value is positive.  A block equal to its own negation (a
zero-block) would have to contain both +x and -x, which the representative
form cannot express; such input is rejected at construction time.

The two statistics of interest:

* ``t_i`` forms a *singleton pair* when {t_i} is a block.
* ``(t_j, t_{j+1})`` forms an *adjacency pair* when +t_j and +t_{j+1} lie in
  the same signed block: same representative block with the same orientation.
  +t_j in B with +t_{j+1} in -B is not an adjacency.  Indices are cyclic, so
  position r pairs t_r with t_1, and a ground set of size one counts its lone
  element as one singleton pair and one adjacency pair.

``complement`` mirrors a partition of {1..n} through i -> n+1-i.  It is an
involution and preserves both statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


class PartitionError(ValueError):
    """Base class for invalid partition input."""


class DuplicateElementError(PartitionError):
    """Some absolute value occurs more than once."""


class GroundMismatchError(PartitionError):
    """The absolute values present do not match the declared ground set."""


class ZeroBlockError(PartitionError):
    """A block contains both +x and -x, i.e. equals its own negation."""


class NotFullGroundError(PartitionError):
    """An operation requiring the full ground {1..n} got a sparser one."""


class InternalInvariantError(RuntimeError):
    """A structurally guaranteed property failed; this always indicates a bug."""


def _normalize_block(members: Iterable[int]) -> tuple[int, ...]:
    ms = sorted(members, key=abs)
    if not ms:
        raise PartitionError("blocks must be nonempty")
    prev = 0
    for m in ms:
        if m == 0:
            raise PartitionError("0 cannot be a block member")
        if abs(m) == abs(prev):
            if m == -prev:
                raise ZeroBlockError(f"block contains both {prev} and {m}")
            raise DuplicateElementError(f"{m} occurs twice in one block")
        prev = m
    if ms[0] < 0:
        ms = [-m for m in ms]
    return tuple(ms)


@dataclass(frozen=True, slots=True)
class SignedPartition:
    """Canonical symmetric partition: a ground set plus representative blocks.

    ``ground`` is the support as a strictly increasing tuple of positive ints.
    Each block is the stored representative of a block pair {B, -B}: a tuple
    of ints sorted by absolute value whose first member is positive; -B is
    implicit.  Blocks are sorted by minimum absolute value, so two partitions
    are equal exactly when their stored forms are identical.  Instances are
    immutable; build them with :func:`make_partition` or
    ``textio.parse_partition``.
    """

    ground: tuple[int, ...]
    blocks: tuple[tuple[int, ...], ...]

    @property
    def is_empty(self) -> bool:
        return not self.blocks

    def __str__(self) -> str:
        if not self.blocks:
            return "()"
        return " / ".join(",".join(map(str, b)) for b in self.blocks)


def _first_difference(a: Sequence[int], b: Sequence[int]) -> str:
    """Where two sequences first differ; messages name this, never whole grounds."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x = a[i] if i < len(a) else "end"
    y = b[i] if i < len(b) else "end"
    return f"first difference at index {i}: {x} vs {y}"


def make_partition(
    blocks: Iterable[Iterable[int]],
    ground: Iterable[int] | None = None,
) -> SignedPartition:
    """Canonicalize raw signed blocks into a :class:`SignedPartition`.

    Either representative of each block pair is accepted: a block whose
    minimum-absolute member is negative is replaced by its negation.  When
    ``ground`` is omitted it is inferred from the absolute values present;
    when given, it is sorted and must equal that support exactly, so a
    duplicate, zero or negative element raises :class:`GroundMismatchError`.
    """
    norm = sorted(_normalize_block(b) for b in blocks)
    covered = sorted(abs(m) for b in norm for m in b)
    for i in range(1, len(covered)):
        if covered[i] == covered[i - 1]:
            raise DuplicateElementError(f"|{covered[i]}| occurs in more than one block")
    support = tuple(covered)
    if ground is not None:
        given = tuple(sorted(ground))
        if given != support:
            raise GroundMismatchError(
                f"blocks cover {len(support)} elements but the ground set has "
                f"{len(given)}; {_first_difference(support, given)}"
            )
    return SignedPartition(support, tuple(norm))


def validate(part: SignedPartition) -> None:
    """Re-check every structural invariant of a stored partition.

    Canonical instances are produced only by this package, so a violation is
    reported as :class:`InternalInvariantError` rather than bad input.
    """
    g = part.ground
    if any(t < 1 for t in g):
        raise InternalInvariantError(f"ground {g} has a nonpositive element")
    if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
        raise InternalInvariantError(f"ground {g} is not strictly increasing")
    covered: list[int] = []
    prev_min = 0
    for ms in part.blocks:
        if not ms:
            raise InternalInvariantError("empty block")
        if ms[0] < 0:
            raise InternalInvariantError(f"block {ms} is not the positive representative")
        if ms[0] <= prev_min:
            raise InternalInvariantError("blocks are not sorted by minimum absolute value")
        prev_min = ms[0]
        for i in range(1, len(ms)):
            if abs(ms[i]) <= abs(ms[i - 1]):
                raise InternalInvariantError(f"block {ms} is not sorted by absolute value")
        covered.extend(abs(m) for m in ms)
    if tuple(sorted(covered)) != g:
        raise InternalInvariantError("blocks do not cover the ground set exactly")


@dataclass(frozen=True, slots=True)
class Statistics:
    """Singleton and adjacency statistics of one partition.

    ``adjacency_positions`` holds the 1-based cyclic positions j for which
    (t_j, t_{j+1}) is an adjacency pair, with t_{r+1} read as t_1.
    """

    singletons: int
    adjacencies: int
    singleton_elements: tuple[int, ...]
    adjacency_positions: tuple[int, ...]


def statistics(part: SignedPartition) -> Statistics:
    """Count singleton pairs and adjacency pairs.

    The adjacency test at position j asks whether +t_j and +t_{j+1} share a
    signed block; sharing a block pair with opposite orientations does not
    count.  On a one-element ground the lone element is both a singleton pair
    and its own adjacency pair.
    """
    ts = part.ground
    r = len(ts)
    if r == 0:
        return Statistics(0, 0, (), ())
    loc: dict[int, tuple[int, int]] = {}
    singles: list[int] = []
    for bi, ms in enumerate(part.blocks):
        if len(ms) == 1:
            singles.append(ms[0])
        for m in ms:
            if m > 0:
                loc[m] = (bi, 1)
            else:
                loc[-m] = (bi, -1)
    positions = [j + 1 for j in range(r) if loc[ts[j]] == loc[ts[(j + 1) % r]]]
    return Statistics(len(singles), len(positions), tuple(singles), tuple(positions))


def adjacency_pairs(part: SignedPartition, stats: Statistics) -> tuple[tuple[int, int], ...]:
    """The adjacency pairs (t_j, t_{j+1}) of ``part`` in position order.

    ``stats`` must be ``statistics(part)``; callers pass the one they hold.
    """
    ts = part.ground
    r = len(ts)
    return tuple((ts[j - 1], ts[j % r]) for j in stats.adjacency_positions)


def left_points(part: SignedPartition) -> tuple[int, ...]:
    """Sorted first members t_j of all adjacency pairs (t_j, t_{j+1})."""
    return tuple(t for t, _ in adjacency_pairs(part, statistics(part)))


def right_points(part: SignedPartition) -> tuple[int, ...]:
    """Sorted second members t_{j+1} of all adjacency pairs (t_j, t_{j+1})."""
    return tuple(sorted(u for _, u in adjacency_pairs(part, statistics(part))))


def require_full_ground(part: SignedPartition, n: int | None = None) -> int:
    """Check that the support is exactly {1..n} and return n.

    With ``n`` omitted, the required size is taken from the ground itself.
    """
    g = part.ground
    size = len(g)
    if n is None:
        n = size
    if n != size or (g and g[-1] != size):
        raise NotFullGroundError(
            f"ground of {size} elements is not the full set 1..{n}; "
            f"{_first_difference(g, range(1, n + 1))}"
        )
    return n


def complement(part: SignedPartition, n: int) -> SignedPartition:
    """Mirror a partition of {1..n} through i -> n+1-i, preserving signs.

    An involution: applying it twice returns the input.  Both statistics are
    preserved; the adjacency at (t_j, t_{j+1}) lands on
    (n-t_{j+1}+1, n-t_j+1).
    """
    require_full_ground(part, n)
    mirrored = [
        [(n + 1 - abs(m)) * (1 if m > 0 else -1) for m in block]
        for block in part.blocks
    ]
    return make_partition(mirrored, part.ground)
