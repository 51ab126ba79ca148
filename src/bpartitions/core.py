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

The peel/patch kernel, ``statistics`` and the walk's ``rank`` read a
partition through one encoding, its keys.  On a sorted universe ``us`` (the
ground, or a superset), ``key[i]`` is 2 * label + (sign > 0) for the element
``us[i]``: the index of its block and its sign there, or -1 when the
partition does not hold it.  ``_key`` fills the keys from blocks in any
order and either representative of each pair.  ``_materialize`` builds the
canonical partition back from them, and ``_key_text`` its line, from the
same grouping pass.  Cyclic neighbours form an adjacency pair exactly when
their keys are equal.

``complement`` mirrors a partition of {1..n} through i -> n+1-i.  It is an
involution and preserves both statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import chain, compress
from operator import eq
from typing import Callable, Iterable, Sequence


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


_by_abs = partial(sorted, key=abs)


def _short(x: int) -> str:
    """``x`` in decimal, or its sign and bit length when it has ten or more digits."""
    if abs(x) < 10**9:
        return str(x)
    return f"a {'negative ' if x < 0 else ''}{x.bit_length()}-bit number"


def _check_block(ms: list[int]) -> None:
    """Raise the first problem of one block, given its members sorted by abs."""
    if not ms:
        raise PartitionError("blocks must be nonempty")
    prev = 0
    for m in ms:
        if m == 0:
            raise PartitionError("0 cannot be a block member")
        if abs(m) == abs(prev):
            if m == -prev:
                raise ZeroBlockError(f"block contains both {_short(prev)} and {_short(m)}")
            raise DuplicateElementError(f"{_short(m)} occurs twice in one block")
        prev = m


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

    def __init__(self, ground: tuple[int, ...], blocks: tuple[tuple[int, ...], ...]) -> None:
        # dataclass keeps an __init__ the class defines, and generates the rest
        _set_ground(self, ground)
        _set_blocks(self, blocks)

    def __str__(self) -> str:
        return _text(self.blocks)


# The generated __init__ of a frozen dataclass stores each field through
# object.__setattr__; the slot's member descriptor stores it directly, at
# about two thirds of the cost (260 against 387 ns for two fields).  Pickling
# and dataclasses.replace go through the slots and __init__ as before.
_set_ground = SignedPartition.ground.__set__
_set_blocks = SignedPartition.blocks.__set__


def _text(blocks: Sequence[Sequence[int]]) -> str:
    """The line of ``blocks``, canonical when they are: members joined by
    ",", blocks by " / ", and ``()`` for none."""
    if not blocks:
        return "()"
    # repr is str for an int, and a cheaper call than the str type
    return " / ".join([",".join(map(repr, b)) for b in blocks])


_PRECEDING = (-1).__add__  # the rank of an element of {1..n}


def _rank(us: Sequence[int]) -> Callable[[int], int]:
    """The rank of an element of the sorted ground ``us``: on {1..n} it is the
    element less one, and a sparse ground looks it up."""
    if not us or (us[0] == 1 and us[-1] == len(us)):
        return _PRECEDING
    return dict(zip(us, range(len(us)))).__getitem__


def _key(blocks: Iterable[Sequence[int]], us: Sequence[int], rank: Callable) -> list[int]:
    """The key of each element of ``us`` in the partition ``blocks``, or -1;
    ``rank`` is :func:`_rank` of ``us``."""
    key = [-1] * len(us)
    if rank is not _PRECEDING:
        for label, block in enumerate(blocks):
            for m in block:
                key[rank(abs(m))] = 2 * label + (m > 0)
        return key
    for label, block in enumerate(blocks):
        k = 2 * label
        for m in block:
            if m > 0:
                key[m - 1] = k + 1
            else:
                key[~m] = k  # ~m == -m - 1
    return key


def _groups(us: Iterable[int], key: list[int], labels: int) -> list[list[int]]:
    """The elements of ``us`` with the keys ``key``, all of them set, grouped
    by label in order of first appearance and signed by their keys;
    ``labels`` bounds the labels.  On a sorted ``us`` the groups and their
    members come in canonical order, so a group is its block's canonical
    representative, or its negation when its first member is negative."""
    by_label: list[list[int] | None] = [None] * labels
    blocks = []
    for t, k in zip(us, key):
        block = by_label[k >> 1]
        if block is None:
            block = by_label[k >> 1] = []
            blocks.append(block)
        block.append(t if k & 1 else -t)
    return blocks


def _representatives(groups: Iterable[list[int]]) -> tuple[tuple[int, ...], ...]:
    """The canonical blocks of the canonically ordered ``groups``: each
    group, negated when its first member is negative."""
    return tuple([tuple(b) if b[0] > 0 else tuple([-m for m in b]) for b in groups])


def _materialize(us: Sequence[int], key: list[int], labels: int) -> SignedPartition:
    """The canonical partition with the keys ``key`` on the sorted ``us``;
    see :func:`_groups`."""
    return SignedPartition(tuple(us), _representatives(_groups(us, key, labels)))


def _key_text(us: Iterable[int], key: list[int], labels: int) -> str:
    """``str(_materialize(us, key, labels))``, built without the partition."""
    return _text([b if b[0] > 0 else [-m for m in b] for b in _groups(us, key, labels)])


def _first_difference(a: Sequence[int], b: Sequence[int]) -> str:
    """Where two sequences first differ; messages name this, never whole grounds."""
    i = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))
    x = _short(a[i]) if i < len(a) else "end"
    y = _short(b[i]) if i < len(b) else "end"
    return f"first difference at index {i}: {x} vs {y}"


def _canonical(
    blocks: Iterable[tuple[int, ...]],
) -> tuple[list[tuple[int, ...]], tuple[int, ...], bool] | None:
    """Each of ``blocks`` in canonical form, their support, and whether the
    blocks were canonical already, in canonical order; None when no canonical
    form exists: an empty block, a 0, or an absolute value that occurs twice.

    One loop per block checks what the canonical form asks of it: its members
    strictly increase in absolute value, which also rules out a 0, its first
    member is positive, and that member is larger than the first member of
    the block before.  Only a block that fails is sorted by absolute value or
    negated.  Repeats, ±x in one block included, leave fewer absolute values
    than members, and the support is those values sorted: the members' own
    ints, not new ones.
    """
    out = []
    canonical = True
    last = 0
    for b in blocks:
        prev = 0
        for m in b:
            if m > prev:
                prev = m
            elif -m > prev:
                prev = -m
            else:
                b = tuple(_by_abs(b))
                canonical = False
                break
        if not b:
            return None
        first = b[0]
        if first < 0:
            b = tuple([-m for m in b])
            first, canonical = -first, False
        if first <= last:
            canonical = False
        last = first
        out.append(b)
    seen = set(map(abs, chain.from_iterable(out)))
    if len(seen) < sum(map(len, out)) or 0 in seen:
        return None
    return out, tuple(sorted(seen)), canonical


def make_partition(
    blocks: Iterable[Iterable[int]],
    ground: Iterable[int] | None = None,
) -> SignedPartition:
    """Canonicalize raw signed blocks into a :class:`SignedPartition`.

    Either representative of each block pair is accepted, with its members
    in any order: a block is sorted by absolute value and negated when its
    first member is negative, and the blocks are sorted by that member.  One
    pass finds which of that work the input needs, so canonical input, as
    every line this package prints is, is checked and not rearranged; the
    blocks are sorted only when that pass changed a block or found them out
    of order.  A problem is then named by a member-by-member walk.  When
    ``ground`` is omitted it is inferred from the absolute values present;
    when given, it is sorted and must equal that support exactly, so a
    duplicate, zero or negative element raises :class:`GroundMismatchError`.
    """
    raw = list(map(tuple, blocks))
    found = _canonical(raw)
    if found is None:
        # the first problem, found member by member
        ordered = list(map(_by_abs, raw))
        for ms in ordered:
            _check_block(ms)
        covered = sorted(map(abs, chain.from_iterable(ordered)))
        for i in range(1, len(covered)):
            if covered[i] == covered[i - 1]:
                raise DuplicateElementError(f"|{_short(covered[i])}| occurs in more than one block")
    norm, support, canonical = found
    if not canonical:
        norm.sort()  # by first member, as no two blocks share one
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

    A partition is valid exactly when the one-pass check of
    :func:`make_partition` finds its blocks canonical as stored and their
    support equal to ``part.ground``; only when it does not are the
    invariants walked one by one to name the problem.  Canonical instances
    are produced only by this package, so a violation is reported as
    :class:`InternalInvariantError` rather than bad input.
    """
    found = _canonical(part.blocks)
    if found is not None and found[2] and found[1] == part.ground:
        return
    g = part.ground
    if any(t < 1 for t in g):
        raise InternalInvariantError(f"ground {g} has a nonpositive element")
    if any(g[i] >= g[i + 1] for i in range(len(g) - 1)):
        raise InternalInvariantError(f"ground {g} is not strictly increasing")
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

    def __init__(
        self, singletons: int, adjacencies: int, singleton_elements: tuple[int, ...],
        adjacency_positions: tuple[int, ...],
    ) -> None:
        # stored through the slots, as SignedPartition stores its fields
        _set_singletons(self, singletons)
        _set_adjacencies(self, adjacencies)
        _set_singleton_elements(self, singleton_elements)
        _set_adjacency_positions(self, adjacency_positions)


_set_singletons = Statistics.singletons.__set__
_set_adjacencies = Statistics.adjacencies.__set__
_set_singleton_elements = Statistics.singleton_elements.__set__
_set_adjacency_positions = Statistics.adjacency_positions.__set__


def statistics(part: SignedPartition) -> Statistics:
    """Count singleton pairs and adjacency pairs.

    Read off the keys: position j is an adjacency exactly when t_j and
    t_{j+1} have equal keys, same block pair and same sign, so sharing a
    block pair with opposite orientations does not count.  The singletons
    are the blocks of length one.  On a one-element ground the lone element
    is both a singleton pair and its own adjacency pair.
    """
    ts = part.ground
    key = _key(part.blocks, ts, _rank(ts))
    singles = tuple([b[0] for b in part.blocks if len(b) == 1])
    positions = tuple(compress(range(1, len(ts) + 1), map(eq, key, key[1:] + key[:1])))
    return Statistics(len(singles), len(positions), singles, positions)


def adjacency_pairs(part: SignedPartition, stats: Statistics) -> tuple[tuple[int, int], ...]:
    """The adjacency pairs (t_j, t_{j+1}) of ``part`` in position order.

    ``stats`` must be ``statistics(part)``; callers pass the one they hold.
    """
    ts = part.ground
    r = len(ts)
    return tuple((ts[j - 1], ts[j % r]) for j in stats.adjacency_positions)


def require_full_ground(part: SignedPartition, n: int | None = None) -> int:
    """Check that the support is exactly {1..n} and return n.

    With ``n`` omitted, the required size is taken from the ground itself.
    """
    g = part.ground
    size = len(g)
    if n is None:
        n = size
    elif n < 0:
        said = f"n = {n} is negative" if n > -(10**9) else f"n is {_short(n)}"
        raise NotFullGroundError(f"{said}, so no ground is the set 1..n")
    if n != size or (g and g[-1] != size):
        # 1..size+1 meets the ground where 1..n does, and its length fits in
        # a machine word however large n is
        raise NotFullGroundError(
            f"ground of {size} elements is not the full set 1..{_short(n)}; "
            f"{_first_difference(g, range(1, min(n, size + 1) + 1))}"
        )
    return n


def complement(part: SignedPartition, n: int) -> SignedPartition:
    """Mirror a partition of {1..n} through i -> n+1-i, preserving signs.

    An involution: applying it twice returns the input.  Both statistics are
    preserved; the adjacency at (t_j, t_{j+1}) lands on
    (n-t_{j+1}+1, n-t_j+1).

    The result is canonical by construction, without :func:`make_partition`.
    The mirror reverses the order of absolute values and maps {1..n} onto
    itself, so the ground stays ``part.ground``, and a stored block read
    backwards and mirrored is sorted by absolute value again; negating it
    when its first member is negative makes it the positive representative,
    and sorting the blocks as tuples orders them by that first member, their
    least absolute value, since no two blocks share one.
    ``tests/test_core.py::test_complement_matches_make_partition`` holds it
    to :func:`make_partition` of the mirrored blocks on all of V_0..V_7.
    """
    require_full_ground(part, n)
    top = n + 1
    blocks = []
    for block in part.blocks:
        mirrored = [top - x if x > 0 else -top - x for x in reversed(block)]
        blocks.append(tuple(mirrored) if mirrored[0] > 0 else tuple([-x for x in mirrored]))
    blocks.sort()
    return SignedPartition(part.ground, tuple(blocks))
