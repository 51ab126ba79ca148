"""Peeling and patching: a statistic-swapping bijection on signed partitions.

Peeling repeatedly strips the singleton pairs together with one chosen end of
every adjacency pair (the left points or the right points), recording each
stripped layer, until neither statistic survives; the residue is the core.

Patching rebuilds a partition from the core with the two roles interchanged.
Each layer's former singletons come back grouped into maximal cyclically
consecutive runs, absorbed into the block of the run's anchor with the
anchor's orientation (the anchor is the run's cyclic predecessor when
attaching on the right, its cyclic successor when attaching on the left),
while the layer's former side points come back as fresh singleton pairs.
When the stage being patched into is empty, the layer is necessarily either
all singletons (rebuilt as a single block) or all side points (rebuilt as all
singletons).

``psi`` composes a left-sided peel with a right-sided patch and swaps the
singleton and adjacency counts; ``psi_inverse`` composes a right-sided peel
with a left-sided patch and undoes it.  Conjugating ``psi`` with
``complement`` gives ``involution``, a self-inverse map that still swaps the
two statistics.

After every patch step the construction is checked: the layer's side points
must be exactly the singleton set of the new stage and the layer's singletons
exactly its side-point set on the attach side.  That exchange is what makes
the inverse peel retrace the stages, so a violation raises
:class:`~bpartitions.core.InternalInvariantError`.  A single
:func:`patch_step` is :func:`patch` on a one-layer trace and is checked the
same way.

Every entry point runs on one private kernel in which a step costs its own
layer, not the whole stage.  A stage is a sorted ground plus one integer key
per element.  A peel keeps cyclic successor and predecessor links and the
alive members of each label: only the first layer is a full scan, and each
later one looks only at the elements a removal touched.  A patch or un-peel
step merges the layer into the ground, finds each run's anchor by bisection,
and updates the stage's singleton set and adjacency owners at the touched
positions; the check after the step compares those whole sets with the
layer.  Peeling and patching a partition of n elements thus costs
O(n + Σ|layer|·log n) steps of Python, plus a C-level merge of each layer
into the ground.  Canonical :class:`~bpartitions.core.SignedPartition`
objects are built only where a public function returns one: the core of a
:class:`PeelTrace`, each entry of :func:`patch_stages` and
:func:`trace_stages`, and the results of :func:`patch`, :func:`peel_step`,
:func:`patch_step`, ``psi`` and ``psi_inverse``.  So ``psi`` builds one per
call however many layers its input peels into.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

from .core import (
    InternalInvariantError,
    PartitionError,
    GroundMismatchError,
    SignedPartition,
    make_partition,
    require_full_ground,
    complement,
)


class AlreadyCoreError(PartitionError):
    """peel_step was asked to peel a partition with nothing to peel."""


class MalformedLayerError(PartitionError):
    """A peel layer is inconsistent with the stage it is applied to."""


class AnchorMissingError(PartitionError):
    """A run's anchor element is absent from the stage (corrupted trace)."""


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"

    @property
    def opposite(self) -> Side:
        return Side.RIGHT if self is Side.LEFT else Side.LEFT


@dataclass(frozen=True, slots=True)
class PeelLayer:
    """One peeled layer: the singleton elements and the side points removed.

    ``side_points`` holds the left points when ``side`` is LEFT and the right
    points when it is RIGHT.  On a one-element ground the lone element counts
    as both; it is recorded under ``singletons`` only.
    """

    step: int
    singletons: frozenset[int]
    side_points: frozenset[int]
    side: Side


@dataclass(frozen=True, slots=True)
class PeelTrace:
    """The full record of a peel: its layers, the core, and where it started."""

    layers: tuple[PeelLayer, ...]
    core: SignedPartition
    original_ground: tuple[int, ...]


# A stage is the kernel's form of a partition: its ground as a sorted list ``ts``
# and a dict ``key`` giving each element 2 * label + (sign > 0), where the label
# names the block pair.  Cyclic neighbours form an adjacency exactly when their
# keys are equal, and a block is a singleton exactly when its label occurs
# once.  Keys only compare for equality, so a stage never needs renormalising;
# a run element takes its anchor's key whatever sign the anchor has in its
# block.


def _stage(part: SignedPartition) -> tuple[list[int], dict[int, int]]:
    key: dict[int, int] = {}
    for label, block in enumerate(part.blocks):
        for m in block:
            key[abs(m)] = 2 * label + (m > 0)
    return list(part.ground), key


def _materialize(ts: list[int], key: dict[int, int]) -> SignedPartition:
    blocks: dict[int, list[int]] = {}
    for t in ts:
        k = key[t]
        blocks.setdefault(k >> 1, []).append(t if k & 1 else -t)
    return make_partition(blocks.values())


def _layers(ts: list[int], key: dict[int, int], side: Side) -> Iterator[PeelLayer]:
    """The peel layers of the stage ``ts``, numbered from 1.

    Each layer is deleted from ``key`` when the next one is asked for, so an
    exhausted generator leaves ``key`` holding the core.  Only the first layer
    is a full scan.  A layer takes every singleton and side point, so the
    next one holds only elements whose status changed: the last alive member
    of a label, which is a singleton, and the neighbour whose link now skips
    a removed run (its predecessor for LEFT, successor for RIGHT), which may
    be a side point.
    """
    following = ts[1:] + ts[:1]
    succ, pred = dict(zip(ts, following)), dict(zip(following, ts))
    link, seam = (succ, pred) if side is Side.LEFT else (pred, succ)
    members: dict[int, set[int]] = {}
    for t in ts:
        members.setdefault(key[t] >> 1, set()).add(t)
    singles = {t for t in ts if len(members[key[t] >> 1]) == 1}
    points = {t for t in ts if key[t] == key[link[t]]}
    step = 0
    while singles or points:
        if len(key) == 1:
            points = set()  # the lone element is recorded as a singleton only
        elif not points.isdisjoint(singles):
            raise InternalInvariantError(
                f"singletons and side points overlap in "
                f"{_materialize([t for t in ts if t in key], key)}"
            )
        step += 1
        yield PeelLayer(step, frozenset(singles), frozenset(points), side)
        gone = singles | points
        seams = {seam[u] for u in gone} - gone
        labels = set()
        for u in gone:
            p, q = pred[u], succ[u]
            succ[p], pred[q] = q, p
            label = key.pop(u) >> 1
            members[label].discard(u)
            labels.add(label)
        singles = {next(iter(members[label])) for label in labels if len(members[label]) == 1}
        points = {t for t in seams if key[t] == key[link[t]]}


def peel_step(part: SignedPartition, side: Side, step: int = 1) -> tuple[PeelLayer, SignedPartition]:
    """Strip one layer of singletons and side points; return it and the remainder.

    Removal always acts on +x and -x together, so the remainder is again a
    valid symmetric partition without zero-block.
    """
    ts, key = _stage(part)
    layer = next(_layers(ts, key, side), None)
    if layer is None:
        raise AlreadyCoreError(f"{part} has no singleton or adjacency pairs")
    gone = layer.singletons | layer.side_points
    rest = _materialize([t for t in ts if t not in gone], key)
    return PeelLayer(step, layer.singletons, layer.side_points, side), rest


def peel(part: SignedPartition, side: Side) -> PeelTrace:
    """Iterate peel steps down to the core.

    A core input yields an empty layer list.  Each step strictly shrinks the
    ground set, so at most r steps occur; the core may be empty.
    """
    ts, key = _stage(part)
    layers = tuple(_layers(ts, key, side))
    core = _materialize([t for t in ts if t in key], key) if layers else part
    return PeelTrace(layers, core, part.ground)


def _merge(
    ts: list[int], key: dict[int, int], runs: frozenset[int], fresh: frozenset[int]
) -> list[int]:
    """The ground of a stage with a layer merged in, checking they are disjoint."""
    added = runs | fresh
    if not added:
        raise MalformedLayerError("layer carries no elements")
    if runs & fresh:
        raise MalformedLayerError("layer singletons and side points overlap")
    if not key.keys().isdisjoint(added):
        raise GroundMismatchError(
            "target ground is not the disjoint union of the stage ground and the layer"
        )
    return sorted(ts + list(added))


def _anchor(merged: list[int], at: list[int], key: dict[int, int], attach: Side) -> list[int]:
    """Give each maximal cyclic run of the positions ``at`` its anchor's key.

    ``at`` lists the run positions in ``merged`` in increasing order.  The
    anchor is the run's cyclic predecessor when attaching on the right, its
    cyclic successor when attaching on the left; it must be a stage element,
    one that has a key.  Returns the anchors.
    """
    r = len(merged)
    spans: list[list[int]] = []  # [first, last] positions, one per run
    for p in at:
        if spans and spans[-1][1] == p - 1:
            spans[-1][1] = p
        else:
            spans.append([p, p])
    if len(spans) > 1 and spans[0][0] == 0 and spans[-1][1] == r - 1:
        spans[0][0] = spans.pop()[0]
    anchors = []
    for first, last in spans:
        anchor = merged[first - 1] if attach is Side.RIGHT else merged[(last + 1) % r]
        run = [merged[p % r] for p in range(first, last + 1 + (r if first > last else 0))]
        if anchor not in key:
            raise AnchorMissingError(
                f"run {run} is anchored at {anchor}, which is absent from the stage"
            )
        key.update(dict.fromkeys(run, key[anchor]))
        anchors.append(anchor)
    return anchors


def patch_step(
    stage: SignedPartition,
    layer: PeelLayer,
    attach: Side,
    target_ground: Iterable[int],
) -> SignedPartition:
    """Patch one layer into ``stage`` with the two roles interchanged.

    The layer's singletons are absorbed as anchored runs, so they become side
    points of the result; the layer's side points come back as singleton
    pairs.  ``attach`` must be the side opposite the one the layer was peeled
    from.  This is :func:`patch` on a one-layer trace, so the result is
    checked like every patch stage: a layer that does not swap its roles
    raises :class:`InternalInvariantError`.
    """
    if attach is layer.side:
        raise MalformedLayerError("attach side must be opposite the peel side")
    target = tuple(sorted(target_ground))
    ts, key = _stage(stage)
    if tuple(_merge(ts, key, layer.singletons, layer.side_points)) != target:
        raise GroundMismatchError(
            "target ground is not the disjoint union of the stage ground and the layer"
        )
    return _fold(ts, key, len(stage.blocks), (layer,), attach, target, stage)


def _unfold(
    ts: list[int],
    key: dict[int, int],
    labels: int,
    layers: Sequence[PeelLayer],
    attach: Side | None,
    ground: tuple[int, ...],
) -> Iterator[list[int]]:
    """The grounds of the stages from the core ``ts`` up, one per layer in
    reverse peel order; ``key`` is updated in place and holds the keys of
    the stage last yielded, and ``labels`` bounds the labels it uses.

    With ``attach`` given, each layer is patched in on that side with the two
    roles interchanged; with None it is un-peeled with its original roles.
    The last stage must have ``ground``.

    Every stage must carry the layer's returning elements as its singleton
    set and the anchored ones as its side points on the attach side, and a
    violation raises :class:`InternalInvariantError`.  The stage's whole
    singleton set and its whole sets of adjacency owners (left and right
    points) are compared, but they are kept up to date only where a step
    touches the stage: at the layer's own elements, at the anchors, whose
    labels grow, and at the pairs of neighbours that involve an inserted
    position.  That is enough.  An element is a singleton when its label
    occurs once, and owns an adjacency when its key equals its neighbour's.
    An untouched element keeps its neighbours, since nothing was inserted
    next to it, and its label count: only anchor labels grow, and a label
    that occurred once has its anchor as its only member.  So its status
    cannot change, and the comparison is the one a fresh scan of the stage
    would make.
    """
    count: dict[int, int] = {}
    for t in ts:
        label = key[t] >> 1
        count[label] = count.get(label, 0) + 1
    singles = {t for t in ts if count[key[t] >> 1] == 1} if 1 in count.values() else set()
    following = ts[1:] + ts[:1]
    lefts = {t for t, u in zip(ts, following) if key[t] == key[u]}
    # Adjacencies pair left and right points one to one.
    rights = {u for t, u in zip(ts, following) if key[t] == key[u]} if lefts else set()
    for layer in reversed(layers):
        if attach is None:
            side, runs, fresh, what = layer.side, layer.side_points, layer.singletons, "un-peel"
        elif attach is layer.side:
            raise MalformedLayerError("attach side must be opposite the peel side")
        else:
            side, runs, fresh, what = attach, layer.singletons, layer.side_points, "patch"
        merged = _merge(ts, key, runs, fresh)
        r = len(merged)
        at = [bisect_left(merged, t) for t in sorted(runs)]  # the layer's positions
        anchors: list[int] = []
        if not ts and runs:
            if fresh:
                raise MalformedLayerError(
                    "an empty stage accepts only an all-singleton or an all-side-point layer"
                )
            key.update(dict.fromkeys(runs, 2 * labels + 1))
            count[labels] = 0
            labels += 1
        elif runs:
            anchors = _anchor(merged, at, key, side)
        for t in runs:
            count[key[t] >> 1] += 1
        for t in fresh:
            key[t] = 2 * labels + 1
            count[labels] = 1
            labels += 1
            at.append(bisect_left(merged, t))
        for t in (*runs, *fresh, *anchors):
            if count[key[t] >> 1] == 1:
                singles.add(t)
            else:
                singles.discard(t)
        for p in at:
            for t, u in ((merged[p - 1], merged[p]), (merged[p], merged[(p + 1) % r])):
                if key[t] == key[u]:
                    lefts.add(t)
                    rights.add(u)
                else:
                    lefts.discard(t)
                    rights.discard(u)
        ts = merged
        if r == 1:
            # The lone element is singleton and side point at once.
            runs = fresh = runs | fresh
        points = lefts if side is Side.LEFT else rights
        if singles != fresh or points != runs:
            raise InternalInvariantError(
                f"{what} at layer {layer.step} built a stage with singletons "
                f"{sorted(singles)} and side points {sorted(points)} instead of "
                f"{sorted(fresh)} / {sorted(runs)}: {_materialize(ts, key)}"
            )
        yield ts
    if tuple(ts) != ground:
        raise GroundMismatchError("trace layers do not rebuild the original ground")


def _fold(
    ts: list[int],
    key: dict[int, int],
    labels: int,
    layers: Sequence[PeelLayer],
    attach: Side,
    ground: tuple[int, ...],
    unchanged: SignedPartition,
) -> SignedPartition:
    """Patch ``layers`` into the stage and build only the result; with no
    layers the stage is returned as ``unchanged``, its partition."""
    for ts in _unfold(ts, key, labels, layers, attach, ground):
        pass
    return _materialize(ts, key) if layers else unchanged


def _unfold_trace(
    trace: PeelTrace, attach: Side | None
) -> tuple[dict[int, int], Iterator[list[int]]]:
    """:func:`_unfold` from the core of ``trace``: the keys and the stages."""
    ts, key = _stage(trace.core)
    ground = trace.original_ground
    return key, _unfold(ts, key, len(trace.core.blocks), trace.layers, attach, ground)


def patch_stages(trace: PeelTrace, attach: Side) -> tuple[SignedPartition, ...]:
    """All patch stages from the core up, each one checked.

    Returns k+1 partitions for a k-layer trace: the core first, then the
    stage produced by each layer in reverse peel order; the last entry is the
    rebuilt partition.  Every stage must carry the layer's side points as its
    singleton set and the layer's singletons as its side points on the attach
    side; a violation raises :class:`InternalInvariantError`.
    """
    key, stages = _unfold_trace(trace, attach)
    return (trace.core, *(_materialize(stage, key) for stage in stages))


def patch(trace: PeelTrace, attach: Side) -> SignedPartition:
    """Fold every layer of ``trace`` back in; see :func:`patch_stages`.

    Only the result is built as a :class:`SignedPartition`; the stages below
    it are checked the same way but never materialised.
    """
    ts, key = _stage(trace.core)
    ground = trace.original_ground
    return _fold(ts, key, len(trace.core.blocks), trace.layers, attach, ground, trace.core)


def trace_stages(trace: PeelTrace) -> tuple[SignedPartition, ...]:
    """Reconstruct the peel remainders recorded by a trace.

    The core is un-peeled layer by layer with the original roles: side points
    rejoin the block of their adjacency partner (their cyclic successor for a
    left-sided peel, predecessor for a right-sided one) and singletons come
    back as singleton blocks.  Index j of the result is the remainder after
    layer j; index 0 is the partition the trace was peeled from.
    """
    key, stages = _unfold_trace(trace, None)
    return tuple(reversed([trace.core, *(_materialize(stage, key) for stage in stages)]))


def _swap(part: SignedPartition, side: Side) -> SignedPartition:
    """Peel ``part`` on ``side`` and patch it back on the other side, handing
    the peeled keys straight to the patch."""
    ts, key = _stage(part)
    layers = tuple(_layers(ts, key, side))
    core = [t for t in ts if t in key]
    return _fold(core, key, len(part.blocks), layers, side.opposite, part.ground, part)


def psi(part: SignedPartition) -> SignedPartition:
    """Swap the two statistics: peel left points, patch back on the right.

    Defined on partitions with full ground {1..n}; the image has the input's
    adjacency count as its singleton count and vice versa.
    """
    require_full_ground(part)
    return _swap(part, Side.LEFT)


def psi_inverse(part: SignedPartition) -> SignedPartition:
    """Inverse of :func:`psi`: peel right points, patch back on the left."""
    require_full_ground(part)
    return _swap(part, Side.RIGHT)


def involution(part: SignedPartition) -> SignedPartition:
    """Complement of ``psi``; applying it twice returns the input."""
    n = require_full_ground(part)
    return complement(psi(part), n)
