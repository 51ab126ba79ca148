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

Every entry point runs on one private array kernel.  A stage is a sorted
ground plus one integer key per position; a peel step is a scan for the
layer's singletons and side points followed by a filter of the positions,
and a patch or un-peel step merges the layer into the ground and hands each
run the key of its anchor.  The check after each patch step is a fresh scan
of the new stage.  Canonical :class:`~bpartitions.core.SignedPartition`
objects are built only where a public function returns one: the core of a
:class:`PeelTrace`, each entry of :func:`patch_stages` and
:func:`trace_stages`, and the results of :func:`patch`, :func:`peel_step` and
:func:`patch_step`.  So ``psi`` builds two per call however many layers its
input peels into.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .core import (
    GroundSet,
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
    original_ground: GroundSet


# A stage is the kernel's form of a partition: its ground as a sorted list ``ts``
# and one key per position, 2 * label + (sign > 0), where the label names the
# block pair.  Cyclic neighbours form an adjacency exactly when their keys are
# equal, and a block is a singleton exactly when its label occurs once.  Keys
# only compare for equality, so a stage never needs renormalising; a run
# element takes its anchor's key whatever sign the anchor has in its block.

_RUN = -1  # key placeholder for a run element not yet given its anchor's key


def _stage(part: SignedPartition) -> tuple[list[int], list[int]]:
    key: dict[int, int] = {}
    for label, block in enumerate(part.blocks):
        for m in block:
            key[abs(m)] = 2 * label + (m > 0)
    ts = list(part.ground.elements)
    return ts, [key[t] for t in ts]


def _materialize(ts: list[int], keys: list[int]) -> SignedPartition:
    blocks: dict[int, list[int]] = {}
    for t, k in zip(ts, keys):
        blocks.setdefault(k >> 1, []).append(t if k & 1 else -t)
    return make_partition(blocks.values(), GroundSet(tuple(ts)))


def _scan(ts: list[int], keys: list[int], side: Side) -> tuple[set[int], set[int]]:
    """Singleton elements and side points of a stage."""
    count: dict[int, int] = {}
    for k in keys:
        count[k] = count.get(k, 0) + 1
    singles = {t for t, k in zip(ts, keys) if count[k] == 1 and k ^ 1 not in count}
    following = keys[1:] + keys[:1]
    owners = ts if side is Side.LEFT else ts[1:] + ts[:1]
    return singles, {t for t, k, k2 in zip(owners, keys, following) if k == k2}


def _peel_sets(
    ts: list[int], keys: list[int], side: Side
) -> tuple[frozenset[int], frozenset[int]] | None:
    """The sets a peel step would remove, or None when the stage is a core."""
    singles, points = _scan(ts, keys, side)
    if not singles and not points:
        return None
    if len(ts) == 1:
        return frozenset(singles), frozenset()
    if points & singles:
        raise InternalInvariantError(
            f"singletons and side points overlap in {_materialize(ts, keys)}"
        )
    return frozenset(singles), frozenset(points)


def _remove(ts: list[int], keys: list[int], gone: frozenset[int]) -> tuple[list[int], list[int]]:
    kept = [j for j, t in enumerate(ts) if t not in gone]
    return [ts[j] for j in kept], [keys[j] for j in kept]


def peel_step(part: SignedPartition, side: Side, step: int = 1) -> tuple[PeelLayer, SignedPartition]:
    """Strip one layer of singletons and side points; return it and the remainder.

    Removal always acts on +x and -x together, so the remainder is again a
    valid symmetric partition without zero-block.
    """
    ts, keys = _stage(part)
    sets = _peel_sets(ts, keys, side)
    if sets is None:
        raise AlreadyCoreError(f"{part} has no singleton or adjacency pairs")
    singles, points = sets
    rest = _materialize(*_remove(ts, keys, singles | points))
    return PeelLayer(step, singles, points, side), rest


def peel(part: SignedPartition, side: Side) -> PeelTrace:
    """Iterate peel steps down to the core.

    A core input yields an empty layer list.  Each step strictly shrinks the
    ground set, so at most r steps occur; the core may be empty.
    """
    layers: list[PeelLayer] = []
    ts, keys = _stage(part)
    while (sets := _peel_sets(ts, keys, side)) is not None:
        singles, points = sets
        layers.append(PeelLayer(len(layers) + 1, singles, points, side))
        ts, keys = _remove(ts, keys, singles | points)
    core = _materialize(ts, keys) if layers else part
    return PeelTrace(tuple(layers), core, part.ground)


def _merge(ts: list[int], runs: frozenset[int], fresh: frozenset[int]) -> list[int]:
    """The ground of a stage with a layer merged in, checking they are disjoint."""
    added = runs | fresh
    if not added:
        raise MalformedLayerError("layer carries no elements")
    if runs & fresh:
        raise MalformedLayerError("layer singletons and side points overlap")
    if not added.isdisjoint(ts):
        raise GroundMismatchError(
            "target ground is not the disjoint union of the stage ground and the layer"
        )
    return sorted(ts + list(added))


def _fill_runs(merged: list[int], out: list[int], limit: int, attach: Side) -> None:
    """Give each maximal cyclic run of ``_RUN`` positions its anchor's key.

    The anchor is the run's cyclic predecessor when attaching on the right,
    its cyclic successor when attaching on the left; it must be a stage
    element, whose key is below ``limit``.
    """
    r = len(out)
    spans: list[list[int]] = []  # [first, last] positions, one per run
    for p, k in enumerate(out):
        if k == _RUN:
            if spans and spans[-1][1] == p - 1:
                spans[-1][1] = p
            else:
                spans.append([p, p])
    if len(spans) > 1 and spans[0][0] == 0 and spans[-1][1] == r - 1:
        spans[0][0] = spans.pop()[0]
    for first, last in spans:
        anchor = first - 1 if attach is Side.RIGHT else (last + 1) % r
        positions = range(first, last + 1 + (r if first > last else 0))
        key = out[anchor]
        if key >= limit:
            run = [merged[p % r] for p in positions]
            raise AnchorMissingError(
                f"run {run} is anchored at {merged[anchor]}, which is absent from the stage"
            )
        for p in positions:
            out[p % r] = key


def _graft(
    ts: list[int],
    keys: list[int],
    labels: int,
    merged: list[int],
    runs: frozenset[int],
    fresh: frozenset[int],
    attach: Side,
) -> tuple[list[int], int]:
    """Keys on ``merged`` (see :func:`_merge`) for ``runs`` inserted next to
    their anchors and ``fresh`` added as singletons.

    ``labels`` bounds the labels in use; returns the keys and the new bound.
    """
    if not ts:
        if runs and fresh:
            raise MalformedLayerError(
                "an empty stage accepts only an all-singleton or an all-side-point layer"
            )
        if runs:
            return [2 * labels + 1] * len(merged), labels + 1
    limit = 2 * labels
    key_of = dict(zip(ts, keys))
    key_of.update(zip(fresh, range(limit + 1, limit + 2 * len(fresh), 2)))
    out = [key_of.get(t, _RUN) for t in merged]
    if runs:
        _fill_runs(merged, out, limit, attach)
    return out, labels + len(fresh)


def patch_step(
    stage: SignedPartition,
    layer: PeelLayer,
    attach: Side,
    target_ground: GroundSet,
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
    merged = _merge(list(stage.ground), layer.singletons, layer.side_points)
    if tuple(merged) != target_ground.elements:
        raise GroundMismatchError(
            "target ground is not the disjoint union of the stage ground and the layer"
        )
    return patch(PeelTrace((layer,), stage, target_ground), attach)


def _unfold(trace: PeelTrace, attach: Side | None) -> Iterator[tuple[list[int], list[int]]]:
    """The stages from the core up, one per layer in reverse peel order.

    With ``attach`` given, each layer is patched in on that side with the two
    roles interchanged; with None it is un-peeled with its original roles.
    Every stage must carry the layer's returning elements as its singleton
    set and the anchored ones as its side points on the attach side; a fresh
    scan checks this, and a violation raises :class:`InternalInvariantError`.
    """
    ts, keys = _stage(trace.core)
    labels = len(trace.core.blocks)
    for layer in reversed(trace.layers):
        if attach is None:
            side, runs, fresh, what = layer.side, layer.side_points, layer.singletons, "un-peel"
        elif attach is layer.side:
            raise MalformedLayerError("attach side must be opposite the peel side")
        else:
            side, runs, fresh, what = attach, layer.singletons, layer.side_points, "patch"
        merged = _merge(ts, runs, fresh)
        keys, labels = _graft(ts, keys, labels, merged, runs, fresh, side)
        ts = merged
        if len(ts) == 1:
            # The lone element is singleton and side point at once.
            runs = fresh = runs | fresh
        singles, points = _scan(ts, keys, side)
        if singles != fresh or points != runs:
            raise InternalInvariantError(
                f"{what} at layer {layer.step} built a stage with singletons "
                f"{sorted(singles)} and side points {sorted(points)} instead of "
                f"{sorted(fresh)} / {sorted(runs)}: {_materialize(ts, keys)}"
            )
        yield ts, keys
    if tuple(ts) != trace.original_ground.elements:
        raise GroundMismatchError("trace layers do not rebuild the original ground")


def patch_stages(trace: PeelTrace, attach: Side) -> tuple[SignedPartition, ...]:
    """All patch stages from the core up, each one checked.

    Returns k+1 partitions for a k-layer trace: the core first, then the
    stage produced by each layer in reverse peel order; the last entry is the
    rebuilt partition.  Every stage must carry the layer's side points as its
    singleton set and the layer's singletons as its side points on the attach
    side; a violation raises :class:`InternalInvariantError`.
    """
    return (trace.core, *(_materialize(ts, keys) for ts, keys in _unfold(trace, attach)))


def patch(trace: PeelTrace, attach: Side) -> SignedPartition:
    """Fold every layer of ``trace`` back in; see :func:`patch_stages`.

    Only the result is built as a :class:`SignedPartition`; the stages below
    it are checked the same way but never materialised.
    """
    last = None
    for last in _unfold(trace, attach):
        pass
    return trace.core if last is None else _materialize(*last)


def trace_stages(trace: PeelTrace) -> tuple[SignedPartition, ...]:
    """Reconstruct the peel remainders recorded by a trace.

    The core is un-peeled layer by layer with the original roles: side points
    rejoin the block of their adjacency partner (their cyclic successor for a
    left-sided peel, predecessor for a right-sided one) and singletons come
    back as singleton blocks.  Index j of the result is the remainder after
    layer j; index 0 is the partition the trace was peeled from.
    """
    stages = [trace.core, *(_materialize(ts, keys) for ts, keys in _unfold(trace, None))]
    return tuple(reversed(stages))


def psi(part: SignedPartition) -> SignedPartition:
    """Swap the two statistics: peel left points, patch back on the right.

    Defined on partitions with full ground {1..n}; the image has the input's
    adjacency count as its singleton count and vice versa.
    """
    require_full_ground(part)
    return patch(peel(part, Side.LEFT), Side.RIGHT)


def psi_inverse(part: SignedPartition) -> SignedPartition:
    """Inverse of :func:`psi`: peel right points, patch back on the left."""
    require_full_ground(part)
    return patch(peel(part, Side.RIGHT), Side.LEFT)


def involution(part: SignedPartition) -> SignedPartition:
    """Complement of ``psi``; applying it twice returns the input."""
    n = require_full_ground(part)
    return complement(psi(part), n)
