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
with a left-sided patch and undoes it.  ``involution`` is ``psi`` followed
by ``complement``, a self-inverse map that still swaps the two statistics.
It is read off the keys of one ``psi`` run: the mirror i -> n+1-i takes rank
i to rank n-1-i and keeps signs, so it reverses the key list.

After every patch step the construction is checked: the layer's side points
must be exactly the singleton set of the new stage and the layer's singletons
exactly its side-point set on the attach side.  That exchange is what makes
the inverse peel retrace the stages, so a violation raises
:class:`~bpartitions.core.InternalInvariantError`.  A single
:func:`patch_step` is :func:`patch` on a one-layer trace and is checked the
same way.

Every entry point runs on one private kernel in which a step costs its own
layer.  Its stage lives on the ranks of a sorted universe ``us`` (a
partition's ground, or a trace's core ground and layers), in the key
encoding that :mod:`bpartitions.core` defines, with key -1 for a rank
outside the stage; ``succ`` and ``pred`` link the stage's ranks into a ring
in increasing order.  The keys are the only record of which ranks the stage
holds.  These are lists indexed by rank, never by element value, so a
sparse ground costs only its size.  A peel unlinks each layer from the
ring; a patch or un-peel step re-links it in reverse order, which restores
the ring the peel removed it from, and gives each run along the ring its
anchor's key.  So peeling and patching n elements costs O(n + Σ|layer|)
steps, with no merge, sort or search per layer, and ``psi`` builds one
partition per call.

A ``psi`` call makes four passes over its ground {1..n} in Python: it fills
the keys, scans for the first layer's side points, scans the keys once more
to find the core and set the baseline of the patch's per-stage check, and
builds the result.  A partition that is its own core peels into no layers
and skips the third pass.  The ring and a shifted copy of the keys are list
copies.  The peel keeps a count per label and scans a block only when its
count falls to 1, to find its last member; the patch starts from the peel's
final counts.  Everything else costs the peeled elements.  The map
commands run the same entry, :func:`_swap`, on the keys of a scanned line
and print its final keys, building no partition (see
:mod:`bpartitions.cli`).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

from .core import (
    InternalInvariantError,
    PartitionError,
    GroundMismatchError,
    SignedPartition,
    _PRECEDING,
    _key,
    _materialize,
    _rank,
    _representatives,
    require_full_ground,
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

    def __init__(
        self, step: int, singletons: frozenset[int], side_points: frozenset[int], side: Side
    ) -> None:
        # stored through the slots, as core.SignedPartition stores its fields
        _set_step(self, step)
        _set_singletons(self, singletons)
        _set_side_points(self, side_points)
        _set_side(self, side)


_set_step = PeelLayer.step.__set__
_set_singletons = PeelLayer.singletons.__set__
_set_side_points = PeelLayer.side_points.__set__
_set_side = PeelLayer.side.__set__


@dataclass(frozen=True, slots=True)
class PeelTrace:
    """The full record of a peel: its layers, the core, and where it started."""

    layers: tuple[PeelLayer, ...]
    core: SignedPartition
    original_ground: tuple[int, ...]

    def __init__(
        self, layers: tuple[PeelLayer, ...], core: SignedPartition, original_ground: Iterable[int]
    ) -> None:
        _set_layers(self, layers)
        _set_core(self, core)
        # stored sorted, as make_partition and patch_step store a ground
        _set_original_ground(self, tuple(sorted(original_ground)))


_set_layers = PeelTrace.layers.__set__
_set_core = PeelTrace.core.__set__
_set_original_ground = PeelTrace.original_ground.__set__


def _clip(text: str) -> str:
    """``text`` with its middle elided past 100 characters, to bound a message."""
    return text if len(text) <= 100 else f"{text[:45]} ... {text[-45:]}"


def _elements(us: Sequence[int], ranks: Iterable[int]) -> str:
    """The elements at ``ranks`` as a sorted list, for a message."""
    return _clip(str([us[i] for i in sorted(ranks)]))


def _ring(r: int) -> tuple[list[int], list[int]]:
    """Successor and predecessor lists of the ring over all ranks 0..r-1."""
    succ = [*range(1, r), 0]
    return succ, succ[-2:] + succ[:-2]  # pred[i] = succ[i - 2], sharing succ's ints


def _stage(us: Sequence[int], key: list[int], labels: int) -> SignedPartition:
    """The canonical partition of the stage: the ranks of ``us`` with a key.

    One pass skips the ranks with key -1, collects the ground and groups the
    members by label, as :func:`~bpartitions.core._groups` groups a full set
    of keys.  The -1 test stays out of ``_groups``, which the map commands
    run on every line, where that branch cost it 5-10%.
    """
    by_label: list[list[int] | None] = [None] * labels
    ground, groups = [], []
    for t, k in zip(us, key):
        if k < 0:
            continue
        ground.append(t)
        group = by_label[k >> 1]
        if group is None:
            group = by_label[k >> 1] = []
            groups.append(group)
        group.append(t if k & 1 else -t)
    return SignedPartition(tuple(ground), _representatives(groups))


def _layers(
    ts: Sequence[int], blocks: Sequence[Sequence[int]], key: list[int], succ: list[int],
    pred: list[int], count: list[int], side: Side, rank: Callable,
) -> Iterator[tuple]:
    """The peel layers of the partition ``blocks`` of the sorted ground
    ``ts`` in the kernel's form ``(step, singletons, side_points, side,
    unlinked)``: two sets of ranks, and the ranks in the order they were
    unlinked.  The blocks may come in any order and either representative
    of each pair.  ``key``, ``succ`` and ``pred`` hold them on the full ring
    of the ground's ranks, ``count`` the size of each block and ``rank`` is
    :func:`_rank` of the ground.  A layer is unlinked, its
    keys set to -1 and its labels' counts lowered before it is yielded, so an
    exhausted generator leaves the core and its counts.  Only the first
    layer is a full scan: the next one holds only the last alive member of a
    label whose count fell to 1, found by one scan of its block, and the
    neighbour whose link now skips a removed run, which may be a side point.
    """
    r = len(ts)
    link, seam = (succ, pred) if side is Side.LEFT else (pred, succ)
    linked = key[1:] + key[:1] if side is Side.LEFT else key[-1:] + key[:-1]  # key[link[i]]
    points = {i for i in range(r) if key[i] == linked[i]}
    singles = {rank(abs(b[0])) for b in blocks if len(b) == 1}
    alive, step = r, 0
    while singles or points:
        if alive == 1:
            points = set()  # the lone element is recorded as a singleton only
        elif not points.isdisjoint(singles):
            stage = _clip(str(_stage(ts, key, len(count))))
            raise InternalInvariantError(f"singletons and side points overlap in {stage}")
        step += 1
        unlinked = [*singles, *points]
        seams, lone = [], []
        for u in unlinked:
            p, q = seam[u], link[u]
            link[p], seam[q] = q, p
            seams.append(p)  # its link now skips u
            label = key[u] >> 1
            key[u] = -1
            count[label] -= 1
            if count[label] == 1:
                lone.append(label)
        alive -= len(unlinked)
        yield step, singles, points, side, unlinked
        singles = set()
        for label in lone:
            if count[label] == 1:  # not emptied later in the layer
                for m in blocks[label]:
                    i = rank(abs(m))
                    if key[i] >= 0:
                        singles.add(i)
                        break
        points = set()
        for i in seams:
            if -1 < key[i] == key[link[i]]:  # -1: a removed rank
                points.add(i)


def _peel_layer(ts: Sequence[int], step: int, layer: tuple) -> PeelLayer:
    """The public form of a kernel layer, as step ``step``."""
    _, singles, points, side, _ = layer
    return PeelLayer(
        step, frozenset(map(ts.__getitem__, singles)), frozenset(map(ts.__getitem__, points)), side
    )


def peel_step(part: SignedPartition, side: Side, step: int = 1) -> tuple[PeelLayer, SignedPartition]:
    """Strip one layer of singletons and side points; return it and the remainder.

    Removal always acts on +x and -x together, so the remainder is again a
    valid symmetric partition without zero-block.
    """
    ts, blocks = part.ground, part.blocks
    rank = _rank(ts)
    key = _key(blocks, ts, rank)
    layer = next(_layers(ts, blocks, key, *_ring(len(ts)), [*map(len, blocks)], side, rank), None)
    if layer is None:
        raise AlreadyCoreError(f"{_clip(str(part))} has no singleton or adjacency pairs")
    return _peel_layer(ts, step, layer), _stage(ts, key, len(blocks))


def peel(part: SignedPartition, side: Side) -> PeelTrace:
    """Iterate peel steps down to the core.

    A core input yields an empty layer list.  Each step strictly shrinks the
    ground set, so at most r steps occur; the core may be empty.
    """
    ts, blocks = part.ground, part.blocks
    rank = _rank(ts)
    key = _key(blocks, ts, rank)
    count = [*map(len, blocks)]
    kernel = _layers(ts, blocks, key, *_ring(len(ts)), count, side, rank)
    layers = tuple(_peel_layer(ts, x[0], x) for x in kernel)
    return PeelTrace(layers, _stage(ts, key, len(count)), ts)


def _check(layer: PeelLayer, attach: Side | None, clash: bool) -> None:
    """Raise the first problem of ``layer`` patched on ``attach`` (None:
    un-peeled); ``clash``: it meets the stage or misses the ground."""
    if attach is layer.side:
        raise MalformedLayerError("attach side must be opposite the peel side")
    singletons, side_points = layer.singletons, layer.side_points
    if not (singletons or side_points):
        raise MalformedLayerError("layer carries no elements")
    if not singletons.isdisjoint(side_points):
        raise MalformedLayerError("layer singletons and side points overlap")
    if min(singletons | side_points) < 1:
        raise MalformedLayerError("layer elements must be positive")
    if clash:
        raise GroundMismatchError(
            "target ground is not the disjoint union of the stage ground and the layer"
        )


def patch_step(
    stage: SignedPartition, layer: PeelLayer, attach: Side, target_ground: Iterable[int]
) -> SignedPartition:
    """Patch one layer into ``stage`` with the two roles interchanged.

    The layer's singletons are absorbed as anchored runs, so they become side
    points of the result; the layer's side points come back as singleton
    pairs.  ``attach`` must be the side opposite the one the layer was peeled
    from.  This is :func:`patch` on a one-layer trace, which checks the layer
    and the stage it builds: a layer that does not swap its roles raises
    :class:`InternalInvariantError`.  One check comes first here: that the
    stage and the layer make up ``target_ground``.  :func:`patch` compares the
    ground only after the kernel has run, and the kernel could fail first on
    such a layer, so a miss raises the layer's first problem at once.
    """
    trace = PeelTrace((layer,), stage, target_ground)
    us = tuple(sorted({*stage.ground, *layer.singletons, *layer.side_points}))
    if us != trace.original_ground:
        _check(layer, attach, True)
    return patch(trace, attach)


def _anchor_missing(
    us: Sequence[int], runs: set[int], fresh: set[int], ahead: list[int], behind: list[int],
    side: Side,
) -> AnchorMissingError:
    """The error for the first run, in increasing order, whose anchor returns
    with the layer instead of being a stage element."""
    found = []
    for end in (i for i in runs if behind[i] in fresh):
        run = [end]
        while ahead[run[-1]] in runs:
            run.append(ahead[run[-1]])
        found.append((min(run), run[::-1] if side is Side.LEFT else run, behind[end]))
    _, run, anchor = min(found)
    return AnchorMissingError(
        f"run {_clip(str([us[i] for i in run]))} is anchored at {us[anchor]}, "
        f"which is absent from the stage"
    )


def _unfold(
    us: Sequence[int], key: list[int], succ: list[int], pred: list[int], count: list[int],
    layers: Iterable[tuple], attach: Side | None, stages: list[SignedPartition] | None = None,
) -> None:
    """Re-link ``layers`` into the stage on the ranks with a key, whose labels
    have the sizes ``count``, and append each stage it builds to ``stages``
    when given.  The keys and counts are left as those of the last stage.

    With ``attach`` given, each layer is patched in on that side with the two
    roles interchanged; with None it is un-peeled with its original roles.
    Each rank of a layer kept its own two links when the peel unlinked it, so
    re-linking in reverse unlink order restores every link (Knuth's dancing
    links): the ring is again the stage the peel removed the layer from, in
    increasing order, and a run is walked along it from its anchor.
    Re-linking in unlink order restores it too: on rings of 1 to 7 ranks,
    either order undoes every removal order of every nonempty set of ranks.
    So the order within a layer is free, and the reverse one is kept.

    Every stage must carry the layer's returning elements as its singleton
    set and the anchored ones as its side points on the attach side, or
    :class:`InternalInvariantError` is raised.  The singletons and the side
    points are kept as whole sets, set by a scan of the first stage when the
    first layer arrives, on that layer's side, so a trace with no layers
    costs no scan; the points are those of the last layer's side, and move
    to the other end of their pairs when a layer's side differs.  The sets
    are compared after every step but updated only at the layer, at the
    anchors, whose labels grow, and at the pairs of neighbours around a
    re-linked rank.  That is enough: an untouched element keeps its
    neighbours, and its label grows only when it shares an anchor's label,
    so it was no singleton before or after.  So its status cannot change,
    and the comparison is the one a fresh scan would make.
    """
    current = None
    for step, singletons, side_points, side, unlinked in layers:
        if attach is None:
            runs, fresh = side_points, singletons
        else:
            runs, fresh, side = singletons, side_points, attach
        # a point i pairs with behind[i]; a run is walked ahead from its anchor
        ahead, behind = (pred, succ) if side is Side.LEFT else (succ, pred)
        if current is None:  # the first stage, scanned on this layer's side
            points = {i for i, k in enumerate(key) if k >= 0 and k == key[behind[i]]}
            singles = set()
            if 1 in count:
                singles = {i for i, k in enumerate(key) if k >= 0 and count[k >> 1] == 1}
            size = len(key) - key.count(-1)
        elif side is not current:
            points = set(map(ahead.__getitem__, points))
        current = side
        for i in reversed(unlinked):
            succ[pred[i]] = pred[succ[i]] = i
        anchors = []
        if runs and not size:
            if fresh:
                raise MalformedLayerError(
                    "an empty stage accepts only an all-singleton or an all-side-point layer"
                )
            for i in runs:
                key[i] = 2 * len(count) + 1
            count.append(len(runs))
        elif runs:
            for i in runs:
                anchor = behind[i]
                if anchor in runs:
                    continue  # not the end of its run next to the anchor
                if anchor in fresh:
                    raise _anchor_missing(us, runs, fresh, ahead, behind, side)
                k = key[anchor]
                label = k >> 1
                while i in runs:
                    key[i] = k
                    count[label] += 1
                    i = ahead[i]
                anchors.append(anchor)
        for i in fresh:
            key[i] = 2 * len(count) + 1
            count.append(1)
        # an anchor's label has just absorbed a run, so it is no singleton
        singles.difference_update(anchors)
        for u in unlinked:  # the layer's runs and fresh elements
            k = key[u]
            if count[k >> 1] == 1:
                singles.add(u)
            else:
                singles.discard(u)
            # the pairs (t, u) and (u, behind[u]) around the re-linked u
            t = ahead[u]
            if key[t] == k:
                points.add(t)
            else:
                points.discard(t)
            if k == key[behind[u]]:
                points.add(u)
            else:
                points.discard(u)
        size += len(unlinked)
        if size == 1:
            # The lone element is singleton and side point at once.
            runs = fresh = runs | fresh
        if singles != fresh or points != runs:
            what = "un-peel" if attach is None else "patch"
            raise InternalInvariantError(
                f"{what} at layer {step} built a stage with singletons "
                f"{_elements(us, singles)} and side points {_elements(us, points)} instead of "
                f"{_elements(us, fresh)} / {_elements(us, runs)}: "
                f"{_clip(str(_stage(us, key, len(count))))}"
            )
        if stages is not None:
            stages.append(_stage(us, key, len(count)))


def _unfold_trace(
    trace: PeelTrace, attach: Side | None, stages: list[SignedPartition] | None = None
) -> tuple[tuple[int, ...], list[int], int]:
    """Run :func:`_unfold` from the core of ``trace``, appending its stages to
    ``stages`` when given, and return the universe, the final keys and a
    bound on their labels.  The universe is compared with the trace's
    original ground only after the kernel has run, so a layer's own problem
    is raised before a ground miss (:func:`patch_step` checks the ground
    first itself).

    Each element is unlinked from the full ring once, at the last layer in
    peel order that holds it, and a core element never; a layer's elements
    start with key -1, outside the stage.  Each layer is checked when the
    kernel reaches it, so a bad trace fails where a stage-by-stage patch
    would.
    """
    core = trace.core
    stage = set(core.ground)  # as each layer in patch order finds it
    order = []  # per layer in patch order: it, whether it meets the stage, its new elements
    for x in reversed(trace.layers):
        elements = x.singletons | x.side_points
        clash = not stage.isdisjoint(elements)
        order.append((x, clash, elements - stage if clash else elements))
        stage |= elements
    us = tuple(sorted(stage))
    rank = _rank(us)
    key, (succ, pred) = _key(core.blocks, us, rank), _ring(len(us))
    unlinked = [list(map(rank, new)) for _, _, new in order]
    for ranks in reversed(unlinked):
        for i in ranks:
            p, q = pred[i], succ[i]
            succ[p], pred[q] = q, p

    def checked() -> Iterator[tuple]:
        for (x, clash, _), ranks in zip(order, unlinked):
            _check(x, attach, clash)
            yield x.step, set(map(rank, x.singletons)), set(map(rank, x.side_points)), x.side, ranks

    count = [*map(len, core.blocks)]
    _unfold(us, key, succ, pred, count, checked(), attach, stages)
    if us != trace.original_ground:
        raise GroundMismatchError("trace layers do not rebuild the original ground")
    return us, key, len(count)


def patch_stages(trace: PeelTrace, attach: Side) -> tuple[SignedPartition, ...]:
    """All patch stages from the core up, each one checked.

    Returns k+1 partitions for a k-layer trace: the core first, then the
    stage produced by each layer in reverse peel order; the last entry is the
    rebuilt partition.  Every stage must carry the layer's side points as its
    singleton set and the layer's singletons as its side points on the attach
    side; a violation raises :class:`InternalInvariantError`.
    """
    stages = [trace.core]
    _unfold_trace(trace, attach, stages)
    return tuple(stages)


def patch(trace: PeelTrace, attach: Side) -> SignedPartition:
    """Fold every layer of ``trace`` back in; see :func:`patch_stages`.

    Only the result is built as a :class:`SignedPartition`; the stages below
    it are checked the same way but never materialised.
    """
    return _materialize(*_unfold_trace(trace, attach))


def trace_stages(trace: PeelTrace) -> tuple[SignedPartition, ...]:
    """Reconstruct the peel remainders recorded by a trace.

    The core is un-peeled layer by layer with the original roles: side points
    rejoin the block of their adjacency partner (their cyclic successor for a
    left-sided peel, predecessor for a right-sided one) and singletons come
    back as singleton blocks.  Index j of the result is the remainder after
    layer j; index 0 is the partition the trace was peeled from.
    """
    stages = [trace.core]
    _unfold_trace(trace, None, stages)
    return tuple(reversed(stages))


def _swap(
    ts: Sequence[int], blocks: Sequence[Sequence[int]], key: list[int], side: Side
) -> tuple[list[int], int]:
    """Peel the partition ``blocks`` of the ground ``ts`` = (1, ..., n) on
    ``side`` and patch it back on the other side, handing the peeled layers,
    keys, label counts and ring straight to the patch.  The blocks may come
    in any order and either representative of each pair; ``key`` is
    :func:`~bpartitions.core._key` of them, with every key set, and the
    kernel works on it in place.  Return the final keys on the ranks of
    ``ts`` and a bound on their labels.  A partition that is its own core
    takes the same path: it peels into no layers, and the patch hands its
    own keys back."""
    count, (succ, pred) = [*map(len, blocks)], _ring(len(ts))
    layers = list(_layers(ts, blocks, key, succ, pred, count, side, _PRECEDING))
    _unfold(ts, key, succ, pred, count, reversed(layers), side.opposite)
    return key, len(count)


def _image(part: SignedPartition, side: Side) -> tuple[tuple[int, ...], list[int], int]:
    """The ground of ``part``, which must be {1..n}, with the final keys of
    :func:`_swap` peeling it on ``side`` and a bound on their labels."""
    require_full_ground(part)
    ts, blocks = part.ground, part.blocks
    return (ts, *_swap(ts, blocks, _key(blocks, ts, _PRECEDING), side))


def psi(part: SignedPartition) -> SignedPartition:
    """Swap the two statistics: peel left points, patch back on the right.

    Defined on partitions with full ground {1..n}; the image has the input's
    adjacency count as its singleton count and vice versa.
    """
    return _materialize(*_image(part, Side.LEFT))


def psi_inverse(part: SignedPartition) -> SignedPartition:
    """Inverse of :func:`psi`: peel right points, patch back on the left."""
    return _materialize(*_image(part, Side.RIGHT))


def involution(part: SignedPartition) -> SignedPartition:
    """``complement(psi(part), n)``; applying it twice returns the input.

    Built from the keys of one :func:`psi` run, on the same path for a
    partition that is its own core: on {1..n} an element's rank is itself
    less one, so the mirror i -> n+1-i takes rank i to rank n-1-i, and since
    it keeps signs, the key at rank i moves there unchanged.  The mirrored
    keys are psi's keys reversed; a partition built from them in rank order
    is the canonical complement, with no second pass over psi's image.
    """
    ts, key, labels = _image(part, Side.LEFT)
    return _materialize(ts, key[::-1], labels)
