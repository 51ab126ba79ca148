"""The peel/patch machinery: traces, stages, the bijection, the involution."""

from __future__ import annotations

import hashlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from bpartitions import (
    AlreadyCoreError,
    AnchorMissingError,
    GroundMismatchError,
    InternalInvariantError,
    MalformedLayerError,
    NotFullGroundError,
    PartitionError,
    PeelLayer,
    PeelTrace,
    Side,
    adjacency_pairs,
    complement,
    for_each,
    involution,
    make_partition,
    patch,
    patch_stages,
    patch_step,
    peel,
    peel_step,
    psi,
    psi_inverse,
    statistics,
    trace_stages,
    validate,
)
from bpartitions.textio import parse_partition
from conftest import (
    BIG,
    BIG_IMAGE,
    BIG_MIRROR,
    BIG_MIRROR_IMAGE,
    CORE,
    MIRROR_CORE,
    PATCH_LEFT_ROWS,
    PATCH_RIGHT_ROWS,
    PEEL_LEFT_ROWS,
    PEEL_RIGHT_ROWS,
    nested_partitions,
    partitions,
)


def layer_sets(layer):
    return set(layer.singletons), set(layer.side_points)


class TestPeelStep:
    def test_first_left_step(self, big):
        layer, rest = peel_step(big, Side.LEFT)
        assert layer_sets(layer) == ({1, 2}, {5, 9, 11})
        assert str(rest) == "3,12 / 4,-7,10 / 6,-8"

    def test_second_left_step(self):
        part = parse_partition("3,12 / 4,-7,10 / 6,-8")
        layer, rest = peel_step(part, Side.LEFT, step=2)
        assert layer.step == 2
        assert layer_sets(layer) == (set(), {12})
        assert str(rest) == "3 / 4,-7,10 / 6,-8"

    def test_first_right_step(self, big_mirror):
        layer, rest = peel_step(big_mirror, Side.RIGHT)
        assert layer_sets(layer) == ({11, 12}, {2, 4, 8})
        assert str(rest) == "1,10 / 3,-6,9 / 5,-7"

    def test_core_raises(self):
        with pytest.raises(AlreadyCoreError):
            peel_step(make_partition([[1, -2]]), Side.LEFT)

    def test_core_message_is_bounded(self):
        # 1,-2 / 3,-4 / ... / 1999,-2000 is its own core; the message elides
        # the middle of its 4,000-odd characters
        core = make_partition([[i, -i - 1] for i in range(1, 2000, 2)])
        with pytest.raises(AlreadyCoreError) as info:
            peel_step(core, Side.LEFT)
        message = str(info.value)
        assert message.startswith("1,-2 / 3,-4") and " ... " in message
        assert message.endswith("1999,-2000 has no singleton or adjacency pairs")
        assert len(message) < 200


class TestPeel:
    def test_left_trace_rows(self, big):
        trace = peel(big, Side.LEFT)
        assert len(trace.layers) == 4
        assert str(trace.core) == CORE
        assert trace.original_ground == tuple(range(1, 13))
        stages = trace_stages(trace)
        assert stages[0] == big
        for step, singles, points, remainder in PEEL_LEFT_ROWS:
            layer = trace.layers[step - 1]
            assert layer.step == step
            assert layer.side is Side.LEFT
            assert layer_sets(layer) == (singles, points)
            assert str(stages[step]) == remainder

    def test_right_trace_rows(self, big_mirror):
        trace = peel(big_mirror, Side.RIGHT)
        assert str(trace.core) == MIRROR_CORE
        stages = trace_stages(trace)
        for step, singles, points, remainder in PEEL_RIGHT_ROWS:
            assert layer_sets(trace.layers[step - 1]) == (singles, points)
            assert str(stages[step]) == remainder

    def test_core_input_gives_empty_trace(self):
        part = make_partition([[1, -2]])
        trace = peel(part, Side.LEFT)
        assert trace.layers == ()
        assert trace.core == part

    def test_all_singletons_peel_in_one_step(self):
        trace = peel(make_partition([[1], [2]]), Side.LEFT)
        assert len(trace.layers) == 1
        assert layer_sets(trace.layers[0]) == ({1, 2}, set())
        assert not trace.core.blocks

    def test_empty_partition(self):
        trace = peel(make_partition([]), Side.LEFT)
        assert trace.layers == () and not trace.core.blocks


class TestPatchStep:
    def test_side_points_become_singletons(self):
        stage = parse_partition("4,-7 / 6,-8")
        layer = PeelLayer(4, frozenset(), frozenset({10}), Side.LEFT)
        out = patch_step(stage, layer, Side.RIGHT, (4, 6, 7, 8, 10))
        assert str(out) == "4,-7 / 6,-8 / 10"

    def test_run_attaches_to_cyclic_predecessor(self):
        stage = parse_partition("4,-7 / 6,-8 / 10")
        layer = PeelLayer(3, frozenset({3}), frozenset(), Side.LEFT)
        out = patch_step(stage, layer, Side.RIGHT, (3, 4, 6, 7, 8, 10))
        assert str(out) == "3,10 / 4,-7 / 6,-8"

    def test_run_attaches_to_cyclic_successor(self):
        stage = parse_partition("3 / 5,-7 / 6,-9")
        layer = PeelLayer(3, frozenset({10}), frozenset(), Side.RIGHT)
        out = patch_step(stage, layer, Side.LEFT, (3, 5, 6, 7, 9, 10))
        assert str(out) == "3,10 / 5,-7 / 6,-9"

    def test_target_ground_may_be_any_iterable(self):
        stage = parse_partition("4,-7 / 6,-8")
        layer = PeelLayer(4, frozenset(), frozenset({10}), Side.LEFT)
        out = patch_step(stage, layer, Side.RIGHT, [10, 8, 7, 6, 4])
        assert out == patch_step(stage, layer, Side.RIGHT, (4, 6, 7, 8, 10))
        assert out.ground == (4, 6, 7, 8, 10)

    def test_empty_stage_single_block_branch(self):
        layer = PeelLayer(1, frozenset({1, 2}), frozenset(), Side.LEFT)
        out = patch_step(make_partition([]), layer, Side.RIGHT, tuple(range(1, 3)))
        assert str(out) == "1,2"

    def test_empty_stage_all_singleton_branch(self):
        layer = PeelLayer(1, frozenset(), frozenset({1, 2, 3}), Side.LEFT)
        out = patch_step(make_partition([]), layer, Side.RIGHT, tuple(range(1, 4)))
        assert str(out) == "1 / 2 / 3"

    def test_ground_mismatch(self):
        layer = PeelLayer(1, frozenset({3}), frozenset(), Side.LEFT)
        with pytest.raises(GroundMismatchError):
            patch_step(parse_partition("4,-7"), layer, Side.RIGHT, (3, 4))

    def test_repeated_target_element_is_a_ground_mismatch(self):
        # the same set as stage ground plus layer, but 10 twice
        stage = parse_partition("4,-7 / 6,-8")
        layer = PeelLayer(4, frozenset(), frozenset({10}), Side.LEFT)
        with pytest.raises(GroundMismatchError, match="not the disjoint union"):
            patch_step(stage, layer, Side.RIGHT, (4, 6, 7, 8, 10, 10))

    def test_ground_mismatch_comes_before_the_kernel(self):
        # the kernel would raise AnchorMissingError on this layer
        layer = PeelLayer(1, frozenset({2}), frozenset({4}), Side.LEFT)
        with pytest.raises(GroundMismatchError, match="not the disjoint union"):
            patch_step(make_partition([[3]]), layer, Side.RIGHT, (2, 3, 4, 5))

    def test_attach_must_oppose_peel_side(self):
        layer = PeelLayer(1, frozenset({3}), frozenset(), Side.LEFT)
        with pytest.raises(MalformedLayerError):
            patch_step(parse_partition("4,-7"), layer, Side.LEFT, (3, 4, 7))

    def test_malformed_mixed_layer_on_empty_stage(self):
        layer = PeelLayer(1, frozenset({1}), frozenset({2}), Side.LEFT)
        with pytest.raises(MalformedLayerError):
            patch_step(make_partition([]), layer, Side.RIGHT, tuple(range(1, 3)))

    def test_empty_layer_rejected(self):
        layer = PeelLayer(1, frozenset(), frozenset(), Side.LEFT)
        with pytest.raises(MalformedLayerError):
            patch_step(parse_partition("1,-2"), layer, Side.RIGHT, tuple(range(1, 3)))

    def test_nonpositive_layer_elements_rejected(self):
        # -2 would return as a singleton of a stage whose ground is not a
        # ground of positives
        layer = PeelLayer(1, frozenset(), frozenset({-2}), Side.LEFT)
        with pytest.raises(MalformedLayerError, match="positive"):
            patch_step(parse_partition("1,-3"), layer, Side.RIGHT, (-2, 1, 3))

    def test_anchor_missing_in_corrupted_trace(self):
        # predecessor of the run {2} inside {2,3,4} is 4, which sits in the
        # layer's own side points rather than in the stage
        stage = make_partition([[3]])
        layer = PeelLayer(1, frozenset({2}), frozenset({4}), Side.LEFT)
        with pytest.raises(AnchorMissingError):
            patch_step(stage, layer, Side.RIGHT, (2, 3, 4))

    def test_matches_every_genuine_patch_stage(self):
        # n = 1..6, both sides: each step rebuilds the next stage of patch_stages
        for n in range(1, 7):
            parts = []
            for_each(n, parts.append)
            for part in parts:
                for side in Side:
                    trace = peel(part, side)
                    attach = side.opposite
                    stages = patch_stages(trace, attach)
                    for i, layer in enumerate(reversed(trace.layers)):
                        out = patch_step(stages[i], layer, attach, stages[i + 1].ground)
                        assert out == stages[i + 1]

    def test_a_step_that_breaks_the_swap_is_rejected(self):
        # patching {2} after 1 and 4 as a fresh singleton gives 1,2 / 3 / 4,
        # whose singletons are {3, 4}, not the layer's side points {4}
        layer = PeelLayer(1, frozenset({2}), frozenset({4}), Side.LEFT)
        with pytest.raises(InternalInvariantError, match="patch at layer 1"):
            patch_step(parse_partition("1 / 3"), layer, Side.RIGHT, tuple(range(1, 5)))


class TestPatch:
    def test_worked_example_stages(self, big):
        trace = peel(big, Side.LEFT)
        stages = patch_stages(trace, Side.RIGHT)
        assert len(stages) == 5
        for step, singles, points, before in PATCH_RIGHT_ROWS:
            layer = trace.layers[step - 1]
            assert layer_sets(layer) == (singles, points)
            assert str(stages[len(trace.layers) - step]) == before
        assert str(stages[-1]) == BIG_IMAGE
        assert patch(trace, Side.RIGHT) == stages[-1]

    def test_mirror_stages(self, big_mirror):
        trace = peel(big_mirror, Side.RIGHT)
        stages = patch_stages(trace, Side.LEFT)
        for step, singles, points, before in PATCH_LEFT_ROWS:
            assert layer_sets(trace.layers[step - 1]) == (singles, points)
            assert str(stages[len(trace.layers) - step]) == before
        assert str(stages[-1]) == BIG_MIRROR_IMAGE

    def test_stage_check_rejects_a_corrupted_trace(self):
        # 1 and 2 claim to be peeled singletons; patched back as one run
        # anchored at 3 they close the cycle, so 3 becomes a side point too,
        # and un-peeled as singletons they leave 3 a singleton as well
        layer = PeelLayer(1, frozenset({1, 2}), frozenset(), Side.LEFT)
        trace = PeelTrace((layer,), make_partition([[3]]), tuple(range(1, 4)))
        with pytest.raises(InternalInvariantError, match="patch at layer 1"):
            patch_stages(trace, Side.RIGHT)
        with pytest.raises(InternalInvariantError, match="un-peel at layer 1"):
            trace_stages(trace)

    def test_empty_trace_returns_core(self):
        part = make_partition([[1, -2]])
        trace = peel(part, Side.LEFT)
        assert patch(trace, Side.RIGHT) == part

    def test_trace_ground_may_be_any_iterable(self, big):
        t = peel(big, Side.LEFT)
        trace = PeelTrace(t.layers, t.core, list(reversed(t.original_ground)))
        assert trace.original_ground == t.original_ground
        assert patch(trace, Side.RIGHT) == psi(big)


class TestPsi:
    def test_worked_example(self, big):
        image = psi(big)
        assert str(image) == BIG_IMAGE
        a, b = statistics(big), statistics(image)
        assert (a.singletons, a.adjacencies) == (2, 3)
        assert (b.singletons, b.adjacencies) == (3, 2)

    def test_small_pair(self):
        singletons = make_partition([[1], [2]])
        block = make_partition([[1, 2]])
        assert psi(singletons) == block
        assert psi(block) == singletons

    def test_core_is_fixed_point(self):
        core = make_partition([[1, -2]])
        assert psi(core) == core
        assert psi_inverse(core) == core

    def test_inverse_of_worked_example(self, big):
        assert psi_inverse(parse_partition(BIG_IMAGE)) == big

    def test_mirror_inverse(self, big_mirror):
        assert str(psi_inverse(big_mirror)) == BIG_MIRROR_IMAGE

    def test_conjugation_identity(self, big):
        # complement(psi(x)) agrees with psi_inverse(complement(x)); complement
        # builds its blocks without the kernel's keys, so on all of V_0..V_7
        # this holds the kernel to code it does not share
        assert complement(psi(big), 12) == psi_inverse(complement(big, 12))
        for n in range(8):

            def check(part):
                assert psi_inverse(part) == complement(psi(complement(part, n)), n), str(part)

            for_each(n, check)

    def test_requires_full_ground(self):
        sparse = make_partition([[1], [3]])
        for fn in (psi, psi_inverse, involution):
            with pytest.raises(NotFullGroundError):
                fn(sparse)

    def test_empty_partition_fixed(self):
        empty = make_partition([])
        assert psi(empty) == empty

    def test_single_element(self):
        one = make_partition([[1]])
        assert psi(one) == one
        assert involution(one) == one


class TestWrapAroundRun:
    def test_run_spanning_the_cyclic_seam(self):
        # singletons {1,4} of {1..4} form one cyclic run [4, 1]; its anchor 3
        # lies in the negated block of {2,-3}, so the run joins with negative
        # orientation and the grown block renormalizes to 1,-2,3,4
        part = parse_partition("1 / 2,-3 / 4")
        trace = peel(part, Side.LEFT)
        assert layer_sets(trace.layers[0]) == ({1, 4}, set())
        assert str(trace.core) == "2,-3"
        image = psi(part)
        assert str(image) == "1,-2,3,4"
        st = statistics(image)
        assert (st.singletons, st.adjacencies) == (0, 2)
        assert psi_inverse(image) == part


class TestInvolution:
    def test_worked_example(self, big):
        assert str(involution(big)) == BIG_MIRROR_IMAGE

    def test_double_application(self, big):
        assert involution(involution(big)) == big


class TestExhaustiveSmall:
    @pytest.mark.parametrize("n", range(6))
    def test_round_trip_swap_and_involution(self, n):
        def check(part):
            st = statistics(part)
            image = psi(part)
            ist = statistics(image)
            assert (ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons)
            assert psi_inverse(image) == part
            assert psi(psi_inverse(part)) == part
            assert involution(involution(part)) == part

        for_each(n, check)


@settings(max_examples=80)
@given(partitions(max_n=14))
def test_sampled_larger_sizes(part):
    # past the exhaustive range: sampled statistic swap, round trip, involution
    st = statistics(part)
    image = psi(part)
    ist = statistics(image)
    assert (ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons)
    assert psi_inverse(image) == part
    assert involution(involution(part)) == part


@settings(max_examples=60)
@given(partitions(max_n=9, full_ground=False))
def test_general_ground_swap_and_round_trip(part):
    # The swap does not need a full ground; psi itself is just the full-ground
    # entry point for this composition.
    st = statistics(part)
    image = patch(peel(part, Side.LEFT), Side.RIGHT)
    ist = statistics(image)
    assert (ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons)
    assert patch(peel(image, Side.RIGHT), Side.LEFT) == part


@settings(max_examples=60)
@given(partitions(max_n=9, full_ground=False))
def test_trace_rebuilds_input_and_grounds_partition(part):
    trace = peel(part, Side.LEFT)
    stages = trace_stages(trace)
    assert stages[0] == part
    assert stages[-1] == trace.core
    covered = set(trace.core.ground)
    for layer in trace.layers:
        assert layer.singletons or layer.side_points
        assert not layer.singletons & covered
        assert not layer.side_points & covered
        covered |= layer.singletons | layer.side_points
    assert covered == set(trace.original_ground)


@settings(max_examples=30, deadline=None)
@given(st.one_of(partitions(max_n=300), nested_partitions(max_n=300)))
def test_kernel_at_scale(part):
    # far past the exhaustive range: the swap, both round trips, and the
    # stage-by-stage patch agreeing with psi
    st = statistics(part)
    image = psi(part)
    ist = statistics(image)
    assert (ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons)
    assert psi_inverse(image) == part
    assert involution(involution(part)) == part
    assert patch_stages(peel(part, Side.LEFT), Side.RIGHT)[-1] == image


def test_deep_family_peels_one_layer_per_element():
    # 1,-n / 2,n-1 / 3,n-2 / ... loses one element per peel layer on either
    # side, so this size is affordable only when a layer costs its own size
    n = 2000
    blocks = [[i, n + 1 - i] for i in range(2, n // 2 + 1)] + [[1, -n]]
    part = make_partition(blocks)
    st = statistics(part)
    for side in Side:
        trace = peel(part, side)
        assert len(trace.layers) == n - 2
        stages = patch_stages(trace, side.opposite)
        assert len(stages) == n - 1
        image = stages[-1]
        ist = statistics(image)
        assert (ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons)
        assert image == (psi if side is Side.LEFT else psi_inverse)(part)
    assert psi_inverse(psi(part)) == part
    assert psi(psi_inverse(part)) == part
    image = involution(part)
    ist = statistics(image)
    assert (ist.singletons, ist.adjacencies) == (st.adjacencies, st.singletons)
    assert involution(image) == part


def rescan(part, side):
    """Singletons and side points of ``part`` by a full rescan, independent of the kernel."""
    st = statistics(part)
    pairs = adjacency_pairs(part, st)
    points = {t for t, _ in pairs} if side is Side.LEFT else {u for _, u in pairs}
    return set(st.singleton_elements), points


def check_stages_by_rescan(part):
    # Each stage a patch or un-peel step builds must show the layer's
    # returning elements as its singletons and the anchored ones as its side
    # points on the attach side; a lone element counts as both.
    for side in Side:
        trace = peel(part, side)
        built = [
            (patch_stages(trace, side.opposite)[1:], reversed(trace.layers), side.opposite, True),
            (trace_stages(trace)[:-1], trace.layers, side, False),
        ]
        for stages, layers, attach, swapped in built:
            for stage, layer in zip(stages, layers):
                singles, points = set(layer.singletons), set(layer.side_points)
                if swapped:
                    singles, points = points, singles
                if len(stage.ground) == 1:
                    singles = points = singles | points
                assert rescan(stage, attach) == (singles, points), (str(part), side, layer.step)


@pytest.mark.parametrize("n", range(1, 8))
def test_every_stage_matches_a_full_rescan(n):
    for_each(n, check_stages_by_rescan)


def check_results_are_canonical(part):
    # The kernel builds its results without make_partition; they must be the
    # partitions make_partition builds from the same blocks, ground included.
    built = []
    for side in Side:
        trace = peel(part, side)
        stages = patch_stages(trace, side.opposite)
        remainders = trace_stages(trace)
        built += [trace.core, *stages, *remainders]
        built += [peel_step(rest, side)[1] for rest in remainders[:-1]]
        built += [
            patch_step(stage, layer, side.opposite, above.ground)
            for stage, layer, above in zip(stages, reversed(trace.layers), stages[1:])
        ]
    if not part.ground or part.ground[-1] == len(part.ground):
        built += [psi(part), psi_inverse(part)]
    for p in built:
        assert p == make_partition(p.blocks), (str(part), str(p))
        validate(p)


@pytest.mark.parametrize("n", range(8))
def test_kernel_results_are_canonical(n):
    for_each(n, check_results_are_canonical)


@settings(max_examples=30, deadline=None)
@given(nested_partitions(max_n=120))
def test_nested_kernel_results_are_canonical(part):
    check_results_are_canonical(part)


@settings(max_examples=30, deadline=None)
@given(nested_partitions(max_n=120))
def test_nested_stages_match_a_full_rescan(part):
    check_stages_by_rescan(part)


def _random_partition(rng, elements):
    blocks = []
    for t in elements:
        choice = rng.randrange(2 * len(blocks) + 1)
        if choice == 0:
            blocks.append([t])
        else:
            blocks[(choice - 1) // 2].append(t if choice % 2 else -t)
    return make_partition(blocks, elements)


def _random_ground(rng, size):
    return sorted(rng.sample(range(1, 2 * size + 1), size))


def _mirrored_partition(rng, ground):
    """Each element paired with its mirror on ``ground``, signed at random."""
    half = len(ground) // 2
    blocks = [[ground[i], rng.choice((1, -1)) * ground[-1 - i]] for i in range(half)]
    return make_partition(blocks + [[ground[half]]] * (len(ground) % 2))


def _corrupt(rng, trace):
    """``trace`` with one or two random corruptions (or none, now and then)."""
    layers = [[set(x.singletons), set(x.side_points), x.side] for x in trace.layers]
    core, ground = trace.core, list(trace.original_ground)
    for _ in range(rng.randrange(3)):
        kind = rng.randrange(8)
        if kind == 0 and layers:  # move an element between the two sets of a layer
            layer = rng.choice(layers)
            src, dst = (0, 1) if rng.random() < 0.5 else (1, 0)
            if layer[src]:
                t = rng.choice(sorted(layer[src]))
                layer[src].discard(t)
                layer[dst].add(t)
        elif kind == 1 and layers:  # drop an element from a layer
            layer = rng.choice(layers)
            which = layer[rng.randrange(2)]
            if which:
                which.discard(rng.choice(sorted(which)))
        elif kind == 2 and layers:  # add an element the trace already has
            rng.choice(layers)[rng.randrange(2)].add(rng.choice(ground or [1]))
        elif kind == 3 and layers:  # flip a layer's side
            layer = rng.choice(layers)
            layer[2] = layer[2].opposite
        elif kind == 4 and len(layers) > 1:  # swap two layers
            i, j = rng.sample(range(len(layers)), 2)
            layers[i], layers[j] = layers[j], layers[i]
        elif kind == 5:  # another core on the same ground
            core = _random_partition(rng, list(core.ground))
        elif kind == 6:  # drop or add an element of the original ground
            if ground and rng.random() < 0.5:
                ground.remove(rng.choice(ground))
            else:
                ground = sorted(set(ground) | {rng.randrange(1, 2 * len(ground) + 3)})
        elif kind == 7 and layers:  # move an element to another layer
            a, b = rng.choice(layers), rng.choice(layers)
            src = a[rng.randrange(2)]
            if src:
                t = rng.choice(sorted(src))
                src.discard(t)
                b[rng.randrange(2)].add(t)
    rebuilt = tuple(
        PeelLayer(i + 1, frozenset(s), frozenset(p), side) for i, (s, p, side) in enumerate(layers)
    )
    return PeelTrace(rebuilt, core, tuple(sorted(ground)))


def _fuzz_case(rng, case):
    """One (name, thunk) pair of a seeded corrupted-input case."""
    kind = case % 5
    if kind == 0:
        universe = _random_ground(rng, rng.randrange(1, 9))
        stage_elems = sorted(rng.sample(universe, rng.randrange(len(universe) + 1)))
        stage = _random_partition(rng, stage_elems)
        rest = [t for t in universe if t not in stage_elems]
        singles = {t for t in rest if rng.random() < 0.4}
        points = {t for t in rest if t not in singles and rng.random() < 0.6}
        if rng.random() < 0.2 and universe:
            (singles if rng.random() < 0.5 else points).add(rng.choice(universe))
        side = rng.choice(list(Side))
        layer = PeelLayer(rng.randrange(1, 4), frozenset(singles), frozenset(points), side)
        attach = side.opposite if rng.random() < 0.9 else side
        target = set(stage_elems) | singles | points
        if rng.random() < 0.15:
            target ^= {rng.choice(universe)}
        return "patch_step", lambda: str(patch_step(stage, layer, attach, tuple(sorted(target))))
    if kind == 4:
        part = _random_partition(rng, _random_ground(rng, rng.randrange(0, 9)))
        side, step = rng.choice(list(Side)), rng.randrange(1, 4)

        def one_step():
            layer, rest = peel_step(part, side, step)
            return f"{layer.step} {sorted(layer.singletons)} {sorted(layer.side_points)} {rest}"

        return "peel_step", one_step
    part = _random_partition(rng, _random_ground(rng, rng.randrange(1, 10)))
    side = rng.choice(list(Side))
    trace = _corrupt(rng, peel(part, side))
    attach = side.opposite if rng.random() < 0.9 else side
    if kind == 1:
        return "patch_stages", lambda: " | ".join(map(str, patch_stages(trace, attach)))
    if kind == 2:
        return "trace_stages", lambda: " | ".join(map(str, trace_stages(trace)))
    return "patch", lambda: str(patch(trace, attach))


def fuzz_outcomes(seed, cases, make_case=_fuzz_case):
    rng = random.Random(seed)
    outcomes = []
    for case in range(cases):
        name, thunk = make_case(rng, case)
        try:
            outcomes.append(f"{name} ok {thunk()}")
        except (PartitionError, InternalInvariantError) as exc:
            outcomes.append(f"{name} {type(exc).__name__}: {exc}")
    return outcomes


# Recorded from the earlier full-rescan kernel: the outcomes of the 20,000
# cases of seed 7, counted per call and outcome, and a digest of every line.
# Any change to an exception type, a message or a result shows here.
FUZZ_COUNTS = {
    "patch AnchorMissingError": 50,
    "patch GroundMismatchError": 539,
    "patch InternalInvariantError": 251,
    "patch MalformedLayerError": 938,
    "patch ok": 2222,
    "patch_stages AnchorMissingError": 42,
    "patch_stages GroundMismatchError": 539,
    "patch_stages InternalInvariantError": 250,
    "patch_stages MalformedLayerError": 951,
    "patch_stages ok": 2218,
    "patch_step AnchorMissingError": 298,
    "patch_step GroundMismatchError": 722,
    "patch_step InternalInvariantError": 801,
    "patch_step MalformedLayerError": 1636,
    "patch_step ok": 543,
    "peel_step AlreadyCoreError": 774,
    "peel_step ok": 3226,
    "trace_stages AnchorMissingError": 98,
    "trace_stages GroundMismatchError": 659,
    "trace_stages InternalInvariantError": 338,
    "trace_stages MalformedLayerError": 263,
    "trace_stages ok": 2642,
}
FUZZ_DIGEST = "4b0a52b6f018dfc0f79a61e7d8e6fdeca5c72f8eb83d96e68cee7860b2a365e1"


def _outcome_counts(outcomes):
    return Counter(" ".join(line.split(" ", 2)[:2]).rstrip(":") for line in outcomes)


def test_corrupted_layers_and_traces_keep_their_errors():
    outcomes = fuzz_outcomes(7, 20_000)
    assert _outcome_counts(outcomes) == FUZZ_COUNTS
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == FUZZ_DIGEST


def _large_fuzz_case(rng, case):
    """One (name, thunk) pair of a seeded corrupted trace on 10 to 20 elements.

    Half the partitions are random, so a layer has several runs and some
    cross the seam; the other half pair each element with its mirror on the
    ground, with random signs, so they peel into many layers.
    """
    ground = _random_ground(rng, rng.randrange(10, 21))
    if rng.random() < 0.5:
        part = _random_partition(rng, ground)
    else:
        part = _mirrored_partition(rng, ground)
    side = rng.choice(list(Side))
    trace = _corrupt(rng, peel(part, side))
    attach = side.opposite if rng.random() < 0.9 else side
    kind = case % 4
    if kind == 0 and trace.layers:
        # the layer nearest the core, patched into the (possibly corrupted) core
        layer = trace.layers[-1]
        target = set(trace.core.ground) | layer.singletons | layer.side_points
        if rng.random() < 0.15:
            target ^= {rng.choice(ground)}
        return "patch_step", lambda: str(patch_step(trace.core, layer, attach, target))
    if kind == 1:
        return "patch_stages", lambda: " | ".join(map(str, patch_stages(trace, attach)))
    if kind == 2:
        return "trace_stages", lambda: " | ".join(map(str, trace_stages(trace)))
    return "patch", lambda: str(patch(trace, attach))


# Recorded from the kernel that merged each layer into the stage's ground and
# found run anchors by bisection, before the position-indexed kernel: the
# outcomes of the 4,000 cases of seed 11.
LARGE_FUZZ_COUNTS = {
    "patch AnchorMissingError": 8,
    "patch GroundMismatchError": 129,
    "patch InternalInvariantError": 152,
    "patch MalformedLayerError": 199,
    "patch ok": 593,
    "patch_stages AnchorMissingError": 16,
    "patch_stages GroundMismatchError": 165,
    "patch_stages InternalInvariantError": 118,
    "patch_stages MalformedLayerError": 207,
    "patch_stages ok": 494,
    "patch_step AnchorMissingError": 6,
    "patch_step GroundMismatchError": 169,
    "patch_step InternalInvariantError": 67,
    "patch_step MalformedLayerError": 168,
    "patch_step ok": 509,
    "trace_stages AnchorMissingError": 21,
    "trace_stages GroundMismatchError": 176,
    "trace_stages InternalInvariantError": 201,
    "trace_stages MalformedLayerError": 51,
    "trace_stages ok": 551,
}
LARGE_FUZZ_DIGEST = "214acf811a8605c0627407f85413d14f8f1228fa255fe2085f680f44cb2d8e5d"


def test_corrupted_traces_on_larger_grounds_keep_their_errors():
    outcomes = fuzz_outcomes(11, 4_000, _large_fuzz_case)
    assert _outcome_counts(outcomes) == LARGE_FUZZ_COUNTS
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == LARGE_FUZZ_DIGEST


def test_a_layer_whose_sets_overlap_is_unlinked_once():
    # Layer 1 of this right peel of 1 / 2 / 3,4 holds 1 both as a singleton
    # and as a side point.  Layer 2 is patched first, on the ring with 1
    # unlinked once, so it passes, and layer 1 is rejected when reached.
    right = Side.RIGHT
    layers = (
        PeelLayer(1, frozenset({1, 2}), frozenset({1, 4}), right),
        PeelLayer(2, frozenset({3}), frozenset(), right),
    )
    trace = PeelTrace(layers, make_partition([]), (1, 2, 3, 4))
    for run in (lambda: patch_stages(trace, Side.LEFT), lambda: trace_stages(trace)):
        with pytest.raises(MalformedLayerError, match="overlap"):
            run()


def test_sparse_ground_stays_cheap():
    # Every table of the kernel is indexed by rank, never by element value,
    # so a ground near 10**18 costs what a ground near 1 costs.
    big = 10**18
    rng = random.Random(3)
    grounds = [
        [big + 3 * i for i in range(13)],
        [1, 2, 5, 9, big - 1, big, big + 1, 2 * big, 3 * big + 7, 5 * big, 8 * big, 9 * big],
    ]
    tracemalloc.start()
    try:
        for ground in grounds:
            for part in (_random_partition(rng, ground), _mirrored_partition(rng, ground)):
                # peel, peel_step, patch_step, patch_stages and trace_stages on both sides
                check_results_are_canonical(part)
                image = patch(peel(part, Side.LEFT), Side.RIGHT)
                assert image == make_partition(image.blocks)
                assert patch(peel(image, Side.RIGHT), Side.LEFT) == part
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def _shallow_partition(rng, n, density):
    """A random partition of {1..n}: each element continues its predecessor's
    signed block with chance ``density``, so makes an adjacency, and
    otherwise starts a block or joins a random one."""
    blocks, where = [], {}
    for i in range(1, n + 1):
        u = rng.random()
        if i > 1 and u < density:
            b, sign = where[i - 1]
        elif not blocks or u < density + (1 - density) * 0.3:
            blocks.append([])
            b, sign = len(blocks) - 1, 1
        else:
            b, sign = rng.randrange(len(blocks)), rng.choice((1, -1))
        blocks[b].append(sign * i)
        where[i] = (b, sign)
    return make_partition(blocks)


def test_error_messages_on_large_inputs_are_bounded():
    # One element moved between the two sets of a layer of a 994-element
    # trace: the messages name the layer, but elide the middle of each set,
    # run and partition they print.
    part = _shallow_partition(random.Random(3), 994, 0.3)
    messages = set()
    for side in Side:
        trace = peel(part, side)
        for j, x in enumerate(trace.layers):
            for moving, other in ((x.singletons, x.side_points), (x.side_points, x.singletons)):
                if not moving:
                    continue
                t = sorted(moving)[len(moving) // 2]
                sets = (moving - {t}, other | {t})
                if moving is x.side_points:
                    sets = sets[::-1]
                layers = list(trace.layers)
                layers[j] = PeelLayer(x.step, *sets, x.side)
                bad = PeelTrace(tuple(layers), trace.core, trace.original_ground)
                for run in (
                    lambda: patch(bad, side.opposite),
                    lambda: patch_stages(bad, side.opposite),
                    lambda: trace_stages(bad),
                ):
                    try:
                        run()
                    except (PartitionError, InternalInvariantError) as exc:
                        messages.add((type(exc).__name__, str(exc)))
    # a run of 998 elements anchored at a returning element
    layer = PeelLayer(1, frozenset(range(1, 999)), frozenset({1000}), Side.LEFT)
    with pytest.raises(AnchorMissingError) as info:
        patch_step(make_partition([[999]]), layer, Side.RIGHT, range(1, 1001))
    messages.add(("AnchorMissingError", str(info.value)))
    assert {name for name, _ in messages} >= {"InternalInvariantError", "AnchorMissingError"}
    for name, message in messages:
        assert len(message) < 600, message
        if name == "InternalInvariantError":
            assert " ... " in message and "at layer" in message


def _deep_family(n):
    """1,-n / 2,n-1 / 3,n-2 / ...: one element per peel layer."""
    blocks = [[i, n + 1 - i] for i in range(2, n // 2 + 1)]
    if n % 2:
        blocks.append([(n + 1) // 2])
    if n > 1:
        blocks.append([1, -n])
    return make_partition(blocks)


def _nested_family(rng, n):
    """i paired with n+1-i, each pair signed at random: many peel layers."""
    blocks = [[i, rng.choice((1, -1)) * (n + 1 - i)] for i in range(1, n // 2 + 1)]
    if n % 2:
        blocks.append([(n + 1) // 2])
    return make_partition(blocks)


def _spread(part):
    """``part`` moved to a sparse ground by the increasing map t -> 3t + 10**12."""
    return make_partition(
        [[(3 * abs(m) + 10**12) * (1 if m > 0 else -1) for m in b] for b in part.blocks]
    )


def test_trace_and_map_routes_agree_at_batch_sizes():
    # psi and psi_inverse patch their own peel on the full ground, where an
    # element's rank is itself less one; patch(peel(...)) patches a public
    # trace on a universe it rebuilds from the core and the layers, and on a
    # sparse ground looks each rank up.  The routes must build the same image
    # at the sizes and adjacency densities of the map benchmark's batch, and
    # on the deep family.
    rng = random.Random(15)
    sizes = [1, 2, 3, 8, 21, 55, 144, 377, 610, 1000]
    parts = [_shallow_partition(rng, n, d) for n in sizes for d in (0.0, 0.1, 0.25, 0.4, 0.5)]
    parts += [_deep_family(n) for n in (150, 169, 1000)]
    for part in parts:
        image, back = psi(part), psi_inverse(part)
        sparse = _spread(part)
        assert image == patch(peel(part, Side.LEFT), Side.RIGHT)
        assert back == patch(peel(part, Side.RIGHT), Side.LEFT)
        assert patch(peel(sparse, Side.LEFT), Side.RIGHT) == _spread(image)
        assert patch(peel(sparse, Side.RIGHT), Side.LEFT) == _spread(back)
        assert psi_inverse(image) == part
        assert psi(back) == part


def check_involution_is_the_composition(part):
    # involution reads the mirror off psi's final keys instead of running
    # complement on psi's image; it must be that composition
    assert involution(part) == complement(psi(part), len(part.ground)), str(part)


@pytest.mark.parametrize("n", range(8))
def test_involution_is_complement_of_psi(n):
    for_each(n, check_involution_is_the_composition)


def test_involution_is_complement_of_psi_at_batch_sizes():
    rng = random.Random(18)
    sizes = [1, 2, 3, 8, 21, 55, 144, 377, 610, 1000]
    parts = [_shallow_partition(rng, n, d) for n in sizes for d in (0.0, 0.1, 0.25, 0.4, 0.5)]
    parts += [_deep_family(n) for n in (40, 160, 400)]
    for part in parts:
        check_involution_is_the_composition(part)


def _mapped_text(part):
    """The text of every map and of the stages on both sides, for one input."""
    n = len(part.ground)
    images = (psi(part), psi_inverse(part), involution(part), complement(part, n))
    lines = [" ; ".join(map(str, images))]
    for side in Side:
        trace = peel(part, side)
        lines.append(" | ".join(map(str, patch_stages(trace, side.opposite))))
        lines.append(" | ".join(map(str, trace_stages(trace))))
    return "\n".join(lines) + "\n"


# Recorded from the kernel that built a PeelLayer per layer inside psi and a
# complement through make_partition: the text of psi, psi_inverse,
# involution, complement and both sides' patch_stages and trace_stages over
# V_0..V_7, then the deep and nested families below.
MAPPED_DIGEST = "ce0660407d3f89e50065ac9eef3c4ef0c5d11a1dc9c048ce02fee9768a7fecb9"


def test_mapped_text_is_pinned():
    digest = hashlib.sha256()
    for n in range(8):
        for_each(n, lambda part: digest.update(_mapped_text(part).encode()))
    rng = random.Random(12)
    for n in [*range(13), 40, 80, 120, 160, 200]:
        for part in (_deep_family(n), _nested_family(rng, n)):
            digest.update(_mapped_text(part).encode())
    assert digest.hexdigest() == MAPPED_DIGEST
