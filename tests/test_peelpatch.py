"""The peel/patch machinery: traces, stages, the bijection, the involution."""

from __future__ import annotations

import hashlib
import random
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
        assert trace.core.is_empty

    def test_empty_partition(self):
        trace = peel(make_partition([]), Side.LEFT)
        assert trace.layers == () and trace.core.is_empty


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
        # complement(psi(x)) agrees with psi_inverse(complement(x))
        assert complement(psi(big), 12) == psi_inverse(complement(big, 12))

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


def fuzz_outcomes(seed, cases):
    rng = random.Random(seed)
    outcomes = []
    for case in range(cases):
        name, thunk = _fuzz_case(rng, case)
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


def test_corrupted_layers_and_traces_keep_their_errors():
    outcomes = fuzz_outcomes(7, 20_000)
    counts = Counter(" ".join(line.split(" ", 2)[:2]).rstrip(":") for line in outcomes)
    assert counts == FUZZ_COUNTS
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == FUZZ_DIGEST
