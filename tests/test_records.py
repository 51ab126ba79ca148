"""The four frozen records behave as the dataclasses they are declared as.

Each defines its own ``__init__``, which stores through the slots; the rest
(``__eq__``, ``__hash__``, ``__repr__``, freezing, pickling, ``replace``) is
still generated by the decorator, and must treat the records as before.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from bpartitions.core import SignedPartition, Statistics
from bpartitions.peelpatch import PeelLayer, PeelTrace, Side

CORE = SignedPartition((3,), ((3,),))
LAYER = PeelLayer(1, frozenset({2}), frozenset({1}), Side.LEFT)

RECORDS = [
    (SignedPartition, {"ground": (1, 2, 3), "blocks": ((1, -3), (2,))}),
    (
        Statistics,
        {"singletons": 1, "adjacencies": 0, "singleton_elements": (2,), "adjacency_positions": ()},
    ),
    (
        PeelLayer,
        {
            "step": 2,
            "singletons": frozenset({4}),
            "side_points": frozenset({1, 5}),
            "side": Side.RIGHT,
        },
    ),
    (PeelTrace, {"layers": (LAYER,), "core": CORE, "original_ground": (1, 2, 3)}),
]
IDS = [cls.__name__ for cls, _ in RECORDS]


@pytest.mark.parametrize("cls, values", RECORDS, ids=IDS)
def test_a_record_keeps_its_dataclass_behaviour(cls, values):
    record = cls(**values)
    names = [f.name for f in dataclasses.fields(cls)]
    assert names == list(values)
    assert [getattr(record, name) for name in names] == list(values.values())
    assert not hasattr(record, "__dict__")
    with pytest.raises(TypeError):
        cls()

    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, values[name])

    twin = cls(*values.values())
    assert twin is not record and twin == record and hash(twin) == hash(record)
    shown = ", ".join(f"{name}={value!r}" for name, value in values.items())
    assert repr(record) == f"{cls.__name__}({shown})"

    first = names[0]
    other = dataclasses.replace(record, **{first: values[names[-1]]})
    assert getattr(other, first) == values[names[-1]] and other != record
    assert [getattr(other, name) for name in names[1:]] == list(values.values())[1:]
    assert dataclasses.replace(record) == record

    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(record, protocol))
        assert type(copy) is cls and copy == record and hash(copy) == hash(record)


def test_a_trace_stores_its_original_ground_sorted():
    for ground in ((3, 1, 2), [2, 3, 1], iter((3, 2, 1))):
        assert PeelTrace((LAYER,), CORE, ground).original_ground == (1, 2, 3)
    trace = PeelTrace(layers=(LAYER,), core=CORE, original_ground=(3, 1, 2))
    assert trace == PeelTrace((LAYER,), CORE, (1, 2, 3))
    assert dataclasses.replace(trace, original_ground=(2, 1, 3)).original_ground == (1, 2, 3)
    assert pickle.loads(pickle.dumps(trace)).original_ground == (1, 2, 3)
