"""Text round trips, parse errors with positions, and trace goldens."""

from __future__ import annotations

import json

import pytest
from hypothesis import given

from bpartitions import (
    GroundMismatchError,
    Side,
    ZeroBlockError,
    for_each,
    make_partition,
    peel,
)
from bpartitions.textio import (
    ParseError,
    format_partition,
    format_patch_stages,
    format_trace,
    parse_partition,
)
from conftest import BIG, partitions


class TestFormat:
    def test_worked_example(self, big):
        assert format_partition(big) == BIG

    def test_empty(self):
        assert format_partition(make_partition([])) == "()"

    def test_single_block(self):
        assert format_partition(make_partition([[4, -7]])) == "4,-7"


class TestParse:
    def test_representative_normalization(self):
        assert str(parse_partition("-4,7 / 6,-8")) == "4,-7 / 6,-8"

    def test_unicode_minus(self):
        assert str(parse_partition("−4,7 / 6,−8")) == "4,-7 / 6,-8"

    def test_whitespace_tolerance(self):
        assert str(parse_partition("  1 , 2  /  3  ")) == "1,2 / 3"

    def test_empty_literal(self):
        assert parse_partition("()") == make_partition([])
        assert parse_partition("  ( )  ").is_empty

    def test_zero_block(self):
        with pytest.raises(ZeroBlockError):
            parse_partition("1,-1")

    def test_forced_ground(self):
        part = parse_partition("1,2", tuple(range(1, 3)))
        assert len(part.ground) == 2
        with pytest.raises(GroundMismatchError):
            parse_partition("1,2", tuple(range(1, 4)))
        with pytest.raises(GroundMismatchError):
            parse_partition("()", tuple(range(1, 2)))

    @pytest.mark.parametrize(
        "text,position",
        [
            ("", 0),
            ("1,,2", 2),
            ("1 2", 2),
            ("1,", 2),
            ("/1", 0),
            ("1,-", 2),
            ("0", 0),
            ("() junk", 3),
            ("1;2", 1),
        ],
    )
    def test_syntax_errors_report_position(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_partition(text)
        assert err.value.position == position

    def test_round_trip_exhaustive_small(self):
        def check(part):
            assert parse_partition(format_partition(part)) == part

        for n in range(6):
            for_each(n, check)


@given(partitions(max_n=9, full_ground=False))
def test_round_trip_random(part):
    assert parse_partition(format_partition(part)) == part


TRACE_TABLE = """\
j | S_j | L_j    | remainder
1 | 1,2 | 5,9,11 | 3,12 / 4,-7,10 / 6,-8
2 | -   | 12     | 3 / 4,-7,10 / 6,-8
3 | 3   | -      | 4,-7,10 / 6,-8
4 | -   | 10     | 4,-7 / 6,-8
core: 4,-7 / 6,-8"""

PATCH_TABLE = """\
j | S_j | L_j    | stage
4 | -   | 10     | 4,-7 / 6,-8
3 | 3   | -      | 4,-7 / 6,-8 / 10
2 | -   | 12     | 3,10 / 4,-7 / 6,-8
1 | 1,2 | 5,9,11 | 3,10 / 4,-7 / 6,-8 / 12
result: 1,2,12 / 3,10 / 4,-7 / 5 / 6,-8 / 9 / 11"""

TRACE_RECORDS = [
    {"step": 1, "singletons": [1, 2], "side_points": [5, 9, 11], "side": "left",
     "remainder": "3,12 / 4,-7,10 / 6,-8"},
    {"step": 2, "singletons": [], "side_points": [12], "side": "left",
     "remainder": "3 / 4,-7,10 / 6,-8"},
    {"step": 3, "singletons": [3], "side_points": [], "side": "left",
     "remainder": "4,-7,10 / 6,-8"},
    {"step": 4, "singletons": [], "side_points": [10], "side": "left",
     "remainder": "4,-7 / 6,-8"},
    {"core": "4,-7 / 6,-8"},
]


class TestTraceRendering:
    def test_table_golden(self, big):
        assert format_trace(peel(big, Side.LEFT), "table") == TRACE_TABLE

    def test_patch_table_golden(self, big):
        trace = peel(big, Side.LEFT)
        assert format_patch_stages(trace, Side.RIGHT, "table") == PATCH_TABLE

    def test_records_golden(self, big):
        lines = format_trace(peel(big, Side.LEFT), "records").splitlines()
        assert [json.loads(line) for line in lines] == TRACE_RECORDS
        # stable field order, not just stable content
        assert lines[0].startswith('{"step": 1, "singletons": [1, 2], "side_points"')

    def test_right_side_header(self, big_mirror):
        out = format_trace(peel(big_mirror, Side.RIGHT), "table")
        assert out.splitlines()[0].split("|")[2].strip() == "R_j"

    def test_patch_records_terminal_result(self, big):
        trace = peel(big, Side.LEFT)
        lines = format_patch_stages(trace, Side.RIGHT, "records").splitlines()
        assert json.loads(lines[-1]) == {"result": "1,2,12 / 3,10 / 4,-7 / 5 / 6,-8 / 9 / 11"}

    def test_empty_trace_core_only(self):
        core = make_partition([[1, -2]])
        trace = peel(core, Side.LEFT)
        assert format_trace(trace, "table") == "core: 1,-2"
        records = format_trace(trace, "records").splitlines()
        assert records == ['{"core": "1,-2"}']
        assert format_patch_stages(trace, Side.RIGHT, "table") == "result: 1,-2"

    def test_unknown_mode(self, big):
        with pytest.raises(ValueError):
            format_trace(peel(big, Side.LEFT), "csv")
