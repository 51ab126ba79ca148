"""Text round trips, parse errors with positions, and trace goldens."""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter

import pytest
from hypothesis import given

from bpartitions import textio
from bpartitions import (
    GroundMismatchError,
    PartitionError,
    Side,
    ZeroBlockError,
    for_each,
    make_partition,
    peel,
)
from bpartitions.textio import (
    ParseError,
    format_patch_stages,
    format_trace,
    parse_partition,
)
from conftest import BIG, partitions


class TestFormat:
    def test_worked_example(self, big):
        assert str(big) == BIG

    def test_empty(self):
        assert str(make_partition([])) == "()"

    def test_single_block(self):
        assert str(make_partition([[4, -7]])) == "4,-7"


NINES = "9" * 5000

# (text, offset, message): the first problem from the left is the one reported
SYNTAX_ERRORS = [
    ("", 0, "expected an element"),
    ("1,,2", 2, "expected an element"),
    ("1 2", 2, "unexpected character '2'"),
    ("1,", 2, "expected an element"),
    ("/1", 0, "expected an element"),
    ("1,-", 2, "expected an element"),
    ("0", 0, "elements must be nonzero"),
    ("() junk", 3, "trailing text after '()'"),
    ("1;2", 1, "unexpected character ';'"),
    ("1, /2", 3, "expected an element"),
    ("1,0", 2, "elements must be nonzero"),
    ("-0", 0, "elements must be nonzero"),
    ("0," + NINES, 0, "elements must be nonzero"),
    ("1," + NINES, 2, "element has too many digits"),
    ("1 x", 2, "unexpected character 'x'"),
    ("1//2", 2, "expected an element"),
    ("\x1e", 1, "expected an element"),
    ("( 1", 2, "expected ')'"),
]


class TestParse:
    def test_representative_normalization(self):
        assert str(parse_partition("-4,7 / 6,-8")) == "4,-7 / 6,-8"

    def test_unicode_minus(self):
        assert str(parse_partition("−4,7 / 6,−8")) == "4,-7 / 6,-8"

    def test_whitespace_tolerance(self):
        assert str(parse_partition("  1 , 2  /  3  ")) == "1,2 / 3"

    def test_empty_literal(self):
        assert parse_partition("()") == make_partition([])
        assert not parse_partition("  ( )  ").blocks

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

    def test_separators_are_stripped_of_any_whitespace(self):
        # \s and str.isspace() accept \x1c-\x1f, which int() does not strip
        assert str(parse_partition("1\x1c/\x1f2")) == "1 / 2"

    @pytest.mark.parametrize(
        "text,position,message",
        SYNTAX_ERRORS,
        ids=[f"{text[:12]}...{len(text)}" if len(text) > 40 else f"{text}-{position}"
             for text, position, _ in SYNTAX_ERRORS],
    )
    def test_syntax_errors_report_position(self, text, position, message):
        with pytest.raises(ParseError) as err:
            parse_partition(text)
        assert err.value.position == position
        assert str(err.value) == f"{message} (at offset {position})"

    def test_round_trip_exhaustive_small(self):
        def check(part):
            assert parse_partition(str(part)) == part

        for n in range(6):
            for_each(n, check)


@given(partitions(max_n=9, full_ground=False))
def test_round_trip_random(part):
    assert parse_partition(str(part)) == part


_SPACES = " \t\n\x1c\x1d\x1e\x1f\u00a0\u3000"
_ARABIC_INDIC = "".join(chr(0x660 + d) for d in range(10))
_FULL = _SPACES + ",/-()x+_\u2212" + "0123456789" + _ARABIC_INDIC
# Random strings draw from one of three alphabets: the grammar's own
# characters, every kind of whitespace with separators, and the full set.
_ALPHABETS = ("0123456789,/- ", _SPACES + "123,/", _FULL)


def _fuzz_element(rng):
    if rng.random() < 0.01:
        return rng.choice("0123456789") + "".join(rng.choices("0123456789", k=4999))
    digits = "0123456789" if rng.random() < 0.8 else _ARABIC_INDIC
    value = str(rng.randrange(13)).translate(str.maketrans("0123456789", digits))
    return rng.choice(("", "", "-", "\u2212")) + value


def _fuzz_text(rng, case):
    """One seeded input line: random characters, or a line of blocks with a
    few random edits."""
    kind = case % 4
    if kind < 3:
        return "".join(rng.choices(_ALPHABETS[kind], k=rng.randrange(16)))
    if rng.random() < 0.05:
        return "".join(rng.choices(_SPACES, k=rng.randrange(3))).join("( )")

    def space():
        return "".join(rng.choices(_SPACES, k=rng.randrange(3))) if rng.random() < 0.3 else ""

    blocks = [
        ",".join(space() + _fuzz_element(rng) + space() for _ in range(rng.randrange(1, 4)))
        for _ in range(rng.randrange(1, 5))
    ]
    chars = list(rng.choice(("/", " / ")).join(blocks))
    for _ in range(rng.choice((0, 0, 1, 2))):
        at = rng.randrange(len(chars) + 1)
        edit = rng.randrange(3)
        if edit == 0:
            chars.insert(at, rng.choice(_FULL))
        elif at < len(chars):
            if edit == 1:
                del chars[at]
            else:
                chars[at] = rng.choice(_FULL)
    return "".join(chars)


def text_fuzz_outcomes(seed, cases):
    rng = random.Random(seed)
    outcomes = []
    for case in range(cases):
        text = _fuzz_text(rng, case)
        ground = tuple(range(1, rng.randrange(8))) if rng.random() < 0.1 else None
        try:
            outcomes.append(f"ok {parse_partition(text, ground)}")
        except PartitionError as exc:
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


# Recorded from the character-by-character scanner: the outcomes of the
# 20,000 strings of seed 11, counted by outcome, and a digest of every line.
# The digest was re-recorded when messages began to name an element of ten
# or more digits by its bit length; that changed six GroundMismatchError
# lines and nothing else.
TEXT_FUZZ_COUNTS = {
    "DuplicateElementError": 867,
    "GroundMismatchError": 473,
    "ParseError": 14402,
    "ZeroBlockError": 230,
    "ok": 4028,
}
TEXT_FUZZ_DIGEST = "c875c717ac7683e9c460e57b7cd6b9ad318b5f3c14b9029736f3573be6caab95"


def test_parse_outcomes_are_pinned():
    outcomes = text_fuzz_outcomes(11, 20_000)
    counts = Counter(line.split(":", 1)[0] if ":" in line else "ok" for line in outcomes)
    assert counts == TEXT_FUZZ_COUNTS
    assert hashlib.sha256("\n".join(outcomes).encode()).hexdigest() == TEXT_FUZZ_DIGEST


def _outcome(text, ground=None):
    try:
        return "ok", parse_partition(text, ground)
    except PartitionError as exc:
        return type(exc).__name__, str(exc)


@pytest.fixture
def regex_route(monkeypatch):
    """Runs a callable with the scanner route refusing every line, so
    parse_partition reads each one by the regex route."""

    def run(f, *args):
        with monkeypatch.context() as m:
            m.setattr(textio, "_scan", lambda s: None)
            return f(*args)

    return run


# (text, ground, whether the scanner route reads it)
ROUTE_CASES = [
    ("1 / 2 / 3,11,12 / 4,-7,9,10 / 5,6,-8", None, True),
    ("1 2", None, False),
    ("- 1", None, False),
    ("1 -2", None, False),
    ("1, -2", None, False),
    ("1  /  2", None, False),
    ("1 / / 2", None, False),
    ("1 ,- 2", None, False),
    ("007", None, False),
    ("1 / 007,-08", None, False),
    ("-0", None, False),
    ("0", None, False),
    ("1,-0", None, False),
    ("+1", None, False),
    ("1_0", None, False),
    ("1.0", None, False),
    ("1e3", None, False),
    ("[1]", None, False),
    (_ARABIC_INDIC[1] + " / " + _ARABIC_INDIC[2] + ",-" + _ARABIC_INDIC[3], None, False),
    ("1 / 2," + _ARABIC_INDIC[3], None, False),
    ("1//2", None, False),
    ("/1", None, False),
    ("1/", None, False),
    (",1", None, False),
    ("1,,2", None, False),
    ("1,", None, False),
    ("", None, False),
    ("   ", None, False),
    ("1," + NINES, None, False),
    ("1 / " + "9" * 4000, None, True),
    ("1\x1c/\x1d2\x1e,\x1f3", None, False),
    ("1\x1c2", None, False),
    ("1\u00a0/\u00a02 ,\u30003", None, False),
    ("1\u00a02", None, False),
    ("\u30001\u3000/\u30002\u3000", None, False),
    ("\u22124,7 / 6,\u22128", None, True),
    ("1,\u2212 2", None, False),
    ("()", None, False),
    (" ( ) ", None, False),
    ("()", (1,), False),
    ("1,2", (1, 2), True),
    ("1,2", (1, 2, 3), True),
    ("1,-1", None, True),
    ("1 / 1", None, True),
    ("3 / 1", None, True),
]


@pytest.mark.parametrize(
    "text,ground,scanned",
    ROUTE_CASES,
    ids=[(f"{text[:12]}...{len(text)}" if len(text) > 40 else repr(text))
         + ("" if ground is None else f"-{len(ground)}")
         for text, ground, _ in ROUTE_CASES],
)
def test_both_routes_give_one_outcome(regex_route, text, ground, scanned):
    assert (textio._scan(text.replace("\u2212", "-")) is not None) == scanned
    assert _outcome(text, ground) == regex_route(_outcome, text, ground)


def test_both_routes_agree_on_fuzz(regex_route, monkeypatch):
    scanned = Counter()

    def counting(s, scan=textio._scan):
        blocks = scan(s)
        scanned[blocks is not None] += 1
        return blocks

    monkeypatch.setattr(textio, "_scan", counting)
    outcomes = text_fuzz_outcomes(12, 20_000)
    assert scanned[True] > 1_000
    assert outcomes == regex_route(text_fuzz_outcomes, 12, 20_000)


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
