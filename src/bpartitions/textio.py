"""Bit-exact text formats for partitions and peel/patch traces.

One line per partition: blocks joined by " / ", members joined by ",", one
representative per block pair, e.g. ``1 / 2 / 3,11,12 / 4,-7,9,10 / 5,6,-8``.
The empty partition is the literal ``()``.  Output is canonical and unique;
parsing is forgiving about whitespace, accepts either representative of each
block pair, and understands both the ASCII hyphen and the Unicode minus sign.
A line takes one of two routes to the same blocks.  A well-formed line
spaced as this package prints it, with ASCII digits and no leading zero, is
checked by C-level string methods and decoded by the stdlib JSON scanner,
with no regex.  Any line that route refuses takes one regex match of the
whole grammar plus splits: other spacing, ``()``, an element written with a
leading zero, non-ASCII digits or more digits than int() accepts, and every
malformed line, which is then walked element by element only to report its
first problem.

Traces render either as an aligned table (step, singletons, side points,
remainder) or as machine-readable records: one JSON object per line with a
stable field order, closed by a terminal record for the core or the result.
"""

from __future__ import annotations

import json
import re
from itertools import chain
from typing import Iterable

from .core import PartitionError, SignedPartition, make_partition
from .peelpatch import PeelLayer, PeelTrace, Side, patch_stages, trace_stages


class ParseError(PartitionError):
    """Text does not match the partition grammar."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


_UNICODE_MINUS = chr(0x2212)
_ELEMENT = re.compile(r"-?\d+")
_LINE = re.compile(r"\s*-?\d+\s*(?:[,/]\s*-?\d+\s*)*")
_SPACE = re.compile(r"\s*")
_NOT_GRAMMAR = str.maketrans("", "", "0123456789,/-")  # deletes the grammar's characters
_DECODE = json.JSONDecoder().raw_decode


def parse_partition(
    text: str,
    ground: Iterable[int] | None = None,
) -> SignedPartition:
    """Parse partition text; the inverse of ``str(part)``.

    The blocks of :func:`_blocks`, made canonical.  With ``ground``
    omitted, the support is inferred from the absolute values present; a
    given ground is checked as :func:`~bpartitions.core.make_partition`
    checks it.
    """
    return make_partition(_blocks(text), ground)


def _blocks(text: str) -> list[list[int]]:
    """The blocks of partition text, ``[]`` for ``()``; raise the
    :class:`ParseError` of its first problem from the left if it has one.

    A U+2212 minus sign reads as ``-``.  A well-formed line spaced as
    ``str(part)`` spaces it is read by the stdlib JSON scanner, which builds
    the blocks' int lists in C.  Any line that scanner route refuses is read
    by one regex match of the whole grammar and splits instead: other
    spacing, ``()``, an element with a leading zero, non-ASCII digits or more
    digits than int() accepts, and every malformed line, which is then
    walked element by element to report its problem.  A line the scanner
    reads, the regex route reads to the same blocks, so both routes give the
    same blocks and errors.  On either route every block returned is
    nonempty and every member nonzero.
    """
    s = text.replace(_UNICODE_MINUS, "-")
    blocks = _scan(s)
    if blocks is None:
        blocks = _match(s)
    return blocks


def _scan(s: str) -> list[list[int]] | None:
    """The blocks of ``s`` read by the JSON scanner, or None if it refuses.

    The line must be spaced as this package prints it, with whitespace only
    in each " / ".  Once those spaces go, what is left must be ASCII digits,
    separators and minus signs, which the JSON number grammar then reads as
    ``-?(0|[1-9][0-9]*)`` elements: it refuses a leading zero, a stray sign
    or separator and more digits than int() accepts.  An empty block or a
    zero is refused here, so every line the scanner accepts is one the
    regex route accepts with the same blocks.
    """
    compact = s.replace(" / ", "/")
    if compact.translate(_NOT_GRAMMAR):
        return None
    try:
        # the brackets are all ours, so a scan that succeeds ends at the last one
        blocks = _DECODE("[[" + compact.replace("/", "],[") + "]]")[0]
    except ValueError:
        return None
    if [] in blocks or 0 in chain.from_iterable(blocks):
        return None
    return blocks


def _match(s: str) -> list[list[int]]:
    """The blocks of ``s`` read by one regex match of the whole grammar and
    splits, ``[]`` for ``()``; raise the :class:`ParseError` of its first
    problem if it has one."""
    m = _LINE.match(s)
    if m and m.end() == len(s):
        # whitespace only pads separators here; str.split() drops what \s
        # matches, \x1c-\x1f included, which int() would not strip
        compact = "".join(s.split())
        try:
            blocks = [list(map(int, b.split(","))) for b in compact.split("/")]
        except ValueError:  # more digits than int() accepts
            raise _first_problem(s, m) from None
        if any(0 in b for b in blocks):
            raise _first_problem(s, m)
        return blocks
    i = _SPACE.match(s).end()
    if s[i : i + 1] != "(":
        raise _first_problem(s, m)
    j = _SPACE.match(s, i + 1).end()
    if s[j : j + 1] != ")":
        raise ParseError("expected ')'", j)
    j = _SPACE.match(s, j + 1).end()
    if j < len(s):
        raise ParseError("trailing text after '()'", j)
    return []


def _first_problem(s: str, m: re.Match[str] | None) -> ParseError:
    """The error for the leftmost problem in ``s``, given its grammar match.

    The elements before the point where the match stopped come first: one
    that is zero or too long for int() is the problem.  Otherwise it is
    what stopped the match.
    """
    if m is None:
        return ParseError("expected an element", _SPACE.match(s).end())
    stop = m.end()
    for e in _ELEMENT.finditer(s, 0, stop):
        try:
            value = int(e.group())
        except ValueError:
            return ParseError("element has too many digits", e.start())
        if value == 0:
            return ParseError("elements must be nonzero", e.start())
    if s[stop] in ",/":
        return ParseError("expected an element", _SPACE.match(s, stop + 1).end())
    return ParseError(f"unexpected character {s[stop]!r}", stop)


def set_text(elements: Iterable[int]) -> str:
    """Sorted comma-joined elements, or "-" for the empty set."""
    items = sorted(elements)
    return ",".join(str(t) for t in items) if items else "-"


def _render(
    pairs: list[tuple[PeelLayer, SignedPartition]],
    column: str,
    terminal: str,
    final: SignedPartition,
    mode: str,
) -> str:
    """One row or record per (layer, partition) pair, then a terminal line.

    ``column`` names the partition column and ``terminal`` the closing record,
    which carries ``final``.
    """
    if mode == "records":
        lines = [
            json.dumps(
                {
                    "step": layer.step,
                    "singletons": sorted(layer.singletons),
                    "side_points": sorted(layer.side_points),
                    "side": layer.side.value,
                    column: str(part),
                }
            )
            for layer, part in pairs
        ]
        lines.append(json.dumps({terminal: str(final)}))
        return "\n".join(lines)
    if mode != "table":
        raise ValueError(f"unknown trace format {mode!r}")
    tail = f"{terminal}: {final}"
    if not pairs:
        return tail
    points = "L_j" if pairs[0][0].side is Side.LEFT else "R_j"
    rows = [("j", "S_j", points, column)] + [
        (str(layer.step), set_text(layer.singletons), set_text(layer.side_points), str(part))
        for layer, part in pairs
    ]
    widths = [max(map(len, cells)) for cells in zip(*rows)]
    lines = [" | ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() for cells in rows]
    return "\n".join([*lines, tail])


def format_trace(trace: PeelTrace, mode: str = "table") -> str:
    """Render a peel trace; ``table`` for humans, ``records`` for machines.

    Records mode emits one JSON object per line with fields step, singletons,
    side_points, side, remainder, then a final ``{"core": ...}`` record.
    """
    stages = trace_stages(trace)
    return _render(list(zip(trace.layers, stages[1:])), "remainder", "core", trace.core, mode)


def format_patch_stages(trace: PeelTrace, attach: Side, mode: str = "table") -> str:
    """Render the patch stages of a trace, ending with the rebuilt partition.

    Each row pairs a layer with the stage it is about to be patched into,
    from the core upward; the terminal line carries the final partition.
    """
    stages = patch_stages(trace, attach)
    return _render(list(zip(reversed(trace.layers), stages)), "stage", "result", stages[-1], mode)
