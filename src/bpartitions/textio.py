"""Bit-exact text formats for partitions and peel/patch traces.

One line per partition: blocks joined by " / ", members joined by ",", one
representative per block pair, e.g. ``1 / 2 / 3,11,12 / 4,-7,9,10 / 5,6,-8``.
The empty partition is the literal ``()``.  Output is canonical and unique;
parsing is forgiving about whitespace, accepts either representative of each
block pair, and understands both the ASCII hyphen and the Unicode minus sign.

Traces render either as an aligned table (step, singletons, side points,
remainder) or as machine-readable records: one JSON object per line with a
stable field order, closed by a terminal record for the core or the result.
"""

from __future__ import annotations

import json
import re
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


def format_partition(part: SignedPartition) -> str:
    """Canonical one-line text; unique per partition."""
    return str(part)


def parse_partition(
    text: str,
    ground: Iterable[int] | None = None,
) -> SignedPartition:
    """Parse partition text; the inverse of :func:`format_partition`.

    With ``ground`` omitted, the support is inferred from the absolute values
    present; a given ground is checked as :func:`~bpartitions.core.make_partition`
    checks it.
    """
    s = text.replace(_UNICODE_MINUS, "-")
    n = len(s)

    def skip(i: int) -> int:
        while i < n and s[i].isspace():
            i += 1
        return i

    i = skip(0)
    if i < n and s[i] == "(":
        j = skip(i + 1)
        if j >= n or s[j] != ")":
            raise ParseError("expected ')'", j)
        j = skip(j + 1)
        if j < n:
            raise ParseError("trailing text after '()'", j)
        return make_partition([], ground)
    blocks: list[list[int]] = []
    current: list[int] = []
    while True:
        i = skip(i)
        m = _ELEMENT.match(s, i)
        if not m:
            raise ParseError("expected an element", i)
        try:
            value = int(m.group())
        except ValueError:  # more digits than int() accepts
            raise ParseError("element has too many digits", i) from None
        if value == 0:
            raise ParseError("elements must be nonzero", i)
        current.append(value)
        i = skip(m.end())
        if i >= n:
            break
        if s[i] == ",":
            i += 1
            continue
        if s[i] == "/":
            blocks.append(current)
            current = []
            i += 1
            continue
        raise ParseError(f"unexpected character {s[i]!r}", i)
    blocks.append(current)
    return make_partition(blocks, ground)


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
