"""Byte-identity of the CLI: a fixed transcript against a committed golden file.

Each command of ``TRANSCRIPT`` runs through ``cli.run``; its argument line,
stdout and exit code are compared with ``golden/cli_transcript.txt``.  The
golden file pins every trace column name and terminal record, so a renderer
that writes ``remainder`` where ``stage`` belongs fails here.

Regenerate the file (only for an intended format change) with
``PYTHONPATH=src python tests/test_golden_cli.py``.
"""

from __future__ import annotations

import contextlib
import io
import shlex
from pathlib import Path

from bpartitions.cli import run
from conftest import BIG, BIG_IMAGE, BIG_MIRROR

GOLDEN = Path(__file__).parent / "golden" / "cli_transcript.txt"

TRACE_INPUTS = (BIG, BIG_MIRROR, "1", "1,2", "1,-2", "1 / 2 / 3", "1,2,3")

TRANSCRIPT = (
    [
        ["trace", text, "--side", side, "--format", fmt, *patch]
        for text in TRACE_INPUTS
        for side in ("left", "right")
        for fmt in ("table", "records")
        for patch in ([], ["--patch"])
    ]
    + [
        ["stats", BIG, "--n", "12"],
        ["stats", BIG_MIRROR, "--quiet"],
        ["stats", "1,2,3"],
        ["stats", "1"],
        ["stats", "1,-2"],
        ["stats", "2 / 5,-7"],
        ["stats", "()"],
        ["complement", BIG_IMAGE, "--n", "12"],
        ["complement", BIG_IMAGE],
        ["complement", "1,-2 / 3"],
        ["complement", "()"],
        ["complement", "2 / 5"],
        ["complement", "1 / 2", "--n", "3"],
        ["enumerate", "--n", "4", "--stats"],
        ["poly", "--n", "7"],
        ["verify", "--max-n", "3"],
        ["verify", "--max-n", "4", "--quiet"],
    ]
)


def transcript() -> str:
    """Every command's argument line, stdout and exit code, in order."""
    chunks = []
    for argv in TRANSCRIPT:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        chunks.append(f"$ {shlex.join(argv)}\n{out.getvalue()}[exit {code}]\n")
    return "".join(chunks)


def test_cli_transcript_matches_golden():
    assert transcript() == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(transcript())
