"""The runtime depends on the standard library only, loads no process pool
machinery until one is started, and exports exactly ``__all__``."""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import pytest

import bpartitions

SOURCES = Path(__file__).parent.parent / "src" / "bpartitions"


def test_absolute_imports_are_stdlib():
    paths = sorted(SOURCES.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, (path.name, name)


def test_cli_import_loads_no_process_pool():
    # only verify with more than one worker starts a pool
    src = str(Path(bpartitions.__file__).resolve().parent.parent)
    code = (
        "import sys, bpartitions.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def test_exports_are_exactly_all():
    public = {
        name
        for name, value in vars(bpartitions).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert public == set(bpartitions.__all__)
    assert len(bpartitions.__all__) == len(set(bpartitions.__all__))


# The public names each module or class defines itself, so a thin wrapper
# cannot come back unnoticed.
SURFACE = {
    "core": {
        "DuplicateElementError",
        "GroundMismatchError",
        "InternalInvariantError",
        "NotFullGroundError",
        "PartitionError",
        "SignedPartition",
        "Statistics",
        "ZeroBlockError",
        "adjacency_pairs",
        "complement",
        "make_partition",
        "require_full_ground",
        "statistics",
        "validate",
    },
    "textio": {"ParseError", "format_patch_stages", "format_trace", "parse_partition", "set_text"},
    "counting": {
        "BivariateDistribution",
        "TooLargeError",
        "check_size",
        "distribution",
        "markings",
        "singleton_free_egf",
        "singleton_free_ie",
        "stirling_row",
        "total_count",
    },
    "peelpatch": {
        "AlreadyCoreError",
        "AnchorMissingError",
        "MalformedLayerError",
        "PeelLayer",
        "PeelTrace",
        "Side",
        "involution",
        "patch",
        "patch_stages",
        "patch_step",
        "peel",
        "peel_step",
        "psi",
        "psi_inverse",
        "trace_stages",
    },
    "enumeration": {"for_each", "leaf_counts", "rank", "walk"},
    "SignedPartition": {"blocks", "ground"},
    "BivariateDistribution": {"evaluate", "is_symmetric", "n", "table", "terms"},
}


@pytest.mark.parametrize("owner", sorted(SURFACE))
def test_public_surface(owner):
    obj = getattr(bpartitions, owner)
    if isinstance(obj, ModuleType):
        names = {
            name
            for name, value in vars(obj).items()
            if getattr(value, "__module__", None) == obj.__name__
        }
    else:
        names = set(dir(obj))
    assert {name for name in names if not name.startswith("_")} == SURFACE[owner]
