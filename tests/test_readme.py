"""The README's quick tour runs and gives the values its comments promise."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from bpartitions import for_each, psi_inverse, singleton_free_egf, singleton_free_ie, statistics
from bpartitions.textio import format_trace

README = Path(__file__).resolve().parent.parent / "README.md"


def quick_tour() -> str:
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    return blocks[0]


def test_quick_tour_runs_and_keeps_its_promises():
    source = quick_tour()
    ns: dict = {}
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, str(README), "exec"), ns)
    part, image, trace = ns["part"], ns["image"], ns["trace"]

    st = statistics(part)
    assert (st.singletons, st.adjacencies) == (2, 3)
    assert "# 2 singleton pairs, 3 adjacency pairs" in source
    promised = re.search(r"image = psi\(part\) +# (.+)", source).group(1)
    assert str(image) == promised == "1,2,12 / 3,10 / 4,-7 / 5 / 6,-8 / 9 / 11"
    assert psi_inverse(image) == part
    assert "psi_inverse(image) == part  # True" in source

    size_3: list[str] = []
    for_each(3, lambda p: size_3.append(f"{p}\n"))
    assert len(size_3) == 11 and "all 11 partitions of size 3" in source
    assert out.getvalue() == format_trace(trace) + "\n" + "".join(size_3)

    assert singleton_free_ie(8) == singleton_free_egf(8)[-1] == 25104
    assert "# 25104, and singleton_free_egf(8)[-1] agrees" in source
