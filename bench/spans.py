"""Per-layer tracing from outside the program.

The tracer replaces public functions of the ``bpartitions`` modules with
wrappers that record a span around each call.  ``from .core import
statistics`` copies the binding into every importing module, so each
namespace that holds a traced function gets the wrapper; calls made through
any of those names are seen.

Spans are aggregated per (parent, name) as they close: calls, total time and
self time (the span's duration minus the time its child spans cover).  Memory
therefore stays bounded however many calls a run makes.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

# (module, function) -> span name.  ``for_each`` and ``complete`` are the two
# entry points of one tree walk.
TRACED = {
    ("cli", "run"): "cli.run",
    ("textio", "parse_partition"): "textio.parse_partition",
    ("core", "statistics"): "core.statistics",
    ("core", "make_partition"): "core.make_partition",
    ("core", "complement"): "core.complement",
    ("peelpatch", "peel"): "peelpatch.peel",
    ("peelpatch", "patch_step"): "peelpatch.patch_step",
    ("peelpatch", "patch_stages"): "peelpatch.patch_stages",
    ("peelpatch", "trace_stages"): "peelpatch.trace_stages",
    ("peelpatch", "psi"): "peelpatch.psi",
    ("peelpatch", "psi_inverse"): "peelpatch.psi_inverse",
    ("peelpatch", "involution"): "peelpatch.involution",
    ("enumeration", "for_each"): "enumeration.walk",
    ("enumeration", "complete"): "enumeration.walk",
    ("verification", "sweep"): "verification.sweep",
    ("verification", "iter_suite"): "verification.iter_suite",
    ("counting", "distribution"): "counting.distribution",
    ("counting", "singleton_free_egf"): "counting.singleton_free_egf",
    ("counting", "singleton_free_ie"): "counting.singleton_free_ie",
    ("counting", "total_count"): "counting.total_count",
    ("counting", "stirling2"): "counting.stirling2",
}
FORMAT = "textio.format"  # SignedPartition.__str__
ROOT = "<root>"


class Tracer:
    """Aggregated spans plus the two counters the layers report."""

    def __init__(self) -> None:
        self.stack: list[list] = [[ROOT, 0.0]]  # frames: [name, child time]
        self.agg: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.counts = {"peelpatch.peel.layers": 0, "enumeration.visits": 0}
        self._undo: list[tuple[object, str, object]] = []

    def _close(self, parent: list, frame: list, dt: float, new_call: bool) -> None:
        parent[1] += dt
        rec = self.agg.get((parent[0], frame[0]))
        if rec is None:
            rec = self.agg[(parent[0], frame[0])] = [0, 0.0, 0.0]
        rec[0] += new_call
        rec[1] += dt
        rec[2] += dt - frame[1]

    def span(self, name: str, fn, new_call: bool = True):
        """``fn`` wrapped in a span called ``name``."""
        stack = self.stack
        close = self._close

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                close(parent, frame, dt, new_call)

        return wrapper

    def generator_span(self, name: str, fn):
        """Like :meth:`span` for a generator function: every resumption is
        timed, and the call is counted once."""
        stack = self.stack
        close = self._close

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            first = True
            while True:
                parent = stack[-1]
                frame = [name, 0.0]
                stack.append(frame)
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    dt = perf_counter() - t0
                    stack.pop()
                    close(parent, frame, dt, first)
                    first = False
                yield item

        return wrapper

    def _peel(self, fn):
        counts = self.counts

        def peel(*args, **kwargs):
            trace = fn(*args, **kwargs)
            counts["peelpatch.peel.layers"] += len(trace.layers)
            return trace

        return self.span("peelpatch.peel", peel)

    def _walk(self, fn):
        """The walk's visitor runs the caller's code, so its time is charged
        to whichever span called the walk, and every call is one visit."""
        counts = self.counts
        stack = self.stack
        span = self.span

        def walk(first, visitor, *args, **kwargs):
            caller = stack[-2][0]  # stack[-1] is this walk's own frame
            inner = span(caller, visitor, new_call=False)

            def visit(part):
                counts["enumeration.visits"] += 1
                return inner(part)

            return fn(first, visit, *args, **kwargs)

        return span("enumeration.walk", walk)

    def install(self, package: str = "bpartitions") -> None:
        """Wrap every traced function in every ``package.*`` namespace."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package or name.startswith(package + ".")
        }
        wrappers = {}
        for (modname, fname), span_name in TRACED.items():
            fn = getattr(modules.get(f"{package}.{modname}"), fname, None)
            if fn is None:
                continue
            if span_name == "peelpatch.peel":
                wrappers[fn] = self._peel(fn)
            elif span_name == "enumeration.walk":
                wrappers[fn] = self._walk(fn)
            elif inspect.isgeneratorfunction(fn):
                wrappers[fn] = self.generator_span(span_name, fn)
            else:
                wrappers[fn] = self.span(span_name, fn)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in wrappers:
                    self._set(mod, attr, wrappers[value])
        partition_cls = modules[f"{package}.core"].SignedPartition
        self._set(partition_cls, "__str__", self.span(FORMAT, partition_cls.__str__))

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def by_name(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self time), summed over parents."""
        out: dict[str, tuple[int, float]] = {}
        for (_, name), (calls, _, self_s) in self.agg.items():
            c, s = out.get(name, (0, 0.0))
            out[name] = (c + calls, s + self_s)
        return out

    def calls_under(self, name: str, parent_prefix: str) -> int:
        """Calls of ``name`` made directly from spans named ``parent_prefix*``."""
        return sum(
            calls
            for (parent, child), (calls, _, _) in self.agg.items()
            if child == name and parent.startswith(parent_prefix)
        )
