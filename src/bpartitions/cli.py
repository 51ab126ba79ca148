"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 internal invariant
violation (a guaranteed property failed, which is always a bug).
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from .core import (
    InternalInvariantError,
    PartitionError,
    adjacency_pairs,
    complement,
    require_full_ground,
    statistics,
)
from .counting import (
    COUNT_LIMIT,
    DISTRIBUTION_LIMIT,
    TooLargeError,
    check_size,
    distribution,
    singleton_free_egf,
    singleton_free_ie,
    total_count,
)
from .enumeration import for_each
from .peelpatch import Side, involution, peel, psi, psi_inverse
from .textio import format_patch_stages, format_trace, parse_partition, set_text
from .verification import iter_suite


class _UsageError(Exception):
    pass


# Size guards of the two sweeping commands, checked before any work starts.
# Measured on a 2-vCPU Xeon under Python 3.11: ``enumerate --n 9 --stats``
# prints 609,441 lines (21 MB) in about 4 s, and each further n is about ten
# times more; ``verify --max-n 8`` takes about 23 s with one job, and n = 9
# would add some minutes.
ENUMERATE_LIMIT = 9
VERIFY_LIMIT = 8

# Longest argparse message echoed; longer ones lose their middle, since they
# quote the offending argument and it may be arbitrarily long.
_MESSAGE_LIMIT = 160


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        if len(message) > _MESSAGE_LIMIT:
            half = _MESSAGE_LIMIT // 2
            message = f"{message[:half]}...{message[-half:]}"
        raise _UsageError(message)


def _add_partition_input(p: argparse.ArgumentParser) -> None:
    p.add_argument("partition", nargs="?", help="partition text; omit with --stdin")
    p.add_argument(
        "--stdin", action="store_true", help="read partitions from stdin, one per line"
    )
    p.add_argument("--n", type=int, default=None, help="force the ground set {1..N}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _ArgumentParser(
        prog="bpartitions",
        description="Type B set partitions: statistics, the peel-and-patch "
        "bijection, enumeration, and exact counts.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_ArgumentParser)

    p = sub.add_parser("stats", help="singleton and adjacency statistics")
    _add_partition_input(p)
    p.add_argument("--quiet", action="store_true", help="print only the counts line")
    p.set_defaults(handler=_cmd_stats)

    for name, help_ in (
        ("psi", "apply the statistic-swapping bijection"),
        ("psi-inv", "apply its inverse"),
        ("involution", "apply the self-inverse statistic-swapping map"),
        ("complement", "mirror through i -> n+1-i"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_partition_input(p)
        p.set_defaults(handler=_cmd_map)

    p = sub.add_parser("trace", help="print the peel trace, optionally with patch stages")
    _add_partition_input(p)
    p.add_argument("--side", choices=("left", "right"), default="left")
    p.add_argument("--format", choices=("table", "records"), default="table")
    p.add_argument("--patch", action="store_true", help="also print the patch stages")
    p.set_defaults(handler=_cmd_trace)

    p = sub.add_parser("enumerate", help="stream every partition of {1..n}")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--stats", action="store_true", help="annotate each line with s and a")
    p.add_argument("--quiet", action="store_true", help="print only the visit count")
    p.set_defaults(handler=_cmd_enumerate)

    p = sub.add_parser("poly", help="joint distribution coefficients and symmetry verdict")
    p.add_argument("--n", type=int, required=True)
    p.add_argument(
        "--limit",
        type=int,
        default=DISTRIBUTION_LIMIT,
        help="size guard: largest n for the closed-form table (default %(default)s)",
    )
    p.set_defaults(handler=_cmd_poly)

    p = sub.add_parser("count", help="exact counts")
    p.add_argument("--n", type=int, default=None)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--total", action="store_true", help="all partitions (default)")
    group.add_argument(
        "--singleton-free", action="store_true", help="partitions without singleton pairs"
    )
    group.add_argument(
        "--egf", action="store_true", help="singleton-free counts from the generating function"
    )
    p.add_argument("--upto", type=int, default=None, help="last index for --egf")
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser("verify", help="run the full property suite")
    p.add_argument("--max-n", type=int, default=6)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--quiet", action="store_true", help="print failures and the summary only")
    p.set_defaults(handler=_cmd_verify)

    return parser


def _iter_inputs(ns):
    if ns.n is not None and ns.n < 0:
        raise _UsageError("--n must be nonnegative")
    if ns.stdin:
        if ns.partition is not None:
            raise _UsageError("give a partition argument or --stdin, not both")
        try:
            for line in sys.stdin:
                line = line.strip()
                if line:
                    yield line
        except UnicodeDecodeError as exc:
            raise _UsageError(f"stdin is not text: {exc}") from None
    elif ns.partition is None:
        raise _UsageError("missing partition argument (or use --stdin)")
    else:
        yield ns.partition


def _parse(ns, text):
    # Compared by size first, so a huge --n never builds its ground set.
    part = parse_partition(text)
    if ns.n is not None:
        require_full_ground(part, ns.n)
    return part


def _cmd_stats(ns) -> int:
    for text in _iter_inputs(ns):
        part = _parse(ns, text)
        st = statistics(part)
        print(f"s={st.singletons} a={st.adjacencies}")
        if not ns.quiet:
            print(f"singletons: {set_text(st.singleton_elements)}")
            pairs = " ".join(f"({t},{u})" for t, u in adjacency_pairs(part, st))
            print(f"adjacencies: {pairs or '-'}")
    return 0


def _cmd_map(ns) -> int:
    # _parse has already checked that a given --n is the ground's size.
    fn = {
        "psi": psi,
        "psi-inv": psi_inverse,
        "involution": involution,
        "complement": lambda part: complement(part, len(part.ground)),
    }[ns.command]
    for text in _iter_inputs(ns):
        print(fn(_parse(ns, text)))
    return 0


def _cmd_trace(ns) -> int:
    for text in _iter_inputs(ns):
        part = _parse(ns, text)
        side = Side.LEFT if ns.side == "left" else Side.RIGHT
        trace = peel(part, side)
        print(format_trace(trace, ns.format))
        if ns.patch:
            if ns.format == "table":
                print()
            print(format_patch_stages(trace, side.opposite, ns.format))
    return 0


def _cmd_enumerate(ns) -> int:
    if ns.n < 0:
        raise _UsageError("--n must be nonnegative")
    check_size(ns.n, ENUMERATE_LIMIT, "the enumeration")

    def visit(part):
        if ns.quiet:
            return
        if ns.stats:
            st = statistics(part)
            print(f"{part}\ts={st.singletons} a={st.adjacencies}")
        else:
            print(part)

    count = for_each(ns.n, visit)
    if ns.quiet:
        print(count)
    return 0


def _cmd_poly(ns) -> int:
    if ns.n < 1:
        raise _UsageError("--n must be at least 1")
    if ns.limit < 1:
        raise _UsageError("--limit must be at least 1")
    dist = distribution(ns.n, limit=ns.limit)
    for s, a, c in dist.terms():
        print(s, a, c)
    if dist.is_symmetric():
        print("SYMMETRIC")
        return 0
    print("ASYMMETRIC")
    return 3


def _cmd_count(ns) -> int:
    if ns.n is not None and ns.n < 0:
        raise _UsageError("--n must be nonnegative")
    if ns.upto is not None and ns.upto < 0:
        raise _UsageError("--upto must be nonnegative")
    if ns.upto is not None and not ns.egf:
        raise _UsageError("--upto only applies to --egf")
    if ns.upto is not None and ns.n is not None:
        raise _UsageError("--egf takes --upto or --n, not both")
    if max(ns.n or 0, ns.upto or 0) > COUNT_LIMIT:
        raise TooLargeError(f"count's size guard caps --n and --upto at {COUNT_LIMIT}")
    if ns.egf:
        upto = ns.upto if ns.upto is not None else ns.n
        if upto is None:
            raise _UsageError("--egf needs --upto or --n")
        for k, value in enumerate(singleton_free_egf(upto)):
            print(k, value)
        return 0
    if ns.n is None:
        raise _UsageError("--n is required")
    if ns.singleton_free:
        print(singleton_free_ie(ns.n))
    else:
        print(total_count(ns.n))
    return 0


def _cmd_verify(ns) -> int:
    if ns.max_n < 1:
        raise _UsageError("--max-n must be at least 1")
    if ns.jobs < 1:
        raise _UsageError("--jobs must be at least 1")
    check_size(ns.max_n, VERIFY_LIMIT, "the verification sweep")
    checks = 0
    failures = 0
    for report in iter_suite(ns.max_n, ns.jobs):
        checks += 1
        if report.ok:
            if not ns.quiet:
                print(f"PASS n={report.n} {report.name}")
        else:
            failures += 1
            print(f"FAIL n={report.n} {report.name}: {report.detail}")
    print(f"{checks} checks, {failures} failures (max n={ns.max_n}, jobs={ns.jobs})")
    return 3 if failures else 0


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else int(exc.code)
    if getattr(ns, "handler", None) is None:
        parser.print_help(sys.stderr)
        return 1
    try:
        return ns.handler(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
