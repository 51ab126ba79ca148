"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 invalid input, 3 internal invariant
violation (a guaranteed property failed, which is always a bug), and 141
(128 + SIGPIPE, what a shell reports for a process that signal ended) when
the reader of standard output closed it early, as ``| head -1`` does; the
rest of the output is dropped and nothing is written to standard error.

``psi``, ``psi-inv`` and ``involution`` take every line by one route, from
text to keys and back, with no partition built on either side: ``textio``
reads the blocks, ``core._key`` fills their keys on {1..r} for r members,
the peel/patch kernel runs on those keys, and the final keys are printed as
canonical text.  A member beyond r makes ``_key`` raise IndexError, and a
repeated absolute value leaves a key unset, so neither needs the canonical
form to be found.  Such a line is no member of V_r, nor is a line held to a
``--n`` other than r a member of V_n, and only for these is a partition
built: ``make_partition`` of the blocks raises for a repeat and
``require_full_ground`` for the rest, so each keeps the message and exit
code that ``parse_partition`` and the library maps give it.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache

from .core import (
    _PRECEDING,
    InternalInvariantError,
    PartitionError,
    _key,
    _key_text,
    _short,
    _text,
    adjacency_pairs,
    complement,
    make_partition,
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
from .enumeration import walk
from .peelpatch import Side, _swap, peel
from .textio import _blocks, format_patch_stages, format_trace, parse_partition, set_text
from .verification import iter_suite


class _UsageError(Exception):
    pass


# Size guards, checked before the work they bound starts.  Measured on a
# 2-vCPU Xeon under Python 3.11: ``enumerate --n 9 --stats`` prints 609,441
# lines (21 MB) in about 4 s, and each further n is about ten times more;
# ``verify --max-n 8`` takes about 40 s with one job, and n = 9 would add some
# minutes.  ``trace`` caps the stage members it prints for one input, up to
# depth times size: ``trace --patch`` on the deep family 1,-n / 2,n-1 / ...
# prints 3,997,998 (21.7 MB) at n = 2,000 in about 3 s.
ENUMERATE_LIMIT = 9
VERIFY_LIMIT = 8
TRACE_LIMIT = 4_000_000

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


def _texts(ns):
    """The argument, or each nonblank stripped line of stdin in turn; the
    options are checked before stdin is read."""
    if ns.n is not None and ns.n < 0:
        raise _UsageError("--n must be nonnegative")
    if ns.stdin:
        if ns.partition is not None:
            raise _UsageError("give a partition argument or --stdin, not both")
        texts = filter(None, map(str.strip, sys.stdin))
    elif ns.partition is None:
        raise _UsageError("missing partition argument (or use --stdin)")
    else:
        texts = (ns.partition,)
    try:
        yield from texts
    except UnicodeDecodeError as exc:
        raise _UsageError(f"stdin is not text: {exc}") from None


def _partitions(ns):
    """Each partition of :func:`_texts`, held to ``--n`` when given."""
    for text in _texts(ns):
        part = parse_partition(text)
        # A huge --n is refused without building 1..n: the message compares
        # at most size + 1 of its elements and gives n by its bit length.
        if ns.n is not None:
            require_full_ground(part, ns.n)
        yield part


def _mapped(text: str, n: int | None, side: Side, mirror: bool) -> str:
    """The image of ``text`` under the kernel map that peels on ``side``,
    its keys reversed when ``mirror``, printed from the keys.  It relies on
    ``_blocks`` returning no 0, which would write the last key."""
    blocks = _blocks(text)
    r = sum(map(len, blocks))
    try:
        key = _key(blocks, range(r), _PRECEDING)
    except IndexError:  # a member beyond r
        key = None
    if key is None or -1 in key or (n is not None and n != r):
        # r nonzero members whose absolute values fill 1..r are a member of
        # V_r, so a refused line has a member beyond r or a repeat, or is
        # held to another n: make_partition raises for a repeat, and
        # require_full_ground for the rest, as the library maps would.
        require_full_ground(make_partition(blocks), n)
        raise InternalInvariantError(f"the key route refused a member of V_{r}")
    ground = range(1, r + 1)
    key, labels = _swap(ground, blocks, key, side)
    return _key_text(ground, key[::-1] if mirror else key, labels)


def _cmd_stats(ns) -> int:
    for part in _partitions(ns):
        st = statistics(part)
        print(f"s={st.singletons} a={st.adjacencies}")
        if not ns.quiet:
            print(f"singletons: {set_text(st.singleton_elements)}")
            pairs = " ".join(f"({t},{u})" for t, u in adjacency_pairs(part, st))
            print(f"adjacencies: {pairs or '-'}")
    return 0


# command -> the side its kernel run peels on, and whether its keys are
# mirrored
_KERNEL_MAPS = {
    "psi": (Side.LEFT, False),
    "psi-inv": (Side.RIGHT, False),
    "involution": (Side.LEFT, True),
}


def _cmd_map(ns) -> int:
    if ns.command == "complement":
        # _partitions has already checked that a given --n is the ground's size.
        for part in _partitions(ns):
            print(complement(part, len(part.ground)))
        return 0
    side, mirror = _KERNEL_MAPS[ns.command]
    for text in _texts(ns):
        print(_mapped(text, ns.n, side, mirror))
    return 0


def _cmd_trace(ns) -> int:
    side = Side(ns.side)
    for part in _partitions(ns):
        trace = peel(part, side)
        # remainder j holds what layers 1..j left, and --patch prints it again
        size, members = len(part.ground), 0
        for layer in trace.layers:
            size -= len(layer.singletons) + len(layer.side_points)
            members += size * (1 + ns.patch)
        if members > TRACE_LIMIT:
            raise TooLargeError(
                f"{_short(members)} stage members exceed the size guard {TRACE_LIMIT} of trace"
            )
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
    if ns.quiet:
        print(walk(ns.n, lambda blocks, s, a: None))
        return 0

    # the walk's blocks are canonical, so their text is the partition's
    def leaf(blocks, s, a):
        print(f"{_text(blocks)}\ts={s} a={a}" if ns.stats else _text(blocks))

    walk(ns.n, leaf)
    return 0


def _cmd_poly(ns) -> int:
    if ns.n < 1:
        raise _UsageError("--n must be at least 1")
    if ns.limit < 1:
        raise _UsageError("--limit must be at least 1")
    dist = distribution(ns.n, limit=ns.limit)
    # one write a line; the table at the size guard is 6 MB, so it is not joined
    sys.stdout.writelines(f"{s} {a} {c}\n" for s, a, c in dist.terms())
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
        sys.stdout.writelines(f"{k} {value}\n" for k, value in enumerate(singleton_free_egf(upto)))
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
        if getattr(ns, "handler", None) is None:
            parser.print_help(sys.stderr)
            return 1
        return ns.handler(ns)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help and friends
        return 0 if exc.code in (0, None) else int(exc.code)
    except PartitionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InternalInvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    try:
        status = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # Python flushes stdout once more at exit; pointed at devnull, that
        # flush cannot fail and print a second error.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        status = 141
    sys.exit(status)


if __name__ == "__main__":
    main()
