"""The command-line surface: outputs, exit codes, batch input, parallel verify."""

from __future__ import annotations

import hashlib
import io
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bpartitions
from bpartitions import for_each, involution, psi, psi_inverse, total_count
from bpartitions.cli import ENUMERATE_LIMIT, VERIFY_LIMIT, run
from bpartitions.core import InternalInvariantError
from bpartitions.counting import COUNT_LIMIT, BivariateDistribution
from bpartitions.textio import parse_partition
from conftest import BIG, BIG_IMAGE, BIG_MIRROR, BIG_MIRROR_IMAGE


EGF_1000_DIGEST = "e51fd41c52013d6ce653eb2677bc07e18f0e1a0cba13f0fde4c1361c1da99adc"


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _deep(n):
    """The deep family 1,-n / 2,n-1 / ..., which peels one element a layer."""
    return " / ".join([f"{i},{n + 1 - i}" for i in range(2, n // 2 + 1)] + [f"1,-{n}"])


class TestStats:
    def test_worked_example(self, capsys):
        code, out, _ = invoke(capsys, "stats", BIG, "--n", "12")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "s=2 a=3"
        assert lines[1] == "singletons: 1,2"
        assert lines[2] == "adjacencies: (5,6) (9,10) (11,12)"

    def test_quiet(self, capsys):
        code, out, _ = invoke(capsys, "stats", "1,-2", "--quiet")
        assert code == 0
        assert out == "s=0 a=0\n"

    def test_wraparound_adjacency_display(self, capsys):
        _, out, _ = invoke(capsys, "stats", "1,2,3")
        assert "adjacencies: (1,2) (2,3) (3,1)" in out


class TestTransforms:
    def test_psi(self, capsys):
        code, out, _ = invoke(capsys, "psi", BIG, "--n", "12")
        assert code == 0
        assert out.strip() == BIG_IMAGE

    def test_psi_inv(self, capsys):
        code, out, _ = invoke(capsys, "psi-inv", BIG_MIRROR)
        assert code == 0
        assert out.strip() == BIG_MIRROR_IMAGE

    def test_involution(self, capsys):
        code, out, _ = invoke(capsys, "involution", BIG)
        assert code == 0
        assert out.strip() == BIG_MIRROR_IMAGE

    def test_complement(self, capsys):
        code, out, _ = invoke(capsys, "complement", BIG_IMAGE, "--n", "12")
        assert code == 0
        assert out.strip() == BIG_MIRROR_IMAGE

    def test_stdin_batch(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("1 / 2\n\n1,2\n"))
        code, out, _ = invoke(capsys, "psi", "--stdin")
        assert code == 0
        assert out.splitlines() == ["1,2", "1 / 2"]

    def test_stdin_batch_streams_and_stops_at_its_first_bad_line(self, capsys, monkeypatch):
        def stdin():
            for k, line in enumerate(["1 / 2\n", "\n", "1,-1\n", "1\n"], 1):
                assert k <= 3, "the line after the bad one was read"
                yield line

        monkeypatch.setattr("sys.stdin", stdin())
        code, out, err = invoke(capsys, "psi", "--stdin")
        assert (code, out, err) == (2, "1,2\n", "error: block contains both 1 and -1\n")

    def test_undecodable_stdin_is_a_usage_error(self, capsys, monkeypatch):
        raw = io.BytesIO(b"1 / 2\n\xff\n")
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(raw, encoding="utf-8"))
        code, _, err = invoke(capsys, "psi", "--stdin")
        assert code == 1
        assert "stdin is not text" in err

    def test_partition_and_stdin_conflict(self, capsys):
        code, _, err = invoke(capsys, "psi", "1,2", "--stdin")
        assert code == 1
        assert "usage error" in err


MAPS = {"psi": psi, "psi-inv": psi_inverse, "involution": involution}


def _scrambled(part, rng):
    """The line of ``part`` with its blocks and members shuffled and each
    representative flipped at random, spaced as the package prints it."""
    blocks = [[-m for m in b] if rng.random() < 0.5 else b for b in map(list, part.blocks)]
    for b in blocks:
        rng.shuffle(b)
    rng.shuffle(blocks)
    return " / ".join(",".join(map(str, b)) for b in blocks) if blocks else "()"


class TestKeyRoute:
    """psi, psi-inv and involution take every line from text to keys and
    back, however it is spelt; a line that is no member of V_r raises the
    library's error, and the images, errors and exit codes are pinned here."""

    @staticmethod
    def _map_spelt(capsys, monkeypatch, spell):
        """Map ``spell(part)`` for every member of V_0..V_6 with psi, psi-inv
        and involution, check each image against the library's, and return
        the lines and the texts that ``cli`` passed to ``parse_partition``."""
        lines = []
        for n in range(7):
            for_each(n, lambda part: lines.append(spell(part)))
        assert len(lines) == 1861
        parsed = []

        def counted(text):
            parsed.append(text)
            return parse_partition(text)

        monkeypatch.setattr("bpartitions.cli.parse_partition", counted)
        for cmd, fn in MAPS.items():
            monkeypatch.setattr("sys.stdin", io.StringIO("".join(f"{t}\n" for t in lines)))
            code, out, err = invoke(capsys, cmd, "--stdin")
            assert (code, err) == (0, "")
            assert out.splitlines() == [str(fn(parse_partition(line))) for line in lines]
        return lines, parsed

    def test_scrambled_lines_match_the_library_route(self, capsys, monkeypatch):
        rng = random.Random(28)
        lines, fallbacks = self._map_spelt(capsys, monkeypatch, lambda p: _scrambled(p, rng))
        assert sum(line != str(parse_partition(line)) for line in lines) > 1700
        # every line took the keys, V_0's "()" included
        assert fallbacks == []

    def test_every_spelling_takes_the_key_route(self, capsys, monkeypatch):
        def loose(part):
            """The line of ``part`` with spaces around every separator, a
            Unicode minus for every minus and a leading zero on every element."""
            if not part.blocks:
                return " ( ) "
            elements = [[f"{chr(0x2212) * (m < 0)}0{abs(m)}" for m in b] for b in part.blocks]
            return " / ".join(" , ".join(b) for b in elements)

        assert self._map_spelt(capsys, monkeypatch, loose)[1] == []

    # lines that map, each by the key route: three spaced as printed, then
    # "()", other spacing, a Unicode minus and a leading zero
    ACCEPTED = ["1 / 2 / 3", "2,-1 / 3", "1,-3 / 2", "()", "1 , 2", "1,\u22122 / 3", "1 / 02"]
    IMAGES = {
        "psi": "1,2,3\n1,-2,-3\n1,2,-3\n()\n1 / 2\n1,-2,-3\n1,2\n",
        "psi-inv": "1,2,3\n1,-2,3\n1,-2,-3\n()\n1 / 2\n1,-2,3\n1,2\n",
        "involution": "1,2,3\n1,2,-3\n1,-2,-3\n()\n1 / 2\n1,2,-3\n1,2\n",
    }
    NOT_FULL = "error: ground of 2 elements is not the full set 1..2; first difference at index 1:"

    @pytest.mark.parametrize("command", sorted(MAPS))
    @pytest.mark.parametrize(
        "line, err",
        [
            ("1,2 / 2", "error: |2| occurs in more than one block\n"),
            ("1,-1 / 2", "error: block contains both 1 and -1\n"),
            ("1,3", f"{NOT_FULL} 3 vs 2\n"),
            ("1 / 5", f"{NOT_FULL} 5 vs 2\n"),
            ("1,0 / 2", "error: elements must be nonzero (at offset 2)\n"),
            (f"1 / {'9' * 4000}", f"{NOT_FULL} a 13288-bit number vs 2\n"),
        ],
        ids=["repeat", "pair", "beyond", "sparse", "zero", "huge"],
    )
    def test_refused_lines_keep_their_output(self, capsys, monkeypatch, command, line, err):
        stream = "".join(f"{t}\n" for t in [*self.ACCEPTED, line, "1 / 2"])
        monkeypatch.setattr("sys.stdin", io.StringIO(stream))
        assert invoke(capsys, command, "--stdin") == (2, self.IMAGES[command], err)

    def test_a_refused_line_the_library_accepts_is_a_bug(self, capsys, monkeypatch):
        # "1,3" is refused for its member beyond r = 2; were the library to
        # accept it, the kernel must not run on keys with one unset
        monkeypatch.setattr("bpartitions.cli.require_full_ground", lambda part, n: n)
        err = "internal invariant violated: the key route refused a member of V_2\n"
        assert invoke(capsys, "psi", "1,3") == (3, "", err)

    @pytest.mark.parametrize("command", sorted(MAPS))
    def test_forced_ground_other_than_the_members(self, capsys, monkeypatch, command):
        err = (
            "error: ground of 2 elements is not the full set 1..3; "
            "first difference at index 2: end vs 3\n"
        )
        assert invoke(capsys, command, "1 / 2", "--n", "3") == (2, "", err)
        monkeypatch.setattr("sys.stdin", io.StringIO("2,-1 / 3\n1 / 2\n"))
        first = self.IMAGES[command].splitlines()[1]
        assert invoke(capsys, command, "--stdin", "--n", "3") == (2, f"{first}\n", err)


class TestTrace:
    def test_table_and_patch(self, capsys):
        code, out, _ = invoke(capsys, "trace", BIG, "--n", "12", "--patch")
        assert code == 0
        assert "core: 4,-7 / 6,-8" in out
        assert "result: " + BIG_IMAGE in out

    def test_records(self, capsys):
        code, out, _ = invoke(capsys, "trace", BIG, "--format", "records")
        assert code == 0
        assert out.splitlines()[-1] == '{"core": "4,-7 / 6,-8"}'

    def test_stdin_batch_right_side(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(f"{BIG}\n1 / 2\n"))
        code, out, _ = invoke(capsys, "trace", "--stdin", "--side", "right")
        assert code == 0
        headers = [line.split(" | ")[2].strip() for line in out.splitlines() if line[:2] == "j "]
        assert headers == ["R_j", "R_j"]
        assert "L_j" not in out

    def test_right_side(self, capsys):
        code, out, _ = invoke(capsys, "trace", BIG_MIRROR, "--side", "right", "--patch")
        assert code == 0
        assert "core: 5,-7 / 6,-9" in out
        assert "result: " + BIG_MIRROR_IMAGE in out

    @pytest.mark.parametrize("mode", ["table", "records"])
    @pytest.mark.parametrize("stdin", [False, True])
    def test_deep_input_past_the_size_guard_fails_fast(self, capsys, monkeypatch, mode, stdin):
        # its tables would hold about 10**8 members (0.55 GB): refused after
        # the linear peel, before any stage is built
        line = _deep(10_000)
        args = ["trace", "--patch", "--format", mode]
        if stdin:
            monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
            args.append("--stdin")
        else:
            args.append(line)
        start = time.perf_counter()
        code, out, err = invoke(capsys, *args)
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "size guard" in err
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("patch", [False, True])
    def test_size_guard_counts_every_printed_stage_member(self, capsys, monkeypatch, patch):
        # BIG's remainders hold 7, 6, 5 and 4 members; --patch prints as many again
        members = 22 * (1 + patch)
        args = ["trace", BIG, *["--patch"] * patch]
        monkeypatch.setattr("bpartitions.cli.TRACE_LIMIT", members)
        assert invoke(capsys, *args)[0] == 0
        monkeypatch.setattr("bpartitions.cli.TRACE_LIMIT", members - 1)
        code, out, err = invoke(capsys, *args)
        assert (code, out) == (2, "")
        assert f"{members} stage members exceed the size guard {members - 1}" in err

    def test_inputs_within_the_size_guard_trace(self, capsys):
        code, out, _ = invoke(capsys, "trace", "--patch", _deep(400))
        assert code == 0
        assert out.splitlines()[-1].startswith("result: ")
        # 10,000 elements in two layers (the left points 3, 7, 11, ..., then
        # their partners) and a 5,000-element core 1,-2 / 5,-6 / ...
        pairs = range(1, 10_001, 2)
        shallow = " / ".join(f"{i},{i + 1}" if i % 4 == 3 else f"{i},-{i + 1}" for i in pairs)
        code, out, _ = invoke(capsys, "trace", "--patch", "--format", "records", shallow)
        assert code == 0
        assert len(out.splitlines()) == 6


def _library_text(n):
    """The text of every partition ``for_each(n)`` visits, a line each."""
    parts = []
    for_each(n, parts.append)
    return "".join(f"{p}\n" for p in parts)


class TestEnumerate:
    def test_streams_in_order(self, capsys):
        code, out, _ = invoke(capsys, "enumerate", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["1 / 2", "1,2", "1,-2"]

    def test_stats_annotation(self, capsys):
        _, out, _ = invoke(capsys, "enumerate", "--n", "2", "--stats")
        assert out.splitlines() == ["1 / 2\ts=2 a=0", "1,2\ts=0 a=2", "1,-2\ts=0 a=0"]

    def test_quiet_counts(self, capsys):
        _, out, _ = invoke(capsys, "enumerate", "--n", "5", "--quiet")
        assert out.strip() == "257"

    def test_quiet_builds_no_partition(self, capsys, monkeypatch):
        def fail(*args):
            raise AssertionError("enumerate --quiet built partitions")

        monkeypatch.setattr("bpartitions.enumeration.SignedPartition", fail)
        for n, count in (("5", "257"), ("0", "1")):
            code, out, _ = invoke(capsys, "enumerate", "--n", n, "--quiet")
            assert code == 0
            assert out == count + "\n"

    @pytest.mark.parametrize("n", range(8))
    def test_every_mode_prints_the_library_partitions(self, capsys, n):
        expected = _library_text(n)
        assert invoke(capsys, "enumerate", "--n", str(n)) == (0, expected, "")
        code, out, _ = invoke(capsys, "enumerate", "--n", str(n), "--stats")
        assert code == 0
        assert "".join(line.split("\t")[0] + "\n" for line in out.splitlines()) == expected

    def test_no_mode_builds_a_partition(self, capsys, monkeypatch):
        expected = {n: _library_text(n) for n in (0, 5)}

        def fail(*args):
            raise AssertionError("enumerate built partitions")

        monkeypatch.setattr("bpartitions.enumeration.SignedPartition", fail)
        for n, text in expected.items():
            assert invoke(capsys, "enumerate", "--n", str(n)) == (0, text, "")
            code, out, _ = invoke(capsys, "enumerate", "--n", str(n), "--stats")
            assert code == 0
            assert [line.split("\t")[0] for line in out.splitlines()] == text.splitlines()


class TestPoly:
    def test_n2(self, capsys):
        code, out, _ = invoke(capsys, "poly", "--n", "2")
        assert code == 0
        assert out.splitlines() == ["0 0 1", "0 2 1", "2 0 1", "SYMMETRIC"]

    def test_asymmetric_table_exits_3(self, capsys, monkeypatch):
        skewed = BivariateDistribution(1, ((1, 1), (0, 0)))
        monkeypatch.setattr("bpartitions.cli.distribution", lambda n, limit: skewed)
        assert invoke(capsys, "poly", "--n", "1") == (3, "0 0 1\n0 1 1\nASYMMETRIC\n", "")

    def test_guard_maps_to_invalid_input(self, capsys):
        code, _, err = invoke(capsys, "poly", "--n", "5", "--limit", "4")
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("limit", ["0", "-5"])
    def test_limit_below_one_is_a_usage_error(self, capsys, limit):
        code, out, err = invoke(capsys, "poly", "--n", "2", "--limit", limit)
        assert (code, out) == (1, "")
        assert "--limit must be at least 1" in err

    def test_past_the_reach_of_enumeration(self, capsys):
        code, out, _ = invoke(capsys, "poly", "--n", "13")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "SYMMETRIC"
        table = {}
        for line in lines[:-1]:
            s, a, c = map(int, line.split())
            table[s, a] = c
        assert all(table.get((a, s)) == c for (s, a), c in table.items())
        assert sum(table.values()) == total_count(13)


class TestCount:
    def test_total_default(self, capsys):
        code, out, _ = invoke(capsys, "count", "--n", "2")
        assert (code, out.strip()) == (0, "3")
        code, out, _ = invoke(capsys, "count", "--n", "2", "--total")
        assert (code, out.strip()) == (0, "3")

    def test_singleton_free(self, capsys):
        _, out, _ = invoke(capsys, "count", "--n", "4", "--singleton-free")
        assert out.strip() == "20"

    def test_egf(self, capsys):
        _, out, _ = invoke(capsys, "count", "--egf", "--upto", "4")
        assert out.splitlines() == ["0 1", "1 0", "2 2", "3 4", "4 20"]

    def test_egf_order_1000_digest(self, capsys):
        # sha256 of the output of the earlier convolution recurrence, recorded
        # before the triangle replaced it
        code, out, _ = invoke(capsys, "count", "--egf", "--upto", "1000")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == EGF_1000_DIGEST

    def test_egf_rejects_both_n_and_upto(self, capsys):
        code, out, err = invoke(capsys, "count", "--egf", "--n", "5", "--upto", "3")
        assert (code, out) == (1, "")
        assert "usage error" in err

    def test_missing_n(self, capsys):
        code, _, err = invoke(capsys, "count")
        assert code == 1

    def test_upto_without_egf(self, capsys):
        code, _, _ = invoke(capsys, "count", "--n", "3", "--upto", "5")
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["--n", str(COUNT_LIMIT + 1)],
            ["--n", str(COUNT_LIMIT + 1), "--singleton-free"],
            ["--egf", "--upto", str(COUNT_LIMIT + 1)],
            ["--egf", "--n", "2000"],
        ],
    )
    def test_size_guard(self, capsys, argv):
        # The census order, 300, must pass the guard, and |V_1801| is the
        # first count too long for int-to-text conversion.
        assert 300 <= COUNT_LIMIT < 1801
        code, out, err = invoke(capsys, "count", *argv)
        assert (code, out) == (2, "")
        assert f"size guard caps --n and --upto at {COUNT_LIMIT}" in err


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-n", "3")
        assert code == 0
        assert "0 failures" in out
        assert "FAIL" not in out

    def test_quiet_prints_summary_only(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--max-n", "2", "--quiet")
        assert code == 0
        assert len(out.splitlines()) == 1

    def test_jobs_are_clamped_to_cpus_and_slices(self, capsys, monkeypatch):
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr("os.cpu_count", lambda: 3)
        _, sequential, _ = invoke(capsys, "verify", "--max-n", "4")
        code, clamped, _ = invoke(capsys, "verify", "--max-n", "4", "--jobs", "1000")
        assert code == 0
        assert pools and all(w == 3 for w in pools)
        assert clamped.replace("jobs=1000", "jobs=1") == sequential

        pools.clear()
        monkeypatch.setattr("os.cpu_count", lambda: None)
        invoke(capsys, "verify", "--max-n", "4", "--jobs", "1000")
        assert pools == []

    def test_jobs_do_not_change_output(self, capsys):
        _, sequential, _ = invoke(capsys, "verify", "--max-n", "4")
        _, parallel, _ = invoke(capsys, "verify", "--max-n", "4", "--jobs", "2")
        assert parallel.replace("jobs=2", "jobs=1") == sequential


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert invoke(capsys, "no-such-command")[0] == 1
        assert invoke(capsys, "psi")[0] == 1

    def test_invalid_partition(self, capsys):
        code, _, err = invoke(capsys, "stats", "1,-1")
        assert code == 2
        assert "error" in err
        assert invoke(capsys, "psi", "1 / 3")[0] == 2
        assert invoke(capsys, "stats", "1,2", "--n", "3")[0] == 2

    def test_out_of_range_arguments(self, capsys):
        assert invoke(capsys, "poly", "--n", "0")[0] == 1
        assert invoke(capsys, "enumerate", "--n", "-1")[0] == 1
        assert invoke(capsys, "count", "--n", "-2")[0] == 1
        assert invoke(capsys, "count", "--egf", "--upto", "-1")[0] == 1
        assert invoke(capsys, "verify", "--max-n", "0")[0] == 1
        assert invoke(capsys, "verify", "--jobs", "0")[0] == 1
        assert invoke(capsys, "count", "--egf")[0] == 1

    @pytest.mark.parametrize(
        "command", ["stats", "psi", "psi-inv", "involution", "complement", "trace"]
    )
    def test_negative_forced_ground_is_a_usage_error(self, capsys, monkeypatch, command):
        class Unread(io.StringIO):
            def __iter__(self):
                raise AssertionError("stdin was read")

        monkeypatch.setattr("sys.stdin", Unread("1\n"))
        for argv in ([command, "1", "--n", "-1"], [command, "--stdin", "--n", "-3"]):
            assert invoke(capsys, *argv) == (1, "", "usage error: --n must be nonnegative\n")

    def test_huge_forced_ground_fails_fast_with_a_short_message(self, capsys):
        code, _, err = invoke(capsys, "stats", "1 / 2", "--n", "2000000")
        assert code == 2
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("zeros", [22, 4000])
    def test_forced_ground_too_large_for_a_machine_word(self, capsys, zeros):
        code, out, err = invoke(capsys, "stats", "1 / 2", "--n", "1" + "0" * zeros)
        assert (code, out) == (2, "")
        assert len(err.encode()) < 1024
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv", [["enumerate", "--quiet", "--n"], ["verify", "--max-n"], ["poly", "--n"]]
    )
    def test_huge_size_fails_fast_with_a_short_message(self, capsys, argv):
        code, out, err = invoke(capsys, *argv, "9" * 4000)
        assert (code, out) == (2, "")
        assert err.startswith("error: n=a 13288-bit number exceeds the size guard")
        assert len(err) < 100

    @pytest.mark.parametrize(
        "argv, limit",
        [(["enumerate", "--quiet", "--n"], ENUMERATE_LIMIT), (["verify", "--max-n"], VERIFY_LIMIT)],
    )
    def test_sweeps_are_guarded(self, capsys, argv, limit):
        # Both defaults admit the sizes the benchmark and the docs run.
        assert limit >= 7
        code, out, err = invoke(capsys, *argv, str(limit + 1))
        assert (code, out) == (2, "")
        assert err == f"error: n={limit + 1} exceeds the size guard {limit} of the " + (
            "enumeration\n" if argv[0] == "enumerate" else "verification sweep\n"
        )
        assert invoke(capsys, *argv, "3")[0] == 0

    def test_huge_element_is_a_parse_error(self, capsys):
        code, out, err = invoke(capsys, "stats", "1" + "0" * 5000)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "offset 0" in err
        assert len(err) < 200

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["stats", f"1,{'9' * 4000},-{'9' * 4000}"], "block contains both a 13288-bit"),
            (["stats", f"{'9' * 4000} / {'9' * 4000}"], "|a 13288-bit number| occurs"),
            (["psi", f"1 / {'9' * 4000}"], "index 1: a 13288-bit number vs 2"),
            # the bit length keeps the sign
            (["stats", f"1,{'9' * 4000},-{'9' * 4000}"], "and a negative 13288-bit number\n"),
        ],
    )
    def test_error_naming_a_huge_element_is_short(self, capsys, argv, message):
        # a 4,000-digit element parses, and the error it causes names it by
        # its bit length instead of echoing it
        code, out, err = invoke(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err
        assert len(err.encode()) < 200
        assert "Traceback" not in err

    def test_usage_error_does_not_echo_a_huge_argument(self, capsys):
        code, _, err = invoke(capsys, "stats", "1", "--n", "9" * 5000)
        assert code == 1
        assert err.startswith("usage error: argument --n: invalid int value: '999")
        assert len(err) < 200

    # psi "1 / 2" runs the kernel entry on its keys, with no partition built
    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(ground, blocks, key, side):
            raise ValueError("bug inside psi")

        monkeypatch.setattr("bpartitions.cli._swap", broken)
        with pytest.raises(ValueError, match="bug inside psi"):
            run(["psi", "1 / 2"])

    def test_internal_invariant_error_exits_3(self, capsys, monkeypatch):
        def broken(ground, blocks, key, side):
            raise InternalInvariantError("sabotaged")

        monkeypatch.setattr("bpartitions.cli._swap", broken)
        assert invoke(capsys, "psi", "1 / 2") == (3, "", "internal invariant violated: sabotaged\n")

    def test_help_exits_zero(self, capsys):
        assert invoke(capsys, "--help")[0] == 0
        assert invoke(capsys)[0] == 1

    def test_reader_closing_early_exits_quietly(self):
        # enumerate --n 7 writes about 300 KB, more than a pipe holds, so the
        # process is still writing when the reader stops after one line
        src = str(Path(bpartitions.__file__).resolve().parent.parent)
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-m", "bpartitions", "enumerate", "--n", "7"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=60)
        assert first == b"1 / 2 / 3 / 4 / 5 / 6 / 7\n"
        assert code == 141
        assert err == b""
