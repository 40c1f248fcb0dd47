import io
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from permpart import (
    SetPartition,
    VerificationReport,
    brute_partition_contains,
    dispatch_contains,
)
from permpart import _backend, _kernels_py, cli, oracle
from permpart.cli import (
    ParseError,
    format_partition,
    format_permutation,
    format_rgf,
    parse_partition,
    parse_permutation,
    parse_rgf,
    run_command,
)
from helpers import partitions_of, perms_of, rgf_words_of


def run(capsys, argv, stdin=None):
    if stdin is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin)
        try:
            code = run_command(argv)
        finally:
            sys.stdin = old
    else:
        code = run_command(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsers:
    def test_permutation_grammars(self):
        assert parse_permutation("2,3,1").values == (2, 3, 1)
        assert parse_permutation("2 3 1").values == (2, 3, 1)
        assert parse_permutation("  2, 3, 1 ").values == (2, 3, 1)
        assert parse_permutation("").values == ()

    def test_permutation_errors(self):
        with pytest.raises(ParseError, match="duplicate value 2"):
            parse_permutation("2,2,1")
        with pytest.raises(ParseError, match="missing value 3"):
            parse_permutation("2,4,1")
        with pytest.raises(ParseError, match="empty token at position 2"):
            parse_permutation("1,,2")
        with pytest.raises(ParseError, match="invalid token"):
            parse_permutation("1,x,2")

    def test_partition_grammars(self):
        assert parse_partition("1,3/2,4").blocks == ((1, 3), (2, 4))
        assert parse_partition("2,4/1,3").blocks == ((1, 3), (2, 4))
        assert parse_partition("13/24") == parse_partition("1,3/2,4")
        assert parse_partition("").blocks == ()

    def test_partition_errors(self):
        with pytest.raises(ParseError, match="missing element 4"):
            parse_partition("1,3/2,5")
        with pytest.raises(ParseError, match="repeated element 2"):
            parse_partition("1,2/2,3")
        with pytest.raises(ParseError, match="empty block"):
            parse_partition("1,2//3")
        # the compact reading's error is kept when the element reading fails too
        with pytest.raises(ParseError, match="repeated element 1"):
            parse_partition("11/x")
        with pytest.raises(ParseError, match="invalid element 0 in block 4"):
            parse_partition("1/2/3/01")
        with pytest.raises(ParseError, match="repeated element 1"):
            parse_partition("1/2/3/4/5/6/7/8/9/11")

    def test_all_singletons_past_nine(self):
        for n in (10, 11, 12):
            sigma = SetPartition(tuple((e,) for e in range(1, n + 1)))
            text = format_partition(sigma)
            assert text == "/".join(map(str, range(1, n + 1)))
            assert parse_partition(text) == sigma
            assert parse_partition(" " + "/".join(map(str, range(n, 0, -1)))) == sigma

    def test_rgf_grammar(self):
        assert parse_rgf("1,2,1,2").letters == (1, 2, 1, 2)
        with pytest.raises(ParseError, match="restricted growth"):
            parse_rgf("2,1")

    def test_roundtrips_exhaustive(self):
        for n in range(7):
            for perm in perms_of(n):
                assert parse_permutation(format_permutation(perm)) == perm
            for sigma in partitions_of(n):
                assert parse_partition(format_partition(sigma)) == sigma
            for word in rgf_words_of(n):
                assert parse_rgf(format_rgf(word)) == word


class TestGoldens:
    def test_contains_partition_json(self, capsys):
        code, out, err = run(
            capsys,
            ["contains", "--kind", "partition", "1,3/2,4", "1,2", "--witness", "--format", "json"],
        )
        assert code == 0
        assert out == '{"command":"contains","contains":true,"witness":[1,3]}\n'

    def test_reduce_plain(self, capsys):
        code, out, err = run(capsys, ["reduce", "2,3,1"])
        assert code == 0
        assert out == "1,5/2,6/3,4\n"

    def test_contains_perm_false(self, capsys):
        code, out, err = run(capsys, ["contains", "--kind", "perm", "1,2,3", "2,1"])
        assert code == 1
        assert out == "false\n"


class TestExitCodes:
    def test_parse_error_is_2(self, capsys):
        code, out, err = run(capsys, ["contains", "--kind", "perm", "2,2,1", "1"])
        assert code == 2
        assert "duplicate value 2" in err
        assert out == ""

    def test_non_ascii_digits_are_2(self, capsys):
        # str.isdigit passes these; int() reads the Arabic-Indic digits as
        # 1, 2 and 10 and rejects the superscript two
        perm, partition = ["--kind", "perm"], ["--kind", "partition"]
        for argv, message in (
            (["contains", "\u0661,\u0662", "1", *perm], "invalid token '\u0661' at position 1"),
            (["contains", "1\u00b2", "1", *perm], "invalid token '1\u00b2' at position 1"),
            (["rgf-contains", "1,\u0662", "1"], "invalid token '\u0662' at position 2"),
            (["contains", "1/2", "1\u00b2", *partition], "invalid block '1\u00b2' at position 1"),
            (
                ["count", "1/2/3/4/5/6/7/8/9/\u0661\u0660", "1", *partition],
                "invalid block '\u0661\u0660' at position 10",
            ),
        ):
            code, out, err = run(capsys, argv)
            assert (code, out, err) == (2, "", f"error: {message}\n"), argv

    def test_element_reader_takes_ascii_digits_only(self):
        # the partition parser reports the compact reading's error, so the
        # element reader is asked directly
        assert cli._element_block("10", 10) == [10]
        for token in ("\u0661\u0660", "1\u00b2", "\uff11"):
            with pytest.raises(ParseError, match=f"invalid element '{token}' at position 10"):
                cli._element_block(token, 10)

    def test_usage_error_is_2(self, capsys):
        code, out, err = run(capsys, ["contains", "1,2", "1"])  # missing --kind
        assert code == 2

    def test_help_is_0(self, capsys):
        code, out, err = run(capsys, ["--help"])
        assert code == 0

    def test_two_stdin_arguments_are_2(self, capsys):
        for argv in (
            ["contains", "-", "-", "--kind", "partition"],
            ["count", "-", "-", "--kind", "rgf"],
            ["rgf-contains", "-", "-"],
        ):
            code, out, err = run(capsys, argv, stdin="1,2/3\n")
            assert (code, out) == (2, "")
            assert "at most one argument may be '-'" in err

    def test_jobs_below_one_is_2(self, capsys):
        for jobs in ("0", "-3"):
            for argv in (["census", "4", "1,2"], ["verify", "reduction", "--max-n", "2"]):
                code, out, err = run(capsys, argv + ["--jobs", jobs])
                assert (code, out) == (2, "")
                assert "--jobs" in err and "at least 1" in err

    def test_counts_take_ascii_digits_only(self, capsys):
        # int() reads the Arabic-Indic four, the fullwidth one and "1_0"
        for token in ("\u0664", "\uff11", "1_0", "+4", " 4", "4.0", "-", "-\u0661"):
            for argv in (
                ["census", token, "1,2"],
                ["verify", "reduction", "--max-n", token, "--max-k", "1"],
                ["verify", "reduction", "--max-n", "1", "--max-k", token],
                ["census", "4", "1,2", "--jobs", token],
            ):
                code, out, err = run(capsys, argv)
                assert (code, out) == (2, ""), argv
                assert f"invalid int value: {token!r}" in err, argv

    def test_negative_counts_reach_the_bound_checks(self, capsys):
        for argv, message in (
            (["census", "-1", "1,2"], "error: n must be nonnegative\n"),
            (["verify", "reduction", "--max-n", "-1"], "error: bounds must be nonnegative\n"),
            (["verify", "reduction", "--max-k", "-2"], "error: bounds must be nonnegative\n"),
        ):
            assert run(capsys, argv) == (2, "", message), argv
        assert run(capsys, ["census", "04", "1,2"])[:2] == (
            0,
            "n=4 pattern=1,2 notion=partition avoiders=1 containers=14\n",
        )

    def test_bound_refusal_is_2(self, capsys):
        code, out, err = run(capsys, ["census", "11", "1,2"])
        assert code == 2
        assert "runaway" in err

    def test_dichotomy_matches_printed_boolean(self, capsys):
        for text in partitions_of(4):
            for pattern in partitions_of(2):
                code, out, err = run(
                    capsys,
                    [
                        "contains",
                        "--kind",
                        "partition",
                        format_partition(text),
                        format_partition(pattern),
                    ],
                )
                assert (code, out) in ((0, "true\n"), (1, "false\n"))
                assert (code == 0) == dispatch_contains(text, pattern).contains


class TestCommands:
    def test_contains_witness_plain(self, capsys):
        code, out, err = run(
            capsys, ["contains", "--kind", "partition", "1,3/2,4", "1,2", "--witness"]
        )
        assert code == 0
        assert out == "true\n1,3\n"

    def test_contains_oracle_agrees(self, capsys):
        for text in partitions_of(4):
            for pattern in partitions_of(3):
                argv = [
                    "contains",
                    "--kind",
                    "partition",
                    format_partition(text),
                    format_partition(pattern),
                ]
                code, out, err = run(capsys, argv)
                oracle_code, oracle_out, _ = run(capsys, argv + ["--oracle"])
                assert (code, out) == (oracle_code, oracle_out)

    def test_oracle_witness_rejected(self, capsys):
        code, out, err = run(
            capsys,
            ["contains", "--kind", "partition", "1,3/2,4", "1,2", "--oracle", "--witness"],
        )
        assert code == 2

    def test_count_kinds(self, capsys):
        assert run(capsys, ["count", "--kind", "perm", "2,3,1", "2,1"])[:2] == (0, "2\n")
        assert run(capsys, ["count", "--kind", "partition", "1,3/2,4", "1,2"])[:2] == (
            0,
            "2\n",
        )
        code, out, err = run(
            capsys, ["count", "--kind", "rgf", "1,1,1", "1,1", "--format", "json"]
        )
        assert (code, out) == (0, '{"command":"count","count":3}\n')

    def test_count_past_two_to_the_64_is_2(self, capsys):
        # C(70, 35), about 1.1e20: one block of 70 against one of 35, or the
        # word of 70 ones against 35 of them.
        block, half = ",".join(map(str, range(1, 71))), ",".join(map(str, range(1, 36)))
        for argv in (
            ["count", "--kind", "partition", block, half],
            ["count", "--kind", "rgf", ",".join("1" * 70), ",".join("1" * 35)],
        ):
            assert run(capsys, argv) == (2, "", "error: count exceeds 2**64 - 1\n"), argv

    def test_stdin_dash(self, capsys):
        code, out, err = run(capsys, ["reduce", "-"], stdin="2,3,1\n")
        assert (code, out) == (0, "1,5/2,6/3,4\n")

    def test_invert_reduce(self, capsys):
        code, out, err = run(capsys, ["invert-reduce", "1,5/2,6/3,4"])
        assert (code, out) == (0, "2,3,1\n")
        code, out, err = run(capsys, ["invert-reduce", "1,2/3,4"])
        assert code == 2 and "matchstick" in err

    def test_reduce_invert_roundtrip(self, capsys):
        for perm in perms_of(4):
            code, out, err = run(capsys, ["reduce", format_permutation(perm)])
            assert code == 0
            code, out, err = run(capsys, ["invert-reduce", out.strip()])
            assert (code, out.strip()) == (0, format_permutation(perm))

    def test_rgf_command(self, capsys):
        code, out, err = run(capsys, ["rgf", "1,4/2,6/3,5"])
        assert (code, out) == (0, "1,2,3,1,3,2\n")
        code, out, err = run(capsys, ["rgf", "1,2,3,1,3,2", "--invert"])
        assert (code, out) == (0, "1,4/2,6/3,5\n")

    def test_rgf_contains(self, capsys):
        code, out, err = run(capsys, ["rgf-contains", "1,2,2,1", "1,1,2"])
        assert (code, out) == (1, "false\n")
        code, out, err = run(
            capsys, ["rgf-contains", "1,2,1,2", "1,1", "--witness", "--format", "json"]
        )
        assert (code, out) == (
            0,
            '{"command":"rgf-contains","contains":true,"witness":[1,3]}\n',
        )

    def test_rgf_roundtrip_past_nine(self, capsys):
        for n in (10, 11, 12):
            word = ",".join(map(str, range(1, n + 1)))
            code, out, err = run(capsys, ["rgf", "--invert", word])
            assert (code, out) == (0, "/".join(map(str, range(1, n + 1))) + "\n")
            code, out, err = run(capsys, ["rgf", "-"], stdin=out)
            assert (code, out) == (0, word + "\n")

    def test_jobs_do_not_change_output(self, capsys):
        for argv in (
            ["verify", "--max-n", "4", "--max-k", "3", "--format", "json"],
            ["census", "6", "1,3/2,4", "--format", "json"],
            ["census", "6", "1,2,1,2", "--notion", "rgf", "--format", "json"],
        ):
            serial = run(capsys, argv + ["--jobs", "1"])
            assert serial[0] == 0
            assert run(capsys, argv + ["--jobs", "2"]) == serial

    def test_census_json_golden(self, capsys):
        code, out, err = run(capsys, ["census", "4", "1,2", "--format", "json"])
        assert code == 0
        assert out == (
            '{"command":"census","n":4,"pattern":"1,2","notion":"partition",'
            '"avoiders":1,"containers":14}\n'
        )

    def test_census_rgf_notion(self, capsys):
        code, out, err = run(capsys, ["census", "4", "1,1", "--notion", "rgf"])
        assert (code, out) == (0, "n=4 pattern=1,1 notion=rgf avoiders=1 containers=14\n")

    def test_verify_json_shape(self, capsys):
        code, out, err = run(
            capsys,
            ["verify", "reduction", "--max-n", "3", "--max-k", "3", "--format", "json"],
        )
        assert code == 0
        record = json.loads(out)
        assert list(record) == [
            "command", "gate", "max_n", "max_k", "pairs_checked", "mismatches",
        ]
        assert record["pairs_checked"] == 81 and record["mismatches"] == []
        assert out.count("\n") == 1  # single-line record

    def test_verify_all_plain(self, capsys):
        code, out, err = run(
            capsys, ["verify", "--max-n", "3", "--max-k", "2", "--jobs", "2"]
        )
        assert code == 0
        assert "gate=reduction" in out and "gate=rgf" in out
        assert out.count(" ok") == 2

    def test_verify_passes_only_given_bounds(self, capsys, monkeypatch):
        # the gates' own signature defaults apply when no bound is given; the
        # CLI looks the gates up on permpart.oracle when verify runs
        calls = []

        def recorder(gate):
            def fake(**kwargs):
                calls.append((gate, kwargs))
                return VerificationReport(0, 0, 0, (), 0.0)

            return fake

        monkeypatch.setattr(oracle, "verify_reduction", recorder("reduction"))
        monkeypatch.setattr(oracle, "verify_rgf_coincidence", recorder("rgf"))
        for argv, bounds in (
            ([], {}),
            (["--max-n", "3"], {"max_n": 3}),
            (["--max-k", "2"], {"max_k": 2}),
            (["--max-n", "7", "--max-k", "0", "--force"], {"max_n": 7, "max_k": 0}),
        ):
            calls.clear()
            code, out, err = run(capsys, ["verify", *argv, "--jobs", "2"])
            assert code == 0
            force = "--force" in argv
            assert calls == [
                (gate, {**bounds, "force": force, "jobs": 2}) for gate in ("reduction", "rgf")
            ]

    def test_verify_bound_refusal(self, capsys):
        code, out, err = run(capsys, ["verify", "reduction", "--max-n", "8"])
        assert code == 2 and "runaway" in err

    def test_json_outputs_are_single_lines(self, capsys):
        for argv in (
            ["contains", "--kind", "perm", "1,3,2", "2,1", "--format", "json"],
            ["reduce", "2,1", "--format", "json"],
            ["rgf", "1,2/3", "--format", "json"],
            ["census", "3", "1,2", "--format", "json"],
        ):
            code, out, err = run(capsys, argv)
            assert out.endswith("\n") and out.count("\n") == 1
            json.loads(out)


def test_ctrl_c_ends_the_cli_with_130_and_one_line():
    # A pure-backend count that runs for minutes, interrupted at 0.5 s.
    source_root = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    text = ",".join(map(str, range(1, 121)))
    child = subprocess.Popen(
        [sys.executable, "-m", "permpart.cli", "count", text, "1,2,3,4,5,6", "--kind", "perm"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PERMPART_PURE="1", PYTHONPATH=path),
    )
    try:
        time.sleep(0.5)
        child.send_signal(signal.SIGINT)
        out, err = child.communicate(timeout=30)
    finally:
        child.kill()
        child.wait()
    assert child.returncode == 130
    assert out == "" and err == "error: interrupted\n"


def children_of(pid):
    """The pids whose parent is pid, read from /proc."""
    found = []
    for entry in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:  # the process has gone
            continue
        # state, then the parent pid, follow the command name in parentheses
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == pid:
            found.append(int(entry))
    return found


def jobs_census_with_its_pool_up(n):
    """A pure-backend `census n 1,3/2,4 --force --jobs 2` in a session of its
    own, once a pool worker shows in /proc."""
    source_root = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    child = subprocess.Popen(
        [sys.executable, "-m", "permpart.cli", "census", str(n), "1,3/2,4", "--force", "--jobs", "2"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=dict(os.environ, PERMPART_PURE="1", PYTHONPATH=path),
        start_new_session=True,
    )
    deadline = time.monotonic() + 30
    while not children_of(child.pid) and child.poll() is None and time.monotonic() < deadline:
        time.sleep(0.05)
    if not children_of(child.pid):
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        pytest.fail("no pool worker started")
    time.sleep(0.2)
    return child


def assert_group_ends(child):
    """Wait for the child, then for every process of its group, which it
    leads, to go, for up to 10 s; the group is killed in any case."""
    pgid = child.pid
    try:
        out, err = child.communicate(timeout=30)
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        with pytest.raises(ProcessLookupError):
            os.killpg(pgid, 0)
    finally:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        child.wait()
    return out, err


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to see the pool")
def test_ctrl_c_ends_a_jobs_census_and_its_workers():
    # A terminal's Ctrl-C goes to the whole process group: here the group
    # of a pure-backend census that runs for seconds, sent SIGINT once its
    # pool's workers are up.  The CLI and every worker must be gone at once.
    child = jobs_census_with_its_pool_up(13)
    os.killpg(child.pid, signal.SIGINT)
    out, err = assert_group_ends(child)
    assert child.returncode == 130
    assert out == "" and err == "error: interrupted\n"


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc to see the pool")
def test_sigint_to_the_cli_alone_ends_a_jobs_census_and_its_workers():
    # kill -INT <pid>: the workers get no signal, so the CLI must stop them
    # itself instead of waiting for their chunks, about 15 s each here.
    child = jobs_census_with_its_pool_up(14)
    sent = time.monotonic()
    child.send_signal(signal.SIGINT)
    out, err = assert_group_ends(child)
    assert child.returncode == 130
    assert out == "" and err == "error: interrupted\n"
    assert time.monotonic() - sent < 5


def test_run_command_lets_ctrl_c_through(monkeypatch):
    # Library callers see the KeyboardInterrupt; only cli.main turns it
    # into exit code 130.
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "_cmd_count", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_command(["count", "1,2,3", "1,2", "--kind", "perm"])
    monkeypatch.setattr(sys, "argv", ["permpart", "count", "1,2,3", "1,2", "--kind", "perm"])
    with pytest.raises(SystemExit) as exit:
        cli.main()
    assert exit.value.code == 130


@pytest.mark.parametrize("backend", ["compiled", "pure-python"])
def test_census_n_past_a_c_int_is_2(capsys, monkeypatch, request, backend):
    kernels = request.getfixturevalue("compiled") if backend == "compiled" else _kernels_py
    monkeypatch.setattr(_backend, "kernels", kernels)
    for n in ("2147483647", "3000000000"):
        assert run(capsys, ["census", n, "1/2", "--force"]) == (
            2,
            "",
            "error: n must be below 2**31 - 1\n",
        ), n


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_forced_census_prints_every_digit_of_bell():
    # Bell(2000) has more than the 4,300 digits an int prints by default;
    # the console entry lifts that limit for its own process only.
    source_root = str(Path(cli.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        containers = str(oracle.bell_number(2000) - 1)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(containers) > 4300
    rows = {
        "plain": f"n=2000 pattern=1/2 notion=partition avoiders=1 containers={containers}\n",
        "json": '{"command":"census","n":2000,"pattern":"1/2","notion":"partition",'
        f'"avoiders":1,"containers":{containers}}}\n',
    }
    for fmt, row in rows.items():
        proc = subprocess.run(
            [sys.executable, "-m", "permpart.cli", "census", "2000", "1/2", "--force"]
            + ["--format", fmt],
            capture_output=True,
            text=True,
            env=dict(os.environ, PERMPART_PURE="1", PYTHONPATH=path),
            timeout=60,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, row, ""), fmt


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no digit limit")
def test_run_command_keeps_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, ["census", "4", "1,2"])[0] == 0
    assert sys.get_int_max_str_digits() == limit


# Argument lists that end in the parser: help, a missing argument, a bad
# choice, an unknown option or command.  Each command's parser alone must
# answer them as the full parser does.
PARSER_CASES = [
    [],
    ["--help"],
    ["-h"],
    ["bogus"],
    ["bogus", "--help"],
    ["Count", "1", "1"],
    ["--format", "json", "count", "1", "1", "--kind", "perm"],
    *([command, "--help"] for command in cli._COMMANDS),
    ["contains"],
    ["contains", "1"],
    ["contains", "1", "1"],
    ["count", "1", "1"],
    ["reduce"],
    ["invert-reduce"],
    ["rgf"],
    ["rgf-contains", "1"],
    ["census", "4"],
    ["census", "4", "1,2", "--jobs"],
    ["verify", "--max-n"],
    ["contains", "1", "1", "--kind", "rgf"],
    ["count", "1", "1", "--kind", "word"],
    ["census", "4", "1,2", "--notion", "perm"],
    ["verify", "--notion", "rgf"],
    ["verify", "every"],
    *([command, "1", "--format", "xml"] for command in cli._COMMANDS),
    *([command, "1", "1", "--bogus"] for command in cli._COMMANDS),
    ["contains", "2,1", "1", "--kind", "perm", "extra"],
    ["census", "x", "1,2"],
    ["census", "4", "1,2", "--jobs", "0"],
]


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_one_subparser_answers_as_the_full_parser(capsys, monkeypatch, argv):
    full_parser = cli._build_parser
    built = []

    def spy(command=None):
        built.append(command)
        return full_parser(command)

    monkeypatch.setattr(cli, "_build_parser", spy)
    one = run(capsys, argv)
    assert built == [argv[0] if argv and argv[0] in cli._COMMANDS else None]
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: full_parser())
    assert run(capsys, argv) == one
    assert one[0] in (0, 2) and "usage:" in one[1] + one[2]  # the parser answered
