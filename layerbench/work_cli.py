"""cli: cold `python -m permpart.cli` invocations, one at a time.

A round is a fixed mix of seventeen invocations over every subcommand but
verify, in plain and JSON output, one of them reading its argument from
stdin.  Inputs are small (permutations of 7-8, partitions of 8), so process
start and imports set the time; the seed picks the argument values.  Every
stdout and exit code is compared with what the benchmark computes itself.
Children run on the pure backend (PERMPART_PURE=1), as an offline install
or a checkout would.
"""

from __future__ import annotations

import io
import json
import os
import random
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import gen
from harness import Op, Plan
from reference import (
    bell_numbers,
    blocks_of,
    brute_count,
    brute_least,
    catalan,
    format_blocks,
    format_seq,
    is_rgf,
    matchstick,
    restrict,
    standardize,
    word_of,
)

BACKEND = "pure-python"
TAIL_PCT = 90.0
PROBES = 7  # cold starts per import / interpreter probe in the traced run
ROOT = Path(__file__).resolve().parent.parent


def _json(record: dict) -> str:
    return json.dumps(record, separators=(",", ":"))


def _contains(command, kind, text, pattern, fmt, witness):
    """A contains / rgf-contains case with its expected stdout and exit code."""
    least = brute_least(kind, text, pattern)
    fmt_arg = format_blocks if kind == "partition" else format_seq
    argv = [command, fmt_arg(text), fmt_arg(pattern)]
    if command == "contains":
        argv += ["--kind", kind]
    if witness:
        argv.append("--witness")
    argv += ["--format", fmt]
    if fmt == "json":
        record = {"command": command, "contains": least is not None}
        if witness and least is not None:
            record["witness"] = list(least)
        out = _json(record)
    else:
        out = "true" if least is not None else "false"
        if witness and least is not None:
            out += "\n" + format_seq(least)
    return argv, None, out, 0 if least is not None else 1


def mix(rng: random.Random) -> list[tuple[list[str], str | None, str, int]]:
    """One round: (argv, stdin text or None, expected stdout, expected exit)."""
    t = gen.perm(rng, 8)
    p = standardize([t[i - 1] for i in gen.planted(rng, t, 3)])
    t_neg, p_neg = gen.avoids_321(rng, 8), gen.pattern_with_321(rng, 4)
    blocks = gen.partition(rng, 8, max_blocks=4)
    pb = restrict(blocks, gen.planted(rng, range(8), 4))
    word = gen.rgf(rng, 8, max_blocks=4)
    pw = standardize([word[i - 1] for i in gen.planted(rng, word, 3)])
    pw = pw if is_rgf(pw) else (1, 2, 1)
    perm7 = gen.perm(rng, 7)
    containers = bell_numbers(6)[6] - catalan(6)

    cases = [
        _contains("contains", "perm", t, p, "plain", False),
        _contains("contains", "perm", t, p, "json", True),
        _contains("contains", "perm", t_neg, p_neg, "plain", True),
        _contains("contains", "partition", blocks, pb, "plain", True),
        _contains("contains", "partition", blocks, ((1, 2, 3, 4, 5),), "json", True),
        _contains("rgf-contains", "rgf", word, pw, "plain", True),
        _contains("rgf-contains", "rgf", word, (1, 2, 3, 4, 5), "json", False),
    ]
    for kind, text, pattern, fmt_arg, fmt in (
        ("perm", t, p, format_seq, "json"),
        ("partition", blocks, pb, format_blocks, "plain"),
        ("rgf", word, pw, format_seq, "json"),
    ):
        count = brute_count(kind, text, pattern)
        argv = ["count", fmt_arg(text), fmt_arg(pattern), "--kind", kind, "--format", fmt]
        cases.append((argv, None, _json({"command": "count", "count": count}) if fmt == "json" else str(count), 0))
    reduced = format_blocks(matchstick(perm7))
    cases += [
        (["reduce", format_seq(perm7)], None, reduced, 0),
        (["reduce", "-", "--format", "json"], format_seq(perm7), _json({"command": "reduce", "result": reduced}), 0),
        (["invert-reduce", reduced], None, format_seq(perm7), 0),
        (["rgf", format_blocks(blocks), "--format", "json"], None,
         _json({"command": "rgf", "result": format_seq(word_of(blocks))}), 0),
        (["rgf", format_seq(word), "--invert"], None, format_blocks(blocks_of(word)), 0),
        (["census", "6", "1,3/2,4"], None,
         f"n=6 pattern=1,3/2,4 notion=partition avoiders={catalan(6)} containers={containers}", 0),
        (["census", "6", "1,2,1,2", "--notion", "rgf", "--format", "json"], None,
         _json({"command": "census", "n": 6, "pattern": "1,2,1,2", "notion": "rgf",
                "avoiders": catalan(6), "containers": containers}), 0),
    ]
    return cases


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PERMPART_PURE="1")


def _spawn(args: list[str], stdin: str | None, env: dict) -> tuple[str, int, float]:
    """Run `python ARGS` to completion; returns (stdout, exit code, peak RSS
    of that child in MB)."""
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=env, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    out = ""
    try:
        proc.stdin.write(stdin or "")
        proc.stdin.close()
        out = proc.stdout.read()
    finally:
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
    return out, proc.returncode, usage.ru_maxrss / 1024


def _output_check(expected: str, code: int):
    def check(result):
        out, rc = result
        if (out.rstrip("\n"), rc) != (expected, code):
            return f"stdout {out!r} exit {rc}, expected {expected!r} exit {code}"
        return None

    return check


def setup(seed: int, quick: bool) -> Plan:
    cases = mix(random.Random(f"cli:{seed}"))
    env = _env()
    # Warm-up (file cache and bytecode of everything the CLI imports) and the
    # children's backend, in one cold child.
    probe = "import permpart, permpart.cli; print(permpart.kernel_backend())"
    backend = _spawn(["-c", probe], None, env)[0].strip()
    if backend != BACKEND:
        raise RuntimeError(f"children run the {backend} backend, expected {BACKEND}")

    peak = [0.0]
    invoked: list[int] = []
    replay_errors: list[str] = []

    def op(index: int):
        argv, stdin, _, _ = cases[index]

        def fn():
            invoked.append(index)
            out, rc, rss = _spawn(["-m", "permpart.cli", *argv], stdin, env)
            peak[0] = max(peak[0], rss)
            return out, rc

        return fn

    ops = [Op(" ".join(argv), op(i), _output_check(expected, code))
           for i, (argv, _, expected, code) in enumerate(cases)]

    def trace_extras() -> dict[str, float]:
        """Replay every timed invocation in-process through run_command
        (traced), then time cold imports and bare interpreter starts."""
        import permpart.cli as cli

        saved_stdin = sys.stdin
        try:
            for index in invoked:
                argv, stdin, expected, code = cases[index]
                sys.stdin = io.StringIO(stdin or "")
                buffer = io.StringIO()
                with redirect_stdout(buffer):
                    rc = cli.run_command(argv)
                problem = _output_check(expected, code)((buffer.getvalue(), rc))
                if problem:
                    replay_errors.append(f"in-process {argv}: {problem}")
        finally:
            sys.stdin = saved_stdin
        probe = "import time; t = time.perf_counter(); import permpart.cli; print(time.perf_counter() - t)"
        imports = [float(_spawn(["-c", probe], None, env)[0]) for _ in range(PROBES)]
        starts = []
        for _ in range(PROBES):
            t0 = time.perf_counter()
            _spawn(["-c", "pass"], None, env)
            starts.append(time.perf_counter() - t0)
        return {"cli.import_ms": 1e3 * statistics.median(imports),
                "cli.interp_ms": 1e3 * statistics.median(starts)}

    return Plan(ops, post_checks=lambda: replay_errors, peak_rss_mb=lambda: peak[0],
                trace_extras=trace_extras)
