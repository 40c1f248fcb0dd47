"""Command-line front end.

Text grammars (all elements 1-based, in ASCII decimal digits):

- permutation: values separated by commas or whitespace, "2,3,1" or "2 3 1";
- partition: blocks joined by "/", elements within a block comma-separated,
  "1,3/2,4"; when the input contains no comma at all, each block may be a
  digit string ("13/24"), accepted only while every element is a single
  digit and never emitted; comma-free input that is no partition in this
  compact form is read with each block as one element ("1/2/.../10");
- word: letters separated by commas or whitespace, "1,2,1,2", and must
  satisfy restricted growth.

Any positional argument may be "-" to read the value from stdin, at most
one per invocation.  Counts (census N, ``--max-n``, ``--max-k``,
``--jobs``) are ASCII decimal digits with an optional "-"; ``--jobs`` takes
a count of at least 1.  Results go to stdout, errors to stderr.  JSON
output is one record per line with keys in the documented order.

Exit codes: 0 = success, and for relational commands the relation holds;
1 = the relation does not hold; 2 = usage or parse error; 3 = a verify run
found mismatches; 130 = interrupted by Ctrl-C (SIGINT).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

from .core import Permutation, RGFWord, SetPartition, partition_of_rgf, rgf_of
from .matchers import (
    MatchResult,
    partition_contains,
    partition_count,
    perm_contains,
    perm_count,
    rgf_contains,
    rgf_count,
)
from .reduction import perm_of_matchstick, reduce_perm

# The oracle (and through it the process pool) is imported by the commands
# that use it, so the other commands start without it.
if TYPE_CHECKING:
    from .oracle import VerificationReport


class ParseError(ValueError):
    """Malformed input text; the message names the offending token."""


def _int_tokens(text: str, what: str) -> list[int]:
    stripped = text.strip()
    if not stripped:
        return []
    if "," in stripped:
        tokens = [t.strip() for t in stripped.split(",")]
    else:
        tokens = stripped.split()
    values = []
    for position, token in enumerate(tokens, start=1):
        if not token:
            raise ParseError(f"empty token at position {position}")
        if not (token.isascii() and token.isdigit()):
            raise ParseError(f"invalid token {token!r} at position {position}")
        value = int(token)
        if value < 1:
            raise ParseError(f"invalid {what} {value} at position {position}")
        values.append(value)
    return values


def parse_permutation(text: str) -> Permutation:
    """Parse "2,3,1" or "2 3 1"; rejects non-bijective words."""
    values = _int_tokens(text, "value")
    seen = set()
    for position, value in enumerate(values, start=1):
        if value in seen:
            raise ParseError(f"duplicate value {value} at position {position}")
        seen.add(value)
    for value in range(1, len(values) + 1):
        if value not in seen:
            raise ParseError(f"missing value {value}")
    return Permutation(tuple(values))


def parse_partition(text: str) -> SetPartition:
    """Parse "1,3/2,4" (or compact "13/24"); rejects gaps and repeats.

    Comma-free input whose compact reading is not a partition is read once
    more with each block token as one element, so that all-singleton
    partitions of [n >= 10] such as "1/2/.../10" can be entered.  The two
    readings never both succeed: an element 10 puts a digit 0 in the compact
    reading, which is never valid.
    """
    stripped = text.strip()
    if not stripped:
        return SetPartition(())
    tokens = [token.strip() for token in stripped.split("/")]
    if "," in stripped:
        return _partition_of_blocks(tokens, lambda token, _: _int_tokens(token, "element"))
    try:
        return _partition_of_blocks(tokens, _compact_block)
    except ParseError as compact_error:
        try:
            return _partition_of_blocks(tokens, _element_block)
        except ParseError:
            raise compact_error from None


def _compact_block(token: str, index: int) -> list[int]:
    if not (token.isascii() and token.isdigit()):
        raise ParseError(f"invalid block {token!r} at position {index}")
    return [int(ch) for ch in token]


def _element_block(token: str, index: int) -> list[int]:
    if not (token.isascii() and token.isdigit()) or token.startswith("0"):
        raise ParseError(f"invalid element {token!r} at position {index}")
    return [int(token)]


def _partition_of_blocks(tokens: list[str], read) -> SetPartition:
    """Partition from its block tokens, each read into elements by read(token,
    position); checks that the blocks partition [n]."""
    blocks: list[tuple[int, ...]] = []
    seen: set[int] = set()
    for index, token in enumerate(tokens, start=1):
        if not token:
            raise ParseError(f"empty block at position {index}")
        elements = read(token, index)
        if not elements:
            raise ParseError(f"empty block at position {index}")
        for element in elements:
            if element < 1:
                raise ParseError(f"invalid element {element} in block {index}")
            if element in seen:
                raise ParseError(f"repeated element {element}")
            seen.add(element)
        blocks.append(tuple(elements))
    for element in range(1, max(seen) + 1):
        if element not in seen:
            raise ParseError(f"missing element {element}")
    return SetPartition(tuple(blocks))


def parse_rgf(text: str) -> RGFWord:
    """Parse "1,2,1,2" or "1 2 1 2"; rejects words violating restricted
    growth."""
    letters = _int_tokens(text, "letter")
    try:
        return RGFWord(tuple(letters))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_permutation(perm: Permutation) -> str:
    return ",".join(map(str, perm.values))


def format_partition(sigma: SetPartition) -> str:
    return "/".join(",".join(map(str, block)) for block in sigma.blocks)


def format_rgf(word: RGFWord) -> str:
    return ",".join(map(str, word.letters))


class _Kind(NamedTuple):
    """How the CLI serves one structure kind."""

    parse: Callable[[str], Any]
    format: Callable[[Any], str]
    contains: Callable[[Any, Any], MatchResult]
    count: Callable[[Any, Any], int]


# Keyed by the values of --kind and --notion.
_KINDS = {
    "perm": _Kind(parse_permutation, format_permutation, perm_contains, perm_count),
    "partition": _Kind(parse_partition, format_partition, partition_contains, partition_count),
    "rgf": _Kind(parse_rgf, format_rgf, rgf_contains, rgf_count),
}


def _read_args(*values: str) -> list[str]:
    # stdin holds one value: a second "-" would read it empty.
    if values.count("-") > 1:
        raise ParseError("at most one argument may be '-' (stdin)")
    return [sys.stdin.read().strip() if value == "-" else value for value in values]


def ascii_int(text: str) -> int:
    """A count argument: an optional "-" and ASCII decimal digits only, where
    int() would also read other scripts' digits and underscores."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def positive_int(text: str) -> int:
    value = ascii_int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _emit(fmt: str, record: dict, plain_lines: list[str]) -> None:
    if fmt == "json":
        # Imported here: a plain-format run does not load json.
        import json

        print(json.dumps(record, separators=(",", ":")))
    else:
        for line in plain_lines:
            print(line)


def _cmd_contains(ns: argparse.Namespace) -> int:
    """contains, and rgf-contains as kind "rgf"."""
    text_raw, pattern_raw = _read_args(ns.text, ns.pattern)
    if ns.oracle and ns.kind != "partition":
        raise ParseError("--oracle applies only to --kind partition")
    kind = _KINDS[ns.kind]
    text, pattern = kind.parse(text_raw), kind.parse(pattern_raw)
    if ns.oracle:
        if ns.witness:
            raise ParseError("--oracle yields no witness; drop --witness")
        from .oracle import brute_partition_contains

        result = MatchResult(brute_partition_contains(text, pattern))
    else:
        result = kind.contains(text, pattern)
    record: dict = {"command": ns.command, "contains": result.contains}
    lines = ["true" if result.contains else "false"]
    if ns.witness and result.witness is not None:
        record["witness"] = list(result.witness)
        lines.append(",".join(map(str, result.witness)))
    _emit(ns.format, record, lines)
    return 0 if result.contains else 1


def _cmd_count(ns: argparse.Namespace) -> int:
    kind = _KINDS[ns.kind]
    text, pattern = map(kind.parse, _read_args(ns.text, ns.pattern))
    value = kind.count(text, pattern)
    _emit(ns.format, {"command": ns.command, "count": value}, [str(value)])
    return 0


def _emit_result(ns: argparse.Namespace, text: str) -> int:
    """The output of reduce, invert-reduce and rgf."""
    _emit(ns.format, {"command": ns.command, "result": text}, [text])
    return 0


def _cmd_reduce(ns: argparse.Namespace) -> int:
    (raw,) = _read_args(ns.perm)
    return _emit_result(ns, format_partition(reduce_perm(parse_permutation(raw))))


def _cmd_invert_reduce(ns: argparse.Namespace) -> int:
    (raw,) = _read_args(ns.partition)
    return _emit_result(ns, format_permutation(perm_of_matchstick(parse_partition(raw))))


def _cmd_rgf(ns: argparse.Namespace) -> int:
    (raw,) = _read_args(ns.value)
    if ns.invert:
        return _emit_result(ns, format_partition(partition_of_rgf(parse_rgf(raw))))
    return _emit_result(ns, format_rgf(rgf_of(parse_partition(raw))))


def _cmd_census(ns: argparse.Namespace) -> int:
    from .oracle import census

    kind = _KINDS[ns.notion]
    (raw,) = _read_args(ns.pattern)
    row = census(ns.n, kind.parse(raw), ns.notion, force=ns.force, jobs=ns.jobs)
    record = {
        "command": ns.command,
        "n": row.n,
        "pattern": kind.format(row.pattern),
        "notion": row.notion,
        "avoiders": row.avoiders,
        "containers": row.containers,
    }
    plain = " ".join(f"{key}={value}" for key, value in record.items() if key != "command")
    _emit(ns.format, record, [plain])
    return 0


def _report_output(gate: str, report: VerificationReport, fmt: str) -> None:
    # elapsed is left out of JSON so identical runs emit identical bytes.
    record = {
        "command": "verify",
        "gate": gate,
        "max_n": report.max_n,
        "max_k": report.max_k,
        "pairs_checked": report.pairs_checked,
        "mismatches": [
            {name: getattr(m, name) for name in m.__match_args__} for m in report.mismatches
        ],
    }
    lines = [
        f"gate={gate} max_n={report.max_n} max_k={report.max_k} "
        f"pairs={report.pairs_checked} mismatches={len(report.mismatches)} "
        f"elapsed={report.elapsed:.2f}s {'ok' if report.ok else 'FAIL'}"
    ]
    lines += [
        f"  MISMATCH check={m.check} text={m.text} pattern={m.pattern} "
        f"engine={m.engine} oracle={m.oracle}"
        for m in report.mismatches
    ]
    _emit(fmt, record, lines)


def _cmd_verify(ns: argparse.Namespace) -> int:
    from .oracle import verify_reduction, verify_rgf_coincidence

    gates = ["reduction", "rgf"] if ns.gate == "all" else [ns.gate]
    failed = False
    # Bounds not given fall to each gate's own defaults.
    given = (("max_n", ns.max_n), ("max_k", ns.max_k))
    bounds = {name: value for name, value in given if value is not None}
    for gate in gates:
        run = verify_reduction if gate == "reduction" else verify_rgf_coincidence
        report = run(**bounds, force=ns.force, jobs=ns.jobs)
        _report_output(gate, report, ns.format)
        failed = failed or not report.ok
    return 3 if failed else 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permpart",
        description="Pattern containment in permutations, set partitions, and "
        "restricted growth words.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("plain", "json"), default="plain", help="output format"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("contains", parents=[common], help="decide containment")
    p.add_argument("text")
    p.add_argument("pattern")
    p.add_argument("--kind", choices=("perm", "partition"), required=True)
    p.add_argument("--witness", action="store_true", help="also print a witness")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="force the brute-force subset reference (partitions only)",
    )
    p.set_defaults(handler=_cmd_contains)

    p = sub.add_parser("count", parents=[common], help="count occurrences")
    p.add_argument("text")
    p.add_argument("pattern")
    p.add_argument("--kind", choices=("perm", "partition", "rgf"), required=True)
    p.set_defaults(handler=_cmd_count)

    p = sub.add_parser(
        "reduce", parents=[common], help="map a permutation to its matchstick partition"
    )
    p.add_argument("perm")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser(
        "invert-reduce", parents=[common], help="recover a permutation from a matchstick partition"
    )
    p.add_argument("partition")
    p.set_defaults(handler=_cmd_invert_reduce)

    p = sub.add_parser(
        "rgf",
        parents=[common],
        help="encode a partition as its restricted growth word (--invert decodes)",
    )
    p.add_argument("value")
    p.add_argument("--invert", action="store_true", help="decode a word to a partition")
    p.set_defaults(handler=_cmd_rgf)

    p = sub.add_parser("rgf-contains", parents=[common], help="decide word containment")
    p.add_argument("text")
    p.add_argument("pattern")
    p.add_argument("--witness", action="store_true", help="also print a witness")
    p.set_defaults(handler=_cmd_contains, kind="rgf", oracle=False)

    p = sub.add_parser(
        "census", parents=[common], help="count avoiders/containers of a pattern over [n]"
    )
    p.add_argument("n", type=ascii_int)
    p.add_argument("pattern")
    p.add_argument("--notion", choices=("partition", "rgf"), default="partition")
    p.add_argument("--force", action="store_true", help="override the safety bound")
    p.add_argument("--jobs", type=positive_int, default=1, metavar="N")
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("verify", parents=[common], help="run the verification gates")
    p.add_argument("gate", nargs="?", choices=("reduction", "rgf", "all"), default="all")
    p.add_argument("--max-n", type=ascii_int, default=None, dest="max_n")
    p.add_argument("--max-k", type=ascii_int, default=None, dest="max_k")
    p.add_argument("--force", action="store_true", help="override the safety bound")
    p.add_argument("--jobs", type=positive_int, default=1, metavar="N")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run_command(argv: Sequence[str]) -> int:
    """Parse argv, run the command, and return the exit code."""
    parser = _build_parser()
    try:
        ns = parser.parse_args(list(argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return ns.handler(ns)
    except ValueError as exc:  # ParseError and BoundExceeded included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    """The console entry: run_command, with Ctrl-C ending the process with
    one line on stderr and exit code 130 (128 + SIGINT), not a traceback.
    run_command itself lets KeyboardInterrupt through to its callers."""
    try:
        code = run_command(sys.argv[1:])
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        code = 130
    sys.exit(code)


if __name__ == "__main__":
    main()
