"""What importing permpart loads, and the package surface it exposes.

A single query from the CLI must not pay for the oracle, the process pool
or dataclasses: the package resolves the oracle's names on first use, the
CLI imports the oracle only in the commands that use it, the oracle imports
the pool only when one runs, the value types are plain classes, and json
loads only for --format json.  The start-up checks run in a fresh
interpreter, since this suite has long since imported everything.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permpart
from permpart import oracle

# permpart.fastpaths is an alias module that only the layer tracer imports;
# dataclasses imports inspect, and the two were most of the CLI's import.
HEAVY = [
    "permpart.oracle",
    "permpart.fastpaths",
    "concurrent.futures",
    "concurrent.futures.process",
    "multiprocessing",
    "dataclasses",
    "inspect",
]

# Prints repr([{stage: [exit code, loaded heavy modules]}, [stdout of each
# command]]), for the heavy module names in argv[1], space-separated, and
# one command per further argument, its words tab-separated.  It imports
# neither json nor ast, so that it can look for them.
CHILD = """
import contextlib, io, sys
heavy, commands = sys.argv[1].split(), [arg.split("\t") for arg in sys.argv[2:]]
loaded = lambda: [name for name in heavy if name in sys.modules]
import permpart, permpart.cli
stages, outputs = {"import": loaded()}, []
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = permpart.cli.run_command(argv)
    stages[" ".join(argv)] = [code, loaded()]
    outputs.append(out.getvalue())
print(repr([stages, outputs]))
"""


def _fresh_child(commands, heavy):
    """({stage: [exit code, loaded heavy modules]}, [stdout of each
    command]) from a fresh interpreter that imports permpart and
    permpart.cli and then runs the commands in turn."""
    # The child imports the same permpart as this suite, installed or not.
    source_root = str(Path(permpart.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, " ".join(heavy), *map("\t".join, commands)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return ast.literal_eval(out.stdout)


def _fresh_run(commands):
    """The stages of _fresh_child(commands, HEAVY)."""
    return _fresh_child(commands, HEAVY)[0]


def test_queries_load_neither_oracle_nor_pool():
    commands = [
        ["contains", "1,3,2", "2,1", "--kind", "perm", "--witness"],
        ["contains", "1,3/2,4", "1/2", "--kind", "partition"],
        ["count", "1,2,1,2", "1,2", "--kind", "rgf"],
        ["count", "1,3/2,4", "1,2", "--kind", "partition", "--format", "json"],
        ["reduce", "2,3,1"],
    ]
    stages = _fresh_run(commands)
    assert stages.pop("import") == []
    assert stages == {" ".join(argv): [0, []] for argv in commands}


def test_serial_census_and_verify_load_the_oracle_but_no_pool():
    commands = [
        ["census", "5", "1,3/2,4"],
        ["verify", "reduction", "--max-n", "3", "--max-k", "2", "--jobs", "1"],
    ]
    stages = _fresh_run(commands)
    assert stages.pop("import") == []
    assert stages == {" ".join(argv): [0, ["permpart.oracle"]] for argv in commands}


def test_json_loads_only_for_json_output():
    plain = [
        ["contains", "1,3,2", "2,1", "--kind", "perm", "--witness"],
        ["census", "4", "1,2"],
        ["verify", "reduction", "--max-n", "2", "--max-k", "2"],
    ]
    as_json = [
        ["contains", "1,3,2", "2,1", "--kind", "perm", "--witness", "--format", "json"],
        ["census", "4", "1,2", "--format", "json"],
        ["verify", "reduction", "--max-n", "2", "--max-k", "2", "--format", "json"],
    ]
    stages, outputs = _fresh_child(plain + as_json, ["json"])
    assert stages.pop("import") == []
    assert list(stages.values()) == [[0, []]] * 3 + [[0, ["json"]]] * 3
    assert outputs[3:] == [
        '{"command":"contains","contains":true,"witness":[2,3]}\n',
        '{"command":"census","n":4,"pattern":"1,2","notion":"partition",'
        '"avoiders":1,"containers":14}\n',
        '{"command":"verify","gate":"reduction","max_n":2,"max_k":2,'
        '"pairs_checked":9,"mismatches":[]}\n',
    ]


def test_every_public_name_resolves():
    for name in permpart.__all__:
        assert getattr(permpart, name) is not None, name
    namespace = {}
    exec("from permpart import *", namespace)
    assert set(permpart.__all__) <= set(namespace)
    assert permpart.census is oracle.census
    assert permpart.VerificationReport is oracle.VerificationReport


def test_dir_lists_the_oracle_names():
    # __all__ holds the oracle names, which are no module globals
    assert set(permpart.__all__) <= set(dir(permpart))


def test_oracle_names_follow_rebinding(monkeypatch):
    def fake_census(*args, **kwargs):
        raise AssertionError("not called")

    original = permpart.census
    monkeypatch.setattr(oracle, "census", fake_census)
    assert permpart.census is fake_census
    monkeypatch.undo()
    assert permpart.census is original


def test_unknown_and_removed_names_raise():
    for name in ("no_such_name", "flatten", "value_standardize"):
        assert name not in permpart.__all__
        with pytest.raises(AttributeError, match=name):
            getattr(permpart, name)
