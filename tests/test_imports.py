"""What importing permpart loads, and the package surface it exposes.

A single query from the CLI must not pay for the oracle or the process
pool: the package resolves the oracle's names on first use, the CLI imports
the oracle only in the commands that use it, and the oracle imports the
pool only when one runs.  The start-up checks run in a fresh interpreter,
since this suite has long since imported everything.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import permpart
from permpart import oracle

HEAVY = ["permpart.oracle", "concurrent.futures", "concurrent.futures.process", "multiprocessing"]

# Prints {stage: loaded heavy modules} as JSON, for the heavy module names
# and the command lists given as JSON arguments.
CHILD = """
import contextlib, io, json, sys
heavy, commands = json.loads(sys.argv[1]), json.loads(sys.argv[2])
loaded = lambda: [name for name in heavy if name in sys.modules]
import permpart, permpart.cli
stages = {"import": loaded()}
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        code = permpart.cli.run_command(argv)
    stages[" ".join(argv)] = [code, loaded()]
print(json.dumps(stages))
"""


def _fresh_run(commands):
    """{stage: loaded heavy modules} from a fresh interpreter that imports
    permpart and permpart.cli and then runs the commands in turn."""
    # The child imports the same permpart as this suite, installed or not.
    source_root = str(Path(permpart.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [source_root, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(HEAVY), json.dumps(commands)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return json.loads(out.stdout)


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
