"""Fixtures shared by the test modules."""

import importlib.util
import os
import shlex
import shutil
import subprocess
import sysconfig
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "permpart" / "_kernels.c"


@pytest.fixture(scope="session")
def compiled(tmp_path_factory):
    """The compiled kernels, built into a temporary directory.  Skips only
    when the compiler is missing; a build that warns fails."""
    ldshared = shlex.split(sysconfig.get_config_var("LDSHARED") or "")
    if not ldshared or shutil.which(ldshared[0]) is None:
        pytest.skip("no C compiler to build the kernels with")
    out = tmp_path_factory.mktemp("kernels")
    target = out / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [
        *ldshared,
        *shlex.split(sysconfig.get_config_var("CFLAGS") or ""),
        *shlex.split(sysconfig.get_config_var("CCSHARED") or ""),
        "-I" + sysconfig.get_paths()["include"],
        str(SOURCE),
        "-o",
        str(target),
    ]
    proc = subprocess.run(
        cmd, capture_output=True, text=True, env=dict(os.environ, TMPDIR=str(out))
    )
    assert proc.returncode == 0 and not proc.stderr.strip(), proc.stderr
    spec = importlib.util.spec_from_file_location("permpart._kernels", target)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(params=["compiled", "pure-python"])
def kernels(request, monkeypatch):
    """Each kernel backend in turn, installed as the engines' kernel table."""
    from permpart import _kernels_py, matchers

    table = request.getfixturevalue("compiled") if request.param == "compiled" else _kernels_py
    monkeypatch.setattr(matchers, "_K", table)
    return table
