"""Builds the compiled kernel extension and makes permpart import it.

The extension is compiled from the C source in the tree
(src/permpart/_kernels.c) with gcc and the interpreter's own sysconfig
flags: no Cython, no setuptools, no network.  It goes into a fresh
directory under .bench_build/ and never into src/permpart/, where
permpart._backend would pick it up silently for every later import, the
test suite and the pure-backend workloads included.
"""

from __future__ import annotations

import importlib.abc
import importlib.util
import os
import shlex
import subprocess
import sys
import sysconfig
import tempfile
from pathlib import Path


def build(root: Path) -> Path:
    """Compile the kernels into a new directory under root/.bench_build and
    return the path of the shared object.  Raises on any build failure."""
    source = root / "src" / "permpart" / "_kernels.c"
    out_root = root / ".bench_build"
    out_root.mkdir(exist_ok=True)
    out_dir = Path(tempfile.mkdtemp(prefix="kernels-", dir=out_root))
    target = out_dir / ("_kernels" + sysconfig.get_config_var("EXT_SUFFIX"))
    cmd = [
        *shlex.split(sysconfig.get_config_var("LDSHARED")),
        *shlex.split(sysconfig.get_config_var("CFLAGS")),
        *shlex.split(sysconfig.get_config_var("CCSHARED")),
        "-I" + sysconfig.get_paths()["include"],
        str(source),
        "-o",
        str(target),
    ]
    # gcc's intermediate files go to TMPDIR: keep them inside the build too.
    env = dict(os.environ, TMPDIR=str(out_dir))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env)
    if proc.returncode != 0:
        raise RuntimeError(f"kernel build failed:\n{proc.stderr[-2000:]}")
    return target


class _KernelFinder(importlib.abc.MetaPathFinder):
    def __init__(self, path: Path) -> None:
        self.path = path

    def find_spec(self, fullname, path=None, target=None):
        if fullname != "permpart._kernels":
            return None
        return importlib.util.spec_from_file_location(fullname, self.path)


def use_compiled(path: Path) -> None:
    """Resolve permpart._kernels to the built shared object.  Call before
    permpart is first imported."""
    sys.meta_path.insert(0, _KernelFinder(path))
