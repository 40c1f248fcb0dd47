"""Selects the search-kernel implementation at import time.

The compiled extension (permpart._kernels, built from the hand-written C
file _kernels.c) and the pure-Python module (permpart._kernels_py) export
the same eight functions with identical semantics.  The compiled one wins
when importable; set PERMPART_PURE=1 to force the pure-Python kernels,
e.g. when benchmarking or debugging.
"""

from __future__ import annotations

import os

if os.environ.get("PERMPART_PURE"):
    from . import _kernels_py as kernels

    BACKEND = "pure-python"
else:
    try:
        from . import _kernels as kernels  # type: ignore[no-redef]

        BACKEND = "compiled"
    except ImportError:
        from . import _kernels_py as kernels  # type: ignore[no-redef]

        BACKEND = "pure-python"


def kernel_backend() -> str:
    """Name of the active kernel implementation: "compiled" or "pure-python"."""
    return BACKEND
