"""Spans around calls into permpart's layers, recorded from outside the
package.

install() rebinds the public functions of each layer module, the three
structure constructors and the kernel table that permpart.matchers calls
through, so that every call passes through Tracer.wrap.  Each span has a
name, a start, an end and a parent (the span open when it began).  Totals
per name are kept exactly for every span; the raw spans are kept for the
first SPAN_CAP only, since a sweep makes millions of them, and are written
out when the run ends.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import json
import sys
import time
import types
from collections import Counter
from pathlib import Path

SPAN_CAP = 20_000

KERNELS = ("perm_find", "perm_count", "part_find", "part_count", "rgf_find", "rgf_count")
MATCHERS = (
    "perm_contains",
    "perm_count",
    "partition_contains",
    "partition_count",
    "rgf_contains",
    "rgf_count",
)
LAYERS = ("cli", "core", "reduction", "fastpaths", "matchers", "kernels", "oracle")


class Tracer:
    def __init__(self) -> None:
        self.calls: Counter[str] = Counter()
        self.total_s: Counter[str] = Counter()
        self.self_s: Counter[str] = Counter()
        self.edges: Counter[tuple[str, str]] = Counter()  # (parent name, child name)
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent id
        self._stack: list[list] = []  # open spans: [name, id, child seconds]
        self._next_id = 0

    def wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total_s[name] += duration
                self.self_s[name] += duration - frame[2]
                if parent is not None:
                    parent[2] += duration
                    self.edges[parent[0], name] += 1
                if span_id < SPAN_CAP:
                    self.spans.append((name, start, end, parent[1] if parent else -1))

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}) + "\n")


def _rebind(original, replacement) -> None:
    """Replace every binding of `original` in permpart's modules."""
    for modname, module in list(sys.modules.items()):
        if modname == "permpart" or modname.startswith("permpart."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    import permpart.cli as cli
    from permpart import core, fastpaths, matchers, oracle, reduction

    targets = {
        "cli.handler": [cli.run_command],
        "core.rgf_of": [core.rgf_of],
        "core.partition_of_rgf": [core.partition_of_rgf],
        "core.restrict": [core.restrict],
        "reduction.reduce_perm": [reduction.reduce_perm],
        "reduction.transport": [reduction.transport_occurrence, reduction.recover_occurrence],
        "reduction.matchstick": [reduction.is_matchstick, reduction.perm_of_matchstick],
        "fastpaths.dispatch": [fastpaths.dispatch_contains],
        "oracle.brute": [oracle.brute_partition_contains, oracle.brute_partition_count],
        "oracle.verify": [oracle.verify_reduction, oracle.verify_rgf_coincidence],
        "oracle.census": [oracle.census],
    }
    for name in MATCHERS:
        targets["matchers." + name] = [getattr(matchers, name)]
    for name, functions in targets.items():
        for fn in functions:
            _rebind(fn, tracer.wrap(name, fn))
    for cls in (core.Permutation, core.SetPartition, core.RGFWord):
        cls.__init__ = tracer.wrap("core.construct", cls.__init__)
    matchers._K = types.SimpleNamespace(
        **{k: tracer.wrap("kernels." + k, getattr(matchers._K, k)) for k in KERNELS}
    )


def layer_metrics(tracer: Tracer, base_s: float) -> dict[str, float]:
    """Per-layer figures over a timed part of base_s seconds."""
    calls, total, own = tracer.calls, tracer.total_s, tracer.self_s

    def names(prefix: str) -> list[str]:
        return [n for n in calls if n.startswith(prefix + ".")]

    construct = calls["core.construct"]
    dispatches = calls["fastpaths.dispatch"]
    general = tracer.edges["fastpaths.dispatch", "matchers.partition_contains"]
    kernel_s = sum(total[n] for n in names("kernels"))
    out = {
        "cli.handler_us": 1e6 * total["cli.handler"] / calls["cli.handler"] if calls["cli.handler"] else 0.0,
        "core.construct_calls": construct,
        "core.construct_us": 1e6 * total["core.construct"] / construct if construct else 0.0,
    }
    for fn in ("rgf_of", "partition_of_rgf", "restrict"):
        out[f"core.{fn}_calls"] = calls["core." + fn]
        out[f"core.{fn}_s"] = total["core." + fn]
    out["reduction.reduce_perm_calls"] = calls["reduction.reduce_perm"]
    out["reduction.reduce_perm_s"] = total["reduction.reduce_perm"]
    out["fastpaths.dispatch_calls"] = dispatches
    out["fastpaths.dispatch_self_s"] = own["fastpaths.dispatch"]
    out["fastpaths.fast_answer_ratio"] = (dispatches - general) / dispatches if dispatches else 0.0
    out["matchers.calls"] = sum(calls[n] for n in names("matchers"))
    out["matchers.self_s"] = sum(own[n] for n in names("matchers"))
    for k in KERNELS:
        out[f"kernels.{k}_calls"] = calls["kernels." + k]
        out[f"kernels.{k}_s"] = total["kernels." + k]
    out["kernels.busy_share"] = kernel_s / base_s
    out["kernels.busy_base_s"] = base_s
    out["oracle.brute_calls"] = calls["oracle.brute"]
    out["oracle.brute_s"] = total["oracle.brute"]
    out["oracle.verify_s"] = total["oracle.verify"]
    out["oracle.census_s"] = total["oracle.census"]
    for layer in LAYERS:
        if layer != "kernels":
            out[f"{layer}.self_share"] = sum(own[n] for n in names(layer)) / base_s
    return out
