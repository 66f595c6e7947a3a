"""Fold a ``cProfile`` run of the simulator into its layers.

Each profiled function's self time is charged to the layer that owns its
module.  Builtin and C functions (``filename == "~"`` in :mod:`pstats`)
have no module of their own, so their time is split over their callers
through the profiler's caller table and charged to each caller's layer.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

__all__ = ["LAYERS", "layer_of", "self_seconds", "calls", "cumulative"]

LAYERS = ("sim", "noc", "kernel", "net", "cluster", "pdes", "policy",
          "obs", "loadgen", "other")

#: the windowed-engine barrier and the cross-partition frame exchange
_PDES_MODULES = ("repro/cluster/backend.py", "repro/net/envelope.py")

_PACKAGE_LAYER = {
    "sim": "sim", "noc": "noc", "kernel": "kernel", "net": "net",
    "cluster": "cluster", "obs": "obs", "loadgen": "loadgen",
    # the key/popularity generators the scenario runner draws from
    "workloads": "loadgen",
}

#: a pstats entry: (filename, first line, function name)
Func = Tuple[str, int, str]


def _module(filename: str) -> str:
    """``repro/<package>/<file>.py`` for a repro source file, else ``""``."""
    path = filename.replace(os.sep, "/")
    at = path.rfind("/repro/")
    return path[at + 1:] if at >= 0 else ""


def layer_of(filename: str) -> str:
    module = _module(filename)
    if module.endswith(_PDES_MODULES):
        return "pdes"
    if module == "repro/policy.py":
        return "policy"
    parts = module.split("/")
    if len(parts) < 3:
        return "other"
    return _PACKAGE_LAYER.get(parts[1], "other")


def self_seconds(stats: Dict[Func, tuple]) -> Dict[str, float]:
    """Self seconds per layer from ``pstats.Stats(profile).stats``."""
    out = dict.fromkeys(LAYERS, 0.0)
    for (filename, _line, _name), (_cc, _nc, tt, _ct, callers) in \
            stats.items():
        if filename != "~":
            out[layer_of(filename)] += tt
            continue
        charged = 0.0
        for caller, edge in callers.items():
            layer = "other" if caller[0] == "~" else layer_of(caller[0])
            out[layer] += edge[2]
            charged += edge[2]
        # builtin time entered from a frame the profiler never saw
        out["other"] += tt - charged
    return out


def _matching(stats: Dict[Func, tuple], module: str, name: str):
    for (filename, _line, func), row in stats.items():
        if func == name and _module(filename) == module:
            yield row


def calls(stats: Dict[Func, tuple], module: str, name: str) -> int:
    """Calls into every function ``name`` defined in ``module``."""
    return sum(row[1] for row in _matching(stats, module, name))


def cumulative(stats: Dict[Func, tuple], module: str, name: str) -> float:
    """Seconds spent in, and under, every ``name`` defined in ``module``."""
    return sum(row[3] for row in _matching(stats, module, name))
