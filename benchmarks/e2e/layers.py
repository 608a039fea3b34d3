"""Group one cProfile run's self time by the ``repro`` layer that owns it.

A function belongs to the layer of the package it is defined in (see
``_PACKAGE_LAYERS``); the rest of ``repro`` (platform, monitor,
``config``, and ``harness``, whose self time is zero on a platform run
and a few milliseconds in a traced sweep) is ``core``.  Functions of the
standard ``random`` module, including the C methods of
``_random.Random``, form the ``rng`` layer.

Every other function (stdlib, builtins, numpy) has no layer of its own.
Its self time and calls are charged to the layers of its callers, split
by the number of calls along each caller edge, recursively through
callers that are themselves unowned.  Whatever has no owned caller
anywhere up the chain (the benchmark's own frames) is ``other``.  Every
profiled second lands in exactly one layer, so the layers sum to the
profile's total self time.
"""

from __future__ import annotations

import os
import random
from typing import Dict, FrozenSet, Optional, Tuple

LAYERS: Tuple[str, ...] = ("workloads", "runtime", "collectors", "kernel",
                           "machine", "core", "observability", "rng",
                           "other")

#: Package prefixes (relative to ``src/repro/``), first match wins.
_PACKAGE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("workloads/", "workloads"),
    ("runtime/", "runtime"),
    ("native/", "runtime"),
    ("core/collectors/", "collectors"),
    ("kernel/", "kernel"),
    ("machine/", "machine"),
    ("observability/", "observability"),
)

_RANDOM_FILE = random.__file__

#: cProfile's key for one function: (filename, first line, name).
Func = Tuple[str, int, str]


def owner(func: Func, package_dir: str) -> Optional[str]:
    """The layer that owns ``func``, or None when it has no layer."""
    filename, _, name = func
    if filename.startswith(package_dir):
        relative = filename[len(package_dir):].replace(os.sep, "/")
        for prefix, layer in _PACKAGE_LAYERS:
            if relative.startswith(prefix):
                return layer
        return "core"
    if filename == _RANDOM_FILE or "'_random.Random'" in name:
        return "rng"
    return None


def attribute(stats: Dict, package_dir: str) -> Dict[str, Dict[str, float]]:
    """Per-layer ``self_s``, ``share`` and ``calls`` from ``pstats`` data.

    ``stats`` is ``pstats.Stats(profile).stats``: ``func -> (cc, nc, tt,
    ct, callers)`` with ``callers`` mapping each caller to ``(nc, cc, tt,
    ct)`` for that edge.  ``package_dir`` is the ``repro`` package
    directory with a trailing separator.
    """
    weights: Dict[Func, Dict[str, float]] = {}

    def layer_weights(func: Func, visiting: FrozenSet[Func]
                      ) -> Dict[str, float]:
        known = weights.get(func)
        if known is not None:
            return known
        layer = owner(func, package_dir)
        if layer is not None:
            result = {layer: 1.0}
        else:
            edges = {caller: edge[0]
                     for caller, edge in stats[func][4].items()
                     if caller != func and caller not in visiting
                     and caller in stats}
            total = sum(edges.values())
            result = {} if total else {"other": 1.0}
            for caller, calls in edges.items():
                for name, share in layer_weights(
                        caller, visiting | {func}).items():
                    result[name] = (result.get(name, 0.0)
                                    + share * calls / total)
        weights[func] = result
        return result

    self_s = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    for func, (_, ncalls, tottime, _, _) in stats.items():
        for name, share in layer_weights(func, frozenset()).items():
            self_s[name] += tottime * share
            calls[name] += ncalls * share
    total = sum(self_s.values())
    return {name: {"self_s": self_s[name],
                   "share": self_s[name] / total if total else 0.0,
                   "calls": round(calls[name])}
            for name in LAYERS}
