"""Charge a deterministic profile's self time to the repository's layers.

Each Python function belongs to the layer of the module that defines
it (:data:`LAYER_OF_MODULE`).  Standard-library and builtin functions
belong to no layer: their self time is split over their callers through
cProfile's per-caller table, recursively, so it lands in the layer that
asked for the work and the layer shares add up to the whole profile.
Frames of the benchmark itself, and of repository modules outside the
layer list, are charged to ``harness``.
"""

from __future__ import annotations

import os
from typing import Dict, Tuple

#: Module path under ``src/repro/`` (prefix match, longest wins) -> layer.
LAYER_OF_MODULE = {
    "sim/kernel.py": "sim.kernel",
    "sim/__init__.py": "sim.kernel",
    "sim/cpu.py": "sim.cpu",
    "sim/process.py": "sim.process",
    "sim/sync.py": "sim.process",
    "sim/pool.py": "sim.process",
    "sim/disk.py": "sim.disk",
    # Seeded draws are the workload inputs, wherever they are made.
    "sim/rng.py": "workloads",
    "channels/": "channels",
    "events/": "events",
    "seda/": "seda",
    "core/profiler.py": "core.profiler",
    "core/cct.py": "core.profiler",
    "core/context.py": "core.context",
    "core/synopsis.py": "core.context",
    "core/callpath.py": "core.context",
    "core/crosstalk.py": "core.crosstalk",
    "core/flow/": "vm",
    "vm/": "vm",
    "telemetry/": "telemetry",
    "live/": "live",
    "core/stitch.py": "core.stitch",
    "core/persist.py": "core.persist",
    "parallel/": "parallel",
    "apps/": "apps",
    "workloads/": "workloads",
}

LAYERS = (
    "sim.kernel", "sim.cpu", "sim.process", "sim.disk", "channels",
    "events", "seda", "core.profiler", "core.context", "core.crosstalk",
    "vm", "telemetry", "live", "core.stitch", "core.persist", "parallel",
    "apps", "workloads", "harness",
)

Func = Tuple[str, int, str]
_MARK = "/src/repro/"


def module_of(func: Func) -> str:
    """``src/repro``-relative module path, or "" outside the package."""
    filename = func[0].replace("\\", "/")
    at = filename.rfind(_MARK)
    return filename[at + len(_MARK):] if at >= 0 else ""


def is_python(func: Func) -> bool:
    return func[0] != "~"


def own_layer(func: Func, harness_dir: str) -> str:
    """The layer a function is charged to itself, or "" for stdlib."""
    module = module_of(func)
    if module:
        best = ""
        for prefix in LAYER_OF_MODULE:
            if module.startswith(prefix) and len(prefix) > len(best):
                best = prefix
        return LAYER_OF_MODULE[best] if best else "harness"
    if is_python(func) and os.path.dirname(os.path.abspath(func[0])) == harness_dir:
        return "harness"
    return ""


def attribute(stats, harness_dir: str) -> Dict[str, float]:
    """Self seconds per layer from a ``pstats.Stats(...).stats`` table.

    ``harness_dir`` is the directory of the benchmark's own source
    files.  The result sums to the total self time of the profile.
    """
    layers = {func: own_layer(func, harness_dir) for func in stats}
    shares: Dict[Func, Dict[str, float]] = {}

    def share_of(func: Func, visiting: set) -> Dict[str, float]:
        """How ``func``'s time divides over layers (fractions)."""
        layer = layers.get(func, "harness")
        if layer:
            return {layer: 1.0}
        if func in shares:
            return shares[func]
        if func in visiting:  # stdlib recursion: cut the cycle
            return {"harness": 1.0}
        visiting.add(func)
        callers = stats[func][4]
        weights = {c: edge[3] for c, edge in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            weights = {c: float(edge[0]) for c, edge in callers.items()}
            total = sum(weights.values())
        out: Dict[str, float] = {}
        if total <= 0:
            out = {"harness": 1.0}
        else:
            for caller, weight in weights.items():
                for name, part in share_of(caller, visiting).items():
                    out[name] = out.get(name, 0.0) + part * weight / total
        visiting.discard(func)
        shares[func] = out
        return out

    self_s = {name: 0.0 for name in LAYERS}
    for func, (_, _, tottime, _, callers) in stats.items():
        layer = layers[func]
        if layer:
            self_s[layer] += tottime
            continue
        charged = 0.0
        for caller, edge in callers.items():
            charged += edge[2]
            for name, part in share_of(caller, set()).items():
                self_s[name] += edge[2] * part
        # Time with no recorded caller (the profile's root frames).
        self_s["harness"] += tottime - charged
    return self_s


def layer_calls(stats, harness_dir: str) -> Dict[str, int]:
    """Python function calls per layer (builtins are not counted)."""
    calls = {name: 0 for name in LAYERS}
    for func, (_, ncalls, _, _, _) in stats.items():
        layer = own_layer(func, harness_dir)
        if layer:
            calls[layer] += ncalls
    return calls


def key(function) -> Func:
    """The profile key of a Python function (or method, classmethod)."""
    code = getattr(function, "__func__", function).__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def calls_of(stats, function) -> int:
    value = stats.get(key(function))
    return value[1] if value else 0


def cumulative_s(stats, function) -> float:
    """Inclusive seconds of ``function`` (recursion counted once)."""
    value = stats.get(key(function))
    return value[3] if value else 0.0


def edge_calls(stats, caller, callee) -> int:
    """Calls of ``callee`` made directly by ``caller``."""
    value = stats.get(key(callee))
    edge = value[4].get(key(caller)) if value else None
    return edge[0] if edge else 0


def module_calls(stats, module: str) -> int:
    return sum(v[1] for f, v in stats.items() if module_of(f) == module)


def kernel_events(stats, kernel_run) -> int:
    """Python callees dispatched by ``Kernel.run`` (one per event).

    The kernel's own helpers (requeue, gauge refresh) are not events.
    """
    run = key(kernel_run)
    events = 0
    for func, value in stats.items():
        if is_python(func) and module_of(func) != "sim/kernel.py":
            edge = value[4].get(run)
            if edge:
                events += edge[0]
    return events
