"""The benchmark's own checks.  Run from the repository root::

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
import run  # noqa: E402


def _load(name):
    with open(os.path.join(ROOT, name), encoding="utf-8") as handle:
        return json.load(handle)


def test_benchmark_json_matches_what_run_py_reports():
    bench = _load("BENCHMARK.json")
    spec = _load("perfbench/spec.json")
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(spec["workloads"]) == set(run.WORKLOADS)
    assert {m["name"] for m in bench["end_to_end"]} == set(run.end_to_end_samples([]))
    for metric in bench["end_to_end"]:
        assert spec["end_to_end"][metric["name"]]["clock"] in spec["clocks"]
    fake_profile = {
        "total_self_s": 1.0,
        "self_s": {layer: 1.0 / len(layers.LAYERS) for layer in layers.LAYERS},
        "calls": {layer: 1 for layer in layers.LAYERS},
        "events": 1, "slices": 1, "steps": 1, "spawns": 1, "enqueued": 1,
        "dequeues": 1, "messages": 1, "samples": 1, "spans": 1,
        "save_s": 1.0, "load_s": 1.0, "stitch_s": 1.0, "reduce_s": 1.0,
    }
    fake_trace = {
        "txns": 1, "wall_s": 2.0, "profile": fake_profile,
        "facts": {"data_bytes": 1, "context_bytes": 1, "dump_bytes": 1},
    }
    reported = run.per_layer(fake_trace, 1.0)
    assert [m["name"] for m in bench["per_layer"]] == list(reported)
    for name in reported:
        pattern = "<layer>." + name.split(".")[-1]
        assert name in spec["per_layer"] or pattern in spec["per_layer"], name


def test_pins_cover_both_seeds_of_every_workload():
    pins = _load("perfbench/pins.json")
    documented = _load("perfbench/spec.json")["model_outputs"]
    for workload in run.WORKLOADS:
        assert set(pins[workload]) == {"42", "7"}
        assert pins[workload]["42"].keys() == pins[workload]["7"].keys()
        assert set(pins[workload]["42"]) <= set(documented)
    # tpcw_live is tpcw_browsing plus online stitching: same model.
    for seed in ("42", "7"):
        live = pins["tpcw_live"][seed]
        assert {k: live[k] for k in pins["tpcw_browsing"][seed]} == pins["tpcw_browsing"][seed]


def test_stdlib_time_is_charged_to_the_calling_layer():
    kernel = ("/x/src/repro/sim/kernel.py", 1, "run")
    cpu = ("/x/src/repro/sim/cpu.py", 1, "_slice_done")
    heap = ("/usr/lib/python3/heapq.py", 1, "merge")
    builtin = ("~", 0, "<built-in method _heapq.heappush>")
    stats = {
        kernel: (1, 1, 2.0, 10.0, {}),
        cpu: (4, 4, 3.0, 4.0, {kernel: (4, 4, 3.0, 4.0)}),
        # heapq.merge is called by the kernel (3 s) and by cpu (1 s) ...
        heap: (2, 2, 1.0, 4.0, {kernel: (1, 1, 0.6, 3.0), cpu: (1, 1, 0.4, 1.0)}),
        # ... and the builtin only by heapq.merge: it splits 3:1 too.
        builtin: (8, 8, 2.0, 2.0, {heap: (8, 8, 2.0, 2.0)}),
    }
    self_s = layers.attribute(stats, HERE)
    assert self_s["sim.kernel"] == pytest.approx(2.0 + 0.6 + 2.0 * 0.75)
    assert self_s["sim.cpu"] == pytest.approx(3.0 + 0.4 + 2.0 * 0.25)
    assert sum(self_s.values()) == pytest.approx(8.0)
    assert layers.layer_calls(stats, HERE)["sim.cpu"] == 4


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_passes_its_self_checks(workload):
    """Shares add up, coverage holds, and the events the profile saw
    Kernel.run dispatch equal the kernel's own fired-events counter
    (173,953 on the 60-virtual-s TPC-W run of seed 42)."""
    spec = _load("perfbench/spec.json")
    pin = _load("perfbench/pins.json")[workload]["42"]
    count = run.spawn(workload, 42, "count")
    trace = run.spawn(workload, 42, "trace")
    assert run.output_problems(count, pin, None) == []
    assert run.output_problems(trace, pin, None) == []
    assert run.trace_problems(workload, spec, trace, count) == []
    if workload.startswith("tpcw"):
        assert trace["profile"]["events"] == 173953
    values = run.per_layer(trace, trace["wall_s"])
    shares = sum(values[f"{layer}.share"] for layer in layers.LAYERS)
    assert shares == pytest.approx(100.0)
