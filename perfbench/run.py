"""The repository benchmark: host cost per simulated transaction.

Run from the root of a checkout::

    python3 perfbench/run.py --workload tpcw_browsing --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --workload tpcw_live --seed 42 --trace 1
    python3 perfbench/run.py --seed 42 --seconds 30      # all three, interleaved

Every measured run is a fresh ``python3`` process (``child.py``) that
simulates the whole workload in-process, so set-up time and peak memory
are per run.  ``--trace 0`` repeats untraced runs for ``--seconds`` and
reports the medians of the end-to-end metrics.  ``--trace 1`` makes one
run under ``cProfile`` and one telemetry-``full`` counting run, charges
the profile to layers (``layers.py``) and reports the per-layer
metrics, then fills the rest of ``--seconds`` with untraced runs for
the trace overhead.  Without ``--workload`` the three workloads are
interleaved run by run, and the per-layer tables are written to
``perfbench/out/``.

Model outputs (``spec.json`` ``model_outputs``) are checked for exact
equality against ``pins.json`` when the (workload, seed) is pinned, and
against the first run of the invocation otherwise.  A run that raises,
breaks an invariant or mismatches counts as failed; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from layers import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD = os.path.join(HERE, "child.py")
SOURCE = os.path.join(ROOT, "src", "repro")
WORKLOADS = ("tpcw_browsing", "haboob_openloop", "tpcw_live")
#: Untraced runs per invocation at least, whatever --seconds says.
MIN_RUNS = 3
CHILD_TIMEOUT_S = 150
#: Calibration time (child.calibrate) of the reference host.  On the
#: host this was written on, speed drifts by a quarter and more over
#: tens of seconds, and the drift reaches every program alike; wall
#: times are scaled to this reference speed so the run-time metrics
#: compare the program, not the host's phase.  Raw wall times are
#: printed alongside.
REFERENCE_CALIBRATION_S = 0.100
#: How much of the calibration loop's slowdown the simulator suffers.
#: Over 560 runs in three five-minute series, log run time rose by
#: 0.6-0.7 per unit of log calibration time, and scaling by this power
#: left the least spread between 30-second medians.
HOST_SENSITIVITY = 0.75
#: Layer shares must sum to 100% within this (floating-point) slack.
SHARE_SLACK = 1e-6


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


class ChildFailed(Exception):
    pass


def spawn(workload: str, seed: int, mode: str) -> dict:
    """Run ``child.py`` in a fresh process and return its result."""
    # A fixed hash seed makes set and dict layouts, and so the host
    # cost of a run, the same from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, workload, str(seed), mode, repr(spawned_at)],
            cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"{workload} {mode} run exceeded {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-6:])
        raise ChildFailed(f"{workload} {mode} run exited {proc.returncode}:\n{tail}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise ChildFailed(f"{workload} {mode} run printed no result")
    return json.loads(lines[-1])


def output_problems(result: dict, pin: Optional[dict], first: Optional[dict]) -> List[str]:
    """Invariant failures plus model outputs that differ from the pin
    (or, for an unpinned seed, from the first run of this invocation)."""
    problems = list(result["problems"])
    outputs = result["outputs"]
    reference = pin if pin is not None else first
    if reference is not None:
        for name, value in outputs.items():
            if name not in reference and pin is None:
                continue  # the first run may come from another mode
            if reference.get(name) != value:
                problems.append(
                    f"model output {name} = {value!r}, expected {reference.get(name)!r}"
                )
    return problems


class Runs:
    """The runs of one workload in one invocation, and their verdicts."""

    def __init__(self, workload: str, seed: int, pins: dict):
        self.workload = workload
        self.seed = seed
        self.pin = pins.get(workload, {}).get(str(seed))
        self.first: Optional[dict] = None
        self.plain: List[dict] = []
        self.attempted = 0
        self.failed = 0
        self.durations: List[float] = []

    def run(self, mode: str, extra_checks=None) -> Optional[dict]:
        """One fresh-process run; None if it crashed.  A run that broke
        a check is returned but counted failed, and its times are not
        used for the end-to-end medians."""
        self.attempted += 1
        started = time.monotonic()
        try:
            result = spawn(self.workload, self.seed, mode)
        except ChildFailed as exc:
            self.failed += 1
            print(f"FAILED {exc}", flush=True)
            return None
        problems = output_problems(result, self.pin, self.first)
        if extra_checks is not None:
            problems += extra_checks(result)
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {self.workload} {mode} seed {self.seed}: {problem}", flush=True)
            return result
        if self.first is None:
            self.first = dict(result["outputs"])
        if mode == "plain":
            self.plain.append(result)
            self.durations.append(time.monotonic() - started)
        return result

    def typical_duration(self) -> float:
        return statistics.median(self.durations) if self.durations else 0.0


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def reference_wall_s(result: dict) -> float:
    """The run's wall time scaled to the reference host speed."""
    speed = REFERENCE_CALIBRATION_S / result["calibration_s"]
    return result["wall_s"] * speed ** HOST_SENSITIVITY


def end_to_end_samples(plain: List[dict]) -> Dict[str, List[float]]:
    return {
        "wall_us_per_txn": [reference_wall_s(r) / r["txns"] * 1e6 for r in plain],
        "sim_s_per_wall_s": [r["virtual_s"] / reference_wall_s(r) for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }


def per_layer(trace: dict, plain_wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run."""
    profile = trace["profile"]
    facts = trace["facts"]
    txns = trace["txns"]
    total = profile["total_self_s"]
    self_s = profile["self_s"]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_us_per_txn"] = self_s[layer] / txns * 1e6
        out[f"{layer}.share"] = 100.0 * self_s[layer] / total
        out[f"{layer}.calls_per_txn"] = profile["calls"][layer] / txns
    events = profile["events"]
    spans = profile["spans"]
    evictions = facts.get("evictions", 0)
    out.update({
        "sim.kernel.events_per_txn": events / txns,
        "sim.kernel.ns_per_event": self_s["sim.kernel"] / events * 1e9,
        "sim.cpu.slices_per_txn": profile["slices"] / txns,
        "sim.process.steps_per_txn": profile["steps"] / txns,
        "sim.process.spawns_per_txn": profile["spawns"] / txns,
        "seda.enqueued_per_txn": profile["enqueued"] / txns,
        "seda.dequeues_per_txn": profile["dequeues"] / txns,
        "channels.messages_per_txn": profile["messages"] / txns,
        "channels.context_bytes_ratio": (
            facts["context_bytes"] / facts["data_bytes"] if facts["data_bytes"] else 0.0
        ),
        "core.profiler.samples_per_txn": profile["samples"] / txns,
        "telemetry.spans_per_txn": spans / txns,
        "telemetry.ns_per_span": self_s["telemetry"] / spans * 1e9 if spans else 0.0,
        "live.events_per_txn": facts.get("live_events", 0) / txns,
        "live.revival_ratio": facts.get("revivals", 0) / evictions if evictions else 0.0,
        "live.checkpoint_bytes_per_txn": facts.get("checkpoint_bytes", 0) / txns,
        "core.persist.save_ms": profile["save_s"] * 1e3,
        "core.persist.load_ms": profile["load_s"] * 1e3,
        "core.persist.dump_bytes": facts["dump_bytes"],
        "core.stitch.ms": profile["stitch_s"] * 1e3,
        "parallel.reduce_ms": profile["reduce_s"] * 1e3,
        "trace.overhead": trace["wall_s"] / plain_wall_s,
    })
    return out


def trace_problems(workload: str, spec: dict, trace: dict, count: dict) -> List[str]:
    """Self-checks on a traced run: shares, layer coverage, event count."""
    problems = []
    profile = trace["profile"]
    total = sum(profile["self_s"].values())
    if abs(total - profile["total_self_s"]) > SHARE_SLACK * max(total, 1.0):
        problems.append(
            f"layer self times sum to {total} s, the profile to {profile['total_self_s']} s"
        )
    work = dict(profile["calls"])
    work["channels.rpc"] = profile["rpc_calls"]
    work["telemetry.spans"] = profile["spans"]
    coverage = spec["workloads"][workload]
    for name in coverage["busy"]:
        if not work[name]:
            problems.append(f"layer {name} did no work, but the workload exists to exercise it")
    for name in coverage["idle"]:
        if work[name]:
            problems.append(f"layer {name} made {work[name]} calls, but the workload bypasses it")
    fired = count["facts"]["counters"]["repro_sim_events_fired_total"]
    if profile["events"] != fired:
        problems.append(
            f"traced run dispatched {profile['events']} kernel events, "
            f"repro_sim_events_fired_total counted {fired}"
        )
    return problems


def measure_plain(runs: Runs, seconds: float, started: float) -> None:
    """Untraced runs until the next one would overrun ``seconds``
    (at least MIN_RUNS good ones; give up after MIN_RUNS failures)."""
    while runs.failed < MIN_RUNS:
        if len(runs.plain) >= MIN_RUNS and (
            time.monotonic() - started + runs.typical_duration() > seconds
        ):
            return
        runs.run("plain")


def measure_traced(runs: Runs, spec: dict, seconds: float, started: float):
    """One traced and one counting run, then untraced runs for the
    overhead; returns the per-layer metrics or None."""
    count = runs.run("count")
    if count is None:
        return None
    trace = runs.run(
        "trace", lambda r: trace_problems(runs.workload, spec, r, count)
    )
    measure_plain(runs, seconds, started)
    if trace is None or not runs.plain:
        return None
    plain_wall = statistics.median(r["wall_s"] for r in runs.plain)
    return per_layer(trace, plain_wall)


def print_metric(name: str, values: List[float], unit: str, clock: str) -> None:
    q1, median, q3 = quartiles(values)
    print(
        f"  {name:<19} median {median:>12.4f}  q1 {q1:>12.4f}  q3 {q3:>12.4f}"
        f"  n={len(values):<3} {unit:<6} clock={clock}"
    )


def report_end_to_end(runs: Runs, bench: dict, spec: dict) -> Dict[str, dict]:
    samples = end_to_end_samples(runs.plain)
    print(f"{runs.workload} seed {runs.seed}: {len(runs.plain)} untraced runs")
    metrics = {}
    for entry in bench["end_to_end"]:
        name = entry["name"]
        clock = spec["end_to_end"][name]["clock"]
        print_metric(name, samples[name], entry["unit"], clock)
        metrics[name] = {"value": statistics.median(samples[name]), "unit": entry["unit"]}
    print_metric("raw_wall_us_per_txn",
                 [r["wall_s"] / r["txns"] * 1e6 for r in runs.plain], "us", "host")
    print_metric("calibration_ms",
                 [r["calibration_s"] * 1e3 for r in runs.plain], "ms", "host")
    ratio = runs.failed / runs.attempted
    print(f"  {'failed_ratio':<19} {ratio:.4f} ({runs.failed} of {runs.attempted} runs)")
    return metrics


def report_per_layer(workload: str, values: Dict[str, float], bench: dict) -> Dict[str, dict]:
    print(f"{workload}: per-layer metrics of the traced run")
    units = {entry["name"]: entry["unit"] for entry in bench["per_layer"]}
    for layer in LAYERS:
        print(
            f"  {layer:<15} self {values[layer + '.self_us_per_txn']:>9.2f} us/txn"
            f"  share {values[layer + '.share']:>6.2f}%"
            f"  calls {values[layer + '.calls_per_txn']:>9.2f}/txn"
        )
    for name, value in values.items():
        if not name.endswith((".self_us_per_txn", ".share", ".calls_per_txn")):
            print(f"  {name:<32} {value:.6g} {units[name]}")
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def single(args, bench: dict, spec: dict, pins: dict) -> int:
    runs = Runs(args.workload, args.seed, pins)
    started = time.monotonic()
    if args.trace:
        values = measure_traced(runs, spec, args.seconds, started)
        if values is None:
            print("error: the traced run failed; no per-layer metrics", file=sys.stderr)
            return 1
        metrics = report_per_layer(args.workload, values, bench)
    else:
        measure_plain(runs, args.seconds, started)
        if not runs.plain:
            print("error: every run failed; no metrics", file=sys.stderr)
            return 1
        metrics = report_end_to_end(runs, bench, spec)
    print(json.dumps({
        "correct": runs.failed == 0,
        "attempted": runs.attempted,
        "failed": runs.failed,
        "metrics": metrics,
    }))
    return 0


def interleaved(args, bench: dict, spec: dict, pins: dict) -> int:
    """All workloads, one untraced run of each per round in rotating
    order, then one traced run of each; writes the per-layer tables."""
    all_runs = {name: Runs(name, args.seed, pins) for name in WORKLOADS}
    started = time.monotonic()
    rounds = 0
    while rounds < MIN_RUNS or time.monotonic() - started < args.seconds * len(WORKLOADS):
        shift = rounds % len(WORKLOADS)
        for name in WORKLOADS[shift:] + WORKLOADS[:shift]:
            all_runs[name].run("plain")
        rounds += 1
    metrics: Dict[str, dict] = {}
    tables = {}
    for name, runs in all_runs.items():
        if not runs.plain:
            print(f"error: every {name} run failed", file=sys.stderr)
            return 1
        for metric, value in report_end_to_end(runs, bench, spec).items():
            metrics[f"{name}.{metric}"] = value
    for name, runs in all_runs.items():
        values = measure_traced(runs, spec, 0.0, time.monotonic())
        if values is None:
            print(f"error: the traced {name} run failed", file=sys.stderr)
            return 1
        tables[name] = values
        report_per_layer(name, values, bench)
    out_dir = os.path.join(HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"layers-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(tables, handle, indent=1, sort_keys=True)
    print(f"wrote the per-layer tables to {os.path.relpath(path, ROOT)}")
    attempted = sum(r.attempted for r in all_runs.values())
    failed = sum(r.failed for r in all_runs.values())
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }))
    return 0


def pin(args, pins: dict) -> int:
    """Record the model outputs of ``--seed`` as the pinned ones."""
    for name in WORKLOADS if args.workload == "all" else (args.workload,):
        count = spawn(name, args.seed, "count")
        plain = spawn(name, args.seed, "plain")
        problems = count["problems"] + plain["problems"] + output_problems(plain, None, count["outputs"])
        if problems:
            print(f"error: {name}: {problems}", file=sys.stderr)
            return 1
        pins.setdefault(name, {})[str(args.seed)] = count["outputs"]
        print(f"pinned {name} seed {args.seed}: {count['outputs']}")
    with open(os.path.join(HERE, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long to measure (per workload)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="record this seed's model outputs in pins.json "
                             "(only after a deliberate model change)")
    args = parser.parse_args(argv)

    if not os.path.isdir(SOURCE):
        print(f"error: no program source at {os.path.relpath(SOURCE, ROOT)}",
              file=sys.stderr)
        return 2
    # Compile once up front so no run pays bytecode compilation in set-up.
    compileall.compile_dir(SOURCE, quiet=2)
    bench = _load(os.path.join(ROOT, "BENCHMARK.json"))
    spec = _load(os.path.join(HERE, "spec.json"))
    pins = _load(os.path.join(HERE, "pins.json"))
    if args.pin:
        return pin(args, pins)
    if args.workload == "all":
        return interleaved(args, bench, spec, pins)
    return single(args, bench, spec, pins)


if __name__ == "__main__":
    raise SystemExit(main())
