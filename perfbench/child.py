"""One fresh-process run of one workload; prints one JSON line.

Usage (``run.py`` spawns this; it is not meant to be typed)::

    python3 perfbench/child.py WORKLOAD SEED MODE SPAWNED_AT

``MODE`` is ``plain`` (no instrumentation: the end-to-end numbers),
``trace`` (the same run under ``cProfile``, for the per-layer numbers)
or ``count`` (telemetry ``full``, to read the kernel's own event
counter).  ``SPAWNED_AT`` is the parent's ``time.monotonic()`` just
before it started this process, so set-up time counts interpreter
start-up and imports.
"""

from __future__ import annotations

import heapq
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: Steps of the calibration loop on each side of the run.
CALIBRATION_STEPS = 100000


def _process():
    total = 0.0
    while True:
        total += yield


def calibrate(steps: int = CALIBRATION_STEPS) -> float:
    """Seconds this host takes for a fixed event loop in plain Python.

    A heap of timestamped events, generator resumptions and dict
    updates, like the simulator's inner loop but using none of its
    code, so no change to the program can move it: it measures only
    how fast the host runs Python right now.
    """
    heap = []
    processes = [_process() for _ in range(64)]
    for process in processes:
        next(process)
    counts = {}
    started = time.perf_counter()
    for i in range(steps):
        heapq.heappush(heap, ((i * 7919) % 1000 + i, i & 63))
        if len(heap) > 32:
            when, k = heapq.heappop(heap)
            processes[k].send(when)
            counts[k] = counts.get(k, 0) + 1
    return time.perf_counter() - started


class RunClock:
    """Times the simulated part of a run; the workload calls ``start``
    right before the first simulated event and ``stop`` after the last.

    An untraced run is bracketed by two calibrations, so the caller can
    tell a slow host phase from a slow program.  They sit outside both
    the set-up and the run times.
    """

    def __init__(self, spawned_at: float, calibrating: bool):
        self.spawned_at = spawned_at
        self.calibrating = calibrating
        self.setup_s = self.wall_s = self.calibration_s = 0.0
        self._started = 0.0

    def start(self) -> None:
        self.setup_s = time.monotonic() - self.spawned_at
        if self.calibrating:
            self.calibration_s = calibrate() / 2
        self._started = time.perf_counter()

    def stop(self) -> None:
        self.wall_s = time.perf_counter() - self._started
        if self.calibrating:
            self.calibration_s += calibrate() / 2


def main(argv) -> int:
    workload, seed, mode, spawned_at = argv[0], int(argv[1]), argv[2], float(argv[3])
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads

    workloads.preload()
    run = workloads.WORKLOADS[workload]
    workdir = os.path.join(HERE, ".work", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    clock = RunClock(spawned_at, calibrating=mode == "plain")
    profiler = None
    try:
        if mode == "trace":
            import cProfile

            profiler = cProfile.Profile()
            profiler.enable()
        telemetry_mode = "full" if mode == "count" else "off"
        outcome = run(seed, workdir, clock, telemetry_mode=telemetry_mode)
        if profiler is not None:
            profiler.disable()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "setup_s": clock.setup_s,
        "wall_s": clock.wall_s,
        "calibration_s": clock.calibration_s,
        "txns": outcome.txns,
        "virtual_s": outcome.virtual_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "outputs": outcome.outputs,
        "problems": outcome.problems,
        "facts": outcome.facts,
    }
    if profiler is not None:
        result["profile"] = profile_summary(profiler)
    print(json.dumps(result))
    return 0


def profile_summary(profiler) -> dict:
    """Reduce the profile to the per-layer raw numbers run.py needs."""
    import pstats

    import layers
    from repro.channels.message import Message
    from repro.core import persist, stitch
    from repro.core.profiler import StageRuntime
    from repro.parallel.reduce import ProfileAccumulator
    from repro.seda.stage import Dequeue, StageQueue
    from repro.sim.cpu import CPU
    from repro.sim.kernel import Kernel
    from repro.sim.process import SimThread
    from repro.telemetry.spans import SpanRecorder

    stats = pstats.Stats(profiler).stats
    return {
        "total_self_s": sum(value[2] for value in stats.values()),
        "self_s": layers.attribute(stats, HERE),
        "calls": layers.layer_calls(stats, HERE),
        "events": layers.kernel_events(stats, Kernel.run),
        "slices": layers.calls_of(stats, CPU._slice_done),
        "steps": layers.calls_of(stats, SimThread.step),
        "spawns": layers.calls_of(stats, Kernel.spawn),
        "enqueued": layers.calls_of(stats, StageQueue.enqueue),
        "dequeues": layers.calls_of(stats, Dequeue.execute),
        # Shells handed out: fresh constructions plus recycled ones.
        "messages": (
            layers.calls_of(stats, Message.__init__)
            - layers.edge_calls(stats, Message.acquire, Message.__init__)
            + layers.calls_of(stats, Message.acquire)
        ),
        "samples": layers.calls_of(stats, StageRuntime.on_cpu),
        "spans": layers.calls_of(stats, SpanRecorder._new_span),
        "rpc_calls": layers.module_calls(stats, "channels/rpc.py"),
        "save_s": layers.cumulative_s(stats, persist.save_stage),
        "load_s": layers.cumulative_s(stats, persist.load_stage),
        "stitch_s": layers.cumulative_s(stats, stitch.stitch_profiles),
        "reduce_s": (
            layers.cumulative_s(stats, ProfileAccumulator.add_profile)
            + layers.cumulative_s(stats, ProfileAccumulator.finalize)
        ),
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
