"""Profile the transaction hot path end-to-end (the perf-work harness).

Runs the seeded TPC-W and open-loop workloads under ``cProfile`` and
``tracemalloc`` and prints top-N tables of cumulative time, self time
and allocation sites, plus the cyclic garbage collector's passes per
generation and its host time per transaction (which cProfile spreads
over whatever frame happened to allocate).  This is the harness the
hot-path optimisation work is driven from: every per-transaction cost
attacked in ``docs/performance.md`` (synopsis composites, context
hashing, batched SEDA dequeue, span allocation, reference cycles)
first showed up in these tables.

Not a pytest benchmark — run it directly::

    PYTHONPATH=src python benchmarks/profile_hotpath.py            # both
    PYTHONPATH=src python benchmarks/profile_hotpath.py tpcw
    PYTHONPATH=src python benchmarks/profile_hotpath.py openloop --top 25
    PYTHONPATH=src python benchmarks/profile_hotpath.py tpcw --telemetry spans

The workloads are deterministic (fixed seeds), so two runs of the same
tree profile the same virtual execution and tables diff cleanly across
commits.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import pstats
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from benchharness import fmt, print_table  # noqa: E402


def run_tpcw(clients: int = 60, duration: float = 40.0, warmup: float = 5.0):
    """The telemetry benchmark's TPC-W workload (seed 23); returns the
    number of completed interactions."""
    from repro.apps.tpcw import TpcwSystem

    system = TpcwSystem(clients=clients, seed=23)
    return len(system.run(duration=duration, warmup=warmup).log.records)


def run_openloop(sessions: int = 4000, duration: float = 120.0, rate: float = 60.0):
    """The scale-out benchmark's open-loop Haboob workload (seed 42);
    returns the number of completed requests."""
    from repro.apps.haboob import HaboobConfig, HaboobServer
    from repro.sim import Kernel, Rng
    from repro.workloads import OpenLoopClientPool, WebTrace

    kernel = Kernel()
    trace = WebTrace(Rng(42), objects=2000)
    server = HaboobServer(
        kernel, trace, config=HaboobConfig(cache_bytes=512 * 1024)
    )
    server.start()
    pool = OpenLoopClientPool(
        kernel,
        server.listener,
        trace,
        arrival_rate=rate,
        rng=Rng(42).stream("openloop"),
        max_sessions=sessions,
        record_log=False,
    )
    pool.start()
    kernel.run(until=duration)
    return pool.completed_requests


WORKLOADS = {"tpcw": run_tpcw, "openloop": run_openloop}


class GcMeter:
    """Collector passes per generation and their host seconds.

    A ``gc.callbacks`` hook: cProfile charges a collection to whichever
    frame happened to allocate, so the collector never shows up as a
    line of its own in the tables above.
    """

    def __init__(self):
        self.collections = [0, 0, 0]
        self.seconds = 0.0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._started
            self.collections[info["generation"]] += 1

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def _stat_rows(stats: pstats.Stats, sort: str, top: int):
    stats.sort_stats(sort)
    rows = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _ = stats.stats[func]  # type: ignore[attr-defined]
        filename, line, name = func
        where = f"{Path(filename).name}:{line}" if line else filename
        rows.append([name, where, nc, fmt(tt, 3), fmt(ct, 3)])
    return rows


def profile_workload(name: str, top: int, telemetry_mode: str) -> None:
    from repro import telemetry

    run = WORKLOADS[name]
    if telemetry_mode != "off":
        telemetry.install(telemetry_mode)
    profiler = cProfile.Profile()
    tracemalloc.start(10)
    try:
        profiler.enable()
        run()
        profiler.disable()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
        telemetry.uninstall()

    stats = pstats.Stats(profiler)
    for sort, title in (("cumulative", "cumulative time"), ("tottime", "self time")):
        print_table(
            f"{name} — top {top} by {title} (telemetry={telemetry_mode})",
            ["function", "where", "calls", "self s", "cum s"],
            _stat_rows(stats, sort, top),
        )

    # The collector's share comes from a second, uninstrumented run:
    # cProfile and tracemalloc slow the collector and everything else
    # by different factors.
    if telemetry_mode != "off":
        telemetry.install(telemetry_mode)
    gc.collect()
    try:
        with GcMeter() as meter:
            started = time.perf_counter()
            txns = run()
            wall = time.perf_counter() - started
    finally:
        telemetry.uninstall()
    print_table(
        f"{name} — cyclic garbage collector, uninstrumented run "
        f"({txns} transactions, {fmt(1e6 * wall / txns, 1)} µs each)",
        ["gen 0", "gen 1", "gen 2", "collector µs/txn", "share of wall"],
        [[*meter.collections, fmt(1e6 * meter.seconds / txns, 1),
          f"{100.0 * meter.seconds / wall:.1f}%"]],
    )

    alloc_rows = []
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        alloc_rows.append([
            f"{Path(frame.filename).name}:{frame.lineno}",
            stat.count,
            f"{stat.size / 1024.0:.1f} KiB",
        ])
    print_table(
        f"{name} — top {top} allocation sites (tracemalloc)",
        ["site", "blocks", "size"],
        alloc_rows,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "workload",
        nargs="*",
        choices=[*WORKLOADS, []],
        default=[],
        help="workloads to profile (default: all)",
    )
    parser.add_argument("--top", type=int, default=20, help="rows per table")
    parser.add_argument(
        "--telemetry",
        choices=("off", "spans", "full"),
        default="off",
        help="telemetry mode to profile under (default off)",
    )
    args = parser.parse_args(argv)
    for name in args.workload or list(WORKLOADS):
        profile_workload(name, args.top, args.telemetry)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
