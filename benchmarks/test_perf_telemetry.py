"""Telemetry overhead: off vs spans vs full on the TPC-W system.

The live-telemetry layer promises *zero cost when off* and modest cost
when on.  This benchmark runs the same three-tier TPC-W workload under
all three modes, wall-timing each, and writes ``BENCH_telemetry.json``
at the repository root so CI can reject regressions of the disabled
path.

Set ``PERF_SMOKE=1`` (as the CI workflow does) to run a shorter
workload.
"""

import json
import os
import time
from pathlib import Path

from benchharness import fmt, print_table, run_once

from repro import telemetry
from repro.apps.tpcw import TpcwSystem

SMOKE = os.environ.get("PERF_SMOKE") == "1"

CLIENTS = 20 if SMOKE else 60
DURATION = 10.0 if SMOKE else 40.0
WARMUP = 2.0 if SMOKE else 5.0

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_telemetry.json"


def _run_mode(mode):
    """Wall-time one TPC-W run under the given telemetry mode."""
    if mode != "off":
        telemetry.install(mode)
    try:
        system = TpcwSystem(clients=CLIENTS, seed=23)
        start = time.perf_counter()
        results = system.run(duration=DURATION, warmup=WARMUP)
        elapsed = time.perf_counter() - start
        throughput = results.throughput_tpm()
        tele = telemetry.active()
        spans = tele.spans.completed if tele else 0
        return elapsed, throughput, spans
    finally:
        telemetry.uninstall()


# Resident-CCT bound for the live-stitcher row: deliberately smaller
# than the workload's context count so the LRU actually evicts and the
# row reflects checkpoint-spill pressure, not just in-memory appends.
LIVE_RESIDENT = 12

# Span-ring bound for the live row: the stitcher streams spans rather
# than reading them back, so retention can be a small ring.
LIVE_SPAN_RING = 1024


def _run_live(checkpoint_dir):
    """Wall-time the same run with the online streaming stitcher
    attached (spans mode + StitchingSink + interval checkpoints)."""
    from repro.live import attach_collector

    tele = telemetry.install("spans", span_capacity=LIVE_SPAN_RING)
    try:
        collector = attach_collector(
            tele,
            directory=checkpoint_dir,
            interval=2.0,
            max_resident=LIVE_RESIDENT,
        )
        system = TpcwSystem(clients=CLIENTS, seed=23)
        start = time.perf_counter()
        results = system.run(duration=DURATION, warmup=WARMUP)
        collector.finalize()
        elapsed = time.perf_counter() - start
        return elapsed, results.throughput_tpm(), collector
    finally:
        telemetry.uninstall()


def test_telemetry_overhead(benchmark, tmp_path):
    def run():
        out = {}
        for mode in ("off", "spans", "full"):
            elapsed, throughput, spans = _run_mode(mode)
            out[mode] = {
                "seconds": elapsed,
                "throughput_tpm": throughput,
                "spans": spans,
            }
        elapsed, throughput, collector = _run_live(str(tmp_path / "live"))
        out["live_stitcher"] = {
            "seconds": elapsed,
            "throughput_tpm": throughput,
            "spans": collector.spans_seen,
            "events": collector.events_absorbed,
            "events_per_sec": collector.events_absorbed / elapsed,
            "peak_resident": collector.peak_resident,
            "evictions": collector.evictions,
            "revivals": collector.revivals,
            "checkpoints": collector.checkpoints_written,
            "completeness": collector.completeness(),
        }
        return out

    out = run_once(benchmark, run)
    off = out["off"]["seconds"]
    for mode in ("spans", "full", "live_stitcher"):
        out[mode]["overhead_pct"] = 100.0 * (out[mode]["seconds"] / off - 1.0)
        # Reciprocal form (off wall / mode wall, 1.0 = free): higher is
        # better, so ``trend.py --gate`` can put a floor under it — the
        # CI spans-overhead gate row reads this key.
        out[mode]["speed_vs_off"] = off / out[mode]["seconds"]
    out["clients"] = CLIENTS
    out["duration"] = DURATION
    out["live_resident"] = LIVE_RESIDENT
    out["live_span_ring"] = LIVE_SPAN_RING
    out["smoke"] = SMOKE
    RESULTS_PATH.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")

    print_table(
        "telemetry overhead — TPC-W wall time",
        ["mode", "seconds", "spans", "overhead %"],
        [
            [
                mode,
                fmt(out[mode]["seconds"], 3),
                out[mode]["spans"],
                fmt(out[mode].get("overhead_pct", 0.0), 1),
            ]
            for mode in ("off", "spans", "full", "live_stitcher")
        ],
    )
    live = out["live_stitcher"]
    print_table(
        "live stitcher — streaming absorption under eviction",
        ["events/s", "peak resident", "evictions", "checkpoints"],
        [[
            fmt(live["events_per_sec"], 0),
            live["peak_resident"],
            live["evictions"],
            live["checkpoints"],
        ]],
    )

    # Telemetry must not perturb the simulation itself: the virtual-time
    # outcome is identical in all modes (deterministic seed) — including
    # with the online stitcher consuming the profile-event stream.
    assert out["off"]["throughput_tpm"] == out["spans"]["throughput_tpm"]
    assert out["off"]["throughput_tpm"] == out["full"]["throughput_tpm"]
    assert out["off"]["throughput_tpm"] == live["throughput_tpm"]
    # Telemetry on actually records something.
    assert out["full"]["spans"] > 0
    # The live row measured real bounded-memory behaviour: the LRU
    # bound held and eviction was actually exercised.
    assert live["events"] > 0
    assert live["peak_resident"] <= LIVE_RESIDENT
    assert live["evictions"] > 0
    assert live["completeness"] == 1.0
    # Enabled modes stay within a generous envelope (wall clocks on CI
    # are noisy; the committed-baseline comparison guards the off path).
    assert out["full"]["seconds"] < off * 3.0
