"""The benchmark's three seeded workloads, run once each.

Every workload function takes the seed, a scratch directory inside
the checkout and the run's clock, runs the whole simulated load in this
one process (no worker pool), and returns an :class:`Outcome`: the
number of completed transactions, the virtual seconds simulated, the model outputs that are pinned for exact equality, and
the invariant checks that hold for any seed.

Each workload calls ``clock.start()`` once set-up (imports plus
building the system or shard plan) is done, right before the first
simulated event, and ``clock.stop()`` when the simulation ends; the
host wall time between the two is the run time.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List

#: Closed-loop TPC-W: Squid -> Tomcat -> MySQL, browsing mix.
TPCW = {"clients": 200, "think_mean": 7.0, "warmup": 10.0, "duration": 50.0}
#: Open-loop Haboob: Poisson sessions at 800/s over 4 in-process shards.
#: The session budget is fixed, so the backlog drains inside the horizon.
OPENLOOP = {"rate": 800.0, "sessions": 3000, "shards": 4, "horizon": 60.0}
#: Online stitching on top of TPCW: span ring, LRU bound below the
#: number of live contexts (so it evicts), checkpoints every 2 virtual s.
LIVE = {"span_capacity": 1024, "max_resident": 12, "interval": 2.0}


@dataclass
class Outcome:
    txns: int
    virtual_s: float
    #: Model outputs pinned per (workload, seed); compared for equality.
    outputs: Dict[str, Any]
    #: Failed invariant checks (any seed); empty when the run is correct.
    problems: List[str] = field(default_factory=list)
    #: Raw counts and sizes for the per-layer metrics.
    facts: Dict[str, Any] = field(default_factory=dict)


def preload() -> None:
    """Import every module a workload touches, so none is imported
    inside a timed or profiled region."""
    import repro.apps.haboob  # noqa: F401
    import repro.apps.tpcw  # noqa: F401
    import repro.core.persist  # noqa: F401
    import repro.live  # noqa: F401
    import repro.parallel  # noqa: F401
    import repro.workloads  # noqa: F401


def digest(profile) -> str:
    from repro.parallel import canonical_profile_bytes

    return hashlib.sha256(canonical_profile_bytes(profile)).hexdigest()


def _tree_bytes(directory: str) -> int:
    return sum(
        os.path.getsize(os.path.join(root, name))
        for root, _, names in os.walk(directory)
        for name in names
    )


def _run_tpcw(seed: int, workdir: str, clock, live: bool,
              telemetry_mode: str) -> Outcome:
    from repro import telemetry
    from repro.apps.tpcw import TpcwSystem
    from repro.core.persist import load_stage
    from repro.core.stitch import stitch_profiles

    tele = None
    collector = None
    live_dir = os.path.join(workdir, "live")
    if live or telemetry_mode == "full":
        tele = telemetry.install(
            "full" if telemetry_mode == "full" else "spans",
            span_capacity=LIVE["span_capacity"] if live else None,
        )
    if live:
        from repro.live import attach_collector

        collector = attach_collector(
            tele,
            directory=live_dir,
            interval=LIVE["interval"],
            max_resident=LIVE["max_resident"],
        )
    try:
        system = TpcwSystem(
            clients=TPCW["clients"], think_mean=TPCW["think_mean"], seed=seed
        )
        clock.start()
        results = system.run(duration=TPCW["duration"], warmup=TPCW["warmup"])
        clock.stop()

        txns = len(results.log.records)
        comm = results.comm_overhead()
        facts: Dict[str, Any] = {
            "data_bytes": comm["data_bytes"],
            "context_bytes": comm["context_bytes"],
        }
        problems: List[str] = []
        memory_digest = digest(results.stitch(strict=True))

        paths = system.save_profiles(os.path.join(workdir, "dump"), "v2")
        facts["dump_bytes"] = sum(os.path.getsize(p) for p in paths.values())
        loaded = [load_stage(paths[name]) for name in ("squid", "tomcat", "mysql")]
        stitched = stitch_profiles(loaded, strict=True)
        post_mortem = digest(stitched)
        if post_mortem != memory_digest:
            problems.append("v2 dump round trip changed the stitched profile")
        if stitched.completeness != 1.0:
            problems.append(f"stitch completeness {stitched.completeness}")

        outputs: Dict[str, Any] = {
            "interactions": txns,
            "throughput_tpm": repr(results.throughput_tpm()),
            "mean_response_s": repr(results.mean_response()),
            "profile_sha256": post_mortem,
        }
        if collector is not None:
            collector.finalize()
            facts["checkpoint_bytes"] = _tree_bytes(live_dir)
            facts["live_events"] = collector.events_absorbed
            facts["evictions"] = collector.evictions
            facts["revivals"] = collector.revivals
            live_digest = digest(collector.compact(strict=True))
            if live_digest != post_mortem:
                problems.append("live compacted profile differs from post-mortem stitch")
            outputs["live_evictions"] = collector.evictions
            outputs["live_revivals"] = collector.revivals
        if tele is not None and tele.wants_metrics:
            facts["counters"] = _counters(tele.metrics.snapshot())
        return Outcome(txns, system.kernel.now, outputs, problems, facts)
    finally:
        telemetry.uninstall()


def run_tpcw_browsing(seed, workdir, clock, telemetry_mode="off"):
    return _run_tpcw(seed, workdir, clock, False, telemetry_mode)


def run_tpcw_live(seed, workdir, clock, telemetry_mode="off"):
    return _run_tpcw(seed, workdir, clock, True, telemetry_mode)


def run_haboob_openloop(seed, workdir, clock, telemetry_mode="off"):
    from repro.parallel import plan_shards, run_shards

    sessions = OPENLOOP["sessions"]
    plan = plan_shards(
        "openloop",
        seed=seed,
        clients=sessions,
        shards=OPENLOOP["shards"],
        duration=OPENLOOP["horizon"],
        params={"arrival_rate": OPENLOOP["rate"], "total_clients": sessions},
        spool_dir=os.path.join(workdir, "spool"),
        profile_format="v2",
        telemetry_mode=telemetry_mode,
    )
    clock.start()
    run = run_shards(plan, jobs=1)
    clock.stop()

    served = run.served()
    problems: List[str] = []
    finished = run.sessions_finished()
    if run.sessions_started() != sessions or finished != sessions:
        problems.append(
            f"{run.sessions_started()} sessions started, {finished} finished, "
            f"of a {sessions} budget: the backlog did not drain"
        )
    completed = run.interaction_counts().get("GET", 0)
    if completed != served:
        problems.append(f"{served} responses served but {completed} received")
    profile = run.stitch(jobs=1, strict=True)
    if profile.completeness != 1.0:
        problems.append(f"stitch completeness {profile.completeness}")
    outputs = {
        "sessions_finished": finished,
        "served": served,
        "mean_response_s": repr(run.mean_response()),
        "profile_sha256": digest(profile),
    }
    facts: Dict[str, Any] = {
        "data_bytes": sum(r.comm[0] for r in run.results),
        "context_bytes": sum(r.comm[1] for r in run.results),
        "dump_bytes": run.dump_bytes(),
    }
    if telemetry_mode == "full":
        facts["counters"] = _counters(run.merged_metrics().snapshot())
        outputs["seda_rejected"] = int(facts["counters"]["repro_seda_rejected_total"])
    # Every shard simulates its own deployment up to the horizon.
    virtual = OPENLOOP["horizon"] * len(run.results)
    return Outcome(served, virtual, outputs, problems, facts)


def _counters(snapshot) -> Dict[str, float]:
    """Counter totals by name, summed over label sets."""
    totals: Dict[str, float] = {}
    for row in snapshot:
        if row["kind"] == "counter":
            totals[row["name"]] = totals.get(row["name"], 0) + row["value"]
    return totals


WORKLOADS = {
    "tpcw_browsing": run_tpcw_browsing,
    "haboob_openloop": run_haboob_openloop,
    "tpcw_live": run_tpcw_live,
}
