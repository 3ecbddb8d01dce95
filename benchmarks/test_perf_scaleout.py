"""Scale-out benchmark: work-stealing shards + hierarchical reduce.

Measures the headline numbers of the cluster-shaped runtime and writes
them to ``BENCH_scaleout.json`` at the repository root:

- **run+stitch wall time**: legacy single-system serial path vs a
  4-shard plan executed with 1 worker and with 4 workers on the
  persistent work-stealing pool.  The ≥2.5x speedup assertion only
  fires when the machine actually has the cores
  (``os.cpu_count() >= SHARDS``) — on a 1-core box a process pool
  can't beat serial and pretending otherwise would poison the
  trajectory.  The recorded ``cpu_count`` keeps BENCH files comparable
  across machines.  Per-shard wall skew (max/mean) quantifies the
  straggler spread work stealing absorbs.
- **pool reuse**: the same sharded run against a cold pool (workers
  must be forked) and a warm one (the session pool) — the satellite
  fix for ``parallel_gain_over_1job < 1``.
- **reduce tree**: group-merge walls, artifact bytes and the parent
  fold time of the hierarchical shard→group→global reduce, plus the
  proof that its output is byte-identical to the flat reduce.
- **open-loop million**: ≥1,000,000 simulated clients (sessions)
  generated across 8 shards by the non-homogeneous Poisson generator
  (diurnal curve + flash crowd + Pareto think times), spooled and
  stitched end to end.  ``PERF_SMOKE=1`` scales the population down
  for CI.
- **dump bytes**: v1 vs v2 for the same run; gated at ≥5x.
- **determinism proof**: the canonical SHA-256 of the merged 4-shard
  profile, asserted byte-identical between the 1-worker and 4-worker
  executions.

Set ``PERF_SMOKE=1`` (as the CI workflow does) for a smaller workload.
"""

import hashlib
import json
import os
import time
from pathlib import Path

from benchharness import fmt, print_table, run_once

from repro.apps.tpcw import TpcwSystem
from repro.core.persist import dump_size
from repro.core.stitch import stitch_profiles
from repro.parallel import (
    canonical_profile_bytes,
    default_group_size,
    get_pool,
    plan_shards,
    run_shards,
    shutdown_pools,
    stitch_groups,
)

SMOKE = os.environ.get("PERF_SMOKE") == "1"

SHARDS = 4
JOBS = 4
SEED = 42
# 200 clients (50 per shard): the hot-path overhaul absorbs a ~1.7x
# bigger deployment in comparable wall time, so the recorded workload
# grew with it.  ``settings`` stamps the size into BENCH_scaleout.json
# every run — throughput_tpm values are only comparable at equal
# settings (the benchmark-honesty contract).
CLIENTS = 40 if SMOKE else 200
DURATION = 30.0 if SMOKE else 90.0
WARMUP = 5.0 if SMOKE else 15.0

#: The open-loop population row: a million simulated clients, spread
#: over 8 shards (smoke-scaled for CI).
MILLION_SHARDS = 8
MILLION_CLIENTS = 40_000 if SMOKE else 1_000_000
MILLION_RATE = 20_000.0  # sessions per virtual second, population-wide
MILLION_DURATION = (MILLION_CLIENTS / MILLION_RATE) * 1.3

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_scaleout.json"


def _record(key, value):
    """Merge one result into BENCH_scaleout.json, stamping the machine
    and workload settings every run (the benchmark-honesty contract)."""
    data = {}
    if RESULTS_PATH.exists():
        data = json.loads(RESULTS_PATH.read_text())
    data[key] = value
    data["smoke"] = SMOKE
    data["cpu_count"] = os.cpu_count()
    data["settings"] = {
        "shards": SHARDS,
        "jobs": JOBS,
        "seed": SEED,
        "clients": CLIENTS,
        "duration": DURATION,
        "warmup": WARMUP,
    }
    RESULTS_PATH.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _legacy_serial():
    """The pre-scale-out path: one system, in-process serial stitch."""
    start = time.perf_counter()
    system = TpcwSystem(clients=CLIENTS, seed=SEED)
    results = system.run(duration=DURATION, warmup=WARMUP)
    stitch_profiles(system.stages_by_name.values())
    wall = time.perf_counter() - start
    return system, results, wall


def _sharded(tmp_path, jobs):
    spool = str(tmp_path / f"spool-j{jobs}")
    start = time.perf_counter()
    plan = plan_shards(
        "tpcw",
        seed=SEED,
        clients=CLIENTS,
        shards=SHARDS,
        duration=DURATION,
        warmup=WARMUP,
        spool_dir=spool,
        profile_format="v2",
    )
    run = run_shards(plan, jobs=jobs)
    profile = run.stitch(jobs=jobs)
    wall = time.perf_counter() - start
    return run, profile, wall


def test_scaleout_run_and_stitch(benchmark, tmp_path):
    def experiment():
        _, _, serial_wall = _legacy_serial()
        run_1, profile_1, sharded_serial_wall = _sharded(tmp_path, jobs=1)
        # Warm the session pool first: its startup is a once-per-session
        # cost by design, not part of a run's wall time.
        get_pool(JOBS).run(_noop, [0])
        run_n, profile_n, sharded_parallel_wall = _sharded(tmp_path, jobs=JOBS)
        return (serial_wall, sharded_serial_wall, sharded_parallel_wall,
                run_1, profile_1, run_n, profile_n)

    (serial_wall, sharded_serial_wall, sharded_parallel_wall,
     run_1, profile_1, run_n, profile_n) = run_once(benchmark, experiment)

    # -- determinism proof (scheduling independence) -------------------
    bytes_1 = canonical_profile_bytes(profile_1)
    bytes_n = canonical_profile_bytes(profile_n)
    assert bytes_1 == bytes_n, "parallel stitch diverged from serial stitch"
    assert run_1.throughput() == run_n.throughput()
    proof = hashlib.sha256(bytes_1).hexdigest()

    cpu_count = os.cpu_count() or 1
    speedup = serial_wall / sharded_parallel_wall
    parallel_gain = sharded_serial_wall / sharded_parallel_wall
    gates_asserted = cpu_count >= SHARDS
    skip_reason = None
    if not gates_asserted:
        skip_reason = (
            f"cpu_count {cpu_count} < {SHARDS} shards: a process pool "
            "cannot beat serial without the cores; wall numbers recorded "
            "honestly, speedup gates not asserted"
        )

    print_table(
        "scale-out: run + stitch wall time",
        ["path", "wall s", "vs serial"],
        [
            ["legacy serial", fmt(serial_wall, 3), "1.00x"],
            [f"{SHARDS} shards, 1 job", fmt(sharded_serial_wall, 3),
             f"{serial_wall / sharded_serial_wall:.2f}x"],
            [f"{SHARDS} shards, {JOBS} jobs", fmt(sharded_parallel_wall, 3),
             f"{speedup:.2f}x"],
        ],
    )
    print(f"determinism proof (canonical sha256): {proof}")
    print(f"cpu_count={cpu_count}, shard skew x{run_n.wall_skew():.2f}")

    _record(
        "run_stitch",
        {
            "serial_wall_s": serial_wall,
            "sharded_serial_wall_s": sharded_serial_wall,
            "sharded_parallel_wall_s": sharded_parallel_wall,
            "speedup_vs_serial": speedup,
            "parallel_gain_over_1job": parallel_gain,
            "shard_walls_s": run_n.shard_walls(),
            "shard_wall_skew": run_n.wall_skew(),
            "throughput_tpm": run_n.throughput(),
            "determinism_sha256": proof,
            "parallel_equals_serial": bytes_1 == bytes_n,
            "gates_asserted": gates_asserted,
            "gate_skip_reason": skip_reason,
        },
    )

    # The ≥2.5x headline needs ≥SHARDS real cores; assert it only
    # there, record honestly everywhere (the recorded skip reason says
    # exactly why a BENCH file carries unasserted numbers).
    if gates_asserted:
        assert speedup >= 2.5, (
            f"expected >=2.5x run+stitch speedup at {SHARDS} shards/{JOBS} "
            f"jobs on a {cpu_count}-core machine, got {speedup:.2f}x"
        )
        assert parallel_gain > 1.0, (
            f"{JOBS} jobs must beat 1 job on a {cpu_count}-core machine, "
            f"got {parallel_gain:.2f}x"
        )
    else:
        print(f"gate skipped: {skip_reason}")
        # Softened floor for core-starved machines: extra jobs may not
        # *help* without cores, but pool dispatch overhead must never
        # make the multi-job path pathologically slower than one job.
        assert parallel_gain > 0.5, (
            f"{JOBS} jobs are {1 / parallel_gain:.2f}x slower than 1 job "
            f"on a {cpu_count}-core machine — pool overhead, not core "
            "starvation"
        )


def _noop(value):
    return value


def _pool_reuse_plan(tmp_path, tag):
    return plan_shards(
        "haboob",
        seed=SEED,
        clients=16,
        shards=SHARDS,
        duration=3.0,
        spool_dir=str(tmp_path / f"reuse-{tag}"),
        profile_format="v2",
    )


def test_scaleout_pool_reuse(benchmark, tmp_path):
    """Cold pool (fork workers, then run) vs the warm session pool."""

    def experiment():
        shutdown_pools()
        start = time.perf_counter()
        run_shards(_pool_reuse_plan(tmp_path, "cold"), jobs=JOBS)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        run_shards(_pool_reuse_plan(tmp_path, "warm"), jobs=JOBS)
        warm = time.perf_counter() - start
        return cold, warm

    cold, warm = run_once(benchmark, experiment)
    gain = cold / warm

    print_table(
        "pool reuse: identical sharded runs",
        ["pool state", "wall s", "gain"],
        [
            ["cold (forks workers)", fmt(cold, 3), "1.00x"],
            ["warm (session pool)", fmt(warm, 3), f"{gain:.2f}x"],
        ],
    )
    _record(
        "pool_reuse",
        {
            "cold_wall_s": cold,
            "warm_wall_s": warm,
            "pool_reuse_gain": gain,
        },
    )
    # The warm run must not be slower beyond noise: pool startup is the
    # whole difference between the two runs.
    assert gain > 0.8, f"warm pool slower than cold pool ({gain:.2f}x)"


def test_scaleout_reduce_tree(benchmark, tmp_path):
    """Hierarchical shard→group→global vs the flat reduce, same spool.

    Both run at jobs=1; the tree's ≈√N group size is forced explicitly,
    since the derived shape at jobs=1 is the one-group fold."""

    def experiment():
        plan = plan_shards(
            "haboob",
            seed=SEED,
            clients=4 * SHARDS,
            shards=4 * SHARDS,  # enough shards for a real tree
            duration=3.0,
            spool_dir=str(tmp_path / "tree"),
            profile_format="v2",
        )
        run = run_shards(plan, jobs=1)
        groups = run.dump_groups()
        start = time.perf_counter()
        flat = run.stitch()
        flat_wall = time.perf_counter() - start
        stats = {}
        start = time.perf_counter()
        tree = stitch_groups(
            groups, group_size=default_group_size(len(groups)), stats=stats
        )
        tree_wall = time.perf_counter() - start
        return flat, flat_wall, tree, tree_wall, stats

    flat, flat_wall, tree, tree_wall, stats = run_once(benchmark, experiment)
    identical = canonical_profile_bytes(flat) == canonical_profile_bytes(tree)
    assert identical, "hierarchical reduce diverged from flat reduce"

    print_table(
        "reduce tree: flat vs hierarchical (same bytes out)",
        ["path", "wall s", "parent fold s"],
        [
            ["flat all-shards", fmt(flat_wall, 4), fmt(flat_wall, 4)],
            [f"{stats['groups']} groups of {stats['group_size']}",
             fmt(tree_wall, 4), fmt(stats["parent_fold_s"], 4)],
        ],
    )
    _record(
        "reduce_tree",
        {
            "shards": 4 * SHARDS,
            "group_size": stats["group_size"],
            "groups": stats["groups"],
            "flat_wall_s": flat_wall,
            "tree_wall_s": tree_wall,
            "group_walls_s": stats["group_walls"],
            "group_bytes": stats["group_bytes"],
            "parent_fold_s": stats["parent_fold_s"],
            "tree_equals_flat": identical,
        },
    )


def test_scaleout_openloop_million(benchmark, tmp_path):
    """≥1M simulated clients across shards — the north-star row."""

    params = {
        "arrival_rate": MILLION_RATE,
        "total_clients": MILLION_CLIENTS,
        "diurnal_amplitude": 0.3,
        "diurnal_period": 20.0,
        "flash_crowds": [[10.0, 5.0, 2.0]],
        "think": {"distribution": "pareto", "alpha": 1.5, "minimum": 0.01},
        "objects": 500,
        "record_log": False,
    }

    def experiment():
        plan = plan_shards(
            "openloop",
            seed=SEED,
            clients=MILLION_CLIENTS,
            shards=MILLION_SHARDS,
            duration=MILLION_DURATION,
            params=params,
            spool_dir=str(tmp_path / "openloop"),
            profile_format="v2",
        )
        jobs = min(JOBS, MILLION_SHARDS)
        start = time.perf_counter()
        run = run_shards(plan, jobs=jobs)
        run_wall = time.perf_counter() - start
        start = time.perf_counter()
        profile = run.stitch(jobs=jobs)
        stitch_wall = time.perf_counter() - start
        return run, run_wall, profile, stitch_wall

    run, run_wall, profile, stitch_wall = run_once(benchmark, experiment)
    started = run.sessions_started()
    rate = started / run_wall

    print_table(
        f"open-loop population across {MILLION_SHARDS} shards",
        ["metric", "value"],
        [
            ["simulated clients (sessions)", started],
            ["sessions finished", run.sessions_finished()],
            ["responses served", run.served()],
            ["run wall s", fmt(run_wall, 2)],
            ["sessions / wall s", fmt(rate, 0)],
            ["mean response ms", fmt(run.mean_response() * 1000, 2)],
            ["shard skew", f"x{run.wall_skew():.2f}"],
            ["stitched contexts", len(profile.entries)],
        ],
    )
    _record(
        "openloop_million",
        {
            "simulated_clients": started,
            "planned_clients": MILLION_CLIENTS,
            "shards": MILLION_SHARDS,
            "sessions_finished": run.sessions_finished(),
            "responses_served": run.served(),
            "run_wall_s": run_wall,
            "sessions_per_wall_s": rate,
            "mean_response_ms": run.mean_response() * 1000,
            "shard_wall_skew": run.wall_skew(),
            "stitch_wall_s": stitch_wall,
            "stitched_contexts": len(profile.entries),
            "arrival_rate": MILLION_RATE,
            "diurnal_amplitude": params["diurnal_amplitude"],
            "flash_crowds": params["flash_crowds"],
            "think": params["think"],
        },
    )
    assert started >= MILLION_CLIENTS, (
        f"planned {MILLION_CLIENTS} sessions, generated only {started}"
    )


def test_scaleout_dump_size(benchmark):
    def experiment():
        system, _, _ = _legacy_serial()
        stages = list(system.stages_by_name.values())
        v1 = sum(dump_size(stage, "v1") for stage in stages)
        v2 = sum(dump_size(stage, "v2") for stage in stages)
        per_stage = {
            name: [dump_size(stage, "v1"), dump_size(stage, "v2")]
            for name, stage in system.stages_by_name.items()
        }
        return v1, v2, per_stage

    v1, v2, per_stage = run_once(benchmark, experiment)
    ratio = v1 / v2

    print_table(
        "profile dump size (same run)",
        ["stage", "v1 bytes", "v2 bytes", "ratio"],
        [[name, a, b, f"{a / b:.2f}x"] for name, (a, b) in per_stage.items()]
        + [["total", v1, v2, f"{ratio:.2f}x"]],
    )

    _record(
        "dump_size",
        {
            "v1_bytes": v1,
            "v2_bytes": v2,
            "ratio": ratio,
            "per_stage": per_stage,
        },
    )
    assert ratio >= 5.0, f"v2 must be >=5x smaller than v1, got {ratio:.2f}x"
