"""Scale-out determinism: sharded output is a pure function of the plan.

Three guarantees, each load-bearing for trusting a profile produced on
N cores:

1. **Scheduling independence** — the same 4-shard plan executed with 1
   worker and with several workers yields byte-identical shard dumps
   and a byte-identical merged profile (after canonical ordering).
2. **Parallel stitch == serial stitch** — the map-reduce presentation
   phase produces exactly the profile a serial fold produces.
3. **Serial equivalence** — a ``shards=1`` plan writes dumps that are
   byte-for-byte the files the legacy in-process path writes, in both
   formats.
"""

import hashlib

from repro.apps.tpcw import TpcwSystem
from repro.core.persist import PROFILE_FORMATS
from repro.parallel import (
    canonical_profile_bytes,
    plan_shards,
    run_shards,
    stitch_groups,
    stitch_spool,
)

SEED = 42
CLIENTS = 20
DURATION = 20.0
WARMUP = 5.0


def _run(tmp_path, shards, jobs, tag):
    spool = str(tmp_path / f"spool-{tag}")
    plan = plan_shards(
        "tpcw",
        seed=SEED,
        clients=CLIENTS,
        shards=shards,
        duration=DURATION,
        warmup=WARMUP,
        spool_dir=spool,
        profile_format="v2",
    )
    return run_shards(plan, jobs=jobs), spool


def _file_hashes(run):
    return [
        hashlib.sha256(open(path, "rb").read()).hexdigest()
        for result in run.results
        for path in result.dump_paths
    ]


def _stage_weights(profile):
    weights = {}
    for (stage, _), cct in profile.entries.items():
        weights[stage] = weights.get(stage, 0.0) + cct.total_weight()
    return weights


def test_jobs_do_not_change_the_output(tmp_path):
    """4 shards, 1 worker vs 2 workers: identical everything."""
    serial, _ = _run(tmp_path, shards=4, jobs=1, tag="serial")
    pooled, _ = _run(tmp_path, shards=4, jobs=2, tag="pooled")

    assert _file_hashes(serial) == _file_hashes(pooled)
    assert serial.throughput() == pooled.throughput()
    assert serial.served() == pooled.served()
    assert serial.crosstalk_wait_ms() == pooled.crosstalk_wait_ms()
    assert serial.db_cpu_share() == pooled.db_cpu_share()

    a = serial.stitch(jobs=1)
    b = pooled.stitch(jobs=2)
    assert canonical_profile_bytes(a) == canonical_profile_bytes(b)
    # Exactly the same per-stage weights, not just approximately.
    assert _stage_weights(a) == _stage_weights(b)


def test_parallel_stitch_equals_serial_stitch(tmp_path):
    run, spool = _run(tmp_path, shards=4, jobs=1, tag="stitch")
    groups = run.dump_groups()
    serial = stitch_groups(groups, jobs=1)
    pooled = stitch_groups(groups, jobs=3)
    assert canonical_profile_bytes(serial) == canonical_profile_bytes(pooled)
    # The spool manifest reconstructs the same groups.
    from_manifest = stitch_spool(spool, jobs=2)
    assert canonical_profile_bytes(from_manifest) == canonical_profile_bytes(serial)


def test_single_shard_matches_legacy_serial_path(tmp_path):
    """--shards 1 is byte-identical to the in-process run, per format."""
    for profile_format in PROFILE_FORMATS:
        system = TpcwSystem(clients=CLIENTS, seed=SEED)
        system.run(duration=DURATION, warmup=WARMUP)
        legacy_dir = tmp_path / f"legacy-{profile_format}"
        legacy = system.save_profiles(str(legacy_dir), profile_format)

        plan = plan_shards(
            "tpcw",
            seed=SEED,
            clients=CLIENTS,
            shards=1,
            duration=DURATION,
            warmup=WARMUP,
            spool_dir=str(tmp_path / f"sharded-{profile_format}"),
            profile_format=profile_format,
        )
        run = run_shards(plan, jobs=1)
        sharded = run.results[0].dump_paths
        assert len(sharded) == len(legacy)
        legacy_by_name = {
            path.rsplit("/", 1)[-1]: path for path in legacy.values()
        }
        for path in sharded:
            name = path.rsplit("/", 1)[-1]
            with open(path, "rb") as a, open(legacy_by_name[name], "rb") as b:
                assert a.read() == b.read(), (profile_format, name)


def test_rerun_is_byte_reproducible(tmp_path):
    """Same plan, fresh processes: identical dumps (no hidden state)."""
    first, _ = _run(tmp_path, shards=2, jobs=2, tag="first")
    second, _ = _run(tmp_path, shards=2, jobs=2, tag="second")
    assert _file_hashes(first) == _file_hashes(second)


def test_openloop_shards_are_deterministic(tmp_path):
    """The open-loop workload shards like the closed-loop ones: same
    plan, any job count, byte-identical dumps and aggregates."""
    params = {
        "arrival_rate": 300.0,
        "total_clients": 600,
        "diurnal_amplitude": 0.4,
        "diurnal_period": 5.0,
        "flash_crowds": [[1.0, 1.0, 2.0]],
        "think": {"distribution": "pareto", "alpha": 1.5, "minimum": 0.05},
    }

    def run(tag, jobs):
        plan = plan_shards(
            "openloop",
            seed=13,
            clients=600,
            shards=4,
            duration=4.0,
            params=params,
            spool_dir=str(tmp_path / tag),
            profile_format="v2",
        )
        return run_shards(plan, jobs=jobs)

    serial = run("serial", jobs=1)
    pooled = run("pooled", jobs=2)
    assert _file_hashes(serial) == _file_hashes(pooled)
    assert serial.sessions_started() == pooled.sessions_started()
    assert serial.sessions_finished() == pooled.sessions_finished()
    assert serial.served() == pooled.served()
    assert serial.mean_response() == pooled.mean_response()
    assert serial.sessions_started() == 600  # the budget, exactly
    # One-group fold at jobs=1 against the √N tree on the pool.
    assert canonical_profile_bytes(serial.stitch()) == canonical_profile_bytes(
        pooled.stitch(jobs=2)
    )


def test_parallel_load_ships_stages_across_the_pool(tmp_path):
    """Loaded StageRuntimes must pickle back from pool workers (the
    default crosstalk classifier was once a lambda and couldn't)."""
    from repro.parallel import parallel_load

    system = TpcwSystem(clients=10, seed=7)
    system.run(duration=5.0, warmup=1.0)
    paths = list(system.save_profiles(str(tmp_path), "v2").values())
    serial = parallel_load(paths, jobs=1)
    pooled = parallel_load(paths, jobs=2)
    assert [stage.name for stage in pooled] == [stage.name for stage in serial]
    for a, b in zip(serial, pooled):
        assert a.total_weight() == b.total_weight()
