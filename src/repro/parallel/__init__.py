"""Multi-core scale-out: sharded simulation and the parallel
presentation phase.

Whodunit's workflow (§7.1) is embarrassingly parallel on both ends:
profile *collection* happens independently per stage process, and the
post-mortem *presentation* phase independently resolves each dump
before one deterministic merge.  This package exploits both:

- :mod:`repro.parallel.shard` deterministically partitions a TPC-W or
  Haboob workload into N independent shards (per-shard seeds derived
  from the run seed and shard index);
- :mod:`repro.parallel.scheduler` is a persistent work-stealing
  process pool: workers are started once per session and steal shard
  tasks from one shared queue, so stragglers delay only themselves and
  pool startup is never paid per run;
- :mod:`repro.parallel.runner` executes the shards across that pool,
  spooling per-stage profile dumps and returning plain-data summaries
  that merge post-hoc (including telemetry metrics);
- :mod:`repro.parallel.reduce` is the one profile reduce,
  :func:`stitch_groups`: each shard's dumps are stitched on their own
  and the shard profiles folded in one in-process group (``jobs=1``)
  or through a shard → group → global tree on the pool (``jobs > 1``),
  byte-identical either way thanks to error-free (Shewchuk) weight
  accumulation;
- :mod:`repro.parallel.stitching` reads spool manifests into dump
  groups, loads flat dump lists in parallel, and serialises merged
  profiles canonically for byte comparison.

See ``docs/performance.md`` for the sharding model and determinism
guarantees.
"""

from repro.parallel.shard import (
    ShardPlan,
    ShardSpec,
    derive_shard_seed,
    partition_clients,
    plan_shards,
)
from repro.parallel.runner import ShardResult, ShardedRun, run_shards
from repro.parallel.scheduler import (
    WorkStealingPool,
    WorkerError,
    effective_jobs,
    get_pool,
    shutdown_pools,
)
from repro.parallel.reduce import (
    ProfileAccumulator,
    default_group_size,
    plan_groups,
    stitch_groups,
)
from repro.parallel.stitching import (
    canonical_profile_bytes,
    parallel_load,
    spool_groups,
    stitch_spool,
)

__all__ = [
    "ProfileAccumulator",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "ShardedRun",
    "WorkStealingPool",
    "WorkerError",
    "canonical_profile_bytes",
    "default_group_size",
    "derive_shard_seed",
    "effective_jobs",
    "get_pool",
    "parallel_load",
    "partition_clients",
    "plan_groups",
    "plan_shards",
    "run_shards",
    "shutdown_pools",
    "spool_groups",
    "stitch_groups",
    "stitch_spool",
]
