"""The profile reduce: exactness, associativity, streaming artifacts.

The load-bearing property: shard→group→global must be byte-identical
to the one-group fold for *every* group size, v1 and v2 dumps
alike.  Cross-shard (stage, context) collisions make the merged
weights sums of floats from different shards, and float addition is
not associative — these tests prove the Shewchuk-partials accumulator
erases the grouping from the result.
"""

import hashlib
import math
import random

import pytest

from repro.core.cct import CallingContextTree
from repro.core.context import TransactionContext, UnresolvedRef
from repro.core.stitch import StitchedProfile
from repro.parallel import (
    canonical_profile_bytes,
    plan_shards,
    run_shards,
    stitch_groups,
)
from repro.parallel.reduce import (
    ProfileAccumulator,
    _stitch_group,
    default_group_size,
    fold_shards,
    grow_partials,
    plan_groups,
    tag_shard,
)

SHARDS = 5


def _spy_on_pool(monkeypatch):
    """Record the task count of every pool run the reduce makes."""
    from repro.parallel import scheduler

    real_get_pool = scheduler.get_pool
    task_counts = []

    def get_pool(jobs):
        pool = real_get_pool(jobs)

        class Spy:
            def run(self, fn, tasks):
                task_counts.append(len(tasks))
                return pool.run(fn, tasks)

        return Spy()

    monkeypatch.setattr(scheduler, "get_pool", get_pool)
    return task_counts


def _run(tmp_path, profile_format):
    plan = plan_shards(
        "haboob",
        seed=42,
        clients=5 * SHARDS,
        shards=SHARDS,
        duration=2.5,
        spool_dir=str(tmp_path / profile_format),
        profile_format=profile_format,
    )
    return run_shards(plan, jobs=1)


class TestGrowPartials:
    def test_matches_fsum_exactly(self):
        rng = random.Random(99)
        values = [rng.uniform(0, 1) * 10 ** rng.randint(-12, 12)
                  for _ in range(500)]
        partials = []
        for value in values:
            grow_partials(partials, value)
        assert math.fsum(partials) == math.fsum(values)

    def test_grouping_invariant(self):
        # The non-associativity witness: naive addition differs between
        # groupings, the partials representation does not.
        values = [0.1] * 10 + [1e16, 1.0, -1e16] + [0.3] * 7
        for split in range(1, len(values)):
            left, right = [], []
            for value in values[:split]:
                grow_partials(left, value)
            for value in values[split:]:
                grow_partials(right, value)
            merged = list(left)
            for value in right:
                grow_partials(merged, value)
            assert math.fsum(merged) == math.fsum(values)

    def test_single_value_identity(self):
        # fsum([w]) == w: single-contributor entries keep their bytes.
        for value in (0.1, 1.7e-300, 12345.678):
            partials = []
            grow_partials(partials, value)
            assert math.fsum(partials) == value


class TestPlanGroups:
    def test_contiguous_cover(self):
        groups = plan_groups(10, 3)
        assert groups == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]

    def test_group_size_one(self):
        assert plan_groups(3, 1) == [[0], [1], [2]]

    def test_invalid_group_size(self):
        with pytest.raises(ValueError):
            plan_groups(4, 0)

    def test_default_is_about_sqrt(self):
        assert default_group_size(64) == 8
        assert default_group_size(2) == 2


@pytest.mark.parametrize("profile_format", ["v1", "v2"])
class TestAssociativity:
    def test_every_group_size_matches_flat(self, tmp_path, profile_format):
        run = _run(tmp_path, profile_format)
        groups = run.dump_groups()
        flat = stitch_groups(groups, jobs=1)
        flat_bytes = canonical_profile_bytes(flat)
        for group_size in range(1, SHARDS + 1):
            merged = stitch_groups(groups, group_size=group_size)
            assert canonical_profile_bytes(merged) == flat_bytes, (
                f"group_size={group_size} diverged from flat reduce"
            )
            assert merged.synopsis_refs == flat.synopsis_refs
            assert merged.unresolved_refs == flat.unresolved_refs

    def test_sharded_run_stitch_group_size(self, tmp_path, profile_format):
        # ShardedRun.stitch derives its group size from jobs: one group
        # at jobs=1, groups of N // 2 shards on the pool at jobs=2.
        from repro.parallel import shutdown_pools

        run = _run(tmp_path, profile_format)
        flat = canonical_profile_bytes(run.stitch())
        try:
            assert canonical_profile_bytes(run.stitch(jobs=2)) == flat
        finally:
            shutdown_pools()


class TestAccumulator:
    def test_feeding_order_is_invisible(self, tmp_path):
        run = _run(tmp_path, "v2")
        profiles = [
            stitch_groups([group]) for group in run.dump_groups()
        ]
        tagged = [
            tag_shard(profile, index)
            for index, profile in enumerate(profiles)
        ]
        orders = [list(range(len(tagged)))]
        rng = random.Random(5)
        for _ in range(3):
            order = list(range(len(tagged)))
            rng.shuffle(order)
            orders.append(order)
        digests = set()
        for order in orders:
            accumulator = ProfileAccumulator()
            for index in order:
                accumulator.add_profile(tagged[index])
            digests.add(hashlib.sha256(
                canonical_profile_bytes(accumulator.finalize())
            ).hexdigest())
        assert len(digests) == 1

    def test_write_absorb_round_trip(self, tmp_path):
        run = _run(tmp_path, "v2")
        accumulator = ProfileAccumulator()
        for index, group in enumerate(run.dump_groups()):
            accumulator.add_profile(
                tag_shard(_stitch_group(group, True), index)
            )
        direct = canonical_profile_bytes(accumulator.finalize())

        artifact = str(tmp_path / "group.wdr")
        written = accumulator.write(artifact)
        assert written > 0
        restored = ProfileAccumulator()
        restored.absorb_file(artifact)
        assert canonical_profile_bytes(restored.finalize()) == direct

    def test_absorb_rejects_wrong_magic(self, tmp_path):
        from repro.core.persist import write_frame

        bogus = str(tmp_path / "bogus.wdr")
        with open(bogus, "wb") as handle:
            write_frame(handle, ["not", "a", "reduce", "file"])
        accumulator = ProfileAccumulator()
        with pytest.raises(ValueError):
            accumulator.absorb_file(bogus)

    def test_absorb_rejects_truncated(self, tmp_path):
        run = _run(tmp_path, "v2")
        accumulator = ProfileAccumulator()
        accumulator.add_profile(_stitch_group(run.dump_groups()[0], True))
        artifact = str(tmp_path / "group.wdr")
        accumulator.write(artifact)
        with open(artifact, "rb") as handle:
            blob = handle.read()
        clipped = str(tmp_path / "clipped.wdr")
        with open(clipped, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        with pytest.raises(ValueError):
            ProfileAccumulator().absorb_file(clipped)


class TestFoldShards:
    @staticmethod
    def _profile_with_ref():
        context = TransactionContext(
            ["accept", UnresolvedRef("squid", 0x5EF00001)]
        )
        cct = CallingContextTree(context)
        cct.root.child("handler").self_weight = 0.25
        profile = StitchedProfile()
        profile.add("tomcat", context, cct)
        profile.unresolved_refs = 1
        return profile

    @staticmethod
    def _origins(profile):
        return sorted(
            element.origin
            for _, context in profile.entries
            for element in context
            if isinstance(element, UnresolvedRef)
        )

    def test_lone_shard_stays_untagged(self):
        profile = self._profile_with_ref()
        assert fold_shards([(3, profile)]) is profile
        assert self._origins(profile) == ["squid"]

    def test_several_shards_are_tagged(self):
        merged = fold_shards(
            [(0, self._profile_with_ref()), (1, self._profile_with_ref())]
        )
        assert self._origins(merged) == ["squid@shard0", "squid@shard1"]
        assert merged.unresolved_refs == 2
        for cct in merged.entries.values():
            assert cct.total_weight() == 0.25

    def test_tag_shard_leaves_resolved_profiles_alone(self):
        profile = StitchedProfile()
        profile.add(
            "mysql",
            TransactionContext(["accept"]),
            CallingContextTree(TransactionContext(["accept"])),
        )
        assert tag_shard(profile, 4) is profile


class TestHierarchicalStats:
    def test_stats_describe_the_tree(self, tmp_path):
        run = _run(tmp_path, "v2")
        stats = {}
        stitch_groups(run.dump_groups(), group_size=2, stats=stats)
        assert stats["group_size"] == 2
        assert stats["groups"] == 3  # ceil(5 / 2)
        assert len(stats["group_walls"]) == 3
        assert all(wall >= 0 for wall in stats["group_walls"])
        assert all(size > 0 for size in stats["group_bytes"])
        assert stats["parent_fold_s"] >= 0

    def test_jobs_derive_the_shape(self, tmp_path, monkeypatch):
        from repro.parallel import shutdown_pools

        run = _run(tmp_path, "v2")
        groups = run.dump_groups()
        pool_tasks = _spy_on_pool(monkeypatch)
        one = {}
        serial = stitch_groups(groups, jobs=1, stats=one)
        assert one["groups"] == 1
        assert one["group_size"] == SHARDS
        assert one["group_bytes"] == [0]  # in process, no artifact
        assert pool_tasks == []
        trees = {}
        try:
            for jobs in (2, 3, 8):
                trees[jobs] = {}
                pooled = stitch_groups(groups, jobs=jobs, stats=trees[jobs])
                assert canonical_profile_bytes(
                    pooled
                ) == canonical_profile_bytes(serial)
        finally:
            shutdown_pools()
        # N // jobs shards per group: every worker gets a group.
        assert [(trees[jobs]["group_size"], trees[jobs]["groups"])
                for jobs in (2, 3, 8)] == [(2, 3), (1, 5), (1, 5)]
        assert pool_tasks == [3, 5, 5]
        assert all(size > 0 for size in trees[2]["group_bytes"])

    def test_two_shards_at_two_jobs_use_the_pool(self, tmp_path, monkeypatch):
        from repro.parallel import shutdown_pools

        plan = plan_shards(
            "haboob",
            seed=42,
            clients=10,
            shards=2,
            duration=2.5,
            spool_dir=str(tmp_path / "spool"),
            profile_format="v2",
        )
        run = run_shards(plan, jobs=1)
        pool_tasks = _spy_on_pool(monkeypatch)
        stats = {}
        try:
            pooled = stitch_groups(run.dump_groups(), jobs=2, stats=stats)
        finally:
            shutdown_pools()
        assert pool_tasks == [2]
        assert (stats["group_size"], stats["groups"]) == (1, 2)
        assert canonical_profile_bytes(pooled) == canonical_profile_bytes(
            run.stitch()
        )

    def test_parallel_reduce_matches_serial(self, tmp_path):
        from repro.parallel import shutdown_pools

        run = _run(tmp_path, "v2")
        groups = run.dump_groups()
        serial = canonical_profile_bytes(
            stitch_groups(groups, jobs=1, group_size=2)
        )
        try:
            parallel = canonical_profile_bytes(
                stitch_groups(groups, jobs=2, group_size=2)
            )
        finally:
            shutdown_pools()
        assert parallel == serial
