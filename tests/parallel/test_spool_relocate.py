"""Spool relocatability: a spool directory is a self-contained artifact.

The cluster prerequisite — dumps spool on the machine that ran the
shards, then the whole directory is rsync'd to wherever the
presentation phase runs.  That only works if the manifest references
its files relative to itself, never by absolute path.
"""

import json
import os
import shutil

import pytest

from repro.parallel import (
    canonical_profile_bytes,
    plan_shards,
    run_shards,
    spool_groups,
    stitch_spool,
)
from repro.parallel.runner import MANIFEST_NAME


def _spool_run(spool_dir, profile_format="v2"):
    plan = plan_shards(
        "haboob",
        seed=21,
        clients=9,
        shards=3,
        duration=2.0,
        spool_dir=str(spool_dir),
        profile_format=profile_format,
    )
    return run_shards(plan, jobs=1)


class TestManifestRelativity:
    def test_manifest_has_no_absolute_paths(self, tmp_path):
        spool = tmp_path / "spool"
        _spool_run(spool)
        with open(spool / MANIFEST_NAME, encoding="utf-8") as handle:
            manifest = json.load(handle)
        for group in manifest["groups"]:
            assert not os.path.isabs(group["dir"])
            assert os.sep not in group["dir"]
            for name in group["files"]:
                assert not os.path.isabs(name)
                assert os.sep not in name

    def test_spool_groups_resolve_against_spool_dir(self, tmp_path):
        spool = tmp_path / "spool"
        run = _spool_run(spool)
        groups = spool_groups(str(spool))
        assert [sorted(g) for g in groups] == [
            sorted(g) for g in run.dump_groups()
        ]
        for group in groups:
            for path in group:
                assert os.path.exists(path)


class TestRelocation:
    def test_moved_spool_stitches_byte_identically(self, tmp_path):
        spool = tmp_path / "origin" / "spool"
        _spool_run(spool)
        before = canonical_profile_bytes(stitch_spool(str(spool)))

        # Simulate the rsync to another machine: copy the tree to a
        # different root, then remove the original entirely so any
        # stale absolute reference would fail loudly.
        relocated = tmp_path / "other-machine" / "data" / "spool"
        shutil.copytree(str(spool), str(relocated))
        shutil.rmtree(str(tmp_path / "origin"))

        after = canonical_profile_bytes(stitch_spool(str(relocated)))
        assert after == before

    def test_relocated_hierarchical_reduce(self, tmp_path):
        from repro.parallel import shutdown_pools

        spool = tmp_path / "spool"
        _spool_run(spool)
        flat = canonical_profile_bytes(stitch_spool(str(spool)))
        relocated = tmp_path / "elsewhere"
        shutil.move(str(spool), str(relocated))
        try:
            # jobs=2 folds the 3 shards as a tree of 2 groups on the pool.
            tree = stitch_spool(str(relocated), jobs=2)
        finally:
            shutdown_pools()
        assert canonical_profile_bytes(tree) == flat

    def test_relocated_v1_spool(self, tmp_path):
        spool = tmp_path / "spool"
        _spool_run(spool, profile_format="v1")
        before = canonical_profile_bytes(stitch_spool(str(spool)))
        relocated = tmp_path / "moved"
        shutil.move(str(spool), str(relocated))
        assert canonical_profile_bytes(
            stitch_spool(str(relocated))
        ) == before


class TestManifestValidation:
    """A manifest is untrusted input: it may only name files inside its
    own spool, and a malformed one fails with one ValueError naming it."""

    @staticmethod
    def _rewrite(spool, edit):
        path = spool / MANIFEST_NAME
        manifest = json.loads(path.read_text(encoding="utf-8"))
        path.write_text(json.dumps(edit(manifest)), encoding="utf-8")
        return str(path)

    @pytest.fixture
    def spool(self, tmp_path):
        spool = tmp_path / "spool"
        _spool_run(spool)
        return spool

    def _assert_rejected(self, spool, manifest_path):
        with pytest.raises(ValueError, match="manifest") as caught:
            spool_groups(str(spool))
        assert manifest_path in str(caught.value)
        with pytest.raises(ValueError):
            stitch_spool(str(spool))

    def test_absolute_group_dir_is_rejected(self, spool, tmp_path):
        outside = tmp_path / "outside"
        shutil.copytree(str(spool / "shard-0000"), str(outside))

        def edit(manifest):
            manifest["groups"][0]["dir"] = str(outside)
            return manifest

        self._assert_rejected(spool, self._rewrite(spool, edit))

    def test_escaping_group_dir_is_rejected(self, spool, tmp_path):
        shutil.copytree(str(spool / "shard-0000"), str(tmp_path / "outside"))

        def edit(manifest):
            manifest["groups"][0]["dir"] = os.path.join("..", "outside")
            return manifest

        self._assert_rejected(spool, self._rewrite(spool, edit))

    def test_escaping_file_name_is_rejected(self, spool, tmp_path):
        shutil.copytree(str(spool / "shard-0000"), str(tmp_path / "outside"))

        def edit(manifest):
            files = manifest["groups"][1]["files"]
            files[0] = os.path.join("..", "..", "outside", files[0])
            return manifest

        self._assert_rejected(spool, self._rewrite(spool, edit))

    def test_absolute_file_name_is_rejected(self, spool):
        target = str(spool / "shard-0000" / "haboob.profile.wdp")

        def edit(manifest):
            manifest["groups"][1]["files"] = [target]
            return manifest

        self._assert_rejected(spool, self._rewrite(spool, edit))

    def test_empty_manifest_is_rejected(self, spool):
        self._assert_rejected(spool, self._rewrite(spool, lambda _: {}))

    def test_group_missing_a_key_is_rejected(self, spool):
        def edit(manifest):
            del manifest["groups"][2]["files"]
            return manifest

        self._assert_rejected(spool, self._rewrite(spool, edit))

    def test_non_json_manifest_is_rejected(self, spool):
        path = spool / MANIFEST_NAME
        path.write_text("{not json", encoding="utf-8")
        self._assert_rejected(spool, str(path))

    def test_inner_dotdot_that_stays_inside_is_accepted(self, spool):
        def edit(manifest):
            manifest["groups"][0]["dir"] = os.path.join(
                "shard-0001", "..", "shard-0000"
            )
            return manifest

        before = spool_groups(str(spool))
        self._rewrite(spool, edit)
        after = spool_groups(str(spool))
        assert [
            [os.path.normpath(path) for path in group] for group in after
        ] == before
