"""The presentation phase's inputs and output: dumps, spools, bytes.

A spool directory written by a sharded run holds one group of stage
dumps per shard (one shard's tiers — a self-contained resolution
universe) and a manifest naming them.  :func:`spool_groups` reads that
manifest and :func:`stitch_spool` hands the groups to the one reduce,
:func:`repro.parallel.reduce.stitch_groups`, whose merged profile is a
pure function of the dump set — independent of worker count,
scheduling, completion order and fold shape.  The determinism proof in
the scale-out benchmark serialises the merged profile with
:func:`canonical_profile_bytes` and compares runs byte-for-byte.

For a flat list of dumps that resolve against each other (the classic
single-run, multi-tier layout), :func:`parallel_load` parallelises just
the load/decode step and the caller stitches the loaded stages
serially — resolution needs every synopsis table in one place.
"""

from __future__ import annotations

import json
import os
from typing import List, Sequence

from repro.core.stitch import StitchedProfile
from repro.parallel.reduce import stitch_groups

#: Kept in sync with repro.parallel.runner.MANIFEST_NAME (no import to
#: keep worker pickling light).
MANIFEST_NAME = "manifest.json"


def _load_one(path: str):
    """Pool worker (top-level for pickling): decode one dump."""
    from repro.core.persist import load_stage

    return load_stage(path)


def parallel_load(paths: Sequence[str], jobs: int = 1) -> List:
    """Load dumps (v1 or v2) with up to ``jobs`` worker processes.

    Results come back in input order regardless of scheduling.
    """
    paths = list(paths)
    if jobs <= 1 or len(paths) <= 1:
        return [_load_one(path) for path in paths]
    from repro.parallel.scheduler import get_pool

    return get_pool(jobs).run(_load_one, paths)


def spool_groups(spool_dir: str) -> List[List[str]]:
    """Per-shard dump path groups from a spool manifest, in shard order.

    The manifest stores only manifest-relative paths, so a spool
    directory rsync'd to another machine resolves against its new
    location with no rewriting.  A manifest that is not JSON, lacks a
    key, or names a path outside the spool or a dump that is not there
    raises ``ValueError`` — before any shard is handed to a worker.
    """
    manifest_path = os.path.join(spool_dir, MANIFEST_NAME)
    with open(manifest_path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        groups = [
            [os.path.join(group["dir"], name) for name in group["files"]]
            for group in sorted(
                json.loads(text)["groups"], key=lambda group: group["index"]
            )
        ]
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(
            f"malformed spool manifest {manifest_path!r}: {error!r}"
        ) from None
    for path in (path for group in groups for path in group):
        normal = os.path.normpath(path)
        if os.path.isabs(normal) or normal.split(os.sep)[0] == os.pardir:
            raise ValueError(
                f"spool manifest {manifest_path!r} names {path!r}, "
                "outside the spool"
            )
    groups = [
        [os.path.join(spool_dir, path) for path in group] for group in groups
    ]
    for path in (path for group in groups for path in group):
        if not os.path.isfile(path):
            raise ValueError(
                f"spool manifest {manifest_path!r} names missing dump {path!r}"
            )
    return groups


def stitch_spool(
    spool_dir: str, jobs: int = 1, strict: bool = True
) -> StitchedProfile:
    """Stitch a spool directory written by :func:`repro.parallel.runner.
    run_shards`, using its manifest to group dumps per shard."""
    return stitch_groups(spool_groups(spool_dir), jobs=jobs, strict=strict)


def canonical_profile_bytes(profile: StitchedProfile) -> bytes:
    """A canonical byte serialisation of a stitched profile.

    Entries are sorted by ``(stage, repr(context))`` and each CCT is
    flattened to its canonical pre-order rows, so two profiles with the
    same content — however they were produced — serialise to identical
    bytes.  Floats use Python's shortest-exact repr via the JSON
    encoder: byte equality means bit-exact weights.
    """
    entries = []
    for (stage, context), cct in sorted(
        profile.entries.items(), key=lambda item: (item[0][0], repr(item[0][1]))
    ):
        entries.append([stage, repr(context), cct.root.to_rows()])
    document = {
        "entries": entries,
        "synopsis_refs": profile.synopsis_refs,
        "unresolved_refs": profile.unresolved_refs,
    }
    return json.dumps(document, separators=(",", ":")).encode("utf-8")
