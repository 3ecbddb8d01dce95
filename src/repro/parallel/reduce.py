"""The profile reduce: every merge of per-shard profiles goes here.

:func:`stitch_groups` stitches each shard's stage dumps on their own
(a shard is a self-contained resolution universe) and folds the shard
profiles into one.  At ``jobs <= 1`` the fold is one in-process group;
at ``jobs > 1`` shards are partitioned into contiguous *groups* of
``N // jobs`` shards — at least ``min(jobs, N)`` of them, so every
worker gets one — each merged inside a pool worker (which also did the
expensive load+stitch), and the parent streams the group artifacts
back frame by frame.

**Exactness is what makes the shape free.**  Shard profiles share
fully-resolved contexts (that is the point of cross-shard
aggregation), so reducing means adding floats — and float addition is
not associative: ``(a+b)+c`` and ``a+(b+c)`` can differ in the last
ulp, which would make the merged profile depend on the group size.
The reduce therefore never adds weights directly.  Every accumulation
goes through Shewchuk error-free partials (:func:`grow_partials` — the
algorithm inside ``math.fsum``): a node's weight is carried as a short
list of non-overlapping floats whose *exact* real sum equals the exact
sum of every contribution, and is rounded exactly once, at
:meth:`ProfileAccumulator.finalize`, with ``math.fsum``.  Since the
partials represent the exact sum regardless of how contributions were
grouped, **every grouping produces byte-identical output** (asserted
for every group size in ``tests/parallel/test_reduce.py``).

Group artifacts are framed like v2 profile dumps (magic ``WDR2``): one
tables frame (interned strings, resolution tallies, entry count)
followed by one frame per profile entry, so the parent folds one entry
at a time in bounded memory.
"""

from __future__ import annotations

import math
import os
import tempfile
import time
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.cct import CallingContextTree
from repro.core.context import TransactionContext, UnresolvedRef
from repro.core.persist import (
    _Interner,
    _v2_decode_context,
    _v2_encode_context,
    load_stage,
    read_frame,
    write_frame,
)
from repro.core.stitch import StitchedProfile, stitch_profiles

#: Frame magic for reduce-tree group artifacts (header layout shared
#: with v2 profile dumps: magic, u32 version, u32 payload length).
REDUCE_MAGIC = b"WDR2"
REDUCE_VERSION = 1

#: Group artifact filename pattern inside the reduce's temporary dir.
GROUP_FILE = "group-{index:04d}.wdr"


def grow_partials(partials: List[float], value: float) -> None:
    """Add ``value`` into Shewchuk partials in place, without error.

    Maintains the invariant that ``sum(partials)`` computed in exact
    real arithmetic equals the exact sum of every value ever grown in
    (the partials are non-overlapping doubles).  This is the
    accumulation loop used by ``math.fsum``; rounding happens only when
    the caller finally collapses the partials with ``fsum``.
    """
    x = value
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    del partials[i:]
    partials.append(x)


class _PartialNode:
    """A CCT node whose weight is exact partials, not one rounded float."""

    __slots__ = ("partials", "call_count", "children")

    def __init__(self):
        self.partials: List[float] = []
        self.call_count = 0
        self.children: Dict[str, "_PartialNode"] = {}

    def child(self, name: str) -> "_PartialNode":
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = _PartialNode()
        return node


class ProfileAccumulator:
    """Order-invariant exact accumulation of stitched profiles.

    Feed it whole profiles (:meth:`add_profile`), streamed group-file
    entries (:meth:`absorb_file`), or both; :meth:`finalize` rounds
    each node exactly once.  Any feeding order and any grouping of the
    same contributions produce identical output bytes.
    """

    def __init__(self):
        self.entries: Dict[Tuple[str, TransactionContext], _PartialNode] = {}
        self.synopsis_refs = 0
        self.unresolved_refs = 0

    def _root(self, stage: str, context: TransactionContext) -> _PartialNode:
        key = (stage, context)
        node = self.entries.get(key)
        if node is None:
            node = self.entries[key] = _PartialNode()
        return node

    # -- feeding -------------------------------------------------------
    def add_profile(self, profile: StitchedProfile) -> None:
        for (stage, context), cct in profile.entries.items():
            stack = [(self._root(stage, context), cct.root)]
            while stack:
                node, src = stack.pop()
                if src.self_weight:
                    grow_partials(node.partials, src.self_weight)
                node.call_count += src.call_count
                for name, src_child in src.children.items():
                    stack.append((node.child(name), src_child))
        self.synopsis_refs += profile.synopsis_refs
        self.unresolved_refs += profile.unresolved_refs

    def _absorb_rows(self, root: _PartialNode, parents, names,
                     partials_column, counts) -> None:
        nodes: List[_PartialNode] = []
        for parent, name, partials, count in zip(
            parents, names, partials_column, counts
        ):
            node = root if parent < 0 else nodes[parent].child(name)
            for value in partials:
                grow_partials(node.partials, value)
            node.call_count += count
            nodes.append(node)

    def absorb_file(self, source: str) -> None:
        """Stream one group artifact into the accumulator, frame-wise."""
        with open(source, "rb") as handle:
            header = read_frame(handle, magic=REDUCE_MAGIC,
                                version=REDUCE_VERSION)
            if header is None:
                raise ValueError(f"empty reduce artifact {source!r}")
            strings, synopsis_refs, unresolved_refs, entry_count = header
            self.synopsis_refs += synopsis_refs
            self.unresolved_refs += unresolved_refs
            for _ in range(entry_count):
                entry = read_frame(handle, magic=REDUCE_MAGIC,
                                   version=REDUCE_VERSION)
                if entry is None:
                    raise ValueError(f"truncated reduce artifact {source!r}")
                stage_id, context_cells, parents, name_ids, partials, counts = entry
                self._absorb_rows(
                    self._root(
                        strings[stage_id],
                        _v2_decode_context(context_cells, strings),
                    ),
                    parents,
                    [strings[name_id] for name_id in name_ids],
                    partials,
                    counts,
                )

    # -- persistence ---------------------------------------------------
    @staticmethod
    def _rows(root: _PartialNode):
        """Canonical pre-order rows (children in sorted name order)."""
        rows: List[Tuple[int, str, List[float], int]] = []
        stack: List[Tuple[_PartialNode, str, int]] = [(root, "", -1)]
        while stack:
            node, name, parent = stack.pop()
            index = len(rows)
            rows.append((parent, name, node.partials, node.call_count))
            for child_name in sorted(node.children, reverse=True):
                stack.append((node.children[child_name], child_name, index))
        return rows

    def write(self, destination: str) -> int:
        """Persist as a streamable group artifact; returns bytes written.

        JSON floats round-trip exactly (shortest-repr encode, exact
        decode), so the partials survive the file unrounded.
        """
        strings = _Interner()
        entry_documents: List[List[Any]] = []
        for (stage, context), root in self.entries.items():
            rows = self._rows(root)
            entry_documents.append([
                strings.intern(stage),
                _v2_encode_context(context, strings),
                [row[0] for row in rows],
                [strings.intern(row[1]) for row in rows],
                [row[2] for row in rows],
                [row[3] for row in rows],
            ])
        written = 0
        with open(destination, "wb") as handle:
            written += write_frame(
                handle,
                [strings.values, self.synopsis_refs, self.unresolved_refs,
                 len(entry_documents)],
                magic=REDUCE_MAGIC, version=REDUCE_VERSION,
            )
            for document in entry_documents:
                written += write_frame(handle, document,
                                       magic=REDUCE_MAGIC,
                                       version=REDUCE_VERSION)
        return written

    # -- rounding ------------------------------------------------------
    def finalize(self) -> StitchedProfile:
        """Round every node exactly once and build the merged profile."""
        profile = StitchedProfile()
        for (stage, context), root in self.entries.items():
            cct = CallingContextTree(context)
            stack = [(cct.root, root)]
            while stack:
                dst, src = stack.pop()
                if src.partials:
                    dst.self_weight = math.fsum(src.partials)
                dst.call_count = src.call_count
                for name, src_child in src.children.items():
                    stack.append((dst.child(name), src_child))
            profile.entries[(stage, context)] = cct
        profile.synopsis_refs = self.synopsis_refs
        profile.unresolved_refs = self.unresolved_refs
        return profile


# ----------------------------------------------------------------------
# Shard tagging
# ----------------------------------------------------------------------
def tag_shard(profile: StitchedProfile, index: int) -> StitchedProfile:
    """Qualify UnresolvedRef origins with ``@shard{index}``.

    Synopsis values are only unique *within* a shard's stages, so
    untagged placeholders from different shards could collide and merge
    weights of distinct transactions.  Fully resolved contexts contain
    no refs and merge by value, as cross-shard aggregation wants.
    """
    if not any(
        isinstance(element, UnresolvedRef)
        for _, context in profile.entries
        for element in context
    ):
        return profile
    tag = f"@shard{index}"
    tagged = StitchedProfile()
    for (stage, context), cct in profile.entries.items():
        elements = [
            UnresolvedRef(f"{element.origin}{tag}", element.value)
            if isinstance(element, UnresolvedRef)
            else element
            for element in context
        ]
        tagged.add(stage, TransactionContext(elements), cct)
    tagged.synopsis_refs = profile.synopsis_refs
    tagged.unresolved_refs = profile.unresolved_refs
    return tagged


def fold_shards(
    pairs: Iterable[Tuple[int, StitchedProfile]]
) -> StitchedProfile:
    """Merge ``(shard_index, profile)`` pairs into one profile.

    A lone shard is a single resolution universe and comes back as is;
    several shards are tagged (:func:`tag_shard`) and folded through
    the exact accumulator.
    """
    pairs = list(pairs)
    if len(pairs) == 1:
        return pairs[0][1]
    accumulator = ProfileAccumulator()
    for index, profile in pairs:
        accumulator.add_profile(tag_shard(profile, index))
    return accumulator.finalize()


# ----------------------------------------------------------------------
# The reduce
# ----------------------------------------------------------------------
def plan_groups(count: int, group_size: int) -> List[List[int]]:
    """Contiguous shard-index groups: ``[[0..g-1], [g..2g-1], ...]``."""
    if group_size < 1:
        raise ValueError("group size must be >= 1")
    return [
        list(range(start, min(start + group_size, count)))
        for start in range(0, count, group_size)
    ]


def default_group_size(count: int) -> int:
    """≈√N groups of ≈√N shards, the balanced two-level tree; not the
    derived shape, which follows ``jobs`` (see :func:`stitch_groups`)."""
    return max(2, math.ceil(math.sqrt(count)))


def _stitch_group(paths: Sequence[str], strict: bool) -> StitchedProfile:
    """Load and stitch one shard's stage dumps."""
    return stitch_profiles([load_stage(path) for path in paths], strict=strict)


def reduce_group_task(task) -> Tuple[str, float]:
    """Worker: stitch one group's shards, merge them, spool the artifact.

    ``task`` is ``(shard_indices, dump_groups, strict, out_path)``;
    returns ``(out_path, wall_seconds)``.  Top-level so the
    work-stealing pool can ship it under any start method.
    """
    shard_indices, dump_groups, strict, out_path = task
    start = time.perf_counter()
    accumulator = ProfileAccumulator()
    for shard_index, paths in zip(shard_indices, dump_groups):
        accumulator.add_profile(
            tag_shard(_stitch_group(paths, strict), shard_index)
        )
    accumulator.write(out_path)
    return out_path, time.perf_counter() - start


def stitch_groups(
    groups: Sequence[Sequence[str]],
    jobs: int = 1,
    strict: bool = True,
    group_size: int = 0,
    stats: Optional[Dict[str, Any]] = None,
) -> StitchedProfile:
    """Stitch per-shard dump groups and merge them into one profile.

    ``group_size=0`` derives the fold shape from ``jobs``: one
    in-process group with no artifact at ``jobs <= 1``, else groups of
    ``N // jobs`` shards (at least ``min(jobs, N)`` groups) merged on
    the pool and streamed back from a temporary directory.  A positive
    ``group_size`` forces the shape; every shape yields the same bytes.
    ``stats`` receives the shape that ran: group size and count,
    per-group walls and artifact bytes (0: no artifact), and the parent
    fold time.
    """
    groups = [list(group) for group in groups]
    if not group_size:
        group_size = max(1, len(groups) // jobs if jobs > 1 else len(groups))
    slices = plan_groups(len(groups), group_size)
    start = time.perf_counter()
    if len(slices) <= 1:
        profiles = [_stitch_group(group, strict) for group in groups]
        walls, sizes = [time.perf_counter() - start], [0]
        fold_start = time.perf_counter()
        merged = fold_shards(enumerate(profiles))
        fold_s = time.perf_counter() - fold_start
    else:
        with tempfile.TemporaryDirectory(prefix="whodunit-reduce-") as scratch:
            tasks = [
                (indices, [groups[index] for index in indices], strict,
                 os.path.join(scratch, GROUP_FILE.format(index=number)))
                for number, indices in enumerate(slices)
            ]
            if jobs > 1:
                from repro.parallel.scheduler import get_pool

                results = get_pool(jobs).run(reduce_group_task, tasks)
            else:
                results = [reduce_group_task(task) for task in tasks]
            walls = [wall for _, wall in results]
            sizes = [os.path.getsize(path) for path, _ in results]
            fold_start = time.perf_counter()
            accumulator = ProfileAccumulator()
            for path, _ in results:  # task order == group-index order
                accumulator.absorb_file(path)
            merged = accumulator.finalize()
            fold_s = time.perf_counter() - fold_start
    if stats is not None:
        stats.update(
            group_size=group_size,
            groups=len(slices),
            group_walls=walls,
            group_bytes=sizes,
            parent_fold_s=fold_s,
        )
    return merged
