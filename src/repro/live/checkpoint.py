"""WDR2-framed checkpoints for the online streaming stitcher.

A live collector (:mod:`repro.live.collector`) periodically persists
its shadow profiling state so that a crash — or a memory-pressure
eviction — never loses more than one checkpoint interval.  Checkpoints
reuse the framing primitives from :mod:`repro.core.persist`
(``write_frame``/``read_frame``: magic + version + length over a
``mtime=0`` gzip JSON document, byte-deterministic for identical
documents) under the reduce-artifact magic ``WDR2`` with its own
version number, so the three on-disk artifact families (profile dumps,
reduce-tree groups, live checkpoints) stay mutually unmistakable.

Checkpoint semantics
--------------------

Every document is *superseding per key*, never additive:

* CCT snapshots are **cumulative** — the latest copy of a label's tree
  replaces any earlier copy outright.  Re-summing per-interval deltas
  would re-associate float additions and break the collector's
  byte-identical-to-post-mortem guarantee; copying the latest exact
  tree cannot.
* Synopsis tables are persisted as an **op log** (mints and crash
  clears, in order) because a mint → crash → mint sequence within one
  interval is not expressible as a set snapshot.
* Crosstalk aggregates and counters are cumulative snapshots.

Replaying all files of a directory in sequence order therefore
reconstructs the collector's state as of the last completed interval.
A ``kind="full"`` document (written by compaction) resets all state
before applying itself, so a compacted directory replays from that
single file.

Writes go through a temp file + ``os.replace`` so a torn write can
never corrupt the replay chain — a partially written checkpoint simply
does not exist.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cct import CCTNode, CallingContextTree
from repro.core.persist import (
    decode_context,
    decode_crosstalk_type,
    encode_context,
    encode_crosstalk_type,
    read_frame,
    write_frame,
)

#: Same magic as the reduce-tree artifacts (both are WDR2-framed
#: presentation-phase state); the version field tells them apart.
CHECKPOINT_MAGIC = b"WDR2"
CHECKPOINT_VERSION = 2

CHECKPOINT_PREFIX = "ckpt-"
CHECKPOINT_SUFFIX = ".wdr2"


def checkpoint_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"{CHECKPOINT_PREFIX}{seq:08d}{CHECKPOINT_SUFFIX}")


def list_checkpoints(directory: str) -> List[str]:
    """Checkpoint files of ``directory`` in sequence (replay) order."""
    if not os.path.isdir(directory):
        return []
    names = [
        name
        for name in os.listdir(directory)
        if name.startswith(CHECKPOINT_PREFIX) and name.endswith(CHECKPOINT_SUFFIX)
    ]
    names.sort()
    return [os.path.join(directory, name) for name in names]


def list_shard_dirs(directory: str) -> List[Tuple[int, str]]:
    """``(index, path)`` of the ``shard-NNNN/`` collector directories a
    sharded run leaves in ``directory``, in shard order."""
    return sorted(
        (int(name.split("-", 1)[1]), os.path.join(directory, name))
        for name in os.listdir(directory)
        if name.startswith("shard-")
        and os.path.isdir(os.path.join(directory, name))
    )


def write_checkpoint(directory: str, seq: int, document: Dict[str, Any]) -> str:
    """Atomically persist one checkpoint document; returns its path."""
    os.makedirs(directory, exist_ok=True)
    path = checkpoint_path(directory, seq)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        write_frame(
            handle, document, magic=CHECKPOINT_MAGIC, version=CHECKPOINT_VERSION
        )
    os.replace(tmp, path)
    return path


def read_checkpoint(path: str) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        document = read_frame(
            handle, magic=CHECKPOINT_MAGIC, version=CHECKPOINT_VERSION
        )
    if document is None:
        raise ValueError(f"empty checkpoint file {path!r}")
    return document


def remove_checkpoints(paths: List[str]) -> None:
    """Delete superseded checkpoint files (compaction)."""
    for path in paths:
        try:
            os.remove(path)
        except FileNotFoundError:
            pass


# ----------------------------------------------------------------------
# Document cells
# ----------------------------------------------------------------------
def encode_cct(label: Any, cct: CallingContextTree) -> List[Any]:
    """One cumulative CCT snapshot cell: ``[label, parents, names,
    weights, counts]`` (columnar pre-order rows; floats round-trip
    exactly through JSON's shortest-repr encoding)."""
    rows = cct.root.to_rows()
    return [
        encode_context(label),
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
        [row[3] for row in rows],
    ]


def decode_cct(cell: List[Any]) -> CallingContextTree:
    label = decode_context(cell[0])
    cct = CallingContextTree(label)
    CCTNode.attach_rows(cct.root, list(zip(cell[1], cell[2], cell[3], cell[4])))
    return cct


def cct_cell_label(cell: List[Any]):
    return decode_context(cell[0])


def cct_cell_weights(cell: List[Any]) -> List[float]:
    """The raw per-node weight column of a snapshot cell (for scalar
    accounting without materialising the tree)."""
    return cell[3]


def encode_syn_op(op: Any) -> List[Any]:
    """Synopsis op-log entries: ``["s", value, context]`` for a mint,
    ``["c", lost]`` for a crash clear."""
    if op[0] == "s":
        return ["s", op[1], encode_context(op[2])]
    return ["c", op[1]]


def decode_syn_op(cell: List[Any]) -> Any:
    if cell[0] == "s":
        return ("s", cell[1], decode_context(cell[2]))
    return ("c", cell[1])


def encode_crosstalk(pairs: Dict[Any, Any]) -> List[List[Any]]:
    """Cumulative crosstalk aggregate: rows ``[waiter, holder, count,
    total, max]`` keyed by ordered type pair."""
    return [
        [
            encode_crosstalk_type(waiter),
            encode_crosstalk_type(holder),
            stats[0],
            stats[1],
            stats[2],
        ]
        for (waiter, holder), stats in pairs.items()
    ]


def decode_crosstalk(rows: List[List[Any]]) -> Dict[Any, List[Any]]:
    return {
        (decode_crosstalk_type(row[0]), decode_crosstalk_type(row[1])): [
            row[2], row[3], row[4]
        ]
        for row in rows
    }
