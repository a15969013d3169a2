"""The durable storage layer: replicated, checksummed blocks + fsck.

Real SpatialHadoop inherits HDFS's durability contract: every block is
checksummed on write, verified on read, and stored as N replicas across
the cluster's datanodes; when a datanode dies the namenode re-replicates
the blocks it held, and ``hdfs fsck`` walks the namespace reporting (and
repairing) missing, corrupt and under-replicated blocks. This module
gives the simulator the same contract:

* :class:`StorageManager` — the namenode's replica map. Every block the
  file system writes is *sealed*: a CRC-32 of its record payload is
  recorded, local/global index structures get their own checksums, and
  the block is placed as ``replication`` replicas round-robin across the
  simulated datanodes.
* Reads verify replica health first (see :meth:`StorageManager.
  verify_block`): replicas on dead nodes or with failed checksums are
  skipped and the read *fails over* to the next healthy copy — the job
  sees identical data, only the ``READ_FAILOVERS`` /
  ``BLOCKS_CORRUPT_DETECTED`` metrics and the makespan notice. A block
  with no healthy replica left raises :class:`BlockUnavailableError`.
* :meth:`StorageManager.lose_node` kills a datanode and immediately
  re-replicates every surviving under-replicated block (HDFS namenode
  behaviour), returning the simulated seconds the repair traffic cost.
* :func:`run_fsck` is ``hdfs fsck`` for the workspace: it deep-verifies
  every block's payload checksum, replica health and local/global index
  checksums, and with ``repair=True`` re-replicates, drops dead/corrupt
  replicas and rebuilds local indexes from the surviving records.

The corruption model matches the simulation's single-process reality:
record lists live once in memory, so "corrupting replica r" marks that
replica's *stored copy* as failing its checksum rather than mutating the
shared objects — exactly what a flipped byte on one datanode's disk
looks like from the namenode. Deterministic ``losenode:<node>`` and
``corruptblock:<file>:<block>[:<replica>]`` faults are injected through
the :class:`~repro.mapreduce.faults.FaultPlan` grammar.
"""

from __future__ import annotations

import pickle
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

#: Default datanode count (mirrors ClusterModel.num_nodes's default).
DEFAULT_DATANODES = 25

#: HDFS's default replication factor.
DEFAULT_REPLICATION = 3


class StorageError(RuntimeError):
    """Base class for durable-storage failures."""


class BlockUnavailableError(StorageError):
    """No healthy replica of a block is left to read."""


# ----------------------------------------------------------------------
# Checksums
# ----------------------------------------------------------------------
def checksum_records(records: List[Any]) -> int:
    """CRC-32 of a block's record payload.

    Computed over the pickled record list — the simulator's stand-in for
    the on-disk byte stream HDFS checksums per 512-byte chunk.
    """
    try:
        payload = pickle.dumps(records, protocol=4)
    except Exception:
        # Unpicklable records (driver-only test doubles): checksum their
        # reprs so integrity tracking still works.
        payload = repr(records).encode("utf-8", "replace")
    return zlib.crc32(payload)


def local_index_checksum(local_index: Any) -> int:
    """CRC-32 of a local index's column and structure bytes."""
    return local_index.checksum()


def global_index_checksum(gindex: Any) -> int:
    """CRC-32 of a global index's canonical form (cells, in order)."""
    parts = [f"{gindex.technique}|{gindex.disjoint}"]
    parts.extend(
        f"{c.cell_id}:{c.mbr}:{c.num_records}:{c.content_mbr}"
        for c in gindex.cells
    )
    return zlib.crc32("|".join(parts).encode("utf-8"))


# ----------------------------------------------------------------------
# Replicas
# ----------------------------------------------------------------------
@dataclass
class Replica:
    """One stored copy of a block on one datanode.

    ``corrupt`` models a failed on-disk checksum for *this copy only*:
    the shared in-memory record list is intact, but any read routed to
    this replica would fail verification and must fail over.
    """

    node: int
    corrupt: bool = False


class StorageManager:
    """The namenode's view: datanode liveness plus placement policy.

    Replica lists and checksums live on the blocks themselves (they are
    file data and pickle with the workspace); the manager owns the node
    states and the round-robin placement cursor.
    """

    def __init__(
        self,
        num_nodes: int = DEFAULT_DATANODES,
        replication: int = DEFAULT_REPLICATION,
    ):
        if num_nodes <= 0:
            raise ValueError("a storage layer needs at least one datanode")
        if replication <= 0:
            raise ValueError("replication factor must be positive")
        self.num_nodes = num_nodes
        self.replication = min(replication, num_nodes)
        self.dead_nodes: set = set()
        self._cursor = 0

    # -- node state -----------------------------------------------------
    def is_alive(self, node: int) -> bool:
        return 0 <= node < self.num_nodes and node not in self.dead_nodes

    def alive_nodes(self) -> List[int]:
        return [n for n in range(self.num_nodes) if n not in self.dead_nodes]

    @property
    def target_replication(self) -> int:
        """The best replication currently achievable (nodes may be dead)."""
        return min(self.replication, len(self.alive_nodes()))

    # -- write path -----------------------------------------------------
    def seal_block(self, block: Any) -> None:
        """Checksum ``block`` and place its replicas (write path).

        Homogeneous point/rectangle blocks get a columnar payload here
        (when vectorized execution is on) and their checksum is computed
        over the columnar bytes, so replica verification and fsck cover
        exactly what the batch kernels read.

        Also used to *adopt* blocks from workspaces pickled before the
        storage layer existed; sealing is idempotent for placed blocks.
        """
        from repro.geometry import vectorized
        from repro.mapreduce.columnar import ColumnarPayload

        if getattr(block, "replicas", None):
            return
        payload = getattr(block, "columnar", None)
        if payload is None:
            payload = ColumnarPayload.from_records(block.records)
            if vectorized.enabled():
                block.columnar = payload
        if payload is not None:
            block.checksum = payload.checksum()
        else:
            block.checksum = checksum_records(block.records)
        local_index = block.metadata.get("local_index")
        if local_index is not None and "local_index_crc" not in block.metadata:
            block.metadata["local_index_crc"] = local_index_checksum(
                local_index
            )
        block.replicas = [Replica(node=n) for n in self._pick_nodes()]

    def seal_file(self, entry: Any) -> None:
        """Seal every block of a file plus its global-index checksum."""
        for block in entry.blocks:
            self.seal_block(block)
        gindex = entry.metadata.get("global_index")
        if gindex is not None and "global_index_crc" not in entry.metadata:
            entry.metadata["global_index_crc"] = global_index_checksum(gindex)

    def _pick_nodes(self) -> List[int]:
        """Round-robin placement over the alive datanodes."""
        alive = self.alive_nodes()
        want = min(self.replication, len(alive))
        chosen = [
            alive[(self._cursor + i) % len(alive)] for i in range(want)
        ]
        self._cursor = (self._cursor + 1) % max(1, len(alive))
        return chosen

    # -- read path ------------------------------------------------------
    def healthy_replicas(self, block: Any) -> List[Replica]:
        return [
            r
            for r in getattr(block, "replicas", None) or ()
            if self.is_alive(r.node) and not r.corrupt
        ]

    def verify_block(self, file_name: str, index: int, block: Any):
        """Route a read to the first healthy replica.

        Returns ``(failovers, corrupt_seen)``: how many replicas were
        skipped before a healthy one answered, and how many of those were
        skipped for a failed checksum (vs a dead node). Raises
        :class:`BlockUnavailableError` when no copy survives.
        """
        replicas = getattr(block, "replicas", None)
        if not replicas:
            # Legacy block (pre-storage workspace): adopt it on first read.
            self.seal_block(block)
            return 0, 0
        failovers = 0
        corrupt_seen = 0
        for replica in replicas:
            if not self.is_alive(replica.node):
                failovers += 1
                continue
            if replica.corrupt:
                failovers += 1
                corrupt_seen += 1
                continue
            return failovers, corrupt_seen
        raise BlockUnavailableError(
            f"block {index} of {file_name!r} has no healthy replica left "
            f"({len(replicas)} known: "
            f"{corrupt_seen} corrupt, {failovers - corrupt_seen} on dead "
            f"nodes); run `repro fsck --repair` or re-load the file"
        )

    # -- failure injection ----------------------------------------------
    def corrupt_replica(self, block: Any, replica: int = 0) -> bool:
        """Mark one stored copy of ``block`` as failing its checksum."""
        replicas = getattr(block, "replicas", None)
        if not replicas:
            self.seal_block(block)
            replicas = block.replicas
        if not 0 <= replica < len(replicas):
            return False
        replicas[replica].corrupt = True
        return True

    def lose_node(self, node: int, fs: Any, io_seconds: float = 0.0):
        """Kill datanode ``node`` and re-replicate what it held.

        Returns ``(repaired, repair_s)``: how many replicas the namenode
        re-created on surviving nodes, and the simulated seconds the
        repair traffic cost (read + write of every re-replicated record,
        charged at ``io_seconds`` per record). The last alive node can
        never be lost (the namespace would be gone); that call is a
        no-op, as is losing an unknown or already-dead node.
        """
        if not self.is_alive(node) or len(self.alive_nodes()) <= 1:
            return 0, 0.0
        self.dead_nodes.add(node)
        repaired = 0
        repair_s = 0.0
        for name in fs.list_files():
            entry = fs.get(name)
            for index, block in enumerate(entry.blocks):
                n, s = self._re_replicate(block, io_seconds)
                repaired += n
                repair_s += s
        return repaired, repair_s

    def _re_replicate(self, block: Any, io_seconds: float = 0.0):
        """Restore a block to target replication from its healthy copies.

        Dead-node and corrupt replicas are dropped from the replica map
        and fresh copies are written to alive nodes that don't already
        hold one. A block with *no* healthy replica cannot be repaired
        (the data is gone) and is left untouched for fsck to report.
        """
        healthy = self.healthy_replicas(block)
        if not healthy:
            return 0, 0.0
        block.replicas = list(healthy)
        held = {r.node for r in block.replicas}
        candidates = [n for n in self.alive_nodes() if n not in held]
        repaired = 0
        repair_s = 0.0
        while len(block.replicas) < self.target_replication and candidates:
            node = candidates.pop(0)
            block.replicas.append(Replica(node=node))
            repaired += 1
            # Repair traffic: read the source copy, write the new one.
            repair_s += 2.0 * io_seconds * len(block.records)
        return repaired, repair_s


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
@dataclass
class FsckIssue:
    """One problem fsck found (and possibly repaired)."""

    file: str
    code: str
    message: str
    block: Optional[int] = None
    repaired: bool = False
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "file": self.file,
            "code": self.code,
            "message": self.message,
            "repaired": self.repaired,
        }
        if self.block is not None:
            out["block"] = self.block
        if self.data:
            out["data"] = dict(self.data)
        return out


@dataclass
class FsckReport:
    """The verdict of one fsck walk over the whole namespace."""

    files_checked: int = 0
    blocks_checked: int = 0
    repair: bool = False
    issues: List[FsckIssue] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """No outstanding (unrepaired) issues."""
        return not any(not i.repaired for i in self.issues)

    @property
    def repaired_count(self) -> int:
        return sum(1 for i in self.issues if i.repaired)

    def count(self, code: str) -> int:
        return sum(1 for i in self.issues if i.code == code)

    def summary(self) -> Dict[str, Any]:
        counts: Dict[str, int] = {}
        for issue in self.issues:
            counts[issue.code] = counts.get(issue.code, 0) + 1
        return {
            "files_checked": self.files_checked,
            "blocks_checked": self.blocks_checked,
            "repair": self.repair,
            "issues": len(self.issues),
            "repaired": self.repaired_count,
            "healthy": self.healthy,
            "by_code": counts,
        }

    def to_dict(self) -> Dict[str, Any]:
        out = self.summary()
        out["findings"] = [i.to_dict() for i in self.issues]
        return out

    def render(self) -> str:
        lines = [
            f"fsck: {self.files_checked} file(s), "
            f"{self.blocks_checked} block(s) checked"
            + (" (repair mode)" if self.repair else "")
        ]
        for issue in self.issues:
            where = f" [block {issue.block}]" if issue.block is not None else ""
            fixed = " -- REPAIRED" if issue.repaired else ""
            lines.append(
                f"  {issue.code}: {issue.file}{where}: {issue.message}{fixed}"
            )
        if not self.issues:
            lines.append("  no issues: the namespace is healthy")
        elif self.healthy:
            lines.append(
                f"  {len(self.issues)} issue(s), all repaired; "
                f"the namespace is healthy"
            )
        else:
            outstanding = len(self.issues) - self.repaired_count
            lines.append(
                f"  {len(self.issues)} issue(s), "
                f"{self.repaired_count} repaired, {outstanding} outstanding; "
                f"the namespace is NOT healthy"
            )
        return "\n".join(lines)


def run_fsck(
    fs: Any,
    repair: bool = False,
    metrics: Any = None,
    checkpoint_dir: Any = None,
) -> FsckReport:
    """Walk every file, verify blocks and indexes, optionally repair.

    Checks, per block: payload checksum (recomputed from the records),
    replica health (dead nodes / corrupt copies), replication level, and
    the local-index checksum. Per file: the global-index checksum. With
    ``repair=True``: corrupt and dead replicas are dropped and fresh
    copies written (``REPLICAS_REPAIRED``), stale payload checksums are
    recomputed, and damaged local indexes are rebuilt from the block's
    surviving records. A block with no healthy replica at all is
    reported as lost — fsck cannot invent data.

    ``checkpoint_dir`` extends the walk to a crash-recovery journal
    (see :mod:`repro.mapreduce.checkpoint`): a corrupt manifest or wave
    file surfaces as a ``checkpoint-*`` issue, and with ``repair=True``
    corrupt wave files are deleted so resume re-executes those waves.
    """
    storage = fs.storage
    report = FsckReport(repair=repair)
    corrupt_detected = 0
    replicas_repaired = 0
    for name in fs.list_files():
        entry = fs.get(name)
        report.files_checked += 1
        for index, block in enumerate(entry.blocks):
            report.blocks_checked += 1
            if not getattr(block, "replicas", None):
                storage.seal_block(block)
                report.issues.append(
                    FsckIssue(
                        file=name,
                        block=index,
                        code="unplaced-block",
                        message="no replica map (pre-storage workspace); "
                        "sealed and placed",
                        repaired=True,
                    )
                )
                continue
            corrupt_detected += _check_block(
                name, index, block, storage, repair, report
            )
            replicas_repaired += _maybe_re_replicate(
                name, index, block, storage, repair, report
            )
            _check_local_index(name, index, block, repair, report)
        _check_global_index(name, entry, repair, report)
    if checkpoint_dir is not None:
        from repro.mapreduce.checkpoint import fsck_checkpoints

        for issue in fsck_checkpoints(checkpoint_dir, repair=repair):
            report.issues.append(
                FsckIssue(
                    file=issue.get("file", str(checkpoint_dir)),
                    code=issue["code"],
                    message=issue["message"],
                    repaired=issue.get("repaired", False),
                )
            )
    if metrics is not None:
        metrics.inc("FSCK_RUNS")
        if corrupt_detected:
            metrics.inc("BLOCKS_CORRUPT_DETECTED", corrupt_detected)
        if replicas_repaired:
            metrics.inc("REPLICAS_REPAIRED", replicas_repaired)
    return report


def _check_block(name, index, block, storage, repair, report) -> int:
    """Payload checksum + per-replica health for one block."""
    from repro.mapreduce.columnar import block_payload_checksum

    corrupt_seen = 0
    stored = getattr(block, "checksum", None)
    # Rebuilt fresh from the current records (columnar bytes for
    # homogeneous blocks, pickled records otherwise) so in-place
    # mutation is detected either way.
    actual = block_payload_checksum(block)
    if stored != actual:
        if repair:
            block.checksum = actual
        report.issues.append(
            FsckIssue(
                file=name,
                block=index,
                code="checksum-mismatch",
                message=(
                    f"stored payload CRC {stored} != recomputed {actual}"
                ),
                repaired=repair,
                data={"stored": stored, "actual": actual},
            )
        )
    healthy = storage.healthy_replicas(block)
    for replica in block.replicas:
        if replica.corrupt:
            corrupt_seen += 1
            report.issues.append(
                FsckIssue(
                    file=name,
                    block=index,
                    code="corrupt-replica",
                    message=f"replica on node {replica.node} fails its "
                    "checksum",
                    repaired=repair and bool(healthy),
                    data={"node": replica.node},
                )
            )
        elif not storage.is_alive(replica.node):
            report.issues.append(
                FsckIssue(
                    file=name,
                    block=index,
                    code="missing-replica",
                    message=f"replica on dead node {replica.node}",
                    repaired=repair and bool(healthy),
                    data={"node": replica.node},
                )
            )
    if not healthy:
        report.issues.append(
            FsckIssue(
                file=name,
                block=index,
                code="lost-block",
                message="no healthy replica left; data is unrecoverable",
            )
        )
    return corrupt_seen


def _maybe_re_replicate(name, index, block, storage, repair, report) -> int:
    """Report (and with repair, fix) under-replication of one block."""
    healthy = storage.healthy_replicas(block)
    if not healthy:
        return 0
    target = storage.target_replication
    if len(healthy) >= target and len(healthy) == len(block.replicas):
        return 0
    repaired = 0
    if repair:
        repaired, _ = storage._re_replicate(block)
    if len(healthy) < target:
        report.issues.append(
            FsckIssue(
                file=name,
                block=index,
                code="under-replicated",
                message=(
                    f"{len(healthy)} healthy replica(s), target {target}"
                ),
                repaired=repair and repaired > 0,
                data={"healthy": len(healthy), "target": target},
            )
        )
    return repaired


def _check_local_index(name, index, block, repair, report) -> None:
    local_index = block.metadata.get("local_index")
    if local_index is None:
        return
    stored = block.metadata.get("local_index_crc")
    actual = local_index_checksum(local_index)
    if stored == actual:
        return
    repaired = False
    if repair:
        rebuilt = _rebuild_local_index(block.records)
        if rebuilt is not None:
            block.metadata["local_index"] = rebuilt
            block.metadata["local_index_crc"] = local_index_checksum(rebuilt)
            repaired = True
    report.issues.append(
        FsckIssue(
            file=name,
            block=index,
            code="local-index-corrupt",
            message=(
                f"local-index CRC {stored} != recomputed {actual}"
                + ("; rebuilt from records" if repaired else "")
            ),
            repaired=repaired,
            data={"stored": stored, "actual": actual},
        )
    )


def _rebuild_local_index(records):
    """Bulk-load a fresh local R-tree from a block's surviving records."""
    # Imported lazily: repro.index imports repro.mapreduce.
    from repro.index.rtree import RTree

    try:
        return RTree.from_shapes(records)
    except Exception:
        return None


def _check_global_index(name, entry, repair, report) -> None:
    gindex = entry.metadata.get("global_index")
    if gindex is None:
        return
    stored = entry.metadata.get("global_index_crc")
    actual = global_index_checksum(gindex)
    if stored == actual:
        return
    if repair:
        entry.metadata["global_index_crc"] = actual
    report.issues.append(
        FsckIssue(
            file=name,
            code="global-index-corrupt",
            message=(
                f"global-index CRC {stored} != recomputed {actual}"
                + ("; checksum re-stamped" if repair else "")
            ),
            repaired=repair,
            data={"stored": stored, "actual": actual},
        )
    )
