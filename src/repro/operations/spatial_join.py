"""Spatial join: all overlapping pairs across two datasets.

Two algorithms, as in the papers:

* **SJMR** (Spatial Join with MapReduce) — the Hadoop baseline for
  non-indexed inputs. A single job repartitions both inputs on a uniform
  grid in the map phase and joins each grid cell's contents in the reduce
  phase with a plane sweep, using the reference-point technique to report
  each pair exactly once.
* **Distributed join (DJ)** — the SpatialHadoop algorithm for two indexed
  files. The driver joins the two *global indexes* to find the overlapping
  partition pairs; one map task per surviving pair joins the two blocks
  locally. Pairs of partitions that do not overlap are never read — that is
  the index's whole advantage, and experiment E4 counts exactly this.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

import numpy as np

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of
from repro.geometry import Point, Rectangle, vectorized
from repro.index.partitioners.base import shape_mbr
from repro.index.partitioners.grid import GridPartitioner
from repro.mapreduce import Block, Job, JobRunner
from repro.mapreduce.types import InputSplit
from repro.observe.plan import PlanNode, estimate_job_cost


#: Below this per-side size the windowed sweep's array setup costs more
#: than the scalar inner loops it replaces.
_SWEEP_MIN_RECORDS = 8


def plane_sweep_join(left: List[Any], right: List[Any]) -> List[Tuple[Any, Any]]:
    """All (l, r) pairs with intersecting MBRs, by x-sweep.

    Classic forward plane sweep over the records of one partition pair;
    O(n log n + k) for typical inputs. With vectorized execution on, the
    inner loops are replaced by ``searchsorted`` windows plus one
    intersection mask per sweep step — same pairs, same emit order.
    """
    ls = sorted(left, key=lambda r: shape_mbr(r).x1)
    rs = sorted(right, key=lambda r: shape_mbr(r).x1)
    lm = [shape_mbr(r) for r in ls]
    rm = [shape_mbr(r) for r in rs]
    if (
        vectorized.enabled()
        and len(ls) >= _SWEEP_MIN_RECORDS
        and len(rs) >= _SWEEP_MIN_RECORDS
    ):
        return _plane_sweep_windowed(ls, rs, lm, rm)
    out: List[Tuple[Any, Any]] = []
    i = j = 0
    nl, nr = len(ls), len(rs)
    while i < nl and j < nr:
        l_mbr = lm[i]
        r_mbr = rm[j]
        if l_mbr.x1 <= r_mbr.x1:
            # Sweep ls[i] against right records starting at j.
            jj = j
            while jj < nr:
                other = rm[jj]
                if other.x1 > l_mbr.x2:
                    break
                if l_mbr.intersects(other):
                    out.append((ls[i], rs[jj]))
                jj += 1
            i += 1
        else:
            ii = i
            while ii < nl:
                other = lm[ii]
                if other.x1 > r_mbr.x2:
                    break
                if other.intersects(r_mbr):
                    out.append((ls[ii], rs[j]))
                ii += 1
            j += 1
    return out


def _plane_sweep_windowed(ls, rs, lm, rm) -> List[Tuple[Any, Any]]:
    """NumPy replay of the scalar sweep.

    The scalar inner loop scans forward from the sweep frontier and
    breaks at the first record whose ``x1`` passes the active record's
    ``x2`` — on an x1-sorted side that stop position is exactly
    ``searchsorted(x1s, x2, side="right")`` (ties included, like the
    scalar ``>`` break). One closed-intersection mask over the window
    then emits the same pairs in the same ascending order.
    """
    nl, nr = len(ls), len(rs)
    lx1 = np.fromiter((m.x1 for m in lm), np.float64, nl)
    ly1 = np.fromiter((m.y1 for m in lm), np.float64, nl)
    lx2 = np.fromiter((m.x2 for m in lm), np.float64, nl)
    ly2 = np.fromiter((m.y2 for m in lm), np.float64, nl)
    rx1 = np.fromiter((m.x1 for m in rm), np.float64, nr)
    ry1 = np.fromiter((m.y1 for m in rm), np.float64, nr)
    rx2 = np.fromiter((m.x2 for m in rm), np.float64, nr)
    ry2 = np.fromiter((m.y2 for m in rm), np.float64, nr)
    out: List[Tuple[Any, Any]] = []
    append = out.append
    i = j = 0
    while i < nl and j < nr:
        if lx1[i] <= rx1[j]:
            hi = int(np.searchsorted(rx1, lx2[i], side="right"))
            if hi > j:
                w = slice(j, hi)
                mask = (
                    (rx2[w] >= lx1[i])
                    & (ry1[w] <= ly2[i])
                    & (ry2[w] >= ly1[i])
                )
                l_rec = ls[i]
                for t in np.flatnonzero(mask).tolist():
                    append((l_rec, rs[j + t]))
            i += 1
        else:
            hi = int(np.searchsorted(lx1, rx2[j], side="right"))
            if hi > i:
                w = slice(i, hi)
                mask = (
                    (lx2[w] >= rx1[j])
                    & (ly1[w] <= ry2[j])
                    & (ly2[w] >= ry1[j])
                )
                r_rec = rs[j]
                for t in np.flatnonzero(mask).tolist():
                    append((ls[i + t], r_rec))
            j += 1
    return out


def _pair_owned_by(cell: Rectangle, a: Rectangle, b: Rectangle) -> bool:
    """Reference-point duplicate avoidance for joined pairs.

    The pair is reported by the cell containing the bottom-left corner of
    the intersection of the two MBRs.
    """
    inter = a.intersection(b)
    if inter is None:  # touching at a boundary: use the shared corner
        inter = Rectangle(
            max(a.x1, b.x1), max(a.y1, b.y1), max(a.x1, b.x1), max(a.y1, b.y1)
        )
    return cell.contains_point_left_inclusive(Point(inter.x1, inter.y1))


# ----------------------------------------------------------------------
# SJMR: the Hadoop baseline
# ----------------------------------------------------------------------
def _sjmr_map(_key, records, ctx):
    """SJMR repartition map (module-level: picklable).

    A self-join (both sides the same file) tags every record for both
    sides; otherwise the originating file decides the side.
    """
    if ctx.config["self_join"]:
        tags = (0, 1)
    else:
        tags = (0,) if ctx.split.file == ctx.config["left"] else (1,)
    g: GridPartitioner = ctx.config["grid"]
    for record in records:
        for cell_id in g.overlapping_cells(shape_mbr(record)):
            for tag in tags:
                ctx.emit(cell_id, (tag, record))


def _sjmr_reduce(cell_id, tagged, ctx):
    """SJMR per-cell plane-sweep join (module-level: picklable)."""
    g: GridPartitioner = ctx.config["grid"]
    cell = g.cell_rect(cell_id)
    left = [r for t, r in tagged if t == 0]
    right = [r for t, r in tagged if t == 1]
    for l, r in plane_sweep_join(left, right):
        if _pair_owned_by(cell, shape_mbr(l), shape_mbr(r)):
            ctx.emit(cell_id, (l, r))


def spatial_join_sjmr(
    runner: JobRunner,
    left_file: str,
    right_file: str,
    grid_size: Optional[int] = None,
) -> OperationResult:
    """Grid-repartition join of two heap files in one MapReduce job."""
    fs = runner.fs
    total = fs.num_records(left_file) + fs.num_records(right_file)
    if total == 0:
        return OperationResult(answer=[], jobs=[], system="hadoop")

    # The driver needs the space MBR to define the repartition grid; SJMR
    # obtains it from a statistics pass over each input (free for indexed
    # files, one map-only job for heap files).
    from repro.operations.stats import file_stats

    stats_jobs = []
    mbr: Optional[Rectangle] = None
    for name in dict.fromkeys((left_file, right_file)):
        stats_op = file_stats(runner, name)
        stats_jobs.extend(stats_op.jobs)
        file_mbr = stats_op.answer.mbr
        if file_mbr is not None:
            mbr = file_mbr if mbr is None else mbr.union(file_mbr)
    if mbr is None:
        return OperationResult(answer=[], jobs=stats_jobs, system="hadoop")
    size = grid_size or max(1, math.ceil(math.sqrt(total / fs.default_block_capacity)))
    grid = GridPartitioner(mbr, grid_size=size)

    input_files = (
        [left_file] if left_file == right_file else [left_file, right_file]
    )
    with runner.tracer.span(
        f"op:sjmr({left_file},{right_file})",
        kind="operation",
        left=left_file,
        right=right_file,
        grid_cells=grid.num_cells(),
    ) as op_span:
        job = Job(
            input_file=input_files,
            map_fn=_sjmr_map,
            reduce_fn=_sjmr_reduce,
            num_reducers=grid.num_cells(),
            config={
                "grid": grid,
                "left": left_file,
                "self_join": left_file == right_file,
            },
            name=f"sjmr({left_file},{right_file})",
        )
        result = runner.run(job)
        op_span.set("pairs", len(result.output))
    return OperationResult(
        answer=result.output, jobs=stats_jobs + [result], system="hadoop"
    )


# ----------------------------------------------------------------------
# Distributed join: the SpatialHadoop algorithm
# ----------------------------------------------------------------------
def _pair_splitter(fs_, job_):
    """One split per overlapping-partition-pair block."""
    entry = fs_.get(job_.input_file)
    return [
        InputSplit(
            file=job_.input_file,
            block_index=i,
            block=block,
            key=block.metadata["cell"],
        )
        for i, block in enumerate(entry.blocks)
    ]


def _dj_map(cell, tagged, ctx):
    """Distributed-join per-pair plane sweep (module-level: picklable)."""
    left = [r for t, r in tagged if t == 0]
    right = [r for t, r in tagged if t == 1]
    for l, r in plane_sweep_join(left, right):
        if ctx.config["ref_dedup"] and not _pair_owned_by(
            cell, shape_mbr(l), shape_mbr(r)
        ):
            continue
        ctx.write_output((l, r))


def spatial_join_distributed(
    runner: JobRunner, left_file: str, right_file: str
) -> OperationResult:
    """Index-aware join of two spatially indexed files."""
    fs = runner.fs
    left_index = global_index_of(fs, left_file)
    right_index = global_index_of(fs, right_file)
    if left_index is None or right_index is None:
        raise ValueError("distributed join requires both inputs to be indexed")

    # The driver reads partition records directly (no map-input splits),
    # so route the read through the checksummed HDFS path: replicas fail
    # over, and a block with no healthy copy fails typed instead of
    # serving rotten data.
    runner.verify_driver_read(left_file, right_file)
    left_entry = fs.get(left_file)
    right_entry = fs.get(right_file)
    left_blocks = {b.metadata["cell_id"]: b for b in left_entry.blocks}
    right_blocks = {b.metadata["cell_id"]: b for b in right_entry.blocks}

    tracer = runner.tracer
    with tracer.span(
        f"op:dj({left_file},{right_file})",
        kind="operation",
        left=left_file,
        right=right_file,
    ) as op_span:
        # Join the global indexes: one virtual split per overlapping
        # cell pair.
        with tracer.span("dj:index-join", kind="phase") as pair_span:
            pair_blocks: List[Block] = []
            for lc in left_index:
                for rc in right_index:
                    inter = lc.mbr.intersection(rc.mbr)
                    if inter is None:
                        continue
                    lb = left_blocks[lc.cell_id]
                    rb = right_blocks[rc.cell_id]
                    records = (
                        [(0, r) for r in lb.records]
                        + [(1, r) for r in rb.records]
                    )
                    pair_blocks.append(
                        Block(
                            records=records,
                            metadata={
                                "cell": inter,
                                "pair": (lc.cell_id, rc.cell_id),
                            },
                        )
                    )
            pair_span.set("pairs", len(pair_blocks))
            pair_span.set(
                "pairs_skipped",
                len(left_blocks) * len(right_blocks) - len(pair_blocks),
            )

        pairs_file = f"__dj_pairs__{left_file}__{right_file}"
        if fs.exists(pairs_file):
            fs.delete(pairs_file)
        fs.create_file_from_blocks(pairs_file, pair_blocks)

        # Duplicate avoidance. When *both* indexes are disjoint, the
        # cell-pair intersections refine both tilings, so the
        # reference-point rule reports every pair exactly once with no
        # communication. When at least one index assigns each record to a
        # single cell, duplicates can only arise from the replicated side,
        # and a driver-side identity dedup (a stand-in for Hadoop's
        # dedup-by-key round) removes them.
        reference_point_dedup = left_index.disjoint and right_index.disjoint

        config = {"ref_dedup": reference_point_dedup}
        if not reference_point_dedup:
            # The driver-side fallback below dedups by object identity,
            # which only holds when map tasks run in the driver process:
            # pin this job to the serial backend so a parallel runner
            # cannot break it.
            config["workers"] = 1
        job = Job(
            input_file=pairs_file,
            map_fn=_dj_map,
            splitter=_pair_splitter,
            config=config,
            name=f"dj({left_file},{right_file})",
        )
        try:
            result = runner.run(job)
        finally:
            fs.delete(pairs_file)
        answer = result.output
        if not reference_point_dedup:
            seen = set()
            unique = []
            for pair in answer:
                key = (id(pair[0]), id(pair[1]))
                if key not in seen:
                    seen.add(key)
                    unique.append(pair)
            answer = unique
        op_span.set("result_pairs", len(answer))
        op_span.set(
            "partitions_pruned",
            len(left_blocks) * len(right_blocks) - len(pair_blocks),
        )
    return OperationResult(answer=answer, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_spatial_join(
    runner: JobRunner, left_file: str, right_file: str
) -> PlanNode:
    """EXPLAIN plan for a join: distributed join when both sides are
    indexed (the partition-pair pruning is computed exactly from the two
    global indexes), SJMR otherwise."""
    fs = runner.fs
    left_index = global_index_of(fs, left_file)
    right_index = global_index_of(fs, right_file)

    if left_index is not None and right_index is not None:
        pairs = [
            (lc, rc)
            for lc in left_index
            for rc in right_index
            if lc.mbr.intersection(rc.mbr) is not None
        ]
        total_pairs = len(left_index) * len(right_index)
        root = PlanNode(
            f"SpatialJoin({left_file},{right_file})",
            kind="operation",
            detail={
                "strategy": "distributed-join",
                "left_technique": left_index.technique,
                "right_technique": right_index.technique,
                "dedup": "reference-point"
                if left_index.disjoint and right_index.disjoint
                else "driver-side",
            },
            estimated={"rounds": 1},
        )
        root.add(
            PlanNode(
                "GlobalIndexJoin",
                kind="filter",
                detail={"filter": "overlapping partition pairs"},
                estimated={
                    "partitions_total": total_pairs,
                    "partitions_scanned": len(pairs),
                    "partitions_pruned": total_pairs - len(pairs),
                },
            )
        )
        records_in = [lc.num_records + rc.num_records for lc, rc in pairs]
        root.add(
            PlanNode(
                f"job:dj({left_file},{right_file})",
                kind="job",
                detail={"map": "per-pair plane sweep", "reduce": "none"},
                estimated={
                    "blocks_read": len(pairs),
                    "records_read": sum(records_in),
                    "cost": estimate_job_cost(runner.cluster, records_in),
                },
            )
        )
        return root

    # SJMR: statistics pass per distinct heap input, then the
    # grid-repartition join.
    total = fs.num_records(left_file) + fs.num_records(right_file)
    self_join = left_file == right_file
    size = max(1, math.ceil(math.sqrt(max(1, total) / fs.default_block_capacity)))
    root = PlanNode(
        f"SpatialJoin({left_file},{right_file})",
        kind="operation",
        detail={
            "strategy": "sjmr",
            "grid": f"{size}x{size}",
            "dedup": "reference-point",
        },
    )
    stats_jobs = 0
    for name in dict.fromkeys((left_file, right_file)):
        if global_index_of(fs, name) is not None:
            continue  # indexed side: statistics come free from the index
        stats_jobs += 1
        entry = fs.get(name)
        root.add(
            PlanNode(
                f"job:stats({name})",
                kind="job",
                detail={"map": "per-block MBR + count", "reduce": "merge"},
                estimated={
                    "blocks_read": entry.num_blocks,
                    "records_read": entry.num_records,
                    "shuffle_records": entry.num_blocks,
                    "cost": estimate_job_cost(
                        runner.cluster,
                        [len(b) for b in entry.blocks],
                        reduce_records_in=[entry.num_blocks],
                        shuffle_records=entry.num_blocks,
                    ),
                },
            )
        )
    root.estimated = {"rounds": stats_jobs + 1}
    blocks = fs.num_blocks(left_file)
    if not self_join:
        blocks += fs.num_blocks(right_file)
    shuffle = total * (2 if self_join else 1)  # lower bound: 1 cell/record
    root.add(
        PlanNode(
            f"job:sjmr({left_file},{right_file})",
            kind="job",
            detail={
                "map": "grid repartition",
                "reduce": "per-cell plane sweep",
                "reducers": size * size,
            },
            estimated={
                "blocks_read": blocks,
                "records_read": total,
                "shuffle_records": shuffle,
                "cost": estimate_job_cost(
                    runner.cluster,
                    [total // max(1, blocks)] * blocks,
                    reduce_records_in=[
                        shuffle // max(1, size * size)
                    ]
                    * (size * size),
                    shuffle_records=shuffle,
                ),
            },
        )
    )
    return root
