"""MapReduce index construction.

Builds a spatially indexed file out of a heap file in the paper's three
phases: a sampling pass computes the exact file MBR and a random sample;
the chosen partitioning technique derives cell boundaries from the sample;
and a partitioning MapReduce job routes every record to its cell(s), packs
each cell into one block and bulk-loads the block's local index. The
resulting file carries its :class:`~repro.index.global_index.GlobalIndex`
in the file metadata, and each block carries its cell MBR and local index
in the block metadata.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Type

from repro.geometry import Rectangle
from repro.index.global_index import Cell, GlobalIndex
from repro.index.partitioners.base import Partitioner, shape_mbr
from repro.index.partitioners.grid import GridPartitioner
from repro.index.partitioners.kdtree import KdTreePartitioner
from repro.index.partitioners.quadtree import QuadTreePartitioner
from repro.index.partitioners.space_curves import (
    HilbertCurvePartitioner,
    ZCurvePartitioner,
)
from repro.index.partitioners.str_ import StrPartitioner, StrPlusPartitioner
from repro.index.rtree import RTree
from repro.index.sampler import reservoir_sample
from repro.mapreduce import Block, Job, JobResult, JobRunner

#: Registry of partitioning techniques by name.
PARTITIONERS: Dict[str, Type[Partitioner]] = {
    cls.technique: cls
    for cls in (
        GridPartitioner,
        StrPartitioner,
        StrPlusPartitioner,
        QuadTreePartitioner,
        KdTreePartitioner,
        ZCurvePartitioner,
        HilbertCurvePartitioner,
    )
}

DEFAULT_SAMPLE_SIZE = 2_000


def _sample_map(_key, records, ctx):
    """Per-block MBR + reservoir sample (module-level: picklable)."""
    if not records:
        return
    mbr = shape_mbr(records[0])
    for r in records[1:]:
        mbr = mbr.union(shape_mbr(r))
    per_block = max(
        8, ctx.config["sample_size"] // max(1, ctx.config["num_blocks"])
    )
    picked = reservoir_sample(records, per_block, seed=ctx.split.block_index)
    ctx.write_output((mbr, [shape_mbr(r).center for r in picked]))


def _partition_map(_key, records, ctx):
    """Route records to their cell(s) (module-level: picklable).

    Records cross the shuffle as ``(block_index, offset)`` references, not
    as the records themselves. The commit phase resolves references back to
    the *original* record objects, so a record replicated into several
    cells is stored as the same object in every block — identity sharing
    that downstream consumers (the distributed join's duplicate handling)
    rely on, and that shipping pickled record copies from worker processes
    would silently break. It also keeps the shuffle payload tiny.
    """
    assign = ctx.config["partitioner"].assign
    block_index = ctx.split.block_index
    for offset, record in enumerate(records):
        for cell_id in assign(shape_mbr(record)):
            ctx.emit(cell_id, (block_index, offset))


def _partition_reduce(cell_id, refs, ctx):
    """Pack one cell's record references (module-level: picklable)."""
    ctx.emit(cell_id, (cell_id, refs))


@dataclass
class IndexBuildResult:
    """Outcome of one index build."""

    output_file: str
    global_index: GlobalIndex
    jobs: List[JobResult] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Total simulated cluster time across the build's MapReduce jobs."""
        return sum(j.makespan for j in self.jobs)

    @property
    def replication(self) -> float:
        """Stored records divided by input records (1.0 = no replication)."""
        stored = self.global_index.total_records
        source = max(1, self.jobs[-1].counters.get("MAP_INPUT_RECORDS"))
        return stored / source


def build_index(
    runner: JobRunner,
    input_file: str,
    output_file: str,
    technique: str = "str",
    block_capacity: Optional[int] = None,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    build_local_indexes: bool = True,
    seed: int = 0,
) -> IndexBuildResult:
    """Index ``input_file`` into ``output_file`` with the given technique.

    ``block_capacity`` is the records-per-partition target (defaults to the
    file system's block capacity); the number of cells is derived from it
    exactly as SpatialHadoop derives cell count from the 64 MB block size.
    """
    if technique not in PARTITIONERS:
        raise ValueError(
            f"unknown technique {technique!r}; pick one of {sorted(PARTITIONERS)}"
        )
    fs = runner.fs
    capacity = block_capacity or fs.default_block_capacity
    tracer = runner.tracer

    with tracer.span(
        f"index:{technique}({input_file})",
        kind="index-build",
        technique=technique,
        input=input_file,
        output=output_file,
    ) as build_span:
        # --------------------------------------------------------------
        # Phase 1: sampling job (map-only). Each map task ships its block
        # MBR and a small per-block sample to the driver.
        # --------------------------------------------------------------
        with tracer.span("index:sample", kind="index-phase") as sample_span:
            num_blocks = fs.num_blocks(input_file)
            sample_job = Job(
                input_file=input_file,
                map_fn=_sample_map,
                config={"num_blocks": num_blocks, "sample_size": sample_size},
                name=f"sample({input_file})",
            )
            sample_result = runner.run(sample_job)

            total_records = fs.num_records(input_file)
            if not sample_result.output:
                raise ValueError(f"cannot index empty file: {input_file!r}")
            space: Rectangle = sample_result.output[0][0]
            sample_points = []
            for mbr, pts in sample_result.output:
                space = space.union(mbr)
                sample_points.extend(pts)
            sample_points = reservoir_sample(
                sample_points, sample_size, seed=seed
            )
            sample_span.set("sample_points", len(sample_points))

        # --------------------------------------------------------------
        # Phase 2: derive cell boundaries, then the partitioning job. Map
        # routes records to cells (replicating for disjoint techniques);
        # each reduce task packs one cell.
        # --------------------------------------------------------------
        with tracer.span("index:plan", kind="index-phase") as plan_span:
            num_cells = max(1, -(-total_records // capacity))  # ceil division
            partitioner = PARTITIONERS[technique].create(
                sample_points, num_cells, space
            )
            plan_span.set("cells", partitioner.num_cells())
            plan_span.set("disjoint", partitioner.disjoint)

        partition_job = Job(
            input_file=input_file,
            map_fn=_partition_map,
            reduce_fn=_partition_reduce,
            num_reducers=partitioner.num_cells(),
            config={"partitioner": partitioner},
            name=f"partition({input_file}, {technique})",
        )
        partition_result = runner.run(partition_job)

        # --------------------------------------------------------------
        # Phase 3 (commit, on the master): assemble blocks + global index.
        # --------------------------------------------------------------
        with tracer.span("index:commit", kind="index-phase") as commit_span:
            source_blocks = fs.get(input_file).blocks
            blocks: List[Block] = []
            cells: List[Cell] = []
            for cell_id, refs in sorted(
                partition_result.output, key=lambda kv: kv[0]
            ):
                records = [
                    source_blocks[block_index].records[offset]
                    for block_index, offset in refs
                ]
                if not records:
                    continue
                content_mbr = shape_mbr(records[0])
                for r in records[1:]:
                    content_mbr = content_mbr.union(shape_mbr(r))
                if partitioner.disjoint:
                    cell_mbr = partitioner.cell_rect(cell_id)
                else:
                    cell_mbr = content_mbr
                metadata = {"cell": cell_mbr, "cell_id": cell_id}
                if build_local_indexes:
                    metadata["local_index"] = RTree.from_shapes(records)
                blocks.append(Block(records=list(records), metadata=metadata))
                cells.append(
                    Cell(
                        cell_id=cell_id,
                        mbr=cell_mbr,
                        num_records=len(records),
                        content_mbr=content_mbr,
                    )
                )

            global_index = GlobalIndex(
                cells=cells, technique=technique, disjoint=partitioner.disjoint
            )
            if fs.exists(output_file):
                fs.delete(output_file)
            fs.create_file_from_blocks(
                output_file,
                blocks,
                metadata={"global_index": global_index, "technique": technique},
            )
            commit_span.set("partitions", len(cells))
            commit_span.set("stored_records", global_index.total_records)
        build_span.set("partitions", len(cells))

    return IndexBuildResult(
        output_file=output_file,
        global_index=global_index,
        jobs=[sample_result, partition_result],
    )
