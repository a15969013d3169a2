"""Which public functions of ``repro`` are traced, and the per-layer metrics.

:func:`install` wraps, from outside the program, the calls into each
layer named in ``WORKLOADS.md``; :func:`layer_metrics` turns the
tracer's totals and counts into the ``per_layer`` metrics of
``BENCHMARK.json``. Times are seconds summed over the traced operations.
"""

from __future__ import annotations

import os
from typing import Any, Callable, Dict, List, Tuple

from perfbench.tracer import Tracer

#: (name, unit) of every per-layer metric, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("import.s", "s"),
    ("workspace.load_s", "s"),
    ("workspace.save_s", "s"),
    ("workspace.bytes", "B"),
    ("operations.self_s", "s"),
    ("operations.range_s", "s"),
    ("operations.range.calls", "count"),
    ("operations.knn_s", "s"),
    ("operations.knn.calls", "count"),
    ("operations.count_s", "s"),
    ("operations.count.calls", "count"),
    ("operations.join_s", "s"),
    ("operations.join.calls", "count"),
    ("splitter.s", "s"),
    ("splitter.blocks_total", "count"),
    ("splitter.blocks_read", "count"),
    ("splitter.prune_ratio", "frac"),
    ("runtime.self_s", "s"),
    ("runtime.jobs", "count"),
    ("runtime.map_tasks", "count"),
    ("runtime.reduce_tasks", "count"),
    ("runtime.shuffle_records", "count"),
    ("runtime.shuffle_bytes", "B"),
    ("executor.s", "s"),
    ("executor.calls", "count"),
    ("executor.task_s", "s"),
    ("executor.task_share", "frac"),
    ("shm.live_segments", "count"),
    ("fs.write_s", "s"),
    ("fs.blocks_written", "count"),
    ("fs.read_verify_s", "s"),
    ("fs.blocks_verified", "count"),
    ("wkt.parse_s", "s"),
    ("wkt.records", "count"),
    ("index.build_s", "s"),
    ("index.builds", "count"),
    ("index.partitions", "count"),
    ("index.replication", "ratio"),
    ("rtree.build_s", "s"),
    ("rtree.search_calls", "count"),
    ("rtree.search_s", "s"),
    ("kernel.calls", "count"),
    ("kernel.records", "count"),
    ("kernel.s", "s"),
    ("observe.history_s", "s"),
    ("observe.history_records", "count"),
    ("serve.self_s", "s"),
    ("serve.plan_s", "s"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.cache_evictions", "count"),
    ("serve.requests", "count"),
    ("cluster.simulated_s", "s"),
    ("trace.residual_frac", "frac"),
    ("trace.overhead_frac", "frac"),
]

#: Facade methods and the operation span each is recorded as.
FACADE = {
    "range_query": "operations.range",
    "knn": "operations.knn",
    "range_count": "operations.count",
    "spatial_join": "operations.join",
    "load": "operations.load",
    "index": "operations.index",
}

KERNELS = (
    "points_in_rect", "rects_intersect", "points_in_rect_owned",
    "rects_intersect_owned", "point_distance_sq", "rect_min_distance_sq",
    "topk_by_distance",
)


def _after_operation(tr: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    makespan = getattr(result, "makespan", None)
    if makespan is not None:
        tr.count("cluster.simulated_s", makespan)


def _after_job(tr: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    from repro.mapreduce.counters import Counter

    counters = result.counters
    tasks = list(result.map_tasks) + list(result.reduce_tasks)
    tr.count("runtime.jobs")
    tr.count("runtime.map_tasks", len(result.map_tasks))
    tr.count("runtime.reduce_tasks", len(result.reduce_tasks))
    tr.count("runtime.shuffle_records", counters.get(Counter.SHUFFLE_RECORDS))
    tr.count("runtime.shuffle_bytes", counters.get(Counter.SHUFFLE_BYTES))
    tr.count("splitter.blocks_total", counters.get(Counter.BLOCKS_TOTAL))
    tr.count("splitter.blocks_read", counters.get(Counter.BLOCKS_READ))
    tr.count("executor.task_s", sum(t.seconds for t in tasks))


def _after_build(tr: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tr.count("index.partitions", len(result.global_index))
    tr.count("index.replication_sum", result.replication)


def _after_write(tr: Tracer, entry: Any, args: tuple, kwargs: dict) -> None:
    tr.count("fs.blocks_written", entry.num_blocks)


def _after_kernel(tr: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tr.count("kernel.records", len(args[0]))


def _after_save(tr: Tracer, result: Any, args: tuple, kwargs: dict) -> None:
    tr.count("workspace.bytes", os.path.getsize(args[1]))


def _core_system(tr: Tracer, system: Any) -> None:
    for method, span in FACADE.items():
        tr.patch(system.SpatialHadoop, method, span, after=_after_operation)
    tr.patch(system, "build_index", "index.build", after=_after_build)
    tr.patch(system, "parse_wkt", "wkt.parse", keep=False)


def _runtime(tr: Tracer, runtime: Any) -> None:
    tr.patch(runtime.JobRunner, "run", "runtime", after=_after_job)
    tr.patch(runtime, "default_splitter", "splitter")


def _executor(tr: Tracer, executor: Any) -> None:
    tr.patch(executor.SerialExecutor, "map_chunks", "executor")
    tr.patch(executor.ParallelExecutor, "map_chunks", "executor")


def _fs(tr: Tracer, fs: Any) -> None:
    tr.patch(fs.FileSystem, "create_file", "fs.write", after=_after_write)
    tr.patch(fs.FileSystem, "create_file_from_blocks", "fs.write", after=_after_write)
    tr.patch(fs.FileSystem, "verify_block_read", "fs.read_verify", keep=False)


def _rtree(tr: Tracer, rtree: Any) -> None:
    tr.patch(rtree.RTree, "__init__", "rtree.build")
    tr.patch(rtree.RTree, "search", "rtree.search", keep=False)
    tr.patch(rtree.RTree, "knn", "rtree.search", keep=False)


def _vectorized(tr: Tracer, vectorized: Any) -> None:
    for kernel in KERNELS:
        tr.patch(vectorized, kernel, "kernel", keep=False, after=_after_kernel)


def _explain(tr: Tracer, explain: Any) -> None:
    tr.patch(explain, "build_plan", "serve.plan")
    tr.patch(explain, "execute_query", "serve.execute")


def _cli(tr: Tracer, cli: Any) -> None:
    tr.patch(cli, "load_workspace", "workspace.load")
    tr.patch(cli, "save_workspace", "workspace.save", after=_after_save)


#: Module -> how its layer entry points are traced.
TARGETS: Dict[str, Callable[[Tracer, Any], None]] = {
    "repro.core.system": _core_system,
    "repro.mapreduce.runtime": _runtime,
    "repro.operations.spatial_join":
        lambda tr, m: tr.patch(m, "_pair_splitter", "splitter"),
    "repro.mapreduce.executor": _executor,
    "repro.mapreduce.fs": _fs,
    "repro.index.rtree": _rtree,
    "repro.geometry.vectorized": _vectorized,
    "repro.observe.history":
        lambda tr, m: tr.patch(m.JobHistory, "record", "observe.history", keep=False),
    "repro.serve.service":
        lambda tr, m: tr.patch(m.QueryService, "query", "serve.query"),
    "repro.observe.explain": _explain,
}


def install(tr: Tracer, cli: bool = False) -> None:
    """Wrap every traced layer entry point (``cli``: also the CLI's workspace I/O).

    Modules already loaded are patched now; the others when the program
    first imports them, so that import stays inside the span that
    triggers it, as it does untraced.
    """
    targets = dict(TARGETS, **({"repro.cli": _cli} if cli else {}))

    def apply(module: Any) -> None:
        patch = targets.get(module.__name__)
        if patch is not None:
            patch(tr, module)
        if "spatial_splitter" in vars(module):
            tr.patch_factory(module, "spatial_splitter", "splitter")

    tr.patch_on_import("repro", apply)


def layer_metrics(
    tr: Tracer, untraced_s: float, traced_s: float
) -> Dict[str, Dict[str, Any]]:
    """Every :data:`PER_LAYER` metric from the tracer's totals and counts.

    ``untraced_s``/``traced_s`` are the wall times of the same operations
    without and with tracing, as the benchmark measured them around each
    call; the residual is the part of ``traced_s`` no top-level span
    covers. Installing the tracer in a CLI child (its ``trace.install``
    span) is neither covered work nor overhead of the traced calls: it
    is taken out of both.
    """
    def total(name: str) -> float:
        return tr.totals[name][0] if name in tr.totals else 0.0

    def own(name: str) -> float:
        return tr.totals[name][1] if name in tr.totals else 0.0

    def calls(name: str) -> float:
        return tr.totals[name][2] if name in tr.totals else 0

    counts = tr.counts
    blocks_total = counts.get("splitter.blocks_total", 0.0)
    executor_s = total("executor")
    builds = calls("index.build")
    install_s = total("trace.install")
    covered_s, traced_s = tr.top_s - install_s, traced_s - install_s
    values: Dict[str, float] = {
        "import.s": total("import"),
        "workspace.load_s": total("workspace.load"),
        "workspace.save_s": total("workspace.save"),
        "workspace.bytes": counts.get("workspace.bytes", 0.0),
        "operations.self_s": sum(own(span) for span in set(FACADE.values())),
        "splitter.s": total("splitter"),
        "splitter.blocks_total": blocks_total,
        "splitter.blocks_read": counts.get("splitter.blocks_read", 0.0),
        "splitter.prune_ratio": (
            1.0 - counts.get("splitter.blocks_read", 0.0) / blocks_total
            if blocks_total else 0.0
        ),
        "runtime.self_s": own("runtime"),
        "executor.s": executor_s,
        "executor.calls": calls("executor"),
        "executor.task_s": counts.get("executor.task_s", 0.0),
        "executor.task_share": (
            counts.get("executor.task_s", 0.0) / executor_s if executor_s else 0.0
        ),
        "fs.write_s": total("fs.write"),
        "fs.read_verify_s": total("fs.read_verify"),
        "fs.blocks_verified": calls("fs.read_verify"),
        "wkt.parse_s": total("wkt.parse"),
        "wkt.records": calls("wkt.parse"),
        "index.build_s": total("index.build"),
        "index.builds": builds,
        "index.replication": (
            counts.get("index.replication_sum", 0.0) / builds if builds else 0.0
        ),
        "rtree.build_s": total("rtree.build"),
        "rtree.search_calls": calls("rtree.search"),
        "rtree.search_s": total("rtree.search"),
        "kernel.calls": calls("kernel"),
        "kernel.s": total("kernel"),
        "observe.history_s": total("observe.history"),
        "observe.history_records": calls("observe.history"),
        "serve.self_s": total("serve.query") - total("serve.execute"),
        "serve.plan_s": total("serve.plan"),
        "serve.cache_hit_ratio": (
            counts["serve.cache_hits"] / counts["serve.cache_lookups"]
            if counts.get("serve.cache_lookups") else 0.0
        ),
        "serve.requests": calls("serve.query"),
        "trace.residual_frac": (
            1.0 - covered_s / traced_s if traced_s else 0.0
        ),
        "trace.overhead_frac": traced_s / untraced_s - 1.0 if untraced_s else 0.0,
    }
    for op in ("range", "knn", "count", "join"):
        values[f"operations.{op}_s"] = total(f"operations.{op}")
        values[f"operations.{op}.calls"] = calls(f"operations.{op}")
    for name, unit in PER_LAYER:
        if name not in values:
            values[name] = counts.get(name, 0.0)
    return {
        name: {"value": float(values[name]), "unit": unit}
        for name, unit in PER_LAYER
    }
