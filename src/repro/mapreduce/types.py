"""Shared datatypes of the MapReduce runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.mapreduce.fs import Block


@dataclass(frozen=True)
class InputSplit:
    """The unit of work of one map task.

    ``key`` is what the map function receives as its input key. The default
    splitter passes the block index; SpatialHadoop's splitter passes the
    partition cell (an MBR) so map functions can implement per-partition
    pruning rules, exactly as in the paper's pseudo-code (``MAP(k: Rectangle,
    ...)``).
    """

    file: str
    block_index: int
    block: Block
    key: Any = None

    @property
    def metadata(self) -> Dict[str, Any]:
        return self.block.metadata

    @property
    def cell(self) -> Optional[Any]:
        """The partition MBR for spatially partitioned files, else None."""
        return self.block.metadata.get("cell")


@dataclass
class TaskResult:
    """What one successful map or reduce task attempt reports back.

    Map and reduce tasks report the same things, as Hadoop tasks do:
    their counters, records in, the ``(key, value)`` pairs they emitted,
    the records they wrote straight to the job output, and their CPU
    charge. ``events`` are the task's trace events and log records
    (plain dicts, so they cross process boundaries); ``phases`` is its
    profiled phase attribution (empty unless the job is profiled).
    """

    task_id: str
    records_in: int
    counters: Dict[str, int]
    emitted: List[Tuple[Any, Any]]
    output: List[Any]
    seconds: float
    events: List[Dict[str, Any]]
    phases: Dict[str, Any]
