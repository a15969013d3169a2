"""The global index: the partition catalogue of an indexed file.

The global index is what SpatialHadoop's master node keeps: one entry per
partition recording its id, its boundary rectangle and how many records it
holds. The SpatialFileSplitter evaluates filter functions against it, and
several operations (kNN, distributed join, farthest pair) reason about
partition MBRs through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional

from repro.geometry import Point, Rectangle


@dataclass(frozen=True)
class Cell:
    """One global-index entry (one partition == one HDFS block).

    ``mbr`` is the partition boundary used for pruning and duplicate
    avoidance: the half-open tiling rectangle for disjoint techniques, the
    tight contents MBR for overlapping ones. ``content_mbr`` is always the
    *tight* (minimal) MBR of the records actually stored — the filter rules
    of skyline, convex hull and farthest pair rely on its minimality.
    """

    cell_id: int
    mbr: Rectangle
    num_records: int = 0
    content_mbr: Optional[Rectangle] = None

    @property
    def tight_mbr(self) -> Rectangle:
        """The minimal contents MBR (falls back to the boundary MBR)."""
        return self.content_mbr if self.content_mbr is not None else self.mbr

    def __str__(self) -> str:
        return f"Cell#{self.cell_id} {self.mbr} ({self.num_records} recs)"


@dataclass
class GlobalIndex:
    """The set of partitions of a spatially indexed file."""

    cells: List[Cell]
    technique: str = "unknown"
    disjoint: bool = False
    _by_id: dict = field(init=False, repr=False)
    #: sFilter-style presence bitmap: rejects query regions that touch no
    #: cell MBR before the cell list is walked (None for empty indexes).
    presence: object = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "_by_id", {cell.cell_id: cell for cell in self.cells}
        )
        if len(self._by_id) != len(self.cells):
            raise ValueError("duplicate cell ids in global index")
        from repro.index.sfilter import PresenceFilter

        object.__setattr__(
            self, "presence", PresenceFilter.build(self.cells)
        )

    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Cell]:
        return iter(self.cells)

    def __len__(self) -> int:
        return len(self.cells)

    def cell(self, cell_id: int) -> Cell:
        return self._by_id[cell_id]

    @property
    def mbr(self) -> Rectangle:
        """Boundary of the whole file."""
        if not self.cells:
            raise ValueError("empty global index has no MBR")
        mbr = self.cells[0].mbr
        for cell in self.cells[1:]:
            mbr = mbr.union(cell.mbr)
        return mbr

    @property
    def total_records(self) -> int:
        return sum(c.num_records for c in self.cells)

    # ------------------------------------------------------------------
    # Lookups used by filter functions and operations
    # ------------------------------------------------------------------
    def overlapping(self, rect: Rectangle) -> List[Cell]:
        """Cells whose MBR intersects ``rect`` (closed semantics)."""
        # Presence pre-filter: every cell's MBR is rasterized into the
        # bitmap, so a negative answer is exact ([] either way) and the
        # result cannot depend on whether the bitmap exists (an empty
        # index has none).
        presence = self.presence
        if presence is not None and not presence.may_overlap(rect):
            return []
        return [c for c in self.cells if c.mbr.intersects(rect)]

    def containing(self, point: Point) -> List[Cell]:
        """Cells whose MBR contains ``point``."""
        return [c for c in self.cells if c.mbr.contains_point(point)]

    def nearest_cell(self, point: Point) -> Optional[Cell]:
        """The non-empty cell with minimum MBR distance to ``point``.

        Used by the kNN operation to pick the partition to inspect first.
        Empty cells can never contribute an answer and are skipped.
        """
        candidates = [c for c in self.cells if c.num_records > 0]
        if not candidates:
            return None
        return min(
            candidates,
            key=lambda c: (c.mbr.min_distance_point(point), c.cell_id),
        )
