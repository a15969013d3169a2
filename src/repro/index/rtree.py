"""An in-memory STR-packed R-tree, stored as flat columns.

This is the *local index* SpatialHadoop stores inside every block: it is
bulk-loaded once when the partition is written and then answers range and
k-nearest-neighbour queries over the partition's records without scanning
them all. The same structure indexes global-index cells in the distributed
join.

The tree is static (bulk-load only), which matches how SpatialHadoop uses
local indexes — blocks are immutable once written.

Layout
------
The tree is arrays, not an object graph:

* **entries** — MBR columns ``x1, y1, x2, y2`` (float64) plus the record
  list, all in *emission order*: the order :meth:`RTree.all_entries` and
  :meth:`RTree.search` report entries in (a depth-first walk visiting a
  node's children last to first and a leaf's entries first to last);
* **nodes** — MBR columns plus ``[start, end)`` ranges, numbered level by
  level from the root. A node's children are consecutive, in STR order;
  a leaf's range indexes the entry columns, an inner node's the node
  arrays.

A range query is one batch mask over the entry columns; kNN walks the
node arrays best-first. Queries can answer with records straight from
the record list (``records=True``, what the operations use); the
:class:`RTreeEntry` objects are built once per tree, by the first call
that returns entries. A pickle carries the raw column bytes, the int
ranges and the record list — inside a workspace the records are
pickle-memo references to the block's own record objects.
"""

from __future__ import annotations

import heapq
import itertools
import math
import zlib
from dataclasses import dataclass
from typing import Any, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Point, Rectangle, vectorized
from repro.index.partitioners.base import shape_mbr

DEFAULT_NODE_CAPACITY = 32

#: Trees smaller than this stay on the scalar paths: the batch kernels'
#: fixed setup cost is not worth it for a handful of entries.
_VECTOR_MIN_ENTRIES = 4

_FLOAT_SIZE = 8

_profiler = None


def _phase(name: str):
    """Profiler phase scope, lazily bound (cycle: observe -> mapreduce)."""
    global _profiler
    if _profiler is None:
        from repro.observe import profile

        _profiler = profile
    return _profiler.phase(name)


@dataclass(frozen=True)
class RTreeEntry:
    """One indexed record: its MBR plus the record itself."""

    mbr: Rectangle
    record: Any


def _map_columns(fn, cols) -> tuple:
    """``fn`` over four MBR columns, keeping a shared x/y pair shared."""
    x1, y1 = fn(cols[0]), fn(cols[1])
    if cols[2] is cols[0] and cols[3] is cols[1]:  # point MBRs
        return (x1, y1, x1, y1)
    return (x1, y1, fn(cols[2]), fn(cols[3]))


def _str_order(cx, cy, capacity: int) -> Tuple[np.ndarray, List[int]]:
    """Sort-Tile-Recursive grouping of items ``0..n-1`` by their centres.

    Returns ``(order, bounds)``: group ``g`` is ``order[bounds[g]:
    bounds[g + 1]]``. Items are sorted by centre x, cut into vertical
    slices, each slice sorted by centre y and cut into runs of
    ``capacity``; both sorts are stable.
    """
    n = len(cx)
    num_groups = math.ceil(n / capacity)
    num_slices = math.ceil(math.sqrt(num_groups))
    per_slice = math.ceil(n / num_slices)
    by_x = np.argsort(cx, kind="stable")
    pieces = []
    bounds = [0]
    for s in range(0, n, per_slice):
        end = min(s + per_slice, n)
        piece = by_x[s:end]
        pieces.append(piece[np.argsort(cy[piece], kind="stable")])
        bounds.extend(range(s + capacity, end, capacity))
        bounds.append(end)
    return np.concatenate(pieces), bounds


class RTree:
    """Static STR-bulk-loaded R-tree over ``(mbr, record)`` entries.

    Build from :class:`RTreeEntry` objects, or with :meth:`from_shapes`
    from records that carry their own ``.mbr``.
    """

    def __init__(
        self,
        entries: Sequence[RTreeEntry] = (),
        node_capacity: int = DEFAULT_NODE_CAPACITY,
        *,
        shapes: Optional[Sequence[Any]] = None,
    ):
        if node_capacity < 2:
            raise ValueError("node capacity must be at least 2")
        self.node_capacity = node_capacity
        if shapes is not None:
            records = list(shapes)
            kinds = set(map(type, records))
            if kinds == {Point}:
                # Degenerate MBRs: one column pair serves both corners.
                xs = [p.x for p in records]
                ys = [p.y for p in records]
                cols = (xs, ys, xs, ys)
            else:
                mbrs = [shape_mbr(r) for r in records]
                cols = self._mbr_columns(mbrs)
            given = None
        else:
            given = list(entries)
            records = [e.record for e in given]
            cols = self._mbr_columns([e.mbr for e in given])
        self._bulk_load(records, cols, given)

    @classmethod
    def from_shapes(
        cls,
        shapes: Sequence[Any],
        node_capacity: int = DEFAULT_NODE_CAPACITY,
    ) -> "RTree":
        """Index shapes directly (each shape must expose ``.mbr``)."""
        return cls(node_capacity=node_capacity, shapes=shapes)

    @staticmethod
    def _mbr_columns(mbrs: List[Rectangle]):
        return (
            [m.x1 for m in mbrs],
            [m.y1 for m in mbrs],
            [m.x2 for m in mbrs],
            [m.y2 for m in mbrs],
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _bulk_load(self, records, cols, given) -> None:
        n = len(records)
        self._size = n
        self._entries = None
        if n == 0:
            self._records = []
            self._cols = tuple(np.empty(0) for _ in range(4))
            self._node_cols = tuple(np.empty(0) for _ in range(4))
            self._starts: List[int] = []
            self._ends: List[int] = []
            self._first_leaf = 0
            self._depth = 0
            return
        cols = _map_columns(lambda c: np.asarray(c, dtype=np.float64), cols)

        # Bottom-up: grouping j packs the level-(j-1) nodes (the entries,
        # for j == 0) into level-j nodes, whose MBRs are in construction
        # order. The last level has a single node, the root.
        groupings = []
        level_mbrs = []
        mbrs = cols
        while True:
            # Centres round like Rectangle.center: (lo + hi) / 2.0.
            order, bounds = _str_order(
                (mbrs[0] + mbrs[2]) / 2.0,
                (mbrs[1] + mbrs[3]) / 2.0,
                self.node_capacity,
            )
            groupings.append((order, bounds))
            starts_at = np.asarray(bounds[:-1], dtype=np.intp)
            mbrs = tuple(
                (np.minimum if i < 2 else np.maximum).reduceat(c[order], starts_at)
                for i, c in enumerate(mbrs)
            )
            level_mbrs.append(mbrs)
            if len(bounds) == 2:
                break

        # Top-down: number the nodes level by level from the root, each
        # parent's children consecutive and in STR order.
        depth = len(groupings)
        stored = [[0]]  # per level, root first: construction indices
        for j in range(depth - 1, 0, -1):
            order, bounds = groupings[j]
            order = order.tolist()
            stored.append(
                [c for p in stored[-1] for c in order[bounds[p]:bounds[p + 1]]]
            )
        offsets = list(itertools.accumulate([0] + [len(s) for s in stored]))
        first_leaf = offsets[-2]
        starts: List[int] = []
        ends: List[int] = []
        for lvl in range(depth - 1):
            _order, bounds = groupings[depth - 1 - lvl]
            cursor = offsets[lvl + 1]
            for p in stored[lvl]:
                starts.append(cursor)
                cursor += bounds[p + 1] - bounds[p]
                ends.append(cursor)

        # Leaves take their entries in emission order: the depth-first
        # walk all_entries() and search() have always reported.
        leaf_order, leaf_bounds = groupings[0]
        leaf_order = leaf_order.tolist()
        leaf_of = stored[-1]
        num_nodes = offsets[-1]
        starts.extend([0] * (num_nodes - first_leaf))
        ends.extend([0] * (num_nodes - first_leaf))
        perm: List[int] = []
        stack = [0]
        while stack:
            i = stack.pop()
            if i < first_leaf:
                stack.extend(range(starts[i], ends[i]))
                continue
            g = leaf_of[i - first_leaf]
            starts[i] = len(perm)
            perm.extend(leaf_order[leaf_bounds[g]:leaf_bounds[g + 1]])
            ends[i] = len(perm)

        self._records = [records[i] for i in perm]
        if given is not None:
            self._entries = [given[i] for i in perm]
        self._cols = _map_columns(lambda c: c[perm], cols)
        self._node_cols = tuple(
            np.concatenate(
                [
                    mbrs[axis][level]
                    for mbrs, level in zip(reversed(level_mbrs), stored)
                ]
            )
            for axis in range(4)
        )
        self._starts = starts
        self._ends = ends
        self._first_leaf = first_leaf
        self._depth = depth

    # ------------------------------------------------------------------
    # Pickling: raw column bytes, int ranges and records — no objects
    # ------------------------------------------------------------------
    def _node_bytes(self) -> bytes:
        return b"".join(c.tobytes() for c in self._node_cols) + np.array(
            self._starts + self._ends, dtype=np.int64
        ).tobytes()

    def __reduce__(self):
        x1, y1, x2, y2 = self._cols
        # Point trees ship one coordinate pair: x2/y2 repeat x1/y1.
        degenerate = (
            x1.tobytes() == x2.tobytes() and y1.tobytes() == y2.tobytes()
        )
        entry_cols = (x1, y1) if degenerate else self._cols
        return (
            RTree._from_portable,
            (
                self.node_capacity,
                self._size,
                self._first_leaf,
                self._depth,
                degenerate,
                b"".join(c.tobytes() for c in entry_cols),
                self._node_bytes(),
                self._records,
            ),
        )

    @classmethod
    def _from_portable(
        cls,
        node_capacity: int,
        size: int,
        first_leaf: int,
        depth: int,
        degenerate: bool,
        entry_raw: bytes,
        node_raw: bytes,
        records: List[Any],
    ) -> "RTree":
        tree = cls.__new__(cls)
        tree.node_capacity = node_capacity
        tree._size = size
        tree._first_leaf = first_leaf
        tree._depth = depth
        tree._records = records
        tree._entries = None
        cols = _columns_from(entry_raw, size, 2 if degenerate else 4)
        tree._cols = cols + cols if degenerate else cols
        num_nodes = len(node_raw) // (6 * _FLOAT_SIZE)
        tree._node_cols = _columns_from(
            node_raw[: 4 * num_nodes * _FLOAT_SIZE], num_nodes, 4
        )
        ints = np.frombuffer(
            node_raw, dtype=np.int64, offset=4 * num_nodes * _FLOAT_SIZE
        ).tolist()
        tree._starts = ints[:num_nodes]
        tree._ends = ints[num_nodes:]
        return tree

    def checksum(self) -> int:
        """CRC-32 over a shape header plus the column and structure bytes."""
        header = f"rtree:{self.node_capacity}:{self._size}:{self._first_leaf}"
        crc = zlib.crc32(header.encode("ascii"))
        for col in self._cols:
            crc = zlib.crc32(col.tobytes(), crc)
        return zlib.crc32(self._node_bytes(), crc)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    @property
    def mbr(self) -> Optional[Rectangle]:
        return self._node_rect(0) if self._size else None

    def _node_rect(self, i: int) -> Rectangle:
        x1, y1, x2, y2 = self._node_cols
        return Rectangle(float(x1[i]), float(y1[i]), float(x2[i]), float(y2[i]))

    def _entry_list(self) -> List[RTreeEntry]:
        """Every entry in emission order, built by the first call that
        returns entries (``records=True`` queries never do)."""
        entries = self._entries
        if entries is None:
            x1s, y1s, x2s, y2s = (c.tolist() for c in self._cols)
            entries = self._entries = [
                RTreeEntry(Rectangle(a, b, c, d), r)
                for a, b, c, d, r in zip(x1s, y1s, x2s, y2s, self._records)
            ]
        return entries

    def search(self, rect: Rectangle, records: bool = False) -> List[Any]:
        """All entries whose MBR intersects ``rect`` (their records when
        ``records`` is set, answered from the record list directly).

        The vectorized path masks the entry columns in one pass; the
        scalar oracle walks the node ranges. Pruning a subtree removes a
        run of the emission order and never reorders the survivors, so
        both return the same list element for element.
        """
        if self._size == 0:
            return []
        with _phase("rtree-probe"):
            if vectorized.enabled() and self._size >= _VECTOR_MIN_ENTRIES:
                hits = vectorized.rects_intersect(*self._cols, rect)
                source = self._records if records else self._entry_list()
                return [source[i] for i in hits]
            entries = self._entry_list()
            starts, ends, first_leaf = self._starts, self._ends, self._first_leaf
            out: List[RTreeEntry] = []
            stack = [0]
            while stack:
                i = stack.pop()
                if not self._node_rect(i).intersects(rect):
                    continue
                if i >= first_leaf:
                    out.extend(
                        e
                        for e in entries[starts[i]:ends[i]]
                        if e.mbr.intersects(rect)
                    )
                else:
                    stack.extend(range(starts[i], ends[i]))
            return [e.record for e in out] if records else out

    def all_entries(self) -> Iterator[RTreeEntry]:
        return iter(self._entry_list() if self._size else ())

    def knn(
        self, query: Point, k: int, records: bool = False
    ) -> List[Tuple[float, Any]]:
        """The ``k`` entries nearest to ``query`` as ``(distance, entry)``
        (``(distance, record)`` when ``records`` is set).

        Best-first search over the node ranges using MBR minimum
        distances; exact for point records and MBR-distance-based for
        extended shapes, which is the contract SpatialHadoop's kNN uses.
        Equal distances pop in push order (children and entries are
        pushed in stored order). Returns fewer than ``k`` items when the
        tree is smaller than ``k``.

        Candidates are *ranked* by squared distance (identical rounding
        between the scalar and batch kernels, see
        :mod:`repro.geometry.vectorized`); the distances in the returned
        pairs are true distances, recomputed on the winners only.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        if self._size == 0:
            return []
        use_vec = vectorized.enabled() and self._size >= _VECTOR_MIN_ENTRIES
        entries = None if use_vec else self._entry_list()
        starts, ends, first_leaf = self._starts, self._ends, self._first_leaf
        counter = itertools.count()  # tie-breaker: heap entries stay comparable
        heap: List[Tuple[float, int, bool, int]] = [
            (self._node_rect(0).min_distance_sq_point(query), next(counter), False, 0)
        ]
        winners: List[int] = []
        while heap and len(winners) < k:
            _dsq, _, is_entry, i = heapq.heappop(heap)
            if is_entry:
                winners.append(i)
                continue
            lo, hi = starts[i], ends[i]
            is_leaf = i >= first_leaf
            if use_vec:
                x1s, y1s, x2s, y2s = self._cols if is_leaf else self._node_cols
                dsqs = vectorized.rect_min_distance_sq(
                    x1s[lo:hi], y1s[lo:hi], x2s[lo:hi], y2s[lo:hi],
                    query.x, query.y,
                ).tolist()
            elif is_leaf:
                dsqs = [e.mbr.min_distance_sq_point(query) for e in entries[lo:hi]]
            else:
                dsqs = [
                    self._node_rect(j).min_distance_sq_point(query)
                    for j in range(lo, hi)
                ]
            for j, dsq in enumerate(dsqs, lo):
                heapq.heappush(heap, (dsq, next(counter), is_leaf, j))
        if records and use_vec:
            # Rectangle.min_distance_point's arithmetic on the winners'
            # column values, without building their entries.
            qx, qy = query.x, query.y
            recs = self._records
            x1s, y1s, x2s, y2s = (c[winners].tolist() for c in self._cols)
            return [
                (math.hypot(max(a - qx, 0.0, qx - c), max(b - qy, 0.0, qy - d)), recs[i])
                for i, a, b, c, d in zip(winners, x1s, y1s, x2s, y2s)
            ]
        entries = self._entry_list()
        pairs = [(entries[i].mbr.min_distance_point(query), entries[i]) for i in winners]
        return [(d, e.record) for d, e in pairs] if records else pairs

    def depth(self) -> int:
        """Height of the tree (0 for an empty tree, 1 for a single leaf)."""
        return self._depth


def _columns_from(raw: bytes, count: int, ncols: int) -> tuple:
    """``ncols`` consecutive float64 columns of ``count`` values each."""
    width = count * _FLOAT_SIZE
    return tuple(
        np.frombuffer(raw, dtype=np.float64, count=count, offset=i * width)
        for i in range(ncols)
    )
