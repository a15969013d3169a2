"""Columnar payloads for sealed blocks.

A sealed block whose records are homogeneously :class:`Point` or
:class:`Rectangle` gets a :class:`ColumnarPayload`: the coordinates
transposed into flat float64 columns (NumPy arrays when available,
``array('d')`` otherwise). The payload serves three masters:

* **Batch kernels** — ``repro.geometry.vectorized`` filters a whole block
  with one mask instead of one Python call per record.
* **Durability** — :func:`block_payload_checksum` CRCs the raw column
  bytes (with a small header), so checksums cover the columnar bytes
  directly and are independent of pickle details *and* of which backend
  built the columns (both produce the same native float64 bytes).
* **Zero-copy dispatch** — ``repro.mapreduce.shm`` writes the columns
  into a shared-memory arena with :meth:`ColumnarPayload.write_into` and
  reconstructs zero-copy views in workers with
  :meth:`ColumnarPayload.from_buffer`.

Blocks with mixed or exotic record types simply get no payload
(:func:`ColumnarPayload.from_records` returns None) and every consumer
falls back to the scalar path.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Any, List, Optional, Sequence, Tuple

from repro.geometry import vectorized
from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle

try:
    import numpy as _np
except Exception:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Column names per payload kind, in buffer order.
KIND_COLUMNS = {
    "point": ("x", "y"),
    "rect": ("x1", "y1", "x2", "y2"),
}

_FLOAT_SIZE = 8

_column_from_iter = vectorized.column_from_iter

_profiler = None


def _phase(name: str):
    """Profiler phase scope, lazily bound.

    ``repro.observe.profile`` cannot be imported at module top: this
    module is reached from ``repro.mapreduce.__init__``, and the observe
    package initializer imports back into mapreduce. The profiler scope
    is a no-op unless a profiled task is in flight.
    """
    global _profiler
    if _profiler is None:
        from repro.observe import profile

        _profiler = profile
    return _profiler.phase(name)


class ColumnarPayload:
    """Flat float64 columns for one block's records.

    ``kind`` is ``"point"`` (columns x, y) or ``"rect"`` (columns x1, y1,
    x2, y2); ``count`` is the record count. Columns may be owned
    (``array('d')``/ndarray) or zero-copy views over an external buffer
    such as a shared-memory segment.
    """

    __slots__ = ("kind", "count", "columns")

    def __init__(self, kind: str, count: int, columns: Tuple[Any, ...]):
        self.kind = kind
        self.count = count
        self.columns = columns

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[Any]) -> Optional["ColumnarPayload"]:
        """Transpose a homogeneous Point/Rectangle list; None otherwise.

        Exact type checks (no subclasses): a subclass could carry extra
        state the columns would silently drop.
        """
        n = len(records)
        if n == 0:
            return None
        # One C-speed pass for the homogeneity check (set(map(type, ..))
        # beats a genexpr any() several-fold on large lists), then one
        # listcomp per column — generator feeding costs a frame switch
        # per item, which dominates at bulk sizes.
        kinds = set(map(type, records))
        if kinds == {Point}:
            xs = _column_from_iter([r.x for r in records], n)
            ys = _column_from_iter([r.y for r in records], n)
            return cls("point", n, (xs, ys))
        if kinds == {Rectangle}:
            return cls(
                "rect",
                n,
                (
                    _column_from_iter([r.x1 for r in records], n),
                    _column_from_iter([r.y1 for r in records], n),
                    _column_from_iter([r.x2 for r in records], n),
                    _column_from_iter([r.y2 for r in records], n),
                ),
            )
        return None

    @classmethod
    def from_buffer(
        cls, kind: str, count: int, buf, offset: int = 0
    ) -> "ColumnarPayload":
        """Zero-copy payload over ``buf`` (columns laid out consecutively)."""
        ncols = len(KIND_COLUMNS[kind])
        if _np is not None:
            cols = tuple(
                _np.frombuffer(
                    buf,
                    dtype=_np.float64,
                    count=count,
                    offset=offset + i * count * _FLOAT_SIZE,
                )
                for i in range(ncols)
            )
        else:
            view = memoryview(buf)
            cols = tuple(
                view[
                    offset + i * count * _FLOAT_SIZE:
                    offset + (i + 1) * count * _FLOAT_SIZE
                ].cast("d")
                for i in range(ncols)
            )
        return cls(kind, count, cols)

    @classmethod
    def _from_portable(
        cls, kind: str, count: int, raw: bytes
    ) -> "ColumnarPayload":
        payload = cls.from_buffer(kind, count, raw)
        # Rehydrate into owned columns so the pickled copy does not pin
        # the transport bytes (and stays writable-agnostic).
        if _np is not None:
            payload.columns = tuple(c.copy() for c in payload.columns)
        else:
            payload.columns = tuple(array("d", c) for c in payload.columns)
        return payload

    def __reduce__(self):
        # Portable pickle: raw bytes, independent of the column backend.
        return (
            ColumnarPayload._from_portable,
            (self.kind, self.count, self.tobytes()),
        )

    # ------------------------------------------------------------------
    # Bytes / durability
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        return self.count * _FLOAT_SIZE * len(self.columns)

    def tobytes(self) -> bytes:
        return b"".join(self._column_bytes(c) for c in self.columns)

    @staticmethod
    def _column_bytes(col) -> bytes:
        if _np is not None and isinstance(col, _np.ndarray):
            return col.tobytes()
        if isinstance(col, memoryview):
            return col.tobytes()
        return col.tobytes()

    def checksum(self) -> int:
        """CRC-32 over a kind/count header plus the raw column bytes."""
        crc = zlib.crc32(f"{self.kind}:{self.count}".encode("ascii"))
        for col in self.columns:
            crc = zlib.crc32(self._column_bytes(col), crc)
        return crc

    def write_into(self, buf, offset: int = 0) -> int:
        """Copy the columns into ``buf`` consecutively; returns end offset."""
        view = memoryview(buf)
        for col in self.columns:
            raw = self._column_bytes(col)
            view[offset:offset + len(raw)] = raw
            offset += len(raw)
        return offset

    # ------------------------------------------------------------------
    # Record views
    # ------------------------------------------------------------------
    def materialize(self) -> List[Any]:
        """Rebuild the record objects, in order.

        Coordinates go through ``float()`` so ndarray-backed columns
        yield plain-float records (``np.float64`` attributes would leak
        into answers and print differently than the scalar path).
        """
        with _phase("columnar-decode"):
            if self.kind == "point":
                xs, ys = self.columns
                return [
                    Point(float(xs[i]), float(ys[i]))
                    for i in range(self.count)
                ]
            x1s, y1s, x2s, y2s = self.columns
            return [
                Rectangle(
                    float(x1s[i]), float(y1s[i]), float(x2s[i]), float(y2s[i])
                )
                for i in range(self.count)
            ]

    # ------------------------------------------------------------------
    # Kernel dispatch
    # ------------------------------------------------------------------
    def indices_in(self, rect: Rectangle) -> List[int]:
        """Record indices whose shape MBR intersects ``rect``, in order."""
        with _phase("kernel"):
            if self.kind == "point":
                xs, ys = self.columns
                return vectorized.points_in_rect(xs, ys, rect)
            return vectorized.rects_intersect(*self.columns, rect)

    def indices_owned_in(self, rect: Rectangle, cell: Rectangle) -> List[int]:
        """Like :meth:`indices_in` plus reference-point dedup vs ``cell``."""
        with _phase("kernel"):
            if self.kind == "point":
                xs, ys = self.columns
                return vectorized.points_in_rect_owned(xs, ys, rect, cell)
            return vectorized.rects_intersect_owned(*self.columns, rect, cell)

    def distance_sq_to(self, query: Point):
        """Squared distance from every record's MBR to ``query``."""
        with _phase("kernel"):
            if self.kind == "point":
                xs, ys = self.columns
                return vectorized.point_distance_sq(xs, ys, query.x, query.y)
            return vectorized.rect_min_distance_sq(
                *self.columns, query.x, query.y
            )


def payload_of(block, expected_count: Optional[int] = None):
    """The block's usable columnar payload, or None.

    None when the block has no payload (its records are not all points
    or all rectangles), when vectorization is disabled, or when the
    payload has gone stale relative to the record list it was sealed
    over.
    """
    payload = getattr(block, "columnar", None)
    if payload is None or not vectorized.enabled():
        return None
    if expected_count is not None and payload.count != expected_count:
        return None
    return payload


def block_payload_checksum(block) -> int:
    """The checksum a block's payload should carry.

    Columnarizable records are checksummed over their raw column bytes
    (rebuilt fresh, so in-place mutation is detected); everything else
    falls back to the pickle-based record checksum. Deliberately
    *independent* of ``REPRO_VECTORIZE``: a workspace sealed in one mode
    must pass fsck in the other.
    """
    from repro.mapreduce.storage import checksum_records

    payload = ColumnarPayload.from_records(block.records)
    if payload is not None:
        return payload.checksum()
    return checksum_records(block.records)
