"""Batch geometry kernels over flat coordinate arrays.

The scalar geometry layer evaluates one predicate per Python call; the hot
loops of range queries, joins and kNN evaluate the *same* predicate over
every record of a block. This module provides the batch counterparts —
range filter, MBR intersection, point-in-rect, squared distance — over
columnar coordinate buffers (``repro.mapreduce.columnar``): one NumPy
mask per block. The scalar oracle each kernel must match is the caller's
own ``REPRO_VECTORIZE=0`` loop.

Bit-identity contract
---------------------
Every kernel returns *exactly* what the scalar path returns, in the same
order. Two rules make this possible:

1. Kernels are built only from IEEE-exact operations — comparisons,
   ``max`` and elementwise ``+``/``-``/``*`` round identically in NumPy
   float64 and Python floats. No ``sqrt``/``hypot`` in any selection or
   ranking decision.
2. Selection kernels return *record indices in record order* (or rank by
   ``(distance², index)``), mirroring the scalar loop's iteration order,
   so output lists match element for element.

``math.hypot`` is **not** used here on purpose: it is correctly rounded
from the exact sum of squares and therefore does not always equal
``sqrt(dx*dx + dy*dy)`` computed in floats — ranking by hypot and by
``dx*dx + dy*dy`` can disagree on near-ties. All distance *ranking* in
the library therefore uses squared distances (both modes), and the
user-facing distance values are recomputed with scalar ``math.hypot`` on
the winners only.

The ``REPRO_VECTORIZE`` environment variable (default on) is read
dynamically on every call, so tests can flip modes without rebuilding
state; ``REPRO_VECTORIZE=0`` forces every caller back onto its scalar
oracle path.
"""

from __future__ import annotations

import os
from typing import List

import numpy as np

#: Environment toggle: "0"/"false"/"off" disables the vectorized paths.
VECTORIZE_ENV_VAR = "REPRO_VECTORIZE"

_OFF_VALUES = {"0", "false", "off", "no"}


def mode() -> str:
    """The active execution mode: ``"off"`` or ``"numpy"``."""
    raw = os.environ.get(VECTORIZE_ENV_VAR, "1").strip().lower()
    return "off" if raw in _OFF_VALUES else "numpy"


def enabled() -> bool:
    """True when vectorized fast paths should be used."""
    return mode() != "off"


def column_from_iter(values, count: int) -> np.ndarray:
    """Build one float64 column from ``count`` values."""
    return np.fromiter(values, dtype=np.float64, count=count)


# ----------------------------------------------------------------------
# Selection kernels (order-preserving index lists)
# ----------------------------------------------------------------------
def points_in_rect(xs, ys, rect) -> List[int]:
    """Indices ``i`` with ``rect.contains_point((xs[i], ys[i]))`` (closed)."""
    mask = (
        (xs >= rect.x1) & (xs <= rect.x2)
        & (ys >= rect.y1) & (ys <= rect.y2)
    )
    return np.flatnonzero(mask).tolist()


def rects_intersect(x1s, y1s, x2s, y2s, rect) -> List[int]:
    """Indices of rectangles intersecting ``rect`` (closed semantics)."""
    mask = (
        (x1s <= rect.x2) & (x2s >= rect.x1)
        & (y1s <= rect.y2) & (y2s >= rect.y1)
    )
    return np.flatnonzero(mask).tolist()


def points_in_rect_owned(xs, ys, rect, cell) -> List[int]:
    """Range filter + reference-point ownership for point records.

    The reference point of a point record is ``(max(x, rect.x1),
    max(y, rect.y1))``; ownership is the half-open containment test of
    :meth:`Rectangle.contains_point_left_inclusive` against ``cell``.
    """
    rx = np.maximum(xs, rect.x1)
    ry = np.maximum(ys, rect.y1)
    mask = (
        (xs >= rect.x1) & (xs <= rect.x2)
        & (ys >= rect.y1) & (ys <= rect.y2)
        & (rx >= cell.x1) & (rx < cell.x2)
        & (ry >= cell.y1) & (ry < cell.y2)
    )
    return np.flatnonzero(mask).tolist()


def rects_intersect_owned(x1s, y1s, x2s, y2s, rect, cell) -> List[int]:
    """Range filter + reference-point ownership for rectangle records."""
    rx = np.maximum(x1s, rect.x1)
    ry = np.maximum(y1s, rect.y1)
    mask = (
        (x1s <= rect.x2) & (x2s >= rect.x1)
        & (y1s <= rect.y2) & (y2s >= rect.y1)
        & (rx >= cell.x1) & (rx < cell.x2)
        & (ry >= cell.y1) & (ry < cell.y2)
    )
    return np.flatnonzero(mask).tolist()


# ----------------------------------------------------------------------
# Distance kernels (squared distances only: exact, rankable)
# ----------------------------------------------------------------------
def point_distance_sq(xs, ys, px: float, py: float) -> np.ndarray:
    """Squared distance from every ``(xs[i], ys[i])`` to ``(px, py)``.

    Elementwise ``dx*dx + dy*dy``: identical rounding to the scalar
    :meth:`Point.distance_sq` / degenerate-MBR distance.
    """
    dx = xs - px
    dy = ys - py
    return dx * dx + dy * dy


def rect_min_distance_sq(x1s, y1s, x2s, y2s, px: float, py: float) -> np.ndarray:
    """Squared minimum distance from ``(px, py)`` to every rectangle.

    Matches :meth:`Rectangle.min_distance_sq_point` exactly: the clamped
    axis gaps ``max(x1 - px, 0, px - x2)`` are computed with the same
    comparisons, and ``(-0.0)**2 == 0.0`` erases any signed-zero
    difference between ``max`` implementations.
    """
    dx = np.maximum(np.maximum(x1s - px, 0.0), px - x2s)
    dy = np.maximum(np.maximum(y1s - py, 0.0), py - y2s)
    return dx * dx + dy * dy


def topk_by_distance(dsq, k: int) -> List[int]:
    """Indices of the ``k`` smallest ``(dsq[i], i)`` pairs, in that order.

    Ties on the squared distance break by index — exactly the order a
    scalar loop that keeps the *first* seen of equal-distance records
    produces. A stable full argsort (not argpartition, whose tie handling
    is arbitrary) keeps the selected *set* deterministic.
    """
    if k <= 0:
        return []
    return np.argsort(dsq, kind="stable")[:k].tolist()
