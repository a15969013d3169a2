"""Seeded inputs and the NumPy references every answer is checked against.

All data lives in the square ``[0, SPACE]^2``. The program receives only
the generated records, windows and points; the references are computed
here, untimed, by brute force over the same float64 values, with the
program's closed semantics (boundary points are inside a window,
touching rectangles intersect).
"""

from __future__ import annotations

import math
from typing import Any, List, Sequence, Tuple

import numpy as np

SPACE = 1_000_000.0
#: Rectangles are 100..2000 units on a side (join inputs).
RECT_MIN, RECT_MAX = 100.0, 2000.0


def points(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform points as an ``(n, 2)`` float64 array."""
    return rng.uniform(0.0, SPACE, size=(n, 2))


def rectangles(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` uniform rectangles as an ``(n, 4)`` array of x1, y1, x2, y2."""
    lo = rng.uniform(0.0, SPACE - RECT_MAX, size=(n, 2))
    size = rng.uniform(RECT_MIN, RECT_MAX, size=(n, 2))
    return np.hstack([lo, lo + size])


def window(rng: np.random.Generator, selectivity: float) -> Tuple[float, ...]:
    """A square window covering ``selectivity`` of the space."""
    side = SPACE * math.sqrt(selectivity)
    x = float(rng.uniform(0.0, SPACE - side))
    y = float(rng.uniform(0.0, SPACE - side))
    return (x, y, x + side, y + side)


def query_point(rng: np.random.Generator) -> Tuple[float, float]:
    x, y = rng.uniform(0.0, SPACE, size=2)
    return (float(x), float(y))


def wkt_points(xy: np.ndarray) -> List[str]:
    """Points as WKT text; ``repr`` of a float round-trips exactly."""
    return [f"POINT ({x!r} {y!r})" for x, y in xy.tolist()]


def as_points(xy: np.ndarray) -> List[Any]:
    from repro.geometry import Point

    return [Point(x, y) for x, y in xy.tolist()]


def as_rectangles(r: np.ndarray) -> List[Any]:
    from repro.geometry import Rectangle

    return [Rectangle(*row) for row in r.tolist()]


# -- references ---------------------------------------------------------------
def in_window(xy: np.ndarray, w: Sequence[float]) -> np.ndarray:
    x, y = xy[:, 0], xy[:, 1]
    return (x >= w[0]) & (x <= w[2]) & (y >= w[1]) & (y <= w[3])


def sorted_rows(a: np.ndarray) -> np.ndarray:
    """Rows of ``a`` in lexicographic order (for multiset comparison)."""
    if len(a) == 0:
        return a.reshape(0, a.shape[1] if a.ndim == 2 else 2)
    return a[np.lexsort(a.T[::-1])]


def knn_distances(xy: np.ndarray, p: Sequence[float], k: int) -> np.ndarray:
    """The ``k`` smallest distances from ``p``, ascending."""
    d = np.sqrt((xy[:, 0] - p[0]) ** 2 + (xy[:, 1] - p[1]) ** 2)
    k = min(k, len(d))
    return np.sort(np.partition(d, k - 1)[:k])


def join_pairs(a: np.ndarray, b: np.ndarray, chunk: int = 1024) -> int:
    """Number of intersecting (a, b) rectangle pairs, closed semantics.

    Sweeps ``a`` in x-sorted chunks; for each chunk only the ``b``
    rectangles whose x1 can reach it (b sorted by x1, widths bounded by
    the widest b) are compared, densely.
    """
    a = a[np.argsort(a[:, 0], kind="stable")]
    b = b[np.argsort(b[:, 0], kind="stable")]
    widest = float((b[:, 2] - b[:, 0]).max()) if len(b) else 0.0
    total = 0
    for start in range(0, len(a), chunk):
        ac = a[start:start + chunk]
        lo = np.searchsorted(b[:, 0], ac[:, 0].min() - widest, side="left")
        hi = np.searchsorted(b[:, 0], ac[:, 2].max(), side="right")
        bc = b[lo:hi]
        hit = (
            (ac[:, 0:1] <= bc[:, 2]) & (bc[:, 0] <= ac[:, 2:3])
            & (ac[:, 1:2] <= bc[:, 3]) & (bc[:, 1] <= ac[:, 3:4])
        )
        total += int(hit.sum())
    return total


# -- answer checks --------------------------------------------------------------
def coords_of(records: Sequence[Any]) -> np.ndarray:
    return np.array([(r.x, r.y) for r in records], dtype=float).reshape(-1, 2)


def check_range(answer: Any, xy: np.ndarray, w: Sequence[float]) -> bool:
    """Exactly the points inside ``w``, each once."""
    expected = xy[in_window(xy, w)]
    if len(answer) != len(expected):
        return False
    return bool(np.array_equal(sorted_rows(coords_of(answer)), sorted_rows(expected)))


def check_count(answer: Any, xy: np.ndarray, w: Sequence[float]) -> bool:
    return isinstance(answer, int) and answer == int(in_window(xy, w).sum())


def check_knn(answer: Any, xy: np.ndarray, p: Sequence[float], k: int) -> bool:
    """The k nearest distances; any member of a tie at the k-th is fine.

    Each returned record must lie at its reported distance, the records
    must be distinct, and the sorted distances must equal the brute-force
    k smallest (to a relative 1e-9, for differing float evaluation order).
    """
    expected = knn_distances(xy, p, k)
    if len(answer) != len(expected):
        return False
    reported = np.array([d for d, _ in answer], dtype=float)
    pts = coords_of([r for _, r in answer])
    actual = np.sqrt((pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2)
    tol = 1e-9 * max(1.0, float(expected[-1]))
    return (
        len({(x, y) for x, y in pts.tolist()}) == len(pts)
        and bool(np.all(np.abs(reported - actual) <= tol))
        and bool(np.all(np.abs(np.sort(reported) - expected) <= tol))
    )
