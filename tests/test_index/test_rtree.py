"""Tests for the in-memory STR R-tree (the local index)."""

import contextlib
import heapq
import math
import os
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rectangle, vectorized
from repro.index import RTree, RTreeEntry

coords = st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
points = st.builds(Point, coords, coords)


def tree_of(pts, capacity=8):
    return RTree.from_shapes(pts, node_capacity=capacity)


class TestConstruction:
    def test_empty(self):
        t = RTree([])
        assert len(t) == 0
        assert t.mbr is None
        assert t.search(Rectangle(0, 0, 1, 1)) == []
        assert t.knn(Point(0, 0), 3) == []
        assert t.depth() == 0

    def test_single(self):
        t = tree_of([Point(1, 2)])
        assert len(t) == 1
        assert t.mbr == Rectangle(1, 2, 1, 2)
        assert t.depth() == 1

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RTree([], node_capacity=1)

    def test_depth_grows_logarithmically(self):
        random.seed(0)
        pts = [Point(random.random(), random.random()) for _ in range(1000)]
        t = tree_of(pts, capacity=10)
        assert 2 <= t.depth() <= 4  # ~log_10(1000) + packing slack

    def test_all_entries_complete(self):
        pts = [Point(float(i), float(i % 7)) for i in range(100)]
        t = tree_of(pts)
        assert sorted(e.record for e in t.all_entries()) == sorted(pts)


class TestSearch:
    def test_range_search_matches_bruteforce(self):
        random.seed(1)
        pts = [Point(random.uniform(0, 100), random.uniform(0, 100)) for _ in range(500)]
        t = tree_of(pts)
        query = Rectangle(20, 30, 60, 70)
        expected = sorted(p for p in pts if query.contains_point(p))
        got = sorted(e.record for e in t.search(query))
        assert got == expected

    def test_search_everything(self):
        pts = [Point(float(i), 0.0) for i in range(50)]
        t = tree_of(pts)
        assert len(t.search(Rectangle(-1, -1, 51, 1))) == 50

    def test_search_nothing(self):
        pts = [Point(float(i), 0.0) for i in range(50)]
        t = tree_of(pts)
        assert t.search(Rectangle(100, 100, 200, 200)) == []

    def test_search_rect_records(self):
        rects = [Rectangle(i, i, i + 2.0, i + 2.0) for i in range(10)]
        t = RTree.from_shapes(rects)
        hits = {e.record for e in t.search(Rectangle(3.5, 3.5, 4.5, 4.5))}
        assert hits == {rects[2], rects[3], rects[4]}

    @given(st.lists(points, max_size=120), st.tuples(coords, coords, coords, coords))
    @settings(max_examples=50)
    def test_search_equals_bruteforce(self, pts, box):
        x1, y1, dx, dy = box
        query = Rectangle(x1, y1, x1 + abs(dx), y1 + abs(dy))
        t = tree_of(pts)
        expected = sorted(p for p in pts if query.contains_point(p))
        assert sorted(e.record for e in t.search(query)) == expected


class TestKnn:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            tree_of([Point(0, 0)]).knn(Point(0, 0), 0)

    def test_simple(self):
        pts = [Point(0, 0), Point(5, 0), Point(1, 1), Point(10, 10)]
        result = tree_of(pts).knn(Point(0.4, 0.4), 2)
        assert [e.record for _, e in result] == [Point(0, 0), Point(1, 1)]

    def test_k_larger_than_tree(self):
        pts = [Point(0, 0), Point(1, 1)]
        assert len(tree_of(pts).knn(Point(0, 0), 10)) == 2

    def test_distances_are_sorted(self):
        random.seed(2)
        pts = [Point(random.uniform(0, 10), random.uniform(0, 10)) for _ in range(200)]
        result = tree_of(pts).knn(Point(5, 5), 20)
        dists = [d for d, _ in result]
        assert dists == sorted(dists)

    @given(st.lists(points, min_size=1, max_size=100), points, st.integers(1, 10))
    @settings(max_examples=50)
    def test_knn_matches_bruteforce_distances(self, pts, q, k):
        result = tree_of(pts).knn(q, k)
        got = [d for d, _ in result]
        expected = sorted(q.distance(p) for p in pts)[: len(result)]
        assert len(result) == min(k, len(pts))
        for a, b in zip(got, expected):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)

    def test_knn_entries_are_real_records(self):
        pts = [Point(float(i), float(-i)) for i in range(30)]
        result = tree_of(pts).knn(Point(3, -3), 5)
        for _, e in result:
            assert e.record in pts


class TestEntryApi:
    def test_entry_holds_payload(self):
        entry = RTreeEntry(mbr=Rectangle(0, 0, 1, 1), record={"id": 7})
        t = RTree([entry])
        assert t.search(Rectangle(0, 0, 2, 2))[0].record == {"id": 7}


# ----------------------------------------------------------------------
# The array-backed layout
# ----------------------------------------------------------------------
grid = st.integers(0, 12).map(float)  # small grid: many exact ties
grid_points = st.builds(Point, grid, grid)
grid_rects = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    grid,
    grid,
    st.integers(0, 3).map(float),
    st.integers(0, 3).map(float),
)
windows = st.builds(
    lambda x, y, w, h: Rectangle(x - 0.5, y - 0.5, x + w, y + h),
    grid,
    grid,
    grid,
    grid,
)


@contextlib.contextmanager
def vectorize(mode):
    old = os.environ.get(vectorized.VECTORIZE_ENV_VAR)
    os.environ[vectorized.VECTORIZE_ENV_VAR] = mode
    try:
        yield
    finally:
        if old is None:
            del os.environ[vectorized.VECTORIZE_ENV_VAR]
        else:
            os.environ[vectorized.VECTORIZE_ENV_VAR] = old


def reference(shapes, capacity, queries, query_points, k):
    """The STR object tree the array layout replaced, as an oracle.

    Nested ``(mbr, children_or_entries, is_leaf)`` nodes, stable STR
    sorts on MBR centres, a stack walk for emission order and a
    best-first kNN pushing children and entries in stored order.
    """

    def pack(items, mbr_of):
        n = len(items)
        num_slices = math.ceil(math.sqrt(math.ceil(n / capacity)))
        per_slice = math.ceil(n / num_slices)
        by_x = sorted(items, key=lambda it: mbr_of(it).center.x)
        groups = []
        for s in range(0, n, per_slice):
            vertical = sorted(
                by_x[s:s + per_slice], key=lambda it: mbr_of(it).center.y
            )
            groups.extend(
                vertical[g:g + capacity]
                for g in range(0, len(vertical), capacity)
            )
        return groups

    def union(mbrs):
        return Rectangle(
            min(m.x1 for m in mbrs), min(m.y1 for m in mbrs),
            max(m.x2 for m in mbrs), max(m.y2 for m in mbrs),
        )

    entries = [(s.mbr, s) for s in shapes]
    level = [
        (union([m for m, _ in g]), g, True)
        for g in pack(entries, lambda e: e[0])
    ]
    while len(level) > 1:
        level = [
            (union([n[0] for n in g]), g, False)
            for g in pack(level, lambda n: n[0])
        ]
    root = level[0]

    order, stack = [], [root]
    while stack:
        _mbr, items, is_leaf = stack.pop()
        if is_leaf:
            order.extend(items)
        else:
            stack.extend(items)
    searched = [[e for e in order if e[0].intersects(q)] for q in queries]

    knns = []
    for p in query_points:
        counter = 0
        heap = [(root[0].min_distance_sq_point(p), 0, False, root)]
        out = []
        while heap and len(out) < k:
            _d, _c, is_entry, item = heapq.heappop(heap)
            if is_entry:
                out.append((item[0].min_distance_point(p), item))
                continue
            for child in item[1]:
                counter += 1
                heapq.heappush(
                    heap,
                    (child[0].min_distance_sq_point(p), counter, item[2], child),
                )
        knns.append(out)
    return order, searched, knns


def pairs(entries):
    return [(e.mbr, e.record) for e in entries]


class TestArrayLayout:
    @given(
        st.one_of(
            st.lists(grid_points, max_size=150),
            st.lists(grid_rects, max_size=150),
        ),
        st.integers(2, 32),
        st.lists(windows, min_size=1, max_size=4),
        st.lists(grid_points, min_size=1, max_size=3),
        st.integers(1, 40),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_matches_original_and_oracle(
        self, shapes, capacity, queries, query_points, k
    ):
        tree = RTree.from_shapes(shapes, node_capacity=capacity)
        clone = pickle.loads(pickle.dumps(tree))
        order, searched, knns = reference(
            shapes, capacity, queries, query_points, k
        ) if shapes else ([], [[] for _ in queries], [[] for _ in query_points])
        assert len(clone) == len(tree) == len(shapes)
        assert clone.depth() == tree.depth()
        assert clone.mbr == tree.mbr
        assert list(clone.all_entries()) == list(tree.all_entries())
        assert pairs(tree.all_entries()) == order
        for mode in ("0", "1"):
            with vectorize(mode):
                for q, want in zip(queries, searched):
                    got = tree.search(q)
                    assert clone.search(q) == got
                    assert pairs(got) == want
                    records = [e.record for e in got]
                    assert tree.search(q, records=True) == records
                    assert clone.search(q, records=True) == records
                for p, want in zip(query_points, knns):
                    got = tree.knn(p, k)
                    assert clone.knn(p, k) == got
                    assert [(d, (e.mbr, e.record)) for d, e in got] == want
                    records = [(d, e.record) for d, e in got]
                    assert tree.knn(p, k, records=True) == records
                    assert clone.knn(p, k, records=True) == records

    def test_single_entry_round_trip(self):
        entry = RTreeEntry(mbr=Rectangle(1, 2, 3, 4), record={"id": 1})
        tree = RTree([entry])
        clone = pickle.loads(pickle.dumps(tree))
        assert list(clone.all_entries()) == [entry]
        assert clone.knn(Point(0, 0), 3) == tree.knn(Point(0, 0), 3)
        assert clone.search(Rectangle(0, 0, 1, 2)) == [entry]

    def test_empty_round_trip(self):
        clone = pickle.loads(pickle.dumps(RTree([])))
        assert len(clone) == 0 and clone.depth() == 0 and clone.mbr is None
        assert clone.search(Rectangle(0, 0, 1, 1)) == []
        assert clone.knn(Point(0, 0), 1) == []
        assert list(clone.all_entries()) == []

    def test_record_queries_build_no_entries(self):
        pts = [Point(float(i % 13), float(i // 13)) for i in range(300)]
        clone = pickle.loads(pickle.dumps(tree_of(pts)))
        window = Rectangle(2, 2, 6, 9)
        with vectorize("1"):
            hits = clone.search(window, records=True)
            nearest = clone.knn(Point(4.2, 4.7), 25, records=True)
            assert clone._entries is None
        assert sorted(hits) == sorted(p for p in pts if window.contains_point(p))
        assert nearest == [(d, e.record) for d, e in clone.knn(Point(4.2, 4.7), 25)]

    def test_given_entries_are_returned_as_is(self):
        entries = [
            RTreeEntry(mbr=Rectangle(i, i, i + 1.0, i + 1.0), record=i)
            for i in range(40)
        ]
        tree = RTree(entries, node_capacity=4)
        assert {id(e) for e in tree.all_entries()} == {id(e) for e in entries}

    def test_pickle_is_columns_not_objects(self):
        random.seed(3)
        n = 5000
        pts = [Point(random.random(), random.random()) for _ in range(n)]
        tree = tree_of(pts, capacity=32)
        tree.search(Rectangle(0, 0, 1, 1))  # builds the entry cache
        blob = pickle.dumps(tree, protocol=pickle.HIGHEST_PROTOCOL)
        for name in (b"RTreeEntry", b"Rectangle", b"_Node"):
            assert name not in blob
        # Beside its block's records, a tree costs its columns, one memo
        # reference per record and the node ranges.
        records = pickle.dumps(pts, protocol=pickle.HIGHEST_PROTOCOL)
        both = pickle.dumps((pts, tree), protocol=pickle.HIGHEST_PROTOCOL)
        assert len(both) - len(records) <= 48 * n + 4096

    def test_checksum_survives_pickle_and_tracks_content(self):
        pts = [Point(float(i % 9), float(i // 9)) for i in range(200)]
        tree = tree_of(pts)
        assert pickle.loads(pickle.dumps(tree)).checksum() == tree.checksum()
        moved = pts[:-1] + [Point(100.0, 100.0)]
        assert tree_of(moved).checksum() != tree.checksum()
