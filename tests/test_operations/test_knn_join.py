"""kNN join correctness against brute force."""

import math

import pytest

from repro.datagen import generate_points
from repro.geometry import Rectangle
from repro.index import build_index
from repro.operations import knn_join_hadoop, knn_join_spatial

SPACE = Rectangle(0, 0, 1000, 1000)


def brute_distances(query, s_records, k):
    return sorted(query.distance(s) for s in s_records)[:k]


def check(result, left, right, k):
    rows = {r: nb for r, nb in result.answer}
    assert set(rows) == set(left)
    for q in left:
        got = [d for d, _ in rows[q]]
        expected = brute_distances(q, right, k)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("technique", ["grid", "str", "quadtree"])
@pytest.mark.parametrize("k", [1, 4])
class TestSpatialKnnJoin:
    def test_matches_bruteforce(self, runner, technique, k):
        left = generate_points(250, "uniform", seed=1, space=SPACE)
        right = generate_points(400, "uniform", seed=2, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", technique)
        build_index(runner, "S", "Si", technique)
        check(knn_join_spatial(runner, "Li", "Si", k), left, right, k)

    def test_skewed_right_side(self, runner, technique, k):
        left = generate_points(150, "uniform", seed=3, space=SPACE)
        right = generate_points(300, "gaussian", seed=4, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", technique)
        build_index(runner, "S", "Si", technique)
        check(knn_join_spatial(runner, "Li", "Si", k), left, right, k)


class TestKnnJoinDetails:
    def test_hadoop_baseline_matches(self, runner):
        left = generate_points(100, "uniform", seed=5, space=SPACE)
        right = generate_points(200, "uniform", seed=6, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        check(knn_join_hadoop(runner, "L", "S", 3), left, right, 3)

    def test_requires_indexes(self, runner):
        runner.fs.create_file("L", generate_points(10, seed=0))
        runner.fs.create_file("S", generate_points(10, seed=1))
        with pytest.raises(ValueError, match="indexed"):
            knn_join_spatial(runner, "L", "S", 2)

    def test_invalid_k(self, runner):
        runner.fs.create_file("L", generate_points(10, seed=0))
        runner.fs.create_file("S", generate_points(10, seed=1))
        with pytest.raises(ValueError, match="positive"):
            knn_join_hadoop(runner, "L", "S", 0)

    def test_k_exceeds_right_size(self, runner):
        left = generate_points(30, "uniform", seed=7, space=SPACE)
        right = generate_points(5, "uniform", seed=8, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "S", "Si", "grid")
        result = knn_join_spatial(runner, "Li", "Si", 10)
        for _r, neighbors in result.answer:
            assert len(neighbors) == 5

    def test_prunes_s_blocks(self, runner):
        left = generate_points(300, "uniform", seed=9, space=SPACE)
        right = generate_points(1200, "uniform", seed=10, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "S", "Si", "grid")
        result = knn_join_spatial(runner, "Li", "Si", 2)
        touched = result.counters["KNN_JOIN_S_BLOCKS"]
        all_pairs = runner.fs.num_blocks("Li") * runner.fs.num_blocks("Si")
        assert touched < all_pairs

    def test_right_file_without_local_indexes(self, runner, monkeypatch):
        from repro.operations import knn_join as module

        left = generate_points(200, "uniform", seed=11, space=SPACE)
        right = generate_points(600, "gaussian", seed=12, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", "str")
        build_index(runner, "S", "Si", "str")
        build_index(runner, "S", "Sbare", "str", build_local_indexes=False)
        want = knn_join_spatial(runner, "Li", "Si", 3)

        builds = []
        original = module.RTree.from_shapes

        def counting(shapes, *args, **kwargs):
            builds.append(len(shapes))
            return original(shapes, *args, **kwargs)

        monkeypatch.setattr(module.RTree, "from_shapes", counting)
        got = knn_join_spatial(runner, "Li", "Sbare", 3)
        assert got.answer == want.answer
        check(got, left, right, 3)
        # One tree per right block per map task, not per left record.
        assert builds
        assert len(builds) <= got.counters["KNN_JOIN_S_BLOCKS"]
