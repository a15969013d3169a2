"""The LRU result cache and its version-based invalidation."""

import pytest

from repro.mapreduce import FileSystem
from repro.serve import ResultCache


class FakePlan:
    """Stand-in for a PlanNode: key_for only needs .normalized()."""

    def __init__(self, shape):
        self.shape = shape

    def normalized(self):
        return self.shape


@pytest.fixture
def fs():
    fs = FileSystem(default_block_capacity=4)
    fs.create_file("a", list(range(10)))
    fs.create_file("b", list(range(6)))
    return fs


class TestKeying:
    def test_key_is_canonical_json_of_the_normalized_plan(self):
        key1 = ResultCache.key_for(FakePlan({"op": "range", "file": "a"}))
        key2 = ResultCache.key_for(FakePlan({"file": "a", "op": "range"}))
        assert key1 == key2  # sort_keys: spelling order is irrelevant

    def test_different_plans_get_different_keys(self):
        key1 = ResultCache.key_for(FakePlan({"op": "range", "file": "a"}))
        key2 = ResultCache.key_for(FakePlan({"op": "range", "file": "b"}))
        assert key1 != key2


class TestLookup:
    def test_miss_then_hit(self, fs):
        cache = ResultCache()
        assert cache.get("k", fs) is None
        cache.put("k", ["a"], fs, "answer")
        assert cache.get("k", fs) == "answer"
        assert cache.hits == 1
        assert cache.misses == 1
        assert cache.hit_ratio == 0.5

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            ResultCache(capacity=0)

    def test_lru_eviction_order(self, fs):
        cache = ResultCache(capacity=2)
        cache.put("k1", ["a"], fs, 1)
        cache.put("k2", ["a"], fs, 2)
        assert cache.get("k1", fs) == 1  # touch k1: k2 is now LRU
        cache.put("k3", ["a"], fs, 3)
        assert cache.evictions == 1
        assert cache.get("k2", fs) is None  # evicted
        assert cache.get("k1", fs) == 1
        assert cache.get("k3", fs) == 3

    def test_clear(self, fs):
        cache = ResultCache()
        cache.put("k", ["a"], fs, 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.get("k", fs) is None


class TestInvalidation:
    def test_delete_invalidates(self, fs):
        cache = ResultCache()
        cache.put("k", ["a"], fs, "stale")
        fs.delete("a")
        assert cache.get("k", fs) is None
        assert cache.invalidations == 1
        assert len(cache) == 0  # the dead entry was dropped

    def test_delete_then_recreate_invalidates(self, fs):
        """The double version bump: a recreated file never serves stale."""
        cache = ResultCache()
        cache.put("k", ["a"], fs, "stale")
        fs.delete("a")
        fs.create_file("a", list(range(99)))
        assert cache.get("k", fs) is None
        assert cache.invalidations == 1

    def test_any_stale_input_invalidates_a_join_entry(self, fs):
        cache = ResultCache()
        cache.put("k", ["a", "b"], fs, "joined")
        fs.delete("b")
        assert cache.get("k", fs) is None

    def test_untouched_files_keep_entries_valid(self, fs):
        cache = ResultCache()
        cache.put("k", ["a"], fs, "fresh")
        fs.delete("b")  # unrelated mutation
        assert cache.get("k", fs) == "fresh"


class TestSnapshot:
    def test_counters_round_trip(self, fs):
        cache = ResultCache(capacity=7)
        cache.put("k", ["a"], fs, 1)
        cache.get("k", fs)
        cache.get("missing", fs)
        snap = cache.snapshot()
        assert snap["size"] == 1
        assert snap["capacity"] == 7
        assert snap["hits"] == 1
        assert snap["misses"] == 1
        assert snap["hit_ratio"] == 0.5


class TestFileSystemVersions:
    """The fs side of the invalidation contract (PR 10 additions)."""

    def test_unknown_file_is_version_zero(self, fs):
        assert fs.version("nope") == 0

    def test_create_bumps(self, fs):
        assert fs.version("a") == 1
        fs.create_file("c", [1, 2])
        assert fs.version("c") == 1

    def test_delete_and_recreate_bump_twice(self, fs):
        fs.delete("a")
        assert fs.version("a") == 2
        fs.create_file("a", [1])
        assert fs.version("a") == 3

    def test_mutation_count_tracks_namespace_churn(self, fs):
        before = fs.mutation_count
        fs.delete("a")
        fs.create_file("a", [1])
        assert fs.mutation_count == before + 2

    def test_versions_survive_pickling(self, fs):
        import pickle

        fs.delete("a")
        clone = pickle.loads(pickle.dumps(fs))
        assert clone.version("a") == fs.version("a")
