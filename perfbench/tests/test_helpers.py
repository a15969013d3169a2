"""Tests of the benchmark's own helpers: statistics, failures, self time."""

import statistics
import sys

import numpy as np
import pytest

from perfbench import inputs, layers, stats
from perfbench.tracer import Tracer


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# -- tail percentile ---------------------------------------------------------------
def test_tail_needs_ten_samples_beyond():
    values = list(range(1, 101))  # 1..100
    pct, value, beyond = stats.tail_percentile(values)
    assert (pct, value, beyond) == (90.0, 90, 10)


def test_tail_is_highest_qualifying_percentile():
    values = list(range(1, 1001))
    pct, value, beyond = stats.tail_percentile(values)
    assert pct == 99.0 and value == 990 and beyond == 10


def test_tail_omitted_when_sample_too_small():
    assert stats.tail_percentile(list(range(99))) is None  # p89.9 is no tail
    assert stats.tail_percentile(list(range(10))) is None
    assert stats.tail_percentile([]) is None


def test_tail_percentile_need_not_be_whole():
    values = [float(v) for v in range(8000)]
    pct, value, beyond = stats.tail_percentile(values)
    assert pct == pytest.approx(99.875) and value == 7989.0 and beyond == 10
    assert sum(v > value for v in values) == 10


def test_latency_summary_reports_tail_beside_count():
    summary = stats.latency_summary([0.001 * i for i in range(1, 101)])
    assert summary["samples"] == 100
    assert summary["tail_percentile"] == 90.0 and summary["tail_beyond"] == 10
    assert summary["tail_ms"] == pytest.approx(90.0)
    assert "tail_ms" not in stats.latency_summary([0.001] * 5)


# -- quartiles and medians ---------------------------------------------------------
def test_median_odd_and_even():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


def test_quartiles_match_statistics_module():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0]
    assert stats.quartiles(values) == tuple(statistics.quantiles(values, n=4))


def test_spread_is_iqr_over_median():
    values = [10.0] * 5 + [11.0] * 5
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / q2)
    assert stats.spread([7.0] * 10) == 0.0


# -- failure classification ----------------------------------------------------------
def test_failure_kinds():
    assert stats.classify_failure() is None
    assert stats.classify_failure(correct=True, outcome="served", exit_code=0) is None
    assert stats.classify_failure(exception=ValueError()) == stats.FAIL_EXCEPTION
    assert stats.classify_failure(correct=False) == stats.FAIL_WRONG_ANSWER
    assert stats.classify_failure(outcome="degraded") == stats.FAIL_NOT_SERVED
    assert stats.classify_failure(outcome="overloaded", correct=True) == stats.FAIL_NOT_SERVED
    assert stats.classify_failure(exit_code=1) == stats.FAIL_EXIT_CODE


def test_failure_precedence():
    assert stats.classify_failure(exception=RuntimeError(), exit_code=1,
                                  correct=False) == stats.FAIL_EXCEPTION
    assert stats.classify_failure(exit_code=2, correct=False) == stats.FAIL_EXIT_CODE
    assert stats.classify_failure(outcome="error", correct=False) == stats.FAIL_NOT_SERVED


def test_tally_counts_failures_against_attempts():
    tally = stats.Tally()
    tally.record(0.1, None, "ok")
    tally.record(0.2, stats.FAIL_WRONG_ANSWER, "bad range")
    tally.record(0.3, stats.FAIL_NOT_SERVED, "degraded")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.first_failure == "wrong-answer: bad range"
    assert tally.latencies == [0.1, 0.2, 0.3]


# -- self time -----------------------------------------------------------------------
def test_self_time_is_span_minus_direct_children_when_nested():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    tr.begin("operations.range")        # t=0
    clock.now = 1.0
    tr.begin("runtime")                 # t=1
    clock.now = 2.0
    tr.begin("executor")                # t=2
    clock.now = 2.5
    tr.begin("kernel")                  # t=2.5, aggregate grandchild
    clock.now = 3.0
    tr.end(keep=False)
    clock.now = 3.5
    tr.end()                            # executor: 1.5s total, 1s self
    clock.now = 4.0
    tr.end()                            # runtime: 3s total, 1.5s self
    clock.now = 6.0
    tr.begin("splitter")                # t=6, a second child of range
    clock.now = 7.0
    tr.end()
    clock.now = 8.0
    tr.end()                            # range: 8s total, 8 - 3 - 1 = 4s self
    assert tr.totals["operations.range"] == [8.0, 4.0, 1]
    assert tr.totals["runtime"] == [3.0, 1.5, 1]
    assert tr.totals["executor"] == [1.5, 1.0, 1]
    assert tr.totals["kernel"] == [0.5, 0.5, 1]
    assert tr.totals["splitter"] == [1.0, 1.0, 1]
    assert tr.top_s == 8.0
    kept = {s["name"]: s for s in tr.spans}
    assert "kernel" not in kept
    assert kept["executor"]["parent"] == kept["runtime"]["id"]
    assert kept["runtime"]["parent"] == kept["operations.range"]["id"]
    assert kept["operations.range"]["parent"] is None
    assert kept["executor"]["self"] == 1.0


def test_wrapped_callable_records_span_and_result():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    seen = []

    def work(x):
        clock.now += 2.0
        return x * 2

    traced = tr.wrap_callable(work, "layer", after=lambda t, r, a, k: seen.append(r))
    assert traced(21) == 42 and seen == [42]
    assert tr.totals["layer"] == [2.0, 2.0, 1]


def test_patch_and_uninstall_restore_the_original():
    class Thing:
        def go(self):
            return "went"

    original = Thing.__dict__["go"]
    tr = Tracer()
    tr.patch(Thing, "go", "thing")
    assert Thing().go() == "went" and tr.totals["thing"][2] == 1
    tr.uninstall()
    assert Thing.__dict__["go"] is original


def test_merge_adds_child_process_totals():
    tr = Tracer()
    tr.totals["import"] = [1.0, 1.0, 1]
    child = {"totals": {"import": [0.5, 0.5, 1]}, "counts": {"workspace.bytes": 10.0},
             "top_s": 0.5, "spans": [{"id": 1, "name": "import", "parent": None}]}
    tr.merge(child, op=7)
    assert tr.totals["import"] == [1.5, 1.5, 2]
    assert tr.counts["workspace.bytes"] == 10.0 and tr.top_s == 0.5
    assert tr.spans[-1]["op"] == 7


def _package(tmp_path, name):
    """A package ``name`` with a module ``base`` and a module ``user`` importing from it."""
    root = tmp_path / name
    root.mkdir()
    (root / "__init__.py").write_text("")
    (root / "base.py").write_text("def work(x):\n    return x + 1\n")
    (root / "user.py").write_text(f"from {name}.base import work\n")
    return name


def test_patch_on_import_patches_loaded_and_later_modules(tmp_path, monkeypatch):
    name = _package(tmp_path, "pbpkg_lazy")
    monkeypatch.syspath_prepend(str(tmp_path))
    import importlib

    base = importlib.import_module(f"{name}.base")
    seen = []
    tr = Tracer()

    def apply(module):
        seen.append(module.__name__)
        if "work" in vars(module):
            tr.patch(module, "work", "layer")

    tr.patch_on_import(name, apply)
    assert seen == [name, f"{name}.base"]  # the loaded ones, now
    user = importlib.import_module(f"{name}.user")  # imported later: patched then
    assert seen[-1] == f"{name}.user"
    assert user.work(1) == 2 and tr.totals["layer"][2] == 1  # bound wrapper not wrapped twice
    tr.uninstall()
    assert base.work is user.work and not hasattr(user.work, "__wrapped__")
    assert not any(getattr(f, "package", None) == name for f in sys.meta_path)
    for module in [m for m in sys.modules if m.split(".")[0] == name]:
        del sys.modules[module]


def test_install_span_is_neither_covered_nor_overhead():
    clock = FakeClock()
    tr = Tracer(clock=clock)
    for span, seconds in (("import", 1.0), ("trace.install", 0.5), ("operations.range", 2.0)):
        tr.begin(span)
        clock.now += seconds
        tr.end()
    # The child call took 4.5 s traced, 3.6 s untraced: 1 s of it no span covers.
    metrics = layers.layer_metrics(tr, untraced_s=3.6, traced_s=4.5)
    assert metrics["trace.residual_frac"]["value"] == pytest.approx(1.0 / 4.0)
    assert metrics["trace.overhead_frac"]["value"] == pytest.approx(4.0 / 3.6 - 1.0)


def test_cache_hit_ratio_is_over_summed_lookups():
    tr = Tracer()
    for hits, lookups in ((80, 100), (70, 100)):
        tr.count("serve.cache_hits", hits)
        tr.count("serve.cache_lookups", lookups)
    metrics = layers.layer_metrics(tr, untraced_s=1.0, traced_s=1.0)
    assert metrics["serve.cache_hit_ratio"]["value"] == pytest.approx(0.75)


# -- references --------------------------------------------------------------------
def test_join_reference_matches_dense_pass():
    rng = np.random.default_rng(5)
    a, b = inputs.rectangles(rng, 300), inputs.rectangles(rng, 400)
    dense = (
        (a[:, None, 0] <= b[None, :, 2]) & (b[None, :, 0] <= a[:, None, 2])
        & (a[:, None, 1] <= b[None, :, 3]) & (b[None, :, 1] <= a[:, None, 3])
    ).sum()
    assert inputs.join_pairs(a, b, chunk=64) == int(dense)


def test_knn_check_accepts_any_member_of_a_tie():
    from repro.geometry import Point

    xy = np.array([[0.0, 1.0], [1.0, 0.0], [0.0, -1.0], [5.0, 5.0]])
    answer = [(1.0, Point(0.0, -1.0)), (1.0, Point(1.0, 0.0))]
    assert inputs.check_knn(answer, xy, (0.0, 0.0), 2)
    wrong = [(1.0, Point(0.0, -1.0)), (1.0, Point(0.0, -1.0))]
    assert not inputs.check_knn(wrong, xy, (0.0, 0.0), 2)


def test_range_check_is_exact_multiset():
    from repro.geometry import Point

    xy = np.array([[1.0, 1.0], [2.0, 2.0], [9.0, 9.0]])
    w = (0.0, 0.0, 2.0, 2.0)  # closed: (2, 2) is inside
    assert inputs.check_range([Point(2.0, 2.0), Point(1.0, 1.0)], xy, w)
    assert not inputs.check_range([Point(1.0, 1.0)], xy, w)
    assert inputs.check_count(2, xy, w) and not inputs.check_count(3, xy, w)
