"""The four workloads: set-up, the seeded operation stream, and checks.

Every workload is a closed loop with one client. An *operation* is one
timed call (a CLI subprocess, a library call, a served request, or one
whole ingest pass) followed, untimed, by a check of its answer against
the reference in :mod:`perfbench.inputs`. Operations come in *rounds* of
fixed composition whose order and parameters the seed picks; a run ends
at the first round boundary after ``seconds`` of timed operations.

A traced run executes a fixed number of rounds with every operation (or,
for ``serve_zipf``, every round) run once untraced and once traced, in
alternating order, so per-layer totals compare across commits and the
tracing overhead is measured rather than assumed.
"""

from __future__ import annotations

import gc
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import time
import weakref
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

from perfbench import inputs, layers, stats
from perfbench.tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
#: Environment switches that would change which program is measured.
HYGIENE_VARS = ("REPRO_WORKERS", "REPRO_VECTORIZE", "REPRO_SHM", "REPRO_FAULTS", "REPRO_PROFILE")

POINTS = 200_000  # the 200k-point STR workspace of cli/query/serve
JOIN_RECTS = 20_000  # each side of the query_mix join
INGEST_POINTS = 50_000
INGEST_RECTS = 20_000
SERVE_POOL = 384  # distinct queries; three times the 128-entry cache
SERVE_TENANTS = ("alpha", "beta", "gamma")
SERVE_WARM = 400  # untimed requests before the timed loop
SERVE_ROUND = 1000  # requests per round
NODES, JOB_OVERHEAD_S = 25, 0.05  # what `repro generate` creates


class Op(NamedTuple):
    """One operation: ``call`` is timed; ``before`` and ``check`` are not."""

    what: str
    call: Callable[[], Any]
    check: Callable[[Any], Optional[str]]  # returns a failure kind or None
    before: Optional[Callable[[], None]] = None


def _selectivity(kind: str) -> float:
    """``"range0.1"`` -> 0.001: the percent after a kind's letters."""
    return float(re.sub(r"^[a-z]+", "", kind)) / 100.0


class Workload:
    """Base: subclasses build state in :meth:`setup` and yield rounds."""

    name = ""
    setups = 1  # set-ups per run; setup_s is their median
    trace_rounds = 1  # rounds replayed in a traced run
    #: Operations leave in-process state (lazily built index caches) that
    #: makes a repeat faster, so a traced run replays its rounds once
    #: before the untraced and traced executions it compares.
    state_across_rounds = False
    #: An operation changes what later ones see (a result cache), so a
    #: traced run compares whole rounds, each from :meth:`before_replay`,
    #: instead of single operations.
    replay_whole_rounds = False

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.workspace_bytes: List[int] = []

    def setup(self) -> None:
        raise NotImplementedError

    def rounds(self) -> Iterator[List[Op]]:
        raise NotImplementedError

    def warm(self) -> None:
        """Untimed work after set-up that a long-lived process has done."""

    def before_replay(self) -> None:
        """Reset state a traced run's replays must all start from."""

    def set_tracer(self, tr: Optional[Tracer]) -> None:
        """Trace the program's layers into ``tr`` (``None``: tracing ended)."""
        if tr is not None:
            layers.install(tr)

    def trace_counts(self, tr: Tracer) -> None:
        """Counts only the workload can see (shm) into ``tr``."""

    def after_traced(self, tr: Tracer) -> None:
        """Counts of one traced execution (cache) into ``tr``."""

    def extra_report(self, tally: stats.Tally, timed_s: float) -> Dict[str, Any]:
        return {}

    def peak_rss_mb(self) -> float:
        return max(stats.peak_rss_mb(), stats.peak_rss_mb(children=True))


def _check(ok: bool) -> Optional[str]:
    return stats.classify_failure(correct=bool(ok))


def _new_system(workers: int) -> Any:
    from repro import SpatialHadoop

    return SpatialHadoop(num_nodes=NODES, job_overhead_s=JOB_OVERHEAD_S, workers=workers)


def _save(sh: Any, path: Path, tr: Optional[Tracer] = None) -> int:
    from repro.core.workspace import save_workspace

    if tr is None:
        save_workspace(sh, path)
    else:
        with tr.span("workspace.save"):
            save_workspace(sh, path)
        tr.count("workspace.bytes", path.stat().st_size)
    return path.stat().st_size


def _points_workspace(rng: np.random.Generator) -> Tuple[np.ndarray, Any]:
    """The 200k uniform points, loaded and STR-indexed as ``idx``."""
    xy = inputs.points(rng, POINTS)
    sh = _new_system(workers=1)
    sh.load("pts", inputs.as_points(xy))
    sh.index("pts", "idx", technique="str")
    return xy, sh


def _shuffled(rng: np.random.Generator, items: List[Any]) -> List[Any]:
    return [items[i] for i in rng.permutation(len(items))]


# -----------------------------------------------------------------------------
class CliSession(Workload):
    """Serial ``python -m repro`` calls against a persisted 200k workspace."""

    name = "cli_session"
    #: A round is one call of each kind, in seeded order: with ~4 s calls
    #: a run is one round, and its median is of the same six kinds every
    #: time (three calls of seeded kinds spread twice as wide).
    KINDS = ("range0.1", "range1", "range25", "knn10", "knn1000", "count1")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.pristine = self.workdir / "pristine.ws"
        self.live = self.workdir / "live.ws"
        self.xy, sh = _points_workspace(rng)
        self.workspace_bytes.append(_save(sh, self.pristine))
        sh.runner.close()
        self.spans = self.workdir / "child-spans.json"
        self.traced: Optional[Tracer] = None

    def peak_rss_mb(self) -> float:
        return stats.peak_rss_mb(children=True)  # the largest CLI child

    def set_tracer(self, tr: Optional[Tracer]) -> None:
        self.traced = tr  # the children trace themselves; see cli_traced.py

    def _restore(self) -> None:
        # Every call sees the same workspace: a query call re-saves it
        # with one more history record.
        shutil.copyfile(self.pristine, self.live)

    def _call(self, argv: List[str]) -> "subprocess.CompletedProcess[str]":
        # Hygiene: the children see none of the REPRO_* switches.
        env = {k: v for k, v in os.environ.items() if k not in HYGIENE_VARS}
        if self.traced is None:
            env["PYTHONPATH"] = str(ROOT / "src")
            cmd = [sys.executable, "-m", "repro"]
        else:
            env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
            cmd = [sys.executable, str(ROOT / "perfbench" / "cli_traced.py"), str(self.spans)]
        cmd += ["-w", str(self.live)] + argv
        return subprocess.run(cmd, env=env, capture_output=True, text=True)

    def _checked(self, verdict: Callable[[str], bool]) -> Callable[[Any], Optional[str]]:
        def check(done: "subprocess.CompletedProcess[str]") -> Optional[str]:
            if self.traced is not None:
                self.traced.merge(json.loads(self.spans.read_text()), op=self.traced.op)
            return stats.classify_failure(
                exit_code=done.returncode,
                correct=done.returncode == 0 and verdict(done.stdout))
        return check

    def _op(self, kind: str, rng: np.random.Generator) -> Op:
        xy = self.xy
        if kind.startswith(("range", "count")):
            w = inputs.window(rng, _selectivity(kind))
            text = ",".join(repr(v) for v in w)
            command = "rangequery" if kind.startswith("range") else "rangecount"
            expected = int(inputs.in_window(xy, w).sum())
            pattern = r"(\d+) records match" if command == "rangequery" else r"count: (\d+)"

            def verdict(stdout: str) -> bool:
                found = re.search(pattern, stdout)
                return bool(found) and int(found.group(1)) == expected

            return Op(f"{command} {text}", lambda: self._call([command, "idx", "--window", text]),
                      self._checked(verdict), self._restore)
        k = int(kind[3:])
        p = inputs.query_point(rng)
        expected_d = inputs.knn_distances(xy, p, k)

        def knn_verdict(stdout: str) -> bool:
            # Lines are "%12.3f  <record>": distances rounded to 3 decimals.
            got = [float(line.split()[0]) for line in stdout.splitlines()
                   if line.strip() and not line.startswith("[")]
            return len(got) == len(expected_d) and bool(
                np.all(np.abs(np.array(got) - expected_d) <= 5.1e-4))

        text = f"{p[0]!r},{p[1]!r}"
        return Op(f"knn {text} k={k}",
                  lambda: self._call(["knn", "idx", "--point", text, "--k", str(k)]),
                  self._checked(knn_verdict), self._restore)

    def rounds(self) -> Iterator[List[Op]]:
        rng = np.random.default_rng([self.seed, 2])
        while True:
            yield [self._op(kind, rng) for kind in _shuffled(rng, list(self.KINDS))]


# -----------------------------------------------------------------------------
class QueryMix(Workload):
    """Warm in-process library calls on the serial backend, no reload."""

    name = "query_mix"
    trace_rounds = 4
    state_across_rounds = True
    #: A group of calls. The median falls inside the six 1% ranges and
    #: counts, which take about the same time, with the three cheaper
    #: calls below and the 25% range (and the join) above, never at the
    #: edge between two latency clusters. A round is GROUPS shuffled
    #: groups, then one join.
    GROUP = ("range0.1", "knn10", "knn1000") + ("range1", "count1") * 3 + ("range25",)
    GROUPS = 4

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.xy, self.sh = _points_workspace(rng)
        self.rects = []
        for name in ("left", "right"):
            r = inputs.rectangles(rng, JOIN_RECTS)
            self.sh.load(name, inputs.as_rectangles(r))
            self.sh.index(name, f"{name}_grid", technique="grid")
            self.rects.append(r)
        self.workspace_bytes.append(_save(self.sh, self.workdir / "query_mix.ws"))

    def warm(self) -> None:
        """Touch every block once so lazily built caches exist."""
        from repro.geometry import Rectangle

        full = Rectangle(0.0, 0.0, inputs.SPACE, inputs.SPACE)
        self.sh.range_query("idx", full)
        self.sh.range_count("idx", full)
        self.join_pairs = inputs.join_pairs(*self.rects)

    def _op(self, kind: str, rng: np.random.Generator) -> Op:
        from repro.geometry import Point, Rectangle

        sh, xy = self.sh, self.xy
        if kind == "join":
            return Op("spatial_join left_grid right_grid",
                    lambda: sh.spatial_join("left_grid", "right_grid"),
                    lambda op: _check(len(op.answer) == self.join_pairs))
        if kind.startswith(("range", "count")):
            w = inputs.window(rng, _selectivity(kind))
            rect = Rectangle(*w)
            if kind.startswith("range"):
                return Op(f"range_query {w}", lambda: sh.range_query("idx", rect),
                        lambda op: _check(inputs.check_range(op.answer, xy, w)))
            return Op(f"range_count {w}", lambda: sh.range_count("idx", rect),
                    lambda op: _check(inputs.check_count(op.answer, xy, w)))
        k = int(kind[3:])
        p = inputs.query_point(rng)
        return Op(f"knn {p} k={k}", lambda: sh.knn("idx", Point(*p), k),
                lambda op: _check(inputs.check_knn(op.answer, xy, p, k)))

    def rounds(self) -> Iterator[List[Op]]:
        rng = np.random.default_rng([self.seed, 2])
        while True:
            kinds = [k for _ in range(self.GROUPS) for k in _shuffled(rng, list(self.GROUP))]
            yield [self._op(kind, rng) for kind in kinds + ["join"]]


# -----------------------------------------------------------------------------
class ServeZipf(Workload):
    """Zipf(1.1) requests from three tenants through ``QueryService.query``."""

    name = "serve_zipf"
    trace_rounds = 4
    state_across_rounds = True
    replay_whole_rounds = True
    #: Pool kinds by popularity rank (rank mod 5), so every seed gets the
    #: same mix of kinds at each popularity.
    KINDS = ("range0.1", "range1", "count1", "knn10", "knn1000")
    ZIPF_S = 1.1

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.xy, self.sh = _points_workspace(rng)
        self.workspace_bytes.append(_save(self.sh, self.workdir / "serve_zipf.ws"))

    def warm(self) -> None:
        from repro.geometry import Rectangle

        self.sh.range_query("idx", Rectangle(0.0, 0.0, inputs.SPACE, inputs.SPACE))
        rng = np.random.default_rng([self.seed, 3])
        self.pool: List[Tuple[str, Callable[[Any], bool]]] = []
        for rank in range(SERVE_POOL):
            kind = self.KINDS[rank % len(self.KINDS)]
            self.pool.append(self._query(kind, rng))
        weights = 1.0 / np.arange(1, SERVE_POOL + 1) ** self.ZIPF_S
        self.weights = weights / weights.sum()
        self.verdicts: Dict[str, Tuple["weakref.ref[Any]", bool]] = {}
        self.start_service()

    def before_replay(self) -> None:
        self.start_service()

    def start_service(self) -> None:
        """A fresh service whose cache the untimed warm prefix fills."""
        self.service = self.sh.serve()
        rng = np.random.default_rng([self.seed, 4])
        for op in self._requests(rng, SERVE_WARM):
            op.call()
        cache = self.service.cache
        self.cache_base = (cache.hits, cache.misses, cache.evictions)

    def _query(self, kind: str, rng: np.random.Generator) -> Tuple[str, Callable[[Any], bool]]:
        xy = self.xy
        if kind.startswith(("range", "count")):
            w = inputs.window(rng, _selectivity(kind))
            op = "range" if kind.startswith("range") else "count"
            checker = inputs.check_range if op == "range" else inputs.check_count
            text = f"{op} idx " + ",".join(repr(v) for v in w)
            return text, lambda answer: checker(answer, xy, w)
        k = int(kind[3:])
        p = inputs.query_point(rng)
        return f"knn idx {p[0]!r},{p[1]!r} {k}", lambda answer: inputs.check_knn(answer, xy, p, k)

    def _requests(self, rng: np.random.Generator, count: int) -> List[Op]:
        ranks = rng.choice(SERVE_POOL, size=count, p=self.weights)
        tenants = rng.integers(0, len(SERVE_TENANTS), size=count)
        ops = []
        for rank, tenant in zip(ranks.tolist(), tenants.tolist()):
            text, checker = self.pool[rank]
            name = SERVE_TENANTS[tenant]
            ops.append(Op(f"{name}: {text}",
                        lambda name=name, text=text: self.service.query(name, text),
                        lambda response, text=text, checker=checker:
                            self._verdict(response, text, checker)))
        return ops

    def _verdict(self, response: Any, text: str, checker: Callable[[Any], bool]) -> Optional[str]:
        if response.outcome != "served":
            return stats.classify_failure(outcome=response.outcome)
        # A hit hands back the cached result object: check each object once.
        # The reference is weak so that no result the service's cache has
        # dropped stays alive in the benchmark and adds to peak RSS.
        seen = self.verdicts.get(text)
        if seen is None or seen[0]() is not response.result:
            seen = (weakref.ref(response.result), bool(checker(response.result.answer)))
            self.verdicts[text] = seen
        return _check(seen[1])

    def rounds(self) -> Iterator[List[Op]]:
        rng = np.random.default_rng([self.seed, 2])
        while True:
            yield self._requests(rng, SERVE_ROUND)

    def _cache_since_warm(self) -> Tuple[int, int, int]:
        """Cache hits, lookups and evictions of the requests after the warm prefix."""
        cache = self.service.cache
        hits = cache.hits - self.cache_base[0]
        lookups = hits + cache.misses - self.cache_base[1]
        return hits, lookups, cache.evictions - self.cache_base[2]

    def after_traced(self, tr: Tracer) -> None:
        # Each traced round starts from a freshly warmed service.
        hits, lookups, evictions = self._cache_since_warm()
        tr.count("serve.cache_hits", hits)
        tr.count("serve.cache_lookups", lookups)
        tr.count("serve.cache_evictions", evictions)

    def extra_report(self, tally: stats.Tally, timed_s: float) -> Dict[str, Any]:
        hits, lookups, evictions = self._cache_since_warm()
        return {"cache_hit_ratio": hits / lookups, "cache_evictions": evictions}


# -----------------------------------------------------------------------------
class IngestParallel(Workload):
    """WKT load, three index builds, a rectangle index and a save, workers=2.

    One operation is one whole ingest pass into a fresh system.
    """

    name = "ingest_parallel"
    setups = 9  # a set-up takes a fraction of a second: take a steady median
    trace_rounds = 2
    TECHNIQUES = ("str", "grid", "quadtree")

    def setup(self) -> None:
        rng = np.random.default_rng([self.seed, 1])
        self.xy = inputs.points(rng, INGEST_POINTS)
        self.wkt = inputs.wkt_points(self.xy)
        self.rect_array = inputs.rectangles(rng, INGEST_RECTS)
        self.rects = inputs.as_rectangles(self.rect_array)
        self.live_segments = 0
        self.passes = 0
        self.reload_checked = False
        self.tracer: Optional[Tracer] = None  # set while an execution is traced

    def _pass(self) -> Any:
        sh = _new_system(workers=2)
        try:
            sh.load("pts", self.wkt)
            for technique in self.TECHNIQUES:
                sh.index("pts", f"pts_{technique}", technique=technique)
            sh.load("rects", self.rects)
            sh.index("rects", "rects_grid", technique="grid")
            path = self.workdir / f"ingest-{self.passes}.ws"
            self.passes += 1
            self.workspace_bytes.append(_save(sh, path, self.tracer))
        finally:
            sh.runner.close()
        return sh, path

    def _check_pass(self, out: Tuple[Any, Path]) -> Optional[str]:
        from repro.core.workspace import load_workspace
        from repro.mapreduce import shm

        sh, path = out
        live = len(shm.live_segments())
        self.live_segments += live
        if live:
            return stats.classify_failure(correct=False)
        expected = inputs.sorted_rows(self.xy)
        for technique in self.TECHNIQUES:
            got = inputs.coords_of(sh.records(f"pts_{technique}"))
            if not np.array_equal(inputs.sorted_rows(got), expected):
                return _check(False)
        got = sh.records("rects_grid")
        unique = {(r.x1, r.y1, r.x2, r.y2) for r in got}
        if unique != set(map(tuple, self.rect_array.tolist())):
            return _check(False)
        same = True
        if not self.reload_checked:  # one reload per run: it costs a third of a pass
            self.reload_checked = True
            reloaded = load_workspace(path)
            same = sorted(reloaded.fs.list_files()) == sorted(sh.fs.list_files()) and all(
                reloaded.fs.num_records(f) == sh.fs.num_records(f) for f in sh.fs.list_files())
        path.unlink()
        return _check(same)

    def rounds(self) -> Iterator[List[Op]]:
        while True:
            yield [Op("ingest pass", self._pass, self._check_pass)]

    def set_tracer(self, tr: Optional[Tracer]) -> None:
        super().set_tracer(tr)
        self.tracer = tr  # the workspace save is the benchmark's own call

    def trace_counts(self, tr: Tracer) -> None:
        tr.counts["shm.live_segments"] = float(self.live_segments)

    def extra_report(self, tally: stats.Tally, timed_s: float) -> Dict[str, Any]:
        records = INGEST_POINTS + INGEST_RECTS
        return {"records_per_s": records * len(tally.latencies) / timed_s}


WORKLOADS = {w.name: w for w in (CliSession, QueryMix, IngestParallel, ServeZipf)}


# -----------------------------------------------------------------------------
def _run_rounds(
    rounds: Iterator[List[Op]], tally: stats.Tally,
    seconds: Optional[float] = None, count: Optional[int] = None,
    tracer: Optional[Tracer] = None,
) -> float:
    """Run whole rounds until ``seconds`` of timed work or ``count`` rounds.

    Returns the timed seconds. Each operation is timed around its call
    only; its check runs after, untimed.
    """
    timed = 0.0
    done = 0
    for ops in rounds:
        if (count is not None and done >= count) or (
            seconds is not None and done and timed >= seconds
        ):
            break
        done += 1
        for op in ops:
            if tracer is not None:
                tracer.op = (tracer.op or 0) + 1
            if op.before is not None:
                op.before()
            error = result = None
            start = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # an operation failure, not a crash
                error = exc
            elapsed = time.perf_counter() - start
            timed += elapsed
            failure = stats.classify_failure(exception=error)
            if failure is None:
                try:
                    failure = op.check(result)
                except Exception as exc:
                    error, failure = exc, stats.classify_failure(exception=exc)
            tally.record(elapsed, failure, op.what if error is None else f"{op.what}: {error!r}")
    return timed


def run(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> Dict[str, Any]:
    """One run of workload ``name``; returns the result object to print."""
    workload = WORKLOADS[name](seed, workdir)
    setup_s = []
    for _ in range(workload.setups):
        start = time.perf_counter()
        workload.setup()
        setup_s.append(time.perf_counter() - start)
    workload.warm()
    # Collect set-up's garbage now, so that every run starts its timed
    # loop with no collection debt and the loop pays only for its own.
    gc.collect()
    tally = stats.Tally()
    if trace:
        report = _traced(workload, tally)
    else:
        timed = _run_rounds(workload.rounds(), tally, seconds=seconds)
        report = _end_to_end(workload, tally, timed, setup_s)
    report["attempted"] = tally.attempted
    report["failed"] = tally.failed
    report["first_failure"] = tally.first_failure
    return report


def _end_to_end(workload: Workload, tally: stats.Tally, timed: float,
                setup_s: List[float]) -> Dict[str, Any]:
    lat = stats.latency_summary(tally.latencies)
    metrics = {
        "setup_s": stats.metric(stats.median(setup_s), "s"),
        "ops_per_s": stats.metric(len(tally.latencies) / timed, "1/s"),
        "latency_p50_ms": stats.metric(lat["p50_ms"], "ms"),
        "peak_rss_mb": stats.metric(workload.peak_rss_mb(), "MB"),
        "workspace_mb": stats.metric(stats.median(workload.workspace_bytes) / 1e6, "MB"),
    }
    extra = dict(workload.extra_report(tally, timed))
    extra["failed_frac"] = tally.failed / tally.attempted
    extra["latency"] = lat
    return {"metrics": metrics, "extra": extra}


def _traced(workload: Workload, tally: stats.Tally) -> Dict[str, Any]:
    """Run ``trace_rounds`` rounds, each operation once untraced and once traced.

    The order alternates, so neither side is always the one that runs
    second; per-layer totals sum the traced executions.
    """
    rounds = list(itertools.islice(workload.rounds(), workload.trace_rounds))
    if workload.state_across_rounds:
        workload.before_replay()
        _run_rounds(iter(rounds), stats.Tally())
    units = rounds if workload.replay_whole_rounds else [[op] for ops in rounds for op in ops]
    tr = Tracer()
    untraced_s = traced_s = 0.0
    for number, ops in enumerate(units):
        for traced in (False, True) if number % 2 == 0 else (True, False):
            workload.before_replay()
            if not traced:
                untraced_s += _run_rounds(iter([ops]), tally)
                continue
            workload.set_tracer(tr)
            try:
                traced_s += _run_rounds(iter([ops]), tally, tracer=tr)
            finally:
                tr.uninstall()
                workload.set_tracer(None)
            workload.after_traced(tr)
    workload.trace_counts(tr)
    metrics = layers.layer_metrics(tr, untraced_s, traced_s)
    trace_dir = ROOT / ".perfbench" / "traces"
    tr.write(trace_dir / f"{workload.name}-seed{workload.seed}.jsonl", metrics)
    return {"metrics": metrics, "extra": {"trace_spans": len(tr.spans)}}
