"""Unit tests for the crash-recovery layer: framing, manifest, manager,
cancellation tokens, driver-fault parsing, and the runner's wave
journal/replay/crash machinery."""

import json
import pickle
import pickletools
import signal
import struct
import zlib

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.mapreduce.checkpoint import (
    MAGIC,
    CancellationToken,
    CheckpointCorruptError,
    CheckpointManager,
    CheckpointNotFoundError,
    DeadlineExceeded,
    DriverCrashed,
    RunCancelled,
    check_active,
    default_checkpoint_dir,
    fsck_checkpoints,
    list_runs,
    read_checkpoint_file,
    set_active_token,
    write_checkpoint_file,
)
from repro.mapreduce import FileSystem, Job, JobRunner
from repro.mapreduce.faults import DriverFault, FaultPlan
from repro.mapreduce.types import TaskResult


# ----------------------------------------------------------------------
# Wave-file framing
# ----------------------------------------------------------------------
class TestFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "wave.ckpt"
        payload = {"fingerprint": "0|map|3", "payload": [1, (2, "x"), None]}
        write_checkpoint_file(path, payload)
        assert path.read_bytes().startswith(MAGIC)
        assert read_checkpoint_file(path) == payload

    def test_truncation_is_typed(self, tmp_path):
        path = tmp_path / "wave.ckpt"
        write_checkpoint_file(path, list(range(100)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint_file(path)

    def test_bitflip_is_typed(self, tmp_path):
        path = tmp_path / "wave.ckpt"
        write_checkpoint_file(path, list(range(100)))
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint_file(path)

    def test_wrong_magic_is_typed(self, tmp_path):
        path = tmp_path / "wave.ckpt"
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointCorruptError, match="magic"):
            read_checkpoint_file(path)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_file(tmp_path / "absent.ckpt")

    def test_default_dir_sits_next_to_workspace(self, tmp_path):
        ws = tmp_path / "ws.pkl"
        assert default_checkpoint_dir(ws) == tmp_path / "ws.pkl.ckpt"


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_create_commit_load_replay(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(
            directory, argv=["knn", "pts"], workspace="ws.pkl"
        )
        assert manager.status == "running"
        assert manager.commit(0, "0|map|2", ("datas", "attempts", {}))
        assert manager.commit(1, "1|reduce|1", ("d2", "a2", {}))
        manager.interrupt("crashdriver:1")

        resumed = CheckpointManager.load(directory)
        assert resumed.status == "interrupted"
        assert resumed.argv == ["knn", "pts"]
        assert resumed.waves_available == 2
        assert resumed.replay(0, "0|map|2") == ("datas", "attempts", {})
        assert resumed.replay(2, "2|map|9") is None  # never journaled
        assert resumed.waves_replayed == 1

    def test_stale_fingerprint_raises(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "0|map|2", "x")
        resumed = CheckpointManager.load(directory)
        with pytest.raises(CheckpointCorruptError, match="stale"):
            resumed.replay(0, "0|map|99")

    def test_torn_wave_is_a_cache_miss(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "0|map|2", "x")
        manager.tear_wave_file(0, 0.4)
        resumed = CheckpointManager.load(directory)
        assert resumed.replay(0, "0|map|2") is None
        assert len(resumed.corrupt_skipped) == 1

    def test_unpicklable_commit_is_skipped_not_fatal(self, tmp_path):
        manager = CheckpointManager.create(tmp_path / "run.ckpt")
        assert manager.commit(0, "fp", lambda: None) is False
        assert manager.waves_committed == 0

    def test_mark_fired_persists_before_effect(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.mark_fired((3, 0))
        assert CheckpointManager.load(directory).fired == {(3, 0)}

    def test_finish_garbage_collects(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "fp", "x")
        manager.finish()
        assert not directory.exists()
        with pytest.raises(CheckpointNotFoundError):
            CheckpointManager.load(directory)

    def test_corrupt_manifest_is_typed(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        CheckpointManager.create(directory)
        (directory / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError):
            CheckpointManager.load(directory)

    def test_manifest_wrong_shape_is_typed(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        CheckpointManager.create(directory)
        (directory / "MANIFEST.json").write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointCorruptError):
            CheckpointManager.load(directory)


class TestHygiene:
    def test_list_runs(self, tmp_path):
        a = CheckpointManager.create(
            tmp_path / "a.ckpt", argv=["knn", "pts"]
        )
        a.commit(0, "fp", "x")
        a.interrupt("crashdriver:0")
        CheckpointManager.create(tmp_path / "b.ckpt", argv=["hull", "pts"])
        (tmp_path / "c.ckpt").mkdir()
        (tmp_path / "c.ckpt" / "MANIFEST.json").write_text("{rotten")
        runs = {run["directory"]: run for run in list_runs(tmp_path)}
        assert len(runs) == 3
        assert runs[str(tmp_path / "a.ckpt")]["status"] == "interrupted"
        assert runs[str(tmp_path / "a.ckpt")]["waves"] == 1
        assert runs[str(tmp_path / "b.ckpt")]["status"] == "running"
        assert runs[str(tmp_path / "c.ckpt")]["status"] == "corrupt"

    def test_fsck_checkpoints_reports_and_repairs(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "fp0", "x")
        manager.commit(1, "fp1", "y")
        manager.tear_wave_file(1, 0.3)
        issues = fsck_checkpoints(directory)
        assert [i["code"] for i in issues] == ["checkpoint-corrupt"]
        assert not issues[0]["repaired"]
        repaired = fsck_checkpoints(directory, repair=True)
        assert repaired[0]["repaired"]
        assert not (directory / "wave-00001.ckpt").exists()
        assert fsck_checkpoints(directory) == []


# ----------------------------------------------------------------------
# Cancellation tokens
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_cancel_raises_at_check(self):
        token = CancellationToken()
        token.check()  # not cancelled: no-op
        token.cancel("signal 15", signum=signal.SIGTERM)
        assert token.signum == signal.SIGTERM
        with pytest.raises(RunCancelled, match="signal 15"):
            token.check()

    def test_simulated_hang_trips_deadline_without_sleeping(self):
        token = CancellationToken(deadline_s=5.0)
        token.check()
        token.add_hang(30.0)
        with pytest.raises(DeadlineExceeded, match="injected driver stall"):
            token.check()

    def test_active_token_polls_and_clears(self):
        token = CancellationToken()
        token.cancel("stop")
        set_active_token(token)
        try:
            with pytest.raises(RunCancelled):
                check_active()
        finally:
            set_active_token(None)
        check_active()  # cleared: no-op again


# ----------------------------------------------------------------------
# Fault-plan grammar
# ----------------------------------------------------------------------
class TestDriverFaultParsing:
    def test_crashdriver_with_wave(self):
        plan = FaultPlan.parse("crashdriver:2")
        assert plan.driver == (DriverFault("crashdriver", wave=2),)
        assert plan.driver_at(2) == [(0, plan.driver[0])]
        assert plan.driver_at(1) == []

    def test_crashdriver_wildcard_and_tear_fraction(self):
        plan = FaultPlan.parse("crashdriver:*:0.5")
        (pair,) = plan.driver_at(7)
        assert pair[1].arg == 0.5

    def test_hangdriver_seconds(self):
        plan = FaultPlan.parse("hangdriver:1:30")
        assert plan.driver[0].kind == "hangdriver"
        assert plan.driver[0].arg == 30.0

    def test_describe_roundtrips(self):
        spec = "crash:map:0,crashdriver:2,hangdriver:*:3.5"
        assert FaultPlan.parse(spec).describe() == spec

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("crashdriver:1:2.0")  # tear fraction > 1
        with pytest.raises(ValueError):
            FaultPlan.parse("hangdriver:1:-3")  # negative stall
        with pytest.raises(ValueError):
            FaultPlan.parse("crashdriver:1:0.5:9")  # too many fields

    def test_mixed_plan_keeps_task_faults(self):
        plan = FaultPlan.parse("kill:map:1,crashdriver:0")
        assert len(plan.specs) == 1
        assert len(plan.driver) == 1


# ----------------------------------------------------------------------
# Runner integration: journal, replay, crash, resume
# ----------------------------------------------------------------------
def small_workspace(**kwargs):
    sh = SpatialHadoop(
        num_nodes=2, block_capacity=200, job_overhead_s=0.01, **kwargs
    )
    sh.load("pts", generate_points(800, "uniform", seed=3))
    sh.index("pts", "pts_idx", technique="str")
    return sh


WINDOW = Rectangle(1e5, 1e5, 8e5, 8e5)


class TestRunnerCheckpointing:
    def test_fault_free_run_commits_then_gc(self, tmp_path):
        sh = small_workspace()
        manager = sh.enable_checkpoints(tmp_path / "run.ckpt")
        want = sh.range_query("pts_idx", WINDOW)
        assert manager.waves_committed >= 1
        snap = sh.metrics.snapshot()["counters"]
        assert snap.get("CHECKPOINTS_WRITTEN", 0) == manager.waves_committed
        manager.finish()
        assert not (tmp_path / "run.ckpt").exists()
        # And the journaled run's answer matches an unjournaled one.
        plain = small_workspace().range_query("pts_idx", WINDOW)
        assert want.answer == plain.answer

    def test_crashdriver_fires_once_and_resume_replays(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        clean = small_workspace().range_query("pts_idx", WINDOW)

        # Faults are armed after the build: like the CLI, where the plan
        # is per-invocation and the workspace was built by earlier ones.
        crashed = small_workspace()
        crashed.runner.set_faults("crashdriver:0")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            crashed.range_query("pts_idx", WINDOW)
        assert CheckpointManager.load(directory).status == "interrupted"

        resumed = small_workspace()
        resumed.runner.set_faults("crashdriver:0")
        manager = resumed.resume(directory)
        got = resumed.range_query("pts_idx", WINDOW)
        assert got.answer == clean.answer
        assert got.counters.as_dict() == clean.counters.as_dict()
        assert manager.waves_replayed >= 1
        assert resumed.metrics.snapshot()["counters"].get("RESUMES") == 1

    def test_deadline_stops_at_boundary_and_is_resumable(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        clean = small_workspace().range_query("pts_idx", WINDOW)

        sh = small_workspace()
        sh.runner.set_faults("hangdriver:0:99")
        manager = sh.enable_checkpoints(directory)
        sh.set_deadline(5.0)
        with pytest.raises(DeadlineExceeded):
            sh.range_query("pts_idx", WINDOW)
        manager.interrupt("deadline")
        # The hang charged simulated seconds, never wall time, and the
        # wave that completed before the stall is journaled.
        assert manager.waves_committed >= 1

        resumed = small_workspace()
        resumed.runner.set_faults("hangdriver:0:99")
        resumed.resume(directory)
        got = resumed.range_query("pts_idx", WINDOW)
        assert got.answer == clean.answer

    def test_cancel_mid_run_raises_at_task_boundary(self):
        sh = small_workspace()
        token = sh.set_deadline(None) or CancellationToken()
        sh.runner.set_cancellation(token)
        token.cancel("user asked")
        with pytest.raises(RunCancelled):
            sh.range_query("pts_idx", WINDOW)
        sh.runner.set_cancellation(None)
        assert sh.range_query("pts_idx", WINDOW).answer  # runs again fine

    def test_runner_pickles_without_checkpoint_state(self, tmp_path):
        sh = small_workspace()
        sh.enable_checkpoints(tmp_path / "run.ckpt")
        sh.set_deadline(10.0)
        clone = pickle.loads(pickle.dumps(sh))
        assert clone.runner.checkpoint is None
        assert clone.runner.cancellation is None
        assert clone.range_query("pts_idx", WINDOW).answer


def _emit_points(_key, records, ctx):
    for record in records:
        ctx.emit(0, record)
        ctx.write_output(record)


def _journaled_point_run(directory):
    """A map-only job over 100 points, journaled into ``directory``."""
    fs = FileSystem(default_block_capacity=100)
    fs.create_file("pts", [Point(float(i), 2.0 * i) for i in range(100)])
    runner = JobRunner(fs)
    manager = CheckpointManager.load(directory) if directory.exists() else (
        CheckpointManager.create(directory, argv=["emit"])
    )
    runner.set_checkpoint(manager)
    result = runner.run(Job(input_file="pts", map_fn=_emit_points))
    return result, manager


class TestTaskResultJournal:
    def test_task_result_records_are_journaled_as_columns(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        result, manager = _journaled_point_run(directory)
        assert manager.waves_committed == 1
        raw = (directory / "wave-00000.ckpt").read_bytes()
        names = {
            arg for _op, arg, _pos in pickletools.genops(raw[len(MAGIC) + 13:])
            if isinstance(arg, str)
        }
        # The 100 emitted and 100 output Points travel as float columns:
        # no Point object is pickled, the columnar thaw hook is.
        assert "_thaw_records" in names
        assert "Point" not in names
        datas, _attempts, _summary = read_checkpoint_file(
            directory / "wave-00000.ckpt"
        )["payload"]
        [task] = datas
        assert isinstance(task, TaskResult)
        assert task.task_id == "map-0"
        assert task.output == result.output[:100]
        assert task.emitted == [(0, p) for p in task.output]

    def test_v1_wave_file_replays_as_a_miss(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        clean, _ = _journaled_point_run(directory)
        # Rewrite the journaled wave the way the v1 format framed it:
        # positional task tuples under a version-1 header.
        payload = pickle.dumps({
            "fingerprint": "0|map|1",
            "payload": ([("map-0", 100, {}, [], [], 0.0, [], {})], [[]], {}),
        })
        (directory / "wave-00000.ckpt").write_bytes(
            MAGIC
            + struct.pack(">BIQ", 1, zlib.crc32(payload), len(payload))
            + payload
        )
        with pytest.raises(CheckpointCorruptError, match="format v1"):
            read_checkpoint_file(directory / "wave-00000.ckpt")

        again, manager = _journaled_point_run(directory)
        assert manager.waves_replayed == 0
        assert [index for index, _ in manager.corrupt_skipped] == [0]
        assert again.output == clean.output
        assert again.counters.as_dict() == clean.counters.as_dict()


class TestExecutorShutdownGuards:
    def test_parallel_close_is_idempotent_and_silent(self):
        from repro.mapreduce.executor import ParallelExecutor

        ex = ParallelExecutor(workers=2)
        assert ex.map_chunks(len, [[1, 2], [3]]) == [2, 1]
        ex.close()
        ex.close()  # double close from the deadline path: no-op
        ex.close(wait=False)  # and from __del__: still no-op

        class _BrokenPool:
            def shutdown(self, *a, **k):
                raise RuntimeError("mid-teardown")

        ex._pool = _BrokenPool()
        ex.close()  # never raises, even with a broken pool
        assert ex._pool is None

    def test_keyboard_interrupt_mid_wave_leaves_no_shm(self, monkeypatch):
        from repro.mapreduce import shm
        from repro.mapreduce.executor import ParallelExecutor

        sh = small_workspace(workers=2)
        seen = {}

        def boom(self, fn, chunks, shipped, arena, prepare_s=0.0):
            # The wave's shared-memory arena is live at this point; a
            # Ctrl-C here must still unwind through its cleanup.
            seen["arena_live"] = arena is not None and bool(
                shm.live_segments()
            )
            raise KeyboardInterrupt

        monkeypatch.setattr(ParallelExecutor, "_map_chunks_pooled", boom)
        try:
            with pytest.raises(KeyboardInterrupt):
                sh.range_query("pts_idx", WINDOW)
        finally:
            sh.runner.close()
        assert seen["arena_live"]
        assert shm.live_segments() == []
