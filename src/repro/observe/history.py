"""A Hadoop-JobHistory-style store of finished jobs.

Every job the :class:`~repro.mapreduce.runtime.JobRunner` completes is
appended here as a :class:`JobRecord` — name, counters, per-task stats
for both waves, the simulated-cost breakdown — and :meth:`JobHistory.
report` renders the classic JobHistory text view: a per-wave task table,
the straggler list (tasks well past their wave's median), the blocks
pruned/read ratio, a task-duration histogram and the sorted counter
table. The store lives on the :class:`~repro.core.system.SpatialHadoop`
facade and is pickled with the workspace, so the CLI's ``history``
subcommand can inspect runs from earlier invocations.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass, field
from typing import Any, Deque, Dict, Iterator, List, Optional

from repro.mapreduce.cluster import TaskAttempt, TaskStats
from repro.observe import profile as _profile
from repro.observe.metrics import TASK_DURATION_BUCKETS, Histogram

#: Tasks slower than this multiple of their wave's median are stragglers.
STRAGGLER_FACTOR = 2.0

#: Default cap on retained jobs: bounds workspace growth.
DEFAULT_HISTORY_LIMIT = 200


@dataclass
class JobRecord:
    """One finished job, as retained by the history store."""

    job_id: int
    name: str
    makespan: float
    counters: Dict[str, int]
    map_tasks: List[TaskStats] = field(default_factory=list)
    reduce_tasks: List[TaskStats] = field(default_factory=list)
    #: Simulated-cost breakdown: overhead / map / shuffle / reduce / total.
    cost: Dict[str, float] = field(default_factory=dict)
    #: Fault-tolerance activity (see JobResult.fault_summary); empty for
    #: clean runs.
    fault_summary: Dict[str, float] = field(default_factory=dict)
    #: The job's input files — lets the doctor map retry-prone tasks back
    #: to the partitions of a diagnosed index.
    input_files: List[str] = field(default_factory=list)
    #: Per-phase wall-time attribution (``{"map/kernel": {"s":..,"n":..}}``)
    #: — populated only for jobs run with profiling on; empty otherwise.
    phase_profile: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def pruning_ratio(self) -> Optional[float]:
        """Fraction of the input's blocks the global index pruned."""
        total = self.counters.get("BLOCKS_TOTAL", 0)
        if total <= 0:
            return None
        return self.counters.get("BLOCKS_PRUNED", 0) / total

    def stragglers(self, wave_tasks: List[TaskStats]) -> List[TaskStats]:
        """Tasks of one wave slower than STRAGGLER_FACTOR x wave median."""
        if len(wave_tasks) < 3:
            return []
        seconds = sorted(t.seconds for t in wave_tasks)
        median = seconds[len(seconds) // 2]
        if median <= 0:
            return []
        cutoff = STRAGGLER_FACTOR * median
        return [t for t in wave_tasks if t.seconds > cutoff]

    def duration_histogram(self) -> Histogram:
        hist = Histogram("task_duration_seconds", TASK_DURATION_BUCKETS)
        hist.observe_many(
            t.seconds for t in self.map_tasks + self.reduce_tasks
        )
        return hist

    def tasks_with_attempts(self) -> List[TaskStats]:
        """Tasks whose attempt history is non-trivial (retried, timed
        out, speculated ...), across both waves."""
        return [t for t in self.map_tasks + self.reduce_tasks if t.attempts]

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "JobRecord":
        """Rebuild a record from its :meth:`to_dict` form.

        The inverse used by run-bundle import; ``to_dict`` →
        ``from_dict`` → ``to_dict`` is the round-trip contract.
        """

        def task(d: Dict[str, Any]) -> TaskStats:
            attempts = [TaskAttempt(**a) for a in d.get("attempts") or []]
            return TaskStats(
                task_id=d["task_id"],
                records_in=int(d["records_in"]),
                records_out=int(d["records_out"]),
                seconds=float(d["seconds"]),
                attempts=attempts,
            )

        return cls(
            job_id=int(data["job_id"]),
            name=data["name"],
            makespan=float(data["makespan"]),
            counters=dict(data.get("counters") or {}),
            map_tasks=[task(t) for t in data.get("map_tasks") or []],
            reduce_tasks=[task(t) for t in data.get("reduce_tasks") or []],
            cost=dict(data.get("cost") or {}),
            fault_summary=dict(data.get("fault_summary") or {}),
            input_files=list(data.get("input_files") or []),
            phase_profile={
                key: dict(entry)
                for key, entry in (data.get("phase_profile") or {}).items()
            },
        )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe view of the record (for ``history --format json``)."""
        return {
            "job_id": self.job_id,
            "name": self.name,
            "makespan": self.makespan,
            "counters": dict(sorted(self.counters.items())),
            "map_tasks": [asdict(t) for t in self.map_tasks],
            "reduce_tasks": [asdict(t) for t in self.reduce_tasks],
            "cost": dict(self.cost),
            "fault_summary": dict(self.fault_summary),
            "input_files": list(self.input_files),
            "phase_profile": {
                key: dict(entry)
                for key, entry in sorted(self.phase_profile.items())
            },
        }


class JobHistory:
    """Bounded, ordered store of :class:`JobRecord` entries."""

    def __init__(self, limit: int = DEFAULT_HISTORY_LIMIT):
        self.limit = limit
        self._records: Deque[JobRecord] = deque(maxlen=limit)
        self._next_id = 1
        #: Summaries of fsck runs and of crash recoveries (resumes),
        #: bounded like the job records.
        self._fsck_runs: Deque[Dict[str, Any]] = deque(maxlen=limit)
        self._recoveries: Deque[Dict[str, Any]] = deque(maxlen=limit)

    # -- recording ------------------------------------------------------
    def record(
        self,
        name: str,
        result: Any,
        cost: Optional[Dict[str, float]] = None,
        input_files: Optional[List[str]] = None,
    ) -> JobRecord:
        """Append one finished :class:`JobResult` under ``name``."""
        rec = JobRecord(
            job_id=self._next_id,
            name=name,
            makespan=result.makespan,
            counters=result.counters.as_dict(),
            map_tasks=list(result.map_tasks),
            reduce_tasks=list(result.reduce_tasks),
            cost=dict(cost or {}),
            fault_summary=dict(getattr(result, "fault_summary", {}) or {}),
            input_files=list(input_files or []),
            phase_profile=dict(getattr(result, "phase_profile", {}) or {}),
        )
        self._next_id += 1
        self._records.append(rec)
        return rec

    def record_fsck(self, summary: Dict[str, Any]) -> None:
        """Retain one fsck run's summary for the history report."""
        self._fsck_runs.append(dict(summary))

    @property
    def fsck_runs(self) -> List[Dict[str, Any]]:
        return list(self._fsck_runs)

    def record_recovery(self, summary: Dict[str, Any]) -> None:
        """Retain one crash-recovery (resume) summary for the report."""
        self._recoveries.append(dict(summary))

    @property
    def recoveries(self) -> List[Dict[str, Any]]:
        return list(self._recoveries)

    # -- access ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[JobRecord]:
        return iter(self._records)

    @property
    def total_recorded(self) -> int:
        """Jobs ever recorded (retained or rotated out)."""
        return self._next_id - 1

    def last(self, n: Optional[int] = None) -> List[JobRecord]:
        records = list(self._records)
        if n is None:
            return records
        return records[-max(0, n):] if n else []

    def clear(self) -> None:
        self._records.clear()

    def to_dict(self, last: Optional[int] = None) -> Dict[str, Any]:
        """JSON-safe view of the store (``history --format json``).

        The fsck section and each job's ``phase_profile`` are always
        present (empty when unused), so JSON consumers — and run bundles
        — see one stable shape.
        """
        return {
            "total_recorded": self.total_recorded,
            "retained": len(self._records),
            "jobs": [rec.to_dict() for rec in self.last(last)],
            "fsck_runs": self.fsck_runs,
            "recoveries": self.recoveries,
        }

    @classmethod
    def from_dict(
        cls, data: Dict[str, Any], limit: int = DEFAULT_HISTORY_LIMIT
    ) -> "JobHistory":
        """Rebuild a store from its :meth:`to_dict` form (bundle import)."""
        history = cls(limit=limit)
        for job in data.get("jobs") or []:
            rec = JobRecord.from_dict(job)
            history._records.append(rec)
            history._next_id = max(history._next_id, rec.job_id + 1)
        total = int(data.get("total_recorded") or 0)
        history._next_id = max(history._next_id, total + 1)
        for run in data.get("fsck_runs") or []:
            history._fsck_runs.append(dict(run))
        for run in data.get("recoveries") or []:
            history.record_recovery(run)
        return history

    # -- rendering ------------------------------------------------------
    def report(self, last: Optional[int] = None, counters: bool = True) -> str:
        """The JobHistory text report for the ``last`` N jobs (default all)."""
        records = self.last(last)
        fsck_runs = self.fsck_runs
        recoveries = self.recoveries
        if not records and not fsck_runs and not recoveries:
            return "job history is empty\n"
        lines: List[str] = []
        if records:
            dropped = self.total_recorded - len(self._records)
            lines.append(
                f"=== job history: {len(records)} of {self.total_recorded} "
                f"job(s){f' ({dropped} rotated out)' if dropped else ''} ==="
            )
            for rec in records:
                lines.append("")
                lines.extend(self._render_job(rec, counters))
        if fsck_runs:
            if lines:
                lines.append("")
            lines.append(f"=== fsck: {len(fsck_runs)} run(s) ===")
            for i, run in enumerate(fsck_runs, 1):
                mode = "repair" if run.get("repair") else "check"
                state = "healthy" if run.get("healthy") else "UNHEALTHY"
                lines.append(
                    f"  run #{i} ({mode}): {state} — "
                    f"{run.get('files_checked', 0)} file(s), "
                    f"{run.get('blocks_checked', 0)} block(s), "
                    f"{run.get('issues', 0)} issue(s), "
                    f"{run.get('repaired', 0)} repaired"
                )
                by_code = run.get("by_code") or {}
                for code, count in sorted(by_code.items()):
                    lines.append(f"    {code}: {count}")
        if recoveries:
            if lines:
                lines.append("")
            lines.append(f"=== crash recovery: {len(recoveries)} resume(s) ===")
            for i, run in enumerate(recoveries, 1):
                lines.append(
                    f"  resume #{i}: {run.get('command') or '<unknown command>'}"
                )
                reason = run.get("interrupted_reason")
                if reason:
                    lines.append(f"    interrupted: {reason}")
                lines.append(
                    f"    waves: {run.get('waves_replayed', 0)} replayed "
                    f"from checkpoint, {run.get('waves_executed', 0)} "
                    f"re-executed"
                )
                discarded = run.get("corrupt_checkpoints_discarded", 0)
                if discarded:
                    lines.append(
                        f"    corrupt checkpoints discarded: {discarded}"
                    )
        return "\n".join(lines) + "\n"

    def _render_job(self, rec: JobRecord, counters: bool) -> List[str]:
        lines = [f"job #{rec.job_id}: {rec.name}"]
        if rec.cost:
            parts = " + ".join(
                f"{key} {rec.cost.get(key, 0.0):.3f}s"
                for key in ("overhead", "map", "shuffle", "reduce")
                if key in rec.cost
            )
            lines.append(f"  simulated makespan: {rec.makespan:.3f}s ({parts})")
        else:
            lines.append(f"  simulated makespan: {rec.makespan:.3f}s")

        ratio = rec.pruning_ratio
        total = rec.counters.get("BLOCKS_TOTAL", 0)
        read = rec.counters.get("BLOCKS_READ", 0)
        if ratio is not None:
            lines.append(
                f"  blocks: {read}/{total} read "
                f"({100 * ratio:.1f}% pruned by the global index)"
            )

        for wave, tasks in (("map", rec.map_tasks), ("reduce", rec.reduce_tasks)):
            if not tasks:
                continue
            lines.append(f"  {wave} wave: {len(tasks)} task(s)")
            lines.append(
                "    task-id          records-in  records-out     seconds"
            )
            for t in tasks:
                lines.append(
                    f"    {t.task_id:<16} {t.records_in:>10d}  "
                    f"{t.records_out:>11d}  {t.seconds:>10.6f}"
                )
            stragglers = rec.stragglers(tasks)
            if stragglers:
                seconds = sorted(t.seconds for t in tasks)
                median = seconds[len(seconds) // 2]
                names = ", ".join(
                    f"{t.task_id} ({t.seconds / median:.1f}x median)"
                    for t in stragglers
                )
                lines.append(f"    stragglers: {names}")
            else:
                lines.append("    stragglers: none")

        retried = rec.tasks_with_attempts()
        if retried:
            lines.append(f"  attempts ({len(retried)} task(s) with history):")
            lines.append(
                "    task-id          attempt  outcome           "
                "backoff-s     seconds"
            )
            for t in retried:
                for a in t.attempts:
                    marker = " (speculative)" if a.speculative else ""
                    lines.append(
                        f"    {t.task_id:<16} {a.attempt:>7d}  "
                        f"{a.outcome + marker:<17} "
                        f"{a.backoff_s:>9.3f}  {a.seconds:>10.6f}"
                    )
        fault = rec.fault_summary
        if fault:
            parts = ", ".join(
                f"{key}={value:g}" for key, value in sorted(fault.items())
            )
            lines.append(f"  fault summary: {parts}")

        phases = rec.phase_profile
        if phases:
            lines.append("  phase breakdown (profiled):")
            lines.append(_profile.render_report(phases, indent="    ").rstrip())

        hist = rec.duration_histogram()
        lines.append(
            f"  task-duration histogram "
            f"({hist.count} tasks, mean {hist.mean:.6f}s):"
        )
        lines.append(hist.render(width=30, indent="    "))

        if counters and rec.counters:
            lines.append("  counters:")
            width = max(len(k) for k in rec.counters)
            for name, value in sorted(rec.counters.items()):
                lines.append(f"    {name:<{width}} {value:>12d}")
        return lines
