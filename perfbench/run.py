"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root. With ``--trace 0`` the last line of
standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run (spans
go to ``.perfbench/traces/``). ``--workload all`` runs every workload,
each in its own process, and prints one table of every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402  (needs the path above)


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _human(name: str, report: dict) -> None:
    """Every metric by name with its unit, before the JSON line."""
    for metric, entry in report["metrics"].items():
        print(f"{name} {metric} = {entry['value']:.6g} {entry['unit']}")
    extra = report.get("extra", {})
    latency = extra.get("latency")
    if latency is not None:
        if "tail_ms" in latency:
            print(f"{name} latency_tail_ms = {latency['tail_ms']:.6g} ms "
                  f"(p{latency['tail_percentile']:.4g} of {latency['samples']} samples, "
                  f"{latency['tail_beyond']} beyond)")
        else:
            print(f"{name} latency_tail_ms omitted: {latency['samples']} samples, "
                  "too few for ten beyond p90 or higher")
    if "failed_frac" in extra:
        print(f"{name} failed_frac = {extra['failed_frac']:.6g} "
              f"({report['failed']} of {report['attempted']})")
    for key in ("records_per_s", "cache_hit_ratio", "cache_evictions", "trace_spans"):
        if key in extra:
            print(f"{name} {key} = {extra[key]:.6g}")
    if report.get("first_failure"):
        print(f"{name} first failure: {report['first_failure']}")


def _stop_resource_tracker() -> None:
    """Stop and wait for multiprocessing's helper process, if shared memory started it."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def _run_all(args) -> int:
    code = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        print("\n".join(line for line in lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(f"{name}: failed with exit code {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            code = 1
    return code


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # Hygiene: the measured program is the default one, whatever the shell set.
    for var in workloads.HYGIENE_VARS:
        os.environ.pop(var, None)
    if args.workload == "all":
        return _run_all(args)

    import numpy

    from repro.geometry import vectorized

    print(f"numpy {numpy.__version__}, vectorize mode {vectorized.mode()}, "
          f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    workdir = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        _stop_resource_tracker()
    _human(args.workload, report)
    print(json.dumps({
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
