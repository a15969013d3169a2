"""Run one workload on several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload serve_zipf --seeds 1-10

Each run measures for ``run_seconds`` of ``BENCHMARK.json`` with tracing
off. For every metric of the final JSON line: the values in seed order,
the median, the quartiles (``statistics.quantiles(values, n=4)``) and
the spread, the interquartile distance as a share of the median. This
is the steadiness check a benchmark change must pass, and the per-side
summary a change claiming a gain reports for parent and change alike.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from perfbench import stats  # noqa: E402  (needs the path above)


def _seeds(text: str):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="first-last, e.g. 1-10")
    args = parser.parse_args(argv)
    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    values = {}
    units = {}
    for seed in _seeds(args.seeds):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True)
        if done.returncode != 0:
            print(f"seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"seed {seed}: attempted {result['attempted']}, failed {result['failed']}",
              flush=True)
        for name, entry in result["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
            units[name] = entry["unit"]
    for name, series in values.items():
        q1, q2, q3 = stats.quartiles(series)
        print(f"{args.workload} {name} [{units[name]}]: median {q2:.6g}, "
              f"Q1 {q1:.6g}, Q3 {q3:.6g}, spread {stats.spread(series):.4f}; "
              + " ".join(f"{v:.6g}" for v in series))
    return 0


if __name__ == "__main__":
    sys.exit(main())
