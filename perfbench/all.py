"""Run every workload once, untraced and then traced, and print the reports.

    python3 perfbench/all.py [--seed 1] [--out perfbench/baseline.json]

With `--out`, also records the reports and results with the machine, the
versions and the git commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", help="write the record here as JSON")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    record = {
        "git_sha": git.stdout.strip() if git.returncode == 0 else None,
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "seed": args.seed,
        "run_seconds": spec["run_seconds"],
        "runs": {},
    }
    for workload in spec["workloads"]:
        for trace in (0, 1):
            argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload["name"],
                    "--seed", str(args.seed), "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
            print(proc.stdout + proc.stderr, end="", flush=True)
            if proc.returncode != 0:
                sys.exit(proc.returncode)
            lines = proc.stdout.strip().splitlines()
            record["runs"][f"{workload['name']}/trace{trace}"] = {
                "report": lines[:-1],
                "result": json.loads(lines[-1]),
            }
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
