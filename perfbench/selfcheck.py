"""Determinism self-check: every count metric is a function of the seed.

Runs each workload for a fixed number of steps (``run.py --ops``) twice,
in fresh interpreters under two different ``PYTHONHASHSEED`` values, and
requires every count the run reports — hits, committed updates, wire
bytes, router candidates/notified, ``server.plan.*``, ``sync.batch.*``,
``core.qc.cache.*``, virtual-clock staleness, gate results — to match
exactly.  Timings are not compared.

Usage (from the repository root)::

    python3 perfbench/selfcheck.py [--seed 7] [workload ...]

Exits 1 and prints every differing count when a workload drifts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
#: Fixed steps per workload: queries for the replica workloads, ticks
#: for persist_fanout.
STEPS = {"read_hot": 3000, "poll_churn": 1500, "persist_fanout": 12}
HASH_SEEDS = ("1", "2")


def _launch(workload: str, seed: int, hash_seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    cmd = [
        sys.executable,
        os.path.join(HERE, "run.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--ops", str(STEPS[workload]),
        "--trace", "0",
    ]
    return subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)


def _counts(proc: subprocess.Popen) -> dict:
    out, _ = proc.communicate()
    for line in out.splitlines():
        if line.startswith("COUNTS "):
            return json.loads(line[len("COUNTS "):])
    raise RuntimeError(f"no COUNTS line (exit {proc.returncode}):\n{out}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(STEPS))
    args = parser.parse_args(argv)
    drift = False
    for workload in args.workloads:
        procs = [_launch(workload, args.seed, h) for h in HASH_SEEDS]
        first, second = (_counts(p) for p in procs)
        diffs = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
        status = "ok" if not diffs else "DRIFT"
        print(f"{workload}: {len(first)} counts, {status}")
        for key in diffs:
            print(f"  {key}: {first.get(key)} != {second.get(key)}")
        drift = drift or bool(diffs)
    return 1 if drift else 0


if __name__ == "__main__":
    sys.exit(main())
