#!/usr/bin/env python3
"""Compare the cold start of one CLI command between two source trees.

Each round launches `python -m fraclab.cli COMMAND...` once on each tree,
alternating which tree goes first, and times the whole process. One
untimed start per tree first compiles and caches the byte code, as any
start after the first finds it. Prints each tree's median and quartiles
of the wall time, the median peak RSS and minor page faults of its
processes (from the rusage that os.wait4 returns), and its exit
statuses. The faults show the heap churn of a plain process, which grows
with the temporaries it allocates and frees. Returns 1, with a line
saying why, when a tree's exit status varies between rounds or the two
trees exit differently: then the timings are not of the same work.

Usage: python scripts/cold_start.py [--rounds 15] OLD_SRC NEW_SRC constants --s 0.5
"""

import argparse
import os
import statistics
import subprocess
import sys
import time
from typing import NamedTuple


class Start(NamedTuple):
    """One CLI process: wall seconds, peak RSS in KiB, minor page faults
    and exit status."""

    wall: float
    rss_kib: int
    minflt: int
    code: int


def start(src, command):
    """Run one CLI process on the tree src."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "fraclab.cli", *command],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is in KiB on Linux
    return Start(wall, usage.ru_maxrss, usage.ru_minflt, proc.returncode)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("old", help="the src directory of one tree")
    ap.add_argument("new", help="the src directory of the other")
    ap.add_argument("command", nargs=argparse.REMAINDER)
    args = ap.parse_args(argv)
    if args.rounds < 1 or not args.command:
        ap.error("need at least one round and a command")

    trees = (args.old, args.new)
    runs = ([], [])
    for src in trees:
        start(src, args.command)
    for i in range(args.rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            runs[side].append(start(trees[side], args.command))
    codes = tuple({r.code for r in side} for side in runs)

    print(f"{' '.join(args.command)}: {args.rounds} alternated rounds")
    width = max(len(src) for src in trees)
    for src, side, c in zip(trees, runs, codes):
        w = [r.wall for r in side]
        q1, _, q3 = statistics.quantiles(w, n=4) if len(w) > 1 else w * 3
        rss = statistics.median(r.rss_kib for r in side) / 1024.0
        faults = statistics.median(r.minflt for r in side)
        print(
            f"  {src:<{width}}  median {statistics.median(w):.3f} s"
            f"  quartiles {q1:.3f}-{q3:.3f} s  peak rss {rss:.1f} MiB"
            f"  minor faults {faults:,.0f}  exit {','.join(map(str, sorted(c)))}"
        )
    if any(len(c) > 1 for c in codes):
        print("a tree's exit status varies between rounds")
        return 1
    if codes[0] != codes[1]:
        print("the two trees exit with different statuses")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
