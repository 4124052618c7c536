#!/usr/bin/env python3
"""Compare the cold start of one CLI command between two source trees.

Each round launches `python -m fraclab.cli COMMAND...` once on each tree,
alternating which tree goes first, and times the whole process. One
untimed start per tree first compiles and caches the byte code, as any
start after the first finds it. Prints each tree's median and quartiles
of the wall time, and its exit statuses. Returns 1, with a line saying
why, when a tree's exit status varies between rounds or the two trees
exit differently: then the timings are not of the same work.

Usage: python scripts/cold_start.py [--rounds 15] OLD_SRC NEW_SRC constants --s 0.5
"""

import argparse
import os
import statistics
import subprocess
import sys
import time


def start(src, command):
    """Wall seconds and exit status of one CLI process on the tree src."""
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "fraclab.cli", *command],
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0, proc.returncode


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
    walls, codes = ([], []), (set(), set())
    for src in trees:
        start(src, args.command)
    for i in range(args.rounds):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            wall, code = start(trees[side], args.command)
            walls[side].append(wall)
            codes[side].add(code)

    print(f"{' '.join(args.command)}: {args.rounds} alternated rounds")
    width = max(len(src) for src in trees)
    for src, w, c in zip(trees, walls, codes):
        q1, _, q3 = statistics.quantiles(w, n=4) if len(w) > 1 else w * 3
        print(
            f"  {src:<{width}}  median {statistics.median(w):.3f} s"
            f"  quartiles {q1:.3f}-{q3:.3f} s  exit {','.join(map(str, sorted(c)))}"
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
