#!/usr/bin/env python3
"""Compare the benchmark's end-to-end metrics between two source trees.

Each pair runs `python3 bench/run.py --workload W --seconds S` once in each
tree, from that tree's root and with that tree's own bench/, alternating
which tree goes first. For every metric of the result line it prints each
tree's median and quartiles over the runs, the change of the median, and
in how many pairs NEW_TREE read lower than OLD_TREE (ties count for
neither): lower is better for every end-to-end metric. A gain is marked
when NEW_TREE wins at least nine tenths of the pairs and its median is
lower by more than OLD_TREE's interquartile range.

Beside each median of a time it prints the median of the raw wall seconds
from the "raw wall" column of the run's table. The result line's times
are scaled by a speed probe that reads the state of the heap, so a change
to what the program allocates can move a scaled time alone.

When OLD_TREE has a BENCHMARK.json (only read), each of its end-to-end
metrics is judged against its bound, a share of OLD_TREE's median. It is
marked `regression` when NEW_TREE's median is worse by more than that, and
`unresolved` when OLD_TREE's interquartile range is wider than that, unless
every NEW_TREE run beats every OLD_TREE run.

Returns 1, with a line saying why, when a run prints no result line,
reports `correct: false` or counts a failed op: then the timings are not
of the same, correct work. Returns 1 as well when a metric regresses.

Usage: python scripts/bench_pairs.py OLD_TREE NEW_TREE --workload W [--pairs 10] [--seconds 20]
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys


def run(tree, workload, seconds):
    """One benchmark run in tree: its result line as a dict, with the raw
    wall seconds that its table prints under "raw", or None."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)],
        cwd=tree,
        capture_output=True,
        text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-2000:])
        return None
    result["raw"] = raw_walls(lines[:-1])
    return result


def raw_walls(lines):
    """{metric: raw wall seconds} from the rows of bench/run.py's metric
    table: name, value, unit, raw wall and sample count (`n=...`). A row
    without a raw wall has four words and is skipped."""
    raw = {}
    for line in lines:
        words = line.split()
        if len(words) == 5 and words[4].startswith("n="):
            raw[words[0]] = float(words[3])
    return raw


def spread(values):
    """(median, first quartile, third quartile)."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return statistics.median(values), q1, q3


def shown(values, raw):
    """A tree's median and quartiles of a metric, then the median of its
    raw wall seconds when every run printed one."""
    median, q1, q3 = spread(values)
    text = f"{median:.4g} ({q1:.4g}-{q3:.4g})"
    if None not in raw:
        text += f" raw {statistics.median(raw):.4g}"
    return text


def bounds(tree):
    """{metric: bound} of the end-to-end metrics in tree's BENCHMARK.json;
    {} when the tree has none."""
    path = pathlib.Path(tree) / "BENCHMARK.json"
    if not path.is_file():
        return {}
    return {m["name"]: m["bound"] for m in json.loads(path.read_text())["end_to_end"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("old", help="the root of the parent tree")
    ap.add_argument("new", help="the root of the changed tree")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    args = ap.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        ap.error("need at least one pair and a positive run length")

    trees = (args.old, args.new)
    results = ([], [])
    for i in range(args.pairs):
        for side in (0, 1) if i % 2 == 0 else (1, 0):
            result = run(trees[side], args.workload, args.seconds)
            if result is None:
                print(f"a run in {trees[side]} printed no result line")
                return 1
            results[side].append(result)

    print(f"{args.workload}: {args.pairs} alternated pairs of {args.seconds:g} s runs")
    names = list(results[1][0]["metrics"])
    width = max(len(n) for n in names)
    judged, regressed = bounds(args.old), []
    for name in names:
        old, new = ([r["metrics"][name]["value"] for r in side] for side in results)
        raw_old, raw_new = ([r["raw"].get(name) for r in side] for side in results)
        unit = results[1][0]["metrics"][name]["unit"]
        wins = sum(b < a for a, b in zip(old, new))
        (m_old, q1_old, q3_old), (m_new, _, _) = spread(old), spread(new)
        change = f"{(m_new - m_old) / m_old:+.1%}" if m_old else "n/a"
        marks = []
        if wins >= 0.9 * args.pairs and m_old - m_new > q3_old - q1_old:
            marks.append("gain")
        if name in judged:
            allowed = judged[name] * m_old
            if m_new - m_old > allowed:
                marks.append("regression")
                regressed.append(name)
            if q3_old - q1_old > allowed and not max(new) < min(old):
                marks.append("unresolved")
        print(
            f"  {name:<{width}}  old {shown(old, raw_old)}  new {shown(new, raw_new)} {unit}"
            f"  {change}  new wins {wins} of {args.pairs}"
            + "".join(f"  {m}" for m in marks)
        )
    for tree, side in zip(trees, results):
        if not all(r["correct"] for r in side):
            print(f"a run in {tree} is not correct")
            return 1
        if any(r["failed"] for r in side):
            print(f"a run in {tree} failed ops")
            return 1
    if regressed:
        where = f"{args.old}/BENCHMARK.json"
        print(f"worse than the bound of {where}: {', '.join(regressed)}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
