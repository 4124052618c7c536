#!/usr/bin/env python3
"""Count how a `fraclab` driver ends on random admissible inputs.

Draws --draws inputs from bench/workloads.sign_change_source (only read),
with 1, 2 and 3 simple roots in turn, from one generator seeded by --seed.
Each input runs through the --driver on GridSpec(1, 20, N) at the orders
s = 0.3, 0.75, 1.25 and 1.45 and at the input scales 1, 2^20 and 2^-20:
identity and sign-sweep at that order, truncation-bound with the command
line's eps levels times the scale, and convergence on the resolutions N/4,
N/2 and N. For each (s, scale) it prints how many runs pass (no verdict
fails), fail, raise (by exception type) and are refused, which the command
line reports with exit 0, 1, 1 and 2, and how many of the runs that end
with a report have an estimate that lies: a record with both routes'
values and error estimates, whose values differ by more than the two
estimates together. A last line totals the exit statuses. --driver all
prints the four drivers' tables in turn, each with its total, and one
line that totals them all. --json prints the same tables and totals as
one JSON document instead. --tree OLD_SRC first runs the same census on
the fraclab sources in OLD_SRC, in a child process whose PYTHONPATH is
OLD_SRC alone, and prints its tables before this tree's; with --json the
two documents are printed as one list, each under its source path.

Usage: python scripts/census.py [--driver identity|...|all] [--draws 60]
       [--N 16384] [--seed 2026] [--json] [--tree OLD_SRC]
"""

import argparse
import collections
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import fraclab
from fraclab.cli import REFUSED, parse
from fraclab.experiments import (
    convergence_study, sign_sweep, truncation_bound_probe, verify_identity,
)
from fraclab.grid import GridSpec

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
ORDERS = (0.3, 0.75, 1.25, 1.45)
SCALES = (("1", 1.0), ("2^20", 2.0**20), ("2^-20", 2.0**-20))
EPS = parse(["truncation-bound"])[1]["eps_list"]  # the command line's levels
# driver name -> run(source, s, scale, spec) -> report
DRIVERS = {
    "identity": lambda source, s, scale, spec: verify_identity(source, s, spec),
    "sign-sweep": lambda source, s, scale, spec: sign_sweep(source, [s], spec),
    "truncation-bound": lambda source, s, scale, spec: truncation_bound_probe(
        source, s, [scale * e for e in EPS], spec
    ),
    "convergence": lambda source, s, scale, spec: convergence_study(
        source, s, [spec.N // 4, spec.N // 2, spec.N], spec.L
    ),
}


def draws(count, seed):
    """The census's input sources, 1, 2 and 3 roots in turn."""
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    rng = np.random.default_rng(seed)
    return [workloads.sign_change_source(rng, 1 + i % 3) for i in range(count)]


def lies(record):
    """Whether a record holds both routes' values and error estimates and
    the values lie farther apart than the two estimates together."""
    if None in (record.kernel_value, record.spectral_error, record.kernel_error):
        return False
    gap = abs(record.spectral_value - record.kernel_value)
    return gap > record.spectral_error + record.kernel_error


def outcome(run):
    """How one run ends, "pass", "fail", "refused" or the name of the
    exception it raised, and whether an estimate of its report lies."""
    try:
        report = run()
    except REFUSED:
        return "refused", False
    except Exception as exc:
        return type(exc).__name__, False
    return "pass" if report.all_pass else "fail", any(map(lies, report.results))


def census(driver, sources, spec):
    """One row per (s, scale): how the driver's runs on sources end, the
    exceptions they raise by type, and how many runs' estimates lie."""
    run = DRIVERS[driver]
    rows = []
    for s in ORDERS:
        for name, scale in SCALES:
            ends = [
                outcome(lambda: run(f"{scale!r}*{source}", s, scale, spec))
                for source in sources
            ]
            counts = collections.Counter(end for end, _ in ends)
            rows.append({
                "s": s,
                "scale": name,
                "pass": counts.pop("pass", 0),
                "fail": counts.pop("fail", 0),
                "refused": counts.pop("refused", 0),
                "raise": dict(sorted(counts.items())),
                "lies": sum(lied for _, lied in ends),
            })
    return rows


def exits(rows):
    """The runs of rows per exit status of the command line."""
    return collections.Counter({
        0: sum(row["pass"] for row in rows),
        1: sum(row["fail"] + sum(row["raise"].values()) for row in rows),
        2: sum(row["refused"] for row in rows),
    })


def exit_line(exits):
    return (
        f"exit 0: {exits[0]}, exit 1: {exits[1]}, exit 2: {exits[2]} "
        f"of {sum(exits.values())} runs"
    )


def print_table(driver, rows, args):
    print(f"{driver} census: {args.draws} draws, N={args.N}, seed {args.seed}")
    for row in rows:
        shown = ", ".join(f"{k} {v}" for k, v in row["raise"].items())
        print(
            f"  s={row['s']:<5g} scale={row['scale']:<6} pass {row['pass']:3d}  "
            f"fail {row['fail']:3d}  raise {sum(row['raise'].values()):3d}  "
            f"refused {row['refused']:3d}  lies {row['lies']:3d}"
            + (f"  ({shown})" if shown else "")
        )
    print(exit_line(exits(rows)))


def document(tables, args):
    """The JSON document of the census tables."""
    return {
        "draws": args.draws,
        "N": args.N,
        "seed": args.seed,
        "drivers": {
            driver: {"rows": rows, "exits": exits(rows)}
            for driver, rows in tables.items()
        },
        "exits": sum(map(exits, tables.values()), collections.Counter()),
    }


def old_tree(tree, args):
    """What this script prints with args, less --tree, on the fraclab
    sources in tree."""
    argv = [
        "--driver", args.driver, "--draws", str(args.draws),
        "--N", str(args.N), "--seed", str(args.seed),
    ] + ["--json"] * args.json
    res = subprocess.run(
        [sys.executable, __file__, *argv],
        env=dict(os.environ, PYTHONPATH=tree),
        stdout=subprocess.PIPE,
        text=True,
    )
    if res.returncode:
        raise SystemExit(f"the census of {tree} exited with status {res.returncode}")
    return res.stdout


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--driver", choices=[*DRIVERS, "all"], default="identity")
    parser.add_argument("--draws", type=int, default=60)
    parser.add_argument("--N", type=int, default=16384)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--json", action="store_true")
    parser.add_argument("--tree", metavar="OLD_SRC")
    args = parser.parse_args(argv)
    src = str(pathlib.Path(fraclab.__file__).resolve().parent.parent)
    if args.tree:
        old = old_tree(args.tree, args)
        if not args.json:
            print(f"tree {args.tree}:\n{old}tree {src}:")
    spec = GridSpec(1, 20.0, args.N)
    sources = draws(args.draws, args.seed)
    drivers = list(DRIVERS) if args.driver == "all" else [args.driver]
    tables = {}
    for driver in drivers:
        tables[driver] = census(driver, sources, spec)
        if not args.json:
            print_table(driver, tables[driver], args)
    doc = document(tables, args)
    if args.json and args.tree:
        print(json.dumps([
            {"src": args.tree, "census": json.loads(old)},
            {"src": src, "census": doc},
        ], indent=2))
    elif args.json:
        print(json.dumps(doc, indent=2))
    elif args.driver == "all":
        print(f"all drivers: {exit_line(doc['exits'])}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
