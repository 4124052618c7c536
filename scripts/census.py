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
line reports with exit 0, 1, 1 and 2; a last line totals the exit statuses.
--driver all prints the four drivers' tables in turn, each with its total,
and one line that totals them all.

Usage: python scripts/census.py [--driver identity|...|all] [--draws 60]
       [--N 16384] [--seed 2026]
"""

import argparse
import collections
import importlib.util
import pathlib

import numpy as np

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


def outcome(run):
    """How one run ends: "pass", "fail", "refused" or the name of the
    exception it raised."""
    try:
        report = run()
    except REFUSED:
        return "refused"
    except Exception as exc:
        return type(exc).__name__
    return "pass" if report.all_pass else "fail"


def exit_line(exits):
    return (
        f"exit 0: {exits[0]}, exit 1: {exits[1]}, exit 2: {exits[2]} "
        f"of {sum(exits.values())} runs"
    )


def table(driver, sources, spec, seed):
    """Print the census of one driver and return its count per exit status."""
    run = DRIVERS[driver]
    print(f"{driver} census: {len(sources)} draws, N={spec.N}, seed {seed}")
    exits = collections.Counter()
    for s in ORDERS:
        for name, scale in SCALES:
            counts = collections.Counter(
                outcome(lambda: run(f"{scale!r}*{source}", s, scale, spec))
                for source in sources
            )
            raised = {
                k: v for k, v in sorted(counts.items())
                if k not in ("pass", "fail", "refused")
            }
            shown = ", ".join(f"{k} {v}" for k, v in raised.items())
            print(
                f"  s={s:<5g} scale={name:<6} pass {counts['pass']:3d}  "
                f"fail {counts['fail']:3d}  raise {sum(raised.values()):3d}  "
                f"refused {counts['refused']:3d}" + (f"  ({shown})" if shown else "")
            )
            exits[0] += counts["pass"]
            exits[1] += counts["fail"] + sum(raised.values())
            exits[2] += counts["refused"]
    print(exit_line(exits))
    return exits


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--driver", choices=[*DRIVERS, "all"], default="identity")
    parser.add_argument("--draws", type=int, default=60)
    parser.add_argument("--N", type=int, default=16384)
    parser.add_argument("--seed", type=int, default=2026)
    args = parser.parse_args(argv)
    spec = GridSpec(1, 20.0, args.N)
    sources = draws(args.draws, args.seed)
    if args.driver != "all":
        table(args.driver, sources, spec, args.seed)
        return 0
    total = collections.Counter()
    for driver in DRIVERS:
        total += table(driver, sources, spec, args.seed)
    print(f"all drivers: {exit_line(total)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
