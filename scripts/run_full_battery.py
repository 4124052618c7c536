#!/usr/bin/env python3
"""Run every experiment at the defaults of its CLI subcommand, twice.

The second pass checks bitwise reproducibility: reports are serialized
with the wall-time field zeroed and compared as bytes. Reports land in
the output directory as JSON; a one-line summary per experiment goes to
stdout.

Usage: python scripts/run_full_battery.py [--out-dir reports]
"""

import argparse
import dataclasses
import pathlib
import sys
import time

from fraclab import experiments
from fraclab.cli import BODIES, parse
from fraclab.reports import report_to_json, write_report
from fraclab.special import kernel_constant


def battery():
    """One report per CLI experiment subcommand, at its default flags."""
    return [
        body(experiments, parse([name])[1])
        for name, body in BODIES.items()
    ]


def frozen_bytes(reports):
    return "".join(
        report_to_json(dataclasses.replace(r, runtime_seconds=0.0))
        for r in reports
    )


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out-dir", default="reports", type=pathlib.Path)
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    print(f"kernel constant C(1, 0.5) = {kernel_constant(1, 0.5)!r}")

    t0 = time.perf_counter()
    first = battery()
    mid = time.perf_counter()
    second = battery()
    done = time.perf_counter()

    failures = 0
    for rep in first:
        write_report(rep, args.out_dir / f"{rep.experiment}.json")
        counts = {}
        for v in rep.verdicts:
            counts[v.status] = counts.get(v.status, 0) + 1
        status = "ok" if rep.all_pass else "FAIL"
        failures += 0 if rep.all_pass else 1
        print(
            f"{rep.experiment:18s} {status:4s} "
            f"verdicts={counts} runtime={rep.runtime_seconds:.2f}s"
        )

    reproducible = frozen_bytes(first) == frozen_bytes(second)
    print(
        f"passes: {mid - t0:.1f}s + {done - mid:.1f}s, "
        f"bitwise reproducible: {reproducible}"
    )
    if not reproducible:
        failures += 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
