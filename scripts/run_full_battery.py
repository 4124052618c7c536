#!/usr/bin/env python3
"""Run every experiment at its default configuration, twice.

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

from fraclab.experiments import (
    convergence_study,
    counterexample_scan,
    interp_sweep,
    sign_sweep,
    truncation_bound_probe,
    verify_identity,
)
from fraclab.grid import GridSpec
from fraclab.reports import report_to_json, write_report
from fraclab.special import kernel_constant

SPEC = GridSpec(1, 20.0, 16384)
SOURCE = "x*exp(-x^2)"


def battery():
    return [
        verify_identity(SOURCE, 1.25, spec=SPEC),
        sign_sweep(SOURCE, [0.25, 0.5, 0.75, 1.1, 1.25, 1.4], spec=SPEC),
        counterexample_scan(
            SOURCE,
            [1.3, 1.4, 1.6, 1.7],
            [80.0, 160.0, 320.0, 640.0, 1280.0],
            spec=SPEC,
        ),
        truncation_bound_probe(
            SOURCE, 1.25, [0.2, 0.1, 0.05, 0.02, 0.01], spec=SPEC
        ),
        interp_sweep(100, seed=42, spec=SPEC),
        convergence_study(SOURCE, 1.25, [2048, 4096, 8192, 16384]),
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
