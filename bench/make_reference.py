#!/usr/bin/env python3
"""Rewrite bench/reference.json: the digest of every op's frozen report.

A frozen report is the report JSON with ``runtime_seconds`` set to zero, or
the error line of an op that raised. Digests cover every op of every
workload for the seeds in REFERENCE_SEEDS; run.py counts ops whose outcome
differs as ``report_mismatch``. Regenerate only when a change alters report
values on purpose, and say which values and why.

    python3 bench/make_reference.py
"""

from __future__ import annotations

import json
import sys

import run

REFERENCE_SEEDS = [*range(32), 42]


def main():
    run.prepare()
    import workloads

    ops = {}
    for name in workloads.WORKLOADS:
        for seed in REFERENCE_SEEDS:
            for op in workloads.WORKLOADS[name](seed):
                ops.setdefault(run.digest(op.key), op)
    runner = run.Runner(list(ops.values()))
    table = {}
    for i, (key, op) in enumerate(ops.items()):
        _, outcome = runner.run_op(op)
        if outcome.kind == "crash":
            raise SystemExit(f"op crashed, no reference written: {op.key}")
        table[key] = outcome.digest
        print(f"{i + 1}/{len(ops)}", file=sys.stderr, end="\r")
    run.REFERENCE.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {run.REFERENCE}")


if __name__ == "__main__":
    main()
