#!/usr/bin/env python3
"""fraclab benchmark: one caller runs public fraclab experiments in a closed loop.

An op is one experiment driver call followed by serialising its report with
``fraclab.reports.report_to_json``, which is what ``fraclab <cmd> --out r.json``
does minus process start-up. A pass runs the workload's op list once; the
run repeats passes for ``--seconds`` after one untimed warm-up op.

    python3 bench/run.py --workload battery --seed 42 --seconds 20 --trace 0

Run from the repository root: the program is imported from ``src/``. With
``--trace 0`` the last stdout line holds the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a separate traced run. Lines above it
print every metric with its unit, raw wall time and sample count. Times are
scaled to a reference machine speed (see speed.py). The run exits 1 when an
op's report differs from its reference or from an earlier pass.
See bench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import pathlib
import resource
import statistics
import subprocess
import sys
import time
import traceback
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = pathlib.Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# one BLAS thread and no fraclab thread pool, here and in child processes
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

SETUP_RUNS = 3
# after each timed interval, probe the machine speed for this share of it
PROBE_SHARE = 0.02
SETUP_CMD = ["-m", "fraclab.cli", "constants", "--s", "0.5"]
SETUP_OUT = "C(1, 0.5) = 0.3183098861837907\n"

DRIVERS = (
    "verify_identity",
    "sign_sweep",
    "counterexample_scan",
    "truncation_bound_probe",
    "interp_sweep",
    "convergence_study",
)

# every end-to-end metric, printed in this order on every workload
PRINTED_UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "op_s_p50": "s",
    "op_s_p90": "s",
    "error_share": "ratio",
    "fail_share": "ratio",
    "inconclusive_share": "ratio",
    "max_discrepancy": "ratio",
    "report_mismatch": "count",
    "peak_rss_mb": "MiB",
}
# the ones in the result line; the shares, max_discrepancy and report_mismatch
# are zero, undefined or seed-dependent on some workloads, so they are printed
# only, and a report mismatch fails the run instead
END_TO_END_UNITS = {
    k: PRINTED_UNITS[k] for k in ("setup_s", "pass_s", "op_s_p50", "op_s_p90", "peak_rss_mb")
}

# layer metric -> unit, reported by the traced run on every workload
PER_LAYER_UNITS = {
    **{f"kernel.find_crossings.{k}": u for k, u in
       [("calls", "count"), ("self_s", "s"), ("points", "count"), ("repeat_ratio", "ratio")]},
    **{f"experiments.dealias_spectrum.{k}": u for k, u in
       [("calls", "count"), ("self_s", "s"), ("kinks", "count")]},
    **{f"spectral.forward_transform.{k}": u for k, u in
       [("calls", "count"), ("self_s", "s"), ("points", "count"), ("repeat_ratio", "ratio")]},
    "spectral.shell_partial_sums.calls": "count",
    "spectral.shell_partial_sums.self_s": "s",
    "expr.parse.calls": "count",
    "expr.parse.self_s": "s",
    "expr.evaluate_array.self_s": "s",
    "grid.sample.self_s": "s",
    "grid.sample.points": "count",
    "spectral.interpolation_ratio.calls": "count",
    "spectral.interpolation_ratio.self_s": "s",
    **{f"kernel.phi_integral.{k}": u for k, u in
       [("calls", "count"), ("self_s", "s"), ("errors", "count"), ("ok_ratio", "ratio"),
        ("depth_max", "count")]},
    **{f"experiments.refined_form.{k}": u for k, u in
       [("calls", "count"), ("self_s", "s"), ("diverged", "count")]},
    **{f"experiments.{d}.self_s": "s" for d in DRIVERS},
    "reports.report_to_json.self_s": "s",
    "special.kernel_constant.calls": "count",
    "grid.truncate.calls": "count",
    "setup.import.fraclab_s": "s",
    "setup.import.scipy_s": "s",
    "setup.import.numpy_s": "s",
    "trace.overhead_s": "s",
    "trace.instrument_s": "s",
}

# layers each workload must reach; a traced run that records no call to one
# of them fails, because its wrapper is not bound where the program looks
EXERCISED = {
    "battery": [
        "kernel.find_crossings", "experiments.dealias_spectrum",
        "spectral.forward_transform", "spectral.shell_partial_sums",
        "experiments.refined_form", "reports.report_to_json",
        "special.kernel_constant", "grid.truncate", "grid.sample",
        "spectral.interpolation_ratio", *(f"experiments.{d}" for d in DRIVERS),
    ],
    "fine-grid": [
        "kernel.find_crossings", "experiments.dealias_spectrum",
        "spectral.forward_transform", "spectral.shell_partial_sums",
        "kernel.phi_integral",
    ],
    "random-sweep": [
        "expr.parse", "expr.evaluate_array", "grid.sample",
        "spectral.interpolation_ratio", "experiments.interp_sweep",
    ],
    "sign-change-mix": [
        "kernel.find_crossings", "experiments.dealias_spectrum",
        "kernel.phi_integral", "experiments.refined_form",
        "experiments.verify_identity",
    ],
}


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def prepare() -> None:
    """Check for the program's sources and set the thread caps before numpy loads."""
    if not (SRC / "fraclab" / "__init__.py").is_file():
        fail(f"no fraclab sources under {SRC}; run from a repository checkout")
    os.environ.update(THREAD_ENV)
    os.environ.pop("FRACLAB_THREADS", None)
    # an installed package ships byte code; write it here too, so that set-up
    # time does not depend on whether the environment disables it
    os.environ.pop("PYTHONDONTWRITEBYTECODE", None)
    sys.dont_write_bytecode = False
    sys.path.insert(0, str(SRC))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# set-up: cold starts of the CLI


def cold_start(importtime: bool = False):
    """Launch the CLI once; return (wall seconds, stderr text)."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else []) + SETUP_CMD
    t0 = time.perf_counter()
    proc = subprocess.run(
        cmd, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)), capture_output=True, text=True
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0 or proc.stdout != SETUP_OUT:
        fail(f"cold start gave {proc.returncode} {proc.stdout!r}: {proc.stderr[-500:]}")
    return wall, proc.stderr


def import_split(stderr: str) -> dict:
    """Import seconds from ``-X importtime`` output: scipy and numpy with all
    they import, fraclab's own modules without what they import."""
    entries = []
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) == 3 and fields[0].strip().isdigit():
            name = fields[2]
            depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
            entries.append((depth, name.strip(), int(fields[0]), int(fields[1])))
    out = {"fraclab": 0.0, "scipy": 0.0, "numpy": 0.0}
    ancestors = []  # the output lists a module after everything it imports
    for depth, name, self_us, cum_us in reversed(entries):
        del ancestors[depth:]
        top = name.split(".")[0]
        if top == "fraclab":
            out[top] += self_us * 1e-6
        elif top in ("scipy", "numpy") and top not in ancestors:
            out[top] += cum_us * 1e-6
        ancestors.append(top)
    return out


def measure_setup(importtime: bool):
    """Time SETUP_RUNS cold starts; return (walls, scaled, import splits).

    The caller has imported fraclab.cli in this process first, so byte-code
    caches are written and shared libraries are in the page cache, as on any
    start after the first. Import splits are scaled like the launch."""
    from speed import slowdown  # numpy loads only after prepare()

    walls, scaled, splits = [], [], []
    before = slowdown()
    for _ in range(SETUP_RUNS):
        wall, err = cold_start(importtime)
        after = slowdown(PROBE_SHARE * wall)
        factor = 2.0 / (before + after)
        walls.append(wall)
        scaled.append(wall * factor)
        if importtime:
            splits.append({k: v * factor for k, v in import_split(err).items()})
        before = after
    return walls, scaled, splits


# ---------------------------------------------------------------------------
# ops


class Outcome(NamedTuple):
    """What an op left behind; reports themselves are not kept."""

    kind: str  # "report", "error" (a FraclabError) or "crash"
    statuses: tuple  # verdict statuses of the report
    max_discrepancy: object  # over records with both routes, or None
    digest: str  # of the frozen outcome, compared with the reference


class Row(NamedTuple):
    wall: float  # seconds
    scaled: float  # seconds at reference speed (see speed.py)
    outcome: Outcome


class Runner:
    def __init__(self, ops):
        from fraclab import experiments, reports
        from fraclab.errors import FraclabError
        from fraclab.grid import GridSpec

        self.ops = ops
        self.experiments = experiments
        self.reports = reports
        self.FraclabError = FraclabError
        self.GridSpec = GridSpec
        # bound before any tracing, so the reference copy is never traced
        self.frozen_json = lambda r: reports.report_to_json(
            dataclasses.replace(r, runtime_seconds=0.0)
        )

    def call(self, op):
        kwargs = dict(op.kwargs)
        if "N" in kwargs:
            kwargs["spec"] = self.GridSpec(1, 20.0, kwargs.pop("N"))
        report = getattr(self.experiments, op.driver)(*op.args, **kwargs)
        self.reports.report_to_json(report)
        return report

    def run_op(self, op):
        """Time one op; return (seconds, Outcome)."""
        t0 = time.perf_counter()
        try:
            report = self.call(op)
        except self.FraclabError as exc:
            wall = time.perf_counter() - t0
            return wall, Outcome("error", (), None, digest(f"raised {type(exc).__name__}: {exc}\n"))
        except Exception as exc:  # the run goes on; the op counts as failed
            wall = time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            return wall, Outcome("crash", (), None, digest(f"crashed {type(exc).__name__}: {exc}\n"))
        wall = time.perf_counter() - t0
        discs = [r.discrepancy for r in report.results if r.discrepancy is not None]
        return wall, Outcome(
            "report",
            tuple(v.status for v in report.verdicts),
            max(discs) if discs else None,
            digest(self.frozen_json(report)),
        )

    def run_pass(self, tracer=None):
        """Run every op once, each scaled by the machine-speed probes taken
        just before and just after it."""
        from speed import slowdown

        rows = []
        before = slowdown()
        for op in self.ops:
            if tracer is not None:
                tracer.begin_op()
            wall, outcome = self.run_op(op)
            after = slowdown(PROBE_SHARE * wall)
            rows.append(Row(wall, wall * 2.0 / (before + after), outcome))
            before = after
        return rows


# ---------------------------------------------------------------------------
# metrics


def quantile(values, q):
    """Linear-interpolation quantile (``statistics.quantiles`` inclusive)."""
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def timings(passes, field):
    """pass_s, and op_s_p50 and op_s_p90 over the distinct ops of a pass, each
    op timed by its median over passes, from one Row field."""
    per_op = [statistics.median(getattr(rows[i], field) for rows in passes)
              for i in range(len(passes[0]))]
    return {
        "pass_s": statistics.median(sum(getattr(r, field) for r in rows) for rows in passes),
        "op_s_p50": statistics.median(per_op),
        "op_s_p90": quantile(per_op, 0.9),
    }


def outcome_metrics(passes):
    outcomes = [row.outcome for rows in passes for row in rows]
    errors = sum(1 for o in outcomes if o.kind == "error")
    verdicts = [s for o in outcomes for s in o.statuses]
    issued = max(len(verdicts), 1)
    discs = [o.max_discrepancy for o in outcomes if o.max_discrepancy is not None]
    return {
        "error_share": errors / len(outcomes),
        "fail_share": verdicts.count("fail") / issued,
        "inconclusive_share": verdicts.count("inconclusive") / issued,
        "max_discrepancy": max(discs) if discs else None,
    }


def check_reports(ops, passes, reference):
    """Ops whose frozen outcome differs from the reference or between passes."""
    mismatched = checked = 0
    for i, op in enumerate(ops):
        seen = {rows[i].outcome.digest for rows in passes}
        ref = reference.get(digest(op.key))
        if ref is not None:
            checked += 1
        if len(seen) > 1 or (ref is not None and seen.pop() != ref):
            mismatched += 1
    return mismatched, checked


def layer_metrics(folded, factor, workload):
    """Layer metrics of one traced pass, its times scaled by the pass's
    speed factor, and the EXERCISED layers that recorded no call."""
    m = {}
    for name in PER_LAYER_UNITS:
        if not name.startswith("setup."):
            scale = factor if name.endswith("_s") else 1.0
            m[name] = float(folded.get(name, 0.0)) * scale
    for layer in ("kernel.find_crossings", "spectral.forward_transform"):
        calls = folded.get(f"{layer}.calls", 0.0)
        m[f"{layer}.repeat_ratio"] = folded.get(f"{layer}.repeats", 0.0) / calls if calls else 0.0
    calls = folded.get("kernel.phi_integral.calls", 0.0)
    errors = folded.get("kernel.phi_integral.errors", 0.0)
    m["kernel.phi_integral.ok_ratio"] = (calls - errors) / calls if calls else 0.0
    missing = [l for l in EXERCISED[workload] if not folded.get(f"{l}.calls")]
    return m, missing


def print_table(title, rows):
    print(title)
    print(f"  {'metric':40s} {'value':>14s} {'unit':6s} {'raw wall':>10s} samples")
    for name, value, unit, raw, n in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        raw = "" if raw is None else f"{raw:.6g}"
        print(f"  {name:40s} {shown:>14s} {unit:6s} {raw:>10s} n={n}")


def emit(correct, attempted, failed, metrics, units):
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


# ---------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, help="a workload name, or all")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    prepare()
    import workloads

    if args.workload == "all":
        # one process per workload, so that set-up and peak memory stay its own
        rest = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            rest += ["--seed", str(args.seed)]
        codes = [
            subprocess.run([sys.executable, __file__, "--workload", w, *rest]).returncode
            for w in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)} or all")
    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    traced = bool(args.trace)

    ops = workloads.WORKLOADS[args.workload](seed)
    runner = Runner(ops)
    import fraclab.cli  # noqa: F401  (see measure_setup)

    setup_walls, setup_scaled, import_splits = measure_setup(importtime=traced)
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}

    runner.run_op(ops[0])  # fills lazy imports and numpy's FFT plan cache
    plain, traced_passes, folded = [], [], []
    tracer = None
    if traced:
        from spans import Tracer, fold

        tracer = Tracer()
    t_start = time.perf_counter()
    while not plain or (traced and not traced_passes) or (
        time.perf_counter() - t_start < args.seconds
    ):
        plain.append(runner.run_pass())
        if traced:
            with tracer:
                traced_passes.append(runner.run_pass(tracer))
            folded.append(fold(*tracer.take_pass()))

    measured = plain + traced_passes
    attempted = sum(len(rows) for rows in measured)
    crashed = sum(1 for rows in measured for row in rows if row.outcome.kind == "crash")
    mismatch, checked = check_reports(ops, measured, reference)
    failed = crashed + mismatch
    correct = failed == 0

    scaled = timings(plain, "scaled")
    print(f"workload {args.workload} seed {seed}: {len(plain)} passes of {len(ops)} ops, "
          f"{checked} of {len(ops)} ops checked against references, "
          f"{mismatch} mismatched, {crashed} crashed")
    print("pass seconds, scaled: " + " ".join(f"{sum(r.scaled for r in rows):.3f}" for rows in plain))
    print("pass seconds, raw:    " + " ".join(f"{sum(r.wall for r in rows):.3f}" for rows in plain))

    if not traced:
        raw = {**timings(plain, "wall"), "setup_s": statistics.median(setup_walls)}
        metrics = {
            "setup_s": statistics.median(setup_scaled),
            **scaled,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "report_mismatch": mismatch,
            **outcome_metrics(plain),
        }
        n_ops = sum(len(rows) for rows in plain)
        counts = {"setup_s": len(setup_walls), "pass_s": len(plain),
                  "op_s_p50": f"{len(ops)}x{len(plain)}", "op_s_p90": f"{len(ops)}x{len(plain)}"}
        print_table("end-to-end metrics:", [
            (k, metrics[k], u, raw.get(k), counts.get(k, n_ops))
            for k, u in PRINTED_UNITS.items()
        ])
        emit(correct, attempted, failed, metrics, END_TO_END_UNITS)
        return 0 if correct else 1

    factors = [
        sum(r.scaled for r in rows) / sum(r.wall for r in rows) for rows in traced_passes
    ]
    per_pass = [layer_metrics(f, k, args.workload) for f, k in zip(folded, factors)]
    missing = sorted({l for _, miss in per_pass for l in miss})
    metrics = {
        name: statistics.median(m[name] for m, _ in per_pass) for name in per_pass[0][0]
    }
    metrics["kernel.phi_integral.depth_max"] = max(
        m["kernel.phi_integral.depth_max"] for m, _ in per_pass
    )
    for mod in ("fraclab", "scipy", "numpy"):
        metrics[f"setup.import.{mod}_s"] = statistics.median(s[mod] for s in import_splits)
    metrics["trace.overhead_s"] = timings(traced_passes, "scaled")["pass_s"] - scaled["pass_s"]
    print_table("per-layer metrics (per pass):", [
        (k, metrics[k], PER_LAYER_UNITS[k], None, len(traced_passes)) for k in PER_LAYER_UNITS
    ])
    if missing:
        print(f"bench: layers with no calls on {args.workload}: {missing}", file=sys.stderr)
        correct = False
    emit(correct, attempted, failed, metrics, PER_LAYER_UNITS)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
