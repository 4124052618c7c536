"""What the benchmark in bench/ relies on, checked from the tier-1 suite.

bench/run.py names the layers that its traced run wraps (EXERCISED and the
PER_LAYER_UNITS keys) and bench/reference.json holds the digest of every
op's frozen report. A rename that breaks ``--trace 1``, or a change to a
reported value, fails here before the benchmark is run. bench/run.py and
bench/reference.json are only read.
"""

import dataclasses
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

from fraclab.spectral import RefinedValue
from fraclab.kernel import QuadratureResult

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
# PER_LAYER_UNITS keys that name no fraclab module
PSEUDO_LAYERS = ("setup", "trace")


def _load_run():
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = _load_run()


def test_traced_layers_are_public_functions():
    layers = {name for names in run.EXERCISED.values() for name in names}
    layers |= {
        ".".join(key.split(".")[:2])
        for key in run.PER_LAYER_UNITS
        if key.split(".")[0] not in PSEUDO_LAYERS
    }
    for layer in sorted(layers):
        module_name, func_name = layer.split(".")
        module = importlib.import_module(f"fraclab.{module_name}")
        fn = getattr(module, func_name, None)
        # bench/spans.py wraps only public functions defined in the module
        assert inspect.isfunction(fn), layer
        assert fn.__module__ == module.__name__, layer


def test_span_probed_attributes_exist():
    # bench/spans.py reads phi_integral's depth and refined_form's diverged
    assert "depth" in {f.name for f in dataclasses.fields(QuadratureResult)}
    assert "diverged" in {f.name for f in dataclasses.fields(RefinedValue)}


# run in a child process: the BLAS thread count must be set before numpy
# loads, and some reports (interp_sweep's l2_inner sums) depend on it
CHILD = """
import json
import run
import workloads

ops = [op for name in ("battery", "fine-grid", "random-sweep", "sign-change-mix")
       for op in workloads.WORKLOADS[name](42)]
reference = json.loads(run.REFERENCE.read_text())
runner = run.Runner(ops)
bad = []
for op in ops:
    _, outcome = runner.run_op(op)
    if outcome.digest != reference[run.digest(op.key)]:
        bad.append(op.key[:160])
print(json.dumps({"ops": len(ops), "mismatched": bad}))
"""


def test_seed_42_reports_match_the_benchmark_reference():
    env = dict(os.environ, **run.THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(BENCH)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    res = subprocess.run(
        [sys.executable, "-c", CHILD],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    assert out["ops"] == 43
    assert out["mismatched"] == []
