"""Import-graph guard: the CLI and the routes that never need an
endpoint-corrected form must not load scipy."""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

CHILD = """
import sys

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

import fraclab.cli
assert not scipy_modules(), ("import fraclab.cli", scipy_modules())

from fraclab.experiments import interp_sweep
from fraclab.grid import GridSpec
report = interp_sweep(3, seed=0, spec=GridSpec(1, 20.0, 1024))
assert len(report.results) == 3
assert not scipy_modules(), ("interp_sweep", scipy_modules())
"""


def test_cli_and_interp_sweep_do_not_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    res = subprocess.run(
        [sys.executable, "-c", CHILD],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert res.returncode == 0, res.stderr
