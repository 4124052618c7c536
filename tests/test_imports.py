"""Import-graph guards: the CLI and the routes that never need an
endpoint-corrected form must not load scipy, and the spectral and kernel
routes do not import each other."""

import ast
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


def _fraclab_imports(name):
    """fraclab modules that src/fraclab/<name>.py imports anywhere in it."""
    tree = ast.parse((SRC / "fraclab" / f"{name}.py").read_text())
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level:
            names = [f"fraclab.{node.module}"] if node.module else [
                f"fraclab.{a.name}" for a in node.names
            ]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module]
        else:
            continue
        found.update(n.split(".")[1] for n in names if n.startswith("fraclab."))
    return found


def test_spectral_and_kernel_routes_do_not_import_each_other():
    # followed through the modules each route imports, so a shared helper
    # cannot carry one route into the other
    for route, other in (("spectral", "kernel"), ("kernel", "spectral")):
        seen, todo = set(), [route]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(_fraclab_imports(name))
        assert other not in seen, (route, sorted(seen))
