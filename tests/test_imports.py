"""Import-graph guards: `import fraclab` and the CLI start-up load neither
numpy nor scipy, the CLI start-up loads no module beyond a pinned set, the
routes that never need an endpoint-corrected form do not load scipy,
`fraclab.reports` loads neither numpy nor a route, the package resolves
every public name from its submodule, the spectral and kernel routes
do not import each other, and only the spectral module touches a
spectrum's coefficient layout, the alias ghosts or the tail model."""

import ast
import importlib
import pathlib
import re
import sys

import pytest

import fraclab

from helpers import run_child

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

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


NUMPY_CHILD = """
import sys

def exit_code(args):
    try:
        fraclab.cli.main(args)
    except SystemExit as exc:
        return exc.code
    raise AssertionError(("no exit", args))

import fraclab
assert "numpy" not in sys.modules, "import fraclab"
import fraclab.cli
assert "numpy" not in sys.modules, "import fraclab.cli"

for args, code in [
    (["constants", "--s", "0.5"], 0),
    (["--help"], 0),
    (["identity", "--help"], 0),
    (["constants"], 2),  # a usage error: --s is required
]:
    assert exit_code(args) == code, args
    loaded = [m for m in ("numpy", "click", "json") if m in sys.modules]
    assert not loaded, (args, loaded)

assert exit_code(["interp", "--count", "2", "--N", "1024"]) == 0
assert "numpy" in sys.modules, "an experiment ran without numpy"
assert "click" not in sys.modules, "interp"
"""


# what `import fraclab.cli` adds to a bare interpreter: the package, the
# modules `constants` needs and the argument parser. A new module here,
# such as json or concurrent.futures, would add to every cold start.
START_UP = """fraclab fraclab.cli fraclab.errors fraclab.special argparse
    gettext""".split()

START_UP_CHILD = f"""
import sys

before = set(sys.modules)
import fraclab.cli
extra = sorted(set(sys.modules) - before - {set(START_UP)!r})
assert not extra, ("import fraclab.cli loads", extra)
"""


REPORTS_CHILD = """
import sys

import fraclab.reports

heavy = ("numpy", "fraclab.experiments", "fraclab.kernel", "fraclab.spectral")
assert not [m for m in heavy if m in sys.modules], sorted(sys.modules)
"""


def test_cli_and_interp_sweep_do_not_load_scipy():
    run_child(CHILD)


def test_import_and_cli_start_up_do_not_load_numpy():
    run_child(NUMPY_CHILD)


def test_cli_start_up_loads_no_new_module():
    run_child(START_UP_CHILD)


def test_reports_loads_neither_numpy_nor_a_route():
    # the report model and its serializers are a leaf beside errors
    assert _fraclab_imports("reports") == {"errors"}
    run_child(REPORTS_CHILD)


# every public name of the package, by the submodule that defines it
PUBLIC = {
    "errors": """DomainError ExpressionError FraclabError GridMismatchError
        PoleError QuadratureToleranceError SupportRuleError""",
    "experiments": """convergence_study counterexample_scan dealias_spectrum
        interp_sweep random_function_source refined_form sign_sweep
        truncation_bound_probe verify_identity""",
    "expr": "evaluate_array parse",
    "grid": "GridFunction GridSpec l2_inner max_tail sample truncate",
    "kernel": "QuadratureResult find_crossings p1_pairing phi_integral",
    "reports": """ExperimentReport ResultRecord Verdict discrepancy
        report_to_csv report_to_json report_to_text write_report""",
    "special": "gamma kernel_constant",
    "spectral": """RefinedValue Spectrum cross_spectrum forward_transform
        interpolation_ratio quadratic_form shell_partial_sums zeta_extended""",
}
PUBLIC_NAMES = [(mod, name) for mod, names in PUBLIC.items() for name in names.split()]


def test_public_names_resolve_to_their_submodule_objects():
    assert len(PUBLIC_NAMES) == 46
    assert sorted(fraclab.__all__) == sorted(name for _, name in PUBLIC_NAMES)
    listed = dir(fraclab)
    for mod, name in PUBLIC_NAMES:
        module = importlib.import_module(f"fraclab.{mod}")
        assert getattr(fraclab, name) is getattr(module, name), name
        assert name in listed, name
    assert fraclab.__version__ == "0.1.0"
    with pytest.raises(AttributeError):
        fraclab.no_such_name


def test_readme_library_example_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library", 1)[1]
    (block,) = re.findall(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.S)
    namespace = {}
    exec(block, namespace)
    assert namespace["lhs"] == pytest.approx(namespace["rhs"], rel=1e-2)


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


def test_only_the_spectral_module_touches_spectrum_coefficients():
    # the FFT-order layout of Spectrum.coeffs and its 1/sqrt(2 pi)
    # convention stay inside spectral.py; drivers pass spectra through
    touching = sorted(
        path.name
        for path in (SRC / "fraclab").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr == "coeffs"
    )
    assert set(touching) == {"spectral.py"}, touching


# what only spectral.py may name: the jump of each truncation, the ghost
# blocks and the overlap's bounds
GHOST_NAMES = {
    "_JUMP_FACTOR", "_BLOCK", "_ghost_block", "_crossing_ghost", "_OVERLAP_N",
    "_OVERLAP_CROSSINGS",
}


def _names(tree):
    """Every name that a module binds, reads, imports or defines."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name


def test_only_the_spectral_module_owns_the_alias_ghosts():
    # spectral._dealias truncates and transforms u, allocates the ghost
    # store, hands its filling to spectral._two_lanes, the one function
    # that starts a thread, and subtracts the ghosts with each truncation's
    # jump; experiments.dealias_spectrum, the traced entry point, only
    # passes its arguments on
    paths = (SRC / "fraclab").glob("*.py")
    modules = {path.stem: ast.parse(path.read_text()) for path in paths}
    names = {mod: set(_names(tree)) for mod, tree in modules.items()}
    assert sorted(mod for mod in modules if GHOST_NAMES & names[mod]) == ["spectral"]
    gone = {"_alias_ghosts", "_subtract_alias_ghosts"}
    assert not [mod for mod in modules if gone & names[mod]]
    for tree in modules.values():  # and no function takes ghosts=
        assert "ghosts" not in {n.arg for n in ast.walk(tree) if isinstance(n, ast.arg)}
    starting = sorted(
        f"{mod}.{fn.name}"
        for mod, tree in modules.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and any(
            isinstance(n, ast.Attribute) and n.attr == "Thread" for n in ast.walk(fn)
        )
    )
    assert starting == ["spectral._two_lanes"]
    # _dealias asks for the CPUs as well: on one CPU the per-block loop
    # beats a store built after the transforms
    asking = sorted(
        f"{mod}.{fn.name}"
        for mod, tree in modules.items()
        for fn in tree.body
        if isinstance(fn, ast.FunctionDef)
        and any(isinstance(n, ast.Name) and n.id == "_usable_cpus" for n in ast.walk(fn))
    )
    assert asking == ["spectral._dealias", "spectral._two_lanes"]
    assert not {"os", "threading", "_usable_cpus"} & names["experiments"]
    (dealias,) = [
        fn for fn in modules["experiments"].body
        if isinstance(fn, ast.FunctionDef) and fn.name == "dealias_spectrum"
    ]
    _, call = dealias.body  # the docstring, then one delegation
    assert isinstance(call, ast.Return) and call.value.func.id == "_dealias"
    (inner,) = [
        fn for fn in modules["spectral"].body
        if isinstance(fn, ast.FunctionDef) and fn.name == "_dealias"
    ]
    assert [a.arg for a in inner.args.args] == ["u", "crossings", "modes"]
    assert not (inner.args.kwonlyargs or inner.args.vararg or inner.args.kwarg)
    imported = {
        alias.name
        for node in ast.walk(modules["experiments"])
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert not {"truncate", "_JUMP_FACTOR"} & imported


def test_only_the_spectral_module_owns_the_tail_model():
    # the fit basis, the band and the octave ratio of spectral._refine read
    # Spectrum.kinked; experiments.refined_form, the traced entry point,
    # only passes its arguments on
    paths = (SRC / "fraclab").glob("*.py")
    modules = {path.stem: ast.parse(path.read_text()) for path in paths}
    owners = sorted(
        mod
        for mod, tree in modules.items()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "kinked")
        or (
            isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and node.name in ("RefinedValue", "_fit_constant")
        )
    )
    assert set(owners) == {"spectral"}, owners
    (refined,) = [
        fn for fn in modules["experiments"].body
        if isinstance(fn, ast.FunctionDef) and fn.name == "refined_form"
    ]
    assert [a.arg for a in refined.args.args] == ["cross", "s"]
    assert [a.arg for a in refined.args.kwonlyargs] == ["extrapolate"]
    _, call = refined.body  # the docstring, then one delegation
    assert isinstance(call, ast.Return) and call.value.func.id == "_refine"
    (inner,) = [
        fn for fn in modules["spectral"].body
        if isinstance(fn, ast.FunctionDef) and fn.name == "_refine"
    ]
    assert [a.arg for a in inner.args.args] == ["cross", "s", "extrapolate"]


def _users(tree, found):
    """The top-level statements of tree, by name, that hold a node found
    accepts."""
    return sorted(
        getattr(node, "name", type(node).__name__)
        for node in tree.body
        if any(found(n) for n in ast.walk(node))
    )


def _wording(text):
    """Whether a node is a string constant that contains text."""
    return lambda n: (
        isinstance(n, ast.Constant) and isinstance(n.value, str) and text in n.value
    )


def test_the_drivers_meet_the_kernel_route_at_one_call():
    # experiments._kernel_cross alone calls phi_integral, under np.errstate,
    # and experiments._finite alone words the refusal of an overflowed form
    tree = ast.parse((SRC / "fraclab" / "experiments.py").read_text())
    assert _users(
        tree, lambda n: isinstance(n, ast.Name) and n.id == "phi_integral"
    ) == ["_kernel_cross"]
    assert _users(tree, _wording("overflows the double range")) == ["_finite"]
    assert "_overflow" not in set(_names(tree))
    (kernel_cross,) = [
        fn for fn in tree.body
        if isinstance(fn, ast.FunctionDef) and fn.name == "_kernel_cross"
    ]
    (guard,) = [n for n in ast.walk(kernel_cross) if isinstance(n, ast.With)]
    assert [item.context_expr.func.attr for item in guard.items] == ["errstate"]
    assert "phi_integral" in {n.id for n in ast.walk(guard) if isinstance(n, ast.Name)}


def test_the_drivers_reach_u_own_spectrum_and_the_zero_refusal_through_one_helper():
    # every spectrum a driver reads comes from dealias_spectrum or, for u's
    # own plain form, from spectral._plain_cross, which drops the transform;
    # experiments._nonzero alone words the refusal of an underflowed form
    tree = ast.parse((SRC / "fraclab" / "experiments.py").read_text())
    assert not {"forward_transform", "_underflow"} & set(_names(tree))
    assert _users(tree, _wording("underflows to 0")) == ["_nonzero"]
