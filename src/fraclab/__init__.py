"""fraclab: spectral and kernel-quadrature evaluation of fractional-order
quadratic forms under sign truncations, with a batch experiment CLI.

Each public name is imported from its submodule on first use, so that
``import fraclab`` and the CLI start-up load no numpy."""

import importlib

_NAMES = {
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
# public name -> the submodule that defines it
_SUBMODULE = {name: mod for mod, names in _NAMES.items() for name in names.split()}

__all__ = list(_SUBMODULE)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__), name)


def __dir__():
    return sorted(set(globals()) | set(_SUBMODULE))
