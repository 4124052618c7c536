"""fraclab: spectral and kernel-quadrature evaluation of fractional-order
quadratic forms under sign truncations, with a batch experiment CLI."""

from .errors import (
    DomainError,
    ExpressionError,
    FraclabError,
    GridMismatchError,
    PoleError,
    QuadratureToleranceError,
    SupportRuleError,
)
from .experiments import (
    ExperimentReport,
    RefinedValue,
    ResultRecord,
    Verdict,
    convergence_study,
    counterexample_scan,
    dealias_spectrum,
    discrepancy,
    interp_sweep,
    random_function_source,
    refined_form,
    sign_sweep,
    truncation_bound_probe,
    verify_identity,
)
from .expr import evaluate_array, parse
from .grid import (
    GridFunction,
    GridSpec,
    l2_inner,
    max_tail,
    sample,
    truncate,
)
from .kernel import (
    QuadratureResult,
    find_crossings,
    p1_pairing,
    phi_integral,
)
from .reports import report_to_csv, report_to_json, write_report
from .special import (
    gamma,
    kernel_constant,
)
from .spectral import (
    Spectrum,
    cross_spectrum,
    forward_transform,
    interpolation_ratio,
    quadratic_form,
    shell_partial_sums,
    zeta_extended,
)

__version__ = "0.1.0"
