"""fraclab: spectral and kernel-quadrature evaluation of fractional-order
quadratic forms under sign truncations, with a batch experiment CLI."""

from .errors import (
    DisjointSupportError,
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
    mollifier_bump,
    random_function_source,
    refined_form,
    sign_sweep,
    truncation_bound_probe,
    truncation_kinks,
    verify_identity,
)
from .expr import evaluate, evaluate_array, parse, to_source
from .grid import (
    GridFunction,
    GridSpec,
    l2_inner,
    max_tail,
    sample,
    satisfies_support_rule,
    truncate,
    write_csv,
)
from .kernel import (
    Cell,
    InterfacePartition,
    QuadratureResult,
    build_partition,
    find_crossings,
    gagliardo_form,
    interaction_integral,
    phi_integral,
)
from .reports import report_to_csv, report_to_json, write_report
from .special import (
    FractionalOrder,
    KernelConstant,
    gamma,
    kernel_constant,
    riesz_kernel,
)
from .spectral import (
    Spectrum,
    forward_transform,
    fractional_laplacian,
    interpolation_ratio,
    inverse_transform,
    quadratic_form,
    shell_partial_sums,
    sobolev_norm_sq,
    write_spectrum_csv,
    zeta_extended,
)

__version__ = "0.1.0"
