"""Every admissible input ends in a report or a named refusal.

A derandomized hypothesis property over the inputs of the benchmark's
sign-change-mix workload (bench/workloads.sign_change_source, only read):
one to three simple roots under a Gaussian, scaled by 2^-266, 2^-20, 1,
2^20 or 2^266, on 2^8 to 2^12 nodes, at an order off the integers. Each of
the four drivers that take such an input must return its report or raise
DomainError, SupportRuleError or QuadratureToleranceError, and no numpy
warning may leak. The graded quadrature still fails to converge on many of these
inputs, so a QuadratureToleranceError is allowed here.
"""

import importlib.util
import pathlib
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from fraclab.errors import DomainError, QuadratureToleranceError, SupportRuleError
from fraclab.experiments import (
    convergence_study, sign_sweep, truncation_bound_probe, verify_identity,
)
from fraclab.grid import GridSpec
from fraclab.reports import ExperimentReport

WORKLOADS = pathlib.Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
_spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS)
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

ALLOWED = (DomainError, SupportRuleError, QuadratureToleranceError)
EPS = (0.2, 0.1, 0.05, 0.02, 0.01)  # the command line's levels, times the scale
L = 20.0


@st.composite
def admissible(draw):
    """(source, scale, N, s)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = workloads.sign_change_source(rng, draw(st.integers(1, 3)))
    scale = draw(st.sampled_from([2.0**-266, 2.0**-20, 1.0, 2.0**20, 2.0**266]))
    N = 2 ** draw(st.integers(8, 12))
    s = draw(st.one_of(st.floats(0.01, 0.99), st.floats(1.01, 1.49)))
    return f"{scale!r}*{source}", scale, N, s


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(admissible())
def test_admissible_inputs_end_in_a_report_or_a_refusal(case):
    source, scale, N, s = case
    spec = GridSpec(1, L, N)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for run in (
            lambda: verify_identity(source, s, spec),
            lambda: sign_sweep(source, [s], spec),
            lambda: truncation_bound_probe(source, s, [scale * e for e in EPS], spec),
            lambda: convergence_study(source, s, [N // 4, N // 2, N], L),
        ):
            try:
                assert isinstance(run(), ExperimentReport)
            except ALLOWED:
                pass
