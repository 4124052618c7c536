"""Every admissible input ends in a report or a named refusal.

A derandomized hypothesis property over the inputs of the benchmark's
sign-change-mix workload (bench/workloads.sign_change_source, only read):
one to three simple roots under a Gaussian, scaled by 2^-266, 2^-20, 1,
2^20, 2^266 or 2^508, on 2^8 to 2^12 nodes, at an order off the integers.
Each driver of scripts/census.py (identity, sign-sweep, truncation-bound
and convergence, run as the census runs them) must return its report or
raise DomainError, SupportRuleError or QuadratureToleranceError, and no
numpy warning may leak. The graded quadrature still fails to converge on
many of these inputs, and its sums overflow from about 2^508 on, so a
QuadratureToleranceError is allowed here.
"""

import importlib.util
import pathlib
import warnings

import numpy as np
from hypothesis import given, settings, strategies as st

from fraclab.errors import DomainError, QuadratureToleranceError, SupportRuleError
from fraclab.grid import GridSpec
from fraclab.reports import ExperimentReport

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("bench_workloads", ROOT / "bench" / "workloads.py")
census = _load("census", ROOT / "scripts" / "census.py")

ALLOWED = (DomainError, SupportRuleError, QuadratureToleranceError)
L = 20.0


@st.composite
def admissible(draw):
    """(source, scale, N, s)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    source = workloads.sign_change_source(rng, draw(st.integers(1, 3)))
    scale = draw(
        st.sampled_from([2.0**-266, 2.0**-20, 1.0, 2.0**20, 2.0**266, 2.0**508])
    )
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
        for run in census.DRIVERS.values():
            try:
                assert isinstance(run(source, s, scale, spec), ExperimentReport)
            except ALLOWED:
                pass
