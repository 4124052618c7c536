"""Acceptance battery: one test per headline claim, with runtime caps.

Each test prints a single PASS line (visible under pytest -s; the -v test
status line carries the same verdict). Tolerances and time limits are part
of the assertions, so a slow or drifting build fails loudly.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from fraclab.experiments import (
    counterexample_scan,
    interp_sweep,
    random_function_source,
    sign_sweep,
    truncation_bound_probe,
    convergence_study,
    verify_identity,
)
from fraclab.grid import GridSpec, l2_inner, sample, truncate
from fraclab.kernel import p1_pairing
from fraclab.reports import report_to_json
from fraclab.spectral import quadratic_form
from fraclab.special import gamma, kernel_constant

from helpers import mollifier_bump

DEFAULT_SPEC = GridSpec(1, 20.0, 16384)


def _finish(num, started, limit, detail):
    elapsed = time.perf_counter() - started
    print(f"criterion {num:02d} PASS: {detail} ({elapsed:.2f}s < {limit:.0f}s)")
    assert elapsed < limit


def test_criterion_01_kernel_constants():
    t0 = time.perf_counter()
    c_half = kernel_constant(1, 0.5)
    assert abs(c_half - 1.0 / math.pi) <= 1e-12

    rng = np.random.default_rng(42)
    worst = 0.0
    checked = 0
    while checked < 200:
        n = int(rng.integers(1, 4))
        a = float(rng.uniform(0.0, 3.0))
        if min(abs(a - k) for k in range(0, 5)) < 1e-6 or a <= 0.0:
            continue
        lhs = kernel_constant(n, a) * (n + 2.0 * a) * (2.0 * a + 2.0)
        rhs = kernel_constant(n, a + 1.0)
        worst = max(worst, abs(lhs + rhs) / abs(rhs))
        checked += 1
    assert worst <= 1e-12

    for n in (1, 2, 3):
        for k in range(1, 60):
            s = 0.05 * k
            if abs(s - round(s)) < 1e-9:
                continue
            c = kernel_constant(n, s)
            assert math.copysign(1.0, c) == (-1.0) ** math.floor(s), (n, s)
    _finish(1, t0, 1.0, f"constants exact at (1,1/2); recursion worst {worst:.2e}")


def test_criterion_02_spectral_gaussian_oracle():
    t0 = time.perf_counter()
    spec = GridSpec(1, 16.0, 4096)
    u = sample("exp(-x^2/2)", spec)
    worst = 0.0
    for s in (0.25, 0.5, 1.0, 1.25):
        val = quadratic_form(u, u, s)
        ref = gamma(s + 0.5)
        rel = abs(val - ref) / ref
        worst = max(worst, rel)
        assert rel <= 1e-6, (s, rel)
    _finish(2, t0, 1.0, f"Gaussian forms match Gamma(s+1/2), worst rel {worst:.2e}")


def test_criterion_03_gagliardo_equivalence():
    t0 = time.perf_counter()
    spec = GridSpec(1, 16.0, 4096)
    u = sample("exp(-x^2/2)", spec)
    worst = 0.0
    for s in (0.5, 0.75, 1.1, 1.25):
        kernel_route = -kernel_constant(1, s) * p1_pairing(u, u, s)
        spectral_route = quadratic_form(u, u, s)
        rel = abs(kernel_route - spectral_route) / abs(spectral_route)
        worst = max(worst, rel)
        assert rel <= 1e-3, (s, rel)
    _finish(
        3, t0, 10.0, f"difference-quotient vs multiplier route, worst rel {worst:.2e}"
    )


def test_criterion_04_disjoint_support_identity():
    t0 = time.perf_counter()
    spec = GridSpec(1, 64.0, 65536)
    v = mollifier_bump(spec, -2.0, 0.5)
    w = mollifier_bump(spec, 2.0, 0.5)
    worst = 0.0
    for s in (0.5, 1.25, 2.5):
        spectral = quadratic_form(v, w, s)
        c = kernel_constant(1, s)
        kernel = -c * p1_pairing(v, w, s)
        rel = abs(spectral - kernel) / max(abs(spectral), abs(kernel))
        worst = max(worst, rel)
        assert rel <= 1e-5, (s, rel)
    _finish(4, t0, 30.0, f"separated-bump routes agree, worst rel {worst:.2e}")


def test_criterion_05_main_identity():
    t0 = time.perf_counter()
    budgets = {1.1: 1e-3, 1.25: 1e-3, 1.4: 5e-3}
    worst = 0.0
    for s, budget in budgets.items():
        rep = verify_identity("x*exp(-x^2)", s, spec=DEFAULT_SPEC, tol=budget)
        assert rep.all_pass, (s, [v for v in rep.verdicts if v.status == "fail"])
        cross = next(
            r for r in rep.results if r.quantity == "cross form of u+ against u-"
        )
        assert cross.discrepancy <= budget, (s, cross.discrepancy)
        worst = max(worst, cross.discrepancy)
    _finish(5, t0, 60.0, f"cross form vs scaled interface integral, worst {worst:.2e}")


def test_criterion_06_sign_law_with_probes():
    t0 = time.perf_counter()
    gated = sign_sweep(
        "x*exp(-x^2)", [0.25, 0.5, 0.75, 1.1, 1.25, 1.4], spec=DEFAULT_SPEC
    )
    assert gated.all_pass
    assert all(v.status == "pass" for v in gated.verdicts)
    probes = sign_sweep("x^3*exp(-x^2)", [1.75, 2.5], spec=DEFAULT_SPEC)
    assert all(v.status == "inconclusive" for v in probes.verdicts)
    assert probes.all_pass  # evidence only, never gated
    _finish(6, t0, 30.0, "six gated orders pass; high-order probes reported only")


def test_criterion_07_counterexample_growth():
    t0 = time.perf_counter()
    rep = counterexample_scan(
        "x*exp(-x^2)",
        [1.3, 1.4, 1.6, 1.7],
        [80.0, 160.0, 320.0, 640.0, 1280.0],
        spec=DEFAULT_SPEC,
    )
    assert rep.all_pass
    values = {r.quantity: r.spectral_value for r in rep.results}
    for s in (1.6, 1.7):
        expo = values[f"growth exponent at s={s}"]
        assert abs(expo - (2.0 * s - 3.0)) <= 0.15, (s, expo)
    for s in (1.3, 1.4):
        cauchy = values[f"cauchy metric at s={s}"]
        assert cauchy < 1e-4, (s, cauchy)
    _finish(7, t0, 30.0, "partial sums grow at 2s-3 above 3/2, Cauchy below")


def test_criterion_08_polarization_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(20):
        u = sample(random_function_source(rng), DEFAULT_SPEC)
        pos, neg = truncate(u, "pos"), truncate(u, "neg")
        absu = truncate(u, "abs")
        for s in (0.5, 1.25):
            lhs = 4.0 * quadratic_form(pos, neg, s)
            rhs = quadratic_form(absu, absu, s) - quadratic_form(u, u, s)
            scale = max(abs(quadratic_form(u, u, s)), l2_inner(u, u))
            rel = abs(lhs - rhs) / scale
            worst = max(worst, rel)
            assert rel <= 1e-12
    _finish(8, t0, 5.0, f"polarization exact over 20 draws, worst rel {worst:.2e}")


def test_criterion_09_interpolation_bound():
    t0 = time.perf_counter()
    rep = interp_sweep(100, seed=42, spec=DEFAULT_SPEC)
    assert rep.all_pass
    assert len(rep.results) == 100
    worst = max(r.spectral_value for r in rep.results)
    assert worst <= 1.0 + 1e-12
    _finish(9, t0, 10.0, f"hundred sampled ratios below one, worst {worst:.12f}")


def test_criterion_10_truncation_bound():
    t0 = time.perf_counter()
    rep = truncation_bound_probe(
        "x*exp(-x^2)", 1.25, [0.2, 0.1, 0.05, 0.02, 0.01], spec=DEFAULT_SPEC
    )
    assert rep.all_pass
    assert all(v.status == "pass" for v in rep.verdicts)
    conv = next(v for v in rep.verdicts if "zero-level" in v.claim.lower() or
                "converge" in v.claim.lower())
    assert conv.status == "pass"
    _finish(10, t0, 10.0, "shifted truncations bounded and convergent at 1e-3")


def test_criterion_11_reproducibility_and_budget():
    t0 = time.perf_counter()

    def battery():
        reports = [
            verify_identity("x*exp(-x^2)", 1.25, spec=DEFAULT_SPEC),
            sign_sweep(
                "x*exp(-x^2)", [0.25, 0.5, 0.75, 1.1, 1.25, 1.4], spec=DEFAULT_SPEC
            ),
            counterexample_scan(
                "x*exp(-x^2)",
                [1.3, 1.4, 1.6, 1.7],
                [80.0, 160.0, 320.0, 640.0, 1280.0],
                spec=DEFAULT_SPEC,
            ),
            truncation_bound_probe(
                "x*exp(-x^2)", 1.25, [0.2, 0.1, 0.05, 0.02, 0.01], spec=DEFAULT_SPEC
            ),
            interp_sweep(100, seed=42, spec=DEFAULT_SPEC),
            convergence_study("x*exp(-x^2)", 1.25, [2048, 4096, 8192, 16384]),
        ]
        return "".join(
            report_to_json(dataclasses.replace(r, runtime_seconds=0.0))
            for r in reports
        )

    first = battery()
    second = battery()
    assert first == second
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0
    _finish(11, t0, 120.0, "two battery runs byte-identical; well under budget")
