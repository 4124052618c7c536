"""Experiment driver tests.

Heavier grids live in the acceptance suite; these runs use 2^12..2^14
nodes so the whole file stays in the seconds range.
"""

import dataclasses
import math
import sys
import threading
import tracemalloc
import weakref
from typing import NamedTuple

import numpy as np
import pytest

import fraclab.experiments as experiments
import fraclab.kernel as kernel
import fraclab.spectral as spectral
from fraclab.errors import DomainError, FraclabError, SupportRuleError
from fraclab.experiments import (
    convergence_study,
    counterexample_scan,
    dealias_spectrum,
    interp_sweep,
    random_function_source,
    refined_form,
    sign_sweep,
    truncation_bound_probe,
    verify_identity,
)
from fraclab.grid import GridFunction, GridSpec, sample, truncate
from fraclab.kernel import find_crossings
from fraclab.reports import ExperimentReport, Verdict, discrepancy, report_to_json
from fraclab.spectral import cross_spectrum, forward_transform, interpolation_ratio

from helpers import bits, frequency_axis, mollifier_bump
from oracles import CROSS_FORM, COMPACT_SOURCE, OFF_NODE_SOURCE, TWO_CROSSING_SOURCE

SPEC = GridSpec(1, 20.0, 16384)
SMALL = GridSpec(1, 20.0, 4096)
# sign_change_source(np.random.default_rng(0), 3) of bench/workloads.py:
# three simple roots, none on a grid node
THREE_ROOTS = (
    "-0.52479145329279364*(x+1.3770794281914158)*(x+0.69063985870838907)"
    "*(x-0.41088506196436292)*exp(-1.4127555772777218*(x-0.10663577576717986)^2)"
)


def strip_runtime(report):
    return (report.experiment, report.params, report.results, report.verdicts)


def frozen_json(report):
    return report_to_json(dataclasses.replace(report, runtime_seconds=0.0))


def test_discrepancy_basics():
    assert discrepancy(0.0, 0.0) == 0.0
    assert discrepancy(1.0, 1.0) == 0.0
    assert discrepancy(1.0, 2.0) == 0.5
    assert discrepancy(-1.0, 1.0) == 2.0


def test_verify_identity_cross_route_agreement():
    rep = verify_identity("x*exp(-x^2)", 1.25, spec=SPEC)
    assert rep.all_pass
    assert rep.experiment == "identity"
    assert rep.runtime_seconds > 0.0
    cross = [r for r in rep.results if r.kernel_value is not None]
    assert cross
    assert all(r.discrepancy <= 1e-3 for r in cross)


def test_verify_identity_refuses_single_signed_input():
    # without a sign change the cross form and the defect are 0, so nothing
    # decides a verdict; the input is refused, as convergence_study does
    for source in ("exp(-x^2)", "-exp(-x^2)"):
        with pytest.raises(DomainError, match="no sign change, so the cross form"):
            verify_identity(source, 1.25, spec=SMALL)


def test_verify_identity_validation():
    for bad in (1.0, 1.5, 2.0, -0.3):
        with pytest.raises(DomainError):
            verify_identity("x*exp(-x^2)", bad, spec=SMALL)
    # non-integer, but too close to 1 for the sign law
    with pytest.raises(DomainError, match="sign law needs s at least 1e-9 away from 1"):
        verify_identity("x*exp(-x^2)", 1.0 + 1e-10, spec=SMALL)
    # a tolerance that no discrepancy can meet is invalid input, not a fail
    for tol in (-1.0, 0.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            verify_identity("x*exp(-x^2)", 1.25, spec=SMALL, tol=tol)
    # single-signed input is refused before the support rule is checked
    with pytest.raises(DomainError, match="no sign change"):
        verify_identity("abs(x)", 1.25, spec=SMALL)


def test_report_determinism():
    a = verify_identity("x*exp(-x^2)", 1.25, spec=SMALL)
    b = verify_identity("x*exp(-x^2)", 1.25, spec=SMALL)
    assert strip_runtime(a) == strip_runtime(b)
    # wall time is the one field that may differ between runs
    assert frozen_json(a) == frozen_json(b)


def test_sign_sweep_gated_and_probe_orders():
    rep = sign_sweep("x*exp(-x^2)", [0.5, 1.25, 1.75], spec=SPEC)
    by_claim = {v.claim: v for v in rep.verdicts}
    gated = [v for v in rep.verdicts if "s=0.5" in v.claim or "s=1.25" in v.claim]
    assert gated and all(v.status == "pass" for v in gated)
    probe = [v for v in rep.verdicts if "s=1.75" in v.claim]
    assert probe and all(v.status == "inconclusive" for v in probe)
    assert any("diverge" in v.detail for v in probe)
    assert rep.all_pass  # inconclusive probes do not fail the sweep
    assert len(by_claim) == len(rep.verdicts)


def test_sign_sweep_probes_the_threshold_order():
    # the sign law is proven below 3/2 only, so s = 3/2 is a probe
    rep = sign_sweep("x*exp(-x^2)", [1.5], spec=SMALL)
    (verdict,) = rep.verdicts
    assert verdict.status == "inconclusive"
    assert verdict.detail.startswith("probe outside the proven range")


def test_sign_sweep_validation():
    for empty in ([], np.array([])):
        with pytest.raises(DomainError, match="s list must be nonempty"):
            sign_sweep("x*exp(-x^2)", empty, spec=SMALL)
    with pytest.raises(DomainError, match="order must be non-integer"):
        sign_sweep("x*exp(-x^2)", [0.5, 2.0], spec=SMALL)
    with pytest.raises(DomainError, match="sign law"):
        sign_sweep("x*exp(-x^2)", [0.5, 1.0 - 1e-10], spec=SMALL)
    # the sign law is gated on the error estimates, so the driver takes no
    # tolerance
    with pytest.raises(TypeError, match="tol"):
        sign_sweep("x*exp(-x^2)", [0.5], spec=SMALL, tol=1e-3)
    # without a sign change the defect is 0 at every order
    for source in ("exp(-x^2)", "-exp(-x^2)"):
        with pytest.raises(DomainError, match=r"no sign change, so the defect"):
            sign_sweep(source, [0.5, 1.25], spec=SMALL)


def test_counterexample_scan_exponents():
    rep = counterexample_scan(
        "x*exp(-x^2)", [1.4, 1.6], [80.0, 160.0, 320.0, 640.0, 1280.0], spec=SPEC
    )
    assert rep.all_pass
    growth = [r for r in rep.results if "exponent" in r.quantity]
    assert growth


def test_counterexample_scan_threshold_order_grows():
    # at s = 3/2 a kink's partial sums grow like log of the cutoff, the
    # exponent 2s - 3 = 0, and are not Cauchy
    rep = counterexample_scan(
        "x*exp(-x^2)", [1.5], [40.0, 80.0, 160.0, 320.0], spec=SMALL
    )
    (verdict,) = rep.verdicts
    assert verdict.claim == "partial sums at s=1.5 grow with exponent 2s-3"
    assert verdict.status == "pass", verdict.detail


def test_counterexample_scan_validation():
    cuts = [80.0, 160.0, 320.0, 640.0]
    with pytest.raises(DomainError, match="s list must be nonempty"):
        counterexample_scan("x*exp(-x^2)", [], [40.0, 80.0, 160.0, 320.0], spec=SMALL)
    with pytest.raises(DomainError):
        counterexample_scan("x*exp(-x^2)", [1.6], [80.0, 160.0], spec=SMALL)
    with pytest.raises(DomainError):
        counterexample_scan("x*exp(-x^2)", [1.6], [160.0, 80.0, 320.0, 640.0], spec=SMALL)
    with pytest.raises(DomainError):
        counterexample_scan("x*exp(-x^2)", [1.6], [80.0, 160.0, 320.0, 1e9], spec=SMALL)
    # a negative cutoff lies below the first shell, xi = 0
    with pytest.raises(DomainError, match="positive"):
        counterexample_scan("x*exp(-x^2)", [1.6], [-5.0, *cuts[:3]], spec=SMALL)
    # NaN fails every comparison, last or inside the list alike
    for bad in ([80.0, 160.0, 320.0, math.nan], [80.0, math.nan, 320.0, 640.0]):
        with pytest.raises(DomainError, match="cutoffs must be positive and finite"):
            counterexample_scan("x*exp(-x^2)", [1.3, 1.6], bad, spec=SMALL)
    # cutoffs that select no new shell leave the growth fit without data:
    # all below the first nonzero shell pi/L, or all inside shell 1 at L = 20
    for low in ([0.001, 0.002, 0.003, 0.004], [0.2, 0.21, 0.22, 0.23]):
        with pytest.raises(DomainError, match="dxi = pi/L = 0.15708"):
            counterexample_scan("x*exp(-x^2)", [1.6], low, spec=SMALL)
    # two cutoffs in one shell repeat a partial sum
    with pytest.raises(DomainError, match=r"select shells \[1, 2, 2, 3\]"):
        counterexample_scan("x*exp(-x^2)", [1.6], [0.2, 0.32, 0.4, 0.5], spec=SMALL)
    # the scan needs a model-shaped input (the cutoffs fit SMALL's range,
    # so that the shape is what is refused): find_crossings finds one sign
    # change...
    shape_cuts = [40.0, *cuts[:3]]
    for src, found in (
        ("exp(-x^2)", "not 0 times"),
        ("sin(3*x)*exp(-x^2)", "not 39 times"),
        ("-x*(x-1)*(x+1)*exp(-x^2)", "not 3 times"),
    ):
        with pytest.raises(DomainError) as err:
            counterexample_scan(src, [1.6], shape_cuts, spec=SMALL)
        assert str(err.value) == f"input must change sign once, {found}"
    # ...rising, within Delta/2 of the origin...
    off = 1.01 * SMALL.delta / 2.0
    for src in ("-x*exp(-x^2)", f"(x-{off!r})*exp(-x^2)", f"(x+{off!r})*exp(-x^2)"):
        with pytest.raises(DomainError) as err:
            counterexample_scan(src, [1.6], shape_cuts, spec=SMALL)
        assert str(err.value).startswith(
            "input must rise through 0 within Delta/2 of the origin, not cross at "
        )
    # ...in a simple root: a triple root has no kink to scan for
    with pytest.raises(DomainError, match="simple root"):
        counterexample_scan("x^3*exp(-x^2)", [1.6], shape_cuts, spec=SMALL)


def test_counterexample_scan_accepts_a_root_off_the_node():
    # a rising crossing within Delta/2 of the origin is the model shape,
    # on the node or off it
    rep = counterexample_scan(
        "(x-0.001)*exp(-x^2)", [1.3, 1.4, 1.6, 1.7], [40.0, 80.0, 160.0, 320.0],
        spec=SMALL,
    )
    assert [v.status for v in rep.verdicts] == ["pass"] * 4


def _scaled_reports(k):
    """The identity, sign-sweep, truncation-bound and counterexample
    reports of 2^k x exp(-x^2) on SMALL, the eps levels scaled by 2^k."""
    c = 2.0**k
    src = f"{c!r}*x*exp(-x^2)"
    eps = [c * e for e in (0.2, 0.1, 0.05, 0.02, 0.01)]
    return (
        verify_identity(src, 1.25, SMALL),
        sign_sweep(src, [0.25, 0.5, 0.75, 1.1, 1.25, 1.4], SMALL),
        truncation_bound_probe(src, 1.25, eps, SMALL),
        counterexample_scan(src, [1.3, 1.4, 1.6, 1.7], [40.0, 80.0, 160.0, 320.0], SMALL),
    )


_RECORD_VALUES = (
    "spectral_value", "kernel_value", "discrepancy", "spectral_error", "kernel_error"
)


def test_verdicts_do_not_depend_on_the_input_scale():
    # scaling by a power of two is exact, so every form and error estimate
    # scales by exactly 4^k and every relative figure stays as it is; the
    # counterexample's growth fit moves in its last bits, so only its
    # verdicts are compared
    base = _scaled_reports(0)
    for k in (-40, -20, 20):
        for rep, rep0 in zip(_scaled_reports(k), base):
            name = rep.experiment
            assert [v.status for v in rep.verdicts] == [
                v.status for v in rep0.verdicts
            ], (k, name)
            if name == "counterexample":
                continue
            for r, r0 in zip(rep.results, rep0.results):
                for field in _RECORD_VALUES:
                    v, v0 = getattr(r, field), getattr(r0, field)
                    assert v == v0 or v == v0 * 4.0**k, (k, name, r.quantity, field)


def test_verdicts_hold_at_scales_whose_squares_near_the_double_range():
    # at 2^266 (about 1e80) the fit residuals square past the double range,
    # and at 2^505 (about 1e152) so does the zero-level extrapolation's
    # product; both are then taken scaled, so the verdicts stay as they are
    base = _scaled_reports(0)
    for k in (266, 505):
        for rep, rep0 in zip(_scaled_reports(k), base):
            assert [v.status for v in rep.verdicts] == [
                v.status for v in rep0.verdicts
            ], (k, rep.experiment)


def test_fit_residual_is_taken_scaled_when_its_square_overflows():
    cuts = np.geomspace(10.0, 80.0, 12)
    vals = 1.0 + cuts**-0.5 + 1e-3 * np.sin(cuts)
    value, resid = spectral._fit_constant(cuts, vals, 1.25)
    big_value, big_resid = spectral._fit_constant(cuts, vals * 2.0**600, 1.25)
    assert math.isinf(resid * 2.0**600 * resid * 2.0**600)
    assert big_value == value * 2.0**600
    assert big_resid == pytest.approx(resid * 2.0**600, rel=1e-14)


def test_order_arrays_give_the_same_reports_as_lists():
    orders = [0.5, 1.25]
    for run in (
        lambda s_list: sign_sweep("x*exp(-x^2)", s_list, spec=SMALL),
        lambda s_list: counterexample_scan(
            "x*exp(-x^2)", s_list, [40.0, 80.0, 160.0, 320.0], spec=SMALL
        ),
    ):
        assert frozen_json(run(np.array(orders))) == frozen_json(run(orders))


def test_numpy_grid_size_gives_the_same_report():
    # an int64 N used to reach the report parameters and fail
    # serialization; numpy count and seed must not change the report either
    rep = interp_sweep(
        np.int64(2), seed=np.int32(3), spec=GridSpec(1, 20.0, np.int64(1024))
    )
    assert frozen_json(rep) == frozen_json(
        interp_sweep(2, seed=3, spec=GridSpec(1, 20.0, 1024))
    )


def test_interp_sweep_rejects_non_integral_count_and_seed():
    for count, seed in ((2.5, 3), (2, 3.5), (2, "3")):
        with pytest.raises(DomainError, match="count and seed must be integers"):
            interp_sweep(count, seed, spec=GridSpec(1, 20.0, 1024))
    with pytest.raises(DomainError, match="seed must be non-negative"):
        interp_sweep(2, -1, spec=GridSpec(1, 20.0, 1024))


def test_sign_sweep_does_not_call_a_nan_defect_zero():
    # at s = 95.5 the multiplier overflows to inf, inf * 0 is nan, and so is
    # the defect
    rep = sign_sweep("x*exp(-x^2)", [95.5], spec=GridSpec(1, 20.0, 1024))
    assert math.isnan(rep.results[0].spectral_value)
    (verdict,) = rep.verdicts
    assert verdict.status == "inconclusive"
    assert "defect is non-finite" in verdict.detail


def test_truncation_bound_probe_passes():
    rep = truncation_bound_probe("x*exp(-x^2)", 1.25, [0.04, 0.02, 0.01], spec=SPEC)
    assert rep.all_pass
    assert len(rep.verdicts) == 3


def test_truncation_bound_probe_validation():
    with pytest.raises(DomainError):
        truncation_bound_probe("x*exp(-x^2)", 1.25, [], spec=SMALL)
    with pytest.raises(DomainError):
        truncation_bound_probe("x*exp(-x^2)", 1.25, [-0.01, 0.02], spec=SMALL)
    with pytest.raises(DomainError):
        truncation_bound_probe("x*exp(-x^2)", 2.0, [0.02, 0.01], spec=SMALL)
    with pytest.raises(DomainError, match="positive part"):
        truncation_bound_probe("exp(-x^2)-2", 1.25, [0.02, 0.01], spec=SMALL)
    # the zero-level limit extrapolates from the two smallest levels
    with pytest.raises(DomainError, match="two eps levels"):
        truncation_bound_probe("x*exp(-x^2)", 1.25, [0.1], spec=SMALL)
    with pytest.raises(DomainError, match="distinct"):
        truncation_bound_probe("x*exp(-x^2)", 1.25, [0.1, 0.1], spec=SMALL)
    # the bad level is named whatever its position among the others
    for levels, shown in (
        ([math.nan, 0.1], "nan"),
        ([math.nan, math.nan, 0.1], "nan"),
        ([0.1, math.inf], "inf"),
        ([0.1, -math.inf], "-inf"),
    ):
        with pytest.raises(DomainError, match=f"must be finite, got {shown}$"):
            truncation_bound_probe("x*exp(-x^2)", 1.25, levels, spec=SMALL)
    # 1e-300 squared is 0, and the envelope divides by the squared levels
    with pytest.raises(DomainError, match="square underflows"):
        truncation_bound_probe("x*exp(-x^2)", 1.25, [0.01, 1e-300], spec=SMALL)
    # and 1e160 squared overflows: refused before the input is sampled
    with pytest.raises(DomainError, match=r"level 1e\+160 is too large: its square overflows$"):
        truncation_bound_probe("no such function", 1.25, [0.01, 1e160], spec=SMALL)
    # max(u) is about 0.43: every shifted form would be exactly 0
    with pytest.raises(DomainError, match="eps level 5 leaves no positive part"):
        truncation_bound_probe("x*exp(-x^2)", 1.25, [5.0, 6.0], spec=SMALL)
    for tol in (math.nan, 0.0, -1e-3):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            truncation_bound_probe(
                "x*exp(-x^2)", 1.25, [0.02, 0.01], spec=SMALL, tol=tol
            )


def test_convergence_study_orders_and_limit():
    rep = convergence_study("x*exp(-x^2)", 1.4, [2048, 4096, 8192, 16384],
                            extrapolate=False)
    quantities = [r.quantity for r in rep.results]
    assert any("spectral order" in q for q in quantities)
    assert any("kernel order" in q for q in quantities)
    assert any("richardson" in q.lower() for q in quantities)
    # the plain spectral route converges at the slow tail rate 3 - 2s
    spectral_orders = [
        r.spectral_value for r in rep.results if "spectral order" in r.quantity
    ]
    assert spectral_orders[-1] == pytest.approx(3.0 - 2.0 * 1.4, abs=0.05)


def test_convergence_study_extrapolated_routes_agree():
    rep = convergence_study("x*exp(-x^2)", 1.4, [2048, 4096, 8192, 16384])
    assert rep.all_pass


def test_convergence_study_degenerate_and_validation():
    # no sign change: the cross form is 0, there is nothing to converge
    with pytest.raises(DomainError, match="no sign change"):
        convergence_study("exp(-x^2)", 1.25, [1024, 2048, 4096])
    # orders without a kernel route
    for bad_s in (1.7, 1.0):
        with pytest.raises(DomainError, match="non-integer"):
            convergence_study("x*exp(-x^2)", bad_s, [1024, 2048, 4096])
    with pytest.raises(DomainError):
        convergence_study("x*exp(-x^2)", 1.25, [1024, 2048])
    for tol in (0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="tolerance must be positive"):
            convergence_study("x*exp(-x^2)", 1.25, [1024, 2048, 4096], tol=tol)


def test_interp_sweep_bound_and_determinism():
    a = interp_sweep(10, seed=20260817, spec=SMALL)
    assert a.all_pass
    assert len(a.results) == 10
    assert all(r.spectral_value <= 1.0 + 1e-12 for r in a.results)
    b = interp_sweep(10, seed=20260817, spec=SMALL)
    assert strip_runtime(a) == strip_runtime(b)


def test_random_function_source_family():
    rng = np.random.default_rng(5)
    seen = set()
    for _ in range(50):
        src = random_function_source(rng)
        seen.add(src)
        u = sample(src, SMALL)
        assert np.all(np.isfinite(u.samples))
    assert len(seen) > 40  # draws are essentially never repeated
    rng_a = np.random.default_rng(123)
    rng_b = np.random.default_rng(123)
    assert [random_function_source(rng_a) for _ in range(5)] == [
        random_function_source(rng_b) for _ in range(5)
    ]


def test_random_function_source_keeps_its_generator_stream():
    # recorded when each sign was drawn with rng.choice([-1.0, 1.0]); a
    # sign draw that took another share of the stream would change them
    rng = np.random.default_rng(0)
    assert random_function_source(rng) == (
        "0.41582937101109629*exp(-2.9756307097744346*(x+1.8361059042552212)^2)"
        " + 0.93020446182217742*exp(-0.94817264937822132*(x-0.9179862439359936)^2)"
        " + 0.85268284329722577*exp(-0.59793935287381661*(x+1.9890459993194076)^2)"
        "*cos(6.1075881250096087*x+1.1036768144935105)"
        " + -0.89054313787990935*exp(-1.1703871047536478*(x+0.80115243785046086)^2)"
        "*cos(1.8699829354969477*x+4.2136574690389281)"
    )
    assert random_function_source(rng) == (
        "-0.71775160925940007*exp(-0.50167825153629664*(x+0.46528978295246626)^2)"
        " + 0.7484335875845558*exp(-0.75633853101448867*(x-0.6018371050712652)^2)"
        "*cos(1.9456755351568784*x+4.5332449384088411)"
        " + -0.62028345798058071*exp(-0.57353784095454452*(x+0.056658564672843692)^2)"
    )


def _dealias_one_at_a_time(spectrum, kinks):
    # reference: each spectrum de-aliased on its own, one (location, jump)
    # kink at a time, with the ghost model written as one expression
    xi = frequency_axis(spectrum)
    ximax = np.pi * (spectrum.spec.N // 2) / spectrum.spec.L
    nz = np.abs(xi) > 1e-12
    xi_nz = xi[nz]
    pa = np.pi * (xi_nz / (2.0 * ximax))
    coeffs = spectrum.coeffs.copy()
    for z, jump in kinks:
        theta = (-ximax * z / np.pi) % 1.0
        lattice = (
            np.pi**2
            * np.exp(1j * pa * (1.0 - 2.0 * theta))
            * (np.cos(pa) - 1j * (1.0 - 2.0 * theta) * np.sin(pa))
            / np.sin(pa) ** 2
        )
        phase = np.exp(-1j * xi_nz * z)
        ghost = phase * lattice / (2.0 * ximax) ** 2 - phase / xi_nz**2
        coeffs[nz] -= -(jump / np.sqrt(2.0 * np.pi)) * ghost
    return coeffs


def test_dealias_matches_direct_image_sum():
    # ghost model vs literal sum over lattice translates; the kink sits at
    # the origin so translate phases drop and the truncated tail of the
    # direct sum has an elementary closed form
    spec = GridSpec(1, 20.0, 4096)
    u = sample("x*exp(-x^2)", spec)
    crossings = find_crossings(u)
    (dealiased,) = dealias_spectrum(u, crossings, ("pos",))
    su = forward_transform(truncate(u, "pos"))
    ghost = su.coeffs - dealiased.coeffs

    xi = frequency_axis(su)
    ximax = np.pi * (spec.N // 2) / spec.L
    idx = np.flatnonzero(np.abs(xi) >= ximax / 8.0)[::37]
    z, slope = crossings[0]
    assert z == 0.0
    jump = abs(slope)
    M = 10000
    m = np.arange(1, M + 1, dtype=float)
    tail = (1.0 / (2.0 * ximax**2)) * (
        1.0 / M - 1.0 / (2.0 * M**2) + 1.0 / (6.0 * M**3)
    )
    brute = np.empty(idx.size, dtype=complex)
    for i, k in enumerate(idx):
        eta_p = xi[k] + 2.0 * m * ximax
        eta_m = xi[k] - 2.0 * m * ximax
        ssum = float(np.sum(eta_p**-2.0 + eta_m**-2.0))
        brute[i] = -(jump / np.sqrt(2.0 * np.pi)) * (ssum + tail)
    scale = np.max(np.abs(ghost[idx]))
    assert np.max(np.abs(ghost[idx] - brute)) <= 1e-10 * scale


def test_dealias_noop_without_kinks():
    u = sample("exp(-x^2)", SMALL)
    (out,) = dealias_spectrum(u, [], ("abs",))
    assert np.array_equal(out.coeffs, forward_transform(truncate(u, "abs")).coeffs)


def test_shared_dealias_matches_one_spectrum_at_a_time():
    # u+ and u- carry the jump |slope| at every crossing, |u| twice it
    u = sample(THREE_ROOTS, SMALL)
    crossings = find_crossings(u)
    assert len(crossings) == 3
    modes = ("pos", "neg", "abs")
    shared = dealias_spectrum(u, crossings, modes)
    for mode, spectrum, factor in zip(modes, shared, (1.0, 1.0, 2.0)):
        kinks = [(z, factor * abs(slope)) for z, slope in crossings]
        alone = _dealias_one_at_a_time(forward_transform(truncate(u, mode)), kinks)
        assert np.array_equal(spectrum.coeffs, alone)


class _FullAxis(NamedTuple):
    """The fields of spectral._ghost_block, in its order, over every
    nonzero frequency."""

    ximax: float
    xi: np.ndarray
    pa: np.ndarray  # pi alpha
    cos_pa: np.ndarray
    sin_pa: np.ndarray
    sin_sq: np.ndarray  # sin^2(pi alpha)
    xi_sq: np.ndarray


def _alias_basis_full_axis(spectrum):
    """Reference: the ghost block over every nonzero frequency, k = -N/2
    .. -1 and then k = 1 .. N/2 - 1."""
    c = spectrum.spec.N // 2
    ximax = np.pi * c / spectrum.spec.L
    xi = frequency_axis(spectrum)
    xi = np.concatenate((xi[c:], xi[1:c]))
    pa = np.pi * (xi / (2.0 * ximax))
    sin_pa = np.sin(pa)
    return _FullAxis(ximax, xi, pa, np.cos(pa), sin_pa, sin_pa**2, xi**2)


def _crossing_ghost_reference(z, basis, ghost, work):
    """Reference: the ghost of a kink at z with complex exponentials and
    complex quotients by sin^2(pi alpha) and xi^2, as the module docstring
    writes it, on buffers of any length (the whole axis here)."""
    b = basis
    theta = (-b.ximax * z / np.pi) % 1.0
    w = 1.0 - 2.0 * theta
    np.multiply(1j, b.pa, out=ghost)
    np.multiply(ghost, w, out=ghost)
    np.exp(ghost, out=ghost)
    np.multiply(1j * w, b.sin_pa, out=work)
    np.subtract(b.cos_pa, work, out=work)
    np.multiply(np.pi**2, ghost, out=ghost)
    np.multiply(ghost, work, out=ghost)
    np.divide(ghost, b.sin_pa**2, out=ghost)
    np.multiply(-1j, b.xi, out=work)
    np.multiply(work, z, out=work)
    np.exp(work, out=work)
    np.multiply(work, ghost, out=ghost)
    ghost /= (2.0 * b.ximax) ** 2
    ghost -= np.divide(work, b.xi**2, out=work)


def _dealias_full_axis(u, crossings, modes):
    """Reference: dealias_spectrum with every ghost evaluated by
    _crossing_ghost_reference on the whole axis instead of mirrored from
    its negative half."""
    spectra = [forward_transform(truncate(u, m)) for m in modes]
    basis = _alias_basis_full_axis(spectra[0])
    c = u.spec.N // 2
    ghost = np.empty(u.spec.N - 1, dtype=complex)
    work = np.empty_like(ghost)
    for z, slope in crossings:
        _crossing_ghost_reference(z, basis, ghost, work)
        for mode, spectrum in zip(modes, spectra):
            jump = spectral._JUMP_FACTOR[mode] * abs(slope)
            np.multiply(-(jump / np.sqrt(2.0 * np.pi)), ghost, out=work)
            spectrum.coeffs[c:] -= work[:c]
            spectrum.coeffs[1:c] -= work[c:]
    return spectra


def _two_crossings(N):
    """An input with two crossings that the transform accepts at N: below
    2^10 nodes only the inner half of the box may carry samples above the
    support floor, 1e-12 of the largest |sample|."""
    if N == 8:  # nodes -12, -9, ..., 9
        return GridFunction(
            GridSpec(1, 12.0, 8), np.array([0.0, 0.0, 0.0, -1.0, 0.5, -2.0, 0.0, 0.0])
        )
    return sample("(x-0.3)*(x+1.1)*exp(-x^2)", GridSpec(1, 20.0, N))


@pytest.mark.parametrize("N", [8, 1024, 2**14, 2**16])
@pytest.mark.parametrize("L", [20.0, 7.3])
def test_alias_basis_is_the_mirrored_negative_half(N, L):
    # the ghost blocks over k = -N/2 .. -1, end to end, are the first half
    # of the full-axis block, and the full one is odd (xi, pi alpha, sin) or
    # even (cos, sin^2, xi^2) bit for bit
    spectrum = forward_transform(GridFunction(GridSpec(1, L, N), np.zeros(N)))
    c = N // 2
    blocks = [
        spectral._ghost_block(spectrum.spec, lo, min(lo + spectral._BLOCK, c))
        for lo in range(0, c, spectral._BLOCK)
    ]
    assert len(blocks) == max(1, c // 8192)
    full = _alias_basis_full_axis(spectrum)
    assert all(b[0] == full.ximax for b in blocks)
    for i, sign in enumerate([-1.0, -1.0, 1.0, -1.0, 1.0, 1.0], start=1):
        h, f, name = np.concatenate([b[i] for b in blocks]), full[i], full._fields[i]
        assert h.size == c
        assert np.array_equal(bits(h), bits(f[:c])), name
        assert np.array_equal(bits(f[c:]), bits(sign * h[c - 1 : 0 : -1])), name


@pytest.mark.parametrize("N", [8, 1024, 2**14, 2**15, 2**16])
def test_mirrored_ghosts_match_full_axis_ghosts(N):
    # 2^15 and 2^16 are two and four ghost blocks, so they cover the seams
    u = _two_crossings(N)
    crossings = find_crossings(u)
    assert len(crossings) == 2
    modes = ("pos", "neg", "abs")
    got = dealias_spectrum(u, crossings, modes)
    want = _dealias_full_axis(u, crossings, modes)
    for a, b in zip(got, want):
        assert np.array_equal(bits(a.coeffs), bits(b.coeffs))


def _pinned_crossing(N, case):
    """A crossing location of one of the signed-zero cases at N nodes."""
    spec = _two_crossings(N).spec
    if case == "node":
        z = float(spec.axis_nodes()[N // 2 + 1])
        assert z == spec.delta
        return z
    if case == "half":  # theta = 1/2, so w = 1 - 2 theta = 0
        z = spec.delta / 2.0
        assert (-(np.pi * (N // 2) / spec.L) * z / np.pi) % 1.0 == 0.5
        return z
    return {"zero": 0.0, "negative zero": -0.0, "subnormal": -5e-324}[case]


@pytest.mark.parametrize("N", [8, 1024, 2**14])
@pytest.mark.parametrize("case", ["zero", "negative zero", "node", "half", "subnormal"])
def test_ghost_matches_the_complex_exponential_form(N, case):
    # the one-block builder gives the ghost of the complex form over
    # k = -N/2 .. -1 (one block at every N here) bit for bit, signed zeros
    # included
    u = _two_crossings(N)
    z = _pinned_crossing(N, case)
    spectrum = forward_transform(u)
    c = N // 2
    assert c <= spectral._BLOCK
    ghost, work = np.empty(c, dtype=complex), np.empty(c, dtype=complex)
    spectral._crossing_ghost(z, spectral._ghost_block(spectrum.spec, 0, c), ghost, work)
    want_ghost = np.empty(N - 1, dtype=complex)
    want_work = np.empty_like(want_ghost)
    _crossing_ghost_reference(
        z, _alias_basis_full_axis(spectrum), want_ghost, want_work
    )
    assert np.array_equal(bits(ghost), bits(want_ghost[:c]))
    assert np.array_equal(bits(work), bits(want_work[:c]))
    # and the spectra de-aliased through the mirrored half
    crossings = [(z, find_crossings(u)[0][1])]
    modes = ("pos", "neg", "abs")
    got = dealias_spectrum(u, crossings, modes)
    for a, b in zip(got, _dealias_full_axis(u, crossings, modes)):
        assert np.array_equal(bits(a.coeffs), bits(b.coeffs))


def test_each_cross_spectrum_formed_once_across_orders(monkeypatch):
    calls = []

    def counting(su, sv):
        calls.append(1)
        return cross_spectrum(su, sv)

    # |u| against |u| in experiments, u against u in spectral._plain_cross
    for module in (experiments, spectral):
        monkeypatch.setattr(module, "cross_spectrum", counting)
    orders = [0.5, 1.25, 1.75, 0.75]
    rep = sign_sweep("(x-0.3)*exp(-x^2)", orders, spec=SMALL)
    assert len(rep.results) == len(orders)
    assert len(calls) == 2  # u against u and |u| against |u|
    calls.clear()
    counterexample_scan(
        "x*exp(-x^2)", [1.3, 1.4, 1.6, 1.7], [80.0, 160.0, 320.0, 640.0, 1280.0],
        spec=SPEC,
    )
    assert len(calls) == 1


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_interp_sweep_holds_one_draw_per_thread():
    # tracemalloc peak of interp_sweep(50) at 2^14 after the same warm-up:
    # 7,775,592 bytes while every draw was held to the end, 1,262,514 once
    # each draw was dropped after its ratio on one thread; with two threads
    # 2.59 MB while interpolation_ratio held each spectrum beside its cross
    # spectrum and 2.01 MB once it drops it; 1.86-1.87 MB while a cross
    # spectrum was complex and 1.47-1.48 MB since it is real (numpy 2.4.6,
    # Python 3.11)
    interp_sweep(3, seed=1, spec=GridSpec(1, 20.0, 1024))
    assert _peak_bytes(lambda: interp_sweep(50, seed=0, spec=SPEC)) <= 1_700_000


def serial_ratios(count, seed, spec):
    """interp_sweep's draws in one plain loop, as it once took them:
    (ratios, None), or (ratios so far, the first error)."""
    rng = np.random.default_rng(seed)
    ratios = []
    for _ in range(count):
        s = float(rng.uniform(0.1, 1.45))
        tau = s * float(rng.uniform(0.05, 0.95))
        source = random_function_source(rng)
        try:
            ratios.append(interpolation_ratio(sample(source, spec), tau, s))
        except FraclabError as exc:
            return ratios, exc
    return ratios, None


class CountingThread(threading.Thread):
    started = []

    def start(self):
        CountingThread.started.append(self)
        super().start()


def test_interp_sweep_report_does_not_depend_on_its_threads(monkeypatch):
    monkeypatch.setattr(spectral.threading, "Thread", CountingThread)
    taken = []
    ratio = experiments.interpolation_ratio

    def counting_ratio(v, tau, s):
        taken.append(tau)
        return ratio(v, tau, s)

    monkeypatch.setattr(experiments, "interpolation_ratio", counting_ratio)
    spec = GridSpec(1, 20.0, 1024)
    # an odd count gives the two strides different lengths
    ratios, error = serial_ratios(7, 5, spec)
    assert error is None
    reports = []
    # one and two CPUs by affinity, then two by cpu_count where the
    # platform has no affinity call
    for cpus, call in ((1, "sched_getaffinity"), (2, "sched_getaffinity"), (2, "cpu_count")):
        if call == "cpu_count":
            monkeypatch.delattr(spectral.os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(spectral.os, "cpu_count", lambda: cpus)
        else:
            monkeypatch.setattr(spectral.os, call, lambda pid: set(range(cpus)))
        CountingThread.started = []
        taken.clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # many switches, to expose a lost write
        try:
            rep = interp_sweep(7, seed=5, spec=spec)
        finally:
            sys.setswitchinterval(interval)
        assert len(CountingThread.started) == cpus - 1
        assert not any(t.is_alive() for t in CountingThread.started)
        assert len(taken) == 7  # every draw once
        assert [r.spectral_value for r in rep.results] == ratios
        reports.append(frozen_json(rep))
        # one draw starts no helper
        interp_sweep(1, seed=5, spec=spec)
        assert len(CountingThread.started) == cpus - 1
    assert reports[0] == reports[1] == reports[2]


def test_interp_sweep_raises_the_first_failing_draw_and_joins_its_threads(monkeypatch):
    # at L = 14 draw 1, on the helper's stride, is the first whose tails
    # break the support rule; the main thread's first failure is draw 2
    spec = GridSpec(1, 14.0, 4096)
    ratios, error = serial_ratios(20, 3, spec)
    assert len(ratios) == 1
    assert isinstance(error, SupportRuleError)
    assert str(error) == (
        "samples reach 1.079e-10 on the outer half of the box, |x| >= L/2 with "
        "L=14; the transform needs decay below 1e-12 of the largest |sample|, "
        "7.655e-01, there"
    )
    # the helper samples draw 1 only once the main thread has failed at
    # draw 2, so that both failures are on record
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1})
    main_failed = threading.Event()
    sample_, ratio = experiments.sample, experiments.interpolation_ratio

    def late_sample(source, spec):
        if threading.current_thread() is not threading.main_thread():
            main_failed.wait(timeout=10.0)
        return sample_(source, spec)

    def noting_ratio(v, tau, s):
        try:
            return ratio(v, tau, s)
        except FraclabError:
            if threading.current_thread() is threading.main_thread():
                main_failed.set()
            raise

    monkeypatch.setattr(experiments, "sample", late_sample)
    monkeypatch.setattr(experiments, "interpolation_ratio", noting_ratio)
    threads = threading.active_count()
    with pytest.raises(SupportRuleError) as caught:
        interp_sweep(20, seed=3, spec=spec)
    assert main_failed.is_set()
    assert str(caught.value) == str(error)
    assert threading.active_count() == threads
    interp_sweep(20, seed=3, spec=GridSpec(1, 20.0, 1024))
    assert threading.active_count() == threads


def test_interp_sweep_takes_no_draw_after_a_known_failure(monkeypatch):
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(spectral.threading, "Thread", CountingThread)
    CountingThread.started = []
    taken = []

    def ratio(v, tau, s):
        if threading.current_thread() is not threading.main_thread():
            raise DomainError("draw 1 failed")
        # the main thread ends draw 0 once the helper has failed at draw 1
        helper = CountingThread.started[0]
        helper.join(timeout=10.0)
        assert not helper.is_alive()
        taken.append(tau)
        return 0.5

    monkeypatch.setattr(experiments, "interpolation_ratio", ratio)
    with pytest.raises(DomainError, match="draw 1 failed"):
        interp_sweep(20, seed=0, spec=GridSpec(1, 20.0, 1024))
    assert len(taken) == 1


def test_one_ghost_per_crossing(monkeypatch):
    # the tracer of bench/ binds experiments.dealias_spectrum by name, so
    # the drivers must look it up there
    ghosts, calls = [], []
    build = spectral._crossing_ghost
    dealias = experiments.dealias_spectrum

    def counting_build(z, *args):
        ghosts.append(z)
        return build(z, *args)

    def counting_dealias(u, crossings, modes):
        calls.append((len(crossings), tuple(modes)))
        return dealias(u, crossings, modes)

    monkeypatch.setattr(spectral, "_crossing_ghost", counting_build)
    monkeypatch.setattr(experiments, "dealias_spectrum", counting_dealias)
    rep = verify_identity(THREE_ROOTS, 0.6, spec=SMALL)
    assert rep.all_pass
    assert len(ghosts) == 3
    assert calls == [(3, ("pos", "neg", "abs"))]

    ghosts.clear()
    Ns = [1024, 2048, 4096]
    # roots +-0.625 are grid nodes at every N here, so the kernel route
    # converges as well
    convergence_study("(x^2-0.390625)*exp(-x^2)", 1.25, Ns)
    assert len(ghosts) == 2 * len(Ns)

    # at 2^17 on two CPUs the helper thread builds each of two ghosts once
    # per block of 8,192 frequencies for all three spectra; three crossings
    # stay in the per-block loop on the calling thread, as often
    builders = set()

    def noting_build(z, *args):
        builders.add(threading.current_thread())
        return counting_build(z, *args)

    monkeypatch.setattr(spectral, "_crossing_ghost", noting_build)
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1})
    for src, k, on_helper in (
        ("(x^2-0.390625)*exp(-x^2)", 2, True),
        (THREE_ROOTS, 3, False),
    ):
        ghosts.clear()
        builders.clear()
        u = sample(src, GridSpec(1, 20.0, 2**17))
        dealias(u, find_crossings(u), ("pos", "neg", "abs"))
        assert len(ghosts) == k * 8
        assert len(builders) == 1
        assert (threading.main_thread() not in builders) == on_helper


def test_verify_identity_peak_memory():
    # tracemalloc peak of this call before the ghosts were shared:
    # 12,261,288 bytes (numpy 2.4.6, Python 3.11, after the same warm-up);
    # the shared de-aliasing measured 9,049,832, and 7,475,424 before the
    # in-place transform and the half-axis ghost buffers, which measured
    # 6,426,688
    verify_identity("x*exp(-x^2)", 1.25, spec=GridSpec(1, 20.0, 1024))
    spec = GridSpec(1, 20.0, 2**16)
    assert _peak_bytes(lambda: verify_identity("x*exp(-x^2)", 1.25, spec=spec)) <= 6_500_000


def test_verify_identity_holds_no_spectrum_in_the_kernel_route(monkeypatch):
    # the transforms of u+, u-, |u| and u are all dropped before the
    # quadrature starts, so its allocations do not add to an N-point spectrum
    spectra = []

    def recording(u):
        spectrum = forward_transform(u)
        spectra.append(weakref.ref(spectrum.coeffs))
        return spectrum

    def kernel_cross(*args):
        assert len(spectra) == 4
        assert all(ref() is None for ref in spectra)
        return original(*args)

    original = experiments._kernel_cross
    # experiments too, should a driver transform u itself
    for module in (experiments, spectral):
        monkeypatch.setattr(module, "forward_transform", recording, raising=False)
    monkeypatch.setattr(experiments, "_kernel_cross", kernel_cross)
    assert verify_identity("x*exp(-x^2)", 1.25, spec=SMALL).all_pass


def test_sign_sweep_peak_memory():
    # 7,475,000 bytes while the spectrum of u was held through the
    # de-aliasing of |u| and the transform kept two complex arrays; the
    # in-place transform and dropping that spectrum measured 5,377,432
    # (numpy 2.4.6, Python 3.11, after the same warm-up), and ghosts built
    # one block at a time instead of over the half axis measured 3,938,562,
    # and real cross spectra 3,671,880-3,672,792; holding the spectrum of u
    # again would cost 1 MiB more
    orders = [0.5, 0.75, 1.25, 1.75]
    sign_sweep("x*exp(-x^2)", orders, spec=GridSpec(1, 20.0, 1024))
    spec = GridSpec(1, 20.0, 2**16)
    assert _peak_bytes(lambda: sign_sweep("x*exp(-x^2)", orders, spec=spec)) <= 3_800_000


def test_counterexample_scan_peak_memory():
    # 3,672,360 bytes while the scan built the node axis for its shape
    # checks, 3,147,992 since it reads the shape from the crossing list
    # (numpy 2.4.6, Python 3.11, after the same warm-up)
    orders, cuts = [1.3, 1.4, 1.6, 1.7], [80.0, 160.0, 320.0, 640.0, 1280.0]
    counterexample_scan("x*exp(-x^2)", orders, [40.0, 80.0, 160.0, 320.0], SMALL)
    spec = GridSpec(1, 20.0, 2**16)
    peak = _peak_bytes(lambda: counterexample_scan("x*exp(-x^2)", orders, cuts, spec))
    assert peak <= 3_300_000


def test_dealias_spectrum_peak_memory():
    # 3,803,616 bytes while the ghost basis and buffers spanned the half
    # axis, 1,902,320 with one block of 8,192 frequencies at a time (numpy
    # 2.4.6, Python 3.11, after the same warm-up), of which the 1 MiB
    # result is the largest part
    small = sample("x*exp(-x^2)", GridSpec(1, 20.0, 1024))
    dealias_spectrum(small, find_crossings(small), ("pos",))
    u = sample("x*exp(-x^2)", GridSpec(1, 20.0, 2**16))
    crossings = find_crossings(u)
    assert _peak_bytes(lambda: dealias_spectrum(u, crossings, ("pos",))) <= 2_100_000


def test_overlapped_dealias_spectrum_peak_memory(monkeypatch):
    # 3,148,272 bytes in the per-block loop at 2^17 and 5,119,749 with the
    # ghosts built on a helper thread into a (1, N/2) store beside the
    # transform (numpy 2.4.6, Python 3.11, after the same warm-up): the 1 MiB
    # store and the helper's block buffers are held while the transform is
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1})
    small = sample("x*exp(-x^2)", GridSpec(1, 20.0, 1024))
    dealias_spectrum(small, find_crossings(small), ("pos",))
    u = sample("x*exp(-x^2)", GridSpec(1, 20.0, 2**17))
    crossings = find_crossings(u)
    assert _peak_bytes(lambda: dealias_spectrum(u, crossings, ("pos",))) <= 5_500_000


def test_many_crossings_stay_in_the_per_block_loop_memory(monkeypatch):
    # 39 crossings at 2^17 on two CPUs: 3,148,408 bytes, as in the per-block
    # loop for one crossing; with a (39, N/2) store beside the transform the
    # peak was 44,703,229 (numpy 2.4.6, Python 3.11)
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1})
    small = sample("x*exp(-x^2)", GridSpec(1, 20.0, 1024))
    dealias_spectrum(small, find_crossings(small), ("pos",))
    u = sample("sin(3*x)*exp(-x^2)", GridSpec(1, 20.0, 2**17))
    crossings = find_crossings(u)
    assert len(crossings) == 39
    assert _peak_bytes(lambda: dealias_spectrum(u, crossings, ("pos",))) <= 3_500_000


def _overlap_case(case):
    """An input at N = 2^17 with 1 or 2 crossings, or the two-crossing input
    with its first slope at one of the signed-zero crossings of
    _pinned_crossing; (u, crossings)."""
    N = 2**17
    if case == 1:
        u = sample("x*exp(-x^2)", GridSpec(1, 20.0, N))
    else:
        u = _two_crossings(N)
    crossings = find_crossings(u)
    if isinstance(case, str):
        return u, [(_pinned_crossing(N, case), crossings[0][1])]
    assert len(crossings) == case
    return u, crossings


@pytest.mark.parametrize("case", [1, 2, "zero", "negative zero", "node", "half", "subnormal"])
def test_overlapped_dealias_matches_the_per_block_loop(monkeypatch, case):
    # from 2^17 on, two CPUs build the ghosts on a helper thread beside the
    # transforms and one CPU in the per-block loop, with the same bits
    monkeypatch.setattr(spectral.threading, "Thread", CountingThread)
    u, crossings = _overlap_case(case)
    modes = ("pos", "neg", "abs")
    got = []
    for cpus in (1, 2):
        monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        CountingThread.started = []
        got.append(dealias_spectrum(u, crossings, modes))
        assert len(CountingThread.started) == cpus - 1
        assert not any(t.is_alive() for t in CountingThread.started)
    for serial, overlapped in zip(*got):
        assert serial.kinked and overlapped.kinked
        assert np.array_equal(bits(serial.coeffs), bits(overlapped.coeffs))


def test_dealias_spectrum_starts_a_thread_only_when_the_overlap_pays(monkeypatch):
    # one usable CPU, a grid below 2^17, no crossing or more than two: no
    # helper thread
    monkeypatch.setattr(spectral.threading, "Thread", CountingThread)
    big = sample("x*exp(-x^2)", GridSpec(1, 20.0, 2**17))
    small = sample("x*exp(-x^2)", GridSpec(1, 20.0, 2**16))
    three = sample(THREE_ROOTS, GridSpec(1, 20.0, 2**17))
    assert len(find_crossings(three)) == 3
    for cpus, u, crossings in (
        (1, big, find_crossings(big)),
        (2, small, find_crossings(small)),
        (2, big, []),
        (2, three, find_crossings(three)),
    ):
        monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: set(range(cpus)))
        CountingThread.started = []
        dealias_spectrum(u, crossings, ("pos",))
        assert CountingThread.started == []
    # without the affinity call, cpu_count decides
    monkeypatch.delattr(spectral.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(spectral.os, "cpu_count", lambda: 1)
    dealias_spectrum(big, find_crossings(big), ("pos",))
    assert CountingThread.started == []
    monkeypatch.setattr(spectral.os, "cpu_count", lambda: 2)
    dealias_spectrum(big, find_crossings(big), ("pos",))
    assert len(CountingThread.started) == 1


def test_overlapped_dealias_raises_and_joins_its_helper(monkeypatch):
    monkeypatch.setattr(spectral.threading, "Thread", CountingThread)
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1})
    threads = threading.active_count()
    # an error in the helper's ghosts reaches the caller
    u = sample("x*exp(-x^2)", GridSpec(1, 20.0, 2**17))
    build = spectral._crossing_ghost

    def failing_build(z, *args):
        if threading.current_thread() is not threading.main_thread():
            raise DomainError("ghost failed")
        return build(z, *args)

    monkeypatch.setattr(spectral, "_crossing_ghost", failing_build)
    CountingThread.started = []
    with pytest.raises(DomainError, match="ghost failed"):
        dealias_spectrum(u, find_crossings(u), ("pos", "abs"))
    assert len(CountingThread.started) == 1
    assert not CountingThread.started[0].is_alive()
    assert threading.active_count() == threads
    monkeypatch.setattr(spectral, "_crossing_ghost", build)
    # and so does the support rule of a transform, as in the per-block loop;
    # the slow decay leaves u+ at 20 exp(-4) on the box's edge
    wide = sample("x*exp(-x^2/100)", GridSpec(1, 20.0, 2**17))
    crossings = find_crossings(wide)
    CountingThread.started = []
    with pytest.raises(SupportRuleError) as overlapped:
        dealias_spectrum(wide, crossings, ("pos",))
    assert len(CountingThread.started) == 1
    assert not CountingThread.started[0].is_alive()
    assert threading.active_count() == threads
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0})
    with pytest.raises(SupportRuleError) as serial:
        dealias_spectrum(wide, crossings, ("pos",))
    assert str(overlapped.value) == str(serial.value)


def test_dealiased_spectra_say_so():
    u = sample("x*exp(-x^2)", SMALL)
    sp, sa = dealias_spectrum(u, find_crossings(u), ("pos", "abs"))
    su = forward_transform(u)
    assert sp.kinked and sa.kinked and not su.kinked
    # a cross spectrum is kinked when either factor is
    assert cross_spectrum(sp, su).kinked and cross_spectrum(su, sa).kinked
    assert not cross_spectrum(su, su).kinked
    # without a crossing there is no ghost to subtract
    (plain,) = dealias_spectrum(u, [], ("pos",))
    assert not plain.kinked
    # extrapolate is keyword-only, so a stale positional kinky flag raises
    with pytest.raises(TypeError):
        refined_form(cross_spectrum(sp, sp), 1.25, True)


def test_refined_form_polarization():
    u = sample("x*exp(-x^2)", SPEC)
    sp, sm, sa = dealias_spectrum(u, find_crossings(u), ("pos", "neg", "abs"))
    su = forward_transform(u)
    for s in (1.1, 1.25):
        cross = refined_form(cross_spectrum(sp, sm), s)
        whole = refined_form(cross_spectrum(su, su), s)
        full = refined_form(cross_spectrum(sa, sa), s)
        lhs = 4.0 * cross.value
        rhs = full.value - whole.value
        assert abs(lhs - rhs) <= 1e-12 * max(abs(full.value), abs(whole.value))


def test_all_pass_semantics():
    def rep(*statuses):
        return ExperimentReport(
            experiment="t",
            params={},
            results=(),
            verdicts=tuple(
                Verdict(claim=f"c{i}", status=st, detail="")
                for i, st in enumerate(statuses)
            ),
            runtime_seconds=0.1,
        )

    assert rep("pass", "pass").all_pass
    assert rep("pass", "inconclusive").all_pass
    assert not rep("pass", "fail").all_pass


def test_mollifier_bump_properties():
    spec = GridSpec(1, 16.0, 8192)
    b = mollifier_bump(spec, -2.0, 0.5)
    assert float(np.sum(b.samples)) * spec.delta == pytest.approx(1.0, rel=1e-14)
    x = spec.axis_nodes()
    assert np.all(b.samples[np.abs(x + 2.0) >= 0.5] == 0.0)
    assert np.all(b.samples >= 0.0)
    with pytest.raises(DomainError):
        mollifier_bump(spec, 0.0, -0.5)
    # a support squeezed between two nodes holds no samples at all
    with pytest.raises(DomainError):
        mollifier_bump(spec, 0.5 * spec.delta, 1e-9)


@pytest.mark.parametrize("orders", [[0.5], [0.5, 1.25, 1.75, 0.75]])
def test_sign_sweep_transforms_each_input_once(monkeypatch, orders):
    calls = []

    def counting(u):
        calls.append(u)
        return forward_transform(u)

    # u in spectral._plain_cross, |u| in spectral._dealias
    monkeypatch.setattr(spectral, "forward_transform", counting)
    rep = sign_sweep("x*exp(-x^2)", orders, spec=SMALL)
    assert len(calls) == 2
    assert len(rep.verdicts) == len(orders)


def test_sign_sweep_matches_refined_form_per_order():
    u = sample("(x-0.3)*exp(-x^2)", SMALL)
    su = forward_transform(u)
    (sa,) = dealias_spectrum(u, find_crossings(u), ("abs",))
    orders = [0.5, 1.25]
    rep = sign_sweep("(x-0.3)*exp(-x^2)", orders, spec=SMALL)
    for s, rec in zip(orders, rep.results):
        q_plain = refined_form(cross_spectrum(su, su), s)
        q_abs = refined_form(cross_spectrum(sa, sa), s)
        assert rec.spectral_value == q_abs.value - q_plain.value
        assert rec.spectral_error == q_abs.error_estimate + q_plain.error_estimate


def _spectral_cross_form(source, s):
    # the oracle tests check the value only; whether the reported estimate
    # covers its error is checked once the routes' estimates are fixed to
    # do so
    u = sample(source, SPEC)
    sp, sm = dealias_spectrum(u, find_crossings(u), ("pos", "neg"))
    return refined_form(cross_spectrum(sp, sm), s).value


@pytest.mark.parametrize(
    "s, rel",
    [(1.25, 5e-5), (0.75, 2e-4), (1.1, 3e-5), (1.45, 2e-4), (0.5, 5e-6)],
)
def test_spectral_cross_form_meets_off_node_oracle(s, rel):
    # the errors read 2.23e-5, 9.80e-5, 1.39e-5, 9.20e-5 and 2.09e-6
    value = _spectral_cross_form(OFF_NODE_SOURCE, s)
    assert value == pytest.approx(CROSS_FORM[OFF_NODE_SOURCE][s], rel=rel)


@pytest.mark.parametrize(
    "s, rel",
    [(1.25, 3e-3), (0.75, 2e-4), (1.1, 2.5e-3), (1.45, 9e-3), (0.5, 5e-6)],
)
def test_spectral_cross_form_meets_two_crossing_oracle(s, rel):
    # the errors read 1.40e-3, 9.64e-5, 1.07e-3, 4.10e-3 and 2.07e-6; at
    # s > 1 the one-kink tail model meets two kinks
    value = _spectral_cross_form(TWO_CROSSING_SOURCE, s)
    assert value == pytest.approx(CROSS_FORM[TWO_CROSSING_SOURCE][s], rel=rel)


@pytest.mark.parametrize(
    "s, rel",
    [(1.25, 2.5e-4), (0.75, 1.5e-4), (1.1, 2e-4), (1.45, 7e-4), (0.5, 3e-6)],
)
def test_spectral_cross_form_meets_compact_support_oracle(s, rel):
    # the errors read 1.12e-4, 5.93e-5, 8.87e-5, 3.18e-4 and 1.11e-6
    value = _spectral_cross_form(COMPACT_SOURCE, s)
    assert value == pytest.approx(CROSS_FORM[COMPACT_SOURCE][s], rel=rel)


def _count_crossing_scans(monkeypatch):
    # the drivers look find_crossings up in experiments; a scan inside the
    # kernel route would look it up in kernel, so both names count into one
    # list
    calls = []

    def counting(u):
        calls.append(u)
        return find_crossings(u)

    monkeypatch.setattr(experiments, "find_crossings", counting)
    monkeypatch.setattr(kernel, "find_crossings", counting)
    return calls


def test_root_rounded_onto_a_node_ends_in_a_verdict():
    # the root of x + 1e-30 rounds onto the node 0, whose sample is the
    # tiny 1e-30; a split that read signs from the samples counted the
    # node in both neighbouring regions and raised "region interiors
    # overlap"
    source = "(x+1e-30)*exp(-x^2)"
    assert verify_identity(source, 0.75).all_pass
    assert convergence_study(source, 0.75, [1024, 2048, 4096]).all_pass


def test_verify_identity_scans_crossings_once(monkeypatch):
    # the driver's scan gives the kink lists and the kernel regions
    calls = _count_crossing_scans(monkeypatch)
    rep = verify_identity("x*exp(-x^2)", 1.25, spec=SMALL)
    assert len(calls) == 1
    assert rep.all_pass


def test_convergence_study_scans_crossings_once_per_resolution(monkeypatch):
    calls = _count_crossing_scans(monkeypatch)
    Ns = [1024, 2048, 4096]
    convergence_study("x*exp(-x^2)", 1.25, Ns)
    assert len(calls) == len(Ns)


def test_both_routes_read_one_crossing_list(monkeypatch):
    seen = {"dealias_spectrum": [], "phi_integral": []}

    def recording(name):
        original = getattr(experiments, name)

        def call(u, crossings, *args, **kwargs):
            seen[name].append(crossings)
            return original(u, crossings, *args, **kwargs)

        return call

    for name in seen:
        monkeypatch.setattr(experiments, name, recording(name))
    verify_identity(THREE_ROOTS, 0.6, spec=SMALL)
    convergence_study("x*exp(-x^2)", 1.25, [1024, 2048, 4096])
    spectral, kernel_side = seen["dealias_spectrum"], seen["phi_integral"]
    assert len(spectral) == len(kernel_side) == 4
    assert all(a is b for a, b in zip(spectral, kernel_side))
    assert len(spectral[0]) == 3
