"""Experiment driver tests.

Heavier grids live in the acceptance suite; these runs use 2^12..2^14
nodes so the whole file stays in the seconds range.
"""

import numpy as np
import pytest

import fraclab.experiments as experiments
from fraclab.errors import DomainError
from fraclab.experiments import (
    ExperimentReport,
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
from fraclab.grid import GridSpec, sample, truncate
from fraclab.spectral import forward_transform

SPEC = GridSpec(1, 20.0, 16384)
SMALL = GridSpec(1, 20.0, 4096)


def strip_runtime(report):
    return (report.experiment, report.params, report.results, report.verdicts)


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


def test_verify_identity_single_sign_is_trivial_pass():
    rep = verify_identity("exp(-x^2)", 1.25, spec=SMALL)
    assert rep.all_pass
    assert any("trivial" in v.claim for v in rep.verdicts)


def test_verify_identity_validation():
    for bad in (1.0, 1.5, 2.0, -0.3):
        with pytest.raises(DomainError):
            verify_identity("x*exp(-x^2)", bad, spec=SMALL)


def test_report_determinism():
    a = verify_identity("x*exp(-x^2)", 1.25, spec=SMALL)
    b = verify_identity("x*exp(-x^2)", 1.25, spec=SMALL)
    assert strip_runtime(a) == strip_runtime(b)
    assert a.runtime_seconds != b.runtime_seconds or True  # wall time may differ


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


def test_sign_sweep_validation():
    with pytest.raises(DomainError):
        sign_sweep("x*exp(-x^2)", [], spec=SMALL)


def test_counterexample_scan_exponents():
    rep = counterexample_scan(
        "x*exp(-x^2)", [1.4, 1.6], [80.0, 160.0, 320.0, 640.0, 1280.0], spec=SPEC
    )
    assert rep.all_pass
    growth = [r for r in rep.results if "exponent" in r.quantity]
    assert growth


def test_counterexample_scan_validation():
    cuts = [80.0, 160.0, 320.0, 640.0]
    with pytest.raises(DomainError):
        counterexample_scan("x*exp(-x^2)", [1.6], [80.0, 160.0], spec=SMALL)
    with pytest.raises(DomainError):
        counterexample_scan("x*exp(-x^2)", [1.6], [160.0, 80.0, 320.0, 640.0], spec=SMALL)
    with pytest.raises(DomainError):
        counterexample_scan("x*exp(-x^2)", [1.6], [80.0, 160.0, 320.0, 1e9], spec=SMALL)
    # the scan needs a model-shaped input: zero at the origin...
    with pytest.raises(DomainError):
        counterexample_scan("exp(-x^2)", [1.6], cuts, spec=SMALL)
    # ...with x * phi(x) >= 0 on both sides
    with pytest.raises(DomainError):
        counterexample_scan("-x^3*exp(-x^2)", [1.6], cuts, spec=SMALL)


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
        truncation_bound_probe("x*exp(-x^2)", 2.0, [0.02], spec=SMALL)
    with pytest.raises(DomainError):
        truncation_bound_probe("exp(-x^2)-2", 1.25, [0.02], spec=SMALL)


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
    rep = convergence_study("exp(-x^2)", 1.25, [1024, 2048, 4096])
    assert any(v.status == "inconclusive" for v in rep.verdicts)
    with pytest.raises(DomainError):
        convergence_study("x*exp(-x^2)", 1.25, [1024, 2048])


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


def test_truncation_kinks_factors():
    u = sample("x*exp(-x^2)", SPEC)
    z, slope = truncation_kinks(u, "pos")[0]
    assert z == 0.0
    assert truncation_kinks(u, "neg")[0][1] == slope
    assert truncation_kinks(u, "abs")[0][1] == pytest.approx(2.0 * slope, rel=1e-15)
    assert truncation_kinks(u, "plain") == []


def test_dealias_matches_direct_image_sum():
    # ghost model vs literal sum over lattice translates; the kink sits at
    # the origin so translate phases drop and the truncated tail of the
    # direct sum has an elementary closed form
    spec = GridSpec(1, 20.0, 4096)
    u = sample("x*exp(-x^2)", spec)
    pos = truncate(u, "pos")
    kinks = truncation_kinks(u, "pos")
    su = forward_transform(pos)
    ghost = su.coeffs - dealias_spectrum(su, kinks).coeffs

    xi = su.frequency_axis()
    ximax = np.pi * (spec.N // 2) / spec.L
    idx = np.flatnonzero(np.abs(xi) >= ximax / 8.0)[::37]
    z, jump = kinks[0]
    assert z == 0.0
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
    su = forward_transform(sample("exp(-x^2)", SMALL))
    out = dealias_spectrum(su, [])
    assert out is su


def test_refined_form_polarization():
    u = sample("x*exp(-x^2)", SPEC)
    pos, neg = truncate(u, "pos"), truncate(u, "neg")
    absu = truncate(u, "abs")
    kp = truncation_kinks(u, "pos")
    kn = truncation_kinks(u, "neg")
    ka = truncation_kinks(u, "abs")
    for s in (1.1, 1.25):
        cross = refined_form(pos, neg, s, kinks_u=kp, kinks_v=kn)
        whole = refined_form(u, u, s)
        full = refined_form(absu, absu, s, kinks_u=ka, kinks_v=ka)
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

    monkeypatch.setattr(experiments, "forward_transform", counting)
    rep = sign_sweep("x*exp(-x^2)", orders, spec=SMALL)
    assert len(calls) == 2
    assert len(rep.verdicts) == len(orders)


def test_sign_sweep_matches_refined_form_per_order():
    u = sample("(x-0.3)*exp(-x^2)", SMALL)
    ua = truncate(u, "abs")
    kinks_abs = truncation_kinks(u, "abs")
    orders = [0.5, 1.25]
    rep = sign_sweep("(x-0.3)*exp(-x^2)", orders, spec=SMALL)
    for s, rec in zip(orders, rep.results):
        q_plain = refined_form(u, u, s)
        q_abs = refined_form(ua, ua, s, kinks_abs, kinks_abs)
        assert rec.spectral_value == q_abs.value - q_plain.value
        assert rec.spectral_error == q_abs.error_estimate + q_plain.error_estimate
