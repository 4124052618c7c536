"""Experiment drivers: paired spectral/kernel evaluations with verdicts.

Each driver samples an expression on a grid, evaluates the quantity of
interest along both routes where possible (Fourier-multiplier sums vs
graded kernel quadrature), and emits an ExperimentReport whose verdicts
embed the tolerance used and the discrepancy achieved.

Refined spectral evaluation of kinked integrands
------------------------------------------------
A derivative jump J at location z forces the slow coefficient tail
F(xi) ~ -J e^{-i xi z} / (sqrt(2 pi) xi^2). Two consequences are handled
explicitly:

* Sampling aliases that tail: the DFT coefficient at xi picks up ghost
  images at xi + 2 Xi m for every integer m (Xi the Nyquist frequency).
  Summed over the whole lattice the ghosts have the closed form

      sum_m exp(2 pi i m theta) / (m + alpha)^2
        = pi^2 e^{i pi alpha (1 - 2 theta)}
          [cos(pi alpha) - i (1 - 2 theta) sin(pi alpha)] / sin^2(pi alpha)

  with alpha = xi / (2 Xi), theta = (-Xi z / pi) mod 1, so the alias can
  be subtracted exactly instead of being fitted away.

* The truncated frequency sum then misses a genuine tail ~ Xi^{2s-3}.
  Partial sums at geometrically spaced cutoffs are fitted against the
  basis [1, Xi^{2s-3}, Xi^{2s-5}] and the constant term is the
  extrapolated value. After de-aliasing the fit is insensitive to the
  window choice, which is what the error estimate measures.

Ghost strengths add linearly over crossings and over the truncations
(|u| carries twice the jump of u+ or u-), so the refined route preserves
the exact polarization algebra of the plain sums.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError
from .grid import GridFunction, GridSpec, sample, truncate
from .kernel import find_crossings, phi_integral
from .special import _as_order, kernel_constant
from .spectral import Spectrum, forward_transform, shell_partial_sums

_TINY = 1e-300


def discrepancy(a: float, b: float) -> float:
    """Relative difference with a denominator floor so 0 vs 0 is 0."""
    a = float(a)
    b = float(b)
    return abs(a - b) / max(abs(a), abs(b), _TINY)


@dataclass(frozen=True)
class ResultRecord:
    quantity: str
    spectral_value: float
    kernel_value: Optional[float] = None
    discrepancy: Optional[float] = None
    spectral_error: Optional[float] = None
    kernel_error: Optional[float] = None


@dataclass(frozen=True)
class Verdict:
    claim: str
    status: str  # "pass" | "fail" | "inconclusive"
    detail: str


@dataclass(frozen=True)
class ExperimentReport:
    experiment: str
    params: dict
    results: tuple
    verdicts: tuple
    runtime_seconds: float

    @property
    def all_pass(self) -> bool:
        return all(v.status != "fail" for v in self.verdicts)


def _record(quantity, spectral, kernel=None, s_err=None, k_err=None):
    disc = None if kernel is None else float(discrepancy(spectral, kernel))
    return ResultRecord(
        quantity=quantity,
        spectral_value=float(spectral),
        kernel_value=None if kernel is None else float(kernel),
        discrepancy=disc,
        spectral_error=None if s_err is None else float(s_err),
        kernel_error=None if k_err is None else float(k_err),
    )


# ----------------------------------------------------------------------
# exact lattice de-aliasing of derivative-jump tails


def _lattice_sum(theta: float, alpha: np.ndarray) -> np.ndarray:
    """sum over all integers m of exp(2 pi i m theta) / (m + alpha)^2
    for 0 <= theta < 1 and non-integer alpha."""
    pa = np.pi * alpha
    return (
        np.pi**2
        * np.exp(1j * pa * (1.0 - 2.0 * theta))
        * (np.cos(pa) - 1j * (1.0 - 2.0 * theta) * np.sin(pa))
        / np.sin(pa) ** 2
    )


def dealias_spectrum(spectrum: Spectrum, kinks) -> Spectrum:
    """Subtract the alias ghosts of first-derivative jumps.

    kinks: sequence of (location, jump) with jump the increase of the
    first derivative across the location. The ghost model keeps the
    (correct) m = 0 tail and removes only the lattice translates.
    """
    if not kinks:
        return spectrum
    xi = spectrum.frequency_axis()
    ximax = np.pi * (spectrum.spec.N // 2) / spectrum.spec.L
    nz = np.abs(xi) > 1e-12
    xi_nz = xi[nz]
    alpha = xi_nz / (2.0 * ximax)
    coeffs = spectrum.coeffs.copy()
    for z, jump in kinks:
        theta = (-ximax * z / np.pi) % 1.0
        # in-place steps keep the operands and their order of the
        # expression -(jump / sqrt(2 pi)) * (phase * lattice / (2 ximax)^2
        # - phase / xi^2) while holding fewer full-length temporaries
        phase = np.exp(-1j * xi_nz * z)
        ghost = phase * _lattice_sum(theta, alpha)
        ghost /= (2.0 * ximax) ** 2
        ghost -= np.divide(phase, xi_nz**2, out=phase)
        np.multiply(-(jump / np.sqrt(2.0 * np.pi)), ghost, out=ghost)
        coeffs[nz] -= ghost
    return Spectrum(spec=spectrum.spec, coeffs=coeffs)


def truncation_kinks(u: GridFunction, mode: str):
    """Derivative-jump list for a truncation of u.

    A simple crossing with slope kappa gives u+ and u- a jump of |kappa|
    and gives |u| a jump of 2 |kappa|; u itself stays smooth.
    """
    if mode == "plain":
        return []
    factor = {"pos": 1.0, "neg": 1.0, "abs": 2.0}[mode]
    return [(z, factor * abs(k)) for z, k in find_crossings(u)]


# ----------------------------------------------------------------------
# refined form values


@dataclass(frozen=True)
class RefinedValue:
    value: float
    error_estimate: float
    diverged: bool


def _fit_constant(cuts, vals, s):
    basis = np.column_stack(
        [np.ones_like(cuts), cuts ** (2.0 * s - 3.0), cuts ** (2.0 * s - 5.0)]
    )
    coef, _, _, _ = np.linalg.lstsq(basis, vals, rcond=None)
    resid = vals - basis @ coef
    return float(coef[0]), float(np.sqrt(np.mean(resid**2)))


def refined_form(
    u: GridFunction,
    v: GridFunction,
    s: float,
    kinks_u=None,
    kinks_v=None,
    extrapolate: bool = True,
) -> RefinedValue:
    """Frequency-sum value of the s-form with de-aliasing and, for kinked
    inputs with s in the slowly convergent band, cutoff extrapolation.

    Divergent tails (growing octave increments) are flagged rather than
    extrapolated; the reported value is then the bare partial sum.
    """
    kinks_u = list(kinks_u or [])
    kinks_v = list(kinks_v or [])
    su = _dealiased(u, kinks_u)
    if v is u and kinks_v == kinks_u:
        sv = su
    else:
        sv = _dealiased(v, kinks_v)
    kinky = bool(kinks_u) or bool(kinks_v)
    return _form_value(su, sv, s, kinky=kinky, extrapolate=extrapolate)


def _dealiased(u: GridFunction, kinks) -> Spectrum:
    """Spectrum of u with the alias ghosts of its kinks removed."""
    return dealias_spectrum(forward_transform(u), kinks)


def _form_value(
    su: Spectrum, sv: Spectrum, s: float, kinky: bool, extrapolate: bool
) -> RefinedValue:
    """The refined_form value of two de-aliased spectra; kinky says whether
    either input had a kink."""
    xi, partial = shell_partial_sums(su, sv, s)
    total = float(partial[-1])
    scale = max(abs(total), _TINY)
    top = partial[-1]
    n_half = len(partial) - 1
    inc1 = float(top - partial[n_half // 2])
    inc2 = float(partial[n_half // 2] - partial[n_half // 4])
    diverged = (
        abs(inc1) > 1.05 * abs(inc2) and abs(inc1) > 1e-10 * scale
    )
    if diverged:
        return RefinedValue(value=total, error_estimate=abs(inc1), diverged=True)
    if extrapolate and kinky and 0.75 < s < 1.5:
        dxi = float(xi[1] - xi[0])
        ximax = float(xi[-1])
        lo = max(ximax / 32.0, 12.0 * dxi)
        hi = ximax / 2.0
        if hi > 2.0 * lo:
            # the rectangle shell sum truncated after shell k covers
            # frequencies up to xi_k + dxi/2; using that midpoint as the
            # fit abscissa keeps the ordinates free of snapping sawtooth
            def fit(window):
                cuts = np.geomspace(window[0], window[1], 12)
                idx = np.searchsorted(xi, cuts, side="right") - 1
                eff = xi[idx] + 0.5 * dxi
                return _fit_constant(eff, partial[idx], s)

            val_a, resid_a = fit((lo, hi))
            val_b, _ = fit((1.5 * lo, hi / 1.5))
            est = abs(val_a - val_b) + resid_a
            est = max(est, 1e-14 * max(abs(val_a), 1.0))
            return RefinedValue(value=val_a, error_estimate=est, diverged=False)
    # plain corrected sum; the residual tail of a kinked integrand is a
    # geometric series in octaves with ratio 2^{2s-3}
    if kinky and s < 1.4:
        ratio = 2.0 ** (2.0 * s - 3.0)
        est = abs(inc1) * ratio / (1.0 - ratio)
    else:
        est = abs(inc1)
    est = max(est, 1e-15 * scale)
    return RefinedValue(value=total, error_estimate=est, diverged=False)


# ----------------------------------------------------------------------
# experiment drivers


def _base_params(spec: GridSpec, **extra):
    params = {"n": spec.n, "L": spec.L, "N": spec.N}
    params.update(extra)
    return params


def _sign_name(x: float) -> str:
    return "negative" if x < 0 else "positive" if x > 0 else "zero"


def _sign_law_verdict(claim: str, defect: float, c_ns: float, errors) -> Verdict:
    """Compare the defect sign with the kernel-constant sign law.

    The law says the defect has the sign opposite to C(1, s). It is gated:
    every error estimate must stay below a tenth of |defect|, otherwise the
    verdict is inconclusive.
    """
    gate = abs(defect) / 10.0
    if all(e < gate for e in errors):
        expected = -1.0 if c_ns > 0 else 1.0
        ok = math.copysign(1.0, defect) == expected
        return Verdict(
            claim=claim,
            status="pass" if ok else "fail",
            detail=(
                f"defect is {_sign_name(defect)}, kernel constant is "
                f"{_sign_name(c_ns)}"
            ),
        )
    shown = ", ".join(f"{e:.2e}" for e in errors)
    if len(errors) == 1:
        subject = f"error estimate {shown} exceeds"
    else:
        subject = f"error estimates ({shown}) exceed"
    return Verdict(
        claim=claim,
        status="inconclusive",
        detail=f"{subject} a tenth of |defect| = {abs(defect):.2e}",
    )


def verify_identity(
    u_source: str,
    s: float,
    spec: GridSpec = GridSpec(1, 20.0, 16384),
    tol: float = 1e-3,
    extrapolate: bool = True,
) -> ExperimentReport:
    """Cross-check the truncation identity along both routes.

    Spectral route: extrapolated frequency sums of the u+/u- cross form
    and of the defect Q_s(|u|) - Q_s(u). Kernel route: graded quadrature
    of the interface integral, scaled by -C(1,s) (by -4 C(1,s) for the
    defect). The defect sign is compared against the kernel-constant sign
    law, gated on the error estimates.
    """
    t0 = time.perf_counter()
    order = _as_order(s)
    if order.is_integer or not (0.0 < order.s < 1.5) or abs(order.s - 1.0) < 1e-9:
        raise DomainError(
            f"identity check needs non-integer s in (0,1) or (1,1.5), got {s}"
        )
    u = sample(u_source, spec)
    params = _base_params(
        spec, s=float(s), function=str(u_source), tolerance=float(tol),
        extrapolate=bool(extrapolate),
    )
    crossings = find_crossings(u)
    c_ns = kernel_constant(1, order.s).value
    if not crossings:
        results = (
            _record("cross form of u+ against u-", 0.0, 0.0, s_err=0.0, k_err=0.0),
        )
        verdicts = (
            Verdict(
                claim="identity holds trivially for single-signed input",
                status="pass",
                detail="no sign change detected; both sides vanish identically",
            ),
        )
        return ExperimentReport(
            experiment="identity",
            params=params,
            results=results,
            verdicts=verdicts,
            runtime_seconds=time.perf_counter() - t0,
        )

    kinks = truncation_kinks(u, "pos")
    kinks_abs = truncation_kinks(u, "abs")
    up = truncate(u, "pos")
    um = truncate(u, "neg")
    ua = truncate(u, "abs")
    cross = refined_form(up, um, order.s, kinks, kinks, extrapolate)
    q_plain = refined_form(u, u, order.s)
    q_abs = refined_form(ua, ua, order.s, kinks_abs, kinks_abs, extrapolate)
    defect = q_abs.value - q_plain.value
    defect_err = q_abs.error_estimate + q_plain.error_estimate

    phi_tol = max(tol * max(abs(cross.value), 1e-8), 1e-13)
    phi = phi_integral(u, order.s, tol=phi_tol)
    kernel_cross = -c_ns * phi.value
    kernel_err = abs(c_ns) * phi.error_estimate

    disc = discrepancy(cross.value, kernel_cross)
    results = (
        _record(
            "cross form of u+ against u-",
            cross.value,
            kernel_cross,
            s_err=cross.error_estimate,
            k_err=kernel_err,
        ),
        _record(
            "defect of the modulus form",
            defect,
            -4.0 * c_ns * phi.value,
            s_err=defect_err,
            k_err=4.0 * kernel_err,
        ),
        _record(
            "interface interaction integral",
            -cross.value / c_ns,
            phi.value,
            s_err=cross.error_estimate / abs(c_ns),
            k_err=phi.error_estimate,
        ),
    )
    verdicts = (
        Verdict(
            claim="spectral and kernel cross forms agree",
            status="pass" if disc <= tol else "fail",
            detail=(
                f"relative discrepancy {disc:.6e} vs tolerance {tol:.1e}"
            ),
        ),
        _sign_law_verdict(
            "defect sign follows the kernel-constant sign law",
            defect,
            c_ns,
            (defect_err, 4.0 * kernel_err),
        ),
    )
    return ExperimentReport(
        experiment="identity",
        params=params,
        results=results,
        verdicts=verdicts,
        runtime_seconds=time.perf_counter() - t0,
    )


def sign_sweep(
    u_source: str,
    s_list: Sequence[float],
    spec: GridSpec = GridSpec(1, 20.0, 16384),
    tol: float = 1e-3,
) -> ExperimentReport:
    """Sign of the defect Q_s(|u|) - Q_s(u) across a list of orders.

    Orders below 3/2 are gated pass/fail against the sign law; orders
    above are probes reported as evidence only (inconclusive status), and
    divergent partial sums are flagged inconclusive in both regimes.
    """
    t0 = time.perf_counter()
    if not s_list:
        raise DomainError("s list must be nonempty")
    orders = [_as_order(s) for s in s_list]
    for o in orders:
        if o.is_integer or o.s <= 0 or abs(o.s - 1.0) < 1e-9:
            raise DomainError(
                f"sweep orders must be positive non-integer (not 1), got {o.s}"
            )
    u = sample(u_source, spec)
    params = _base_params(
        spec,
        s_list=[float(s) for s in s_list],
        function=str(u_source),
        tolerance=float(tol),
    )
    kinks_abs = truncation_kinks(u, "abs")
    # both spectra serve every order, so transform each input once
    su = _dealiased(u, [])
    sa = _dealiased(truncate(u, "abs"), kinks_abs)

    def one(order):
        q_plain = _form_value(su, su, order.s, kinky=False, extrapolate=True)
        q_abs = _form_value(
            sa, sa, order.s, kinky=bool(kinks_abs), extrapolate=True
        )
        return q_plain, q_abs

    pairs = [one(order) for order in orders]
    results = []
    verdicts = []
    for order, (q_plain, q_abs) in zip(orders, pairs):
        s = order.s
        defect = q_abs.value - q_plain.value
        err = q_abs.error_estimate + q_plain.error_estimate
        diverged = q_abs.diverged or q_plain.diverged
        c_ns = kernel_constant(1, s).value
        results.append(
            _record(f"defect at s={s:g}", defect, s_err=err)
        )
        claim = f"defect sign at s={s:g} is opposite to the kernel constant"
        if diverged:
            verdicts.append(
                Verdict(
                    claim=claim,
                    status="inconclusive",
                    detail="partial sums diverge; the form is outside H^s",
                )
            )
        elif s > 1.5:
            verdicts.append(
                Verdict(
                    claim=claim,
                    status="inconclusive",
                    detail=(
                        f"probe outside the proven range: defect is "
                        f"{_sign_name(defect)} (evidence only)"
                    ),
                )
            )
        else:
            verdicts.append(_sign_law_verdict(claim, defect, c_ns, (err,)))
    return ExperimentReport(
        experiment="sign-sweep",
        params=params,
        results=tuple(results),
        verdicts=tuple(verdicts),
        runtime_seconds=time.perf_counter() - t0,
    )


def counterexample_scan(
    phi_source: str,
    s_list: Sequence[float],
    cutoff_list: Sequence[float],
    spec: GridSpec = GridSpec(1, 20.0, 16384),
) -> ExperimentReport:
    """Partial-sum growth of the positive-part form for a kinked input.

    The input must vanish at the origin with positive slope and satisfy
    x phi(x) >= 0 (single crossing of the model shape). For each order the
    octave increments of the cutoff sums are fitted in log-log; a kink
    predicts exponent 2s - 3, so orders above 3/2 grow (membership fails)
    while orders below are Cauchy with per-shell increments shrinking to
    roundoff.
    """
    t0 = time.perf_counter()
    cutoffs = np.asarray(list(cutoff_list), dtype=float)
    if cutoffs.size < 4:
        raise DomainError("need at least 4 cutoffs for a growth fit")
    if np.any(np.diff(cutoffs) <= 0):
        raise DomainError("cutoffs must be strictly increasing")
    phi = sample(phi_source, spec)
    ximax = np.pi * (spec.N // 2) / spec.L
    if cutoffs[-1] > ximax:
        raise DomainError(
            f"largest cutoff {cutoffs[-1]:g} exceeds the frequency range "
            f"{ximax:g}"
        )
    x = spec.axis_nodes()
    sp = phi.samples
    scale = float(np.max(np.abs(sp)))
    if scale == 0.0:
        raise DomainError("input function is identically zero")
    mid = spec.N // 2
    if abs(sp[mid]) > 1e-9 * scale:
        raise DomainError("input must vanish at the origin")
    slope = (sp[mid + 1] - sp[mid - 1]) / (2.0 * spec.delta)
    if not slope > 0.0:
        raise DomainError("input must have positive slope at the origin")
    if np.min(x * sp) < -1e-12 * scale * spec.L:
        raise DomainError("input must satisfy x * phi(x) >= 0")

    for s in s_list:
        order = _as_order(s)
        if order.is_integer or order.s <= 0:
            raise DomainError(f"orders must be positive non-integer, got {s}")
    params = _base_params(
        spec,
        s_list=[float(s) for s in s_list],
        cutoffs=[float(c) for c in cutoffs],
        function=str(phi_source),
    )
    kinks = truncation_kinks(phi, "pos")
    up = truncate(phi, "pos")
    su = _dealiased(up, kinks)

    def one(s):
        xi, partial = shell_partial_sums(su, su, s)
        idx = np.searchsorted(xi, cutoffs, side="right") - 1
        svals = partial[idx]
        incs = np.diff(svals)
        good = np.abs(incs) > 0
        slope_fit = float(
            np.polyfit(np.log(cutoffs[:-1][good]), np.log(np.abs(incs[good])), 1)[0]
        ) if np.count_nonzero(good) >= 2 else math.nan
        # per-shell relative increments over the top octave of the largest cutoff
        top = cutoffs[-1]
        sel = (xi >= top / 2.0) & (xi <= top)
        shell_inc = np.diff(partial)[sel[1:]]
        denom = max(abs(float(partial[idx[-1]])), _TINY)
        rel = np.abs(shell_inc) / denom
        cauchy_metric = float(np.mean(rel)) if rel.size else math.nan
        decreasing = bool(np.all(np.diff(np.abs(incs)) < 0))
        return svals, incs, slope_fit, cauchy_metric, decreasing

    scans = [one(s) for s in s_list]
    results = []
    verdicts = []
    for s, (svals, incs, slope_fit, cauchy_metric, decreasing) in zip(
        s_list, scans
    ):
        for c, v in zip(cutoffs, svals):
            results.append(
                _record(f"partial sum at s={s:g}, cutoff={c:g}", float(v))
            )
        results.append(_record(f"growth exponent at s={s:g}", slope_fit))
        results.append(_record(f"cauchy metric at s={s:g}", cauchy_metric))
        predicted = 2.0 * s - 3.0
        if s > 1.5:
            ok = abs(slope_fit - predicted) <= 0.15
            verdicts.append(
                Verdict(
                    claim=f"partial sums at s={s:g} grow with exponent 2s-3",
                    status="pass" if ok else "fail",
                    detail=(
                        f"fitted exponent {slope_fit:.4f} vs predicted "
                        f"{predicted:.4f} (tolerance 0.15)"
                    ),
                )
            )
        else:
            ok = decreasing and cauchy_metric < 1e-4
            verdicts.append(
                Verdict(
                    claim=f"partial sums at s={s:g} are Cauchy",
                    status="pass" if ok else "fail",
                    detail=(
                        f"octave increments decreasing: {decreasing}; mean "
                        f"relative shell increment {cauchy_metric:.3e} "
                        f"(threshold 1e-4)"
                    ),
                )
            )
    return ExperimentReport(
        experiment="counterexample",
        params=params,
        results=tuple(results),
        verdicts=tuple(verdicts),
        runtime_seconds=time.perf_counter() - t0,
    )


def truncation_bound_probe(
    u_source: str,
    s: float,
    eps_list: Sequence[float],
    spec: GridSpec = GridSpec(1, 20.0, 16384),
    tol: float = 1e-3,
) -> ExperimentReport:
    """Level-shifted truncations: q(eps) = Q_s((u - eps)+) along eps.

    Checks uniform boundedness, convergence to Q_s(u+) as eps -> 0, and
    consistency with a quadratic envelope A + B eps^2.
    """
    t0 = time.perf_counter()
    order = _as_order(s)
    if order.is_integer or not (0.0 < order.s < 1.5):
        raise DomainError(
            f"probe requires non-integer s in (0, 1.5), got {s}"
        )
    eps = sorted(float(e) for e in eps_list)
    if not eps or eps[0] <= 0:
        raise DomainError("eps list must contain positive values")
    u = sample(u_source, spec)
    if np.max(u.samples) <= 0.0:
        raise DomainError("u has no positive part to truncate")
    params = _base_params(
        spec,
        s=float(order.s),
        eps_list=list(eps),
        function=str(u_source),
        tolerance=float(tol),
    )
    kinks = truncation_kinks(u, "pos")
    up = truncate(u, "pos")
    ref = refined_form(up, up, order.s, kinks, kinks)

    def one(e):
        shifted_samples = u.samples - e
        if np.max(shifted_samples) <= 0.0:
            return RefinedValue(0.0, 0.0, False)
        shifted = GridFunction(spec, shifted_samples)
        ue = truncate(u, "shifted_pos", eps=e)
        kk = truncation_kinks(shifted, "pos")
        return refined_form(ue, ue, order.s, kk, kk)

    qs = [one(e) for e in eps]
    results = [
        _record(
            "reference form of the positive part",
            ref.value,
            s_err=ref.error_estimate,
        )
    ]
    for e, q in zip(eps, qs):
        results.append(
            _record(f"shifted form at eps={e:g}", q.value, s_err=q.error_estimate)
        )
    values = np.array([q.value for q in qs])
    scale = max(abs(ref.value), _TINY)

    bounded = bool(np.all(np.isfinite(values))) and float(
        np.max(np.abs(values))
    ) <= 2.0 * max(scale, float(np.abs(values[0])))
    verdicts = [
        Verdict(
            claim="shifted forms stay uniformly bounded",
            status="pass" if bounded else "fail",
            detail=(
                f"max |q(eps)| = {float(np.max(np.abs(values))):.6e} vs "
                f"reference {ref.value:.6e}"
            ),
        )
    ]
    # the family approaches its limit linearly in eps (the level shift
    # couples to the fixed function at first order), so extrapolate the
    # two smallest levels and use a three-point quadratic as the error probe
    e0, e1 = eps[0], eps[1]
    limit = values[0] + (values[0] - values[1]) * e0 / (e1 - e0)
    if len(eps) >= 3:
        pts = np.array(eps[:3])
        weights = [
            np.prod([-pts[j] for j in range(3) if j != i])
            / np.prod([pts[i] - pts[j] for j in range(3) if j != i])
            for i in range(3)
        ]
        limit_quad = float(np.dot(weights, values[:3]))
        limit_err = abs(limit - limit_quad)
    else:
        limit_err = abs(values[0] - limit)
    results.append(
        _record(
            "extrapolated zero-level limit",
            float(limit),
            ref.value,
            s_err=limit_err,
        )
    )
    conv = discrepancy(float(limit), ref.value)
    verdicts.append(
        Verdict(
            claim="shifted forms converge to the positive-part form",
            status="pass" if conv <= tol else "fail",
            detail=(
                f"extrapolated limit {limit:.8e} vs reference "
                f"{ref.value:.8e}: relative gap {conv:.6e} "
                f"(tolerance {tol:.1e})"
            ),
        )
    )
    # minimal quadratic coefficient that keeps the family under
    # A + B eps^2 with A at the limit; monotone-from-below data needs
    # B <= 0 and any admissible envelope certifies the level-shift bound
    b_req = float(np.max((values - limit) / np.square(eps)))
    fit_ok = math.isfinite(b_req) and b_req * max(eps) ** 2 <= scale
    verdicts.append(
        Verdict(
            claim="shifted forms fit under a quadratic envelope",
            status="pass" if fit_ok else "fail",
            detail=(
                f"envelope A={limit:.6e}, B={max(b_req, 0.0):.6e} covers "
                f"the family; quadratic excess stays below the form scale"
            ),
        )
    )
    return ExperimentReport(
        experiment="truncation-bound",
        params=params,
        results=tuple(results),
        verdicts=tuple(verdicts),
        runtime_seconds=time.perf_counter() - t0,
    )


def convergence_study(
    u_source: str,
    s: float,
    N_list: Sequence[int],
    L: float = 20.0,
    tol: float = 1e-3,
    extrapolate: bool = True,
) -> ExperimentReport:
    """Spectral and kernel values of the cross form versus resolution.

    Reports observed orders from consecutive differences and a Richardson
    limit for the kernel route (second order in the grid step); the
    spectral route saturates at the extrapolation floor, and non-monotone
    difference sequences are flagged instead of extrapolated.
    """
    t0 = time.perf_counter()
    order = _as_order(s)
    Ns = [int(N) for N in N_list]
    if len(Ns) < 3:
        raise DomainError("need at least 3 resolutions")
    if any(b <= a for a, b in zip(Ns[:-1], Ns[1:])):
        raise DomainError("resolutions must be strictly increasing")
    params = {
        "n": 1,
        "L": float(L),
        "N_list": Ns,
        "s": float(order.s),
        "function": str(u_source),
        "tolerance": float(tol),
        "extrapolate": bool(extrapolate),
    }

    def one(N):
        u = sample(u_source, GridSpec(1, L, N))
        crossings = find_crossings(u)
        if crossings and not order.is_integer and 0.0 < order.s < 1.5:
            kinks = truncation_kinks(u, "pos")
            up = truncate(u, "pos")
            um = truncate(u, "neg")
            spectral = refined_form(up, um, order.s, kinks, kinks, extrapolate)
            phi = phi_integral(u, order.s, tol=1e-10)
            c_ns = kernel_constant(1, order.s).value
            return spectral, -c_ns * phi.value, abs(c_ns) * phi.error_estimate
        spectral = refined_form(u, u, order.s, extrapolate=extrapolate)
        return spectral, None, None

    rows = [one(N) for N in Ns]
    results = []
    spectral_vals = []
    kernel_vals = []
    for N, (spectral, kernel, kerr) in zip(Ns, rows):
        results.append(
            _record(
                f"cross form at N={N}",
                spectral.value,
                kernel,
                s_err=spectral.error_estimate,
                k_err=kerr,
            )
        )
        spectral_vals.append(spectral.value)
        kernel_vals.append(kernel)

    verdicts = []

    def orders_of(vals):
        diffs = np.abs(np.diff(np.asarray(vals)))
        with np.errstate(divide="ignore", invalid="ignore"):
            orders = np.log2(diffs[:-1] / diffs[1:])
        return diffs, orders

    have_kernel = all(v is not None for v in kernel_vals)
    tracks = [("spectral", spectral_vals)]
    if have_kernel:
        tracks.append(("kernel", kernel_vals))
    for name, vals in tracks:
        _, obs_t = orders_of(vals)
        for i, p in enumerate(obs_t):
            results.append(
                _record(
                    f"observed {name} order between N={Ns[i + 1]} and N={Ns[i + 2]}",
                    float(p) if np.isfinite(p) else math.nan,
                )
            )
    label, track = tracks[-1]
    diffs, obs = orders_of(track)
    monotone = bool(np.all(np.diff(diffs) < 0)) and bool(np.all(diffs > 0))
    if monotone and np.isfinite(obs[-1]) and diffs[-1] > 0:
        p = float(obs[-1])
        limit = track[-1] + (track[-1] - track[-2]) / (2.0**p - 1.0)
        results.append(_record(f"richardson limit of the {label} route", limit))
        verdicts.append(
            Verdict(
                claim="resolution study converges monotonically",
                status="pass",
                detail=(
                    f"{label} differences decrease; last observed order "
                    f"{p:.3f}"
                ),
            )
        )
    else:
        verdicts.append(
            Verdict(
                claim="resolution study converges monotonically",
                status="inconclusive",
                detail=(
                    f"{label} difference sequence is non-monotone "
                    "(saturation or noise floor); no extrapolation"
                ),
            )
        )
    both = [
        (sv, kv) for sv, kv in zip(spectral_vals, kernel_vals) if kv is not None
    ]
    if both:
        final = discrepancy(both[-1][0], both[-1][1])
        verdicts.append(
            Verdict(
                claim="routes agree at the finest resolution",
                status="pass" if final <= tol else "fail",
                detail=f"relative discrepancy {final:.6e} vs tolerance {tol:.1e}",
            )
        )
    return ExperimentReport(
        experiment="convergence",
        params=params,
        results=tuple(results),
        verdicts=tuple(verdicts),
        runtime_seconds=time.perf_counter() - t0,
    )


# ----------------------------------------------------------------------
# random sweeps


def _format_number(x: float) -> str:
    return format(float(x), ".17g")


def random_function_source(rng: np.random.Generator) -> str:
    """Random member of the sweep family: a few Gaussians, optionally
    modulated. Centers and widths are calibrated to the default L = 20
    box; the slowest decay rate still clears the support rule there."""
    terms = []
    for _ in range(int(rng.integers(2, 5))):
        amp = float(rng.uniform(0.2, 1.0)) * float(rng.choice([-1.0, 1.0]))
        center = float(rng.uniform(-2.0, 2.0))
        width = float(rng.uniform(0.4, 1.0))
        rate = 1.0 / (2.0 * width * width)
        shift = (
            f"(x-{_format_number(center)})"
            if center >= 0
            else f"(x+{_format_number(-center)})"
        )
        term = f"{_format_number(amp)}*exp(-{_format_number(rate)}*{shift}^2)"
        if rng.uniform() < 0.5:
            omega = float(rng.uniform(1.0, 8.0))
            phase = float(rng.uniform(0.0, 2.0 * math.pi))
            term += f"*cos({_format_number(omega)}*x+{_format_number(phase)})"
        terms.append(term)
    return " + ".join(terms)


def default_tau_s_sampler(rng: np.random.Generator):
    s = float(rng.uniform(0.1, 1.45))
    tau = s * float(rng.uniform(0.05, 0.95))
    return tau, s


def interp_sweep(
    count: int,
    seed: int,
    tau_s_sampler: Optional[Callable] = None,
    spec: GridSpec = GridSpec(1, 20.0, 16384),
) -> ExperimentReport:
    """Interpolation-bound sweep over random functions and orders.

    Draws `count` random family members with random 0 < tau < s, forms
    the three-form ratio, and asserts every ratio stays below 1 + 1e-12.
    Degenerate draws (zero function) are resampled.
    """
    from .spectral import interpolation_ratio

    t0 = time.perf_counter()
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    sampler = tau_s_sampler or default_tau_s_sampler
    rng = np.random.default_rng(seed)
    draws = []
    for i in range(count):
        for _attempt in range(32):
            tau, s = sampler(rng)
            if not (0.0 < tau < s):
                continue
            source = random_function_source(rng)
            v = sample(source, spec)
            if float(np.max(np.abs(v.samples))) < 1e-8:
                continue
            draws.append((i, tau, s, source, v))
            break
        else:
            raise DomainError("sampler kept producing degenerate draws")
    params = _base_params(spec, count=int(count), seed=int(seed))

    def one(item):
        i, tau, s, source, v = item
        return interpolation_ratio(v, tau, s)

    ratios = [one(item) for item in draws]
    results = []
    for (i, tau, s, source, _v), ratio in zip(draws, ratios):
        results.append(
            _record(f"interpolation ratio, draw {i} (tau={tau:.4f}, s={s:.4f})", ratio)
        )
    worst = max(ratios)
    verdicts = (
        Verdict(
            claim="every sampled ratio obeys the interpolation bound",
            status="pass" if worst <= 1.0 + 1e-12 else "fail",
            detail=f"largest ratio is 1 {worst - 1.0:+.3e}",
        ),
    )
    return ExperimentReport(
        experiment="interp",
        params=params,
        results=tuple(results),
        verdicts=verdicts,
        runtime_seconds=time.perf_counter() - t0,
    )


def mollifier_bump(spec: GridSpec, center: float, radius: float) -> GridFunction:
    """Unit-mass smooth bump supported in |x - center| < radius."""
    if radius <= 0:
        raise DomainError(f"radius must be positive, got {radius}")
    x = spec.axis_nodes()
    t = (x - center) / radius
    inside = np.abs(t) < 1.0
    vals = np.zeros_like(x)
    vals[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
    mass = float(np.sum(vals)) * spec.delta
    if mass <= 0.0:
        raise DomainError("bump support does not contain any grid node")
    return GridFunction(spec, vals / mass)
