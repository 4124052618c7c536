"""Experiment drivers: paired spectral/kernel evaluations with verdicts.

Each driver samples an expression on a grid, evaluates the quantity of
interest along both routes where possible (Fourier-multiplier sums vs
graded kernel quadrature), and emits a reports.ExperimentReport whose verdicts
embed the tolerance used and the discrepancy achieved. The spectral
route's ghost and tail models live in the spectral module.
"""

from __future__ import annotations

import math
import operator
import time
from numbers import Integral
from typing import Sequence

import numpy as np

from .errors import DomainError
from .grid import GridFunction, GridSpec, sample
from .kernel import find_crossings, phi_integral
from .reports import (
    _TINY, ExperimentReport, Verdict, _check, _inconclusive, _record, _report,
    discrepancy,
)
from .special import (
    _check_tol,
    _kernel_order,
    _order_list,
    _sign_law_order,
    kernel_constant,
)
from .spectral import (
    RefinedValue,
    Spectrum,
    _dealias,
    _plain_cross,
    _refine,
    _two_lanes,
    cross_spectrum,
    interpolation_ratio,
    shell_partial_sums,
)


# ----------------------------------------------------------------------
# the spectral route's traced entry points


def dealias_spectrum(u: GridFunction, crossings, modes: Sequence[str]):
    """spectral._dealias(u, crossings, modes), under the name that the
    benchmark's tracer times."""
    return _dealias(u, crossings, modes)


def refined_form(
    cross: Spectrum, s: float, *, extrapolate: bool = True
) -> RefinedValue:
    """spectral._refine(cross, s, extrapolate), under the name that the
    benchmark's tracer times."""
    return _refine(cross, s, extrapolate)


def _truncation_forms(
    u: GridFunction, crossings, s: float, pairs, extrapolate: bool = True
):
    """refined_form of each (mode, mode) pair of truncations of u, with
    every truncation de-aliased in one dealias_spectrum call. The spectra
    go out of scope on return, so a caller that goes on to the kernel
    route holds none of them."""
    modes = tuple(dict.fromkeys(m for pair in pairs for m in pair))
    spectra = dict(zip(modes, dealias_spectrum(u, crossings, modes)))
    return [
        refined_form(cross_spectrum(spectra[a], spectra[b]), s, extrapolate=extrapolate)
        for a, b in pairs
    ]


# ----------------------------------------------------------------------
# experiment drivers


def _base_params(spec: GridSpec, **extra):
    params = {"n": spec.n, "L": spec.L, "N": spec.N}
    params.update(extra)
    return params


def _sign_changes(u: GridFunction, quantity: str, where: str = ""):
    """find_crossings(u), or DomainError when u keeps one sign: then u+ or
    u- is 0, and so is quantity, so no verdict can be decided."""
    crossings = find_crossings(u)
    if not crossings:
        raise DomainError(f"no sign change{where}, so {quantity} is 0")
    return crossings


def _nonzero(cross: float, where: str, scale: float = 1.0) -> float:
    """scale * |cross|, refused when 0: a sign change makes the cross form nonzero."""
    scaled = scale * abs(cross)
    if scaled == 0.0:
        form = f"the cross form of u+ and u- {where}"
        raise DomainError(f"{form} underflows to 0: its value is {cross:.3e}")
    return scaled


def _finite(form: str, value: float) -> None:
    """Refuse a form that the input's scale took to inf, or to NaN by inf - inf."""
    if not math.isfinite(value):
        raise DomainError(f"{form} overflows the double range: its value is {value}")


def _kernel_cross(u: GridFunction, crossings, s: float, c_ns: float, tol: float):
    """phi_integral and -C(1, s) phi with its estimate; overflow raises, unwarned."""
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        phi = phi_integral(u, crossings, s, tol=tol)
    return phi, -c_ns * phi.value, abs(c_ns) * phi.error_estimate


def _sign_name(x: float) -> str:
    if not math.isfinite(x):
        return "non-finite"
    return "negative" if x < 0 else "positive" if x > 0 else "zero"


def _agreement(claim: str, spectral: float, kernel: float, tol: float) -> Verdict:
    """Pass when the two routes agree to the relative tolerance tol."""
    disc = discrepancy(spectral, kernel)
    return _check(
        claim, disc <= tol, f"relative discrepancy {disc:.6e} vs tolerance {tol:.1e}"
    )


def _sign_law_verdict(claim: str, defect: float, c_ns: float, errors) -> Verdict:
    """Compare the defect sign with the kernel-constant sign law.

    The law says the defect has the sign opposite to C(1, s). It is gated:
    every error estimate must stay below a tenth of |defect|, otherwise the
    verdict is inconclusive.
    """
    gate = abs(defect) / 10.0
    if all(e < gate for e in errors):
        expected = -1.0 if c_ns > 0 else 1.0
        return _check(
            claim,
            math.copysign(1.0, defect) == expected,
            f"defect is {_sign_name(defect)}, kernel constant is "
            f"{_sign_name(c_ns)}",
        )
    shown = ", ".join(f"{e:.2e}" for e in errors)
    if len(errors) == 1:
        subject = f"error estimate {shown} exceeds"
    else:
        subject = f"error estimates ({shown}) exceed"
    return _inconclusive(claim, f"{subject} a tenth of |defect| = {abs(defect):.2e}")


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
    law, gated on the error estimates. Needs a sign change, without which
    both quantities are 0.
    """
    t0 = time.perf_counter()
    order = _sign_law_order(_kernel_order(s))
    _check_tol(tol)
    u = sample(u_source, spec)
    params = _base_params(
        spec, s=float(s), function=str(u_source), tolerance=float(tol),
        extrapolate=bool(extrapolate),
    )
    crossings = _sign_changes(u, "the cross form of u+ and u-")
    c_ns = kernel_constant(1, order)
    cross, q_abs = _truncation_forms(
        u, crossings, order, [("pos", "neg"), ("abs", "abs")], extrapolate
    )
    q_plain = refined_form(_plain_cross(u), order)
    defect = q_abs.value - q_plain.value
    defect_err = q_abs.error_estimate + q_plain.error_estimate
    _finite("the cross form of u+ and u-", cross.value)
    _finite("the defect Q_s(|u|) - Q_s(u)", defect)
    phi_tol = _nonzero(cross.value, f"at relative tolerance {tol:g}", tol)
    phi, kernel_cross, kernel_err = _kernel_cross(u, crossings, order, c_ns, phi_tol)

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
        _agreement(
            "spectral and kernel cross forms agree", cross.value, kernel_cross, tol
        ),
        _sign_law_verdict(
            "defect sign follows the kernel-constant sign law",
            defect,
            c_ns,
            (defect_err, 4.0 * kernel_err),
        ),
    )
    return _report("identity", params, results, verdicts, t0)


def sign_sweep(
    u_source: str,
    s_list: Sequence[float],
    spec: GridSpec = GridSpec(1, 20.0, 16384),
) -> ExperimentReport:
    """Sign of the defect Q_s(|u|) - Q_s(u) across a list of orders.

    Orders below 3/2 are gated pass/fail against the sign law; orders
    from 3/2 on are probes reported as evidence only (inconclusive status),
    and divergent partial sums are flagged inconclusive in both regimes. Needs
    a sign change, without which the defect is 0.
    """
    t0 = time.perf_counter()
    orders = [_sign_law_order(s) for s in _order_list(s_list)]
    u = sample(u_source, spec)
    # the sign law is gated on the error estimates alone; the tolerance
    # field only keeps the report's bytes
    params = _base_params(
        spec, s_list=orders, function=str(u_source), tolerance=1e-3
    )
    crossings = _sign_changes(u, "the defect Q_s(|u|) - Q_s(u)")
    # both cross spectra serve every order, so form each one once
    plain = _plain_cross(u)
    (sa,) = dealias_spectrum(u, crossings, ("abs",))
    modulus = cross_spectrum(sa, sa)
    del sa
    results = []
    verdicts = []
    for s in orders:
        q_plain = refined_form(plain, s)
        q_abs = refined_form(modulus, s)
        defect = q_abs.value - q_plain.value
        err = q_abs.error_estimate + q_plain.error_estimate
        diverged = q_abs.diverged or q_plain.diverged
        results.append(
            _record(f"defect at s={s:g}", defect, s_err=err)
        )
        claim = f"defect sign at s={s:g} is opposite to the kernel constant"
        if diverged:
            verdicts.append(
                _inconclusive(claim, "partial sums diverge; the form is outside H^s")
            )
        elif s >= 1.5:
            verdicts.append(
                _inconclusive(
                    claim,
                    f"probe outside the proven range: defect is "
                    f"{_sign_name(defect)} (evidence only)",
                )
            )
        else:
            _finite(f"the defect at s={s:g}", defect)
            c_ns = kernel_constant(1, s)
            verdicts.append(_sign_law_verdict(claim, defect, c_ns, (err,)))
    return _report("sign-sweep", params, results, verdicts, t0)


def counterexample_scan(
    phi_source: str,
    s_list: Sequence[float],
    cutoff_list: Sequence[float],
    spec: GridSpec = GridSpec(1, 20.0, 16384),
) -> ExperimentReport:
    """Partial-sum growth of the positive-part form for a kinked input.

    The input must have the model shape: find_crossings finds one sign
    change, rising, within Delta/2 of the origin, and it is a simple root.
    For each order the octave increments of the cutoff sums are fitted in
    log-log; a kink predicts exponent 2s - 3, so orders from 3/2 on grow
    (membership fails; at 3/2 like log of the cutoff) while orders below
    are Cauchy with per-shell increments shrinking to roundoff.
    """
    t0 = time.perf_counter()
    cutoffs = np.asarray(list(cutoff_list), dtype=float)
    if cutoffs.size < 4:
        raise DomainError("need at least 4 cutoffs for a growth fit")
    # NaN fails every comparison, so test finiteness before the order
    if not np.all(np.isfinite(cutoffs) & (cutoffs > 0)):
        raise DomainError("cutoffs must be positive and finite")
    if np.any(np.diff(cutoffs) <= 0):
        raise DomainError("cutoffs must be strictly increasing")
    phi = sample(phi_source, spec)
    ximax = np.pi * (spec.N // 2) / spec.L
    if cutoffs[-1] > ximax:
        raise DomainError(
            f"largest cutoff {cutoffs[-1]:g} exceeds the frequency range "
            f"{ximax:g}"
        )
    sp = phi.samples
    mid = spec.N // 2
    slope = (sp[mid + 1] - sp[mid - 1]) / (2.0 * spec.delta)
    crossings = find_crossings(phi)
    if len(crossings) != 1:
        raise DomainError(f"input must change sign once, not {len(crossings)} times")
    ((z, kappa),) = crossings
    if not (kappa > 0.0 and abs(z) <= spec.delta / 2.0):
        raise DomainError(
            f"input must rise through 0 within Delta/2 of the origin, not cross "
            f"at {z:.3e} with slope {kappa:.3e}"
        )
    # the slope of a simple root does not depend on the step, while that of
    # a root of order p grows like h^(p-1): x^3 reads 4 times as much at
    # h = 2 Delta as at h = Delta
    wide = (sp[mid + 2] - sp[mid - 2]) / (4.0 * spec.delta)
    if not (slope > 0.0 and 0.5 <= wide / slope <= 2.0):
        raise DomainError(
            f"input must have a simple root at the origin: its central "
            f"differences at h = Delta and 2 Delta are {slope:.3e} and "
            f"{wide:.3e}"
        )

    orders = _order_list(s_list)
    params = _base_params(
        spec,
        s_list=orders,
        cutoffs=[float(c) for c in cutoffs],
        function=str(phi_source),
    )
    (su,) = dealias_spectrum(phi, crossings, ("pos",))
    cross = cross_spectrum(su, su)
    del su
    # the last shell m dxi <= c, i.e. floor(c / dxi) on the radii that
    # shell_partial_sums returns; a zero or repeated index selects no new
    # shell and leaves the growth fit without data
    idx = np.searchsorted(cross.shell_radii(), cutoffs, side="right") - 1
    if idx[0] < 1 or np.any(np.diff(idx) <= 0):
        raise DomainError(
            f"cutoffs must fall in distinct nonzero frequency shells of "
            f"width dxi = pi/L = {cross.delta_xi:g}; they select shells "
            f"{[int(m) for m in idx]}"
        )

    results = []
    verdicts = []
    for s in orders:
        xi, partial = shell_partial_sums(cross, s)
        svals = partial[idx]
        # per-shell relative increments over the top octave of the largest cutoff
        top = cutoffs[-1]
        sel = (xi >= top / 2.0) & (xi <= top)
        # partial sums that overflowed to inf or NaN difference without a warning
        with np.errstate(over="ignore", invalid="ignore"):
            incs = np.diff(svals)
            shell_inc = np.diff(partial)[sel[1:]]
            denom = max(abs(float(partial[idx[-1]])), _TINY)
            rel = np.abs(shell_inc) / denom
            decreasing = bool(np.all(np.diff(np.abs(incs)) < 0))
        good = np.isfinite(incs) & (incs != 0.0)
        decided = np.count_nonzero(good) >= 2
        slope_fit = float(
            np.polyfit(np.log(cutoffs[:-1][good]), np.log(np.abs(incs[good])), 1)[0]
        ) if decided else math.nan
        cauchy_metric = float(np.mean(rel)) if rel.size else math.nan
        for c, v in zip(cutoffs, svals):
            results.append(
                _record(f"partial sum at s={s:g}, cutoff={c:g}", float(v))
            )
        results.append(_record(f"growth exponent at s={s:g}", slope_fit))
        results.append(_record(f"cauchy metric at s={s:g}", cauchy_metric))
        predicted = 2.0 * s - 3.0
        if s >= 1.5:
            claim = f"partial sums at s={s:g} grow with exponent 2s-3"
        else:
            claim = f"partial sums at s={s:g} are Cauchy"
        if not decided:
            cause = "underflow" if np.all(np.isfinite(incs)) else "overflow"
            verdicts.append(
                _inconclusive(
                    claim,
                    f"the partial sums {cause}: fewer than two octave "
                    f"increments are finite and nonzero",
                )
            )
        elif s >= 1.5:
            verdicts.append(
                _check(
                    claim,
                    abs(slope_fit - predicted) <= 0.15,
                    f"fitted exponent {slope_fit:.4f} vs predicted "
                    f"{predicted:.4f} (tolerance 0.15)",
                )
            )
        else:
            verdicts.append(
                _check(
                    claim,
                    decreasing and cauchy_metric < 1e-4,
                    f"octave increments decreasing: {decreasing}; mean "
                    f"relative shell increment {cauchy_metric:.3e} "
                    f"(threshold 1e-4)",
                )
            )
    return _report("counterexample", params, results, verdicts, t0)


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
    order = _kernel_order(s)
    _check_tol(tol)
    eps = [float(e) for e in eps_list]
    # sorted() orders NaN by input position, so test finiteness first
    for e in eps:
        if not math.isfinite(e):
            raise DomainError(f"eps levels must be finite, got {e:g}")
    eps.sort()
    if not eps or eps[0] <= 0:
        raise DomainError("eps list must contain positive values")
    if len(eps) < 2:
        raise DomainError("need at least two eps levels to extrapolate to zero")
    if len(set(eps)) < len(eps):
        raise DomainError("eps levels must be distinct")
    if eps[0] * eps[0] == 0.0:
        raise DomainError(f"eps level {eps[0]:g} is too small: its square underflows")
    if math.isinf(eps[-1] * eps[-1]):
        raise DomainError(f"eps level {eps[-1]:g} is too large: its square overflows")
    u = sample(u_source, spec)
    if np.max(u.samples - eps[0]) <= 0.0:
        # every shifted form would be 0, which carries no information
        raise DomainError(
            f"the smallest eps level {eps[0]:g} leaves no positive part: "
            f"max(u) = {float(np.max(u.samples)):g}"
        )
    params = _base_params(
        spec,
        s=order,
        eps_list=list(eps),
        function=str(u_source),
        tolerance=float(tol),
    )
    forms = []  # level 0 is the reference, the positive part of u itself
    for e in (0.0, *eps):
        shifted = GridFunction(spec, u.samples - e) if e else u
        if np.max(shifted.samples) <= 0.0:
            forms.append(RefinedValue(0.0, 0.0, False))
        else:
            forms += _truncation_forms(
                shifted, find_crossings(shifted), order, [("pos", "pos")]
            )
    labels = ["reference form of the positive part"]
    labels += [f"shifted form at eps={e:g}" for e in eps]
    for label, q in zip(labels, forms):
        _finite(f"the {label}", q.value)
    results = [
        _record(k, q.value, s_err=q.error_estimate) for k, q in zip(labels, forms)
    ]
    ref = forms[0]
    values = np.array([q.value for q in forms[1:]])
    scale = max(abs(ref.value), _TINY)

    bounded = float(np.max(np.abs(values))) <= 2.0 * max(
        scale, float(np.abs(values[0]))
    )
    verdicts = [
        _check(
            "shifted forms stay uniformly bounded",
            bounded,
            f"max |q(eps)| = {float(np.max(np.abs(values))):.6e} vs "
            f"reference {ref.value:.6e}",
        )
    ]
    # the family approaches its limit linearly in eps (the level shift
    # couples to the fixed function at first order), so extrapolate the
    # two smallest levels and use a three-point quadratic as the error probe
    e0, e1 = eps[0], eps[1]
    with np.errstate(over="ignore"):
        limit = values[0] + (values[0] - values[1]) * e0 / (e1 - e0)
    if not math.isfinite(limit):  # the product overflowed: take it scaled
        limit = values[0] + (values[0] - values[1]) * (e0 / (e1 - e0))
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
        _check(
            "shifted forms converge to the positive-part form",
            conv <= tol,
            f"extrapolated limit {limit:.8e} vs reference "
            f"{ref.value:.8e}: relative gap {conv:.6e} "
            f"(tolerance {tol:.1e})",
        )
    )
    # minimal quadratic coefficient that keeps the family under
    # A + B eps^2 with A at the limit; monotone-from-below data needs
    # B <= 0 and any admissible envelope certifies the level-shift bound
    b_req = float(np.max((values - limit) / np.square(eps)))
    fit_ok = math.isfinite(b_req) and b_req * max(eps) ** 2 <= scale
    verdicts.append(
        _check(
            "shifted forms fit under a quadratic envelope",
            fit_ok,
            f"envelope A={limit:.6e}, B={max(b_req, 0.0):.6e} covers "
            f"the family; quadratic excess stays below the form scale",
        )
    )
    return _report("truncation-bound", params, results, verdicts, t0)


def convergence_study(
    u_source: str,
    s: float,
    N_list: Sequence[int],
    L: float = 20.0,
    tol: float = 1e-3,
    extrapolate: bool = True,
) -> ExperimentReport:
    """Spectral and kernel values of the cross form versus resolution.

    Needs non-integer s in (0, 3/2), where the kernel route exists, and a
    sign change at every resolution, without which the cross form is 0.
    Reports observed orders from consecutive differences and a Richardson
    limit for the kernel route (second order in the grid step); the
    spectral route saturates at the extrapolation floor, and non-monotone
    difference sequences are flagged instead of extrapolated.
    """
    t0 = time.perf_counter()
    order = _kernel_order(s)
    specs = [GridSpec(1, L, N) for N in N_list]
    Ns = [spec.N for spec in specs]
    if len(Ns) < 3:
        raise DomainError("need at least 3 resolutions")
    if any(b <= a for a, b in zip(Ns[:-1], Ns[1:])):
        raise DomainError("resolutions must be strictly increasing")
    _check_tol(tol)
    params = {
        "n": 1,
        "L": float(L),
        "N_list": Ns,
        "s": order,
        "function": str(u_source),
        "tolerance": float(tol),
        "extrapolate": bool(extrapolate),
    }
    c_ns = kernel_constant(1, order)
    results = []
    spectral_vals = []
    kernel_vals = []
    for N, spec in zip(Ns, specs):
        u = sample(u_source, spec)
        crossings = _sign_changes(u, "the cross form of u+ and u-", f" at N={N}")
        (spectral,) = _truncation_forms(
            u, crossings, order, [("pos", "neg")], extrapolate
        )
        _finite(f"the cross form of u+ and u- at N={N}", spectral.value)
        _nonzero(spectral.value, f"at N={N}")
        _, kernel, kernel_err = _kernel_cross(u, crossings, order, c_ns, 1e-10)
        results.append(
            _record(
                f"cross form at N={N}",
                spectral.value,
                kernel,
                s_err=spectral.error_estimate,
                k_err=kernel_err,
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

    observed = {"spectral": orders_of(spectral_vals), "kernel": orders_of(kernel_vals)}
    for name, (_, obs_t) in observed.items():
        for i, p in enumerate(obs_t):
            results.append(
                _record(
                    f"observed {name} order between N={Ns[i + 1]} and N={Ns[i + 2]}",
                    float(p) if np.isfinite(p) else math.nan,
                )
            )
    diffs, obs = observed["kernel"]
    monotone = bool(np.all(np.diff(diffs) < 0)) and bool(np.all(diffs > 0))
    if monotone and np.isfinite(obs[-1]) and diffs[-1] > 0:
        p = float(obs[-1])
        fine, coarse = kernel_vals[-1], kernel_vals[-2]
        limit = fine + (fine - coarse) / (2.0**p - 1.0)
        results.append(_record("richardson limit of the kernel route", limit))
        verdicts.append(
            _check(
                "resolution study converges monotonically",
                True,
                f"kernel differences decrease; last observed order {p:.3f}",
            )
        )
    else:
        verdicts.append(
            _inconclusive(
                "resolution study converges monotonically",
                "kernel difference sequence is non-monotone "
                "(saturation or noise floor); no extrapolation",
            )
        )
    verdicts.append(
        _agreement(
            "routes agree at the finest resolution",
            spectral_vals[-1],
            kernel_vals[-1],
            tol,
        )
    )
    return _report("convergence", params, results, verdicts, t0)


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
        amp = float(rng.uniform(0.2, 1.0)) * (-1.0, 1.0)[int(rng.integers(0, 2))]
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


def interp_sweep(
    count: int,
    seed: int,
    spec: GridSpec = GridSpec(1, 20.0, 16384),
) -> ExperimentReport:
    """Interpolation-bound sweep over random functions and orders.

    Draws `count` random family members with random 0 < tau < s, forms
    the three-form ratio, and asserts every ratio stays below 1 + 1e-12.

    Every draw is made first, in the generator's order; spectral._two_lanes
    then takes the ratios, and the report does not depend on its threads.
    """
    t0 = time.perf_counter()
    if not (isinstance(count, Integral) and isinstance(seed, Integral)):
        raise DomainError(
            f"count and seed must be integers, got {count!r} and {seed!r}"
        )
    count, seed = operator.index(count), operator.index(seed)
    if count < 1:
        raise DomainError(f"count must be >= 1, got {count}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    draws = []
    for _ in range(count):
        # 0.05 <= tau / s < 0.95, so 0 < tau < s holds for every draw
        s = float(rng.uniform(0.1, 1.45))
        tau = s * float(rng.uniform(0.05, 0.95))
        draws.append((s, tau, random_function_source(rng)))

    ratios = _two_lanes(
        lambda d: interpolation_ratio(sample(d[2], spec), d[1], d[0]), draws
    )
    results = [
        _record(f"interpolation ratio, draw {i} (tau={tau:.4f}, s={s:.4f})", ratio)
        for i, ((s, tau, _), ratio) in enumerate(zip(draws, ratios))
    ]
    params = _base_params(spec, count=count, seed=seed)
    worst = max(r.spectral_value for r in results)
    verdict = _check(
        "every sampled ratio obeys the interpolation bound",
        worst <= 1.0 + 1e-12,
        f"largest ratio is 1 {worst - 1.0:+.3e}",
    )
    return _report("interp", params, results, [verdict], t0)
