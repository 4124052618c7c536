"""Fourier side: unitary transform, multiplier forms, fractional Laplacian.

Conventions. The box [-L, L] truncates the line; the dual grid is
xi_k = pi k / L for k = -N/2 .. N/2 - 1 with step dxi = pi / L. The forward
transform approximates (2 pi)^{-1/2} integral of e^{-i xi x} u(x) dx by the
scaled DFT

    coeffs(k) = (2 pi)^{-1/2} Delta sum_j e^{-i xi_k x_j} u_j,

which with x_j = -L + j Delta collapses to a (-1)^k-phased FFT. This pairing
is exactly unitary on the grid: Parseval and the round trip hold to machine
precision, not just asymptotically.

The quadratic form Q_s(u, v) = sum |xi|^{2s} F[u] conj(F[v]) dxi has one
subtle error source: the |xi|^{2s} multiplier has a kink at xi = 0, so the
rectangle sum carries an N-independent endpoint error (generalized
Euler-Maclaurin with zeta-function coefficients). For non-even 2s the form
subtracts those endpoint terms by default; they are bilinear in (u, v), so
exact polarization is preserved. The correction vanishes identically when
2s is an even integer (smooth multiplier).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, FraclabError, GridMismatchError, SupportRuleError
from .grid import GridFunction, GridSpec, l2_inner, max_tail, SUPPORT_DECAY

_EVEN_TOL = 1e-12


@dataclass(frozen=True)
class Spectrum:
    """Complex coefficients on the dual grid of a GridSpec."""

    spec: GridSpec
    coeffs: np.ndarray = field(repr=False)

    @property
    def delta_xi(self) -> float:
        return math.pi / self.spec.L

    def frequency_axis(self) -> np.ndarray:
        N = self.spec.N
        return self.delta_xi * np.arange(-N // 2, N // 2)


def _phase(N: int) -> np.ndarray:
    # (-1)^k for k = -N/2 .. N/2-1; -N/2 is even for every allowed N.
    ph = np.ones(N)
    ph[1::2] = -1.0
    return ph


def forward_transform(u: GridFunction, enforce_support: bool = True) -> Spectrum:
    """Scaled DFT under the unitary convention; see module docstring.

    The input must decay below 1e-12 on the outer half of the box so that
    the periodization implicit in the DFT is negligible.
    """
    if enforce_support and max_tail(u) >= SUPPORT_DECAY:
        raise SupportRuleError(
            f"samples reach {max_tail(u):.3e} on the outer half of the box; "
            f"the transform needs decay below {SUPPORT_DECAY:g} there"
        )
    spec = u.spec
    pref = spec.delta / math.sqrt(2.0 * math.pi)
    coeffs = pref * np.fft.fftshift(np.fft.fft(u.samples)) * _phase(spec.N)
    return Spectrum(spec, coeffs)


def inverse_transform(spectrum: Spectrum) -> GridFunction:
    """Exact inverse of forward_transform (round trip is machine-exact)."""
    spec = spectrum.spec
    pref = spec.delta / math.sqrt(2.0 * math.pi)
    raw = np.fft.ifft(np.fft.ifftshift(spectrum.coeffs * _phase(spec.N) / pref))
    out = np.real(raw)
    resid = np.max(np.abs(np.imag(raw)))
    scale = max(np.max(np.abs(out)), 1e-300)
    if resid > 1e-10 * scale:
        raise FraclabError(
            f"inverse transform imaginary residual {resid:.3e} exceeds "
            f"1e-10 relative; input spectrum is not Hermitian"
        )
    return GridFunction(spec, out)


def zeta_extended(x: float) -> float:
    """Riemann zeta on the real line, x != 1 where it has its pole.

    The endpoint corrections below only need moderately negative
    arguments; far in the left half-line the values overflow the double
    range and are rejected rather than returned as inf. scipy is imported
    here, on first use, so that importing fraclab does not load it.
    """
    from scipy.special import zeta as _scipy_zeta

    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"zeta argument must be finite, got {x}")
    if x == 1.0:
        raise DomainError("zeta has a pole at 1")
    value = float(_scipy_zeta(x))
    if not math.isfinite(value):
        raise DomainError(f"zeta({x}) exceeds the double-precision range")
    return value


def _multiplier(abs_xi: np.ndarray, s: float) -> np.ndarray:
    # |xi|^{2s} with the 0^0 = 1 convention so s = 0 reproduces Parseval.
    if s == 0.0:
        return np.ones_like(abs_xi)
    return abs_xi ** (2.0 * s)


def _even_integer_lambda(lam: float) -> bool:
    r = round(lam)
    return abs(lam - r) < _EVEN_TOL and r >= 0 and r % 2 == 0


def _endpoint_terms(g: np.ndarray, lam: float, dxi: float) -> float:
    """Endpoint (Navot) error of the rectangle sum for int |xi|^lam g(xi) dxi.

    The kink of |xi|^lam at 0 makes the plain sum differ from the integral
    by 2 sum_{j even} zeta(-lam-j) g^{(j)}(0)/j! dxi^{lam+1+j}; the j = 0, 2,
    4 terms cover every tolerance used here. Derivatives of g at 0 come from
    high-order central stencils on the frequency grid.
    """
    N = g.size
    c = N // 2
    if c < 4:
        return 0.0
    h = dxi
    g0 = g[c]
    w = g[c - 3 : c + 4]
    d2 = (
        2.0 * (w[0] + w[6])
        - 27.0 * (w[1] + w[5])
        + 270.0 * (w[2] + w[4])
        - 490.0 * w[3]
    ) / (180.0 * h * h)
    d4 = (
        -(w[0] + w[6]) / 6.0
        + 2.0 * (w[1] + w[5])
        - 6.5 * (w[2] + w[4])
        + (28.0 / 3.0) * w[3]
    ) / h**4
    return (
        2.0 * zeta_extended(-lam) * g0 * dxi ** (lam + 1.0)
        + zeta_extended(-lam - 2.0) * d2 * dxi ** (lam + 3.0)
        + zeta_extended(-lam - 4.0) * d4 / 12.0 * dxi ** (lam + 5.0)
    )


def _form_from_spectra(
    su: Spectrum,
    sv: Spectrum,
    s: float,
    cutoff: float | None,
    endpoint_correction: bool,
) -> float:
    dxi = su.delta_xi
    abs_xi = np.abs(su.frequency_axis())
    cross = su.coeffs * np.conj(sv.coeffs)
    weights = _multiplier(abs_xi, s)
    if cutoff is not None:
        weights = np.where(abs_xi <= cutoff * (1.0 + 1e-15), weights, 0.0)
    terms = weights * cross
    total = complex(terms.sum()) * dxi
    value = total.real
    resid = abs(total.imag)
    # round-off rides on the term-magnitude sum, not on the (possibly
    # heavily cancelled) real part; a conjugation bug shows up at the
    # term scale itself
    term_scale = float(np.abs(terms).sum()) * dxi
    if resid > 1e-10 * max(abs(value), term_scale, 1e-300):
        raise FraclabError(
            f"form imaginary residual {resid:.3e} exceeds 1e-10 of the "
            f"term scale {term_scale:.3e}"
        )
    lam = 2.0 * s
    if endpoint_correction and s > 0.0 and not _even_integer_lambda(lam):
        value -= _endpoint_terms(np.real(cross), lam, dxi)
    return value


def quadratic_form(
    u: GridFunction,
    v: GridFunction,
    s: float,
    cutoff: float | None = None,
    *,
    endpoint_correction: bool = True,
) -> float:
    """Bilinear multiplier form sum |xi|^{2s} F[u] conj(F[v]) dxi.

    Real part, with the imaginary residual asserted below 1e-10 of the
    absolute term sum (round-off scale for oscillatory cross spectra).
    s = 0 reduces to the L2 inner product (discrete Parseval is exact).
    An optional cutoff restricts the sum to |xi| <= cutoff, which exposes
    the partial-sum tail for convergence studies. endpoint_correction
    subtracts the xi = 0 kink error of the rectangle sum (see module
    docstring); disable it to get the literal plain sum.
    """
    if u.spec != v.spec:
        raise GridMismatchError(f"incompatible grids: {u.spec} vs {v.spec}")
    if not (s >= 0.0) or not math.isfinite(s):
        raise DomainError(f"order s must be a finite non-negative real, got {s}")
    if cutoff is not None and not (cutoff > 0):
        raise DomainError(f"cutoff must be positive, got {cutoff}")
    su = forward_transform(u)
    sv = su if v is u else forward_transform(v)
    return _form_from_spectra(su, sv, s, cutoff, endpoint_correction)


def sobolev_norm_sq(u: GridFunction, s: float) -> float:
    """Squared Sobolev norm: quadratic_form(u, u, s) + l2_inner(u, u)."""
    return quadratic_form(u, u, s) + l2_inner(u, u)


def fractional_laplacian(u: GridFunction, s: float) -> GridFunction:
    """Multiplier realization: inverse transform of |xi|^{2s} F[u].

    The half-order factorization l2_inner(op(u, s/2), op(v, s/2)) equals the
    plain (uncorrected) quadratic_form(u, v, s) to machine precision by
    discrete Parseval.
    """
    if not (s > 0.0) or not math.isfinite(s):
        raise DomainError(f"order s must be positive and finite, got {s}")
    su = forward_transform(u)
    abs_xi = np.abs(su.frequency_axis())
    return inverse_transform(Spectrum(u.spec, su.coeffs * _multiplier(abs_xi, s)))


def interpolation_ratio(v: GridFunction, tau: float, s: float) -> float:
    """Q_tau(v,v) / (Q_s(v,v)^{tau/s} * l2(v,v)^{(s-tau)/s}).

    The interpolation inequality bounds this by 1; the discrete Hoelder
    inequality makes the bound exact for the plain sums, so corrections are
    deliberately not applied here.
    """
    if not (0.0 < tau < s):
        raise DomainError(f"need 0 < tau < s, got tau={tau}, s={s}")
    if not np.any(v.samples != 0.0):
        raise DomainError("interpolation ratio undefined for the zero function")
    sv = forward_transform(v)
    q_tau = _form_from_spectra(sv, sv, tau, None, False)
    q_s = _form_from_spectra(sv, sv, s, None, False)
    low = l2_inner(v, v)
    theta = tau / s
    return q_tau / (q_s**theta * low ** (1.0 - theta))


def shell_partial_sums(
    su: Spectrum, sv: Spectrum, s: float, *, endpoint_correction: bool = True
):
    """Partial sums of the form over frequency shells |xi| <= m dxi.

    Returns (shell_radii, partial) where partial[m] is the corrected form
    restricted to the first m+1 shells. The endpoint terms are a constant
    shift, so shell increments are those of the plain sum.
    """
    dxi = su.delta_xi
    N = su.spec.N
    k = np.arange(-N // 2, N // 2)
    abs_k = np.abs(k)
    g = np.real(su.coeffs * np.conj(sv.coeffs))
    weights = _multiplier(dxi * abs_k.astype(float), s)
    terms = weights * g * dxi
    shell_sums = np.bincount(abs_k, weights=terms, minlength=N // 2 + 1)
    partial = np.cumsum(shell_sums)
    if endpoint_correction and s > 0.0 and not _even_integer_lambda(2.0 * s):
        partial = partial - _endpoint_terms(g, 2.0 * s, dxi)
    return dxi * np.arange(N // 2 + 1), partial


def write_spectrum_csv(spectrum: Spectrum, path) -> None:
    """Serialize to CSV: the frequency, then real and imag parts."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["frequency", "real", "imag"])
        for xi, c in zip(spectrum.frequency_axis(), spectrum.coeffs):
            writer.writerow(
                [format(xi, ".17g"), format(c.real, ".17g"), format(c.imag, ".17g")]
            )
