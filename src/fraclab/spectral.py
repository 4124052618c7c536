"""Fourier side: unitary transform and multiplier forms.

Conventions. The box [-L, L] truncates the line; the dual grid is
xi_k = pi k / L for k = -N/2 .. N/2 - 1 with step dxi = pi / L, stored in
numpy's FFT order: k = 0 .. N/2 - 1, then -N/2 .. -1, so coeffs[m] and
coeffs[N - m] hold k = m and k = -m, and coeffs[N/2] holds k = -N/2. The
forward transform approximates (2 pi)^{-1/2} integral of e^{-i xi x} u(x) dx
by the scaled DFT

    coeffs(k) = (2 pi)^{-1/2} Delta sum_j e^{-i xi_k x_j} u_j,

which with x_j = -L + j Delta collapses to a (-1)^k-phased FFT. This pairing
is exactly unitary on the grid: Parseval holds to machine precision, not
just asymptotically.

The quadratic form Q_s(u, v) = sum |xi|^{2s} F[u] conj(F[v]) dxi has one
subtle error source: the |xi|^{2s} multiplier has a kink at xi = 0, so the
rectangle sum carries an N-independent endpoint error (generalized
Euler-Maclaurin with zeta-function coefficients). For non-even 2s the form
always subtracts those endpoint terms; they are bilinear in (u, v), so
exact polarization is preserved. The correction vanishes identically when
2s is an even integer (smooth multiplier).

In-place transform. forward_transform casts the samples into the one
complex array it returns and runs the FFT on it in place (np.fft.fft with
out=, numpy >= 2.0). pocketfft copies its input into the output array and
transforms there in either case, so the in-place call is the same
arithmetic as the out-of-place one, bit for bit; it only skips numpy's
separate cast copy and output array.

Heap. pocketfft allocates a plan and a scratch array on every call, about
2 x 16 B x N together, and frees them on return. From about 2^17 points
that is more than glibc's dynamic trim threshold, so glibc hands the memory
back to the kernel after each transform and the next one faults it in
again: about 2,000 minor page faults per transform at 2^18, some 40% of its
time. So from N = _HEAP_N = 2^17 on, forward_transform first calls
_hold_heap, which sets glibc's M_TRIM_THRESHOLD to 256 MiB and
M_MMAP_THRESHOLD to 12 MiB with mallopt, once per process: freed blocks
below 12 MiB, every array up to 2^19, stay in the heap for the next call,
and the faults stop. The CLI calls it before every experiment, whatever
N. The setting holds for the whole process and only on glibc; elsewhere
_hold_heap does nothing. It moves no value. It costs about 2 MiB of peak
RSS in a process that transforms at 2^18 and none at 2^20, whose 16 MiB
arrays stay mapped.

Half-axis evaluation. The spectra of real inputs are Hermitian, so the
forms need only the real cross spectrum Re(F[u] conj(F[v])) (its imaginary
part is odd in xi; cross_spectrum forms it once per pair of inputs) and a
multiplier that depends on |xi| alone, raised to 2s only on the N/2 + 1
shell radii m dxi, m = 0 .. N/2 (see Mirrors below). The shell sums add the
two terms of shell m as (0.0 + t_{-m}) + t_m, the doubles of np.bincount,
which keeps even the sign of a zero sum.

Alias ghosts of kinks. Truncation kinks u at each sign crossing z, where
u has the slope kappa: u+ and u- turn there by the derivative jump J =
|kappa|, and |u| by J = 2 |kappa| (_JUMP_FACTOR). A jump J forces the
slow coefficient tail F(xi) ~ -J e^{-i xi z} / (sqrt(2 pi) xi^2), and
sampling aliases it: the DFT coefficient at xi picks up ghost images at
xi + 2 Xi m for every integer m (Xi the Nyquist frequency). Summed over
the lattice the ghosts have the closed form

    sum_m exp(2 pi i m theta) / (m + alpha)^2
      = pi^2 e^{i pi alpha (1 - 2 theta)}
        [cos(pi alpha) - i (1 - 2 theta) sin(pi alpha)] / sin^2(pi alpha)

with alpha = xi / (2 Xi), theta = (-Xi z / pi) mod 1, so _dealias
removes them exactly instead of leaving them to a fit. Ghost strengths add
linearly over kinks and over spectra, which keeps the exact polarization
algebra of the plain sums.

Tail of kinked forms. After de-aliasing, the truncated frequency sum of a
kinked integrand still misses a genuine tail ~ Xi^{2s-3}. _refine fits
partial sums at geometrically spaced cutoffs against the basis
[1, Xi^{2s-3}, Xi^{2s-5}], and the constant term is the extrapolated
value. After de-aliasing the fit is insensitive to the window choice,
which is what the error estimate measures. Spectrum.kinked, which _dealias
writes and cross_spectrum carries, is read here alone.

Mirrors. The multiplier depends on |xi| alone and the ghost is
conjugate-symmetric, G(-xi) = conj(G(xi)), so each is computed on half the
axis and mirrored. The mirror reproduces the full-axis arithmetic to the
last bit: dxi * (-m) == -(dxi * m) in IEEE arithmetic, x / y and pi * x
change sign exactly with x, np.sin is odd and np.cos even bit for bit, and
every later step is a power of |xi| or a complex product, sum, quotient or
exponential whose result conjugates exactly when its operands do. Ghosts
are built _BLOCK = 8192 negative frequencies at a time, whatever N.
"""

from __future__ import annotations

import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .grid import GridFunction, GridSpec, l2_inner, truncate
from .grid import _require_decay, _require_same_spec
from .reports import _TINY

_EVEN_TOL = 1e-12
# the derivative jump of each truncation at a crossing, in units of |kappa|
_JUMP_FACTOR = {"pos": 1.0, "neg": 1.0, "abs": 2.0}
_BLOCK = 8192  # negative frequencies per block of alias ghosts
# from this N on, _dealias builds the ghosts on a second thread while the
# calling thread transforms, which saves about 10 ms per call. Below it a
# lone overlapped call is faster too (9.45 against 10.5 ms at 2^16 with one
# crossing, on 2 cores), but with the overlap from N = 8 on, the battery
# benchmark's median op time rose 14% (ROADMAP item 12), so the gate stays.
_OVERLAP_N = 2**17
# and only up to this many crossings, so that the store is no larger than one
# spectrum. With many crossings the ghosts take longer than the transforms
# they hide behind: at 39 crossings the overlap was 4-19% slower at 2^17 and
# 2^18 and its store took 39 MiB at 2^17.
_OVERLAP_CROSSINGS = 2
# from this N on, forward_transform holds glibc's heap (see Heap above): a
# fresh process takes about 990 faults per transform at 2^17 and 100 at 2^14
_HEAP_N = 2**17
# glibc's mallopt parameters (malloc.h) and the values _hold_heap sets
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_HEAP_SETTINGS = ((_M_TRIM_THRESHOLD, 256 * 2**20), (_M_MMAP_THRESHOLD, 12 * 2**20))


@dataclass(frozen=True)
class Spectrum:
    """Coefficients on the dual grid of a GridSpec, in numpy's FFT order:
    complex for a transform, real for a cross spectrum. kinked marks the
    spectrum of an input with derivative jumps whose alias ghosts were
    subtracted, and any cross spectrum formed with one."""

    spec: GridSpec
    coeffs: np.ndarray = field(repr=False)
    kinked: bool = False

    @property
    def delta_xi(self) -> float:
        return math.pi / self.spec.L

    def shell_radii(self) -> np.ndarray:
        """|xi| of the shells m = 0 .. N/2, i.e. m dxi."""
        return self.delta_xi * np.arange(self.spec.N // 2 + 1)


def cross_spectrum(su: Spectrum, sv: Spectrum) -> Spectrum:
    """Re(F[u] conj(F[v])) on the dual grid, numpy's complex products kept to
    their real parts, on which every form of the pair depends. For real u
    and v the imaginary parts are odd in xi, so no form reads them."""
    products = np.conjugate(sv.coeffs)
    # a product beyond the double range is inf, without a warning; the
    # drivers refuse the form that it makes non-finite
    with np.errstate(over="ignore"):
        np.multiply(su.coeffs, products, out=products)
    return Spectrum(su.spec, products.real.copy(), su.kinked or sv.kinked)


@functools.cache
def _hold_heap() -> None:
    """Keep freed blocks below 12 MiB in this process's heap (see Heap
    above), once per process; off glibc, do nothing."""
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return
    except (AttributeError, ValueError):  # no confstr, or no such name
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in _HEAP_SETTINGS:
        mallopt(param, value)


def forward_transform(u: GridFunction) -> Spectrum:
    """Scaled DFT under the unitary convention; see module docstring.

    The input must decay below 1e-12 of the largest |sample| on the outer
    half of the box so that the periodization implicit in the DFT is
    negligible.
    """
    _require_decay(u)
    spec = u.spec
    if spec.N >= _HEAP_N:
        _hold_heap()
    pref = spec.delta / math.sqrt(2.0 * math.pi)
    # the one complex array of the result: the samples cast into it, the
    # FFT run on it in place, then * pref and * (-1)^k (index and k share
    # their parity) with the complex products of that expression. The
    # factor 1 + 0j is not skipped: it can turn a -0.0 part into +0.0.
    coeffs = u.samples.astype(complex)
    np.fft.fft(coeffs, out=coeffs)
    np.multiply(pref, coeffs, out=coeffs)
    coeffs[0::2] *= 1.0
    coeffs[1::2] *= -1.0
    return Spectrum(spec, coeffs)


def _plain_cross(u: GridFunction) -> Spectrum:
    """cross_spectrum(su, su) of su = F[u], which is dropped on return."""
    su = forward_transform(u)
    return cross_spectrum(su, su)


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
    # |xi|^{2s}; IEEE pow gives 0^0 = 1, so s = 0 reproduces Parseval.
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
    h = dxi
    g0 = g[0]
    # k = -3 .. 3, wrapped around the end of the FFT order
    w = np.concatenate((g[-3:], g[:4]))
    try:
        h4 = h**4
        p1, p3, p5 = (dxi ** (lam + k) for k in (1.0, 3.0, 5.0))
    except OverflowError:
        raise DomainError(
            f"endpoint terms of |xi|^{lam:g} overflow at frequency spacing "
            f"pi/L = {dxi:.3e}; L is too small"
        ) from None
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
    ) / h4
    return (
        2.0 * zeta_extended(-lam) * g0 * p1
        + zeta_extended(-lam - 2.0) * d2 * p3
        + zeta_extended(-lam - 4.0) * d4 / 12.0 * p5
    )


def _form_from_spectra(cross: Spectrum, radii: np.ndarray, s: float) -> float:
    """The plain form of a cross spectrum; radii is cross.shell_radii()."""
    c = cross.spec.N // 2
    weights = _multiplier(radii, s)
    # the terms in k = -N/2 .. N/2 - 1 order as the real parts of a zeroed
    # complex buffer: numpy's pairwise sum splits a complex array otherwise
    # than a real one, so a real sum would move interp's pinned ratios
    terms = np.zeros(cross.spec.N, dtype=complex)
    np.multiply(weights[c:0:-1], cross.coeffs[c:], out=terms.real[:c])
    np.multiply(weights[:c], cross.coeffs[:c], out=terms.real[c:])
    return float(terms.sum().real) * cross.delta_xi


def quadratic_form(u: GridFunction, v: GridFunction, s: float) -> float:
    """Bilinear multiplier form sum |xi|^{2s} F[u] conj(F[v]) dxi less the
    xi = 0 endpoint terms: the last of the shell partial sums that
    refined_form extrapolates. s = 0 gives the L2 inner product exactly.
    """
    _require_same_spec(u, v)
    if not (s >= 0.0) or not math.isfinite(s):
        raise DomainError(f"order s must be a finite non-negative real, got {s}")
    cross = _plain_cross(u) if v is u else cross_spectrum(
        forward_transform(u), forward_transform(v))
    return float(shell_partial_sums(cross, s)[1][-1])


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
    cross = _plain_cross(v)
    radii = cross.shell_radii()
    q_tau = _form_from_spectra(cross, radii, tau)
    q_s = _form_from_spectra(cross, radii, s)
    low = l2_inner(v, v)
    theta = tau / s
    return q_tau / (q_s**theta * low ** (1.0 - theta))


def shell_partial_sums(cross: Spectrum, s: float):
    """Partial sums of the form of a cross spectrum over the frequency
    shells |xi| <= m dxi.

    Returns (shell_radii, partial) where partial[m] is the corrected form
    restricted to the first m+1 shells. The endpoint terms are a constant
    shift, so shell increments are those of the plain sum.
    """
    dxi = cross.delta_xi
    c = cross.spec.N // 2
    radii = cross.shell_radii()
    g = cross.coeffs
    # g[N - m] and g[m] are the two halves of shell m; shell N/2 has only
    # k = -N/2 (g[c]) and shell 0 only k = 0. A multiplier that overflows (far
    # above s = 3/2, or at a tiny L), or a cross spectrum of an input too
    # large for its forms, turns the sums and the endpoint terms inf or NaN
    # without a warning: sign_sweep reports a probe's defect as non-finite,
    # the drivers refuse a non-finite form, and _endpoint_terms rejects the
    # tiny L
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _multiplier(radii, s)
        shell_sums = np.zeros(c + 1)
        shell_sums[1:] += weights[1:] * g[: c - 1 : -1] * dxi
        shell_sums[:c] += weights[:c] * g[:c] * dxi
        partial = np.cumsum(shell_sums)
        if s > 0.0 and not _even_integer_lambda(2.0 * s):
            partial = partial - _endpoint_terms(g, 2.0 * s, dxi)
    return radii, partial


# ----------------------------------------------------------------------
# the tail of kinked forms


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
    with np.errstate(over="ignore"):
        rms = float(np.sqrt(np.mean(resid**2)))
    peak = float(np.max(np.abs(resid)))
    if math.isinf(rms) and math.isfinite(peak):  # resid**2 overflowed
        rms = peak * float(np.sqrt(np.mean((resid / peak) ** 2)))
    return float(coef[0]), rms


def _refine(cross: Spectrum, s: float, extrapolate: bool) -> RefinedValue:
    """Frequency-sum value of the s-form of two spectra, given as their
    cross_spectrum, with cutoff extrapolation for kinked inputs with s in
    the slowly convergent band.

    cross.kinked says whether the inputs have derivative jumps, their
    spectra then coming from _dealias. Divergent tails (growing
    octave increments) are flagged rather than extrapolated; the reported
    value is then the bare partial sum.
    """
    xi, partial = shell_partial_sums(cross, s)
    total = float(partial[-1])
    scale = max(abs(total), _TINY)
    top = partial[-1]
    n_half = len(partial) - 1
    # partial sums that overflowed difference to NaN, which flags nothing
    with np.errstate(invalid="ignore"):
        inc1 = float(top - partial[n_half // 2])
        inc2 = float(partial[n_half // 2] - partial[n_half // 4])
    diverged = (
        abs(inc1) > 1.05 * abs(inc2) and abs(inc1) > 1e-10 * scale
    )
    if diverged:
        return RefinedValue(value=total, error_estimate=abs(inc1), diverged=True)
    if extrapolate and cross.kinked and 0.75 < s < 1.5:
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
            est = max(est, 1e-14 * abs(val_a))
            return RefinedValue(value=val_a, error_estimate=est, diverged=False)
    # plain corrected sum; the residual tail of a kinked integrand is a
    # geometric series in octaves with ratio 2^{2s-3}
    if cross.kinked and s < 1.4:
        ratio = 2.0 ** (2.0 * s - 3.0)
        est = abs(inc1) * ratio / (1.0 - ratio)
    else:
        est = abs(inc1)
    est = max(est, 1e-15 * scale)
    return RefinedValue(value=total, error_estimate=est, diverged=False)


# ----------------------------------------------------------------------
# alias ghosts of derivative jumps


def _ghost_block(spec: GridSpec, lo: int, hi: int):
    """(ximax, xi, pi alpha, cos, sin and sin^2 of pi alpha, xi^2) over the
    frequencies k = lo - N/2 .. hi - N/2 - 1, with alpha = xi / (2 ximax)."""
    c = spec.N // 2
    ximax = np.pi * c / spec.L
    xi = (math.pi / spec.L) * np.arange(lo - c, hi - c)
    pa = np.pi * (xi / (2.0 * ximax))
    sin_pa = np.sin(pa)
    return ximax, xi, pa, np.cos(pa), sin_pa, sin_pa**2, xi**2


def _crossing_ghost(z: float, block, ghost, work) -> None:
    """Write into ghost the alias ghost of a kink at z on a _ghost_block,
    per unit of the scale -jump / sqrt(2 pi) of _dealias:

        phase * lattice / (2 ximax)^2 - phase / xi^2,   phase = e^{-i xi z}

    with lattice the closed form of the module docstring; ghost and work
    are complex block-length buffers, and work is left holding phase / xi^2.
    """
    ximax, xi, pa, cos_pa, sin_pa, sin_sq, xi_sq = block
    w = 1.0 - 2.0 * ((-ximax * z / np.pi) % 1.0)  # 1 - 2 theta
    # lattice = pi^2 e^{i pi alpha w} (cos(pi alpha) - i w sin(pi alpha))
    #           / sin^2(pi alpha)
    np.multiply(1j, pa, out=ghost)
    np.multiply(ghost, w, out=ghost)
    np.exp(ghost, out=ghost)
    np.multiply(1j * w, sin_pa, out=work)
    np.subtract(cos_pa, work, out=work)
    np.multiply(np.pi**2, ghost, out=ghost)
    np.multiply(ghost, work, out=ghost)
    np.divide(ghost, sin_sq, out=ghost)
    np.multiply(-1j, xi, out=work)
    np.multiply(work, z, out=work)
    np.exp(work, out=work)
    np.multiply(work, ghost, out=ghost)
    ghost /= (2.0 * ximax) ** 2
    ghost -= np.divide(work, xi_sq, out=work)


def _usable_cpus() -> int:
    """The CPUs this process may run on; macOS and Windows lack the
    affinity call."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _two_lanes(call, items) -> list:
    """[call(item) for item in items], computed on up to two threads.

    The calling thread is lane 0 and a helper thread lane 1; item i goes
    to lane i mod 2. There is one lane when the process may run on one CPU
    only or there is one item. The two callers spend about half of each
    item in numpy with the GIL released, so a third lane would gain
    nothing. A lane stops at its first error, and before any item later
    than a known failure. Once every lane has stopped, the error of the
    lowest failing item is raised, as a serial loop would; an interrupt
    counts as the error of its item.
    """
    count = len(items)
    lanes = min(2, _usable_cpus(), count)
    results = [None] * count
    errors = {}  # item index -> the exception it raised
    first_error = count
    lock = threading.Lock()

    def run(lane):
        nonlocal first_error
        i = lane
        try:
            for i in range(lane, count, lanes):
                if i > first_error:
                    return
                results[i] = call(items[i])
        except BaseException as exc:  # raised below, once every lane stops
            with lock:
                errors[i] = exc
                first_error = min(first_error, i)

    helpers = [threading.Thread(target=run, args=(j,)) for j in range(1, lanes)]
    for t in helpers:
        t.start()
    try:
        run(0)
    finally:
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    return results


def _dealias(u: GridFunction, crossings, modes):
    """The spectra of the truncations of u named by modes ("pos", "neg" or
    "abs"), marked kinked, with the alias ghosts of their derivative jumps
    subtracted in place; unmarked when there is no crossing.

    crossings is find_crossings(u), (z, slope) pairs: truncation kinks u
    at every z, and the spectrum of mode m has the jump _JUMP_FACTOR[m] *
    |slope| there, scaled into each crossing's ghost by -jump / sqrt(2 pi).
    The model keeps the (correct) m = 0 tail and removes only the lattice
    translates.

    The ghosts depend on the grid and the crossings alone. From N =
    _OVERLAP_N on, with at most _OVERLAP_CROSSINGS crossings and when the
    process may run on two CPUs, _two_lanes builds them into one
    (crossings, N/2) store on its helper thread while this thread
    transforms the truncations, since the FFTs and the ghosts' ufuncs
    release the GIL; the subtraction then reads the store. Otherwise each
    block of ghosts is built as it is subtracted: on one CPU a store built
    after the transforms was slower at 2^18 in 32 of 40 calls. The spectra
    are the same bit for bit either way.
    """
    spec = u.spec
    c = spec.N // 2
    ghosts = None
    jobs = [lambda: tuple(forward_transform(truncate(u, m)) for m in modes)]
    overlap = 0 < len(crossings) <= _OVERLAP_CROSSINGS and spec.N >= _OVERLAP_N
    if overlap and _usable_cpus() >= 2:
        ghosts = np.empty((len(crossings), c), dtype=complex)

        def build():
            for lo in range(0, c, _BLOCK):
                hi = min(lo + _BLOCK, c)
                block = _ghost_block(spec, lo, hi)
                work = np.empty(hi - lo, dtype=complex)
                for ghost, (z, _) in zip(ghosts, crossings):
                    _crossing_ghost(z, block, ghost[lo:hi], work)

        jobs.append(build)
    spectra = _two_lanes(lambda job: job(), jobs)[0]
    if not crossings:
        return spectra
    # blocks of k = -N/2 .. -1 in coeffs[c:], conjugated into coeffs[1:c]
    for lo in range(0, c, _BLOCK):
        hi = min(lo + _BLOCK, c)
        if ghosts is None:
            block = _ghost_block(spec, lo, hi)
            ghost = np.empty(hi - lo, dtype=complex)
        work = np.empty(hi - lo, dtype=complex)
        skip = int(lo == 0)  # k = -N/2 has no mirror
        mirror = work[: hi - lo - skip]
        for i, (z, slope) in enumerate(crossings):
            if ghosts is None:
                _crossing_ghost(z, block, ghost, work)
            else:
                ghost = ghosts[i, lo:hi]
            for mode, spectrum in zip(modes, spectra):
                scale = -(_JUMP_FACTOR[mode] * abs(slope) / np.sqrt(2.0 * np.pi))
                np.multiply(scale, ghost, out=work)
                spectrum.coeffs[c + lo : c + hi] -= work
                np.conjugate(ghost[skip:][::-1], out=mirror)
                np.multiply(scale, mirror, out=mirror)
                spectrum.coeffs[c - hi + 1 : c - lo + 1 - skip] -= mirror
    return tuple(Spectrum(s.spec, s.coeffs, kinked=True) for s in spectra)
