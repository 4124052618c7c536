"""Transform pair, multiplier forms, and zeta tests.

Closed-form Gaussian integrals serve as oracles: with the unitary
angular-frequency convention, F[e^{-x^2/2}] = e^{-xi^2/2}, and the
quadratic form of the standard Gaussian at order s equals Gamma(s + 1/2).
"""

import math
import os
import sys
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.special

from fraclab import spectral
from fraclab.errors import (
    DomainError,
    GridMismatchError,
    SupportRuleError,
)
from fraclab.grid import GridFunction, GridSpec, l2_inner, sample, truncate
from fraclab.spectral import (
    Spectrum,
    cross_spectrum,
    forward_transform,
    interpolation_ratio,
    quadratic_form,
    shell_partial_sums,
    zeta_extended,
)
from fraclab.special import gamma

from helpers import bits, frequency_axis, run_child

SPEC = GridSpec(1, 16.0, 2048)
GAUSS = sample("exp(-x^2/2)", SPEC)


def test_gaussian_transform_closed_form():
    su = forward_transform(GAUSS)
    xi = frequency_axis(su)
    expect = np.exp(-0.5 * xi * xi)
    assert np.max(np.abs(su.coeffs - expect)) <= 1e-12


def test_hermitian_symmetry_of_real_input():
    su = forward_transform(sample("x*exp(-x^2)", SPEC))
    c = su.coeffs
    # coeffs[N - m] pairs with coeffs[m]; k = 0 (index 0) and k = -N/2
    # pair with themselves
    flipped = np.conj(np.roll(c[::-1], 1))
    assert np.max(np.abs(c[1:] - flipped[1:])) <= 1e-12


def test_shift_theorem_on_the_lattice():
    u = sample("exp(-x^2)", SPEC)
    shift_nodes = 37
    rolled = GridFunction(SPEC, np.roll(u.samples, shift_nodes))
    su = forward_transform(u)
    sr = forward_transform(rolled)
    xi = frequency_axis(su)
    phase = np.exp(-1j * xi * shift_nodes * SPEC.delta)
    assert np.max(np.abs(sr.coeffs - phase * su.coeffs)) <= 1e-11


def test_parseval_at_order_zero():
    u = sample("x*exp(-x^2)", SPEC)
    assert quadratic_form(u, u, 0.0) == pytest.approx(l2_inner(u, u), rel=1e-13)
    # a pair without symmetry: a cross spectrum that drops the conjugate
    # gives -0.608 here instead of 0.152
    u = sample("(x-0.3)*exp(-x^2)", SPEC)
    v = sample("exp(-(x-1)^2)", SPEC)
    assert quadratic_form(u, v, 0.0) == pytest.approx(l2_inner(u, v), rel=1e-13)


@pytest.mark.parametrize("s", [0.25, 0.5, 0.75, 1.1, 1.25, 1.4])
def test_gaussian_form_matches_gamma(s):
    val = quadratic_form(GAUSS, GAUSS, s)
    assert val == pytest.approx(gamma(s + 0.5), rel=1e-6)


def test_odd_gaussian_form_closed_form():
    # Q_s(x e^{-x^2}) = 2^{s + 1/2} Gamma(s + 3/2) / 4
    u = sample("x*exp(-x^2)", SPEC)
    for s in (0.5, 1.25):
        val = quadratic_form(u, u, s)
        expect =  2.0 ** (s + 0.5) * gamma(s + 1.5) / 4.0
        assert val == pytest.approx(expect, rel=1e-6)


def test_form_validation():
    u = sample("exp(-x^2)", SPEC)
    other = sample("exp(-x^2)", GridSpec(1, 16.0, 1024))
    with pytest.raises(GridMismatchError):
        quadratic_form(u, other, 0.5)
    with pytest.raises(DomainError):
        quadratic_form(u, u, -0.5)


def test_interpolation_ratio_limits_and_bound():
    u = sample("x*exp(-x^2)", SPEC)
    s = 1.2
    near = interpolation_ratio(u, s * (1.0 - 1e-6), s)
    assert near == pytest.approx(0.9999995994632173, abs=1e-12)
    assert near <= 1.0 + 1e-12
    mod = interpolation_ratio(sample("cos(3*x)*exp(-x^2/2)", SPEC), 0.6, 1.2)
    assert mod == pytest.approx(0.9629838253808455, abs=1e-12)
    rng = np.random.default_rng(11)
    for _ in range(25):
        tau = float(rng.uniform(0.05, 1.45))
        s = float(rng.uniform(tau + 1e-3, 1.5))
        r = interpolation_ratio(u, tau, s)
        assert r <= 1.0 + 1e-12, (tau, s)


def test_interpolation_ratio_validation():
    u = sample("exp(-x^2)", SPEC)
    for tau, s in ((0.5, 0.5), (0.8, 0.5), (0.0, 0.5), (-0.1, 0.5)):
        with pytest.raises(DomainError):
            interpolation_ratio(u, tau, s)
    zero = GridFunction(SPEC, np.zeros(SPEC.N))
    with pytest.raises(DomainError):
        interpolation_ratio(zero, 0.3, 0.6)


def test_polarization_identity_plain_sums():
    # 4 Q_s(u+, u-) = Q_s(|u|) - Q_s(u), exact for the plain sums and so
    # for the corrected forms, whose endpoint terms are bilinear too
    u = sample("x*exp(-x^2)", SPEC)
    pos, neg = truncate(u, "pos"), truncate(u, "neg")
    absu = truncate(u, "abs")
    for s in (0.5, 1.25):
        lhs = 4.0 * quadratic_form(pos, neg, s)
        rhs = quadratic_form(absu, absu, s) - quadratic_form(u, u, s)
        scale = abs(quadratic_form(u, u, s))
        assert abs(lhs - rhs) <= 1e-12 * scale


def test_shell_partial_sums_monotone_and_complete():
    u = sample("x*exp(-x^2)", SPEC)
    su = forward_transform(u)
    s = 1.25
    cross = cross_spectrum(su, su)
    radii, partial = shell_partial_sums(cross, s)
    assert radii.shape == partial.shape
    assert np.all(np.diff(partial) >= -1e-15)
    assert partial[-1] == pytest.approx(_form_full_axis(cross, s, True), rel=1e-13)
    assert quadratic_form(u, u, s) == partial[-1]


def test_support_rule_enforcement():
    wide = sample("exp(-x^2/200)", SPEC)
    with pytest.raises(SupportRuleError):
        forward_transform(wide)


def test_zeta_reference_values():
    # frozen 20-digit arbitrary-precision references
    refs = {
        3.0: 1.2020569031595942854,
        2.0: 1.6449340668482264365,
        0.5: -1.4603545088095868129,
        0.0: -0.5,
        -0.5: -0.20788622497735456602,
        -1.0: -0.083333333333333333333,
        -11.0: 0.021092796092796092796,
        30.0: 1.0000000009313274324,
        -31.5: 750878449.99370094942,
    }
    for x, ref in refs.items():
        assert zeta_extended(x) == pytest.approx(ref, rel=2e-13), x


def test_zeta_trivial_zeros_and_errors():
    for x in (-2.0, -4.0, -6.0, -8.0):
        assert abs(zeta_extended(x)) <= 1e-15
    with pytest.raises(DomainError):
        zeta_extended(1.0)
    with pytest.raises(DomainError):
        zeta_extended(-400.5)  # reflected value overflows the double range
    with pytest.raises(DomainError):
        zeta_extended(math.nan)


def test_zeta_against_scipy_grid():
    xs = np.concatenate([np.linspace(-20.3, 0.9, 57), np.linspace(1.1, 25.0, 41)])
    for x in xs:
        ours = zeta_extended(float(x))
        ref = float(scipy.special.zeta(x))
        assert abs(ours - ref) <= 1e-12 * max(1.0, abs(ref)), x


# ----------------------------------------------------------------------
# half-axis evaluation against the full-axis arithmetic it replaced


def _forward_transform_expression(u):
    """Reference: the transform as one expression over the whole axis."""
    pref = u.spec.delta / math.sqrt(2.0 * math.pi)
    phase = np.where(np.arange(u.spec.N) % 2 == 0, 1.0, -1.0)
    return pref * np.fft.fft(u.samples) * phase


def _shell_partial_sums_full_axis(cross, s):
    """Reference: every frequency raised to 2s and the shells summed by
    np.bincount over |k|, which adds t_m before t_{-m}."""
    dxi = cross.delta_xi
    N = cross.spec.N
    abs_k = np.abs(np.fft.fftfreq(N, 1 / N)).astype(int)
    g = np.real(cross.coeffs)
    weights = spectral._multiplier(dxi * abs_k.astype(float), s)
    terms = weights * g * dxi
    shell_sums = np.bincount(abs_k, weights=terms, minlength=N // 2 + 1)
    partial = np.cumsum(shell_sums)
    if s > 0.0 and not spectral._even_integer_lambda(2.0 * s):
        partial = partial - spectral._endpoint_terms(g, 2.0 * s, dxi)
    return dxi * np.arange(N // 2 + 1), partial


def _form_full_axis(cross, s, corrected):
    """Reference: the form with the multiplier evaluated on every
    frequency, its terms laid out k = -N/2 .. N/2 - 1 and summed as complex
    numbers with zero imaginary parts. numpy's pairwise sum splits a complex
    array otherwise than a real one, and the form sums a complex buffer."""
    abs_xi = np.abs(frequency_axis(cross))
    terms = np.fft.fftshift(spectral._multiplier(abs_xi, s) * cross.coeffs)
    value = terms.astype(complex).sum().real * cross.delta_xi
    lam = 2.0 * s
    if corrected and s > 0.0 and not spectral._even_integer_lambda(lam):
        value -= spectral._endpoint_terms(
            np.real(cross.coeffs), lam, cross.delta_xi
        )
    return value


def _unequal_pair(N, seed):
    """Two unrelated Hermitian spectra. Many of their cross products are
    negative; the one at k = -N/2 (index N/2) always is. The products at
    k = 0 and k = +-1 (indices 0, 1 and N - 1) are -0.0, so shells 0 and 1
    test the order of the signed-zero sums."""
    rng = np.random.default_rng(seed)
    c = N // 2

    def hermitian():
        a = rng.normal(size=N) + 1j * rng.normal(size=N)
        a[c + 1 :] = np.conj(a[c - 1 : 0 : -1])
        a[0], a[c] = a[0].real, a[c].real
        return a

    a, b = hermitian(), hermitian()
    a[c], b[c] = 1.0, -0.5
    for k in (-1, 0, 1):
        a[k], b[k] = complex(-0.0, 0.0), complex(1.0, -0.0)
    spec = GridSpec(1, 3.0, N)
    return Spectrum(spec, a), Spectrum(spec, b)


@pytest.mark.parametrize("N", [8, 1024, 2**14])
@pytest.mark.parametrize("s", [0.0, 0.25, 1.0, 1.25, 1.75, 2.0])
def test_shell_partial_sums_match_full_axis_bincount(N, s):
    su, sv = _unequal_pair(N, seed=N)
    cross = cross_spectrum(su, sv)
    g = np.real(cross.coeffs)
    assert g[N // 2] < 0.0 and np.all(np.signbit(g[[-1, 0, 1]]))
    radii, partial = shell_partial_sums(cross, s)
    want_radii, want = _shell_partial_sums_full_axis(cross, s)
    assert np.array_equal(bits(radii), bits(want_radii))
    assert np.array_equal(bits(partial), bits(want))


# at N = 32 a sum of the terms in FFT order moves the last bit of the form
@pytest.mark.parametrize("N", [8, 32, 1024, 2**14])
def test_forms_match_full_axis_multiplier(N):
    spec = GridSpec(1, 20.0, N)
    u, w, z = (
        forward_transform(sample(src, spec))
        for src in ("(x-0.3)*exp(-x^2)", "exp(-x^2)", "x*exp(-x^2)")
    )
    # w against z is even against odd: the form cancels to round-off
    for a, b in (_unequal_pair(N, seed=N + 1), (u, w), (u, u), (w, z)):
        cross = cross_spectrum(a, b)
        radii = cross.shell_radii()
        for s in (0.0, 0.25, 1.0, 1.25, 1.75, 2.0):
            want = _form_full_axis(cross, s, False)
            got = spectral._form_from_spectra(cross, radii, s)
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_cross_spectrum_is_the_real_part_of_the_products():
    # the products of _unequal_pair at k = 0 and k = +-1 are -0.0
    v = forward_transform(sample("(x-0.3)*exp(-x^2)", SPEC))
    for su, sv in ((v, v), _unequal_pair(1024, seed=7)):
        got = cross_spectrum(su, sv).coeffs
        assert got.dtype == np.float64 and got.flags.c_contiguous
        want = np.real(su.coeffs * np.conj(sv.coeffs))
        assert np.array_equal(bits(got), bits(want))
    assert np.all(np.signbit(got[[-1, 0, 1]]))


def _forward_transform_reference(u):
    """Reference: forward_transform out of place: np.fft.fft of the real
    samples, then the products into a new array."""
    pref = u.spec.delta / math.sqrt(2.0 * math.pi)
    coeffs = np.multiply(pref, np.fft.fft(u.samples))
    coeffs[0::2] *= 1.0
    coeffs[1::2] *= -1.0
    return coeffs


@pytest.mark.parametrize(
    "u",
    [
        GAUSS,
        sample("x*exp(-x^2)", SPEC),
        sample("(x-0.3)*exp(-x^2)", GridSpec(1, 20.0, 8)),
        sample("(x-0.3)*exp(-x^2)", GridSpec(1, 20.0, 2**14)),
        GridFunction(GridSpec(1, 20.0, 8), np.full(8, -0.0)),
        GridFunction(GridSpec(1, 20.0, 8), np.array([0, 0, 0, -0.0, 1, -1, 0, 0])),
        # k = 2 is (-5e-324, -5e-324) before scaling: its imaginary part
        # becomes -0.0, which the factor 1 + 0j turns into +0.0
        GridFunction(GridSpec(1, 0.1, 8), np.array([0, 5e-324, 5e-324, 0, 0, 0, 0, 0])),
        sample("(x-0.3)*exp(-x^2)", GridSpec(1, 20.0, 1024)),
        GridFunction(GridSpec(1, 20.0, 1024), np.where(np.arange(1024) % 2, 5e-324, -0.0)),
    ],
)
def test_forward_transform_matches_one_expression(u):
    # the in-place transform gives the doubles of the one expression and of
    # the out-of-place transform it replaced, in an array of its own
    samples = u.samples.copy()
    got = forward_transform(u).coeffs
    assert not np.shares_memory(got, u.samples)
    assert np.array_equal(bits(u.samples), bits(samples))
    assert np.array_equal(bits(got), bits(_forward_transform_expression(u)))
    assert np.array_equal(bits(got), bits(_forward_transform_reference(u)))


def test_forward_transform_peak_memory():
    # one N-point complex array, the result, 1 MiB at 2^16; the
    # out-of-place transform held two complex arrays at once, 2,098,680
    # bytes (numpy 2.4.6, Python 3.11)
    N = 2**16
    u = sample("x*exp(-x^2)", GridSpec(1, 20.0, N))
    forward_transform(sample("x*exp(-x^2)", GridSpec(1, 20.0, 1024)))
    tracemalloc.start()
    try:
        forward_transform(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 16 * N + 65_536


def test_interpolation_ratio_forms_one_cross_spectrum(monkeypatch):
    calls = []

    def counting(su, sv):
        calls.append(1)
        return cross_spectrum(su, sv)

    monkeypatch.setattr(spectral, "cross_spectrum", counting)
    interpolation_ratio(GAUSS, 0.3, 0.9)
    assert len(calls) == 1


def _on_glibc():
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError):
        return False


glibc_only = pytest.mark.skipif(not _on_glibc(), reason="the heap policy is glibc's")

# transforms at each N of {sizes} in a fresh process; prints the minor
# faults of the last one and whether the heap policy was switched on
HEAP_CHILD = """
import resource

from fraclab import spectral
from fraclab.grid import GridSpec, sample

for N in {sizes}:
    u = sample("x*exp(-x^2)", GridSpec(1, 20.0, N))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    spectral.forward_transform(u)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
print(faults, spectral._hold_heap.cache_info().currsize)
"""


def _heap_child(*sizes):
    faults, held = run_child(HEAP_CHILD.format(sizes=sizes)).split()
    return int(faults), held == "1"


@glibc_only
def test_large_transforms_stop_faulting_their_scratch_in():
    # pocketfft's plan and scratch at 2^18 are 8 MiB; with glibc's default
    # thresholds the third transform still takes about 2,000 faults, and
    # at 2^19 so it does under an 8 MiB mmap threshold
    for N in (2**17, 2**18, 2**19):
        faults, held = _heap_child(N, N, N)
        assert held
        assert faults < 200, N


@glibc_only
def test_small_transforms_leave_the_heap_policy_off():
    # 2^16 is the largest grid below _HEAP_N
    assert _heap_child(2**14, 2**14, 2**16)[1] is False


def test_hold_heap_does_nothing_off_glibc(monkeypatch):
    def unknown(name):
        raise ValueError("unrecognized configuration name")

    def no_library(name):
        raise AssertionError("a C library was opened off glibc")

    monkeypatch.setattr(spectral.ctypes, "CDLL", no_library)
    # macOS names no glibc version, and Windows has no confstr
    monkeypatch.setattr(os, "confstr", unknown)
    spectral._hold_heap.__wrapped__()
    monkeypatch.delattr(os, "confstr")
    spectral._hold_heap.__wrapped__()


class _Lanes:
    """A stand-in for spectral's threading module that counts the threads
    _two_lanes starts and sets `recorded` whenever its lock is released,
    that is once a failure is on record."""

    def __init__(self):
        self.started = []
        self.recorded = threading.Event()
        lanes = self

        class Thread(threading.Thread):
            def start(self):
                lanes.started.append(self)
                super().start()

        class Lock:
            def __init__(self):
                self._lock = threading.Lock()

            def __enter__(self):
                self._lock.acquire()

            def __exit__(self, *exc):
                self._lock.release()
                lanes.recorded.set()

        self.Thread, self.Lock = Thread, Lock


def _lanes(monkeypatch, cpus):
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: set(range(cpus)))
    lanes = _Lanes()
    monkeypatch.setattr(spectral, "threading", lanes)
    return lanes


def test_two_lanes_raises_an_interrupt_once_its_helper_has_stopped(monkeypatch):
    lanes = _lanes(monkeypatch, 2)
    entered = threading.Event()
    taken = []

    def call(i):
        taken.append(i)
        if i == 0:
            entered.wait(timeout=10.0)
            raise KeyboardInterrupt
        # the helper ends item 1 once the interrupt of item 0 is on record
        entered.set()
        lanes.recorded.wait(timeout=10.0)
        return i

    threads = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        try:
            spectral._two_lanes(call, range(6))
        finally:
            (helper,) = lanes.started
            assert not helper.is_alive()
    assert sorted(taken) == [0, 1]
    assert threading.active_count() == threads


@pytest.mark.parametrize("failing", [(2, 3), (1, 2)])
def test_two_lanes_raises_the_lowest_failure_of_both_lanes(monkeypatch, failing):
    lanes = _lanes(monkeypatch, 2)
    # both failing items are taken before either fails
    both = threading.Barrier(2, timeout=10.0)

    def call(i):
        if i in failing:
            both.wait()
            raise DomainError(f"item {i} failed")
        return i

    threads = threading.active_count()
    with pytest.raises(DomainError, match=f"item {failing[0]} failed"):
        spectral._two_lanes(call, range(8))
    assert len(lanes.started) == 1
    assert threading.active_count() == threads


def test_two_lanes_starts_no_thread_on_one_cpu_or_for_one_item(monkeypatch):
    for cpus, items in ((1, range(5)), (2, range(1)), (2, range(5))):
        lanes = _lanes(monkeypatch, cpus)
        calls = []

        def call(i):
            calls.append(threading.current_thread())
            return i * i

        assert spectral._two_lanes(call, items) == [i * i for i in items]
        assert len(lanes.started) == min(cpus, len(items)) - 1
        assert set(calls) == {threading.main_thread(), *lanes.started}


def test_two_lanes_matches_a_serial_loop_under_many_switches(monkeypatch):
    monkeypatch.setattr(spectral.os, "sched_getaffinity", lambda pid: {0, 1})
    rng = np.random.default_rng(0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # many switches, to expose a lost write
    try:
        for _ in range(100):
            failing = set(rng.choice(40, size=int(rng.integers(0, 4)), replace=False))
            taken = []

            def call(i):
                taken.append(i)
                if i in failing:
                    raise DomainError(f"item {i} failed")
                return -i

            if not failing:
                assert spectral._two_lanes(call, range(40)) == [-i for i in range(40)]
                continue
            first = min(failing)
            with pytest.raises(DomainError, match=f"item {first} failed"):
                spectral._two_lanes(call, range(40))
            # every item up to the first failure is taken once, as in a
            # serial loop, and each lane stops at its own first failure
            assert sorted(i for i in taken if i <= first) == list(range(first + 1))
            assert len(taken) == len(set(taken))
            for lane in (0, 1):
                own = min((i for i in failing if i % 2 == lane), default=None)
                if own is not None:
                    assert max((i for i in taken if i % 2 == lane), default=own) <= own
    finally:
        sys.setswitchinterval(interval)
