"""Gamma, kernel constant, and Riesz kernel checks.

The gamma oracle is scipy.special.gamma (cephes), which shares no code
with our Lanczos evaluation.
"""

import math

import numpy as np
import pytest
import scipy.special

from fraclab.errors import DomainError, PoleError
from fraclab.special import gamma, kernel_constant


def C(n, s):
    return kernel_constant(n, s)


def test_gamma_matches_scipy_on_positive_axis():
    xs = np.linspace(0.05, 25.0, 997)
    for x in xs:
        ours = gamma(float(x))
        ref = float(scipy.special.gamma(x))
        assert abs(ours - ref) <= 1e-13 * abs(ref), x


def test_gamma_reflection_region():
    # negative non-integer arguments go through the reflection formula
    xs = [-0.3, -1.7, -2.5, -5.25, -10.9, -33.6]
    for x in xs:
        ours = gamma(x)
        ref = float(scipy.special.gamma(x))
        assert abs(ours - ref) <= 1e-12 * abs(ref), x


def test_gamma_integers_and_half_integers_exact():
    assert gamma(1.0) == 1.0
    assert gamma(2.0) == 1.0
    assert gamma(5.0) == 24.0
    assert gamma(0.5) == math.sqrt(math.pi)
    # 170! is the largest factorial below the double range
    assert gamma(170.0) == float(math.factorial(169))
    assert math.isfinite(gamma(171.5))
    assert gamma(171.5) == pytest.approx(9.483367566824797e307, rel=1e-12)


def test_gamma_functional_equation():
    rng = np.random.default_rng(20260817)
    for x in rng.uniform(0.6, 40.0, size=200):
        lhs = gamma(x + 1.0)
        rhs = x * gamma(x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)


def test_gamma_poles_and_domain():
    for bad in (0.0, -1.0, -2.0, -7.0):
        with pytest.raises(PoleError):
            gamma(bad)
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(DomainError):
            gamma(bad)
    with pytest.raises(OverflowError):
        gamma(171.0)
    with pytest.raises(OverflowError):
        gamma(172.5)


def test_kernel_constant_reference_value():
    # C(1, 1/2) is exactly 1/pi; the printed repr is part of the CLI contract
    c = C(1, 0.5)
    assert repr(c) == "0.3183098861837907"
    assert abs(c - 1.0 / math.pi) <= 1e-16


def test_kernel_constant_rejects_integer_order():
    for s in (1.0, 2.0, 3.0):
        with pytest.raises(DomainError):
            kernel_constant(1, s)
    with pytest.raises(DomainError):
        kernel_constant(0, 0.5)
    with pytest.raises(DomainError):
        kernel_constant(1, -0.5)


def test_kernel_constant_names_its_overflow():
    # 2^(2s) overflows from s = 512 on, before either Gamma factor; gamma
    # names its own overflow from s = 170.5 on, and below that the products
    # of finite factors overflow to inf (s = 100.5) or -inf (s = 165.5)
    for n, s, shown in (
        (1, 1e10 + 0.5, "1e+10"), (3, 512.5, "512.5"), (1, 100.5, "100.5"),
        (1, 165.5, "165.5"),
    ):
        with pytest.raises(OverflowError) as caught:
            kernel_constant(n, s)
        assert str(caught.value) == (
            f"C({n}, {shown}) exceeds the double-precision range"
        )
    with pytest.raises(OverflowError, match=r"^gamma\(201.0\) exceeds"):
        kernel_constant(1, 200.5)


def test_kernel_constant_sign_alternates_with_integer_part():
    for n in (1, 2, 3):
        s = 0.05
        while s < 2.96:
            if abs(s - round(s)) > 1e-9:
                expected = (-1.0) ** math.floor(s)
                assert math.copysign(1.0, C(n, s)) == expected, (n, s)
            s += 0.05


def test_kernel_constant_recursion():
    # C(n, a) (n + 2a) (2a + 2) = -C(n, a + 1)
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 4))
        a = float(rng.uniform(0.02, 2.98))
        if min(abs(a - k) for k in (1, 2, 3)) < 1e-3:
            continue
        lhs = C(n, a) * (n + 2.0 * a) * (2.0 * a + 2.0)
        rhs = C(n, a + 1.0)
        assert abs(lhs + rhs) <= 1e-12 * abs(rhs), (n, a)
