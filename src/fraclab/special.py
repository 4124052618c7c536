"""Gamma function and the normalization constant of the fractional Laplacian kernel.

The integral representation of (-Delta)^s carries the constant

    C(n, s) = 2^{2s} s Gamma(n/2 + s) / (pi^{n/2} Gamma(1 - s)),

defined for non-integer s > 0. Its sign alternates with floor(s) through the
Gamma(1 - s) reflection, and it satisfies the recursion
C(n, a) (n + 2a)(2a + 2) = -C(n, a + 1), which is what makes iterated
Laplacians of the Riesz kernel computable in closed form.
"""

import math

from .errors import DomainError, PoleError

# Lanczos g=7, n=9 coefficients (Godfrey / Boost choice). Relative error of
# the rational part is ~1e-16 on the half-plane Re(x) > 0.5, comfortably
# inside the 1e-13 contract after the power/exp evaluation.
_LANCZOS_G = 7.0
_LANCZOS_COEFFS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

_INTEGER_TOL = 1e-12


def _sinpi(x: float) -> float:
    # sin(pi*x) with the argument reduced before multiplication by pi;
    # near-integer x would otherwise lose all significant digits.
    r = math.fmod(x, 2.0)
    if r > 1.0:
        r -= 2.0
    elif r < -1.0:
        r += 2.0
    if r > 0.5:
        r = 1.0 - r
    elif r < -0.5:
        r = -1.0 - r
    return math.sin(math.pi * r)


def _lanczos_positive(x: float) -> float:
    # Valid for x >= 0.5. Split into direct and log paths so that arguments
    # up to the float overflow edge (~171.6) still come out finite.
    z = x - 1.0
    acc = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        acc += _LANCZOS_COEFFS[i] / (z + i)
    t = z + _LANCZOS_G + 0.5
    if x <= 140.0:
        return math.sqrt(2.0 * math.pi) * t ** (z + 0.5) * math.exp(-t) * acc
    log_gamma = (
        0.5 * math.log(2.0 * math.pi)
        + (z + 0.5) * math.log(t)
        - t
        + math.log(acc)
    )
    if log_gamma > 709.0:
        raise OverflowError(f"gamma({x}) exceeds the double-precision range")
    return math.exp(log_gamma)


def _gamma_half_integer(twice: int) -> float:
    # exact recursion from Gamma(1) = 1 and Gamma(1/2) = sqrt(pi); every
    # factor is exactly representable, so the result is correctly rounded
    # up to one multiplication ulp per step
    if twice % 2 == 0:
        m = twice // 2
        if m > 170:
            raise OverflowError(f"gamma({twice / 2.0}) exceeds the double range")
        return float(math.factorial(m - 1))
    acc = math.sqrt(math.pi)
    x = 0.5
    while 2.0 * x + 1.0 < twice:
        acc *= x
        x += 1.0
    if math.isinf(acc):
        raise OverflowError(f"gamma({twice / 2.0}) exceeds the double range")
    return acc


def gamma(x: float) -> float:
    """Gamma function on the real line, poles excluded.

    Lanczos approximation for x >= 0.5, reflection formula below; integer
    and half-integer arguments take an exact recursion instead. Relative
    error stays under 1e-13 on [-30, 30] away from the poles at
    non-positive integers, where PoleError is raised.
    """
    x = float(x)
    if not math.isfinite(x):
        raise DomainError(f"gamma argument must be finite, got {x}")
    if x <= 0.0 and abs(x - round(x)) < _INTEGER_TOL:
        raise PoleError(f"gamma has a pole at {x}")
    if x >= 0.5 and 2.0 * x == round(2.0 * x):
        return _gamma_half_integer(int(round(2.0 * x)))
    if x >= 0.5:
        return _lanczos_positive(x)
    # Reflection: Gamma(x) = pi / (sin(pi x) Gamma(1 - x)).
    s = _sinpi(x)
    try:
        denom = s * _lanczos_positive(1.0 - x)
    except OverflowError:
        # Gamma(1-x) overflowed, so Gamma(x) underflows. Sign from sin(pi x).
        return math.copysign(0.0, s)
    if math.isinf(denom):
        return math.copysign(0.0, denom)
    return math.pi / denom


def _noninteger_order(s) -> float:
    """The order s as a float, checked positive, finite and non-integer."""
    s = float(s)
    if not (s > 0.0) or not math.isfinite(s):
        raise DomainError(f"order must be positive and finite, got {s}")
    if abs(s - round(s)) < _INTEGER_TOL:
        raise DomainError(
            f"order must be non-integer (at least 1e-12 from an integer), got {s}"
        )
    return s


def _kernel_order(s) -> float:
    """The order s as a float, checked non-integer in (0, 3/2): the band in
    which the truncations of a kinked u stay in H^s and the kernel route's
    double integral is finite."""
    s = _noninteger_order(s)
    if not s < 1.5:
        raise DomainError(f"order must be non-integer in (0, 1.5), got {s}")
    return s


def _sign_law_order(s: float) -> float:
    """s, checked at least 1e-9 away from 1, where C(1, s) vanishes and
    changes sign, so the sign law predicts no sign."""
    if abs(s - 1.0) < 1e-9:
        raise DomainError(f"the sign law needs s at least 1e-9 away from 1, got {s}")
    return s


def _order_list(s_list) -> list:
    """The orders of a nonempty sequence as floats, each checked by
    _noninteger_order."""
    if len(s_list) == 0:
        raise DomainError("s list must be nonempty")
    return [_noninteger_order(s) for s in s_list]


def _check_tol(tol) -> None:
    """Reject a tolerance that is not positive and finite."""
    if not (tol > 0.0 and math.isfinite(tol)):
        raise DomainError(f"tolerance must be positive and finite, got {tol}")


def kernel_constant(n: int, s) -> float:
    """The constant C(n, s) of the singular-kernel representation.

    Integer s is rejected: Gamma(1 - s) has a pole there and the kernel
    representation does not exist. A value beyond the double range raises
    OverflowError rather than returning inf.
    """
    if n < 1 or n != int(n):
        raise DomainError(f"dimension must be a positive integer, got {n}")
    s = _noninteger_order(s)
    overflow = OverflowError(f"C({n}, {s:g}) exceeds the double-precision range")
    try:
        power = 2.0 ** (2.0 * s)
    except OverflowError:
        raise overflow from None
    # sequential divides: at (n, s) = (1, 1/2) this lands on the double
    # nearest 1/pi, which the command-line contract prints verbatim
    value = (
        power
        * s
        * gamma(n / 2.0 + s)
        / math.pi ** (n / 2.0)
        / gamma(1.0 - s)
    )
    if not math.isfinite(value):
        raise overflow
    return value
