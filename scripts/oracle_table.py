#!/usr/bin/env python3
"""Recompute the reference values of tests/oracles.py with mpmath.

Each value is Q_s(u+, u-) = -C(1, s) Phi, where Phi is the double integral
of u+(x) u-(y) |x-y|^{-1-2s}. A positive and a negative interval of u meet
at a crossing z. Around it the corner coordinates a = x - z, b = z - y,
t = a + b, a = t w turn the pair's integral into

    int_0^inf t^{2-2s} int_0^1 w (1-w) p(t w) q(t (1-w)) dw dt,

where u(z + a) = a p(a) and -u(z - b) = b q(b) are factored by hand, so no
digits cancel at the corner. The outer variable is r = t^{3-2s}, which
absorbs the corner's power; integrating t^{2-2s} directly kept only 12
of 17 digits at s = 1.25 at a working precision of 20 digits. A negative
interval of finite length B cuts w at 1 - B/t once t > B, and a positive
interval of finite length A cuts it at A/t once t > A.

Usage: python scripts/oracle_table.py [--dps 20]
"""

import argparse
import sys
import time

import mpmath as mp


def _shifted_line(c):
    """u = (x - c) exp(-x^2): one corner at z = c, both intervals unbounded."""
    return (
        1,
        lambda a: mp.exp(-((c + a) ** 2)),
        lambda b: mp.exp(-((c - b) ** 2)),
        mp.inf,
        mp.inf,
    )


def _even_quadratic():
    """u = (x^2 - 1) exp(-x^2): u is even, so its corners at -1 and 1 are
    equal; each pairs an unbounded positive interval with (-1, 1)."""
    return (
        2,
        lambda a: (a + 2) * mp.exp(-((1 + a) ** 2)),
        lambda b: (2 - b) * mp.exp(-((1 - b) ** 2)),
        mp.inf,
        mp.mpf(2),
    )


def _bump(t):
    return mp.exp(-1 / (1 - t * t)) if abs(t) < 1 else 0


def _odd_bump():
    """u = x bump(x/2): one corner at 0 between a positive interval (0, 2)
    and a negative interval (-2, 0); u vanishes outside [-2, 2]."""
    return (1, lambda a: _bump(a / 2), lambda b: _bump(b / 2), mp.mpf(2), mp.mpf(2))


# source text as fraclab parses it -> (corners, p, q, lengths A and B of the
# positive and the negative interval), built at the working precision
CASES = {
    "(x-0.3)*exp(-x^2)": lambda: _shifted_line(mp.mpf("0.3")),
    "(x^2-1)*exp(-x^2)": _even_quadratic,
    "x*bump(x/2)": _odd_bump,
}
ORDERS = (0.5, 0.75, 1.1, 1.25, 1.45)


def kernel_constant(s):
    return 4**s * s * mp.gamma(0.5 + s) / mp.sqrt(mp.pi) / mp.gamma(1 - s)


def corner_integral(p, q, A, B, s):
    m = 1 / (3 - 2 * s)  # t = r^m turns t^{2-2s} dt into m dr

    def over_w(r):
        t = r**m
        lo = 0 if t <= B else 1 - B / t
        hi = 1 if t <= A else A / t
        return m * mp.quad(lambda w: w * (1 - w) * p(t * w) * q(t * (1 - w)), [lo, hi])

    # the pair meets only for t < A + B
    splits = [1, 2, 4] if B == mp.inf else [1, B, 2 * B]
    if A != mp.inf:
        splits = [x for x in splits + [A] if x < A + B]
    nodes = [x ** (1 / m) for x in sorted(set(splits)) + [A + B]]
    return mp.quad(over_w, [0] + nodes)


def cross_form(case, s):
    corners, p, q, A, B = CASES[case]()
    s = mp.mpf(s)
    return -kernel_constant(s) * corners * corner_integral(p, q, A, B, s)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dps", type=int, default=20, help="working decimal digits")
    args = ap.parse_args(argv)
    mp.mp.dps = args.dps

    start = time.perf_counter()
    for case in CASES:
        values = []
        for s in ORDERS:
            t0 = time.perf_counter()
            value = cross_form(case, s)
            values.append(f"{s}: {mp.nstr(value, 17)}")
            print(f"# {case} at s = {s}: {time.perf_counter() - t0:.1f} s")
        print(f'"{case}": {{{", ".join(values)}}},')
    print(f"# total {time.perf_counter() - start:.1f} s at {args.dps} digits")
    return 0


if __name__ == "__main__":
    sys.exit(main())
