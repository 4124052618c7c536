"""High-precision reference values that the tests check the routes against.

Q_s(u+, u-) of u = (x-0.3)*exp(-x^2), whose sign crossing z = 0.3 lies
between grid nodes. Computed offline with mpmath 1.3.0 at 20 digits, in
corner coordinates around z (a = x - z, b = z - y, t = a + b, a = t w, so
that the integrand is t^{2-2s} w(1-w) e^{...} on (0, inf) x (0, 1)), at
15-30 s per value. The same evaluation reproduced CROSS_FORM[1.25] of
test_kernel.py to 1.7e-13.
"""

OFF_NODE_SOURCE = "(x-0.3)*exp(-x^2)"
OFF_NODE_CROSS_FORM = {1.25: 0.21817108914955909, 0.75: -0.039474939468789586}
