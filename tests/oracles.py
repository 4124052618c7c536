"""High-precision reference values that the tests check the routes against.

Q_s(u+, u-) by source and order, as scripts/oracle_table.py prints them:
mpmath 1.3.0 in corner coordinates around each crossing, with the same 17
digits at a working precision of 20 and of 30 digits, in about 3 s per
value at 20. With u = x*exp(-x^2) the same evaluation reproduces
CROSS_FORM of test_kernel.py to all 20 of its digits.

- (x-0.3)*exp(-x^2): one crossing, z = 0.3, which lies between grid nodes.
- (x^2-1)*exp(-x^2): two crossings, at -1 and 1; u is even, so its two
  contact corners are equal.
- x*bump(x/2): one crossing, at 0, between a positive interval (0, 2) and
  a negative interval (-2, 0); compact support, about 6 s per value at 20
  digits.
"""

CROSS_FORM = {
    "(x-0.3)*exp(-x^2)": {
        0.5: -0.039684470514560852,
        0.75: -0.039474939468789586,
        1.1: 0.046420145731768521,
        1.25: 0.21817108914970417,
        1.45: 2.3240960828369207,
    },
    "(x^2-1)*exp(-x^2)": {
        0.5: -0.051487815273143802,
        0.75: -0.051991007058180576,
        1.1: 0.061440304030280161,
        1.25: 0.28753667580384329,
        1.45: 3.0255948373686832,
    },
    "x*bump(x/2)": {
        0.5: -0.011806944067956312,
        0.75: -0.010488458645938405,
        1.1: 0.01011901734984573,
        1.25: 0.042974086392373727,
        1.45: 0.3926971935647392,
    },
}
OFF_NODE_SOURCE = "(x-0.3)*exp(-x^2)"
TWO_CROSSING_SOURCE = "(x^2-1)*exp(-x^2)"
COMPACT_SOURCE = "x*bump(x/2)"
