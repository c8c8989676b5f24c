#!/usr/bin/env python3
# Exact formal calculus: delta kernels, binomial conventions, branches.
#
# Every series here is windowed-lazy: coefficients are computed on demand and
# are exact on the requested box, with no floating point anywhere: a rational
# coefficient is a plain int or Fraction.

from fractions import Fraction as F

from vertextwist.series import (Box, Product, Sum, TermSeries, binomial_expand,
                                branch_shift, delta_iter, delta_prod,
                                delta_prod_rev, format_series, log_substitute,
                                minus_convention, mono, scaled,
                                series_mismatch)

X12 = ("x1", "x2")
X012 = ("x0", "x1", "x2")
w2 = Box.cube(2, -4, 4)

# (x1 - x2)^(1/2), expanded in nonnegative powers of x2
half = binomial_expand(X12, F(1, 2), 0, 1)
print("(x1 - x2)^(1/2) =", format_series(half.terms_in(Box.cube(2, -3, 3)), X12))

# the minus convention: (-x2 + x1)^(1/2) carries e^{pi i / 2}
minus = minus_convention(X12, F(1, 2), 0, 1)
print("(-x2 + x1)^(1/2) =", format_series(minus.terms_in(Box.cube(2, -2, 2)), X12))

# (x1 - x2)^A (x1 - x2)^(-A) = 1, coefficient-exactly
prod = Product(binomial_expand(X12, F(3, 2), 0, 1),
               binomial_expand(X12, F(-3, 2), 0, 1))
print("binomial inverse check:",
      series_mismatch(prod, TermSeries.constant(X12, 1), w2) is None)

# the three-term delta identity underlying every Jacobi identity
lhs = Sum([delta_prod(X012, 0, 1, 2),
           scaled(delta_prod_rev(X012, 0, 1, 2), -1)])
rhs = delta_iter(X012, 0, 1, 2)
print("delta identity on |exp| <= 3:",
      series_mismatch(lhs, rhs, Box.cube(3, -3, 3)) is None)

# branches: one full turn multiplies x^n by e^{2 pi i n} and shifts log x
s = TermSeries(("x",), {mono([F(1, 2)], [1]): 1})
shifted = branch_shift(s, 0, 1)
print("branch shift of x^(1/2) log x:",
      format_series(shifted.terms_in(Box.cube(1, -1, 1, 1)), ("x",)))

# the substitution behind twist operators: y -> -x
y = TermSeries(("y",), {mono([F(-1, 2)]): 1})
print("y^(-1/2) at y = -x:",
      format_series(log_substitute(y, 0).terms_in(Box.cube(1, -1, 1)), ("x",)))
