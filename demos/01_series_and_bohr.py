"""Matrix power series and certified Bohr enclosures.

A MatrixSeries stores coefficients A_0..A_N exactly plus an optional
tail certificate C with ||A_n|| <= C beyond the truncation.  bohr_sum
then returns a two-sided interval around sum_n ||A_n|| r^n instead of a
bare float, so later comparisons can use the endpoint that makes the
check conservative.

Run:  python3 demos/01_series_and_bohr.py
"""

import numpy as np

from bohrlab import (
    MatrixSeries,
    bohr_sum,
    compose,
    majorant,
    mul,
    op_norm,
    scalar_series,
)

# --- building blocks ---------------------------------------------------------

# the geometric series 1/(1 - z) truncated at degree 8, with the exact
# tail certificate 1 (every further coefficient is 1)
geom = scalar_series(np.ones(9), coeff_bound=1.0)
print("geometric series: degree", geom.degree, "dim", geom.dim)

iv = bohr_sum(geom, 0.5)
true_value = 1.0 / (1.0 - 0.5)
print(f"Bohr sum at r=0.5: [{iv.lo:.10f}, {iv.hi:.10f}]  true {true_value:.10f}")
assert true_value in iv

# without a certificate the interval degenerates and is flagged
bare = scalar_series(np.ones(9))
print("uncertified:", bohr_sum(bare, 0.5).certified)

# --- arithmetic tracks what it can prove --------------------------------------

# a sum is formed from the coefficient arrays, and its tail bound is the
# sum of the bounds (triangle inequality)
s = MatrixSeries(geom.coeffs + geom.coeffs, geom.coeff_bound + geom.coeff_bound)
print("sum bound:", s.coeff_bound)
p = mul(geom, geom)                 # products cannot keep a constant bound
print("product bound:", p.coeff_bound)

# --- genuinely matrix-valued coefficients --------------------------------------

# f(z) = I + N z with a nilpotent N: the Bohr sum sees ||N|| = 2
nil = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
f = MatrixSeries(np.stack([np.eye(2, dtype=complex), nil]), coeff_bound=0.0)
print("||N|| =", op_norm(nil), " Bohr(f, 0.25) =", bohr_sum(f, 0.25).lo)

# multiplying by the identity changes nothing
eye = MatrixSeries(np.stack([np.eye(2), np.zeros((2, 2))]))
assert np.allclose(mul(eye, f).coeffs, f.coeffs)

# --- composition ----------------------------------------------------------------

# g(phi(z)) for phi(z) = z^2 doubles the exponents
g = scalar_series([0, 1, 1, 1, 1])
phi = scalar_series([0, 0, 1, 0, 0])
c = compose(g, phi)
print("compose coefficients:", c.coeffs[:, 0, 0].real)

# the majorant view: coefficient norms, ready for Bohr sums on a grid
m = majorant(geom)
print("majorant values:", m.values)
for r in (0.1, 0.25, 1 / 3):
    print(f"  r={r:.4f}  enclosure width {m.bohr(r).width:.3e}")
