"""Matrix power series and certified Bohr enclosures.

A MatrixSeries stores coefficients A_0..A_N exactly plus an optional
tail certificate, a growth class (C, s) with ||A_n|| <= C (n+1)^s for
every n.
majorant(f).bohr(radii) then returns two-sided enclosures (lo, hi) of
sum_n ||A_n|| r^n on a grid of radii instead of bare floats, so later
comparisons can use the endpoint that makes the check conservative.

Run:  python3 demos/01_series_and_bohr.py
"""

import numpy as np

from bohrlab import (
    MatrixSeries,
    compose,
    majorant,
    mul,
    op_norm,
    scalar_series,
)

# --- building blocks ---------------------------------------------------------

# the geometric series 1/(1 - z) truncated at degree 8, with the exact
# growth class (1, 0) (every coefficient is 1)
geom = scalar_series(np.ones(9), (1.0, 0))
print("geometric series: degree", geom.degree, "dim", geom.dim)

(lo,), (hi,), certified = majorant(geom).bohr([0.5])
true_value = 1.0 / (1.0 - 0.5)
print(f"Bohr sum at r=0.5: [{lo:.10f}, {hi:.10f}]  true {true_value:.10f}")
assert certified and lo <= true_value <= hi

# without a certificate the enclosure degenerates and is flagged
bare = scalar_series(np.ones(9))
print("uncertified:", majorant(bare).bohr([0.5])[2])

# --- arithmetic tracks what it can prove --------------------------------------

# a sum is formed from the coefficient arrays; classes (C1, s) and
# (C2, s) give it (C1 + C2, s) (triangle inequality)
s = MatrixSeries(geom.coeffs + geom.coeffs, (2 * geom.growth[0], geom.growth[1]))
print("sum class:", s.growth)
p = mul(geom, geom)                 # 1/(1 - z)^2 = sum (n+1) z^n: the class (1, 1)
print("product class:", p.growth)

# --- genuinely matrix-valued coefficients --------------------------------------

# f(z) = I + N z with a nilpotent N: the Bohr sum sees ||N|| = 2, and
# the class (2, 0) bounds both coefficients
nil = np.array([[0.0, 2.0], [0.0, 0.0]], dtype=complex)
f = MatrixSeries(np.stack([np.eye(2, dtype=complex), nil]), (2.0, 0))
print("||N|| =", op_norm(nil), " Bohr(f, 0.25) =", majorant(f).bohr([0.25])[0][0])

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
print("majorant values:", m.layers[0][0])
radii = (0.1, 0.25, 1 / 3)
lo, hi, _ = m.bohr(radii)
for r, width in zip(radii, hi - lo):
    print(f"  r={r:.4f}  enclosure width {width:.3e}")
