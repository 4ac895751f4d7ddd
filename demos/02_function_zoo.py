"""The function families behind the verification campaigns.

Blaschke products give inner maps (and, pinned at the origin, the
composition arguments the theory allows); random Schur-class matrix
functions play the role of contractive targets; convex and starlike
models supply the classical geometric targets; and the disk
automorphism (a + z)/(1 + a z) is the witness that the constant 1/3
cannot be improved.

Run:  python3 demos/02_function_zoo.py
"""

import numpy as np

from bohrlab import (
    BlaschkeSpec,
    blaschke_series,
    convex_model,
    gen_schur_matrix,
    majorant,
    mobius_extremal,
    op_norm,
    op_norms,
    starlike_from_q,
)

# --- Blaschke products ---------------------------------------------------------

spec = BlaschkeSpec(zeros=(0.0, 0.5, -0.3j), rotation=1.0)
b = blaschke_series(spec, degree=32)
print("Blaschke with zeros", spec.zeros)
print("  first coefficients:", np.round(b.coeffs[:4, 0, 0], 4))
print("  |b(0.9)| =", abs(b.eval(0.9)[0, 0]), "(inner maps stay inside the disk)")

# the origin zero makes it an admissible inner map: Bohr sum <= r up to 1/3
radii = (0.1, 0.2, 1 / 3)
for r, hi in zip(radii, majorant(b).bohr(radii)[1]):
    print(f"  r={r:.4f}: certified Bohr <= {hi:.6f} (<= r)")

# --- random Schur matrices -------------------------------------------------------

f = gen_schur_matrix(seed=12, dim=3, degree=32)
print("\nSchur matrix function: coefficient norms <=", op_norms(f.coeffs).max())

head = gen_schur_matrix(seed=12, dim=3, degree=32, scalar_head=True)
a0 = head.coeff(0)
print("scalar head: A_0 = alpha I with alpha =", np.round(a0[0, 0], 4))
print("  max ||A_n||, n>=1:", op_norms(head.coeffs[1:]).max(),
      " vs 1 - |alpha|^2 =", 1 - abs(a0[0, 0]) ** 2)

# --- convex and starlike targets ---------------------------------------------------

# scalar functions times I, stored as 1x1 series: ||s I|| = |s| at every dim
g = convex_model(beta=0.75, degree=16)
print("\nconvex model: every coefficient has norm", op_norm(g.coeff(3)))

# the starlike map of Caratheodory data (1 + u z)/(1 - u z), |u| <= 1;
# u = 1 is the Koebe function z/(1 - z)^2
koebe = starlike_from_q(1.0, degree=8)
print("Koebe-type starlike coefficients:", [int(round(op_norm(koebe.coeff(n))))
                                            for n in range(9)])

# --- the sharpness witness ----------------------------------------------------------

print("\nwitness (a + z)/(1 + a z): Bohr sum crosses 1 at r = 1/(1+2a)")
for a in (0.5, 0.9, 0.99):
    w = mobius_extremal(a, 64)
    thresh = 1 / (1 + 2 * a)
    below, above = majorant(w).bohr([thresh - 0.01, thresh + 0.01])[0]
    print(f"  a={a}: predicted {thresh:.6f}; Bohr({thresh - 0.01:.4f}) = {below:.4f} < 1 "
          f"< {above:.4f} = Bohr({thresh + 0.01:.4f})")
print("as a -> 1 the crossing approaches 1/3: the constant is sharp")
