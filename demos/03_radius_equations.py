"""Radius equations: certified roots, caps, and the limiting order.

Each family of layered Bohr inequalities comes with a polynomial
equation whose unique root in (0, 1) is the working radius, clipped by
a cap that marks where the single-layer theory stops.  solve_radius
brackets the root with bisection, endpoints proven exactly, so the
result is an interval you can trust rather than a bare float from a
generic root finder.

Run:  python3 demos/03_radius_equations.py
"""

import math

from bohrlab import (
    RadiusFamily,
    emit_radius_table,
    radius_poly_eval,
    solve_radius,
)

# --- one family in detail ------------------------------------------------------

fam = RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.0)
res = solve_radius(fam)
print("omega-gamma(0), k=1, p=2:")
lo, hi = res.bracket
print(f"  bracket  [{lo:.15f}, {hi:.15f}]")
print(f"  root     {res.root:.12f}  (sqrt(2)-1 = {math.sqrt(2) - 1:.12f})")
print(f"  cap      {res.family.cap:.12f}")
print(f"  radius   {res.radius:.12f}  ({res.binding} binds)")

# the bracket really straddles the root
print("  sign change:", radius_poly_eval(fam, lo) > 0 > radius_poly_eval(fam, hi))

# --- caps vs roots ----------------------------------------------------------------

print("\nwhen the polynomial root lands beyond the cap, the cap wins:")
res = solve_radius(RadiusFamily("half-plane", k=1.0, p=2))
print(f"  half-plane p=2: root {res.root:.6f} > cap {res.family.cap}; radius {res.radius}")

# --- order dependence ----------------------------------------------------------------

print("\nroots shrink as the layer count p grows, toward the limiting equation:")
for p in (2, 3, 5, 8, 20, math.inf):
    res = solve_radius(RadiusFamily("starlike", k=1.0, p=p))
    tag = "inf" if p == math.inf else p
    print(f"  p={tag:>3}: root {res.root:.12f}")

# and shrink as the growth constant does
print("\ngeneral family, p=3, root as a function of lambda:")
for lam in (0.25, 0.5, 1.0):
    res = solve_radius(RadiusFamily("general", k=1.0, p=3, lam=lam))
    print(f"  lambda={lam}: root {res.root:.10f}")

# and grow as the ratio bound k drops below 1; here the root binds
print("\nconvex family, beta=2, p=2, radius as a function of k:")
for k in (0.5, 1.0):
    res = solve_radius(RadiusFamily("convex", k=k, p=2, beta=2.0))
    print(f"  k={k}: radius {res.radius:.6f} ({res.binding} binds, cap {res.family.cap:.6f})")

# --- everything at once -----------------------------------------------------------------

rows = emit_radius_table()
print(f"\nfull sweep: {len(rows)} rows; a few of them:")
for row in rows[:3]:
    print(" ", {k: row[k] for k in ("family", "k", "p", "root", "radius", "binding")})
print("write the whole table with emit_radius_table(out='radii.csv')")
