"""Verification campaigns: randomized, seeded, certified.

A campaign draws random instances of an inequality's hypothesis and
checks the conclusion with interval endpoints chosen so truncation can
only hurt, never help.  Reports are deterministic for a fixed seed
(trial i uses the stream [seed, i]).  So a failing trial's file holds
no coefficients: its config, suite options and index fix the draws,
and `bohrlab replay FILE` re-draws the trial.

The same campaigns are reachable from the command line:

  bohrlab verify subordination --trials 500 --dim 3 --degree 64
  bohrlab verify poly-starlike --k 1 --p 3 --trials 200
  bohrlab scan sharpness --a 0.99 --rmin 0.2 --rmax 0.45 --steps 200
  bohrlab table --out radii.csv

Run:  python3 demos/04_campaigns.py
"""

import numpy as np

from bohrlab import (
    CampaignConfig,
    MatrixSeries,
    RadiusFamily,
    build_polyanalytic,
    gen_schur_matrix,
    majorant,
    run_campaign,
    run_sharpness_scan,
    solve_radius,
)

# --- a subordination campaign ---------------------------------------------------

cfg = CampaignConfig(suite="subordination", trials=100, seed=11, dim=3, degree=64)
report = run_campaign(cfg)
print(f"subordination: {report.pass_count}/{report.trials} passed, "
      f"min margin {report.min_margin:.3e}, wall {report.wall_time_s:.2f}s")

# reports serialize; re-running with the same seed reproduces every margin
again = run_campaign(cfg)
assert [r.worst_margin for r in report.records] == [r.worst_margin for r in again.records]
print("re-run with the same seed is bit-identical")

# --- a polyanalytic function, by hand --------------------------------------------

# base layer: a random contraction vanishing at 0; one extra layer with
# derivative ratio of norm <= k
k = 0.5
f0 = gen_schur_matrix(seed=21, dim=3, degree=64, fix_origin=True)
# k times a Schur function is in the growth class (k, 0)
omega = MatrixSeries(k * gen_schur_matrix(seed=22, dim=3, degree=64, scalar_head=True).coeffs,
                     (k, 0))
fn = build_polyanalytic(f0, [omega])

fam = RadiusFamily("general", k=k, p=fn.p, lam=1.0)
radius = solve_radius(fam).radius
print(f"\nlayered function of order {fn.p}; certified radius {radius:.6f}")
radii = np.linspace(0.05, radius - 1e-9, 5)
_, hi, certified = majorant(fn).bohr(radii)
for r, upper in zip(radii, hi):
    print(f"  r={r:.4f}: layered Bohr sum <= {upper:.6f} (must stay <= 1)")
# the built layers carry the growth classes build_polyanalytic proves, so
# the upper ends include a proven tail allowance
print(f"  upper ends certified: {certified}")

# --- the same thing as a campaign --------------------------------------------------

cfg = CampaignConfig(suite="poly-general", trials=100, seed=23, dim=3, degree=64)
report = run_campaign(cfg, lam=fam.lam, k=fam.k, p=fam.p)
print(f"poly-general k={k}: {report.pass_count}/{report.trials} passed, "
      f"min margin {report.min_margin:.3e}")

# --- sharpness ------------------------------------------------------------------------

scan = run_sharpness_scan(a=0.99, r_min=0.2, r_max=0.45, steps=200)
print(f"\nsharpness witness a=0.99: first grid point above 1 at r = {scan.first_exceed:.5f}")
print(f"refined threshold {scan.threshold:.9f} vs predicted {scan.predicted_threshold:.9f}")
