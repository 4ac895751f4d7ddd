"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The lines are emitted outside pytest's capture so they stay visible in
a plain ``pytest -v`` run; every criterion also asserts, so a FAIL line
comes with a failing test.  The whole module is budgeted to run in well
under two minutes.
"""

import math
import time

import numpy as np
import pytest

import bohrlab as B
from bohrlab.opmat import op_norms

_CAPTURE = None


@pytest.fixture(autouse=True)
def _expose_capture(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num: int, ok: bool, detail: str):
    line = f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, line


def _bounded_series(rng, d, degree):
    c = rng.normal(size=(degree + 1, d, d)) + 1j * rng.normal(size=(degree + 1, d, d))
    target = rng.uniform(0.0, 1.0, degree + 1)
    c = c * (target / np.maximum(op_norms(c), 1e-300))[:, None, None]
    return B.MatrixSeries(c)


def test_criterion_01_bohr_operator_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260817)
    radii = (0.1, 0.3, 0.6, 0.9)
    worst = 0.0
    for _ in range(1000):
        d = int(rng.integers(1, 5))
        f = _bounded_series(rng, d, 32)
        g = _bounded_series(rng, d, 32)
        al = 2.0 * complex(rng.normal(), rng.normal())
        s, p, af = B.MatrixSeries(f.coeffs + g.coeffs), B.mul(f, g), B.MatrixSeries(al * f.coeffs)
        eye = B.majorant(B.MatrixSeries(np.concatenate([np.eye(d)[None], np.zeros((32, d, d))])))
        mf, mg, ms, mp, ma = map(B.majorant, (f, g, s, p, af))
        lf, lg, ls, lp, la, li = (m.bohr(radii)[0] for m in (mf, mg, ms, mp, ma, eye))
        worst = max(worst, np.max(ls - (lf + lg)), np.max(lp - lf * lg),
                    np.max(np.abs(la - abs(al) * lf)), np.max(np.abs(li - 1.0)))
    ok = worst <= 1e-10
    _report(1, ok, f"1000 pairs, worst algebra-law violation {worst:.2e} "
                   f"(tol 1e-10, {time.perf_counter() - t0:.1f}s)")


def test_criterion_02_schwarz_bound_for_inner_maps():
    t0 = time.perf_counter()
    grid = B.default_grid(1.0 / 3.0)
    worst = math.inf
    for i in range(500):
        spec = B.random_blaschke_spec(np.random.default_rng([202602, i]), fix_origin=True)
        hi = B.majorant(B.blaschke_series(spec, 64)).bohr(grid)[1]
        worst = min(worst, np.min(grid - hi))
    ok = worst >= -1e-8
    _report(2, ok, f"500 origin-fixed inner maps, min certified margin r - Bohr "
                   f"{worst:.2e} (tol -1e-8, {time.perf_counter() - t0:.1f}s)")


def test_criterion_03_subordination_campaign():
    t0 = time.perf_counter()
    cfg = B.CampaignConfig(suite="subordination", trials=500, seed=3, dim=3,
                           degree=64, tolerance=1e-8)
    rep = B.run_campaign(cfg)
    _report(3, rep.passed, f"{rep.pass_count}/{rep.trials} trials, min margin "
                           f"{rep.min_margin:.2e} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_04_quasi_subordination_campaigns():
    t0 = time.perf_counter()
    results = []
    for beta in (1.0, 0.9, 0.5):
        cfg = B.CampaignConfig(suite="quasi", trials=200, seed=4, dim=3,
                               degree=64, tolerance=1e-8)
        rep = B.run_campaign(cfg, quasi_beta=beta)
        results.append((beta, rep))
    ok = all(rep.passed for _, rep in results)
    detail = "; ".join(f"(beta={b}): {rep.pass_count}/200 min {rep.min_margin:.1e}"
                       for b, rep in results)
    _report(4, ok, f"{detail} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_05_von_neumann_campaign():
    t0 = time.perf_counter()
    cfg = B.CampaignConfig(suite="von-neumann", trials=500, seed=5, dim=3,
                           degree=64, tolerance=1e-8)
    rep = B.run_campaign(cfg)
    _report(5, rep.passed, f"{rep.pass_count}/{rep.trials} trials, min margin "
                           f"{rep.min_margin:.2e} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_06_scalar_head_coefficient_bound():
    t0 = time.perf_counter()
    worst = math.inf
    for i in range(500):
        d = 1 + i % 4
        f = B.gen_schur_matrix([202606, i], d, 64, scalar_head=True)
        a0 = f.coeff(0)
        absa = B.abs_op(a0)
        cap = B.op_norm(np.eye(d) - absa @ absa)
        worst = min(worst, cap - float(op_norms(f.coeffs[1:]).max()))
    ok = worst >= -1e-8
    _report(6, ok, f"500 scalar-head contractions, min margin ||I-|A0|^2|| - max||A_n|| "
                   f"{worst:.2e} (tol -1e-8, {time.perf_counter() - t0:.1f}s)")


def test_criterion_07_bracketed_root_and_caps():
    t0 = time.perf_counter()
    res = B.solve_radius(B.RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.0), tol=1e-12)
    target = math.sqrt(2.0) - 1.0
    lo, hi = res.bracket
    checks = [
        hi - lo <= 1e-12,
        lo <= target <= hi,
        abs(res.radius - 1.0 / 3.0) <= 1e-15,
        abs(B.RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.0).cap - 1.0 / 3.0) <= 1e-15,
        abs(B.RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.25).cap - 5.0 / 13.0) <= 1e-15,
        abs(B.RadiusFamily("omega-gamma", k=1.0, p=2, gamma=0.5).cap - 3.0 / 7.0) <= 1e-15,
        B.RadiusFamily("half-plane", k=1.0, p=2).cap == 0.5,
    ]
    ok = all(checks)
    _report(7, ok, f"bracket [{lo:.15f}, {hi:.15f}] contains "
                   f"sqrt(2)-1, radius 1/3, caps 1/3, 5/13, 3/7, 1/2 "
                   f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_08_root_existence_monotonicity_limit():
    t0 = time.perf_counter()

    def root(fam):
        res = B.solve_radius(fam)
        assert res.bracket is not None, fam
        return res.root

    makers = {
        "general": lambda k, p: B.RadiusFamily("general", k=k, p=p, lam=1.0),
        "omega-gamma": lambda k, p: B.RadiusFamily("omega-gamma", k=k, p=p, gamma=0.25),
        "half-plane": lambda k, p: B.RadiusFamily("half-plane", k=k, p=p),
        "convex": lambda k, p: B.RadiusFamily("convex", k=k, p=p, beta=1.0),
        "starlike": lambda k, p: B.RadiusFamily("starlike", k=k, p=p),
    }
    ok = True
    # existence and monotonicity in p for every family at k = 1
    for make in makers.values():
        seq = [root(make(1.0, p)) for p in range(2, 9)]
        ok = ok and all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
    # monotone non-increasing in the strength parameters at p = 3
    for make in makers.values():
        seq = [root(make(k, 3)) for k in (0.25, 0.5, 1.0)]
        ok = ok and all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
    lam_seq = [root(B.RadiusFamily("general", k=1.0, p=3, lam=x)) for x in (0.25, 0.5, 1.0)]
    beta_seq = [root(B.RadiusFamily("convex", k=1.0, p=3, beta=x)) for x in (0.25, 0.5, 1.0)]
    for seq in (lam_seq, beta_seq):
        ok = ok and all(a >= b - 1e-12 for a, b in zip(seq, seq[1:]))
    # finite orders converge to the limiting equation
    gap = max(abs(root(make(1.0, 60)) - root(make(1.0, math.inf)))
              for make in makers.values())
    ok = ok and gap <= 1e-9
    _report(8, ok, f"roots exist for p in 2..8, monotone in k/lambda/beta/p, "
                   f"max |root(p=60) - root(inf)| = {gap:.2e} "
                   f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_09_polyanalytic_campaigns():
    t0 = time.perf_counter()
    families = []
    for k in (0.25, 0.5, 1.0):
        for p in (2, 3, 5):
            families.append(("general", dict(lam=1.0, k=k, p=p)))
            families.append(("convex", dict(beta=0.5, k=k, p=p)))
            families.append(("convex", dict(beta=1.0, k=k, p=p)))
            families.append(("starlike", dict(k=k, p=p)))
    total = passed = 0
    worst = math.inf
    for tag, options in families:
        cfg = B.CampaignConfig(suite=f"poly-{tag}", trials=200, seed=9, dim=3,
                               degree=64, tolerance=1e-8)
        rep = B.run_campaign(cfg, **options)
        total += rep.trials
        passed += rep.pass_count
        worst = min(worst, rep.min_margin)
    ok = passed == total
    _report(9, ok, f"{passed}/{total} trials over {len(families)} family configs, "
                   f"min margin {worst:.2e} ({time.perf_counter() - t0:.1f}s)")


def test_criterion_10_sharpness_of_one_third():
    t0 = time.perf_counter()
    thresholds = []
    ok = True
    for a in (0.9, 0.99, 0.999):
        scan = B.run_sharpness_scan(a, 0.2, 0.45, 200)
        ok = ok and scan.threshold is not None
        ok = ok and abs(scan.threshold - 1.0 / (1.0 + 2.0 * a)) <= 1e-6
        thresholds.append(scan.threshold)
        if a == 0.99:
            ok = ok and scan.first_exceed is not None and scan.first_exceed <= 0.34
    # thresholds decrease toward 1/3
    ok = ok and all(x > y for x, y in zip(thresholds, thresholds[1:]))
    ok = ok and all(t > 1.0 / 3.0 for t in thresholds)
    _report(10, ok, f"thresholds {', '.join(f'{t:.8f}' for t in thresholds)} match "
                    f"1/(1+2a) within 1e-6 and decrease toward 1/3 "
                    f"({time.perf_counter() - t0:.1f}s)")


def test_criterion_11_composition_consistency():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202611)
    worst = 0.0
    for _ in range(100):
        d = int(rng.integers(1, 4))
        g = B.gen_schur_matrix(rng, d, 64)
        phi = B.blaschke_series(B.random_blaschke_spec(rng, fix_origin=True), 64)
        comp = B.compose(g, phi)
        zs = 0.3 * np.sqrt(rng.uniform(0, 1, 32)) * np.exp(2j * np.pi * rng.uniform(0, 1, 32))
        for z in zs:
            w = phi.eval(z)[0, 0]
            worst = max(worst, B.op_norm(comp.eval(z) - g.eval(w)))
    bound = 2.0 * 0.3**65 / 0.7 + 1e-10
    ok = worst <= bound
    _report(11, ok, f"100 compositions, max pointwise defect {worst:.2e} <= "
                    f"{bound:.2e} ({time.perf_counter() - t0:.1f}s)")
