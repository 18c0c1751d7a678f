"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one `[criterion N] PASS/FAIL` line. Criterion 5 checks the
ellipsoid covering certificate over the full range m, d, N <= 10 against the
Riemann-Hurwitz genus oracle in `test_divisor_arith`: its exclusion set for
m >= d is exactly {(m, m, 1) : m >= 2}.
"""

import time
from math import ceil, gcd

import numpy as np
import pytest

from liouville_lab import divisor_arith as da
from liouville_lab import reeb3
from liouville_lab.checks import gamma_samples, sample_off_singular
from liouville_lab.grid2d import (make_periodic_grid, make_pinwheel_grid,
                                  make_radial_grid)
from liouville_lab.liouville2d import build_form
from liouville_lab.polar4d import ProductPolarization

PINWHEEL = (3, 1.0, [0.35, -0.25, 0.1])


def report(n, ok, detail):
    line = f"[criterion {n:2d}] {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


@pytest.fixture(scope="module")
def test_forms():
    forms = {f"radial{k}": build_form(make_radial_grid(k, 1.0))
             for k in range(2, 7)}
    forms["pinwheel"] = build_form(make_pinwheel_grid(*PINWHEEL))
    forms["periodic2"] = build_form(make_periodic_grid(2))
    return forms


def test_criterion_1_closedness(test_forms):
    t0 = time.time()
    h = 1e-5
    worst = 0.0
    names = [f"radial{k}" for k in range(2, 7)] + ["pinwheel"]
    for name in names:
        f = test_forms[name]
        rng = np.random.default_rng(101)
        pts = sample_off_singular(f, 1000, rng)
        for x in pts:
            dl = ((f.eval_lambda(x + [h, 0])[1] - f.eval_lambda(x - [h, 0])[1])
                  - (f.eval_lambda(x + [0, h])[0]
                     - f.eval_lambda(x - [0, h])[0])) / (2 * h)
            worst = max(worst, abs(dl - 1.0))
    elapsed = time.time() - t0
    ok = worst < 1e-4 and elapsed < 10.0
    report(1, ok, f"closedness worst rel err {worst:.2e} (<1e-4), "
                  f"{elapsed:.1f}s (<10s), 1000 pts x {len(names)} grids")
    assert worst < 1e-4
    assert elapsed < 10.0


def test_criterion_2_residues(test_forms):
    rho = 1e-2
    worst = 0.0
    for name, f in test_forms.items():
        for i, fc in enumerate(f.faces):
            val = f.residue_loop_integral(i, rho)
            worst = max(worst, abs(val + fc.area))
    ok = worst < rho + 1e-4
    report(2, ok, f"residue loops worst |loop + a_i| = {worst:.6f} "
                  f"(< rho + 1e-4 = {rho + 1e-4:.6f}), all faces of "
                  f"{len(test_forms)} grids")
    assert ok


def test_criterion_3_skeleton(test_forms):
    t0 = time.time()
    f = test_forms["radial4"]
    rng = np.random.default_rng(202)
    pts = sample_off_singular(f, 10000, rng, t_range=(1e-6, 1.0),
                              chart_margin=0.0, gamma_margin=1e-3)
    good = 0
    for x in pts:
        i, _, _ = f.face_at(x)
        tr = f.flow(x, 20.0)
        if tr.classification == "converged" and tr.face == i:
            good += 1
    frac = good / len(pts)

    worst_drift = 0.0
    n_gamma = 0
    for name in ("radial4", "pinwheel", "periodic2"):
        g = test_forms[name]
        for x in gamma_samples(g):
            n_gamma += 1
            for direction in (1, -1):
                tr = g.flow(x, 20.0, direction=direction)
                for (_, px, py) in tr.points:
                    worst_drift = max(worst_drift,
                                      g.grid.grid_distance(np.array([px, py])))
    elapsed = time.time() - t0
    ok = frac >= 0.99 and worst_drift < 1e-3 and elapsed < 60.0
    report(3, ok, f"basin {frac:.2%} of 10^4 (>=99%), skeleton drift "
                  f"{worst_drift:.2e} (<1e-3, {n_gamma} samples, |t|<=20), "
                  f"{elapsed:.1f}s (<60s)")
    assert frac >= 0.99
    assert worst_drift < 1e-3
    assert elapsed < 60.0


def test_criterion_4_product_skeleton(test_forms):
    pp = ProductPolarization(test_forms["radial3"], test_forms["radial4"])
    rng = np.random.default_rng(303)
    band = 1e-3
    rA = pp.fA.grid.boundary_radius()
    rB = pp.fB.grid.boundary_radius()
    agree = 0
    n = 10000
    count = 0
    while count < n:
        x = rng.uniform(-rA, rA, 2)
        y = rng.uniform(-rB, rB, 2)
        if np.hypot(*x) > 0.999 * rA or np.hypot(*y) > 0.999 * rB:
            continue
        count += 1
        on_g = (pp.fA.grid.grid_distance(x) < band
                and pp.fB.grid.grid_distance(y) < band)
        cls = pp.classify4(np.concatenate([x, y]))
        if cls.kind != "undecided" and (cls.kind == "skeleton") == on_g:
            agree += 1
    frac = agree / n

    worst_norm = 0.0
    for _ in range(300):
        ang = rng.uniform(0, 2 * np.pi)
        x = rA * np.array([np.cos(ang), np.sin(ang)])
        y = pp.fB.faces[0].leaf(rng.uniform(), rng.uniform(0.2, 0.8))
        worst_norm = max(worst_norm, abs(
            pp.boundary_normal_component(np.concatenate([x, y]))))
    ok = frac >= 0.99 and worst_norm < 1e-6
    report(4, ok, f"product dichotomy {frac:.2%} of 10^4 (>=99%), boundary "
                  f"normal components {worst_norm:.2e} (<1e-6)")
    assert frac >= 0.99
    assert worst_norm < 1e-6


def test_criterion_5_divisor_arithmetic():
    from test_divisor_arith import covering_genus_oracle

    # expected ellipsoid verdicts over the full range m, d, N <= 10, from the
    # Riemann-Hurwitz oracle genus and the certificate inequalities with the
    # degree-k source numbers (k = mNd): m >= d, area m(Nd+1) > k, and
    # g' >= g + b - 1
    tuples = [(m, d, N) for m in range(1, 11) for d in range(1, 11)
              for N in range(1, 11) if gcd(d, N) == 1]
    oracle = {}
    for (m, d, N) in tuples:
        k = m * N * d
        g_tgt = covering_genus_oracle(m, d, N)
        need = (k - 1) * (k - 2) // 2 + k - 1
        oracle[m, d, N] = (g_tgt,
                           m >= d and m * (N * d + 1) > k and g_tgt >= need)
    excluded = {t for t in tuples if not oracle[t][1]}
    closed_form = ({(m, d, N) for (m, d, N) in tuples if m < d}
                   | {(m, m, 1) for m in range(2, 11)})

    t0 = time.time()
    # Thm-level ball certificate numbers, k = 2..50, minimal A accepted
    baby_ok = True
    for k in range(2, 51):
        rep = da.feasibility_baby(k)
        A = rep.numbers["A"]
        g_src = (k - 1) * (k - 2) // 2
        baby_ok &= rep.numbers["source (area, genus, boundary)"] == (k, g_src, k)
        baby_ok &= rep.numbers["target (area, genus)"] == (4 * A, k * A - 1)
        baby_ok &= A == ceil(k / 2) and rep.feasible
        baby_ok &= (4 * A > k) and (k * A - 1 >= g_src + k - 1)

    # covering genus formula values and the (2, 2, 1) exclusion
    genus_ok = (da.ellipsoid_target_genus(2, 2, 1) == 5
                and not da.feasibility_ellipsoid(2, 2, 1).feasible
                and da.feasibility_ellipsoid(2, 2, 1).numbers[
                    "required genus g+b-1"] == 6)

    # stage inequalities, N = 1..10, including the stage-2 value 18^2 > 16^2
    remb_ok = all(da.feasibility_Remb(N).feasible for N in range(1, 11))
    remb_ok &= da.feasibility_Remb(2).conditions[0][2] == 324 == 18 ** 2
    remb_ok &= da.feasibility_Remb(2).conditions[0][4] == 256 == 16 ** 2

    # exclusion-set sweep: the program's genus and verdict on every tuple
    program = {t: (da.ellipsoid_target_genus(*t),
                   da.feasibility_ellipsoid(*t).feasible) for t in tuples}
    elapsed = time.time() - t0

    genus_diff = [t for t in tuples if program[t][0] != oracle[t][0]]
    verdict_diff = [t for t in tuples if program[t][1] != oracle[t][1]]
    sweep_diff = sorted(set(genus_diff + verdict_diff))
    sweep_ok = (len(tuples) == 630 and not sweep_diff
                and excluded == closed_form)
    ok = baby_ok and genus_ok and remb_ok and sweep_ok and elapsed < 1.0
    report(5, ok,
           f"ball numbers k=2..50 {'ok' if baby_ok else 'FAIL'}; "
           f"genus formula + (2,2,1) exclusion {'ok' if genus_ok else 'FAIL'}; "
           f"stage inequalities N=1..10 {'ok' if remb_ok else 'FAIL'}; "
           f"exclusion-set sweep over {len(tuples)} tuples "
           f"{'ok' if sweep_ok else f'FAIL at {sweep_diff}'}; "
           f"{elapsed:.2f}s (<1s)")
    assert baby_ok
    assert genus_ok
    assert remb_ok
    assert elapsed < 1.0
    assert len(tuples) == 630
    assert not genus_diff, (
        f"covering genus differs from the Riemann-Hurwitz oracle at {genus_diff}")
    assert not verdict_diff, (
        "feasibility_ellipsoid verdict differs from the oracle verdict at "
        f"{verdict_diff}")
    assert excluded == closed_form, (
        "oracle exclusion set differs from {m < d} + {(m, m, 1): m >= 2} at "
        f"{sorted(excluded ^ closed_form)}")


def test_criterion_6_smoothing_oracle():
    from test_divisor_arith import euler_cell_oracle, genus_from_chi

    rng = np.random.default_rng(404)
    bad = 0
    for _ in range(1000):
        n = int(rng.integers(1, 7))
        comps = [da.Component(int(rng.integers(0, 4)), int(rng.integers(0, 4)),
                              1, 1) for _ in range(n)]
        edges = [(i, int(rng.integers(0, i + 1) - 1) + 1 - 1) for i in range(1, n)]
        edges = [(min(i, j), max(i, j)) for (i, j) in
                 [(i, int(rng.integers(0, i))) for i in range(1, n)]]
        n_extra = int(rng.integers(0, 12 - len(edges) + 1))
        for _ in range(n_extra):
            i, j = rng.integers(0, n, 2)
            if i != j:
                edges.append((min(i, j), max(i, j)))
        inter = np.zeros((n, n), int)
        for (i, j) in edges:
            inter[i, j] += 1
            inter[j, i] += 1
        _, g, b = da.smooth_divisor_invariants(
            da.WeightedDivisor(comps, inter), edges)
        chi = euler_cell_oracle(comps, len(edges))
        if genus_from_chi(chi, b) != g:
            bad += 1
    ok = bad == 0
    report(6, ok, f"genus formula vs cell-count Euler oracle: "
                  f"{1000 - bad}/1000 random nodal configurations agree")
    assert ok


def test_criterion_7_hopf_battery():
    S = reeb3.StarshapedHypersurface("sphere")
    rng = np.random.default_rng(505)
    z = S.project(rng.normal(size=(12, 4)))
    worst_period = 0.0
    for zz in z:
        num = S.flow_numeric(zz, 1.0)
        worst_period = max(worst_period, float(np.linalg.norm(num - zz)))
        closed = S.flow(zz, 1.0)
        worst_period = max(worst_period, float(np.linalg.norm(closed - zz)))

    worst_cyclic = 0.0
    for k in (2, 3, 4):
        arcs = {a.name: a for a in reeb3.legendrian_graph(S, k, n_samples=256)}
        for j in range(k):
            moved = S.flow(arcs[f"Q[0,{j}]"].points, 1.0 / k)
            target = arcs[f"Q[1,{(j + 1) % k}]"].points
            worst_cyclic = max(worst_cyclic, float(np.abs(moved - target).max()))
    # one numeric cross-check of the cyclic action
    a01 = reeb3.legendrian_graph(S, 3, n_samples=32)[1]
    num_moved = np.stack([S.flow_numeric(p, 1.0 / 3)
                          for p in a01.points[::8]])
    worst_cyclic = max(worst_cyclic, float(np.abs(
        num_moved - S.flow(a01.points[::8], 1.0 / 3)).max()))

    counts = {}
    area_err = 0.0
    for k in (2, 3, 4):
        sw = reeb3.hopf_sweep(k, 1.0 / k, n_test=12000)
        counts[k] = sw.component_count
        area_err = max(area_err, max(abs(a - 1.0 / k) for a in sw.disc_areas))
    ok = (worst_period < 1e-9 and worst_cyclic < 1e-8
          and all(counts[k] == k for k in (2, 3, 4)) and area_err < 1e-3)
    report(7, ok, f"period-1 identity {worst_period:.1e} (<1e-9); cyclic arc "
                  f"action {worst_cyclic:.1e} (<1e-8); components {counts}; "
                  f"disc areas within {area_err:.1e} of 1/k (<1e-3)")
    assert worst_period < 1e-9
    assert worst_cyclic < 1e-8
    assert counts == {2: 2, 3: 3, 4: 4}
    assert area_err < 1e-3


def test_criterion_8_chord_alternative():
    t0 = time.time()
    surfaces = [reeb3.StarshapedHypersurface("sphere"),
                reeb3.StarshapedHypersurface("ellipsoid", (0.9, 0.8))]
    misses = []
    worst_T = 0.0
    for S in surfaces:
        knots = reeb3.shipped_knots(S)
        for k in (2, 3):
            barrier = reeb3.legendrian_graph(S, k, n_samples=512)
            bound = 2.0 / k + 1e-3
            for knot in knots:
                targets = [knot] + barrier
                for direction in (1, -1):
                    cs = reeb3.chord_search(S, knot, targets, T_max=bound,
                                            direction=direction,
                                            n_seed=96, n_time=128)
                    if not cs:
                        misses.append((S.kind, k, knot.name, direction))
                    else:
                        worst_T = max(worst_T, cs[0].T)
    elapsed = time.time() - t0
    ok = not misses and elapsed < 120.0
    report(8, ok, f"chords found for all {2 * 2 * 5 * 2} (surface, k, knot, "
                  f"direction) combinations, longest best chord "
                  f"{worst_T:.4f} <= 2/k+1e-3; {elapsed:.1f}s (<120s)"
                  + (f"; misses: {misses}" if misses else ""))
    assert not misses
    assert elapsed < 120.0


def test_criterion_9_mohnke_torus():
    S = reeb3.StarshapedHypersurface("sphere")
    knot = reeb3.legendrian_great_circle(S)
    T = 0.3
    tor = reeb3.mohnke_torus(S, knot, T=T, eps=0.12)
    ok = (abs(tor.action_knot) < 1e-6 and abs(tor.action_disc - T) < 1e-6
          and tor.omega_defect < 1e-6)
    report(9, ok, f"generator actions ({tor.action_knot:.1e}, "
                  f"{tor.action_disc:.9f}) vs (0, {T}); omega defect "
                  f"{tor.omega_defect:.1e} (<1e-6)")
    assert abs(tor.action_knot) < 1e-6
    assert abs(tor.action_disc - T) < 1e-6
    assert tor.omega_defect < 1e-6


def test_criterion_10_flux_identity():
    worst = 0.0
    for period in (0.1, 0.3, 0.7):
        for t in (1.0, 2.0):
            worst = max(worst, abs(da.verify_flux_identity(3.0, period, t)))
    ok = worst < 1e-4
    report(10, ok, f"flux identity residual {worst:.2e} (<1e-4) for "
                   f"t in {{1,2}}, three periods")
    assert ok
