"""Exact divisor arithmetic: smoothing, morphisms, feasibility certificates."""

from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab.divisor_arith import (BandCertificate, Component,
                                         DivisorError, WeightedDivisor,
                                         chekanov_excluded, check_morphism,
                                         ellipsoid_target_genus,
                                         feasibility_Remb, feasibility_baby,
                                         feasibility_ellipsoid, monotone_K,
                                         rigidity_threshold,
                                         smooth_divisor_invariants,
                                         verify_flux_identity)


def euler_cell_oracle(components, nu):
    """Cell-count Euler characteristic of the smoothed curve.

    Closed genus-g model: 1 vertex, 2g edges, 1 face. Each boundary circle:
    +1 vertex, +2 edges (circle + cut). Each node identification: -1 vertex.
    Each smoothing replaces the wedge neighborhood by an annulus: chi -= 1
    more (total -2 per node against the disjoint union).
    """
    V = E = F = 0
    for c in components:
        V += 1 + c.boundary
        E += 2 * c.genus + 2 * c.boundary
        F += 1
    chi_disjoint = V - E + F
    chi_smooth = chi_disjoint - 2 * nu
    return chi_smooth


def genus_from_chi(chi, boundary):
    g2 = 2 - boundary - chi
    assert g2 % 2 == 0
    return g2 // 2


def covering_genus_oracle(m, d, N):
    """Riemann-Hurwitz genus of the smooth curve x^a + y^b = 1 compactified,
    a = mN, b = md(Nd+1): the covering curve of E(1/d, d+1/N).

    Projection to the x-line is a degree-b cover. Over each of the a roots of
    x^a = 1 lies one point of index b; over infinity lie gcd(a, b) points of
    index b / gcd(a, b). So chi = 2b - a(b-1) - (b - gcd(a, b)).
    """
    a, b = m * N, m * d * (N * d + 1)
    r = gcd(a, b)
    chi = 2 * b - a * (b - 1) - r * (b // r - 1)
    return genus_from_chi(chi, 0)


# -- smoothing ----------------------------------------------------------------

def test_smoothing_theorem_target_numbers():
    # 10 discs (2 of area 2, 8 of area 1/2), all 16 crossings resolved
    comps = ([Component(0, 0, 1, 1) for _ in range(8)]
             + [Component(0, 0, 4, 1), Component(0, 0, 4, 1)])
    inter = np.zeros((10, 10), int)
    nodes = []
    for i in range(8):
        for j in (8, 9):
            inter[i, j] = inter[j, i] = 1
            nodes.append((i, j))
    area, g, b = smooth_divisor_invariants(WeightedDivisor(comps, inter), nodes)
    assert (g, b) == (7, 0)         # genus k A - 1 for k=4, A=2
    assert area == 16
    chi = euler_cell_oracle(comps, len(nodes))
    assert genus_from_chi(chi, b) == g


def test_star_smoothing_has_genus_zero():
    K = 7
    comps = [Component(0, 0, 1, 1) for _ in range(K + 1)]
    inter = np.zeros((K + 1, K + 1), int)
    for j in range(1, K + 1):
        inter[0, j] = inter[j, 0] = 1
    nodes = [(0, j) for j in range(1, K + 1)]
    _, g, b = smooth_divisor_invariants(WeightedDivisor(comps, inter), nodes)
    assert g == 0 and b == 0


def test_single_component_no_nodes_unchanged():
    comp = Component(3, 2, 5, 1)
    area, g, b = smooth_divisor_invariants(WeightedDivisor([comp]), [])
    assert (area, g, b) == (5, 3, 2)


def test_smoothing_rejects_weight_mismatch_and_disconnection():
    comps = [Component(0, 0, 1, 1), Component(0, 0, 1, 2)]
    inter = np.array([[0, 1], [1, 0]])
    with pytest.raises(DivisorError):
        smooth_divisor_invariants(WeightedDivisor(comps, inter), [(0, 1)])
    comps2 = [Component(0, 0, 1, 1), Component(0, 0, 1, 1)]
    with pytest.raises(DivisorError):
        smooth_divisor_invariants(WeightedDivisor(comps2, np.ones((2, 2), int)
                                                  - np.eye(2, dtype=int)), [])


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_smoothing_matches_euler_oracle(data):
    n = data.draw(st.integers(1, 6))
    comps = [Component(data.draw(st.integers(0, 3)),
                       data.draw(st.integers(0, 3)), 1, 1) for _ in range(n)]
    # a random connected multigraph with <= 12 edges
    edges = [(i, i + 1) for i in range(n - 1)]
    extra = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)),
                               max_size=12 - len(edges)))
    edges += [tuple(sorted(e)) for e in extra if e[0] != e[1]]
    inter = np.zeros((n, n), int)
    for (i, j) in edges:
        inter[i, j] += 1
        inter[j, i] += 1
    if n > 1 and not edges:
        return
    area, g, b = smooth_divisor_invariants(
        WeightedDivisor(comps, inter), edges)
    chi = euler_cell_oracle(comps, len(edges))
    assert genus_from_chi(chi, b) == g


# -- morphisms ------------------------------------------------------------------

def test_morphism_feasible_example():
    src = WeightedDivisor([Component(1, 3, 3, Fraction(1, 3))])
    tgt = WeightedDivisor([Component(4, 0, 6, Fraction(1, 3))])
    rep = check_morphism(src, tgt)
    assert rep.feasible


def test_morphism_equal_area_infeasible():
    src = WeightedDivisor([Component(1, 3, 6, 1)])
    tgt = WeightedDivisor([Component(4, 0, 6, 1)])
    rep = check_morphism(src, tgt)
    assert not rep.feasible
    assert any("area" in name for name in rep.violated)


def test_morphism_genus_shortfall_infeasible():
    src = WeightedDivisor([Component(2, 4, 3, 1)])   # g+b-1 = 5
    tgt = WeightedDivisor([Component(4, 0, 6, 1)])
    rep = check_morphism(src, tgt)
    assert not rep.feasible


def test_morphism_respects_crossings():
    # two source components crossing once need a target crossing
    src = WeightedDivisor([Component(0, 1, 1, 1), Component(0, 1, 1, 2)],
                          np.array([[0, 1], [1, 0]]))
    tgt_no = WeightedDivisor([Component(1, 0, 2, 1), Component(1, 0, 2, 2)],
                             np.zeros((2, 2), int))
    tgt_yes = WeightedDivisor([Component(1, 0, 2, 1), Component(1, 0, 2, 2)],
                              np.array([[0, 1], [1, 0]]))
    assert not check_morphism(src, tgt_no).feasible
    rep = check_morphism(src, tgt_yes)
    assert rep.feasible
    assert rep.certificate == {0: 0, 1: 1}


# -- certificates ----------------------------------------------------------------

def test_baby_examples_and_formula():
    assert feasibility_baby(2).numbers["A"] == 1
    assert feasibility_baby(3).numbers["A"] == 2
    assert feasibility_baby(6).numbers["A"] == 3
    rep = feasibility_baby(6)
    assert rep.numbers["source (area, genus, boundary)"] == (6, 10, 6)
    assert rep.numbers["target (area, genus)"] == (12, 17)
    for k in range(2, 51):
        assert feasibility_baby(k).numbers["A"] == -(-k // 2)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(1, 5))
def test_baby_monotone_in_A(k, extra):
    A0 = feasibility_baby(k).numbers["A"]
    g_src = (k - 1) * (k - 2) // 2
    need = g_src + k - 1
    A = A0 + extra
    assert 4 * A > k and k * A - 1 >= need


def test_ellipsoid_examples():
    rep = feasibility_ellipsoid(2, 2, 1)
    assert not rep.feasible
    assert rep.numbers["target (area, genus)"][1] == 5
    assert rep.numbers["required genus g+b-1"] == 6

    rep2 = feasibility_ellipsoid(3, 1, 1)
    assert rep2.feasible
    assert rep2.numbers["target (area, genus)"] == (6, 4)
    assert rep2.numbers["required genus g+b-1"] == 3

    with pytest.raises(DivisorError):
        feasibility_ellipsoid(3, 2, 4)   # gcd(d, N) = 2


def test_ellipsoid_genus_formula_values():
    assert ellipsoid_target_genus(2, 2, 1) == 5
    assert ellipsoid_target_genus(3, 1, 1) == 4
    assert ellipsoid_target_genus(1, 1, 1) == 0


def test_covering_genus_oracle_matches_formula_and_weighted_adjunction():
    # weighted adjunction: the same curve has weighted degree D = m p q in
    # P(1, p, q), p = N, q = d(Nd+1), away from the two orbifold points
    # (gcd(p, q) = 1), so 2g - 2 = D(D - 1 - p - q) / (pq)
    n = 0
    for m in range(1, 11):
        for d in range(1, 11):
            for N in range(1, 11):
                if gcd(d, N) != 1:
                    continue
                n += 1
                p, q = N, d * (N * d + 1)
                D = m * p * q
                two_g_minus_two, rem = divmod(D * (D - 1 - p - q), p * q)
                assert rem == 0
                g = covering_genus_oracle(m, d, N)
                assert 2 * g - 2 == two_g_minus_two, (m, d, N)
                assert g == ellipsoid_target_genus(m, d, N), (m, d, N)
    assert n == 630


def test_equal_parameter_degree_one_family_fails_genus_condition():
    # the covering certificate genuinely falls short for (m, m, 1), m >= 3:
    # the target genus misses the requirement by exactly m - 1
    for m in range(3, 11):
        rep = feasibility_ellipsoid(m, m, 1)
        assert not rep.feasible
        g_tgt = rep.numbers["target (area, genus)"][1]
        assert rep.numbers["required genus g+b-1"] - g_tgt == m - 1


def test_ellipsoid_region_away_from_the_diagonal():
    for m in range(1, 11):
        for d in range(1, 11):
            for N in range(1, 11):
                if gcd(d, N) != 1:
                    continue
                rep = feasibility_ellipsoid(m, d, N)
                if m < d:
                    assert not rep.feasible, (m, d, N)
                elif m > d or N >= 2 or m == 1:
                    assert rep.feasible, (m, d, N)


def test_monotone_K_examples():
    K, cert = monotone_K(1, 1, 1.0, 1.0)
    assert K == 2 and cert.verify()        # K b > b forces K >= 2
    K2, cert2 = monotone_K(2, 1, 0.4, 0.7)
    assert K2 == 4 and cert2.verify()      # the four-cell band picture
    Ka, _ = monotone_K(3, 2, 0.7, 0.2)
    Kb, _ = monotone_K(3, 2, 1.4, 0.4)
    assert Ka == Kb                         # scale invariance


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 5),
       st.floats(0.05, 5.0), st.floats(0.05, 5.0))
def test_monotone_K_certificate_property(m, n, a, b):
    K, cert = monotone_K(m, n, a, b)
    assert K % (m * n) == 0
    assert cert.verify()
    pairs = {(i, j) for (i, j) in cert.assignment}
    assert pairs == {(i, j) for i in range(m) for j in range(n)}


def test_band_certificate_rejects_bad_assignments():
    bad = BandCertificate(2, 1, 1.0, 1.0, 4, [(0, 0), (1, 0), (0, 0), (1, 0)])
    assert not bad.verify()                 # row blocks not contiguous


def test_remb_inequalities():
    rep = feasibility_Remb(1)
    assert rep.feasible
    assert rep.numbers["margins"] == (20, 38, 20)   # 36>16, 54>16, 36>16
    rep2 = feasibility_Remb(2)
    assert rep2.feasible
    assert 18 ** 2 > 16 ** 2
    assert rep2.conditions[0][2] == 18 ** 2          # the stage-2 square side
    for N in range(1, 11):
        assert feasibility_Remb(N).feasible


def test_rigidity_threshold_and_predicate():
    assert rigidity_threshold(0.3, 0.2) == pytest.approx(0.5)
    assert chekanov_excluded(0.5, 0.3, 0.2)          # boundary case uses >=
    assert not chekanov_excluded(0.9, 0.5, 0.5)
    # Markov-torus arithmetic: A_min = 1, grid faces of area A/k:
    # excluded exactly when A <= k/2 (larger targets escape the threshold)
    for k in range(2, 8):
        A = k / 2
        assert chekanov_excluded(1.0, A / k, A / k)
        assert not chekanov_excluded(1.0, (A + 0.01) / k, (A + 0.01) / k)


def test_flux_identity():
    assert verify_flux_identity(3.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    r1 = verify_flux_identity(3.0, 0.3, 1.0)
    assert abs(r1) < 1e-4
    r2 = verify_flux_identity(3.0, 0.3, 2.0)
    assert abs(r2) < 1e-4
    # the shift itself doubles with t: check through the raw actions
    loop = None
    import numpy as np

    s = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
    rho = 1.2
    loop = np.stack([rho * np.cos(s), rho * np.sin(s)], axis=1)
    res1 = verify_flux_identity(3.0, 0.25, 1.0, loop=loop)
    res2 = verify_flux_identity(3.0, 0.25, 2.0, loop=loop)
    assert abs(res1) < 1e-6 and abs(res2) < 1e-6


def test_flux_rejects_escaping_loop():
    with pytest.raises(DivisorError):
        verify_flux_identity(0.5, 4.0, 3.0)
