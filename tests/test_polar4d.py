"""Product polarizations and the model disc bundle."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from liouville_lab import liouville2d
from liouville_lab.checks import check_boundary_tangency, check_product_skeleton
from liouville_lab.polar4d import (Classification4, Component4, ModelDiscBundle,
                                   ProductPolarization)


@pytest.fixture(scope="module")
def product(radial3_form, radial4_form):
    return ProductPolarization(radial3_form, radial4_form)


def test_product_evaluators_delegate(product, rng):
    fA, fB = product.fA, product.fB
    x = fA.faces[0].leaf(0.3, 0.6)
    y = fB.faces[2].leaf(0.7, 0.4)
    p4 = np.concatenate([x, y])
    lam = product.eval_lambda(p4)
    X = product.eval_X(p4)
    assert np.allclose(lam[:2], fA.eval_lambda(x))
    assert np.allclose(lam[2:], fB.eval_lambda(y))
    assert np.allclose(X[:2], fA.eval_X(x))
    assert np.allclose(X[2:], fB.eval_X(y))


def test_skeleton_tangency(product):
    # x on Gamma_1, y on Gamma_2: X is tangent to Gamma_1 x Gamma_2 (here both
    # factor fields vanish on the smooth part)
    x = product.fA.faces[0].boundary_point(0.5)
    y = product.fB.faces[1].boundary_point(0.4)
    X = product.eval_X(np.concatenate([x, y]))
    assert np.linalg.norm(X) < 1e-8


def test_classify4_examples(product):
    fA, fB = product.fA, product.fB
    centroidA = fA.faces[0].leaf(0.5, 0.5)
    centroidB = fB.faces[1].leaf(0.5, 0.5)
    edgeA = fA.faces[0].boundary_point(0.45)
    edgeB = fB.faces[2].boundary_point(0.55)

    both = product.classify4(np.concatenate([centroidA, centroidB]))
    assert both.kind == "basin"

    skel = product.classify4(np.concatenate([edgeA, edgeB]))
    assert skel.kind == "skeleton"

    mixed = product.classify4(np.concatenate([edgeA, centroidB]))
    assert mixed.kind == "basin"
    assert mixed.component.kind == "horizontal"   # second factor converges
    assert mixed.component.index == 1


def test_basin_component_is_first_hit(product):
    fA, fB = product.fA, product.fB
    # first factor starts much closer to its marked point: vertical wins
    x = fA.faces[0].leaf(0.2, 0.05)
    y = fB.faces[0].leaf(0.2, 0.95)
    cls = product.classify4(np.concatenate([x, y]))
    assert cls.kind == "basin" and cls.component.kind == "vertical"


def classify4_reference(pp, point4, t_max=20.0):
    """Both factors flowed to t_max; the earliest arrival wins, A on ties."""
    x, y = pp.split(point4)
    trA, trB = pp.fA.flow(x, t_max), pp.fB.flow(y, t_max)
    if trA.classification == "skeleton" and trB.classification == "skeleton":
        return Classification4("skeleton")
    hits = [(tr.t_plus, Component4(kind, tr.face, f.faces[tr.face].area))
            for kind, f, tr in (("vertical", pp.fA, trA), ("horizontal", pp.fB, trB))
            if tr.classification == "converged"]
    if hits:
        t, comp = min(hits, key=lambda h: h[0])
        return Classification4("basin", comp, t)
    return Classification4("undecided")


def _factor_start(data, form, where):
    """A start point of one factor: inside a vertex chart's ball, on a face
    boundary (the grid or the disc boundary), or inside a face."""
    u = data.draw(st.floats(0.0, 1.0))
    if where == "chart":
        c = form.charts[data.draw(st.integers(0, len(form.charts) - 1))]
        r = 0.999 * c.ambient_radius() * np.sqrt(u)
        ang = data.draw(st.floats(0.0, 2 * np.pi))
        x = c.center + r * np.array([np.cos(ang), np.sin(ang)])
        # a boundary vertex's ball reaches outside the disc
        assume(np.hypot(*x) < 0.999 * form.grid.boundary_radius())
        assert form.chart_at(x) is not None
        return x
    fc = form.faces[data.draw(st.integers(0, len(form.faces) - 1))]
    if where == "edge":
        return fc.boundary_point(u)
    return fc.leaf(u, data.draw(st.floats(0.02, 0.98)))


@pytest.fixture(scope="module")
def races(product, radial4_form, pinwheel_form):
    return ProductPolarization(radial4_form, pinwheel_form), product


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_classify4_race_equals_both_factors_flowed_to_t_max(races, data):
    pp = races[data.draw(st.integers(0, 1))]
    wheres = ("chart", "edge", "face")
    x = _factor_start(data, pp.fA, data.draw(st.sampled_from(wheres)))
    y = _factor_start(data, pp.fB, data.draw(st.sampled_from(wheres)))
    p4 = np.concatenate([x, y])
    got, ref = pp.classify4(p4), classify4_reference(pp, p4)
    assert (got.kind, got.component) == (ref.kind, ref.component)
    if ref.t_hit is None:
        assert got.t_hit is None
    else:
        # a capped chart leg takes other rk45 steps, so its exit time moves
        # within the flow's tolerance, amplified near a branch ray: by at
        # most 9.7e-8 relative on 30,000 basin4 points
        assert got.t_hit == pytest.approx(ref.t_hit, rel=1e-6)


def test_chart_leg_runs_only_until_the_other_factor_arrives(races, monkeypatch):
    pp = races[0]
    c = pp.fA.charts[0]
    x = c.center + 0.5 * c.ambient_radius() * np.array([0.6, 0.8])
    y = pp.fB.faces[1].leaf(0.3, 0.2)    # arrives at -ln(1 - 0.04)
    assert pp.fA.chart_at(x) is not None and pp.fB.chart_at(y) is None
    trB = pp.fB.flow(y, 20.0)
    assert trB.classification == "converged" and trB.t_plus < 0.05

    budgets = []
    rk45 = liouville2d.rk45

    def spy(f, x0, s_end, *args, **kwargs):
        budgets.append(s_end)
        return rk45(f, x0, s_end, *args, **kwargs)

    monkeypatch.setattr(liouville2d, "rk45", spy)
    cls = pp.classify4(np.concatenate([x, y]))
    assert budgets and max(budgets) <= trB.t_plus
    assert cls.kind == "basin" and cls.component.kind == "horizontal"
    assert cls.t_hit == trB.t_plus


def test_a_capped_flow_that_ends_near_its_marked_point_is_no_hit(races):
    pp = races[0]
    c = pp.fA.charts[0]
    x = c.center + 0.5 * c.ambient_radius() * np.array([0.6, 0.8])
    t_a = pp.fA.flow(x, 20.0).t_plus
    # B arrives 5e-10 before A, when A is already within the convergence
    # radius: A's flow capped at B's arrival reports "converged" at the cap
    y = pp.fB.faces[1].leaf(0.3, np.sqrt(-np.expm1(-(t_a - 5e-10))))
    t_b = pp.fB.flow(y, 20.0).t_plus
    capped = pp.fA.flow(x, t_b)
    assert t_b < t_a and (capped.classification, capped.t_plus) == ("converged", t_b)
    p4 = np.concatenate([x, y])
    cls = pp.classify4(p4)
    assert cls.component.kind == "horizontal"
    assert cls == classify4_reference(pp, p4)


def test_action_integrals(product, rng):
    fA = product.fA
    # small contractible loop: the action is the enclosed symplectic area,
    # which scales as radius^2 and drops below tolerance
    c = np.array([0.21, 0.05, 0.3, -0.1])
    s = np.linspace(0, 2 * np.pi, 60, endpoint=False)
    loop = c[None, :] + 2e-4 * np.stack(
        [np.cos(s), np.sin(s), np.cos(2 * s), np.sin(2 * s)], axis=1)
    assert abs(product.action_integral(loop)) < 1e-6

    # loop inside Gamma_1 x Gamma_2: lambda vanishes pointwise
    thetas = np.linspace(0.3, 0.7, 40)
    xs = np.array([fA.faces[0].boundary_point(t) for t in thetas])
    ys = np.array([product.fB.faces[1].boundary_point(0.5)] * 40)
    loop2 = np.concatenate([np.vstack([xs, xs[::-1]]),
                            np.vstack([ys, ys[::-1]])], axis=1)
    assert abs(product.action_integral(loop2)) < 1e-4

    # loop around a vertical component at adapted radius rho
    fc = fA.faces[0]
    rho = 5e-3
    t = np.sqrt(rho / fc.area)
    th = np.linspace(0, 1, 200, endpoint=False)
    xs = np.array([fc.leaf(tt, t) for tt in th])
    y0 = product.fB.faces[0].leaf(0.3, 0.5)
    loop3 = np.concatenate([xs, np.tile(y0, (len(xs), 1))], axis=1)
    val = product.action_integral(loop3)
    assert val == pytest.approx(rho - fc.area, abs=1e-6)


def test_product_skeleton_battery(product):
    res = check_product_skeleton(product, n=400, seed=5)
    assert res.ok, res.line()
    res2 = check_boundary_tangency(product)
    assert res2.ok, res2.line()


def test_product_closedness_fd(product, rng):
    from liouville_lab.checks import check_product_closedness

    res = check_product_closedness(product, n=150, seed=2)
    assert res.ok, res.line()


# -- model disc bundle --------------------------------------------------------

def test_sdb_identities():
    m = ModelDiscBundle(3, 2.0)
    pt = np.array([0.4, -0.3, 0.2, 0.15])
    W, lam, X = m.eval(pt)
    # primitive: i_X omega = lambda for the Liouville vector
    assert np.allclose(W.T @ X, lam, atol=1e-14)
    # curvature factor multiplies the base block
    assert W[0, 1] == pytest.approx(1 - 3 * 0.2 / 2.0)
    # d lambda = omega by central differences
    h = 1e-6
    D = np.zeros((4, 4))
    for i in range(4):
        e = np.zeros(4)
        e[i] = h
        D[i] = (m.lambda_covector(pt + e) - m.lambda_covector(pt - e)) / (2 * h)
    assert np.abs((D - D.T) - W).max() < 1e-8


def test_sdb_degeneracy_and_fiber_residue():
    m = ModelDiscBundle(2, 1.5)
    Rc = m.fiber_capacity
    assert np.allclose(m.liouville_vector([0.1, 0.2, Rc, 0.3]), 0.0)
    assert abs(np.linalg.det(m.omega_matrix([0.1, 0.2, Rc, 0.3]))) < 1e-14
    # symplectic below the capacity
    assert np.linalg.det(m.omega_matrix([0.1, 0.2, 0.5 * Rc, 0.3])) > 0
    for R in (0.1, 0.4):
        assert m.fiber_loop_integral(R) == pytest.approx(R - Rc, abs=1e-12)


def test_sdb_validation():
    with pytest.raises(ValueError):
        ModelDiscBundle(0, 1.0)
    with pytest.raises(ValueError):
        ModelDiscBundle(2, -1.0)
