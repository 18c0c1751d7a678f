"""Product polarizations and the model disc bundle."""

import numpy as np
import pytest

from liouville_lab.checks import check_boundary_tangency, check_product_skeleton
from liouville_lab.polar4d import ModelDiscBundle, ProductPolarization


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
