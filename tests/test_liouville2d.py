"""Face charts, evaluators, residues, flows, splitting."""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from liouville_lab import liouville2d
from liouville_lab.checks import (check_backward_complete, check_basin,
                                  check_gamma_invariance, gamma_samples,
                                  sample_off_singular)
from liouville_lab.geom import TWO_PI, min_image, perp, shoelace_area
from liouville_lab.grid2d import (Grid, make_pinwheel_grid, make_radial_grid,
                                  make_sector_grid)
from liouville_lab.integrate import rk45
from liouville_lab.liouville2d import (DomainError, FaceChart, FoliationError,
                                       _build_face_chart, _piece_coeffs,
                                       build_form, split_weights)
from liouville_lab.polar4d import ProductPolarization


# -- foliation structure ------------------------------------------------------

def test_radial_foliation_is_radial_with_bisector_separatrices(radial4_form):
    f = radial4_form
    for fc in f.faces:
        # separatrix to the origin vertex leaves p along the sector bisector
        for vid, th in fc.vertex_thetas:
            q = f.grid.vertices[vid].xy
            land = fc.boundary_point(th)
            assert np.linalg.norm(land - q) < 1e-9
        # leaves are straight rays from the marked point
        x1 = fc.leaf(0.3, 0.5)
        x2 = fc.leaf(0.3, 1.0)
        v1, v2 = x1 - fc.p, x2 - fc.p
        assert abs(v1[0] * v2[1] - v1[1] * v2[0]) < 1e-12


def test_betas_sum_to_one_against_boundary_action_oracle(radial4_form, pinwheel_form):
    for f in (radial4_form, pinwheel_form):
        for i in range(len(f.faces)):
            betas = f.faces[i].betas()
            assert abs(betas.sum() - 1.0) < 1e-12
            # oracle: trapezoid quadrature of the recentered shoelace
            # primitive over the polygon boundary between separatrix feet
            fc = f.faces[i]
            poly = f.grid.face_polygon(i) - fc.p
            q = np.roll(poly, -1, axis=0)
            piece = 0.5 * (poly[:, 0] * q[:, 1] - poly[:, 1] * q[:, 0])
            assert abs(piece.sum() / fc.area - 1.0) < 2e-4


def test_swept_area_law_against_polygon_oracle(radial3_form):
    fc = radial3_form.faces[0]
    for theta in (0.25, 0.5, 0.75):
        taus = np.linspace(0.0, theta, 3000)
        ring = np.array([fc.boundary_point(t) for t in taus])
        oracle = shoelace_area(np.vstack([fc.p[None, :], ring]))
        assert abs(oracle - theta * fc.area) < 1e-4 * fc.area


def test_sector_half_sweep(radial4_form):
    fc = radial4_form.faces[1]
    taus = np.linspace(0.0, 0.5, 2000)
    ring = np.array([fc.boundary_point(t) for t in taus])
    area = shoelace_area(np.vstack([fc.p[None, :], ring]))
    assert area == pytest.approx(0.5 * fc.area, rel=1e-5)


def _poskey(q, grid):
    """A position key of q: its coordinates, wrapped on a periodic grid,
    rounded to 9 decimals."""
    x, y = float(q[0]), float(q[1])
    if grid.periodic:
        N = grid.period
        x, y = np.mod(x, N), np.mod(y, N)
        if x > N - 1e-9:
            x = 0.0
        if y > N - 1e-9:
            y = 0.0
    return (round(x, 9), round(y, 9))


def _face_chart_reference(grid, face, singular_ids, vertex_pos) -> tuple:
    """The per-interval face-chart builder that the one-pass
    `_build_face_chart` replaced, which finds the grid vertices on the face
    polygon by position key: (p, area, phi, r_coef, s_coef as a list of
    trimmed rows, s_knots, vertex_thetas, vertex_phis)."""
    poly = grid.face_polygon(face)
    p = grid.marked_points[face]
    v = poly - p[None, :]
    r = np.hypot(v[:, 0], v[:, 1])
    ph_raw = np.arctan2(v[:, 1], v[:, 0])

    def vid_at(q):
        return vertex_pos.get(_poskey(q, grid))

    start = 0
    for i, q in enumerate(poly):
        w = vid_at(q)
        if w is not None and w in singular_ids:
            start = i
            break
    poly = np.roll(poly, -start, axis=0)
    ph_raw = np.roll(ph_raw, -start)
    r = np.roll(r, -start)
    ph = np.empty(len(ph_raw) + 1)
    ph[0] = ph_raw[0]
    for i in range(1, len(ph_raw)):
        ph[i] = ph_raw[i] + TWO_PI * np.ceil((ph[i - 1] - ph_raw[i]) / TWO_PI - 1e-15)
    ph[-1] = ph[0] + TWO_PI
    rr = np.concatenate([r, [r[0]]])
    h = np.diff(ph)
    breaks = [0]
    for i in range(1, len(poly)):
        if vid_at(poly[i]) is not None:
            breaks.append(i)
    breaks.append(len(poly))
    r_coef = np.empty((len(h), 4))
    for b0, b1 in zip(breaks[:-1], breaks[1:]):
        r_coef[b0:b1] = _piece_coeffs(ph[b0:b1 + 1], rr[b0:b1 + 1])
    s_coef = []
    s_knots = np.empty(len(h) + 1)
    s_knots[0] = 0.0
    for j in range(len(h)):
        sc = P.polyint(0.5 * P.polymul(r_coef[j], r_coef[j]))
        s_coef.append(sc)
        s_knots[j + 1] = s_knots[j] + P.polyval(h[j], sc)
    area = float(s_knots[-1])
    vertex_thetas = []
    for i, q in enumerate(poly):
        w = vid_at(q)
        if w is not None and w in singular_ids:
            vertex_thetas.append((w, float(s_knots[i] / area)))
    vertex_phis = np.array([ph[b] for b in breaks[:-1]])
    return p, area, ph, r_coef, s_coef, s_knots, vertex_thetas, vertex_phis


def test_face_charts_equal_the_per_interval_builder(radial3_form, radial4_form,
                                                    pinwheel_form, periodic_form):
    # bit for bit; a row of s_coef that P.polymul trimmed is zero-padded
    for f in (radial3_form, radial4_form, pinwheel_form, periodic_form):
        g = f.grid
        vertex_pos = {_poskey(v.xy, g): i for i, v in enumerate(g.vertices)}
        singular = {i for i, v in enumerate(g.vertices) if v.valence >= 3}
        for i in range(g.n_faces):
            fc = _build_face_chart(g, i, singular)
            p, area, ph, r_coef, s_rows, s_knots, vth, vph = \
                _face_chart_reference(g, i, singular, vertex_pos)
            assert isinstance(fc.s_coef, np.ndarray)
            assert fc.s_coef.shape == (len(fc.phi) - 1, 8)
            for row, ref in zip(fc.s_coef, s_rows):
                assert row[:len(ref)].tobytes() == ref.tobytes()
                assert not row[len(ref):].any()
            for a, b in ((fc.p, p), (fc.phi, ph), (fc.r_coef, r_coef),
                         (fc.s_knots, s_knots), (fc.vertex_phis, vph)):
                assert a.tobytes() == b.tobytes()
            assert (fc.area, fc.vertex_thetas) == (area, vth)


def test_periodic_face_order_is_read_from_the_faces(periodic_form):
    # the same grid saved with its faces and marked points in reverse order
    doc = json.loads(periodic_form.grid.to_json())
    doc["faces"].reverse()
    doc["marked_points"].reverse()
    f0, f1 = periodic_form, build_form(Grid.from_json(json.dumps(doc)))
    rng = np.random.default_rng(23)
    for x in rng.uniform(0.0, 2.0, size=(60, 2)):
        i0, q0, t0 = f0.face_at(x)
        i1, q1, t1 = f1.face_at(x)
        assert f1.faces[i1].p.tobytes() == f0.faces[i0].p.tobytes()
        assert (q1.tobytes(), t1) == (q0.tobytes(), t0)
        tr0, tr1 = f0.flow(x, 20.0), f1.flow(x, 20.0)
        assert (tr1.classification, tr1.points) == (tr0.classification, tr0.points)
        if tr0.face is not None:
            assert f1.faces[tr1.face].p.tobytes() == f0.faces[tr0.face].p.tobytes()


def test_periodic_grid_of_strips_is_rejected(two_strip_grid_json):
    # a valid grid, but face_at reads a periodic grid's unit cells
    with pytest.raises(FoliationError, match="unit lattice cells as faces"):
        build_form(Grid.from_json(two_strip_grid_json))


def test_non_star_shaped_face_rejected():
    # on a regular grid with strongly curved spokes, a marked point moved
    # inside face 0 near one spoke cannot see the whole face
    g = make_pinwheel_grid(3, 1.0, [0.9, 0.9, 0.9])
    g.marked_points[0] = np.array([0.0208, 0.1522])
    with pytest.raises(FoliationError, match="star-shaped"):
        build_form(g)


def test_irregular_grid_rejected():
    g = make_sector_grid(1.0, [0.6, 0.4])
    with pytest.raises(FoliationError):
        build_form(g)


# -- evaluators ---------------------------------------------------------------

def test_lambda_in_marked_chart(radial4_form):
    f = radial4_form
    fc = f.faces[0]
    a = fc.area
    # at adapted radius R = 0.1: lambda(d/dtheta) = R - a, lambda(leaf) = 0
    t = np.sqrt(0.1 / a)
    x = fc.leaf(0.37, t)
    lam = f.eval_lambda(x)
    dth = t * fc.boundary_velocity(0.37)
    assert lam @ dth == pytest.approx(0.1 - a, abs=1e-10)
    leaf_dir = (x - fc.p) / np.linalg.norm(x - fc.p)
    assert abs(lam @ leaf_dir) < 1e-12


def test_X_in_marked_chart(radial4_form):
    f = radial4_form
    fc = f.faces[0]
    a = fc.area
    t = np.sqrt(0.1 / a)
    x = fc.leaf(0.2, t)
    X = f.eval_X(x)
    # X = (R - a) d/dR: compare against the finite-difference of the leaf map
    h = 1e-7
    R = 0.1
    dxdR = (fc.leaf(0.2, np.sqrt((R + h) / a)) - fc.leaf(0.2, np.sqrt((R - h) / a))) / (2 * h)
    assert np.allclose(X, (R - a) * dxdR, atol=1e-6)
    # pointing at the marked point
    assert X @ (x - fc.p) < 0


def test_lambda_vanishes_on_grid(radial4_form, pinwheel_form):
    for f in (radial4_form, pinwheel_form):
        for fc in f.faces:
            for th in (0.15, 0.45, 0.85):
                x = fc.boundary_point(th)
                if f.chart_at(x) is not None:
                    continue
                assert np.linalg.norm(f.eval_lambda(x)) < 1e-8
                assert np.linalg.norm(f.eval_X(x)) < 1e-8


def test_singular_evaluations_raise(radial4_form):
    f = radial4_form
    with pytest.raises(DomainError):
        f.eval_lambda(f.faces[0].p)
    outside = np.array([2.0, 2.0])
    with pytest.raises(DomainError):
        f.eval_lambda(outside)


def _lambda_reference(f, x) -> np.ndarray:
    """The covector formulas that `eval_lambda = perp(eval_X)` replaced: the
    face-leaf covector ((t^2 - 1) / 2t^2) perp(x - p), the model covector
    of an interior chart, and at a boundary vertex that covector pulled back
    through the collar map."""
    x = np.asarray(x, dtype=float)
    c = f.chart_at(x)
    if c is not None:
        xw = f.wrap(x)
        R, th, s = c.chart_coords(xw)
        r2 = float(s @ s)
        if r2 == 0.0:
            return np.zeros(2)
        vR, vth = c.model_field(R, th)
        lam = vR * perp(s) / (TWO_PI * r2) - vth * TWO_PI * s
        if not c.boundary:
            return lam
        k = c.collar_scale
        dxt = k * perp(xw) / (TWO_PI * float(xw @ xw))
        dyt = -TWO_PI * xw / k
        return lam[0] * dxt + lam[1] * dyt
    i, _, t = f.face_at(x)
    if t < 1e-7:
        raise DomainError("lambda is singular at a marked point")
    fc = f.faces[i]
    xl = fc.p + min_image(x - fc.p, f.grid.period) if f.grid.periodic else x
    _, t = fc.polar(xl)
    return ((t * t - 1.0) / (2.0 * t * t)) * perp(xl - fc.p)


def _face_at_reference(f, x, band):
    """face_at as the loop that labelled every face: (face, the labelled
    point as bytes, t)."""
    def label(fc, x):
        v = x - fc.p
        r = float(np.hypot(v[0], v[1]))
        if r == 0.0:
            return 0.0
        return r / fc.r_of_phi(np.arctan2(v[1], v[0]))

    if f.grid.periodic:
        N = f.grid.period
        xw = np.mod(x, N)
        i, j = int(min(xw[0], N - 1e-12)), int(min(xw[1], N - 1e-12))
        fc = f.faces[j * int(N) + i]
        q = fc.p + min_image(xw - fc.p, N)
        return fc.face, q.tobytes(), label(fc, q)
    best = None
    for fc in f.faces:
        t = label(fc, x)
        if t <= 1.0 + band and (best is None or t < best[2]):
            best = (fc.face, x.tobytes(), t)
    if best is None:
        raise DomainError("point lies outside the disc")
    return best


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_face_at_labels_the_winner_as_the_all_faces_loop(
        radial4_form, pinwheel_form, periodic_form, data):
    f = data.draw(st.sampled_from((radial4_form, pinwheel_form, periodic_form)))
    band = data.draw(st.sampled_from((1e-9, 1e-7, 1e-5)))
    if data.draw(st.integers(0, 9)) == 0:   # a marked point itself
        x = data.draw(st.sampled_from(f.faces)).p.copy()
    elif f.grid.periodic:
        N = f.grid.period
        x = np.array([data.draw(st.floats(-N, 2 * N)) for _ in range(2)])
    else:
        b = 1.05 * f.grid.boundary_radius()
        x = np.array([data.draw(st.floats(-b, b)) for _ in range(2)])
    got = _lambda_or_error(lambda y: f.face_at(y, band), x)
    ref = _lambda_or_error(lambda y: _face_at_reference(f, y, band), x)
    if got is not None:
        i, q, t = got
        got = i, q.tobytes(), t
        # off a periodic grid the labelled point is x itself
        assert f.grid.periodic or q is x
    assert got == ref


def test_no_location_path_computes_theta(radial4_form, pinwheel_form,
                                        periodic_form, monkeypatch):
    # theta labels leaves for the test references; locating, evaluating,
    # sampling, flowing and classifying need only the face, q and t
    def theta_of_phi(self, ph):
        raise AssertionError("a location path computed theta")

    monkeypatch.setattr(FaceChart, "theta_of_phi", theta_of_phi)
    forms = (radial4_form, pinwheel_form, periodic_form)
    samples = []
    for f in forms:
        pts = sample_off_singular(f, 6, np.random.default_rng(3),
                                  chart_margin=0.0, gamma_margin=0.0)
        pts = [*pts, f.faces[0].p, *(np.array(c.ambient_xy(0.5 * c.R_max, 0.1))
                                     for c in f.charts[:2])]
        for x in pts:
            f.face_at(x)
            f.eval_X(x)
            try:
                f.eval_lambda(x)
            except DomainError:       # at a marked point
                pass
            for direction in (1, -1):
                f.flow(x, 20.0, direction)
        samples.append(pts)
    for a, b in ((0, 1), (1, 2), (2, 0)):
        pp = ProductPolarization(forms[a], forms[b])
        for xa, xb in zip(samples[a][:4], samples[b][:4]):
            pp.classify4(np.concatenate([xa, xb]))


def _lambda_or_error(fn, x):
    try:
        return fn(x)
    except DomainError:
        return None


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_lambda_is_quarter_turn_of_X_against_reference(
        radial4_form, pinwheel_form, periodic_form, data):
    # bit for bit on faces and interior charts, within 1e-15 |lambda| on
    # collar charts, where the pullback and the pushforward round apart
    f = data.draw(st.sampled_from((radial4_form, pinwheel_form, periodic_form)))
    unit = st.floats(0.0, 1.0)
    if data.draw(st.booleans()):
        c = data.draw(st.sampled_from(f.charts))
        r = 0.999 * c.ambient_radius() * data.draw(unit)
        a = TWO_PI * data.draw(unit)
        x = c.center + r * np.array([np.cos(a), np.sin(a)])
        if f.grid.periodic:
            x = np.mod(x, f.grid.period)
    elif f.grid.periodic:
        N = f.grid.period
        x = np.array([data.draw(st.floats(0.0, N, exclude_max=True))
                      for _ in range(2)])
    else:
        b = 1.01 * f.grid.boundary_radius()
        x = np.array([data.draw(st.floats(-b, b)) for _ in range(2)])
    lam = _lambda_or_error(f.eval_lambda, x)
    ref = _lambda_or_error(lambda y: _lambda_reference(f, y), x)
    if ref is None or lam is None:
        assert ref is None and lam is None
        return
    c = f.chart_at(x)
    if c is not None and c.boundary:
        assert np.linalg.norm(lam - ref) <= 1e-15 * np.linalg.norm(ref)
    else:
        assert np.array_equal(lam, ref)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_chart_at_equals_the_numpy_ball_test(radial4_form, pinwheel_form,
                                             periodic_form, data):
    f = data.draw(st.sampled_from((radial4_form, pinwheel_form, periodic_form)))
    c = f.charts[data.draw(st.integers(0, len(f.charts) - 1))]
    r = c.ambient_radius() * data.draw(st.floats(0.0, 1.5))
    ang = data.draw(st.floats(0.0, 2 * np.pi))
    x = c.center + r * np.array([np.cos(ang), np.sin(ang)])
    if f.grid.periodic:
        x = x + f.grid.period * np.array(
            data.draw(st.tuples(st.integers(-2, 2), st.integers(-2, 2))))
    # the first chart whose ball holds x by a numpy dot, which may round
    # differently in the last bit, so x stays clear of every ball boundary
    ref = None
    for chart in f.charts:
        v = x - chart.center
        if f.grid.periodic:
            v = min_image(v, f.grid.period)
        r2 = chart.R_max / np.pi
        assume(abs(float(v @ v) - r2) > 1e-12 * r2)
        if ref is None and float(v @ v) < r2:
            ref = chart
    assert f.chart_at(x) is ref


def test_smoothed_vertex_chart_formula(radial4_form):
    # inside the origin chart the covector matches the model formula
    f = radial4_form
    chart = [c for c in f.charts if not c.boundary][0]
    x = chart.center + np.array([0.3, 0.2]) * chart.ambient_radius()
    lam = f.eval_lambda(x)
    R, th, _ = chart.chart_coords(x)
    m = chart.mult
    a_th = R - chart.chi(R) * np.cos(2 * np.pi * m * th)
    a_R = -chart.chi_prime(R) / (2 * np.pi * m) * np.sin(2 * np.pi * m * th)
    # reconstruct through the chart frame
    xi = x - chart.center
    dth = np.array([-xi[1], xi[0]]) / (2 * np.pi * (xi @ xi))
    dR = 2 * np.pi * xi
    assert np.allclose(lam, a_th * dth + a_R * dR, atol=1e-12)
    # X is radial on the branch rays
    ray = chart.center + np.array([chart.ambient_radius() * 0.4, 0.0])
    X = f.eval_X(ray)
    assert abs(X[1]) < 1e-12 and X[0] > 0


def _leaf_maps_by_polyval(fc, ph: float, theta: float) -> tuple:
    """r_of_phi(ph), theta_of_phi(ph), phi_of_theta(theta) and
    boundary_velocity(theta) of a face chart, evaluated with `P.polyval`."""
    def interval(ph):
        ph = fc.phi[0] + np.mod(ph - fc.phi[0], 2 * np.pi)
        j = int(np.searchsorted(fc.phi, ph, side="right")) - 1
        return min(max(j, 0), len(fc.phi) - 2), ph

    j, q = interval(ph)
    r = float(P.polyval(q - fc.phi[j], fc.r_coef[j]))
    th = float((fc.s_knots[j] + P.polyval(q - fc.phi[j], fc.s_coef[j])) / fc.area)
    target = np.mod(theta, 1.0) * fc.area
    k = int(np.searchsorted(fc.s_knots, target, side="right")) - 1
    k = min(max(k, 0), len(fc.phi) - 2)
    lo, hi = 0.0, fc.phi[k + 1] - fc.phi[k]
    goal = target - fc.s_knots[k]
    s = 0.5 * (lo + hi)
    for _ in range(60):
        f = P.polyval(s, fc.s_coef[k]) - goal
        if f > 0:
            hi = s
        else:
            lo = s
        df = 0.5 * P.polyval(s, fc.r_coef[k]) ** 2
        step = f / df if df > 0 else 0.0
        cand = s - step
        s = cand if lo < cand < hi else 0.5 * (lo + hi)
        if hi - lo < 1e-15 * max(1.0, hi):
            break
    phi = float(fc.phi[k] + s)
    j, q = interval(phi)
    rb = float(P.polyval(q - fc.phi[j], fc.r_coef[j]))
    drb = float(P.polyval(q - fc.phi[j], P.polyder(fc.r_coef[j])))
    e = np.array([np.cos(q), np.sin(q)])
    vel = 2.0 * fc.area / (rb * rb) * (drb * e + rb * np.array([-e[1], e[0]]))
    return r, th, phi, vel


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_chi_horner_equals_polyval(radial4_form, pinwheel_form, periodic_form, data):
    forms = (radial4_form, pinwheel_form, periodic_form)
    faces = [fc for f in forms for fc in f.faces]
    fc = faces[data.draw(st.integers(0, len(faces) - 1))]
    ph = data.draw(st.floats(-2 * np.pi, 4 * np.pi))
    theta = data.draw(st.floats(-1.0, 2.0))
    r, th, phi, vel = _leaf_maps_by_polyval(fc, ph, theta)
    assert (fc.r_of_phi(ph), fc.theta_of_phi(ph), fc.phi_of_theta(theta)) == (r, th, phi)
    assert fc.boundary_velocity(theta).tobytes() == vel.tobytes()

    charts = [c for f in forms for c in f.charts]
    chart = charts[data.draw(st.integers(0, len(charts) - 1))]
    e, m = chart.eps, chart.mult
    R = data.draw(st.floats(0.0, 2.0 * e))
    c = np.asarray(chart.bridge)
    if R <= 0.5 * e:
        ref = (R ** (0.5 * m), 0.5 * m * R ** (0.5 * m - 1.0) if R > 0 else 0.0)
    elif R >= e:
        ref = (R, 1.0)
    else:
        ref = (float(P.polyval(R - 0.5 * e, c)),
               float(P.polyval(R - 0.5 * e, P.polyder(c))))
    assert (chart.chi(R), chart.chi_prime(R)) == ref


def test_loop_integrals_approximate_residue(radial4_form):
    f = radial4_form
    for i, fc in enumerate(f.faces):
        a = fc.area
        v = f.residue_loop_integral(i, 1e-3)
        assert v == pytest.approx(1e-3 - a, abs=1e-9)


def test_residue_examples():
    g = make_radial_grid(2, 1.0)   # faces of weight 1/2
    f = build_form(g)
    assert f.residue_loop_integral(0, 1e-2) == pytest.approx(-0.49, abs=1e-3)
    g2 = make_radial_grid(2, 2.0)  # faces of weight 1
    f2 = build_form(g2)
    assert f2.residue_loop_integral(0, 1e-3) == pytest.approx(-0.999, abs=1e-4)


# -- closedness ---------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_closedness_at_random_points(radial3_form, seed):
    rng = np.random.default_rng(seed)
    x = sample_off_singular(radial3_form, 1, rng)[0]
    h = 1e-5
    f = radial3_form
    dl = ((f.eval_lambda(x + [h, 0])[1] - f.eval_lambda(x - [h, 0])[1])
          - (f.eval_lambda(x + [0, h])[0] - f.eval_lambda(x - [0, h])[0])) / (2 * h)
    assert abs(dl - 1.0) < 1e-4


# -- flow ---------------------------------------------------------------------

def test_flow_examples(radial4_form):
    f = radial4_form
    fc = f.faces[2]
    tr = f.flow(fc.leaf(0.4, 0.75), 20.0)
    assert tr.classification == "converged" and tr.face == 2
    assert tr.t_plus is not None and tr.t_plus < 20.0

    # marked point is fixed
    tr0 = f.flow(fc.p, 20.0)
    assert tr0.classification == "converged"
    assert np.allclose(tr0.points[-1][1:], fc.p)

    # smooth edge point stays on the skeleton both ways
    xg = fc.boundary_point(0.5)
    for direction in (1, -1):
        tr1 = f.flow(xg, 20.0, direction=direction)
        for (_, px, py) in tr1.points:
            assert f.grid.grid_distance(np.array([px, py])) < 1e-3


def _theta_leaf_flow(f, start, t_max, direction):
    """f.flow with the face legs it ran before they followed their own ray:
    each leg runs along the leaf theta that face_at labels, through
    boundary_point(theta)."""
    form = type(f)
    thetas = []

    def face_at(x, band=1e-9):
        out = form.face_at(f, x, band)
        fc = f.faces[out[0]]
        ph = fc.polar(out[1])[0]
        thetas.append(0.0 if ph is None else fc.theta_of_phi(ph))
        return out

    def face_leg(fc, u, t, *rest):
        return form._face_leg(f, fc, fc.boundary_point(thetas[-1]) - fc.p, t,
                              *rest)

    f.face_at, f._face_leg = face_at, face_leg
    try:
        return f.flow(start, t_max, direction)
    finally:
        del f.face_at, f._face_leg


# ulps of error in a face leg's chart-ball root t_stop: the ray direction
# u = (q - p)/t and the theta-leaf direction B(theta) - p differ by rounding
LEG_ULPS = 32


def _leg_time_bounds(f, points, t_max, direction) -> list:
    """For each point of a trajectory, a bound on how far its time may move
    when each face leg before it stops at a root t_stop that is LEG_ULPS
    ulps off. A leg from label t that runs for ds has 1 - t_stop^2 =
    (1 - t^2) e^(direction ds), and its time -direction log((1 - t_stop^2)
    / (1 - t^2)) moves by 2 t_stop dt_stop / (1 - t_stop^2): 1/(1 - t_stop^2)
    is its conditioning. A leg that ends at t_max has a time without error."""
    bound = 1e-12
    out = [bound]
    for (s0, *y0), (s1, _, _) in zip(points, points[1:]):
        if s1 < t_max and f.chart_at(np.array(y0)) is None:
            t = f.face_at(np.array(y0))[2]
            gap = (1.0 - t * t) * np.exp(direction * (s1 - s0))
            bound += LEG_ULPS * np.finfo(float).eps / gap
        out.append(bound)
    return out


def _assert_ray_flow_equals_theta_leaf_flow(f, x, t_max, direction):
    # Up to the first leg that ends in a chart ball the two flows run face
    # legs from the same points, which agree to 1e-12, at times that agree
    # up to the legs' conditioning. A chart leg from starts an ulp apart
    # takes other rk45 steps, so its samples are compared through the
    # classification and the arrival time only.
    tr = f.flow(x, t_max, direction)
    ref = _theta_leaf_flow(f, x, t_max, direction)
    assert (tr.classification, tr.note) == (ref.classification, ref.note)
    # A converged trajectory's face is the face of the marked point it
    # reached. A skeleton or undecided one ends where faces meet or may
    # meet, and a chart leg can park it exactly at a vertex, so its face is
    # the face_at tie-break at an end point that moved by the chart leg.
    if tr.classification == "converged":
        assert tr.face == ref.face
    bounds = _leg_time_bounds(f, ref.points, t_max, direction)
    if tr.t_plus is not None or ref.t_plus is not None:
        assert abs(tr.t_plus - ref.t_plus) <= bounds[-1]
    k = next((k for k, (_, *y) in enumerate(ref.points)
              if f.chart_at(np.array(y)) is not None), len(ref.points) - 1)
    assert len(tr.points) > k
    gap = np.abs(np.array(tr.points[:k + 1]) - np.array(ref.points[:k + 1]))
    assert gap[:, 1:].max() <= 1e-12
    assert np.all(gap[:, 0] <= bounds[:k + 1])


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_face_legs_along_the_ray_equal_theta_leaf_legs(
        radial4_form, pinwheel_form, periodic_form, data):
    f = data.draw(st.sampled_from((radial4_form, pinwheel_form, periodic_form)))
    fc = data.draw(st.sampled_from(f.faces))
    x = fc.leaf(data.draw(st.floats(0.0, 1.0, exclude_max=True)),
                data.draw(st.floats(1e-3, 0.999)))
    x = f.wrap(x)
    t_max = data.draw(st.sampled_from((0.5, 3.0, 20.0)))
    direction = data.draw(st.sampled_from((1, -1)))
    _assert_ray_flow_equals_theta_leaf_flow(f, x, t_max, direction)


# two examples the property found on periodic:2, face 0, t = 0.5, backward
# to t_max = 20: at theta = 0.6875 the leaf ends on the radius-0.25 chart
# circle of vertex (0, 1), and its leg time has conditioning 1.25e8; at
# theta = 0.727866 the chart leg parks one flow at that vertex, whose face
# is 2 while the other flow ends in face 0
@pytest.mark.parametrize("theta", [0.6875, 0.727866])
def test_face_legs_along_the_ray_pinned_examples(periodic_form, theta):
    f = periodic_form
    x = f.wrap(f.faces[0].leaf(theta, 0.5))
    _assert_ray_flow_equals_theta_leaf_flow(f, x, 20.0, -1)


def test_flow_off_the_marked_point_never_inverts_theta(
        radial4_form, pinwheel_form, periodic_form, monkeypatch):
    # start points with t > 0, made before phi_of_theta is disabled; some
    # legs end in a chart ball and the flow leaves it for a face again
    forms = (radial4_form, pinwheel_form, periodic_form)
    starts = [(f, f.wrap(fc.leaf(th, t))) for f in forms for fc in f.faces
              for th, t in ((0.1, 0.3), (0.3, 0.6), (0.55, 0.9), (0.8, 0.95))]

    def phi_of_theta(self, theta):
        raise AssertionError("a face leg inverted theta -> phi")

    monkeypatch.setattr(FaceChart, "phi_of_theta", phi_of_theta)
    for f, x in starts:
        for direction in (1, -1):
            f.flow(x, 20.0, direction)


def test_backward_flow_from_the_marked_point_keeps_leaf_zero(
        radial4_form, pinwheel_form, periodic_form):
    # t = 0 gives no ray: the leg runs along leaf 0, the separatrix to the
    # first singular vertex, and stays on the skeleton
    for f in (radial4_form, pinwheel_form, periodic_form):
        for fc in f.faces:
            tr = f.flow(fc.p, 20.0, direction=-1)
            ref = _theta_leaf_flow(f, fc.p, 20.0, -1)
            assert tr.points == ref.points
            assert (tr.classification, tr.face) == ("skeleton", fc.face)


def test_face_zone_flow_is_exact_exponential(radial4_form):
    f = radial4_form
    fc = f.faces[0]
    a = fc.area
    t0 = 0.6
    s = 0.3   # below the finite hitting time -log(1 - t0^2)
    # leaf 0.5 is clear of every chart ball; leaf 0.3 meets one beyond t0
    for theta, direction, note in ((0.3, 1, "budget exhausted"),
                                   (0.5, -1, "backward leg complete")):
        tr = f.flow(fc.leaf(theta, t0), s, direction=direction)
        R_expect = a + (a * t0 * t0 - a) * np.exp(direction * s)
        end = np.asarray(tr.points[-1][1:])
        _, t_end = fc.polar(end)
        assert a * t_end**2 == pytest.approx(R_expect, abs=1e-10)
        assert tr.note == note


def test_backward_face_leg_stops_at_a_chart_ball(radial4_form):
    f = radial4_form
    fc = f.faces[0]
    theta, t0 = 0.3, 0.6
    # entry t of the leaf p + t u into the first chart ball beyond t0
    u = fc.boundary_point(theta) - fc.p
    entries = []
    for c in f.charts:
        v = fc.p - c.center
        qa, qb, qc = u @ u, 2.0 * (u @ v), v @ v - c.ambient_radius() ** 2
        disc = qb * qb - 4.0 * qa * qc
        if disc > 0:
            entries += [r for r in np.roots([qa, qb, qc]) if r > t0]
    t_stop = min(entries)
    assert t_stop < 1.0
    tr = f.flow(fc.leaf(theta, t0), 20.0, direction=-1)
    s1, x1 = tr.points[1][0], np.array(tr.points[1][1:])
    assert s1 == pytest.approx(-np.log((1 - t_stop**2) / (1 - t0**2)), abs=1e-12)
    assert fc.polar(x1)[1] == pytest.approx(t_stop, rel=1e-8)
    assert f.chart_at(x1) is not None


def test_hit_time_formula(radial4_form):
    f = radial4_form
    fc = f.faces[1]
    t0 = 0.35
    tr = f.flow(fc.leaf(0.6, t0), 20.0)
    assert tr.t_plus == pytest.approx(-np.log(1 - t0 * t0), abs=1e-9)


def test_gamma_and_basin_batteries(pinwheel_form):
    r1 = check_basin(pinwheel_form, n=300, seed=3)
    assert r1.ok, r1.line()
    r2 = check_gamma_invariance(pinwheel_form)
    assert r2.ok, r2.line()
    r3 = check_backward_complete(pinwheel_form, n=100)
    assert r3.ok, r3.line()


def test_periodic_flow(periodic_form):
    f = periodic_form
    tr = f.flow(np.array([0.7, 0.41]), 20.0)
    assert tr.classification == "converged" and tr.face == 0
    tr2 = f.flow(np.array([1.3, 0.2]), 20.0)
    assert tr2.classification == "converged" and tr2.face == 1
    # edge point of the lattice grid stays put
    tr3 = f.flow(np.array([0.37, 1.0]), 20.0)
    assert tr3.classification == "skeleton"


def _chart_leg_reference(form, chart, direction) -> tuple:
    """A chart leg's field, stop event and chart inverse as the array
    expressions they were before they moved to Python floats."""
    rc = chart.ambient_radius()

    def to_ambient(R, th):
        r = math.sqrt(max(R, 0.0) / np.pi)
        if not chart.boundary:
            ang = chart.rotation + TWO_PI * th
            return chart.center + r * np.array([math.cos(ang), math.sin(ang)])
        xt = r * math.cos(TWO_PI * th)
        yt = r * math.sin(TWO_PI * th)
        c = chart.collar_scale
        th_q = np.arctan2(chart.center[1], chart.center[0])
        th_d = th_q + TWO_PI * (xt / c)
        R_d = chart.disc_R - c * yt
        rr = math.sqrt(max(R_d, 0.0) / np.pi)
        return rr * np.array([math.cos(th_d), math.sin(th_d)])

    def field(y):
        R, th = max(float(y[0]), 0.0), y[1]
        m = chart.mult
        ang = TWO_PI * m * th
        return direction * np.array([
            R - chart.chi(R) * math.cos(ang),
            chart.chi_prime(R) * math.sin(ang) / (TWO_PI * m)])

    def stop(y):
        v = to_ambient(y[0], y[1]) - chart.center
        if form.grid.periodic:
            v = min_image(v, form.grid.period)
        return rc * (1.0 + 1e-7) - float(np.hypot(v[0], v[1]))

    return field, stop, to_ambient


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_chart_leg_floats_equal_the_array_expressions(
        radial4_form, pinwheel_form, periodic_form, data):
    # interior and collar charts; states on and off the branch rays, at
    # negative R (which the field and the inverse clamp) and past R_max
    form = data.draw(st.sampled_from([radial4_form, pinwheel_form,
                                      periodic_form]))
    chart = form.charts[data.draw(st.integers(0, len(form.charts) - 1))]
    direction = data.draw(st.sampled_from([1, -1]))
    legs = []

    def keep(f, x0, s_end, record=None, **kw):
        trail = []

        def both(s, x):
            trail.append((s, x.copy()))
            record(s, x)
        legs.append((f, kw["stop"], trail))
        return rk45(f, x0, s_end, record=both, **kw)

    x = form.wrap(np.array(chart.ambient_xy(
        chart.R_max * data.draw(st.floats(0.02, 0.95)),
        data.draw(st.floats(0.0, 1.0, exclude_max=True)))))
    s0 = data.draw(st.floats(0.0, 5.0))
    t_max = s0 + data.draw(st.floats(0.5, 20.0))
    pts = []
    liouville2d.rk45 = keep
    try:
        form._chart_leg(chart, x, s0, t_max, direction, pts)
    finally:
        liouville2d.rk45 = rk45
    f, stop, trail = legs[0]
    field_ref, stop_ref, to_ambient = _chart_leg_reference(form, chart,
                                                           direction)
    turns = chart.branch_turns().tolist()
    states = data.draw(st.lists(st.tuples(
        st.floats(-0.1, 3.0),
        st.one_of(st.sampled_from(turns), st.floats(-0.5, 1.5))),
        min_size=32, max_size=32))
    for R, th in states:
        R *= chart.R_max
        y = np.array([R, th])
        assert np.asarray(f(y), dtype=float).tobytes() == \
            field_ref(y).tobytes()
        assert np.float64(stop(y)).tobytes() == \
            np.float64(stop_ref(y)).tobytes()
        assert np.array(chart.ambient_xy(R, th)).tobytes() == \
            to_ambient(R, th).tobytes()
    # the leg's samples: its last 40 states, mapped back and wrapped
    ref = [(s0 + s, *map(float, form.wrap(to_ambient(y[0], y[1]))))
           for s, y in trail[-40:]]
    assert np.array(pts).tobytes() == np.array(ref).tobytes()


# -- splitting ----------------------------------------------------------------

def test_split_weights_residues(radial4_form):
    f = radial4_form
    a = f.faces[0].area  # 0.25 + boundary-resolution epsilon
    sf = split_weights(f, 0, (0.4 * a, 0.6 * a))
    rho = 0.2 * np.linalg.norm(sf.p1 - sf.p2)
    v1 = sf.residue_loop_integral(1, rho)
    v2 = sf.residue_loop_integral(2, rho)
    assert v1 == pytest.approx(-0.4 * a, abs=1e-4)
    assert v2 == pytest.approx(-0.6 * a, abs=1e-4)
    # a tighter loop stays at the same residue (the pole term dominates)
    v1b = sf.residue_loop_integral(1, 0.25 * rho)
    assert v1b == pytest.approx(-0.4 * a, abs=1e-4)


def test_split_rejects_degenerate_parts(radial4_form):
    a = radial4_form.faces[0].area
    with pytest.raises(ValueError):
        split_weights(radial4_form, 0, (a, 0.0))
    with pytest.raises(ValueError):
        split_weights(radial4_form, 0, (0.5 * a, 0.1 * a))


def test_split_flow_unchanged_outside_disc(radial4_form):
    f = radial4_form
    a = f.faces[0].area
    sf = split_weights(f, 0, (0.5 * a, 0.5 * a))
    start = f.faces[0].leaf(0.25, 0.9)
    base = f.flow(start, 3.0)
    split = sf.flow(start, 3.0)
    # pointwise equality until the trajectory enters the split disc
    matched = 0
    for (s, x, y), (sb, xb, yb) in zip(split.points, base.points):
        if sf.in_disc(np.array([x, y])):
            break
        assert s == pytest.approx(sb, abs=1e-12)
        assert (x, y) == pytest.approx((xb, yb), abs=1e-12)
        matched += 1
    assert matched >= 1
    assert split.classification == "converged"
    assert base.face == split.face


def test_split_basin_equality(radial4_form):
    f = radial4_form
    a = f.faces[0].area
    sf = split_weights(f, 0, (0.3 * a, 0.7 * a))
    rng = np.random.default_rng(11)
    pts = sample_off_singular(f, 14, rng, chart_margin=0.0, gamma_margin=1e-3)
    for x in pts:
        i, _, _ = f.face_at(x)
        tr = sf.flow(x, 15.0)
        if i == 0:
            assert tr.classification == "converged"
        else:
            base = f.flow(x, 15.0)
            assert base.face == i


def _stage_pieces(sf, d, x):
    """The piece of the bump (core 0, ramp 1, outside 2) at each RK4 stage
    of the push of x. beta'' jumps between pieces, so the RK4 map is smooth
    only on a set of start points whose stages keep their pieces."""
    lo, hi = sf.r_core**2, (0.85 * sf.r_D) ** 2
    pieces = []
    beta = sf._beta

    def spy(rho2):
        pieces.append(int(rho2 > lo) + int(rho2 >= hi))
        return beta(rho2)

    sf._beta = spy
    try:
        sf._push(d, x)
    finally:
        del sf._beta
    return pieces


@settings(max_examples=80, deadline=None)
@given(r=st.floats(0.0, 1.0), ang=st.floats(0.0, TWO_PI),
       part=st.sampled_from([0.3, 0.5]), which=st.sampled_from([1, 2]))
def test_push_jacobian_is_the_derivative_of_the_push(radial4_form, r, ang,
                                                     part, which):
    f = radial4_form
    a = f.faces[0].area
    sf = split_weights(f, 0, (part * a, (1 - part) * a))
    d = sf.d1 if which == 1 else sf.d2
    x = sf.fc.p + r * sf.r_D * np.array([np.cos(ang), np.sin(ang)])
    # reference: central difference of the pushed point, on a stencil where
    # the RK4 map is smooth
    h = 1e-7
    pieces = _stage_pieces(sf, d, x)
    assume(all(_stage_pieces(sf, d, x + s * h * e) == pieces
               for e in np.eye(2) for s in (1, -1)))
    fd = np.column_stack([(sf._push(d, x + h * e)[0] - sf._push(d, x - h * e)[0])
                          / (2 * h) for e in np.eye(2)])
    _, J = sf._push(d, x)
    assert np.abs(J - fd).max() < 1e-6


def test_push_is_a_translation_on_the_core(radial4_form):
    # on the core X_H = d and DX_H = 0: J stays the identity bit for bit
    f = radial4_form
    a = f.faces[0].area
    sf = split_weights(f, 0, (0.3 * a, 0.7 * a))
    for ang in np.linspace(0.0, TWO_PI, 7):
        x = sf.fc.p + 0.2 * sf.r_D * np.array([np.cos(ang), np.sin(ang)])
        for d in (sf.d1, sf.d2):
            y, J = sf._push(d, x)
            assert np.array_equal(J, np.eye(2))
            assert np.abs(y - (x + d)).max() < 1e-15


def test_gamma_samples_stay_put(radial3_form):
    pts = gamma_samples(radial3_form)
    for x in pts[::5]:
        tr = radial3_form.flow(x, 20.0)
        end = np.asarray(tr.points[-1][1:])
        assert radial3_form.grid.grid_distance(end) < 1e-3


def test_sampler_propagates_non_domain_errors(radial3_form, monkeypatch, rng):
    # points outside the disc (DomainError) are skipped; a bug is not
    def face_at(x, band=1e-9):
        raise TypeError("a bug in point location")

    monkeypatch.setattr(radial3_form, "face_at", face_at)
    with pytest.raises(TypeError, match="a bug in point location"):
        sample_off_singular(radial3_form, 1, rng)


# -- integrator ---------------------------------------------------------------

def test_rk45_propagates_field_bugs():
    def f(x):
        raise TypeError("a bug in the field")

    with pytest.raises(TypeError, match="a bug in the field"):
        rk45(f, [1.0], 1.0)


@pytest.mark.parametrize("value", [np.zeros(3), np.zeros(1), 0.0,
                                   np.zeros((2, 2))])
def test_rk45_rejects_a_field_value_of_the_wrong_shape(value):
    # a shape bug in the field is not a domain error: it raises at once
    # instead of halving the step
    calls = []

    def f(x):
        calls.append(x)
        return value

    with pytest.raises(ValueError, match="shape"):
        rk45(f, [1.0, 0.0], 1.0)
    assert len(calls) == 1


def test_rk45_halves_the_step_at_domain_errors():
    # dx/ds = -x is defined for x > 0 only; large steps put trial points at
    # x <= 0, which must shrink the step rather than end the integration
    raised = []

    def f(x):
        if x[0] <= 0.0:
            raised.append(x[0])
            raise DomainError("outside the domain")
        return -x

    s, x, stopped = rk45(f, [1.0], 30.0)
    assert raised
    assert s == 30.0 and not stopped
    assert abs(x[0] - np.exp(-30.0)) < 1e-12
