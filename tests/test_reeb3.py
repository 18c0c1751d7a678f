"""Reeb dynamics: fields, knots, Hopf structures, chords, the torus."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab.geom import polyline_segments, segments_distance
from liouville_lab.reeb3 import (LegendrianCurve, StarshapedHypersurface,
                                 _curve_point, alpha_st, chord_search,
                                 from_complex, hopf_project, hopf_sweep,
                                 legendrian_graph, legendrian_great_circle,
                                 mohnke_torus, omega_st, reeb_field,
                                 shipped_knots, spherical_polygon_area,
                                 target_distance_factory, to_complex)

SPHERE = StarshapedHypersurface("sphere")
ELLIPSOID = StarshapedHypersurface("ellipsoid", (0.9, 0.8))
BUMPED = StarshapedHypersurface("bumped", (0.15,))


@pytest.fixture(scope="module")
def sphere_arcs():
    return legendrian_graph(SPHERE, 3)


def surface_samples(S, n, seed=0):
    rng = np.random.default_rng(seed)
    return S.project(rng.normal(size=(n, 4)))


def tangent_projection(S, z, w):
    g = S.grad_H(z)
    return w - g * (np.sum(g * w, axis=-1) / np.sum(g * g, axis=-1))[..., None]


def test_reeb_normalization_on_all_surfaces():
    rng = np.random.default_rng(3)
    for S in (SPHERE, ELLIPSOID, BUMPED):
        z = surface_samples(S, 1000)
        R = S.reeb(z)
        assert np.abs(alpha_st(z, R) - 1.0).max() < 1e-8
        w = tangent_projection(S, z, rng.normal(size=z.shape))
        assert np.abs(omega_st(R, w)).max() < 1e-6 * np.linalg.norm(w, axis=1).max()


def test_reeb_field_requires_on_surface_points():
    with pytest.raises(ValueError):
        reeb_field(SPHERE, np.array([1.0, 0.0, 0.0, 0.0]))


def test_round_sphere_hopf_flow():
    z = surface_samples(SPHERE, 16, seed=5)
    # closed form is the Hopf rotation
    moved = SPHERE.flow(z, 0.25)
    w = to_complex(z) * np.exp(2j * np.pi * 0.25)
    assert np.abs(from_complex(w) - moved).max() < 1e-15
    # orbit through (r, 0, 0, 0) has period 1
    z0 = np.array([1 / np.sqrt(np.pi), 0.0, 0.0, 0.0])
    assert np.abs(SPHERE.flow(z0, 1.0) - z0).max() < 1e-15
    # numeric integration agrees to 1e-9 over one period
    for zz in z[:4]:
        num = SPHERE.flow_numeric_single(zz, 1.0)
        assert np.linalg.norm(num - zz) < 1e-9


def test_ellipsoid_orbit_periods():
    a, b = ELLIPSOID.params
    z1 = np.array([np.sqrt(a / np.pi), 0.0, 0.0, 0.0])
    assert np.abs(ELLIPSOID.flow(z1, a) - z1).max() < 1e-12
    z2 = np.array([0.0, 0.0, np.sqrt(b / np.pi), 0.0])
    assert np.abs(ELLIPSOID.flow(z2, b) - z2).max() < 1e-12


def test_legendrian_graph_structure(sphere_arcs):
    k = 3
    arcs = {a.name: a for a in sphere_arcs}
    assert len(arcs) == k * k
    assert max(a.defect for a in sphere_arcs) < 1e-9
    # endpoint sharing iff exactly one index differs
    def endpoints(a):
        return {tuple(np.round(a.points[0], 9)), tuple(np.round(a.points[-1], 9))}

    q00, q01, q11 = arcs["Q[0,0]"], arcs["Q[0,1]"], arcs["Q[1,1]"]
    assert endpoints(q00) & endpoints(q01)
    assert endpoints(q01) & endpoints(q11)
    assert not endpoints(q00) & endpoints(q11)
    # disjointness when both indices differ (sampled distance)
    d = min(np.linalg.norm(p - q) for p in q00.points[::40]
            for q in q11.points[::40])
    assert d > 0.1


def test_graph_arcs_count_k2():
    assert len(legendrian_graph(SPHERE, 2, n_samples=64)) == 4


def test_shipped_knots_are_legendrian_on_both_surfaces():
    for S in (SPHERE, ELLIPSOID):
        for kn in shipped_knots(S):
            assert kn.defect < 1e-9, kn.name
            assert kn.level_error(S) < 1e-9, kn.name


def test_cyclic_action_on_arcs(sphere_arcs):
    k = 3
    arcs = {a.name: a for a in sphere_arcs}
    for j in range(k):
        moved = SPHERE.flow(arcs[f"Q[0,{j}]"].points, 1.0 / k)
        target = arcs[f"Q[1,{(j + 1) % k}]"].points
        assert np.abs(moved - target).max() < 1e-12


def test_hopf_projection_invariance_and_meridians(sphere_arcs):
    z = surface_samples(SPHERE, 200, seed=2)
    p0 = hopf_project(z)
    p1 = hopf_project(SPHERE.flow(z, 0.37))
    assert np.abs(p0 - p1).max() < 1e-12
    h = hopf_project(sphere_arcs[0].points)
    assert abs(h[0, 2] - 1.0) < 1e-9 and abs(h[-1, 2] + 1.0) < 1e-9


def test_hopf_sweep_components_and_areas():
    for k in (2, 3):
        sw = hopf_sweep(k, 1.0 / k, n_test=12000)
        assert sw.component_count == k
        assert np.allclose(sw.disc_areas, 1.0 / k, atol=1e-3)


def test_cone_over_barrier_contains_product_grid(sphere_arcs):
    # sampled inclusion: radial projections of product-grid points land on
    # the barrier arcs
    dist = target_distance_factory(sphere_arcs)
    rng = np.random.default_rng(8)
    k = 3
    for _ in range(200):
        i, j = rng.integers(0, k, 2)
        s1, s2 = rng.uniform(0.05, 2.0, 2)
        x = s1 * np.array([np.cos(2 * np.pi * i / k), np.sin(2 * np.pi * i / k)])
        y = s2 * np.array([np.cos(2 * np.pi * j / k), np.sin(2 * np.pi * j / k)])
        z = np.array([x[0], x[1], y[0], y[1]])
        on_S = SPHERE.project(z)
        assert dist(on_S) < 1e-6


def test_chord_from_arc_has_length_one_over_k(sphere_arcs):
    chords = chord_search(SPHERE, sphere_arcs[1], sphere_arcs, T_max=0.5)
    assert chords
    assert min(abs(c.T - 1.0 / 3) for c in chords) < 1e-6


def test_chords_both_directions_for_great_circle(sphere_arcs):
    knot = legendrian_great_circle(SPHERE)
    targets = [knot] + sphere_arcs
    for direction in (1, -1):
        cs = chord_search(SPHERE, knot, targets, T_max=2 / 3 + 1e-3,
                          direction=direction)
        assert cs, f"no chord in direction {direction}"
        assert cs[0].T <= 2 / 3 + 1e-3
        assert cs[0].distance < 1e-5


def orbit_arc():
    """A Reeb orbit arc on the sphere, an open curve."""
    s = np.linspace(0.0, 0.2, 400)
    z0 = SPHERE.project(np.array([0.5, 0.1, 0.7, -0.2]))
    pts = SPHERE.flow(np.tile(z0, (len(s), 1)), s)
    return LegendrianCurve("orbit-arc", pts, closed=False, surface=SPHERE)


# the chord search's zoom rows go through the array kernels below, and the
# Nelder-Mead polish through their scalar calls; the two must agree bit for
# bit for the batched zoom to pick the same points as a scalar one
CLOSED_KNOT = shipped_knots(ELLIPSOID)[2]
OPEN_ARC = orbit_arc()
BARRIER_DIST = target_distance_factory([CLOSED_KNOT, *legendrian_graph(ELLIPSOID, 3)])


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(-0.3, 1.3), min_size=1, max_size=16))
def test_curve_point_batch_equals_scalar(s):
    for curve in (CLOSED_KNOT, OPEN_ARC):
        batch = _curve_point(curve, np.array(s))
        for i, si in enumerate(s):
            assert np.array_equal(batch[i], _curve_point(curve, si))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_target_distance_batch_equals_scalar(seed):
    X = surface_samples(ELLIPSOID, 64, seed)
    batch = BARRIER_DIST.batch(X)
    assert all(batch[i] == BARRIER_DIST(x) for i, x in enumerate(X))


def test_target_distance_equals_brute_force():
    # the k = 8 nearest-midpoint candidates hold the nearest segment on the
    # 20 target sets of criterion 8 (a knot plus a k = 2 or 3 barrier)
    rng = np.random.default_rng(8)
    for S in (SPHERE, ELLIPSOID):
        for k in (2, 3):
            barrier = legendrian_graph(S, k, n_samples=512)
            for knot in shipped_knots(S):
                targets = [knot, *barrier]
                lines = [np.vstack([c.points, c.points[:1]]) if c.closed
                         else c.points for c in targets]
                segs = polyline_segments(lines)
                on_curves = np.vstack(lines)
                X = np.vstack([
                    S.project(rng.normal(size=(64, 4))),
                    on_curves[rng.integers(len(on_curves), size=64)]
                    + rng.uniform(-1e-3, 1e-3, size=(64, 4)) / 2.0])
                brute = np.concatenate([segments_distance(X[i:i + 16], segs)
                                        for i in range(0, len(X), 16)])
                got = target_distance_factory(targets).batch(X)
                assert np.array_equal(got, brute), (S.kind, k, knot.name)


def test_target_distance_to_a_single_segment():
    # one segment means one nearest neighbour, which cKDTree returns unstacked
    ends = SPHERE.project(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.1, 0.0, 0.0]]))
    dist = target_distance_factory([LegendrianCurve("seg", ends, closed=False)])
    mid = ends.mean(axis=0)
    assert np.allclose(dist.batch(np.vstack([ends, mid])), 0.0, atol=1e-15)
    assert dist(ends[1] + [0.0, 0.0, 0.3, 0.0]) == pytest.approx(0.3)


def test_degenerate_self_orbit_flagged():
    # a Reeb orbit arc used as both source and target: chords at every T
    cs = chord_search(SPHERE, OPEN_ARC, [OPEN_ARC], T_max=0.15)
    assert cs
    assert any(not c.transversal for c in cs)


def test_mohnke_torus_quantities():
    knot = legendrian_great_circle(SPHERE)
    tor = mohnke_torus(SPHERE, knot, T=0.3, eps=0.12)
    assert abs(tor.action_knot) < 1e-6
    assert abs(tor.action_disc - 0.3) < 1e-6
    assert tor.omega_defect < 1e-6
    assert abs(tor.disc_area - 0.3) < 1e-12


def test_mohnke_rejects_when_chord_exists(sphere_arcs):
    with pytest.raises(ValueError, match="chord"):
        mohnke_torus(SPHERE, sphere_arcs[0], T=0.5, eps=0.2,
                     extra_targets=tuple(sphere_arcs[1:]))


def test_spherical_area_of_full_lune():
    # quarter-lune between meridians 90 degrees apart
    t = np.linspace(0, np.pi, 400)
    mer1 = np.stack([np.sin(t), np.zeros_like(t), np.cos(t)], axis=1)
    mer2 = np.stack([np.zeros_like(t), np.sin(t), np.cos(t)], axis=1)
    path = np.vstack([mer1, mer2[::-1]])
    assert abs(abs(spherical_polygon_area(path)) - 0.25) < 1e-6
