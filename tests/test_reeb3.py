"""Reeb dynamics: fields, knots, Hopf structures, chords, the torus."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liouville_lab.geom import polyline_segments, segments_distance
from liouville_lab.reeb3 import (CHORD_TOL, GRID_ROW_BLOCK, LegendrianCurve,
                                 StarshapedHypersurface, _curve_point,
                                 _grid_candidates, alpha_st, chord_search, from_complex,
                                 hopf_project, hopf_sweep,
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
        num = SPHERE.flow_numeric(zz, 1.0)
        assert np.linalg.norm(num - zz) < 1e-9


def _rotation_reference(S, z, t):
    """The sphere's and the ellipsoid's flows as they were written before
    one period-based expression served every surface."""
    z = np.asarray(z, dtype=float)
    t = np.asarray(t, dtype=float)
    w = to_complex(z)
    if S.kind == "sphere":
        return from_complex(w * np.exp(2j * np.pi * t)[..., None])
    a, b = S.params
    w1 = w[..., 0] * np.exp(2j * np.pi * t / a)
    out = np.empty(w1.shape + (2,), dtype=complex)
    out[..., 0] = w1
    out[..., 1] = w[..., 1] * np.exp(2j * np.pi * t / b)
    return from_complex(out)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.floats(-3.0, 3.0))
def test_flow_equals_the_rotation_reference(seed, n, t):
    # scalar t, a t per row, and t beyond z's leading axes, bit for bit
    ts = t + np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    for S in (SPHERE, ELLIPSOID):
        z = surface_samples(S, n, seed)
        for zz, tt in ((z, t), (z, ts), (z[:, None], ts[None, :])):
            assert np.array_equal(S.flow(zz, tt), _rotation_reference(S, zz, tt))


def test_flow_broadcasts_t_beyond_z():
    # t's axis beyond z's leading ones, bit for bit on every surface
    t = np.array([-0.3, 0.0, 0.25, 0.7])
    for S in (SPHERE, ELLIPSOID, BUMPED):
        z = surface_samples(S, 3, seed=4)
        grid = S.flow(z[:, None], t[None, :])
        assert grid.shape == (3, 4, 4)
        single = np.array([[S.flow(zi, ti) for ti in t] for zi in z])
        assert np.array_equal(grid, single), S.kind


def _to_complex_stacked(z):
    """`to_complex` and `from_complex` as they were written with np.stack."""
    return np.stack([z[..., 0] + 1j * z[..., 1], z[..., 2] + 1j * z[..., 3]], axis=-1)


def _from_complex_stacked(w):
    return np.stack([w[..., 0].real, w[..., 0].imag,
                     w[..., 1].real, w[..., 1].imag], axis=-1)


@pytest.mark.parametrize("shape", [(4,), (7, 4), (3, 5, 4)])
def test_complex_views_equal_the_stacked_expressions(shape):
    # bytes, not ==, so that signed zeros count
    rng = np.random.default_rng(len(shape))
    z = rng.normal(size=shape)
    z = np.where(rng.random(shape) < 0.4, np.copysign(0.0, z), z)
    z.reshape(-1)[:2] = [0.0, -0.0]
    w = to_complex(z)
    assert w.tobytes() == _to_complex_stacked(z).tobytes()
    for u in (w, w * np.exp(2j * np.pi * 0.3), w[..., ::-1], np.conj(w)):
        x = from_complex(u)
        assert x.shape == shape
        assert x.tobytes() == _from_complex_stacked(u).tobytes()
        # a fresh array, never a view of the caller's
        assert not np.shares_memory(x, u)


def _q(z):
    return np.stack([z[..., 0] ** 2 + z[..., 1] ** 2,
                     z[..., 2] ** 2 + z[..., 3] ** 2], axis=-1)


@settings(max_examples=12, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=5))
def test_flow_numeric_batch_equals_single_calls(seed, t):
    n = len(t)
    t = np.array(t)
    for S in (SPHERE, ELLIPSOID, BUMPED):
        z = surface_samples(S, n, seed)
        batch = S.flow_numeric(z, t)
        for i in range(n):
            assert np.abs(batch[i] - S.flow_numeric(z[i], t[i])).max() < 1e-9
        assert np.array_equal(S.flow_numeric(z, np.zeros(n)), z)
        # the closed form against the integrated Reeb field
        moved = S.flow(z, t)
        assert np.abs(batch - moved).max() < 1e-9, S.kind
        assert np.abs(_q(moved) - _q(z)).max() < 1e-14, S.kind


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


def test_scalar_target_distance_equals_the_batch_on_one_segment():
    # one segment: k = 1, whose index cKDTree returns unstacked
    ends = SPHERE.project(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.1, 0.0, 0.0]]))
    dist = target_distance_factory([LegendrianCurve("seg", ends, closed=False)])
    X = np.vstack([ends, ends.mean(axis=0), surface_samples(SPHERE, 32, seed=9)])
    batch = dist.batch(X)
    for i, x in enumerate(X):
        assert np.float64(dist(x)).tobytes() == batch[i].tobytes()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-6, 0.5))
def test_capped_target_distance_is_exact_below_the_cap(seed, cap):
    rng = np.random.default_rng(seed)
    ends = SPHERE.project(np.array([[1.0, 0.0, 0.0, 0.0], [1.0, 0.1, 0.0, 0.0]]))
    segment = target_distance_factory([LegendrianCurve("seg", ends, closed=False)])
    on_S = surface_samples(ELLIPSOID, 32, seed)
    # 3x a surface point lies about 1 from the targets: no midpoint within
    # cap + h
    far = 3.0 * on_S[:16]
    for dist, pts in ((BARRIER_DIST, CLOSED_KNOT.points), (segment, ends)):
        near = pts[rng.integers(len(pts), size=32)] + rng.uniform(-1e-3, 1e-3, (32, 4))
        X = np.vstack([on_S, pts[:8], near, far])
        full, capped = dist.batch(X), dist.batch(X, cap=cap)
        below = full < cap
        assert np.array_equal(capped[below], full[below])
        assert np.all(capped[~below] >= cap)
        assert np.all(np.isinf(capped[-len(far):]))


def _grid_candidates_reference(grid, dist_batch, cap):
    """The candidate order as `chord_search` computed it on the whole grid:
    one capped query, then `argwhere` and `lexsort`."""
    D = dist_batch(grid.reshape(-1, 4), cap=cap).reshape(grid.shape[:2])
    local_min = np.zeros_like(D, dtype=bool)
    local_min[1:-1] = (D[1:-1] <= D[:-2]) & (D[1:-1] <= D[2:])
    local_min[-1] = D[-1] < D[-2]
    cand = np.argwhere(local_min & (D < cap))
    cand = cand[np.lexsort((D[cand[:, 0], cand[:, 1]], cand[:, 0]))]
    return [(int(i), int(j)) for i, j in cand]


class _TableDistance:
    """A capped distance that reads the first coordinate as the distance,
    counting the grid rows it is asked for."""

    def __init__(self, n_s):
        self.n_s, self.rows = n_s, 0

    def __call__(self, X, cap=np.inf):
        self.rows += len(X) // self.n_s
        return np.where(X[:, 0] < cap, X[:, 0], np.inf)


B = GRID_ROW_BLOCK
# rows at which a stop rule fires: inside the first block, where a dip's
# right neighbour ends the first block or starts the second, on the first
# row of the second block, and on the last row
STOP_ROWS = {"first block": 1, "block end": B - 2, "block crossing": B - 1,
             "block start": B, "last row": -1, "never": None}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(B + 1, 4 * B + 2),
       st.integers(1, 40), st.sampled_from(sorted(STOP_ROWS)))
def test_lazy_grid_candidates_equal_the_eager_reference(seed, n_t, n_s, where):
    # few distinct levels, so rows hold many ties and more than 16
    # candidates; inf and values >= cap stand for capped points
    rng = np.random.default_rng(seed)
    cap = 2.5
    levels = np.array([0.0, 0.5, 1.0, 2.0, 3.0, np.inf])
    D = levels[rng.integers(len(levels), size=(n_t, n_s))]
    stop = STOP_ROWS[where]
    if stop is not None:
        stop %= n_t
        # a candidate on the stop row: the smallest level, falling into it
        D[stop, rng.integers(n_s)] = 0.0
        D[stop - 1, :] = np.maximum(D[stop - 1, :], 0.5)
    grid = np.zeros((n_t, n_s, 4))
    grid[..., 0] = D
    ref = _grid_candidates_reference(grid, _TableDistance(n_s), cap)
    dist = _TableDistance(n_s)
    got = []
    for i, j in _grid_candidates(grid, dist, cap):
        got.append((int(i), int(j)))
        if stop is not None and i >= stop:
            break
    assert got == ref[:len(got)]
    if stop is None:
        assert len(got) == len(ref)
        assert dist.rows == n_t
    else:
        # stopped at the first candidate on or past the stop row
        assert got[-1][0] == stop and all(i < stop for i, _ in got[:-1])
        # rows up to stop + 1, in whole blocks
        assert dist.rows == min(n_t, -(-(stop + 2) // B) * B)


def test_grid_candidates_equal_the_reference_on_a_flowed_grid():
    knot = CLOSED_KNOT
    seeds = knot.points[np.linspace(0, len(knot.points) - 1, 48).astype(int)]
    ts = np.linspace(1e-3, 1.0, 61)
    for sgn in (1, -1):
        grid = ELLIPSOID.flow(seeds, sgn * ts[:, None])
        ref = _grid_candidates_reference(grid, BARRIER_DIST.batch, 0.25)
        got = [(int(i), int(j)) for i, j in
               _grid_candidates(grid, BARRIER_DIST.batch, 0.25)]
        assert len(ref) > 20
        assert got == ref


@pytest.fixture(scope="module")
def self_orbit_chords():
    # a Reeb orbit arc used as both source and target: chords at every T
    return chord_search(SPHERE, OPEN_ARC, [OPEN_ARC], T_max=0.15)


def test_degenerate_self_orbit_flagged(self_orbit_chords):
    assert self_orbit_chords
    assert any(not c.transversal for c in self_orbit_chords)


def test_short_self_orbit_chords_are_not_transversal(self_orbit_chords):
    # the arc runs for time 0.2 from s = 0 to 1; a chord (s, T) with T < 0.02
    # is probed at T/2 and 3T/2, so with more than T/2 of arc left past its
    # end both probes lie on the arc
    short = [c for c in self_orbit_chords
             if c.T < 0.02 and 0.2 * (1.0 - c.start_param) - c.T > 0.5 * c.T]
    assert short
    assert not any(c.transversal for c in short), [
        (c.start_param, c.T) for c in short if c.transversal]


def test_chord_search_on_the_bumped_sphere():
    # every chord found must end on the level set, on a target, and flow
    # back to its start under the integrated Reeb field
    knot = legendrian_great_circle(BUMPED)
    targets = [knot, *legendrian_graph(BUMPED, 3, n_samples=512)]
    chords = chord_search(BUMPED, knot, targets, T_max=2 / 3 + 1e-3,
                          direction=1, n_seed=24, n_time=32)
    assert chords
    lines = [np.vstack([c.points, c.points[:1]]) if c.closed else c.points
             for c in targets]
    segs = polyline_segments(lines)
    for c in chords:
        assert abs(BUMPED.H(c.end_point) - 1.0) < 1e-9
        assert segments_distance(c.end_point[None], segs)[0] < CHORD_TOL
        back = BUMPED.flow_numeric(c.end_point, -c.T)
        assert np.abs(back - c.start_point).max() < 1e-8


def _turned(curve, a, b):
    """The curve under (z1, z2) -> (e^{2 pi i a} z1, e^{2 pi i b} z2), a
    symmetry of the sphere and the ellipsoid that commutes with the Reeb
    flow."""
    phase = np.exp(2j * np.pi * np.array([a, b]))
    return replace(curve, points=from_complex(to_complex(curve.points) * phase),
                   velocities=from_complex(to_complex(curve.velocities) * phase))


def test_shortest_chord_is_invariant_under_quarter_turns():
    # criterion 8's 40 searches, each also run under one quarter turn of knot
    # and barrier: the shortest chord must not follow the grid's rounding
    turns = [(0.25, 0.0), (0.0, 0.25), (0.5, 0.75), (0.25, 0.25)]
    n = 0
    for S in (SPHERE, ELLIPSOID):
        for k in (2, 3):
            barrier = legendrian_graph(S, k, n_samples=512)
            for knot in shipped_knots(S):
                for direction in (1, -1):
                    a, b = turns[n % len(turns)]
                    n += 1
                    T = []
                    for curves in ([knot, *barrier],
                                   [_turned(c, a, b) for c in [knot, *barrier]]):
                        cs = chord_search(S, curves[0], curves,
                                          T_max=2.0 / k + 1e-3,
                                          direction=direction, n_seed=96,
                                          n_time=128)
                        T.append(cs[0].T)
                    assert abs(T[0] - T[1]) < 1e-6, (S.kind, k, knot.name,
                                                     direction, (a, b), T)


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
