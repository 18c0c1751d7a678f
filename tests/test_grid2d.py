"""Grid construction, areas, regularity, distance, and file round-trips."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from liouville_lab import geom
from liouville_lab.geom import (SegmentIndex, polyline_segments,
                                segments_distance)
from liouville_lab.grid2d import (Grid, GridError, make_periodic_grid,
                                  make_pinwheel_grid, make_radial_grid,
                                  make_sector_grid, point_in_polygon,
                                  validate_regular)


def shoelace_fraction(poly):
    """Exact rational shoelace oracle (independent of the float implementation)."""
    total = Fraction(0)
    n = len(poly)
    for i in range(n):
        x0, y0 = (Fraction(float(poly[i][0])), Fraction(float(poly[i][1])))
        x1, y1 = (Fraction(float(poly[(i + 1) % n][0])),
                  Fraction(float(poly[(i + 1) % n][1])))
        total += x0 * y1 - x1 * y0
    return total / 2


def test_radial_k2_is_a_diameter():
    g = make_radial_grid(2, 1.0)
    areas = g.face_areas()
    assert np.allclose(areas, [0.5, 0.5], atol=1e-12)
    # the two spokes are collinear: the grid is a straight diameter
    d0 = g.arcs[0].points[-1] - g.arcs[0].points[0]
    d1 = g.arcs[1].points[-1] - g.arcs[1].points[0]
    assert abs(d0 @ d1 + np.linalg.norm(d0) * np.linalg.norm(d1)) < 1e-12


def test_radial_k4_equal_areas():
    g = make_radial_grid(4, 1.0)
    assert np.allclose(g.face_areas(), 0.25, atol=1e-12)


def test_radial_k3_area3():
    g = make_radial_grid(3, 3.0)
    areas = g.face_areas()
    assert np.allclose(areas, [1.0, 1.0, 1.0], atol=1e-12)
    assert abs(areas.sum() - 3.0) < 1e-12


def test_radial_rejects_k1():
    with pytest.raises(GridError):
        make_radial_grid(1, 1.0)
    with pytest.raises(GridError):
        make_radial_grid(4, -1.0)


def test_periodic_grids():
    g1 = make_periodic_grid(1)
    assert g1.n_faces == 1
    assert np.allclose(g1.face_areas(), [1.0])
    assert np.allclose(g1.marked_points[0], [0.5, 0.5])
    g2 = make_periodic_grid(2)
    assert g2.n_faces == 4
    assert np.allclose(g2.face_areas(), 1.0)
    g3 = make_periodic_grid(3)
    assert abs(g3.face_areas().sum() - 9.0) < 1e-12
    # marked points fill the half-integer lattice
    expect = {(i + 0.5, j + 0.5) for i in range(3) for j in range(3)}
    got = {(round(p[0], 6), round(p[1], 6)) for p in g3.marked_points}
    assert got == expect


def test_perturbed_diameter_areas():
    # sector construction makes the areas exact: the oracle is the sector
    # formula fraction * A, cross-checked by exact rational shoelace
    g = make_sector_grid(1.0, [0.6, 0.4])
    areas = g.face_areas()
    assert abs(areas[0] - 0.6) < 1e-12
    assert abs(areas[1] - 0.4) < 1e-12
    oracle = [float(shoelace_fraction(g.face_polygon(i))) for i in range(2)]
    assert np.allclose(areas, oracle, atol=1e-12)
    assert g.max_face_area() == pytest.approx(0.6, abs=1e-12)


def test_max_face_area():
    assert make_radial_grid(4, 1.0).max_face_area() == pytest.approx(0.25, abs=1e-12)
    assert make_periodic_grid(2).max_face_area() == pytest.approx(1.0, abs=1e-12)


def test_radial_regularity_certificate_is_exact():
    for k in range(2, 7):
        cert = validate_regular(make_radial_grid(k, 1.0))
        assert cert.ok
        assert cert.max_deviation() < 1e-12


def test_unequal_sectors_fail_regularity():
    g = make_sector_grid(1.0, [0.5, 0.3, 0.2])
    cert = validate_regular(g)
    assert not cert.ok
    assert cert.offender == 0  # the origin vertex
    sectors = sorted(cert.offender_entry().sector_angles)
    assert np.allclose(sorted([0.5, 0.3, 0.2]),
                       sorted(s / (2 * np.pi) for s in sectors), atol=1e-9)


def test_t_vertex_with_straight_crossing_fails():
    # interior 3-valent vertex with sectors (pi/2, pi/2, pi)
    g = make_sector_grid(1.0, [0.25, 0.25, 0.5])
    cert = validate_regular(g)
    assert not cert.ok
    entry = cert.offender_entry()
    assert sorted(np.round(entry.sector_angles, 6)) == sorted(
        np.round([np.pi / 2, np.pi / 2, np.pi], 6))


def test_pinwheel_regular_with_unequal_areas():
    g = make_pinwheel_grid(3, 2.0, [0.35, -0.25, 0.1])
    cert = validate_regular(g)
    assert cert.ok
    areas = g.face_areas()
    assert areas.std() > 0.01      # genuinely unequal weights
    assert abs(areas.sum() - 2.0) < 1e-12


def test_marked_points_inside_faces():
    for g in (make_radial_grid(5, 2.0), make_pinwheel_grid(4, 1.0, [0.2, -0.1, 0.15, 0.0]),
              make_periodic_grid(2)):
        for i in range(g.n_faces):
            assert point_in_polygon(g.marked_points[i], g.face_polygon(i))


def test_connectivity_and_valence_validation():
    import copy

    from liouville_lab.grid2d import Arc, Vertex

    g = make_radial_grid(3, 1.0)
    bad = copy.deepcopy(g)
    # a dangling whisker creates two 1-valent vertices
    n = len(bad.vertices)
    bad.vertices.append(Vertex(np.array([0.1, 0.02])))
    bad.vertices.append(Vertex(np.array([0.2, 0.02])))
    bad.arcs.append(Arc(n, n + 1, np.array([[0.1, 0.02], [0.2, 0.02]])))
    with pytest.raises(GridError):
        Grid(1.0, bad.vertices, bad.arcs, bad.faces, bad.marked_points)

    disc = copy.deepcopy(g)
    # an arc island disconnects the graph
    n = len(disc.vertices)
    disc.vertices.append(Vertex(np.array([0.1, 0.02])))
    disc.vertices.append(Vertex(np.array([0.2, 0.02])))
    pts = np.array([[0.1, 0.02], [0.15, 0.05], [0.2, 0.02]])
    disc.arcs.append(Arc(n, n + 1, pts))
    disc.arcs.append(Arc(n, n + 1, pts + [0.0, 1e-4]))
    with pytest.raises(GridError):
        Grid(1.0, disc.vertices, disc.arcs, disc.faces, disc.marked_points)


def test_json_roundtrip_bit_exact():
    for g in (make_radial_grid(4, 1.0), make_periodic_grid(2),
              make_pinwheel_grid(3, 1.5, [0.3, -0.2, 0.05])):
        text = g.to_json()
        g2 = Grid.from_json(text)
        assert g2.to_json() == text
        assert np.array_equal(g2.face_areas(), g.face_areas())


@settings(max_examples=25, deadline=None)
@given(k=st.integers(2, 9), A=st.floats(0.2, 8.0))
def test_partition_property(k, A):
    g = make_radial_grid(k, A)
    areas = g.face_areas()
    assert np.all(areas > 0)
    assert abs(areas.sum() - A) < 1e-6 * A


@settings(max_examples=15, deadline=None)
@given(st.integers(1, 4))
def test_periodic_partition_property(N):
    g = make_periodic_grid(N)
    assert abs(g.face_areas().sum() - N * N) < 1e-6 * N * N
    assert g.n_faces == N * N


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(0.05, 0.5), min_size=2, max_size=5))
def test_sector_partition_property(raw):
    fracs = np.array(raw)
    fracs = np.round(fracs / fracs.sum(), 3)
    fracs[-1] = 1.0 - fracs[:-1].sum()
    if np.any(fracs < 0.05):
        return
    g = make_sector_grid(1.0, fracs, base_segments=1000)
    assert np.allclose(g.face_areas(), fracs, atol=1e-12)


DISTANCE_GRIDS = {
    "radial:4": make_radial_grid(4, 1.0),
    "pinwheel": make_pinwheel_grid(3, 1.0, [0.35, -0.25, 0.1]),
    "periodic:2": make_periodic_grid(2),
}


def _brute_grid_distance(g: Grid, x) -> float:
    """Distance to every segment of every arc (nine images when periodic)."""
    segs = polyline_segments([a.points for a in g.arcs])
    if g.periodic:
        N = g.period
        x = np.mod(x, N) + N * np.array([[dx, dy] for dx in (-1.0, 0.0, 1.0)
                                         for dy in (-1.0, 0.0, 1.0)])
        return float(np.min(segments_distance(x, segs)))
    return float(segments_distance(x, segs))


def _draw_point(draw, polylines, size: float, center) -> np.ndarray:
    """A point inside the domain, on a polyline vertex, on a segment, up to
    distance 1 beyond the domain's edge, or far outside."""
    unit = st.floats(0.0, 1.0)
    kind = draw(st.sampled_from(["inside", "vertex", "segment", "beyond",
                                 "far"]))
    if kind in ("vertex", "segment"):
        pts = polylines[draw(st.integers(0, len(polylines) - 1))]
        i = draw(st.integers(0, len(pts) - 2))
        w = draw(unit) if kind == "segment" else 0.0
        return (1.0 - w) * pts[i] + w * pts[i + 1]
    ang = 2.0 * np.pi * draw(unit)
    if kind == "inside":
        r = size * draw(unit)
    elif kind == "beyond":
        r = size + draw(unit)
    else:
        r = size * draw(st.floats(2.0, 50.0))
    return center + r * np.array([np.cos(ang), np.sin(ang)])


@st.composite
def _grid_and_point(draw):
    name = draw(st.sampled_from(sorted(DISTANCE_GRIDS)))
    g = DISTANCE_GRIDS[name]
    if g.periodic:
        size, center = 0.5 * g.period, 0.5 * g.period * np.ones(2)
    else:
        size, center = g.boundary_radius(), np.zeros(2)
    return name, _draw_point(draw, [a.points for a in g.arcs], size, center)


@settings(max_examples=300, deadline=None)
@given(_grid_and_point())
# beyond 3h of the grid: the first ball of the index's query (radius 4h) is
# empty, so it widens; a marked point of periodic:2 is 0.5 from the grid
@example(("radial:4", np.array([1.2, 0.9])))
@example(("pinwheel", np.array([0.0, -1.5])))
@example(("periodic:2", np.array([0.5, 0.5])))
@example(("periodic:2", np.array([-2.7, 9.3])))
def test_grid_distance_equals_brute_force(grid_and_point):
    name, x = grid_and_point
    g = DISTANCE_GRIDS[name]
    d, ref = g.grid_distance(x), _brute_grid_distance(g, x)
    assert np.float64(d).tobytes() == np.float64(ref).tobytes(), (name, x, d, ref)


# arcs forbid repeated points, so the zero-length case is an index over the
# radial:4 arcs plus a one-point polyline off the grid
ZERO_LENGTH_POLYLINES = ([a.points for a in DISTANCE_GRIDS["radial:4"].arcs]
                         + [np.array([[0.2, 0.1], [0.2, 0.1]])])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_segment_index_with_a_zero_length_segment(data):
    segs = polyline_segments(ZERO_LENGTH_POLYLINES)
    index = SegmentIndex(segs)
    x = _draw_point(data.draw, ZERO_LENGTH_POLYLINES, 0.6, np.zeros(2))
    images = x + np.array([[0.0, 0.0], [1e-3, 0.0], [0.0, -2e-3]])
    for p in (x, images):
        d = index.distance(p)
        ref = float(np.min(segments_distance(p, segs)))
        assert np.float64(d).tobytes() == np.float64(ref).tobytes(), (p, d, ref)


# one long segment (half-length h = 1) and a short one: from (4.2, 0) the
# short segment lies in the first ball (radius 4h) at 3.9, but the long one,
# 3.2 away, has its midpoint 4.2 away, outside that ball; the index must
# widen the ball to find it. The other points leave the first ball empty.
LONG_AND_SHORT = [np.array([[-1.0, 0.0], [1.0, 0.0]]),
                  np.array([[4.2, 3.9], [4.2, 3.95]])]


@pytest.mark.parametrize("p", [[4.2, 0.0], [20.0, 0.0], [0.0, -30.0],
                               [[4.2, 0.0], [40.0, 40.0]]])
def test_segment_index_widens_its_ball(p):
    segs = polyline_segments(LONG_AND_SHORT)
    d = SegmentIndex(segs).distance(p)
    ref = float(np.min(segments_distance(p, segs)))
    assert np.float64(d).tobytes() == np.float64(ref).tobytes(), (p, d, ref)


def _kernel(limit, p, segs):
    """segments_distance with FLOAT_PAIRS set to `limit`: 0 keeps every
    input on the array kernel, inf sends every planar one with a shared
    segment set to the float kernel. Returns the result or the exception's
    type, and whether the float kernel ran."""
    saved, floats = geom.FLOAT_PAIRS, geom._segments_distance_floats
    ran = []

    def spy(*args):
        ran.append(True)
        return floats(*args)
    geom.FLOAT_PAIRS, geom._segments_distance_floats = limit, spy
    try:
        with np.errstate(invalid="ignore", over="ignore"):
            out = segments_distance(p, segs)
    except Exception as exc:  # noqa: BLE001 - compared by type
        out = type(exc)
    finally:
        geom.FLOAT_PAIRS, geom._segments_distance_floats = saved, floats
    return out, bool(ran)


def _same(u, v) -> bool:
    """The same exception type, or results of one type and shape with the
    same bits, where a nan need only meet a nan: its sign and payload
    depend on the order in which nans meet."""
    if isinstance(u, type) or isinstance(v, type):
        return u is v
    if type(u) is not type(v) or np.shape(u) != np.shape(v):
        return False
    u, v = np.asarray(u), np.asarray(v)
    nan = np.isnan(u)
    return (np.array_equal(nan, np.isnan(v))
            and u[~nan].tobytes() == v[~nan].tobytes())


_coord = st.floats(-2.0, 2.0)


@st.composite
def _polylines_and_points(draw):
    """Polylines, some with a repeated point (a zero-length segment), and
    one point or a stack of points: anywhere, on a segment, at an endpoint
    or non-finite."""
    lines = []
    for _ in range(draw(st.integers(1, 3))):
        pts = draw(st.lists(st.tuples(_coord, _coord), min_size=2,
                            max_size=12))
        if draw(st.booleans()):
            i = draw(st.integers(0, len(pts) - 1))
            pts.insert(i, pts[i])
        lines.append(np.array(pts))
    a, ab, _ = polyline_segments(lines)
    points = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(["any", "segment", "endpoint",
                                     "non-finite"]))
        if kind == "any":
            q = [draw(_coord), draw(_coord)]
        elif kind == "non-finite":
            q = [draw(st.sampled_from([np.nan, np.inf, -np.inf])),
                 draw(st.one_of(_coord, st.just(np.inf)))]
            q = q[::-1] if draw(st.booleans()) else q
        else:
            i = draw(st.integers(0, len(a) - 1))
            w = draw(st.floats(0.0, 1.0)) if kind == "segment" else \
                draw(st.sampled_from([0.0, 1.0]))
            q = (a[i] + w * ab[i]).tolist()
        points.append(q)
    p = np.array(points)
    return lines, (p[0] if draw(st.booleans()) else p)


@settings(max_examples=300, deadline=None)
@given(_polylines_and_points())
def test_float_segment_kernel_equals_the_array_kernel(lines_and_points):
    # up to 3 x 34 segments and 12 points: both sides of FLOAT_PAIRS
    lines, p = lines_and_points
    segs = polyline_segments(lines)
    ref, on_floats = _kernel(0, p, segs)
    assert not on_floats
    out, on_floats = _kernel(np.inf, p, segs)
    assert on_floats and _same(out, ref), (p, out, ref)
    out, on_floats = _kernel(geom.FLOAT_PAIRS, p, segs)
    assert on_floats == (len(p.reshape(-1, 2)) * len(segs[0])
                         < geom.FLOAT_PAIRS)
    assert _same(out, ref), (p, out, ref)


def test_float_segment_kernel_takes_planar_shared_sets_only():
    # a segment set per point, (N, k, d), and 4-D points stay on the array
    # kernel at any size
    rng = np.random.default_rng(4)
    a, ab, denom = polyline_segments([rng.standard_normal((4, 2))])
    per_point = (np.stack([a, a]), np.stack([ab, ab]), np.stack([denom] * 2))
    segs4 = polyline_segments([rng.standard_normal((5, 4))])
    for p, segs in ((rng.standard_normal((2, 2)), per_point),
                    (rng.standard_normal(4), segs4),
                    (rng.standard_normal((3, 4)), segs4)):
        out, on_floats = _kernel(np.inf, p, segs)
        assert not on_floats and np.all(np.isfinite(out))
