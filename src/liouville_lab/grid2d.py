"""Planar grids on discs (and a periodic square variant).

A grid is the part inside the closed disc D(A) of a connected graph that
contains the boundary circle, has no 1-valent vertex, and has smooth edges.
Arcs are stored as polylines; the boundary circle is represented by a polygon
whose radius is corrected so that the face areas partition A exactly.

Face cycles are stored as signed arc ids: id >= 0 traverses arc id forward,
-(id+1) traverses it reversed. A face's corners are the start vertices of
its arcs in traversal order.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .geom import (TWO_PI, SegmentIndex, min_image, polyline_segments,
                   segments_distance, shoelace_area)

ARC_RESOLUTION = 256  # default samples per arc
# sector-angle deviation accepted by the regularity check [rad]
REGULAR_SECTOR = 1e-3
# relative distance from the boundary circle within which a vertex lies on it
BOUNDARY_REL = 1e-7


class GridError(ValueError):
    """Raised when a grid violates its structural invariants."""


@dataclass
class Vertex:
    xy: np.ndarray
    valence: int = 0
    boundary: bool = False


@dataclass
class Arc:
    v0: int
    v1: int
    points: np.ndarray  # (n, 2), endpoints included
    seam: bool = False  # periodic-seam duplicate of a wrapped arc

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if len(self.points) < 2:
            raise GridError("arc needs at least 2 sample points")
        steps = np.linalg.norm(np.diff(self.points, axis=0), axis=1)
        if np.any(steps <= 0):
            raise GridError("consecutive arc points must be distinct")

    def rev_points(self) -> np.ndarray:
        return self.points[::-1]


@dataclass
class RegularityEntry:
    vertex: int
    center: np.ndarray
    rotation: float           # chart alignment angle [rad]
    sector_angles: list       # measured sector angles [rad]
    deviation: float          # max |sector - target|


@dataclass
class RegularityCertificate:
    ok: bool
    entries: list
    offender: int | None = None

    def max_deviation(self) -> float:
        return max(e.deviation for e in self.entries) if self.entries else 0.0

    def offender_entry(self) -> RegularityEntry | None:
        if self.offender is None:
            return None
        return next(e for e in self.entries if e.vertex == self.offender)


@dataclass
class Grid:
    """Disc grid: combinatorics + polyline geometry + face data.

    marked_points may be passed as None; face centroids (projected inward when
    a centroid escapes a non-convex face) are used then.
    """

    ambient_area: float
    vertices: list
    arcs: list
    faces: list                       # list of cycles of signed arc ids
    marked_points: np.ndarray | None = None
    periodic: bool = False
    _face_polys: list = field(init=False, repr=False, compare=False)
    _face_corners: list = field(init=False, repr=False, compare=False)
    _index: SegmentIndex = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.ambient_area <= 0:
            raise GridError("ambient area must be positive")
        if self.periodic:
            # seam arcs run along a wrapped edge of the fundamental domain
            N = np.sqrt(self.ambient_area)
            for a in self.arcs:
                a.seam = bool(np.all(np.abs(a.points[:, 0] - N) < 1e-9)
                              or np.all(np.abs(a.points[:, 1] - N) < 1e-9))
        self._compute_valences()
        assembled = [self._assemble_face(c) for c in self.faces]
        self._face_polys = [poly for poly, _ in assembled]
        self._face_corners = [corners for _, corners in assembled]
        self._index = SegmentIndex(
            polyline_segments([a.points for a in self.arcs]), self.period)
        if self.marked_points is None:
            self.marked_points = np.array(
                [interior_point(p) for p in self._face_polys])
        else:
            self.marked_points = np.asarray(self.marked_points, dtype=float)
        if len(self.marked_points) != len(self.faces):
            raise GridError("one marked point per face required")
        self._validate()

    # -- structure ---------------------------------------------------------
    def _compute_valences(self):
        for v in self.vertices:
            v.valence = 0
        for a in self.arcs:
            if a.seam:
                continue
            self.vertices[a.v0].valence += 1
            self.vertices[a.v1].valence += 1

    def _assemble_face(self, cycle) -> tuple:
        """The polygon of a face cycle, without its repeated end point, and
        its corners: (polygon index, vertex id) of each arc's start."""
        pts, corners = [], []
        for sid in cycle:
            a = self.arcs[sid if sid >= 0 else -sid - 1]
            seg, v = (a.points, a.v0) if sid >= 0 else (a.rev_points(), a.v1)
            if pts and not np.allclose(pts[-1], seg[0], atol=1e-12):
                raise GridError("face cycle is not closed edge-to-edge")
            corners.append((len(pts) - 1 if pts else 0, v))
            pts.extend(seg[1:] if pts else seg)
        poly = np.asarray(pts)
        if not np.allclose(poly[0], poly[-1], atol=1e-12):
            raise GridError("face cycle does not close up")
        return poly[:-1], corners

    def _validate(self):
        for i, v in enumerate(self.vertices):
            if v.valence < 2:
                raise GridError(f"vertex {i} is 1-valent")
        if not self._connected():
            raise GridError("grid union boundary is not connected")
        for i, poly in enumerate(self._face_polys):
            if shoelace_area(poly) <= 0:
                raise GridError(f"face {i} is not positively oriented or degenerate")
            if not point_in_polygon(self.marked_points[i], poly):
                raise GridError(f"marked point of face {i} is not strictly inside")

    def _connected(self) -> bool:
        n = len(self.vertices)
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for a in self.arcs:
            ra, rb = find(a.v0), find(a.v1)
            if ra != rb:
                parent[ra] = rb
        roots = {find(i) for i in range(n)}
        return len(roots) <= 1

    # -- queries -----------------------------------------------------------
    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @property
    def period(self) -> float:
        return float(np.sqrt(self.ambient_area)) if self.periodic else 0.0

    def face_polygon(self, i: int) -> np.ndarray:
        return self._face_polys[i]

    def face_corners(self, i: int) -> list:
        """(polygon index, vertex id) of each corner of face i, in the order
        of its polygon."""
        return self._face_corners[i]

    def face_areas(self) -> np.ndarray:
        """Per-face enclosed area by polygonal quadrature (shoelace)."""
        return np.array([shoelace_area(p) for p in self._face_polys])

    def boundary_radius(self) -> float:
        return _max_radius(self.arcs)

    def grid_distance(self, x) -> float:
        """Exact distance from the planar point x to the arcs (on a periodic
        grid, from the nearest of the nine images of the wrapped point)."""
        return self._index.point_distance(x)

    # -- io ------------------------------------------------------------------
    def to_json(self) -> str:
        doc = {
            "ambient_area": self.ambient_area,
            "vertices": [{"x": float(v.xy[0]), "y": float(v.xy[1])} for v in self.vertices],
            "arcs": [
                {"v0": a.v0, "v1": a.v1, "points": [[float(p[0]), float(p[1])] for p in a.points]}
                for a in self.arcs
            ],
            "faces": [[int(s) for s in c] for c in self.faces],
            "marked_points": [[float(p[0]), float(p[1])] for p in self.marked_points],
            "periodic": self.periodic,
        }
        return json.dumps(doc, indent=1, sort_keys=True)

    @staticmethod
    def from_json(text: str) -> "Grid":
        doc = json.loads(text)
        if not isinstance(doc, dict):
            raise GridError("a grid file holds one JSON object")
        verts = [Vertex(np.array([v["x"], v["y"]])) for v in doc["vertices"]]
        arcs = [Arc(a["v0"], a["v1"], np.array(a["points"])) for a in doc["arcs"]]
        g = Grid(
            ambient_area=doc["ambient_area"],
            vertices=verts,
            arcs=arcs,
            faces=[list(c) for c in doc["faces"]],
            marked_points=np.array(doc["marked_points"]),
            periodic=bool(doc["periodic"]),
        )
        flag_boundary_vertices(g)
        return g


def point_in_polygon(x, poly: np.ndarray) -> bool:
    """Strict point-in-polygon by ray-crossing parity."""
    x = np.asarray(x, dtype=float)
    px, py = poly[:, 0], poly[:, 1]
    qx, qy = np.roll(px, -1), np.roll(py, -1)
    cond = (py > x[1]) != (qy > x[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        xint = px + (x[1] - py) * (qx - px) / (qy - py)
    hits = cond & (x[0] < xint)
    return bool(np.sum(hits) % 2 == 1)


def polygon_centroid(poly: np.ndarray) -> np.ndarray:
    x, y = poly[:, 0], poly[:, 1]
    xn, yn = np.roll(x, -1), np.roll(y, -1)
    cross = x * yn - xn * y
    a = 0.5 * np.sum(cross)
    cx = np.sum((x + xn) * cross) / (6.0 * a)
    cy = np.sum((y + yn) * cross) / (6.0 * a)
    return np.array([cx, cy])


def interior_point(poly: np.ndarray) -> np.ndarray:
    """Centroid, projected inward when it escapes a non-convex face."""
    c = polygon_centroid(poly)
    if point_in_polygon(c, poly):
        return c
    mean = poly.mean(axis=0)
    for w in np.linspace(0.0, 1.0, 21):
        cand = (1 - w) * c + w * mean
        if point_in_polygon(cand, poly):
            return cand
    # coarse fallback: densest interior sample of the bounding box
    lo, hi = poly.min(axis=0), poly.max(axis=0)
    best, best_d = None, -1.0
    for gx in np.linspace(lo[0], hi[0], 24)[1:-1]:
        for gy in np.linspace(lo[1], hi[1], 24)[1:-1]:
            cand = np.array([gx, gy])
            if point_in_polygon(cand, poly):
                d = float(segments_distance(
                    cand, polyline_segments([np.vstack([poly, poly[:1]])])))
                if d > best_d:
                    best, best_d = cand, d
    if best is None:
        raise GridError("could not find an interior point of a face")
    return best


def _max_radius(arcs) -> float:
    """Largest distance of an arc sample from the origin."""
    return float(max(np.max(np.linalg.norm(a.points, axis=1)) for a in arcs))


def flag_boundary_vertices(g: Grid):
    """Mark vertices lying on the outer boundary polygon."""
    if g.periodic:
        return
    r_out = g.boundary_radius()
    for v in g.vertices:
        dev = abs(np.linalg.norm(v.xy) - r_out)
        v.boundary = dev < BOUNDARY_REL * max(1.0, r_out)


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def _boundary_polygon_radius(A: float, n_segments: int) -> float:
    """Radius making the inscribed regular n-gon have area exactly A."""
    return float(np.sqrt(2.0 * A / (n_segments * np.sin(TWO_PI / n_segments))))


def _disc_grid_from_spokes(A: float, spoke_curves: list, resolution: int,
                           boundary_per_sector: int, marked_angles=None) -> Grid:
    """Assemble a disc grid whose interior arcs all run from the origin to the
    boundary circle. spoke_curves[l] maps u in [0,1] to a point of the closed
    unit disc with |f(1)| = 1; everything is rescaled to the corrected radius.
    marked_angles puts the marked points at half the boundary radius; without
    them they are the face centroids.
    """
    k = len(spoke_curves)
    # endpoint-clustered sampling keeps polyline chord directions at the two
    # vertices within ~1e-4 rad of the analytic tangents
    u_grid = 0.5 * (1.0 - np.cos(np.pi * np.linspace(0.0, 1.0, resolution)))

    unit_spokes = [np.array([f(u) for u in u_grid]) for f in spoke_curves]
    feet_angles = [float(np.arctan2(p[-1, 1], p[-1, 0])) for p in unit_spokes]

    # boundary polygon radius correction for the actual (uneven) vertex angles
    sin_sum = 0.0
    for l in range(k):
        a0, a1 = feet_angles[l], feet_angles[(l + 1) % k]
        if a1 <= a0:
            a1 += TWO_PI
        sin_sum += boundary_per_sector * np.sin((a1 - a0) / boundary_per_sector)
    r_out = float(np.sqrt(2.0 * A / sin_sum))
    spokes = [p * r_out for p in unit_spokes]

    vertices = [Vertex(np.zeros(2))]
    foot_ids = []
    for p in unit_spokes:
        foot = p[-1] / np.linalg.norm(p[-1])  # no angle round-trip
        vertices.append(Vertex(r_out * foot, boundary=True))
        foot_ids.append(len(vertices) - 1)

    arcs = []
    for l, pts in enumerate(spokes):
        pts = pts.copy()
        pts[0] = vertices[0].xy
        pts[-1] = vertices[foot_ids[l]].xy
        arcs.append(Arc(0, foot_ids[l], pts))

    boundary_ids = []
    for l in range(k):
        a0, a1 = feet_angles[l], feet_angles[(l + 1) % k]
        if a1 <= a0:
            a1 += TWO_PI
        angs = np.linspace(a0, a1, boundary_per_sector + 1)
        pts = r_out * np.stack([np.cos(angs), np.sin(angs)], axis=1)
        pts[0] = vertices[foot_ids[l]].xy
        pts[-1] = vertices[foot_ids[(l + 1) % k]].xy
        arcs.append(Arc(foot_ids[l], foot_ids[(l + 1) % k], pts))
        boundary_ids.append(len(arcs) - 1)

    faces = [[l, boundary_ids[l], -((l + 1) % k) - 1] for l in range(k)]
    marked = None
    if marked_angles is not None:
        r_half = 0.5 * _max_radius(arcs)
        marked = np.array([r_half * np.array([np.cos(a), np.sin(a)])
                           for a in marked_angles])
    g = Grid(A, vertices, arcs, faces, marked)
    flag_boundary_vertices(g)
    return g


def make_radial_grid(k: int, A: float, resolution: int = ARC_RESOLUTION) -> Grid:
    """k straight rays from the origin cutting D(A) into k equal sectors."""
    if k < 2:
        raise GridError("a single ray has a 1-valent vertex; need k >= 2")
    if A <= 0:
        raise GridError("area must be positive")
    per_sector = max(64, 2048 // k)

    def spoke(l):
        ang = TWO_PI * l / k
        e = np.array([np.cos(ang), np.sin(ang)])
        return lambda u: u * e

    # marked points on the sector bisectors
    return _disc_grid_from_spokes(A, [spoke(l) for l in range(k)], resolution,
                                  per_sector,
                                  [TWO_PI * (l + 0.5) / k for l in range(k)])


def make_sector_grid(A: float, fractions, resolution: int = ARC_RESOLUTION,
                     base_segments: int = 720) -> Grid:
    """Straight rays at cumulative angles 2*pi*cumsum(fractions).

    Face areas are exactly fractions[i] * A. Not regular unless the fractions
    are all equal (the origin sectors differ otherwise).
    """
    fractions = np.asarray(fractions, dtype=float)
    if len(fractions) < 2 or np.any(fractions <= 0) or abs(fractions.sum() - 1.0) > 1e-12:
        raise GridError("need >= 2 positive fractions summing to 1")
    counts = np.round(fractions * base_segments).astype(int)
    if np.any(counts < 2) or counts.sum() != base_segments:
        raise GridError("fractions are not representable at this base resolution")
    cum = np.concatenate([[0.0], np.cumsum(fractions)])[:-1]

    k = len(fractions)
    r_out = _boundary_polygon_radius(A, base_segments)
    vertices = [Vertex(np.zeros(2))]
    foot_ids = []
    for c in cum:
        ang = TWO_PI * c
        vertices.append(Vertex(r_out * np.array([np.cos(ang), np.sin(ang)]),
                               boundary=True))
        foot_ids.append(len(vertices) - 1)
    arcs = []
    for l in range(k):
        ang = TWO_PI * cum[l]
        e = np.array([np.cos(ang), np.sin(ang)])
        ts = np.linspace(0.0, r_out, resolution)
        pts = np.outer(ts, e)
        pts[-1] = vertices[foot_ids[l]].xy
        arcs.append(Arc(0, foot_ids[l], pts))
    boundary_ids = []
    for l in range(k):
        a0 = TWO_PI * cum[l]
        a1 = TWO_PI * (cum[l + 1] if l + 1 < k else 1.0)
        angs = np.linspace(a0, a1, counts[l] + 1)
        pts = r_out * np.stack([np.cos(angs), np.sin(angs)], axis=1)
        pts[0] = vertices[foot_ids[l]].xy
        pts[-1] = vertices[foot_ids[(l + 1) % k]].xy
        arcs.append(Arc(foot_ids[l], foot_ids[(l + 1) % k], pts))
        boundary_ids.append(len(arcs) - 1)
    faces = [[l, boundary_ids[l], -((l + 1) % k) - 1] for l in range(k)]
    marked = np.array([
        0.5 * r_out * np.array([np.cos(TWO_PI * (cum[l] + 0.5 * fractions[l])),
                                np.sin(TWO_PI * (cum[l] + 0.5 * fractions[l]))])
        for l in range(k)
    ])
    g = Grid(A, vertices, arcs, faces, marked)
    flag_boundary_vertices(g)
    return g


def make_pinwheel_grid(k: int, A: float, twists,
                       resolution: int = ARC_RESOLUTION) -> Grid:
    """Curved spokes leaving the origin at equal angles and hitting the circle
    radially at twisted positions: a regular grid with unequal face areas.

    twists[l] is the angular offset [rad] of spoke l's boundary foot relative
    to its departure angle 2*pi*l/k.
    """
    if k < 2:
        raise GridError("need k >= 2 spokes")
    twists = np.asarray(twists, dtype=float)
    if len(twists) != k:
        raise GridError("one twist per spoke")
    feet = np.array([TWO_PI * l / k + twists[l] for l in range(k)])
    if np.any(np.diff(np.concatenate([feet, [feet[0] + TWO_PI]])) <= 0.05):
        raise GridError("twists collapse adjacent sectors")

    def spoke(l):
        a0 = TWO_PI * l / k
        c = twists[l]

        def f(u):
            h = u * u * (3.0 - 2.0 * u)  # radial tangent at both ends
            ang = a0 + c * h
            return u * np.array([np.cos(ang), np.sin(ang)])

        return f

    per_sector = max(64, 2048 // k)
    return _disc_grid_from_spokes(A, [spoke(l) for l in range(k)], resolution,
                                  per_sector)


def make_periodic_grid(N: int) -> Grid:
    """Unit-square grid on the N-periodic square; marked points at the cell
    centers (the half-integer lattice)."""
    if N < 1:
        raise GridError("need N >= 1")
    vertices = [Vertex(np.array([float(i), float(j)]))
                for j in range(N) for i in range(N)]

    def vid(i, j):
        return (j % N) * N + (i % N)

    arcs = []
    h_id, v_id = {}, {}
    n_side = 65
    xs = np.linspace(0.0, 1.0, n_side)
    for j in range(N):
        for i in range(N):
            base = np.array([float(i), float(j)])
            arcs.append(Arc(vid(i, j), vid(i + 1, j),
                            base + np.stack([xs, np.zeros(n_side)], axis=1)))
            h_id[(i, j)] = len(arcs) - 1
            arcs.append(Arc(vid(i, j), vid(i, j + 1),
                            base + np.stack([np.zeros(n_side), xs], axis=1)))
            v_id[(i, j)] = len(arcs) - 1

    # faces must close in the plane, so seam edges get unwrapped duplicates
    faces, marked = [], []

    def seam_arc(pts, v0, v1):
        arcs.append(Arc(v0, v1, pts))
        return len(arcs) - 1

    for j in range(N):
        for i in range(N):
            base = np.array([float(i), float(j)])
            bottom = h_id[(i, j)]
            left = v_id[(i, j)]
            if j + 1 < N:
                top = h_id[(i, j + 1)]
            else:
                top = seam_arc(base + np.stack([xs, np.ones(n_side)], axis=1),
                               vid(i, j + 1), vid(i + 1, j + 1))
            if i + 1 < N:
                right = v_id[(i + 1, j)]
            else:
                right = seam_arc(base + np.stack([np.ones(n_side), xs], axis=1),
                                 vid(i + 1, j), vid(i + 1, j + 1))
            faces.append([bottom, right, -(top) - 1, -(left) - 1])
            marked.append(base + 0.5)

    return Grid(float(N * N), vertices, arcs, faces, np.array(marked),
                periodic=True)


# ---------------------------------------------------------------------------
# regularity
# ---------------------------------------------------------------------------

def _tangent_angle(points: np.ndarray) -> float:
    """Tangent direction of an arc at points[0] (which is a vertex).

    The neighbouring sample gives an unbiased but ill-conditioned chord (its
    length can be ~1e-5 of the arc, amplifying coordinate rounding to ~1e-11
    rad). A 2%-arclength chord is well conditioned but biased on curved arcs.
    Use the medium chord whenever the two agree to within the rounding noise
    floor, so straight arcs get machine-accurate angles and curved arcs keep
    the unbiased short estimate.
    """
    p0 = points[0]
    short = points[1] - p0
    seg = np.linalg.norm(np.diff(points, axis=0), axis=1)
    total = float(np.sum(seg))
    s = np.cumsum(seg)
    j = int(np.searchsorted(s, 0.02 * total)) + 1
    j = min(max(j, 1), len(points) - 1)
    med = points[j] - p0
    a_short = np.arctan2(short[1], short[0])
    a_med = np.arctan2(med[1], med[0])
    noise = 1e-14 * max(1.0, float(np.linalg.norm(p0))) / max(np.linalg.norm(short), 1e-300)
    diff = min_image(a_med - a_short, TWO_PI)
    return float(a_med if abs(diff) <= max(4.0 * noise, 1e-13) else a_short)


def _branch_angles_at(g: Grid, vi: int) -> list:
    """Tangent angle [rad] of each arc end incident to vertex vi."""
    out = []
    for a in g.arcs:
        if a.seam:
            continue
        if a.v0 == vi:
            out.append(_tangent_angle(a.points))
        if a.v1 == vi:
            out.append(_tangent_angle(a.points[::-1]))
    return out


def validate_regular(g: Grid) -> RegularityCertificate:
    """Check the equal-sector chart condition at every vertex.

    Interior vertices use the translated Darboux chart. Boundary vertices use
    the half-disc chart obtained by straightening the boundary circle; the
    collar map (theta, A - R) is symplectic and its differential at the vertex
    is the (tangent, inward normal) frame, so sector angles are measured there,
    with the two boundary rays pinned at 0 and pi.
    """
    entries = []
    offender = None
    for vi, v in enumerate(g.vertices):
        angles = _branch_angles_at(g, vi)
        if len(angles) < 2:
            continue
        if v.boundary and not g.periodic:
            sec, rot = _boundary_sectors(g, vi, angles)
            target = np.pi / len(sec)
        else:
            ang = np.sort(np.mod(angles, TWO_PI))
            sec = list(np.diff(np.concatenate([ang, [ang[0] + TWO_PI]])))
            rot = float(ang[0])
            target = TWO_PI / len(sec)
        dev = float(max(abs(s - target) for s in sec))
        entries.append(RegularityEntry(vi, v.xy.copy(), rot, sec, dev))
        if dev > REGULAR_SECTOR and offender is None:
            offender = vi
    return RegularityCertificate(offender is None, entries, offender)


def _boundary_sectors(g: Grid, vi: int, angles: list):
    """Sector angles at a boundary vertex in the straightened half-disc chart."""
    v = g.vertices[vi]
    tangent = np.arctan2(v.xy[1], v.xy[0]) + 0.5 * np.pi  # ccw boundary direction
    rel = [min_image(a - tangent, TWO_PI) for a in angles]
    interior = sorted(x for x in rel if 0.05 < x < np.pi - 0.05)
    pts = [0.0] + interior + [np.pi]
    return list(np.diff(pts)), float(tangent)


__all__ = [
    "ARC_RESOLUTION", "REGULAR_SECTOR", "Arc", "Grid", "GridError",
    "RegularityCertificate", "RegularityEntry", "Vertex",
    "flag_boundary_vertices", "interior_point",
    "make_periodic_grid", "make_pinwheel_grid", "make_radial_grid",
    "make_sector_grid", "point_in_polygon", "polygon_centroid",
    "validate_regular",
]
