"""Reference computations the benchmark checks the program against.

Nothing here imports liouville_lab: every function is written from the
definitions (brute-force segment distance, even-odd ray crossing, the
ray-polygon exit of a leaf, the closed-form Reeb rotation), so that an output
of the program is compared with a value computed apart from it.
"""

from __future__ import annotations

import numpy as np


def polyline_pieces(polylines, closed=None) -> tuple:
    """All segments (start, end) of a list of polylines (n_i, d). A closed
    polyline also gets the segment from its last point back to its first."""
    starts, ends = [], []
    for i, p in enumerate(polylines):
        p = np.asarray(p, dtype=float)
        if closed is not None and closed[i]:
            p = np.vstack([p, p[:1]])
        starts.append(p[:-1])
        ends.append(p[1:])
    return np.vstack(starts), np.vstack(ends)


def brute_distance(points, pieces, chunk: int = 256) -> np.ndarray:
    """Exact distance from each point (n, d) to the nearest of all segments."""
    a, b = pieces
    e = b - a
    ee = np.sum(e * e, axis=1)
    ee[ee == 0.0] = 1.0
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    dims = range(pts.shape[1])
    out = np.empty(len(pts))
    for lo in range(0, len(pts), chunk):
        q = pts[lo:lo + chunk]
        # per coordinate, (points, segments) arrays: w = q - a, foot offset u e
        w = [q[:, None, k] - a[None, :, k] for k in dims]
        u = np.clip(sum(w[k] * e[:, k] for k in dims) / ee, 0.0, 1.0)
        d2 = sum((w[k] - u * e[:, k]) ** 2 for k in dims)
        out[lo:lo + chunk] = np.sqrt(np.min(d2, axis=1))
    return out


def periodic_pieces(pieces, period: float) -> tuple:
    """The segments together with their eight translates by the period."""
    a, b = pieces
    shifts = [np.array([dx, dy]) * period
              for dx in (-1.0, 0.0, 1.0) for dy in (-1.0, 0.0, 1.0)]
    return (np.vstack([a + s for s in shifts]), np.vstack([b + s for s in shifts]))


def polygon_edges(poly) -> tuple:
    """Edges (start, end) of the closed polygon with vertices (n, 2)."""
    a = np.asarray(poly, dtype=float)
    return a, np.roll(a, -1, axis=0)


def inside_polygon(x, edges) -> bool:
    """Even-odd ray crossing: does the horizontal ray from x to +inf cross
    the polygon's edges an odd number of times?"""
    a, b = edges
    straddle = (a[:, 1] > x[1]) != (b[:, 1] > x[1])
    with np.errstate(divide="ignore", invalid="ignore"):
        cross_x = a[:, 0] + (x[1] - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])
    return bool(np.count_nonzero(straddle & (x[0] < cross_x)) % 2)


def face_of(x, polygons) -> int | None:
    """Index of the polygon (given by its edges) containing x, or None when
    no polygon, or more than one, contains it."""
    hits = [i for i, edges in enumerate(polygons) if inside_polygon(x, edges)]
    return hits[0] if len(hits) == 1 else None


def ray_exit(p, x, edges) -> np.ndarray:
    """Point where the ray from p through x first leaves the polygon."""
    p = np.asarray(p, dtype=float)
    d = np.asarray(x, dtype=float) - p
    a, b = edges
    e = b - a
    w = a - p
    den = d[0] * e[:, 1] - d[1] * e[:, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (w[:, 0] * e[:, 1] - w[:, 1] * e[:, 0]) / den
        u = (w[:, 0] * d[1] - w[:, 1] * d[0]) / den
    ok = (den != 0.0) & (s > 0.0) & (u >= 0.0) & (u <= 1.0)
    if not np.any(ok):
        raise ValueError("the ray does not leave the polygon")
    return p + float(np.min(s[ok])) * d


def leaf_fraction(p, x, edges) -> float:
    """t = |x - p| / |B - p|, with B the exit point of the ray p -> x."""
    b = ray_exit(p, x, edges)
    return float(np.linalg.norm(np.asarray(x) - p) / np.linalg.norm(b - p))


def face_arrival_time(t: float) -> float:
    """Liouville time for the face flow a t^2(s) = a + (a t^2 - a) e^s to
    reach the marked point from leaf fraction t: s = -ln(1 - t^2)."""
    return float(-np.log1p(-t * t))


def segment_meets_ball(p, x, center, radius) -> bool:
    """Does the segment [p, x] come within `radius` of `center`?"""
    p = np.asarray(p, dtype=float)
    e = np.asarray(x, dtype=float) - p
    ee = float(e @ e)
    u = 0.0 if ee == 0.0 else min(max(float((center - p) @ e) / ee, 0.0), 1.0)
    return float(np.linalg.norm(p + u * e - center)) < radius


# ---------------------------------------------------------------------------
# Reeb dynamics of the standard primitive on R^4 = C^2
# ---------------------------------------------------------------------------

def reeb_rotation(z, t, periods) -> np.ndarray:
    """Closed-form Reeb flow for time t on {pi (|z1|^2 / a + |z2|^2 / b) = 1}:
    each complex coordinate of z = (x1, y1, x2, y2) turns at its own rate,
    z_j -> z_j e^{2 pi i t / a_j}. The round sphere is a = b = 1."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    for j, per in enumerate(periods):
        c, s = np.cos(2.0 * np.pi * t / per), np.sin(2.0 * np.pi * t / per)
        x, y = z[..., 2 * j], z[..., 2 * j + 1]
        out[..., 2 * j] = c * x - s * y
        out[..., 2 * j + 1] = s * x + c * y
    return out


def level(kind: str, params, z) -> np.ndarray:
    """The defining Hamiltonian H of each surface, written from its formula."""
    z = np.asarray(z, dtype=float)
    q1 = z[..., 0] ** 2 + z[..., 1] ** 2
    q2 = z[..., 2] ** 2 + z[..., 3] ** 2
    if kind == "sphere":
        return np.pi * (q1 + q2)
    if kind == "ellipsoid":
        a, b = params
        return np.pi * (q1 / a + q2 / b)
    raise ValueError(kind)


def periods(kind: str, params) -> tuple:
    if kind == "sphere":
        return (1.0, 1.0)
    if kind == "ellipsoid":
        return tuple(params)
    raise ValueError(f"{kind} has no closed-form Reeb flow")
