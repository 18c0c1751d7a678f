"""Small planar-geometry helpers shared across modules.

Conventions: points are numpy arrays of shape (..., 2); the symplectic form is
omega = dx ^ dy; "area coordinates" around a center c are R = pi*|x-c|^2 and
theta = angle/(2*pi), so omega = dR ^ dtheta and theta has period 1.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

TWO_PI = 2.0 * np.pi


def perp(v: np.ndarray) -> np.ndarray:
    """Rotate by +90 degrees: (x, y) -> (-y, x)."""
    out = np.empty_like(v)
    out[..., 0] = -v[..., 1]
    out[..., 1] = v[..., 0]
    return out


def min_image(v, N: float):
    """Offset v wrapped to its minimum image on the N-periodic square: an
    array, or a float, for which % rounds like np.mod."""
    return (v + 0.5 * N) % N - 0.5 * N


def shoelace_area(poly: np.ndarray) -> float:
    """Signed area of a closed polygon given by its vertex list (no repeat)."""
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def polyline_segments(polylines) -> tuple:
    """Stacked segments (a, ab, |ab|^2) of a list of polylines (n_i, d); a
    zero-length segment gets |ab|^2 = 1 so that it projects onto its start."""
    a = np.vstack([p[:-1] for p in polylines])
    ab = np.vstack([p[1:] - p[:-1] for p in polylines])
    denom = np.einsum("nd,nd->n", ab, ab)
    denom[denom == 0.0] = 1.0
    return a, ab, denom


# point-segment pairs below which `segments_distance` measures planar points
# in Python floats: the float kernel's time grows with the pairs, the array
# kernel's is mostly numpy call overhead, and they cross between 50 and 70
# pairs for 1 to 9 points (2 Xeon vCPUs, CPython 3.11, numpy 2.4)
FLOAT_PAIRS = 64


def segments_distance(p: np.ndarray, segs: tuple) -> np.ndarray:
    """Exact distance from points p (..., d) to the union of the segments
    `segs` made by `polyline_segments`: one shared set of n segments, with
    arrays (n, d), (n, d) and (n,), or a set per point, with arrays
    (..., n, d), (..., n, d) and (..., n).

    Planar points against a shared set, with fewer than FLOAT_PAIRS
    point-segment pairs in all, are measured in Python floats, which give
    the same bits."""
    a, ab, denom = segs
    p = np.asarray(p, dtype=float)
    if (a.ndim == 2 and a.shape[1] == 2 == p.shape[-1]
            and 0 < (p.size // 2) * len(a) < FLOAT_PAIRS):
        return _segments_distance_floats(p, segs)
    p = p[..., None, :]
    t = np.clip(np.einsum("...nd,...nd->...n", p - a, ab) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.min(np.linalg.norm(p - proj, axis=-1), axis=-1)


def _segments_distance_floats(p: np.ndarray, segs: tuple) -> np.ndarray:
    """`segments_distance` of planar points to one shared set of segments,
    in the operation order of its array kernel: the dot product as the sum
    of its two products, t clipped to [0, 1], the projection a + t ab, and
    the norm the square root of the sum of the two squares. The square root
    rounds monotonically, so it is taken of the smallest sum only."""
    a, ab, denom = segs
    rows = list(zip(*a.T.tolist(), *ab.T.tolist(), denom.tolist()))
    out = []
    for x, y in p.reshape(-1, 2).tolist():
        best = math.inf
        for a0, a1, b0, b1, dn in rows:
            t = ((x - a0) * b0 + (y - a1) * b1) / dn
            if t < 0.0:
                t = 0.0
            elif t > 1.0:
                t = 1.0
            d0 = x - (a0 + t * b0)
            d1 = y - (a1 + t * b1)
            d = d0 * d0 + d1 * d1
            if d < best:
                best = d
            elif d != d:      # nan wins the minimum, as in np.min
                best = d
                break
        out.append(math.sqrt(best))
    return np.array(out).reshape(p.shape[:-1])[()]


class SegmentIndex:
    """Exact nearest-segment queries on the segments of `polyline_segments`:
    a k-d tree over their midpoints plus the largest half-length h.

    A segment at distance D from a point has its midpoint within D + h of it.
    So if the segments with a midpoint in a ball of radius r about the points
    are at best D away, and D + h <= r, no segment outside the ball is
    nearer and D is exact. `distance` starts with r = 4h, which settles any
    point within 3h of the segments with one ball query, and otherwise widens
    the ball to U + h for an upper bound U on the distance: D when the ball
    held a segment, the nearest midpoint distance when it was empty. The
    relative pad only adds candidates under rounding. The candidates go
    through `segments_distance`, so the result is bit-identical to measuring
    against every segment."""

    def __init__(self, segs: tuple):
        a, ab, _ = segs
        self.segs = segs
        self.tree = cKDTree(a + 0.5 * ab)
        self.h = 0.5 * float(np.sqrt(np.max(np.einsum("nd,nd->n", ab, ab))))

    def distance(self, p) -> float:
        """Smallest distance from the points p (m, d) to the segments."""
        p = np.asarray(p, dtype=float).reshape(-1, self.tree.m)
        a, ab, denom = self.segs
        r = 4.0 * self.h
        while True:
            near = self.tree.query_ball_point(p, r, return_sorted=False)
            cand = np.fromiter(set().union(*near), dtype=np.intp)
            if not len(cand):
                # the nearest midpoint's distance bounds the distance
                d1, _ = self.tree.query(p, k=1)
                r = (float(np.min(d1)) + self.h) * (1.0 + 1e-9)
                continue
            d = float(segments_distance(
                p, (a[cand], ab[cand], denom[cand])).min())
            reach = (d + self.h) * (1.0 + 1e-9)
            if reach <= r:
                return d
            r = reach
