"""Small planar-geometry helpers shared across modules.

Conventions: points are numpy arrays of shape (..., 2); the symplectic form is
omega = dx ^ dy; "area coordinates" around a center c are R = pi*|x-c|^2 and
theta = angle/(2*pi), so omega = dR ^ dtheta and theta has period 1.
"""

from __future__ import annotations

import math
from typing import NamedTuple

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


def segments_distance(p, segs) -> np.ndarray:
    """Exact distance from points p (..., d) to the union of the segments
    `segs` made by `polyline_segments`: one shared set of n segments, with
    arrays (n, d), (n, d) and (n,), or a set per point, with arrays
    (..., n, d), (..., n, d) and (..., n). `segs` may also be one cell of a
    `SegmentIndex` table, with p one planar point (x, y); the result is
    then a float.

    Planar points against a shared set, with fewer than FLOAT_PAIRS
    point-segment pairs in all, are measured in Python floats, which give
    the same bits, and so is a cell."""
    if isinstance(segs, CellSegments):
        x, y = p
        best, start = math.inf, 0
        for dx, dy, stop in segs.images:
            best = _nearest_sq(x + dx, y + dy, segs.rows[start:stop], best)
            start = stop
        return math.sqrt(best)
    a, ab, denom = segs
    p = np.asarray(p, dtype=float)
    if (a.ndim == 2 and a.shape[1] == 2 == p.shape[-1]
            and 0 < (p.size // 2) * len(a) < FLOAT_PAIRS):
        return _segments_distance_floats(p, segs)
    p = p[..., None, :]
    t = np.clip(np.einsum("...nd,...nd->...n", p - a, ab) / denom, 0.0, 1.0)
    proj = a + t[..., None] * ab
    return np.min(np.linalg.norm(p - proj, axis=-1), axis=-1)


def _segment_rows(segs: tuple) -> list:
    """The planar segments of `polyline_segments` as float rows
    (a0, a1, b0, b1, |ab|^2)."""
    a, ab, denom = segs
    return list(zip(*a.T.tolist(), *ab.T.tolist(), denom.tolist()))


def _segments_distance_floats(p: np.ndarray, segs: tuple) -> np.ndarray:
    """`segments_distance` of planar points to one shared set of segments,
    in Python floats."""
    rows = _segment_rows(segs)
    out = [math.sqrt(_nearest_sq(x, y, rows, math.inf))
           for x, y in p.reshape(-1, 2).tolist()]
    return np.array(out).reshape(p.shape[:-1])[()]


def _nearest_sq(x: float, y: float, rows, best: float) -> float:
    """The smaller of `best` and the squared distance from (x, y) to the
    segment rows, in the operation order of `segments_distance`'s array
    kernel: the dot product as the sum of its two products, t clipped to
    [0, 1], the projection a + t ab, and the sum of the two squares. The
    norm's square root rounds monotonically, so the caller takes it of the
    smallest sum only."""
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
            return d
    return best


# side of the square cells of a SegmentIndex's table; near a grid a cell
# holds the segments within about 2 hd + h (hd its half diagonal, h 0.002
# on the unit disc grids), and 0.005 took a third off a skeleton round's
# queries against 0.01
CELL = 0.005
# offsets, in periods, of the nine periodic images of a point
_IMAGES = np.array([[dx, dy] for dx in (-1.0, 0.0, 1.0)
                    for dy in (-1.0, 0.0, 1.0)])


class CellSegments(NamedTuple):
    """The candidate segments of a centre (x, y), as `segments_distance`
    measures them: references into the index's one list of float rows,
    grouped by image; the image offsets with the end of each group; and the
    radius of the balls about the centre's images that held them."""
    rows: list
    images: tuple           # ((dx, dy, stop), ...)
    x: float
    y: float
    reach: float


class SegmentIndex:
    """Exact nearest-segment queries on the planar segments of
    `polyline_segments`: a k-d tree over their midpoints plus the largest
    half-length h.

    A segment at distance D from a point has its midpoint within D + h of
    it. A point within hd of a centre c is within m + hd of a segment, for
    m the distance from c to its nearest midpoint, so its nearest segment
    has its midpoint within m + 2 hd + h of c: one k = 1 query and one ball
    query give every candidate (`_candidates`; the relative pad only adds
    candidates under rounding). They go through `segments_distance`, so a
    result is bit-identical to measuring against every segment.

    `point_distance` answers for one planar point from a table of square
    cells of side CELL, each filled on its first query. On an N-periodic
    index (`period` N > 0) the point is wrapped to x mod N, the distance is
    from the nearest of its nine images x mod N + kN, and a cell keeps the
    candidates of each image k of its centre with k."""

    def __init__(self, segs: tuple, period: float = 0.0):
        a, ab, _ = segs
        self.segs = segs
        self.tree = cKDTree(a + 0.5 * ab)
        self.h = 0.5 * float(np.sqrt(np.max(np.einsum("nd,nd->n", ab, ab))))
        self.period = period
        self._offsets = period * _IMAGES if period else np.zeros((1, 2))
        self.cells = {}          # (i, j) -> CellSegments, filled lazily
        self._rows = None        # the segment rows the cells reference

    def distance(self, p) -> float:
        """Smallest distance from the planar points p (m, 2) to the
        segments: the points are the image offsets of the origin."""
        p = np.asarray(p, dtype=float).reshape(-1, 2)
        return segments_distance((0.0, 0.0),
                                 self._candidates(0.0, 0.0, p, 0.0))

    def point_distance(self, p) -> float:
        """Distance from the planar point p to the segments (on a periodic
        index, from the nearest of the nine images of p mod N)."""
        x, y = np.asarray(p, dtype=float).tolist()
        if self.period:
            x %= self.period
            y %= self.period
        if math.isfinite(x + y):
            key = (math.floor(x / CELL), math.floor(y / CELL))
            cell = self.cells.get(key)
            if cell is None:
                cell = self.cells[key] = self._candidates(
                    (key[0] + 0.5) * CELL, (key[1] + 0.5) * CELL,
                    self._offsets, CELL / math.sqrt(2.0))
            d = segments_distance((x, y), cell)
            # the nearest segment's midpoint lies within d + h of the point,
            # so in the cell's balls; this fails only where rounding put a
            # point far from the origin into a neighbouring cell
            if d + self.h + math.hypot(x - cell.x, y - cell.y) <= cell.reach:
                return d
        return segments_distance(
            (x, y), self._candidates(x, y, self._offsets, 0.0))

    def _candidates(self, x: float, y: float, offsets: np.ndarray,
                    hd: float) -> CellSegments:
        """The segments that can be nearest to a point within hd of
        (x, y), measured from the images of the point by `offsets` (k, 2)."""
        if self._rows is None:
            self._rows = _segment_rows(self.segs)
        centres = np.array([x, y]) + offsets
        m, _ = self.tree.query(centres, k=1)
        reach = float(np.min(m)) + 2.0 * hd + self.h
        near = self.tree.query_ball_point(centres, reach * (1.0 + 1e-9))
        rows, images = [], []
        for (dx, dy), idx in zip(offsets.tolist(), near):
            if idx:
                rows += map(self._rows.__getitem__, idx)
                images.append((dx, dy, len(rows)))
        return CellSegments(rows, tuple(images), x, y, reach)
