"""Liouville forms on grid complements: vanishing foliation, residues,
vertex smoothing, weight splitting, and trajectory classification.

Construction summary. Each face is star-shaped about its marked point p and
is foliated by straight leaves p -> B(theta), where B parametrizes the face
boundary by normalized swept area: the region swept between leaf 0 and leaf
theta has area exactly theta * a (a = face area). In leaf labels the form is

    lambda = a (t^2 - 1) dtheta,   X = ((t^2 - 1) / 2t^2) (x - p),

so (a t^2, theta) are honest Darboux polar coordinates at p, lambda vanishes
on the face boundary, the residue at p is -a, and the face-zone flow is the
closed form  a t^2(s) = a + (a t0^2 - a) e^s.

At singular grid vertices (interior valence >= 3, boundary valence >= 4) the
form is replaced inside a small chart by the local model

    R dtheta - (1/(2 pi m)) d( chi(R) sin(2 pi m theta) ),

whose dual field is radial on the grid branches, so the grid stays invariant
while trajectories off it leave the chart. chi matches r^m near 0 and R
beyond eps, with chi(R) < R in between. The glued evaluator is discontinuous
on the measure-zero chart seam circles; all flows and quadratures stay off
the seam.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
from numpy.polynomial import polynomial as P

from .geom import (TWO_PI, min_image, perp, polyline_segments,
                   segments_distance, shoelace_area)
from .grid2d import Grid, validate_regular
from .integrate import rk45

# adapted radius R~ below which a trajectory counts as converged to the
# marked point
CONVERGENCE_R = 1e-9
# ODE tolerance for chart-zone integration
FLOW_ATOL = 1e-9
# geometric distance used when classifying flow endpoints against the skeleton
GRID_BAND_GEOM = 1e-3
# largest distance of a branch polyline from its model ray inside a vertex
# chart, in chart coordinates; the chart radius is capped to keep it
BRANCH_DEVIATION = 2e-4
# largest leaf-chart area fraction a t^2 / a of a weight-splitting disc
SPLIT_R_FRAC = 0.09
# fixed RK4 steps of each compactly supported push of a split form
PUSH_STEPS = 24
# quadrature nodes of the residue loop integrals of forms and split forms
RESIDUE_LOOP_N = 512
SPLIT_LOOP_N = 96


class FoliationError(ValueError):
    """A face cannot be foliated (not star-shaped, irregular vertex, ...)."""


class DomainError(ValueError):
    """Evaluation requested outside the form's domain of definition."""


# ---------------------------------------------------------------------------
# face charts: straight-leaf foliation with exact area bookkeeping
# ---------------------------------------------------------------------------

def _polyval(x: float, c: list) -> float:
    """`P.polyval(x, c)` for one point and a list of lowest-first
    coefficients, by Horner's rule in `P.polyval`'s operation order."""
    y = c[-1] + x * 0
    for a in c[-2::-1]:
        y = a + y * x
    return y


@dataclass
class FaceChart:
    """Leaf coordinates (theta, t) on one face, theta in [0,1), t in [0,1]."""

    face: int
    p: np.ndarray
    area: float
    phi: np.ndarray          # increasing knot angles [rad], phi[-1] = phi[0]+2pi
    r_coef: np.ndarray       # (n,4) cubic coefficients of r per interval, lowest first
    s_coef: np.ndarray       # (n,8) degree-7 coefficients of the swept area, lowest first
    s_knots: np.ndarray      # cumulative swept area at knots (s[0]=0, s[-1]=area)
    vertex_thetas: list      # (vertex id, theta label of its separatrix)
    vertex_phis: np.ndarray  # angles of all grid vertices on the boundary
    dr_coef: np.ndarray = field(init=False, repr=False)  # (n,3) dr/dphi, from r_coef

    def __post_init__(self):
        self.dr_coef = P.polyder(self.r_coef, axis=1)

    # -- boundary parametrizations -----------------------------------------
    def _interval_of_phi(self, ph: float) -> tuple:
        ph = self.phi[0] + np.mod(ph - self.phi[0], TWO_PI)
        j = int(np.searchsorted(self.phi, ph, side="right")) - 1
        j = min(max(j, 0), len(self.phi) - 2)
        return j, ph

    def r_of_phi(self, ph: float) -> float:
        j, ph = self._interval_of_phi(ph)
        return _polyval(float(ph - self.phi[j]), self.r_coef[j].tolist())

    def theta_of_phi(self, ph: float) -> float:
        j, ph = self._interval_of_phi(ph)
        s = self.s_knots[j] + _polyval(float(ph - self.phi[j]),
                                       self.s_coef[j].tolist())
        return float(s / self.area)

    def phi_of_theta(self, theta: float) -> float:
        theta = np.mod(theta, 1.0)
        target = theta * self.area
        j = int(np.searchsorted(self.s_knots, target, side="right")) - 1
        j = min(max(j, 0), len(self.phi) - 2)
        lo, hi = 0.0, float(self.phi[j + 1] - self.phi[j])
        goal = float(target - self.s_knots[j])
        c, rc = self.s_coef[j].tolist(), self.r_coef[j].tolist()
        s = 0.5 * (lo + hi)
        for _ in range(60):
            f = _polyval(s, c) - goal
            if f > 0:
                hi = s
            else:
                lo = s
            df = 0.5 * _polyval(s, rc) ** 2
            step = f / df if df > 0 else 0.0
            cand = s - step
            s = cand if lo < cand < hi else 0.5 * (lo + hi)
            if hi - lo < 1e-15 * max(1.0, hi):
                break
        return float(self.phi[j] + s)

    def boundary_point(self, theta: float) -> np.ndarray:
        ph = self.phi_of_theta(theta)
        r = self.r_of_phi(ph)
        return self.p + r * np.array([np.cos(ph), np.sin(ph)])

    def boundary_velocity(self, theta: float) -> np.ndarray:
        """du/dtheta of u(theta) = B(theta) - p."""
        ph = self.phi_of_theta(theta)
        j, ph = self._interval_of_phi(ph)
        s = float(ph - self.phi[j])
        r = _polyval(s, self.r_coef[j].tolist())
        dr = _polyval(s, self.dr_coef[j].tolist())
        e = np.array([np.cos(ph), np.sin(ph)])
        dphi_dtheta = 2.0 * self.area / (r * r)
        return dphi_dtheta * (dr * e + r * perp(e))

    def leaf(self, theta: float, t: float) -> np.ndarray:
        return self.p + t * (self.boundary_point(theta) - self.p)

    # -- labels and closed forms --------------------------------------------
    def polar(self, x: np.ndarray) -> tuple:
        """(phi, t) of a point: its angle about p (None at p) and its leaf
        label t; t > 1 means outside this face."""
        v = x - self.p
        r = float(np.hypot(v[0], v[1]))
        if r == 0.0:
            return None, 0.0
        ph = np.arctan2(v[1], v[0])
        return ph, r / self.r_of_phi(ph)

    def X(self, x: np.ndarray, t: float) -> np.ndarray:
        """X at a point x of this face whose leaf label is t."""
        if t == 0.0:
            return np.zeros(2)
        return ((t * t - 1.0) / (2.0 * t * t)) * (x - self.p)

    def betas(self) -> np.ndarray:
        """Boundary-action fractions between consecutive singular vertices."""
        th = [t for (_, t) in self.vertex_thetas]
        if not th:
            return np.array([1.0])
        th = np.sort(np.array(th))
        return np.diff(np.concatenate([th, [th[0] + 1.0]]))


def _build_face_chart(grid: Grid, face: int, singular_ids: set) -> FaceChart:
    poly = grid.face_polygon(face)
    p = grid.marked_points[face]
    v = poly - p[None, :]
    r = np.hypot(v[:, 0], v[:, 1])
    if np.any(r <= 0):
        raise FoliationError(f"face {face}: marked point lies on the boundary")
    ph_raw = np.arctan2(v[:, 1], v[:, 0])

    # the corners (polygon index, vertex id) of the face cycle; index 0
    # becomes the first singular corner when one exists
    corners = grid.face_corners(face)
    start = next((k for k, w in corners if w in singular_ids), 0)
    corners = sorted(((k - start) % len(poly), w) for k, w in corners)
    ph_raw = np.roll(ph_raw, -start)
    r = np.roll(r, -start)

    ph = np.empty(len(ph_raw) + 1)
    ph[0] = ph_raw[0]
    for i in range(1, len(ph_raw)):
        ph[i] = ph_raw[i] + TWO_PI * np.ceil((ph[i - 1] - ph_raw[i]) / TWO_PI - 1e-15)
        if ph[i] <= ph[i - 1]:
            raise FoliationError(
                f"face {face} is not star-shaped about its marked point")
    ph[-1] = ph[0] + TWO_PI
    if ph[-2] >= ph[-1]:
        raise FoliationError(
            f"face {face} is not star-shaped about its marked point")
    rr = np.concatenate([r, [r[0]]])

    h = np.diff(ph)
    if np.any(h < 1e-11):
        raise FoliationError(f"face {face}: degenerate angular interval")

    # piecewise not-a-knot C2 splines between grid vertices: each smooth
    # boundary piece is interpolated without corner-induced ringing, and the
    # genuine corners sit exactly at the piece junctions (the vertex rays,
    # i.e. the separatrices of the foliation)
    breaks = [k for k, _ in corners] + [len(poly)]
    r_coef = np.empty((len(h), 4))
    for b0, b1 in zip(breaks[:-1], breaks[1:]):
        r_coef[b0:b1] = _piece_coeffs(ph[b0:b1 + 1], rr[b0:b1 + 1])

    # swept area s' = r^2 / 2 per interval. np.convolve is the product that
    # P.polymul formed, so it rounds the same way; the trailing zeros that
    # P.polymul trimmed leave the Horner sums below unchanged
    sq = np.array([np.convolve(c, c) for c in r_coef])
    s_coef = P.polyint(0.5 * sq, axis=1)
    s_h = s_coef[:, -1] + h * 0                 # P.polyval at h, row-wise
    for c in s_coef[:, -2::-1].T:
        s_h = c + s_h * h
    s_knots = np.concatenate([[0.0], np.cumsum(s_h)])
    area = float(s_knots[-1])

    vertex_thetas = [(w, float(s_knots[k] / area))
                     for k, w in corners if w in singular_ids]
    return FaceChart(face, p.copy(), area, ph, r_coef, s_coef, s_knots,
                     vertex_thetas, ph[breaks[:-1]])


def _piece_coeffs(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-interval lowest-first cubic coefficients of one boundary piece."""
    from scipy.interpolate import CubicSpline

    n = len(x) - 1
    if n >= 3:
        cs = CubicSpline(x, y, bc_type="not-a-knot")
        return np.ascontiguousarray(cs.c[::-1, :].T)
    out = np.zeros((n, 4))
    if n == 1:
        d = (y[1] - y[0]) / (x[1] - x[0])
        out[0] = [y[0], d, 0.0, 0.0]
        return out
    # n == 2: a single parabola through three points
    c = np.polyfit(x - x[0], y, 2)[::-1]
    out[0] = [c[0], c[1], c[2], 0.0]
    s = x[1] - x[0]
    out[1] = [c[0] + c[1] * s + c[2] * s * s, c[1] + 2 * c[2] * s, c[2], 0.0]
    return out


# ---------------------------------------------------------------------------
# vertex charts: the smoothing model
# ---------------------------------------------------------------------------

@dataclass
class VertexChart:
    """Local model R dtheta - (1/2 pi m) d(chi(R) sin(2 pi m theta))."""

    vid: int
    center: np.ndarray
    m_branches: int
    boundary: bool
    rotation: float           # chart alignment [rad]
    R_max: float              # chart domain {R < R_max}
    # boundary straightening
    disc_R: float = 0.0       # pi * r_out^2
    collar_scale: float = 1.0
    period: float | None = None  # the grid's period; None off a periodic grid
    # model multiplicity: m interior; the half-disc at a boundary vertex is
    # half of the doubled interior model, so 2(m-1) there
    mult: int = field(init=False)
    eps: float = field(init=False)    # R_max / 2
    # lowest-first coefficients (y0, d0, c2, c3) of chi's cubic on
    # [eps/2, eps] in R - eps/2; chi and chi_prime evaluate it and its
    # derivative by Horner's rule in the operation order of `P.polyval`
    bridge: tuple = field(init=False, repr=False)
    # the center as floats, and its polar angle
    _xy: tuple = field(init=False, repr=False, compare=False)
    _angle: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m = self.m_branches
        m = self.mult = 2 * (m - 1) if self.boundary else m
        e = self.eps = self.R_max / 2.0
        x0, x1 = 0.5 * e, e
        y0 = x0 ** (0.5 * m)
        d0 = 0.5 * m * x0 ** (0.5 * m - 1.0)
        h = x1 - x0
        self.bridge = (y0, d0,
                       (3 * (x1 - y0) - h * (2 * d0 + 1.0)) / h**2,
                       (2 * (y0 - x1) + h * (d0 + 1.0)) / h**3)
        self._xy = (float(self.center[0]), float(self.center[1]))
        self._angle = float(np.arctan2(self.center[1], self.center[0]))

    # -- chi ------------------------------------------------------------------
    def chi(self, R: float) -> float:
        m = self.mult
        e = self.eps
        if R <= 0.5 * e:
            return R ** (0.5 * m)
        if R >= e:
            return R
        y0, d0, c2, c3 = self.bridge
        x = R - 0.5 * e
        return float(y0 + (d0 + (c2 + c3 * x) * x) * x)

    def chi_prime(self, R: float) -> float:
        m = self.mult
        e = self.eps
        if R <= 0.5 * e:
            return 0.5 * m * R ** (0.5 * m - 1.0) if R > 0 else 0.0
        if R >= e:
            return 1.0
        _, d0, c2, c3 = self.bridge
        x = R - 0.5 * e
        return float(d0 + (2 * c2 + 3 * c3 * x) * x)

    # -- chart coordinates ----------------------------------------------------
    def chart_coords(self, x: np.ndarray) -> tuple:
        """(R, theta, s) of x, s the chart's Cartesian position: the offset
        from the vertex, or the collar coordinates at a boundary vertex."""
        if not self.boundary:
            xi = x - self.center
            if self.period is not None:
                xi = min_image(xi, self.period)
            R = np.pi * float(xi @ xi)
            th = np.mod(np.arctan2(xi[1], xi[0]) - self.rotation, TWO_PI) / TWO_PI
            return R, th, xi
        c = self.collar_scale
        th_d = np.arctan2(x[1], x[0])
        th_q = np.arctan2(self.center[1], self.center[0])
        dth = min_image(th_d - th_q, TWO_PI) / TWO_PI
        R_d = np.pi * float(x @ x)
        xt = c * dth
        yt = (self.disc_R - R_d) / c
        R = np.pi * (xt * xt + yt * yt)
        th = np.mod(np.arctan2(yt, xt), TWO_PI) / TWO_PI
        return R, th, np.array([xt, yt])

    def ambient_radius(self) -> float:
        return float(np.sqrt(self.R_max / np.pi))

    def offset(self, x0: float, x1: float) -> tuple:
        """The offset of the point (x0, x1) from the vertex, at its minimum
        image on a periodic grid, as floats: numpy's overhead on 2-vectors
        dominates the ball tests that use it."""
        v0, v1 = x0 - self._xy[0], x1 - self._xy[1]
        if self.period is not None:
            v0, v1 = min_image(v0, self.period), min_image(v1, self.period)
        return v0, v1

    def contains(self, x: np.ndarray) -> bool:
        """Chart domain: the ambient ball at the vertex. The model formula
        extends smoothly past R_max (chi(R) = R there) and across the
        boundary ray, so integration overshoots stay well defined."""
        v0, v1 = self.offset(float(x[0]), float(x[1]))
        return v0 * v0 + v1 * v1 < self.R_max / np.pi

    # -- model form and field ---------------------------------------------
    def model_field(self, R: float, th: float) -> tuple:
        """(R-dot, theta-dot) of the model field in chart coordinates, as
        floats; the model form is R-dot dtheta - theta-dot dR."""
        m = self.mult
        ang = TWO_PI * m * th
        return (R - self.chi(R) * math.cos(ang),
                self.chi_prime(R) * math.sin(ang) / (TWO_PI * m))

    def X(self, x: np.ndarray) -> np.ndarray:
        R, th, s = self.chart_coords(x)
        if R <= 0.0:
            return np.zeros(2)
        vR, vth = self.model_field(R, th)
        w = vR * s / (2.0 * R) + vth * TWO_PI * perp(s)
        return self._pushforward_vector(x, w) if self.boundary else w

    # collar chart differential: xdot_t = c * (perp(x).w) / (2 pi |x|^2),
    # ydot_t = -2 pi (x.w) / c ; both exact for the linear collar map.
    def _pushforward_vector(self, x: np.ndarray, w_t: np.ndarray) -> np.ndarray:
        c = self.collar_scale
        r = float(np.hypot(x[0], x[1]))
        xhat = x / r
        a = -c * w_t[1] / (TWO_PI * r)
        b = TWO_PI * r * w_t[0] / c
        return a * xhat + b * perp(xhat)

    def ambient_xy(self, R: float, th: float) -> tuple:
        """Inverse of chart_coords (modulo periodic wrapping), as floats."""
        r = math.sqrt(max(R, 0.0) / np.pi)
        if not self.boundary:
            ang = self.rotation + TWO_PI * th
            return (self._xy[0] + r * math.cos(ang),
                    self._xy[1] + r * math.sin(ang))
        xt = r * math.cos(TWO_PI * th)
        yt = r * math.sin(TWO_PI * th)
        c = self.collar_scale
        th_d = self._angle + TWO_PI * (xt / c)
        R_d = self.disc_R - c * yt
        rr = math.sqrt(max(R_d, 0.0) / np.pi)
        return rr * math.cos(th_d), rr * math.sin(th_d)

    def branch_turns(self) -> np.ndarray:
        """Chart angles (in turns) of the model branches."""
        if not self.boundary:
            return np.arange(self.m_branches) / self.m_branches
        return np.arange(self.m_branches) / (2.0 * (self.m_branches - 1))


# ---------------------------------------------------------------------------
# the assembled form
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    """A sampled flow line and how it ended. `face` is the face a
    "converged" trajectory flowed into. For a "skeleton" trajectory it is
    only `face_at`'s tie-break at the last point located, a point on or next
    to the grid that several faces border: the first face of least leaf
    label on a disc grid, the unit cell of the wrapped point on a periodic
    one. It is None when `face_at` raised there, i.e. the point lay outside
    the disc within GRID_BAND_GEOM of the grid."""
    points: list                 # (s, x, y) samples
    classification: str          # "converged" | "skeleton" | "undecided"
    face: int | None = None
    t_plus: float | None = None
    note: str = ""


class LiouvilleForm2D:
    """Grid + foliation + smoothing; evaluators for X and lambda = iota_X omega."""

    def __init__(self, grid: Grid):
        cert = validate_regular(grid)
        if not cert.ok:
            off = cert.offender_entry()
            raise FoliationError(
                f"vertex {cert.offender} has no equal-sector chart "
                f"(sector angles {off.sector_angles})")
        self.grid = grid
        self.cert = cert

        # non-smooth points of the grid: interior branch points and boundary
        # junctions (interior 2-valent regular vertices are smooth points)
        singular = {i for i, v in enumerate(grid.vertices) if v.valence >= 3}
        self.faces = [_build_face_chart(grid, i, singular)
                      for i in range(grid.n_faces)]
        self.charts = charts = _build_vertex_charts(grid, cert, singular)
        self._cells = _unit_cells(grid, self.faces) if grid.periodic else None
        self._chart_centers = np.array([c.center for c in charts]).reshape(-1, 2)
        self._chart_radii = np.array([np.sqrt(c.R_max / np.pi) for c in charts])

    # -- residues ------------------------------------------------------------
    @property
    def residues(self) -> np.ndarray:
        return -np.array([fc.area for fc in self.faces])

    # -- location ------------------------------------------------------------
    def wrap(self, x: np.ndarray) -> np.ndarray:
        if self.grid.periodic:
            return np.mod(x, self.grid.period)
        return x

    def chart_at(self, x: np.ndarray) -> VertexChart | None:
        """The vertex chart whose ball contains x."""
        x = np.asarray(x, dtype=float)
        for c in self.charts:
            if c.contains(x):
                return c
        return None

    def face_at(self, x: np.ndarray, band: float = 1e-9) -> tuple:
        """(face index, q, t) of the face containing x: q is the point that
        was labelled, x itself (the same array when x is a float array) or
        on a periodic grid the image of wrap(x) nearest to the marked point,
        and t is its leaf label."""
        x = np.asarray(x, dtype=float)
        if self.grid.periodic:
            N = self.grid.period
            xw = np.mod(x, N)
            i, j = int(min(xw[0], N - 1e-12)), int(min(xw[1], N - 1e-12))
            fc = self._cells[j][i]
            q = fc.p + min_image(xw - fc.p, N)
            return fc.face, q, fc.polar(q)[1]
        # the first face of least label t holds x, unless t > 1 + band or nan
        t, i = min((fc.polar(x)[1], fc.face) for fc in self.faces)
        if not t <= 1.0 + band:
            raise DomainError("point lies outside the disc")
        return i, x, t

    # -- evaluators ------------------------------------------------------------
    def eval_lambda(self, x) -> np.ndarray:
        """lambda = iota_X omega, which for omega = dx ^ dy is perp(X)."""
        X, t = self._field(x)
        if t < 1e-7:
            raise DomainError("lambda is singular at a marked point")
        return perp(X)

    def eval_X(self, x) -> np.ndarray:
        return self._field(x)[0]

    def _field(self, x) -> tuple:
        """(X at x, the leaf label t of x; inf inside a vertex chart)."""
        x = np.asarray(x, dtype=float)
        c = self.chart_at(x)
        if c is not None:
            return c.X(self.wrap(x)), np.inf
        i, q, t = self.face_at(x)
        return self.faces[i].X(q, t), t

    def residue_loop_integral(self, face: int, rho: float) -> float:
        """Quadrature of the loop integral of lambda on {R~ = rho} around p."""
        fc = self.faces[face]
        if rho <= 0 or rho >= fc.area:
            raise DomainError("rho must be inside the face chart")
        t = np.sqrt(rho / fc.area)
        if t >= self._leaf_clearance(fc):
            raise DomainError("loop leaves the marked-point chart")
        thetas = (np.arange(RESIDUE_LOOP_N) + 0.5) / RESIDUE_LOOP_N
        total = 0.0
        for th in thetas:
            x = fc.leaf(th, t)
            dx = t * fc.boundary_velocity(th)
            total += float(perp(fc.X(x, fc.polar(x)[1])) @ dx)
        return total / RESIDUE_LOOP_N

    def _leaf_clearance(self, fc: FaceChart) -> float:
        """Largest t0 such that every leaf point with t < t0 avoids all charts."""
        if not self.charts:
            return 1.0
        d = np.linalg.norm(self._chart_vec(fc.p), axis=1)
        clear = float(np.min(d - 1.02 * self._chart_radii))
        # over the largest knot value of r; the not-a-knot pieces stay below
        # it between knots on the radial, pinwheel and periodic grids
        return max(0.0, min(1.0, clear / float(np.max(fc.r_coef[:, 0]))))

    def _chart_vec(self, x: np.ndarray) -> np.ndarray:
        v = self._chart_centers - np.asarray(x)[None, :]
        if self.grid.periodic and len(v):
            v = min_image(v, self.grid.period)
        return v

    # -- flow ------------------------------------------------------------------
    def flow(self, start, t_max: float, direction: int = 1) -> Trajectory:
        """Integrate direction * X from start for Liouville time t_max."""
        x = np.asarray(start, dtype=float).copy()
        pts = [(0.0, float(x[0]), float(x[1]))]
        s = 0.0
        guard = 0
        conv_t = np.sqrt(CONVERGENCE_R)
        while s < t_max and guard < 400:
            guard += 1
            c = self.chart_at(x)
            if c is not None:
                s, x, exited = self._chart_leg(c, x, s, t_max, direction, pts)
                if not exited and s < t_max:
                    break
                continue
            try:
                i, q, t = self.face_at(x, band=1e-7)
            except DomainError:
                return Trajectory(pts, "undecided", note="left the domain")
            if t >= 1.0 - 1e-12:
                # on the skeleton: the face field vanishes identically
                pts.append((t_max, float(x[0]), float(x[1])))
                return Trajectory(pts, "skeleton", face=i)
            # x lies on the leaf p + t u of its face; p itself on leaf 0
            fc = self.faces[i]
            u = (q - fc.p) / t if t > 0.0 else fc.boundary_point(0.0) - fc.p
            s, x, done = self._face_leg(fc, u, t, s, t_max, direction, pts)
            if done is not None:
                return done
            x = self.wrap(x)
        try:
            i, _, t = self.face_at(x, band=1e-5)
        except DomainError:
            if self.grid.grid_distance(x) < GRID_BAND_GEOM:
                return Trajectory(pts, "skeleton")
            return Trajectory(pts, "undecided", note="left the domain")
        if t <= conv_t:
            return Trajectory(pts, "converged", face=i, t_plus=s)
        if self.grid.grid_distance(x) < GRID_BAND_GEOM:
            return Trajectory(pts, "skeleton", face=i)
        return Trajectory(pts, "undecided", face=i, note="budget exhausted")

    def _leaf_chart_intervals(self, fc: FaceChart, u: np.ndarray) -> list:
        """t-intervals along the leaf p + t u inside the (exact, ambient)
        chart balls."""
        if not len(self._chart_radii):
            return []
        L2 = float(u @ u)
        out = []
        vecs = self._chart_vec(fc.p)
        for v, rc in zip(vecs, self._chart_radii):
            b = float(u @ v) / L2
            c0 = (float(v @ v) - rc * rc) / L2
            disc = b * b - c0
            if disc <= 0:
                continue
            root = np.sqrt(disc)
            t0, t1 = b - root, b + root
            if t1 <= 0 or t0 >= 1.0:
                continue
            out.append((max(t0, 0.0), min(t1, 1.0)))
        out.sort()
        return out

    def _face_leg(self, fc, u, t, s, t_max, direction, pts):
        """Closed-form leg along the leaf p + t u from label t at time s, on
        which 1 - t^2 scales by e^(direction s): forward it runs to the
        marked point, backward towards the face boundary, either way stopping
        at the next chart ball on the leaf or at t_max. Returns (s, x,
        Trajectory or None while the flow goes on)."""
        intervals = self._leaf_chart_intervals(fc, u)
        if direction > 0:
            t_stop = max((hi for lo, hi in intervals if hi < t - 1e-12),
                         default=None)
        else:
            t_stop = min((lo for lo, hi in intervals if lo > t + 1e-12),
                         default=None)
        if t_stop is not None:
            ds = direction * np.log((1.0 - t_stop * t_stop) / (1.0 - t * t))
            if s + ds <= t_max:
                x_new = fc.p + min(t_stop * (1.0 - direction * 1e-9), 1.0) * u
                s += ds
                pts.append((s, float(x_new[0]), float(x_new[1])))
                return s, x_new, None
        elif direction > 0:
            s_star = -np.log(max(1.0 - t * t, 1e-300))
            if s + s_star <= t_max:
                x_end = fc.p.copy()
                pts.append((s + s_star, float(x_end[0]), float(x_end[1])))
                return s + s_star, x_end, Trajectory(
                    pts, "converged", face=fc.face, t_plus=s + s_star)
        t_new = np.sqrt(max(0.0, 1.0 - (1.0 - t * t)
                            * np.exp(direction * (t_max - s))))
        x_end = fc.p + t_new * u
        pts.append((t_max, float(x_end[0]), float(x_end[1])))
        if direction < 0:
            # t -> 1 asymptotically; never reaches the boundary
            return t_max, x_end, Trajectory(pts, "undecided", face=fc.face,
                                            note="backward leg complete")
        if t_stop is None and t_new <= np.sqrt(CONVERGENCE_R / fc.area):
            return t_max, x_end, Trajectory(pts, "converged", face=fc.face,
                                            t_plus=t_max)
        return t_max, x_end, Trajectory(pts, "undecided", face=fc.face,
                                        note="budget exhausted")

    def _chart_leg(self, chart, x, s, t_max, direction, pts):
        """Integrate the model ODE in chart coordinates (R, theta).

        In chart coordinates the branch rays are exact invariant lines of the
        integrated system (theta-dot vanishes to machine precision on them),
        so skeleton points are not kicked off by reprojection noise, which the
        transverse instability would amplify by e^t. The field, the stop
        event and the samples work in Python floats, which round as the
        same expressions on arrays.
        """
        budget = t_max - s
        rc = chart.ambient_radius()
        N = chart.period
        R0, th0, _ = chart.chart_coords(x)
        state0 = np.array([R0, th0])

        def f(y):
            R, th = y.tolist()
            vR, vth = chart.model_field(max(R, 0.0), th)
            return direction * vR, direction * vth

        def stop(y):
            v0, v1 = chart.offset(*chart.ambient_xy(*y.tolist()))
            return rc * (1.0 + 1e-7) - float(np.hypot(v0, v1))

        def ambient(y) -> tuple:
            # float % rounds like np.mod
            a0, a1 = chart.ambient_xy(*y.tolist())
            return (a0 % N, a1 % N) if N is not None else (a0, a1)

        trail = []

        def record(si, yi):
            trail.append((s + si, yi))

        ds, y_new, stopped = rk45(f, state0, budget, atol=FLOW_ATOL,
                                  rtol=1e-10, stop=stop, max_step=0.5,
                                  record=record)
        for si, yi in trail[-40:]:
            pts.append((si, *ambient(yi)))
        s_new = s + ds
        x_new = np.array(ambient(y_new))
        if not trail:
            pts.append((s_new, float(x_new[0]), float(x_new[1])))
        return s_new, x_new, stopped


def _unit_cells(grid: Grid, faces: list) -> list:
    """The face chart of each unit cell [i, i+1] x [j, j+1] of a periodic
    grid, as rows cells[j][i]. Raises FoliationError unless the faces are
    the N^2 unit lattice cells."""
    N = round(grid.period)
    if N != grid.period or len(faces) != N * N:
        raise FoliationError(
            "a periodic grid needs its unit lattice cells as faces; this one "
            f"has period {grid.period:g} and {len(faces)} faces")
    cells = [[None] * N for _ in range(N)]
    for fc in faces:
        poly = grid.face_polygon(fc.face)
        lo, hi = poly.min(axis=0), poly.max(axis=0)
        i, j = np.rint(lo).astype(int).tolist()
        if not (0 <= i < N and 0 <= j < N and cells[j][i] is None
                and np.all(np.abs(lo - (i, j)) <= 1e-9)
                and np.all(np.abs(hi - (i + 1, j + 1)) <= 1e-9)
                and abs(shoelace_area(poly) - 1.0) <= 1e-9):
            raise FoliationError(f"face {fc.face} is not a unit lattice cell")
        cells[j][i] = fc
    return cells


def _build_vertex_charts(grid: Grid, cert, singular: set) -> list:
    charts = []
    entries = {e.vertex: e for e in cert.entries}
    r_out = None if grid.periodic else grid.boundary_radius()
    for vi in sorted(singular):
        v = grid.vertices[vi]
        boundary = bool(v.boundary and not grid.periodic)
        reach = _chart_reach(grid, vi)
        if reach <= 0:
            continue
        rotation = entries[vi].rotation if vi in entries else 0.0
        chart = VertexChart(
            vid=vi, center=v.xy.copy(), m_branches=v.valence,
            boundary=boundary, rotation=rotation,
            R_max=float(np.pi * reach * reach),
            disc_R=float(np.pi * r_out * r_out) if boundary else 0.0,
            collar_scale=float(2.0 * np.pi * r_out) if boundary else 1.0,
            period=grid.period if grid.periodic else None,
        )
        # the cap is measured in the chart's coordinates, which do not
        # depend on its radius
        r_capped = _curvature_cap(grid, chart)
        if r_capped < chart.ambient_radius():
            chart = replace(chart, R_max=float(np.pi * r_capped * r_capped))
        charts.append(chart)
    return charts


def _curvature_cap(grid: Grid, chart: "VertexChart") -> float:
    """Largest chart radius at which every incident branch polyline stays
    within BRANCH_DEVIATION of its nearest model ray, measured in chart
    coordinates (boundary charts straighten the boundary circle exactly)."""
    vi = chart.vid
    rays = chart.branch_turns()
    rc = chart.ambient_radius()
    for a in grid.arcs:
        if a.seam:
            continue
        ends = []
        if a.v0 == vi:
            ends.append(a.points)
        if a.v1 == vi:
            ends.append(a.points[::-1])
        for pts in ends:
            for q in pts[1:]:
                R, th, _ = chart.chart_coords(np.asarray(q, dtype=float))
                r = np.sqrt(max(R, 0.0) / np.pi)
                if r > rc:
                    break
                dth = np.min(np.abs(np.mod(th - rays + 0.5, 1.0) - 0.5))
                if chart.boundary:
                    dth = min(dth, abs(th - 1.0))
                trans = r * np.sin(min(TWO_PI * dth, np.pi / 2))
                if trans > BRANCH_DEVIATION:
                    rc = min(rc, 0.95 * r)
                    break
    return rc


def _chart_reach(grid: Grid, vi: int) -> float:
    v = grid.vertices[vi]

    def dist(a, b):
        d = a - b
        if grid.periodic:
            d = min_image(d, grid.period)
        return float(np.hypot(d[0], d[1]))

    arc_reach = np.inf
    other_arc = np.inf
    for a in grid.arcs:
        incident = a.v0 == vi or a.v1 == vi
        seg = np.linalg.norm(np.diff(a.points, axis=0), axis=1).sum()
        if incident:
            arc_reach = min(arc_reach, seg)
        else:
            s0, ab, denom = polyline_segments([a.points])
            if grid.periodic:  # each segment at its start's image nearest v
                s0 = v.xy + min_image(s0 - v.xy, grid.period)
            dmin = float(segments_distance(v.xy, (s0, ab, denom)))
            other_arc = min(other_arc, dmin)
    vert = min((dist(w.xy, v.xy) for j, w in enumerate(grid.vertices) if j != vi
                and dist(w.xy, v.xy) > 1e-12), default=np.inf)
    mark = min((dist(mp, v.xy) for mp in grid.marked_points), default=np.inf)
    return min(arc_reach / 4.0, vert / 3.0, mark / 2.0, other_arc / 2.0)


# ---------------------------------------------------------------------------
# spec-level operations
# ---------------------------------------------------------------------------

def build_form(grid: Grid) -> LiouvilleForm2D:
    return LiouvilleForm2D(grid)


# ---------------------------------------------------------------------------
# weight splitting
# ---------------------------------------------------------------------------

class SplitForm2D:
    """One face weight a split into (a1, a2) at two nearby marked points.

    Inside a small disc D around the original marked point the form is the
    convex combination (a1/a) phi1* lambda + (a2/a) phi2* lambda, where phi_j
    is a compactly supported Hamiltonian push taking the new point p_j to p.
    Outside D the form (and hence the flow) is unchanged.
    """

    def __init__(self, base: LiouvilleForm2D, face: int, a1: float, a2: float):
        fc = base.faces[face]
        a = fc.area
        if a1 <= 0 or a2 <= 0:
            raise ValueError("split parts must be positive")
        if abs((a1 + a2) - a) > 1e-9 * a:
            raise ValueError("split parts must sum to the face weight")
        self.base = base
        self.face = face
        self.a1, self.a2 = float(a1), float(a2)
        self.fc = fc
        # the split disc lives in the leaf chart, clear of all vertex charts
        t_split = min(np.sqrt(SPLIT_R_FRAC), 0.6 * base._leaf_clearance(fc))
        if t_split <= 0.05:
            raise ValueError("no room for the split disc in this face")
        rb_min = float(np.min(fc.r_coef[:, 0]))
        self.r_D = t_split * rb_min          # euclidean radius of D
        self.r_core = 0.45 * self.r_D        # bump is 1 inside the core
        off = 0.35 * self.r_core
        self.p1 = fc.p + np.array([off, 0.0])
        self.p2 = fc.p - np.array([off, 0.0])
        self.d1 = fc.p - self.p1
        self.d2 = fc.p - self.p2

    # -- bump Hamiltonian pushes -------------------------------------------
    def _beta(self, rho2: float) -> tuple:
        """The smoothstep bump and its first two derivatives in rho2 = |v|^2."""
        lo, hi = self.r_core**2, (0.85 * self.r_D) ** 2
        if rho2 <= lo or rho2 >= hi:
            return float(rho2 <= lo), 0.0, 0.0    # 1 on the core, 0 outside
        w = hi - lo
        u = (rho2 - lo) / w
        return (1.0 - u * u * (3.0 - 2.0 * u), -(6.0 * u - 6.0 * u * u) / w,
                -(6.0 - 12.0 * u) / (w * w))

    def _push_field(self, d: np.ndarray, z: np.ndarray) -> np.ndarray:
        """d/ds of z = (y, J) along X_H, H = (d x v) beta(|v|^2), v = y - p:
        X_H and DX_H J are the quarter turns (a, b) -> (b, -a) of grad H and
        of Hess H J. On the core X_H = d and DX_H = 0."""
        (v0, v1), (d0, d1) = (z[:2] - self.fc.p).tolist(), d.tolist()
        j00, j01, j10, j11 = z[2:].tolist()
        b, db, ddb = self._beta(v0 * v0 + v1 * v1)
        c = d0 * v1 - d1 * v0                    # d x v, gradient g = (-d1, d0)
        Hx, Hy = -d1 * b + c * db * 2.0 * v0, d0 * b + c * db * 2.0 * v1
        # Hess H = 2 b' (g v^T + v g^T) + 4 c b'' v v^T + 2 c b' I
        Hxx = -4.0 * db * d1 * v0 + 4.0 * c * ddb * v0 * v0 + 2.0 * c * db
        Hxy = 2.0 * db * (d0 * v0 - d1 * v1) + 4.0 * c * ddb * v0 * v1
        Hyy = 4.0 * db * d0 * v1 + 4.0 * c * ddb * v1 * v1 + 2.0 * c * db
        return np.array([Hy, -Hx, Hxy * j00 + Hyy * j10, Hxy * j01 + Hyy * j11,
                         -Hxx * j00 - Hxy * j10, -Hxx * j01 - Hxy * j11])

    def _push(self, d: np.ndarray, x: np.ndarray) -> tuple:
        """The time-1 RK4 push of x along X_H and its Jacobian J. J runs in
        the same RK4 steps, so it is the derivative of the RK4 map itself."""
        z = np.array([x[0], x[1], 1.0, 0.0, 0.0, 1.0], dtype=float)
        h = 1.0 / PUSH_STEPS
        for _ in range(PUSH_STEPS):
            k1 = self._push_field(d, z)
            k2 = self._push_field(d, z + 0.5 * h * k1)
            k3 = self._push_field(d, z + 0.5 * h * k2)
            k4 = self._push_field(d, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return z[:2], z[2:].reshape(2, 2)

    def in_disc(self, x) -> bool:
        v = np.asarray(x, dtype=float) - self.fc.p
        return float(v @ v) < self.r_D**2

    def eval_lambda(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.in_disc(x):
            return self.base.eval_lambda(x)
        a = self.fc.area
        out = np.zeros(2)
        for w, d in ((self.a1 / a, self.d1), (self.a2 / a, self.d2)):
            y, J = self._push(d, x)
            out += w * (self.base.eval_lambda(y) @ J)
        return out

    def eval_X(self, x) -> np.ndarray:
        return -perp(self.eval_lambda(x))  # omega(X, .) = lambda

    def residue_loop_integral(self, which: int, rho_geom: float) -> float:
        """Loop integral of the split form around p1 (which=1) or p2 (which=2)
        on the euclidean circle of radius rho_geom."""
        c = self.p1 if which == 1 else self.p2
        if rho_geom >= 0.5 * np.linalg.norm(self.p1 - self.p2):
            raise DomainError("loop would enclose both split points")
        ang = TWO_PI * (np.arange(SPLIT_LOOP_N) + 0.5) / SPLIT_LOOP_N
        total = 0.0
        for aa in ang:
            x = c + rho_geom * np.array([np.cos(aa), np.sin(aa)])
            dx = rho_geom * TWO_PI * np.array([-np.sin(aa), np.cos(aa)]) / SPLIT_LOOP_N
            total += float(self.eval_lambda(x) @ dx)
        return total

    def flow(self, start, t_max: float, direction: int = 1) -> Trajectory:
        """Generic integration; outside the split disc this matches the base
        form's flow, inside it follows the convex-combination field."""
        x = np.asarray(start, dtype=float).copy()
        if not self.in_disc(x):
            base_tr = self.base.flow(x, t_max, direction)
            # stop the base trajectory at the first entry into D
            pts = []
            for (s, px, py) in base_tr.points:
                pts.append((s, px, py))
                if self.in_disc(np.array([px, py])):
                    break
            else:
                return base_tr
            x = np.asarray(pts[-1][1:], dtype=float)
            s0 = pts[-1][0]
        else:
            pts = [(0.0, float(x[0]), float(x[1]))]
            s0 = 0.0

        def f(y):
            return direction * self.eval_X(y)

        def stop(y):
            dmin = min(np.linalg.norm(y - self.p1), np.linalg.norm(y - self.p2))
            return dmin - 1e-4 * self.r_D

        ds, x_end, _ = rk45(f, x, t_max - s0, atol=1e-7, rtol=1e-7,
                            stop=stop, max_step=0.5)
        pts.append((s0 + ds, float(x_end[0]), float(x_end[1])))
        dmin = min(np.linalg.norm(x_end - self.p1), np.linalg.norm(x_end - self.p2))
        if dmin < 1e-3 * self.r_D or self.in_disc(x_end):
            return Trajectory(pts, "converged", face=self.face, t_plus=s0 + ds)
        return Trajectory(pts, "undecided", face=self.face)


def split_weights(form: LiouvilleForm2D, face: int, parts) -> SplitForm2D:
    """Replace the residue -a of one face by residues -a1, -a2 at two points."""
    return SplitForm2D(form, face, *parts)
