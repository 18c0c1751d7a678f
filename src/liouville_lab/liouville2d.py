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
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

from .geom import (TWO_PI, min_image, perp, polyline_segments,
                   segments_distance)
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
    s_coef: list             # per interval: degree-7 coefficients of the swept area
    s_knots: np.ndarray      # cumulative swept area at knots (s[0]=0, s[-1]=area)
    vertex_thetas: list      # (vertex id, theta label of its separatrix)
    vertex_phis: np.ndarray = None  # angles of all grid vertices on the boundary
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
    def labels(self, x: np.ndarray) -> tuple:
        """(theta, t) of a point; t > 1 means outside this face."""
        v = x - self.p
        r = float(np.hypot(v[0], v[1]))
        if r == 0.0:
            return 0.0, 0.0
        ph = np.arctan2(v[1], v[0])
        rb = self.r_of_phi(ph)
        return self.theta_of_phi(ph), r / rb

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


def _build_face_chart(grid: Grid, face: int, singular_ids: set,
                      vertex_pos: dict) -> FaceChart:
    poly = grid.face_polygon(face)
    p = grid.marked_points[face]
    v = poly - p[None, :]
    r = np.hypot(v[:, 0], v[:, 1])
    if np.any(r <= 0):
        raise FoliationError(f"face {face}: marked point lies on the boundary")
    ph_raw = np.arctan2(v[:, 1], v[:, 0])

    # identify polygon samples that are grid vertices (by wrapped position)
    def vid_at(q):
        key = _poskey(q, grid)
        return vertex_pos.get(key)

    # rotate so index 0 is the first singular vertex when one exists
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
    breaks = [0]
    for i in range(1, len(poly)):
        if vid_at(poly[i]) is not None:
            breaks.append(i)
    breaks.append(len(poly))
    r_coef = np.empty((len(h), 4))
    for b0, b1 in zip(breaks[:-1], breaks[1:]):
        if b1 - b0 < 1:
            continue
        r_coef[b0:b1] = _piece_coeffs(ph[b0:b1 + 1], rr[b0:b1 + 1])

    s_coef = []
    s_knots = np.empty(len(h) + 1)
    s_knots[0] = 0.0
    for j in range(len(h)):
        sq = P.polymul(r_coef[j], r_coef[j])
        sc = P.polyint(0.5 * sq)
        s_coef.append(sc)
        s_knots[j + 1] = s_knots[j] + P.polyval(h[j], sc)
    area = float(s_knots[-1])

    vertex_thetas = []
    for i, q in enumerate(poly):
        w = vid_at(q)
        if w is not None and w in singular_ids:
            vertex_thetas.append((w, float(s_knots[i] / area)))
    vertex_phis = np.array([ph[b] for b in breaks[:-1]])

    return FaceChart(face, p.copy(), area, ph, r_coef, s_coef, s_knots,
                     vertex_thetas, vertex_phis)


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


def _poskey(q, grid: Grid):
    x, y = float(q[0]), float(q[1])
    if grid.periodic:
        N = grid.period
        x, y = np.mod(x, N), np.mod(y, N)
        if x > N - 1e-9:
            x = 0.0
        if y > N - 1e-9:
            y = 0.0
    return (round(x, 9), round(y, 9))


# ---------------------------------------------------------------------------
# vertex charts: the smoothing model
# ---------------------------------------------------------------------------

@dataclass
class VertexChart:
    """Local model R dtheta - (1/2 pi m) d(chi(R) sin(2 pi m theta))."""

    vid: int
    center: np.ndarray
    m_branches: int
    mult: int                 # model multiplicity: m interior, 2(m-1) boundary
    boundary: bool
    rotation: float           # chart alignment [rad]
    R_max: float              # chart domain {R < R_max}, R_max = 2 eps
    eps: float
    chi_knots: tuple = field(default=())
    # boundary straightening
    disc_R: float = 0.0       # pi * r_out^2
    collar_scale: float = 1.0

    # -- chi ------------------------------------------------------------------
    def chi(self, R: float) -> float:
        m = self.mult
        e = self.eps
        if R <= 0.5 * e:
            return R ** (0.5 * m)
        if R >= e:
            return R
        y0, d0, c2, c3 = self._bridge()
        x = R - 0.5 * e
        return float(y0 + (d0 + (c2 + c3 * x) * x) * x)

    def chi_prime(self, R: float) -> float:
        m = self.mult
        e = self.eps
        if R <= 0.5 * e:
            return 0.5 * m * R ** (0.5 * m - 1.0) if R > 0 else 0.0
        if R >= e:
            return 1.0
        _, d0, c2, c3 = self._bridge()
        x = R - 0.5 * e
        return float(d0 + (2 * c2 + 3 * c3 * x) * x)

    def _bridge(self) -> tuple:
        """Lowest-first coefficients (y0, d0, c2, c3) of the cubic on
        [eps/2, eps] in R - eps/2, cached; chi and chi_prime evaluate it and
        its derivative by Horner's rule in the operation order of
        `P.polyval`."""
        if not self.chi_knots:
            e, m = self.eps, self.mult
            x0, x1 = 0.5 * e, e
            y0 = x0 ** (0.5 * m)
            d0 = 0.5 * m * x0 ** (0.5 * m - 1.0)
            h = x1 - x0
            c3 = (2 * (y0 - x1) + h * (d0 + 1.0)) / h**3
            c2 = (3 * (x1 - y0) - h * (2 * d0 + 1.0)) / h**2
            object.__setattr__(self, "chi_knots", (y0, d0, c2, c3))
        return self.chi_knots

    # -- chart coordinates ----------------------------------------------------
    def chart_coords(self, x: np.ndarray, grid: Grid) -> tuple:
        """(R, theta, s) of x, s the chart's Cartesian position: the offset
        from the vertex, or the collar coordinates at a boundary vertex."""
        if not self.boundary:
            xi = x - self.center
            if grid.periodic:
                xi = min_image(xi, grid.period)
            R = np.pi * float(xi @ xi)
            th = np.mod(np.arctan2(xi[1], xi[0]) - self.rotation, TWO_PI) / TWO_PI
            return R, th, xi
        c = self.collar_scale
        th_d = np.arctan2(x[1], x[0])
        th_q = np.arctan2(self.center[1], self.center[0])
        dth = (np.mod(th_d - th_q + np.pi, TWO_PI) - np.pi) / TWO_PI
        R_d = np.pi * float(x @ x)
        xt = c * dth
        yt = (self.disc_R - R_d) / c
        R = np.pi * (xt * xt + yt * yt)
        th = np.mod(np.arctan2(yt, xt), TWO_PI) / TWO_PI
        return R, th, np.array([xt, yt])

    def ambient_radius(self) -> float:
        return float(np.sqrt(self.R_max / np.pi))

    def contains(self, x: np.ndarray, grid: Grid) -> bool:
        """Chart domain: the ambient ball at the vertex. The model formula
        extends smoothly past R_max (chi(R) = R there) and across the
        boundary ray, so integration overshoots stay well defined."""
        v = np.asarray(x, dtype=float) - self.center
        if grid.periodic:
            v = min_image(v, grid.period)
        return float(v @ v) < self.R_max / np.pi

    # -- model form and field ---------------------------------------------
    def model_field(self, R: float, th: float) -> np.ndarray:
        """(R-dot, theta-dot) of the model field in chart coordinates; the
        model form is R-dot dtheta - theta-dot dR."""
        m = self.mult
        ang = TWO_PI * m * th
        return np.array([R - self.chi(R) * math.cos(ang),
                         self.chi_prime(R) * math.sin(ang) / (TWO_PI * m)])

    def X(self, x: np.ndarray, grid: Grid) -> np.ndarray:
        R, th, s = self.chart_coords(x, grid)
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

    def chart_to_ambient(self, R: float, th: float, grid: Grid) -> np.ndarray:
        """Inverse of chart_coords (modulo periodic wrapping)."""
        r = math.sqrt(max(R, 0.0) / np.pi)
        if not self.boundary:
            ang = self.rotation + TWO_PI * th
            return self.center + r * np.array([math.cos(ang), math.sin(ang)])
        xt = r * math.cos(TWO_PI * th)
        yt = r * math.sin(TWO_PI * th)
        c = self.collar_scale
        th_q = np.arctan2(self.center[1], self.center[0])
        th_d = th_q + TWO_PI * (xt / c)
        R_d = self.disc_R - c * yt
        rr = math.sqrt(max(R_d, 0.0) / np.pi)
        return rr * np.array([math.cos(th_d), math.sin(th_d)])

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
        vertex_pos = {_poskey(v.xy, grid): i for i, v in enumerate(grid.vertices)}
        singular = {i for i, v in enumerate(grid.vertices) if v.valence >= 3}
        faces = [_build_face_chart(grid, i, singular, vertex_pos)
                 for i in range(grid.n_faces)]
        charts = _build_vertex_charts(grid, cert, singular)
        self.faces = faces
        self.charts = charts
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
            if c.contains(x, self.grid):
                return c
        return None

    def face_at(self, x: np.ndarray, band: float = 1e-9) -> tuple:
        """(face index, theta, t) of the face containing x."""
        x = np.asarray(x, dtype=float)
        if self.grid.periodic:
            N = self.grid.period
            xw = np.mod(x, N)
            i, j = int(min(xw[0], N - 1e-12)), int(min(xw[1], N - 1e-12))
            fc = self.faces[j * int(N) + i]
            q = fc.p + min_image(xw - fc.p, N)
            th, t = fc.labels(q)
            return fc.face, th, t
        best = None
        for fc in self.faces:
            th, t = fc.labels(x)
            if t <= 1.0 + band and (best is None or t < best[2]):
                best = (fc.face, th, t)
        if best is None:
            raise DomainError("point lies outside the disc")
        return best

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
            return c.X(self.wrap(x), self.grid), np.inf
        i, _, t = self.face_at(x)
        fc = self.faces[i]
        # the point face_at labelled: x itself, or on a periodic grid the
        # image of wrap(x) nearest to p
        return fc.X(self._face_local(fc, self.wrap(x)), t), t

    def _face_local(self, fc: FaceChart, x: np.ndarray) -> np.ndarray:
        if self.grid.periodic:
            return fc.p + min_image(np.asarray(x) - fc.p, self.grid.period)
        return np.asarray(x, dtype=float)

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
            total += float(perp(fc.X(x, fc.labels(x)[1])) @ dx)
        return total / RESIDUE_LOOP_N

    def _leaf_clearance(self, fc: FaceChart) -> float:
        """Largest t0 such that every leaf point with t < t0 avoids all charts."""
        if not self.charts:
            return 1.0
        d = np.linalg.norm(self._chart_vec(fc.p), axis=1)
        clear = float(np.min(d - 1.02 * self._chart_radii))
        return max(0.0, min(1.0, clear / self._max_rb(fc)))

    def _max_rb(self, fc: FaceChart) -> float:
        # largest knot value of r; the not-a-knot pieces stay below it
        # between knots on the radial, pinwheel and periodic grids
        return float(np.max(fc.r_coef[:, 0]))

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
                i, th, t = self.face_at(x, band=1e-7)
            except DomainError:
                return Trajectory(pts, "undecided", note="left the domain")
            if t >= 1.0 - 1e-12:
                # on the skeleton: the face field vanishes identically
                pts.append((t_max, float(x[0]), float(x[1])))
                return Trajectory(pts, "skeleton", face=i)
            s, x, done = self._face_leg(self.faces[i], th, t, s, t_max,
                                        direction, pts)
            if done is not None:
                return done
            x = self.wrap(x)
        try:
            i, th, t = self.face_at(x, band=1e-5)
        except DomainError:
            if self.grid.grid_distance(x) < GRID_BAND_GEOM:
                return Trajectory(pts, "skeleton")
            return Trajectory(pts, "undecided", note="left the domain")
        if t <= conv_t:
            return Trajectory(pts, "converged", face=i, t_plus=s)
        if self.grid.grid_distance(x) < GRID_BAND_GEOM:
            return Trajectory(pts, "skeleton", face=i)
        return Trajectory(pts, "undecided", face=i, note="budget exhausted")

    def _leaf_chart_intervals(self, fc: FaceChart, theta: float) -> list:
        """t-intervals along leaf theta inside the (exact, ambient) chart balls."""
        if not len(self._chart_radii):
            return []
        u = fc.boundary_point(theta) - fc.p
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

    def _face_leg(self, fc, th, t, s, t_max, direction, pts):
        """Closed-form leg along leaf th from label t at time s, on which
        1 - t^2 scales by e^(direction s): forward it runs to the marked
        point, backward towards the face boundary, either way stopping at the
        next chart ball on the leaf or at t_max. Returns (s, x, Trajectory or
        None while the flow goes on)."""
        intervals = self._leaf_chart_intervals(fc, th)
        if direction > 0:
            t_stop = max((hi for lo, hi in intervals if hi < t - 1e-12),
                         default=None)
        else:
            t_stop = min((lo for lo, hi in intervals if lo > t + 1e-12),
                         default=None)
        if t_stop is not None:
            ds = direction * np.log((1.0 - t_stop * t_stop) / (1.0 - t * t))
            if s + ds <= t_max:
                x_new = fc.leaf(th, min(t_stop * (1.0 - direction * 1e-9), 1.0))
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
        x_end = fc.leaf(th, t_new)
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
        transverse instability would amplify by e^t.
        """
        budget = t_max - s
        rc = chart.ambient_radius()
        grid = self.grid
        R0, th0, _ = chart.chart_coords(x, grid)
        state0 = np.array([R0, th0])

        def f(y):
            return direction * chart.model_field(max(float(y[0]), 0.0), y[1])

        def stop(y):
            xa = chart.chart_to_ambient(y[0], y[1], grid)
            v = xa - chart.center
            if grid.periodic:
                v = min_image(v, grid.period)
            return rc * (1.0 + 1e-7) - float(np.hypot(v[0], v[1]))

        trail = []

        def record(si, yi):
            trail.append((s + si, yi.copy()))

        ds, y_new, stopped = rk45(f, state0, budget, atol=FLOW_ATOL,
                                  rtol=1e-10, stop=stop, max_step=0.5,
                                  record=record)
        for si, yi in trail[-40:]:
            xa = self.wrap(chart.chart_to_ambient(yi[0], yi[1], grid))
            pts.append((si, float(xa[0]), float(xa[1])))
        s_new = s + ds
        x_new = self.wrap(chart.chart_to_ambient(y_new[0], y_new[1], grid))
        if not trail:
            pts.append((s_new, float(x_new[0]), float(x_new[1])))
        return s_new, x_new, stopped


def _build_vertex_charts(grid: Grid, cert, singular: set) -> list:
    charts = []
    entries = {e.vertex: e for e in cert.entries}
    r_out = None if grid.periodic else grid.boundary_radius()
    marked = grid.marked_points
    for vi in sorted(singular):
        v = grid.vertices[vi]
        boundary = bool(v.boundary and not grid.periodic)
        m = v.valence
        # the half-disc at a boundary vertex is half of the doubled interior
        # model, so the model multiplicity doubles there
        mult = m if not boundary else 2 * (m - 1)
        if mult < 3:
            continue
        reach = _chart_reach(grid, vi, marked)
        if reach <= 0:
            continue
        R_max = np.pi * reach * reach
        rotation = entries[vi].rotation if vi in entries else 0.0
        chart = VertexChart(
            vid=vi, center=v.xy.copy(), m_branches=m, mult=mult,
            boundary=boundary, rotation=rotation, R_max=float(R_max),
            eps=float(R_max / 2.0),
            disc_R=float(np.pi * r_out * r_out) if boundary else 0.0,
            collar_scale=float(2.0 * np.pi * r_out) if boundary else 1.0,
        )
        r_capped = _curvature_cap(grid, chart)
        if r_capped < chart.ambient_radius():
            chart.R_max = float(np.pi * r_capped * r_capped)
            chart.eps = chart.R_max / 2.0
            chart.chi_knots = ()
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
                R, th, _ = chart.chart_coords(np.asarray(q, dtype=float), grid)
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


def _chart_reach(grid: Grid, vi: int, marked) -> float:
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
    mark = min((dist(mp, v.xy) for mp in marked), default=np.inf)
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
