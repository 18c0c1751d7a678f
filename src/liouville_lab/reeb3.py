"""Reeb dynamics on starshaped hypersurfaces in R^4.

A hypersurface is the unit level S = {H = 1} of a 2-homogeneous defining
function H > 0 (so H(cz) = c^2 H(z)). For the standard primitive
alpha = (1/2) sum (x dy - y dx), Euler's identity gives alpha(X_H) = H on S,
so the Reeb field of alpha|_S is the Hamiltonian field X_H itself (normalized
pointwise by alpha(X_H) against level drift). On the round sphere
S^3(1) = {pi |z|^2 = 1} the Reeb flow is the Hopf circle action of period 1.

Radial projection z -> z / sqrt(H(z)) maps any curve with alpha(c') = 0 to a
Legendrian curve on S, which supplies the quarter-circle barrier graphs and
the test-knot library on every starshaped level.

Points are (x1, y1, x2, y2); complex views are (z1, z2) = (x1+iy1, x2+iy2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .geom import TWO_PI, min_image, polyline_segments, segments_distance
from .integrate import rk45

# ambient distance at which a Reeb chord is accepted
CHORD_TOL = 1e-5
# shortest admissible chord time (filters t -> 0 junk)
CHORD_T_MIN = 1e-3
# absolute and relative step tolerance of the numeric Reeb flow
REEB_ATOL = 1e-11
# seed-grid rows per capped distance query of the chord search
GRID_ROW_BLOCK = 4
# surface kind: parameter count and the bound the parameters must exceed for
# H > 0 off the origin (on `bumped` q1 q2 / r^4 <= 1/4, so 1 + c/4 > 0)
SURFACE_PARAMS = {"sphere": (0, 0.0), "ellipsoid": (2, 0.0), "bumped": (1, -4.0)}


def to_complex(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return z[..., 0::2] + 1j * z[..., 1::2]


def from_complex(w: np.ndarray) -> np.ndarray:
    """(x1, y1, x2, y2) of (z1, z2): a float view of a C-ordered copy of w,
    so that it never shares memory with the caller's array."""
    return np.array(w, dtype=complex, order="C").view(float)


def alpha_st(z: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Standard primitive evaluated on tangent vectors."""
    return 0.5 * (z[..., 0] * v[..., 1] - z[..., 1] * v[..., 0]
                  + z[..., 2] * v[..., 3] - z[..., 3] * v[..., 2])


def omega_st(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return (u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
            + u[..., 2] * v[..., 3] - u[..., 3] * v[..., 2])


# ---------------------------------------------------------------------------
# hypersurfaces
# ---------------------------------------------------------------------------

@dataclass
class StarshapedHypersurface:
    """S = H^{-1}(1) for a positive 2-homogeneous H of q1 = |z1|^2 and
    q2 = |z2|^2: the sphere pi (q1 + q2), the ellipsoid pi (q1/a + q2/b)
    and `bumped` pi (r^2 + c q1 q2 / r^2)."""

    kind: str = "sphere"
    params: tuple = ()

    def __post_init__(self):
        n, low = SURFACE_PARAMS.get(self.kind, (None, 0.0))
        p = np.array(self.params, dtype=float)
        if n is None or p.shape != (n,) or not np.all(np.isfinite(p) & (p > low)):
            raise ValueError(f"bad hypersurface {self.kind!r} {self.params!r}: "
                             "need sphere, ellipsoid a, b > 0 or bumped c > -4")
        # the constant periods of a sphere or an ellipsoid
        self._period = {"sphere": np.ones(2), "ellipsoid": p}.get(self.kind)

    def H(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        r2 = np.sum(z * z, axis=-1)
        if self.kind == "sphere":
            return np.pi * r2
        if self.kind == "ellipsoid":
            a, b = self.params
            q1 = z[..., 0] ** 2 + z[..., 1] ** 2
            q2 = z[..., 2] ** 2 + z[..., 3] ** 2
            return np.pi * (q1 / a + q2 / b)
        if self.kind == "bumped":
            c, = self.params
            q1 = z[..., 0] ** 2 + z[..., 1] ** 2
            q2 = z[..., 2] ** 2 + z[..., 3] ** 2
            with np.errstate(invalid="ignore", divide="ignore"):
                bump = np.where(r2 > 0, q1 * q2 / r2, 0.0)
            return np.pi * (r2 + c * bump)
        raise ValueError(f"unknown hypersurface kind {self.kind!r}")

    def grad_H(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.kind == "sphere":
            return 2.0 * np.pi * z
        if self.kind == "ellipsoid":
            a, b = self.params
            out = 2.0 * np.pi * z.copy()
            out[..., 0] /= a
            out[..., 1] /= a
            out[..., 2] /= b
            out[..., 3] /= b
            return out
        if self.kind == "bumped":
            c, = self.params
            zz = z * z
            r2 = np.sum(zz, axis=-1, keepdims=True)
            q1 = zz[..., 0] + zz[..., 1]
            q2 = zz[..., 2] + zz[..., 3]
            tz = 2.0 * z
            gb = (tz * np.stack([q2, q2, q1, q1], axis=-1) / r2
                  - tz * (q1 * q2)[..., None] / (r2 * r2))
            return np.pi * (tz + c * gb)
        raise ValueError(self.kind)

    def project(self, z: np.ndarray) -> np.ndarray:
        """Radial projection onto S (preserves Legendrians)."""
        h = self.H(z)
        return np.asarray(z, dtype=float) / np.sqrt(h)[..., None]

    def project_with_velocity(self, z: np.ndarray, v: np.ndarray) -> tuple:
        """Radial projection and the push-forward of a tangent field along it.

        For c = z/sqrt(H): c' = v/sqrt(H) - z dH(v)/(2 H^{3/2}); since
        alpha(z-radial) = 0 this keeps alpha(c') = alpha(v)/H, so exact
        Legendrians stay exactly Legendrian.
        """
        z = np.asarray(z, dtype=float)
        v = np.asarray(v, dtype=float)
        h = self.H(z)[..., None]
        dh = np.sum(self.grad_H(z) * v, axis=-1)[..., None]
        c = z / np.sqrt(h)
        cv = v / np.sqrt(h) - z * dh / (2.0 * h ** 1.5)
        return c, cv

    def reeb(self, z: np.ndarray) -> np.ndarray:
        """Reeb field of alpha|_S: X_H normalized so alpha(R) = 1."""
        g = self.grad_H(z)
        X = np.empty_like(g)
        X[..., 0] = -g[..., 1]
        X[..., 1] = g[..., 0]
        X[..., 2] = -g[..., 3]
        X[..., 3] = g[..., 2]
        X = 0.5 * X  # alpha(X_H) = H with this normalization; on S, H = 1
        norm = alpha_st(np.asarray(z, dtype=float), X)
        return X / norm[..., None]

    def periods(self, z: np.ndarray) -> np.ndarray:
        """Periods (P1, P2) of the Reeb rotation of z1 and z2: for H = pi h(q),
        alpha(X_H) = H/2, so R turns z_j at 2 dh/dq_j / h; P_j = pi h / dh/dq_j."""
        if self._period is not None:
            return self._period
        c, = self.params
        q = (z * z).reshape(z.shape[:-1] + (2, 2)).sum(axis=-1)
        r2 = q.sum(axis=-1, keepdims=True)
        # h = r^2 + c q1 q2 / r^2, dh/dq1 = 1 + c q2^2 / r^4 and back
        dh = 1.0 + c * (q[..., ::-1] / r2) ** 2
        return np.pi * (r2 + c * q.prod(axis=-1, keepdims=True) / r2) / dh

    def flow(self, z: np.ndarray, t) -> np.ndarray:
        """Reeb flow Phi^t(z) = (z1 e^{2 pi i t/P1}, z2 e^{2 pi i t/P2}): H
        depends on q1 and q2 only, so both are conserved and each z_j turns
        at the constant rate of its period.

        t may be a scalar or an array; z's leading axes and t broadcast.
        """
        z = np.asarray(z, dtype=float)
        t = np.asarray(t, dtype=float)
        return from_complex(to_complex(z) * np.exp(
            2j * np.pi * t[..., None] / self.periods(z)))

    def flow_numeric(self, z: np.ndarray, t) -> np.ndarray:
        """Reference Reeb flow that integrates `reeb` instead: a whole batch
        in one rk45 run, dz/ds = t R(z) on s in [0, 1], for each row's t of
        either sign or zero. rk45's error test is the max-norm over the
        whole state, so every row meets REEB_ATOL."""
        tt = np.asarray(t, dtype=float)[..., None]
        z = np.broadcast_to(z, np.broadcast_shapes(np.shape(z), tt.shape))
        _, y, _ = rk45(lambda y: tt * self.reeb(y), z, 1.0,
                       atol=REEB_ATOL, rtol=REEB_ATOL)
        return y


def reeb_field(S: StarshapedHypersurface, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    if np.any(np.abs(S.H(z) - 1.0) > 1e-6):
        raise ValueError("point does not lie on the hypersurface")
    return S.reeb(z)


# ---------------------------------------------------------------------------
# Legendrian curves
# ---------------------------------------------------------------------------

@dataclass
class LegendrianCurve:
    """Sampled parametrized curve on S with its Legendrian defect."""

    name: str
    points: np.ndarray           # (n, 4), closed curves do not repeat the seam
    closed: bool = True
    velocities: np.ndarray | None = None
    defect: float = 0.0
    surface: StarshapedHypersurface | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float)
        if self.velocities is None:
            self.velocities = _fd_velocity(self.points, self.closed)
        self.defect = float(np.max(np.abs(
            alpha_st(self.points, self.velocities))) /
            max(float(np.max(np.linalg.norm(self.velocities, axis=1))), 1e-300))

    def level_error(self, S: StarshapedHypersurface) -> float:
        return float(np.max(np.abs(S.H(self.points) - 1.0)))


def _fd_velocity(p: np.ndarray, closed: bool) -> np.ndarray:
    if closed:
        return 0.5 * (np.roll(p, -1, axis=0) - np.roll(p, 1, axis=0))
    return np.gradient(p, axis=0)


def legendrian_graph(S: StarshapedHypersurface, k: int,
                     n_samples: int = 1024) -> list:
    """The k^2 quarter-arc barriers (xi^i R+ x xi^j R+) cap S, xi = e^{2 pi i/k}."""
    if k < 2:
        raise ValueError("need k >= 2")
    s = np.linspace(0.0, np.pi / 2.0, n_samples)
    arcs = []
    for i in range(k):
        for j in range(k):
            a1 = TWO_PI * i / k
            a2 = TWO_PI * j / k
            base = np.stack([
                np.cos(s) * np.cos(a1), np.cos(s) * np.sin(a1),
                np.sin(s) * np.cos(a2), np.sin(s) * np.sin(a2),
            ], axis=1)
            vel = np.stack([
                -np.sin(s) * np.cos(a1), -np.sin(s) * np.sin(a1),
                np.cos(s) * np.cos(a2), np.cos(s) * np.sin(a2),
            ], axis=1)
            pts, pv = S.project_with_velocity(base, vel)
            arcs.append(LegendrianCurve(f"Q[{i},{j}]", pts, closed=False,
                                        velocities=pv, surface=S))
    return arcs


def legendrian_torus_knot(S: StarshapedHypersurface, p: int, q: int,
                          phase: float = 0.0, n_samples: int = 2048) -> LegendrianCurve:
    """c(s) = (a e^{2 pi i p s}, b e^{-2 pi i q s}) projected to S.

    Horizontality on the round sphere needs p a^2 = q b^2; the radial
    projection then keeps the curve Legendrian on any starshaped level.
    (p, q) = (1, 1) is the Legendrian great circle; large (1, q) winds close
    to a Hopf fiber.
    """
    if p < 1 or q < 1:
        raise ValueError("p, q must be positive")
    a2 = q / (np.pi * (p + q))
    b2 = p / (np.pi * (p + q))
    s = np.linspace(0.0, 1.0, n_samples, endpoint=False)
    w1 = np.sqrt(a2) * np.exp(2j * np.pi * (p * s + phase))
    w2 = np.sqrt(b2) * np.exp(-2j * np.pi * (q * s))
    base = from_complex(np.stack([w1, w2], axis=1))
    vel = from_complex(np.stack([2j * np.pi * p * w1,
                                 -2j * np.pi * q * w2], axis=1))
    pts, pv = S.project_with_velocity(base, vel)
    return LegendrianCurve(f"torus({p},{q})", pts, closed=True,
                           velocities=pv, surface=S)


def legendrian_great_circle(S: StarshapedHypersurface, u=None, v=None,
                            n_samples: int = 2048) -> LegendrianCurve:
    """Great circle cos(s) u + sin(s) v with <u,v>_C = 0 (Legendrian unknot),
    projected to S."""
    if u is None:
        u = np.array([1.0, 0.0, 0.0, 0.0])
    if v is None:
        v = np.array([0.0, 0.0, np.cos(0.7), np.sin(0.7)])
    u = np.asarray(u, dtype=float) / np.linalg.norm(u)
    v = np.asarray(v, dtype=float) / np.linalg.norm(v)
    wu, wv = to_complex(u[None, :])[0], to_complex(v[None, :])[0]
    herm = np.vdot(wu[0], wv[0]) + np.vdot(wu[1], wv[1])
    if abs(herm) > 1e-12:
        raise ValueError("need complex-orthonormal axes for a Legendrian circle")
    s = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    base = (np.cos(s)[:, None] * u[None, :] + np.sin(s)[:, None] * v[None, :])
    vel = (-np.sin(s)[:, None] * u[None, :] + np.cos(s)[:, None] * v[None, :])
    pts, pv = S.project_with_velocity(base / np.sqrt(np.pi), vel / np.sqrt(np.pi))
    return LegendrianCurve("great-circle", pts, closed=True,
                           velocities=pv, surface=S)


def legendrian_lift(S: StarshapedHypersurface, base_point=(0.9, 0.85),
                    amplitude: float = 0.5, n_samples: int = 4096) -> LegendrianCurve:
    """Small Legendrian unknot: horizontal lift of a figure-eight on the Hopf
    base. The two lobes enclose opposite signed areas by reflection symmetry,
    so the holonomy vanishes and the lift closes up; a linear phase correction
    absorbs the residual quadrature gap (adding a defect below 1e-12).
    """
    th0, ph0 = base_point
    s = np.linspace(0.0, TWO_PI, n_samples, endpoint=False)
    # embedded figure-eight: the meridian reflection phi -> -phi composed with
    # the half-period shift s -> s + pi maps the curve onto itself reversing
    # orientation, so the signed lobe areas cancel pointwise in the holonomy
    # integrand and the horizontal lift closes up. The single shadow crossing
    # separates two strands at distinct fiber phases, so the lift is embedded.
    B = 0.5 * amplitude / np.sin(th0)
    theta = th0 + amplitude * np.sin(2.0 * s)
    d_theta = 2.0 * amplitude * np.cos(2.0 * s)
    phi = ph0 + B * np.sin(s)
    d_phi = B * np.cos(s)
    # section of the Hopf map over the chart, on the level H = 1
    r = 1.0 / np.sqrt(np.pi)
    z1 = r * np.cos(0.5 * theta) * np.exp(0.5j * phi)
    z2 = r * np.sin(0.5 * theta) * np.exp(-0.5j * phi)
    dz1 = r * (-0.5 * np.sin(0.5 * theta) * d_theta
               + 0.5j * d_phi * np.cos(0.5 * theta)) * np.exp(0.5j * phi)
    dz2 = r * (0.5 * np.cos(0.5 * theta) * d_theta
               - 0.5j * d_phi * np.sin(0.5 * theta)) * np.exp(-0.5j * phi)
    pts = from_complex(np.stack([z1, z2], axis=1))
    vel = from_complex(np.stack([dz1, dz2], axis=1))

    # phase correction: alpha(d/ds[e^{i psi} z]) = alpha(z') + psi'/(2 pi |z|^2 pi)
    a = alpha_st(pts, vel)
    scale = np.pi * np.sum(pts * pts, axis=1)   # = 1 on the level set
    ds = TWO_PI / n_samples
    integrand = -TWO_PI * a / scale
    psi = np.concatenate([[0.0],
                          np.cumsum(0.5 * (integrand[1:] + integrand[:-1]) * ds)])
    closure = psi[-1] + 0.5 * (integrand[-1] + integrand[0]) * ds
    closure = min_image(closure, TWO_PI)
    if abs(closure) > 1e-6:
        raise ValueError(f"lift does not close up (holonomy gap {closure:.2e})")
    slope = -closure / TWO_PI
    psi = psi[:n_samples] + slope * s
    dpsi = integrand + slope
    w = to_complex(pts) * np.exp(1j * psi)[:, None]
    dw = (to_complex(vel) + 1j * dpsi[:, None] * to_complex(pts)) \
        * np.exp(1j * psi)[:, None]
    c, cv = S.project_with_velocity(from_complex(w), from_complex(dw))
    return LegendrianCurve("lifted-eight", c, closed=True, velocities=cv,
                           surface=S)


def shipped_knots(S: StarshapedHypersurface) -> list:
    """The Legendrian test-knot library."""
    c, s_ = np.cos(0.4), np.sin(0.4)
    return [
        legendrian_great_circle(S),
        legendrian_great_circle(S, u=np.array([0.6, 0.0, 0.8, 0.0]),
                                v=np.array([-0.8 * c, -0.8 * s_, 0.6 * c, 0.6 * s_])),
        legendrian_torus_knot(S, 1, 2, phase=0.13),
        legendrian_torus_knot(S, 1, 5, phase=0.31),  # near a Hopf fiber
        legendrian_lift(S),
    ]


# ---------------------------------------------------------------------------
# Hopf projection and sweeps
# ---------------------------------------------------------------------------

def hopf_project(z: np.ndarray) -> np.ndarray:
    """Fiber-invariant projection to the unit 2-sphere."""
    w = to_complex(z)
    r2 = np.abs(w[..., 0]) ** 2 + np.abs(w[..., 1]) ** 2
    x = 2.0 * (w[..., 0] * np.conj(w[..., 1]))
    return np.stack([x.real / r2, x.imag / r2,
                     (np.abs(w[..., 0]) ** 2 - np.abs(w[..., 1]) ** 2) / r2],
                    axis=-1)


def spherical_polygon_area(path: np.ndarray) -> float:
    """Signed enclosed area of a closed path on the unit sphere, in units of
    the total sphere area (solid angle / 4 pi). Fan triangulation from the
    normalized path mean with the Van Oosterom-Strackee excess formula; robust
    through the poles."""
    c = path.mean(axis=0)
    c = c / np.linalg.norm(c)
    total = 0.0
    n = len(path)
    for i in range(n):
        a = path[i]
        b = path[(i + 1) % n]
        det = float(np.dot(c, np.cross(a, b)))
        denom = 1.0 + float(a @ b) + float(b @ c) + float(c @ a)
        total += 2.0 * np.arctan2(det, denom)
    return total / (4.0 * np.pi)


@dataclass
class SweepResult:
    samples: np.ndarray          # points of L
    component_count: int | None  # None = undecided
    disc_areas: list             # Hopf-projected areas of the complement discs


def hopf_sweep(k: int, T: float | None = None, n_test: int = 20000) -> SweepResult:
    """Sample L = union_{t in [0,T]} Phi^{-t}(Lambda_k) on the round sphere and
    count the components of its complement by neighbor-graph connectivity."""
    S = StarshapedHypersurface("sphere")
    if T is None:
        T = 1.0 / k
    P = np.stack([arc.points for arc in legendrian_graph(S, k, n_samples=160)])
    ts = np.linspace(0.0, T, 120)
    # ordered by arc, then time, then point along the arc
    L = S.flow(P[:, None], -ts[None, :, None]).reshape(-1, 4)

    counts = []
    for factor in (1, 2):
        counts.append(_component_count(S, L, n_test * factor))
    count = counts[0] if counts[0] == counts[1] else None

    # Hopf shadows of the k lune discs between consecutive half-great circles
    areas = []
    for j in range(k):
        path = _lune_boundary(S, k, j)
        areas.append(abs(spherical_polygon_area(path)))
    return SweepResult(L, count, areas)


def _component_count(S: StarshapedHypersurface, L: np.ndarray, n: int) -> int:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(7)
    g = rng.normal(size=(n, 4))
    pts = S.project(g)
    r = 1.0 / np.sqrt(np.pi)
    spacing = (2.0 * np.pi**2 * r**3 / n) ** (1.0 / 3.0)  # mean spacing on S^3(r)
    # only d > 2 spacing matters: a point with no neighbour within the bound
    # gets d = inf, and every d below it is exact
    d, _ = cKDTree(L).query(pts, k=1,
                            distance_upper_bound=2.0 * spacing * (1.0 + 1e-9))
    keep = pts[d > 2.0 * spacing]
    tree = cKDTree(keep)
    pairs = tree.query_pairs(3.0 * spacing, output_type="ndarray")
    m = len(keep)
    mat = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(m, m))
    ncomp, labels = connected_components(mat, directed=False)
    sizes = np.bincount(labels)
    return int(np.sum(sizes > 0.01 * m))


def _lune_boundary(S: StarshapedHypersurface, k: int, j: int) -> np.ndarray:
    s = np.linspace(0.0, np.pi / 2.0, 2000)
    down, up = (hopf_project(np.stack([np.cos(s), 0.0 * s, np.sin(s) * np.cos(a),
                                       np.sin(s) * np.sin(a)], axis=1))
                for a in (TWO_PI * j / k, TWO_PI * (j + 1) / k))
    return np.concatenate([down, up[::-1]], axis=0)


# ---------------------------------------------------------------------------
# chord search
# ---------------------------------------------------------------------------

@dataclass
class ReebChord:
    start_param: float
    start_point: np.ndarray
    T: float
    end_point: np.ndarray
    distance: float
    direction: int
    transversal: bool = True


def target_distance_factory(targets: list):
    """Distance to the union of the target curves (a closed curve includes
    its closing segment): `segments_distance` on the k = 8 segments whose
    midpoints are nearest to each point. `dist(x)` takes one point and
    `dist.batch(X, cap=inf)` a batch (N, 4).

    With a finite `cap` the batch only looks at midpoints within cap + h of
    each point, h the largest segment half-length, and rows with none get
    inf. A segment at distance D < cap has its midpoint within D + h, so
    every value below `cap` is bit-identical to the uncapped one, and every
    other value is >= cap."""
    lines = [np.vstack([c.points, c.points[:1]]) if c.closed else c.points
             for c in targets]
    a, ab, denom = polyline_segments(lines)
    tree = cKDTree(np.vstack([0.5 * (q[:-1] + q[1:]) for q in lines]))
    h = 0.5 * float(np.sqrt(np.max(np.einsum("nd,nd->n", ab, ab))))
    kq = min(8, len(a))

    def dist_batch(X: np.ndarray, cap: float = np.inf) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        _, idx = tree.query(X, k=kq, distance_upper_bound=(cap + h) * (1.0 + 1e-9))
        idx = idx.reshape(len(X), -1)
        hit = idx[:, 0] < len(a)
        # a missing neighbour (index len(a)) repeats the row's nearest one,
        # which leaves the min unchanged
        idx = np.where(idx < len(a), idx, idx[:, :1])[hit]
        out = np.full(len(X), np.inf)
        out[hit] = segments_distance(X[hit], (a[idx], ab[idx], denom[idx]))
        return out

    def dist(x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        # with one segment k = 1 returns an unstacked index
        idx = np.reshape(tree.query(x, k=kq)[1], -1)
        return float(segments_distance(x, (a[idx], ab[idx], denom[idx])))

    dist.batch = dist_batch
    return dist


def chord_search(S: StarshapedHypersurface, source: LegendrianCurve,
                 targets: list, T_max: float, direction: int = 1,
                 n_seed: int = 128, n_time: int = 192) -> list:
    """Reeb chords from the source curve to the target set.

    Flows a parameter grid on the source to every grid time in one `S.flow`
    call, finds local minima of the distance-to-target function on the
    (s, t) grid, and refines them below the chord tolerance with a local
    zoom, evaluated one 7-point row (one `S.flow` call) at a time, and a
    Nelder-Mead polish.

    Candidates are polished in order of their grid time, ties by grid
    distance, and the search stops at the first candidate whose previous
    grid time exceeds the shortest chord accepted so far: a dip at row i
    brackets its minimum between rows i - 1 and i + 1, so no later
    candidate can be shorter. `chords[0]` is thus the shortest chord whose
    basin the grid sees, whatever the rounding; the list holds the chords
    found up to that point, sorted by T. The grid's distance is measured
    row by row (`_grid_candidates`) and only up to that stop.
    """
    from scipy.optimize import minimize

    dist = target_distance_factory(targets)
    sgn = 1 if direction >= 0 else -1
    src = source.points
    n_src = len(src)
    seed_idx = np.linspace(0, n_src - 1, n_seed).astype(int)
    seeds = src[seed_idx]
    # geometric rows at the low end resolve short chords; linear rows cover
    # the bulk of the window
    ts = np.unique(np.concatenate([
        np.geomspace(CHORD_T_MIN, T_max, 48),
        np.linspace(CHORD_T_MIN, T_max, n_time),
    ]))

    grid = S.flow(seeds, sgn * ts[:, None])

    def in_window(tt):
        return (CHORD_T_MIN * 0.5 <= tt) & (tt <= T_max * 1.001)

    def cost(u):
        s_par, tt = u
        if not in_window(tt):
            return 1.0 + abs(tt)
        zz = _curve_point(source, s_par)
        return dist(S.flow(zz, sgn * tt))

    def cost_batch(ss, tt):
        """cost at the points (ss, tt), ss broadcast against the array tt."""
        ss, tt = np.broadcast_arrays(np.asarray(ss, dtype=float), tt)
        out = 1.0 + np.abs(tt)
        ok = in_window(tt)
        if ok.any():
            zz = _curve_point(source, ss[ok])
            out[ok] = dist.batch(S.flow(zz, sgn * tt[ok]))
        return out

    found = []
    visited = set()
    n_polish = 0
    T_best = np.inf
    # a distance >= 0.25 (or inf) can neither be a candidate nor make a
    # neighbour one, so the grid is measured capped there
    for (i_t, i_s) in _grid_candidates(grid, dist.batch, 0.25):
        # a dip at row i brackets its minimum in (ts[i-1], ts[i+1]), so once
        # ts[i-1] passes the shortest chord no later candidate is shorter
        if n_polish >= 48 or len(found) >= 12 or ts[i_t - 1] > T_best:
            break
        key = (i_t // 2, i_s // 3)
        if key in visited:
            continue
        visited.add(key)
        n_polish += 1
        s0 = seed_idx[i_s] / n_src
        t0 = ts[i_t]

        # deterministic local zoom (robust on V-shaped wells), then a polish;
        # batched by row, as an improvement recentres the next rows' t-window
        bs, bt = s0, t0
        ws, wt = 1.5 / n_seed, 1.5 * (ts[1] - ts[0])
        best = cost((bs, bt))
        for _ in range(8):
            for ss in np.linspace(bs - ws, bs + ws, 7):
                row_t = np.linspace(bt - wt, bt + wt, 7)
                c = cost_batch(ss, row_t)
                j = int(np.argmin(c))
                if c[j] < best:
                    best, bs, bt = c[j], ss, row_t[j]
            ws /= 4.0
            wt /= 4.0
            if best < 0.2 * CHORD_TOL:
                break
        res = minimize(cost, np.array([bs, bt]), method="Nelder-Mead",
                       options={"xatol": 1e-10, "fatol": 1e-12,
                                "maxiter": 400})
        if best < res.fun:
            res.x = np.array([bs, bt])
            res.fun = best
        if res.fun < CHORD_TOL:
            s_par, T = float(np.mod(res.x[0], 1.0)), float(res.x[1])
            if not (0 < T <= T_max * (1.0 + 1e-6)):
                continue
            z0 = _curve_point(source, s_par)
            z1 = S.flow(z0, sgn * T)
            dup = any(abs(c.T - T) < 5e-3 and
                      np.linalg.norm(c.start_point - z0) < 5e-2 for c in found)
            if not dup:
                transversal = _transversality(cost_batch, res.x, in_window)
                found.append(ReebChord(s_par, z0, T, z1, float(res.fun),
                                       sgn, transversal))
                T_best = min(T_best, T)
    found.sort(key=lambda c: c.T)
    return found


def _grid_candidates(grid: np.ndarray, dist_batch, cap: float):
    """The chord search's candidate cells (row i_t, seed i_s) of the seed grid
    (n_t, n_s, 4), in the order it polishes them: by row, then by distance,
    ties by seed.

    A candidate is a dip of the distance along its flow line below `cap`: an
    interior local minimum in t, or the final row while the distance is still
    falling there. Monotone trivial departures from the source never produce
    one; every transversal chord does. Rows are measured GRID_ROW_BLOCK at a
    time with `dist_batch(X, cap=cap)`, and only as far as the caller reads:
    row i's candidates need rows i - 1 to i + 1."""
    n_t, n_s = grid.shape[:2]
    D = np.empty((n_t, n_s))
    done = 0
    for i in range(1, n_t):
        while done < min(i + 2, n_t):
            stop = min(done + GRID_ROW_BLOCK, n_t)
            D[done:stop] = dist_batch(grid[done:stop].reshape(-1, 4),
                                      cap=cap).reshape(stop - done, n_s)
            done = stop
        d = D[i]
        dip = d < D[i - 1] if i == n_t - 1 else (d <= D[i - 1]) & (d <= D[i + 1])
        js = np.flatnonzero(dip & (d < cap))
        for j in js[np.argsort(d[js], kind="stable")]:
            yield i, j


def _curve_point(curve: LegendrianCurve, s) -> np.ndarray:
    """Point of the sampled curve at parameter s (a scalar or an array)."""
    p = curve.points
    n = len(p)
    if curve.closed:
        u = np.mod(s, 1.0) * n
        iu = np.floor(u).astype(int)
        i = iu % n
        frac = u - iu
        q = p[(i + 1) % n]
    else:
        u = np.clip(s, 0.0, 1.0) * (n - 1)
        i = np.minimum(np.floor(u).astype(int), n - 2)
        frac = u - i
        q = p[i + 1]
    x = (1 - frac)[..., None] * p[i] + frac[..., None] * q
    if curve.surface is not None:
        return curve.surface.project(x)
    return x


def _transversality(cost_batch, x0, in_window) -> bool:
    """Degenerate chords (source sliding inside the target orbit) stay below
    tolerance along a whole t-interval. A probe outside the time window
    costs 1 + |t| and says nothing, so it is dropped; with no probe left
    there is no evidence of degeneracy. The probes sit min(0.02, T/2) on
    either side of T: a chord with T >= CHORD_T_MIN keeps its lower probe
    in the window, and a short chord's upper probe stays within T/2 of it,
    short of the end of an open target arc."""
    dt = min(0.02, 0.5 * x0[1])
    tt = x0[1] + np.array([-dt, dt])
    probes = cost_batch(x0[0], tt[in_window(tt)])
    return probes.size == 0 or not np.all(probes < 5.0 * CHORD_TOL)


# ---------------------------------------------------------------------------
# Mohnke torus in the symplectization
# ---------------------------------------------------------------------------

@dataclass
class LagrangianTorusSample:
    points: np.ndarray           # (n_s, n_g, 4) embedded torus sample
    action_knot: float           # integral of alpha over the knot generator
    action_disc: float           # integral of alpha over the strip generator
    omega_defect: float
    disc_area: float


class TorusWindowError(ValueError):
    """The chord-free window (0, 1] x [0, T + eps] is too small for the
    smooth disc of area T that `mohnke_torus` samples."""


class ChordHypothesisError(ValueError):
    """`mohnke_torus` found a Reeb chord of length <= T + eps; `chord` is the
    shortest one."""

    def __init__(self, chord: ReebChord, bound: float):
        self.chord = chord
        super().__init__(
            f"chord hypothesis violated: found a chord of length {chord.T:.6f}"
            f" <= {bound:.6f} starting at parameter {chord.start_param:.4f}")


def mohnke_torus(S: StarshapedHypersurface, knot: LegendrianCurve, T: float,
                 eps: float, extra_targets: tuple = ()) -> LagrangianTorusSample:
    """Sample iota(p, tau, t) = sqrt(tau) Phi^t(p) over the knot times a closed
    (tau, t)-curve gamma of enclosed area exactly T inside (0,1] x [0, T+eps].

    Requires no Reeb chord of length <= T + eps from the knot to the knot
    union the extra target set: raises TorusWindowError, before the chord
    search, when the window holds no disc, and ChordHypothesisError when the
    search finds such a chord.
    """
    tau_c, t_c, rho_tau, rho_t = _gamma_ellipse(T, eps)
    if chords := chord_search(S, knot, [knot, *extra_targets], T + eps, direction=1):
        raise ChordHypothesisError(chords[0], T + eps)

    n_gamma = 512
    u = np.linspace(0.0, TWO_PI, n_gamma, endpoint=False)
    taus = tau_c + rho_tau * np.cos(u)
    tts = t_c + rho_t * np.sin(u)

    # stride the knot's own samples so the s-grid is free of interpolation
    # kinks (the finite-difference tangents below are then clean)
    stride = max(1, len(knot.points) // 256)
    while len(knot.points) % stride:
        stride -= 1
    base = knot.points[::stride]
    n_knot = len(base)

    pts = np.sqrt(taus)[:, None] * S.flow(base[:, None], tts)

    # generator actions by quadrature of alpha_st over the two embedded loops
    knot_loop = pts[:, 0, :]
    vel = _fd_velocity(knot_loop, True)
    action_knot = float(np.sum(alpha_st(knot_loop, vel)))
    # gamma loop with analytic velocity: dx/du = tau'/(2 sqrt(tau)) Phi(p)
    #                                         + sqrt(tau) t'(u) Reeb(Phi(p))
    gamma_loop = pts[0, :, :]
    d_tau = -rho_tau * np.sin(u)
    d_t = rho_t * np.cos(u)
    base_pt = gamma_loop / np.sqrt(taus)[:, None]
    gvel = (d_tau / (2.0 * np.sqrt(taus)))[:, None] * base_pt \
        + (np.sqrt(taus) * d_t)[:, None] * S.reeb(base_pt)
    action_disc = float(np.sum(alpha_st(gamma_loop, gvel)) * TWO_PI / n_gamma)
    # quadrature of the exact strip area for reporting
    disc_area = float(np.pi * rho_tau * rho_t)

    # omega defect on finite-difference tangent planes (4th-order stencils)
    defect = 0.0

    def d5(arr, i, axis_len):
        return (-arr[(i + 2) % axis_len] + 8 * arr[(i + 1) % axis_len]
                - 8 * arr[i - 1] + arr[i - 2]) / 12.0

    for i in range(0, n_knot, max(1, n_knot // 24)):
        for j in range(0, n_gamma, max(1, n_gamma // 24)):
            du = d5(pts[:, j, :], i, n_knot)
            dv = d5(pts[i, :, :], j, n_gamma)
            nu = np.linalg.norm(du) * np.linalg.norm(dv)
            if nu > 0:
                defect = max(defect, abs(omega_st(du, dv)) / nu)
    return LagrangianTorusSample(pts, action_knot, action_disc, defect,
                                 disc_area)


def _gamma_ellipse(T: float, eps: float) -> tuple:
    """Center/semi-axes of an ellipse of area T inside (0,1] x [0, T+eps].

    An ellipse needs eps >= ~0.32 T to fit; the torus sample uses a smooth
    disc boundary so the action quadratures converge spectrally.
    """
    rho_t = 0.495 * (T + eps)
    rho_tau = T / (np.pi * rho_t)
    if rho_tau > 0.49:
        rho_tau = 0.49
        rho_t = T / (np.pi * rho_tau)
    if rho_t > 0.499 * (T + eps):
        raise TorusWindowError(
            "the chord-free window is too small for a smooth disc of area T; "
            "enlarge eps (eps >= 0.32 T suffices)")
    tau_c = 1.0 - rho_tau * 1.005
    t_c = rho_t * 1.002
    return tau_c, t_c, rho_tau, rho_t
