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

from .geom import polyline_segments, segments_distance
from .integrate import rk45

TWO_PI = 2.0 * np.pi
# ambient distance at which a Reeb chord is accepted
CHORD_TOL = 1e-5
# shortest admissible chord time (filters t -> 0 junk)
CHORD_T_MIN = 1e-3


def to_complex(z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return np.stack([z[..., 0] + 1j * z[..., 1], z[..., 2] + 1j * z[..., 3]], axis=-1)


def from_complex(w: np.ndarray) -> np.ndarray:
    return np.stack([w[..., 0].real, w[..., 0].imag,
                     w[..., 1].real, w[..., 1].imag], axis=-1)


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
    """S = H^{-1}(1) for a positive 2-homogeneous H."""

    kind: str = "sphere"
    params: tuple = ()

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
            r2 = np.sum(z * z, axis=-1, keepdims=True)
            q1 = (z[..., 0] ** 2 + z[..., 1] ** 2)[..., None]
            q2 = (z[..., 2] ** 2 + z[..., 3] ** 2)[..., None]
            g = 2.0 * z.copy()
            gb = np.zeros_like(z)
            gb[..., :2] = 2.0 * z[..., :2] * q2[..., 0][..., None]
            gb[..., 2:] = 2.0 * z[..., 2:] * q1[..., 0][..., None]
            gb = gb / r2 - 2.0 * z * (q1 * q2) / (r2 * r2)
            return np.pi * (g + c * gb)
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

    def has_closed_form_flow(self) -> bool:
        return self.kind in ("sphere", "ellipsoid")

    def flow(self, z: np.ndarray, t, atol: float = 1e-12) -> np.ndarray:
        """Reeb flow; closed form on spheres and ellipsoids, otherwise RK
        per point at tolerance atol.

        t may be a scalar or an array broadcast against leading axes of z.
        """
        z = np.asarray(z, dtype=float)
        t = np.asarray(t, dtype=float)
        if self.kind == "sphere":
            w = to_complex(z)
            ph = np.exp(2j * np.pi * t)
            return from_complex(w * ph[..., None])
        if self.kind == "ellipsoid":
            a, b = self.params
            w = to_complex(z)
            out = np.empty_like(w)
            out[..., 0] = w[..., 0] * np.exp(2j * np.pi * t / a)
            out[..., 1] = w[..., 1] * np.exp(2j * np.pi * t / b)
            return from_complex(out)
        ts = np.broadcast_to(t, z.shape[:-1]).reshape(-1)
        out = [self.flow_numeric_single(zz, float(tt), atol)
               for zz, tt in zip(z.reshape(-1, 4), ts)]
        return np.reshape(out, z.shape)

    def flow_numeric_single(self, z: np.ndarray, t: float,
                            atol: float = 1e-12) -> np.ndarray:
        sgn = 1.0 if t >= 0 else -1.0

        def f(y):
            return sgn * self.reeb(y)

        _, y, _ = rk45(f, np.asarray(z, dtype=float), abs(t), atol=atol, rtol=atol)
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
    v = np.gradient(p, axis=0)
    return v


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
    closure = np.mod(closure + np.pi, TWO_PI) - np.pi
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


def hopf_sweep(k: int, T: float | None = None, n_arc: int = 160,
               n_time: int = 120, n_test: int = 20000, seed: int = 7,
               S: StarshapedHypersurface | None = None) -> SweepResult:
    """Sample L = union_{t in [0,T]} Phi^{-t}(Lambda_k) on the round sphere and
    count the components of its complement by neighbor-graph connectivity."""
    if S is None:
        S = StarshapedHypersurface("sphere")
    if T is None:
        T = 1.0 / k
    arcs = legendrian_graph(S, k, n_samples=n_arc)
    ts = np.linspace(0.0, T, n_time)
    cloud = []
    for arc in arcs:
        for t in ts:
            cloud.append(S.flow(arc.points, -t))
    L = np.concatenate(cloud, axis=0)

    counts = []
    for factor in (1, 2):
        counts.append(_component_count(S, L, n_test * factor, seed))
    count = counts[0] if counts[0] == counts[1] else None

    # Hopf shadows of the k lune discs between consecutive half-great circles
    areas = []
    for j in range(k):
        path = _lune_boundary(S, k, j)
        areas.append(abs(spherical_polygon_area(path)))
    return SweepResult(L, count, areas)


def _component_count(S: StarshapedHypersurface, L: np.ndarray, n: int,
                     seed: int) -> int:
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    rng = np.random.default_rng(seed)
    g = rng.normal(size=(n, 4))
    pts = S.project(g)
    tree_L = cKDTree(L)
    d, _ = tree_L.query(pts, k=1)
    r = 1.0 / np.sqrt(np.pi)
    spacing = (2.0 * np.pi**2 * r**3 / n) ** (1.0 / 3.0)  # mean spacing on S^3(r)
    keep = pts[d > 2.0 * spacing]
    tree = cKDTree(keep)
    pairs = tree.query_pairs(3.0 * spacing, output_type="ndarray")
    m = len(keep)
    mat = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])),
                     shape=(m, m))
    ncomp, labels = connected_components(mat, directed=False)
    sizes = np.bincount(labels)
    return int(np.sum(sizes > 0.01 * m))


def _lune_boundary(S: StarshapedHypersurface, k: int, j: int,
                   n: int = 2000) -> np.ndarray:
    s = np.linspace(0.0, np.pi / 2.0, n)
    a_j = TWO_PI * j / k
    a_j1 = TWO_PI * (j + 1) / k
    down = np.stack([np.cos(s) * 1.0, np.cos(s) * 0.0,
                     np.sin(s) * np.cos(a_j), np.sin(s) * np.sin(a_j)], axis=1)
    up = np.stack([np.cos(s) * 1.0, np.cos(s) * 0.0,
                   np.sin(s) * np.cos(a_j1), np.sin(s) * np.sin(a_j1)], axis=1)
    path3 = np.concatenate([hopf_project(down), hopf_project(up)[::-1]], axis=0)
    return path3


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
    `dist.batch(X)` a batch (N, 4)."""
    lines = [np.vstack([c.points, c.points[:1]]) if c.closed else c.points
             for c in targets]
    a, ab, denom = polyline_segments(lines)
    tree = cKDTree(np.vstack([0.5 * (q[:-1] + q[1:]) for q in lines]))
    kq = min(8, len(a))

    def dist_batch(X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=float)
        _, idx = tree.query(X, k=kq)
        idx = idx.reshape(len(X), -1)
        return segments_distance(X, (a[idx], ab[idx], denom[idx]))

    def dist(x: np.ndarray) -> float:
        return float(dist_batch(np.asarray(x, dtype=float)[None])[0])

    dist.batch = dist_batch
    return dist


def chord_search(S: StarshapedHypersurface, source: LegendrianCurve,
                 targets: list, T_max: float, direction: int = 1,
                 n_seed: int = 128, n_time: int = 192) -> list:
    """Reeb chords from the source curve to the target set.

    Integrates the flow from a parameter grid on the source, finds local
    minima of the distance-to-target function on the (s, t) grid, and refines
    them below the chord tolerance with a local zoom, evaluated one 7-point
    row at a time, and a Nelder-Mead polish.
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

    if S.has_closed_form_flow():
        grid = S.flow(seeds[None, :, :].repeat(len(ts), axis=0),
                      np.broadcast_to(sgn * ts[:, None], (len(ts), len(seeds))))
    else:
        grid = np.empty((len(ts), len(seeds), 4))
        for i_s, zz in enumerate(seeds):
            cur = zz.copy()
            t_prev = 0.0
            for i_t, t in enumerate(ts):
                cur = S.flow_numeric_single(cur, sgn * (t - t_prev), atol=1e-11)
                t_prev = t
                grid[i_t, i_s] = cur

    D = dist.batch(grid.reshape(-1, 4)).reshape(grid.shape[:2])
    # candidates are dips of the distance along each flow line: interior
    # local minima in t (plus the final row when the distance is still
    # falling there). Monotone trivial departures from the source never
    # produce one; every transversal chord does.
    local_min = np.zeros_like(D, dtype=bool)
    local_min[1:-1] = (D[1:-1] <= D[:-2]) & (D[1:-1] <= D[2:])
    local_min[-1] = D[-1] < D[-2]
    cand = np.argwhere(local_min & (D < 0.25))
    cand = cand[np.argsort(D[cand[:, 0], cand[:, 1]])]

    def in_window(tt):
        return (CHORD_T_MIN * 0.5 <= tt) & (tt <= T_max * 1.001)

    def cost(u):
        s_par, tt = u
        if not in_window(tt):
            return 1.0 + abs(tt)
        zz = _curve_point(source, s_par)
        return dist(S.flow(zz, sgn * tt, atol=1e-11))

    def cost_batch(ss, tt):
        """cost at the points (ss, tt), ss broadcast against the array tt."""
        ss, tt = np.broadcast_arrays(np.asarray(ss, dtype=float), tt)
        out = 1.0 + np.abs(tt)
        ok = in_window(tt)
        if ok.any():
            zz = _curve_point(source, ss[ok])
            out[ok] = dist.batch(S.flow(zz, sgn * tt[ok], atol=1e-11))
        return out

    found = []
    visited = set()
    n_polish = 0
    for (i_t, i_s) in cand:
        if n_polish >= 48 or len(found) >= 12:
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
            z1 = S.flow(z0, sgn * T, atol=1e-11)
            dup = any(abs(c.T - T) < 5e-3 and
                      np.linalg.norm(c.start_point - z0) < 5e-2 for c in found)
            if not dup:
                transversal = _transversality(cost_batch, res.x)
                found.append(ReebChord(s_par, z0, T, z1, float(res.fun),
                                       sgn, transversal))
    found.sort(key=lambda c: c.T)
    return found


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


def _transversality(cost_batch, x0) -> bool:
    """Degenerate chords (source sliding inside the target orbit) stay below
    tolerance along a whole t-interval."""
    probes = cost_batch(x0[0], x0[1] + np.array([-0.02, 0.02]))
    return not np.all(probes < 5.0 * CHORD_TOL)


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


def mohnke_torus(S: StarshapedHypersurface, knot: LegendrianCurve, T: float,
                 eps: float, extra_targets: tuple = (), n_knot: int = 256,
                 n_gamma: int = 512,
                 skip_hypothesis_check: bool = False) -> LagrangianTorusSample:
    """Sample iota(p, tau, t) = sqrt(tau) Phi^t(p) over the knot times a closed
    (tau, t)-curve gamma of enclosed area exactly T inside (0,1] x [0, T+eps].

    Requires no Reeb chord of length <= T + eps from the knot to the knot
    union the extra target set.
    """
    if not skip_hypothesis_check:
        chords = chord_search(S, knot, [knot, *extra_targets], T + eps,
                              direction=1)
        if chords:
            c = chords[0]
            raise ValueError(
                f"chord hypothesis violated: found a chord of length {c.T:.6f}"
                f" <= {T + eps:.6f} starting at parameter {c.start_param:.4f}")

    tau_c, t_c, rho_tau, rho_t = _gamma_ellipse(T, eps)
    u = np.linspace(0.0, TWO_PI, n_gamma, endpoint=False)
    taus = tau_c + rho_tau * np.cos(u)
    tts = t_c + rho_t * np.sin(u)

    # stride the knot's own samples so the s-grid is free of interpolation
    # kinks (the finite-difference tangents below are then clean)
    stride = max(1, len(knot.points) // n_knot)
    while len(knot.points) % stride:
        stride -= 1
    base = knot.points[::stride]
    n_knot = len(base)

    pts = np.empty((n_knot, n_gamma, 4))
    for ig in range(n_gamma):
        pts[:, ig, :] = np.sqrt(taus[ig]) * S.flow(base, tts[ig])

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
        raise ValueError(
            "the chord-free window is too small for a smooth disc of area T; "
            "enlarge eps (eps >= 0.32 T suffices)")
    tau_c = 1.0 - rho_tau * 1.005
    t_c = rho_t * 1.002
    return tau_c, t_c, rho_tau, rho_t
