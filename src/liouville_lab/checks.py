"""Invariant batteries for forms and product polarizations.

Each check returns a CheckResult with a measured margin; `run_battery`
aggregates them for the CLI exit-code contract.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geom import shoelace_area
from .liouville2d import GRID_BAND_GEOM, DomainError, LiouvilleForm2D
from .polar4d import ProductPolarization

# relative error allowed in finite-difference dlambda vs omega
CLOSEDNESS_REL = 1e-4
# central-difference step for closedness checks
FD_STEP = 1e-5
# |lambda(leaf tangent)| / |lambda transverse| bound
LEAF_VANISHING = 1e-6
# relative error in the swept-area law per face
SWEPT_AREA_REL = 1e-4
# absolute slack on loop-integral residues beyond rho
RESIDUE_QUAD = 1e-4
# allowed drift of skeleton points under the flow, |t| <= 20
GAMMA_INVARIANCE = 1e-3
# boundary samples per theta in the swept-area quadrature
SWEPT_AREA_SAMPLES = 2048
# skeleton samples per face boundary, and per chart branch (chart radii)
GAMMA_PER_FACE = 14
GAMMA_BRANCH_RADII = (0.2, 0.5, 0.85)


@dataclass
class CheckResult:
    name: str
    ok: bool
    measured: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        flag = "PASS" if self.ok else "FAIL"
        return f"[{flag}] {self.name}: measured {self.measured:.3e} (bound {self.bound:.3e}) {self.detail}"


def sample_off_singular(form: LiouvilleForm2D, n: int, rng,
                        t_range=(0.10, 0.97), chart_margin=1.25,
                        gamma_margin=None) -> np.ndarray:
    """Uniform points of the smooth locus: away from the grid, the marked
    points, the smoothing charts, and the chart seams."""
    gamma_margin = (50.0 * FD_STEP) if gamma_margin is None else gamma_margin
    out = []
    if form.grid.periodic:
        N = form.grid.period
        lo, hi = np.zeros(2), np.array([N, N])
    else:
        r = form.grid.boundary_radius()
        lo, hi = -r * np.ones(2), r * np.ones(2)
    guard = 0
    while len(out) < n and guard < 500 * n:
        guard += 1
        x = rng.uniform(lo, hi)
        try:
            i, th, t = form.face_at(x)
        except DomainError:       # outside the disc
            continue
        if not (t_range[0] < t < t_range[1]):
            continue
        if len(form.charts):
            d = np.linalg.norm(form._chart_vec(x), axis=1)
            if np.any(d < chart_margin * form._chart_radii):
                continue
        if form.grid.grid_distance(x) < gamma_margin:
            continue
        fc = form.faces[i]
        if fc.vertex_phis is not None and len(fc.vertex_phis):
            # stay off the separatrix rays (the boundary model is C0 there)
            v = form._face_local(fc, x) - fc.p
            phx = np.arctan2(v[1], v[0])
            dphi = np.abs(np.mod(phx - fc.vertex_phis + np.pi, 2 * np.pi) - np.pi)
            if np.min(dphi) * np.hypot(v[0], v[1]) < 40.0 * FD_STEP:
                continue
        out.append(x)
    if len(out) < n:
        raise RuntimeError("off-singular sampler starved")
    return np.array(out)


def check_closedness(form: LiouvilleForm2D, n: int = 1000,
                     seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    pts = sample_off_singular(form, n, rng)
    h = FD_STEP
    worst = 0.0
    for x in pts:
        lp = form.eval_lambda(x + [h, 0.0])
        lm = form.eval_lambda(x - [h, 0.0])
        up = form.eval_lambda(x + [0.0, h])
        um = form.eval_lambda(x - [0.0, h])
        dl = (lp[1] - lm[1]) / (2 * h) - (up[0] - um[0]) / (2 * h)
        worst = max(worst, abs(dl - 1.0))
    return CheckResult("closedness dlambda=omega", worst < CLOSEDNESS_REL,
                       worst, CLOSEDNESS_REL)


def check_leaf_vanishing(form: LiouvilleForm2D, n: int = 400,
                         seed: int = 11) -> CheckResult:
    rng = np.random.default_rng(seed)
    pts = sample_off_singular(form, n, rng)
    worst = 0.0
    for x in pts:
        i, th, t = form.face_at(x)
        fc = form.faces[i]
        xl = form._face_local(fc, x)
        u = xl - fc.p
        u = u / np.linalg.norm(u)
        lam = form.eval_lambda(x)
        worst = max(worst, abs(float(lam @ u)) / max(np.linalg.norm(lam), 1e-300))
    return CheckResult("leaf vanishing", worst < LEAF_VANISHING, worst,
                       LEAF_VANISHING)


def check_swept_area(form: LiouvilleForm2D) -> CheckResult:
    """Polygon-quadrature oracle for the swept-area law on every face."""
    worst = 0.0
    for fc in form.faces:
        for theta in np.arange(0.1, 0.95, 0.1):
            taus = np.linspace(0.0, theta, max(8, int(SWEPT_AREA_SAMPLES * theta)))
            ring = np.array([fc.boundary_point(tt) for tt in taus])
            poly = np.vstack([fc.p[None, :], ring])
            area = shoelace_area(poly)
            worst = max(worst, abs(area - theta * fc.area) / fc.area)
    return CheckResult("swept-area law", worst < SWEPT_AREA_REL, worst,
                       SWEPT_AREA_REL)


def check_residues(form: LiouvilleForm2D, rho: float = 1e-2) -> CheckResult:
    worst = 0.0
    for i, fc in enumerate(form.faces):
        val = form.residue_loop_integral(i, rho)
        worst = max(worst, abs(val + fc.area))
    bound = rho + RESIDUE_QUAD
    return CheckResult("residue loops", worst < bound, worst, bound,
                       detail=f"rho={rho:g}")


def check_basin(form: LiouvilleForm2D, n: int = 2000, t_max: float = 20.0,
                seed: int = 23) -> CheckResult:
    rng = np.random.default_rng(seed)
    pts = sample_off_singular(form, n, rng, t_range=(1e-4, 1.0 - 1e-6),
                              chart_margin=0.0, gamma_margin=GRID_BAND_GEOM)
    good = 0
    for x in pts:
        i, th, t = form.face_at(x)
        tr = form.flow(x, t_max)
        if tr.classification == "converged" and tr.face == i:
            good += 1
    frac = good / len(pts)
    return CheckResult("basin classification", frac >= 0.99, frac, 0.99,
                       detail=f"{good}/{len(pts)} converged to own face")


def gamma_samples(form: LiouvilleForm2D) -> np.ndarray:
    """Points of the skeleton, including points inside smoothing charts.

    Face-boundary samples lie on the leaf parametrization (exactly on the
    invariant set of the face form); chart samples lie on the model branch
    rays (exactly on the invariant set of the smoothed form). The skeleton is
    exponentially repelling transversally, so samples must be on it to high
    accuracy for finite-time invariance to be observable.
    """
    pts = []
    for fc in form.faces:
        for th in (np.arange(GAMMA_PER_FACE) + 0.5) / GAMMA_PER_FACE:
            x = fc.boundary_point(th)
            if form.chart_at(x) is None:
                pts.append(x)
    for c in form.charts:
        radii = c.ambient_radius() * np.array(GAMMA_BRANCH_RADII)
        for turn in c.branch_turns():
            for r in radii:
                pts.append(form.wrap(c.chart_to_ambient(np.pi * r * r, turn,
                                                        form.grid)))
    return np.array(pts)


def check_gamma_invariance(form: LiouvilleForm2D, T: float = 20.0) -> CheckResult:
    pts = gamma_samples(form)
    worst = 0.0
    for x in pts:
        for direction in (1, -1):
            tr = form.flow(x, T, direction=direction)
            for (_, px, py) in tr.points:
                worst = max(worst, form.grid.grid_distance(np.array([px, py])))
    return CheckResult("skeleton invariance |t|<=%g" % T,
                       worst < GAMMA_INVARIANCE, worst, GAMMA_INVARIANCE)


def check_backward_complete(form: LiouvilleForm2D, n: int = 300,
                            T: float = 20.0, seed: int = 5) -> CheckResult:
    rng = np.random.default_rng(seed)
    pts = sample_off_singular(form, n, rng, chart_margin=0.0,
                              gamma_margin=GRID_BAND_GEOM)
    ends = np.array([p[1:] for x in pts
                     for p in form.flow(x, T, direction=-1).points])
    if form.grid.periodic:
        worst = 0.0 if np.all(np.isfinite(ends)) else np.inf
        return CheckResult("backward completeness", worst == 0.0, worst, 1.0)
    # the resolved boundary carries the arc-resolution tolerance band
    r_out = form.grid.boundary_radius() + GRID_BAND_GEOM
    worst = float(np.max(np.hypot(ends[:, 0], ends[:, 1])))
    return CheckResult("backward completeness", worst <= r_out, worst, r_out,
                       detail="max |x| along backward flows")


def run_battery(form: LiouvilleForm2D, n_closed: int = 1000,
                n_basin: int = 2000, seed: int = 7) -> list:
    return [
        check_closedness(form, n_closed, seed),
        check_leaf_vanishing(form, max(200, n_closed // 4), seed + 1),
        check_swept_area(form),
        check_residues(form, 1e-2),
        check_basin(form, n_basin, 20.0, seed + 2),
        check_gamma_invariance(form, 20.0),
        check_backward_complete(form, max(100, n_basin // 10), 20.0, seed + 3),
    ]


# ---------------------------------------------------------------------------
# product battery
# ---------------------------------------------------------------------------

def product_samples(pp: ProductPolarization, n: int, rng) -> np.ndarray:
    rA = pp.fA.grid.boundary_radius()
    rB = pp.fB.grid.boundary_radius()
    out = []
    while len(out) < n:
        x = rng.uniform(-rA, rA, 2)
        y = rng.uniform(-rB, rB, 2)
        if np.hypot(*x) < 0.995 * rA and np.hypot(*y) < 0.995 * rB:
            out.append(np.concatenate([x, y]))
    return np.array(out)


def check_product_skeleton(pp: ProductPolarization, n: int = 2000,
                           seed: int = 7) -> CheckResult:
    rng = np.random.default_rng(seed)
    pts = product_samples(pp, n, rng)
    band = GRID_BAND_GEOM
    agree = 0
    for p4 in pts:
        x, y = pp.split(p4)
        on_g = (pp.fA.grid.grid_distance(x) < band and
                pp.fB.grid.grid_distance(y) < band)
        cls = pp.classify4(p4)
        if (cls.kind == "skeleton") == on_g and cls.kind != "undecided":
            agree += 1
    frac = agree / len(pts)
    return CheckResult("product skeleton dichotomy", frac >= 0.99, frac, 0.99)


def check_boundary_tangency(pp: ProductPolarization, n: int = 200,
                            seed: int = 3) -> CheckResult:
    rng = np.random.default_rng(seed)
    r_out = pp.fA.grid.boundary_radius()
    worst = 0.0
    for _ in range(n):
        ang = rng.uniform(0.0, 2 * np.pi)
        x = r_out * np.array([np.cos(ang), np.sin(ang)])  # on dD(A)
        y = pp.fB.faces[0].leaf(rng.uniform(), rng.uniform(0.2, 0.8))
        worst = max(worst, abs(pp.boundary_normal_component(np.concatenate([x, y]))))
    return CheckResult("boundary tangency", worst < 1e-6, worst, 1e-6)


def check_product_closedness(pp: ProductPolarization, n: int = 1000,
                             seed: int = 13) -> CheckResult:
    rng = np.random.default_rng(seed)
    ptsA = sample_off_singular(pp.fA, n, rng)
    ptsB = sample_off_singular(pp.fB, n, rng)
    h = FD_STEP
    worst = 0.0
    for x, y in zip(ptsA, ptsB):
        p4 = np.concatenate([x, y])
        D = np.zeros((4, 4))
        for i in range(4):
            e = np.zeros(4)
            e[i] = h
            D[i] = (pp.eval_lambda(p4 + e) - pp.eval_lambda(p4 - e)) / (2 * h)
        dl = D - D.T
        W = np.zeros((4, 4))
        W[0, 1], W[1, 0] = 1.0, -1.0
        W[2, 3], W[3, 2] = 1.0, -1.0
        worst = max(worst, np.abs(dl - W).max())
    return CheckResult("product closedness", worst < CLOSEDNESS_REL,
                       worst, CLOSEDNESS_REL)
