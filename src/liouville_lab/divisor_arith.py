"""Exact arithmetic over weighted divisors: smoothing invariants, morphism
feasibility, and the quantitative embedding conditions.

All genus/count arithmetic is exact over integers (fractions.Fraction for
ratios); floating point enters only through areas supplied as reals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, gcd

import numpy as np

from .geom import TWO_PI, min_image


class DivisorError(ValueError):
    pass


@dataclass(frozen=True)
class Component:
    genus: int
    boundary: int
    area: object          # int | Fraction | float
    weight: object

    def __post_init__(self):
        if self.genus < 0 or self.boundary < 0:
            raise DivisorError("genus and boundary count must be >= 0")
        if self.area <= 0 or self.weight <= 0:
            raise DivisorError("area and weight must be positive")


@dataclass
class WeightedDivisor:
    components: list
    intersections: np.ndarray | None = None   # symmetric, zero diagonal

    def __post_init__(self):
        n = len(self.components)
        if self.intersections is None:
            self.intersections = np.zeros((n, n), dtype=int)
        self.intersections = np.asarray(self.intersections, dtype=int)
        if self.intersections.shape != (n, n):
            raise DivisorError("intersection matrix has wrong shape")
        if np.any(self.intersections < 0):
            raise DivisorError("intersection counts must be >= 0")
        if np.any(self.intersections != self.intersections.T):
            raise DivisorError("intersection matrix must be symmetric")
        if np.any(np.diag(self.intersections) != 0):
            raise DivisorError("intersection matrix must have zero diagonal")

    @property
    def n(self) -> int:
        return len(self.components)

    def total_area(self):
        return sum(c.area for c in self.components)


@dataclass
class FeasibilityReport:
    feasible: bool
    numbers: dict = field(default_factory=dict)
    conditions: list = field(default_factory=list)  # (name, ok, lhs, rel, rhs)
    certificate: object = None
    violated: list = field(default_factory=list)
    notes: str = ""

    def add(self, name: str, ok: bool, lhs, rel: str, rhs):
        self.conditions.append((name, bool(ok), lhs, rel, rhs))
        if not ok:
            self.violated.append(name)

    def table(self) -> str:
        rows = [f"verdict: {'feasible' if self.feasible else 'infeasible'}"]
        for k, v in self.numbers.items():
            rows.append(f"  {k} = {v}")
        for (name, ok, lhs, rel, rhs) in self.conditions:
            mark = "ok " if ok else "VIOLATED"
            rows.append(f"  [{mark}] {name}: {lhs} {rel} {rhs}")
        if self.notes:
            rows.append(f"  note: {self.notes}")
        return "\n".join(rows)


# ---------------------------------------------------------------------------
# smoothing of normal crossings
# ---------------------------------------------------------------------------

def smooth_divisor_invariants(d: WeightedDivisor, nodes) -> tuple:
    """(area, genus, boundary) after resolving the given nodes.

    nodes is a list of (i, j) pairs, one entry per resolved crossing; the two
    components at each node must carry equal weights and the resolved graph
    must connect all components into one curve.
    """
    nodes = [tuple(sorted((int(i), int(j)))) for (i, j) in nodes]
    used = {}
    for (i, j) in nodes:
        if i == j:
            raise DivisorError("a node joins two distinct components")
        if d.components[i].weight != d.components[j].weight:
            raise DivisorError(
                f"weight mismatch at a resolved node of components {i},{j}")
        used[(i, j)] = used.get((i, j), 0) + 1
    for (i, j), cnt in used.items():
        if cnt > int(d.intersections[i, j]):
            raise DivisorError(
                f"components {i},{j} have only {d.intersections[i, j]} crossings")

    parent = list(range(d.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (i, j) in nodes:
        parent[find(i)] = find(j)
    if len({find(i) for i in range(d.n)}) != 1:
        raise DivisorError("smoothing leaves the curve disconnected")

    nu = len(nodes)
    c = d.n
    genus = sum(comp.genus for comp in d.components) + nu - c + 1
    area = d.total_area()
    boundary = sum(comp.boundary for comp in d.components)
    return area, genus, boundary


# ---------------------------------------------------------------------------
# symplectic-morphism feasibility (source component -> target component)
# ---------------------------------------------------------------------------

def check_morphism(source: WeightedDivisor, target: WeightedDivisor) -> FeasibilityReport:
    """Weight-preserving injective matching with the area/genus conditions and
    enough target crossings for the source incidence pattern."""
    rep = FeasibilityReport(False)
    order = sorted(range(source.n),
                   key=lambda i: (-_as_frac(source.components[i].weight),
                                  -_as_frac(source.components[i].area)))
    target_by_weight = {}
    for j, c in enumerate(target.components):
        target_by_weight.setdefault(_as_frac(c.weight), []).append(j)
    for js in target_by_weight.values():
        js.sort(key=lambda j: -_as_frac(target.components[j].area))

    match = {}

    def admissible(i, j):
        cs, ct = source.components[i], target.components[j]
        if _as_frac(cs.weight) != _as_frac(ct.weight):
            return False
        if not _lt(cs.area, ct.area):
            return False
        if cs.genus + cs.boundary - 1 > ct.genus:
            return False
        for i2, j2 in match.items():
            if target.intersections[j, j2] < source.intersections[i, i2]:
                return False
        return True

    def backtrack(pos):
        if pos == len(order):
            return True
        i = order[pos]
        for j in target_by_weight.get(_as_frac(source.components[i].weight), []):
            if j in match.values():
                continue
            if admissible(i, j):
                match[i] = j
                if backtrack(pos + 1):
                    return True
                del match[i]
        return False

    ok = backtrack(0)
    rep.feasible = ok
    rep.numbers = {
        "source components": source.n,
        "target components": target.n,
    }
    if ok:
        rep.certificate = dict(match)
        rep.add("matching", True, "injective weight-preserving", "with",
                "area<, genus>=g+b-1, crossings")
    else:
        _explain_single(rep, source, target)
    return rep


def _explain_single(rep: FeasibilityReport, source, target):
    if source.n == 1 and target.n == 1:
        cs, ct = source.components[0], target.components[0]
        rep.add("weights equal", _as_frac(cs.weight) == _as_frac(ct.weight),
                cs.weight, "==", ct.weight)
        rep.add("area strictly increases", _lt(cs.area, ct.area),
                cs.area, "<", ct.area)
        rep.add("genus condition g+b-1 <= g'",
                cs.genus + cs.boundary - 1 <= ct.genus,
                cs.genus + cs.boundary - 1, "<=", ct.genus)
    else:
        rep.add("matching", False, "no injective weight-preserving matching", "", "")


def _as_frac(x):
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(x)


def _lt(a, b) -> bool:
    return _as_frac(a) < _as_frac(b)


# ---------------------------------------------------------------------------
# the quantitative embedding certificates
# ---------------------------------------------------------------------------

def feasibility_baby(k: int) -> FeasibilityReport:
    """Smallest integer A making the degree-k ball certificate feasible;
    reports the cylinder Z^4(2/k)."""
    if k < 2:
        raise DivisorError("need k >= 2")
    g_src = (k - 1) * (k - 2) // 2
    b_src = k
    need = g_src + b_src - 1
    A = 1
    while not (4 * A > k and k * A - 1 >= need):
        A += 1
    rep = FeasibilityReport(True)
    rep.numbers = {
        "k": k,
        "A": A,
        "source (area, genus, boundary)": (k, g_src, b_src),
        "target (area, genus)": (4 * A, k * A - 1),
        "cylinder": f"Z4({2}/{k})",
    }
    rep.add("area", 4 * A > k, 4 * A, ">", k)
    rep.add("genus", k * A - 1 >= need, k * A - 1, ">=", need)
    return rep


def ellipsoid_target_genus(m: int, d: int, N: int) -> int:
    """Genus of the degree-m covering polarization of E(1/d, d+1/N).

    The covering curve is the Fermat curve x^a + y^b = 1 with a = mN and
    b = md(Nd+1): the curve of weighted degree D = m p q in P(1, p, q),
    p = N, q = d(Nd+1), the compactification of the ellipsoid. For coprime
    d, N it meets the divisor at infinity in gcd(a, b) = m points, so its
    part inside the ellipsoid has m punctures. The closed genus is
    ((a - 1)(b - 1) - m + 1) / 2.
    """
    num = (m * N - 1) * (m * N * d * d + m * d - 1) - m + 1
    if num % 2 != 0:
        raise DivisorError("genus formula did not produce an integer")
    return num // 2


def feasibility_ellipsoid(m: int, d: int, N: int) -> FeasibilityReport:
    """Certificate arithmetic for B^4(1) \\ (degree-mNd skeleton) -> E(1/d, d+1/N).

    Source: the smoothed degree-k curve, k = mNd, with area k, genus
    (k-1)(k-2)/2 and k boundary circles. Target: the Fermat curve of weighted
    degree m N d(Nd+1) (see `ellipsoid_target_genus`), with area m(Nd+1) and
    m punctures inside the ellipsoid. Feasible iff m >= d, the target area
    exceeds k, and the target genus is at least g + b - 1.
    """
    if m < 1 or d < 1 or N < 1:
        raise DivisorError("m, d, N must be positive integers")
    if gcd(d, N) != 1:
        raise DivisorError("N and d are coprime")
    k = m * N * d
    g_src = (k - 1) * (k - 2) // 2
    b_src = k
    need = g_src + b_src - 1
    g_tgt = ellipsoid_target_genus(m, d, N)
    area_src = k
    area_tgt = m * (N * d + 1)
    rep = FeasibilityReport(False)
    rep.numbers = {
        "(m, d, N)": (m, d, N),
        "k = mNd": k,
        "source (area, genus, boundary)": (area_src, g_src, b_src),
        "target (area, genus)": (area_tgt, g_tgt),
        "required genus g+b-1": need,
        "ellipsoid": f"E(1/{d}, {d}+1/{N})",
    }
    rep.add("m >= d", m >= d, m, ">=", d)
    rep.add("area", area_tgt > area_src, area_tgt, ">", area_src)
    rep.add("genus", g_tgt >= need, g_tgt, ">=", need)
    rep.feasible = (m >= d) and (area_tgt > area_src) and (g_tgt >= need)
    return rep


@dataclass
class BandCertificate:
    """Assignment of the K crossings to (row, column) pairs with connected
    blocks: rows are contiguous runs of the K fiber cells of the first target
    curve; columns are unions of cells joined through the central disc of the
    second, which is connected by construction."""

    m: int
    n: int
    a: float
    b: float
    K: int
    assignment: list        # assignment[p] = (i, j) for crossing p

    def verify(self) -> bool:
        K, m, n = self.K, self.m, self.n
        if len(self.assignment) != K:
            return False
        rows = {}
        cols = {}
        for p, (i, j) in enumerate(self.assignment):
            rows.setdefault(i, []).append(p)
            cols.setdefault(j, []).append(p)
        if set(rows) != set(range(m)) or set(cols) != set(range(n)):
            return False
        pairs = set(self.assignment)
        if len(pairs) != m * n:
            return False
        for i, ps in rows.items():
            ps = sorted(ps)
            if ps != list(range(ps[0], ps[-1] + 1)):
                return False          # contiguous block in the fiber disc
            if not len(ps) * self.b > self.n * self.b:
                return False          # row block area > n b
        for j, ps in cols.items():
            if not len(ps) * (self.a + 2 * self.b) > self.m * self.a:
                return False          # column block area > m a
        return True


def monotone_K(m: int, n: int, a: float, b: float) -> tuple:
    """Size K of the auxiliary fiber grid plus a band-allocation certificate.

    K is the least multiple of m n making both connected-block area
    inequalities strict with one spare block: K = m n t with
    t = ceil(max(B/(n b), A/(m(a+2b)))) + 1 for A = m a, B = n b.
    """
    if m < 1 or n < 1 or a <= 0 or b <= 0:
        raise DivisorError("need positive m, n, a, b")
    A, B = m * a, n * b
    t = ceil(max(B / (n * b), A / (m * (a + 2 * b)))) + 1
    K = m * n * t
    assignment = []
    for i in range(m):
        for j in range(n):
            assignment.extend([(i, j)] * t)
    cert = BandCertificate(m, n, a, b, K, assignment)
    if not cert.verify():
        raise DivisorError("band certificate failed self-verification")
    return K, cert


def feasibility_Remb(N: int) -> FeasibilityReport:
    """The three compatibility inequalities of the plane-grid embedding at
    stage N, with margins."""
    if N < 1:
        raise DivisorError("need N >= 1")
    side = 2 * (2 * N * N + 1)
    lhs1 = side * side                        # area of the first target block
    lhs2 = side * side + 2 * (2 * N * N + 1) ** 2  # area of the second
    lhs3 = side * side                        # crossing count
    rhs = 16 * N**4
    rep = FeasibilityReport(lhs1 > rhs and lhs2 > rhs and lhs3 > rhs)
    rep.numbers = {
        "N": N,
        "source area/count": rhs,
        "margins": (lhs1 - rhs, lhs2 - rhs, lhs3 - rhs),
    }
    rep.add("first curve area", lhs1 > rhs, lhs1, ">", rhs)
    rep.add("second curve area", lhs2 > rhs, lhs2, ">", rhs)
    rep.add("crossing count", lhs3 > rhs, lhs3, ">", rhs)
    return rep


def rigidity_threshold(a: float, b: float) -> float:
    """Minimal-action threshold below which a Lagrangian can be pushed off
    the product skeleton: the complement embeds into Z^4(a+b)."""
    if a <= 0 or b <= 0:
        raise DivisorError("need positive face-area bounds")
    return a + b


def chekanov_excluded(A_min: float, a: float, b: float) -> bool:
    """True iff minimal action >= a+b, so the torus cannot avoid the skeleton."""
    return A_min >= rigidity_threshold(a, b)


# ---------------------------------------------------------------------------
# flux identity on the model annulus
# ---------------------------------------------------------------------------

def verify_flux_identity(annulus_area: float, period: float, t: float,
                         loop: np.ndarray | None = None) -> float:
    """Residual of int_{phi^t gamma} alpha' - int_gamma alpha' - t int_gamma theta.

    The model annulus is {r1 < |x| < r2} in the plane with alpha' the standard
    primitive and theta = (period) dphi/(2 pi), whose dual field is radial.
    """
    if annulus_area <= 0:
        raise DivisorError("annulus area must be positive")
    r1 = 1.0
    r2 = float(np.sqrt(r1 * r1 + annulus_area / np.pi))
    if loop is None:
        rho = 0.5 * (r1 + r2)
        s = np.linspace(0.0, 2 * np.pi, 1024, endpoint=False)
        loop = np.stack([rho * np.cos(s), rho * np.sin(s)], axis=1)
        loop = loop + 0.06 * (r2 - r1) * np.stack(
            [np.cos(3 * s), np.sin(2 * s)], axis=1)

    k = period / (2.0 * np.pi)
    loop = np.asarray(loop, dtype=float)
    # X defined by omega(X, .) = theta is radial, k x / |x|^2: |x|^2 grows by
    # 2kt, and the flow is exactly x sqrt(1 + 2kt / |x|^2)
    rr = np.sum(loop * loop, axis=1)
    if np.any(rr < (r1 * 0.999) ** 2) or np.any(rr > (r2 * 1.001) ** 2):
        raise DivisorError("loop exits the annulus under the flow")
    rr_t = rr + 2.0 * k * t
    if np.any(rr_t < (r1 * 0.98) ** 2) or np.any(rr_t > (r2 * 1.02) ** 2):
        raise DivisorError("loop exits the annulus under the flow")
    moved = loop * np.sqrt(rr_t / rr)[:, None]

    def action(points):
        # integral of alpha' = (x dy - y dx)/2 over the closed polyline
        p = np.asarray(points)
        q = np.roll(p, -1, axis=0)
        return 0.5 * float(np.sum(p[:, 0] * q[:, 1] - p[:, 1] * q[:, 0]))

    return float(action(moved) - action(loop) - t * period * _winding(loop))


def _winding(loop: np.ndarray) -> float:
    ang = np.arctan2(loop[:, 1], loop[:, 0])
    d = np.diff(np.concatenate([ang, ang[:1]]))
    d = min_image(d, TWO_PI)
    return float(np.round(np.sum(d) / (2 * np.pi)))
