"""Product polarizations of bidiscs and the model symplectic disc bundle.

4-dimensional points are stored as pairs of factor points (x, y) flattened to
(x1, x2, y1, y2); every evaluator delegates to the two planar factors. The
model disc bundle is implemented over a trivialized base chart in coordinates
(b1, b2, R, theta) with connection form Theta = dtheta - (c1/2A)(b1 db2 - b2 db1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .liouville2d import LiouvilleForm2D, Trajectory

# Gauss-Legendre nodes on each segment of an action integral
GAUSS_POINTS = 8
# quadrature nodes of a fiber loop integral of the model disc bundle
FIBER_LOOP_N = 64


@dataclass
class Component4:
    kind: str      # "vertical" = p_i x D(B), "horizontal" = D(A) x q_j
    index: int     # face index in the corresponding factor
    weight: float


@dataclass
class Classification4:
    kind: str                  # "basin" | "skeleton" | "undecided"
    component: Component4 | None = None
    t_hit: float | None = None


def _arrival(tr: Trajectory, t_max: float) -> float:
    """The cap a factor flow sets for the other: its arrival time if it
    arrives before t_max, else t_max (no cap)."""
    if tr.classification == "converged" and tr.t_plus < t_max:
        return tr.t_plus
    return t_max


class ProductPolarization:
    """lambda = pi1* lambda_A + pi2* lambda_B on D(A) x D(B)."""

    def __init__(self, form_A: LiouvilleForm2D, form_B: LiouvilleForm2D):
        self.fA = form_A
        self.fB = form_B
        self.components = (
            [Component4("vertical", i, fc.area) for i, fc in enumerate(form_A.faces)]
            + [Component4("horizontal", j, fc.area) for j, fc in enumerate(form_B.faces)]
        )

    @staticmethod
    def split(point4) -> tuple:
        p = np.asarray(point4, dtype=float)
        return p[:2], p[2:]

    def eval_lambda(self, point4) -> np.ndarray:
        x, y = self.split(point4)
        return np.concatenate([self.fA.eval_lambda(x), self.fB.eval_lambda(y)])

    def eval_X(self, point4) -> np.ndarray:
        x, y = self.split(point4)
        return np.concatenate([self.fA.eval_X(x), self.fB.eval_X(y)])

    def classify4(self, point4, t_max: float = 20.0) -> Classification4:
        """The basin component whose marked point the flow X_A + X_B reaches
        first: p_i x D(B) when factor A arrives first (A wins ties), D(A) x
        q_j when B does.

        The factor flows race. A factor that starts in a vertex chart, where
        its flow begins with an RK chart leg, flows second whenever the other
        does not, and only until the first factor's arrival, the cap; it is
        a hit only if it arrives strictly before the cap. A second factor
        that starts in a face is not capped: its face legs are closed form.
        Only an arrival caps, so skeleton and undecided points flow both
        factors to t_max."""
        x, y = self.split(point4)
        fA, fB = self.fA, self.fB
        b_in_chart = fB.chart_at(y) is not None
        if fA.chart_at(x) is not None and not b_in_chart:
            trB = fB.flow(y, t_max)
            capA, capB = _arrival(trB, t_max), t_max
            trA = fA.flow(x, capA)
        else:
            trA = fA.flow(x, t_max)
            capA, capB = t_max, (_arrival(trA, t_max) if b_in_chart else t_max)
            trB = fB.flow(y, capB)
        if trA.classification == "skeleton" and trB.classification == "skeleton":
            return Classification4("skeleton")
        hits = [(tr.t_plus, Component4(kind, tr.face, f.faces[tr.face].area))
                for kind, f, tr, cap in (("vertical", fA, trA, capA),
                                         ("horizontal", fB, trB, capB))
                if tr.classification == "converged"
                and (cap == t_max or tr.t_plus < cap)]
        if hits:
            t_hit, comp = min(hits, key=lambda h: h[0])
            return Classification4("basin", comp, t_hit)
        return Classification4("undecided")

    def action_integral(self, loop4: np.ndarray) -> float:
        """Loop integral of lambda over a closed 4-polyline (last != first)."""
        loop4 = np.asarray(loop4, dtype=float)
        nodes, weights = np.polynomial.legendre.leggauss(GAUSS_POINTS)
        nodes, weights = 0.5 * (nodes + 1.0), 0.5 * weights  # on [0, 1]
        total = 0.0
        m = len(loop4)
        for i in range(m):
            a, b = loop4[i], loop4[(i + 1) % m]
            d = b - a
            for u, w in zip(nodes, weights):
                lam = self.eval_lambda(a + u * d)
                total += w * float(lam @ d)
        return total

    def boundary_normal_component(self, point4) -> float:
        """Normal part of the first factor of X at a point of dD(A) x D(B)."""
        x, y = self.split(point4)
        XA = self.fA.eval_X(x)
        n = x / np.linalg.norm(x)
        return float(XA @ n)


# ---------------------------------------------------------------------------
# model symplectic disc bundle over a trivialized base chart
# ---------------------------------------------------------------------------

@dataclass
class ModelDiscBundle:
    """omega0 = pi* tau + d(R Theta) over a base disc of area A, Chern class c1.

    Coordinates (b1, b2, R, theta); tau = db1 ^ db2;
    Theta = dtheta - (c1 / 2A)(b1 db2 - b2 db1), so dTheta = -(c1/A) tau.
    omega0 is symplectic on {R < A/c1} and lambda0 = (R - A/c1) Theta is a
    primitive off the zero section, with Liouville field (R - A/c1) d/dR.
    """

    c1: int
    area: float

    def __post_init__(self):
        if self.c1 < 1 or int(self.c1) != self.c1:
            raise ValueError("c1 must be a positive integer")
        if self.area <= 0:
            raise ValueError("base area must be positive")

    @property
    def fiber_capacity(self) -> float:
        return self.area / self.c1

    def theta_covector(self, pt) -> np.ndarray:
        b1, b2 = float(pt[0]), float(pt[1])
        k = self.c1 / (2.0 * self.area)
        return np.array([k * b2, -k * b1, 0.0, 1.0])

    def omega_matrix(self, pt) -> np.ndarray:
        # omega0 = (1 - c1 R/A) db1^db2 + dR^dtheta + k b2 dR^db1 - k b1 dR^db2
        b1, b2, R = float(pt[0]), float(pt[1]), float(pt[2])
        k = self.c1 / (2.0 * self.area)
        M = np.zeros((4, 4))
        M[0, 1] = 1.0 - self.c1 * R / self.area
        M[2, 3] = 1.0
        M[2, 0] = k * b2
        M[2, 1] = -k * b1
        return M - M.T

    def lambda_covector(self, pt) -> np.ndarray:
        R = float(pt[2])
        return (R - self.fiber_capacity) * self.theta_covector(pt)

    def liouville_vector(self, pt) -> np.ndarray:
        R = float(pt[2])
        return np.array([0.0, 0.0, R - self.fiber_capacity, 0.0])

    def eval(self, pt) -> tuple:
        return self.omega_matrix(pt), self.lambda_covector(pt), self.liouville_vector(pt)

    def fiber_loop_integral(self, R: float) -> float:
        """Integral of lambda0 over the fiber circle at radius R (base fixed)."""
        # fibers have db = 0 and d(theta) = 1 per revolution
        thetas = np.linspace(0.0, 1.0, FIBER_LOOP_N, endpoint=False)
        val = 0.0
        for th in thetas:
            lam = self.lambda_covector([0.3, -0.2, R, th])
            val += float(lam @ np.array([0.0, 0.0, 0.0, 1.0])) / FIBER_LOOP_N
        return val

