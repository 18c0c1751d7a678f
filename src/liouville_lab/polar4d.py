"""Product polarizations of bidiscs and the model symplectic disc bundle.

4-dimensional points are stored as pairs of factor points (x, y) flattened to
(x1, x2, y1, y2); every evaluator delegates to the two planar factors. The
model disc bundle is implemented over a trivialized base chart in coordinates
(b1, b2, R, theta) with connection form Theta = dtheta - (c1/2A)(b1 db2 - b2 db1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import DEFAULTS, Tolerances
from .geom import gauss_legendre
from .liouville2d import LiouvilleForm2D


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


class ProductPolarization:
    """lambda = pi1* lambda_A + pi2* lambda_B on D(A) x D(B)."""

    def __init__(self, form_A: LiouvilleForm2D, form_B: LiouvilleForm2D,
                 tol: Tolerances = DEFAULTS):
        self.fA = form_A
        self.fB = form_B
        self.tol = tol
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
        x, y = self.split(point4)
        trA = self.fA.flow(x, t_max)
        trB = self.fB.flow(y, t_max)
        if trA.classification == "skeleton" and trB.classification == "skeleton":
            return Classification4("skeleton")
        hits = []
        if trA.classification == "converged":
            hits.append((trA.t_plus if trA.t_plus is not None else t_max,
                         Component4("vertical", trA.face, self.fA.faces[trA.face].area)))
        if trB.classification == "converged":
            hits.append((trB.t_plus if trB.t_plus is not None else t_max,
                         Component4("horizontal", trB.face, self.fB.faces[trB.face].area)))
        if hits:
            hits.sort(key=lambda h: h[0])
            return Classification4("basin", hits[0][1], hits[0][0])
        return Classification4("undecided")

    def action_integral(self, loop4: np.ndarray, n_gauss: int = 8) -> float:
        """Loop integral of lambda over a closed 4-polyline (last != first)."""
        loop4 = np.asarray(loop4, dtype=float)
        nodes, weights = gauss_legendre(n_gauss)
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

    def fiber_loop_integral(self, R: float, n: int = 64) -> float:
        """Integral of lambda0 over the fiber circle at radius R (base fixed)."""
        # fibers have db = 0 and d(theta) = 1 per revolution
        thetas = np.linspace(0.0, 1.0, n, endpoint=False)
        val = 0.0
        for th in thetas:
            lam = self.lambda_covector([0.3, -0.2, R, th])
            val += float(lam @ np.array([0.0, 0.0, 0.0, 1.0])) / n
        return val

