"""Central tolerance/configuration layer.

Every numeric tolerance used by the toolkit lives here with its default;
`dataclasses.replace(DEFAULTS, ...)` gives a variant to pass to a builder or
check.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

DEFAULT_SEED = 7

def env_seed() -> int:
    """Random seed, overridable through LIOUVILLE_LAB_SEED."""
    raw = os.environ.get("LIOUVILLE_LAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    return int(raw)


@dataclass(frozen=True)
class Tolerances:
    """Documented numeric defaults.

    regular_sector   : sector-angle deviation accepted by the regularity check [rad]
    grid_band_geom   : geometric distance used when classifying flow endpoints
                       against the skeleton
    closedness_rel   : relative error allowed in finite-difference dlambda vs omega
    fd_step          : central-difference step for closedness checks
    leaf_vanishing   : |lambda(leaf tangent)| / |lambda transverse| bound
    swept_area_rel   : relative error in the swept-area law per face
    residue_quad     : absolute slack on loop-integral residues beyond rho
    convergence_R    : adapted radius R~ below which a trajectory counts as
                       converged to the marked point
    flow_atol        : ODE tolerance for chart-zone integration
    gamma_invariance : allowed drift of skeleton points under the flow, |t|<=20
    chord_tol        : ambient distance at which a Reeb chord is accepted
    chord_t_min      : shortest admissible chord time (filters t->0 junk)
    """

    regular_sector: float = 1e-3
    grid_band_geom: float = 1e-3
    closedness_rel: float = 1e-4
    fd_step: float = 1e-5
    leaf_vanishing: float = 1e-6
    swept_area_rel: float = 1e-4
    residue_quad: float = 1e-4
    convergence_R: float = 1e-9
    flow_atol: float = 1e-9
    gamma_invariance: float = 1e-3
    chord_tol: float = 1e-5
    chord_t_min: float = 1e-3


DEFAULTS = Tolerances()

