import json

import numpy as np
import pytest

from liouville_lab.grid2d import (make_periodic_grid, make_pinwheel_grid,
                                  make_radial_grid)
from liouville_lab.liouville2d import build_form

PINWHEEL_TWISTS = [0.35, -0.25, 0.1]


@pytest.fixture(scope="session")
def radial4_form():
    return build_form(make_radial_grid(4, 1.0))


@pytest.fixture(scope="session")
def radial3_form():
    return build_form(make_radial_grid(3, 1.0))


@pytest.fixture(scope="session")
def pinwheel_form():
    return build_form(make_pinwheel_grid(3, 1.0, PINWHEEL_TWISTS))


@pytest.fixture(scope="session")
def periodic_form():
    return build_form(make_periodic_grid(2))


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def two_strip_grid_json():
    """A valid grid on the 2-periodic square whose faces are the strips
    [0, 2] x [0, 1] and [0, 2] x [1, 2], not unit lattice cells. Vertices
    0 = (0, 0) and 1 = (0, 1) are 4-valent; arcs 4-6 are seam copies."""
    u = np.linspace(0.0, 1.0, 33)

    def line(x0, y0, dx, dy):
        return np.stack([x0 + dx * u, y0 + dy * u], axis=1).tolist()

    arcs = [(0, 0, line(0, 0, 2, 0)), (1, 1, line(0, 1, 2, 0)),
            (0, 1, line(0, 0, 0, 1)), (1, 0, line(0, 1, 0, 1)),
            (0, 0, line(0, 2, 2, 0)), (0, 1, line(2, 0, 0, 1)),
            (1, 0, line(2, 1, 0, 1))]
    return json.dumps({
        "ambient_area": 4.0, "periodic": True,
        "vertices": [{"x": 0.0, "y": 0.0}, {"x": 0.0, "y": 1.0}],
        "arcs": [{"v0": a, "v1": b, "points": p} for a, b, p in arcs],
        "faces": [[0, 5, -2, -3], [1, 6, -5, -4]],
        "marked_points": [[1.0, 0.5], [1.0, 1.5]],
    })
