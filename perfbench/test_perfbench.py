"""Tests of the benchmark's own oracles and failure accounting.

    python3 -m pytest perfbench/test_perfbench.py

The oracle cases are computed by hand. The accounting tests corrupt one real
output of each workload and require the run to count it as failed.
"""

from dataclasses import replace
from math import log, pi, sqrt

import numpy as np
import pytest

import oracles
import workloads

SQUARE_XY = np.array([[-1.0, -1.0], [1.0, -1.0], [1.0, 1.0], [-1.0, 1.0]])
SQUARE = oracles.polygon_edges(SQUARE_XY)


# -- segment distance ----------------------------------------------------------

def test_segment_distance_hand_cases():
    seg = oracles.polyline_pieces([np.array([[0.0, 0.0], [1.0, 0.0]])])
    pts = [[0.5, 2.0], [-3.0, 4.0], [4.0, 4.0], [0.25, 0.0]]
    assert oracles.brute_distance(pts, seg) == pytest.approx([2.0, 5.0, 5.0, 0.0])
    seg4 = oracles.polyline_pieces([np.array([[0.0] * 4, [1.0, 0.0, 0.0, 0.0]])])
    assert oracles.brute_distance([0.5, 0.0, 0.0, 1.0], seg4) == pytest.approx([1.0])


def test_segment_distance_closed_and_periodic():
    unit = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    x = [[-1.0, 0.5]]
    closed = oracles.polyline_pieces([unit], [True])
    opened = oracles.polyline_pieces([unit], [False])
    assert oracles.brute_distance(x, closed) == pytest.approx([1.0])
    assert oracles.brute_distance(x, opened) == pytest.approx([sqrt(1.25)])
    wall = oracles.polyline_pieces([np.array([[0.0, 0.0], [0.0, 1.0]])])
    images = oracles.periodic_pieces(wall, 2.0)
    assert oracles.brute_distance([[1.9, 0.5]], images) == pytest.approx([0.1])
    assert oracles.brute_distance([[1.9, 0.5]], wall) == pytest.approx([1.9])


# -- faces and the ray-polygon exit ---------------------------------------------

def test_ray_crossing_faces():
    right = oracles.polygon_edges(SQUARE_XY + [2.0, 0.0])
    assert oracles.inside_polygon([0.2, 0.3], SQUARE)
    assert not oracles.inside_polygon([1.5, 0.0], SQUARE)
    assert oracles.face_of([1.5, 0.2], [SQUARE, right]) == 1
    assert oracles.face_of([5.0, 0.0], [SQUARE, right]) is None


def test_ray_polygon_exit_hand_cases():
    p = np.zeros(2)
    assert oracles.ray_exit(p, [0.5, 0.0], SQUARE) == pytest.approx([1.0, 0.0])
    assert oracles.ray_exit(p, [0.5, 0.5], SQUARE) == pytest.approx([1.0, 1.0])
    assert oracles.ray_exit(p, [0.25, 0.1], SQUARE) == pytest.approx([1.0, 0.4])
    assert oracles.leaf_fraction(p, [0.25, 0.1], SQUARE) == pytest.approx(0.25)
    assert oracles.face_arrival_time(0.5) == pytest.approx(-log(0.75))
    assert oracles.segment_meets_ball(p, [1.0, 0.0], np.array([0.5, 0.2]), 0.25)
    assert not oracles.segment_meets_ball(p, [1.0, 0.0], np.array([1.5, 0.0]), 0.25)


# -- closed-form Reeb rotation ----------------------------------------------------

def test_reeb_rotation_hand_cases():
    r = 1.0 / sqrt(pi)
    z = np.array([r, 0.0, 0.0, 0.0])
    sphere = oracles.periods("sphere", ())
    assert oracles.reeb_rotation(z, 0.25, sphere) == pytest.approx([0.0, r, 0.0, 0.0])
    assert oracles.reeb_rotation(z, 1.0, sphere) == pytest.approx(z)
    # on E(0.9, 0.8) the second coordinate turns a quarter in t = 0.2
    w = np.array([0.0, 0.0, 0.3, 0.0])
    ell = oracles.periods("ellipsoid", (0.9, 0.8))
    assert oracles.reeb_rotation(w, 0.2, ell) == pytest.approx([0.0, 0.0, 0.0, 0.3])
    assert oracles.reeb_rotation(w, -0.4, ell) == pytest.approx([0.0, 0.0, -0.3, 0.0])


def test_levels_hand_cases():
    assert oracles.level("sphere", (), [1 / sqrt(pi), 0, 0, 0]) == pytest.approx(1.0)
    assert oracles.level("ellipsoid", (0.9, 0.8),
                         [sqrt(0.9 / pi), 0, 0, 0]) == pytest.approx(1.0)
    assert oracles.level("ellipsoid", (0.9, 0.8),
                         [0, 0, 0.3, 0.4]) == pytest.approx(pi * 0.25 / 0.8)


# -- corrupted outputs count as failed operations -------------------------------

@pytest.fixture(scope="module")
def lib():
    return workloads.load_program()


def _one_op(lib, cls, seconds=1.0):
    wl = cls(lib, 3)
    wl.prepare(wl.setup())
    inp = next(iter(wl.rounds(seconds)))[0]
    out = wl.op(inp)
    assert workloads.tally(wl, [(inp, out, None)]) == []
    return wl, inp, out


def test_wrong_face_fails(lib):
    wl, inp, cls = _one_op(lib, workloads.Basin4)
    n_faces = len(wl.factors[0 if cls.component.kind == "vertical" else 1].polygons)
    wrong = replace(cls, component=replace(
        cls.component, index=(cls.component.index + 1) % n_faces))
    assert len(workloads.tally(wl, [(inp, wrong, None)])) == 1


def test_shifted_chord_end_fails(lib):
    wl, inp, chords = _one_op(lib, workloads.Chords)
    shifted = [replace(chords[0], end_point=chords[0].end_point + 1e-6)] + chords[1:]
    assert len(workloads.tally(wl, [(inp, shifted, None)])) == 1


def test_perturbed_flow_fails(lib):
    wl, inp, (pts, dist) = _one_op(lib, workloads.Skeleton)
    moved = pts.copy()
    moved[-1] += 1e-6
    assert len(workloads.tally(wl, [(inp, (moved, dist), None)])) == 1


def test_raising_operation_fails(lib):
    class Raising(workloads.Workload):
        def rounds(self, seconds):
            while True:
                yield [None]

        def op(self, inp):
            raise FloatingPointError("overflow")

        def check(self, inp, out):
            return None

    wl = Raising(lib, 0)
    records, times = workloads.run_ops(wl, 0.0, max_rounds=3)
    assert len(records) == len(times) == 3
    assert len(workloads.tally(wl, records)) == 3
