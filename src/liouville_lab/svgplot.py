"""Deterministic SVG emission for grids, foliations, trajectories, divisor
band diagrams, and Hopf projections. No plotting dependency: byte-identical
output for identical inputs."""

from __future__ import annotations

import numpy as np

PALETTE = ["#4e79a7", "#f28e2b", "#59a14f", "#e15759", "#b07aa1",
           "#76b7b2", "#edc948", "#ff9da7", "#9c755f", "#bab0ac"]
# leaves drawn per face of a foliation
FOLIATION_LEAVES = 28


def _fmt(x: float) -> str:
    return f"{x:.4f}"


class Scene:
    def __init__(self, width=640, height=640, world=None):
        self.w = width
        self.h = height
        self.world = world or (-1.0, -1.0, 1.0, 1.0)
        self.items = []

    def map_pt(self, p):
        x0, y0, x1, y1 = self.world
        sx = (p[0] - x0) / (x1 - x0) * self.w
        sy = (1.0 - (p[1] - y0) / (y1 - y0)) * self.h
        return sx, sy

    def polyline(self, pts, color="#222222", width=1.2, fill="none",
                 opacity=1.0, close=False):
        d = []
        for i, p in enumerate(pts):
            sx, sy = self.map_pt(p)
            d.append(("M" if i == 0 else "L") + f"{_fmt(sx)},{_fmt(sy)}")
        if close:
            d.append("Z")
        self.items.append(
            f'<path d="{" ".join(d)}" stroke="{color}" stroke-width="{width}" '
            f'fill="{fill}" fill-opacity="{_fmt(opacity)}" stroke-linejoin="round"/>')

    def polygon(self, pts, fill, opacity=0.35, stroke="none"):
        self.polyline(pts, color=stroke, width=0.8, fill=fill,
                      opacity=opacity, close=True)

    def dot(self, p, r=3.0, color="#000000"):
        sx, sy = self.map_pt(p)
        self.items.append(
            f'<circle cx="{_fmt(sx)}" cy="{_fmt(sy)}" r="{_fmt(r)}" fill="{color}"/>')

    def text(self, p, s, size=13, color="#111111"):
        sx, sy = self.map_pt(p)
        self.items.append(
            f'<text x="{_fmt(sx)}" y="{_fmt(sy)}" font-size="{size}" '
            f'font-family="sans-serif" fill="{color}">{s}</text>')

    def render(self) -> str:
        head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.w}" '
                f'height="{self.h}" viewBox="0 0 {self.w} {self.h}">')
        return "\n".join([head, '<rect width="100%" height="100%" fill="white"/>',
                          *self.items, "</svg>"]) + "\n"


def world_of_grid(grid) -> tuple:
    if grid.periodic:
        N = grid.period
        return (-0.1 * N, -0.1 * N, 1.1 * N, 1.1 * N)
    r = grid.boundary_radius() * 1.08
    return (-r, -r, r, r)


def draw_grid(grid, scene: Scene | None = None) -> Scene:
    sc = scene or Scene(world=world_of_grid(grid))
    for i in range(grid.n_faces):
        sc.polygon(grid.face_polygon(i), PALETTE[i % len(PALETTE)], opacity=0.25)
    for a in grid.arcs:
        sc.polyline(a.points, color="#333333", width=1.6)
    for v in grid.vertices:
        sc.dot(v.xy, r=2.6, color="#333333")
    for i, p in enumerate(grid.marked_points):
        sc.dot(p, r=3.4, color=PALETTE[i % len(PALETTE)])
    return sc


def draw_foliation(form, scene: Scene | None = None) -> Scene:
    sc = draw_grid(form.grid, scene or Scene(world=world_of_grid(form.grid)))
    for fc in form.faces:
        for th in (np.arange(FOLIATION_LEAVES) + 0.5) / FOLIATION_LEAVES:
            leaf = np.array([fc.leaf(th, t) for t in np.linspace(0.02, 1.0, 40)])
            sc.polyline(leaf, color="#8888cc", width=0.7, opacity=0.9)
        for vid, th in fc.vertex_thetas:
            leaf = np.array([fc.leaf(th, t) for t in np.linspace(0.02, 1.0, 40)])
            sc.polyline(leaf, color="#cc3333", width=1.3)
    return sc


def draw_trajectories(form, trajectories, scene: Scene | None = None) -> Scene:
    sc = draw_foliation(form, scene=scene)
    for tr in trajectories:
        pts = np.array([(x, y) for (_, x, y) in tr.points])
        if len(pts) > 1:
            sc.polyline(pts, color="#117733", width=1.1)
        sc.dot(pts[0], r=2.2, color="#117733")
    return sc


def draw_band_diagram(m: int, n: int, K: int, assignment, a: float, b: float) -> Scene:
    """Band-allocation picture: the K fiber cells of the first target curve in
    a row, colored by assigned source pair."""
    sc = Scene(width=max(640, 24 * K + 80), height=240,
               world=(-1.0, -2.0, K + 1.0, 6.0))
    for p, (i, j) in enumerate(assignment):
        color = PALETTE[(i * n + j) % len(PALETTE)]
        cell = np.array([[p, 0.0], [p + 1, 0.0], [p + 1, 2.0], [p, 2.0]])
        sc.polygon(cell, fill=color, opacity=0.6, stroke="#444444")
        sc.text((p + 0.15, 0.8), f"{i},{j}", size=10)
    sc.text((0.0, 4.5), f"K = {K} cells of area b = {b:g}; rows need > n b = {n * b:g},"
                        f" columns > m a = {m * a:g}", size=13)
    return sc


def draw_hopf(k: int, paths3, areas) -> Scene:
    """Orthographic view of the Hopf shadows h_j and the lune areas."""
    sc = Scene(world=(-1.25, -1.25, 1.25, 1.25))
    circle = np.array([[np.cos(t), np.sin(t)]
                       for t in np.linspace(0, 2 * np.pi, 200)])
    sc.polyline(circle, color="#999999", width=1.0)
    for j, path in enumerate(paths3):
        xy = path[:, [0, 2]]  # orthographic (x, z)
        sc.polyline(xy, color=PALETTE[j % len(PALETTE)], width=1.4)
        sc.text((-1.2, 1.1 - 0.12 * j),
                f"disc {j}: area {areas[j]:.5f} (1/k = {1.0 / k:.5f})", size=12)
    return sc
