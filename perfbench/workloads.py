"""The benchmark's three workloads.

Each workload builds its program objects in `setup` (timed, repeated), makes
its inputs from the seed, runs one operation at a time through the program's
public API in `op` (timed), and checks each output in `check` against the
reference computations of `oracles` (not timed). `check` returns None for a
correct output and otherwise says what is wrong; the runner counts such an
operation as failed.

`rounds()` yields lists of inputs, and a run attempts whole rounds only. A
`skeleton` or `chords` round holds the same operations in every run, so the
share of slow operations does not depend on the run's length; a `basin4`
round is one fresh point.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import numpy as np

import oracles

ROOT = Path(__file__).resolve().parent.parent
PINWHEEL = (3, 1.0, [0.35, -0.25, 0.1])      # pinwheel:3:0.35,-0.25,0.1
T_MAX = 20.0
GRID_MARGIN = 1e-3


def load_program() -> SimpleNamespace:
    """Import liouville_lab from the checkout's own source tree."""
    src = ROOT / "src"
    if not (src / "liouville_lab" / "__init__.py").is_file():
        raise SystemExit(f"no program source under {src}")
    sys.path.insert(0, str(src))
    from liouville_lab import (checks, geom, grid2d, integrate, liouville2d,
                               polar4d, reeb3)
    return SimpleNamespace(checks=checks, geom=geom, grid2d=grid2d,
                           integrate=integrate, liouville2d=liouville2d,
                           polar4d=polar4d, reeb3=reeb3)


class Workload:
    name = ""
    stream = 0               # inputs come from default_rng([seed, stream])
    tail_pct = 50.0          # percentile reported as op_tail_ms
    setup_reps = 5           # set-ups per run; setup_s is their median
    # a traced run does a fixed amount of work: this many rounds per second
    # of run length
    trace_rounds_per_s = 1.0

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = np.random.default_rng([seed, self.stream])

    def setup(self):
        raise NotImplementedError

    def prepare(self, objs):
        """Keep the program objects and derive the oracle data (untimed)."""
        raise NotImplementedError

    def rounds(self, seconds: float):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, out) -> str | None:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# basin4: 4D basin classification on radial:4 x pinwheel
# ---------------------------------------------------------------------------

class _Factor:
    """Oracle data of one planar factor."""

    def __init__(self, form):
        grid = form.grid
        self.radius = float(np.sqrt(grid.ambient_area / np.pi))
        self.pieces = oracles.polyline_pieces([a.points for a in grid.arcs])
        self.polygons = [oracles.polygon_edges(grid.face_polygon(i))
                         for i in range(grid.n_faces)]
        self.marked = np.asarray(grid.marked_points)
        # chart balls, widened by 1% so that leaves grazing one are excluded
        self.balls = [(c.center, 1.01 * c.ambient_radius()) for c in form.charts]

    def sample(self, rng, n: int) -> np.ndarray:
        """n points uniform in the disc, at least GRID_MARGIN off the grid."""
        out = []
        while len(out) < n:
            m = n + n // 8      # a few per cent land within the margin
            r = self.radius * np.sqrt(rng.uniform(size=m))
            ang = rng.uniform(0.0, 2.0 * np.pi, size=m)
            x = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=1)
            out.extend(x[oracles.brute_distance(x, self.pieces) >= GRID_MARGIN])
        return np.array(out[:n])

    def arrival(self, x, face: int) -> float | None:
        """-ln(1 - t^2) along the straight leaf p -> x, or None when the leaf
        meets a chart ball (the flow then leaves the closed form)."""
        p = self.marked[face]
        if any(oracles.segment_meets_ball(p, x, c, r) for c, r in self.balls):
            return None
        return oracles.face_arrival_time(
            oracles.leaf_fraction(p, x, self.polygons[face]))


class Basin4(Workload):
    name = "basin4"
    tail_pct = 99.0
    trace_rounds_per_s = 100.0

    def setup(self):
        g = self.lib.grid2d
        build = self.lib.liouville2d.build_form
        fA = build(g.make_radial_grid(4, 1.0))
        fB = build(g.make_pinwheel_grid(*PINWHEEL))
        return self.lib.polar4d.ProductPolarization(fA, fB)

    def prepare(self, pp):
        self.pp = pp
        self.factors = (_Factor(pp.fA), _Factor(pp.fB))

    def rounds(self, seconds):
        while True:
            xs, ys = (f.sample(self.rng, 256) for f in self.factors)
            for x, y in zip(xs, ys):
                yield [np.concatenate([x, y])]

    def op(self, p4):
        return self.pp.classify4(p4)

    def check(self, p4, cls):
        if cls.kind != "basin" or cls.component is None:
            return f"classified {cls.kind}"
        pts = (p4[:2], p4[2:])
        faces = [oracles.face_of(x, f.polygons) for x, f in zip(pts, self.factors)]
        if None in faces:
            return "the oracle finds no single face"
        named = 0 if cls.component.kind == "vertical" else 1
        if cls.component.index != faces[named]:
            return (f"named face {cls.component.index} of factor {named}, "
                    f"ray crossing gives {faces[named]}")
        times = [f.arrival(x, i) for f, x, i in zip(self.factors, pts, faces)]
        if None not in times:
            first = min(times)
            if abs(cls.t_hit - first) > 1e-3 * first:
                return f"t_hit {cls.t_hit} against closed form {first}"
            if abs(cls.t_hit - times[named]) > 1e-3 * times[named]:
                return f"factor {named} does not give the first arrival"
        return None


# ---------------------------------------------------------------------------
# skeleton: skeleton samples flowed both ways, drift by grid_distance
# ---------------------------------------------------------------------------

class Skeleton(Workload):
    name = "skeleton"
    stream = 1
    tail_pct = 98.0
    trace_rounds_per_s = 0.1

    def setup(self):
        g = self.lib.grid2d
        build = self.lib.liouville2d.build_form
        forms = [build(g.make_radial_grid(4, 1.0)),
                 build(g.make_pinwheel_grid(*PINWHEEL)),
                 build(g.make_periodic_grid(2))]
        return forms, [self.lib.checks.gamma_samples(f) for f in forms]

    def prepare(self, objs):
        self.forms, self.samples = objs
        self.pieces = []
        for f in self.forms:
            pieces = oracles.polyline_pieces([a.points for a in f.grid.arcs])
            if f.grid.periodic:
                pieces = oracles.periodic_pieces(pieces, f.grid.period)
            self.pieces.append(pieces)
        self.ops = [(i, j, d) for i, s in enumerate(self.samples)
                    for j in range(len(s)) for d in (1, -1)]
        self._checked = {}

    def rounds(self, seconds):
        # one round flows every sample both ways, in a seeded order
        while True:
            yield [self.ops[k] for k in self.rng.permutation(len(self.ops))]

    def op(self, inp):
        i, j, d = inp
        form = self.forms[i]
        tr = form.flow(self.samples[i][j], T_MAX, direction=d)
        pts = np.array([(px, py) for _, px, py in tr.points])
        return pts, np.array([form.grid.grid_distance(q) for q in pts])

    def check(self, inp, out):
        # every round repeats the same inputs; an output equal to one already
        # checked for the same input has the same verdict
        seen = self._checked.get(inp)
        if seen is not None and all(np.array_equal(u, v) for u, v in zip(seen[0], out)):
            return seen[1]
        verdict = self._check(inp, out)
        self._checked[inp] = (out, verdict)
        return verdict

    def _check(self, inp, out):
        pts, dist = out
        if not np.all(np.isfinite(pts)):
            return "non-finite trajectory point"
        grid = self.forms[inp[0]].grid
        q = np.mod(pts, grid.period) if grid.periodic else pts
        ref = oracles.brute_distance(q, self.pieces[inp[0]])
        err = float(np.max(np.abs(ref - dist)))
        if err > 1e-12:
            return f"grid_distance off the brute-force distance by {err:.3e}"
        if float(np.max(dist)) >= 1e-3:
            return f"skeleton drift {float(np.max(dist)):.3e}"
        return None


# ---------------------------------------------------------------------------
# chords: Reeb chords from each shipped knot to itself plus a barrier graph
# ---------------------------------------------------------------------------

SURFACES = (("sphere", ()), ("ellipsoid", (0.9, 0.8)))
CHORD_SEARCH_NOMINAL_S = 0.6     # sizes the chord round from --seconds
CHORD_TOL = 1e-5                 # the distance below which a chord counts


def _chord_order(n_knots: int = 5) -> list:
    """All (surface, k, direction, knot) combinations, interleaved so that a
    prefix of any length spans both surfaces, both k and both directions."""
    variants = [(s, k, d) for d in (1, -1) for k in (2, 3) for s in range(2)]
    order = []
    for i in range(len(variants) * n_knots):
        v = i % len(variants)
        order.append(variants[v] + ((i // len(variants) + i) % n_knots,))
    return order


class Chords(Workload):
    name = "chords"
    stream = 2
    setup_reps = 41

    def setup(self):
        r3 = self.lib.reeb3
        out = []
        for kind, params in SURFACES:
            S = r3.StarshapedHypersurface(kind, params)
            out.append((S, r3.shipped_knots(S),
                        {k: r3.legendrian_graph(S, k, n_samples=512) for k in (2, 3)}))
        return out

    def prepare(self, objs):
        self.surfaces = objs
        self._pieces = {}

    def rounds(self, seconds):
        # Chord searches cost 1-6 s each, so a run is one fixed round, sized
        # from the run length (25 searches, about 35 s, at 15 s), and the
        # seed sets its order. Turning knots and
        # barriers by a symmetry of the surfaces would change the work of a
        # search by up to 12%: rounding decides which candidates it polishes.
        n = max(2, int(np.ceil(seconds / CHORD_SEARCH_NOMINAL_S)))
        rnd = _chord_order()[:n]
        yield [rnd[k] for k in self.rng.permutation(n)]

    def op(self, inp):
        s, k, direction, j = inp
        S, knots, barriers = self.surfaces[s]
        knot = knots[j]
        return self.lib.reeb3.chord_search(
            S, knot, [knot] + barriers[k], T_max=2.0 / k + 1e-3,
            direction=direction, n_seed=96, n_time=128)

    def pieces(self, inp):
        s, k, _, j = inp
        if (s, k, j) not in self._pieces:
            _, knots, barriers = self.surfaces[s]
            targets = [knots[j]] + barriers[k]
            self._pieces[(s, k, j)] = oracles.polyline_pieces(
                [c.points for c in targets], [c.closed for c in targets])
        return self._pieces[(s, k, j)]

    def check(self, inp, chords):
        s, k, direction, _ = inp
        if not chords:
            return "no chord found"
        kind, params = SURFACES[s]
        per = oracles.periods(kind, params)
        bound = 2.0 / k + 1e-3
        for c in chords:
            if not 0.0 < c.T <= bound:
                return f"chord length {c.T} outside (0, {bound}]"
            h = float(oracles.level(kind, params, c.start_point))
            if abs(h - 1.0) > 1e-9:
                return f"chord start off the surface, |H - 1| = {abs(h - 1):.3e}"
            end = oracles.reeb_rotation(c.start_point, direction * c.T, per)
            err = float(np.max(np.abs(end - c.end_point)))
            if err > 1e-9:
                return f"chord end off the Reeb rotation of its start by {err:.3e}"
            d = float(oracles.brute_distance(end, self.pieces(inp))[0])
            if abs(d - c.distance) > 1e-12 or d >= CHORD_TOL:
                return f"target distance {d:.3e}, chord reports {c.distance:.3e}"
        return None


def run_ops(wl, seconds: float, max_rounds: int | None = None):
    """Closed loop over whole rounds until `seconds` of operation time have
    been spent (or `max_rounds` rounds are done). Returns the records
    (input, output, error) and the wall time of each operation."""
    records, times = [], []
    spent = 0.0
    for n_round, rnd in enumerate(wl.rounds(seconds), 1):
        for inp in rnd:
            t0 = perf_counter()
            try:
                out, err = wl.op(inp), None
            except Exception as exc:  # a raising operation is a failed one
                out, err = None, f"raised {exc!r}"
            dt = perf_counter() - t0
            spent += dt
            times.append(dt)
            records.append((inp, out, err))
        if (n_round >= max_rounds) if max_rounds else (spent >= seconds):
            break
    return records, times


def tally(wl: Workload, records) -> list:
    """The failed operations of a run, as (input, reason): those that raised
    and those whose output `check` rejects or cannot check."""
    failed = []
    for inp, out, err in records:
        if err is None:
            try:
                err = wl.check(inp, out)
            except Exception as exc:  # an unreadable output is a failed op
                err = f"check raised {exc!r}"
        if err is not None:
            failed.append((inp, err))
    return failed


WORKLOADS = {w.name: w for w in (Basin4, Skeleton, Chords)}
