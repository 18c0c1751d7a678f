"""The benchmark's tracer must find, and put back, every entry point it wraps.

`perfbench/run.py --trace 1` patches attributes of the program by name; a
renamed or deleted entry point breaks the traced run. These tests install and
uninstall the tracer on the program as the benchmark loads it, and check that
its counters see the chord search's work where the program puts it.
"""

import sys
from pathlib import Path

import numpy as np
import scipy.optimize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _namespaces(lib) -> list:
    mods = [getattr(lib, name) for name in vars(lib)]
    classes = [lib.liouville2d.LiouvilleForm2D, lib.polar4d.ProductPolarization,
               lib.grid2d.Grid, lib.reeb3.StarshapedHypersurface]
    return mods + classes + [scipy.optimize]


def _load():
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        from tracer import Tracer

        return workloads.load_program(), Tracer
    finally:
        sys.path[:] = saved_path


def test_tracer_restores_every_patched_attribute():
    lib, Tracer = _load()
    spaces = _namespaces(lib)
    before = [dict(vars(ns)) for ns in spaces]
    tracer = Tracer()
    try:
        tracer.install(lib)
        patched = [(ns, k) for ns, old in zip(spaces, before)
                   for k, v in vars(ns).items() if old.get(k) is not v]
    finally:
        tracer.uninstall()
    assert len(patched) >= 15
    for ns, old in zip(spaces, before):
        now = vars(ns)
        assert now.keys() == old.keys(), ns
        changed = [k for k in old if now[k] is not old[k]]
        assert not changed, (ns, changed)


def test_chord_zoom_queries_distance_in_batches():
    # the zoom evaluates its rows through dist.batch; scalar distance
    # queries are left to the polish and one zoom centre per candidate
    lib, Tracer = _load()
    reeb3 = lib.reeb3
    S = reeb3.StarshapedHypersurface("sphere")
    knot = reeb3.legendrian_great_circle(S)
    targets = [knot, *reeb3.legendrian_graph(S, 3, n_samples=512)]
    tracer = Tracer()
    try:
        tracer.install(lib)
        chords = reeb3.chord_search(S, knot, targets, T_max=2 / 3 + 1e-3,
                                    n_seed=24, n_time=32)
    finally:
        tracer.uninstall()
    assert chords
    counts = tracer.counts
    assert counts["reeb3.polish.calls"] > 0
    assert (counts["reeb3.target_distance.calls"]
            <= counts["reeb3.polish.nfev"] + counts["reeb3.polish.calls"])
    # the (s, t) grid has at most 24 seeds x (48 + 32) times
    assert counts["reeb3.target_distance.batch_points"] > 24 * (48 + 32)


def test_grid_distance_measures_few_segments():
    # the segment index hands segments_distance only the segments whose
    # midpoints lie within reach of the nearest one; the query is a point
    # 1e-4 off a spoke, as the skeleton drift checks measure
    lib, Tracer = _load()
    g = lib.grid2d.make_radial_grid(4, 1.0)
    n_segments = sum(len(a.points) - 1 for a in g.arcs)
    spoke = g.arcs[0].points
    x = spoke[len(spoke) // 2] + [0.0, 1e-4]
    tracer = Tracer()
    try:
        tracer.install(lib)
        d = g.grid_distance(x)
    finally:
        tracer.uninstall()
    counts = tracer.counts
    assert 0.0 < d <= 1e-4
    assert counts["grid2d.grid_distance.calls"] == 1
    assert counts["geom.segments_distance.calls"] == 1
    assert 0 < counts["geom.segments_distance.pairs"] < 0.01 * n_segments


def test_numeric_reeb_flow_is_one_rk45_run():
    # S.flow turns z1 and z2 in closed form on every surface, bumped too; the
    # numeric reference integrates the whole batch in one rk45 run
    lib, Tracer = _load()
    reeb3 = lib.reeb3
    S = reeb3.StarshapedHypersurface("bumped", (0.15,))
    z = S.project(np.random.default_rng(2).normal(size=(6, 4)))
    t = np.linspace(-0.4, 0.4, 6)
    tracer = Tracer()
    try:
        tracer.install(lib)
        out = S.flow(z, t)
        flow_counts = dict(tracer.counts)
        ref = S.flow_numeric(z, t)
    finally:
        tracer.uninstall()
    assert out.shape == ref.shape == z.shape
    assert flow_counts["reeb3.flow.calls"] == 1
    assert flow_counts["reeb3.flow.points"] == 6
    assert flow_counts.get("integrate.rk45.calls", 0) == 0
    assert tracer.counts["integrate.rk45.calls"] == 1


def test_chord_grid_is_measured_only_up_to_the_stop():
    # the seed grid's capped distance queries run a block of rows at a time
    # and stop with the search: the first chord on the sphere from the great
    # circle to the k = 3 barrier is short, so most rows are never measured
    lib, Tracer = _load()
    reeb3 = lib.reeb3
    S = reeb3.StarshapedHypersurface("sphere")
    knot = reeb3.legendrian_great_circle(S)
    targets = [knot, *reeb3.legendrian_graph(S, 3, n_samples=512)]
    n_seed, n_time, T_max = 96, 128, 2 / 3 + 1e-3
    n_t = len(np.unique(np.concatenate([
        np.geomspace(reeb3.CHORD_T_MIN, T_max, 48),
        np.linspace(reeb3.CHORD_T_MIN, T_max, n_time)])))
    capped = []
    factory = reeb3.target_distance_factory

    def counting_factory(targets):
        dist = factory(targets)
        batch = dist.batch

        def counted(X, cap=np.inf):
            if np.isfinite(cap):
                capped.append(len(X))
            return batch(X, cap=cap)
        dist.batch = counted
        return dist

    reeb3.target_distance_factory = counting_factory
    tracer = Tracer()
    try:
        tracer.install(lib)
        chords = reeb3.chord_search(S, knot, targets, T_max=T_max,
                                    n_seed=n_seed, n_time=n_time)
    finally:
        tracer.uninstall()
        reeb3.target_distance_factory = factory
    assert chords and chords[0].T < T_max / 2
    assert capped and all(n == n_seed * reeb3.GRID_ROW_BLOCK for n in capped)
    # an eager grid measures all n_seed x n_t points in one capped query
    assert sum(capped) < n_seed * n_t / 2
    assert tracer.counts["reeb3.target_distance.batch_points"] >= sum(capped)
