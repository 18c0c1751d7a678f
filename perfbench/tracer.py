"""Per-layer tracing by wrapping the program's public entry points.

`Tracer.install(lib)` replaces module and class attributes of liouville_lab
(and `scipy.optimize.minimize`, which the chord polish calls) with wrappers
that record one span per call, as [name, start, end, parent], plus counters
measured at the same boundary. Nothing in the program changes; `uninstall`
puts every attribute back. A layer's self time is the total of its spans
minus the part of them its child spans cover.
"""

from __future__ import annotations

import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

# every entry point traced during the timed operations, in report order
SPANS = ("liouville2d.flow", "liouville2d.face_at", "liouville2d.chart_at",
         "polar4d.classify4", "integrate.rk45", "grid2d.grid_distance",
         "reeb3.chord_search", "reeb3.flow", "reeb3.target_distance",
         "reeb3.polish")
# entry points timed during set-up, reported as seconds per set-up
SETUP_SPANS = ("liouville2d.build_form", "checks.gamma_samples",
               "reeb3.legendrian_graph")
COUNTERS = ("liouville2d.chart_legs", "integrate.rk45.f_evals",
            "integrate.rk45.stop_evals", "integrate.rk45.events",
            "integrate.rk45.f_errors", "geom.segments_distance.calls",
            "geom.segments_distance.pairs", "reeb3.flow.points",
            "reeb3.target_distance.batch_points", "reeb3.polish.nfev")


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.counts = Counter()
        self._stack = []
        self._undo = []

    # -- spans -----------------------------------------------------------
    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int):
        self.spans[idx][2] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, count=None, calls: bool = True):
        """fn with a span around each call, counted in `name.calls` when
        `calls`; count(result, args, kwargs) may add counters measured on
        the call."""
        def traced(*args, **kwargs):
            if calls:
                self.counts[name + ".calls"] += 1
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if count is not None:
                count(out, args, kwargs)
            return out
        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    def reset(self):
        self.spans = []
        self.counts = Counter()

    # -- the program's entry points ----------------------------------------
    def install(self, lib):
        import scipy.optimize

        L2 = lib.liouville2d.LiouvilleForm2D
        for attr in ("flow", "face_at", "chart_at"):
            self.patch(L2, attr, self.wrap(f"liouville2d.{attr}", L2.__dict__[attr]))
        P4 = lib.polar4d.ProductPolarization
        self.patch(P4, "classify4", self.wrap("polar4d.classify4", P4.classify4))
        self.patch(lib.liouville2d, "build_form",
                   self.wrap("liouville2d.build_form", lib.liouville2d.build_form))
        self.patch(lib.checks, "gamma_samples",
                   self.wrap("checks.gamma_samples", lib.checks.gamma_samples))
        self.patch(lib.reeb3, "legendrian_graph",
                   self.wrap("reeb3.legendrian_graph", lib.reeb3.legendrian_graph))

        rk45 = self._traced_rk45(lib.integrate.rk45)
        self.patch(lib.integrate, "rk45", rk45)   # nested calls resolve here
        self.patch(lib.reeb3, "rk45", rk45)

        def chart_leg(*args, **kwargs):
            self.counts["liouville2d.chart_legs"] += 1
            return rk45(*args, **kwargs)
        self.patch(lib.liouville2d, "rk45", chart_leg)

        # counted but not spanned: grid2d and geom are one layer, so the
        # segment kernel's time stays in grid_distance's self time
        seg = lib.geom.segments_distance

        def counted_seg(p, segs):
            n_points = np.size(p) // max(np.shape(p)[-1], 1)
            self.counts["geom.segments_distance.calls"] += 1
            self.counts["geom.segments_distance.pairs"] += n_points * len(segs[0])
            return seg(p, segs)
        for mod in (lib.geom, lib.grid2d):
            self.patch(mod, "segments_distance", counted_seg)
        G = lib.grid2d.Grid
        self.patch(G, "grid_distance", self.wrap("grid2d.grid_distance", G.grid_distance))

        S = lib.reeb3.StarshapedHypersurface

        def count_points(out, args, kwargs):
            z = args[1] if len(args) > 1 else kwargs["z"]
            t = args[2] if len(args) > 2 else kwargs["t"]
            n = int(np.prod(np.broadcast_shapes(np.shape(z)[:-1], np.shape(t))))
            self.counts["reeb3.flow.points"] += n
        self.patch(S, "flow", self.wrap("reeb3.flow", S.flow, count_points))
        self.patch(lib.reeb3, "chord_search",
                   self.wrap("reeb3.chord_search", lib.reeb3.chord_search))
        self.patch(lib.reeb3, "target_distance_factory",
                   self._traced_distance_factory(lib.reeb3.target_distance_factory))

        def count_nfev(res, args, kwargs):
            self.counts["reeb3.polish.nfev"] += int(res.nfev)
        self.patch(scipy.optimize, "minimize",
                   self.wrap("reeb3.polish", scipy.optimize.minimize, count_nfev))

    def _traced_rk45(self, rk45):
        sig = inspect.signature(rk45)

        def counted_field(f):
            if getattr(f, "_traced", False):
                return f

            def g(x):
                self.counts["integrate.rk45.f_evals"] += 1
                try:
                    return f(x)
                except Exception:
                    self.counts["integrate.rk45.f_errors"] += 1
                    raise
            g._traced = True
            return g

        def counted_stop(stop):
            if stop is None or getattr(stop, "_traced", False):
                return stop

            def g(x):
                self.counts["integrate.rk45.stop_evals"] += 1
                return stop(x)
            g._traced = True
            return g

        def body(*args, **kwargs):
            ba = sig.bind(*args, **kwargs)
            ba.arguments["f"] = counted_field(ba.arguments["f"])
            if "stop" in ba.arguments:
                ba.arguments["stop"] = counted_stop(ba.arguments["stop"])
            return rk45(*ba.args, **ba.kwargs)

        def count_events(out, args, kwargs):
            if out[2]:
                self.counts["integrate.rk45.events"] += 1
        return self.wrap("integrate.rk45", body, count_events)

    def _traced_distance_factory(self, factory):
        def traced_factory(targets):
            dist = factory(targets)
            scalar = self.wrap("reeb3.target_distance", dist)

            def count_batch(out, args, kwargs):
                self.counts["reeb3.target_distance.batch_points"] += len(args[0])
            batch = self.wrap("reeb3.target_distance", dist.batch, count_batch,
                              calls=False)

            scalar.batch = batch
            return scalar
        return traced_factory

    # -- reports -------------------------------------------------------------
    def self_times(self) -> dict:
        """Total self time per span name: duration minus child durations."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out = defaultdict(float)
        for i, (name, t0, t1, parent) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def total_time(self, name: str) -> float:
        return sum(t1 - t0 for n, t0, t1, _ in self.spans if n == name)


def setup_seconds(per_setup: list) -> dict:
    """Median over set-ups of the time each set-up spent in each entry."""
    return {f"{name}.s": statistics.median(d[name] for d in per_setup)
            for name in SETUP_SPANS}


def layer_metrics(tracer: Tracer, setup: dict) -> dict:
    """Every per-layer metric of the traced run, by name, with its unit."""
    self_s = tracer.self_times()
    m = {}
    for name in SPANS:
        m[name + ".calls"] = (tracer.counts[name + ".calls"], "count")
        m[name + ".self_s"] = (self_s.get(name, 0.0), "s")
    for name in COUNTERS:
        m[name] = (tracer.counts[name], "count")
    for name, value in setup.items():
        m[name] = (value, "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}
