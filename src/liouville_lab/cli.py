"""Command-line entry point wiring all modules.

Subcommands: grid, liouville, polar4, feasible, reeb, check-all, plot.
Deterministic outputs: identical config + seed give byte-identical CSV/SVG.
The random seed defaults to LIOUVILLE_LAB_SEED when set.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import checks, divisor_arith as da, grid2d, liouville2d, polar4d, reeb3, svgplot

DEFAULT_SEED = 7


def env_seed() -> int:
    """Random seed, overridable through LIOUVILLE_LAB_SEED."""
    raw = os.environ.get("LIOUVILLE_LAB_SEED")
    if raw is None:
        return DEFAULT_SEED
    return int(raw)


class SpecError(ValueError):
    """A malformed spec on the command line."""


def parse_numbers(text: str, kind=float, count: int | None = None) -> list:
    """The comma-separated numbers of a spec, `count` of them when given."""
    try:
        vals = [kind(x) for x in text.split(",")]
    except ValueError:
        raise SpecError(f"malformed number list {text!r}") from None
    if count is not None and len(vals) != count:
        raise SpecError(f"expected {count} comma-separated numbers, got {text!r}")
    return vals


def parse_grid_spec(spec: str, area: float | None = None) -> grid2d.Grid:
    """radial:k | periodic:N | pinwheel:k:t1,t2,... | sector:f1,f2,... | path.json"""
    if spec.endswith(".json"):
        with open(spec) as fh:
            return grid2d.Grid.from_json(fh.read())
    kind, _, rest = spec.partition(":")
    if kind == "radial":
        k, = parse_numbers(rest, int, 1)
        return grid2d.make_radial_grid(k, area if area else 1.0)
    if kind == "periodic":
        N, = parse_numbers(rest, int, 1)
        return grid2d.make_periodic_grid(N)
    if kind == "pinwheel":
        ks, _, tw = rest.partition(":")
        k, = parse_numbers(ks, int, 1)
        twists = parse_numbers(tw) if tw else [0.0] * k
        return grid2d.make_pinwheel_grid(k, area if area else 1.0, twists)
    if kind == "sector":
        return grid2d.make_sector_grid(area if area else 1.0, parse_numbers(rest))
    raise SpecError(f"unknown grid spec {spec!r}")


def parse_surface(spec: str) -> reeb3.StarshapedHypersurface:
    """sphere | ellipsoid:a,b | bumped:c | path.json ({"kind", "params"})"""
    with malformed_input():
        if spec.endswith(".json"):
            doc = json_object(spec, "surface")
            kind, params = doc["kind"], doc.get("params", ())
        else:
            kind, _, rest = spec.partition(":")
            params = parse_numbers(rest) if rest else ()
        return reeb3.StarshapedHypersurface(kind, tuple(params))


@contextmanager
def malformed_input(source: str = ""):
    """Re-raise a TypeError or ValueError of a malformed argument as a SpecError."""
    try:
        yield
    except (TypeError, ValueError) as exc:
        raise SpecError(f"{source}: {exc}" if source else str(exc)) from None


def json_object(path: str, what: str) -> dict:
    """The JSON object in the file at path; `what` names the file in errors."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise SpecError(f"{what} file {path!r} does not hold a JSON object")
    return doc


def write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def trajectory_csv(trajectories) -> str:
    lines = ["seed_id,t,x,y,classification"]
    for sid, tr in enumerate(trajectories):
        for (t, x, y) in tr.points:
            lines.append(f"{sid},{t:.9f},{x:.9f},{y:.9f},{tr.classification}")
    return "\n".join(lines) + "\n"


def report_results(results) -> int:
    ok = True
    for r in results:
        print(r.line())
        ok = ok and r.ok
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

def cmd_grid(args) -> int:
    if args.action == "make":
        g = parse_grid_spec(args.spec, args.area)
        write_text(args.out, g.to_json())
        return 0
    g = parse_grid_spec(args.spec, args.area)
    if args.action == "info":
        areas = g.face_areas()
        print(f"faces: {g.n_faces}, total area {areas.sum():.9f} "
              f"(ambient {g.ambient_area:g}), max face {areas.max():.9f}")
        cert = grid2d.validate_regular(g)
        if cert.ok:
            print(f"regular: yes (max sector deviation {cert.max_deviation():.2e})")
        else:
            e = cert.offender_entry()
            print(f"regular: no, vertex {cert.offender} has sectors "
                  f"{[round(s, 4) for s in e.sector_angles]}")
        return 0
    if args.action == "validate":
        cert = grid2d.validate_regular(g)
        print("regular" if cert.ok else f"irregular at vertex {cert.offender}")
        return 0 if cert.ok else 1
    raise SystemExit(f"unknown grid action {args.action}")


def cmd_liouville(args) -> int:
    if args.action == "build":
        g = parse_grid_spec(args.grid, args.area)
        form = liouville2d.build_form(g)
        doc = {
            "grid": json.loads(g.to_json()),
            "residues": [-fc.area for fc in form.faces],
            "charts": [
                {"vertex": c.vid, "multiplicity": c.mult,
                 "boundary": c.boundary, "R_max": c.R_max}
                for c in form.charts
            ],
            "builder": "straight-leaf foliation, model smoothing charts",
        }
        write_text(args.out, json.dumps(doc, indent=1, sort_keys=True) + "\n")
        return 0
    g = parse_grid_spec(args.grid, args.area) if args.grid else _form_grid(args.form)
    form = liouville2d.build_form(g)
    if args.action == "flow":
        rng = np.random.default_rng(args.seed)
        pts = checks.sample_off_singular(form, args.seeds, rng,
                                         t_range=(1e-3, 1 - 1e-6),
                                         chart_margin=0.0, gamma_margin=0.0)
        trs = [form.flow(x, args.tmax) for x in pts]
        write_text(args.csv, trajectory_csv(trs))
        return 0
    if args.action == "check":
        return report_results(checks.run_battery(
            form, n_closed=args.samples, n_basin=args.samples, seed=args.seed))
    raise SystemExit(f"unknown liouville action {args.action}")


def _form_grid(form_path: str | None) -> grid2d.Grid:
    if form_path is None:
        raise SpecError("need --grid or --form")
    doc = json_object(form_path, "form")
    return grid2d.Grid.from_json(json.dumps(doc["grid"]))


def cmd_polar4(args) -> int:
    if args.action == "sdb":
        return cmd_sdb(args)
    if not (args.formA and args.formB):
        raise SpecError("polar4 classify/check need --formA and --formB")
    gA = parse_grid_spec(args.formA, args.area)
    gB = parse_grid_spec(args.formB, args.area)
    pp = polar4d.ProductPolarization(liouville2d.build_form(gA),
                                     liouville2d.build_form(gB))
    if args.action == "classify":
        rng = np.random.default_rng(args.seed)
        pts = checks.product_samples(pp, args.seeds, rng)
        lines = ["seed_id,x1,y1,x2,y2,classification,component"]
        for sid, p4 in enumerate(pts):
            cls = pp.classify4(p4, args.tmax)
            comp = (f"{cls.component.kind}:{cls.component.index}"
                    if cls.component else "")
            lines.append(
                f"{sid},{p4[0]:.9f},{p4[1]:.9f},{p4[2]:.9f},{p4[3]:.9f},"
                f"{cls.kind},{comp}")
        write_text(args.csv, "\n".join(lines) + "\n")
        return 0
    if args.action == "check":
        results = [
            checks.check_product_closedness(pp, args.samples, args.seed),
            checks.check_product_skeleton(pp, args.samples, args.seed),
            checks.check_boundary_tangency(pp),
        ]
        return report_results(results)
    raise SystemExit(f"unknown polar4 action {args.action}")


def cmd_sdb(args) -> int:
    with malformed_input():
        m = polar4d.ModelDiscBundle(args.c1, args.area)
    b1, b2, R, th = parse_numbers(args.probe, float, 4)
    W, lam, X = m.eval([b1, b2, R, th])
    print(f"fiber capacity A/c1 = {m.fiber_capacity:g}")
    print("omega0 =")
    for row in W:
        print("  " + " ".join(f"{v: .6f}" for v in row))
    print("lambda0 =", " ".join(f"{v: .6f}" for v in lam))
    print("Liouville =", " ".join(f"{v: .6f}" for v in X))
    return 0


def cmd_feasible(args) -> int:
    if args.problem == "baby":
        rep = da.feasibility_baby(args.k)
    elif args.problem == "ellipsoid":
        rep = da.feasibility_ellipsoid(args.m, args.d, args.N)
    elif args.problem == "remb":
        rep = da.feasibility_Remb(args.N)
    elif args.problem == "monotone-k":
        K, cert = da.monotone_K(args.m, args.n, args.a, args.b)
        print(f"K = {K} (certificate verified: {cert.verify()})")
        return 0
    elif args.problem == "morphism":
        src = _load_divisor(args.source)
        tgt = _load_divisor(args.target)
        rep = da.check_morphism(src, tgt)
    else:
        raise SystemExit(f"unknown feasibility problem {args.problem}")
    print(rep.table())
    return 0 if rep.feasible else 1


def _load_divisor(path: str) -> da.WeightedDivisor:
    doc = json_object(path, "divisor")
    with malformed_input(f"divisor file {path!r}"):
        comps = [da.Component(c["genus"], c["boundary"], c["area"], c["weight"])
                 for c in doc["components"]]
        return da.WeightedDivisor(comps, np.array(doc.get("intersections")) if
                                  doc.get("intersections") is not None else None)


def cmd_reeb(args) -> int:
    S = parse_surface(args.surface)
    if args.action == "chords":
        source = _load_knot(S, args.source)
        targets = [source]
        if args.target.startswith("barrier:"):
            k, = parse_numbers(args.target.split(":")[1], int, 1)
            with malformed_input():
                targets += reeb3.legendrian_graph(S, k)
        elif args.target != "self":
            targets += [_load_knot(S, args.target)]
        lines = ["direction,start_param,T,distance,transversal"]
        for direction in (1, -1):
            for c in reeb3.chord_search(S, source, targets, args.tmax,
                                        direction=direction):
                lines.append(f"{direction},{c.start_param:.9f},{c.T:.9f},"
                             f"{c.distance:.3e},{int(c.transversal)}")
        write_text(args.csv, "\n".join(lines) + "\n")
        return 0
    if args.action == "sweep":
        if args.k < 2:
            raise SpecError("reeb sweep needs --k >= 2")
        sw = reeb3.hopf_sweep(args.k)
        print(f"components of the complement: {sw.component_count}")
        print("Hopf disc areas:", " ".join(f"{a:.6f}" for a in sw.disc_areas))
        return 0 if sw.component_count == args.k else 1
    if args.action == "torus":
        if args.T <= 0 or args.eps <= 0:
            raise SpecError("reeb torus needs --T > 0 and --eps > 0")
        knot = _load_knot(S, args.knot)
        tor = reeb3.mohnke_torus(S, knot, args.T, args.eps)
        print(f"generator actions: ({tor.action_knot:.3e}, {tor.action_disc:.9f})")
        print(f"omega defect: {tor.omega_defect:.3e}; disc area {tor.disc_area:.9f}")
        return 0
    raise SystemExit(f"unknown reeb action {args.action}")


def _load_knot(S, spec: str) -> reeb3.LegendrianCurve:
    if spec == "great-circle":
        return reeb3.legendrian_great_circle(S)
    if spec.startswith("torus:"):
        p, q = parse_numbers(spec.split(":")[1], int, 2)
        return reeb3.legendrian_torus_knot(S, p, q)
    if spec == "lift":
        return reeb3.legendrian_lift(S)
    if spec.endswith(".json"):
        doc = json_object(spec, "knot")
        return reeb3.LegendrianCurve(doc.get("name", "file"),
                                     np.array(doc["points"]),
                                     closed=bool(doc.get("closed", True)),
                                     surface=S)
    raise SpecError(f"unknown knot spec {spec!r}")


def cmd_check_all(args) -> int:
    g = parse_grid_spec(args.grid, args.area)
    form = liouville2d.build_form(g)
    results = checks.run_battery(form, n_closed=args.samples,
                                 n_basin=args.samples, seed=args.seed)
    code = report_results(results)
    rep = da.feasibility_baby(3)
    print(f"[{'PASS' if rep.feasible else 'FAIL'}] feasibility arithmetic "
          f"(baby k=3 -> A={rep.numbers['A']})")
    return code


def cmd_plot(args) -> int:
    if args.scene.startswith("grid:"):
        g = parse_grid_spec(args.scene.split(":", 1)[1], args.area)
        sc = svgplot.draw_grid(g)
    elif args.scene.startswith("foliation:"):
        g = parse_grid_spec(args.scene.split(":", 1)[1], args.area)
        sc = svgplot.draw_foliation(liouville2d.build_form(g))
    elif args.scene.startswith("trajectories:"):
        g = parse_grid_spec(args.scene.split(":", 1)[1], args.area)
        form = liouville2d.build_form(g)
        rng = np.random.default_rng(args.seed)
        pts = checks.sample_off_singular(form, 24, rng, chart_margin=0.0,
                                         gamma_margin=0.0)
        sc = svgplot.draw_trajectories(form, [form.flow(x, 20.0) for x in pts])
    elif args.scene.startswith("bands:"):
        m, n = parse_numbers(args.scene.split(":")[1], int, 2)
        K, cert = da.monotone_K(m, n, args.a, args.b)
        sc = svgplot.draw_band_diagram(m, n, K, cert.assignment, args.a, args.b)
    elif args.scene.startswith("hopf:"):
        k, = parse_numbers(args.scene.split(":")[1], int, 1)
        S = reeb3.StarshapedHypersurface("sphere")
        paths = [reeb3._lune_boundary(S, k, j) for j in range(k)]
        areas = [abs(reeb3.spherical_polygon_area(p)) for p in paths]
        sc = svgplot.draw_hopf(k, paths, areas)
    else:
        raise SpecError(f"unknown scene {args.scene!r}")
    write_text(args.out, sc.render())
    return 0


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liouville-lab",
        description="Grids, Liouville forms with prescribed skeleta, "
                    "embedding feasibility arithmetic, Reeb chords.")
    ap.add_argument("--seed", type=int, default=env_seed(),
                    help="random seed (default LIOUVILLE_LAB_SEED or 7)")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("grid", help="construct/inspect grids")
    g.add_argument("action", choices=["make", "info", "validate"])
    g.add_argument("spec", help="radial:k | periodic:N | pinwheel:k:t,.. | sector:f,.. | file.json")
    g.add_argument("--area", type=float, default=1.0)
    g.add_argument("--out", default="-")
    g.set_defaults(func=cmd_grid)

    l = sub.add_parser("liouville", help="build forms, run flows, check invariants")
    l.add_argument("action", choices=["build", "flow", "check"])
    l.add_argument("--grid", help="grid spec or file")
    l.add_argument("--form", help="form file from `liouville build`")
    l.add_argument("--area", type=float, default=1.0)
    l.add_argument("--out", default="-")
    l.add_argument("--csv", default="-")
    l.add_argument("--seeds", type=int, default=64)
    l.add_argument("--tmax", type=float, default=20.0)
    l.add_argument("--samples", type=int, default=400)
    l.set_defaults(func=cmd_liouville)

    p4 = sub.add_parser("polar4",
                        help="product polarizations of bidiscs; sdb evaluator")
    p4.add_argument("action", choices=["classify", "check", "sdb"])
    p4.add_argument("--formA", help="grid spec for the first factor")
    p4.add_argument("--formB", help="grid spec for the second factor")
    p4.add_argument("--area", type=float, default=1.0)
    p4.add_argument("--seeds", type=int, default=200)
    p4.add_argument("--samples", type=int, default=300)
    p4.add_argument("--tmax", type=float, default=20.0)
    p4.add_argument("--csv", default="-")
    p4.add_argument("--c1", type=int, default=1, help="(sdb) Chern class")
    p4.add_argument("--probe", default="0,0,0.1,0.0", help="(sdb) b1,b2,R,theta")
    p4.set_defaults(func=cmd_polar4)

    f = sub.add_parser("feasible", help="embedding feasibility arithmetic")
    fsub = f.add_subparsers(dest="problem", required=True)
    fb = fsub.add_parser("baby")
    fb.add_argument("--k", type=int, required=True)
    fe = fsub.add_parser("ellipsoid")
    fe.add_argument("--m", type=int, required=True)
    fe.add_argument("--d", type=int, required=True)
    fe.add_argument("--N", type=int, required=True)
    fr = fsub.add_parser("remb")
    fr.add_argument("--N", type=int, required=True)
    fm = fsub.add_parser("morphism")
    fm.add_argument("--source", required=True)
    fm.add_argument("--target", required=True)
    fk = fsub.add_parser("monotone-k")
    fk.add_argument("--m", type=int, required=True)
    fk.add_argument("--n", type=int, required=True)
    fk.add_argument("--a", type=float, required=True)
    fk.add_argument("--b", type=float, required=True)
    f.set_defaults(func=cmd_feasible)

    r = sub.add_parser("reeb", help="Reeb dynamics on starshaped hypersurfaces")
    r.add_argument("action", choices=["chords", "sweep", "torus"])
    r.add_argument("--surface", default="sphere",
                   help="sphere | ellipsoid:a,b | bumped:c | file.json")
    r.add_argument("--source", default="great-circle")
    r.add_argument("--target", default="barrier:3", help="barrier:k | self | knot file")
    r.add_argument("--knot", default="great-circle")
    r.add_argument("--tmax", type=float, default=1.0)
    r.add_argument("--T", type=float, default=0.3)
    r.add_argument("--eps", type=float, default=0.12)
    r.add_argument("--k", type=int, default=3)
    r.add_argument("--csv", default="-")
    r.set_defaults(func=cmd_reeb)

    ca = sub.add_parser("check-all", help="full invariant battery on one grid")
    ca.add_argument("--grid", required=True)
    ca.add_argument("--area", type=float, default=1.0)
    ca.add_argument("--samples", type=int, default=400)
    ca.set_defaults(func=cmd_check_all)

    pl = sub.add_parser("plot", help="emit deterministic SVG scenes")
    pl.add_argument("--scene", required=True,
                    help="grid:SPEC | foliation:SPEC | trajectories:SPEC | "
                         "bands:m,n | hopf:k")
    pl.add_argument("--area", type=float, default=1.0)
    pl.add_argument("--a", type=float, default=1.0)
    pl.add_argument("--b", type=float, default=1.0)
    pl.add_argument("--out", default="-")
    pl.set_defaults(func=cmd_plot)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpecError, grid2d.GridError, liouville2d.FoliationError,
            liouville2d.DomainError, da.DivisorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
