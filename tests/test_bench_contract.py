"""The benchmark's tracer must find, and put back, every entry point it wraps.

`perfbench/run.py --trace 1` patches attributes of the program by name; a
renamed or deleted entry point breaks the traced run. This test installs and
uninstalls the tracer on the program as the benchmark loads it.
"""

import sys
from pathlib import Path

import scipy.optimize

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _namespaces(lib) -> list:
    mods = [getattr(lib, name) for name in vars(lib)]
    classes = [lib.liouville2d.LiouvilleForm2D, lib.polar4d.ProductPolarization,
               lib.grid2d.Grid, lib.reeb3.StarshapedHypersurface]
    return mods + classes + [scipy.optimize]


def test_tracer_restores_every_patched_attribute():
    saved_path = list(sys.path)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import workloads
        from tracer import Tracer

        lib = workloads.load_program()
    finally:
        sys.path[:] = saved_path
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
