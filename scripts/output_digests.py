#!/usr/bin/env python3
"""Print the sha256 of the output of a fixed list of seeded CLI commands.

    python3 scripts/output_digests.py > digests.txt

Each command runs through `liouville_lab.cli.main` in this one process, with
its standard output captured, and gives one line `sha256  command`. The
seeded outputs are deterministic, so two checkouts produce byte-identical
outputs exactly when `diff` of their digest files is empty.
"""

import contextlib
import hashlib
import io
import pathlib
import shlex
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liouville_lab import cli

SEED = "--seed 7"
COMMANDS = [
    "liouville flow --grid radial:4 --seeds 256",
    "liouville flow --grid pinwheel:3:0.35,-0.25,0.1 --seeds 256",
    "liouville flow --grid periodic:2 --seeds 256",
    "polar4 classify --formA radial:4 --formB pinwheel:3:0.35,-0.25,0.1 --seeds 2000",
    "liouville build --grid radial:4",
    "plot --scene foliation:radial:4",
    "plot --scene trajectories:radial:3",
    "plot --scene hopf:3",
    "plot --scene bands:2,3",
    "check-all --grid radial:3",
    "liouville check --grid periodic:2",
    "reeb chords --surface sphere",
    "reeb chords --surface ellipsoid:0.9,0.8",
    "reeb sweep --k 3",
]


def main() -> int:
    for command in COMMANDS:
        argv = shlex.split(f"{SEED} {command}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        note = f"  (exit {code})" if code else ""
        print(f"{digest}  {' '.join(argv)}{note}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
