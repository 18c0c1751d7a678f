#!/usr/bin/env python3
"""Print the sha256 of the output of a fixed list of seeded CLI commands.

    python3 scripts/output_digests.py > digests.txt
    python3 scripts/output_digests.py --against digests.txt

Each command runs through `liouville_lab.cli.main` in this one process, with
its standard output captured, and gives one line `sha256  command`. The
seeded outputs are deterministic, so two checkouts produce byte-identical
outputs exactly when `diff` of their digest files is empty. With --against
FILE the lines still go to standard output, and the commands whose line
differs from FILE's (or that one of the two lacks) go to standard error;
the exit status is 1 if there is any, else 0.
"""

import argparse
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


def _command(line: str) -> str:
    """The command of a digest line: the text after the digest, without
    the exit note."""
    return line.split("  ", 1)[-1].split("  (exit ")[0]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--against", metavar="FILE",
                    help="a saved digest list to compare with")
    args = ap.parse_args(argv)
    lines = []
    for command in COMMANDS:
        words = shlex.split(f"{SEED} {command}")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(words)
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        note = f"  (exit {code})" if code else ""
        lines.append(f"{digest}  {' '.join(words)}{note}")
        print(lines[-1], flush=True)
    if args.against is None:
        return 0
    with open(args.against) as fh:
        saved = {_command(ln): ln for ln in fh.read().splitlines() if ln}
    now = {_command(ln): ln for ln in lines}
    differ = [c for c in list(now) + [c for c in saved if c not in now]
              if now.get(c) != saved.get(c)]
    for c in differ:
        print(f"differs from {args.against}: {c}", file=sys.stderr)
    print(f"{len(differ)} of {len(now.keys() | saved.keys())} commands "
          f"differ from {args.against}", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
