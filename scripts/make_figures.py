#!/usr/bin/env python3
"""Render the standard gallery of SVG scenes into figures/.

Grids with shaded faces, a foliation with separatrices, forward trajectories,
the K-cell band allocation, and the Hopf shadows of the barrier complement.
Each figure is the output of `liouville-lab --seed 7 plot --scene SCENE`.
"""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liouville_lab import cli

OUT = pathlib.Path(__file__).resolve().parents[1] / "figures"
SCENES = {
    "grid_radial4": "grid:radial:4",
    "grid_pinwheel3": "grid:pinwheel:3:0.35,-0.25,0.1",
    "grid_periodic2": "grid:periodic:2",
    "foliation_radial3": "foliation:radial:3",
    "trajectories_radial3": "trajectories:radial:3",
    "bands_K4": "bands:2,1",
    "hopf_k3": "hopf:3",
}


def main() -> int:
    OUT.mkdir(exist_ok=True)
    for name, scene in SCENES.items():
        path = OUT / f"{name}.svg"
        code = cli.main(["--seed", "7", "plot", "--scene", scene,
                         "--out", str(path)])
        if code:
            return code
        print("wrote", name)
    return 0


if __name__ == "__main__":
    sys.exit(main())
