#!/usr/bin/env python3
"""Chord survey: every shipped Legendrian test knot against the quarter-arc
barrier, both directions, on the round sphere and a non-round ellipsoid.

Writes chords.csv with the shortest chord per (surface, k, knot, direction).
"""

import csv
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from liouville_lab import reeb3


def main(out="chords.csv"):
    rows = []
    t0 = time.time()
    for kind, params in (("sphere", ()), ("ellipsoid", (0.9, 0.8))):
        S = reeb3.StarshapedHypersurface(kind, params)
        knots = reeb3.shipped_knots(S)
        for k in (2, 3):
            barrier = reeb3.legendrian_graph(S, k, n_samples=512)
            bound = 2.0 / k + 1e-3
            for knot in knots:
                for direction in (1, -1):
                    cs = reeb3.chord_search(S, knot, [knot] + barrier,
                                            T_max=bound, direction=direction)
                    best = cs[0] if cs else None
                    rows.append({
                        "surface": kind, "k": k, "knot": knot.name,
                        "direction": direction,
                        "T": f"{best.T:.9f}" if best else "",
                        "distance": f"{best.distance:.3e}" if best else "",
                        "bound": f"{bound:.6f}",
                        "found": int(best is not None),
                    })
                    print(rows[-1])
    with open(out, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        w.writeheader()
        w.writerows(rows)
    print(f"wrote {out} ({len(rows)} rows) in {time.time() - t0:.1f}s")


if __name__ == "__main__":
    main(*sys.argv[1:])
