"""Run one workload of the liouville-lab benchmark and print its metrics.

    python3 perfbench/run.py --workload basin4 --seed 1 --seconds 15 --trace 0

Run from the root of a checkout: the program is imported from its `src/`.
The load is a closed loop, one operation at a time from one client on one
thread. With --trace 0 the last line of standard output is a JSON object with
the end-to-end metrics; with --trace 1 the entry points of each layer are
wrapped (see tracer.py) and it holds the per-layer metrics instead. See
README.md for the workloads and metrics.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

OUT = HERE / "out"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    t_start = perf_counter()
    lib = workloads.load_program()
    wl = workloads.WORKLOADS[args.workload](lib, args.seed)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(lib)
    setup_times, setup_spans = [], []
    for _ in range(wl.setup_reps):
        if tracer:
            tracer.reset()
        t0 = perf_counter()
        objs = wl.setup()
        setup_times.append(perf_counter() - t0)
        if tracer:
            setup_spans.append({n: tracer.total_time(n) for n in tracing.SETUP_SPANS})
    wl.prepare(objs)
    t_ops = perf_counter()

    if tracer:
        tracer.reset()
        rounds = max(1, round(args.seconds * wl.trace_rounds_per_s))
        records, times = workloads.run_ops(wl, args.seconds, max_rounds=rounds)
        tracer.uninstall()
    else:
        records, times = workloads.run_ops(wl, args.seconds)

    t_check = perf_counter()
    failed = workloads.tally(wl, records)
    print(f"phases: set-up {t_ops - t_start:.2f} s, operations "
          f"{t_check - t_ops:.2f} s, checks {perf_counter() - t_check:.2f} s",
          file=sys.stderr)
    for inp, why in failed[:5]:
        print(f"failed: {why} (input {inp!r})", file=sys.stderr)

    n = len(times)
    ops_per_s = n / sum(times)
    if tracer:
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"spans-{wl.name}-seed{args.seed}.json", "w") as fh:
            json.dump({"workload": wl.name, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent"],
                       "spans": tracer.spans}, fh)
        print(f"traced: {n} ops, {ops_per_s:.6g} ops/s", file=sys.stderr)
        metrics = tracing.layer_metrics(tracer, tracing.setup_seconds(setup_spans))
    else:
        p50 = statistics.median(times)
        # the tail is the workload's named percentile; with fewer than 40
        # operations it would be no tail, and the median stands in for it
        tail = float(np.percentile(times, wl.tail_pct)) if n >= 40 else p50
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "op_p50_ms": {"value": 1e3 * p50, "unit": "ms"},
            "op_tail_ms": {"value": 1e3 * tail, "unit": "ms"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MiB"},
        }
    print(json.dumps({"correct": not failed, "attempted": n,
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
