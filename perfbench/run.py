#!/usr/bin/env python3
"""Benchmark of the stvo online solvers, run from the root of a checkout:

    python3 perfbench/run.py --workload arx-track --seed 1 --seconds 20 --trace 0

One closed-loop client: this single process, with BLAS pinned to one
thread, each workload in its own process.  After a warm-up on a tiny
instance (lazy imports, first calls), a run makes passes until --seconds
have gone, at least three.  Each pass

1. builds a fresh round-driver stream from --seed, twice (setup_s is the
   median over all setups);
2. reveals its slices one at a time; on each slice every solver commits
   its round at the workload's r, timed at the public round call
   (round_ms_p90), and one inner iteration of each solver is timed on the
   same slice (r_budget = round window / p90 inner-iteration time);
3. runs the workload's fixed `stvo run` command line in-process through
   stvo.cli.main (wall_s is the slowest of the passes) and checks it.

The first pass also certifies the round driver's first odr actions against
the regret bound.  Timings are reported at the slow end (p90, slowest
command) because a shared host can switch between speeds far apart (1.7x
on a 2-vCPU Xeon VM) for seconds to minutes, which makes per-run medians of
CPU-bound timings jump between runs.  perfbench/reference.json holds the summary figures the
command is checked against, their tolerance, the host they were recorded
on, and the held-out seed kept for confirming later claims.

The last stdout line is one JSON object with correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics, measured untraced.
--trace 1 reports the median round latencies of an untraced driver pass and
per-layer metrics from spans around every public function of the seven
stvo modules, and saves the spans under perfbench/out/.
A run exits 0 when every check passes, 1 when a check fails, and 2 when
the checkout holds no stvo sources.
"""

import argparse
import json
import os
import pathlib
import shutil
import sys
import warnings

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
BLAS_THREADS = 1


def bootstrap():
    """Pin BLAS threads and import stvo from the checkout's src, never from
    an installed copy.  Returns an error message, or None."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    src = ROOT / "src"
    if not (src / "stvo" / "__init__.py").is_file():
        return f"no stvo sources under {src}"
    sys.path.insert(0, str(src))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    import stvo
    if not pathlib.Path(stvo.__file__).resolve().is_relative_to(src):
        return f"stvo imported from {stvo.__file__}, not from {src}"
    return None


def main(argv=None):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    error = bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import harness

    workload = WORKLOADS[args.workload]
    recorded = json.loads((HERE / "reference.json").read_text())
    reference = {"summary": recorded["summary"][args.workload],
                 "tolerance": recorded["tolerance"]}
    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        with warnings.catch_warnings(record=True) as caught:
            harness.warmup(workload, workdir)
            print(json.dumps({"host": harness.host_record(BLAS_THREADS)}),
                  file=sys.stderr)
            if args.trace:
                spans = OUT / f"spans-{args.workload}-{args.seed}.npz"
                run, m = harness.traced_run(workload, args.seed, workdir,
                                            reference, spans)
            else:
                run, m = harness.timed_run(workload, args.seed, args.seconds,
                                           workdir, reference)
        print(f"{len(caught)} warnings shown under the default filters",
              file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(harness.result_line(run, m))
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
