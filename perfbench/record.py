#!/usr/bin/env python3
"""Record the summary.csv figures each workload's command is checked against.

    python3 perfbench/record.py

Runs every workload's fixed `stvo run` command line once and rewrites
perfbench/reference.json, keeping its tolerance and held-out seed.  Rerun
it only in a change that is meant to alter those figures.
"""

import json
import os
import shutil
import sys

from run import BLAS_THREADS, HERE, OUT, bootstrap


def main():
    error = bootstrap()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    import harness
    from workloads import WORKLOADS

    path = HERE / "reference.json"
    recorded = json.loads(path.read_text())
    workdir = OUT / f"record-{os.getpid()}"
    summary = {}
    try:
        for name, workload in WORKLOADS.items():
            (workdir / name).mkdir(parents=True)
            run = harness.Run()
            command = harness.Command(run, workload, workdir / name)
            command()
            if run.failed:
                return 1
            summary[name] = harness.read_summary(command.out / "summary.csv")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    recorded["host"] = harness.host_record(BLAS_THREADS)
    recorded["summary"] = summary
    path.write_text(json.dumps(recorded, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
