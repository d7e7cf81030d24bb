#!/usr/bin/env python3
"""Layer timings of the online rounds, each beside a stvo-free ruler.

    PYTHONPATH=src python bench/layers.py --out BENCH_layers.json

Builds run 0 of ``stvo run --seed 1`` on exp1 and exp2 (n = 20, dense
slices) and on rss (n = 625, factored slices), each on its default config,
and times on slice 5 of each:

* ``step(1)`` of a started odr and oist round, and ``step(2)``, one pair,
  of a started odista round; each layer first runs one untimed sample,
  which takes odista past its batched first pairs (on exp1 and exp2 it
  then runs lifted pairs);
* one whole round, ``start``, ``step(r)`` and ``state()``, of each, at
  r = 400 on exp1, r = 5 on exp2, where ``start`` is most of a round, and
  r = 30 on rss (half-steps for odista); a sample runs at least one
  round, and about as many iterations as a sample of steps: 40 rounds at
  r = 5, one elsewhere.

oist steps at tau = 1/lambda_max, its descent step, and odista on the
network and node steps of ``stvo run``.  Each sample times a ruler and then
the layer: the ruler is a fixed numpy kernel of the layer's shape that
calls no stvo code, 200 x (a 20 x 20 gemv and a clip) for exp1 and exp2
and 5 x (x -> A'(A x) with a 144 x 625 A, and a clip) for rss.  A host that
changes speed between samples moves both, so the layer's time in ruler
units (the median of the per-sample ratios) moves less than its time in us.
A ruler unit is a ratio, not a time: the round window is wall time, so the
r a window affords is read from the us figures.

The JSON holds the host and, per layer, the median and quartiles in us and
in ruler units.  A layer without samples fails the run.  Run as a script,
it pins BLAS to one thread before numpy loads.
"""

import argparse
import json
import os
import platform
import sys
import time

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np

import stvo
from stvo import runner

SEED = 1
SLICE = 5
NODES = 4
SCENARIOS = {"exp1": 400, "exp2": 5, "rss": 30}
clock = time.perf_counter


def arx_ruler():
    """The dense rounds' kernel, RULERS["exp1"] and RULERS["exp2"]."""
    rng = np.random.default_rng(0)
    M = 0.05 * rng.standard_normal((20, 20))
    x, y = rng.standard_normal(20), np.empty(20)
    lo, hi = np.full(20, -0.1), np.full(20, 0.1)

    def ruler():
        for _ in range(200):
            M.dot(x, y)
            np.clip(y, lo, hi, out=x)
    return ruler


def rss_ruler():
    """The factored round's kernel, RULERS["rss"]."""
    rng = np.random.default_rng(0)
    A = rng.standard_normal((144, 625)) / 150.0
    x = rng.standard_normal(625)
    lo, hi = np.full(625, -0.1), np.full(625, 0.1)

    def ruler():
        for _ in range(5):
            y = A.T @ (A @ x)
            np.minimum(np.maximum(y, lo, out=x), hi, out=x)
    return ruler


ARX_RULER = ("200 x (a 20 x 20 gemv and a clip)", arx_ruler)
RULERS = {"exp1": ARX_RULER, "exp2": ARX_RULER,
          "rss": ("5 x (x -> A'(A x), A 144 x 625, and a clip)", rss_ruler)}


def layers(scenario, r):
    """{name: (call, calls per sample)} on slice SLICE of the scenario."""
    stream = runner.build_stream(scenario, runner.CONFIGS[scenario](),
                                 runner.derive_seed(SEED, 0))
    graph, n_nodes = runner.make_graph(stream, NODES)
    p, block = stream.problems[SLICE], stream.blocks[SLICE]
    tau = 1.0 / p.lambda_max
    data = stvo.RowStack(block, n_nodes).nodes(block.y)
    taus = stvo.odista_taus([block], n_nodes, "per_node")[0]
    lam = block.lam / n_nodes
    x0, X0 = np.zeros(p.n), np.zeros((n_nodes, p.n))
    odr = stvo.OdrRound().start(p, x0)
    oist = stvo.OistRound().start(p, tau, x0)
    odista = stvo.OdistaRound(graph, lam).start(data, taus, X0)
    steps = 200 if p.n <= 20 else 5
    # at least one round, and about as many iterations as a sample of steps
    rounds = max(1, steps // r)
    return {
        f"{scenario}.odr.step1": (lambda: odr.step(1), steps),
        f"{scenario}.oist.step1": (lambda: oist.step(1), steps),
        f"{scenario}.odista.step2": (lambda: odista.step(2), steps),
        f"{scenario}.odr.round_r{r}": (
            lambda: stvo.OdrRound().start(p, x0).step(r).state(), rounds),
        f"{scenario}.oist.round_r{r}": (
            lambda: stvo.OistRound().start(p, tau, x0).step(r).state(),
            rounds),
        f"{scenario}.odista.round_r{r}": (
            lambda: stvo.OdistaRound(graph, lam).start(data, taus, X0)
            .step(r).state(), rounds),
    }


def quartiles(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3)}


def measure(name, call, calls, ruler, samples):
    """Per sample: the ruler once, then the layer's calls.  Returns the
    layer's figures; a layer without samples raises ValueError."""
    for _ in range(calls):
        call()
    us, units = [], []
    for _ in range(samples):
        t0 = clock()
        ruler()
        t1 = clock()
        for _ in range(calls):
            call()
        t2 = clock()
        us.append((t2 - t1) / calls * 1e6)
        units.append((t2 - t1) / calls / (t1 - t0))
    if not us:
        raise ValueError(f"layer {name} has no samples")
    return {"us": quartiles(us), "ruler_units": quartiles(units),
            "samples": len(us), "calls_per_sample": calls}


def host():
    """Cores, numpy and its BLAS with the thread count asked for, and scipy
    where it imports."""
    out = {"cores": os.cpu_count(), "python": platform.python_version(),
           "numpy": np.__version__,
           "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        out["blas"] = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        out["blas"] = None
    try:
        import scipy
        out["scipy"] = scipy.__version__
    except ImportError:
        pass
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--samples", type=int, default=101)
    parser.add_argument("--out", default="BENCH_layers.json")
    args = parser.parse_args(argv)
    record = {"host": host(), "seed": SEED, "slice": SLICE,
              "rulers": {k: text for k, (text, _) in RULERS.items()},
              "layers": {}}
    for scenario, r in SCENARIOS.items():
        ruler = RULERS[scenario][1]()
        for name, (call, calls) in layers(scenario, r).items():
            record["layers"][name] = measure(name, call, calls, ruler,
                                             args.samples)
    with open(args.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
