"""How the benchmark harness in perfbench/ uses the library.

The harness calls and hooks runner, solver, distributed and command-line
functions by name.  These tests import perfbench/harness.py as it stands
and run its warm-up, its capture hooks, its probing round driver and its
node-memory count on tiny instances, so a library change that breaks the
benchmark fails here and not only in the benchmark's own runs.
"""

import pathlib
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def perfbench():
    """The harness module and the workload table, imported from perfbench/
    as the benchmark's run.py imports them."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        import harness
        import workloads
    finally:
        sys.path.remove(str(PERFBENCH))
    return harness, workloads.WORKLOADS


def only_oist_descent_warnings(harness, caught):
    """oist's default step breaks its descent premise and warns; nothing
    else the harness runs may warn."""
    kinds = [harness.warning_kind(w) for w in caught]
    assert set(kinds) <= {"warnings.oist_descent"}, \
        [str(w.message) for w in caught]


@pytest.mark.parametrize("name", ["arx-track", "arx-regret", "rss-track"])
def test_warmup_plays_every_solver_through_the_hooked_calls(perfbench,
                                                            tmp_path, name):
    harness, workloads = perfbench
    workload = workloads[name]
    with warnings.catch_warnings(record=True) as caught:
        with harness.capture() as cap:
            harness.warmup(workload, tmp_path)
    only_oist_descent_warnings(harness, caught)
    assert sorted(alg for alg, _ in cap.plays) == ["odista", "odr", "oist"]
    for _, actions in cap.plays:
        assert np.isfinite(actions).all()
    assert len(cap.oracles) == (workload.regret == "on")
    assert (tmp_path / "warmup" / "summary.csv").exists()


def test_probing_driver_and_node_memory_on_a_tiny_arx_setup(perfbench):
    harness, workloads = perfbench
    workload = replace(workloads["arx-track"],
                       driver_config={"horizon_s": 0.06})
    with warnings.catch_warnings(record=True) as caught:
        slices, window = harness.setup(workload, 1, 0)
        run = harness.Run()
        driver = harness.Driver(run, 2, probe=True)
        odr_path = driver.play(slices)
        harness.check_driver(run, slices, odr_path, 2)
    only_oist_descent_warnings(harness, caught)
    rounds = len(slices.problems)
    assert run.failed == 0 and run.attempted > rounds
    for alg in harness.ALGS:
        assert len(driver.latency[alg]) == rounds
        assert len(driver.inner[alg]) == harness.PROBE_REPS * rounds
        assert driver.r_budget(alg, window) > 0
    # every slice has its own A, so every node holds its own 20 x 20 Q_v
    assert harness.node_q_bytes(slices) == rounds * 4 * 20 * 20 * 8
