"""stvo's API: the round objects and what starts them on a revealed block.

Every name stvo exports is used by the README's "Library use" example or by
acceptance guarantee 12, and the example runs without a warning.  The
one-shot and stream plumbing names are not exported, and stay importable
from their modules, where the command line, the tests and the benchmark
driver use them.
"""

import importlib
import inspect
import pathlib
import re
import warnings

import stvo
from test_acceptance import play_revealed
from test_acceptance import (
    test_slices_played_as_they_are_revealed_give_the_run_actions_bitwise as
    guarantee_12)

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"

# What left stvo's namespace, by the module that holds it.
REMOVED = {
    "core": ("ContractionConstants", "contraction_constants", "prox_quadratic",
             "soft_threshold"),
    "distributed": ("NetworkState", "NodeData", "odista_round", "theta_tau"),
    "metrics": ("BoundConstants", "path_length", "reference_paths"),
    "runner": ("PlayResult", "build_trace", "calibrate_r", "partition_stream",
               "play_odista", "play_odr", "play_oist", "problems_from_blocks",
               "stream_oracles"),
    "solvers": ("BatchResult", "DRState", "OnlineConfig", "initial_state",
                "odr_round", "oist_round", "optimality_residual"),
}


def library_use():
    """The README's "Library use" section."""
    return README.read_text().split("\n## Library use\n", 1)[1].split(
        "\n## ", 1)[0]


def test_every_export_is_used_by_the_library_example_or_guarantee_12():
    used = (library_use() + inspect.getsource(play_revealed)
            + inspect.getsource(guarantee_12))
    assert [name for name in stvo.__all__
            if not re.search(rf"\bstvo\.{name}\b", used)] == []


def test_removed_names_left_stvo_and_stay_in_their_modules():
    removed = [(module, name) for module, names in REMOVED.items()
               for name in names]
    assert len(removed) == 27
    assert [name for _, name in removed if hasattr(stvo, name)] == []
    for module, name in removed:
        assert hasattr(importlib.import_module(f"stvo.{module}"), name)


def test_the_library_example_runs_without_a_warning():
    example = re.search(r"```python\n(.*?)```", library_use(), re.S).group(1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exec(compile(example, str(README), "exec"), {})
