"""Smoke test of the layer harness bench/layers.py: imported as it stands,
run in-process with two samples per layer, its JSON must hold every layer
in us and in ruler units with the host it ran on, and a layer without
samples must fail the run."""

import importlib.util
import json
import pathlib

import pytest

LAYERS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layer_harness_writes_every_layer_in_us_and_ruler_units(layers,
                                                                tmp_path):
    out = tmp_path / "BENCH_layers.json"
    assert layers.main(["--samples", "2", "--out", str(out)]) == 0
    record = json.loads(out.read_text())
    assert {"cores", "numpy", "blas", "blas_threads"} <= set(record["host"])
    assert set(record["rulers"]) == set(layers.SCENARIOS)
    names = {f"{s}.{alg}.{layer}" for s, r in layers.SCENARIOS.items()
             for alg, layer in (("odr", "step1"), ("oist", "step1"),
                                ("odista", "step2"), ("odr", f"round_r{r}"),
                                ("oist", f"round_r{r}"),
                                ("odista", f"round_r{r}"))}
    assert set(record["layers"]) == names
    for figures in record["layers"].values():
        assert figures["samples"] == 2
        for unit in ("us", "ruler_units"):
            q = figures[unit]
            assert 0 < q["q1"] <= q["median"] <= q["q3"]


def test_a_layer_without_samples_fails_the_run(layers, tmp_path):
    out = tmp_path / "BENCH_layers.json"
    with pytest.raises(ValueError, match="has no samples"):
        layers.main(["--samples", "0", "--out", str(out)])
    assert not out.exists()
