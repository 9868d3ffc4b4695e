"""Self-tests of the benchmark's own parts.

    PYTHONPATH=src python3 -m pytest -q perfbench/selftest.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from pfedbred import load_idx
from pfedbred.cli import parse_config, run_experiment

import idxgen
import run
import tracer
import worker
from workloads import NUM_REFERENCE_SEEDS, WORKLOADS, panel_seeds

BENCHMARK_JSON = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def test_idx_pair_round_trips_through_load_idx(tmp_path):
    images_path, labels_path = idxgen.write_idx_pair(tmp_path, seed=3)
    dataset = load_idx(images_path, labels_path)
    images, labels = idxgen.make_images(3)
    n = idxgen.NUM_CLASSES * idxgen.PER_CLASS
    assert dataset.features.shape == (n, idxgen.SIDE * idxgen.SIDE)
    assert dataset.num_classes == idxgen.NUM_CLASSES
    assert np.array_equal(dataset.labels, labels)
    assert np.bincount(dataset.labels).tolist() == [idxgen.PER_CLASS] * idxgen.NUM_CLASSES
    assert dataset.features.min() == 0.0 and dataset.features.max() == 1.0
    assert np.array_equal(dataset.features, images.reshape(n, -1) / 255.0)


def test_idx_pair_is_seeded(tmp_path):
    first, _ = idxgen.make_images(5)
    assert np.array_equal(first, idxgen.make_images(5)[0])
    assert not np.array_equal(first, idxgen.make_images(6)[0])


def test_self_times_partition_the_root_and_counts_match():
    t = tracer.Tracer()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass

    leaf = t.wrap("leaf", lambda: busy(0.002), ("units", lambda: 3))

    def middle():
        busy(0.001)
        leaf()
        leaf()

    middle = t.wrap("middle", middle)

    def root():
        middle()
        leaf()
        busy(0.001)

    t.wrap("root", root)()
    summary = t.summary()
    assert {name: s["calls"] for name, s in summary.items()} == {
        "root": 1, "middle": 1, "leaf": 3}
    assert t.quantities[("leaf", "units")] == 9
    total_self = sum(s["self_s"] for s in summary.values())
    assert total_self == pytest.approx(summary["root"]["total_s"], abs=1e-9)
    assert all(s["self_s"] > 0 for s in summary.values())
    assert summary["leaf"]["self_s"] == pytest.approx(summary["leaf"]["total_s"])


def test_install_restores_the_package():
    from pfedbred import fl, metrics, models

    before = (models.LossOracle.gradient, fl.bregman_prox, fl.Evaluator.compute,
              metrics.per_class_stats, fl.per_class_stats)
    with tracer.install(tracer.Tracer()):
        assert models.LossOracle.gradient is not before[0]
    after = (models.LossOracle.gradient, fl.bregman_prox, fl.Evaluator.compute,
             metrics.per_class_stats, fl.per_class_stats)
    assert after == before


def _tiny_spec(out):
    return parse_config(None, {"synth": "4,4,30,1.0", "partition": "label_shard:2",
                               "T": 3, "N": 4, "S": 2, "R": 2, "K": 2, "out": str(out)})


def test_metric_file_matches_the_cli(tmp_path):
    spec = _tiny_spec(tmp_path / "cli")
    cli_file = run_experiment(spec, workers=1) / "repeat_0.jsonl"
    worker.run_once(spec, tmp_path)
    assert (tmp_path / "repeat_0.jsonl").read_bytes() == cli_file.read_bytes()


def test_traced_run_is_byte_identical_and_covers_the_layers(tmp_path):
    spec = _tiny_spec(tmp_path)
    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    worker.run_once(spec, tmp_path / "plain")
    with tracer.install(tracer.Tracer()) as t:
        worker.run_once(spec, tmp_path / "traced", t)
    plain = (tmp_path / "plain" / "repeat_0.jsonl").read_bytes()
    assert (tmp_path / "traced" / "repeat_0.jsonl").read_bytes() == plain
    summary = t.summary()
    expected_calls = {"fl.runner": 1, "cli.write": 1, "fl.aggregate": 3,
                      "fl.local_round": 6, "mirror.bregman_prox": 12,
                      "metrics.evaluator_compute": 3,
                      "data.build_dataset": worker.SETUP_REPEATS,
                      "data.partition": worker.SETUP_REPEATS}
    assert {name: summary[name]["calls"] for name in expected_calls} == expected_calls


def test_panel_seeds_are_recorded_and_distinct():
    for seed in (0, 9, 10**9 + 7):
        seeds = panel_seeds(seed)
        assert len(set(seeds)) == len(seeds)
        assert all(0 <= s < NUM_REFERENCE_SEEDS for s in seeds)
    table = json.loads(run.REFERENCE_DIGESTS.read_text(encoding="utf-8"))
    assert {name: len(digests) for name, digests in table.items()} == {
        name: NUM_REFERENCE_SEEDS for name in WORKLOADS}


def test_benchmark_json_names_what_run_py_reports():
    spec = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    per_layer = {name: unit for name, (_, _, unit) in run.PER_LAYER.items()}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        per_layer | run.TRACE_HEALTH_UNITS)
