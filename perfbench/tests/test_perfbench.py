"""Tests of the benchmark itself: FLOP formulas, inputs, schema, smoke runs.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import flops
import inputs
import run
import tracer
from instrumentid.labeling import parse_activation_csv

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

TINY = {
    "corpus_features": inputs.Sizes(tracks=2, seconds_per_track=3, nn=None, forest_trees=1),
    "reduced_train": inputs.Sizes(tracks=4, seconds_per_track=3, nn="reduced", epochs=2,
                                  batch_size=2),
    "table1_step": inputs.Sizes(tracks=2, seconds_per_track=1, nn="table1", epochs=1,
                                batch_size=2),
}


# ---------------------------------------------------------------------------
# computed FLOPs and bytes against brute-force counts


class Counter:
    """Counts arithmetic operations and the tensor elements they touch."""

    def __init__(self):
        self.ops = 0
        self.touched = set()

    def mac(self, a, b):
        """One multiply-add reading elements ``a`` and ``b``."""
        self.ops += 2
        self.touched.update((a, b))


def brute_conv(channels, length, maps, filt, needs_input_grad):
    out_len = length - filt + 1
    fwd, bwd = Counter(), Counter()
    for m in range(maps):
        for t in range(out_len):
            for c in range(channels):
                for k in range(filt):
                    fwd.mac(("x", c, t + k), ("w", m, c, k))
            fwd.touched.add(("y", m, t))
    for m in range(maps):
        for c in range(channels):
            for k in range(filt):
                for t in range(out_len):  # grad_w[m, c, k] += g[m, t] * x[c, t + k]
                    bwd.mac(("g", m, t), ("x", c, t + k))
                bwd.touched.add(("gw", m, c, k))
    if needs_input_grad:
        for c in range(channels):
            for m in range(maps):
                for k in range(filt):
                    for t in range(out_len):  # grad_x[c, t + k] += g[m, t] * w[m, c, k]
                        bwd.mac(("g", m, t), ("w", m, c, k))
                        bwd.touched.add(("gx", c, t + k))
    return fwd, bwd


def brute_fc(inputs_, outputs, needs_input_grad):
    fwd, bwd = Counter(), Counter()
    for o in range(outputs):
        for i in range(inputs_):
            fwd.mac(("x", i), ("w", o, i))
        fwd.touched.add(("y", o))
    for o in range(outputs):
        for i in range(inputs_):  # grad_w[o, i] += g[o] * x[i]
            bwd.mac(("g", o), ("x", i))
            bwd.touched.add(("gw", o, i))
    if needs_input_grad:
        for i in range(inputs_):
            for o in range(outputs):  # grad_x[i] += w[o, i] * g[o]
                bwd.mac(("g", o), ("w", o, i))
            bwd.touched.add(("gx", i))
    return fwd, bwd


@pytest.mark.parametrize("channels,length,maps,filt", [(1, 9, 2, 4), (3, 7, 2, 3), (2, 5, 3, 5)])
@pytest.mark.parametrize("needs_input_grad", [False, True])
def test_conv_cost_matches_brute_force(channels, length, maps, filt, needs_input_grad):
    cost = flops.conv_cost("c", channels, length, maps, filt, needs_input_grad, itemsize=4)
    fwd, bwd = brute_conv(channels, length, maps, filt, needs_input_grad)
    assert (cost.fwd_flops, cost.bwd_flops) == (fwd.ops, bwd.ops)
    assert (cost.fwd_bytes, cost.bwd_bytes) == (4 * len(fwd.touched), 4 * len(bwd.touched))


@pytest.mark.parametrize("inputs_,outputs", [(1, 1), (6, 4), (5, 11)])
@pytest.mark.parametrize("needs_input_grad", [False, True])
def test_fc_cost_matches_brute_force(inputs_, outputs, needs_input_grad):
    cost = flops.fc_cost("f", inputs_, outputs, needs_input_grad, itemsize=8)
    fwd, bwd = brute_fc(inputs_, outputs, needs_input_grad)
    assert (cost.fwd_flops, cost.bwd_flops) == (fwd.ops, bwd.ops)
    assert (cost.fwd_bytes, cost.bwd_bytes) == (8 * len(fwd.touched), 8 * len(bwd.touched))


def test_network_costs_walk_table1():
    from instrumentid.nn import table1_layers
    costs = flops.network_costs(table1_layers(), 44100)
    assert sorted(costs) == ["conv0", "conv1", "conv2", "fc0", "fc1"]
    # conv0 needs no input gradient: backward is the weight gradient only
    assert costs["conv0"].bwd_flops == costs["conv0"].fwd_flops
    assert costs["conv1"].bwd_flops == 2 * costs["conv1"].fwd_flops
    assert costs["conv0"].fwd_flops == 2 * 256 * 1 * 3101 * (44100 - 3101 + 1)
    assert costs["fc0"].fwd_flops == 2 * 6144 * 400


# ---------------------------------------------------------------------------
# inputs and layer attribution


def test_inputs_are_seeded_and_well_formed(tmp_path):
    sizes = TINY["reduced_train"]
    a = inputs.write_inputs("reduced_train", 7, tmp_path / "a", sizes)
    b = inputs.write_inputs("reduced_train", 7, tmp_path / "b", sizes)
    c = inputs.write_inputs("reduced_train", 8, tmp_path / "c", sizes)
    wav = "audio/track000.wav"
    assert (tmp_path / "a" / wav).read_bytes() == (tmp_path / "b" / wav).read_bytes()
    assert (tmp_path / "a" / wav).read_bytes() != (tmp_path / "c" / wav).read_bytes()
    assert a == b and a["clips"] == sizes.clips
    lab = (tmp_path / "a" / "activations" / "track000_ACTIVATION_CONF.lab").read_text()
    table = parse_activation_csv(lab, "track000")  # passes the uniform-step check
    assert table.step == pytest.approx(2048 / 44100, abs=1e-9)
    assert inputs.NUM_CLASSES == 11


def test_layer_namer_matches_batched_shapes():
    namer = tracer.LayerNamer({"relu": [(256, 2049), (384, 87), (384, 16), (400,)]})
    assert namer.name("relu", (384, 16)) == "relu2"
    assert namer.name("relu", (8, 384, 16)) == "relu2"
    assert namer.name("relu", (8, 400)) == "relu3"
    assert namer.name("relu", (3, 3)) == "relu?"


# ---------------------------------------------------------------------------
# smoke runs through the benchmark's own code path


@pytest.fixture(scope="module")
def smoke():
    results = {}
    for workload, sizes in TINY.items():
        results[workload] = run.run_workload(workload, 3, 0.0, trace=workload != "table1_step",
                                             sizes=sizes, log=lambda line: None)
    return results


@pytest.mark.parametrize("workload", sorted(TINY))
def test_smoke_run_is_correct(smoke, workload):
    result = smoke[workload]
    assert result["failed"] == 0, result["problems"]
    assert result["end_to_end"]["failed_ratio"][0] == 0.0
    line = run.result_line(result, False, SPEC)
    assert line["correct"] and set(line["metrics"]) == {e["name"] for e in SPEC["end_to_end"]}
    e2e = result["end_to_end"]
    assert e2e["reference_cpu_s"][0] > 0
    assert e2e["cpu_vs_reference"][0] > 0


def test_traced_run_reports_layers_and_same_trajectory(smoke):
    result = smoke["reduced_train"]
    per_layer = result["per_layer"]
    for name in ("nn.layers.conv0.fwd_ms", "nn.layers.conv0.bwd_gflops_per_s",
                 "nn.layers.relu3.bwd_ms", "nn.layers.calls_per_step", "nn.model.forward_s",
                 "nn.loss.bce_loss_s", "nn.checkpoint.bytes_written",
                 "analysis.analyze_filters_s", "trace_overhead_pct"):
        assert name in per_layer, name
    assert result["failed"] == 0  # includes traced == untraced fingerprints
    assert "losses" in result["fingerprint"]
    line = run.result_line(result, True, SPEC)
    assert line["correct"] and set(line["metrics"]) == {e["name"] for e in SPEC["per_layer"]}


def test_every_metric_has_name_unit_and_sample_count(smoke):
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    for result in smoke.values():
        for section in ("end_to_end", "per_layer"):
            for name, (value, unit, samples) in result.get(section, {}).items():
                assert name_re.match(name), name
                assert isinstance(unit, str) and unit, name
                assert isinstance(samples, int) and samples >= 1, name
                assert np.isfinite(value), name
        line = run.result_line(result, False, SPEC)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        for name, metric in line["metrics"].items():
            assert set(metric) == {"value", "unit"}


def test_injected_wrong_output_raises_failed_ratio(monkeypatch):
    from instrumentid import metrics
    real = metrics.evaluate

    def off_by_one(predicted, truth):
        report = real(predicted, truth)
        report.per_label = report.per_label.copy()
        report.per_label[0, 0] += 1
        return report

    monkeypatch.setattr(metrics, "evaluate", off_by_one)
    result = run.run_workload("corpus_features", 3, 0.0, trace=False,
                              sizes=TINY["corpus_features"], log=lambda line: None)
    assert result["failed"] > 0
    assert result["end_to_end"]["failed_ratio"][0] > 0
    assert not run.result_line(result, False, SPEC)["correct"]


# ---------------------------------------------------------------------------
# BENCHMARK.json and the bare-directory refusal


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 for w in SPEC["workloads"])
    bounds = {e["name"]: e["bound"] for e in SPEC["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    for entry in SPEC["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
    for entry in SPEC["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        assert entry["unit"] == run.unit_of(entry["name"])
    names = [e["name"] for e in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "reduced_train",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
