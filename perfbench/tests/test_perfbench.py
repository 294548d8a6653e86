"""Tests of the benchmark itself: every workload at a tiny size, in this process."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import bench_trace  # noqa: E402
import bench_workloads as bw  # noqa: E402
import run  # noqa: E402
from bevmap import attention, evaluate, training  # noqa: E402
from bevmap.geometry import BevExtent  # noqa: E402
from bevmap.tensorad import Tensor  # noqa: E402

TINY = bw.ModelSize(
    extent=BevExtent(-30, 30, -15, 15, 32, 16), n_points=8, channels=16, n_instances=8, n_prior=4,
    n_layers=2, n_heads=2, ffn_dim=32, head_hidden=16, num_points_attn=2,
    train_scenes=2, held_out_scenes=2, prior_k=4, guard_steps=4, guard_window=2, fd_coords=2,
)
SIZES = {"train": TINY, "eval": TINY, "attn": bw.AttnSize(queries=40, channels=32, heads=4, h=20, w=10)}
WORKLOADS = sorted(SIZES)


def bench(name, seed, trace=False, out_dir=None):
    return run.run_benchmark(name, seed, 0.05, trace, size=SIZES[name], setup_reps=1, out_dir=out_dir)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Per workload: seed 5 untraced, seed 5 traced (with its spans), seed 6 untraced."""
    out = {}
    for name in WORKLOADS:
        out_dir = str(tmp_path_factory.mktemp(name))
        traced = bench(name, 5, trace=True, out_dir=out_dir)
        with open(os.path.join(out_dir, f"{name}-seed5-trace1.json")) as f:
            spans = json.load(f)["spans"]
        out[name] = {"plain": bench(name, 5), "traced": traced, "spans": spans, "other": bench(name, 6)}
    return out


@pytest.mark.parametrize("name", WORKLOADS)
def test_runs_are_correct(runs, name):
    for key in ("plain", "traced", "other"):
        result, details = runs[name][key]
        assert result["correct"] and result["failed"] == 0, details["failed_checks"]
        assert result["attempted"] >= run.MIN_OPS


@pytest.mark.parametrize("name", WORKLOADS)
def test_seed_fixes_inputs_and_outputs(runs, name):
    plain, traced, other = (runs[name][k][1] for k in ("plain", "traced", "other"))
    # tracing must not change what the program computes
    assert plain["input_digest"] == traced["input_digest"]
    assert plain["output_digest"] == traced["output_digest"]
    assert plain["guards"] == traced["guards"]
    assert plain["input_digest"] != other["input_digest"]


def test_train_guards_present(runs):
    guards = runs["train"]["plain"][1]["guards"]
    assert set(guards) == {"loss_final", "u_t_final"}
    assert np.isfinite(guards["loss_final"]) and 0.0 <= guards["u_t_final"] <= 1.0


@pytest.mark.parametrize("name", WORKLOADS)
def test_spans_nest_and_self_times_add_up(runs, name):
    spans = runs[name]["spans"]
    for span in spans:
        assert span[1] <= span[2]
        if span[3] is not None:
            parent = spans[span[3]]
            assert parent[1] <= span[1] and span[2] <= parent[2]
            assert parent[4] == span[4]
    selfs = bench_trace.self_times(spans)
    ops = [i for i, s in enumerate(spans) if s[3] is None and s[0] in bench_trace.OP_SPANS]
    assert len(ops) >= 2
    for i in ops:
        inside = sum(t for s, t in zip(spans, selfs) if s[4] == spans[i][4])
        assert inside == pytest.approx(spans[i][2] - spans[i][1], rel=1e-9)
    metrics = {k: v["value"] for k, v in runs[name]["traced"][0]["metrics"].items()}
    assert metrics["trace.op_self_share"] < 0.05  # layers account for the op time


def test_per_layer_counts(runs):
    metrics = {name: {k: v["value"] for k, v in runs[name]["traced"][0]["metrics"].items()} for name in WORKLOADS}
    for name in WORKLOADS:
        assert list(metrics[name]) == [m[0] for m in bench_trace.PER_LAYER]
    assert metrics["attn"]["attention.vanilla.reads_per_query"] == 12
    assert metrics["attn"]["attention.dmd_scale_then_sample.reads_per_query"] == 7
    assert metrics["attn"]["attention.msda.calls"] == 2
    for name in ("eval", "attn"):
        assert metrics[name]["tensorad.backward.ms"] == 0
    assert metrics["train"]["tensorad.backward.ms"] > 0 and metrics["train"]["tensorad.tape_nodes"] > 0
    assert metrics["train"]["matching.lsa_calls"] > 0 and metrics["train"]["training.step_other.ms"] > 0
    assert metrics["eval"]["synth.render_bev.ms"] > 0 and metrics["eval"]["geometry.chamfer.calls"] > 0
    assert metrics["train"]["training.loss_final"] == runs["train"]["plain"][1]["guards"]["loss_final"]


def _corrupt_train(monkeypatch):
    scores = training.unstable_scores
    monkeypatch.setattr(training, "unstable_scores", lambda a: dataclasses.replace(scores(a), u_t=2.0))


def _corrupt_eval(monkeypatch):
    predict = evaluate.predictions_from_output
    monkeypatch.setattr(evaluate, "predictions_from_output", lambda *a: predict(*a)[:-1])


def _corrupt_attn(monkeypatch):
    msda = attention.msda

    def corrupted(tokens, pyramid, ref, params):
        result = msda(tokens, pyramid, ref, params)
        return attention.SampledValue(Tensor(result.output.values * np.nan), result.sample_count)

    monkeypatch.setattr(attention, "msda", corrupted)


@pytest.mark.parametrize("name,corrupt", [
    ("train", _corrupt_train), ("eval", _corrupt_eval), ("attn", _corrupt_attn),
])
def test_corrupted_outputs_count_as_failed(monkeypatch, name, corrupt):
    corrupt(monkeypatch)
    result, _ = bench(name, 5)
    assert not result["correct"]
    assert result["failed"] >= result["attempted"] >= 1


def test_tail_is_highest_percentile_with_ten_beyond():
    assert run.tail([i / 1000 for i in range(40)]) == (0.029, "p75")
    assert run.tail([i / 1000 for i in range(100)]) == (0.089, "p90")
    assert run.tail([0.3, 0.1, 0.2]) == (0.3, "max")


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        doc = json.load(f)
    assert [w["name"] for w in doc["workloads"]] == ["train", "eval", "attn"]
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in bench_trace.PER_LAYER
    ]


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "attn", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
