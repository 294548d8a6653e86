import argparse
import csv
import dataclasses
import functools
import json
import os
import pathlib
import pickle
import shlex
import shutil
import subprocess
import sys
import warnings

import numpy as np
import pytest

from bevmap import cli
from bevmap.attention import ALL_VARIANTS
from bevmap.config import ConfigError, RunConfig, apply_overrides, config_from_dict, config_to_dict, model_keys
from bevmap.decoder import DecoderConfig
from bevmap.training import load_checkpoint


TINY = [
    "--set", "scenes.n_points=8",
    "--set", "scenes.extent.h=32",
    "--set", "scenes.extent.w=16",
    "--set", "scenes.divider_lanes=3",
    "--set", "scenes.crossing_slots=2",
    "--set", "features.channels=16",
    "--set", "decoder.n_instances=8",
    "--set", "decoder.n_prior=4",
    "--set", "decoder.n_layers=2",
    "--set", "decoder.n_heads=2",
    "--set", "decoder.ffn_dim=32",
    "--set", "decoder.head_hidden=16",
    "--set", "decoder.num_points_attn=2",
]


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline")
    data = str(root / "data")
    assert cli.main(["gen-data", "--out", data, "--count", "4", "--seed", "7", *TINY]) == 0
    bank = str(root / "bank.json")
    assert cli.main([
        "fit-priors", "--scenes", data, "--k", "4", "--n-pri", "4", "--seed", "7",
        "--out", str(root / "priors"), "--out-file", bank, *TINY,
    ]) == 0
    run_dir = str(root / "run_prior")
    assert cli.main([
        "train", "--data", data, "--priors", bank, "--out", run_dir, "--seed", "7",
        "--steps", "6", *TINY,
    ]) == 0
    return root, data, bank, run_dir


@pytest.fixture(scope="module")
def random_run(pipeline):
    """A run with random reference initialization: n_prior = 0 and no bank."""
    root, data, bank, run_dir = pipeline
    run_rand = str(root / "run_random")
    assert cli.main([
        "train", "--data", data, "--out", run_rand, "--seed", "7",
        "--steps", "6", *TINY, "--set", "decoder.n_prior=0",
    ]) == 0
    return run_rand


@pytest.fixture(scope="module")
def val_run(pipeline):
    """The pipeline's prior run again, with its own scenes as the val set."""
    root, data, bank, run_dir = pipeline
    run_val = str(root / "run_val")
    assert cli.main([
        "train", "--data", data, "--val", data, "--priors", bank, "--out", run_val, "--seed", "7",
        "--steps", "6", *TINY,
    ]) == 0
    return run_val


@pytest.fixture(scope="module")
def blown_ckpt(pipeline):
    """A finite checkpoint whose forward goes non-finite: one Adagrad step at lr 1e300."""
    root, data, bank, run_dir = pipeline
    run = root / "run_blown"
    assert cli.main(["train", "--data", data, "--priors", bank, "--out", str(run), "--seed", "7", "--steps", "1",
                     *TINY, "--set", "train.lr=1e300"]) == 0
    return str(run / "checkpoint.npz")


@pytest.fixture(scope="module")
def tall_data(tmp_path_factory):
    """One scene on a 24-row grid; the pipeline's checkpoint has 32 rows."""
    data = str(tmp_path_factory.mktemp("tall") / "data")
    assert cli.main(["gen-data", "--out", data, "--count", "1", "--seed", "7", *TINY,
                     "--set", "scenes.extent.h=24"]) == 0
    return data


@pytest.fixture(scope="module")
def wide_data(tmp_path_factory):
    """One scene twice as wide as the pipeline's, on the same 32 x 16 grid."""
    data = str(tmp_path_factory.mktemp("wide") / "data")
    assert cli.main(["gen-data", "--out", data, "--count", "1", "--seed", "7", *TINY,
                     "--set", "scenes.extent.x_min=-60.0", "--set", "scenes.extent.x_max=60.0"]) == 0
    return data


@pytest.fixture(scope="module")
def mixed_data(pipeline, tall_data, tmp_path_factory):
    """The pipeline's scenes plus, last, the tall scene of another extent."""
    mixed = tmp_path_factory.mktemp("mixed") / "data"
    shutil.copytree(pipeline[1], mixed)
    shutil.copy(os.path.join(tall_data, "scenes", "scene_00000.json"), mixed / "scenes" / "scene_00004.json")
    return mixed


def test_gen_data_artifacts(pipeline):
    root, data, bank, run_dir = pipeline
    scenes = sorted(os.listdir(os.path.join(data, "scenes")))
    assert len(scenes) == 4
    with open(os.path.join(data, "gen-data_config.json")) as f:
        snapshot = json.load(f)
    assert snapshot["scenes"]["count"] == 4
    assert snapshot["seed"] == 7
    assert sorted(os.listdir(data)) == ["gen-data_config.json", "scenes"]


def test_train_artifacts(pipeline):
    root, data, bank, run_dir = pipeline
    assert sorted(os.listdir(run_dir)) == ["checkpoint.npz", "train_config.json", "train_log.csv"]
    with open(os.path.join(run_dir, "train_config.json")) as f:
        assert json.load(f)["decoder"]["n_prior"] == 4
    with open(os.path.join(run_dir, "train_log.csv")) as f:
        lines = f.read().splitlines()
    assert len(lines) == 1 + 6
    assert lines[0].split(",") == ["step", "scene", "loss_total", "loss_cls", "loss_pts", "loss_disc", "u_layer1",
                                   "u_t", "is", "prior_share"]


def test_eval_and_reports(pipeline, tmp_path):
    root, data, bank, run_dir = pipeline
    out = str(tmp_path / "eval")
    assert cli.main([
        "eval", "--data", data, "--checkpoint", os.path.join(run_dir, "checkpoint.npz"),
        "--out", out, "--seed", "7", *TINY,
    ]) == 0
    with open(os.path.join(out, "eval_report.json")) as f:
        report = json.load(f)
    assert "mean_ap" in report and "per_class" in report
    assert report["thresholds"] == [0.5, 1.0, 1.5]
    assert os.path.exists(os.path.join(out, "eval_report.csv"))


def test_random_run_needs_no_bank(random_run):
    ckpt = load_checkpoint(os.path.join(random_run, "checkpoint.npz"))
    assert ckpt.bank is None and ckpt.decoder_cfg.n_prior == 0
    assert ckpt["ref_logits"].shape[0] == ckpt.decoder_cfg.n_instances
    with open(os.path.join(random_run, "train_config.json")) as f:
        assert json.load(f)["decoder"]["n_prior"] == 0


def test_eval_of_a_random_run_from_its_snapshot(random_run, tmp_path):
    # the snapshot and the checkpoint both record n_prior = 0
    assert cli.main([
        "eval", "--config", os.path.join(random_run, "train_config.json"),
        "--checkpoint", os.path.join(random_run, "checkpoint.npz"), "--out", str(tmp_path / "eval"),
    ]) == 0
    assert (tmp_path / "eval" / "eval_report.json").exists()


def test_random_mode_and_stability_report(pipeline, random_run, tmp_path):
    root, data, bank, run_dir = pipeline
    report_path = str(tmp_path / "stability.json")
    assert cli.main([
        "stability-report", "--runs", run_dir, random_run, "--out-file", report_path,
    ]) == 0
    with open(report_path) as f:
        doc = json.load(f)
    assert {"prior", "random"} == set(doc["mean_final_epoch_u_t_by_mode"])
    assert "u_t_margin_random_minus_prior" in doc
    assert len(doc["runs"]) == 2
    assert [run["prior_mode"] for run in doc["runs"]] == ["prior", "random"]


def _log_column(run_dir, key) -> list[float]:
    with open(os.path.join(run_dir, "train_log.csv"), newline="") as f:
        return [float(row[key]) for row in csv.DictReader(f)]


def test_stability_report_is_recomputed_from_the_log(pipeline, tmp_path):
    root, data, bank, run_dir = pipeline
    short = str(tmp_path / "short")  # fewer steps than the 4 scenes
    assert cli.main(["train", "--data", data, "--priors", bank, "--out", short, "--seed", "2", "--steps", "2",
                     *TINY]) == 0
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", run_dir, short, "--out-file", str(report)]) == 0
    doc = json.loads(report.read_text())
    for entry, steps, epoch in zip(doc["runs"], (6, 2), (4, 2)):
        u_t, loss = _log_column(entry["run_dir"], "u_t"), _log_column(entry["run_dir"], "loss_total")
        assert entry == {
            "run_dir": entry["run_dir"], "prior_mode": "prior", "steps": steps, "final_epoch_len": epoch,
            "final_epoch_u_t": float(np.mean(u_t[-epoch:])), "final_epoch_loss": float(np.mean(loss[-epoch:])),
            "u_t_series": u_t,
        }
    assert [entry["run_dir"] for entry in doc["runs"]] == [run_dir, short]
    assert doc["mean_final_epoch_u_t_by_mode"] == {"prior": np.mean([doc["runs"][0]["final_epoch_u_t"],
                                                                     doc["runs"][1]["final_epoch_u_t"]])}
    assert "u_t_margin_random_minus_prior" not in doc
    assert doc["paired"] == {"seeds": [], "resamples": cli.PAIRED_RESAMPLES, "prior_minus_random": {}}


def test_stability_report_pairs_runs_by_seed(pipeline, random_run, val_run, tmp_path):
    root, data, bank, run_dir = pipeline
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", val_run, random_run, "--out-file", str(report)]) == 0
    doc = json.loads(report.read_text())
    paired = doc["paired"]
    assert paired["seeds"] == [7] and paired["resamples"] == 10_000
    # the random run has no val report, so mAP has no pair
    assert sorted(paired["prior_minus_random"]) == ["final_epoch_u_t", "run_is", "run_loss_total", "run_u_t"]

    def whole_run(run, key):
        values = [v for v in _log_column(run, key) if not np.isnan(v)]
        return float(np.mean(values))

    final = doc["runs"][0]["final_epoch_u_t"] - doc["runs"][1]["final_epoch_u_t"]
    for name, diff in [("final_epoch_u_t", final),
                       ("run_u_t", whole_run(val_run, "u_t") - whole_run(random_run, "u_t")),
                       ("run_loss_total", whole_run(val_run, "loss_total") - whole_run(random_run, "loss_total")),
                       ("run_is", whole_run(val_run, "is") - whole_run(random_run, "is"))]:
        assert paired["prior_minus_random"][name] == {"n": 1, "mean": diff, "sd": None, "prior_lower": int(diff < 0),
                                                      "ci95": [diff, diff]}, name


def test_stability_report_refuses_a_second_run_of_a_seed_and_arm(pipeline, val_run, tmp_path, capsys):
    root, data, bank, run_dir = pipeline
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", run_dir, val_run, "--out-file", str(report)]) == 2
    assert f"error (CliError): {val_run}: a second prior run of seed 7, after {run_dir}\n" == _one_line_error(capsys)
    assert not report.exists()


def test_stability_report_refuses_a_pair_that_differs_in_more_than_the_arm(pipeline, tmp_path, capsys):
    root, data, bank, run_dir = pipeline
    other = str(tmp_path / "random_lr")
    assert cli.main(["train", "--data", data, "--out", other, "--seed", "7", "--steps", "6", *TINY,
                     "--set", "decoder.n_prior=0", "--set", "train.lr=0.2"]) == 0
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", run_dir, other, "--out-file", str(report)]) == 2
    assert _one_line_error(capsys) == (f"error (CliError): {run_dir} and {other}: seed 7's runs differ in train.lr "
                                       "(0.1 and 0.2)\n")
    assert not report.exists()


def test_train_val_report_is_evals(pipeline, val_run, tmp_path):
    data = pipeline[1]
    out = tmp_path / "eval"
    assert cli.main(["eval", "--data", data, "--checkpoint", os.path.join(val_run, "checkpoint.npz"),
                     "--out", str(out), "--seed", "7"]) == 0
    for ext in ("json", "csv"):
        assert (out / f"eval_report.{ext}").read_bytes() == pathlib.Path(val_run, f"val_report.{ext}").read_bytes()
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", val_run, "--out-file", str(report)]) == 0
    doc = json.loads(report.read_text())
    assert doc["runs"][0]["val_mean_ap"] == json.loads((out / "eval_report.json").read_text())["mean_ap"]


def test_stability_report_ignores_a_val_report_the_snapshot_does_not_name(pipeline, val_run, tmp_path):
    # a stale report, say from an earlier --val run into the same --out
    root, data, bank, run_dir = pipeline
    run = tmp_path / "run"
    shutil.copytree(run_dir, run)
    shutil.copy(os.path.join(val_run, "val_report.json"), run / "val_report.json")
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", str(run), "--out-file", str(report)]) == 0
    assert "val_mean_ap" not in json.loads(report.read_text())["runs"][0]


def test_bench_attn_csv(tmp_path):
    out = str(tmp_path / "bench")
    csv_path = str(tmp_path / "bench.csv")
    assert cli.main([
        "bench-attn", "--variant", "vanilla", "--variant", "scale-then-sample",
        "--repeats", "2", "--out", out, "--out-file", csv_path,
        "--set", "bench.queries=20", "--set", "bench.channels=16",
        "--set", "bench.h=20", "--set", "bench.w=10", "--set", "bench.n_heads=2",
    ]) == 0
    with open(csv_path) as f:
        rows = [line.strip().split(",") for line in f]
    assert rows[0] == ["variant", "M", "N", "queries", "mean_ms", "sd_ms", "sample_count"]
    assert rows[1][0] == "vanilla" and rows[1][-1] == "12"
    assert rows[2][0] == "dmd_scale_then_sample" and rows[2][-1] == "7"


@pytest.mark.parametrize("args,message", [
    (["--repeats", "0"], "bench.repeats must be >= 1"),
    (["--repeats", "1", "--set", "bench.channels=30"], "channels 30 not divisible by heads 8"),
])
def test_bench_attn_bad_config_is_cli_error(tmp_path, capsys, args, message):
    rc = cli.main([
        "bench-attn", "--variant", "vanilla", "--out", str(tmp_path / "bench"), *args,
        "--set", "bench.queries=10", "--set", "bench.h=20", "--set", "bench.w=10",
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error (CliError):") and message in err
    assert err.count("\n") == 1
    assert not (tmp_path / "bench" / "bench_attn.csv").exists()
    assert not (tmp_path / "bench" / "bench-attn_config.json").exists()


def test_rerun_from_snapshot_reproduces(pipeline, tmp_path):
    root, data, bank, run_dir = pipeline
    data2 = str(tmp_path / "data2")
    snapshot = os.path.join(data, "gen-data_config.json")
    assert cli.main(["gen-data", "--config", snapshot, "--out", data2]) == 0
    for name in sorted(os.listdir(os.path.join(data, "scenes"))):
        with open(os.path.join(data, "scenes", name), "rb") as f:
            a = f.read()
        with open(os.path.join(data2, "scenes", name), "rb") as f:
            b = f.read()
        assert a == b, name


def test_missing_inputs_fail_with_path(tmp_path, capsys):
    rc = cli.main(["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "nope" in err


def test_unknown_config_key_is_hard_error(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    doc = config_to_dict(RunConfig())
    doc["scenes"]["typo_key"] = 1
    cfg_path.write_text(json.dumps(doc))
    rc = cli.main(["gen-data", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "typo_key" in capsys.readouterr().err


def test_unknown_override_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(RunConfig(), ["scenes.not_a_key=3"])


def test_override_round_trip():
    cfg = apply_overrides(RunConfig(), ["train.steps=123", "decoder.variant=\"vanilla\""])
    assert cfg.train.steps == 123
    assert cfg.decoder.variant == "vanilla"
    doc = config_to_dict(cfg)
    assert config_from_dict(doc).train.steps == 123


def test_object_override_merges_into_its_section():
    # a --config file reaches the config as one such object per section
    cfg = apply_overrides(RunConfig(), ["scenes.extent.w=20"])
    cfg = apply_overrides(cfg, ['scenes={"extent": {"h": 40}}'])
    assert (cfg.scenes.extent.h, cfg.scenes.extent.w) == (40, 20)
    with pytest.raises(ConfigError, match="'scenes': expected an object, got int"):
        apply_overrides(RunConfig(), ["scenes=5"])


def test_model_keys_name_each_decoder_field_once():
    keys = model_keys(RunConfig().decoder_cfg)
    assert len(keys) == len(dataclasses.fields(DecoderConfig)) - 1  # all but n_classes, each its own key
    defaults = config_to_dict(RunConfig())
    for key, value in keys.items():
        assert functools.reduce(dict.__getitem__, key.split("."), defaults) == value


@pytest.mark.parametrize("overrides", [[], [
    "decoder.n_instances=12", "decoder.n_prior=3", "scenes.n_points=8", "features.channels=24",
    "decoder.n_layers=2", "decoder.n_heads=3", "decoder.ffn_dim=40", "decoder.head_hidden=20",
    'decoder.variant="vanilla"', "features.num_levels=3", "decoder.num_points_attn=2",
]])
def test_model_keys_give_back_the_decoder_config(overrides):
    cfg = apply_overrides(RunConfig(), overrides)
    assert not overrides or {o.split("=")[0] for o in overrides} == set(model_keys(cfg.decoder_cfg))
    again = apply_overrides(RunConfig(), [f"{k}={json.dumps(v)}" for k, v in model_keys(cfg.decoder_cfg).items()])
    assert again.decoder_cfg == cfg.decoder_cfg


PIPELINE_EXTENT = "BevExtent(x_min=-30.0, x_max=30.0, y_min=-15.0, y_max=15.0, h=32, w=16)"
TALL_EXTENT = "BevExtent(x_min=-30.0, x_max=30.0, y_min=-15.0, y_max=15.0, h=24, w=16)"
WIDE_EXTENT = "BevExtent(x_min=-60.0, x_max=60.0, y_min=-15.0, y_max=15.0, h=32, w=16)"
MIXED_EXTENT = ("error (CliError): {mixed_last}: extent BevExtent(x_min=-30.0, x_max=30.0, y_min=-15.0, "
                "y_max=15.0, h=24, w=16) differs from {mixed_first}'s")


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(("error (ConfigError): ", "error (CliError): ")), err
    return err


@pytest.mark.parametrize("command,args,expected", [
    ("train", ["--set", "decoder.n_prior=6"], "error (CliError): {bank}: prior bank holds 4 shapes, decoder needs 6"),
    ("train", ["--set", "decoder.n_heads=3"], "error (ConfigError): channels must be divisible by n_heads"),
    ("train", ["--set", 'train.optimizer="adagrad"'], "error (ConfigError): unknown key 'train.optimizer'"),
    ("train", ["--steps", "0"], "error (ConfigError): steps must be >= 1"),
    ("train", ["--set", "loss.delta_d=0.5"], "error (ConfigError): loss: delta_d (0.5) must exceed"),
    ("gen-data", ["--set", "scenes.divider_count=[4,2]"], "error (ConfigError): scenes: divider_count range"),
    ("train", ["--priors", "{bad_bank}"], "error (CliError): {bad_bank}: malformed prior bank"),
    ("eval", ["--checkpoint", "{pickle}"], "error (CliError): {pickle}: not a readable checkpoint"),
    ("eval", ["--checkpoint", "{no_meta}"], "error (CliError): {no_meta}: no _meta entry"),
    ("eval", ["--set", "decoder.n_layers=1"], "error (CliError): decoder.n_layers is 1 but the checkpoint"),
    ("eval", ["--checkpoint", "{old_variant}"],
     "error (CliError): {old_variant}: malformed _meta entry (ContractViolation: unknown attention variant"),
    ("eval", ["--checkpoint", "{not_json}"], "error (CliError): {not_json}: malformed _meta entry (JSONDecodeError"),
    ("eval", ["--checkpoint", "{no_format}"], "error (CliError): {no_format}: malformed _meta entry (KeyError"),
    ("eval", ["--data", "{tall}"],
     f"error (CliError): {{tall}}: scenes have extent {TALL_EXTENT}, the checkpoint {{ckpt}} was trained on "
     f"{PIPELINE_EXTENT}"),
    ("train", ["--val", "{tall}"],
     f"error (CliError): {{tall}}: scenes have extent {TALL_EXTENT}, the training scenes in {{data}} have "
     f"{PIPELINE_EXTENT}"),
    ("train", ["--set", "scenes.n_points=6"], "error (CliError): {data}: element 0 has 8 points, expected 6"),
    ("gen-data", ["--count", "-1"], "error (ConfigError): scenes: count must be an integer >= 0, got -1"),
    ("gen-data", ["--set", 'seed="abc"'], "error (ConfigError): seed must be an integer, got 'abc'"),
    ("fit-priors", ["--k", "1000"], "error (CliError): {data}: fit_clusters: k=1000 exceeds element count"),
    ("fit-priors", ["--n-pri", "9"], "error (CliError): {data}: abstract: n_pri=9 exceeds cluster count 4"),
    ("eval", ["--set", 'eval.thresholds="abc"'],
     "error (ConfigError): eval: thresholds must be a non-empty list of positive numbers, got 'abc'"),
    ("eval", ["--set", "eval.thresholds=[]"],
     "error (ConfigError): eval: thresholds must be a non-empty list of positive numbers, got []"),
    ("eval", ["--set", "eval.thresholds=[-1]"],
     "error (ConfigError): eval: thresholds must be a non-empty list of positive numbers, got [-1]"),
    ("gen-data", ["--set", "scenes.n_points=1"], "error (ConfigError): scenes: n_points must be >= 2, got 1"),
    ("train", ["--set", 'features.truncation="abc"'],
     "error (ConfigError): features: truncation must be a finite number > 0, got 'abc'"),
    ("train", ["--set", "features.truncation=-1"],
     "error (ConfigError): features: truncation must be a finite number > 0, got -1"),
    ("train", ["--set", "features.noise_sd=-1"],
     "error (ConfigError): features: noise_sd must be a finite number >= 0, got -1"),
    ("eval", ["--checkpoint", "{no_features}"], "error (CliError): {no_features}: _meta records no features"),
    ("train", ["--set", "train.lr=nan"], "error (ConfigError): lr must be a finite number > 0, got 'nan'"),
    ("train", ["--set", "train.lr=NaN"], "error (ConfigError): lr must be a finite number > 0, got nan"),
    ("train", ["--set", "train.lr=-1"], "error (ConfigError): lr must be a finite number > 0, got -1"),
    ("train", ["--set", "train.lr=0"], "error (ConfigError): lr must be a finite number > 0, got 0"),
    ("train", ["--set", 'train.lr="0.1"'], "error (ConfigError): lr must be a finite number > 0, got '0.1'"),
    ("train", ["--set", "train.feature_noise_sd=NaN"],
     "error (ConfigError): feature_noise_sd must be a finite number >= 0, got nan"),
    ("gen-data", ["--set", "scenes.noise_sd=NaN"],
     "error (ConfigError): scenes: noise_sd must be a finite number >= 0, got nan"),
    ("gen-data", ["--set", "scenes.lane_jitter=NaN"],
     "error (ConfigError): scenes: lane_jitter must be a finite number >= 0, got nan"),
    ("gen-data", ["--set", "scenes.slot_jitter=NaN"],
     "error (ConfigError): scenes: slot_jitter must be a finite number >= 0, got nan"),
    ("gen-data", ["--set", "scenes.boundary_margin=NaN"],
     "error (ConfigError): scenes: boundary_margin must be a finite number >= 0, got nan"),
    ("gen-data", ["--set", "scenes.crossing_size=[NaN,NaN]"],
     "error (ConfigError): scenes: crossing_size range [nan, nan] invalid"),
    ("gen-data", ["--set", "scenes.divider_curvature=[NaN,NaN]"],
     "error (ConfigError): scenes: divider_curvature range [nan, nan] invalid"),
    ("train", ["--set", "loss.lambda_pts=NaN"],
     "error (ConfigError): loss: loss weights must be finite numbers >= 0"),
    ("train", ["--set", "loss.focal_gamma=NaN"],
     "error (ConfigError): loss: focal_gamma must be a finite number >= 0, got nan"),
    ("train", ["--set", "decoder.init_sd=-1"],
     "error (ConfigError): decoder: init_sd must be a finite number >= 0, got -1"),
    ("eval", ["--checkpoint", "{few_priors}"],
     "error (CliError): {few_priors}: prior bank holds 3 shapes, decoder needs 4"),
    ("eval", ["--checkpoint", "{no_ffn}"],
     "error (CliError): {no_ffn}: no parameter layers.1.ffn1.w, which the decoder in _meta needs"),
    ("eval", ["--checkpoint", "{no_pos}"],
     "error (CliError): {no_pos}: no parameter adapter.pos, which the decoder in _meta needs"),
    ("eval", ["--checkpoint", "{short_q}"],
     "error (CliError): {short_q}: parameter q_ins has shape (3, 16), the decoder in _meta needs (8, 16)"),
    ("train", ["--set", "train.steps=1.5"], "error (ConfigError): train.steps must be an integer, got 1.5"),
    ("train", ["--set", "decoder.n_layers=1.5"], "error (ConfigError): decoder.n_layers must be an integer, got 1.5"),
    ("train", ["--set", "features.num_levels=1.5"],
     "error (ConfigError): features.num_levels must be an integer, got 1.5"),
    ("fit-priors", ["--set", 'priors.k="abc"'], "error (ConfigError): priors.k must be an integer, got 'abc'"),
    ("fit-priors", ["--set", "priors.k=2.5"], "error (ConfigError): priors.k must be an integer, got 2.5"),
    ("fit-priors", ["--set", "priors.max_iters=1.5"],
     "error (ConfigError): priors.max_iters must be an integer, got 1.5"),
    ("fit-priors", ["--set", "priors.n_pri=1.5"], "error (ConfigError): priors.n_pri must be an integer, got 1.5"),
    ("bench-attn", ["--set", "bench.repeats=1.5"], "error (ConfigError): bench.repeats must be an integer, got 1.5"),
    ("train", ["--set", "decoder.n_heads=0"], "error (ConfigError): n_heads must be >= 1, got 0"),
    ("bench-attn", ["--set", "bench.n_heads=0"], "error (ConfigError): bench: n_heads must be >= 1, got 0"),
    ("bench-attn", ["--set", "bench.h=0"], "error (ConfigError): bench: h must be >= 1, got 0"),
    ("train", ["--set", "decoder.ffn_dim=0"], "error (ConfigError): ffn_dim must be >= 1, got 0"),
    ("bench-attn", ["--set", "bench.channels=0"], "error (ConfigError): bench: channels must be >= 1, got 0"),
    ("train", ["--set", "features.num_levels=0"], "error (ConfigError): features: num_levels must be >= 1, got 0"),
    ("train", ["--set", "decoder.num_points_attn=0"], "error (ConfigError): num_points_attn must be >= 1, got 0"),
    ("fit-priors", ["--set", "priors.n_pri=-1"], "error (CliError): {data}: abstract: n_pri must be >= 0, got -1"),
    ("fit-priors", ["--set", "priors.max_iters=0"],
     "error (CliError): {data}: fit_clusters: max_iters must be >= 1, got 0"),
    ("fit-priors", ["--set", "priors.max_iters=-3"],
     "error (CliError): {data}: fit_clusters: max_iters must be >= 1, got -3"),
    ("fit-priors", ["--scenes", "{mixed}"], MIXED_EXTENT),
    ("train", ["--data", "{mixed}"], MIXED_EXTENT),
    ("eval", ["--data", "{mixed}"], MIXED_EXTENT),
    ("eval", ["--data", "{wide}"],
     "error (CliError): {wide}: scenes have extent BevExtent(x_min=-60.0, x_max=60.0, y_min=-15.0, y_max=15.0, "
     "h=32, w=16), the checkpoint {ckpt} was trained on BevExtent(x_min=-30.0, x_max=30.0, y_min=-15.0, "
     "y_max=15.0, h=32, w=16)"),
    ("train", ["--val", "{wide}"],
     f"error (CliError): {{wide}}: scenes have extent {WIDE_EXTENT}, the training scenes in {{data}} have "
     f"{PIPELINE_EXTENT}"),
    ("eval", ["--checkpoint", "{pos_grid}"],
     "error (CliError): {pos_grid}: parameter adapter.pos has shape (16, 24, 16), the decoder in _meta needs "
     "(16, 32, 16)"),
    ("eval", ["--checkpoint", "{blown}"],
     "error (CliError): evaluation: non-finite values after stage 'instance self-attention'"),
    ("train", ["--val", "{data}", "--steps", "1", "--set", "train.lr=1e300"],
     "error (CliError): evaluation: non-finite values after stage 'instance self-attention'"),
    ("gen-data", ["--set", "scenes.divider_lanes=0", "--set", "scenes.extent.y_min=-2",
                  "--set", "scenes.extent.y_max=2"],
     "error (ConfigError): scenes: dividers need a y span of at least 2 * (boundary_margin + 1) = 5.0 m, extent has "
     "4.0 m"),
    ("gen-data", ["--set", "scenes.crossing_size=[20,25]"],
     "error (ConfigError): scenes: crossing_size up to 25 m gives crossings 35.4 m across, which do not fit extent "
     "60.0x30.0 m"),
])
def test_bad_config_or_input_is_one_line(pipeline, tall_data, mixed_data, wide_data, blown_ckpt, tmp_path, capsys,
                                         command, args, expected):
    root, data, bank, run_dir = pipeline
    ckpt = os.path.join(run_dir, "checkpoint.npz")
    paths = {
        "bank": bank,
        "blown": blown_ckpt,
        "ckpt": ckpt,
        "data": data,
        "tall": tall_data,
        "wide": wide_data,
        "mixed": mixed_data,
        "mixed_first": mixed_data / "scenes" / "scene_00000.json",
        "mixed_last": mixed_data / "scenes" / "scene_00004.json",
        "bad_bank": str(tmp_path / "bank.json"),
        "pickle": str(tmp_path / "pickle.npz"),
        "no_meta": str(tmp_path / "no_meta.npz"),
        "old_variant": str(tmp_path / "old_variant.npz"),
        "not_json": str(tmp_path / "not_json.npz"),
        "no_format": str(tmp_path / "no_format.npz"),
        "no_features": str(tmp_path / "no_features.npz"),
        "few_priors": str(tmp_path / "few_priors.npz"),
        "no_ffn": str(tmp_path / "no_ffn.npz"),
        "no_pos": str(tmp_path / "no_pos.npz"),
        "short_q": str(tmp_path / "short_q.npz"),
        "pos_grid": str(tmp_path / "pos_grid.npz"),
    }
    (tmp_path / "bank.json").write_text(json.dumps({"priors": 3}))
    (tmp_path / "pickle.npz").write_bytes(pickle.dumps({"a": 1}))
    np.savez(paths["no_meta"], w=np.zeros(2))
    with np.load(ckpt) as f:
        arrays = dict(f)
    meta = json.loads(str(arrays["_meta"]))
    meta["decoder"]["variant"] = "dmd_parallel"  # an order this code no longer has
    np.savez(paths["old_variant"], **{**arrays, "_meta": np.array(json.dumps(meta))})
    np.savez(paths["not_json"], **{**arrays, "_meta": np.array("{not json")})
    del meta["format"]
    np.savez(paths["no_format"], **{**arrays, "_meta": np.array(json.dumps(meta))})
    meta = {**json.loads(str(arrays["_meta"])), "features": None}
    np.savez(paths["no_features"], **{**arrays, "_meta": np.array(json.dumps(meta))})
    meta = json.loads(str(arrays["_meta"]))
    meta["bank"].update(n_pri=3, priors=meta["bank"]["priors"][:3])
    np.savez(paths["few_priors"], **{**arrays, "_meta": np.array(json.dumps(meta))})
    np.savez(paths["no_ffn"], **{k: v for k, v in arrays.items() if k != "layers.1.ffn1.w"})
    np.savez(paths["no_pos"], **{k: v for k, v in arrays.items() if k != "adapter.pos"})
    np.savez(paths["short_q"], **{**arrays, "q_ins": np.zeros((3, 16))})
    np.savez(paths["pos_grid"], **{**arrays, "adapter.pos": np.zeros((16, 24, 16))})
    inputs = {
        "gen-data": [],
        "fit-priors": ["--scenes", data, "--k", "4", "--n-pri", "4"],
        "train": ["--data", data, "--priors", bank, "--steps", "2"],
        "eval": ["--data", data, "--checkpoint", ckpt],
        "bench-attn": ["--variant", "vanilla"],
    }[command]
    out = tmp_path / "out"
    rc = cli.main([command, *inputs, "--out", str(out), *TINY, *[a.format(**paths) for a in args]])
    assert rc == 2
    assert expected.format(**paths) in _one_line_error(capsys)
    assert not (out / f"{command}_config.json").exists()


def _src_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}


def test_diverging_train_is_one_line_cli_error(pipeline, tmp_path):
    # in a subprocess, so that numpy's warnings reach stderr as they do for a user
    root, data, bank, run_dir = pipeline
    args = ["train", "--data", data, "--priors", bank, "--steps", "3", "--out", str(tmp_path),
            "--set", "train.lr=1e300", *TINY]
    result = subprocess.run([sys.executable, "-m", "bevmap.cli", *args], env=_src_env(),
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == ("error (CliError): training diverged: non-finite values after stage "
                             "'instance self-attention' at step 1\n")
    assert not (tmp_path / "checkpoint.npz").exists()


@pytest.mark.parametrize("command", ["eval", "train"])
def test_non_finite_evaluation_is_one_line_cli_error(pipeline, blown_ckpt, tmp_path, command):
    # in a subprocess, so that numpy's warnings reach stderr as they do for a user
    root, data, bank, run_dir = pipeline
    args = {
        "eval": ["eval", "--data", data, "--checkpoint", blown_ckpt],
        "train": ["train", "--data", data, "--val", data, "--priors", bank, "--steps", "1", "--seed", "7",
                  "--set", "train.lr=1e300", *TINY],
    }[command]
    result = subprocess.run([sys.executable, "-m", "bevmap.cli", *args, "--out", str(tmp_path)], env=_src_env(),
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == "error (CliError): evaluation: non-finite values after stage 'instance self-attention'\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command,damage,expected", [
    ("fit-priors", "truncate", "error (CliError): {scene}: malformed scene file (JSONDecodeError: "),
    ("train", "truncate", "error (CliError): {scene}: malformed scene file (JSONDecodeError: "),
    ("fit-priors", "nan", "error (CliError): {data}: element 0 has non-finite points; scenes.n_points is 8"),
])
def test_bad_scene_file_is_one_line(pipeline, tmp_path, capsys, command, damage, expected):
    _, data, bank, _ = pipeline
    bad = tmp_path / "data"
    shutil.copytree(data, bad)
    scene = bad / "scenes" / "scene_00001.json"
    text = scene.read_text()
    if damage == "truncate":
        scene.write_text(text[: len(text) // 2])
    else:
        doc = json.loads(text)
        doc["elements"][0]["points"][3][1] = float("nan")
        scene.write_text(json.dumps(doc))
    inputs = {
        "fit-priors": ["--scenes", str(bad), "--k", "4", "--n-pri", "4"],
        "train": ["--data", str(bad), "--priors", bank, "--steps", "2"],
    }[command]
    out = tmp_path / "out"
    assert cli.main([command, *inputs, "--out", str(out), *TINY]) == 2
    assert expected.format(scene=scene, data=bad) in _one_line_error(capsys)
    assert not (out / f"{command}_config.json").exists()


@pytest.fixture(scope="module")
def spelled_data(tmp_path_factory):
    """The same two wide scenes with their extent written as ints and as
    floats, each with a prior bank fitted on it."""
    root = tmp_path_factory.mktemp("spelled")
    made = {}
    for name, (lo, hi) in {"int": ("-60", "60"), "float": ("-60.0", "60.0")}.items():
        data, bank = str(root / name), str(root / f"{name}_bank.json")
        assert cli.main(["gen-data", "--out", data, "--count", "2", "--seed", "7", *TINY,
                         "--set", f"scenes.extent.x_min={lo}", "--set", f"scenes.extent.x_max={hi}"]) == 0
        assert cli.main(["fit-priors", "--scenes", data, "--k", "4", "--n-pri", "4", "--seed", "7",
                         "--out", str(root / f"{name}_priors"), "--out-file", bank, *TINY]) == 0
        made[name] = data, bank
    return made


def _bank_fingerprint(path: str) -> str:
    with open(path) as f:
        return json.load(f)["meta"]["dataset_fingerprint"]


def test_fingerprint_is_of_the_scenes_not_their_spelling(spelled_data):
    (int_data, int_bank), (float_data, float_bank) = spelled_data["int"], spelled_data["float"]
    scene = os.path.join("scenes", "scene_00000.json")
    with open(os.path.join(int_data, scene), "rb") as a, open(os.path.join(float_data, scene), "rb") as b:
        assert a.read() != b.read()
    assert _bank_fingerprint(int_bank) == _bank_fingerprint(float_bank)


def test_fingerprint_keeps_a_reindented_file_and_sees_one_ulp(spelled_data, tmp_path):
    data, bank = spelled_data["float"]
    copy = tmp_path / "data"
    shutil.copytree(data, copy)
    before = cli._load_scene_dir(str(copy), 8)[1]
    assert before == _bank_fingerprint(bank)
    scene = copy / "scenes" / "scene_00001.json"
    doc = json.loads(scene.read_text())
    with open(scene, "w") as f:
        json.dump(doc, f, indent=2)
    assert cli._load_scene_dir(str(copy), 8)[1] == before
    point = doc["elements"][0]["points"][3]
    point[0] = float(np.nextafter(point[0], np.inf))
    scene.write_text(json.dumps(doc))
    assert cli._load_scene_dir(str(copy), 8)[1] != before


def test_train_on_respelled_scenes_takes_their_bank_without_a_warning(spelled_data, tmp_path):
    (_, int_bank), (float_data, _) = spelled_data["int"], spelled_data["float"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(["train", "--data", float_data, "--priors", int_bank, "--steps", "1", "--seed", "7",
                         "--out", str(tmp_path / "run"), *TINY]) == 0
    assert [str(w.message) for w in caught if "prior bank was fitted" in str(w.message)] == []


@pytest.mark.parametrize("record,damage,expected", [
    ("train_config.json", None, "error (CliError): run config snapshot not found at expected path: {path}"),
    ("train_config.json", "not json", "error (ConfigError): {path}: line 1: Expecting value"),
    ("train_config.json", '{"train": {"stepz": 6}}',
     "error (CliError): {path}: malformed run snapshot (unknown key 'train.stepz')"),
    ("train_log.csv", None, "error (CliError): training log not found at expected path: {path}"),
    ("train_log.csv", "no scene", "error (CliError): {path}: malformed training log (KeyError: 'scene')"),
    ("train_log.csv", "step,scene,u_t,is\n0,0,0.5,nan\n",
     "error (CliError): {path}: malformed training log (KeyError: 'loss_total')"),
    ("train_log.csv", "step,scene,u_t,loss_total,is\n0,0,abc,1.0,nan\n",
     "error (CliError): {path}: malformed training log (ValueError: could not convert string to float: 'abc')"),
    ("train_log.csv", "step,scene,u_t,loss_total,is\n0,0,0.5,1.0,nan\n",
     "error (CliError): {run}: train_log.csv has 1 steps, train_config.json 6"),
    ("train_log.csv", "", "error (CliError): {run}: train_log.csv has 0 steps, train_config.json 6"),
    ("val_report.json", None, "error (CliError): val report not found at expected path: {path}"),
    ("val_report.json", "{}", "error (CliError): {path}: malformed val report (KeyError: 'mean_ap')"),
])
def test_stability_report_on_a_malformed_record_is_one_line(val_run, tmp_path, capsys, record, damage, expected):
    run = tmp_path / "run"
    shutil.copytree(val_run, run)
    path = run / record
    if damage is None:
        path.unlink()
    elif damage == "no scene":  # a log written before the column existed
        cells = [line.split(",") for line in path.read_text().splitlines()]
        path.write_text("".join(",".join(row[:1] + row[2:]) + "\n" for row in cells))
    else:
        path.write_text(damage)
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", str(run), "--out-file", str(report)]) == 2
    assert expected.format(path=path, run=run) in _one_line_error(capsys)
    assert not report.exists()


def test_eval_reads_the_model_from_its_checkpoint(pipeline, tmp_path):
    root, data, bank, run_dir = pipeline
    ckpt = os.path.join(run_dir, "checkpoint.npz")
    reports = []
    for name, model_flags in (("tiny", TINY), ("bare", [])):
        out = tmp_path / name
        assert cli.main(["eval", "--data", data, "--checkpoint", ckpt, "--out", str(out), "--seed", "7",
                         *model_flags]) == 0
        reports.append((out / "eval_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_eval_takes_model_keys_valid_only_on_its_checkpoint(pipeline, tmp_path):
    # decoder.n_heads=3 is valid for this 24-channel model, not for the default 32 channels
    root, data, bank, run_dir = pipeline
    run = tmp_path / "run24"
    assert cli.main(["train", "--data", data, "--priors", bank, "--out", str(run), "--seed", "7", "--steps", "2",
                     *TINY, "--set", "features.channels=24", "--set", "decoder.n_heads=3"]) == 0
    reports = []
    for name, model_flags in (("repeated", ["--set", "decoder.n_heads=3"]), ("bare", [])):
        out = tmp_path / name
        assert cli.main(["eval", "--data", data, "--checkpoint", str(run / "checkpoint.npz"), "--out", str(out),
                         "--seed", "7", *model_flags]) == 0
        reports.append((out / "eval_report.json").read_bytes())
    assert reports[0] == reports[1]


def test_rerun_train_and_eval_from_snapshot(pipeline, tmp_path):
    root, data, bank, run_dir = pipeline
    rerun = tmp_path / "rerun"
    assert cli.main(["train", "--config", os.path.join(run_dir, "train_config.json"), "--out", str(rerun)]) == 0
    with open(os.path.join(run_dir, "train_log.csv"), "rb") as f:
        assert (rerun / "train_log.csv").read_bytes() == f.read()
    with np.load(os.path.join(run_dir, "checkpoint.npz")) as a, np.load(rerun / "checkpoint.npz") as b:
        assert sorted(a.files) == sorted(b.files)
        for name in a.files:
            assert np.array_equal(a[name], b[name]), name

    first, second = tmp_path / "eval1", tmp_path / "eval2"
    assert cli.main(["eval", "--data", data, "--checkpoint", str(rerun / "checkpoint.npz"),
                     "--out", str(first), "--seed", "7"]) == 0
    assert cli.main(["eval", "--config", str(first / "eval_config.json"), "--out", str(second)]) == 0
    assert (second / "eval_report.json").read_bytes() == (first / "eval_report.json").read_bytes()


def test_every_flag_sets_a_config_key():
    parser = cli.build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    sections = {f.name for f in dataclasses.fields(RunConfig)}
    defaults = config_to_dict(RunConfig())
    for name, sub in commands.items():
        for action in sub._actions:
            if action.dest.split(".")[0] in sections:
                value = functools.reduce(lambda node, key: node.get(key, {}), action.dest.split("."), defaults)
                apply_overrides(RunConfig(), [f"{action.dest}={json.dumps(value)}"])  # raises on an unknown key
            else:
                assert "." not in action.dest, (name, action.dest)
    report_flags = {s for a in commands["stability-report"]._actions for s in a.option_strings}
    assert report_flags == {"-h", "--help", "--runs", "--out-file"}
    # every bench-attn --variant choice names one attention variant, and every variant has a choice
    variant = next(a for a in commands["bench-attn"]._actions if a.dest == "variant")
    assert sorted(cli.BENCH_VARIANTS[choice] for choice in variant.choices) == sorted(ALL_VARIANTS)


def test_readme_commands_parse():
    # every `bevmap ...` command in the README's CLI block, `\` continuations joined
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = next(b for b in readme.split("```bash")[1:] if "\nbevmap " in b).split("```")[0]
    commands = [line for line in block.replace("\\\n", " ").splitlines() if line.startswith("bevmap ")]
    assert len(commands) >= 6
    parser = cli.build_parser()
    for command in commands:
        try:
            args = parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")
        if hasattr(args, "config"):
            apply_overrides(RunConfig(), cli._overrides(args))  # raises on an unknown key


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_value,expected", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_the_user_set_them(user_value, expected):
    env = {k: v for k, v in _src_env().items() if k not in _BLAS_VARS}
    if user_value is not None:
        env.update(dict.fromkeys(_BLAS_VARS, user_value))
    code = f"import os, bevmap.cli; print(*(os.environ[v] for v in {_BLAS_VARS!r}))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == [expected] * 3
