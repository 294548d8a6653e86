import json
import os

import numpy as np
import pytest

from bevmap import cli
from bevmap.config import ConfigError, RunConfig, apply_overrides, config_from_dict, config_to_dict


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
        "--steps", "6", "--prior-mode", "prior", *TINY,
    ]) == 0
    return root, data, bank, run_dir


def test_gen_data_artifacts(pipeline):
    root, data, bank, run_dir = pipeline
    scenes = sorted(os.listdir(os.path.join(data, "scenes")))
    assert len(scenes) == 4
    with open(os.path.join(data, "manifest.json")) as f:
        manifest = json.load(f)
    assert manifest["count"] == 4
    assert manifest["seed_base"] == 7
    assert os.path.exists(os.path.join(data, "gen-data_config.json"))


def test_train_artifacts(pipeline):
    root, data, bank, run_dir = pipeline
    for name in ("checkpoint.npz", "train_log.csv", "stability.json", "train_config.json"):
        assert os.path.exists(os.path.join(run_dir, name)), name
    with open(os.path.join(run_dir, "stability.json")) as f:
        summary = json.load(f)
    assert summary["prior_mode"] == "prior"
    assert len(summary["u_t_series"]) == 6
    with open(os.path.join(run_dir, "train_log.csv")) as f:
        header = f.readline().strip().split(",")
    assert header == ["step", "loss_total", "loss_cls", "loss_pts", "loss_disc", "u_layer1", "u_t"]


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


def test_random_mode_and_stability_report(pipeline, tmp_path):
    root, data, bank, run_dir = pipeline
    run_rand = str(tmp_path / "run_random")
    assert cli.main([
        "train", "--data", data, "--out", run_rand, "--seed", "7",
        "--steps", "6", "--prior-mode", "random", *TINY,
    ]) == 0
    report_path = str(tmp_path / "stability.json")
    assert cli.main([
        "stability-report", "--runs", run_dir, run_rand, "--out-file", report_path,
    ]) == 0
    with open(report_path) as f:
        doc = json.load(f)
    assert {"prior", "random"} == set(doc["mean_final_epoch_u_t_by_mode"])
    assert "u_t_margin_random_minus_prior" in doc
    assert len(doc["runs"]) == 2


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
