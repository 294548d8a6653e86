import argparse
import dataclasses
import functools
import json
import os
import pickle
import shutil
import subprocess
import sys

import numpy as np
import pytest

from bevmap import cli
from bevmap.attention import ALL_VARIANTS
from bevmap.config import ConfigError, RunConfig, apply_overrides, config_from_dict, config_to_dict, model_keys
from bevmap.decoder import DecoderConfig


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


@pytest.fixture(scope="module")
def tall_data(tmp_path_factory):
    """One scene on a 24-row grid; the pipeline's checkpoint has 32 rows."""
    data = str(tmp_path_factory.mktemp("tall") / "data")
    assert cli.main(["gen-data", "--out", data, "--count", "1", "--seed", "7", *TINY,
                     "--set", "scenes.extent.h=24"]) == 0
    return data


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


def _one_line_error(capsys) -> str:
    err = capsys.readouterr().err
    assert err.count("\n") == 1, err
    assert err.startswith(("error (ConfigError): ", "error (CliError): ")), err
    return err


@pytest.mark.parametrize("command,args,expected", [
    ("train", ["--set", "decoder.n_prior=6"], "error (CliError): {bank}: bank holds 4 shapes"),
    ("train", ["--set", "decoder.n_heads=3"], "error (ConfigError): channels must be divisible by n_heads"),
    ("train", ["--set", 'train.optimizer="adam"'], "error (ConfigError): unknown optimizer 'adam'"),
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
    ("eval", ["--data", "{tall}"], "error (CliError): {tall}: level-0 feature grid (16, 24, 16) does not match"),
    ("train", ["--val", "{tall}"], "error (CliError): {tall}: level-0 feature grid (16, 24, 16) does not match"),
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
])
def test_bad_config_or_input_is_one_line(pipeline, tall_data, tmp_path, capsys, command, args, expected):
    root, data, bank, run_dir = pipeline
    ckpt = os.path.join(run_dir, "checkpoint.npz")
    paths = {
        "bank": bank,
        "data": data,
        "tall": tall_data,
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
    inputs = {
        "gen-data": [],
        "fit-priors": ["--scenes", data, "--k", "4", "--n-pri", "4"],
        "train": ["--data", data, "--priors", bank, "--steps", "2"],
        "eval": ["--data", data, "--checkpoint", ckpt],
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
            "--set", "train.optimizer=sgd", "--set", "train.lr=1e300", *TINY]
    result = subprocess.run([sys.executable, "-m", "bevmap.cli", *args], env=_src_env(),
                            capture_output=True, text=True)
    assert result.returncode == 2
    assert result.stderr == ("error (CliError): training diverged: non-finite values after stage "
                             "'instance self-attention' at step 1\n")
    assert not (tmp_path / "checkpoint.npz").exists()


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


@pytest.mark.parametrize("content,expected", [
    ("{}", "malformed run summary (KeyError: 'prior_mode')"),
    ("not json", "malformed run summary (JSONDecodeError: "),
])
def test_stability_report_on_a_malformed_summary_is_one_line(tmp_path, capsys, content, expected):
    summary = tmp_path / "stability.json"
    summary.write_text(content)
    report = tmp_path / "report.json"
    assert cli.main(["stability-report", "--runs", str(tmp_path), "--out-file", str(report)]) == 2
    assert f"error (CliError): {summary}: {expected}" in _one_line_error(capsys)
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


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.mark.parametrize("user_value,expected", [(None, "1"), ("2", "2")])
def test_cli_pins_blas_threads_unless_the_user_set_them(user_value, expected):
    env = {k: v for k, v in _src_env().items() if k not in _BLAS_VARS}
    if user_value is not None:
        env.update(dict.fromkeys(_BLAS_VARS, user_value))
    code = f"import os, bevmap.cli; print(*(os.environ[v] for v in {_BLAS_VARS!r}))"
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert result.stdout.split() == [expected] * 3
