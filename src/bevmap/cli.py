"""Command-line entry point wiring the whole pipeline.

Commands: gen-data, fit-priors, train, eval, stability-report, bench-attn.
Every command resolves one RunConfig (defaults, optional --config file,
command flags, then --set overrides), writes an effective-config snapshot
into its output directory, and produces only JSON/CSV artifacts there.
Rerunning a command from its snapshot reproduces the artifacts.
"""

from __future__ import annotations

import os

# One BLAS thread per calling thread, fixed before numpy loads BLAS: the
# sampler's pool already runs one thread per CPU.  A value the user set wins.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import sys

import numpy as np

from .attention import VARIANT_SCALE_THEN_SAMPLE, VARIANT_VANILLA, benchmark_attention
from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_to_dict,
    model_keys,
    override_doc,
    read_overrides,
    save_config,
)
from .decoder import DecoderConfig, forward
from .evaluate import evaluate, predictions_from_output, report_to_csv_rows, report_to_dict
from .geometry import GeometryError, Scene, load_scene, save_scene
from .priors import BankParseError, FitError, abstract, check_fingerprint, fit_clusters, load_bank, save_bank
from .rngutil import substream
from .synth import generate_scene
from .tensorad import ContractViolation
from .training import (
    Checkpoint,
    CheckpointError,
    TrainingDiverged,
    build_dataset,
    final_epoch_mean,
    load_checkpoint,
    project_pyramid,
    save_checkpoint,
    setup_run,
    train,
)


class CliError(RuntimeError):
    pass


# `bench-attn --variant` names of the attention variants
BENCH_VARIANTS = {"vanilla": VARIANT_VANILLA, "scale-then-sample": VARIANT_SCALE_THEN_SAMPLE}


# --------------------------------------------------------------------------
# Config assembly helpers
# --------------------------------------------------------------------------


def _require_path(path: str, what: str) -> str:
    if not path:
        raise CliError(f"missing required path for {what}")
    if not os.path.exists(path):
        raise CliError(f"{what} not found at expected path: {path}")
    return path


def _load_scene(path: str) -> Scene:
    try:
        return load_scene(path)
    except (ValueError, KeyError, TypeError) as e:
        raise CliError(f"{path}: malformed scene file ({type(e).__name__}: {e})") from e


def _load_scene_dir(data_dir: str, n_points: int) -> list[Scene]:
    """Every scene file under `data_dir`/scenes, each checked to hold
    finite elements of `n_points` points inside its extent."""
    scenes_dir = os.path.join(data_dir, "scenes")
    _require_path(scenes_dir, "scene directory")
    names = sorted(n for n in os.listdir(scenes_dir) if n.endswith(".json"))
    if not names:
        raise CliError(f"no scene files under {scenes_dir}")
    scenes = [_load_scene(os.path.join(scenes_dir, n)) for n in names]
    try:
        for scene in scenes:
            scene.validate(n_points)
    except GeometryError as e:
        raise CliError(f"{data_dir}: {e}; scenes.n_points is {n_points}") from e
    return scenes


def _dataset_fingerprint(data_dir: str) -> str:
    scenes_dir = os.path.join(data_dir, "scenes")
    digest = hashlib.sha256()
    for name in sorted(os.listdir(scenes_dir)):
        if name.endswith(".json"):
            with open(os.path.join(scenes_dir, name), "rb") as f:
                digest.update(hashlib.sha256(f.read()).digest())
    return digest.hexdigest()


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def _snapshot(cfg: RunConfig, command: str) -> None:
    os.makedirs(cfg.io.out_dir, exist_ok=True)
    save_config(cfg, os.path.join(cfg.io.out_dir, f"{command}_config.json"), command=command)


def _check_grid(dataset, pos_shape: tuple, where: str) -> None:
    grid = dataset[0].pyramid.levels[0].shape
    if grid != pos_shape:
        raise CliError(f"{where}: level-0 feature grid {grid} does not match the model's adapter.pos {pos_shape}")


def _feature_dataset(scenes: list[Scene], cfg: RunConfig):
    return build_dataset(scenes, seed=cfg.seed, **dataclasses.asdict(cfg.features))


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig) -> None:
    _snapshot(cfg, "gen-data")
    scenes_dir = os.path.join(cfg.io.out_dir, "scenes")
    os.makedirs(scenes_dir, exist_ok=True)
    seeds = substream(cfg.seed, "gen-data").integers(0, 2**63, size=cfg.scenes.count)
    for i, scene_seed in enumerate(seeds):
        scene = generate_scene(cfg.scenes, int(scene_seed))
        save_scene(scene, os.path.join(scenes_dir, f"scene_{i:05d}.json"))
    manifest = {
        "count": cfg.scenes.count,
        "seed_base": cfg.seed,
        "config": config_to_dict(cfg)["scenes"],
    }
    with open(os.path.join(cfg.io.out_dir, "manifest.json"), "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"gen-data: wrote {cfg.scenes.count} scenes to {scenes_dir}")


def cmd_fit_priors(cfg: RunConfig) -> None:
    data_dir = _require_path(cfg.io.data_dir, "scene dataset (io.data_dir)")
    scenes = _load_scene_dir(data_dir, cfg.scenes.n_points)
    elements = [e for s in scenes for e in s.elements]
    try:
        fit = fit_clusters(elements, scenes[0].extent, cfg.priors.k, cfg.seed, cfg.priors.max_iters)
        bank = abstract(
            fit.clusters,
            cfg.priors.n_pri,
            meta={
                "k": cfg.priors.k,
                "seed": cfg.seed,
                "iterations": fit.iterations,
                "dataset_fingerprint": _dataset_fingerprint(data_dir),
            },
        )
    except FitError as e:
        raise CliError(f"{data_dir}: {e}") from e
    _snapshot(cfg, "fit-priors")
    out_path = cfg.io.priors_path or os.path.join(cfg.io.out_dir, "prior_bank.json")
    save_bank(bank, out_path)
    print(f"fit-priors: k={cfg.priors.k}, kept {bank.n_pri} priors -> {out_path}")


def cmd_train(cfg: RunConfig) -> None:
    data_dir = _require_path(cfg.io.data_dir, "scene dataset (io.data_dir)")
    scenes = _load_scene_dir(data_dir, cfg.scenes.n_points)
    fingerprint = _dataset_fingerprint(data_dir)

    bank = None
    if cfg.train.prior_mode == "prior":
        priors_path = _require_path(cfg.io.priors_path, "prior bank (io.priors_path)")
        try:
            bank = load_bank(priors_path)
        except BankParseError as e:
            raise CliError(str(e)) from e
        n_prior, n_points = cfg.decoder.n_prior, cfg.scenes.n_points
        if bank.n_pri < n_prior or (n_prior and bank.n_p != n_points):
            raise CliError(
                f"{priors_path}: bank holds {bank.n_pri} shapes of {bank.n_p} points, the decoder "
                f"needs decoder.n_prior={n_prior} shapes of scenes.n_points={n_points} points"
            )
        check_fingerprint(bank, fingerprint)
    dataset = _feature_dataset(scenes, cfg)
    val = None
    if cfg.io.val_dir:
        val_dir = _require_path(cfg.io.val_dir, "validation dataset (io.val_dir)")
        val = _feature_dataset(_load_scene_dir(val_dir, cfg.scenes.n_points), cfg)
        _check_grid(val, dataset[0].pyramid.levels[0].shape, cfg.io.val_dir)
    _snapshot(cfg, "train")

    params, eff_bank, eff_cfg = setup_run(cfg.decoder_cfg, bank, cfg.train_cfg, init_sd=cfg.decoder.init_sd)
    try:
        # a diverging run is reported as one CliError, not also as numpy warnings
        with np.errstate(all="ignore"):
            result = train(params, eff_bank, dataset, eff_cfg, cfg.train_cfg, loss_cfg=cfg.loss)
    except TrainingDiverged as e:
        raise CliError(f"training diverged: {e}") from e

    out_dir = cfg.io.out_dir
    save_checkpoint(
        result.params,
        os.path.join(out_dir, "checkpoint.npz"),
        eff_cfg,
        eff_bank,
        features=dataclasses.asdict(cfg.features),
        dataset_fingerprint=fingerprint,
    )

    log_path = os.path.join(out_dir, "train_log.csv")
    u_cols = [f"u_layer{i}" for i in range(1, eff_cfg.n_layers)]
    header = ["step", "loss_total", "loss_cls", "loss_pts", "loss_disc"] + u_cols + ["u_t"]
    rows = [header]
    for row in result.log:
        rows.append([repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in header])
    _write_csv(log_path, rows)

    epoch_len = min(len(scenes), len(result.log))
    summary = {
        "prior_mode": cfg.train.prior_mode,
        "steps": cfg.train.steps,
        "final_epoch_len": epoch_len,
        "final_epoch_u_t": final_epoch_mean(result.log, "u_t", epoch_len),
        "final_epoch_loss": final_epoch_mean(result.log, "loss_total", epoch_len),
        "u_t_series": [row["u_t"] for row in result.log],
    }

    if val is not None:
        summary["val_mean_ap"] = _evaluate_params(result.params, eff_bank, val, cfg, eff_cfg).mean_ap

    with open(os.path.join(out_dir, "stability.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"train: {cfg.train.steps} steps, prior_mode={cfg.train.prior_mode}, "
          f"final-epoch u_t={summary['final_epoch_u_t']:.4f} -> {out_dir}")


def _evaluate_params(params, bank, dataset, cfg: RunConfig, decoder_cfg: DecoderConfig):
    preds_per_scene = []
    gts_per_scene = []
    for item in dataset:
        levels = project_pyramid(item.pyramid.levels, params)
        outputs = forward(params, bank, levels, decoder_cfg)
        final = outputs[-1]
        preds_per_scene.append(
            predictions_from_output(final.class_logits.values, final.point_coords.values, item.scene.extent)
        )
        gts_per_scene.append(item.scene.elements)
    return evaluate(preds_per_scene, gts_per_scene, tuple(cfg.eval.thresholds))


def cmd_eval(cfg: RunConfig, ckpt: Checkpoint) -> None:
    data_dir = _require_path(cfg.io.data_dir, "scene dataset (io.data_dir)")
    dataset = _feature_dataset(_load_scene_dir(data_dir, cfg.scenes.n_points), cfg)
    _check_grid(dataset, ckpt["adapter.pos"].shape, data_dir)
    _snapshot(cfg, "eval")
    report = _evaluate_params(ckpt, ckpt.bank, dataset, cfg, ckpt.decoder_cfg)
    out_dir = cfg.io.out_dir
    with open(os.path.join(out_dir, "eval_report.json"), "w") as f:
        json.dump(report_to_dict(report), f, indent=2, sort_keys=True)
        f.write("\n")
    _write_csv(os.path.join(out_dir, "eval_report.csv"), report_to_csv_rows(report))
    print(f"eval: mAP={report.mean_ap:.4f} over {len(dataset)} scenes -> {out_dir}")


def cmd_stability_report(runs: list[str], out_path: str) -> None:
    entries = []
    by_mode: dict[str, list[float]] = {}
    for run_dir in runs:
        path = _require_path(os.path.join(run_dir, "stability.json"), "run stability summary")
        with open(path) as f:
            try:
                summary = json.load(f)
                by_mode.setdefault(summary["prior_mode"], []).append(float(summary["final_epoch_u_t"]))
            except (ValueError, KeyError, TypeError) as e:
                raise CliError(f"{path}: malformed run summary ({type(e).__name__}: {e})") from e
        summary["run_dir"] = run_dir
        entries.append(summary)
    doc = {"runs": entries}
    doc["mean_final_epoch_u_t_by_mode"] = {k: float(np.mean(v)) for k, v in by_mode.items()}
    if {"prior", "random"} <= set(by_mode):
        doc["u_t_margin_random_minus_prior"] = (
            doc["mean_final_epoch_u_t_by_mode"]["random"] - doc["mean_final_epoch_u_t_by_mode"]["prior"]
        )
    with open(out_path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"stability-report: {len(entries)} runs -> {out_path}")


def cmd_bench_attn(cfg: RunConfig, variants: list[str], out_path: str) -> None:
    if cfg.bench.repeats < 1:
        raise CliError(f"bench.repeats must be >= 1, got {cfg.bench.repeats}")
    _snapshot(cfg, "bench-attn")
    try:
        rows = benchmark_attention(
            [BENCH_VARIANTS[v] for v in variants], seed=cfg.seed, **dataclasses.asdict(cfg.bench)
        )
    except ContractViolation as e:
        raise CliError(f"bench config: {e}") from e
    table = [["variant", "M", "N", "queries", "mean_ms", "sd_ms", "sample_count"]]
    for r in rows:
        table.append([r["variant"], str(r["M"]), str(r["N"]), str(r["queries"]),
                      repr(r["mean_ms"]), repr(r["sd_ms"]), str(r["sample_count"])])
    _write_csv(out_path, table)
    for r in rows:
        print(f"bench-attn: {r['variant']}: {r['mean_ms']:.2f} ms "
              f"(sd {r['sd_ms']:.2f}, {r['sample_count']} samples/query/head)")


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


def _overrides(args) -> list[str]:
    """--config, the command flags, then --set, as `key.path=value` overrides
    in that order, so a later one wins.  A flag's dest is the config key it sets."""
    sections = {f.name for f in dataclasses.fields(RunConfig)}
    flags = [
        f"{dest}={json.dumps(value)}"
        for dest, value in vars(args).items()
        if value is not None and dest.split(".")[0] in sections
    ]
    return (read_overrides(args.config) if args.config else []) + flags + (args.set or [])


def _eval_config(args) -> tuple[RunConfig, Checkpoint]:
    """The eval config resolved on top of the model its checkpoint records;
    a model key that then differs from the checkpoint is an error.  The
    checkpoint path is read before any config is checked, since model values
    need only be valid together with the checkpoint's."""
    overrides = _overrides(args)
    io = override_doc(config_to_dict(RunConfig()), overrides)["io"]
    path = _require_path(io["checkpoint_path"], "checkpoint (io.checkpoint_path)")
    try:
        ckpt = load_checkpoint(path)
    except CheckpointError as e:
        raise CliError(str(e)) from e
    pinned = model_keys(ckpt.decoder_cfg)
    pinned.update({f"features.{k}": v for k, v in ckpt.features.items()})
    cfg = apply_overrides(RunConfig(), [f"{k}={json.dumps(v)}" for k, v in pinned.items()] + overrides)
    for key, value in pinned.items():
        actual = functools.reduce(getattr, key.split("."), cfg)
        if actual != value:
            raise CliError(f"{key} is {actual!r} but the checkpoint {path} has {value!r}")
    return cfg, ckpt


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bevmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config or effective-config snapshot")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--out", dest="io.out_dir", help="output directory (io.out_dir)")
        p.add_argument("--seed", type=int, help="global seed")

    p = sub.add_parser("gen-data", help="generate a synthetic scene dataset")
    common(p)
    p.add_argument("--count", dest="scenes.count", type=int, help="number of scenes (scenes.count)")

    p = sub.add_parser("fit-priors", help="cluster map elements and abstract priors")
    common(p)
    p.add_argument("--scenes", dest="io.data_dir", help="dataset directory from gen-data (io.data_dir)")
    p.add_argument("--k", dest="priors.k", type=int, help="number of clusters (priors.k)")
    p.add_argument("--n-pri", dest="priors.n_pri", type=int, help="priors to keep (priors.n_pri)")
    p.add_argument("--out-file", dest="io.priors_path", help="bank output path (io.priors_path)")

    p = sub.add_parser("train", help="train the toy decoder")
    common(p)
    p.add_argument("--data", dest="io.data_dir", help="training dataset directory (io.data_dir)")
    p.add_argument("--val", dest="io.val_dir", help="validation dataset directory (io.val_dir)")
    p.add_argument("--priors", dest="io.priors_path", help="prior bank path (io.priors_path)")
    p.add_argument("--prior-mode", dest="train.prior_mode", choices=["prior", "random"],
                   help="reference-point initialization mode (train.prior_mode)")
    p.add_argument("--steps", dest="train.steps", type=int, help="training steps (train.steps)")

    p = sub.add_parser("eval", help="evaluate a checkpoint with Chamfer AP")
    common(p)
    p.add_argument("--data", dest="io.data_dir", help="evaluation dataset directory (io.data_dir)")
    p.add_argument("--checkpoint", dest="io.checkpoint_path", help="checkpoint path (io.checkpoint_path)")

    p = sub.add_parser("stability-report", help="merge run summaries into one report")
    p.add_argument("--runs", nargs="+", required=True, help="training run directories")
    p.add_argument("--out-file", dest="out_file", required=True, help="report JSON path")

    p = sub.add_parser("bench-attn", help="wall-clock benchmark of attention variants")
    common(p)
    p.add_argument("--variant", action="append", required=True,
                   choices=list(BENCH_VARIANTS))
    p.add_argument("--repeats", dest="bench.repeats", type=int, help="timing repeats (bench.repeats)")
    p.add_argument("--out-file", dest="out_file", help="CSV output path")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "stability-report":
            cmd_stability_report(args.runs, args.out_file)
        elif args.command == "bench-attn":
            cfg = apply_overrides(RunConfig(), _overrides(args))
            cmd_bench_attn(cfg, args.variant, args.out_file or os.path.join(cfg.io.out_dir, "bench_attn.csv"))
        elif args.command == "eval":
            cmd_eval(*_eval_config(args))
        else:
            commands = {"gen-data": cmd_gen_data, "fit-priors": cmd_fit_priors, "train": cmd_train}
            commands[args.command](apply_overrides(RunConfig(), _overrides(args)))
    except (ConfigError, CliError) as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error (missing input): {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
