"""Command-line entry point wiring the whole pipeline.

Commands: gen-data, fit-priors, train, eval, stability-report, bench-attn.
Every command resolves one RunConfig (defaults, optional --config file,
command flags, then --set overrides), writes an effective-config snapshot
into its output directory, and produces only JSON/CSV artifacts there.
Rerunning a command from its snapshot reproduces the artifacts.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import sys

import numpy as np

from .config import (
    ConfigError,
    RunConfig,
    apply_overrides,
    config_to_dict,
    load_config,
    save_config,
)
from .decoder import DecoderConfig
from .evaluate import evaluate, predictions_from_output, report_to_csv_rows, report_to_dict
from .geometry import BevExtent, Scene, load_scene, save_scene
from .losses import LossConfig
from .priors import PriorBank, PriorShape, abstract, check_fingerprint, fit_clusters, load_bank, save_bank
from .rngutil import substream
from .synth import SceneConfig, generate_scene
from .tensorad import ContractViolation, Tensor
from .training import (
    TrainConfig,
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


# --------------------------------------------------------------------------
# Config assembly helpers
# --------------------------------------------------------------------------


def _scene_config(cfg: RunConfig) -> SceneConfig:
    s = cfg.scenes
    extent = BevExtent(s.extent.x_min, s.extent.x_max, s.extent.y_min, s.extent.y_max, s.extent.h, s.extent.w)
    return SceneConfig(
        extent=extent,
        n_points=s.n_points,
        divider_count=tuple(s.divider_count),
        crossing_count=tuple(s.crossing_count),
        boundary_count=tuple(s.boundary_count),
        divider_curvature=tuple(s.divider_curvature),
        divider_span=tuple(s.divider_span),
        divider_lanes=s.divider_lanes,
        lane_jitter=s.lane_jitter,
        crossing_size=tuple(s.crossing_size),
        crossing_slots=s.crossing_slots,
        slot_jitter=s.slot_jitter,
        boundary_margin=s.boundary_margin,
        noise_sd=s.noise_sd,
    )


def _decoder_config(cfg: RunConfig) -> DecoderConfig:
    d = cfg.decoder
    return DecoderConfig(
        n_instances=d.n_instances,
        n_prior=d.n_prior,
        n_points=cfg.scenes.n_points,
        channels=cfg.features.channels,
        n_layers=d.n_layers,
        n_heads=d.n_heads,
        ffn_dim=d.ffn_dim,
        head_hidden=d.head_hidden,
        variant=d.variant,
        num_levels=cfg.features.num_levels,
        num_points_attn=d.num_points_attn,
    )


def _loss_config(cfg: RunConfig) -> LossConfig:
    l = cfg.loss
    return LossConfig(
        lambda_var=l.lambda_var,
        lambda_dist=l.lambda_dist,
        delta_v=l.delta_v,
        delta_d=l.delta_d,
        lambda_cls=l.lambda_cls,
        lambda_pts=l.lambda_pts,
        lambda_disc=l.lambda_disc,
        focal_alpha=l.focal_alpha,
        focal_gamma=l.focal_gamma,
    )


def _require_path(path: str, what: str) -> str:
    if not path:
        raise CliError(f"missing required path for {what}")
    if not os.path.exists(path):
        raise CliError(f"{what} not found at expected path: {path}")
    return path


def _load_scene_dir(data_dir: str) -> list[Scene]:
    scenes_dir = os.path.join(data_dir, "scenes")
    _require_path(scenes_dir, "scene directory")
    names = sorted(n for n in os.listdir(scenes_dir) if n.endswith(".json"))
    if not names:
        raise CliError(f"no scene files under {scenes_dir}")
    return [load_scene(os.path.join(scenes_dir, n)) for n in names]


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


# --------------------------------------------------------------------------
# Commands
# --------------------------------------------------------------------------


def cmd_gen_data(cfg: RunConfig) -> None:
    _snapshot(cfg, "gen-data")
    scene_cfg = _scene_config(cfg)
    scenes_dir = os.path.join(cfg.io.out_dir, "scenes")
    os.makedirs(scenes_dir, exist_ok=True)
    seeds = substream(cfg.seed, "gen-data").integers(0, 2**63, size=cfg.scenes.count)
    for i, scene_seed in enumerate(seeds):
        scene = generate_scene(scene_cfg, int(scene_seed))
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
    _snapshot(cfg, "fit-priors")
    scenes = _load_scene_dir(data_dir)
    elements = [e for s in scenes for e in s.elements]
    extent = scenes[0].extent
    fit = fit_clusters(elements, extent, cfg.priors.k, cfg.seed, cfg.priors.max_iters)
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
    out_path = cfg.io.priors_path or os.path.join(cfg.io.out_dir, "prior_bank.json")
    save_bank(bank, out_path)
    print(f"fit-priors: k={cfg.priors.k}, kept {bank.n_pri} priors -> {out_path}")


def _bank_arrays(bank: PriorBank | None) -> dict[str, np.ndarray]:
    if bank is None or bank.n_pri == 0:
        return {}
    kinds = np.array([1 if p.kind == "polygon" else 0 for p in bank.priors], dtype=np.int64)
    points = np.stack([p.points for p in bank.priors])
    return {"_prior.points": points, "_prior.kinds": kinds}


def _bank_from_arrays(data: dict[str, np.ndarray]) -> PriorBank | None:
    if "_prior.points" not in data:
        return None
    kinds = data["_prior.kinds"]
    points = data["_prior.points"]
    priors = [
        PriorShape("polygon" if k == 1 else "polyline", points[i]) for i, k in enumerate(kinds)
    ]
    return PriorBank(priors)


def cmd_train(cfg: RunConfig) -> None:
    data_dir = _require_path(cfg.io.data_dir, "scene dataset (io.data_dir)")
    _snapshot(cfg, "train")
    scenes = _load_scene_dir(data_dir)
    decoder_cfg = _decoder_config(cfg)
    for scene in scenes:
        scene.validate(cfg.scenes.n_points)

    bank = None
    if cfg.train.prior_mode == "prior":
        priors_path = _require_path(cfg.io.priors_path, "prior bank (io.priors_path)")
        bank = load_bank(priors_path)
        check_fingerprint(bank, _dataset_fingerprint(data_dir))

    dataset = build_dataset(
        scenes,
        channels=cfg.features.channels,
        num_levels=cfg.features.num_levels,
        seed=cfg.seed,
        truncation=cfg.features.truncation,
        feature_noise_sd=cfg.features.noise_sd,
    )
    train_cfg = TrainConfig(
        steps=cfg.train.steps,
        lr=cfg.train.lr,
        optimizer=cfg.train.optimizer,
        seed=cfg.seed,
        prior_mode=cfg.train.prior_mode,
        feature_noise_sd=cfg.train.feature_noise_sd,
    )
    params, eff_bank, eff_cfg = setup_run(decoder_cfg, bank, train_cfg, init_sd=cfg.decoder.init_sd)
    result = train(params, eff_bank, dataset, eff_cfg, train_cfg, loss_cfg=_loss_config(cfg))

    out_dir = cfg.io.out_dir
    ckpt = os.path.join(out_dir, "checkpoint.npz")
    extras = _bank_arrays(eff_bank)
    np.savez(ckpt, **{k: t.values for k, t in result.params.items()}, **extras)

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

    if cfg.io.val_dir:
        val_scenes = _load_scene_dir(_require_path(cfg.io.val_dir, "validation dataset (io.val_dir)"))
        report = _evaluate_params(result.params, eff_bank, val_scenes, cfg, eff_cfg)
        summary["val_mean_ap"] = report.mean_ap

    with open(os.path.join(out_dir, "stability.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"train: {cfg.train.steps} steps, prior_mode={cfg.train.prior_mode}, "
          f"final-epoch u_t={summary['final_epoch_u_t']:.4f} -> {out_dir}")


def _evaluate_params(params, bank, scenes, cfg: RunConfig, decoder_cfg: DecoderConfig):
    from .decoder import forward

    dataset = build_dataset(
        scenes,
        channels=cfg.features.channels,
        num_levels=cfg.features.num_levels,
        seed=cfg.seed,
        truncation=cfg.features.truncation,
        feature_noise_sd=cfg.features.noise_sd,
    )
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


def cmd_eval(cfg: RunConfig) -> None:
    data_dir = _require_path(cfg.io.data_dir, "scene dataset (io.data_dir)")
    ckpt_path = _require_path(cfg.io.checkpoint_path, "checkpoint (io.checkpoint_path)")
    _snapshot(cfg, "eval")
    scenes = _load_scene_dir(data_dir)
    with np.load(ckpt_path) as data:
        params = {k: Tensor(data[k]) for k in data.files if not k.startswith("_prior.")}
        bank = _bank_from_arrays({k: data[k] for k in data.files if k.startswith("_prior.")})
    decoder_cfg = _decoder_config(cfg)
    if bank is None:
        decoder_cfg = DecoderConfig(**{**decoder_cfg.__dict__, "n_prior": 0})
    report = _evaluate_params(params, bank, scenes, cfg, decoder_cfg)
    out_dir = cfg.io.out_dir
    with open(os.path.join(out_dir, "eval_report.json"), "w") as f:
        json.dump(report_to_dict(report), f, indent=2, sort_keys=True)
        f.write("\n")
    _write_csv(os.path.join(out_dir, "eval_report.csv"), report_to_csv_rows(report))
    print(f"eval: mAP={report.mean_ap:.4f} over {len(scenes)} scenes -> {out_dir}")


def cmd_stability_report(cfg: RunConfig, runs: list[str], out_path: str) -> None:
    entries = []
    for run_dir in runs:
        path = _require_path(os.path.join(run_dir, "stability.json"), "run stability summary")
        with open(path) as f:
            summary = json.load(f)
        summary["run_dir"] = run_dir
        entries.append(summary)
    doc = {"runs": entries}
    by_mode: dict[str, list[float]] = {}
    for e in entries:
        by_mode.setdefault(e["prior_mode"], []).append(e["final_epoch_u_t"])
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
    from .attention import ALL_VARIANTS, benchmark_attention

    name_map = {
        "vanilla": "vanilla",
        "scale-then-sample": "dmd_scale_then_sample",
        "sample-then-scale": "dmd_sample_then_scale",
        "parallel": "dmd_parallel",
    }
    resolved = []
    for v in variants:
        if v in name_map:
            resolved.append(name_map[v])
        elif v in ALL_VARIANTS:
            resolved.append(v)
        else:
            raise CliError(f"unknown attention variant {v!r}; choose from {sorted(name_map)}")
    if cfg.bench.repeats < 1:
        raise CliError(f"bench.repeats must be >= 1, got {cfg.bench.repeats}")
    _snapshot(cfg, "bench-attn")
    try:
        rows = benchmark_attention(
            resolved,
            repeats=cfg.bench.repeats,
            channels=cfg.bench.channels,
            num_heads=cfg.bench.n_heads,
            num_levels=cfg.bench.num_levels,
            num_points=cfg.bench.num_points,
            queries=cfg.bench.queries,
            h=cfg.bench.h,
            w=cfg.bench.w,
            seed=cfg.seed,
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


def _base_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    flag_overrides = []
    for dotted, value in getattr(args, "_flag_overrides", []):
        flag_overrides.append(f"{dotted}={json.dumps(value)}")
    cfg = apply_overrides(cfg, flag_overrides + (args.set or []))
    return cfg


def _collect_flag(args, flag: str, dotted: str) -> None:
    value = getattr(args, flag, None)
    if value is not None:
        args._flag_overrides.append((dotted, value))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bevmap", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run config or effective-config snapshot")
        p.add_argument("--set", action="append", metavar="KEY.PATH=VALUE",
                       help="override a config value (repeatable)")
        p.add_argument("--out", help="output directory (io.out_dir)")
        p.add_argument("--seed", type=int, help="global seed")

    p = sub.add_parser("gen-data", help="generate a synthetic scene dataset")
    common(p)
    p.add_argument("--count", type=int, help="number of scenes (scenes.count)")

    p = sub.add_parser("fit-priors", help="cluster map elements and abstract priors")
    common(p)
    p.add_argument("--scenes", help="dataset directory from gen-data (io.data_dir)")
    p.add_argument("--k", type=int, help="number of clusters (priors.k)")
    p.add_argument("--n-pri", type=int, dest="n_pri", help="priors to keep (priors.n_pri)")
    p.add_argument("--out-file", dest="out_file", help="bank output path (io.priors_path)")

    p = sub.add_parser("train", help="train the toy decoder")
    common(p)
    p.add_argument("--data", help="training dataset directory (io.data_dir)")
    p.add_argument("--val", help="validation dataset directory (io.val_dir)")
    p.add_argument("--priors", help="prior bank path (io.priors_path)")
    p.add_argument("--prior-mode", dest="prior_mode", choices=["prior", "random"],
                   help="reference-point initialization mode (train.prior_mode)")
    p.add_argument("--steps", type=int, help="training steps (train.steps)")

    p = sub.add_parser("eval", help="evaluate a checkpoint with Chamfer AP")
    common(p)
    p.add_argument("--data", help="evaluation dataset directory (io.data_dir)")
    p.add_argument("--checkpoint", help="checkpoint path (io.checkpoint_path)")

    p = sub.add_parser("stability-report", help="merge run summaries into one report")
    common(p)
    p.add_argument("--runs", nargs="+", required=True, help="training run directories")
    p.add_argument("--out-file", dest="out_file", required=True, help="report JSON path")

    p = sub.add_parser("bench-attn", help="wall-clock benchmark of attention variants")
    common(p)
    p.add_argument("--variant", action="append", required=True,
                   choices=["vanilla", "scale-then-sample", "sample-then-scale", "parallel"])
    p.add_argument("--repeats", type=int, help="timing repeats (bench.repeats)")
    p.add_argument("--out-file", dest="out_file", help="CSV output path")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args._flag_overrides = []
    _collect_flag(args, "out", "io.out_dir")
    _collect_flag(args, "seed", "seed")
    _collect_flag(args, "count", "scenes.count")
    _collect_flag(args, "scenes", "io.data_dir")
    _collect_flag(args, "k", "priors.k")
    _collect_flag(args, "n_pri", "priors.n_pri")
    _collect_flag(args, "out_file", "io.priors_path")
    _collect_flag(args, "data", "io.data_dir")
    _collect_flag(args, "checkpoint", "io.checkpoint_path")
    _collect_flag(args, "val", "io.val_dir")
    _collect_flag(args, "priors", "io.priors_path")
    _collect_flag(args, "prior_mode", "train.prior_mode")
    _collect_flag(args, "steps", "train.steps")
    _collect_flag(args, "repeats", "bench.repeats")

    try:
        if args.command == "stability-report":
            cfg = load_config(args.config) if args.config else RunConfig()
            cfg = apply_overrides(cfg, args.set or [])
            cmd_stability_report(cfg, args.runs, args.out_file)
        elif args.command == "bench-attn":
            args._flag_overrides = [o for o in args._flag_overrides if o[0] != "io.priors_path"]
            cfg = _base_config(args)
            out_path = args.out_file or os.path.join(cfg.io.out_dir, "bench_attn.csv")
            os.makedirs(cfg.io.out_dir, exist_ok=True)
            cmd_bench_attn(cfg, args.variant, out_path)
        else:
            cfg = _base_config(args)
            os.makedirs(cfg.io.out_dir, exist_ok=True)
            if args.command == "gen-data":
                cmd_gen_data(cfg)
            elif args.command == "fit-priors":
                cmd_fit_priors(cfg)
            elif args.command == "train":
                cmd_train(cfg)
            elif args.command == "eval":
                cmd_eval(cfg)
    except (ConfigError, CliError) as e:
        print(f"error ({type(e).__name__}): {e}", file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"error (missing input): {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
