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
)
from .decoder import NumericalError, forward
from .evaluate import evaluate, predictions_from_output, report_to_csv_rows, report_to_dict
from .geometry import BevExtent, GeometryError, Scene, load_scene, save_scene
from .priors import BankParseError, FitError, abstract, check_fingerprint, fit_clusters, load_bank, save_bank
from .rngutil import substream
from .synth import generate_scene
from .tensorad import ContractViolation
from .training import (
    Checkpoint,
    CheckpointError,
    TrainingDiverged,
    build_dataset,
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

# bootstrap resamples behind each paired interval of `stability-report`
PAIRED_RESAMPLES = 10_000


# --------------------------------------------------------------------------
# Config assembly helpers
# --------------------------------------------------------------------------


def _require_path(path: str, what: str) -> str:
    if not path:
        raise CliError(f"missing required path for {what}")
    if not os.path.exists(path):
        raise CliError(f"{what} not found at expected path: {path}")
    return path


def _load_scene_dir(data_dir: str, n_points: int) -> tuple[list[Scene], str]:
    """Every scene file under `data_dir`/scenes, each checked to hold
    finite elements of `n_points` points inside its extent, which must be
    the first scene's, and their fingerprint: a sha256 of the loaded scenes,
    so `-60` and `-60.0` hash alike.  It covers the extent (the four bounds
    as float64, then h and w) and, per scene in file order, the element count
    and each element's class, kind, point count and float64 points; the seed
    is provenance and stays out."""
    scenes_dir = os.path.join(data_dir, "scenes")
    _require_path(scenes_dir, "scene directory")
    names = sorted(n for n in os.listdir(scenes_dir) if n.endswith(".json"))
    if not names:
        raise CliError(f"no scene files under {scenes_dir}")
    paths = [os.path.join(scenes_dir, n) for n in names]
    scenes = []
    for path in paths:
        try:
            scenes.append(load_scene(path))
        except (ValueError, KeyError, TypeError) as e:
            raise CliError(f"{path}: malformed scene file ({type(e).__name__}: {e})") from e
    for path, scene in zip(paths, scenes):
        if scene.extent != scenes[0].extent:
            raise CliError(f"{path}: extent {scene.extent} differs from {paths[0]}'s {scenes[0].extent}")
    try:
        for scene in scenes:
            scene.validate(n_points)
    except GeometryError as e:
        raise CliError(f"{data_dir}: {e}; scenes.n_points is {n_points}") from e
    ext = scenes[0].extent
    digest = hashlib.sha256(np.array([ext.x_min, ext.x_max, ext.y_min, ext.y_max], "<f8").tobytes())
    digest.update(np.array([ext.h, ext.w], "<i8").tobytes())
    for scene in scenes:
        digest.update(np.array(len(scene.elements), "<i8").tobytes())
        for e in scene.elements:
            digest.update(np.array(e.class_id, "<i8").tobytes() + e.kind.encode() + b"\0"
                          + np.array(e.n_points, "<i8").tobytes() + np.ascontiguousarray(e.points, "<f8").tobytes())
    return scenes, digest.hexdigest()


def _check_extent(data_dir: str, scenes: list[Scene], extent: BevExtent, source: str) -> None:
    """A CliError unless the scenes under `data_dir` have `extent`, the one
    the model was trained on; the extent holds the feature grid."""
    if scenes[0].extent != extent:
        raise CliError(f"{data_dir}: scenes have extent {scenes[0].extent}, {source} {extent}")


def _write_csv(path: str, rows: list[list]) -> None:
    with open(path, "w", newline="") as f:
        csv.writer(f).writerows(rows)


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def _snapshot(cfg: RunConfig, command: str) -> None:
    os.makedirs(cfg.io.out_dir, exist_ok=True)
    _write_json(os.path.join(cfg.io.out_dir, f"{command}_config.json"), {**config_to_dict(cfg), "command": command})


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
    print(f"gen-data: wrote {cfg.scenes.count} scenes to {scenes_dir}")


def cmd_fit_priors(cfg: RunConfig) -> None:
    data_dir = _require_path(cfg.io.data_dir, "scene dataset (io.data_dir)")
    scenes, fingerprint = _load_scene_dir(data_dir, cfg.scenes.n_points)
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
                "dataset_fingerprint": fingerprint,
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
    scenes, fingerprint = _load_scene_dir(data_dir, cfg.scenes.n_points)
    val_scenes = None
    if cfg.io.val_dir:
        val_dir = _require_path(cfg.io.val_dir, "validation dataset (io.val_dir)")
        val_scenes, _ = _load_scene_dir(val_dir, cfg.scenes.n_points)
        _check_extent(val_dir, val_scenes, scenes[0].extent, f"the training scenes in {data_dir} have")

    bank = None
    if cfg.decoder.n_prior > 0:
        priors_path = _require_path(cfg.io.priors_path, "prior bank (io.priors_path)")
        try:
            bank = load_bank(priors_path)
        except BankParseError as e:
            raise CliError(str(e)) from e
        check_fingerprint(bank, fingerprint)
    try:
        params, bank, _ = setup_run(cfg.decoder_cfg, bank, cfg.train_cfg, init_sd=cfg.decoder.init_sd)
    except ContractViolation as e:
        raise CliError(f"{cfg.io.priors_path}: {e}") from e
    dataset = _feature_dataset(scenes, cfg)
    val = None if val_scenes is None else _feature_dataset(val_scenes, cfg)

    try:
        # a diverging run is reported as one CliError, not also as numpy warnings
        with np.errstate(all="ignore"):
            result = train(params, bank, dataset, cfg.decoder_cfg, cfg.train_cfg, loss_cfg=cfg.loss)
    except TrainingDiverged as e:
        raise CliError(f"training diverged: {e}") from e
    report = None if val is None else _evaluate_params(result.params, bank, val, cfg)

    _snapshot(cfg, "train")
    out_dir = cfg.io.out_dir
    save_checkpoint(
        result.params,
        os.path.join(out_dir, "checkpoint.npz"),
        cfg.decoder_cfg,
        bank,
        features=dataclasses.asdict(cfg.features),
        dataset_fingerprint=fingerprint,
        extent=scenes[0].extent,
    )
    header = list(result.log[0])
    rows = [[repr(row[k]) if isinstance(row[k], float) else str(row[k]) for k in header] for row in result.log]
    _write_csv(os.path.join(out_dir, "train_log.csv"), [header] + rows)
    if report is not None:
        _write_report(report, out_dir, "val")
    print(f"train: {cfg.train.steps} steps, n_prior={cfg.decoder.n_prior} -> {out_dir}")


@np.errstate(all="ignore")  # a forward that goes non-finite is one CliError, not also numpy warnings
def _evaluate_params(params, bank, dataset, cfg: RunConfig):
    preds_per_scene = []
    gts_per_scene = []
    for item in dataset:
        levels = project_pyramid(item.pyramid.levels, params)
        try:
            final = forward(params, bank, levels, cfg.decoder_cfg)[-1]
        except NumericalError as e:
            raise CliError(f"evaluation: {e}") from e
        preds_per_scene.append(
            predictions_from_output(final.class_logits.values, final.point_coords.values, item.scene.extent)
        )
        gts_per_scene.append(item.scene.elements)
    return evaluate(preds_per_scene, gts_per_scene, tuple(cfg.eval.thresholds))


def _write_report(report, out_dir: str, name: str) -> None:
    _write_json(os.path.join(out_dir, f"{name}_report.json"), report_to_dict(report))
    _write_csv(os.path.join(out_dir, f"{name}_report.csv"), report_to_csv_rows(report))


def cmd_eval(cfg: RunConfig, ckpt: Checkpoint) -> None:
    data_dir = _require_path(cfg.io.data_dir, "scene dataset (io.data_dir)")
    scenes, _ = _load_scene_dir(data_dir, cfg.scenes.n_points)
    _check_extent(data_dir, scenes, ckpt.extent, f"the checkpoint {cfg.io.checkpoint_path} was trained on")
    dataset = _feature_dataset(scenes, cfg)
    report = _evaluate_params(ckpt, ckpt.bank, dataset, cfg)
    _snapshot(cfg, "eval")
    _write_report(report, cfg.io.out_dir, "eval")
    print(f"eval: mAP={report.mean_ap:.4f} over {len(dataset)} scenes -> {cfg.io.out_dir}")


def _parse(path: str, what: str, parse):
    """`parse` of the open file at `path`; a missing or malformed file is one CliError."""
    with open(_require_path(path, what), newline="") as f:
        try:
            return parse(f)
        except (ValueError, KeyError, TypeError) as e:
            raise CliError(f"{path}: malformed {what} ({type(e).__name__}: {e})") from e


def _read_run(run_dir: str) -> tuple[dict, RunConfig, dict[str, float]]:
    """A run's report entry, config and measures, from its snapshot, log and val report."""
    snapshot = _require_path(os.path.join(run_dir, "train_config.json"), "run config snapshot")
    overrides = read_overrides(snapshot)  # a ConfigError naming the file
    try:
        cfg = apply_overrides(RunConfig(), overrides)
    except ConfigError as e:
        raise CliError(f"{snapshot}: malformed run snapshot ({e})") from e
    rows = _parse(os.path.join(run_dir, "train_log.csv"), "training log", lambda f: [
        {k: float(row[k]) for k in ("scene", "u_t", "loss_total", "is")} for row in csv.DictReader(f)])
    if len(rows) != cfg.train.steps:
        raise CliError(f"{run_dir}: train_log.csv has {len(rows)} steps, train_config.json {cfg.train.steps}")
    u_t, loss = [row["u_t"] for row in rows], [row["loss_total"] for row in rows]
    k = len({row["scene"] for row in rows})  # the final epoch is the last k steps
    entry = {"run_dir": run_dir, "prior_mode": "prior" if cfg.decoder.n_prior > 0 else "random",
             "steps": cfg.train.steps, "final_epoch_len": k, "final_epoch_u_t": float(np.mean(u_t[-k:])),
             "final_epoch_loss": float(np.mean(loss[-k:])), "u_t_series": u_t}
    measures = {"final_epoch_u_t": entry["final_epoch_u_t"], "run_u_t": float(np.mean(u_t)),
                "run_loss_total": float(np.mean(loss))}
    revisits = [row["is"] for row in rows if not np.isnan(row["is"])]
    if revisits:
        measures["run_is"] = float(np.mean(revisits))
    if cfg.io.val_dir:
        entry["val_mean_ap"] = measures["val_mean_ap"] = _parse(
            os.path.join(run_dir, "val_report.json"), "val report", lambda f: float(json.load(f)["mean_ap"]))
    return entry, cfg, measures


def _flat(doc: dict, prefix: str = ""):
    """(dotted key, value) for every leaf of a config document, in its order."""
    for key, value in doc.items():
        if isinstance(value, dict):
            yield from _flat(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _paired(runs: list[tuple[dict, RunConfig, dict[str, float]]]) -> dict:
    """Prior minus random per measure over the seeds with one run of each
    arm: n, mean, SD, the seeds where prior is lower, and a bootstrap 95 %
    interval of the mean.  Two runs of one seed and arm, or a pair whose
    snapshots differ in more than decoder.n_prior and io.*, are a CliError."""
    by_seed: dict[int, dict[str, tuple]] = {}
    for run in runs:
        entry, cfg, _ = run
        arms = by_seed.setdefault(cfg.seed, {})
        if entry["prior_mode"] in arms:
            raise CliError(f"{entry['run_dir']}: a second {entry['prior_mode']} run of seed {cfg.seed}, "
                           f"after {arms[entry['prior_mode']][0]['run_dir']}")
        arms[entry["prior_mode"]] = run
    seeds, diffs = [], {}
    for seed, arms in sorted(by_seed.items()):
        if len(arms) < 2:
            continue
        (prior, prior_cfg, prior_m), (rand, rand_cfg, rand_m) = arms["prior"], arms["random"]
        other = dict(_flat(config_to_dict(rand_cfg)))
        for key, value in _flat(config_to_dict(prior_cfg)):
            if key != "decoder.n_prior" and not key.startswith("io.") and other[key] != value:
                raise CliError(f"{prior['run_dir']} and {rand['run_dir']}: seed {seed}'s runs differ in {key} "
                               f"({value!r} and {other[key]!r})")
        seeds.append(seed)
        for name in prior_m.keys() & rand_m.keys():
            diffs.setdefault(name, []).append(prior_m[name] - rand_m[name])
    stats = {}
    for name, values in sorted(diffs.items()):
        d = np.array(values)
        picks = substream(0, f"stability-report.bootstrap.{name}").integers(0, len(d), (PAIRED_RESAMPLES, len(d)))
        lo, hi = np.percentile(d[picks].mean(axis=1), [2.5, 97.5])
        stats[name] = {"n": len(d), "mean": float(d.mean()), "sd": float(d.std(ddof=1)) if len(d) > 1 else None,
                       "prior_lower": int((d < 0).sum()), "ci95": [float(lo), float(hi)]}
    return {"seeds": seeds, "resamples": PAIRED_RESAMPLES, "prior_minus_random": stats}


def cmd_stability_report(runs: list[str], out_path: str) -> None:
    read = [_read_run(run_dir) for run_dir in runs]
    entries = [entry for entry, _, _ in read]
    means = {mode: float(np.mean([e["final_epoch_u_t"] for e in entries if e["prior_mode"] == mode]))
             for mode in {e["prior_mode"] for e in entries}}
    doc = {"runs": entries, "paired": _paired(read), "mean_final_epoch_u_t_by_mode": means}
    if {"prior", "random"} <= set(means):
        doc["u_t_margin_random_minus_prior"] = means["random"] - means["prior"]
    _write_json(out_path, doc)
    print(f"stability-report: {len(runs)} runs -> {out_path}")


def cmd_bench_attn(cfg: RunConfig, variants: list[str], out_path: str) -> None:
    if cfg.bench.repeats < 1:
        raise CliError(f"bench.repeats must be >= 1, got {cfg.bench.repeats}")
    d = cfg.decoder_cfg  # the model's shape, checked when the config was parsed
    rows = benchmark_attention([BENCH_VARIANTS[v] for v in variants], channels=d.channels, n_heads=d.n_heads,
                               num_levels=d.num_levels, num_points=d.num_points_attn, seed=cfg.seed,
                               **dataclasses.asdict(cfg.bench))
    _snapshot(cfg, "bench-attn")
    ratio = rows[0]["vanilla_over_dmd"]
    table = [["variant", "M", "N", "queries", "p50_ms", "q1_ms", "q3_ms", "vanilla_over_dmd", "sample_count"]]
    for r in rows:
        table.append([r["variant"], str(r["M"]), str(r["N"]), str(r["queries"]), repr(r["p50_ms"]),
                      repr(r["q1_ms"]), repr(r["q3_ms"]), "" if ratio is None else repr(ratio),
                      str(r["sample_count"])])
    _write_csv(out_path, table)
    for r in rows:
        print(f"bench-attn: {r['variant']}: median {r['p50_ms']:.2f} ms "
              f"(quartiles {r['q1_ms']:.2f}-{r['q3_ms']:.2f}, {r['sample_count']} samples/query/head)")
    if ratio is not None:
        print(f"bench-attn: vanilla/DMD median ratio {ratio:.3f}")


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
    p.add_argument("--steps", dest="train.steps", type=int, help="training steps (train.steps)")

    p = sub.add_parser("eval", help="evaluate a checkpoint with Chamfer AP")
    common(p)
    p.add_argument("--data", dest="io.data_dir", help="evaluation dataset directory (io.data_dir)")
    p.add_argument("--checkpoint", dest="io.checkpoint_path", help="checkpoint path (io.checkpoint_path)")

    p = sub.add_parser("stability-report", help="report matching stability of training runs, paired by seed")
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
