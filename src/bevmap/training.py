"""Toy training loop: per-layer matching, combined losses, Adagrad updates,
and per-step matching-stability logging.

A small trainable linear adapter sits between the synthetic BEV pyramid and
the decoder (and provides the embeddings for the discriminative loss), so
the encoder-side loss actually shapes the features cross-attention reads.
The loop is deterministic given its seed; every random choice draws from a
named substream.
"""

from __future__ import annotations

import dataclasses
import json
import math
import zipfile
from dataclasses import dataclass

import numpy as np

from . import tensorad as ta
from .decoder import DecoderConfig, NumericalError, check_bank, forward, init_model_params
from .geometry import BevExtent, GeometryError, Scene
from .losses import LossConfig, total_loss
from .matching import Assignment, GtTarget, gt_targets, query_flips, unstable_scores
from .priors import BankParseError, PriorBank, bank_from_dict, bank_to_dict
from .rngutil import substream
from .synth import FeaturePyramid, InstanceMask, rasterize_instances, render_bev
from .tensorad import ContractViolation, Tensor

ADAGRAD_EPS = 1e-8
CHECKPOINT_FORMAT = 2  # 2: _meta records the training scenes' extent


class TrainingDiverged(RuntimeError):
    def __init__(self, step: int, what: str = "non-finite loss"):
        super().__init__(f"{what} at step {step}")
        self.step = step


@dataclass
class TrainConfig:
    steps: int = 2000
    lr: float = 0.1  # Adagrad's step size
    seed: int = 0
    # fresh feature noise per visit, the stand-in for sensor/augmentation
    # variability; without it a small dataset is memorized and matching
    # locks regardless of anchor quality
    feature_noise_sd: float = 0.0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (type(self.lr) in (int, float) and math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be a finite number > 0, got {self.lr!r}")
        sd = self.feature_noise_sd
        if not (type(sd) in (int, float) and math.isfinite(sd) and sd >= 0):
            raise ValueError(f"feature_noise_sd must be a finite number >= 0, got {sd!r}")


@dataclass
class TrainScene:
    scene: Scene
    pyramid: FeaturePyramid
    mask: InstanceMask
    gts: list[GtTarget]


def build_dataset(
    scenes: list[Scene],
    channels: int,
    num_levels: int,
    seed: int,
    truncation: float = 3.0,
    noise_sd: float = 0.01,
) -> list[TrainScene]:
    """Precompute pyramids, instance masks, and matching targets per scene."""
    out = []
    for idx, scene in enumerate(scenes):
        pyramid = render_bev(scene, channels, num_levels, seed=seed + idx, truncation=truncation, noise_sd=noise_sd)
        mask = rasterize_instances(scene)
        out.append(TrainScene(scene, pyramid, mask, gt_targets(scene.elements, scene.extent)))
    return out


def init_adapter(channels: int, grid: tuple[int, int], seed: int, sd: float = 0.02) -> dict[str, Tensor]:
    """Trainable feature adapter: a near-identity channel map for every level
    plus a zero-initialized positional surface on the finest level.

    The positional surface is what lets the discriminative loss actually
    separate same-class instances: pointwise features of two parallel
    dividers are near-identical, so instance separation needs position.
    """
    rng = substream(seed, "adapter")
    h, w = grid
    return {
        "adapter.w": Tensor(np.eye(channels) + rng.normal(0.0, sd, (channels, channels))),
        "adapter.b": Tensor(np.zeros(channels)),
        "adapter.pos": Tensor(np.zeros((channels, h, w))),
    }


def project_pyramid(levels: list[np.ndarray], params: dict[str, Tensor]) -> list[Tensor]:
    """Apply the adapter to each level, (C, h, w) -> (C, h, w), and add the
    positional surface `adapter.pos` to level 0; a level 0 of another grid
    is a ContractViolation."""
    w, b = params["adapter.w"], params["adapter.b"]
    out = []
    for idx, level in enumerate(levels):
        c, h, wd = level.shape
        flat = ta.matmul(w, ta.reshape(Tensor(level), (c, h * wd)))
        biased = ta.transpose(ta.add_rows(ta.transpose(flat, (1, 0)), b), (1, 0))
        projected = ta.reshape(biased, (c, h, wd))
        if idx == 0:
            projected = ta.add(projected, params["adapter.pos"])
        out.append(projected)
    return out


@dataclass
class TrainResult:
    params: dict[str, Tensor]
    log: list[dict]


def _training_step_loss(
    params: dict[str, Tensor],
    bank: PriorBank | None,
    item: TrainScene,
    cfg: DecoderConfig,
    loss_cfg: LossConfig,
    noise_rng: np.random.Generator,
    noise_sd: float,
) -> tuple[Tensor, dict, list[Assignment]]:
    raw = item.pyramid.levels
    if noise_sd > 0:
        raw = [lvl + noise_rng.normal(0.0, noise_sd, lvl.shape) for lvl in raw]
    levels = project_pyramid(raw, params)
    outputs = forward(params, bank, levels, cfg)
    return total_loss(outputs, item.gts, levels[0], item.mask, loss_cfg)


def train(
    params: dict[str, Tensor],
    bank: PriorBank | None,
    dataset: list[TrainScene],
    decoder_cfg: DecoderConfig,
    train_cfg: TrainConfig,
    loss_cfg: LossConfig | None = None,
) -> TrainResult:
    """Adagrad loop with per-layer matching recomputed each step.

    Logs one row per step: the visited scene's index, losses, u per layer
    transition, u_t, `is` (the share of the scene's GTs whose last-layer
    query differs from its previous visit; NaN on a first visit or without
    GTs) and `prior_share` (the share of last-layer matches taken by query
    rows below n_prior; NaN without matches).
    """
    if not dataset:
        raise ValueError("train: dataset is empty")
    loss_cfg = loss_cfg or LossConfig()
    if "adapter.w" not in params:
        grid = dataset[0].pyramid.levels[0].shape[1:]
        params.update(init_adapter(decoder_cfg.channels, grid, train_cfg.seed))
    names = sorted(params)
    accum = {name: np.zeros(params[name].shape) for name in names}
    order_rng = substream(train_cfg.seed, "train.order")
    noise_rng = substream(train_cfg.seed, "train.featnoise")
    order: list[int] = []
    log: list[dict] = []
    last_visit: dict[int, dict[int, int]] = {}  # scene -> its last-layer gt_to_query

    for step in range(train_cfg.steps):
        if not order:
            order = list(order_rng.permutation(len(dataset)))
        idx = int(order.pop())
        item = dataset[idx]

        with ta.Tape() as tape:
            try:
                loss, breakdown, assignments = _training_step_loss(
                    params, bank, item, decoder_cfg, loss_cfg, noise_rng, train_cfg.feature_noise_sd
                )
            except NumericalError as e:
                raise TrainingDiverged(step, str(e)) from e
            if not np.isfinite(loss.values).all():
                raise TrainingDiverged(step)
            grads = ta.backward(tape, loss)

        for name in names:
            g = grads.of(params[name])
            accum[name] = accum[name] + g * g
            params[name] = Tensor(params[name].values - train_cfg.lr * g / (np.sqrt(accum[name]) + ADAGRAD_EPS))

        stability = unstable_scores(assignments)
        row = {"step": step, "scene": idx}
        row.update(breakdown)
        for i, u in enumerate(stability.u_per_layer, start=1):
            row[f"u_layer{i}"] = u
        row["u_t"] = stability.u_t
        last, previous = assignments[-1].gt_to_query(), last_visit.get(idx)
        n_gt = len(item.gts)
        row["is"] = query_flips(previous, last) / n_gt if previous is not None and n_gt else math.nan
        row["prior_share"] = sum(q < decoder_cfg.n_prior for q in last.values()) / len(last) if last else math.nan
        last_visit[idx] = last
        log.append(row)

    return TrainResult(params, log)


def setup_run(
    decoder_cfg: DecoderConfig,
    bank: PriorBank | None,
    train_cfg: TrainConfig,
    init_sd: float = 0.02,
) -> tuple[dict[str, Tensor], PriorBank | None, DecoderConfig]:
    """Model parameters, the bank the model reads (None when n_prior is 0)
    and `decoder_cfg`; a bank that does not fit `decoder_cfg` is a
    ContractViolation.

    Random initialization is n_prior = 0: the learnable rows it shares with a
    prior model of the same seed are drawn identically, so the two runs
    differ only through the reference initialization path.
    """
    check_bank(bank, decoder_cfg)
    params = init_model_params(decoder_cfg, train_cfg.seed, init_sd=init_sd)
    return params, bank if decoder_cfg.n_prior > 0 else None, decoder_cfg


# --------------------------------------------------------------------------
# Checkpointing
# --------------------------------------------------------------------------


class CheckpointError(ValueError):
    pass


class Checkpoint(dict):
    """Params by name, plus what the `_meta` entry records about the run
    that wrote them; the bank is None when n_prior is 0."""

    decoder_cfg: DecoderConfig
    bank: PriorBank | None
    features: dict
    dataset_fingerprint: str
    extent: BevExtent


def save_checkpoint(
    params: dict[str, Tensor],
    path: str,
    decoder_cfg: DecoderConfig,
    bank: PriorBank | None,
    features: dict,
    dataset_fingerprint: str,
    extent: BevExtent,
) -> None:
    """Write params and a JSON `_meta` entry: format version, the decoder
    config, the bank (None when n_prior is 0), the features section, and the
    fingerprint and scene extent of the training data."""
    meta = {
        "format": CHECKPOINT_FORMAT,
        "decoder": dataclasses.asdict(decoder_cfg),
        "bank": bank_to_dict(bank) if bank else None,
        "features": features,
        "dataset_fingerprint": dataset_fingerprint,
        "extent": dataclasses.asdict(extent),
    }
    arrays = {name: t.values for name, t in params.items()}
    np.savez(path, _meta=np.array(json.dumps(meta, sort_keys=True)), **arrays)


def load_checkpoint(path: str) -> Checkpoint:
    try:
        with np.load(path, allow_pickle=False) as data:
            arrays = {name: data[name] for name in data.files}
    except (OSError, ValueError, TypeError, EOFError, zipfile.BadZipFile) as e:
        raise CheckpointError(f"{path}: not a readable checkpoint ({e})") from e
    if "_meta" not in arrays:
        raise CheckpointError(f"{path}: no _meta entry, so not a checkpoint of format {CHECKPOINT_FORMAT}")
    meta_text = str(arrays.pop("_meta"))
    ckpt = Checkpoint((name, Tensor(values)) for name, values in arrays.items())
    try:
        meta = json.loads(meta_text)
        if meta["format"] != CHECKPOINT_FORMAT:
            raise CheckpointError(f"{path}: checkpoint format {meta['format']!r}, expected {CHECKPOINT_FORMAT}")
        missing = [key for key in ("decoder", "features", "dataset_fingerprint", "extent") if meta[key] is None]
        if missing:
            raise CheckpointError(f"{path}: _meta records no {', '.join(missing)}")
        ckpt.decoder_cfg = DecoderConfig(**meta["decoder"])
        ckpt.bank = bank_from_dict(meta["bank"]) if meta["bank"] else None
        ckpt.features = meta["features"]
        ckpt.dataset_fingerprint = meta["dataset_fingerprint"]
        ckpt.extent = BevExtent(**meta["extent"])
    except (json.JSONDecodeError, KeyError, TypeError, ContractViolation, BankParseError, GeometryError) as e:
        raise CheckpointError(f"{path}: malformed _meta entry ({type(e).__name__}: {e})") from e
    _check_fit(ckpt, path)
    return ckpt


def _check_fit(ckpt: Checkpoint, path: str) -> None:
    """A CheckpointError unless the params and the bank are the ones the
    decoder config in _meta needs, with `adapter.pos` on the grid of the
    extent in _meta."""
    cfg = ckpt.decoder_cfg
    try:
        check_bank(ckpt.bank, cfg)
    except ContractViolation as e:
        raise CheckpointError(f"{path}: {e}") from e
    params = {**init_model_params(cfg, 0), **init_adapter(cfg.channels, (ckpt.extent.h, ckpt.extent.w), 0)}
    want = {name: t.shape for name, t in params.items()}
    for name in sorted(want.keys() | ckpt.keys()):
        if name not in ckpt:
            raise CheckpointError(f"{path}: no parameter {name}, which the decoder in _meta needs")
        if name not in want:
            raise CheckpointError(f"{path}: parameter {name} is not one the decoder in _meta has")
        if ckpt[name].shape != want[name]:
            raise CheckpointError(f"{path}: parameter {name} has shape {ckpt[name].shape}, "
                                  f"the decoder in _meta needs {want[name]}")
