"""Deformable attention kernels: sinusoidal encodings, vanilla MSDA, and the
decoupled two-stage (DMD) cross-attention.

Vanilla multi-scale deformable attention samples N offset points on each of
M pyramid levels per head (M*N reads per query).  The decoupled variant
splits this into a multi-scale stage (one point per level) followed by a
multi-sample stage (N points on the largest level), for M+N reads:

    scale_then_sample:  q1 = lin1(msda_ms(q));  out = q1 + lin2(msda_sp(q1))

Offsets are generated in units of cells of each level and converted to
normalized coordinates per level; attention weights are softmax-normalized
jointly over a stage's (level, point) group per head and query.  This module
alone knows the stage layout and the parameter names of each variant.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from . import tensorad as ta
from .rngutil import substream
from .tensorad import ContractViolation, Tensor

VARIANT_VANILLA = "vanilla"
VARIANT_SCALE_THEN_SAMPLE = "dmd_scale_then_sample"
ALL_VARIANTS = (VARIANT_VANILLA, VARIANT_SCALE_THEN_SAMPLE)


# --------------------------------------------------------------------------
# Sinusoidal reference-point encoding
# --------------------------------------------------------------------------


@lru_cache(maxsize=32)
def _pe_frequencies(half_channels: int) -> np.ndarray:
    """Angular frequencies for one coordinate axis: 2*pi * 10000^(-2i/d)."""
    i = np.arange(half_channels // 2)
    return 2.0 * math.pi * np.power(10000.0, -2.0 * i / half_channels)


def sinusoidal_pe(coords: Tensor, channels: int) -> Tensor:
    """Sinusoidal embedding of normalized 2D coordinates, (..., 2) -> (..., C).

    Each axis gets C/2 channels of interleaved (sin, cos) pairs on a
    geometric frequency ladder; the x block is concatenated before the y
    block along the channel axis.
    """
    if channels % 4 != 0:
        raise ContractViolation(f"sinusoidal_pe: channels must be divisible by 4, got {channels}")
    if coords.shape[-1] != 2:
        raise ContractViolation(f"sinusoidal_pe: coords must end in axis of size 2, got {coords.shape}")
    half = channels // 2
    lead = coords.shape[:-1]
    freqs = _pe_frequencies(half)
    freq_const = Tensor(np.broadcast_to(freqs, lead + (half // 2,)).copy())
    parts = []
    for axis_idx in range(2):
        coord = ta.slice_axis(coords, axis=-1, start=axis_idx, stop=axis_idx + 1)
        coord = ta.repeat_axis(coord, axis=-1, times=half // 2)
        phase = ta.multiply(coord, freq_const)
        s = ta.reshape(ta.sin(phase), lead + (half // 2, 1))
        c = ta.reshape(ta.cos(phase), lead + (half // 2, 1))
        parts.append(ta.reshape(ta.concat([s, c], axis=-1), lead + (half,)))
    return ta.concat(parts, axis=-1)


# --------------------------------------------------------------------------
# Parameters
# --------------------------------------------------------------------------


@dataclass
class MsdaStageParams:
    """One deformable-attention stage: generators plus per-head projections."""

    num_heads: int
    num_levels: int
    num_points: int
    channels: int
    off_w: Tensor  # (C, Nh*M*N*2)
    off_b: Tensor  # (Nh*M*N*2,)
    atn_w: Tensor  # (C, Nh*M*N)
    atn_b: Tensor  # (Nh*M*N,)
    val_w: Tensor  # (Nh, C, C/Nh)
    out_w: Tensor  # (Nh, C/Nh, C)


@dataclass
class MsdaParams:
    """Cross-attention parameters for one decoder layer."""

    variant: str
    num_heads: int
    num_levels: int
    num_points: int
    channels: int
    stage: MsdaStageParams | None = None  # vanilla
    stage_ms: MsdaStageParams | None = None  # M levels x 1 point
    stage_sp: MsdaStageParams | None = None  # 1 level x N points
    lin1_w: Tensor | None = None
    lin1_b: Tensor | None = None
    lin2_w: Tensor | None = None
    lin2_b: Tensor | None = None


@dataclass
class SampledValue:
    """Per-query attention output plus the per-head sampling cost."""

    output: Tensor  # (Q, C)
    sample_count: int


def _init_stage(
    rng: np.random.Generator, num_heads: int, num_levels: int, num_points: int, channels: int, sd: float
) -> MsdaStageParams:
    if channels % num_heads != 0:
        raise ContractViolation(f"channels {channels} not divisible by heads {num_heads}")
    head_dim = channels // num_heads
    n_gen = num_heads * num_levels * num_points
    return MsdaStageParams(
        num_heads=num_heads,
        num_levels=num_levels,
        num_points=num_points,
        channels=channels,
        off_w=Tensor(rng.normal(0.0, sd, (channels, n_gen * 2))),
        off_b=Tensor(_default_offset_bias(num_heads, num_levels, num_points)),
        atn_w=Tensor(rng.normal(0.0, sd, (channels, n_gen))),
        atn_b=Tensor(np.zeros(n_gen)),
        val_w=Tensor(rng.normal(0.0, sd, (num_heads, channels, head_dim))),
        out_w=Tensor(rng.normal(0.0, sd, (num_heads, head_dim, channels))),
    )


def _default_offset_bias(num_heads: int, num_levels: int, num_points: int) -> np.ndarray:
    """Spread initial sampling offsets on a small ring per head, deformable-DETR style."""
    angles = np.arange(num_heads) * (2.0 * math.pi / num_heads)
    base = np.stack([np.cos(angles), np.sin(angles)], axis=-1)  # (Nh, 2)
    bias = np.zeros((num_heads, num_levels, num_points, 2))
    for p in range(num_points):
        bias[:, :, p, :] = base[:, None, :] * (p + 1)
    return bias.reshape(-1)


_STAGE_FIELDS = ("off_w", "off_b", "atn_w", "atn_b", "val_w", "out_w")
_LINEAR_NAMES = {"lin1_w": "lin1.w", "lin1_b": "lin1.b", "lin2_w": "lin2.w", "lin2_b": "lin2.b"}


def _stages(variant: str, num_levels: int, num_points: int) -> list[tuple[str, str, int, int]]:
    """(MsdaParams attribute, parameter name, levels, points) of each stage."""
    if variant == VARIANT_VANILLA:
        return [("stage", "stage", num_levels, num_points)]
    if variant == VARIANT_SCALE_THEN_SAMPLE:
        return [("stage_ms", "ms", num_levels, 1), ("stage_sp", "sp", 1, num_points)]
    raise ContractViolation(f"unknown attention variant {variant!r}")


def init_msda_params(
    variant: str,
    num_heads: int,
    num_levels: int,
    num_points: int,
    channels: int,
    seed: int,
    sd: float = 0.02,
) -> MsdaParams:
    rng = substream(seed, "msda")
    params = MsdaParams(variant, num_heads, num_levels, num_points, channels)
    for attr, _, m, n in _stages(variant, num_levels, num_points):
        setattr(params, attr, _init_stage(rng, num_heads, m, n, channels, sd))
    if variant == VARIANT_SCALE_THEN_SAMPLE:
        params.lin1_w = Tensor(rng.normal(0.0, sd, (channels, channels)))
        params.lin1_b = Tensor(np.zeros(channels))
        params.lin2_w = Tensor(rng.normal(0.0, sd, (channels, channels)))
        params.lin2_b = Tensor(np.zeros(channels))
    return params


def named_parameters(params: MsdaParams, prefix: str = "") -> dict[str, Tensor]:
    """Every tensor of `params` under its stable name, e.g. `{prefix}ms.off_w`."""
    out: dict[str, Tensor] = {}
    for attr, name, _, _ in _stages(params.variant, params.num_levels, params.num_points):
        stage = getattr(params, attr)
        for f in _STAGE_FIELDS:
            out[f"{prefix}{name}.{f}"] = getattr(stage, f)
    if params.variant == VARIANT_SCALE_THEN_SAMPLE:
        for attr, name in _LINEAR_NAMES.items():
            out[prefix + name] = getattr(params, attr)
    return out


def params_from_named(
    named: dict[str, Tensor],
    prefix: str,
    variant: str,
    num_heads: int,
    num_levels: int,
    num_points: int,
    channels: int,
) -> MsdaParams:
    """The inverse of `named_parameters`: the MsdaParams held in `named` under `prefix`."""
    params = MsdaParams(variant, num_heads, num_levels, num_points, channels)
    for attr, name, m, n in _stages(variant, num_levels, num_points):
        tensors = {f: named[f"{prefix}{name}.{f}"] for f in _STAGE_FIELDS}
        setattr(params, attr, MsdaStageParams(num_heads, m, n, channels, **tensors))
    if variant == VARIANT_SCALE_THEN_SAMPLE:
        for attr, name in _LINEAR_NAMES.items():
            setattr(params, attr, named[prefix + name])
    return params


# --------------------------------------------------------------------------
# Kernels
# --------------------------------------------------------------------------


def _msda_stage(
    tokens: Tensor, levels: list[Tensor], ref: Tensor, stage: MsdaStageParams, table: np.ndarray
) -> Tensor:
    """Core deformable attention for one stage: tokens (T, C), ref (T, 2)
    normalized, `table` the `ta.level_table` of a pyramid that `levels`
    begin.  Returns the output (T, C)."""
    t_n = tokens.shape[0]
    nh, m, n, c = stage.num_heads, stage.num_levels, stage.num_points, stage.channels
    if len(levels) != m:
        raise ContractViolation(f"msda: pyramid has {len(levels)} levels, params expect {m}")
    if tokens.shape != (t_n, c):
        raise ContractViolation(f"msda: tokens shape {tokens.shape} does not match channels {c}")
    if ref.shape != (t_n, 2):
        raise ContractViolation(f"msda: ref shape {ref.shape} does not match tokens {tokens.shape}")

    off = ta.linear(tokens, stage.off_w, stage.off_b)  # (T, Nh*M*N*2)
    off = ta.reshape(off, (t_n, nh, m, n, 2))
    atn = ta.linear(tokens, stage.atn_w, stage.atn_b)  # (T, Nh*M*N)
    atn = ta.softmax(ta.reshape(atn, (t_n, nh, m * n)), axis=-1)
    weights = ta.reshape(atn, (t_n, nh, m, n))

    # reference points broadcast to every head/point: (T, Nh, N, 2)
    ref_e = ta.repeat_axis(ta.reshape(ref, (t_n, 1, 1, 2)), axis=1, times=nh)
    ref_e = ta.repeat_axis(ref_e, axis=2, times=n)

    pts = []
    for lvl in range(m):
        h_l, w_l = levels[lvl].shape[1], levels[lvl].shape[2]
        off_l = ta.reshape(ta.slice_axis(off, axis=2, start=lvl, stop=lvl + 1), (t_n, nh, n, 2))
        cell = Tensor(np.broadcast_to(np.array([1.0 / h_l, 1.0 / w_l]), (t_n, nh, n, 2)).copy())
        pts.append(ta.add(ref_e, ta.multiply(off_l, cell)))
    # each head's samples, projected and summed with their weights: (Nh, T, C/Nh)
    agg = ta.sample_levels(levels, pts, weights, stage.val_w, table)
    return ta.reduce_sum(ta.matmul(agg, stage.out_w), axis=0)  # (T, C)


def msda(
    tokens: Tensor, levels: list[Tensor], ref: Tensor, params: MsdaParams, table: np.ndarray | None = None
) -> SampledValue:
    """Cross-attention of `params.variant` into the pyramid `levels`.  `table`
    is `ta.level_table(levels)`, built here once per call when None; a caller
    that attends into one pyramid many times builds it once.  Scale then
    sample runs both stages on that table; the multi-sample stage reads
    level 0's rows, which lead it."""
    table = ta.level_table(levels) if table is None else table
    reads = count_samples(params.variant, params.num_levels, params.num_points)
    if params.variant == VARIANT_VANILLA:
        return SampledValue(_msda_stage(tokens, levels, ref, params.stage, table), reads)
    q1 = ta.linear(_msda_stage(tokens, levels, ref, params.stage_ms, table), params.lin1_w, params.lin1_b)
    out_sp = _msda_stage(q1, levels[:1], ref, params.stage_sp, table)
    return SampledValue(ta.add(q1, ta.linear(out_sp, params.lin2_w, params.lin2_b)), reads)


def count_samples(variant: str, num_levels: int, num_points: int) -> int:
    """Feature reads per query per head, summed over the variant's stages:
    M*N for vanilla, M*1 + 1*N for decoupled."""
    if num_levels < 1 or num_points < 1:
        raise ContractViolation(f"count_samples: M={num_levels}, N={num_points} must be >= 1")
    return sum(m * n for _, _, m, n in _stages(variant, num_levels, num_points))


# --------------------------------------------------------------------------
# Wall-clock benchmark
# --------------------------------------------------------------------------


def random_pyramid(channels: int, num_levels: int, h: int, w: int, seed: int) -> list[np.ndarray]:
    rng = substream(seed, "bench.pyramid")
    levels = []
    hh, ww = h, w
    for _ in range(num_levels):
        levels.append(rng.normal(0.0, 1.0, (channels, hh, ww)))
        hh, ww = (hh + 1) // 2, (ww + 1) // 2
    return levels


def benchmark_attention(
    variants: Sequence[str],
    repeats: int = 100,
    channels: int = 256,
    n_heads: int = 8,
    num_levels: int = 3,
    num_points: int = 4,
    queries: int = 1000,
    h: int = 200,
    w: int = 100,
    seed: int = 0,
    warmup: int = 3,
) -> list[dict]:
    """Time each cross-attention variant forward-only (no tape recording).

    Returns one row per variant: variant, M, N, queries, mean_ms, sd_ms,
    sample_count.
    """
    rng = substream(seed, "bench.inputs")
    levels = [Tensor(lvl) for lvl in random_pyramid(channels, num_levels, h, w, seed)]
    tokens = Tensor(rng.normal(0.0, 1.0, (queries, channels)))
    ref = Tensor(rng.uniform(0.05, 0.95, (queries, 2)))
    rows = []
    for variant in variants:
        params = init_msda_params(variant, n_heads, num_levels, num_points, channels, seed)
        for _ in range(warmup):
            msda(tokens, levels, ref, params)
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            msda(tokens, levels, ref, params)
            times.append((time.perf_counter() - t0) * 1000.0)
        arr = np.asarray(times)
        rows.append(
            {
                "variant": variant,
                "M": num_levels,
                "N": num_points,
                "queries": queries,
                "mean_ms": float(arr.mean()),
                "sd_ms": float(arr.std(ddof=1)) if repeats > 1 else 0.0,
                "sample_count": count_samples(variant, num_levels, num_points),
            }
        )
    return rows
