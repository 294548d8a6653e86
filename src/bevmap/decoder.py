"""Map-element decoder with prior reference points and iterative refinement.

Queries are hierarchical: an instance embedding plus a point embedding,
combined by broadcast addition into one token per (instance, point).  The
first `n_prior` instances start from a prior bank of clustered shapes (held
constant); the rest start from learnable logits squashed through a sigmoid.

Each layer runs, in order: a per-layer linear over the sinusoidal encoding
of the reference points (query position), decoupled self-attention (across
instances on point-averaged tokens, then across points within each
instance), deformable cross-attention into the BEV pyramid, an FFN, and
classification / point-regression heads.  Regressed offsets are added in
inverse-sigmoid space, and the refined points become both the layer's
prediction and the next layer's reference points with gradients stopped
between layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensorad as ta
from .attention import (
    ALL_VARIANTS,
    VARIANT_SCALE_THEN_SAMPLE,
    init_msda_params,
    msda,
    named_parameters,
    params_from_named,
    sinusoidal_pe,
)
from .priors import PriorBank
from .rngutil import substream
from .tensorad import ContractViolation, Tensor


class NumericalError(RuntimeError):
    """A decoder stage produced non-finite values."""


@dataclass
class DecoderConfig:
    n_instances: int = 50
    n_prior: int = 9
    n_points: int = 20
    channels: int = 256
    n_layers: int = 6
    n_heads: int = 8
    n_classes: int = 3
    ffn_dim: int = 512
    head_hidden: int = 128
    variant: str = VARIANT_SCALE_THEN_SAMPLE
    num_levels: int = 3
    num_points_attn: int = 4

    def __post_init__(self):
        for name in ("n_instances", "n_points", "channels", "n_layers", "n_heads", "n_classes", "ffn_dim",
                     "head_hidden", "num_levels", "num_points_attn"):
            if getattr(self, name) < 1:
                raise ContractViolation(f"{name} must be >= 1, got {getattr(self, name)}")
        if not (0 <= self.n_prior <= self.n_instances):
            raise ContractViolation(f"n_prior {self.n_prior} must be in [0, {self.n_instances}]")
        if self.channels % self.n_heads != 0 or self.channels % 4 != 0:
            raise ContractViolation("channels must be divisible by n_heads and by 4")
        if self.variant not in ALL_VARIANTS:
            raise ContractViolation(f"unknown attention variant {self.variant!r}")


@dataclass
class LayerOutput:
    class_logits: Tensor  # (N_I, n_classes)
    point_coords: Tensor  # (N_I, N_P, 2) normalized; also the refined references
    query_state: Tensor  # (N_I, N_P, C)


# --------------------------------------------------------------------------
# Parameter initialization
# --------------------------------------------------------------------------


def init_model_params(
    cfg: DecoderConfig,
    seed: int,
    init_sd: float = 0.02,
) -> dict[str, Tensor]:
    """Model parameters as a flat name -> Tensor map.

    All weights are Gaussian, biases zero; the regression head's final layer
    is zero-initialized so layer 0 predicts its reference points verbatim,
    which is what makes priors visible to the first matching step.  Learnable
    reference logits are drawn so their sigmoids spread over the extent.
    """
    rng = substream(seed, "model")
    c = cfg.channels
    params: dict[str, Tensor] = {
        "q_ins": Tensor(rng.normal(0.0, init_sd, (cfg.n_instances, c))),
        "q_pts": Tensor(rng.normal(0.0, init_sd, (cfg.n_points, c))),
    }
    # Uniform positions pushed through the inverse sigmoid; rows beyond
    # n_prior are the ones actually consumed in prior mode.
    uniform = rng.uniform(0.05, 0.95, (cfg.n_instances, cfg.n_points, 2))
    logits = np.log(uniform) - np.log1p(-uniform)
    params["ref_logits"] = Tensor(logits[cfg.n_prior :])

    def linear(name: str, n_in: int, n_out: int, zero: bool = False) -> None:
        w = np.zeros((n_in, n_out)) if zero else rng.normal(0.0, init_sd, (n_in, n_out))
        params[f"{name}.w"] = Tensor(w)
        params[f"{name}.b"] = Tensor(np.zeros(n_out))

    def attn_block(name: str) -> None:
        for proj in ("q", "k", "v", "o"):
            linear(f"{name}.{proj}", c, c)
        params[f"{name}.ln_g"] = Tensor(np.ones(c))
        params[f"{name}.ln_b"] = Tensor(np.zeros(c))

    for layer in range(cfg.n_layers):
        p = f"layers.{layer}"
        linear(f"{p}.pe", c, c)
        attn_block(f"{p}.self_inst")
        attn_block(f"{p}.self_pts")
        cross = init_msda_params(
            cfg.variant, cfg.n_heads, cfg.num_levels, cfg.num_points_attn, c,
            seed=int(substream(seed, f"model.cross.{layer}").integers(2**63)),
            sd=init_sd,
        )
        params.update(named_parameters(cross, prefix=f"{p}.cross."))
        params[f"{p}.cross_ln_g"] = Tensor(np.ones(c))
        params[f"{p}.cross_ln_b"] = Tensor(np.zeros(c))
        linear(f"{p}.ffn1", c, cfg.ffn_dim)
        linear(f"{p}.ffn2", cfg.ffn_dim, c)
        params[f"{p}.ffn_ln_g"] = Tensor(np.ones(c))
        params[f"{p}.ffn_ln_b"] = Tensor(np.zeros(c))
        linear(f"{p}.cls1", c, cfg.head_hidden)
        linear(f"{p}.cls2", cfg.head_hidden, cfg.n_classes)
        linear(f"{p}.reg1", c, cfg.head_hidden)
        linear(f"{p}.reg2", cfg.head_hidden, 2, zero=True)
    return params


# --------------------------------------------------------------------------
# Query assembly and reference initialization
# --------------------------------------------------------------------------


def assemble_queries(q_ins: Tensor, q_pts: Tensor) -> Tensor:
    """Broadcast-combine instance and point embeddings: q[i, p] = q_ins[i] + q_pts[p]."""
    if q_ins.shape[-1] != q_pts.shape[-1]:
        raise ContractViolation(
            f"assemble_queries: channel mismatch {q_ins.shape} vs {q_pts.shape}"
        )
    n_i, c = q_ins.shape
    n_p = q_pts.shape[0]
    ins = ta.repeat_axis(ta.reshape(q_ins, (n_i, 1, c)), axis=1, times=n_p)
    pts = ta.repeat_axis(ta.reshape(q_pts, (1, n_p, c)), axis=0, times=n_i)
    return ta.add(ins, pts)


def check_bank(bank: PriorBank | None, cfg: DecoderConfig) -> None:
    """A ContractViolation unless `bank` holds the n_prior shapes of n_points
    points that `cfg` needs; with n_prior = 0 any bank, or none, will do."""
    if cfg.n_prior == 0:
        return
    if bank is None:
        raise ContractViolation("decoder configured with priors but no bank supplied")
    if bank.n_pri < cfg.n_prior:
        raise ContractViolation(f"prior bank holds {bank.n_pri} shapes, decoder needs {cfg.n_prior}")
    if bank.n_p != cfg.n_points:
        raise ContractViolation(f"prior bank shapes have {bank.n_p} points, decoder expects {cfg.n_points}")


def init_reference_points(
    bank: PriorBank | None,
    cfg: DecoderConfig,
    params: dict[str, Tensor],
) -> Tensor:
    """Layer-0 reference points, (N_I, N_P, 2) normalized: bank shapes verbatim
    for the first n_prior instances (constants, no gradient), sigmoid of
    learnable logits for the rest."""
    check_bank(bank, cfg)
    logits = params["ref_logits"]
    expected = (cfg.n_instances - cfg.n_prior, cfg.n_points, 2)
    if logits.shape != expected:
        raise ContractViolation(f"ref_logits shape {logits.shape}, expected {expected}")
    learnable = ta.sigmoid(logits)
    if cfg.n_prior == 0:
        return learnable
    prior = Tensor(np.stack([bank.priors[i].points for i in range(cfg.n_prior)]))
    return ta.concat([prior, learnable], axis=0)


# --------------------------------------------------------------------------
# Layer building blocks
# --------------------------------------------------------------------------


def _mha(
    q_in: Tensor, k_in: Tensor, v_in: Tensor, params: dict[str, Tensor], prefix: str, n_heads: int
) -> Tensor:
    """Multi-head attention over (B, T, C) token sets."""
    b, t, c = q_in.shape
    tk = k_in.shape[1]
    d = c // n_heads

    def split(x: Tensor, length: int) -> Tensor:
        return ta.transpose(ta.reshape(x, (b, length, n_heads, d)), (0, 2, 1, 3))

    q = split(ta.linear(q_in, params[f"{prefix}.q.w"], params[f"{prefix}.q.b"]), t)
    k = split(ta.linear(k_in, params[f"{prefix}.k.w"], params[f"{prefix}.k.b"]), tk)
    v = split(ta.linear(v_in, params[f"{prefix}.v.w"], params[f"{prefix}.v.b"]), tk)
    scores = ta.scale(ta.matmul(q, ta.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(d))
    attn = ta.softmax(scores, axis=-1)
    mixed = ta.reshape(ta.transpose(ta.matmul(attn, v), (0, 2, 1, 3)), (b, t, c))
    return ta.linear(mixed, params[f"{prefix}.o.w"], params[f"{prefix}.o.b"])


def _check_finite(stage: str, x: Tensor) -> None:
    if not np.isfinite(x.values).all():
        raise NumericalError(f"non-finite values after stage {stage!r}")


# --------------------------------------------------------------------------
# Decoder layer and forward pass
# --------------------------------------------------------------------------


def decoder_layer(
    query_state: Tensor,
    ref: Tensor,
    pyramid_levels: list[Tensor],
    params: dict[str, Tensor],
    cfg: DecoderConfig,
    layer: int,
    table: np.ndarray | None = None,
) -> LayerOutput:
    p = f"layers.{layer}"
    n_i, n_p, c = query_state.shape

    q_pos = ta.linear(sinusoidal_pe(ref, c), params[f"{p}.pe.w"], params[f"{p}.pe.b"])
    _check_finite("query position embedding", q_pos)
    q = query_state

    # instance-level self-attention on point-averaged tokens
    qp = ta.add(q, q_pos)
    inst_qk = ta.reshape(ta.reduce_mean(qp, axis=1), (1, n_i, c))  # one batch of N_I tokens
    inst_v = ta.reshape(ta.reduce_mean(q, axis=1), (1, n_i, c))
    inst_out = _mha(inst_qk, inst_qk, inst_v, params, f"{p}.self_inst", cfg.n_heads)
    inst_out = ta.repeat_axis(ta.reshape(inst_out, (n_i, 1, c)), axis=1, times=n_p)
    q = ta.layer_norm(ta.add(q, inst_out), params[f"{p}.self_inst.ln_g"], params[f"{p}.self_inst.ln_b"])
    _check_finite("instance self-attention", q)

    # point-level self-attention within each instance (batched over instances)
    qp = ta.add(q, q_pos)
    pts_out = _mha(qp, qp, q, params, f"{p}.self_pts", cfg.n_heads)
    q = ta.layer_norm(ta.add(q, pts_out), params[f"{p}.self_pts.ln_g"], params[f"{p}.self_pts.ln_b"])
    _check_finite("point self-attention", q)

    # deformable cross-attention into the BEV pyramid, one reference per point
    qp = ta.add(q, q_pos)
    tokens = ta.reshape(qp, (n_i * n_p, c))
    ref_flat = ta.reshape(ref, (n_i * n_p, 2))
    cross_params = params_from_named(
        params, f"{p}.cross.", cfg.variant, cfg.n_heads, cfg.num_levels, cfg.num_points_attn, cfg.channels
    )
    cross = msda(tokens, pyramid_levels, ref_flat, cross_params, table)
    cross_out = ta.reshape(cross.output, (n_i, n_p, c))
    q = ta.layer_norm(ta.add(q, cross_out), params[f"{p}.cross_ln_g"], params[f"{p}.cross_ln_b"])
    _check_finite("cross-attention", q)

    hidden = ta.relu(ta.linear(q, params[f"{p}.ffn1.w"], params[f"{p}.ffn1.b"]))
    ffn_out = ta.linear(hidden, params[f"{p}.ffn2.w"], params[f"{p}.ffn2.b"])
    q = ta.layer_norm(ta.add(q, ffn_out), params[f"{p}.ffn_ln_g"], params[f"{p}.ffn_ln_b"])
    _check_finite("feed-forward", q)

    inst_state = ta.reduce_mean(q, axis=1)  # class per instance from pooled point states
    cls_hidden = ta.relu(ta.linear(inst_state, params[f"{p}.cls1.w"], params[f"{p}.cls1.b"]))
    class_logits = ta.linear(cls_hidden, params[f"{p}.cls2.w"], params[f"{p}.cls2.b"])

    reg_hidden = ta.relu(ta.linear(q, params[f"{p}.reg1.w"], params[f"{p}.reg1.b"]))
    offsets = ta.linear(reg_hidden, params[f"{p}.reg2.w"], params[f"{p}.reg2.b"])
    refined = ta.sigmoid(ta.add(ta.inverse_sigmoid(ref), offsets))
    _check_finite("point regression", refined)

    return LayerOutput(class_logits=class_logits, point_coords=refined, query_state=q)


def forward(
    params: dict[str, Tensor],
    bank: PriorBank | None,
    pyramid_levels: list[Tensor],
    cfg: DecoderConfig,
    frozen_references: list[np.ndarray] | None = None,
) -> list[LayerOutput]:
    """Run all decoder layers; gradients are stopped on references between layers.

    `frozen_references` substitutes fixed arrays for the detached inter-layer
    references (entry i feeds layer i+1).  Finite-difference checks need it:
    perturbing a parameter must not leak through the stopped path, which is
    exactly what freezing the references at their base values guarantees.
    """
    reference = init_reference_points(bank, cfg, params)
    q = assemble_queries(params["q_ins"], params["q_pts"])
    table = ta.level_table(pyramid_levels)  # every layer's cross-attention reads it
    outputs: list[LayerOutput] = []
    for layer in range(cfg.n_layers):
        out = decoder_layer(q, reference, pyramid_levels, params, cfg, layer, table)
        outputs.append(out)
        q = out.query_state
        if frozen_references is not None and layer < cfg.n_layers - 1:
            reference = Tensor(frozen_references[layer])
        else:
            reference = out.point_coords.detach()
    return outputs
