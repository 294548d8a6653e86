"""Training losses: discriminative embedding loss, focal classification,
matched point regression, and their per-layer combination.

The discriminative loss pulls each instance's cell embeddings toward the
instance mean once they stray past the variance margin, and pushes distinct
instance means apart up to the distance margin:

    L_var  = (1/K) sum_k (1/p_k) sum_cells [ ||mu_k - e|| - delta_v ]_+^2
    L_dist = (1/(K(K-1))) sum_{i != j} [ delta_d - ||mu_i - mu_j|| ]_+^2

With fewer than two instances L_dist is zero; an empty mask scores zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import tensorad as ta
from .matching import Assignment, GtTarget, match_layer
from .synth import InstanceMask
from .tensorad import Tensor


class LossConfigError(ValueError):
    pass


@dataclass
class LossConfig:
    lambda_var: float = 1.0
    lambda_dist: float = 1.0
    delta_v: float = 0.5
    delta_d: float = 3.0
    lambda_cls: float = 2.0
    lambda_pts: float = 5.0
    lambda_disc: float = 1.0
    focal_alpha: float = 0.25
    focal_gamma: float = 2.0

    def __post_init__(self):
        weights = (self.lambda_var, self.lambda_dist, self.lambda_cls, self.lambda_pts, self.lambda_disc)
        if not all(0 <= w < math.inf for w in weights):
            raise LossConfigError(f"loss weights must be finite numbers >= 0, got {weights}")
        if not 0 <= self.delta_v < math.inf:
            raise LossConfigError(f"delta_v must be a finite number >= 0, got {self.delta_v!r}")
        if not 2.0 * self.delta_v < self.delta_d < math.inf:
            raise LossConfigError(
                f"delta_d ({self.delta_d}) must exceed 2 * delta_v ({self.delta_v}) for a usable margin"
            )
        if not 0 <= self.focal_alpha <= 1:
            raise LossConfigError(f"focal_alpha must be in [0, 1], got {self.focal_alpha!r}")
        if not 0 <= self.focal_gamma < math.inf:
            raise LossConfigError(f"focal_gamma must be a finite number >= 0, got {self.focal_gamma!r}")


# --------------------------------------------------------------------------
# Discriminative embedding loss
# --------------------------------------------------------------------------


def discriminative_loss(embeddings: Tensor, mask: InstanceMask | np.ndarray, cfg: LossConfig) -> Tensor:
    """Variance + distance loss over a (C, H, W) embedding map and instance ids."""
    ids = mask.ids if isinstance(mask, InstanceMask) else np.asarray(mask)
    c = embeddings.shape[0]
    if embeddings.shape[1:] != ids.shape:
        raise LossConfigError(
            f"discriminative_loss: embeddings {embeddings.shape} vs mask {ids.shape}"
        )
    flat = ta.reshape(embeddings, (c, ids.size))
    ids_flat = ids.reshape(-1)
    instance_ids = [k for k in np.unique(ids_flat) if k != 0]
    k_count = len(instance_ids)
    if k_count == 0:
        return Tensor(0.0)

    var_terms = []
    means = []
    for k in instance_ids:
        cells = np.flatnonzero(ids_flat == k)
        emb_k = ta.gather(flat, cells, axis=1)  # (C, p_k)
        mu_k = ta.reduce_mean(emb_k, axis=1, keepdims=True)  # (C, 1)
        means.append(mu_k)
        diff = ta.subtract(emb_k, ta.repeat_axis(mu_k, axis=1, times=cells.size))
        dist = ta.sqrt(ta.reduce_sum(ta.multiply(diff, diff), axis=0))  # (p_k,)
        hinged = ta.squared_hinge(ta.subtract(dist, Tensor(np.full(dist.shape, float(cfg.delta_v)))))
        var_terms.append(ta.reduce_mean(hinged))
    l_var = ta.scale(ta.reduce_sum(ta.concat([ta.reshape(t, (1,)) for t in var_terms], axis=0)), 1.0 / k_count)

    if k_count < 2:
        l_dist = Tensor(0.0)
    else:
        mu = ta.concat(means, axis=1)  # (C, K)
        left, right = zip(*[(i, j) for i in range(k_count) for j in range(k_count) if i != j])
        diff = ta.subtract(ta.gather(mu, list(left), axis=1), ta.gather(mu, list(right), axis=1))
        dist = ta.sqrt(ta.reduce_sum(ta.multiply(diff, diff), axis=0))
        hinged = ta.squared_hinge(ta.scale(ta.subtract(dist, Tensor(np.full(dist.shape, float(cfg.delta_d)))), -1.0))
        l_dist = ta.scale(ta.reduce_sum(hinged), 1.0 / (k_count * (k_count - 1)))

    return ta.add(ta.scale(l_var, cfg.lambda_var), ta.scale(l_dist, cfg.lambda_dist))


# --------------------------------------------------------------------------
# Detection losses
# --------------------------------------------------------------------------


def focal_classification_loss(
    logits: Tensor, target_classes: np.ndarray, cfg: LossConfig
) -> Tensor:
    """Sigmoid focal loss over all queries; -1 targets mean background.

    Normalized by the number of matched queries (at least one).
    """
    q, n_cls = logits.shape
    onehot = np.zeros((q, n_cls))
    matched = 0
    for i, t in enumerate(target_classes):
        if t >= 0:
            onehot[i, t] = 1.0
            matched += 1
    y = Tensor(onehot)
    alpha_t = Tensor(cfg.focal_alpha * onehot + (1.0 - cfg.focal_alpha) * (1.0 - onehot))
    p = ta.sigmoid(logits)
    # stable binary CE from logits: y*softplus(-x) + (1-y)*softplus(x)
    ce = ta.add(
        ta.multiply(y, ta.softplus(ta.scale(logits, -1.0))),
        ta.multiply(Tensor(1.0 - onehot), ta.softplus(logits)),
    )
    p_t = ta.add(ta.multiply(p, y), ta.multiply(ta.subtract(Tensor(np.ones_like(onehot)), p), Tensor(1.0 - onehot)))
    mod = ta.power(ta.subtract(Tensor(np.ones_like(onehot)), p_t), cfg.focal_gamma)
    loss = ta.reduce_sum(ta.multiply(alpha_t, ta.multiply(mod, ce)))
    return ta.scale(loss, 1.0 / max(1, matched))


def point_l1_loss(points: Tensor, assignment: Assignment, gts: list[GtTarget]) -> Tensor:
    """Mean L1 between matched predicted points and the chosen GT ordering."""
    if not assignment.pairs:
        return Tensor(0.0)
    query_idx = [q for _, q, _ in assignment.pairs]
    targets = np.stack([gts[g].orderings[o] for g, _, o in assignment.pairs])
    pred = ta.gather(points, query_idx, axis=0)
    return ta.reduce_mean(ta.absolute(ta.subtract(pred, Tensor(targets))))


def total_loss(
    layer_outputs,
    gts: list[GtTarget],
    embeddings: Tensor | None,
    mask: InstanceMask | None,
    cfg: LossConfig,
    assignments: list[Assignment] | None = None,
) -> tuple[Tensor, dict[str, float], list[Assignment]]:
    """Sum of per-layer detection losses plus the discriminative term.

    Assignments are recomputed per layer from the current predictions unless
    supplied.  Returns (loss, per-term breakdown, per-layer assignments).
    """
    if assignments is None:
        assignments = [
            match_layer(out.class_logits.values, out.point_coords.values, gts, cfg) for out in layer_outputs
        ]

    n_queries = layer_outputs[0].class_logits.shape[0]
    cls_terms = []
    pts_terms = []
    for out, assignment in zip(layer_outputs, assignments):
        targets = np.full(n_queries, -1, dtype=np.int64)
        for g, q, _ in assignment.pairs:
            targets[q] = gts[g].class_id
        cls_terms.append(focal_classification_loss(out.class_logits, targets, cfg))
        pts_terms.append(point_l1_loss(out.point_coords, assignment, gts))

    def stack_sum(terms):
        return ta.reduce_sum(ta.concat([ta.reshape(t, (1,)) for t in terms], axis=0))

    loss_cls = ta.scale(stack_sum(cls_terms), cfg.lambda_cls)
    loss_pts = ta.scale(stack_sum(pts_terms), cfg.lambda_pts)
    if embeddings is not None and mask is not None:
        loss_disc = ta.scale(discriminative_loss(embeddings, mask, cfg), cfg.lambda_disc)
    else:
        loss_disc = Tensor(0.0)
    total = ta.add(ta.add(loss_cls, loss_pts), loss_disc)
    breakdown = {
        "loss_total": total.item(),
        "loss_cls": loss_cls.item(),
        "loss_pts": loss_pts.item(),
        "loss_disc": loss_disc.item(),
    }
    return total, breakdown, assignments
