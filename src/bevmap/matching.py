"""Hierarchical bipartite matching and the unstable-matching scores.

Matching cost pairs a focal-style classification term with the minimum
mean-L1 point distance over a ground-truth element's equivalent orderings,
so a reversed polyline or rotated polygon matches as cheaply as the
canonical ordering.  Assignments are minimum-cost one-to-one; ties among
optima are broken toward the lexicographically smallest pair list so runs
are bit-reproducible.  Such ties occur in training: two ground-truth rows
whose costs differ by a constant over two columns cost the same either way
round, and the solver alone may return either.

The stability scores measure, per forward pass, how many ground-truth
elements switch their assigned query between decoder layers (u, layer to
previous layer) and between the first and last layer (u_t).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import BevExtent, MapElement, equivalent_orderings, normalize
from .tensorad import stable_sigmoid

if TYPE_CHECKING:  # losses imports this module
    from .losses import LossConfig


def linear_sum_assignment(cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """scipy's solver, imported on the first call: `scipy.optimize` (with the
    `scipy.spatial` it loads) costs ~27 MB of RSS, and a forward-only run
    never matches."""
    from scipy.optimize import linear_sum_assignment as solve

    return solve(cost)


class MatchingError(ValueError):
    """Contract violation in matching inputs."""


@dataclass
class Assignment:
    """One-to-one GT-to-query pairing; pairs are (gt, query, chosen ordering)."""

    pairs: list[tuple[int, int, int]]
    total_cost: float

    def gt_to_query(self) -> dict[int, int]:
        return {g: q for g, q, _ in self.pairs}


@dataclass
class StabilityReport:
    u_per_layer: list[float]  # layer l vs l-1, for l = 1..L-1
    u_t: float  # last layer vs first layer


@dataclass
class GtTarget:
    """Matching view of one ground-truth element: class plus all orderings."""

    class_id: int
    orderings: np.ndarray  # (n_ord, N_p, 2) normalized coordinates


def gt_targets(elements: list[MapElement], extent: BevExtent) -> list[GtTarget]:
    out = []
    for e in elements:
        pts = normalize(e.points, extent)
        out.append(GtTarget(e.class_id, pts[equivalent_orderings(e)]))
    return out


# --------------------------------------------------------------------------
# Costs
# --------------------------------------------------------------------------


def _focal_class_cost(probs: np.ndarray, class_id: int, cfg: LossConfig) -> np.ndarray:
    """Focal matching cost of predicting `class_id`, per query; probs (Q, n_cls)."""
    eps = 1e-12
    p = probs[:, class_id]
    pos = cfg.focal_alpha * np.power(1.0 - p, cfg.focal_gamma) * (-np.log(p + eps))
    neg = (1.0 - cfg.focal_alpha) * np.power(p, cfg.focal_gamma) * (-np.log(1.0 - p + eps))
    return pos - neg


def cost_matrix(
    pred_logits: np.ndarray,  # (Q, n_cls)
    pred_points: np.ndarray,  # (Q, N_p, 2) normalized
    gts: list[GtTarget],
    cfg: LossConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Full (G, Q) cost matrix plus the argmin ordering per pair."""
    q = pred_points.shape[0]
    g = len(gts)
    probs = stable_sigmoid(np.asarray(pred_logits, dtype=np.float64))
    costs = np.zeros((g, q))
    orderings = np.zeros((g, q), dtype=np.int64)
    for i, gt in enumerate(gts):
        cls = _focal_class_cost(probs, gt.class_id, cfg)  # (Q,)
        # (Q, n_ord): mean L1 against each ordering
        diffs = np.abs(pred_points[:, None, :, :] - gt.orderings[None, :, :, :]).mean(axis=(2, 3))
        orderings[i] = diffs.argmin(axis=1)
        costs[i] = cfg.lambda_cls * cls + cfg.lambda_pts * diffs.min(axis=1)
    return costs, orderings


# --------------------------------------------------------------------------
# Hungarian assignment with deterministic tie-breaking
# --------------------------------------------------------------------------


def _pairs_cost(cost: np.ndarray, pairs: list[tuple[int, int]]) -> float:
    return math.fsum(cost[r, c] for r, c in pairs)


def hungarian(cost: np.ndarray, orderings: np.ndarray | None = None) -> Assignment:
    """Minimum-total-cost one-to-one assignment of min(n, m) pairs.

    Among cost-equal optima the lexicographically smallest pair list (sorted
    by row) is returned.  Totals are compared with exact correctly-rounded
    sums, so the refinement never trades optimality for tie preference.
    """
    cost = np.asarray(cost, dtype=np.float64)
    if cost.ndim != 2:
        raise MatchingError(f"hungarian: cost must be 2-d, got shape {cost.shape}")
    if not np.isfinite(cost).all():
        raise MatchingError("hungarian: cost matrix contains non-finite entries")
    n, m = cost.shape
    if n == 0 or m == 0:
        return Assignment([], 0.0)
    rows, cols = linear_sum_assignment(cost)
    optimum = math.fsum(cost[rows, cols])

    fixed: list[tuple[int, int]] = []
    fixed_costs: list[float] = []
    used_cols: set[int] = set()
    k = min(n, m)
    for r in range(n):
        if len(fixed) == k:
            break
        remaining_rows = list(range(r + 1, n))
        chosen = None
        for c in range(m):
            if c in used_cols:
                continue
            need = k - len(fixed) - 1
            if need > 0:
                free_cols = [j for j in range(m) if j not in used_cols and j != c]
                if len(remaining_rows) < need or len(free_cols) < need:
                    continue
                # exact lower bound on any completion: per-row minima over free
                # columns; prunes almost every candidate away from ties
                sub = cost[np.ix_(remaining_rows, free_cols)]
                row_minima = np.sort(sub.min(axis=1))[:need]
                bound = math.fsum(fixed_costs + [cost[r, c]] + row_minima.tolist())
                if bound > optimum:
                    continue
                sr, sc = linear_sum_assignment(sub)
                rest = [(remaining_rows[i], free_cols[j]) for i, j in zip(sr, sc)]
            else:
                rest = []
            total = math.fsum(fixed_costs + [cost[r, c]] + [cost[i, j] for i, j in rest])
            if total == optimum:
                chosen = c
                break
        if chosen is None:
            # every optimal assignment skips this row
            if n - r - 1 < k - len(fixed):
                break  # defensive; cannot complete without this row
            continue
        fixed.append((r, chosen))
        fixed_costs.append(float(cost[r, chosen]))
        used_cols.add(chosen)

    if len(fixed) != k or _pairs_cost(cost, fixed) != optimum:
        # fall back to the solver's own optimum, sorted for determinism
        fixed = sorted(zip(rows.tolist(), cols.tolist()))
    pairs = [
        (r, c, int(orderings[r, c]) if orderings is not None else 0) for r, c in fixed
    ]
    return Assignment(pairs, _pairs_cost(cost, [(r, c) for r, c, _ in pairs]))


def match_layer(
    pred_logits: np.ndarray,
    pred_points: np.ndarray,
    gts: list[GtTarget],
    cfg: LossConfig,
) -> Assignment:
    """Cost matrix + Hungarian for one decoder layer's predictions."""
    if not gts:
        return Assignment([], 0.0)
    costs, orderings = cost_matrix(pred_logits, pred_points, gts, cfg)
    return hungarian(costs, orderings)


# --------------------------------------------------------------------------
# Stability scores
# --------------------------------------------------------------------------


def query_flips(a: dict[int, int], b: dict[int, int]) -> int:
    """How many GTs two gt-to-query maps assign differently; a GT that one
    map lacks counts as assigned differently."""
    return sum(1 for g in set(a) | set(b) if a.get(g, -1) != b.get(g, -1))


def unstable_scores(per_layer: list[Assignment]) -> StabilityReport:
    """u per layer transition and u_t between first and last layer.

    The denominator is the ground-truth count: only matched queries have a
    GT whose assignment can change.  An empty GT set scores zero everywhere.
    """
    if not per_layer:
        raise MatchingError("unstable_scores: need at least one layer assignment")
    gt_counts = {len(a.pairs) for a in per_layer}
    gt_sets = [frozenset(g for g, _, _ in a.pairs) for a in per_layer]
    if len(gt_counts) != 1 or len(set(gt_sets)) != 1:
        raise MatchingError("unstable_scores: assignments cover different GT sets across layers")
    num_layers = len(per_layer)
    num_gt = len(per_layer[0].pairs)
    maps = [a.gt_to_query() for a in per_layer]

    def changed(a: dict[int, int], b: dict[int, int]) -> float:
        return query_flips(a, b) / num_gt if num_gt else 0.0

    u_per_layer = [changed(maps[i - 1], maps[i]) for i in range(1, num_layers)]
    u_t = changed(maps[0], maps[-1]) if num_layers > 1 else 0.0
    return StabilityReport(u_per_layer, u_t)
