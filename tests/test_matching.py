import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bevmap import matching as mt
from bevmap.geometry import BevExtent, CLASS_DIVIDER, KIND_POLYLINE, MapElement, normalize
from bevmap.losses import LossConfig
from bevmap.matching import (
    Assignment,
    MatchingError,
    cost_matrix,
    gt_targets,
    hungarian,
    match_layer,
    unstable_scores,
)
from bevmap.tensorad import stable_sigmoid

EXT = BevExtent(0.0, 1.0, 0.0, 1.0, 4, 4)


def pair_cost_with_ordering(pred_logits, pred_points, gt, cfg):
    """Matching cost of one (query, GT) pair and the GT ordering that attains
    it, one pair at a time: the per-pair reference for `cost_matrix`."""
    probs = stable_sigmoid(np.asarray(pred_logits, dtype=np.float64)[None, :])
    cls = float(mt._focal_class_cost(probs, gt.class_id, cfg)[0])
    diffs = np.abs(pred_points[None, :, :] - gt.orderings).mean(axis=(1, 2))
    ordering = int(diffs.argmin())
    return cfg.lambda_cls * cls + cfg.lambda_pts * float(diffs[ordering]), ordering


def brute_force_assignment(cost):
    """Exhaustive-permutation minimum total cost; oracle for small matrices."""
    cost = np.asarray(cost, dtype=np.float64)
    n, m = cost.shape
    best = math.inf
    if n <= m:
        for perm in permutations(range(m), n):
            best = min(best, math.fsum(cost[i, perm[i]] for i in range(n)))
    else:
        for perm in permutations(range(n), m):
            best = min(best, math.fsum(cost[perm[j], j] for j in range(m)))
    return best


def _gt_line(points):
    e = MapElement(CLASS_DIVIDER, KIND_POLYLINE, np.asarray(points, dtype=np.float64))
    return gt_targets([e], EXT)[0]


# --------------------------------------------------------------------------
# pair cost
# --------------------------------------------------------------------------

def test_exact_match_has_zero_point_term():
    gt = _gt_line([[0.1, 0.1], [0.9, 0.9]])
    cfg = LossConfig(lambda_cls=0.0, lambda_pts=5.0)
    cost = pair_cost_with_ordering(np.zeros(3), gt.orderings[0], gt, cfg)[0]
    assert cost == 0.0


def test_reversed_gt_same_cost():
    gt = _gt_line([[0.1, 0.1], [0.9, 0.3]])
    gt_rev = _gt_line([[0.9, 0.3], [0.1, 0.1]])
    rng = np.random.default_rng(0)
    pred_pts = rng.uniform(0, 1, (2, 2))
    logits = rng.normal(size=3)
    cfg = LossConfig()
    assert pair_cost_with_ordering(logits, pred_pts, gt, cfg)[0] == pytest.approx(
        pair_cost_with_ordering(logits, pred_pts, gt_rev, cfg)[0], abs=1e-15
    )


def test_offset_polyline_point_term():
    gt = _gt_line([[0.2, 0.5], [0.8, 0.5]])
    pred = gt.orderings[0] + np.array([0.1, 0.0])
    cfg = LossConfig(lambda_cls=0.0, lambda_pts=1.0)
    cost, ordering = pair_cost_with_ordering(np.zeros(3), pred, gt, cfg)
    # mean L1 over points and coordinates: mean(|0.1|, |0|) = 0.05 per point
    assert cost == pytest.approx(0.05, abs=1e-12)
    assert ordering == 0


def test_cost_matrix_matches_pair_cost():
    rng = np.random.default_rng(1)
    gts = [_gt_line(rng.uniform(0, 1, (4, 2))) for _ in range(3)]
    logits = rng.normal(size=(5, 3))
    points = rng.uniform(0, 1, (5, 4, 2))
    cfg = LossConfig()
    costs, orderings = cost_matrix(logits, points, gts, cfg)
    for i, gt in enumerate(gts):
        for q in range(5):
            expected, expected_ord = pair_cost_with_ordering(logits[q], points[q], gt, cfg)
            assert costs[i, q] == pytest.approx(expected, abs=1e-12)
            assert orderings[i, q] == expected_ord


# --------------------------------------------------------------------------
# hungarian
# --------------------------------------------------------------------------

def test_one_by_one():
    a = hungarian(np.array([[3.5]]))
    assert a.pairs == [(0, 0, 0)]
    assert a.total_cost == 3.5


def test_dominant_diagonal():
    cost = np.full((3, 3), 10.0)
    np.fill_diagonal(cost, 0.1)
    a = hungarian(cost)
    assert [(g, q) for g, q, _ in a.pairs] == [(0, 0), (1, 1), (2, 2)]
    assert a.total_cost == pytest.approx(0.3)
    assert a.total_cost == brute_force_assignment(cost)


def test_random_square_vs_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(200):
        cost = rng.uniform(0, 1, (6, 6))
        assert hungarian(cost).total_cost == brute_force_assignment(cost)


def test_random_rectangular_vs_brute_force():
    rng = np.random.default_rng(3)
    for _ in range(50):
        cost = rng.uniform(0, 1, (7, 5))
        a = hungarian(cost)
        assert len(a.pairs) == 5
        assert a.total_cost == brute_force_assignment(cost)
    for _ in range(50):
        cost = rng.uniform(0, 1, (4, 6))
        a = hungarian(cost)
        assert len(a.pairs) == 4
        assert a.total_cost == brute_force_assignment(cost)


@given(st.integers(min_value=1, max_value=5), st.integers(min_value=1, max_value=5), st.integers())
@settings(max_examples=40, deadline=None)
def test_hungarian_optimal_any_shape(n, m, seed):
    rng = np.random.default_rng(abs(seed) % 2**32)
    cost = rng.uniform(-1, 1, (n, m))
    assert hungarian(cost).total_cost == brute_force_assignment(cost)


def test_tie_breaking_lexicographic():
    # all-equal costs: the identity prefix is the lexicographically smallest
    a = hungarian(np.ones((3, 5)))
    assert [(g, q) for g, q, _ in a.pairs] == [(0, 0), (1, 1), (2, 2)]
    # two optimal assignments; (0,0),(1,1) beats (0,1),(1,0)
    cost = np.array([[1.0, 1.0], [1.0, 1.0]])
    assert [(g, q) for g, q, _ in hungarian(cost).pairs] == [(0, 0), (1, 1)]
    # rows differing by a constant tie on the swapped columns; the solver alone
    # returns (0,2),(1,1), the tie-break the lexicographically smaller list
    cost = np.array([[4.0, 3.5, 1.0, 4.5], [6.0, 5.5, 3.0, 6.5]])
    assert [(g, q) for g, q, _ in hungarian(cost).pairs] == [(0, 1), (1, 2)]


def test_non_finite_rejected():
    with pytest.raises(MatchingError, match="finite"):
        hungarian(np.array([[1.0, np.inf]]))


def test_match_layer_records_orderings():
    gt = _gt_line([[0.1, 0.5], [0.9, 0.5]])
    logits = np.zeros((2, 3))
    points = np.stack([gt.orderings[1], np.full((2, 2), 0.05)])  # query 0 = reversed gt
    a = match_layer(logits, points, [gt], LossConfig())
    assert len(a.pairs) == 1
    g, q, ordering = a.pairs[0]
    assert (g, q) == (0, 0)
    assert ordering == 1  # reversal is the minimizing ordering


# --------------------------------------------------------------------------
# stability scores
# --------------------------------------------------------------------------

def _assign(pairs):
    return Assignment([(g, q, 0) for g, q in pairs], 0.0)


def test_identical_assignments_stable():
    layers = [_assign([(0, 3), (1, 5)])] * 4
    report = unstable_scores(layers)
    assert report.u_per_layer == [0.0, 0.0, 0.0]
    assert report.u_t == 0.0


def test_single_change_is_half():
    layers = [_assign([(0, 3), (1, 5)]), _assign([(0, 3), (1, 6)])]
    report = unstable_scores(layers)
    assert report.u_per_layer == [0.5]
    assert report.u_t == 0.5


def test_change_and_revert():
    layers = [
        _assign([(0, 1), (1, 2)]),
        _assign([(0, 2), (1, 1)]),
        _assign([(0, 1), (1, 2)]),
    ]
    report = unstable_scores(layers)
    assert report.u_per_layer == [1.0, 1.0]
    assert report.u_t == 0.0  # last layer matches the first


def test_empty_gt_scores_zero():
    report = unstable_scores([_assign([]), _assign([])])
    assert report.u_per_layer == [0.0]
    assert report.u_t == 0.0


def test_inconsistent_gt_sets_rejected():
    with pytest.raises(MatchingError, match="GT"):
        unstable_scores([_assign([(0, 1)]), _assign([(0, 1), (1, 2)])])


def test_relabeling_queries_consistently_is_invariant():
    layers = [_assign([(0, 1), (1, 2)]), _assign([(0, 2), (1, 1)])]
    base = unstable_scores(layers)
    relabel = {1: 9, 2: 7}
    relabeled = [
        _assign([(g, relabel[q]) for g, q, _ in a.pairs]) for a in layers
    ]
    after = unstable_scores(relabeled)
    assert after.u_per_layer == base.u_per_layer
    assert after.u_t == base.u_t
