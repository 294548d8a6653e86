import numpy as np
import pytest

from bevmap import evaluate as ev
from bevmap.evaluate import (
    CHAMFER_THRESHOLDS,
    EvalReport,
    Prediction,
    _ap_pooled,
    evaluate,
    predictions_from_output,
    report_to_csv_rows,
    report_to_dict,
)
from bevmap.geometry import (
    BevExtent,
    CLASS_BOUNDARY,
    CLASS_DIVIDER,
    CLASS_PED_CROSSING,
    KIND_POLYLINE,
    MapElement,
    chamfer,
)


def _line(x0, cid=CLASS_DIVIDER, n=5):
    pts = np.stack([np.full(n, x0), np.linspace(-3, 3, n)], axis=1)
    return MapElement(cid, KIND_POLYLINE, pts)


# --------------------------------------------------------------------------
# brute-force PR oracle
# --------------------------------------------------------------------------

def _oracle_ap(preds, gts, tau):
    """From-scratch PR enumeration: greedy confidence-ordered matching, then
    exact rectangle integration under a max-over-suffix precision envelope."""
    order = sorted(range(len(preds)), key=lambda i: (-preds[i].score, i))
    matched = set()
    flags = []
    for i in order:
        best_d, best_g = None, None
        for g, gt in enumerate(gts):
            if g in matched:
                continue
            d = chamfer(preds[i].element.points, gt.points)
            if d <= tau and (best_d is None or d < best_d):
                best_d, best_g = d, g
        if best_g is None:
            flags.append(0)
        else:
            matched.add(best_g)
            flags.append(1)
    if not gts:
        return 1.0 if not preds else 0.0
    if not preds:
        return 0.0
    precisions, recalls = [], []
    tp = 0
    for k, f in enumerate(flags, start=1):
        tp += f
        precisions.append(tp / k)
        recalls.append(tp / len(gts))
    ap = 0.0
    prev_r = 0.0
    for k in range(len(flags)):
        envelope = max(precisions[k:])
        if recalls[k] > prev_r:
            ap += (recalls[k] - prev_r) * envelope
            prev_r = recalls[k]
    return ap


def test_single_tp_full_ap():
    gt = [_line(0.0)]
    pred = [Prediction(_line(0.4), 0.9)]  # chamfer 0.4 <= 0.5
    assert _ap_pooled([pred], [gt], (0.5,))[0][0] == 1.0


def test_no_predictions_zero_ap():
    assert _ap_pooled([[]], [[_line(0.0)]], (0.5,))[0][0] == 0.0


def test_vacuous_case_is_one():
    assert _ap_pooled([[]], [[]], (0.5,))[0][0] == 1.0


def test_random_cases_match_oracle():
    rng = np.random.default_rng(0)
    for trial in range(30):
        n_gt = int(rng.integers(1, 5))
        n_pred = int(rng.integers(0, 6))
        gts = [_line(rng.uniform(-5, 5)) for _ in range(n_gt)]
        preds = [
            Prediction(_line(rng.uniform(-5, 5)), float(rng.uniform(0.05, 1.0)))
            for _ in range(n_pred)
        ]
        for tau in CHAMFER_THRESHOLDS:
            assert abs(_ap_pooled([preds], [gts], (tau,))[0][0] - _oracle_ap(preds, gts, tau)) < 1e-12


def test_mixed_three_pred_two_gt_case():
    gts = [_line(0.0), _line(2.0)]
    preds = [
        Prediction(_line(0.2), 0.9),
        Prediction(_line(5.0), 0.8),  # far from everything
        Prediction(_line(2.3), 0.7),
    ]
    for tau in CHAMFER_THRESHOLDS:
        assert abs(_ap_pooled([preds], [gts], (tau,))[0][0] - _oracle_ap(preds, gts, tau)) < 1e-12


def test_ap_non_increasing_in_strictness():
    rng = np.random.default_rng(1)
    for _ in range(10):
        gts = [_line(rng.uniform(-4, 4)) for _ in range(3)]
        preds = [Prediction(_line(rng.uniform(-4, 4)), float(rng.uniform(0, 1))) for _ in range(4)]
        ap_tight = _ap_pooled([preds], [gts], (0.5,))[0][0]
        ap_loose = _ap_pooled([preds], [gts], (1.5,))[0][0]
        assert ap_loose >= ap_tight - 1e-12


def test_duplicate_prediction_never_raises_ap():
    gts = [_line(0.0), _line(3.0)]
    base = [Prediction(_line(0.2), 0.9), Prediction(_line(3.1), 0.5)]
    dup = [Prediction(_line(0.2), 0.9), Prediction(_line(0.25), 0.7), Prediction(_line(3.1), 0.5)]
    for tau in CHAMFER_THRESHOLDS:
        assert _ap_pooled([dup], [gts], (tau,))[0][0] <= _ap_pooled([base], [gts], (tau,))[0][0] + 1e-12


def test_confidence_rescaling_invariance():
    rng = np.random.default_rng(2)
    gts = [_line(rng.uniform(-4, 4)) for _ in range(3)]
    preds = [Prediction(_line(rng.uniform(-4, 4)), float(rng.uniform(0.1, 0.9))) for _ in range(5)]
    scaled = [Prediction(p.element, p.score * 0.5) for p in preds]
    for tau in CHAMFER_THRESHOLDS:
        assert _ap_pooled([preds], [gts], (tau,))[0][0] == _ap_pooled([scaled], [gts], (tau,))[0][0]


# --------------------------------------------------------------------------
# pooled evaluation
# --------------------------------------------------------------------------

def test_perfect_predictions_map_one():
    gts = [[_line(0.0), _line(3.0, CLASS_BOUNDARY)], [_line(-2.0, CLASS_PED_CROSSING)]]
    preds = [
        [Prediction(gts[0][0], 1.0), Prediction(gts[0][1], 1.0)],
        [Prediction(gts[1][0], 1.0)],
    ]
    report = evaluate(preds, gts)
    assert report.mean_ap == 1.0
    assert report.skipped_empty_classes == []


def test_thresholds_fixed():
    assert CHAMFER_THRESHOLDS == (0.5, 1.0, 1.5)
    report = evaluate([[]], [[_line(0.0)]])
    assert report.thresholds == (0.5, 1.0, 1.5)


def test_empty_classes_excluded_from_map():
    gts = [[_line(0.0)]]  # only dividers present
    preds = [[Prediction(_line(0.1), 1.0)]]
    report = evaluate(preds, gts)
    assert report.evaluated_classes == [CLASS_DIVIDER]
    assert set(report.skipped_empty_classes) == {CLASS_PED_CROSSING, CLASS_BOUNDARY}
    assert report.mean_ap == 1.0
    assert "excluded" in report.note


def test_cross_scene_pooling_matches_within_scene():
    # a GT may only be matched by predictions from its own scene
    gts = [[_line(0.0)], [_line(0.0)]]
    preds = [
        [Prediction(_line(0.1), 0.9)],
        [Prediction(_line(4.0), 0.95)],  # high confidence but wrong scene content
    ]
    report = evaluate(preds, gts)
    entry = report.per_class[CLASS_DIVIDER]
    counts = entry["counts"][0.5]
    assert counts["tp"] == 1 and counts["fp"] == 1 and counts["fn"] == 1


def test_each_chamfer_distance_computed_once(monkeypatch):
    calls = []
    monkeypatch.setattr(ev, "chamfer", lambda a, b: calls.append(1) or chamfer(a, b))
    gts = [[_line(0.0), _line(3.0), _line(2.0, CLASS_BOUNDARY)], [_line(-1.0)]]
    preds = [
        [Prediction(_line(0.2), 0.9), Prediction(_line(2.0, CLASS_BOUNDARY), 0.4)],
        [Prediction(_line(-0.8), 0.7), Prediction(_line(5.0), 0.3)],
    ]
    report = evaluate(preds, gts)
    # one distance per (prediction, same-class ground truth of its scene), for all three thresholds
    assert len(calls) == 1 * 2 + 2 * 1 + 1 * 1
    assert report.per_class[CLASS_DIVIDER]["counts"][0.5] == {"tp": 2, "fp": 1, "fn": 1}


def test_report_serialization():
    gts = [[_line(0.0)]]
    preds = [[Prediction(_line(0.1), 1.0)]]
    report = evaluate(preds, gts)
    doc = report_to_dict(report)
    assert doc["mean_ap"] == 1.0
    rows = report_to_csv_rows(report)
    assert rows[0][0] == "class"
    assert rows[-1][0] == "mAP"
    for thresholds in ((0.5,), (0.5, 1.0, 1.5)):
        rows = report_to_csv_rows(evaluate(preds, gts, thresholds))
        assert [len(row) for row in rows] == [len(thresholds) + 2] * len(rows)


def test_predictions_from_output():
    ext = BevExtent()
    logits = np.array([[5.0, -5.0, -5.0], [-5.0, 6.0, -5.0]])
    coords = np.random.default_rng(3).uniform(0.2, 0.8, (2, 4, 2))
    preds = predictions_from_output(logits, coords, ext)
    assert preds[0].element.class_id == CLASS_DIVIDER
    assert preds[0].element.kind == KIND_POLYLINE
    assert preds[1].element.class_id == CLASS_PED_CROSSING
    assert preds[1].element.kind == "polygon"
    assert all(0.0 <= p.score <= 1.0 for p in preds)
    assert ext.contains(preds[0].element.points)


def test_prediction_score_validated():
    with pytest.raises(ValueError):
        Prediction(_line(0.0), 1.5)
