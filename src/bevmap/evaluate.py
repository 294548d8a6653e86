"""Chamfer-distance average precision over the standard meter thresholds.

A prediction is a true positive when its symmetric Chamfer distance to an
unmatched ground-truth element of the same class is within the threshold.
Matching is greedy in descending confidence; AP integrates the full
precision-recall curve under a monotone (non-increasing) precision envelope.
Detections are pooled across scenes per class; ground truths only ever match
predictions from their own scene.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import (
    CLASS_BOUNDARY,
    CLASS_DIVIDER,
    CLASS_NAMES,
    CLASS_PED_CROSSING,
    KIND_POLYGON,
    KIND_POLYLINE,
    BevExtent,
    MapElement,
    chamfer,
    denormalize,
)
from .tensorad import stable_sigmoid

CHAMFER_THRESHOLDS = (0.5, 1.0, 1.5)


@dataclass
class Prediction:
    element: MapElement
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ValueError(f"prediction score {self.score} outside [0, 1]")


@dataclass
class EvalReport:
    thresholds: tuple[float, ...]
    per_class: dict[int, dict]  # class_id -> {"ap_per_threshold", "ap", "counts"}
    mean_ap: float
    evaluated_classes: list[int]
    skipped_empty_classes: list[int]
    note: str = "classes without ground truth are excluded from the mAP mean"


def _greedy_flags(
    order: list[int],
    pred_scenes: list[int],
    chamfers: list[dict[tuple[int, int], float]],
    gts_per_scene: list[int],
    tau: float,
) -> list[bool]:
    """TP/FP flags in confidence order; chamfers[i] maps (scene, gt) -> distance."""
    matched: set[tuple[int, int]] = set()
    flags = []
    for i in order:
        scene = pred_scenes[i]
        best = None
        for g in range(gts_per_scene[scene]):
            if (scene, g) in matched:
                continue
            d = chamfers[i][(scene, g)]
            if d <= tau and (best is None or d < best[0]):
                best = (d, g)
        if best is None:
            flags.append(False)
        else:
            matched.add((scene, best[1]))
            flags.append(True)
    return flags


def _average_precision(flags: list[bool], num_gt: int) -> float:
    if num_gt == 0:
        return 1.0 if not flags else 0.0
    if not flags:
        return 0.0
    tp = np.cumsum(np.asarray(flags, dtype=np.float64))
    ranks = np.arange(1, len(flags) + 1)
    precision = tp / ranks
    recall = tp / num_gt
    # monotone envelope from the right, then sum rectangle areas over recall steps
    envelope = np.maximum.accumulate(precision[::-1])[::-1]
    prev_recall = 0.0
    ap = 0.0
    for p, r in zip(envelope, recall):
        if r > prev_recall:
            ap += (r - prev_recall) * p
            prev_recall = r
    return float(ap)


def _ap_pooled(
    preds_per_scene: list[list[Prediction]],
    gts_per_scene: list[list[MapElement]],
    thresholds: tuple[float, ...],
) -> list[tuple[float, dict]]:
    """(AP, tp/fp/fn counts) at each threshold, from one Chamfer table."""
    flat: list[Prediction] = []
    scenes: list[int] = []
    for s, preds in enumerate(preds_per_scene):
        for p in preds:
            flat.append(p)
            scenes.append(s)
    num_gt = sum(len(g) for g in gts_per_scene)
    order = sorted(range(len(flat)), key=lambda i: (-flat[i].score, scenes[i], i))
    chamfers = [
        {
            (scenes[i], g): chamfer(flat[i].element.points, gt.points)
            for g, gt in enumerate(gts_per_scene[scenes[i]])
        }
        for i in range(len(flat))
    ]
    gt_counts = [len(g) for g in gts_per_scene]
    out = []
    for tau in thresholds:
        flags = _greedy_flags(order, scenes, chamfers, gt_counts, tau)
        tp = int(sum(flags))
        out.append((_average_precision(flags, num_gt), {"tp": tp, "fp": len(flags) - tp, "fn": num_gt - tp}))
    return out


def evaluate(
    preds_per_scene: list[list[Prediction]],
    gts_per_scene: list[list[MapElement]],
    thresholds: tuple[float, ...] = CHAMFER_THRESHOLDS,
) -> EvalReport:
    """Pooled per-class AP averaged over thresholds; mAP over non-empty classes."""
    if len(preds_per_scene) != len(gts_per_scene):
        raise ValueError("evaluate: prediction and ground-truth scene lists differ in length")
    per_class: dict[int, dict] = {}
    evaluated = []
    skipped = []
    for class_id in (CLASS_DIVIDER, CLASS_PED_CROSSING, CLASS_BOUNDARY):
        preds_c = [[p for p in preds if p.element.class_id == class_id] for preds in preds_per_scene]
        gts_c = [[g for g in gts if g.class_id == class_id] for gts in gts_per_scene]
        num_gt = sum(len(g) for g in gts_c)
        aps = {}
        counts = {}
        for tau, (ap, cnt) in zip(thresholds, _ap_pooled(preds_c, gts_c, thresholds)):
            aps[tau] = ap
            counts[tau] = cnt
        entry = {
            "name": CLASS_NAMES[class_id],
            "ap_per_threshold": aps,
            "ap": float(np.mean(list(aps.values()))),
            "counts": counts,
            "num_gt": num_gt,
        }
        per_class[class_id] = entry
        if num_gt > 0:
            evaluated.append(class_id)
        else:
            skipped.append(class_id)
    if evaluated:
        mean_ap = float(np.mean([per_class[c]["ap"] for c in evaluated]))
    else:
        mean_ap = 0.0
    return EvalReport(tuple(thresholds), per_class, mean_ap, evaluated, skipped)


# --------------------------------------------------------------------------
# Decoder output -> predictions
# --------------------------------------------------------------------------


def predictions_from_output(class_logits: np.ndarray, point_coords: np.ndarray, extent: BevExtent) -> list[Prediction]:
    """Turn final-layer logits and normalized points into scored map elements."""
    probs = stable_sigmoid(np.asarray(class_logits, dtype=np.float64))
    out = []
    for q in range(probs.shape[0]):
        class_id = int(probs[q].argmax())
        kind = KIND_POLYGON if class_id == CLASS_PED_CROSSING else KIND_POLYLINE
        pts = denormalize(np.clip(point_coords[q], 0.0, 1.0), extent)
        out.append(Prediction(MapElement(class_id, kind, pts), float(probs[q].max())))
    return out


def report_to_dict(report: EvalReport) -> dict:
    return {
        "thresholds": list(report.thresholds),
        "note": report.note,
        "mean_ap": report.mean_ap,
        "evaluated_classes": report.evaluated_classes,
        "skipped_empty_classes": report.skipped_empty_classes,
        "per_class": {
            str(cid): {
                "name": entry["name"],
                "ap": entry["ap"],
                "num_gt": entry["num_gt"],
                "ap_per_threshold": {str(t): v for t, v in entry["ap_per_threshold"].items()},
                "counts": {
                    str(t): entry["counts"][t] for t in report.thresholds
                },
            }
            for cid, entry in report.per_class.items()
        },
    }


def report_to_csv_rows(report: EvalReport) -> list[list[str]]:
    """class x threshold AP grid plus the mean column."""
    header = ["class"] + [f"ap@{t}" for t in report.thresholds] + ["ap_mean"]
    rows = [header]
    for cid, entry in sorted(report.per_class.items()):
        rows.append(
            [entry["name"]]
            + [repr(entry["ap_per_threshold"][t]) for t in report.thresholds]
            + [repr(entry["ap"])]
        )
    rows.append(["mAP"] + [""] * len(report.thresholds) + [repr(report.mean_ap)])
    return rows
