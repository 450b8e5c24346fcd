"""Pseudo-label quality metrics: per-class AP at IoU 0.5 and raw class
disagreement, with detections attributed to gt objects by mask overlap.

Ground truth per frame comes from the rendered instance-id images: the
minimal box of each instance's visible pixels, skipping instances below the
detector's visibility floor. Frames are pooled before AP (detection-style),
with greedy matching and all-points precision-envelope interpolation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import mask_bbox
from .scene import NUM_CLASSES, SceneSpec, visible_instances


def iou(box_a, box_b) -> float:
    """Intersection-over-union of inclusive pixel boxes (u0, v0, u1, v1)."""
    ax0, ay0, ax1, ay1 = box_a
    bx0, by0, bx1, by1 = box_b
    if ax1 < ax0 or ay1 < ay0 or bx1 < bx0 or by1 < by0:
        raise ValueError("invalid box")
    ix0, iy0 = max(ax0, bx0), max(ay0, by0)
    ix1, iy1 = min(ax1, bx1), min(ay1, by1)
    iw, ih = ix1 - ix0 + 1, iy1 - iy0 + 1
    if iw <= 0 or ih <= 0:
        return 0.0
    inter = iw * ih
    area_a = (ax1 - ax0 + 1) * (ay1 - ay0 + 1)
    area_b = (bx1 - bx0 + 1) * (by1 - by0 + 1)
    return inter / (area_a + area_b - inter)


def average_precision(pred_boxes, pred_scores, gt_boxes, pred_frames, gt_frames):
    """Single-class AP at IoU 0.5 with greedy matching.

    Predictions are sorted by descending score (stable, ties keep input
    order); each matches the unmatched ground-truth box of the same frame
    with highest IoU >= 0.5. AP is the area under the precision envelope
    over recall. Returns None when there is no ground truth.
    """
    n_gt = len(gt_boxes)
    if n_gt == 0:
        return None
    if not pred_boxes:
        return 0.0

    order = sorted(range(len(pred_boxes)), key=lambda i: (-pred_scores[i], i))
    matched = [False] * n_gt
    tp = np.zeros(len(order))
    for rank, i in enumerate(order):
        best_iou, best_j = 0.0, -1
        for j in range(n_gt):
            if matched[j] or gt_frames[j] != pred_frames[i]:
                continue
            v = iou(pred_boxes[i], gt_boxes[j])
            if v >= 0.5 and v > best_iou:
                best_iou, best_j = v, j
        if best_j >= 0:
            matched[best_j] = True
            tp[rank] = 1.0

    cum_tp = np.cumsum(tp)
    precision = cum_tp / (np.arange(len(order)) + 1)
    recall = cum_tp / n_gt
    # precision envelope: max precision at recall >= r
    env = np.maximum.accumulate(precision[::-1])[::-1]
    ap = 0.0
    prev_r = 0.0
    for r, p in zip(recall, env):
        if r > prev_r:
            ap += (r - prev_r) * p
            prev_r = r
    return float(ap)


@dataclass
class EvalReport:
    per_class_ap: list              # 6 entries, None when class absent from gt
    map50: float
    counts: dict                    # class -> {"gt": n, "pred": n}

    def to_json(self) -> dict:
        return {
            "per_class_ap": [None if a is None else float(a)
                             for a in self.per_class_ap],
            "map50": float(self.map50),
            "counts": {str(k): v for k, v in self.counts.items()},
        }


def frame_gt_boxes(frame, scene: SceneSpec, min_pixels: int = 50):
    """Per-frame ground truth: (class_id, bbox) of each visible instance."""
    return [(scene.object_by_id(gt_id).class_id, mask_bbox(mask))
            for gt_id, mask in visible_instances(frame, min_pixels)]


def _collect_predictions(dataset_or_dets):
    """Per-class pooled predictions from a PseudoDataset or DetectionSet list.

    Pseudo-labels rank by max(lambda_bar) since they carry no detector score.
    """
    from .reproject import PseudoDataset

    per_class = {c: ([], [], []) for c in range(NUM_CLASSES)}  # boxes, scores, frames
    if isinstance(dataset_or_dets, PseudoDataset):
        for frame_id, lab in dataset_or_dets.all_labels():
            boxes, scores, frames = per_class[lab.class_id]
            boxes.append(lab.bbox)
            scores.append(float(np.max(lab.lambda_bar)))
            frames.append(frame_id)
    else:
        for frame_id, det_set in enumerate(dataset_or_dets):
            for det in det_set.detections:
                boxes, scores, frames = per_class[det.class_id]
                boxes.append(det.bbox)
                scores.append(det.score)
                frames.append(frame_id)
    return per_class


def evaluate_pseudo_labels(dataset_or_dets, trajectory, scene: SceneSpec,
                           K, min_pixels: int = 50) -> EvalReport:
    """mAP@50 of pseudo-labels (or raw detections) against rendered gt.

    Raises on frame-count mismatch.
    """
    if len(dataset_or_dets) != len(trajectory.frames):
        raise ValueError("dataset/trajectory mismatch")

    gt_per_class = {c: ([], []) for c in range(NUM_CLASSES)}  # boxes, frames
    for frame_id, frame in enumerate(trajectory.frames):
        for class_id, bbox in frame_gt_boxes(frame, scene, min_pixels=min_pixels):
            gt_per_class[class_id][0].append(bbox)
            gt_per_class[class_id][1].append(frame_id)

    preds = _collect_predictions(dataset_or_dets)
    per_class_ap = []
    counts = {}
    for c in range(NUM_CLASSES):
        boxes, scores, frames = preds[c]
        gt_boxes, gt_frames = gt_per_class[c]
        ap = average_precision(boxes, scores, gt_boxes,
                               pred_frames=frames, gt_frames=gt_frames)
        per_class_ap.append(ap)
        counts[c] = {"gt": len(gt_boxes), "pred": len(boxes)}
    present = [a for a in per_class_ap if a is not None]
    map50 = float(np.mean(present)) if present else 0.0

    return EvalReport(per_class_ap=per_class_ap, map50=map50, counts=counts)


def match_gt(mask: np.ndarray, frame) -> int | None:
    """The gt id a detection mask attributes to: the id covering most of the
    mask's pixels in frame.gt_instance, ties to the lower id; None when the
    mask covers no object pixel."""
    counts = np.bincount(frame.gt_instance[mask] + 1)[1:]   # NO_INSTANCE is -1
    return int(np.argmax(counts)) if counts.any() else None


def raw_consistency_stats(trajectory) -> dict:
    """Fraction of detected gt instances with non-unanimous raw classes; each
    detection counts for its match_gt object in its own frame, if any."""
    classes_by_gt: dict = {}
    for frame, det_set in zip(trajectory.frames, trajectory.detections):
        for det in det_set.detections:
            gt_id = match_gt(det.mask, frame)
            if gt_id is not None:
                classes_by_gt.setdefault(gt_id, set()).add(det.class_id)
    n = len(classes_by_gt)
    disagree = sum(1 for s in classes_by_gt.values() if len(s) > 1)
    return {
        "instances_detected": n,
        "raw_disagreement_fraction": (disagree / n) if n else 0.0,
    }
