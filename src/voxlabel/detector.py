"""Parametric stochastic detector producing per-frame masks, boxes, and logits.

Stands in for an off-the-shelf instance-segmentation model. Error modes are
controlled by NoiseModel: class confusion, distance-dependent dropout, logit
noise, and mask boundary jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .scene import NUM_CLASSES, FrameObservation, SceneSpec
from .serialize import JsonDataclass


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax; accepts (..., C)."""
    x = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("invalid logits")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass(frozen=True)
class NoiseModel(JsonDataclass):
    """Detector error model; a JsonDataclass.

    confusion[i][j] is the probability the true class i is reported as j,
    stored as a tuple of float tuples (hashable) whatever it is given as.
    Dropout probability grows linearly with distance to the instance.
    Default values are illustrative, not calibrated against any real detector.
    """

    confusion: tuple[tuple[float, ...], ...] = field(default_factory=lambda: tuple(
        tuple(1.0 if i == j else 0.0 for j in range(NUM_CLASSES))
        for i in range(NUM_CLASSES)))
    dropout_base: float = 0.0
    dropout_per_meter: float = 0.0
    logit_sharpness: float = 10.0
    logit_noise_sigma: float = 1.0
    mask_jitter_px: int = 0
    score_threshold: float = 0.7
    min_pixels: int = 50

    def __post_init__(self):
        object.__setattr__(self, "confusion", tuple(
            tuple(float(v) for v in row) for row in self.confusion))
        if [len(row) for row in self.confusion] != [NUM_CLASSES] * NUM_CLASSES:
            raise ValueError("confusion must be 6x6")
        m = np.asarray(self.confusion)
        if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > 1e-9):
            raise ValueError("confusion rows must be stochastic")
        self._require("in [0, 1]", "dropout_base", "score_threshold")
        self._require("non-negative", "dropout_per_meter", "mask_jitter_px")
        self._require("at least 1", "min_pixels")

    @classmethod
    def noiseless(cls, min_pixels: int = 50) -> "NoiseModel":
        return cls(logit_sharpness=10.0, logit_noise_sigma=0.0,
                   score_threshold=0.7, min_pixels=min_pixels)

    @classmethod
    def uniform_confusion(cls, diagonal: float, **kwargs) -> "NoiseModel":
        off = (1.0 - diagonal) / (NUM_CLASSES - 1)
        conf = tuple(tuple(diagonal if i == j else off for j in range(NUM_CLASSES))
                     for i in range(NUM_CLASSES))
        return cls(confusion=conf, **kwargs)


@dataclass
class Detection:
    """One detected instance: boolean mask, box, class, raw logits, score."""

    mask: np.ndarray            # (H, W) bool
    bbox: tuple                 # (u_min, v_min, u_max, v_max), inclusive pixels
    class_id: int
    logits: np.ndarray          # (6,)
    score: float

    def to_json(self) -> dict:
        from .serialize import rle_encode_bool
        return {
            "mask_rle": rle_encode_bool(self.mask),
            "mask_shape": list(self.mask.shape),
            "bbox": [int(b) for b in self.bbox],
            "class_id": int(self.class_id),
            "logits": [float(x) for x in self.logits],
            "score": float(self.score),
        }

    @classmethod
    def from_json(cls, d: dict) -> "Detection":
        from .serialize import rle_decode_bool
        mask = rle_decode_bool(d["mask_rle"], tuple(d["mask_shape"]))
        return cls(mask=mask, bbox=tuple(d["bbox"]), class_id=int(d["class_id"]),
                   logits=np.array(d["logits"], dtype=float), score=float(d["score"]))


@dataclass
class DetectionSet:
    """Detections for one frame.

    secret_gt_ids is a diagnostics-only channel (one entry per detection);
    consensus, reprojection, and the losses never read it.
    """

    frame_index: int
    detections: list[Detection]
    secret_gt_ids: list[int]

    def to_json(self) -> dict:
        return {
            "frame_index": self.frame_index,
            "detections": [d.to_json() for d in self.detections],
            "secret_gt_ids": [int(i) for i in self.secret_gt_ids],
        }

    @classmethod
    def from_json(cls, d: dict) -> "DetectionSet":
        return cls(frame_index=int(d["frame_index"]),
                   detections=[Detection.from_json(x) for x in d["detections"]],
                   secret_gt_ids=[int(i) for i in d["secret_gt_ids"]])


def mask_bbox(mask: np.ndarray) -> tuple:
    """Minimum (u_min, v_min, u_max, v_max) rectangle of a boolean mask."""
    vs, us = np.nonzero(mask)
    if us.size == 0:
        raise ValueError("empty mask")
    return (int(us.min()), int(vs.min()), int(us.max()), int(vs.max()))


def _jitter_mask(mask: np.ndarray, radius: int, rng: np.random.Generator) -> np.ndarray:
    """Random dilation (r > 0) or erosion (r < 0) by |r| <= radius px: |r|
    rounds that OR or AND each pixel with its four neighbours, False outside."""
    r = int(rng.integers(-radius, radius + 1)) if radius > 0 else 0
    op = np.logical_or if r > 0 else np.logical_and
    for _ in range(abs(r)):
        p = np.pad(mask, 1)
        mask = op.reduce([p[1:-1, 1:-1], p[:-2, 1:-1], p[2:, 1:-1],
                          p[1:-1, :-2], p[1:-1, 2:]])
    return mask


def simulate_detections(frame: FrameObservation, scene: SceneSpec,
                        noise: NoiseModel, rng: np.random.Generator,
                        frame_index: int = 0) -> DetectionSet:
    """Simulate detector output for one frame.

    Per visible instance (>= min_pixels pixels): distance-dependent dropout,
    class sampled from the confusion row, logits = sharpness * one-hot +
    Gaussian noise, mask jittered, then filtered by score threshold.
    Deterministic given (frame, noise, rng state).
    """
    confusion = np.asarray(noise.confusion, dtype=float)
    detections: list[Detection] = []
    secret: list[int] = []

    ids, counts = np.unique(frame.gt_instance[frame.gt_instance >= 0],
                            return_counts=True)
    for gt_id, n_px in zip(ids.tolist(), counts.tolist()):
        if n_px < noise.min_pixels:
            continue
        inst_mask = frame.gt_instance == gt_id
        distance = float(frame.depth[inst_mask].mean())
        p_drop = min(1.0, noise.dropout_base + noise.dropout_per_meter * distance)
        if rng.random() < p_drop:
            continue
        true_class = scene.object_by_id(gt_id).class_id
        reported = int(rng.choice(NUM_CLASSES, p=confusion[true_class]))
        logits = noise.logit_sharpness * np.eye(NUM_CLASSES)[reported]
        if noise.logit_noise_sigma > 0:
            logits = logits + rng.normal(0.0, noise.logit_noise_sigma, NUM_CLASSES)
        mask = _jitter_mask(inst_mask, noise.mask_jitter_px, rng)
        if not mask.any():
            continue
        probs = softmax(logits)
        score = float(probs.max())
        if score < noise.score_threshold:
            continue
        class_id = int(np.argmax(logits))
        detections.append(Detection(mask=mask, bbox=mask_bbox(mask),
                                    class_id=class_id, logits=logits, score=score))
        secret.append(int(gt_id))

    return DetectionSet(frame_index=frame_index, detections=detections,
                        secret_gt_ids=secret)
