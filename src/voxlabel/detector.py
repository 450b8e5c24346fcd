"""Parametric stochastic detector producing per-frame masks and logits.

Stands in for an off-the-shelf instance-segmentation model. Error modes are
controlled by NoiseModel: class confusion, distance-dependent dropout, logit
noise, and mask boundary jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .scene import NUM_CLASSES, FrameObservation, SceneSpec, visible_instances
from .serialize import JsonDataclass, rle_decode_bool, rle_encode_bool

# The reported class's logit before noise, and the least score a detection keeps.
LOGIT_SHARPNESS = 10.0
SCORE_THRESHOLD = 0.7


def log_softmax_and_softmax(logits):
    """(log-softmax, softmax) of (..., C) logits from one numerically stable
    pass: max, shift, exp, sum, divide. ValueError if a logit is not finite."""
    x = np.asarray(logits, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("invalid logits")
    shifted = x - np.max(x, axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = np.sum(e, axis=-1, keepdims=True)
    return shifted - np.log(total), e / total


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax; accepts (..., C)."""
    return log_softmax_and_softmax(logits)[1]


@dataclass(frozen=True)
class NoiseModel(JsonDataclass):
    """Detector error model; a JsonDataclass.

    confusion[i][j] is the probability the true class i is reported as j,
    stored as a tuple of float tuples (hashable) whatever it is given as.
    Dropout probability grows linearly with distance to the instance; logit
    sharpness and score threshold are module constants. Default values are
    illustrative, not calibrated against any real detector.
    """

    confusion: tuple[tuple[float, ...], ...] = field(default_factory=lambda: tuple(
        tuple(1.0 if i == j else 0.0 for j in range(NUM_CLASSES))
        for i in range(NUM_CLASSES)))
    dropout_base: float = 0.0
    dropout_per_meter: float = 0.0
    logit_noise_sigma: float = 1.0
    mask_jitter_px: int = 0
    min_pixels: int = 50

    def __post_init__(self):
        object.__setattr__(self, "confusion", tuple(
            tuple(float(v) for v in row) for row in self.confusion))
        if [len(row) for row in self.confusion] != [NUM_CLASSES] * NUM_CLASSES:
            raise ValueError("confusion must be 6x6")
        m = np.asarray(self.confusion)
        if not (np.all(m >= 0) and np.all(np.abs(m.sum(axis=1) - 1.0) <= 1e-9)):
            raise ValueError("confusion rows must be stochastic")
        self._require("in [0, 1]", "dropout_base")
        self._require("non-negative", "dropout_per_meter", "logit_noise_sigma",
                      "mask_jitter_px")
        self._require("at least 1", "min_pixels")

    @classmethod
    def noiseless(cls, min_pixels: int = 50) -> "NoiseModel":
        return cls(logit_noise_sigma=0.0, min_pixels=min_pixels)

    @classmethod
    def uniform_confusion(cls, diagonal: float, **kwargs) -> "NoiseModel":
        off = (1.0 - diagonal) / (NUM_CLASSES - 1)
        conf = tuple(tuple(diagonal if i == j else off for j in range(NUM_CLASSES))
                     for i in range(NUM_CLASSES))
        return cls(confusion=conf, **kwargs)


@dataclass(eq=False)
class Detection:
    """One detected instance: a boolean mask and raw class logits.

    Box, class and score are derived: the mask's minimal box (mask_bbox),
    the argmax of the logits and the largest softmax probability.
    """

    mask: np.ndarray            # (H, W) bool
    logits: np.ndarray          # (6,)

    @cached_property
    def bbox(self) -> tuple:
        return mask_bbox(self.mask)

    @cached_property
    def class_id(self) -> int:
        return int(np.argmax(self.logits))

    @cached_property
    def score(self) -> float:
        return float(softmax(self.logits).max())

    def to_json(self) -> dict:
        return {"mask_rle": rle_encode_bool(self.mask),
                "logits": [float(x) for x in self.logits]}

    @classmethod
    def from_json(cls, d: dict, shape: tuple) -> "Detection":
        return cls(mask=rle_decode_bool(d["mask_rle"], shape),
                   logits=np.array(d["logits"], dtype=float))


@dataclass(eq=False)
class DetectionSet:
    """Detections for one frame; a trajectory's list index is its frame.

    A detection carries no ground truth: evaluate.match_gt attributes it from
    the rendered frame. from_json takes the (H, W) shape of the masks, which
    the JSON does not hold, and reads only "detections".
    """

    detections: list[Detection]

    def to_json(self) -> dict:
        return {"detections": [d.to_json() for d in self.detections]}

    @classmethod
    def from_json(cls, d: dict, shape: tuple) -> "DetectionSet":
        return cls(detections=[Detection.from_json(x, shape)
                               for x in d["detections"]])


def mask_bbox(mask: np.ndarray) -> tuple:
    """Minimum (u_min, v_min, u_max, v_max) rectangle of a boolean mask."""
    us, vs = np.flatnonzero(mask.any(axis=0)), np.flatnonzero(mask.any(axis=1))
    if us.size == 0:
        raise ValueError("empty mask")
    return (int(us[0]), int(vs[0]), int(us[-1]), int(vs[-1]))


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
                        noise: NoiseModel, rng: np.random.Generator) -> DetectionSet:
    """Simulate detector output for one frame.

    Per visible instance (>= min_pixels pixels): distance-dependent dropout,
    class sampled from the confusion row, logits = LOGIT_SHARPNESS * one-hot
    + Gaussian noise, mask jittered, then filtered by SCORE_THRESHOLD. The
    output keeps no gt id. Deterministic given (frame, noise, rng state).
    """
    confusion = np.asarray(noise.confusion, dtype=float)
    detections: list[Detection] = []

    for gt_id, inst_mask in visible_instances(frame, noise.min_pixels):
        distance = float(frame.depth[inst_mask].mean())
        p_drop = min(1.0, noise.dropout_base + noise.dropout_per_meter * distance)
        if rng.random() < p_drop:
            continue
        true_class = scene.object_by_id(gt_id).class_id
        reported = int(rng.choice(NUM_CLASSES, p=confusion[true_class]))
        logits = LOGIT_SHARPNESS * np.eye(NUM_CLASSES)[reported]
        if noise.logit_noise_sigma > 0:
            logits = logits + rng.normal(0.0, noise.logit_noise_sigma, NUM_CLASSES)
        mask = _jitter_mask(inst_mask, noise.mask_jitter_px, rng)
        if not mask.any():
            continue
        det = Detection(mask=mask, logits=logits)
        if det.score < SCORE_THRESHOLD:
            continue
        detections.append(det)

    return DetectionSet(detections=detections)
