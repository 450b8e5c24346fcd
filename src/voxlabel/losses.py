"""Loss kernels with analytic gradients, and a toy trainable head.

Three kernels: an instance-matching triplet loss over feature vectors, a
soft-distillation cross-entropy against consistent per-instance
probabilities, and a generic head loss (hard-label cross-entropy + smooth-L1
box regression, optional per-pixel mask BCE). The toy head trains
alpha * distill + head only; the triplet kernel is kept as a tested loss
(its gradient is checked in acceptance criterion 05), not as a training term.
Everything is double-precision numpy; every gradient is checked against
finite differences in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .detector import log_softmax_and_softmax
from .scene import NUM_CLASSES
from .serialize import JsonDataclass


@dataclass(eq=False)
class LossValue:
    value: float
    grads: dict = field(default_factory=dict)


def _check_finite(x, what: str):
    if not np.all(np.isfinite(x)):
        raise ValueError(what)


def triplet_loss(features: np.ndarray, uids, margin: float = 0.3) -> LossValue:
    """Batch-all triplet loss over instance-tagged feature vectors.

    features: (k, d); uids: (k,) instance identifiers. Loss is the mean of
    max(0, ||a-p|| - ||a-n|| + margin) over active triplets (anchor/positive
    share a uid, negative differs; batch-all mining, Hermans et al. 2017,
    arXiv:1703.07737). Returns 0 with zero gradients when no triplet is
    active. Gradient w.r.t. features under key "features"; subgradient 0 is
    used at zero distances and inactive triplets. Mining takes the
    (anchor, positive) pairs in lexicographic order, drops each pair whose
    nearest negative gives no active term (then no negative does), and
    expands the rest against every negative, so triplets come in (a, p, n)
    order. Memory is O(k^2 + 2**16 + active triplets): distances are built a
    block of anchors at a time and pairs are expanded 2**16 candidates at a
    time.
    """
    f = np.asarray(features, dtype=float)
    _check_finite(f, "invalid features")
    uids = np.asarray(uids)
    k = f.shape[0]
    grads = np.zeros_like(f)
    dist = np.empty((k, k))
    rows = max(1, 2**16 // max(f.size, 1))   # anchors per 2**16 differences
    for lo in range(0, k, rows):
        diff = f[lo:lo + rows, None, :] - f[None, :, :]
        dist[lo:lo + rows] = np.sqrt(np.sum(diff * diff, axis=-1))
    same = uids[:, None] == uids[None, :]
    nearest_neg = dist.min(axis=1, where=~same, initial=np.inf)

    # Exact filter: rounded x - y never grows as y grows, so a pair whose
    # nearest negative is inactive has no active negative at all.
    A, P = np.nonzero(same & ~np.eye(k, dtype=bool))
    live = dist[A, P] - nearest_neg[A] + margin > 0
    A, P = A[live], P[live]
    if A.size == 0:
        return LossValue(0.0, {"features": grads})
    pairs = max(1, 2**16 // k)               # pairs per 2**16 candidates
    blocks = []
    for lo in range(0, A.size, pairs):
        a, p = A[lo:lo + pairs], P[lo:lo + pairs]
        block = dist[a, p][:, None] - dist[a] + margin
        i, n = np.nonzero((block > 0) & ~same[a])
        blocks.append((a[i], p[i], n, block[i, n]))
    A, P, N, terms = (np.concatenate(c) for c in zip(*blocks))
    value = float(terms.mean())
    n_active = A.size

    with np.errstate(invalid="ignore", divide="ignore"):
        u_ap = np.where(dist[A, P][:, None] > 0,
                        (f[A] - f[P]) / np.maximum(dist[A, P][:, None], 1e-300), 0.0)
        u_an = np.where(dist[A, N][:, None] > 0,
                        (f[A] - f[N]) / np.maximum(dist[A, N][:, None], 1e-300), 0.0)
    np.add.at(grads, A, (u_ap - u_an) / n_active)
    np.add.at(grads, P, -u_ap / n_active)
    np.add.at(grads, N, u_an / n_active)
    return LossValue(value, {"features": grads})


def _distill_term(logp, p, tgt):
    """Mean soft-target cross-entropy and its (B, C) logits gradient."""
    return float(np.mean(-np.sum(tgt * logp, axis=-1))), (p - tgt) / p.shape[0]


def _head_term(logp, p, box, cls, tbox):
    """Mean hard-label CE + smooth-L1 sum, and the logits gradient (p, the
    one-hot subtracted in place) and box gradient, each divided by B."""
    B = p.shape[0]
    rows = np.arange(B)
    sl1, g_box = _smooth_l1(box - tbox)
    value = float(-logp[rows, cls].mean()) + float(sl1.sum(axis=1).mean())
    p[rows, cls] -= 1.0
    p /= B
    return value, p, g_box / B


def distill_loss(logits: np.ndarray, soft_targets: np.ndarray) -> LossValue:
    """Mean soft-target cross-entropy; gradient (softmax - target) / batch.

    logits, soft_targets: (B, C). Targets must be probability vectors.
    """
    lam = np.atleast_2d(np.asarray(logits, dtype=float))
    tgt = np.atleast_2d(np.asarray(soft_targets, dtype=float))
    logp, p = log_softmax_and_softmax(lam)
    if lam.shape[0] == 0:
        raise ValueError("empty batch")
    if (np.any(tgt < -1e-12)
            or np.any(np.abs(tgt.sum(axis=-1) - 1.0) > 1e-9)):
        raise ValueError("invalid soft target")
    value, grad = _distill_term(logp, p, tgt)
    return LossValue(value, {"logits": grad.reshape(np.shape(logits))})


def _smooth_l1(x: np.ndarray):
    a = np.abs(x)
    val = np.where(a < 1.0, 0.5 * x * x, a - 0.5)
    grad = np.where(a < 1.0, x, np.sign(x))
    return val, grad


def _sigmoid(x):
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def head_loss(pred_logits: np.ndarray, pred_box: np.ndarray,
              target_class: int | np.ndarray, target_box: np.ndarray,
              pred_mask_logits: np.ndarray | None = None,
              target_mask: np.ndarray | None = None) -> LossValue:
    """Hard-label CE + smooth-L1 box regression (+ optional mask BCE).

    Takes one example ((C,) logits, (4,) boxes, an int class) or a batch
    ((B, C) logits, (B, 4) boxes, (B,) classes). The value is the mean CE
    plus the mean per-example smooth-L1 sum; gradients are divided by B and
    come back in their input's shape. Boxes are (u_min, v_min, u_max, v_max)
    normalized to [0, 1]; only the target box must be ordered, the predicted
    one is regressor output. The mask term is the mean per-pixel binary
    cross-entropy over mask logits and is included only when both mask
    arguments are supplied.
    """
    lam = np.atleast_2d(np.asarray(pred_logits, dtype=float))
    box = np.atleast_2d(np.asarray(pred_box, dtype=float))
    tbox = np.atleast_2d(np.asarray(target_box, dtype=float))
    cls = np.atleast_1d(target_class)
    logp, p = log_softmax_and_softmax(lam)
    if np.any(tbox[:, 2] < tbox[:, 0]) or np.any(tbox[:, 3] < tbox[:, 1]):
        raise ValueError("invalid box")
    if np.any((cls < 0) | (cls >= lam.shape[-1])):
        raise ValueError("invalid target class")
    value, g_logits, g_box = _head_term(logp, p, box, cls, tbox)
    grads = {"logits": g_logits.reshape(np.shape(pred_logits)),
             "box": g_box.reshape(np.shape(pred_box))}

    if pred_mask_logits is not None and target_mask is not None:
        m = np.asarray(pred_mask_logits, dtype=float)
        t = np.asarray(target_mask, dtype=float)
        p = _sigmoid(m)
        eps = 1e-12
        bce = -(t * np.log(p + eps) + (1.0 - t) * np.log(1.0 - p + eps))
        value += float(bce.mean())
        grads["mask_logits"] = (p - t) / m.size
    return LossValue(value, grads)


# Fixed settings of the toy head's reference recipe; TrainConfig holds the rest.
_WEIGHT_DECAY = 1e-5
_MOMENTUM = 0.9
_FEATURE_SCALE = 1.0            # std of the class centres
_INSTANCE_OFFSET_SCALE = 0.3    # std of each instance's offset from its centre
_HOLDOUT_FRACTION = 0.2


@dataclass(frozen=True)
class TrainConfig(JsonDataclass):
    """Toy-head training settings a run may vary, defaults the reference
    recipe; the recipe's other settings are the constants above."""

    lr: float = 1e-4
    epochs: int = 10
    batch_size: int = 16
    alpha: float = 0.7
    feature_dim: int = 1024
    feature_noise: float = 0.2
    label_flip_prob: float = 0.0
    seed: int = 0

    def __post_init__(self):
        self._require("at least 1", "batch_size", "feature_dim")
        self._require("non-negative", "epochs", "lr", "alpha", "feature_noise", "seed")
        self._require("in [0, 1]", "label_flip_prob")


def _make_examples(dataset, K, config: TrainConfig, rng: np.random.Generator):
    """Synthesize per-pseudo-label features: class cluster + instance offset."""
    d = config.feature_dim
    class_centers = rng.normal(0.0, _FEATURE_SCALE, (NUM_CLASSES, d))
    offsets: dict = {}
    feats, classes, lambdas, boxes = [], [], [], []
    for _, lab in dataset.all_labels():
        if lab.uid not in offsets:
            offsets[lab.uid] = rng.normal(0.0, _INSTANCE_OFFSET_SCALE, d)
        noise = rng.normal(0.0, config.feature_noise, d)
        feats.append(class_centers[lab.class_id] + offsets[lab.uid] + noise)
        classes.append(lab.class_id)
        lambdas.append(np.asarray(lab.lambda_bar, dtype=float))
        u0, v0, u1, v1 = lab.bbox
        boxes.append(np.array([u0 / K.width, v0 / K.height,
                               (u1 + 1) / K.width, (v1 + 1) / K.height]))
    return (np.array(feats), np.array(classes), np.array(lambdas),
            np.array(boxes))


def toy_finetune(dataset, K, config: TrainConfig,
                 shared: dict | None = None) -> dict:
    """Train a linear head on synthetic features with alpha * distill + head.

    The head is a linear classifier (features -> 6 logits) and a linear box
    regressor; it has no embedding, so no instance-matching (triplet) term
    is trained. Mini-batch SGD with momentum and weight decay, deterministic
    given the config seed. Hard labels are optionally flipped
    (label_flip_prob) while soft targets keep the consensus probabilities;
    held-out accuracy is measured against the unflipped classes (None when
    one label leaves no hold-out).

    What alpha does not read (examples, flipped labels, split, initial
    weights, one permutation per epoch) is prepared, and its inputs checked,
    once; each batch checks only its logits. shared carries that problem
    between calls on the same dataset object whose camera and config differ
    at most in alpha: pass each call the same dict. A fit never writes into it.
    """
    shared = {} if shared is None else shared
    key = (K, replace(config, alpha=0.0))
    if shared.get("dataset") is not dataset or shared["key"] != key:
        shared.update(dataset=dataset, key=key, problem=_prepare(dataset, K, config))
    return _fit(shared["problem"], config)


def _prepare(dataset, K, config: TrainConfig) -> tuple:
    """The training problem before alpha, checked: (feats, classes, lambdas,
    boxes, hard, train_idx, hold_idx, W_cls, W_box, epoch orders)."""
    if sum(len(f) for f in dataset.frames) == 0:
        raise ValueError("no training data")
    rng = np.random.default_rng(config.seed)
    feats, classes, lambdas, boxes = _make_examples(dataset, K, config, rng)
    n = feats.shape[0]

    hard = classes.copy()
    if config.label_flip_prob > 0:
        flip = rng.random(n) < config.label_flip_prob
        hard[flip] = (hard[flip] + 1 + rng.integers(0, NUM_CLASSES - 1,
                                                    int(flip.sum()))) % NUM_CLASSES
    _check_finite(feats, "invalid features")   # then the kernels' checks, once
    distill_loss(np.zeros((n, NUM_CLASSES)), lambdas)
    head_loss(np.zeros((n, NUM_CLASSES)), boxes, hard, boxes)

    perm = rng.permutation(n)
    n_hold = max(1, int(round(n * _HOLDOUT_FRACTION))) if n > 1 else 0
    train_idx = perm[n_hold:]     # never empty: n_hold is 0 when n is 1
    scale = 1.0 / np.sqrt(config.feature_dim)
    W_cls = rng.normal(0, scale, (NUM_CLASSES, config.feature_dim))
    W_box = rng.normal(0, scale, (4, config.feature_dim))
    orders = [rng.permutation(train_idx) for _ in range(config.epochs)]
    return (feats, classes, lambdas, boxes, hard, train_idx, perm[:n_hold],
            W_cls, W_box, orders)


def _fit(problem: tuple, config: TrainConfig) -> dict:
    (feats, classes, lambdas, boxes, hard, train_idx, hold_idx, W_cls, W_box,
     orders) = problem
    params = {"W_cls": W_cls.copy(), "b_cls": np.zeros(NUM_CLASSES),
              "W_box": W_box.copy(), "b_box": np.zeros(4)}
    velocity = {k: np.zeros_like(v) for k, v in params.items()}

    def batch(idx):
        """(total, distill, head) and (logits grad, box grad, features)."""
        F = feats[idx]
        logp, p = log_softmax_and_softmax(F @ params["W_cls"].T + params["b_cls"])
        dist, g_dist = _distill_term(logp, p, lambdas[idx])
        pbox = F @ params["W_box"].T + params["b_box"]
        head, g_head, g_box = _head_term(logp, p, pbox, hard[idx], boxes[idx])
        return ((config.alpha * dist + head, dist, head),
                (config.alpha * g_dist + g_head, g_box, F))

    total, dist, head = batch(train_idx)[0]
    per_epoch = [{"epoch": 0, "loss_total": total, "loss_distill": dist,
                  "loss_head": head}]
    for epoch, order in enumerate(orders, 1):
        sums = np.zeros(3)
        starts = range(0, order.size, config.batch_size)
        for start in starts:
            values, (g_logits, g_box, F) = batch(order[start:start + config.batch_size])
            grads = {"W_cls": g_logits.T @ F, "b_cls": g_logits.sum(axis=0),
                     "W_box": g_box.T @ F, "b_box": g_box.sum(axis=0)}
            for k in params:
                g = grads[k] + _WEIGHT_DECAY * params[k]
                velocity[k] = _MOMENTUM * velocity[k] - config.lr * g
                params[k] += velocity[k]
            sums += values
        means = sums / len(starts)
        per_epoch.append({"epoch": epoch, "loss_total": means[0],
                          "loss_distill": means[1], "loss_head": means[2]})

    logits_hold = feats[hold_idx] @ params["W_cls"].T + params["b_cls"]
    accuracy = (float(np.mean(np.argmax(logits_hold, axis=1) == classes[hold_idx]))
                if hold_idx.size else None)
    return {
        "config": config.to_json(),
        "alpha": config.alpha,
        "n_examples": int(feats.shape[0]),
        "n_train": int(train_idx.size),
        "n_holdout": int(hold_idx.size),
        "per_epoch": per_epoch,
        "final_accuracy": accuracy,
    }
