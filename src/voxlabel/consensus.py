"""Semantic voxel map: accumulation, label consensus, instance extraction.

Detections are lifted to 3D through the depth image and binned into a sparse
voxel grid. Each voxel keeps every (logits, score) observation; consensus
assigns the class of the single maximum-score observation, 26-connected
components of equal class become instances, and each instance gets a
consistent probability vector: the mean softmax over its contributing
detections (one vote per detection, not per voxel hit).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .detector import DetectionSet, softmax
from .scene import CameraIntrinsics, FrameObservation, pixel_to_world

DEFAULT_VOXEL_SIZE = 0.05
# Components below this size are dominated by isolated wrong-class patches
# and sparse long-range speckle; 50 was selected by a seed sweep of the
# moderate-noise frontier scenario (mean pseudo-label mAP gain peaked there).
DEFAULT_MIN_INSTANCE_VOXELS = 50


@dataclass
class VoxelRecord:
    """Observation ids landing in one voxel, plus post-resolution labels."""

    obs_ids: list = field(default_factory=list)
    resolved_class: int | None = None
    instance_id: int | None = None


@dataclass
class InstanceRecord:
    """One extracted 3D instance.

    `voxels` is the source of truth and is fixed after extraction:
    `sorted_keys` is computed from it once and never refreshed.
    """

    uid: int
    class_id: int
    voxels: set              # set[(ix, iy, iz)]
    consistent_logits: np.ndarray | None = None

    @cached_property
    def sorted_keys(self) -> np.ndarray:
        """(n, 3) int64 voxel keys in lexicographic order."""
        return np.array(sorted(self.voxels), dtype=np.int64)


class SemanticVoxelMap:
    """Sparse voxel grid accumulating per-detection logit observations.

    Observations live in flat parallel arrays; voxels reference them by id so
    a detection spanning many voxels is stored once.
    """

    def __init__(self, voxel_size: float = DEFAULT_VOXEL_SIZE,
                 resolve_mode: str = "max_observation"):
        if resolve_mode not in ("max_observation", "summed_softmax"):
            raise ValueError(f"unknown resolve_mode: {resolve_mode}")
        if not voxel_size > 0:
            raise ValueError(f"voxel_size must be positive, got {voxel_size}")
        self.voxel_size = voxel_size
        self.resolve_mode = resolve_mode
        self.voxels: dict = {}          # (ix, iy, iz) -> VoxelRecord
        self.instances: dict = {}       # uid -> InstanceRecord
        self.resolved = False
        self.extracted = False
        # flat observation table
        self.obs_logits: list = []      # np.ndarray (6,)
        self.obs_score: list = []
        self.obs_class: list = []       # argmax of logits
        self.obs_frame: list = []
        self.obs_det: list = []

    def world_to_key(self, pts: np.ndarray) -> np.ndarray:
        return np.floor(np.asarray(pts) / self.voxel_size).astype(np.int64)

    def _register_obs(self, logits: np.ndarray, score: float,
                      frame_index: int, det_index: int) -> int:
        self.obs_logits.append(np.asarray(logits, dtype=float))
        self.obs_score.append(float(score))
        self.obs_class.append(int(np.argmax(logits)))
        self.obs_frame.append(frame_index)
        self.obs_det.append(det_index)
        return len(self.obs_score) - 1


def accumulate_frame(vmap: SemanticVoxelMap, frame: FrameObservation,
                     dets: DetectionSet, K: CameraIntrinsics) -> SemanticVoxelMap:
    """Lift every valid mask pixel of every detection into its voxel.

    Each pixel appends one observation reference; pixels with zero depth are
    skipped. Must be called before resolution.
    """
    if vmap.resolved:
        raise ValueError("cannot accumulate into a resolved map")
    for det_index, det in enumerate(dets.detections):
        vs, us = np.nonzero(det.mask)
        d = frame.depth[vs, us]
        valid = d > 0
        if not valid.any():
            continue
        pts = pixel_to_world(us[valid], vs[valid], d[valid], K, frame.pose)
        keys = vmap.world_to_key(pts)
        obs_id = vmap._register_obs(det.logits, det.score,
                                    dets.frame_index, det_index)
        uniq, counts = np.unique(keys, axis=0, return_counts=True)
        for key, count in zip(map(tuple, uniq.tolist()), counts.tolist()):
            rec = vmap.voxels.get(key)
            if rec is None:
                rec = VoxelRecord()
                vmap.voxels[key] = rec
            rec.obs_ids.extend([obs_id] * count)
    return vmap


def resolve_voxels(vmap: SemanticVoxelMap) -> SemanticVoxelMap:
    """Assign each voxel the class of its maximum-score observation.

    Ties break by lower class index, then lower (frame, detection) index.
    The alternative summed_softmax mode takes the argmax of summed softmax
    mass instead; it is not the default. Idempotent.
    """
    score = np.array(vmap.obs_score)
    cls = np.array(vmap.obs_class, dtype=int)
    frame = np.array(vmap.obs_frame, dtype=int)
    det = np.array(vmap.obs_det, dtype=int)
    if vmap.resolve_mode == "summed_softmax":
        probs = np.stack(vmap.obs_logits) if vmap.obs_logits else np.zeros((0, 6))
        probs = softmax(probs) if len(probs) else probs
    for rec in vmap.voxels.values():
        ids = np.array(rec.obs_ids, dtype=int)
        if vmap.resolve_mode == "max_observation":
            s = score[ids]
            best = s.max()
            cand = ids[s == best]
            order = np.lexsort((det[cand], frame[cand], cls[cand]))
            rec.resolved_class = int(cls[cand[order[0]]])
        else:
            mass = probs[ids].sum(axis=0)
            rec.resolved_class = int(np.argmax(mass))
    vmap.resolved = True
    return vmap


def extract_instances(vmap: SemanticVoxelMap,
                      min_instance_voxels: int = DEFAULT_MIN_INSTANCE_VOXELS
                      ) -> SemanticVoxelMap:
    """Group same-class voxels into 26-connected components.

    Components smaller than min_instance_voxels are discarded (their voxels
    keep instance_id None). Surviving components get dense uids in the order
    of their lexicographically minimal voxel key.
    """
    from scipy import ndimage

    if not vmap.resolved:
        raise ValueError("map must be resolved before instance extraction")
    by_class: dict = {}
    for key, rec in vmap.voxels.items():
        by_class.setdefault(rec.resolved_class, []).append(key)

    components: list = []   # (min_key, class_id, [keys])
    structure = np.ones((3, 3, 3), dtype=int)
    for class_id in sorted(by_class):
        keys = np.array(by_class[class_id], dtype=np.int64)
        lo = keys.min(axis=0)
        shape = (keys.max(axis=0) - lo + 1)
        dense = np.zeros(tuple(shape), dtype=np.uint8)
        idx = keys - lo
        dense[idx[:, 0], idx[:, 1], idx[:, 2]] = 1
        labels, n = ndimage.label(dense, structure=structure)
        comp_of = labels[idx[:, 0], idx[:, 1], idx[:, 2]]
        for k in range(1, n + 1):
            member_keys = [tuple(key) for key in keys[comp_of == k].tolist()]
            if len(member_keys) < min_instance_voxels:
                continue
            components.append((min(member_keys), class_id, member_keys))

    components.sort(key=lambda c: c[0])
    vmap.instances = {}
    for uid, (_, class_id, member_keys) in enumerate(components):
        vmap.instances[uid] = InstanceRecord(uid=uid, class_id=class_id,
                                             voxels=set(member_keys))
        for key in member_keys:
            vmap.voxels[key].instance_id = uid
    vmap.extracted = True
    return vmap


def consistent_logits(instance: InstanceRecord,
                      vmap: SemanticVoxelMap) -> np.ndarray:
    """Mean softmax over the instance's contributing detections.

    A detection votes once regardless of how many of the instance's voxels it
    touched. The result is stored on the instance.
    """
    obs_ids = set()
    for key in instance.voxels:
        obs_ids.update(vmap.voxels[key].obs_ids)
    seen = {}
    for oid in sorted(obs_ids):
        seen[(vmap.obs_frame[oid], vmap.obs_det[oid])] = oid
    if not seen:
        raise RuntimeError("instance with no contributing detections")
    probs = np.stack([softmax(vmap.obs_logits[oid]) for oid in seen.values()])
    lam = probs.mean(axis=0)
    instance.consistent_logits = lam
    return lam


def finalize_map(vmap: SemanticVoxelMap,
                 min_instance_voxels: int = DEFAULT_MIN_INSTANCE_VOXELS
                 ) -> SemanticVoxelMap:
    """Resolve, extract instances, and fill every instance's consistent logits."""
    resolve_voxels(vmap)
    extract_instances(vmap, min_instance_voxels=min_instance_voxels)
    for inst in vmap.instances.values():
        consistent_logits(inst, vmap)
    return vmap


def map_to_json(vmap: SemanticVoxelMap) -> dict:
    """Inspection / golden-file dump: resolved labels and instance summaries."""
    return {
        "voxel_size": vmap.voxel_size,
        "voxels": [
            {"key": list(key), "resolved_class": rec.resolved_class,
             "instance_id": rec.instance_id}
            for key, rec in sorted(vmap.voxels.items())
        ],
        "instances": [
            {"u": inst.uid, "class_id": inst.class_id,
             "lambda_bar": ([float(x) for x in inst.consistent_logits]
                            if inst.consistent_logits is not None else None),
             "voxel_count": len(inst.voxels)}
            for inst in vmap.instances.values()
        ],
    }
