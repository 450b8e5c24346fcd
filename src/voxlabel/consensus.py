"""Semantic voxel map: accumulation, label consensus, instance extraction.

Detections are lifted to 3D through the depth image and binned into voxels.
Each key (ix, iy, iz) packs into one order-preserving int64; an observation
(one detection) stores its unique packed keys. Consensus sorts all
(key, observation) pairs by key, descending score, then class, so each key's
first row is its class. Same-class 26-neighbours, found by binary search in
the sorted keys, form sparse connected components: the instances. Each
instance gets a consistent probability vector: the mean softmax over its
contributing detections (one vote per detection, not per voxel hit).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .detector import DetectionSet, softmax
from .scene import CameraIntrinsics, FrameObservation, pixel_to_world

DEFAULT_VOXEL_SIZE = 0.05
# Components below this size are dominated by isolated wrong-class patches
# and sparse long-range speckle; 50 was selected by a seed sweep of the
# moderate-noise frontier scenario (mean pseudo-label mAP gain peaked there).
DEFAULT_MIN_INSTANCE_VOXELS = 50

# 21 bits per axis. Keys stay strictly inside +-_KEY_LIMIT so that a key's
# 26 neighbours are packable too and adding a packed offset never carries
# from one axis into the next.
_AXIS_BITS = 21
_SHIFTS = np.array([2 * _AXIS_BITS, _AXIS_BITS, 0])
_KEY_OFFSET = 1 << (_AXIS_BITS - 1)
_KEY_LIMIT = _KEY_OFFSET - 1


def _pack(keys) -> np.ndarray:
    """(n, 3) integer voxel keys -> (n,) int64, order-preserving."""
    k = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    if k.size and (k.min() <= -_KEY_LIMIT or k.max() >= _KEY_LIMIT):
        raise ValueError(f"voxel keys must lie within +-{_KEY_LIMIT - 1} of the "
                         f"origin; use a larger voxel_size")
    k = k + _KEY_OFFSET
    return k[:, 0] << 2 * _AXIS_BITS | k[:, 1] << _AXIS_BITS | k[:, 2]


# the 13 neighbour offsets that follow (0, 0, 0) in lexicographic order; each
# 26-neighbour pair is found once, from its lower key
_FORWARD_DELTAS = [int(np.dot(d, 1 << _SHIFTS)) for d in
                   itertools.product((-1, 0, 1), repeat=3) if d > (0, 0, 0)]


class Observation(NamedTuple):
    keys: np.ndarray        # sorted unique packed voxel keys
    logits: np.ndarray
    score: float


@dataclass(eq=False)
class InstanceRecord:
    """One extracted 3D instance."""

    uid: int
    class_id: int
    voxels: np.ndarray       # (n, 3) int64 keys in lexicographic order
    consistent_logits: np.ndarray | None = None


class SemanticVoxelMap:
    """Sparse voxel grid accumulating per-detection logit observations.

    After resolution `voxels` holds the (n, 3) int64 occupied keys in
    lexicographic order, with `voxel_class` and `voxel_instance` (-1 for no
    instance) aligned to it. After extraction `member_centres` holds the
    instance voxels' centres in uid order, column-major for per-axis reads,
    and `member_uid` their uids.
    """

    def __init__(self, voxel_size: float = DEFAULT_VOXEL_SIZE):
        if not voxel_size > 0:
            raise ValueError(f"voxel_size must be positive, got {voxel_size}")
        self.voxel_size = voxel_size
        self.observations: list = []    # Observation, indexed by obs id
        self.voxels = np.zeros((0, 3), dtype=np.int64)
        self.voxel_class = self.voxel_instance = np.zeros(0, dtype=np.int64)
        self.instances: dict = {}       # uid -> InstanceRecord
        self.resolved = self.extracted = False
        # (packed key, obs id) of every observation, sorted as in resolution
        self._pair_key = self._pair_obs = np.zeros(0, dtype=np.int64)

    def add_observation(self, keys, logits, score: float) -> int:
        """Record one detection covering the (n, 3) voxel keys; returns its id."""
        if self.resolved:
            raise ValueError("cannot accumulate into a resolved map")
        k = np.sort(_pack(keys))   # unique by neighbour compare: faster than a hash
        first = np.ones(len(k), dtype=bool)
        np.not_equal(k[1:], k[:-1], out=first[1:])
        self.observations.append(Observation(
            k[first], np.asarray(logits, dtype=float), float(score)))
        return len(self.observations) - 1


def accumulate_frame(vmap: SemanticVoxelMap, frame: FrameObservation,
                     dets: DetectionSet, K: CameraIntrinsics) -> SemanticVoxelMap:
    """Lift every valid mask pixel of every detection into its voxel.

    Each detection with at least one valid pixel becomes one observation;
    pixels with zero depth are skipped. Must be called before resolution.
    """
    if vmap.resolved:
        raise ValueError("cannot accumulate into a resolved map")
    seen = frame.depth > 0
    for det in dets.detections:
        vs, us = np.nonzero(det.mask & seen)
        if not len(us):
            continue
        pts = pixel_to_world(us, vs, frame.depth[vs, us], K, frame.pose)
        vmap.add_observation(np.floor(pts / vmap.voxel_size).astype(np.int64),
                             det.logits, det.score)
    return vmap


def resolve_voxels(vmap: SemanticVoxelMap) -> SemanticVoxelMap:
    """Assign each voxel the class of its maximum-score observation.

    A score tie goes to the lower class index. Idempotent; clears any
    extracted instances.
    """
    obs = vmap.observations
    score = np.array([o.score for o in obs], dtype=float)
    cls = np.array([np.argmax(o.logits) for o in obs], dtype=np.int64)
    obs_id = np.repeat(np.arange(len(obs)), [len(o.keys) for o in obs])
    key = np.concatenate([o.keys for o in obs] or [np.zeros(0, np.int64)])
    order = np.lexsort((cls[obs_id], -score[obs_id], key))
    key, obs_id = key[order], obs_id[order]
    first = np.diff(key, prepend=-1) != 0   # packed keys are non-negative
    vmap._pair_key, vmap._pair_obs = key, obs_id
    unpacked = (key[first, None] >> _SHIFTS) & (2 * _KEY_OFFSET - 1)
    vmap.voxels = unpacked - _KEY_OFFSET
    vmap.voxel_class = cls[obs_id[first]]
    vmap.voxel_instance = np.full(len(vmap.voxels), -1, dtype=np.int64)
    vmap.instances = {}
    vmap.resolved, vmap.extracted = True, False
    return vmap


def lowest_index_components(n: int, src: np.ndarray,
                            dst: np.ndarray) -> np.ndarray:
    """Label each node 0..n-1 with the lowest node index of its component.

    Each round hooks the larger root of every edge between two trees under
    the smaller root, then points every node at its root.
    """
    root = np.arange(n)
    while True:
        a, b = root[src], root[dst]
        apart = a != b
        if not apart.any():
            return root
        src, dst, a, b = src[apart], dst[apart], a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
        nxt = root[root]
        while not np.array_equal(nxt, root):
            root, nxt = nxt, nxt[nxt]


def extract_instances(vmap: SemanticVoxelMap,
                      min_instance_voxels: int = DEFAULT_MIN_INSTANCE_VOXELS
                      ) -> SemanticVoxelMap:
    """Group same-class voxels into 26-connected components.

    Components smaller than min_instance_voxels are discarded (their voxels
    keep voxel_instance -1). Surviving components get dense uids in the order
    of their lexicographically minimal voxel key.
    """
    if not vmap.resolved:
        raise ValueError("map must be resolved before instance extraction")
    packed, cls = _pack(vmap.voxels), vmap.voxel_class
    n = len(packed)
    src, dst = [], []
    for delta in _FORWARD_DELTAS:
        j = np.minimum(np.searchsorted(packed, packed + delta), n - 1)
        hit = np.flatnonzero((packed[j] == packed + delta) & (cls[j] == cls))
        src.append(hit)
        dst.append(j[hit])
    # keys are sorted, so a component's lowest index is its minimal key
    root = lowest_index_components(n, np.concatenate(src), np.concatenate(dst))
    sizes = np.bincount(root, minlength=n)
    keep = (root == np.arange(n)) & (sizes >= min_instance_voxels)
    vmap.voxel_instance = np.where(keep, np.cumsum(keep) - 1, -1)[root]

    order = np.argsort(vmap.voxel_instance, kind="stable")
    order = order[n - np.count_nonzero(vmap.voxel_instance >= 0):]
    members = np.split(order, np.cumsum(sizes[keep]))[:-1]
    vmap.instances = {
        uid: InstanceRecord(uid=uid, class_id=int(cls[idx[0]]),
                            voxels=vmap.voxels[idx])
        for uid, idx in enumerate(members)}
    vmap.member_centres = np.asfortranarray(vmap.voxels[order] + 0.5) * vmap.voxel_size
    vmap.member_uid = vmap.voxel_instance[order]
    vmap.extracted = True
    return vmap


def consistent_logits(instance: InstanceRecord,
                      vmap: SemanticVoxelMap) -> np.ndarray:
    """Mean softmax over the instance's contributing detections.

    Each observation is one detection: it votes once, however many of the
    instance's voxels it touched, and votes are averaged in ascending
    observation id order. The result is stored on the instance.
    """
    if not vmap.resolved:
        raise ValueError("map must be resolved before consistent logits")
    packed = _pack(instance.voxels)
    lo = np.searchsorted(vmap._pair_key, packed, side="left")
    counts = np.searchsorted(vmap._pair_key, packed, side="right") - lo
    rows = np.repeat(lo - np.cumsum(counts) + counts, counts) \
        + np.arange(counts.sum())
    ids = np.unique(vmap._pair_obs[rows]).tolist()
    if not ids:
        raise RuntimeError("instance with no contributing detections")
    lam = softmax(np.stack([vmap.observations[i].logits for i in ids])).mean(axis=0)
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

