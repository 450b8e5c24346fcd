"""Project extracted 3D instances back onto every frame as pseudo-labels.

Each voxel center is projected through the camera; a depth-buffer test with a
small tolerance handles occlusion, and each accepted voxel is splatted with
its projected footprint so masks stay dense. Overlapping instances are
resolved in one z-buffer pass: nearer depth wins, an exact tie goes to the
lower uid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import SemanticVoxelMap
from .detector import mask_bbox
from .scene import CameraIntrinsics, FrameObservation, world_to_pixel


@dataclass
class PseudoLabel:
    """Reprojected consistent annotation for one instance in one frame."""

    uid: int
    class_id: int
    lambda_bar: np.ndarray
    mask: np.ndarray        # (H, W) bool
    bbox: tuple             # (u_min, v_min, u_max, v_max)


@dataclass
class PseudoDataset:
    """Per-frame pseudo-label lists, aligned with the trajectory."""

    frames: list            # list[list[PseudoLabel]]

    def __len__(self):
        return len(self.frames)

    def all_labels(self):
        for i, labels in enumerate(self.frames):
            for lab in labels:
                yield i, lab


def project_instance_masks(vmap: SemanticVoxelMap, frame: FrameObservation,
                           K: CameraIntrinsics,
                           occlusion_tolerance: float | None = None
                           ) -> list[PseudoLabel]:
    """Pseudo-labels for every instance visible in this frame.

    A voxel claims its projected pixel iff the pixel is in bounds, the voxel
    is in front of the camera, and the projected depth matches the frame depth
    within the tolerance (default 2 * voxel_size). Claimed pixels are dilated
    by the voxel's projected footprint. Where footprints overlap, the nearer
    depth wins and an exact depth tie goes to the lower uid. Labels come in
    ascending uid order, one per instance that wins at least one pixel.
    """
    if not vmap.extracted:
        raise ValueError("map must be extracted before reprojection")
    tol = 2.0 * vmap.voxel_size if occlusion_tolerance is None else occlusion_tolerance
    if tol < 0:
        raise ValueError(f"occlusion_tolerance must be non-negative, got {tol}")
    H, W = K.height, K.width
    member = vmap.voxel_instance >= 0
    owner = vmap.voxel_instance[member]
    u, v, d = world_to_pixel((vmap.voxels[member] + 0.5) * vmap.voxel_size,
                             K, frame.pose)
    ui = np.round(u).astype(int)
    vi = np.round(v).astype(int)
    ok = (d > 0) & (ui >= 0) & (ui < W) & (vi >= 0) & (vi < H)
    frame_d = frame.depth[vi[ok], ui[ok]]
    ok[ok] = (frame_d > 0) & (np.abs(d[ok] - frame_d) <= tol)
    if not ok.any():
        return []
    ui, vi, d, owner = ui[ok], vi[ok], d[ok], owner[ok]
    radii = np.ceil(vmap.voxel_size * K.fx / (2.0 * d)).astype(int)

    pix, src = [], []       # splatted pixel, index of the splatting voxel
    for r in np.unique(radii):
        idx = np.flatnonzero(radii == r)
        dy, dx = (o.ravel() for o in np.mgrid[-r:r + 1, -r:r + 1])
        tv, tu = vi[idx, None] + dy, ui[idx, None] + dx
        inb = (tu >= 0) & (tu < W) & (tv >= 0) & (tv < H)
        pix.append(tv[inb] * W + tu[inb])
        src.append(idx[np.nonzero(inb)[0]])
    pix, src = np.concatenate(pix), np.concatenate(src)
    depth, who = d[src], owner[src]

    zbuf = np.full(H * W, np.inf)
    np.minimum.at(zbuf, pix, depth)
    nearest = depth == zbuf[pix]
    winner = np.full(H * W, np.iinfo(np.int64).max)
    np.minimum.at(winner, pix[nearest], who[nearest])

    labels: list[PseudoLabel] = []
    for uid in np.unique(winner[np.isfinite(zbuf)]).tolist():
        mask = winner.reshape(H, W) == uid
        inst = vmap.instances[uid]
        labels.append(PseudoLabel(uid=uid, class_id=inst.class_id,
                                  lambda_bar=inst.consistent_logits,
                                  mask=mask, bbox=mask_bbox(mask)))
    return labels


def build_pseudo_dataset(trajectory, vmap: SemanticVoxelMap, K: CameraIntrinsics,
                         occlusion_tolerance: float | None = None) -> PseudoDataset:
    """Project every instance onto every frame of the trajectory.

    Frames keep empty lists when nothing projects; an instance appears in
    every frame where it passes the depth test, including frames whose
    detector output missed it.
    """
    frames = [project_instance_masks(vmap, frame, K,
                                     occlusion_tolerance=occlusion_tolerance)
              for frame in trajectory.frames]
    return PseudoDataset(frames=frames)


def dataset_to_coco(dataset: PseudoDataset, K: CameraIntrinsics) -> dict:
    """COCO-style export: images[], annotations[], categories[]."""
    from .scene import CLASS_NAMES
    from .serialize import rle_encode_bool

    images = [{"id": i, "width": K.width, "height": K.height}
              for i in range(len(dataset))]
    annotations = []
    ann_id = 0
    for frame_id, lab in dataset.all_labels():
        u0, v0, u1, v1 = lab.bbox
        annotations.append({
            "id": ann_id,
            "image_id": frame_id,
            "instance_uid": lab.uid,
            "category_id": lab.class_id,
            "bbox": [u0, v0, u1 - u0 + 1, v1 - v0 + 1],
            "segmentation": rle_encode_bool(lab.mask),
            "lambda_bar": [float(x) for x in lab.lambda_bar],
        })
        ann_id += 1
    categories = [{"id": i, "name": name} for i, name in enumerate(CLASS_NAMES)]
    return {"images": images, "annotations": annotations, "categories": categories}
