"""Project extracted 3D instances back onto every frame as pseudo-labels.

Each instance voxel's centre, computed once per map, is projected through the
camera; a depth-buffer test with a small tolerance handles occlusion, and each
accepted voxel splats its square footprint so masks stay dense. Overlaps
resolve on one int64 key per voxel, (depth rank, uid), spread over each
footprint radius by a separable square-window minimum: nearer depth wins, an
exact tie goes to the lower uid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import SemanticVoxelMap
from .detector import mask_bbox
from .scene import CameraIntrinsics, FrameObservation, world_to_pixel

_NO_KEY = 1 << 62   # "no voxel"; above every (depth rank, uid) key


def _window_min(image: np.ndarray, r: int) -> np.ndarray:
    """Minimum over each pixel's (2r + 1)-square window, _NO_KEY outside:
    one pass per axis, each taking minima over windows of doubling width
    until two overlapping ones cover 2r + 1, so the cost grows with log r."""
    for _ in range(2):
        n = len(image)
        m = np.full((n + 2 * r, image.shape[1]), _NO_KEY)
        m[r:r + n] = image
        span = 1
        while 2 * span <= 2 * r + 1:
            m = np.minimum(m[:-span], m[span:])
            span *= 2
        # m[i] and m[i + 2r + 1 - span] cover padded rows i .. i + 2r; the
        # transpose sends the next pass along the other axis
        image = np.minimum(m[:n], m[2 * r + 1 - span:][:n]).T
    return image


@dataclass(eq=False)
class PseudoLabel:
    """Reprojected consistent annotation for one instance in one frame."""

    uid: int
    class_id: int
    lambda_bar: np.ndarray
    mask: np.ndarray        # (H, W) bool
    bbox: tuple             # (u_min, v_min, u_max, v_max)


@dataclass(eq=False)
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
    u, v, d = world_to_pixel(vmap.member_centres, K, frame.pose)
    ui = np.round(u).astype(int)
    vi = np.round(v).astype(int)
    ok = (d > 0) & (ui >= 0) & (ui < W) & (vi >= 0) & (vi < H)
    frame_d = frame.depth[vi[ok], ui[ok]]
    ok[ok] = (frame_d > 0) & (np.abs(d[ok] - frame_d) <= tol)
    if not ok.any():
        return []
    pix, d, owner = vi[ok] * W + ui[ok], d[ok], vmap.member_uid[ok]
    radii = np.ceil(vmap.voxel_size * K.fx / (2.0 * d)).astype(int)
    # (exact depth rank, uid) in one int64: the nearer voxel has the smaller
    # key, and of two at the same depth the lower uid
    n = len(vmap.instances)
    key = np.unique(d, return_inverse=True)[1] * n + owner
    # a centre splats pixel p iff it lies in p's (2r + 1)-square window
    best = np.full((H, W), _NO_KEY)
    for r in np.unique(radii).tolist():
        centre = np.full(H * W, _NO_KEY)
        np.minimum.at(centre, pix[radii == r], key[radii == r])
        best = np.minimum(best, _window_min(centre.reshape(H, W), r))
    winner = np.where(best < _NO_KEY, best % n, -1)

    labels: list[PseudoLabel] = []
    for uid in np.unique(winner[winner >= 0]).tolist():
        mask = winner == uid
        inst = vmap.instances[uid]
        labels.append(PseudoLabel(uid=uid, class_id=inst.class_id,
                                  lambda_bar=inst.consistent_logits,
                                  mask=mask, bbox=mask_bbox(mask)))
    return labels


def build_pseudo_dataset(trajectory, vmap: SemanticVoxelMap,
                         K: CameraIntrinsics) -> PseudoDataset:
    """Project every instance onto every frame of the trajectory.

    Frames keep empty lists when nothing projects; an instance appears in
    every frame where it passes the depth test, including frames whose
    detector output missed it.
    """
    frames = [project_instance_masks(vmap, frame, K)
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
