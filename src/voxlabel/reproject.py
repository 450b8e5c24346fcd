"""Project extracted 3D instances back onto every frame as pseudo-labels.

Each instance voxel's centre, computed once per map, is projected through the
camera; a depth-buffer test within 2 voxel sizes handles occlusion, and each
accepted voxel splats its square footprint so masks stay dense. Overlaps
resolve on each accepted voxel's rank in (depth, uid) order, spread over each
footprint radius by a separable square-window minimum: nearer depth wins, an
exact tie goes to the lower uid. The winning ranks are read back as uids by
one gather.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .consensus import SemanticVoxelMap
from .detector import mask_bbox
from .scene import CLASS_NAMES, CameraIntrinsics, FrameObservation, world_to_pixel
from .serialize import rle_encode_bool

_NO_KEY = 1 << 62   # "no voxel"; above every voxel's (depth, uid) rank


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
                           K: CameraIntrinsics) -> list[PseudoLabel]:
    """Pseudo-labels for every instance visible in this frame.

    A voxel claims its projected pixel iff the pixel is in bounds, the voxel
    is in front of the camera, and the projected depth matches the frame depth
    within an occlusion tolerance of 2 * voxel_size. Claimed pixels are dilated
    by the voxel's projected footprint. Where footprints overlap, the nearer
    depth wins and an exact depth tie goes to the lower uid. Labels come in
    ascending uid order, one per instance that wins at least one pixel.
    """
    if not vmap.extracted:
        raise ValueError("map must be extracted before reprojection")
    H, W = K.height, K.width
    u, v, d = world_to_pixel(vmap.member_centres, K, frame.pose)
    # np.round halves to even, so u = W - 0.5 is in bounds when W is odd: a
    # float window that also drops inf and NaN, then the test on the pixel
    ok = np.flatnonzero((d > 0) & (u >= -0.5) & (u <= W - 0.5)
                        & (v >= -0.5) & (v <= H - 0.5))
    ui, vi = np.round(u[ok]).astype(int), np.round(v[ok]).astype(int)
    inside = (ui < W) & (vi < H)
    ok, ui, vi = ok[inside], ui[inside], vi[inside]
    frame_d = frame.depth[vi, ui]
    hit = (frame_d > 0) & (np.abs(d[ok] - frame_d) <= 2.0 * vmap.voxel_size)
    if not hit.any():
        return []
    pix, d, owner = vi[hit] * W + ui[hit], d[ok[hit]], vmap.member_uid[ok[hit]]
    radii = np.ceil(vmap.voxel_size * K.fx / (2.0 * d)).astype(int)
    # a voxel's rank is its position in (depth, uid) order: the nearer voxel
    # has the smaller rank, and of two at the same depth the lower uid
    by_rank = np.lexsort((owner, d))
    pix, radii = pix[by_rank], radii[by_rank]
    # a centre splats pixel p iff it lies in p's (2r + 1)-square window
    best = np.full((H, W), _NO_KEY)
    for r in np.flatnonzero(np.bincount(radii)).tolist():
        centre = np.full(H * W, _NO_KEY)
        rank = np.flatnonzero(radii == r)
        np.minimum.at(centre, pix[rank], rank)
        best = np.minimum(best, _window_min(centre.reshape(H, W), r))
    # the winning rank's uid per pixel; _NO_KEY clips to the trailing -1
    winner = np.take(np.append(owner[by_rank], -1), best, mode="clip")

    labels: list[PseudoLabel] = []
    for uid in np.flatnonzero(np.bincount(winner.ravel() + 1)[1:]).tolist():
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
    return PseudoDataset(frames=[project_instance_masks(vmap, frame, K)
                                 for frame in trajectory.frames])


def dataset_to_coco(dataset: PseudoDataset, K: CameraIntrinsics) -> dict:
    """COCO-style export: images[], annotations[], categories[]."""
    images = [{"id": i, "width": K.width, "height": K.height}
              for i in range(len(dataset))]
    annotations = []
    for ann_id, (frame_id, lab) in enumerate(dataset.all_labels()):
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
    categories = [{"id": i, "name": name} for i, name in enumerate(CLASS_NAMES)]
    return {"images": images, "annotations": annotations, "categories": categories}
