"""Procedural indoor scenes and a pinhole depth camera.

World frame is z-up, right-handed; yaw 0 faces +x. Image x points right,
image y points down, so the camera basis is right=(sin yaw, -cos yaw, 0),
down=(0, 0, -1), forward=(cos yaw, sin yaw, 0). Depth is planar z-depth
(distance along the camera forward axis), not ray length.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .serialize import JsonDataclass, canonical_dumps, write_atomic

CLASS_NAMES = ("toilet", "couch", "bed", "dining table", "potting plant", "tv")
NUM_CLASSES = len(CLASS_NAMES)

# Sensing range (m) of the renderer and the occupancy grid's ray length.
MAX_RANGE = 10.0
# Height (m) of the camera above the floor, the z of every pose.
CAMERA_HEIGHT = 1.25

# Nominal object footprints (dx, dy, height) in meters, per class.
CLASS_SIZES = (
    (0.5, 0.5, 0.8),    # toilet
    (1.8, 0.9, 0.9),    # couch
    (2.0, 1.5, 0.7),    # bed
    (1.4, 0.9, 0.78),   # dining table
    (0.4, 0.4, 1.1),    # potting plant
    (1.1, 0.15, 1.6),   # tv (panel on a stand)
)


class SceneInfeasibleError(ValueError):
    """Rejection sampling could not satisfy a placement constraint."""


@dataclass(frozen=True)
class Box(JsonDataclass):
    """Axis-aligned 3D box, meters; kept in JSON as a list of six numbers."""

    _json_as_list = True

    xmin: float
    ymin: float
    zmin: float
    xmax: float
    ymax: float
    zmax: float

    def __post_init__(self):
        self._require("finite", *self.__dataclass_fields__)
        if not (self.xmax > self.xmin and self.ymax > self.ymin and self.zmax > self.zmin):
            raise ValueError(f"box has non-positive extent: {self}")

    def contains_xy(self, x: float, y: float, margin: float = 0.0) -> bool:
        return (self.xmin - margin <= x <= self.xmax + margin
                and self.ymin - margin <= y <= self.ymax + margin)


def _boxes_xy_gap(a: Box, b: Box) -> float:
    """Smallest horizontal gap between two boxes' footprints (0 if overlapping)."""
    dx = max(a.xmin - b.xmax, b.xmin - a.xmax, 0.0)
    dy = max(a.ymin - b.ymax, b.ymin - a.ymax, 0.0)
    return math.hypot(dx, dy)


@dataclass(frozen=True)
class ObjectInstance(JsonDataclass):
    gt_id: int
    class_id: int
    box: Box

    def __post_init__(self):
        if not 0 <= self.class_id < NUM_CLASSES:
            raise ValueError(f"class_id out of range: {self.class_id}")


@dataclass(frozen=True)
class SceneSpec(JsonDataclass):
    """Ground-truth world: room bounds, obstacle boxes, labeled object boxes.

    A JsonDataclass: scene.json is its to_json, and from_json rejects unknown
    keys and mistyped values, naming the field.
    """

    bounds: Box
    obstacles: tuple[Box, ...]
    objects: tuple[ObjectInstance, ...]
    seed: int = 0

    def __post_init__(self):
        ids = [o.gt_id for o in self.objects]
        if ids != list(range(len(ids))):
            raise ValueError("object ids must be unique and dense from 0")

    def object_by_id(self, gt_id: int) -> ObjectInstance:
        return self.objects[gt_id]

    def all_solid_boxes(self) -> list[Box]:
        return list(self.obstacles) + [o.box for o in self.objects]

    def save(self, path) -> None:
        """Write the canonical scene.json text, atomically."""
        write_atomic(path, canonical_dumps(self.to_json()) + "\n")


@dataclass(frozen=True)
class CameraIntrinsics(JsonDataclass):
    """Pinhole intrinsics in pixels; a JsonDataclass with every field required."""

    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        self._require("positive", "fx", "fy")
        if not (0 < self.cx < self.width and 0 < self.cy < self.height):
            raise ValueError(f"cx, cy must lie inside the {self.width}x{self.height} "
                             f"image, got {self.cx}, {self.cy}")

    @classmethod
    def default(cls, width: int = 64, height: int = 48) -> "CameraIntrinsics":
        # ~53 degree horizontal FOV; keeps the pixel footprint at typical
        # viewing distances no larger than the 5 cm voxel, so voxelized
        # surfaces stay 26-connected
        f = float(width)
        return cls(fx=f, fy=f, cx=width / 2.0, cy=height / 2.0, width=width, height=height)


def normalize_angle(a: float) -> float:
    """Wrap to [-pi, pi)."""
    return (a + math.pi) % (2.0 * math.pi) - math.pi


@dataclass(frozen=True)
class Pose(JsonDataclass):
    """Camera position (m) at height CAMERA_HEIGHT and yaw (rad, wrapped to
    [-pi, pi)); a JsonDataclass."""

    x: float
    y: float
    yaw: float

    def __post_init__(self):
        object.__setattr__(self, "yaw", normalize_angle(self.yaw))


NO_INSTANCE = -1


@dataclass(eq=False)
class FrameObservation:
    """Per-step sensor bundle: pose, planar z-depth image, gt instance-id image.

    depth == 0 means no hit within max range; gt_instance is NO_INSTANCE there.
    """

    pose: Pose
    depth: np.ndarray       # (H, W) float64
    gt_instance: np.ndarray  # (H, W) int32, NO_INSTANCE where not an object


def visible_instances(frame: FrameObservation, min_pixels: int) -> list:
    """(gt_id, mask) of each object covering at least min_pixels pixels of
    frame, by ascending gt_id: the instances a detector can see."""
    counts = np.bincount(frame.gt_instance.ravel() + 1)[1:]
    return [(gt_id, frame.gt_instance == gt_id)
            for gt_id in np.flatnonzero(counts >= max(min_pixels, 1)).tolist()]


@dataclass(frozen=True)
class SceneParams(JsonDataclass):
    """Scene-generation knobs, a JsonDataclass; counts are per-class inclusive ranges."""

    room_size_min: float = 10.0
    room_size_max: float = 12.0
    objects_per_class_min: int = 1
    objects_per_class_max: int = 1
    min_separation: float = 0.4
    wall_thickness: float = 0.1
    wall_height: float = 3.0
    n_partitions: int = 3
    size_jitter: float = 0.1
    max_retries: int = 200

    def __post_init__(self):
        self._require("positive", "room_size_min", "wall_thickness", "wall_height")
        self._require("non-negative", "objects_per_class_min", "n_partitions",
                      "size_jitter", "min_separation")
        self._require("at least 1", "max_retries")
        for lo, hi in (("room_size_min", "room_size_max"),
                       ("objects_per_class_min", "objects_per_class_max")):
            if getattr(self, lo) > getattr(self, hi):
                raise ValueError(f"{lo} must not exceed {hi}, got "
                                 f"{getattr(self, lo)} > {getattr(self, hi)}")


def generate_scene(params: SceneParams, seed: int) -> SceneSpec:
    """Deterministic rejection-sampled room with perimeter walls and objects."""
    rng = np.random.default_rng(seed)
    sx = float(rng.uniform(params.room_size_min, params.room_size_max))
    sy = float(rng.uniform(params.room_size_min, params.room_size_max))
    h = params.wall_height
    t = params.wall_thickness
    bounds = Box(0.0, 0.0, 0.0, sx, sy, h)
    walls = (
        Box(0.0, 0.0, 0.0, sx, t, h),
        Box(0.0, sy - t, 0.0, sx, sy, h),
        Box(0.0, 0.0, 0.0, t, sy, h),
        Box(sx - t, 0.0, 0.0, sx, sy, h),
    )

    # interior partition walls with a doorway, so coverage requires exploring
    partitions: list[Box] = []
    for k in range(params.n_partitions):
        along_x = bool(rng.integers(2))
        span = sx if along_x else sy
        other = sy if along_x else sx
        pos = float(rng.uniform(0.3 * other, 0.7 * other))
        length = 0.55 * span
        from_low = bool(rng.integers(2))
        lo = t if from_low else span - t - length
        hi = lo + length
        if along_x:
            partitions.append(Box(lo, pos - t / 2, 0.0, hi, pos + t / 2, h))
        else:
            partitions.append(Box(pos - t / 2, lo, 0.0, pos + t / 2, hi, h))

    counts = [int(rng.integers(params.objects_per_class_min,
                               params.objects_per_class_max + 1))
              for _ in range(NUM_CLASSES)]
    objects: list[ObjectInstance] = []
    gt_id = 0
    for class_id in range(NUM_CLASSES):
        for _ in range(counts[class_id]):
            dx0, dy0, dz = CLASS_SIZES[class_id]
            placed = False
            for _ in range(params.max_retries):
                jx = 1.0 + float(rng.uniform(-params.size_jitter, params.size_jitter))
                jy = 1.0 + float(rng.uniform(-params.size_jitter, params.size_jitter))
                dx, dy = dx0 * jx, dy0 * jy
                lo_x, hi_x = t + 0.05, sx - t - 0.05 - dx
                lo_y, hi_y = t + 0.05, sy - t - 0.05 - dy
                if hi_x <= lo_x or hi_y <= lo_y:
                    continue
                x = float(rng.uniform(lo_x, hi_x))
                y = float(rng.uniform(lo_y, hi_y))
                box = Box(x, y, 0.0, x + dx, y + dy, dz)
                if (all(_boxes_xy_gap(box, o.box) >= params.min_separation
                        for o in objects)
                        and all(_boxes_xy_gap(box, w) >= 0.35 for w in partitions)):
                    objects.append(ObjectInstance(gt_id, class_id, box))
                    gt_id += 1
                    placed = True
                    break
            if not placed:
                raise SceneInfeasibleError(
                    f"scene infeasible: could not place class {CLASS_NAMES[class_id]} "
                    f"with min_separation={params.min_separation} "
                    f"after {params.max_retries} retries")
    return SceneSpec(bounds=bounds, obstacles=walls + tuple(partitions),
                     objects=tuple(objects), seed=seed)


def render_frame(scene: SceneSpec, pose: Pose, K: CameraIntrinsics) -> FrameObservation:
    """Nearest ray/box hit per pixel within MAX_RANGE by the slab method, box by
    box over its spans, from a camera at height CAMERA_HEIGHT.

    Needs zero camera pitch and roll and axis-aligned boxes, so that a column
    shares one horizontal ray direction and a row one vertical component: each
    box's x/y slab interval is taken per column, its z interval per row. A box
    is tested only on the rows and columns whose intervals can hold a hit (NaN
    never culls), in index order, obstacles first, and takes a pixel only when
    strictly nearer than the running nearest hit: a tie keeps the lower index.
    """
    H, W = K.height, K.width
    boxes = scene.all_solid_boxes()
    gt = np.full((H, W), NO_INSTANCE, dtype=np.int32)
    if not boxes:
        return FrameObservation(pose=pose, depth=np.zeros((H, W)), gt_instance=gt)
    depth = np.full((H, W), np.inf)   # the running nearest hit

    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    us = (np.arange(W) + 0.0 - K.cx) / K.fx
    vs = (np.arange(H) + 0.0 - K.cy) / K.fy
    origin = (pose.x, pose.y, CAMERA_HEIGHT)
    lo = np.array([(b.xmin, b.ymin, b.zmin) for b in boxes]) - origin  # (M, 3)
    hi = np.array([(b.xmax, b.ymax, b.zmax) for b in boxes]) - origin
    with np.errstate(divide="ignore", invalid="ignore"):
        # direction us * right + vs * down + forward (t = planar depth): down
        # has no x/y part, right and forward no z part; inf on zero components
        inv_xy = 1.0 / (us[:, None] * (s, -c) + (c, s))   # (W, 2)
        inv_z = 1.0 / (vs * -1.0 + 0.0)                    # (H,)
        t1, t2 = lo[:, None, :2] * inv_xy, hi[:, None, :2] * inv_xy   # (M, W, 2)
        z1, z2 = lo[:, 2:] * inv_z, hi[:, 2:] * inv_z                 # (M, H)
    # fmax/fmin skip NaN: 0 * inf when the origin lies on a slab plane
    near_xy = np.fmax.reduce(np.minimum(t1, t2), axis=-1)         # (M, W)
    far_xy = np.fmin.reduce(np.maximum(t1, t2), axis=-1)
    near_z, far_z = np.minimum(z1, z2), np.maximum(z1, z2)        # (M, H)
    eps = 1e-9
    cols = ~((far_xy < near_xy) | (far_xy <= eps) | (near_xy > MAX_RANGE))
    rows = ~((far_z < near_z) | (far_z <= eps) | (near_z > MAX_RANGE))
    n_obstacles = len(scene.obstacles)
    for m in np.flatnonzero(cols.any(1) & rows.any(1)).tolist():
        cs, rs = np.flatnonzero(cols[m]), np.flatnonzero(rows[m])
        span = np.s_[rs[0]:rs[-1] + 1, cs[0]:cs[-1] + 1]
        tnear = np.fmax(near_xy[m, span[1]], near_z[m, span[0], None])
        tfar = np.fmin(far_xy[m, span[1]], far_z[m, span[0], None])
        nearest = depth[span]
        # tnear <= MAX_RANGE in the span: a box cut by a half-space is convex,
        # so kept rows and columns are intervals; a NaN tnear fails tnear > eps
        hit = (tfar >= tnear) & (tnear > eps) & (tnear < nearest)
        nearest[hit] = tnear[hit]
        if m >= n_obstacles:   # every obstacle precedes every object
            gt[span][hit] = m - n_obstacles
    depth[depth == np.inf] = 0.0
    return FrameObservation(pose=pose, depth=depth, gt_instance=gt)


def pixel_to_world(u, v, d, K: CameraIntrinsics, pose: Pose) -> np.ndarray:
    """Lift pixel(s) at planar depth d to world points. Accepts arrays; (..., 3).

    Each axis sums only the non-zero products of the yaw-only basis right =
    (s, -c, 0), down = (0, 0, -1), forward = (c, s, 0), in the order of X *
    right + Y * down + d * forward + position: dropping an exact +-0 product
    can change only the sign of a zero sum, which the next term absorbs.
    """
    u, v, d = (np.asarray(a, dtype=float) for a in (u, v, d))
    if np.any(d <= 0):
        raise ValueError("invalid depth")
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    X = (u - K.cx) * d / K.fx
    Y = (v - K.cy) * d / K.fy
    pts = np.empty((3, *np.broadcast(X, Y, d).shape))
    pts[0] = X * s + d * c + pose.x
    pts[1] = -(X * c) + d * s + pose.y
    pts[2] = -Y + CAMERA_HEIGHT
    return np.moveaxis(pts, 0, -1)


def world_to_pixel(p, K: CameraIntrinsics, pose: Pose):
    """Project world points (..., 3) to arrays (u, v, planar depth).

    d <= 0 marks points behind the camera; the caller clips to image
    bounds. Each point's result is bit-identical however many points are
    projected with it. Each axis sums only the non-zero products of the
    yaw-only basis right = (s, -c, 0), down = (0, 0, -1), forward = (c, s,
    0): dropping an exact +-0 product can change only the sign of a zero
    sum, which reaches u and v only as cx and cy, or fails d > 0 (on the
    camera's vertical axis d may be -0, and v an infinity of either sign).
    """
    p = np.asarray(p, dtype=float)
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    dx, dy = p[..., 0] - pose.x, p[..., 1] - pose.y
    X, Y, Z = dx * s - dy * c, -(p[..., 2] - CAMERA_HEIGHT), dx * c + dy * s
    with np.errstate(divide="ignore", invalid="ignore"):
        u = X / Z * K.fx + K.cx
        v = Y / Z * K.fy + K.cy
    return u, v, Z
