"""Independent reference implementations used only by the tests.

Deliberately naive: python loops, brute-force scans, ray marching, finite
differences. They share no code with the library paths they check.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------- rendering

def ray_march_depth(scene, pose, K, u, v, max_range=10.0, step=0.001):
    """Planar depth at pixel (u, v) by marching 1 mm along the ray.

    Returns (depth, gt_id); depth 0.0 / gt_id -1 when nothing is hit.
    """
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    right = np.array([s, -c, 0.0])
    down = np.array([0.0, 0.0, -1.0])
    forward = np.array([c, s, 0.0])
    direction = ((u - K.cx) / K.fx) * right + ((v - K.cy) / K.fy) * down + forward
    origin = np.array([pose.x, pose.y, pose.camera_height])
    boxes = [(b, None) for b in scene.obstacles] + \
            [(o.box, o.gt_id) for o in scene.objects]
    t = step
    while t <= max_range:
        p = origin + t * direction
        for box, gt_id in boxes:
            if (box.xmin <= p[0] <= box.xmax and box.ymin <= p[1] <= box.ymax
                    and box.zmin <= p[2] <= box.zmax):
                return t, (gt_id if gt_id is not None else -1)
        t += step
    return 0.0, -1


def project_homogeneous(p, K, pose):
    """world_to_pixel via explicit 4x4 extrinsics and 3x3 intrinsics matrices."""
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    # columns of world-from-camera rotation: right, down, forward
    R_wc = np.array([[s, 0.0, c],
                     [-c, 0.0, s],
                     [0.0, -1.0, 0.0]])
    t_wc = np.array([pose.x, pose.y, pose.camera_height])
    T = np.eye(4)
    T[:3, :3] = R_wc.T
    T[:3, 3] = -R_wc.T @ t_wc
    ph = T @ np.array([p[0], p[1], p[2], 1.0])
    X, Y, Z = ph[:3]
    if Z <= 0:
        return None
    Km = np.array([[K.fx, 0, K.cx], [0, K.fy, K.cy], [0, 0, 1.0]])
    uvw = Km @ np.array([X, Y, Z])
    return uvw[0] / uvw[2], uvw[1] / uvw[2], Z


# ------------------------------------------------------------------ explore

def bfs_path_cost(cells_free, start, goal):
    """Unit-cost shortest path length on 4-connected free cells, or None."""
    from collections import deque
    if not cells_free[start] or not cells_free[goal]:
        return None
    dist = {start: 0}
    q = deque([start])
    rows, cols = cells_free.shape
    while q:
        r, c = q.popleft()
        if (r, c) == goal:
            return dist[(r, c)]
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if 0 <= nr < rows and 0 <= nc < cols and cells_free[nr, nc] \
                    and (nr, nc) not in dist:
                dist[(nr, nc)] = dist[(r, c)] + 1
                q.append((nr, nc))
    return None


def frontier_scan(cells, free=1, unknown=0):
    """Frontier representatives by definition scan + BFS clustering."""
    rows, cols = cells.shape
    frontier = set()
    for r in range(rows):
        for c in range(cols):
            if cells[r, c] != free:
                continue
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < rows and 0 <= nc < cols and cells[nr, nc] == unknown:
                    frontier.add((r, c))
                    break
    clusters = []
    seen = set()
    for cell in sorted(frontier):
        if cell in seen:
            continue
        stack = [cell]
        comp = []
        seen.add(cell)
        while stack:
            r, c = stack.pop()
            comp.append((r, c))
            for dr in (-1, 0, 1):
                for dc in (-1, 0, 1):
                    n = (r + dr, c + dc)
                    if n in frontier and n not in seen:
                        seen.add(n)
                        stack.append(n)
        clusters.append(comp)
    reps = []
    for comp in clusters:
        rs = [c[0] for c in comp]
        cs = [c[1] for c in comp]
        cr, cc = sum(rs) / len(rs), sum(cs) / len(cs)
        reps.append(min(comp, key=lambda x: ((x[0] - cr) ** 2 + (x[1] - cc) ** 2,
                                             x[0], x[1])))
    return sorted(reps)


# ---------------------------------------------------------------- consensus

def flood_fill_components(keys_by_class):
    """26-connected components per class via python BFS.

    keys_by_class: dict class_id -> iterable of (ix, iy, iz).
    Returns a list of (class_id, frozenset(keys)).
    """
    out = []
    for class_id, keys in keys_by_class.items():
        remaining = set(map(tuple, keys))
        while remaining:
            seed = remaining.pop()
            comp = {seed}
            stack = [seed]
            while stack:
                ix, iy, iz = stack.pop()
                for dx in (-1, 0, 1):
                    for dy in (-1, 0, 1):
                        for dz in (-1, 0, 1):
                            if dx == dy == dz == 0:
                                continue
                            n = (ix + dx, iy + dy, iz + dz)
                            if n in remaining:
                                remaining.remove(n)
                                comp.add(n)
                                stack.append(n)
            out.append((class_id, frozenset(comp)))
    return out


def softmax_ref(logits):
    x = np.asarray(logits, dtype=float)
    e = np.exp(x - x.max())
    return e / e.sum()


def mean_softmax(logit_vectors):
    """Softmax-average oracle for the consistent probability vector."""
    return np.mean([softmax_ref(l) for l in logit_vectors], axis=0)


# ---------------------------------------------------------------- reproject

def painter_reproject(instance_keys, voxel_size, depth, K, pose, tolerance):
    """Winning instance uid per pixel (-1 where none) by a python painter.

    instance_keys: dict uid -> iterable of voxel keys (ix, iy, iz). Instances
    are painted in ascending uid order, voxel by voxel, footprint pixel by
    footprint pixel; a pixel takes the voxel's planar depth only when it is
    strictly nearer than the z-buffer, so the nearer depth wins and an exact
    tie keeps the lower uid. A voxel paints only when its centre projects in
    bounds, in front of the camera, and within `tolerance` of a non-zero
    frame depth; its footprint radius is ceil(voxel_size * fx / (2 * depth)).
    """
    H, W = K.height, K.width
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    zbuf = [[math.inf] * W for _ in range(H)]
    winner = [[-1] * W for _ in range(H)]
    for uid in sorted(instance_keys):
        for key in sorted(instance_keys[uid]):
            px, py, pz = ((k + 0.5) * voxel_size for k in key)
            dx, dy, dz = px - pose.x, py - pose.y, pz - pose.camera_height
            z = dx * c + dy * s
            if z <= 0:
                continue
            u = round((dx * s - dy * c) / z * K.fx + K.cx)
            v = round(-dz / z * K.fy + K.cy)
            if not (0 <= u < W and 0 <= v < H):
                continue
            frame_d = float(depth[v][u])
            if not (frame_d > 0 and abs(z - frame_d) <= tolerance):
                continue
            r = math.ceil(voxel_size * K.fx / (2.0 * z))
            for tv in range(v - r, v + r + 1):
                for tu in range(u - r, u + r + 1):
                    if 0 <= tu < W and 0 <= tv < H and z < zbuf[tv][tu]:
                        zbuf[tv][tu] = z
                        winner[tv][tu] = uid
    return np.array(winner)


# ------------------------------------------------------------------- losses

def finite_difference_grad(f, x, h=1e-6):
    """Central finite differences of a scalar function of an array."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        xp = x.copy()
        xp[idx] += h
        xm = x.copy()
        xm[idx] -= h
        g[idx] = (f(xp) - f(xm)) / (2 * h)
        it.iternext()
    return g


def relative_error(a, b):
    denom = max(np.linalg.norm(a), np.linalg.norm(b), 1e-12)
    return np.linalg.norm(np.asarray(a) - np.asarray(b)) / denom


# --------------------------------------------------------------------- eval

def iou_ref(a, b):
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    iw = min(ax1, bx1) - max(ax0, bx0) + 1
    ih = min(ay1, by1) - max(ay0, by0) + 1
    inter = max(iw, 0) * max(ih, 0)
    union = ((ax1 - ax0 + 1) * (ay1 - ay0 + 1)
             + (bx1 - bx0 + 1) * (by1 - by0 + 1) - inter)
    return inter / union


def ap_brute_force(pred_boxes, pred_scores, gt_boxes, iou_thresh=0.5,
                   pred_frames=None, gt_frames=None):
    """AP by explicit PR-curve point enumeration with greedy matching."""
    n_gt = len(gt_boxes)
    if n_gt == 0:
        return None
    if not pred_boxes:
        return 0.0
    if pred_frames is None:
        pred_frames = [0] * len(pred_boxes)
    if gt_frames is None:
        gt_frames = [0] * n_gt
    order = sorted(range(len(pred_boxes)), key=lambda i: (-pred_scores[i], i))
    matched = set()
    points = []   # (recall, precision) after each prediction
    tp = 0
    for n_seen, i in enumerate(order, start=1):
        best = None
        best_v = -1.0
        for j in range(n_gt):
            if j in matched or gt_frames[j] != pred_frames[i]:
                continue
            v = iou_ref(pred_boxes[i], gt_boxes[j])
            if v >= iou_thresh and v > best_v:
                best, best_v = j, v
        if best is not None:
            matched.add(best)
            tp += 1
        points.append((tp / n_gt, tp / n_seen))
    ap = 0.0
    prev_recall = 0.0
    for k, (r, _) in enumerate(points):
        if r > prev_recall:
            p_max = max(p for rr, p in points[k:] if rr >= r)
            ap += (r - prev_recall) * p_max
            prev_recall = r
    return ap
