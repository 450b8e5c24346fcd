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


def _inv(x):
    """1 / x with IEEE division by zero: a signed infinity."""
    return 1.0 / x if x else math.copysign(math.inf, x)


def _minimum(a, b):
    """np.minimum of two floats: NaN if either is NaN."""
    return math.nan if math.isnan(a) or math.isnan(b) else min(a, b)


def _maximum(a, b):
    return math.nan if math.isnan(a) or math.isnan(b) else max(a, b)


def _fmax(a, b):
    """np.fmax of two floats: the other operand when one is NaN."""
    return b if math.isnan(a) else a if math.isnan(b) else max(a, b)


def _fmin(a, b):
    return b if math.isnan(a) else a if math.isnan(b) else min(a, b)


def slab_render(scene, pose, K, max_range=10.0, eps=1e-9):
    """(depth, gt_instance) images by a scalar slab test per pixel and box.

    Each ray is (u - cx) / fx * right + (v - cy) / fy * down + forward, so t
    is planar depth; per axis t1, t2 = (lo - origin) / d and (hi - origin) / d
    via the reciprocal of d, as float64 scalars. The entry is the NaN-skipping
    max of the per-axis minima (x, then y, then z), the exit the NaN-skipping
    min of the maxima; a box is hit when exit >= entry, entry > eps and entry
    <= max_range. Boxes are scanned obstacles first, then objects, and a hit
    replaces the pixel's nearest only when strictly nearer, so an exact depth
    tie keeps the lower index. depth 0.0 and gt -1 where nothing is hit.
    """
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    origin = (pose.x, pose.y, pose.camera_height)
    boxes = [(b, -1) for b in scene.obstacles] + \
            [(o.box, o.gt_id) for o in scene.objects]
    depth = np.zeros((K.height, K.width))
    gt = np.full((K.height, K.width), -1, dtype=np.int32)
    for v in range(K.height):
        dv = (v + 0.0 - K.cy) / K.fy
        inv_z = _inv(dv * -1.0 + 0.0)
        for u in range(K.width):
            du = (u + 0.0 - K.cx) / K.fx
            inv = (_inv(du * s + c), _inv(du * -c + s), inv_z)
            best = math.inf
            for box, gt_id in boxes:
                lo = (box.xmin, box.ymin, box.zmin)
                hi = (box.xmax, box.ymax, box.zmax)
                t1 = [(lo[k] - origin[k]) * inv[k] for k in range(3)]
                t2 = [(hi[k] - origin[k]) * inv[k] for k in range(3)]
                near = _fmax(_fmax(_minimum(t1[0], t2[0]), _minimum(t1[1], t2[1])),
                             _minimum(t1[2], t2[2]))
                far = _fmin(_fmin(_maximum(t1[0], t2[0]), _maximum(t1[1], t2[1])),
                            _maximum(t1[2], t2[2]))
                if far >= near and near > eps and near <= max_range and near < best:
                    best = near
                    depth[v, u], gt[v, u] = near, gt_id
    return depth, gt


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


def astar_path(cells_free, start, goal, extra_blocked=frozenset()):
    """A* over (row, col) tuples, by the textbook recipe.

    4-connected unit-cost moves between free cells that are in bounds and
    not in extra_blocked; Manhattan heuristic; the heap key is (f, h, row,
    col), and a cell's parent is the last expansion that lowered its cost.
    Returns the path with both endpoints, or None when either endpoint is
    unusable or the goal is unreachable.
    """
    import heapq
    rows, cols = cells_free.shape
    start = (int(start[0]), int(start[1]))
    goal = (int(goal[0]), int(goal[1]))

    def usable(cell):
        return (0 <= cell[0] < rows and 0 <= cell[1] < cols
                and bool(cells_free[cell]) and cell not in extra_blocked)

    def h(cell):
        return abs(cell[0] - goal[0]) + abs(cell[1] - goal[1])

    if not usable(start) or not usable(goal):
        return None
    g = {start: 0}
    parent = {start: None}
    closed = set()
    heap = [(h(start), h(start), start[0], start[1])]
    while heap:
        _, _, r, c = heapq.heappop(heap)
        if (r, c) in closed:
            continue
        closed.add((r, c))
        if (r, c) == goal:
            path = [goal]
            while parent[path[-1]] is not None:
                path.append(parent[path[-1]])
            return path[::-1]
        for nxt in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if usable(nxt) and nxt not in closed and g[r, c] + 1 < g.get(nxt, math.inf):
                g[nxt] = g[r, c] + 1
                parent[nxt] = (r, c)
                heapq.heappush(heap, (g[nxt] + h(nxt), h(nxt), nxt[0], nxt[1]))
    return None


def occupancy_by_column_march(cells, frame, K, cell_size, origin,
                              max_range=10.0, free=1, occupied=2):
    """Occupancy update by a python march per image column.

    Each column's track is sampled at every t = step, 2 step, ... up to
    max_range (step = cell_size / 2), with no cut at the frame's farthest
    return; samples short of the column's nearest positive depth (max_range
    when there is none) free their cell, then each return's cell becomes
    occupied. Mutates and returns cells.
    """
    pose = frame.pose
    c, s = math.cos(pose.yaw), math.sin(pose.yaw)
    rows, cols = cells.shape
    step = cell_size * 0.5
    ts = np.arange(step, max_range + step, step).tolist()

    def cell_of(x, y):
        col = math.floor((x - origin[0]) / cell_size)
        row = math.floor((y - origin[1]) / cell_size)
        return (row, col) if 0 <= row < rows and 0 <= col < cols else None

    returns = []
    for u in range(K.width):
        us = (u - K.cx) / K.fx
        dx, dy = c + us * s, s + us * -c
        hits = [float(d) for d in frame.depth[:, u] if d > 0]
        depth = min(hits) if hits else max_range
        for t in ts:
            cell = cell_of(pose.x + t * dx, pose.y + t * dy)
            if t < depth - 1e-9 and cell is not None:
                cells[cell] = free
        if hits:
            returns.append(cell_of(pose.x + depth * dx, pose.y + depth * dy))
    for cell in returns:
        if cell is not None:
            cells[cell] = occupied
    return cells


def bfs_distances(cells, start, free=1, extra_blocked=frozenset()):
    """Shortest 4-connected path length from start to every reachable free
    cell not in extra_blocked, as a dict; empty when start itself is not."""
    from collections import deque
    if cells[start] != free or start in extra_blocked:
        return {}
    dist = {start: 0}
    q = deque([start])
    rows, cols = cells.shape
    while q:
        r, c = q.popleft()
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (0 <= nr < rows and 0 <= nc < cols and cells[nr, nc] == free
                    and (nr, nc) not in dist and (nr, nc) not in extra_blocked):
                dist[(nr, nc)] = dist[(r, c)] + 1
                q.append((nr, nc))
    return dist


def next_goal_by_bfs(policy, cells, start, rng, frontiers, free=1,
                     extra_blocked=frozenset()):
    """Goal choice from a full distance map: random draws uniformly over the
    reachable cells in (row, col) order, frontier takes the reachable
    frontier cell nearest by path, ties to the lowest (row, col)."""
    rows, cols = cells.shape
    if not (0 <= start[0] < rows and 0 <= start[1] < cols):
        return None
    dist = bfs_distances(cells, start, free, extra_blocked)
    if not dist:
        return None
    if policy == "random":
        candidates = sorted(dist)
        return candidates[int(rng.integers(len(candidates)))]
    reachable = [f for f in frontiers if f in dist]
    if not reachable:
        return None
    return min(reachable, key=lambda f: (dist[f], f[0], f[1]))


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


def max_score_labels(observations):
    """Per-voxel class by definition: the class of the highest-score
    observation covering the voxel; a score tie goes to the lower class.

    observations: iterable of (keys, class_id, score).
    Returns dict (ix, iy, iz) -> class_id.
    """
    best = {}
    for keys, class_id, score in observations:
        for key in keys:
            if key not in best or (-score, class_id) < best[key]:
                best[key] = (-score, class_id)
    return {key: class_id for key, (_, class_id) in best.items()}


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


def batch_all_triplet(features, uids, margin=0.3):
    """Batch-all triplet loss by a triple loop over (a, p, n).

    Returns (value, grad). The mean is taken with np.mean over the active
    terms in (a, p, n) order, and the gradient accumulates the anchor, then
    the positive, then the negative contributions triplet by triplet, so a
    kernel that keeps these orders matches it bit for bit.
    """
    f = np.asarray(features, dtype=float)
    uids = np.asarray(uids).tolist()
    k = f.shape[0]
    grad = np.zeros_like(f)
    dist, unit = {}, {}
    for i in range(k):
        for j in range(k):
            d = f[i] - f[j]
            dist[i, j] = float(np.sqrt(np.sum(d * d)))
            unit[i, j] = d / dist[i, j] if dist[i, j] > 0 else np.zeros_like(d)

    active = []
    for a in range(k):
        for p in range(k):
            if p == a or uids[p] != uids[a]:
                continue
            for n in range(k):
                if uids[n] == uids[a]:
                    continue
                term = dist[a, p] - dist[a, n] + margin
                if term > 0:
                    active.append((a, p, n, term))
    if not active:
        return 0.0, grad
    value = float(np.mean([t[3] for t in active]))
    m = len(active)
    for a, p, n, _ in active:
        grad[a] += (unit[a, p] - unit[a, n]) / m
    for a, p, n, _ in active:
        grad[p] += -unit[a, p] / m
    for a, p, n, _ in active:
        grad[n] += unit[a, n] / m
    return value, grad


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
