"""Embodied exploration: occupancy mapping, A* planning, and goal policies.

Both goal policies (random reachable, nearest frontier) and A* search one
passable byte grid. Episodes are fully deterministic given a seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
import heapq
import math

import numpy as np
from scipy import ndimage

from .detector import DetectionSet, NoiseModel, simulate_detections
from .scene import (CameraIntrinsics, FrameObservation, Pose, SceneSpec,
                    normalize_angle, render_frame)
from .serialize import derive_seed

UNKNOWN, FREE, OCCUPIED = 0, 1, 2

AGENT_RADIUS = 0.15


class Action(Enum):
    FORWARD = "forward"
    TURN_LEFT = "turn_left"
    TURN_RIGHT = "turn_right"


FORWARD_STEP = 0.25
TURN_STEP = math.radians(10.0)


@dataclass
class OccupancyGrid:
    """2D grid over the scene footprint; origin is the world xy of cell (0,0)."""

    cell_size: float
    cells: np.ndarray           # (rows, cols) uint8 in {UNKNOWN, FREE, OCCUPIED}
    origin: tuple               # (x, y)

    @classmethod
    def for_scene(cls, scene: SceneSpec, cell_size: float = 0.1) -> "OccupancyGrid":
        b = scene.bounds
        cols = int(math.ceil((b.xmax - b.xmin) / cell_size))
        rows = int(math.ceil((b.ymax - b.ymin) / cell_size))
        return cls(cell_size=cell_size,
                   cells=np.zeros((rows, cols), dtype=np.uint8),
                   origin=(b.xmin, b.ymin))

    def world_to_cell(self, x: float, y: float) -> tuple:
        col = int(math.floor((x - self.origin[0]) / self.cell_size))
        row = int(math.floor((y - self.origin[1]) / self.cell_size))
        return (row, col)

    def cell_center(self, cell: tuple) -> tuple:
        row, col = cell
        return (self.origin[0] + (col + 0.5) * self.cell_size,
                self.origin[1] + (row + 0.5) * self.cell_size)

    def in_bounds(self, cell: tuple) -> bool:
        return 0 <= cell[0] < self.cells.shape[0] and 0 <= cell[1] < self.cells.shape[1]


@dataclass
class AgentState:
    pose: Pose


@dataclass
class Trajectory:
    """Ordered (observation, detections) pairs for steps 0..N-1."""

    frames: list    # list[FrameObservation]
    detections: list  # list[DetectionSet]

    def __len__(self):
        return len(self.frames)


def _mark(grid: OccupancyGrid, x, y, keep, value: int):
    """Set the cells under the world points (x, y) where keep holds to value."""
    cols = np.floor((x - grid.origin[0]) / grid.cell_size).astype(int)
    rows = np.floor((y - grid.origin[1]) / grid.cell_size).astype(int)
    ok = (keep & (rows >= 0) & (rows < grid.cells.shape[0])
          & (cols >= 0) & (cols < grid.cells.shape[1]))
    grid.cells[rows[ok], cols[ok]] = value


def update_occupancy(grid: OccupancyGrid, frame: FrameObservation,
                     K: CameraIntrinsics, max_range: float = 10.0) -> OccupancyGrid:
    """Mark cells along each image column's nearest-return ray.

    Under the planar-depth convention every ray of a column shares the same
    horizontal track, so the column's minimum positive depth is the nearest
    obstruction along that track (this sees furniture below the horizon row,
    which a central-row-only update cannot). Cells before the hit become
    free and the hit cell occupied; columns with no return mark free out to
    max range. Mutates and returns grid.
    """
    pose = frame.pose
    right, _, forward = pose.basis()
    us = (np.arange(K.width) - K.cx) / K.fx
    # horizontal ray directions, scaled so t equals planar depth
    dx = forward[0] + us * right[0]
    dy = forward[1] + us * right[1]
    col_depth = np.where(frame.depth > 0, frame.depth, np.inf).min(axis=0)
    hit = np.isfinite(col_depth)
    depths = np.where(hit, col_depth, max_range)

    step = grid.cell_size * 0.5
    ts = np.arange(step, max_range + step, step)            # (T,)
    # no sample past the farthest return frees a cell; cutting in blocks of 40
    # keeps the (T, W) temporaries to a few sizes, which the allocator reuses
    ts = ts[:40 * math.ceil(np.searchsorted(ts, depths.max() - 1e-9) / 40)]
    before = ts[:, None] < (depths[None, :] - 1e-9)
    _mark(grid, pose.x + ts[:, None] * dx, pose.y + ts[:, None] * dy, before, FREE)
    # occupied at the hit point itself
    _mark(grid, pose.x + depths * dx, pose.y + depths * dy, hit, OCCUPIED)
    return grid


def frontier_goals(grid: OccupancyGrid) -> list:
    """Representative cell per 8-connected cluster of frontier cells.

    A frontier cell is a free cell 4-adjacent to at least one unknown cell.
    The representative is the cluster centroid snapped to the nearest member.
    """
    free = grid.cells == FREE
    unknown = grid.cells == UNKNOWN
    adj_unknown = np.zeros_like(unknown)
    adj_unknown[1:, :] |= unknown[:-1, :]
    adj_unknown[:-1, :] |= unknown[1:, :]
    adj_unknown[:, 1:] |= unknown[:, :-1]
    adj_unknown[:, :-1] |= unknown[:, 1:]
    frontier = free & adj_unknown
    if not frontier.any():
        return []
    labels, _ = ndimage.label(frontier, structure=np.ones((3, 3), dtype=int))
    rows, cols = np.nonzero(labels)
    k = labels[rows, cols] - 1
    # integer sums are exact in float64, so these are the members' means
    n = np.bincount(k)
    cr = np.bincount(k, weights=rows) / n
    cc = np.bincount(k, weights=cols) / n
    d2 = (rows - cr[k]) ** 2 + (cols - cc[k]) ** 2
    # per cluster, the member nearest its centroid; ties by lowest (row, col)
    order = np.lexsort((cols, rows, d2, k))
    first = order[np.r_[True, k[order][1:] != k[order][:-1]]]
    return sorted(zip(rows[first].tolist(), cols[first].tolist()))


def _passable(grid: OccupancyGrid, extra_blocked) -> bytearray:
    """Free cells not in extra_blocked as a row-major byte grid with a closed
    one-cell border: cell (r, c) is flat index (r + 1) * (cols + 2) + c + 1."""
    passable = np.zeros(np.add(grid.cells.shape, 2), dtype=bool)
    passable[1:-1, 1:-1] = grid.cells == FREE
    for r, c in extra_blocked:
        if grid.in_bounds((r, c)):
            passable[r + 1, c + 1] = False
    return bytearray(passable)


def next_goal(policy: str, grid: OccupancyGrid, agent: AgentState,
              rng: np.random.Generator, extra_blocked=frozenset()):
    """Choose the next navigation goal cell, or None when exploration is done.

    Reachable means 4-connected to the agent cell over free cells not in
    extra_blocked. random: uniform over reachable cells, one rng.integers
    draw over them in (row, col) order. frontier: reachable frontier
    representative with minimal path distance, ties by lowest (row, col).
    """
    start = grid.world_to_cell(agent.pose.x, agent.pose.y)
    passable = _passable(grid, extra_blocked)
    width = grid.cells.shape[1] + 2
    s = (start[0] + 1) * width + start[1] + 1
    if not (grid.in_bounds(start) and passable[s]):
        return None
    if policy == "random":
        labels = ndimage.label(np.reshape(passable, (-1, width)))[0]  # 4-connected
        candidates = np.flatnonzero(labels == labels.flat[s])
        idx = int(candidates[rng.integers(len(candidates))])
        return divmod(idx - width - 1, width)
    if policy == "frontier":
        goals = {(r + 1) * width + c + 1 for r, c in frontier_goals(grid)}
        level = [s]
        passable[s] = 0     # cleared once seen
        while level:
            hits = goals.intersection(level)
            if hits:
                return divmod(min(hits) - width - 1, width)
            nxt = []
            for i in level:
                for j in (i - width, i + width, i - 1, i + 1):
                    if passable[j]:
                        passable[j] = 0
                        nxt.append(j)
            level = nxt
        return None
    raise ValueError(f"unknown policy: {policy}")


def plan_path(grid: OccupancyGrid, start: tuple, goal: tuple,
              extra_blocked=frozenset()):
    """A* on 4-connected free cells, unit cost, Manhattan heuristic.

    Unknown and extra_blocked cells are untraversable. Ties broken by (f, h,
    row, col); the path includes both endpoints. None when unreachable.
    """
    passable = _passable(grid, extra_blocked)
    width = grid.cells.shape[1] + 2
    s, t = ((r + 1) * width + c + 1 for r, c in (start, goal))
    if not (grid.in_bounds(start) and grid.in_bounds(goal)
            and passable[s] and passable[t]):
        return None

    def h(i):
        return abs(i // width - t // width) + abs(i % width - t % width)

    # a flat index sorts as (row, col), so the heap key (f, h, index) breaks
    # ties as (f, h, row, col); a cell is cleared from passable as it closes
    g = {s: 0}
    parent = {s: None}
    heap = [(h(s), h(s), s)]
    while heap:
        i = heapq.heappop(heap)[2]
        if not passable[i]:
            continue
        passable[i] = 0
        if i == t:
            path = []
            while i is not None:
                path.append(divmod(i - width - 1, width))
                i = parent[i]
            return path[::-1]
        ng = g[i] + 1
        for j in (i - width, i + width, i - 1, i + 1):
            if passable[j] and ng < g.get(j, math.inf):
                g[j] = ng
                parent[j] = i
                hv = h(j)
                heapq.heappush(heap, (ng + hv, hv, j))
    return None


def _segment_blocked(scene: SceneSpec, x0, y0, x1, y1,
                     radius: float = AGENT_RADIUS) -> bool:
    """True if the swept agent disc touches any solid box or leaves the room."""
    boxes = scene.all_solid_boxes()
    n = max(2, int(math.ceil(math.hypot(x1 - x0, y1 - y0) / 0.02)) + 1)
    for i in range(n):
        t = i / (n - 1)
        x = x0 + t * (x1 - x0)
        y = y0 + t * (y1 - y0)
        b = scene.bounds
        if not (b.xmin + radius <= x <= b.xmax - radius
                and b.ymin + radius <= y <= b.ymax - radius):
            return True
        for box in boxes:
            if box.contains_xy(x, y, margin=radius):
                return True
    return False


def step_agent(scene: SceneSpec, agent: AgentState, action: Action) -> AgentState:
    """Apply one discrete action; a blocked Forward leaves the pose unchanged."""
    pose = agent.pose
    if action is Action.TURN_LEFT:
        pose = replace(pose, yaw=normalize_angle(pose.yaw + TURN_STEP))
    elif action is Action.TURN_RIGHT:
        pose = replace(pose, yaw=normalize_angle(pose.yaw - TURN_STEP))
    else:
        nx = pose.x + FORWARD_STEP * math.cos(pose.yaw)
        ny = pose.y + FORWARD_STEP * math.sin(pose.yaw)
        if not _segment_blocked(scene, pose.x, pose.y, nx, ny):
            pose = replace(pose, x=nx, y=ny)
    return AgentState(pose=pose)


def sample_start_pose(scene: SceneSpec, rng: np.random.Generator,
                      camera_height: float = 1.25, max_tries: int = 500) -> Pose:
    b = scene.bounds
    for _ in range(max_tries):
        x = float(rng.uniform(b.xmin, b.xmax))
        y = float(rng.uniform(b.ymin, b.ymax))
        if not _segment_blocked(scene, x, y, x, y):
            yaw = float(rng.uniform(-math.pi, math.pi))
            return Pose(x=x, y=y, yaw=yaw, camera_height=camera_height)
    raise ValueError("no valid start pose")


class _Navigator:
    """Converts the planned cell path into actions."""

    def __init__(self, grid: OccupancyGrid):
        self.grid = grid
        self.path = []      # waypoints not yet reached
        self.blocked_cells: set = set()

    def next_action(self, agent: AgentState) -> Action | None:
        """Action toward the next waypoint, or None when the path is done."""
        pose = agent.pose
        while self.path:
            wx, wy = self.grid.cell_center(self.path[0])
            if math.hypot(wx - pose.x, wy - pose.y) >= 0.15:
                break
            del self.path[0]
        if not self.path:
            return None
        # steer at the farthest waypoint within one forward step
        target = self.path[0]
        for cell in self.path:
            wx, wy = self.grid.cell_center(cell)
            if math.hypot(wx - pose.x, wy - pose.y) > FORWARD_STEP + 0.05:
                break
            target = cell
        wx, wy = self.grid.cell_center(target)
        bearing = math.atan2(wy - pose.y, wx - pose.x)
        err = normalize_angle(bearing - pose.yaw)
        if abs(err) > TURN_STEP * 0.75:
            return Action.TURN_LEFT if err > 0 else Action.TURN_RIGHT
        return Action.FORWARD


def run_episode(scene: SceneSpec, policy: str, noise: NoiseModel, n_steps: int,
                K: CameraIntrinsics, seed: int, cell_size: float = 0.1,
                camera_height: float = 1.25, max_range: float = 10.0):
    """Sense / detect / map / plan / act loop; returns (Trajectory, OccupancyGrid).

    When the agent collides with unseen geometry, the cell ahead is added to a
    planner-only blocked set (the occupancy grid itself stays sensor-driven).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    pose_rng = np.random.default_rng(derive_seed(seed, "start_pose"))
    goal_rng = np.random.default_rng(derive_seed(seed, "goals"))

    pose = sample_start_pose(scene, pose_rng, camera_height=camera_height)
    agent = AgentState(pose=pose)
    grid = OccupancyGrid.for_scene(scene, cell_size=cell_size)
    nav = _Navigator(grid)

    frames: list[FrameObservation] = []
    dets: list[DetectionSet] = []

    for step in range(n_steps):
        frame = render_frame(scene, agent.pose, K, max_range=max_range)
        det_rng = np.random.default_rng(derive_seed(seed, "detector", step))
        det = simulate_detections(frame, scene, noise, det_rng, frame_index=step)
        frames.append(frame)
        dets.append(det)
        update_occupancy(grid, frame, K, max_range=max_range)

        if step == n_steps - 1:
            break

        action = None
        for _ in range(3):  # up to three goal choices per step
            action = nav.next_action(agent)
            if action is not None:
                break
            blocked = frozenset(nav.blocked_cells)
            goal = next_goal(policy, grid, agent, goal_rng, extra_blocked=blocked)
            if goal is None and policy == "frontier":
                # map fully explored: patrol random reachable goals so the
                # remaining budget keeps collecting object views
                goal = next_goal("random", grid, agent, goal_rng, extra_blocked=blocked)
            if goal is None:
                break
            # the goal lies in the agent cell's component, so a path exists
            start = grid.world_to_cell(agent.pose.x, agent.pose.y)
            nav.path = plan_path(grid, start, goal, extra_blocked=blocked)
        if action is None:
            action = Action.TURN_LEFT  # exploration done or no plan: keep scanning

        before = (agent.pose.x, agent.pose.y)
        agent = step_agent(scene, agent, action)
        if action is Action.FORWARD and (agent.pose.x, agent.pose.y) == before:
            # collision with geometry the occupancy map cannot see
            ahead = grid.world_to_cell(
                agent.pose.x + FORWARD_STEP * math.cos(agent.pose.yaw),
                agent.pose.y + FORWARD_STEP * math.sin(agent.pose.yaw))
            nav.blocked_cells.add(ahead)
            near = grid.world_to_cell(
                agent.pose.x + (FORWARD_STEP / 2) * math.cos(agent.pose.yaw),
                agent.pose.y + (FORWARD_STEP / 2) * math.sin(agent.pose.yaw))
            if near != grid.world_to_cell(agent.pose.x, agent.pose.y):
                nav.blocked_cells.add(near)
            nav.path = []

    return Trajectory(frames=frames, detections=dets), grid
