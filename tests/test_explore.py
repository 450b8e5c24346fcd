import hashlib
import math

import numpy as np
import pytest

from voxlabel.detector import NoiseModel
from voxlabel.explore import (CELL_SIZE, FREE, OCCUPIED, UNKNOWN, Action,
                              AgentState, OccupancyGrid, frontier_goals, next_goal,
                              plan_path, run_episode, step_agent,
                              update_occupancy)
from voxlabel.pipeline import trajectory_to_jsonl
from voxlabel.scene import (Box, CameraIntrinsics, FrameObservation, Pose, SceneParams, SceneSpec,
                            generate_scene, render_frame)
from voxlabel.serialize import derive_seed

from oracles import (astar_path, bfs_path_cost, frontier_scan, next_goal_by_bfs,
                     occupancy_by_column_march)


def empty_grid(rows=40, cols=40):
    return OccupancyGrid(cells=np.zeros((rows, cols), dtype=np.uint8),
                         origin=(0.0, 0.0))


class TestUpdateOccupancy:
    def test_single_ray_toward_wall(self, cam):
        bounds = Box(0, 0, 0, 4, 4, 3)
        wall = Box(1.05, 0, 0, 1.15, 4, 3)
        scene = SceneSpec(bounds=bounds, obstacles=(wall,), objects=())
        pose = Pose(x=0.05, y=2.05, yaw=0.0)
        frame = render_frame(scene, pose, cam)
        grid = OccupancyGrid.for_scene(scene)
        update_occupancy(grid, frame, cam)
        row = grid.world_to_cell(pose.x, pose.y)[0]
        for col in range(1, 10):   # col 0 holds the camera itself
            assert grid.cells[row, col] == FREE
        assert grid.cells[row, 10] == OCCUPIED

    def test_empty_scene_wedge(self, cam):
        scene = SceneSpec(bounds=Box(0, 0, 0, 30, 30, 3), obstacles=(), objects=())
        pose = Pose(x=15.0, y=15.0, yaw=0.0)
        frame = render_frame(scene, pose, cam)
        grid = OccupancyGrid.for_scene(scene)
        update_occupancy(grid, frame, cam)
        assert not (grid.cells == OCCUPIED).any()
        half_fov = math.atan((cam.width / 2) / cam.fx)
        rows, cols = np.nonzero(grid.cells == FREE)
        xs = (cols + 0.5) * CELL_SIZE - pose.x
        ys = (rows + 0.5) * CELL_SIZE - pose.y
        angles = np.arctan2(ys, xs)
        # free cells past the near field sit inside the horizontal FOV
        far = np.hypot(xs, ys) > 1.0
        assert np.max(np.abs(angles[far])) <= half_fov + 0.1
        # wedge reaches out to max range
        assert np.hypot(xs, ys).max() > 9.0

    def test_two_frames_union(self, cam, box_scene):
        p1 = Pose(x=2.0, y=2.0, yaw=0.3)
        p2 = Pose(x=2.0, y=2.0, yaw=0.3 + math.pi)
        f1 = render_frame(box_scene, p1, cam)
        f2 = render_frame(box_scene, p2, cam)
        both = OccupancyGrid.for_scene(box_scene)
        update_occupancy(both, f1, cam)
        update_occupancy(both, f2, cam)
        only1 = OccupancyGrid.for_scene(box_scene)
        update_occupancy(only1, f1, cam)
        only2 = OccupancyGrid.for_scene(box_scene)
        update_occupancy(only2, f2, cam)
        # marked (non-unknown) set is the union of per-frame marks
        assert ((both.cells != UNKNOWN)
                == ((only1.cells != UNKNOWN) | (only2.cells != UNKNOWN))).all()


class TestFrontierGoals:
    def test_fully_unknown_empty(self):
        assert frontier_goals(empty_grid()) == []

    def test_single_free_cell_is_its_own_frontier(self):
        grid = empty_grid()
        grid.cells[5, 7] = FREE
        assert frontier_goals(grid) == [(5, 7)]

    def test_no_frontier_when_fully_explored(self):
        grid = empty_grid(10, 10)
        grid.cells[:] = FREE
        assert frontier_goals(grid) == []

    def test_diagonal_touch_is_one_cluster(self):
        grid = empty_grid(10, 10)
        # (2, 2) and (2, 4) touch (3, 3) only at its corners; (7, 7) is alone
        for cell in [(2, 2), (3, 3), (2, 4), (7, 7)]:
            grid.cells[cell] = FREE
        want = frontier_scan(grid.cells, free=FREE, unknown=UNKNOWN)
        assert frontier_goals(grid) == want == [(3, 3), (7, 7)]

    def test_matches_brute_force_scan(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            grid = empty_grid(50, 50)
            grid.cells = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(50, 50),
                                    p=[0.4, 0.45, 0.15]).astype(np.uint8)
            got = frontier_goals(grid)
            want = frontier_scan(grid.cells, free=FREE, unknown=UNKNOWN)
            assert got == want


class TestNextGoal:
    def test_frontier_single(self):
        grid = empty_grid(8, 8)
        grid.cells[4, 4] = FREE
        agent = AgentState(pose=Pose(x=0.45, y=0.45, yaw=0.0))
        got = next_goal("frontier", grid, agent, np.random.default_rng(0))
        assert got == (4, 4)

    def test_frontier_greedy_nearest(self):
        grid = empty_grid(10, 10)
        grid.cells[5, 2:10] = FREE       # corridor
        grid.cells[4, 2:7] = OCCUPIED    # seal off upper side except far end
        grid.cells[6, 2:10] = OCCUPIED
        agent = AgentState(pose=Pose(x=0.55, y=0.55, yaw=0.0))  # cell (5, 5)
        # frontiers: (5,2) at path distance 3 and (5,9) at distance 4
        got = next_goal("frontier", grid, agent, np.random.default_rng(0))
        assert got == (5, 2)

    def test_random_uniform_over_reachable(self):
        grid2 = empty_grid(6, 6)
        free_cells = [(2, 2), (2, 3), (3, 2), (3, 3)]
        for cell in free_cells:
            grid2.cells[cell] = FREE
        agent = AgentState(pose=Pose(x=0.25, y=0.25, yaw=0.0))
        assert grid2.world_to_cell(0.25, 0.25) == (2, 2)
        rng = np.random.default_rng(123)
        counts = {c: 0 for c in free_cells}
        n = 10_000
        for _ in range(n):
            counts[next_goal("random", grid2, agent, rng)] += 1
        for c in free_cells:
            assert abs(counts[c] / n - 0.25) <= 0.02

    def test_random_stays_in_agent_component(self):
        grid = empty_grid(8, 8)
        grid.cells[1:3, 1:3] = FREE     # the agent's block
        grid.cells[3:6, 3:6] = FREE     # meets it only at a corner
        agent = AgentState(pose=Pose(x=0.15, y=0.15, yaw=0.0))   # cell (1, 1)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        goals = set()
        for _ in range(200):
            goal = next_goal("random", grid, agent, got_rng)
            assert goal == next_goal_by_bfs("random", grid.cells, (1, 1),
                                            want_rng, [], free=FREE)
            goals.add(goal)
        assert goals == {(1, 1), (1, 2), (2, 1), (2, 2)}

    def test_done_when_no_free(self):
        grid = empty_grid()
        agent = AgentState(pose=Pose(x=0.05, y=0.05, yaw=0.0))
        assert next_goal("frontier", grid, agent, np.random.default_rng(0)) is None


class TestGoalSearchOracle:
    """next_goal and update_occupancy against the python oracles."""

    def test_next_goal_matches_dict_bfs(self):
        rng = np.random.default_rng(11)
        found = {"frontier": 0, "random": 0}
        for trial in range(200):
            rows, cols = (int(n) for n in rng.integers(3, 25, size=2))
            cells = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(rows, cols),
                               p=[0.25, 0.6, 0.15]).astype(np.uint8)
            grid = OccupancyGrid(cells=cells, origin=(0.0, 0.0))
            # the agent cell, sometimes outside the grid
            start = (int(rng.integers(-1, rows + 1)), int(rng.integers(-1, cols + 1)))
            agent = AgentState(pose=Pose(x=(start[1] + 0.5) * CELL_SIZE,
                                         y=(start[0] + 0.5) * CELL_SIZE, yaw=0.0))
            blocked = {(int(rng.integers(-2, rows + 2)), int(rng.integers(-2, cols + 2)))
                       for _ in range(rng.integers(0, 6))}
            if rng.random() < 0.1:
                blocked.add(start)
            blocked = frozenset(blocked)
            frontiers = frontier_scan(cells, free=FREE, unknown=UNKNOWN)
            for policy in ("frontier", "random"):
                got_rng = np.random.default_rng(trial)
                want_rng = np.random.default_rng(trial)
                got = next_goal(policy, grid, agent, got_rng, extra_blocked=blocked)
                want = next_goal_by_bfs(policy, cells, start, want_rng, frontiers,
                                        free=FREE, extra_blocked=blocked)
                assert got == want, (trial, policy)
                assert got_rng.bit_generator.state == want_rng.bit_generator.state
                found[policy] += got is not None
        assert min(found.values()) > 50, found

    def test_boxed_in_agent_gets_no_goal(self):
        grid = empty_grid(9, 9)
        grid.cells[2:7, 2:7] = FREE
        agent = AgentState(pose=Pose(x=0.45, y=0.45, yaw=0.0))    # cell (4, 4)
        ring = frozenset({(3, 4), (5, 4), (4, 3), (4, 5)})

        def goal(policy, blocked):
            return next_goal(policy, grid, agent, np.random.default_rng(0),
                             extra_blocked=blocked)

        assert goal("frontier", frozenset()) is not None
        # inside the ring the agent cell is all that is reachable
        assert goal("frontier", ring) is None
        assert goal("random", ring) == (4, 4)
        for blocked in (ring | {(4, 4)}, frozenset({(4, 4)})):
            assert goal("frontier", blocked) is None
            assert goal("random", blocked) is None

    def test_update_occupancy_matches_unclipped_march(self, cam, box_scene):
        rng = np.random.default_rng(3)
        grid = OccupancyGrid.for_scene(box_scene)
        want = grid.cells.copy()
        frames = []
        for _ in range(12):
            pose = Pose(x=float(rng.uniform(0.3, 7.7)), y=float(rng.uniform(0.3, 7.7)),
                        yaw=float(rng.uniform(-math.pi, math.pi)))
            frames.append(render_frame(box_scene, pose, cam))
        pose = Pose(x=4.0, y=4.0, yaw=0.7)
        empty = np.zeros((cam.height, cam.width))
        frames.append(FrameObservation(pose, empty, empty.astype(np.int32) - 1))
        frames.append(FrameObservation(pose, empty + 0.03, frames[-1].gt_instance))
        for frame in frames:
            update_occupancy(grid, frame, cam)
            occupancy_by_column_march(want, frame, cam, CELL_SIZE,
                                      grid.origin, free=FREE, occupied=OCCUPIED)
            assert (grid.cells == want).all()
        assert (want == FREE).any() and (want == OCCUPIED).any()


class TestPlanPath:
    def test_3x3_manhattan_optimum(self):
        grid = empty_grid(3, 3)
        grid.cells[:] = FREE
        path = plan_path(grid, (0, 0), (2, 2))
        assert path is not None
        assert len(path) == 5
        assert path[0] == (0, 0) and path[-1] == (2, 2)

    def test_goal_occupied_unreachable(self):
        grid = empty_grid(3, 3)
        grid.cells[:] = FREE
        grid.cells[2, 2] = OCCUPIED
        assert plan_path(grid, (0, 0), (2, 2)) is None

    def test_unknown_blocked(self):
        grid = empty_grid(1, 3)
        grid.cells[0, 0] = FREE
        grid.cells[0, 2] = FREE
        assert plan_path(grid, (0, 0), (0, 2)) is None

    def test_deterministic(self):
        grid = empty_grid(12, 12)
        grid.cells[:] = FREE
        a = plan_path(grid, (0, 0), (11, 11))
        b = plan_path(grid, (0, 0), (11, 11))
        assert a == b

    def test_random_mazes_match_bfs_cost(self):
        rng = np.random.default_rng(5)
        checked = 0
        for _ in range(100):
            cells = (rng.random((30, 30)) > 0.3).astype(np.uint8)  # FREE=1
            grid = OccupancyGrid(cells=cells, origin=(0.0, 0.0))
            free = np.argwhere(cells == FREE)
            if len(free) < 2:
                continue
            start = tuple(free[rng.integers(len(free))])
            goal = tuple(free[rng.integers(len(free))])
            ref = bfs_path_cost(cells == FREE, start, goal)
            path = plan_path(grid, start, goal)
            if ref is None:
                assert path is None
            else:
                assert path is not None
                assert len(path) - 1 == ref
                checked += 1
        assert checked > 20

    def test_random_mazes_match_tuple_astar_exactly(self):
        # open mazes have many shortest paths, so this pins the tie-break
        rng = np.random.default_rng(9)
        found = 0
        for trial in range(300):
            rows, cols = (int(n) for n in rng.integers(1, 20, size=2))
            cells = rng.choice([UNKNOWN, FREE, OCCUPIED], size=(rows, cols),
                               p=[0.1, 0.75, 0.15]).astype(np.uint8)
            grid = OccupancyGrid(cells=cells, origin=(0.0, 0.0))
            free = [tuple(int(i) for i in cell) for cell in np.argwhere(cells == FREE)]

            def cell():
                # mostly a free cell, else any cell, out of bounds included
                if free and rng.random() < 0.85:
                    return free[rng.integers(len(free))]
                return (int(rng.integers(-2, rows + 2)), int(rng.integers(-2, cols + 2)))

            start, goal = cell(), cell()
            blocked = {cell() for _ in range(rng.integers(0, 8))}
            blocked |= {c for c in (start, goal) if rng.random() < 0.1}
            blocked = frozenset(blocked)
            want = astar_path(cells == FREE, start, goal, blocked)
            assert plan_path(grid, start, goal, extra_blocked=blocked) == want, trial
            found += want is not None and len(want) > 2
        assert found > 100, found


class TestStepAgent:
    def test_turn_left(self, box_scene):
        agent = AgentState(pose=Pose(x=2, y=2, yaw=0.0))
        out = step_agent(box_scene, agent, Action.TURN_LEFT)
        assert abs(out.pose.yaw - math.radians(10)) < 1e-12

    def test_blocked_forward(self):
        scene = SceneSpec(bounds=Box(0, 0, 0, 4, 4, 3),
                          obstacles=(Box(2.0, 0, 0, 2.2, 4, 3),), objects=())
        agent = AgentState(pose=Pose(x=1.9, y=2.0, yaw=0.0))
        out = step_agent(scene, agent, Action.FORWARD)
        assert out.pose.x == agent.pose.x and out.pose.y == agent.pose.y

    def test_free_forward(self):
        scene = SceneSpec(bounds=Box(0, 0, 0, 4, 4, 3), obstacles=(), objects=())
        agent = AgentState(pose=Pose(x=1.0, y=2.0, yaw=0.0))
        out = step_agent(scene, agent, Action.FORWARD)
        assert abs(out.pose.x - 1.25) < 1e-12

    def test_36_turns_full_rotation(self, box_scene):
        agent = AgentState(pose=Pose(x=2, y=2, yaw=0.0))
        for _ in range(36):
            agent = step_agent(box_scene, agent, Action.TURN_LEFT)
        assert abs(agent.pose.yaw) < 1e-9


SMALL_PARAMS = SceneParams(room_size_min=6.0, room_size_max=7.0, n_partitions=1)


class TestRunEpisode:
    def test_single_step(self, cam):
        scene = generate_scene(SMALL_PARAMS, seed=2)
        traj, _ = run_episode(scene, "frontier", NoiseModel.noiseless(), 1,
                              cam, seed=0)
        assert len(traj) == 1

    def test_deterministic_serialized_logs(self, cam):
        scene = generate_scene(SMALL_PARAMS, seed=2)
        noise = NoiseModel.uniform_confusion(0.8, dropout_base=0.1)
        a, _ = run_episode(scene, "frontier", noise, 30, cam, seed=5)
        b, _ = run_episode(scene, "frontier", noise, 30, cam, seed=5)
        assert trajectory_to_jsonl(a) == trajectory_to_jsonl(b)

    def test_known_cells_non_decreasing(self, cam):
        scene = generate_scene(SMALL_PARAMS, seed=3)
        traj, _ = run_episode(scene, "frontier", NoiseModel.noiseless(), 40,
                              cam, seed=1)
        grid = OccupancyGrid.for_scene(scene)
        prev = 0
        for frame in traj.frames:
            update_occupancy(grid, frame, cam)
            n_known = int((grid.cells != UNKNOWN).sum())
            assert n_known >= prev
            prev = n_known

    def test_poses_collision_free(self, cam):
        for seed in range(20):
            scene = generate_scene(SMALL_PARAMS, seed=seed)
            traj, _ = run_episode(scene, "random", NoiseModel.noiseless(), 25,
                                  cam, seed=seed)
            for frame in traj.frames:
                p = frame.pose
                for box in scene.all_solid_boxes():
                    assert not box.contains_xy(p.x, p.y, margin=0.14)

    def test_every_goal_gets_a_path(self, cam, monkeypatch):
        # next_goal returns only cells in the agent cell's component, over the
        # same passable grid plan_path searches, so no plan comes back None
        from voxlabel import explore
        calls = []

        def recording(grid, start, goal, extra_blocked=frozenset()):
            path = plan_path(grid, start, goal, extra_blocked)
            calls.append((extra_blocked, path))
            return path

        monkeypatch.setattr(explore, "plan_path", recording)
        for policy in ("frontier", "random"):
            for seed in range(4):
                run_episode(generate_scene(SMALL_PARAMS, seed=seed), policy,
                            NoiseModel.noiseless(), 120, cam, seed=seed)
        assert all(path is not None for _, path in calls)
        # collisions fed the planner's blocked set on most of these calls
        assert sum(bool(blocked) for blocked, _ in calls) > 50, len(calls)

    def test_frontier_coverage_empty_room(self, cam):
        # empty-interior room: frontier exploration should see nearly all of it
        scene = SceneSpec(
            bounds=Box(0, 0, 0, 6, 6, 3),
            obstacles=(Box(0, 0, 0, 6, 0.1, 3), Box(0, 5.9, 0, 6, 6, 3),
                       Box(0, 0, 0, 0.1, 6, 3), Box(5.9, 0, 0, 6, 6, 3)),
            objects=())
        _, grid = run_episode(scene, "frontier", NoiseModel.noiseless(), 500,
                              cam, seed=4)
        interior = (grid.cells == FREE).sum() / (58 * 58)
        # measured 0.969 on the pinned scenario; generous floor
        assert interior >= 0.9


REFERENCE_NOISE = NoiseModel.uniform_confusion(
    0.75, dropout_base=0.1, dropout_per_meter=0.05)

# sha256 of trajectory_to_jsonl for 200-step reference-noise episodes on the
# default scene of each seed. A goal-search or occupancy change that moves
# any pose or detection changes these.
TRAJECTORY_SHA256 = {
    ("frontier", 0): "84affc8536a3360a78e9e52e3b97d1bdd02bd5301e30d37f8815c1d663a83630",
    ("frontier", 4): "5a38a723d55c6ddd8a4386586c81e02923df466d87d76974c7c8a02bff44c2ec",
    ("random", 0): "67aa187f18abb7cd5278b43be47d03ce1352f51b096ccb7d7f402f88580f15cc",
    ("random", 4): "2b9a771d4f968a9297d2d93d03523310fa125c318130c52c3c059812f80c07ea",
}


@pytest.mark.parametrize("policy, seed", sorted(TRAJECTORY_SHA256))
def test_trajectory_bytes_pinned(policy, seed):
    scene = generate_scene(SceneParams(), derive_seed(seed, "scene"))
    traj, _ = run_episode(scene, policy, REFERENCE_NOISE, 200,
                          CameraIntrinsics.default(),
                          seed=derive_seed(seed, "episode"))
    digest = hashlib.sha256(trajectory_to_jsonl(traj).encode()).hexdigest()
    assert digest == TRAJECTORY_SHA256[policy, seed]
