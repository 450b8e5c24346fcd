import json
import math
import re

import numpy as np
import pytest

from voxlabel.scene import (CAMERA_HEIGHT, MAX_RANGE, MIN_SEPARATION, Box,
                            CameraIntrinsics, FrameObservation, ObjectInstance, Pose,
                            SceneInfeasibleError, SceneParams, SceneSpec,
                            generate_scene, pixel_to_world, render_frame,
                            visible_instances, world_to_pixel)

from oracles import (general_basis_pixel_to_world, general_basis_world_to_pixel,
                     project_homogeneous, ray_march_depth, slab_render)

EDGE_POSES = [   # (x, y, yaw, height above the floor) in seen_from(box_scene)
    (2.0, 4.0, 0.0, 1.25),
    (2.0, 4.0, math.pi / 2, 1.25),
    (2.0, 4.0, -math.pi / 2, 1.25),
    (2.0, 4.0, -math.pi, 1.25),
    (2.0, 4.0, 0.0, 1.8),    # on object 0's top face: (zmax - h) * inf is NaN
    (2.0, 4.0, 0.0, 0.0),    # on the floor plane, every bottom face
    (2.0, 3.5, 0.0, 1.25),   # on object 0's ymin face, principal column along it
]


def seen_from(scene, x, y, height, max_range=MAX_RANGE):
    """scene moved and scaled about the point (x, y, height), so that a
    camera at (x, y) sees it as a camera at that height above scene's floor
    with a sensing range of max_range would see scene: the point goes to
    (x, y, CAMERA_HEIGHT) and every length is scaled by MAX_RANGE /
    max_range. A face through the point stays exactly through the camera."""
    k = MAX_RANGE / max_range

    def move(b):
        return Box((b.xmin - x) * k + x, (b.ymin - y) * k + y,
                   (b.zmin - height) * k + CAMERA_HEIGHT,
                   (b.xmax - x) * k + x, (b.ymax - y) * k + y,
                   (b.zmax - height) * k + CAMERA_HEIGHT)

    return SceneSpec(bounds=move(scene.bounds),
                     obstacles=tuple(map(move, scene.obstacles)),
                     objects=tuple(ObjectInstance(o.gt_id, o.class_id, move(o.box))
                                   for o in scene.objects))


class TestGenerateScene:
    def test_zero_objects(self):
        params = SceneParams(objects_per_class_min=0, objects_per_class_max=0)
        scene = generate_scene(params, seed=7)
        assert scene.objects == ()
        assert len(scene.obstacles) >= 4

    def test_deterministic(self):
        params = SceneParams()
        a = generate_scene(params, seed=11)
        b = generate_scene(params, seed=11)
        assert a.to_json() == b.to_json()

    def test_one_object_per_class_separation(self):
        scene = generate_scene(SceneParams(), seed=3)
        assert sorted(o.class_id for o in scene.objects) == [0, 1, 2, 3, 4, 5]
        # exhaustive pairwise separation check
        for i, a in enumerate(scene.objects):
            for b in scene.objects[i + 1:]:
                dx = max(a.box.xmin - b.box.xmax, b.box.xmin - a.box.xmax, 0.0)
                dy = max(a.box.ymin - b.box.ymax, b.box.ymin - a.box.ymax, 0.0)
                assert math.hypot(dx, dy) >= MIN_SEPARATION

    def test_objects_inside_bounds(self):
        scene = generate_scene(SceneParams(), seed=5)
        b = scene.bounds
        for o in scene.objects:
            assert o.box.xmin >= b.xmin and o.box.xmax <= b.xmax
            assert o.box.ymin >= b.ymin and o.box.ymax <= b.ymax

    def test_infeasible_raises(self):
        params = SceneParams(room_size_min=2.0, room_size_max=2.0,
                             objects_per_class_min=4, objects_per_class_max=4,
                             n_partitions=0)
        with pytest.raises(SceneInfeasibleError):
            generate_scene(params, seed=0)

    def test_json_round_trip(self, tmp_path):
        scene = generate_scene(SceneParams(), seed=9)
        path = tmp_path / "scene.json"
        scene.save(path)
        assert SceneSpec.load(path).to_json() == scene.to_json()
        for value in (SceneParams(), SceneParams(room_size_min=6.0, n_partitions=0),
                      CameraIntrinsics.default(), CameraIntrinsics.default(16, 12),
                      Pose(1.5, -2.0, 7.0), Pose(0.0, 0.25, -1.0)):
            back = type(value).from_json(json.loads(json.dumps(value.to_json())))
            assert back == value
            assert back.to_json() == value.to_json()


    @pytest.mark.parametrize("change, field", [
        ({"sede": 3, "seed": 4}, "sede: not a field of SceneSpec"),
        ({"seed": "4"}, "seed: expected int, got '4'"),
        ({"bounds": [0, 0, 0, 5, 5]}, "bounds: expected 6 values, got 5"),
        ({"bounds": [0, 0, 0, 5, True, 3]}, "bounds.ymax: expected float"),
        ({"obstacles": [[0, 0, 0, 0, 1, 1]]}, "obstacles[0]: box has non-positive"),
        ({"objects": [{"gt_id": 0, "class_id": 9, "box": [1, 1, 0, 2, 2, 1]}]},
         "objects[0].class_id out of range"),
        ({"objects": [{"gt_id": 0, "box": [1, 1, 0, 2, 2, 1]}]},
         "objects[0].class_id: missing required field"),
        ({"objects": [{"gt_id": 0, "class_id": 0, "box": [1, 1, 0, math.inf, 2, 1]}]},
         "objects[0].box.xmax must be finite, got inf"),
        ({"bounds": [0, 0, -math.inf, 5, 5, 3]}, "bounds.zmin must be finite, got -inf"),
        ({"obstacles": [[0, 0, 0, 1, 1, math.nan]]},
         "obstacles[0].zmax must be finite, got nan"),
    ])
    def test_from_json_rejects_bad_field(self, change, field):
        data = {"bounds": [0, 0, 0, 5, 5, 3], "obstacles": [], "objects": [],
                **change}
        with pytest.raises(ValueError, match=f"^{re.escape(field)}"):
            SceneSpec.from_json(data)

    def test_from_json_keeps_seed_optional_and_ints_as_floats(self):
        scene = SceneSpec.from_json({"bounds": [0, 0, 0, 5, 5, 3],
                                     "obstacles": [], "objects": []})
        assert scene.seed == 0 and type(scene.bounds.xmax) is float


class TestRenderFrame:
    def test_wall_planar_depth_exact(self, cam):
        # wall plane parallel to the image plane, 3 m ahead
        bounds = Box(0, -5, 0, 10, 5, 3)
        wall = Box(4.0, -5, 0, 4.2, 5, 3.0)
        scene = SceneSpec(bounds=bounds, obstacles=(wall,), objects=())
        pose = Pose(x=1.0, y=0.0, yaw=0.0)
        frame = render_frame(scene, pose, cam)
        hit = frame.depth > 0
        assert hit.any()
        assert np.allclose(frame.depth[hit], 3.0)

    def test_occluded_object_invisible(self, cam):
        bounds = Box(0, -5, 0, 10, 5, 3)
        wall = Box(3.0, -5, 0, 3.2, 5, 3.0)
        obj = ObjectInstance(0, 2, Box(5.0, -1, 0, 6.0, 1, 3.0))
        scene = SceneSpec(bounds=bounds, obstacles=(wall,), objects=(obj,))
        pose = Pose(x=1.0, y=0.0, yaw=0.0)
        frame = render_frame(scene, pose, cam)
        assert not (frame.gt_instance == 0).any()

    def test_empty_scene_zero_depth(self, cam, pose_origin):
        scene = SceneSpec(bounds=Box(0, 0, 0, 8, 8, 3), obstacles=(), objects=())
        frame = render_frame(scene, pose_origin, cam)
        assert (frame.depth == 0).all()
        assert (frame.gt_instance == -1).all()

    def test_matches_ray_march_oracle(self, cam_small, box_scene):
        pose = Pose(x=1.3, y=2.1, yaw=0.6)
        frame = render_frame(box_scene, pose, cam_small)
        rng = np.random.default_rng(0)
        pixels = [(int(rng.integers(cam_small.width)),
                   int(rng.integers(cam_small.height))) for _ in range(25)]
        for u, v in pixels:
            d_ref, gt_ref = ray_march_depth(box_scene, pose, cam_small, u, v)
            assert abs(frame.depth[v, u] - d_ref) <= 2e-3
            if d_ref > 0 and abs(frame.depth[v, u] - d_ref) < 1e-3:
                assert frame.gt_instance[v, u] == gt_ref

    @pytest.mark.parametrize("x, y, yaw, height", EDGE_POSES)
    def test_edge_poses_match_ray_march_oracle(self, cam_small, box_scene,
                                               x, y, yaw, height):
        scene, pose = seen_from(box_scene, x, y, height), Pose(x=x, y=y, yaw=yaw)
        frame = render_frame(scene, pose, cam_small)
        cu, cv = int(cam_small.cx), int(cam_small.cy)
        assert (cu, cv) == (cam_small.cx, cam_small.cy)
        # principal row v = cy and principal column u = cx, plus one off-axis pixel
        pixels = [(cu, cv), (cu, 0), (cu, cam_small.height - 1),
                  (0, cv), (cam_small.width - 1, cv), (3, 9)]
        for u, v in pixels:
            d_ref, gt_ref = ray_march_depth(scene, pose, cam_small, u, v)
            assert abs(frame.depth[v, u] - d_ref) <= 2e-3
            if d_ref > 0 and abs(frame.depth[v, u] - d_ref) < 1e-3:
                assert frame.gt_instance[v, u] == gt_ref

    @pytest.mark.parametrize("x, y, yaw, height, max_range", [
        *((*pose, 10.0) for pose in EDGE_POSES),
        (-1.5, 4.0, 0.0, 1.25, 10.0),   # outside the room, facing its wall
        (3.5, 4.0, 0.3, 1.0, 10.0),     # inside object 0
        (1.0, 4.0, 0.0, 2.5, 2.5),      # the range cuts object 0's top face
    ])
    def test_matches_scalar_slab_oracle_bytes(self, cam_small, box_scene,
                                              x, y, yaw, height, max_range):
        scene = seen_from(box_scene, x, y, height, max_range)
        pose = Pose(x=x, y=y, yaw=yaw)
        frame = render_frame(scene, pose, cam_small)
        depth, gt = slab_render(scene, pose, cam_small)
        assert frame.depth.tobytes() == depth.tobytes()
        assert frame.gt_instance.tobytes() == gt.tobytes()
        assert (frame.depth > 0).any() and frame.depth.max() <= MAX_RANGE

    @pytest.mark.parametrize("first", [0, 1])
    def test_equal_depth_tie_keeps_lower_index(self, cam_small, box_scene, first):
        # both front faces lie in the plane x = 3, the small one inside the large
        large, small = Box(3.0, 3.0, 0.0, 4.0, 5.0, 1.5), Box(3.0, 3.5, 0.0, 3.5, 4.5, 1.0)
        pose = Pose(x=1.0, y=4.0, yaw=0.0)

        def scene_of(*boxes):
            return SceneSpec(bounds=box_scene.bounds, obstacles=box_scene.obstacles,
                             objects=tuple(ObjectInstance(i, 1, b)
                                           for i, b in enumerate(boxes)))

        scene = scene_of(large, small) if first == 0 else scene_of(small, large)
        frame = render_frame(scene, pose, cam_small)
        depth, gt = slab_render(scene, pose, cam_small)
        assert frame.depth.tobytes() == depth.tobytes()
        assert frame.gt_instance.tobytes() == gt.tobytes()
        shared = render_frame(scene_of(small), pose, cam_small).gt_instance == 0
        assert shared.any() and (frame.depth[shared] == 2.0).all()
        assert (frame.gt_instance[shared] == 0).all()

    def test_depth_monotone_under_obstacle_removal(self, cam_small, box_scene):
        pose = Pose(x=1.0, y=4.0, yaw=0.1)
        full = render_frame(box_scene, pose, cam_small)
        fewer = SceneSpec(bounds=box_scene.bounds,
                          obstacles=box_scene.obstacles[:2],
                          objects=box_scene.objects)
        reduced = render_frame(fewer, pose, cam_small)
        d_full = np.where(full.depth == 0, np.inf, full.depth)
        d_less = np.where(reduced.depth == 0, np.inf, reduced.depth)
        assert (d_less >= d_full - 1e-12).all()

    def test_gt_ids_present_in_scene(self, cam, box_scene):
        pose = Pose(x=1.0, y=4.0, yaw=0.0)
        frame = render_frame(box_scene, pose, cam)
        ids = set(np.unique(frame.gt_instance)) - {-1}
        assert ids <= {o.gt_id for o in box_scene.objects}


@pytest.mark.parametrize("min_pixels, want", [(1, [0, 2, 7]), (3, [0, 2]),
                                              (4, [2]), (6, [])])
def test_visible_instances_ascending_above_floor(min_pixels, want):
    gt = np.full((3, 4), -1, dtype=np.int32)
    gt[0, 0] = 7            # 1 pixel, first in row-major order
    gt[:2, 1:3] = 2         # 4 pixels
    gt[2, :3] = 0           # 3 pixels, last
    frame = FrameObservation(pose=Pose(0, 0, 0), depth=np.ones(gt.shape),
                             gt_instance=gt)
    got = visible_instances(frame, min_pixels)
    assert [gt_id for gt_id, _ in got] == want
    for gt_id, mask in got:
        assert type(gt_id) is int
        assert np.array_equal(mask, gt == gt_id)


def test_visible_instances_of_frame_without_objects():
    frame = FrameObservation(pose=Pose(0, 0, 0), depth=np.ones((3, 4)),
                             gt_instance=np.full((3, 4), -1, dtype=np.int32))
    assert visible_instances(frame, 1) == []


# exact yaws where sin or cos is 0 or +-1, then random ones
TRANSFORM_YAWS = [0.0, math.pi / 2, -math.pi / 2, -math.pi] + \
    np.random.default_rng(11).uniform(-math.pi, math.pi, 8).tolist()


def _same_bits(got, want, on_plane):
    """Bitwise equal; on the camera plane (d == 0) up to the sign bit."""
    got, want = got.copy(), want.copy()
    got[on_plane], want[on_plane] = np.abs(got[on_plane]), np.abs(want[on_plane])
    assert got.tobytes() == want.tobytes()


class TestYawOnlyTransforms:
    """The yaw-only transforms against the general-basis sums they replace,
    zero products included, compared bit for bit."""

    @pytest.mark.parametrize("yaw", TRANSFORM_YAWS)
    def test_world_to_pixel_matches_general_basis(self, cam, yaw):
        rng = np.random.default_rng(int(yaw * 1000) % 997)
        pose = Pose(x=1.5, y=-0.5, yaw=yaw)
        c, s = math.cos(pose.yaw), math.sin(pose.yaw)
        n = 300
        depth = np.concatenate([rng.uniform(0.05, 9.0, n),     # in front
                                -rng.uniform(0.05, 9.0, n)])   # behind
        lateral = rng.uniform(-6.0, 6.0, 2 * n)
        pts = np.stack([pose.x + depth * c + lateral * s,
                        pose.y + depth * s - lateral * c,
                        rng.uniform(0.0, 2.5, 2 * n)], axis=1)
        pts[::7, 2] = CAMERA_HEIGHT             # zero vertical offset
        # on the camera plane: the camera's vertical axis at every yaw, and
        # the whole plane x = pose.x at yaw 0
        on = [(pose.x, pose.y, z) for z in (0.0, 0.5, 1.25, 2.0)]
        if yaw == 0.0:
            on += [(pose.x, y, z) for y in (-3.0, 0.0, 2.0) for z in (0.3, 1.25)]
        pts = np.concatenate([pts, on])
        u, v, d = world_to_pixel(pts, cam, pose)
        want_u, want_v, want_d = general_basis_world_to_pixel(pts, cam, pose)
        # a zero depth's sign can differ, which fails d > 0 either way
        on_plane = want_d == 0
        assert on_plane.sum() == (4 if yaw != 0.0 else 10)
        assert not (d[on_plane] > 0).any()
        for got, want in ((u, want_u), (v, want_v), (d, want_d)):
            _same_bits(got, want, on_plane)

    @pytest.mark.parametrize("yaw", TRANSFORM_YAWS)
    def test_pixel_to_world_matches_general_basis(self, cam, yaw):
        rng = np.random.default_rng(int(yaw * 1000) % 991)
        pose = Pose(x=-0.75, y=2.0, yaw=yaw)
        u = rng.uniform(-2.0, cam.width + 2.0, 400)
        v = rng.uniform(-2.0, cam.height + 2.0, 400)
        u[:50], v[50:100] = cam.cx, cam.cy    # zero X or zero Y
        d = rng.uniform(0.01, 9.0, 400)
        got = pixel_to_world(u, v, d, cam, pose)
        want = general_basis_pixel_to_world(u, v, d, cam, pose)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        scalar = pixel_to_world(cam.cx, cam.cy, 2.0, cam, pose)
        assert scalar.tobytes() == \
            general_basis_pixel_to_world(cam.cx, cam.cy, 2.0, cam, pose).tobytes()


class TestCameraModel:
    def test_principal_ray(self, cam):
        pose = Pose(x=0.0, y=0.0, yaw=0.0)
        p = pixel_to_world(cam.cx, cam.cy, 2.0, cam, pose)
        assert np.allclose(p, [2.0, 0.0, 1.25])

    def test_quarter_turn(self, cam):
        pose = Pose(x=0.0, y=0.0, yaw=math.pi / 2)
        p = pixel_to_world(cam.cx, cam.cy, 2.0, cam, pose)
        assert np.allclose(p, [0.0, 2.0, 1.25])

    def test_inverse_principal_ray(self, cam):
        pose = Pose(x=0.0, y=0.0, yaw=0.0)
        u, v, d = world_to_pixel(np.array([2.0, 0.0, 1.25]), cam, pose)
        assert abs(u - cam.cx) < 1e-9 and abs(v - cam.cy) < 1e-9
        assert abs(d - 2.0) < 1e-12

    def test_behind_camera(self, cam):
        pose = Pose(x=0.0, y=0.0, yaw=0.0)
        _, _, d = world_to_pixel(np.array([-1.0, 0.0, 1.25]), cam, pose)
        assert d <= 0

    def test_invalid_depth(self, cam, pose_origin):
        with pytest.raises(ValueError, match="invalid depth"):
            pixel_to_world(5, 5, 0.0, cam, pose_origin)

    def test_round_trip_16_yaw_sweep(self, cam):
        rng = np.random.default_rng(42)
        for yaw in np.linspace(-math.pi, math.pi, 16, endpoint=False):
            pose = Pose(x=float(rng.uniform(-2, 2)), y=float(rng.uniform(-2, 2)),
                        yaw=float(yaw))
            n = 1000 // 16 + 1
            u = rng.uniform(0, cam.width, n)
            v = rng.uniform(0, cam.height, n)
            d = rng.uniform(0.1, 9.0, n)
            pts = pixel_to_world(u, v, d, cam, pose)
            u2, v2, d2 = world_to_pixel(pts, cam, pose)
            assert np.max(np.hypot(u2 - u, v2 - v)) < 0.5
            assert np.max(np.abs(d2 - d)) < 1e-9

    def test_projection_independent_of_array_length(self, cam):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pose = Pose(x=float(rng.uniform(-3, 3)), y=float(rng.uniform(-3, 3)),
                        yaw=float(rng.uniform(-math.pi, math.pi)))
            pts = rng.uniform(-5, 5, (40, 3))
            whole = np.stack(world_to_pixel(pts, cam, pose), axis=1)
            for i in range(len(pts)):
                alone = np.stack(world_to_pixel(pts[i:i + 1], cam, pose), axis=1)
                assert alone.tobytes() == whole[i:i + 1].tobytes()

    def test_matches_homogeneous_matrix_oracle(self, cam):
        rng = np.random.default_rng(1)
        pose = Pose(x=0.7, y=-0.4, yaw=1.1)
        for _ in range(1000):
            p = rng.uniform(-5, 5, 3)
            ref = project_homogeneous(p, cam, pose)
            got = world_to_pixel(p, cam, pose)
            if ref is None:
                assert got[2] <= 0
            else:
                assert got[2] > 0
                assert abs(got[0] - ref[0]) < 1e-6
                assert abs(got[1] - ref[1]) < 1e-6
                assert abs(got[2] - ref[2]) < 1e-9


class TestTypes:
    def test_box_positive_extent(self):
        with pytest.raises(ValueError):
            Box(0, 0, 0, 0, 1, 1)

    def test_dense_ids_required(self):
        with pytest.raises(ValueError):
            SceneSpec(bounds=Box(0, 0, 0, 1, 1, 1), obstacles=(),
                      objects=(ObjectInstance(1, 0, Box(0, 0, 0, 0.5, 0.5, 0.5)),))

    def test_yaw_normalized(self):
        assert -math.pi <= Pose(0, 0, 7.0).yaw < math.pi

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(fx=-1, fy=1, cx=1, cy=1, width=4, height=4)
        with pytest.raises(ValueError, match="^fx: missing required field"):
            CameraIntrinsics.from_json({"fy": 1.0, "cx": 1.0, "cy": 1.0,
                                        "width": 4, "height": 4})

    @pytest.mark.parametrize("kw, field", [
        (dict(objects_per_class_min=2, objects_per_class_max=1),
         "objects_per_class_min"),
        (dict(room_size_min=12.0, room_size_max=10.0), "room_size_min"),
        (dict(n_partitions=-2), "n_partitions"),
        (dict(objects_per_class_min=-1), "objects_per_class_min"),
        (dict(room_size_min=0.0), "room_size_min"),
        (dict(room_size_max=math.inf), "room_size_max"),
        (dict(room_size_max=math.nan), "room_size_max"),
    ])
    def test_scene_params_ranges(self, kw, field):
        with pytest.raises(ValueError, match=field):
            SceneParams(**kw)
