import numpy as np
import pytest

from voxlabel.consensus import (SemanticVoxelMap, accumulate_frame,
                                finalize_map)
from voxlabel.detector import NoiseModel, mask_bbox, simulate_detections
from voxlabel.explore import run_episode
from voxlabel.reproject import (PseudoDataset, build_pseudo_dataset,
                                dataset_to_coco, project_instance_masks)
from voxlabel.scene import (Box, CameraIntrinsics, FrameObservation,
                            ObjectInstance, Pose, SceneParams, SceneSpec,
                            generate_scene, render_frame, world_to_pixel)

from oracles import painter_reproject


def single_voxel_map(key=(40, 0, 25)):
    """Map with one resolved single-voxel instance at the given key."""
    vmap = SemanticVoxelMap()
    oid = vmap._register_obs(np.array([0, 0, 5.0, 0, 0, 0]), 0.9, 0, 0)
    from voxlabel.consensus import VoxelRecord
    vmap.voxels[key] = VoxelRecord(obs_ids=[oid])
    finalize_map(vmap, min_instance_voxels=1)
    assert len(vmap.instances) == 1
    return vmap


class TestMaskToBbox:
    def test_single_pixel(self):
        mask = np.zeros((5, 7), dtype=bool)
        mask[2, 3] = True
        assert mask_bbox(mask) == (3, 2, 3, 2)

    def test_rectangle(self):
        mask = np.zeros((10, 10), dtype=bool)
        mask[1:4, 2:8] = True
        assert mask_bbox(mask) == (2, 1, 7, 3)

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty mask"):
            mask_bbox(np.zeros((4, 4), dtype=bool))

    def test_matches_scan_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            mask = rng.random((12, 16)) < 0.2
            if not mask.any():
                continue
            got = mask_bbox(mask)
            us = [u for v in range(12) for u in range(16) if mask[v, u]]
            vs = [v for v in range(12) for u in range(16) if mask[v, u]]
            assert got == (min(us), min(vs), max(us), max(vs))


class TestProjectInstanceMasks:
    def test_single_voxel_visible(self, cam):
        vmap = single_voxel_map()                 # center (2.025, 0.025, 1.275)
        center = (np.array([40, 0, 25]) + 0.5) * vmap.voxel_size
        pose = Pose(0, 0, 0, camera_height=1.25)
        depth = np.full((cam.height, cam.width), 2.025)
        frame = FrameObservation(pose=pose, depth=depth,
                                 gt_instance=np.zeros(depth.shape, np.int32))
        labels = project_instance_masks(vmap, frame, cam)
        assert len(labels) == 1
        u, v, _ = world_to_pixel(center, cam, pose)
        assert labels[0].mask[int(round(v)), int(round(u))]
        assert labels[0].bbox == mask_bbox(labels[0].mask)
        assert labels[0].class_id == 2

    def test_single_voxel_occluded(self, cam):
        vmap = single_voxel_map()
        pose = Pose(0, 0, 0, camera_height=1.25)
        depth = np.full((cam.height, cam.width), 1.0)   # occluder in front
        frame = FrameObservation(pose=pose, depth=depth,
                                 gt_instance=np.zeros(depth.shape, np.int32))
        assert project_instance_masks(vmap, frame, cam) == []

    def test_behind_camera_invisible(self, cam):
        vmap = single_voxel_map()
        pose = Pose(4.0, 0, np.pi / 2, camera_height=1.25)  # looking away
        depth = np.full((cam.height, cam.width), 2.0)
        frame = FrameObservation(pose=pose, depth=depth,
                                 gt_instance=np.zeros(depth.shape, np.int32))
        assert project_instance_masks(vmap, frame, cam) == []

    def test_nearer_instance_wins_overlap(self, cam):
        from voxlabel.consensus import VoxelRecord
        vmap = SemanticVoxelMap()
        near_key, far_key = (40, 0, 25), (80, 0, 25)    # 2.025 m and 4.025 m
        o1 = vmap._register_obs(np.array([5.0, 0, 0, 0, 0, 0]), 0.9, 0, 0)
        o2 = vmap._register_obs(np.array([0, 5.0, 0, 0, 0, 0]), 0.9, 1, 0)
        vmap.voxels[near_key] = VoxelRecord(obs_ids=[o1])
        vmap.voxels[far_key] = VoxelRecord(obs_ids=[o2])
        finalize_map(vmap, min_instance_voxels=1)
        pose = Pose(0, 0, 0, camera_height=1.25)
        # depth image agrees with the *near* voxel on the shared ray
        depth = np.full((cam.height, cam.width), 2.025)
        frame = FrameObservation(pose=pose, depth=depth,
                                 gt_instance=np.zeros(depth.shape, np.int32))
        labels = project_instance_masks(vmap, frame, cam,
                                        occlusion_tolerance=10.0)
        by_class = {lab.class_id: lab for lab in labels}
        # the center pixel belongs to the nearer (class 0) instance
        u, v, _ = world_to_pixel((np.array(near_key) + 0.5) * vmap.voxel_size,
                                 cam, pose)
        assert by_class[0].mask[int(round(v)), int(round(u))]
        if 1 in by_class:
            assert not by_class[1].mask[int(round(v)), int(round(u))]

    def test_requires_extraction(self, cam):
        vmap = SemanticVoxelMap()
        depth = np.zeros((cam.height, cam.width))
        frame = FrameObservation(pose=Pose(0, 0, 0), depth=depth,
                                 gt_instance=np.zeros(depth.shape, np.int32))
        with pytest.raises(ValueError):
            project_instance_masks(vmap, frame, cam)

    def test_rejects_negative_tolerance(self, cam):
        vmap = single_voxel_map()
        depth = np.full((cam.height, cam.width), 2.025)
        frame = FrameObservation(pose=Pose(0, 0, 0, camera_height=1.25),
                                 depth=depth,
                                 gt_instance=np.zeros(depth.shape, np.int32))
        with pytest.raises(ValueError, match="occlusion_tolerance"):
            project_instance_masks(vmap, frame, cam, occlusion_tolerance=-0.1)


def map_from_voxels(voxel_classes, voxel_size=0.05):
    """Extracted map, one observation per voxel, every component kept."""
    from voxlabel.consensus import VoxelRecord
    vmap = SemanticVoxelMap(voxel_size=voxel_size)
    for det, (key, class_id) in enumerate(sorted(voxel_classes.items())):
        logits = np.zeros(6)
        logits[class_id] = 5.0
        oid = vmap._register_obs(logits, 0.9, 0, det)
        vmap.voxels[key] = VoxelRecord(obs_ids=[oid])
    finalize_map(vmap, min_instance_voxels=1)
    return vmap


def random_scene_map(seed, voxel_size):
    """Seeded blobs around a camera at the origin, and a frame whose depth
    agrees with most of the voxels.

    Blob centres lie from 1 m behind to 4 m in front of the camera (radius
    >= 2 footprints below 0.8 m at 5 cm voxels) and up to 20 % beyond the
    field of view, so footprints get clipped at the image border. Blobs of
    one voxel become single-voxel instances.
    """
    rng = np.random.default_rng(seed)
    voxels = {}
    for _ in range(int(rng.integers(6, 12))):
        forward = rng.uniform(-1.0, 4.0)
        centre = np.array([forward, forward * rng.uniform(-0.6, 0.6),
                           1.25 + forward * rng.uniform(-0.45, 0.45)])
        centre = np.floor(centre / voxel_size).astype(int)
        class_id = int(rng.integers(6))
        for _ in range(int(rng.choice([1, 4, 12]))):
            centre = centre + rng.integers(-1, 2, 3)
            voxels[tuple(centre.tolist())] = class_id
    vmap = map_from_voxels(voxels, voxel_size)
    pose = Pose(0.0, 0.0, float(rng.uniform(-0.2, 0.2)), camera_height=1.25)
    K = CameraIntrinsics.default()
    depth = rng.uniform(0.3, 6.0, (K.height, K.width))
    keys = np.array(sorted(voxels))
    u, v, d = world_to_pixel((keys + 0.5) * voxel_size, K, pose)
    ui, vi = np.round(u), np.round(v)
    seen = (d > 0) & (ui >= 0) & (ui < K.width) & (vi >= 0) & (vi < K.height)
    depth[vi[seen].astype(int), ui[seen].astype(int)] = \
        d[seen] + rng.uniform(-0.25, 0.25, int(seen.sum()))
    depth[rng.random(depth.shape) < 0.05] = 0.0
    frame = FrameObservation(pose=pose, depth=depth,
                             gt_instance=np.zeros(depth.shape, np.int32))
    return vmap, frame, K


def assert_matches_painter(vmap, frame, K, tolerance):
    labels = project_instance_masks(vmap, frame, K,
                                    occlusion_tolerance=tolerance)
    tol = 2.0 * vmap.voxel_size if tolerance is None else tolerance
    winner = painter_reproject({uid: inst.voxels
                                for uid, inst in vmap.instances.items()},
                               vmap.voxel_size, frame.depth, K, frame.pose, tol)
    expected = sorted(set(winner[winner >= 0].tolist()))
    assert [lab.uid for lab in labels] == expected
    for lab in labels:
        inst = vmap.instances[lab.uid]
        assert lab.class_id == inst.class_id
        assert lab.lambda_bar is inst.consistent_logits
        assert np.array_equal(lab.mask, winner == lab.uid)
        assert lab.bbox == mask_bbox(lab.mask)
    return labels


class TestPainterOracle:
    @pytest.mark.parametrize("tolerance", [None, 0.3, 5.0])
    @pytest.mark.parametrize("voxel_size", [0.05, 0.1])
    @pytest.mark.parametrize("seed", range(6))
    def test_random_maps_match_painter(self, seed, voxel_size, tolerance):
        vmap, frame, K = random_scene_map(seed, voxel_size)
        labels = assert_matches_painter(vmap, frame, K, tolerance)
        assert len(vmap.instances) >= 2
        assert labels

    def test_random_maps_cover_the_cases(self):
        # the seeds above reach every case the painter distinguishes
        single = near = behind = clipped = 0
        for seed in range(6):
            vmap, frame, K = random_scene_map(seed, 0.05)
            for inst in vmap.instances.values():
                keys = np.array(sorted(inst.voxels))
                _, _, d = world_to_pixel((keys + 0.5) * 0.05, K, frame.pose)
                single += len(keys) == 1
                near += bool(((d > 0) & (d < 0.8)).any())
                behind += bool((d <= 0).any())
            labels = project_instance_masks(vmap, frame, K)
            clipped += sum(bool(lab.mask[:, [0, -1]].any()
                                or lab.mask[[0, -1], :].any())
                           for lab in labels)
        assert min(single, near, behind, clipped) > 0

    def test_equal_depth_tie_goes_to_lower_uid(self, cam):
        # two classes side by side at the same planar depth: two instances
        # whose 5x5 footprints share two columns
        vmap = map_from_voxels({(20, 0, 25): 1, (20, 1, 25): 2})
        pose = Pose(0, 0, 0, camera_height=1.25)
        depth = np.full((cam.height, cam.width), 1.025)
        frame = FrameObservation(pose=pose, depth=depth,
                                 gt_instance=np.zeros(depth.shape, np.int32))
        labels = assert_matches_painter(vmap, frame, cam, None)
        assert [lab.uid for lab in labels] == [0, 1]
        alone = []
        for key, class_id in (((20, 0, 25), 1), ((20, 1, 25), 2)):
            one = map_from_voxels({key: class_id})
            alone.append(project_instance_masks(one, frame, cam)[0].mask)
        shared = alone[0] & alone[1]
        assert shared.any()
        assert labels[0].mask[shared].all()
        assert not labels[1].mask[shared].any()


@pytest.fixture(scope="module")
def episode_artifacts():
    """Noiseless episode on a small generated scene, fully mapped."""
    from voxlabel.scene import CameraIntrinsics
    cam = CameraIntrinsics.default()
    params = SceneParams(room_size_min=6.0, room_size_max=7.0, n_partitions=1)
    scene = generate_scene(params, seed=6)
    traj, _ = run_episode(scene, "frontier", NoiseModel.noiseless(), 120,
                          cam, seed=2)
    vmap = SemanticVoxelMap()
    for frame, dets in zip(traj.frames, traj.detections):
        accumulate_frame(vmap, frame, dets, cam)
    finalize_map(vmap)
    dataset = build_pseudo_dataset(traj, vmap, cam)
    return scene, traj, vmap, dataset, cam


class TestEndToEnd:
    def test_lambda_bar_consistent_across_frames(self, episode_artifacts):
        _, _, _, dataset, _ = episode_artifacts
        by_uid: dict = {}
        for _, lab in dataset.all_labels():
            if lab.uid in by_uid:
                assert np.array_equal(by_uid[lab.uid], lab.lambda_bar)
                assert lab.class_id == by_uid[lab.uid + 10_000]
            else:
                by_uid[lab.uid] = lab.lambda_bar
                by_uid[lab.uid + 10_000] = lab.class_id
        assert by_uid

    def test_masks_cover_true_objects(self, episode_artifacts):
        scene, traj, _, dataset, _ = episode_artifacts
        id_to_class = {o.gt_id: o.class_id for o in scene.objects}
        precisions, recalls = [], []
        for frame, labels in zip(traj.frames, dataset.frames):
            gt = frame.gt_instance
            for lab in labels:
                gt_mask = np.isin(gt, [g for g, c in id_to_class.items()
                                       if c == lab.class_id])
                if gt_mask.sum() < 50:
                    continue
                inter = (lab.mask & gt_mask).sum()
                precisions.append(inter / lab.mask.sum())
                recalls.append(inter / gt_mask.sum())
        assert len(precisions) > 50
        # pinned from the first run of this fixture: precision 0.830, recall
        # 0.970 (splatting trades some precision for dense masks)
        assert np.mean(precisions) >= 0.78
        assert np.mean(recalls) >= 0.92

    def test_recovers_forced_dropouts(self, episode_artifacts):
        # drop the detector output of every odd frame before mapping; the
        # reprojected dataset must still label objects in those frames
        scene, traj, _, _, cam = episode_artifacts
        from voxlabel.detector import DetectionSet
        vmap = SemanticVoxelMap()
        for i, (frame, dets) in enumerate(zip(traj.frames, traj.detections)):
            if i % 2 == 1:
                dets = DetectionSet(i, [], [])
            accumulate_frame(vmap, frame, dets, cam)
        finalize_map(vmap)
        dataset = build_pseudo_dataset(traj, vmap, cam)
        detected_odd = sum(1 for i, dets in enumerate(traj.detections)
                           if i % 2 == 1 and dets.detections)
        pseudo_odd = sum(1 for i, labels in enumerate(dataset.frames)
                         if i % 2 == 1 and labels)
        assert detected_odd > 0
        # pseudo-labels land on at least as many odd frames as raw detections
        assert pseudo_odd >= detected_odd * 0.9

    def test_coco_export(self, episode_artifacts):
        _, _, _, dataset, cam = episode_artifacts
        coco = dataset_to_coco(dataset, cam)
        assert len(coco["images"]) == len(dataset)
        assert len(coco["categories"]) == 6
        assert coco["annotations"]
        for ann in coco["annotations"]:
            assert 0 <= ann["category_id"] < 6
            assert abs(sum(ann["lambda_bar"]) - 1.0) < 1e-9
            assert ann["bbox"][2] > 0 and ann["bbox"][3] > 0
