import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlabel.consensus import (DEFAULT_VOXEL_SIZE, InstanceRecord,
                                SemanticVoxelMap, VoxelRecord,
                                accumulate_frame, consistent_logits,
                                extract_instances, finalize_map, map_to_json,
                                resolve_voxels)
from voxlabel.detector import Detection, DetectionSet, mask_bbox, softmax
from voxlabel.scene import (CameraIntrinsics, FrameObservation, Pose,
                            pixel_to_world)

from oracles import flood_fill_components, mean_softmax, softmax_ref


def logits_for(class_id, strength=5.0, n=6):
    out = np.zeros(n)
    out[class_id] = strength
    return out


def add_obs(vmap, keys, class_id, score, frame=0, det=0, logits=None):
    """Register one observation and attach it to each key."""
    if logits is None:
        logits = logits_for(class_id)
    oid = vmap._register_obs(logits, score, frame, det)
    for key in keys:
        vmap.voxels.setdefault(key, VoxelRecord()).obs_ids.append(oid)
    return oid


def full_mask_detection(shape, class_id=1, score=0.9):
    mask = np.ones(shape, dtype=bool)
    return Detection(mask=mask, bbox=mask_bbox(mask), class_id=class_id,
                     logits=logits_for(class_id), score=score)


class TestAccumulate:
    def test_single_pixel_lands_in_expected_voxel(self, cam):
        depth = np.zeros((cam.height, cam.width))
        depth[24, 32] = 2.0
        frame = FrameObservation(pose=Pose(0, 0, 0, camera_height=1.25),
                                 depth=depth, gt_instance=np.full(depth.shape, -1,
                                                                  dtype=np.int32))
        mask = depth > 0
        det = Detection(mask=mask, bbox=mask_bbox(mask), class_id=2,
                        logits=logits_for(2), score=0.8)
        vmap = SemanticVoxelMap()
        accumulate_frame(vmap, frame,
                         DetectionSet(0, [det], [0]), cam)
        # principal ray at depth 2 hits world (2, 0, 1.25)
        want = tuple(np.floor(np.array([2.0, 0.0, 1.25])
                              / DEFAULT_VOXEL_SIZE).astype(int))
        assert set(vmap.voxels) == {want}
        assert vmap.voxels[want].obs_ids == [0]

    def test_matches_per_pixel_oracle(self, cam_small):
        rng = np.random.default_rng(3)
        depth = rng.uniform(0.5, 4.0, (cam_small.height, cam_small.width))
        depth[rng.random(depth.shape) < 0.2] = 0.0
        pose = Pose(1.0, -0.5, 0.7, camera_height=1.25)
        frame = FrameObservation(pose=pose, depth=depth,
                                 gt_instance=np.full(depth.shape, -1,
                                                     dtype=np.int32))
        det = full_mask_detection(depth.shape, class_id=3)
        vmap = SemanticVoxelMap()
        accumulate_frame(vmap, frame, DetectionSet(5, [det], [0]), cam_small)

        # oracle: lift every valid pixel one by one
        want: dict = {}
        for v in range(cam_small.height):
            for u in range(cam_small.width):
                if depth[v, u] <= 0:
                    continue
                p = pixel_to_world(float(u), float(v), float(depth[v, u]),
                                   cam_small, pose)
                key = tuple(int(math.floor(c / DEFAULT_VOXEL_SIZE)) for c in p)
                want[key] = want.get(key, 0) + 1
        got = {k: len(rec.obs_ids) for k, rec in vmap.voxels.items()}
        assert got == want
        assert vmap.obs_frame == [5] and vmap.obs_det == [0]

    def test_zero_depth_pixels_skipped(self, cam):
        depth = np.zeros((cam.height, cam.width))
        frame = FrameObservation(pose=Pose(0, 0, 0), depth=depth,
                                 gt_instance=np.full(depth.shape, -1,
                                                     dtype=np.int32))
        det = full_mask_detection(depth.shape)
        vmap = SemanticVoxelMap()
        accumulate_frame(vmap, frame, DetectionSet(0, [det], [0]), cam)
        assert vmap.voxels == {}

    def test_accumulate_after_resolve_rejected(self, cam):
        vmap = SemanticVoxelMap()
        resolve_voxels(vmap)
        depth = np.zeros((cam.height, cam.width))
        frame = FrameObservation(pose=Pose(0, 0, 0), depth=depth,
                                 gt_instance=np.full(depth.shape, -1,
                                                     dtype=np.int32))
        with pytest.raises(ValueError):
            accumulate_frame(vmap, frame,
                             DetectionSet(0, [full_mask_detection(depth.shape)],
                                          [0]), cam)

    @pytest.mark.parametrize("voxel_size", [0.0, -0.05])
    def test_rejects_non_positive_voxel_size(self, voxel_size):
        with pytest.raises(ValueError, match="voxel_size"):
            SemanticVoxelMap(voxel_size=voxel_size)


class TestResolve:
    def test_max_score_wins(self):
        # couch at 0.9 beats bed at 0.8
        vmap = SemanticVoxelMap()
        key = (0, 0, 0)
        add_obs(vmap, [key], class_id=1, score=0.9, frame=0, det=0)
        add_obs(vmap, [key], class_id=2, score=0.8, frame=1, det=0)
        resolve_voxels(vmap)
        assert vmap.voxels[key].resolved_class == 1

    def test_score_tie_lower_class_index(self):
        # tv (5) and bed (2) both at 0.7: bed wins
        vmap = SemanticVoxelMap()
        key = (0, 0, 0)
        add_obs(vmap, [key], class_id=5, score=0.7, frame=0, det=0)
        add_obs(vmap, [key], class_id=2, score=0.7, frame=1, det=0)
        resolve_voxels(vmap)
        assert vmap.voxels[key].resolved_class == 2

    def test_full_tie_earlier_frame(self):
        vmap = SemanticVoxelMap()
        key = (0, 0, 0)
        add_obs(vmap, [key], class_id=4, score=0.7, frame=3, det=1)
        add_obs(vmap, [key], class_id=4, score=0.7, frame=1, det=2,
                logits=logits_for(4, strength=9.0))
        resolve_voxels(vmap)
        # both candidates say class 4 either way; the chosen one is frame 1
        assert vmap.voxels[key].resolved_class == 4

    def test_repeated_votes_do_not_outvote_score(self):
        # five 0.6-score couch observations lose to one 0.9 bed observation
        vmap = SemanticVoxelMap()
        key = (2, 2, 2)
        for i in range(5):
            add_obs(vmap, [key], class_id=1, score=0.6, frame=i, det=0)
        add_obs(vmap, [key], class_id=2, score=0.9, frame=9, det=0)
        resolve_voxels(vmap)
        assert vmap.voxels[key].resolved_class == 2

    def test_summed_softmax_mode_counts_mass(self):
        vmap = SemanticVoxelMap(resolve_mode="summed_softmax")
        key = (0, 0, 0)
        for i in range(5):
            add_obs(vmap, [key], class_id=1, score=0.6, frame=i, det=0)
        add_obs(vmap, [key], class_id=2, score=0.9, frame=9, det=0)
        resolve_voxels(vmap)
        assert vmap.voxels[key].resolved_class == 1


class TestExtractInstances:
    def test_diagonal_is_one_component(self):
        vmap = SemanticVoxelMap()
        keys = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        add_obs(vmap, keys, class_id=3, score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert len(vmap.instances) == 1
        assert vmap.instances[0].voxels == set(keys)

    def test_gap_splits_component(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0), (4, 0, 0)], class_id=3, score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert len(vmap.instances) == 2

    def test_same_position_different_class_split(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0)], class_id=1, score=0.9, frame=0)
        add_obs(vmap, [(1, 0, 0)], class_id=2, score=0.9, frame=1)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert sorted(i.class_id for i in vmap.instances.values()) == [1, 2]

    def test_min_size_filter(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0), (1, 0, 0)], class_id=1, score=0.9, frame=0)
        big = [(10 + i, 0, 0) for i in range(6)]
        add_obs(vmap, big, class_id=1, score=0.9, frame=1)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=3)
        assert len(vmap.instances) == 1
        assert vmap.instances[0].voxels == set(big)
        assert vmap.voxels[(0, 0, 0)].instance_id is None

    def test_matches_flood_fill_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            vmap = SemanticVoxelMap()
            by_class: dict = {}
            for class_id in range(3):
                keys = {tuple(k) for k in
                        rng.integers(0, 8, size=(rng.integers(5, 60), 3)).tolist()}
                # keep classes spatially disjoint by offsetting each class
                keys = {(x + 20 * class_id, y, z) for x, y, z in keys}
                by_class[class_id] = keys
                add_obs(vmap, sorted(keys), class_id=class_id, score=0.9,
                        frame=class_id)
            resolve_voxels(vmap)
            extract_instances(vmap, min_instance_voxels=1)
            got = {(inst.class_id, frozenset(inst.voxels))
                   for inst in vmap.instances.values()}
            want = set(flood_fill_components(by_class))
            assert got == want

    def test_requires_resolution(self):
        with pytest.raises(ValueError):
            extract_instances(SemanticVoxelMap())

    def test_uids_dense_and_ordered(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(5, 0, 0)], class_id=0, score=0.9, frame=0)
        add_obs(vmap, [(0, 0, 0)], class_id=1, score=0.9, frame=1)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert list(vmap.instances) == [0, 1]
        # uid 0 is the component with the smaller minimal key
        assert vmap.instances[0].voxels == {(0, 0, 0)}


class TestConsistentLogits:
    def test_single_detection(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0)], class_id=1, score=0.9,
                logits=np.array([math.log(2), 0.0, 0.0]))
        inst = InstanceRecord(uid=0, class_id=1, voxels={(0, 0, 0)})
        lam = consistent_logits(inst, vmap)
        assert np.allclose(lam, [0.5, 0.25, 0.25], atol=1e-12)

    def test_two_detection_example(self):
        # Q = {(ln 2, 0, 0), (0, 0, 0)} -> (5/12, 7/24, 7/24)
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0)], class_id=0, score=0.9, frame=0,
                logits=np.array([math.log(2), 0.0, 0.0]))
        add_obs(vmap, [(0, 0, 0)], class_id=0, score=0.9, frame=1,
                logits=np.zeros(3))
        inst = InstanceRecord(uid=0, class_id=0, voxels={(0, 0, 0)})
        lam = consistent_logits(inst, vmap)
        assert np.allclose(lam, [5 / 12, 7 / 24, 7 / 24], atol=1e-12)

    def test_detection_votes_once_across_voxels(self):
        # one detection spans 10 voxels, another only 1: still a 50/50 mean
        vmap = SemanticVoxelMap()
        wide = [(i, 0, 0) for i in range(10)]
        add_obs(vmap, wide, class_id=0, score=0.9, frame=0,
                logits=np.array([4.0, 0.0, 0.0]))
        add_obs(vmap, [wide[0]], class_id=1, score=0.9, frame=1,
                logits=np.array([0.0, 4.0, 0.0]))
        inst = InstanceRecord(uid=0, class_id=0, voxels=set(wide))
        lam = consistent_logits(inst, vmap)
        want = mean_softmax([np.array([4.0, 0.0, 0.0]), np.array([0.0, 4.0, 0.0])])
        assert np.allclose(lam, want, atol=1e-12)
        assert abs(lam[0] - lam[1]) < 1e-12

    @given(st.lists(st.lists(st.floats(-20, 20), min_size=6, max_size=6),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_probability_vector_properties(self, logit_rows):
        vmap = SemanticVoxelMap()
        for i, row in enumerate(logit_rows):
            add_obs(vmap, [(0, 0, 0)], class_id=0, score=0.9, frame=i,
                    logits=np.array(row))
        inst = InstanceRecord(uid=0, class_id=0, voxels={(0, 0, 0)})
        lam = consistent_logits(inst, vmap)
        assert abs(lam.sum() - 1.0) < 1e-9
        assert (lam > 0).all()
        assert np.allclose(lam, mean_softmax([np.array(r) for r in logit_rows]),
                           atol=1e-9)


class TestPipelineLevel:
    def make_frames(self, cam_small):
        """Two views of the same wallish blob, plus a conflicting detection."""
        rng = np.random.default_rng(0)
        frames = []
        for i, yaw in enumerate([0.0, 0.05]):
            depth = np.full((cam_small.height, cam_small.width), 2.0)
            pose = Pose(0.0, 0.0, yaw, camera_height=1.25)
            frame = FrameObservation(pose=pose, depth=depth,
                                     gt_instance=np.zeros(depth.shape,
                                                          dtype=np.int32))
            mask = np.zeros(depth.shape, dtype=bool)
            mask[3:9, 4:12] = True
            noise = rng.normal(0, 0.1, 6)
            det = Detection(mask=mask, bbox=mask_bbox(mask), class_id=2,
                            logits=logits_for(2) + noise, score=0.8 + 0.05 * i)
            frames.append((frame, DetectionSet(i, [det], [0])))
        return frames

    def test_finalize_end_to_end(self, cam_small):
        vmap = SemanticVoxelMap()
        for frame, dets in self.make_frames(cam_small):
            accumulate_frame(vmap, frame, dets, cam_small)
        finalize_map(vmap, min_instance_voxels=1)
        assert len(vmap.instances) >= 1
        classes = {i.class_id for i in vmap.instances.values()}
        assert classes == {2}
        for inst in vmap.instances.values():
            assert inst.consistent_logits is not None
            assert abs(inst.consistent_logits.sum() - 1.0) < 1e-9

    def test_accumulation_order_independent(self, cam_small):
        pairs = self.make_frames(cam_small)
        a = SemanticVoxelMap()
        for frame, dets in pairs:
            accumulate_frame(a, frame, dets, cam_small)
        b = SemanticVoxelMap()
        for frame, dets in reversed(pairs):
            accumulate_frame(b, frame, dets, cam_small)
        finalize_map(a, min_instance_voxels=1)
        finalize_map(b, min_instance_voxels=1)
        assert {k: r.resolved_class for k, r in a.voxels.items()} \
            == {k: r.resolved_class for k, r in b.voxels.items()}
        la = {frozenset(i.voxels): tuple(np.round(i.consistent_logits, 12))
              for i in a.instances.values()}
        lb = {frozenset(i.voxels): tuple(np.round(i.consistent_logits, 12))
              for i in b.instances.values()}
        assert la == lb

    def test_map_to_json_shape(self, cam_small):
        vmap = SemanticVoxelMap()
        for frame, dets in self.make_frames(cam_small):
            accumulate_frame(vmap, frame, dets, cam_small)
        finalize_map(vmap, min_instance_voxels=1)
        out = map_to_json(vmap)
        assert out["voxel_size"] == DEFAULT_VOXEL_SIZE
        assert len(out["voxels"]) == len(vmap.voxels)
        for entry in out["instances"]:
            assert len(entry["lambda_bar"]) == 6
