import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlabel.consensus import (DEFAULT_VOXEL_SIZE, InstanceRecord,
                                SemanticVoxelMap, _AXIS_BITS, _KEY_LIMIT,
                                _KEY_OFFSET, _pack, accumulate_frame,
                                consistent_logits, extract_instances,
                                finalize_map, resolve_voxels)
from voxlabel.detector import Detection, DetectionSet, NoiseModel
from voxlabel.explore import run_episode
from voxlabel.reproject import build_pseudo_dataset
from voxlabel.scene import (FrameObservation, Pose, SceneParams,
                            generate_scene, pixel_to_world)

from oracles import flood_fill_components, max_score_labels, mean_softmax


def logits_for(class_id, strength=5.0, n=6):
    out = np.zeros(n)
    out[class_id] = strength
    return out


def add_obs(vmap, keys, class_id, score, logits=None):
    """Add one observation covering every key."""
    if logits is None:
        logits = logits_for(class_id)
    return vmap.add_observation(keys, logits, score)


def key_set(keys):
    return {tuple(k) for k in np.asarray(keys).tolist()}


def voxel_labels(vmap):
    """{key: (resolved class, instance uid or None)} of a resolved map."""
    return {tuple(k): (c, u if u >= 0 else None)
            for k, c, u in zip(vmap.voxels.tolist(), vmap.voxel_class.tolist(),
                               vmap.voxel_instance.tolist())}


def instance(keys, class_id=0):
    """Hand-built instance over the given keys."""
    return InstanceRecord(uid=0, class_id=class_id,
                          voxels=np.array(sorted(set(keys)), dtype=np.int64))


def full_mask_detection(shape, class_id=1):
    return Detection(mask=np.ones(shape, dtype=bool), logits=logits_for(class_id))


def pack_by_sum(keys):
    """Packed keys as the sum of the offset columns shifted into place."""
    k = np.asarray(keys, dtype=np.int64).reshape(-1, 3)
    return ((k + _KEY_OFFSET) << np.array([2 * _AXIS_BITS, _AXIS_BITS, 0])).sum(axis=1)


class TestPackedKeys:
    def test_or_of_shifted_columns_equals_sum_at_the_limits(self):
        edge = _KEY_LIMIT - 1
        keys = np.array(list(itertools.product((-edge, -1, 0, 1, edge), repeat=3)))
        assert _pack(keys).tobytes() == pack_by_sum(keys).tobytes()
        assert np.all(np.diff(_pack(keys)) > 0)     # lexicographic input stays sorted

    def test_or_of_shifted_columns_equals_sum_on_random_keys(self):
        keys = np.random.default_rng(5).integers(-_KEY_LIMIT + 1, _KEY_LIMIT, (2000, 3))
        assert _pack(keys).tobytes() == pack_by_sum(keys).tobytes()

    def test_observation_keys_are_sorted_unique(self):
        rng = np.random.default_rng(6)
        keys = rng.integers(-4, 5, (500, 3))     # 729 possible keys: many repeats
        assert len(key_set(keys)) < len(keys)
        vmap = SemanticVoxelMap()
        add_obs(vmap, keys, class_id=1, score=0.9)
        add_obs(vmap, np.zeros((0, 3), dtype=np.int64), class_id=1, score=0.9)
        stored = vmap.observations[0].keys
        assert stored.dtype == np.int64
        assert stored.tobytes() == np.unique(_pack(keys)).tobytes()
        assert len(vmap.observations[1].keys) == 0


class TestAccumulate:
    def test_single_pixel_lands_in_expected_voxel(self, cam):
        depth = np.zeros((cam.height, cam.width))
        depth[24, 32] = 2.0
        frame = FrameObservation(pose=Pose(0, 0, 0),
                                 depth=depth, gt_instance=np.full(depth.shape, -1,
                                                                  dtype=np.int32))
        mask = depth > 0
        det = Detection(mask=mask, logits=logits_for(2))
        vmap = SemanticVoxelMap()
        accumulate_frame(vmap, frame,
                         DetectionSet([det]), cam)
        # principal ray at depth 2 hits world (2, 0, 1.25)
        want = tuple(np.floor(np.array([2.0, 0.0, 1.25])
                              / DEFAULT_VOXEL_SIZE).astype(int))
        assert len(vmap.observations) == 1
        resolve_voxels(vmap)
        assert voxel_labels(vmap) == {want: (2, None)}

    def test_matches_per_pixel_oracle(self, cam_small):
        rng = np.random.default_rng(3)
        depth = rng.uniform(0.5, 4.0, (cam_small.height, cam_small.width))
        depth[rng.random(depth.shape) < 0.2] = 0.0
        pose = Pose(1.0, -0.5, 0.7)
        frame = FrameObservation(pose=pose, depth=depth,
                                 gt_instance=np.full(depth.shape, -1,
                                                     dtype=np.int32))
        det = full_mask_detection(depth.shape, class_id=3)
        vmap = SemanticVoxelMap()
        accumulate_frame(vmap, frame, DetectionSet([det]), cam_small)

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
        resolve_voxels(vmap)
        assert key_set(vmap.voxels) == set(want)
        assert len(vmap.observations) == 1

    def test_zero_depth_pixels_skipped(self, cam):
        depth = np.zeros((cam.height, cam.width))
        frame = FrameObservation(pose=Pose(0, 0, 0), depth=depth,
                                 gt_instance=np.full(depth.shape, -1,
                                                     dtype=np.int32))
        det = full_mask_detection(depth.shape)
        vmap = SemanticVoxelMap()
        accumulate_frame(vmap, frame, DetectionSet([det]), cam)
        assert vmap.observations == []
        resolve_voxels(vmap)
        assert len(vmap.voxels) == 0

    def test_accumulate_after_resolve_rejected(self, cam):
        vmap = SemanticVoxelMap()
        resolve_voxels(vmap)
        depth = np.zeros((cam.height, cam.width))
        frame = FrameObservation(pose=Pose(0, 0, 0), depth=depth,
                                 gt_instance=np.full(depth.shape, -1,
                                                     dtype=np.int32))
        with pytest.raises(ValueError):
            accumulate_frame(vmap, frame,
                             DetectionSet([full_mask_detection(depth.shape)]), cam)

    @pytest.mark.parametrize("voxel_size", [0.0, -0.05])
    def test_rejects_non_positive_voxel_size(self, voxel_size):
        with pytest.raises(ValueError, match="voxel_size"):
            SemanticVoxelMap(voxel_size=voxel_size)

    @pytest.mark.parametrize("key", [(2 ** 20, 0, 0), (0, -2 ** 20, 0),
                                     (0, 0, 2 ** 40)])
    def test_rejects_unpackable_key(self, key):
        with pytest.raises(ValueError, match="voxel_size"):
            add_obs(SemanticVoxelMap(), [(0, 0, 0), key], class_id=1, score=0.9)

    def test_add_after_resolve_rejected(self):
        vmap = resolve_voxels(SemanticVoxelMap())
        with pytest.raises(ValueError):
            add_obs(vmap, [(0, 0, 0)], class_id=1, score=0.9)


class TestResolve:
    def test_max_score_wins(self):
        # couch at 0.9 beats bed at 0.8
        vmap = SemanticVoxelMap()
        key = (0, 0, 0)
        add_obs(vmap, [key], class_id=1, score=0.9)
        add_obs(vmap, [key], class_id=2, score=0.8)
        resolve_voxels(vmap)
        assert voxel_labels(vmap)[key][0] == 1

    def test_score_tie_lower_class_index(self):
        # tv (5) and bed (2) both at 0.7: bed wins
        vmap = SemanticVoxelMap()
        key = (0, 0, 0)
        add_obs(vmap, [key], class_id=5, score=0.7)
        add_obs(vmap, [key], class_id=2, score=0.7)
        resolve_voxels(vmap)
        assert voxel_labels(vmap)[key][0] == 2

    def test_equal_score_same_class_resolves_to_it(self):
        vmap = SemanticVoxelMap()
        key = (0, 0, 0)
        add_obs(vmap, [key], class_id=4, score=0.7)
        add_obs(vmap, [key], class_id=4, score=0.7,
                logits=logits_for(4, strength=9.0))
        resolve_voxels(vmap)
        # both candidates say class 4
        assert voxel_labels(vmap)[key][0] == 4

    def test_repeated_votes_do_not_outvote_score(self):
        # five 0.6-score couch observations lose to one 0.9 bed observation
        vmap = SemanticVoxelMap()
        key = (2, 2, 2)
        for i in range(5):
            add_obs(vmap, [key], class_id=1, score=0.6)
        add_obs(vmap, [key], class_id=2, score=0.9)
        resolve_voxels(vmap)
        assert voxel_labels(vmap)[key][0] == 2


class TestExtractInstances:
    def test_diagonal_is_one_component(self):
        vmap = SemanticVoxelMap()
        keys = [(0, 0, 0), (1, 1, 1), (2, 2, 2)]
        add_obs(vmap, keys, class_id=3, score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert len(vmap.instances) == 1
        assert key_set(vmap.instances[0].voxels) == set(keys)

    def test_gap_splits_component(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0), (4, 0, 0)], class_id=3, score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert len(vmap.instances) == 2

    def test_same_position_different_class_split(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0)], class_id=1, score=0.9)
        add_obs(vmap, [(1, 0, 0)], class_id=2, score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert sorted(i.class_id for i in vmap.instances.values()) == [1, 2]

    def test_min_size_filter(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0), (1, 0, 0)], class_id=1, score=0.9)
        big = [(10 + i, 0, 0) for i in range(6)]
        add_obs(vmap, big, class_id=1, score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=3)
        assert len(vmap.instances) == 1
        assert key_set(vmap.instances[0].voxels) == set(big)
        assert voxel_labels(vmap)[(0, 0, 0)] == (1, None)

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
                add_obs(vmap, sorted(keys), class_id=class_id, score=0.9)
            resolve_voxels(vmap)
            extract_instances(vmap, min_instance_voxels=1)
            got = {(inst.class_id, frozenset(key_set(inst.voxels)))
                   for inst in vmap.instances.values()}
            want = set(flood_fill_components(by_class))
            assert got == want

    def test_requires_resolution(self):
        with pytest.raises(ValueError):
            extract_instances(SemanticVoxelMap())

    def test_uids_dense_and_ordered(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(5, 0, 0)], class_id=0, score=0.9)
        add_obs(vmap, [(0, 0, 0)], class_id=1, score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert list(vmap.instances) == [0, 1]
        # uid 0 is the component with the smaller minimal key
        assert key_set(vmap.instances[0].voxels) == {(0, 0, 0)}


class TestProperties:
    @given(st.lists(st.tuples(
        st.lists(st.tuples(*[st.integers(-4, 4)] * 3), min_size=1, max_size=12),
        st.integers(0, 5), st.sampled_from([0.6, 0.75, 0.9])),
        min_size=1, max_size=10))
    @settings(max_examples=60, deadline=None)
    def test_random_observations_match_oracles(self, observations):
        vmap = SemanticVoxelMap()
        for keys, class_id, score in observations:
            add_obs(vmap, keys, class_id=class_id, score=score)
        finalize_map(vmap, min_instance_voxels=1)
        want = max_score_labels(observations)
        got = voxel_labels(vmap)
        assert {k: c for k, (c, _) in got.items()} == want
        by_class: dict = {}
        for key, class_id in want.items():
            by_class.setdefault(class_id, set()).add(key)
        assert {(i.class_id, frozenset(key_set(i.voxels)))
                for i in vmap.instances.values()} \
            == set(flood_fill_components(by_class))
        for uid, inst in vmap.instances.items():
            assert {got[k][1] for k in key_set(inst.voxels)} == {uid}
        # uids follow the lexicographically minimal key of each instance
        firsts = [tuple(vmap.instances[uid].voxels[0].tolist())
                  for uid in sorted(vmap.instances)]
        assert firsts == sorted(firsts)

    def test_empty_map(self):
        vmap = finalize_map(SemanticVoxelMap())
        assert len(vmap.voxels) == 0 and len(vmap.instances) == 0
        assert vmap.voxel_size == DEFAULT_VOXEL_SIZE

    def test_every_detection_dropped(self, cam):
        scene = generate_scene(SceneParams(), seed=0)
        traj, _ = run_episode(scene, "frontier", NoiseModel(dropout_base=1.0),
                              20, cam, seed=0)
        vmap = SemanticVoxelMap()
        for frame, dets in zip(traj.frames, traj.detections):
            accumulate_frame(vmap, frame, dets, cam)
        finalize_map(vmap)
        dataset = build_pseudo_dataset(traj, vmap, cam)
        assert len(dataset) == 20
        assert all(labels == [] for labels in dataset.frames)
        assert len(vmap.voxels) == 0

    def test_far_apart_voxels_extract_in_bounded_memory(self):
        # a dense bounding-box labelling would need 10^15 cells here
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0), (1, 1, 1), (10 ** 5,) * 3], class_id=3,
                score=0.9)
        resolve_voxels(vmap)
        extract_instances(vmap, min_instance_voxels=1)
        assert [key_set(i.voxels) for i in vmap.instances.values()] \
            == [{(0, 0, 0), (1, 1, 1)}, {(10 ** 5,) * 3}]


class TestConsistentLogits:
    def test_single_detection(self):
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0)], class_id=1, score=0.9,
                logits=np.array([math.log(2), 0.0, 0.0]))
        resolve_voxels(vmap)
        lam = consistent_logits(instance([(0, 0, 0)], class_id=1), vmap)
        assert np.allclose(lam, [0.5, 0.25, 0.25], atol=1e-12)

    def test_two_detection_example(self):
        # Q = {(ln 2, 0, 0), (0, 0, 0)} -> (5/12, 7/24, 7/24)
        vmap = SemanticVoxelMap()
        add_obs(vmap, [(0, 0, 0)], class_id=0, score=0.9,
                logits=np.array([math.log(2), 0.0, 0.0]))
        add_obs(vmap, [(0, 0, 0)], class_id=0, score=0.9,
                logits=np.zeros(3))
        resolve_voxels(vmap)
        lam = consistent_logits(instance([(0, 0, 0)]), vmap)
        assert np.allclose(lam, [5 / 12, 7 / 24, 7 / 24], atol=1e-12)

    def test_detection_votes_once_across_voxels(self):
        # one detection spans 10 voxels, another only 1: still a 50/50 mean
        vmap = SemanticVoxelMap()
        wide = [(i, 0, 0) for i in range(10)]
        add_obs(vmap, wide, class_id=0, score=0.9,
                logits=np.array([4.0, 0.0, 0.0]))
        add_obs(vmap, [wide[0]], class_id=1, score=0.9,
                logits=np.array([0.0, 4.0, 0.0]))
        resolve_voxels(vmap)
        lam = consistent_logits(instance(wide), vmap)
        want = mean_softmax([np.array([4.0, 0.0, 0.0]), np.array([0.0, 4.0, 0.0])])
        assert np.allclose(lam, want, atol=1e-12)
        assert abs(lam[0] - lam[1]) < 1e-12

    @given(st.lists(st.lists(st.floats(-20, 20), min_size=6, max_size=6),
                    min_size=1, max_size=8))
    @settings(max_examples=40, deadline=None)
    def test_probability_vector_properties(self, logit_rows):
        vmap = SemanticVoxelMap()
        for row in logit_rows:
            add_obs(vmap, [(0, 0, 0)], class_id=0, score=0.9,
                    logits=np.array(row))
        resolve_voxels(vmap)
        lam = consistent_logits(instance([(0, 0, 0)]), vmap)
        assert abs(lam.sum() - 1.0) < 1e-9
        assert (lam > 0).all()
        assert np.allclose(lam, mean_softmax([np.array(r) for r in logit_rows]),
                           atol=1e-9)


class TestPipelineLevel:
    def make_frames(self, cam_small):
        """Two views of the same wallish blob, plus a conflicting detection."""
        rng = np.random.default_rng(0)
        frames = []
        for yaw in [0.0, 0.05]:
            depth = np.full((cam_small.height, cam_small.width), 2.0)
            pose = Pose(0.0, 0.0, yaw)
            frame = FrameObservation(pose=pose, depth=depth,
                                     gt_instance=np.zeros(depth.shape,
                                                          dtype=np.int32))
            mask = np.zeros(depth.shape, dtype=bool)
            mask[3:9, 4:12] = True
            noise = rng.normal(0, 0.1, 6)
            det = Detection(mask=mask, logits=logits_for(2) + noise)
            frames.append((frame, DetectionSet([det])))
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
            assert inst.consistent_logits.shape == (6,)
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
        assert voxel_labels(a) == voxel_labels(b)
        la = {frozenset(key_set(i.voxels)):
              tuple(np.round(i.consistent_logits, 12))
              for i in a.instances.values()}
        lb = {frozenset(key_set(i.voxels)):
              tuple(np.round(i.consistent_logits, 12))
              for i in b.instances.values()}
        assert la == lb
