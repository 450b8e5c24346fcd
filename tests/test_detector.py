import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlabel.detector import (SCORE_THRESHOLD, DetectionSet, NoiseModel,
                               _jitter_mask, mask_bbox, simulate_detections,
                               softmax)
from voxlabel.evaluate import match_gt
from voxlabel.scene import (Box, FrameObservation, ObjectInstance, Pose,
                            SceneSpec, render_frame)

from oracles import cross_morphology


class TestSoftmax:
    def test_uniform(self):
        assert np.allclose(softmax(np.zeros(6)), np.full(6, 1 / 6))

    def test_analytic_three_way(self):
        out = softmax(np.array([math.log(2), 0.0, 0.0]))
        assert np.allclose(out, [0.5, 0.25, 0.25], atol=1e-12)

    def test_sums_to_one_positive(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = softmax(rng.normal(0, 10, 6))
            assert abs(p.sum() - 1.0) < 1e-12
            assert (p > 0).all()

    @given(st.lists(st.floats(-50, 50), min_size=6, max_size=6),
           st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, logits, c):
        a = softmax(np.array(logits))
        b = softmax(np.array(logits) + c)
        assert np.max(np.abs(a - b)) < 1e-12

    def test_invalid_logits(self):
        with pytest.raises(ValueError, match="invalid logits"):
            softmax(np.array([np.nan, 0, 0, 0, 0, 0]))


class TestNoiseModel:
    def test_confusion_must_be_stochastic(self):
        bad = tuple(tuple(0.5 for _ in range(6)) for _ in range(6))
        with pytest.raises(ValueError):
            NoiseModel(confusion=bad)

    def test_uniform_confusion_rows(self):
        nm = NoiseModel.uniform_confusion(0.75)
        m = np.asarray(nm.confusion)
        assert np.allclose(m.sum(axis=1), 1.0)
        assert np.allclose(np.diag(m), 0.75)

    def test_json_round_trip(self):
        nm = NoiseModel.uniform_confusion(0.8, dropout_base=0.1,
                                          mask_jitter_px=2)
        assert NoiseModel.from_json(nm.to_json()) == nm
        for value in (nm, NoiseModel(), NoiseModel.noiseless(min_pixels=20)):
            back = NoiseModel.from_json(json.loads(json.dumps(value.to_json())))
            assert back == value
            assert back.to_json() == value.to_json()

    def test_confusion_from_lists_is_float_tuples(self):
        ref = NoiseModel.uniform_confusion(0.5)
        nm = NoiseModel(confusion=[list(row) for row in ref.confusion])
        assert nm == ref and hash(nm) == hash(ref)
        identity = NoiseModel(confusion=[[int(i == j) for j in range(6)]
                                         for i in range(6)])
        assert identity == NoiseModel()
        assert all(type(v) is float for row in identity.confusion for v in row)

    def test_rejects_negative_mask_jitter(self):
        with pytest.raises(ValueError, match="mask_jitter_px"):
            NoiseModel(mask_jitter_px=-1)

    @pytest.mark.parametrize("min_pixels", [0, -5])
    def test_rejects_min_pixels_below_one(self, min_pixels):
        with pytest.raises(ValueError, match="min_pixels"):
            NoiseModel(min_pixels=min_pixels)


@pytest.fixture
def visible_scene(cam):
    bounds = Box(0, -4, 0, 10, 4, 3)
    walls = (Box(9.8, -4, 0, 10, 4, 3),)
    objects = (ObjectInstance(0, 1, Box(3.0, -1.5, 0.0, 4.0, 0.0, 2.0)),
               ObjectInstance(1, 4, Box(5.5, 0.5, 0.0, 6.2, 1.4, 2.2)))
    return SceneSpec(bounds=bounds, obstacles=walls, objects=objects)


class TestSimulateDetections:
    def test_noiseless_identity(self, cam, visible_scene):
        pose = Pose(x=0.5, y=0.0, yaw=0.0)
        frame = render_frame(visible_scene, pose, cam)
        noise = NoiseModel.noiseless()
        out = simulate_detections(frame, visible_scene, noise,
                                  np.random.default_rng(0))
        visible = [gt for gt in np.unique(frame.gt_instance) if gt >= 0
                   and (frame.gt_instance == gt).sum() >= noise.min_pixels]
        assert len(out.detections) == len(visible)
        # masks partition exactly the gt-labeled (large-enough) pixels
        gt_ids = [match_gt(det.mask, frame) for det in out.detections]
        assert sorted(gt_ids) == visible
        for det, gt_id in zip(out.detections, gt_ids):
            assert (det.mask == (frame.gt_instance == gt_id)).all()
            assert det.class_id == visible_scene.object_by_id(gt_id).class_id
            assert det.bbox == mask_bbox(det.mask)

    def test_full_dropout_empty(self, cam, visible_scene):
        pose = Pose(x=0.5, y=0.0, yaw=0.0)
        frame = render_frame(visible_scene, pose, cam)
        noise = NoiseModel(dropout_base=1.0)
        out = simulate_detections(frame, visible_scene, noise,
                                  np.random.default_rng(0))
        assert out.detections == []

    def test_score_above_threshold(self, cam, visible_scene):
        pose = Pose(x=0.5, y=0.0, yaw=0.0)
        frame = render_frame(visible_scene, pose, cam)
        noise = NoiseModel.uniform_confusion(0.75, logit_noise_sigma=2.0)
        for seed in range(10):
            out = simulate_detections(frame, visible_scene, noise,
                                      np.random.default_rng(seed))
            for det in out.detections:
                assert det.score >= SCORE_THRESHOLD

    def test_deterministic_given_seed(self, cam, visible_scene):
        pose = Pose(x=0.5, y=0.0, yaw=0.3)
        frame = render_frame(visible_scene, pose, cam)
        noise = NoiseModel.uniform_confusion(0.7, dropout_base=0.2,
                                             mask_jitter_px=1)
        a = simulate_detections(frame, visible_scene, noise,
                                np.random.default_rng(99))
        b = simulate_detections(frame, visible_scene, noise,
                                np.random.default_rng(99))
        assert a.to_json() == b.to_json()

    def test_monte_carlo_flip_rate(self):
        # confusion rows: 0.8 stay, 0.2 to one fixed other class
        conf = np.zeros((6, 6))
        for i in range(6):
            conf[i, i] = 0.8
            conf[i, (i + 1) % 6] = 0.2
        noise = NoiseModel(confusion=tuple(map(tuple, conf)),
                           logit_noise_sigma=0.0, min_pixels=1)
        scene = SceneSpec(bounds=Box(0, -2, 0, 6, 2, 3), obstacles=(),
                          objects=(ObjectInstance(0, 2, Box(2, -1, 0, 3, 1, 2.5)),))
        depth = np.full((4, 4), 2.0)
        gt = np.zeros((4, 4), dtype=np.int32)
        frame = FrameObservation(pose=Pose(0, 0, 0), depth=depth, gt_instance=gt)
        rng = np.random.default_rng(42)
        flips = 0
        for _ in range(10_000):
            out = simulate_detections(frame, scene, noise, rng)
            assert len(out.detections) == 1
            if out.detections[0].class_id != 2:
                flips += 1
        assert abs(flips / 10_000 - 0.20) <= 0.01

    def test_jitter_changes_mask_but_not_partition_guarantee(self, cam, visible_scene):
        pose = Pose(x=0.5, y=0.0, yaw=0.0)
        frame = render_frame(visible_scene, pose, cam)
        noise = NoiseModel(mask_jitter_px=2)
        out = simulate_detections(frame, visible_scene, noise,
                                  np.random.default_rng(3))
        for det in out.detections:
            assert det.mask.any()
            assert det.bbox == mask_bbox(det.mask)


class FixedDraw:
    """Stands in for the rng: integers(low, high) always returns r."""

    def __init__(self, r):
        self.r = r

    def integers(self, low, high):
        assert low <= self.r < high
        return self.r


class TestJitterMask:
    @pytest.mark.parametrize("r", range(-3, 4))
    def test_matches_loop_oracle(self, r):
        rng = np.random.default_rng(r + 3)
        centre = np.zeros((9, 9), dtype=bool)
        centre[4, 4] = True
        masks = [rng.random((7, 9)) < 0.7,         # border pixels included
                 np.ones((5, 6), dtype=bool), centre,
                 np.ones((1, 1), dtype=bool), rng.random((1, 8)) < 0.6,
                 np.ones((8, 1), dtype=bool)]
        for mask in masks:
            got = _jitter_mask(mask, 3, FixedDraw(r))
            assert got.dtype == bool
            assert np.array_equal(got, cross_morphology(mask, r)), mask.shape


class TestSerialization:
    def test_detection_set_round_trip(self, cam, visible_scene):
        pose = Pose(x=0.5, y=0.0, yaw=0.0)
        frame = render_frame(visible_scene, pose, cam)
        out = simulate_detections(frame, visible_scene, NoiseModel.noiseless(),
                                  np.random.default_rng(0))
        back = DetectionSet.from_json(out.to_json(), (cam.height, cam.width))
        for a, b in zip(out.detections, back.detections, strict=True):
            assert (a.mask == b.mask).all()
            assert a.logits.tobytes() == b.logits.tobytes()
            assert (a.bbox, a.class_id, a.score) == (b.bbox, b.class_id, b.score)
