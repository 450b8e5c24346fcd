import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from voxlabel.consensus import SemanticVoxelMap, accumulate_frame, finalize_map
from voxlabel.detector import Detection, DetectionSet, NoiseModel
from voxlabel.evaluate import (average_precision, evaluate_pseudo_labels,
                               frame_gt_boxes, iou, match_gt,
                               raw_consistency_stats)
from voxlabel.explore import Trajectory, run_episode
from voxlabel.reproject import build_pseudo_dataset
from voxlabel.scene import (CameraIntrinsics, FrameObservation, Pose,
                            SceneParams, generate_scene)

from oracles import ap_brute_force, iou_ref


def boxes_strategy(n):
    coord = st.integers(0, 30)
    size = st.integers(0, 12)
    box = st.tuples(coord, coord, size, size).map(
        lambda t: (t[0], t[1], t[0] + t[2], t[1] + t[3]))
    return st.lists(box, min_size=n, max_size=n)


class TestIou:
    def test_identical(self):
        assert iou((0, 0, 9, 9), (0, 0, 9, 9)) == 1.0

    def test_disjoint(self):
        assert iou((0, 0, 4, 4), (10, 10, 14, 14)) == 0.0

    def test_one_seventh(self):
        # 2x2 boxes overlapping in a 1x1 corner: 1 / (4 + 4 - 1) = 1/7
        assert iou((0, 0, 1, 1), (1, 1, 2, 2)) == pytest.approx(1 / 7)

    def test_half_overlap(self):
        # 2x4 boxes sharing a 2x2 half: 4 / (8 + 8 - 4) = 1/3
        assert iou((0, 0, 3, 1), (2, 0, 5, 1)) == pytest.approx(1 / 3)

    def test_single_pixel_boxes(self):
        assert iou((5, 5, 5, 5), (5, 5, 5, 5)) == 1.0
        assert iou((5, 5, 5, 5), (5, 6, 5, 6)) == 0.0

    def test_invalid_box_raises(self):
        with pytest.raises(ValueError, match="invalid box"):
            iou((4, 0, 0, 4), (0, 0, 4, 4))

    @given(boxes_strategy(2))
    @settings(max_examples=100, deadline=None)
    def test_symmetric_bounded_matches_oracle(self, boxes):
        a, b = boxes
        v = iou(a, b)
        assert v == pytest.approx(iou(b, a))
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(iou_ref(a, b))


class TestAveragePrecision:
    def test_perfect_single(self):
        assert average_precision([(0, 0, 9, 9)], [0.9], [(0, 0, 9, 9)],
                                 [0], [0]) == 1.0

    def test_no_gt_returns_none(self):
        assert average_precision([(0, 0, 9, 9)], [0.9], [], [0], []) is None

    def test_no_predictions_zero(self):
        assert average_precision([], [], [(0, 0, 9, 9)], [], [0]) == 0.0

    def test_fp_before_tp(self):
        # high-scoring miss then a hit: precision at recall 1 is 1/2
        ap = average_precision([(50, 50, 59, 59), (0, 0, 9, 9)], [0.9, 0.8],
                               [(0, 0, 9, 9)], [0, 0], [0])
        assert ap == pytest.approx(0.5)

    def test_half_recall(self):
        # one of two gt boxes found with a perfect prediction
        ap = average_precision([(0, 0, 9, 9)], [0.9],
                               [(0, 0, 9, 9), (50, 50, 59, 59)], [0], [0, 0])
        assert ap == pytest.approx(0.5)

    def test_frames_keep_matches_apart(self):
        # same geometry, but prediction and gt live in different frames
        ap = average_precision([(0, 0, 9, 9)], [0.9], [(0, 0, 9, 9)],
                               pred_frames=[0], gt_frames=[1])
        assert ap == 0.0

    def test_duplicate_predictions_single_gt(self):
        # the second identical prediction is a FP and halves the tail precision
        ap = average_precision([(0, 0, 9, 9), (0, 0, 9, 9)], [0.9, 0.8],
                               [(0, 0, 9, 9)], [0, 0], [0])
        assert ap == pytest.approx(1.0)  # envelope keeps the early precision

    def test_fp_insertion_never_raises_ap(self):
        rng = np.random.default_rng(0)
        gt = [(0, 0, 9, 9), (20, 20, 29, 29)]
        preds = [(0, 0, 9, 9), (20, 20, 29, 29)]
        scores = [0.9, 0.8]
        base = average_precision(preds, scores, gt, [0, 0], [0, 0])
        for _ in range(20):
            x = int(rng.integers(40, 90))
            preds2 = preds + [(x, x, x + 5, x + 5)]
            scores2 = scores + [float(rng.random())]
            assert average_precision(preds2, scores2, gt, [0, 0, 0],
                                     [0, 0]) <= base + 1e-12

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            n_pred = int(rng.integers(0, 8))
            n_gt = int(rng.integers(1, 6))
            def rand_boxes(n):
                out = []
                for _ in range(n):
                    x0, y0 = rng.integers(0, 25, 2)
                    w, h = rng.integers(0, 12, 2)
                    out.append((int(x0), int(y0), int(x0 + w), int(y0 + h)))
                return out
            preds = rand_boxes(n_pred)
            gts = rand_boxes(n_gt)
            scores = rng.random(n_pred).round(2).tolist()
            pf = rng.integers(0, 3, n_pred).tolist()
            gf = rng.integers(0, 3, n_gt).tolist()
            got = average_precision(preds, scores, gts, pred_frames=pf,
                                    gt_frames=gf)
            want = ap_brute_force(preds, scores, gts, pred_frames=pf,
                                  gt_frames=gf)
            assert got == pytest.approx(want, abs=1e-12)


@pytest.fixture(scope="module")
def noiseless_run():
    cam = CameraIntrinsics.default()
    params = SceneParams(room_size_min=6.0, room_size_max=7.0, n_partitions=1)
    scene = generate_scene(params, seed=8)
    traj, _ = run_episode(scene, "frontier", NoiseModel.noiseless(), 100,
                          cam, seed=3)
    vmap = SemanticVoxelMap()
    for frame, dets in zip(traj.frames, traj.detections):
        accumulate_frame(vmap, frame, dets, cam)
    finalize_map(vmap)
    dataset = build_pseudo_dataset(traj, vmap, cam)
    return scene, traj, dataset, cam


class TestEvaluatePseudoLabels:
    def test_noiseless_high_map(self, noiseless_run):
        scene, traj, dataset, cam = noiseless_run
        report = evaluate_pseudo_labels(dataset, traj, scene, cam)
        # pinned from the first run: 0.855 (reprojection splatting keeps this
        # below a perfect 1.0 even without detector noise)
        assert report.map50 >= 0.80
        stats = raw_consistency_stats(traj)
        assert stats["instances_detected"] > 0
        assert stats["raw_disagreement_fraction"] == 0.0

    def test_raw_detections_also_evaluable(self, noiseless_run):
        scene, traj, _, cam = noiseless_run
        report = evaluate_pseudo_labels(traj.detections, traj, scene, cam)
        assert report.map50 == pytest.approx(1.0)

    def test_counts_consistent(self, noiseless_run):
        scene, traj, dataset, cam = noiseless_run
        report = evaluate_pseudo_labels(dataset, traj, scene, cam)
        n_pred = sum(v["pred"] for v in report.counts.values())
        assert n_pred == sum(len(labels) for labels in dataset.frames)

    def test_mismatch_raises(self, noiseless_run):
        scene, traj, dataset, cam = noiseless_run
        short = Trajectory(frames=traj.frames[:-1],
                           detections=traj.detections[:-1])
        with pytest.raises(ValueError, match="dataset/trajectory mismatch"):
            evaluate_pseudo_labels(dataset, short, scene, cam)

    def test_report_json(self, noiseless_run):
        scene, traj, dataset, cam = noiseless_run
        report = evaluate_pseudo_labels(dataset, traj, scene, cam)
        out = report.to_json()
        assert len(out["per_class_ap"]) == 6
        assert isinstance(out["map50"], float)

    def test_frame_gt_min_pixels(self, noiseless_run):
        scene, traj, _, _ = noiseless_run
        frame = traj.frames[0]
        loose = frame_gt_boxes(frame, scene, min_pixels=1)
        strict = frame_gt_boxes(frame, scene, min_pixels=10_000)
        assert len(strict) <= len(loose)
        assert strict == []


def frame_of(gt_row):
    """A one-row frame whose pixels carry the gt ids gt_row (-1: none)."""
    gt = np.array([gt_row], dtype=np.int32)
    return FrameObservation(pose=Pose(0, 0, 0), depth=np.ones(gt.shape),
                            gt_instance=gt)


@pytest.mark.parametrize("gt_row, mask_row, want", [
    ([4, 4, 2, -1], [1, 1, 1, 1], 4),     # majority of the object pixels
    ([5, 2, -1, -1], [1, 1, 1, 1], 2),    # tie: the lower id
    ([3, -1, 3, 1], [0, 1, 0, 0], None),  # no object pixel under the mask
    ([3, 1], [0, 0], None),               # empty mask
], ids=["majority", "tie", "background", "empty"])
def test_match_gt(gt_row, mask_row, want):
    assert match_gt(np.array([mask_row], dtype=bool), frame_of(gt_row)) == want


def detections_of(pairs):
    """DetectionSet of one-pixel detections, one per (class_id, gt_id): the
    i-th covers pixel i of frame_of([gt_id, ...])."""
    return DetectionSet([Detection(np.eye(1, len(pairs), i, dtype=bool),
                                   np.eye(6)[class_id])
                         for i, (class_id, _) in enumerate(pairs)])


@pytest.mark.parametrize("frames, want", [
    # gt 3 is called class 1, then class 2; gt 5 is class 0 both times
    ([[(1, 3), (0, 5)], [(2, 3), (0, 5)]], (2, 0.5)),
    ([[(1, 3)], [(1, 3)], []], (1, 0.0)),
    ([[], []], (0, 0.0)),
    # the class-2 detection covers no object pixel, so it is not counted
    ([[(1, 3), (2, -1)]], (1, 0.0)),
], ids=["split", "unanimous", "none", "background"])
def test_raw_consistency_stats(frames, want):
    traj = Trajectory(frames=[frame_of([gt_id for _, gt_id in pairs])
                              for pairs in frames],
                      detections=[detections_of(pairs) for pairs in frames])
    got = raw_consistency_stats(traj)
    assert (got["instances_detected"], got["raw_disagreement_fraction"]) == want
