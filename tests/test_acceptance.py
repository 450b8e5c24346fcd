"""Acceptance suite: one criterion per test, one printed PASS/FAIL line each.

The expensive shared fixture runs 10 frontier and 10 random episodes of the
moderate-noise reference scenario (500 steps each) once per session.
"""

import csv
import math
import time
from pathlib import Path

import numpy as np
import pytest

from voxlabel.consensus import (SemanticVoxelMap, accumulate_frame,
                                consistent_logits, extract_instances,
                                finalize_map, resolve_voxels)
from voxlabel.consensus import InstanceRecord
from voxlabel.detector import DetectionSet, NoiseModel, softmax
from voxlabel.evaluate import average_precision, evaluate_pseudo_labels
from voxlabel.explore import Trajectory, run_episode
from voxlabel.losses import (TrainConfig, distill_loss, head_loss,
                             triplet_loss)
from voxlabel.pipeline import RunConfig, run_grid, run_pipeline
from voxlabel.reproject import build_pseudo_dataset
from voxlabel.scene import (Box, CameraIntrinsics, ObjectInstance, Pose,
                            SceneParams, SceneSpec, generate_scene,
                            pixel_to_world, render_frame, world_to_pixel)
from voxlabel.serialize import derive_seed

from oracles import (ap_brute_force, finite_difference_grad,
                     flood_fill_components, mean_softmax, relative_error)

CAM = CameraIntrinsics.default()
REFERENCE_NOISE = NoiseModel.uniform_confusion(
    0.75, dropout_base=0.1, dropout_per_meter=0.05)
N_SEEDS = 10
STEPS = 500


def announce(capsys, criterion: int, ok: bool, detail: str):
    with capsys.disabled():
        print(f"\ncriterion {criterion:2d}: {'PASS' if ok else 'FAIL'} - {detail}")


def reference_run(policy: str, seed: int):
    scene = generate_scene(SceneParams(), derive_seed(seed, "scene"))
    traj, _ = run_episode(scene, policy, REFERENCE_NOISE, STEPS, CAM,
                          seed=derive_seed(seed, "episode"))
    vmap = SemanticVoxelMap()
    for frame, dets in zip(traj.frames, traj.detections):
        accumulate_frame(vmap, frame, dets, CAM)
    finalize_map(vmap)
    dataset = build_pseudo_dataset(traj, vmap, CAM)
    pseudo = evaluate_pseudo_labels(dataset, traj, scene, CAM)
    raw = evaluate_pseudo_labels(traj.detections, traj, scene, CAM)
    return {"dataset": dataset, "pseudo_map50": pseudo.map50,
            "raw_map50": raw.map50}


@pytest.fixture(scope="session")
def reference_runs():
    out = {"frontier": [], "random": []}
    t0 = time.process_time()
    for seed in range(N_SEEDS):
        out["frontier"].append(reference_run("frontier", seed))
    out["frontier_cpu_seconds"] = time.process_time() - t0
    for seed in range(N_SEEDS):
        out["random"].append(reference_run("random", seed))
    return out


class TestAcceptance:
    def test_criterion_01_consensus_improvement(self, reference_runs, capsys):
        runs = reference_runs["frontier"]
        improvements = [r["pseudo_map50"] - r["raw_map50"] for r in runs]
        wins = sum(1 for d in improvements if d > 0)
        mean_gain = float(np.mean(improvements))
        cpu = reference_runs["frontier_cpu_seconds"]
        ok = wins >= 8 and mean_gain >= 0.01 and cpu < 300.0
        announce(capsys, 1, ok,
                 f"pseudo beats raw in {wins}/{N_SEEDS} seeds, mean gain "
                 f"{mean_gain * 100:+.2f} mAP points, {cpu:.0f} CPU-s")
        assert wins >= 8
        assert mean_gain >= 0.01
        assert cpu < 300.0

    def test_criterion_02_policy_ordering(self, reference_runs, capsys):
        frontier = float(np.mean([r["pseudo_map50"]
                                  for r in reference_runs["frontier"]]))
        random_ = float(np.mean([r["pseudo_map50"]
                                 for r in reference_runs["random"]]))
        ok = frontier >= random_
        announce(capsys, 2, ok,
                 f"mean map50 frontier {frontier:.3f} vs random {random_:.3f} "
                 f"(soft criterion)")
        if not ok:
            analysis = Path(__file__).parent.parent / "docs" / \
                "policy_ordering_analysis.md"
            assert analysis.exists(), \
                "soft criterion failed and no written analysis found"

    def test_criterion_03_consistent_logits_oracle(self, capsys):
        rng = np.random.default_rng(100)
        worst = 0.0
        for _ in range(1000):
            n_obs = int(rng.integers(1, 12))
            logit_rows = rng.normal(0, 3, (n_obs, 6))
            vmap = SemanticVoxelMap()
            keys = [tuple(k) for k in rng.integers(0, 5, (n_obs, 3)).tolist()]
            for key, row in zip(keys, logit_rows):
                vmap.add_observation([key], row, 0.9)
            resolve_voxels(vmap)
            inst = InstanceRecord(uid=0, class_id=0,
                                  voxels=np.array(sorted(set(keys))))
            lam = consistent_logits(inst, vmap)
            worst = max(worst, float(np.max(np.abs(lam - mean_softmax(logit_rows)))))
        ok = worst <= 1e-12
        announce(capsys, 3, ok,
                 f"softmax-average oracle, 1000 instances, max abs err "
                 f"{worst:.2e}")
        assert ok

    def test_criterion_04_connected_components_oracle(self, capsys):
        rng = np.random.default_rng(200)
        for trial in range(100):
            vmap = SemanticVoxelMap()
            by_class = {}
            n_classes = int(rng.integers(1, 4))
            for class_id in range(n_classes):
                n = int(rng.integers(1, 10_000 // n_classes))
                keys = {tuple(k) for k in rng.integers(0, 16, (n, 3)).tolist()}
                keys = {(x + 100 * class_id, y, z) for x, y, z in keys}
                by_class[class_id] = keys
                vmap.add_observation(sorted(keys), np.eye(6)[class_id] * 5, 0.9)
            resolve_voxels(vmap)
            extract_instances(vmap, min_instance_voxels=1)
            got = {(i.class_id, frozenset(map(tuple, i.voxels.tolist())))
                   for i in vmap.instances.values()}
            want = set(flood_fill_components(by_class))
            assert got == want, f"trial {trial}"
        announce(capsys, 4, True,
                 "26-connected components equal flood-fill oracle on 100 sets")

    def test_criterion_05_gradient_fidelity(self, capsys):
        rng = np.random.default_rng(300)
        worst = 0.0
        for _ in range(100):
            f = rng.normal(0, 1, (int(rng.integers(4, 8)), int(rng.integers(2, 6))))
            uids = rng.integers(0, 3, f.shape[0])
            out = triplet_loss(f, uids)
            ref = finite_difference_grad(
                lambda x: triplet_loss(x, uids).value, f)
            worst = max(worst, relative_error(out.grads["features"], ref))
        for _ in range(100):
            logits = rng.normal(0, 2, (int(rng.integers(1, 6)), 6))
            t = np.stack([softmax(rng.normal(0, 1, 6))
                          for _ in range(logits.shape[0])])
            out = distill_loss(logits, t)
            ref = finite_difference_grad(
                lambda x: distill_loss(x, t).value, logits)
            worst = max(worst, relative_error(out.grads["logits"], ref))
        for trial in range(100):
            logits = rng.normal(0, 2, 6)

            def rand_box():
                x0, y0 = rng.uniform(0, 0.5, 2)
                return np.array([x0, y0, x0 + rng.uniform(0.05, 0.5),
                                 y0 + rng.uniform(0.05, 0.5)])
            pbox, tbox = rand_box(), rand_box()
            tc = int(rng.integers(0, 6))
            kw = {}
            if trial % 2:
                kw = {"pred_mask_logits": rng.normal(0, 2, (3, 4)),
                      "target_mask": (rng.random((3, 4)) < 0.5).astype(float)}
            out = head_loss(logits, pbox, tc, tbox, **kw)
            ref = finite_difference_grad(
                lambda x: head_loss(x, pbox, tc, tbox, **kw).value, logits)
            worst = max(worst, relative_error(out.grads["logits"], ref))
            ref_b = finite_difference_grad(
                lambda x: head_loss(logits, x, tc, tbox, **kw).value, pbox)
            worst = max(worst, relative_error(out.grads["box"], ref_b))
        ok = worst < 1e-5
        announce(capsys, 5, ok,
                 f"finite-difference checks, worst relative error {worst:.2e}")
        assert ok

    def test_criterion_06_geometry_round_trip(self, capsys):
        rng = np.random.default_rng(400)
        worst_px, worst_m = 0.0, 0.0
        n_per_yaw = 1000 // 16 + 1
        for yaw in np.linspace(-math.pi, math.pi, 16, endpoint=False):
            pose = Pose(x=float(rng.uniform(-3, 3)), y=float(rng.uniform(-3, 3)),
                        yaw=float(yaw))
            u = rng.uniform(0, CAM.width, n_per_yaw)
            v = rng.uniform(0, CAM.height, n_per_yaw)
            d = rng.uniform(0.05, 9.5, n_per_yaw)
            pts = pixel_to_world(u, v, d, CAM, pose)
            u2, v2, d2 = world_to_pixel(pts, CAM, pose)
            worst_px = max(worst_px, float(np.max(np.hypot(u2 - u, v2 - v))))
            worst_m = max(worst_m, float(np.max(np.abs(d2 - d))))
        ok = worst_px < 0.5 and worst_m < 1e-9
        announce(capsys, 6, ok,
                 f"pixel<->world round trip, worst {worst_px:.2e} px / "
                 f"{worst_m:.2e} m over 16 yaws x {n_per_yaw} points")
        assert ok

    def test_criterion_07_ap_oracle(self, capsys):
        rng = np.random.default_rng(500)
        worst = 0.0
        for _ in range(200):
            n_pred = int(rng.integers(0, 21))
            n_gt = int(rng.integers(1, 21))

            def rand_boxes(n):
                out = []
                for _ in range(n):
                    x0, y0 = rng.integers(0, 30, 2)
                    w, h = rng.integers(0, 10, 2)
                    out.append((int(x0), int(y0), int(x0 + w), int(y0 + h)))
                return out
            preds, gts = rand_boxes(n_pred), rand_boxes(n_gt)
            scores = rng.random(n_pred).round(2).tolist()
            pf = rng.integers(0, 4, n_pred).tolist()
            gf = rng.integers(0, 4, n_gt).tolist()
            got = average_precision(preds, scores, gts,
                                    pred_frames=pf, gt_frames=gf)
            want = ap_brute_force(preds, scores, gts,
                                  pred_frames=pf, gt_frames=gf)
            worst = max(worst, abs(got - want))
        ok = worst <= 1e-12
        announce(capsys, 7, ok,
                 f"AP equals brute-force enumeration on 200 cases, max abs "
                 f"err {worst:.2e}")
        assert ok

    def test_criterion_08_consistency_invariant(self, reference_runs, capsys):
        violations = 0
        n_instances = 0
        for run in reference_runs["frontier"] + reference_runs["random"]:
            seen = {}
            for _, lab in run["dataset"].all_labels():
                key = (lab.class_id, tuple(np.round(lab.lambda_bar, 15)))
                if lab.uid in seen:
                    if seen[lab.uid] != key:
                        violations += 1
                else:
                    seen[lab.uid] = key
                    n_instances += 1
        ok = violations == 0 and n_instances > 0
        announce(capsys, 8, ok,
                 f"{n_instances} instance ids across 20 runs, "
                 f"{violations} (class, lambda-bar) violations")
        assert ok

    def test_criterion_09_recall_recovery(self, capsys):
        bounds = Box(0, -4, 0, 10, 4, 3)
        scene = SceneSpec(bounds=bounds,
                          obstacles=(Box(9.8, -4, 0, 10, 4, 3),),
                          objects=(ObjectInstance(0, 2,
                                                  Box(3.0, -1.0, 0.0,
                                                      4.2, 1.0, 2.0)),))
        poses = [Pose(0.5, 0.0, 0.0),
                 Pose(0.5, 0.4, -0.1)]
        frames = [render_frame(scene, p, CAM) for p in poses]
        from voxlabel.detector import simulate_detections
        det0 = simulate_detections(frames[0], scene, NoiseModel.noiseless(),
                                   np.random.default_rng(0))
        det1 = DetectionSet([])                 # forced frame-2 dropout
        traj = Trajectory(frames=frames, detections=[det0, det1])
        vmap = SemanticVoxelMap()
        for frame, dets in zip(traj.frames, traj.detections):
            accumulate_frame(vmap, frame, dets, CAM)
        finalize_map(vmap)
        dataset = build_pseudo_dataset(traj, vmap, CAM)
        ok = (len(det0.detections) == 1 and len(dataset.frames[1]) == 1
              and dataset.frames[1][0].class_id == 2)
        announce(capsys, 9, ok,
                 "pseudo-label present in the dropout frame of the "
                 "two-frame scenario")
        assert ok

    def test_criterion_10_ablation_harness(self, tmp_path, capsys):
        base = RunConfig(
            scene_params=SceneParams(room_size_min=6.0, room_size_max=7.0,
                                     n_partitions=1),
            steps=80,
            noise=REFERENCE_NOISE,
            min_instance_voxels=20,
            train=True,
            train_config=TrainConfig(feature_dim=64, lr=1e-3, epochs=8,
                                     label_flip_prob=0.4, feature_noise=0.6))
        alphas = [0.0, 0.1, 0.7, 1.0]
        seeds = [0, 1, 2]
        agg = run_grid(base, ["random", "frontier"], alphas, seeds, tmp_path)
        with open(agg) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 8

        import json
        wins = 0
        for seed in seeds:
            accs = {}
            for alpha in (0.0, 0.7):
                path = tmp_path / f"frontier_alpha{alpha}_seed{seed}" / \
                    "train_report.json"
                accs[alpha] = json.load(open(path))["final_accuracy"]
            if accs[0.7] >= accs[0.0]:
                wins += 1
        ok_soft = wins >= 2
        announce(capsys, 10, ok_soft,
                 f"grid emitted 8 aggregate rows; alpha 0.7 >= alpha 0 "
                 f"held-out accuracy in {wins}/3 seeds (soft criterion)")
        if not ok_soft:
            analysis = Path(__file__).parent.parent / "docs" / \
                "alpha_ordering_analysis.md"
            assert analysis.exists(), \
                "soft criterion failed and no written analysis found"

    def test_criterion_11_determinism(self, tmp_path, capsys):
        config = RunConfig(
            scene_params=SceneParams(room_size_min=6.0, room_size_max=7.0,
                                     n_partitions=1),
            steps=40, noise=REFERENCE_NOISE, min_instance_voxels=20,
            train=True, train_config=TrainConfig(feature_dim=32, epochs=2))
        m1 = run_pipeline(config, tmp_path / "a")
        m2 = run_pipeline(config, tmp_path / "b")
        ok = m1 == m2 and m1["status"] == "ok"
        announce(capsys, 11, ok,
                 "two executions produced byte-identical MANIFEST hashes")
        assert ok
