import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from voxlabel.detector import softmax
from voxlabel.losses import (TrainConfig, distill_loss, head_loss,
                             toy_finetune, triplet_loss)
from voxlabel.reproject import PseudoDataset, PseudoLabel

from oracles import batch_all_triplet, finite_difference_grad, relative_error


class TestTripletLoss:
    def test_hand_example(self):
        # d(a,p)=0.5, d(a,n)=0.4: the one active triplet gives 0.5-0.4+0.3=0.4
        f = np.array([[0.0], [0.5], [-0.4]])
        out = triplet_loss(f, [0, 0, 1], margin=0.3)
        assert abs(out.value - 0.4) < 1e-12

    def test_identical_features_value_is_margin(self):
        f = np.zeros((3, 4))
        out = triplet_loss(f, [0, 0, 1], margin=0.3)
        assert abs(out.value - 0.3) < 1e-12
        # zero-distance subgradient: all-zero gradient
        assert np.allclose(out.grads["features"], 0.0)

    def test_no_valid_triplet(self):
        f = np.random.default_rng(0).normal(size=(3, 4))
        assert triplet_loss(f, [0, 1, 2]).value == 0.0
        assert triplet_loss(f, [0, 0, 0]).value == 0.0
        assert triplet_loss(f[:1], [0]).value == 0.0

    def test_well_separated_clusters_zero(self):
        rng = np.random.default_rng(1)
        a = rng.normal(0, 0.01, (3, 8))
        b = rng.normal(100, 0.01, (3, 8)) + 200
        f = np.vstack([a, b])
        out = triplet_loss(f, [0, 0, 0, 1, 1, 1], margin=0.3)
        assert out.value == 0.0
        assert np.allclose(out.grads["features"], 0.0)

    def test_memory_is_not_cubic(self):
        # a (k, k, d) difference tensor alone would be 23 MB
        rng = np.random.default_rng(2)
        uids = np.repeat(np.arange(10), 30)
        f = uids[:, None] * 10.0 + rng.normal(0, 0.01, (300, 32))
        tracemalloc.start()
        try:
            out = triplet_loss(f, uids, margin=0.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.value == 0.0
        assert peak < 8e6

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        f = rng.normal(0, 1.0, (6, 5))
        uids = np.array([0, 0, 1, 1, 2, 2])
        out = triplet_loss(f, uids, margin=0.3)
        ref = finite_difference_grad(
            lambda x: triplet_loss(x, uids, margin=0.3).value, f)
        assert relative_error(out.grads["features"], ref) < 1e-5

    def test_orthogonal_invariance(self):
        rng = np.random.default_rng(3)
        f = rng.normal(size=(6, 5))
        uids = [0, 0, 1, 1, 2, 2]
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)))
        a = triplet_loss(f, uids).value
        b = triplet_loss(f @ q, uids).value
        assert abs(a - b) < 1e-10

    def test_matches_batch_all_oracle_bit_for_bit(self):
        rng = np.random.default_rng(23)
        for trial in range(2100):
            k = int(rng.integers(0, 20))
            f = rng.normal(0, 1.0, (k, int(rng.integers(1, 6))))
            if k > 1:   # duplicated rows give zero distances
                f[rng.integers(0, k, k // 3)] = f[int(rng.integers(0, k))]
            uids = rng.integers(0, int(rng.integers(1, 6)), k)
            margin = (0.0, 0.3, 2.0)[trial % 3]
            out = triplet_loss(f, uids, margin=margin)
            value, grad = batch_all_triplet(f, uids, margin=margin)
            assert out.value == value, f"trial {trial}"
            assert out.grads["features"].tobytes() == grad.tobytes(), \
                f"trial {trial}"

    def test_matches_oracle_across_pair_blocks(self):
        # live (anchor, positive) pairs are expanded 2**16 // k at a time;
        # the larger batches here need several such blocks
        rng = np.random.default_rng(29)
        blocks = []
        for k, n_uids, margin in ((40, 2, 0.3), (64, 3, 0.0), (70, 2, 2.0),
                                  (90, 3, 0.3)):
            f = rng.normal(0, 1.0, (k, 3))
            f[rng.integers(0, k, k // 5)] = f[int(rng.integers(0, k))]
            uids = rng.integers(0, n_uids, k)
            out = triplet_loss(f, uids, margin=margin)
            value, grad = batch_all_triplet(f, uids, margin=margin)
            assert out.value == value, k
            assert out.grads["features"].tobytes() == grad.tobytes(), k
            dist = np.linalg.norm(f[:, None] - f[None], axis=-1)
            same = uids[:, None] == uids[None]
            nearest = np.where(same, np.inf, dist).min(axis=1)
            live = (dist - nearest[:, None] + margin > 0) & same & ~np.eye(k, dtype=bool)
            blocks.append(-(-int(live.sum()) // (2**16 // k)))
        assert max(blocks) >= 3, blocks

    def test_zero_term_at_nearest_negative_is_inactive(self):
        # a=0, p=-0.5, n=1: 0.5 - 1.0 + 0.5 is exactly 0, so nothing is active
        f = np.array([[0.0], [-0.5], [1.0]])
        out = triplet_loss(f, [0, 0, 1], margin=0.5)
        assert out.value == 0.0
        assert not out.grads["features"].any()
        # a margin one step larger makes exactly that triplet active
        out = triplet_loss(f, [0, 0, 1], margin=np.nextafter(0.5, 1.0))
        assert out.value > 0.0
        assert out.grads["features"].any()

    def test_large_batch_without_live_pair(self):
        rng = np.random.default_rng(31)
        uids = np.repeat(np.arange(8), 40)
        f = uids[:, None] * 5.0 + rng.normal(0, 0.01, (320, 16))
        out = triplet_loss(f, uids, margin=0.3)
        assert out.value == 0.0
        assert out.grads["features"].shape == f.shape
        assert not out.grads["features"].any()


class TestDistillLoss:
    def test_uniform_logits_onehot_target(self):
        # two classes, logits (0, 0), target (1, 0): loss = ln 2
        out = distill_loss(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        assert abs(out.value - math.log(2)) < 1e-12

    def test_matching_distribution_entropy(self):
        # when softmax(logits) == target the loss equals the target entropy
        t = np.array([[0.5, 0.25, 0.25]])
        logits = np.log(t)
        out = distill_loss(logits, t)
        entropy = -np.sum(t * np.log(t))
        assert abs(out.value - entropy) < 1e-12

    def test_gibbs_inequality(self):
        # cross-entropy is minimized when the prediction equals the target
        rng = np.random.default_rng(5)
        for _ in range(20):
            t = softmax(rng.normal(0, 2, 6))
            best = distill_loss(np.log(t)[None], t[None]).value
            other = distill_loss(rng.normal(0, 2, (1, 6)), t[None]).value
            assert best <= other + 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        logits = rng.normal(0, 2, (4, 6))
        t = np.stack([softmax(rng.normal(0, 1, 6)) for _ in range(4)])
        out = distill_loss(logits, t)
        ref = finite_difference_grad(lambda x: distill_loss(x, t).value, logits)
        assert relative_error(out.grads["logits"], ref) < 1e-5

    def test_analytic_gradient_form(self):
        logits = np.array([[1.0, -2.0, 0.5, 0.0, 0.0, 0.0]])
        t = np.full((1, 6), 1 / 6)
        out = distill_loss(logits, t)
        assert np.allclose(out.grads["logits"], softmax(logits) - t)

    def test_invalid_target_rejected(self):
        with pytest.raises(ValueError, match="invalid soft target"):
            distill_loss(np.zeros((1, 3)), np.array([[0.5, 0.2, 0.2]]))
        with pytest.raises(ValueError, match="invalid soft target"):
            distill_loss(np.zeros((1, 3)), np.array([[1.2, -0.1, -0.1]]))


class TestHeadLoss:
    def test_box_term_hand_example(self):
        # every coordinate off by 0.5: 4 * (0.5 * 0.25) = 0.5; logits zero:
        # CE = ln 6
        pred_box = np.array([0.5, 0.5, 1.0, 1.0])
        tgt_box = np.array([0.0, 0.0, 0.5, 0.5])
        out = head_loss(np.zeros(6), pred_box, 0, tgt_box)
        assert abs(out.value - (math.log(6) + 0.5)) < 1e-12

    def test_perfect_prediction_near_zero(self):
        logits = np.zeros(6)
        logits[3] = 50.0
        box = np.array([0.1, 0.2, 0.3, 0.4])
        out = head_loss(logits, box, 3, box)
        assert out.value < 1e-12

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        single = (rng.normal(0, 1, 6), np.array([0.1, 0.1, 0.62, 0.58]), 2,
                  np.array([0.2, 0.05, 0.5, 0.7]))
        # a batch, with one predicted box out of order as a regressor emits
        pbox = rng.uniform(0, 1, (5, 4))
        pbox[0] = [0.6, 0.5, 0.2, 0.1]
        tbox = np.sort(rng.uniform(0, 1, (5, 2, 2)), axis=1).reshape(5, 4)
        batch = (rng.normal(0, 1, (5, 6)), pbox, rng.integers(0, 6, 5), tbox)
        for logits, pbox, tc, tbox in (single, batch):
            out = head_loss(logits, pbox, tc, tbox)
            ref_l = finite_difference_grad(
                lambda x: head_loss(x, pbox, tc, tbox).value, logits)
            assert relative_error(out.grads["logits"], ref_l) < 1e-5
            ref_b = finite_difference_grad(
                lambda x: head_loss(logits, x, tc, tbox).value, pbox)
            assert relative_error(out.grads["box"], ref_b) < 1e-5

    def test_batch_is_mean_of_examples(self):
        rng = np.random.default_rng(19)
        logits = rng.normal(0, 2, (7, 6))
        pbox = rng.uniform(0, 1, (7, 4))
        tbox = np.sort(rng.uniform(0, 1, (7, 2, 2)), axis=1).reshape(7, 4)
        tc = rng.integers(0, 6, 7)
        out = head_loss(logits, pbox, tc, tbox)
        singles = [head_loss(logits[i], pbox[i], int(tc[i]), tbox[i])
                   for i in range(7)]
        assert out.value == pytest.approx(np.mean([s.value for s in singles]),
                                          abs=1e-12)
        for key in ("logits", "box"):
            assert np.allclose(out.grads[key] * 7,
                               [s.grads[key] for s in singles], atol=1e-12)

    def test_mask_term_gradient(self):
        rng = np.random.default_rng(17)
        logits = rng.normal(0, 1, 6)
        box = np.array([0.1, 0.1, 0.5, 0.5])
        m = rng.normal(0, 2, (4, 5))
        t = (rng.random((4, 5)) < 0.5).astype(float)
        out = head_loss(logits, box, 1, box, pred_mask_logits=m, target_mask=t)
        ref = finite_difference_grad(
            lambda x: head_loss(logits, box, 1, box, pred_mask_logits=x,
                                target_mask=t).value, m)
        assert relative_error(out.grads["mask_logits"], ref) < 1e-5

    def test_invalid_inputs(self):
        box = np.array([0.1, 0.1, 0.5, 0.5])
        inverted = np.array([0.5, 0.1, 0.1, 0.5])
        with pytest.raises(ValueError, match="invalid box"):
            head_loss(np.zeros(6), box, 0, inverted)
        # a predicted box is regressor output and is not validated
        assert head_loss(np.zeros(6), inverted, 0, box).value > 0
        with pytest.raises(ValueError, match="invalid target class"):
            head_loss(np.zeros(6), box, 6, box)


def synthetic_dataset(cam, n_frames=12, seed=0):
    """Small pseudo dataset: 3 instances of 3 classes seen in most frames."""
    rng = np.random.default_rng(seed)
    lam = {0: np.array([0.7, 0.06, 0.06, 0.06, 0.06, 0.06]),
           1: np.array([0.05, 0.05, 0.75, 0.05, 0.05, 0.05]),
           2: np.array([0.04, 0.04, 0.04, 0.04, 0.8, 0.04])}
    cls = {0: 0, 1: 2, 2: 4}
    frames = []
    for _ in range(n_frames):
        labels = []
        for uid in range(3):
            if rng.random() < 0.2:
                continue
            u0 = int(rng.integers(0, cam.width - 10))
            v0 = int(rng.integers(0, cam.height - 10))
            mask = np.zeros((cam.height, cam.width), dtype=bool)
            mask[v0:v0 + 8, u0:u0 + 8] = True
            labels.append(PseudoLabel(uid=uid, class_id=cls[uid],
                                      lambda_bar=lam[uid], mask=mask,
                                      bbox=(u0, v0, u0 + 7, v0 + 7)))
        frames.append(labels)
    return PseudoDataset(frames=frames)


class TestDetectionLoss:
    """The batch loss toy_finetune trains and reports: alpha * distill + head."""

    def test_unit_example(self, cam):
        report = toy_finetune(synthetic_dataset(cam),
                              cam, TrainConfig(feature_dim=32, epochs=2,
                                               alpha=0.7))
        for entry in report["per_epoch"]:
            assert set(entry) == {"epoch", "loss_total", "loss_distill",
                                  "loss_head"}
        first = report["per_epoch"][0]
        assert first["loss_total"] == (0.7 * first["loss_distill"]
                                       + first["loss_head"])

    def test_alpha_zero_drops_distill(self, cam):
        ds = synthetic_dataset(cam)
        # same features and hard labels, different soft targets
        flat = PseudoDataset(frames=[
            [PseudoLabel(uid=lab.uid, class_id=lab.class_id,
                         lambda_bar=np.full(6, 1.0 / 6), mask=lab.mask,
                         bbox=lab.bbox) for lab in labels]
            for labels in ds.frames])
        cfg = TrainConfig(feature_dim=32, epochs=3, alpha=0.0)
        a, b = toy_finetune(ds, cam, cfg), toy_finetune(flat, cam, cfg)
        for ea, eb in zip(a["per_epoch"], b["per_epoch"]):
            assert ea["loss_total"] == ea["loss_head"]
            # the distillation gradient is dropped: training ignores the targets
            assert ea["loss_head"] == eb["loss_head"]
        assert a["per_epoch"][0]["loss_distill"] != b["per_epoch"][0]["loss_distill"]
        assert a["final_accuracy"] == b["final_accuracy"]

    def test_linear_in_alpha(self, cam):
        ds = synthetic_dataset(cam)
        firsts = [toy_finetune(ds, cam, TrainConfig(feature_dim=32, epochs=0,
                                                    alpha=alpha))["per_epoch"][0]
                  for alpha in (0.0, 0.3, 0.6)]
        # the untrained head scores the same batch at every alpha
        assert len({(f["loss_distill"], f["loss_head"]) for f in firsts}) == 1
        base, a1, a2 = (f["loss_total"] for f in firsts)
        assert abs((a1 - base) * 2 - (a2 - base)) < 1e-12

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError, match="alpha"):
            TrainConfig(alpha=-0.1)


class TestToyFinetune:
    def test_zero_epochs_reports_initial_loss_only(self, cam):
        ds = synthetic_dataset(cam)
        report = toy_finetune(ds, cam, TrainConfig(epochs=0, feature_dim=32))
        assert len(report["per_epoch"]) == 1
        assert report["per_epoch"][0]["epoch"] == 0

    def test_loss_descends(self, cam):
        ds = synthetic_dataset(cam)
        report = toy_finetune(ds, cam, TrainConfig(feature_dim=64, lr=1e-3,
                                                   epochs=10))
        first = report["per_epoch"][0]["loss_total"]
        last = report["per_epoch"][-1]["loss_total"]
        assert last < first

    def test_deterministic(self, cam):
        ds = synthetic_dataset(cam)
        cfg = TrainConfig(feature_dim=64, epochs=3)
        a = toy_finetune(ds, cam, cfg)
        b = toy_finetune(ds, cam, cfg)
        assert a == b

    def test_golden_accuracy(self, cam):
        ds = synthetic_dataset(cam, n_frames=20, seed=1)
        cfg = TrainConfig(feature_dim=64, lr=1e-3, epochs=10, seed=3)
        report = toy_finetune(ds, cam, cfg)
        # pinned from the first run of this configuration
        assert report["final_accuracy"] == pytest.approx(1.0)

    def test_empty_dataset_rejected(self, cam):
        with pytest.raises(ValueError):
            toy_finetune(PseudoDataset(frames=[[]]), cam, TrainConfig())

    def test_one_label_reports_no_accuracy(self, cam):
        # one example leaves no hold-out, so there is no accuracy to report
        lab = synthetic_dataset(cam).frames[0][0]
        report = toy_finetune(PseudoDataset(frames=[[lab]]), cam,
                              TrainConfig(feature_dim=32, epochs=2))
        assert (report["n_train"], report["n_holdout"]) == (1, 0)
        assert report["final_accuracy"] is None

    @pytest.mark.parametrize("change, message", [
        ({"lambda_bar": np.full(6, 0.5)}, "invalid soft target"),
        ({"bbox": (9, 0, 3, 7)}, "invalid box"),
        ({"class_id": -1}, "invalid target class"),
    ])
    def test_bad_label_rejected_wherever_it_lands(self, cam, change, message):
        # inputs are checked once over every example, hold-out included
        ds = synthetic_dataset(cam)
        for i in range(len(ds.frames[0])):
            frames = [list(labels) for labels in ds.frames]
            frames[0][i] = replace(frames[0][i], **change)
            with pytest.raises(ValueError, match=message):
                toy_finetune(PseudoDataset(frames=frames), cam,
                             TrainConfig(feature_dim=32, epochs=1))

    def test_diverging_run_raises(self, cam):
        # every batch still checks its logits; products overflow on the way,
        # as in any diverging run
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="invalid logits"):
            toy_finetune(synthetic_dataset(cam), cam,
                         TrainConfig(feature_dim=32, epochs=3, lr=1e150))

    @pytest.mark.parametrize("change", [{"epochs": 5}, {"feature_dim": 48},
                                        {"alpha": 0.2}])
    def test_shared_problem_matches_standalone(self, cam, change):
        ds = synthetic_dataset(cam)
        cfg = TrainConfig(feature_dim=32, epochs=3, label_flip_prob=0.3)
        shared = {}
        toy_finetune(ds, cam, cfg, shared)
        other = replace(cfg, **change)
        assert repr(toy_finetune(ds, cam, other, shared)) \
            == repr(toy_finetune(ds, cam, other))

    def test_shared_problem_is_not_written(self, cam):
        ds = synthetic_dataset(cam)
        cfg = TrainConfig(feature_dim=32, epochs=3, lr=1e-2)
        shared = {}
        first = toy_finetune(ds, cam, cfg, shared)
        assert repr(toy_finetune(ds, cam, cfg, shared)) == repr(first)

    def test_config_round_trip(self):
        cfg = TrainConfig(lr=5e-4, alpha=0.3, label_flip_prob=0.25)
        assert TrainConfig.from_json(cfg.to_json()) == cfg
        for value in (cfg, TrainConfig()):
            back = TrainConfig.from_json(json.loads(json.dumps(value.to_json())))
            assert back == value
            assert back.to_json() == value.to_json()
