import csv
import json
import math
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

import voxlabel
from voxlabel import losses, pipeline
from voxlabel.detector import NoiseModel
from voxlabel.evaluate import evaluate_pseudo_labels, raw_consistency_stats
from voxlabel.losses import TrainConfig
from voxlabel.pipeline import (RunConfig, StageError, build_labels,
                               config_hash, load_run, run_grid, run_pipeline)
from voxlabel.reproject import build_pseudo_dataset, dataset_to_coco
from voxlabel.scene import Box, SceneParams, SceneSpec
from voxlabel.serialize import canonical_dumps, sha256_file


def small_config(**kw):
    defaults = dict(
        scene_params=SceneParams(room_size_min=6.0, room_size_max=7.0,
                                 n_partitions=1),
        steps=40,
        noise=NoiseModel.uniform_confusion(0.85, dropout_base=0.05),
        train_config=TrainConfig(feature_dim=32, epochs=2),
    )
    defaults.update(kw)
    return RunConfig(**defaults)


EXPECTED_FILES = ["config.json", "scene.json", "trajectory.jsonl",
                  "pseudo_dataset.json", "eval.json", "MANIFEST.json"]


# not JSON, an object without "files", not an object
MALFORMED_MANIFESTS = ["{", '{"status": "ok"}', "[]"]


class TestRunPipeline:
    def test_single_step_writes_all_artifacts(self, tmp_path):
        config = small_config(steps=1)
        manifest = run_pipeline(config, tmp_path)
        assert manifest["status"] == "ok"
        for name in EXPECTED_FILES:
            assert (tmp_path / name).exists(), name
        assert set(manifest["files"]) == set(EXPECTED_FILES) - {"MANIFEST.json"}

    def test_manifest_hashes_match_files(self, tmp_path):
        manifest = run_pipeline(small_config(steps=5), tmp_path)
        for name, digest in manifest["files"].items():
            assert sha256_file(tmp_path / name) == digest

    def test_byte_identical_reruns(self, tmp_path):
        config = small_config(steps=25, train=True)
        m1 = run_pipeline(config, tmp_path / "a")
        m2 = run_pipeline(config, tmp_path / "b")
        assert m1 == m2
        for name in m1["files"]:
            assert (tmp_path / "a" / name).read_bytes() \
                == (tmp_path / "b" / name).read_bytes(), name

    def test_seed_changes_output(self, tmp_path):
        m1 = run_pipeline(small_config(steps=5, seed=0), tmp_path / "a")
        m2 = run_pipeline(small_config(steps=5, seed=1), tmp_path / "b")
        assert m1["files"]["trajectory.jsonl"] != m2["files"]["trajectory.jsonl"]

    def test_train_flag_adds_report(self, tmp_path):
        run_pipeline(small_config(steps=25, train=True), tmp_path)
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["alpha"] == 0.7
        assert len(report["per_epoch"]) == 3      # epoch 0 + 2 epochs
        assert 0.0 <= report["final_accuracy"] <= 1.0

    def test_train_report_bytes_pinned(self, tmp_path):
        # sha256 of train_report.json: pins the training rng stream (features,
        # split, initial weights, epoch permutations) and the per-epoch
        # loss_total, loss_distill and loss_head
        config = RunConfig(steps=60, seed=0, train=True,
                           train_config=TrainConfig(feature_dim=64,
                                                    feature_noise=1.0, epochs=3))
        run_pipeline(config, tmp_path)
        assert sha256_file(tmp_path / "train_report.json") == (
            "865d2ccb30f76db8580402afcc4928598efefae20bf98ccffef80ffbb760b3ee")

    def test_train_report_bytes_pinned_with_flips(self, tmp_path):
        # the label-flip draws, alpha 0 and, with 43 training examples in
        # batches of 7, a last batch of one example in every epoch
        config = RunConfig(steps=60, seed=0, train=True, alpha=0.0,
                           train_config=TrainConfig(
                               feature_dim=64, feature_noise=1.0, epochs=3,
                               label_flip_prob=0.4, batch_size=7))
        run_pipeline(config, tmp_path)
        report = json.loads((tmp_path / "train_report.json").read_text())
        assert report["n_train"] == 43
        assert sha256_file(tmp_path / "train_report.json") == (
            "5e7c03f093a5633bf1b0af0a2785beed1665b810bf4355f1f92df914fb0b371c")

    def test_eval_bytes_pinned(self, tmp_path):
        # sha256 of eval.json at reference noise: pins both AP evaluations
        # and the raw class disagreement of detections attributed by overlap
        config = RunConfig(steps=60, seed=0, noise=NoiseModel.uniform_confusion(
            0.75, dropout_base=0.1, dropout_per_meter=0.05))
        run_pipeline(config, tmp_path)
        report = json.loads((tmp_path / "eval.json").read_text())
        assert report["raw_consistency"]["raw_disagreement_fraction"] > 0
        assert sha256_file(tmp_path / "eval.json") == (
            "badfa14bff3d6e4ae53fde63ee6aefe4d923b79e5767c41acab8a02e088e57fb")

    def test_stage_error_marks_manifest(self, tmp_path):
        config = small_config(scene_file=str(tmp_path / "missing.json"))
        with pytest.raises(StageError) as err:
            run_pipeline(config, tmp_path)
        assert err.value.stage == "scene"
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["status"] == "failed at scene"

    def test_scene_file_round_trip(self, tmp_path):
        run_pipeline(small_config(steps=1), tmp_path / "a")
        config = small_config(steps=1,
                              scene_file=str(tmp_path / "a" / "scene.json"))
        run_pipeline(config, tmp_path / "b")
        assert (tmp_path / "a" / "scene.json").read_text() \
            == (tmp_path / "b" / "scene.json").read_text()


    def test_interrupted_rerun_leaves_running_manifest(self, tmp_path,
                                                       monkeypatch):
        run_pipeline(small_config(steps=5), tmp_path)

        def interrupt(trajectory, config):
            raise KeyboardInterrupt

        monkeypatch.setattr(pipeline, "build_labels", interrupt)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(small_config(steps=5, seed=1), tmp_path)
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["status"] == "running"
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPECTED_FILES)

    def test_rerun_removes_files_it_does_not_write(self, tmp_path):
        run_pipeline(small_config(steps=5, train=True), tmp_path)
        assert (tmp_path / "train_report.json").exists()
        result = pipeline._run_cell(small_config(steps=5, seed=1), tmp_path)
        assert result["status"] == "ok" and result["accuracy"] is None
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPECTED_FILES)

    def test_interrupted_train_rerun_leaves_no_train_report(self, tmp_path,
                                                             monkeypatch):
        run_pipeline(small_config(steps=5, train=True), tmp_path)

        def interrupt(trajectory, config):
            raise KeyboardInterrupt

        with monkeypatch.context() as m:
            m.setattr(pipeline, "build_labels", interrupt)
            with pytest.raises(KeyboardInterrupt):
                run_pipeline(small_config(steps=5, seed=1, train=True), tmp_path)
        run_pipeline(small_config(steps=5, seed=2), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(EXPECTED_FILES)

    def test_stale_removal_stays_inside_the_run_directory(self, tmp_path):
        run = tmp_path / "run"
        (run / "sub").mkdir(parents=True)
        for path in (tmp_path / "outside.txt", run / "sub" / "inner.txt",
                     run / "stale.txt"):
            path.write_text("x")
        listed = ["../outside.txt", "sub/inner.txt", str(tmp_path / "outside.txt"),
                  "..", "", "stale.txt"]
        (run / "MANIFEST.json").write_text(json.dumps(
            {"status": "ok", "files": dict.fromkeys(listed, "0")}))
        run_pipeline(small_config(steps=1), run)
        assert (tmp_path / "outside.txt").exists()
        assert (run / "sub" / "inner.txt").exists()
        assert not (run / "stale.txt").exists()


    @pytest.mark.parametrize("text", MALFORMED_MANIFESTS)
    def test_malformed_manifest_stops_a_rerun(self, tmp_path, text):
        (tmp_path / "MANIFEST.json").write_text(text)
        (tmp_path / "train_report.json").write_text("x")
        with pytest.raises(ValueError, match="MANIFEST.json"):
            run_pipeline(small_config(steps=1), tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == ["MANIFEST.json", "train_report.json"]
        assert (tmp_path / "MANIFEST.json").read_text() == text

    def test_directory_without_manifest_lists_nothing(self, tmp_path):
        (tmp_path / "notes.txt").write_text("x")
        assert run_pipeline(small_config(steps=1), tmp_path)["status"] == "ok"
        assert sorted(p.name for p in tmp_path.iterdir()) \
            == sorted(EXPECTED_FILES + ["notes.txt"])


def record_episodes(monkeypatch) -> list:
    """Collect every trajectory run_pipeline serializes."""
    recorded = []
    real = pipeline.trajectory_to_jsonl
    monkeypatch.setattr(pipeline, "trajectory_to_jsonl",
                        lambda t: recorded.append(t) or real(t))
    return recorded


class TestLoadRun:
    def test_round_trip_reproduces_frames_and_labels(self, tmp_path, monkeypatch):
        recorded = record_episodes(monkeypatch)
        config = small_config(steps=30)
        run_pipeline(config, tmp_path)
        n_detections = 0
        for line in (tmp_path / "trajectory.jsonl").read_text().splitlines():
            record = json.loads(line)
            assert set(record) == {"pose", "detections"}
            assert set(record["detections"]) == {"detections"}
            for det in record["detections"]["detections"]:
                assert set(det) == {"logits", "mask_rle"}
                n_detections += 1
        assert n_detections > 0

        loaded, scene, trajectory = load_run(tmp_path)
        assert loaded == config
        assert canonical_dumps(scene.to_json()) + "\n" \
            == (tmp_path / "scene.json").read_text()
        (episode,) = recorded
        assert len(trajectory) == len(episode) == 30
        for got, want in zip(trajectory.frames, episode.frames):
            assert got.pose == want.pose
            assert got.depth.tobytes() == want.depth.tobytes()
            assert got.gt_instance.tobytes() == want.gt_instance.tobytes()
        assert [d.to_json() for d in trajectory.detections] \
            == [d.to_json() for d in episode.detections]
        for got, want in zip(trajectory.detections, episode.detections):
            assert [(d.bbox, d.class_id, d.score) for d in got.detections] \
                == [(d.bbox, d.class_id, d.score) for d in want.detections]
        raw = evaluate_pseudo_labels(trajectory.detections, trajectory, scene,
                                     loaded.camera,
                                     min_pixels=loaded.noise.min_pixels)
        eval_json = json.loads((tmp_path / "eval.json").read_text())
        assert round(raw.map50, 9) == eval_json["raw"]["map50"]
        assert pipeline._round_floats(raw_consistency_stats(trajectory), 9) \
            == eval_json["raw_consistency"]

        dataset = build_pseudo_dataset(
            trajectory, build_labels(trajectory, loaded), loaded.camera)
        coco = pipeline._round_floats(dataset_to_coco(dataset, loaded.camera))
        assert coco["annotations"]
        assert canonical_dumps(coco) + "\n" \
            == (tmp_path / "pseudo_dataset.json").read_text()

    @pytest.mark.parametrize("name", ["config.json", "scene.json",
                                      "trajectory.jsonl"])
    def test_tampered_or_missing_file_rejected(self, tmp_path, name):
        run_pipeline(small_config(steps=3), tmp_path)
        path = tmp_path / name
        path.write_text(path.read_text() + " ")
        with pytest.raises(ValueError, match=name):
            load_run(tmp_path)
        path.unlink()
        with pytest.raises(ValueError, match=name):
            load_run(tmp_path)


    def test_run_with_camera_height_in_its_poses_rejected(self, tmp_path):
        # a run written while a pose held the camera height
        run_pipeline(small_config(steps=3), tmp_path)
        path = tmp_path / "trajectory.jsonl"
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            record["pose"]["camera_height"] = 1.25
        path.write_text("".join(canonical_dumps(r) + "\n" for r in records))
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        manifest["files"]["trajectory.jsonl"] = sha256_file(path)
        (tmp_path / "MANIFEST.json").write_text(canonical_dumps(manifest) + "\n")
        with pytest.raises(ValueError, match="^camera_height: not a field of Pose$"):
            load_run(tmp_path)

    @pytest.mark.parametrize("text", MALFORMED_MANIFESTS)
    def test_malformed_manifest_rejected(self, tmp_path, text):
        run_pipeline(small_config(steps=1), tmp_path)
        (tmp_path / "MANIFEST.json").write_text(text)
        with pytest.raises(ValueError, match="MANIFEST.json"):
            load_run(tmp_path)

    def test_missing_manifest_rejected(self, tmp_path):
        run_pipeline(small_config(steps=1), tmp_path)
        (tmp_path / "MANIFEST.json").unlink()
        with pytest.raises(ValueError, match="MANIFEST.json is missing"):
            load_run(tmp_path)


class TestDegenerateEpisodes:
    def test_zero_objects(self, tmp_path):
        config = small_config(steps=20, scene_params=SceneParams(
            room_size_min=6.0, room_size_max=7.0, n_partitions=1,
            objects_per_class_min=0, objects_per_class_max=0))
        assert run_pipeline(config, tmp_path / "a")["status"] == "ok"
        report = json.loads((tmp_path / "a" / "eval.json").read_text())
        assert report["pseudo"]["map50"] == 0.0
        coco = json.loads((tmp_path / "a" / "pseudo_dataset.json").read_text())
        assert coco["annotations"] == []
        assert len(coco["images"]) == 20
        with pytest.raises(StageError) as err:
            run_pipeline(replace(config, train=True), tmp_path / "b")
        assert err.value.stage == "train"

    def test_agent_boxed_in(self, tmp_path):
        scene = SceneSpec(bounds=Box(0.0, 0.0, 0.0, 0.5, 0.5, 3.0),
                          obstacles=(), objects=())
        scene.save(tmp_path / "box.json")
        config = small_config(steps=30, scene_file=str(tmp_path / "box.json"))
        assert run_pipeline(config, tmp_path / "run")["status"] == "ok"
        _, _, trajectory = load_run(tmp_path / "run")
        assert len(trajectory) == 30
        assert len({(f.pose.x, f.pose.y) for f in trajectory.frames}) == 1


GRID_BASE = RunConfig(steps=150, noise=NoiseModel.uniform_confusion(
    0.75, dropout_base=0.1, dropout_per_meter=0.05))


class TestRunConfig:
    def test_json_round_trip(self):
        config = small_config(alpha=0.3, policy="random", train=True)
        assert RunConfig.from_json(config.to_json()) == config
        for config in (config, RunConfig(), GRID_BASE,
                       small_config(scene_file="s.json", scene_seed=4)):
            text = canonical_dumps(config.to_json())
            back = RunConfig.from_json(json.loads(text))
            assert back == config
            assert canonical_dumps(back.to_json()) == text

    def test_pinned_hashes(self):
        # config.json text, and so every run directory's key, is unchanged
        assert config_hash(RunConfig()) == "9dd6484e34b73bc3"
        assert config_hash(GRID_BASE) == "02ca0361941bba5b"

    def test_int_for_float_field_reads_as_float(self):
        config = RunConfig.from_json({"alpha": 1})
        assert type(config.alpha) is float
        assert config_hash(config) == config_hash(RunConfig(alpha=1.0))

    @pytest.mark.parametrize("data, field", [
        ({"stpes": 50}, "stpes"),
        ({"noise": {"dropout_bse": 0.3}}, "noise.dropout_bse"),
        ({"train_config": {"epohcs": 1}}, "train_config.epohcs"),
        ({"scene_params": {"room_sise": 8.0}}, "scene_params.room_sise"),
        ({"camera": {**RunConfig().camera.to_json(), "fz": 64.0}}, "camera.fz"),
        ({"camera": {"fx": 64.0, "fy": 64.0, "cx": 32.0, "cy": 24.0,
                     "width": 64}}, "camera.height"),
        ({"steps": 2.0}, "steps"),
        ({"train": 1}, "train"),
        ({"noise": {"min_pixels": "50"}}, "noise.min_pixels"),
        ({"noise": {"confusion": [[1.0] * 6] * 5 + [[1.0] * 5 + ["0"]]}},
         r"noise.confusion\[5\]\[5\]"),
        ({"train_config": 1}, "train_config"),
        ({"scene_file": 3}, "scene_file"),
        # a config.json with fields that are now constants, first in key order
        ({**RunConfig().to_json(), "max_range": 10.0, "camera_height": 1.25},
         "camera_height"),
        # a config.json written while the toy head trained a triplet term
        ({"train_config": {"margin": 0.3}}, "train_config.margin"),
    ])
    def test_from_json_rejects_bad_field(self, data, field):
        # unknown keys at every level, a missing required field, wrong types
        with pytest.raises(ValueError, match=f"^{field}: "):
            RunConfig.from_json(data)

    @pytest.mark.parametrize("data, message", [
        ({"noise": {"min_pixels": 0}}, "noise.min_pixels must be at least 1, got 0"),
        ({"camera": {**RunConfig().camera.to_json(), "fx": -1.0}},
         "camera.fx must be positive, got -1.0"),
        ({"train_config": {"label_flip_prob": 2.0}},
         r"train_config.label_flip_prob must be in \[0, 1\], got 2.0"),
        ({"steps": 0}, "steps must be at least 1, got 0"),
        # run_pipeline trains at the run's alpha and a seed derived from its seed
        ({"train_config": {"alpha": 0.1}}, "train_config.alpha must be 0.7"),
        ({"train_config": {"seed": 5}}, "train_config.seed must be 0"),
        ({"train_config": {"feature_noise": -1}},
         "train_config.feature_noise must be non-negative, got -1.0"),
        # json.load reads Infinity; the ranges are finite
        ({"train": True, "alpha": math.inf}, "alpha must be non-negative, got inf"),
        ({"train_config": {"feature_noise": math.inf}},
         "train_config.feature_noise must be non-negative, got inf"),
        ({"voxel_size": math.inf}, "voxel_size must be positive, got inf"),
        ({"noise": {"dropout_per_meter": math.inf}},
         "noise.dropout_per_meter must be non-negative, got inf"),
        ({"noise": {"logit_noise_sigma": -1}},
         "noise.logit_noise_sigma must be non-negative, got -1.0"),
        ({"noise": {"logit_noise_sigma": math.nan}},
         "noise.logit_noise_sigma must be non-negative, got nan"),
        ({"noise": {"logit_sharpness": -10}},
         "noise.logit_sharpness must be non-negative, got -10.0"),
        ({"noise": {"logit_sharpness": math.nan}},
         "noise.logit_sharpness must be non-negative, got nan"),
        ({"noise": {"confusion": [[math.nan] * 6] * 6}},
         "noise.confusion rows must be stochastic"),
    ])
    def test_from_json_range_error_names_dotted_field(self, data, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            RunConfig.from_json(data)

    def test_load_from_file(self, tmp_path):
        from voxlabel.serialize import canonical_dumps
        config = small_config(seed=17)
        path = tmp_path / "config.json"
        path.write_text(canonical_dumps(config.to_json()))
        assert RunConfig.load(path) == config

    def test_hash_sensitivity(self):
        a = small_config(seed=0)
        assert config_hash(a) == config_hash(small_config(seed=0))
        assert config_hash(a) != config_hash(small_config(seed=1))
        assert config_hash(a) != config_hash(replace(a, alpha=0.1))

    @pytest.mark.parametrize("value", [0.0, -0.05])
    @pytest.mark.parametrize("name", ["voxel_size"])
    def test_rejects_non_positive_geometry(self, name, value):
        with pytest.raises(ValueError, match=name):
            small_config(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("policy", "greedy"), ("steps", 0), ("steps", -1),
        ("min_instance_voxels", 0), ("scene_seed", -1)])
    def test_rejects_out_of_range_run_settings(self, name, value):
        with pytest.raises(ValueError, match=name):
            small_config(**{name: value})

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 0), ("epochs", -1), ("feature_dim", 0),
        ("label_flip_prob", 2.0), ("lr", -1), ("alpha", -1),
        ("feature_noise", -1)])
    def test_rejects_out_of_range_train_settings(self, name, value):
        with pytest.raises(ValueError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["alpha"])
    def test_rejects_negative_weights(self, name):
        with pytest.raises(ValueError, match=name):
            small_config(**{name: -0.1})


class TestRunGrid:
    def test_grid_cells_and_aggregate(self, tmp_path):
        base = small_config(steps=30, train=True, min_instance_voxels=10)
        agg = run_grid(base, ["random", "frontier"], [0.7], [0, 1], tmp_path)
        dirs = [p.name for p in tmp_path.iterdir() if p.is_dir()]
        assert sorted(dirs) == ["frontier_alpha0.7_seed0", "frontier_alpha0.7_seed1",
                                "random_alpha0.7_seed0", "random_alpha0.7_seed1"]
        with open(agg) as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 2   # one row per (policy, alpha)
        for row in rows:
            assert int(row["n_ok"]) == 2
            assert int(row["n_failed"]) == 0

    def test_aggregate_matches_cell_outputs(self, tmp_path):
        base = small_config(steps=20)
        agg = run_grid(base, ["frontier"], [0.0], [0, 1, 2], tmp_path)
        maps = []
        for s in (0, 1, 2):
            with open(tmp_path / f"frontier_alpha0.0_seed{s}" / "eval.json") as f:
                maps.append(json.load(f)["pseudo"]["map50"])
        with open(agg) as f:
            row = list(csv.DictReader(f))[0]
        assert float(row["map50_mean"]) == pytest.approx(np.mean(maps), abs=1e-8)
        assert float(row["map50_std"]) == pytest.approx(np.std(maps), abs=1e-8)

    def test_failed_cell_recorded_and_grid_continues(self, tmp_path):
        base = small_config(steps=5, scene_file=str(tmp_path / "missing.json"))
        agg = run_grid(base, ["frontier"], [0.7], [0], tmp_path)
        with open(agg) as f:
            row = list(csv.DictReader(f))[0]
        assert int(row["n_failed"]) == 1
        assert row["map50_mean"] == ""

    def test_cell_exception_outside_a_stage_is_isolated(self, tmp_path,
                                                         monkeypatch):
        from voxlabel import pipeline
        real_run = pipeline.run_pipeline

        def run_or_crash(config, out_dir, shared=None):
            if config.alpha == 0.7:
                raise RuntimeError("crash outside any stage")
            return real_run(config, out_dir, shared=shared)

        base = small_config(steps=5)
        monkeypatch.setattr(pipeline, "run_pipeline", run_or_crash)
        agg = run_grid(base, ["frontier"], [0.0, 0.7, 1.0], [0], tmp_path / "grid",
                       max_workers=1)
        with open(agg) as f:
            rows = {row["alpha"]: row for row in csv.DictReader(f)}
        assert (rows["0.7"]["n_ok"], rows["0.7"]["n_failed"]) == ("0", "1")
        # the other cells ran and wrote what an undisturbed run writes
        for alpha in ("0.0", "1.0"):
            assert (rows[alpha]["n_ok"], rows[alpha]["n_failed"]) == ("1", "0")
            ref = tmp_path / f"ref{alpha}"
            manifest = real_run(replace(base, alpha=float(alpha), seed=0), ref)
            cell = tmp_path / "grid" / f"frontier_alpha{alpha}_seed0"
            for name in list(manifest["files"]) + ["MANIFEST.json"]:
                assert (cell / name).read_bytes() == (ref / name).read_bytes()

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="workers see the patch only when forked")
    def test_broken_worker_pool_is_recorded(self, tmp_path, monkeypatch):
        from voxlabel import pipeline

        def die(config, out_dir, shared=None):
            os._exit(1)

        monkeypatch.setattr(pipeline, "run_pipeline", die)
        agg = run_grid(small_config(steps=5), ["frontier"], [0.7], [0, 1],
                       tmp_path, max_workers=2)
        with open(agg) as f:
            row = list(csv.DictReader(f))[0]
        assert (row["n_ok"], row["n_failed"]) == ("0", "2")

    def test_parallel_matches_serial(self, tmp_path):
        base = small_config(steps=10)
        run_grid(base, ["frontier"], [0.7], [0, 1], tmp_path / "serial",
                 max_workers=1)
        run_grid(base, ["frontier"], [0.7], [0, 1], tmp_path / "par",
                 max_workers=2)
        assert (tmp_path / "serial" / "aggregate.csv").read_text() \
            == (tmp_path / "par" / "aggregate.csv").read_text()

    @pytest.mark.parametrize("max_workers", [1, 2])
    def test_trained_cells_equal_standalone_runs(self, tmp_path, max_workers):
        base = small_config(steps=30, train=True, min_instance_voxels=10)
        run_grid(base, ["frontier"], [0.0, 0.7], [0, 1], tmp_path / "grid",
                 max_workers=max_workers)
        for alpha in (0.0, 0.7):
            for seed in (0, 1):
                ref = tmp_path / f"ref_{alpha}_{seed}"
                manifest = run_pipeline(replace(base, alpha=alpha, seed=seed), ref)
                assert manifest["status"] == "ok"
                assert "train_report.json" in manifest["files"]
                cell = tmp_path / "grid" / f"frontier_alpha{alpha}_seed{seed}"
                assert sorted(p.name for p in cell.iterdir()) \
                    == sorted(p.name for p in ref.iterdir())
                for name in list(manifest["files"]) + ["MANIFEST.json"]:
                    assert (cell / name).read_bytes() == (ref / name).read_bytes()

    def test_one_episode_per_policy_and_seed(self, tmp_path, monkeypatch,
                                              caplog):
        calls = []
        real_episode = pipeline.run_episode

        def counting_episode(*args, **kwargs):
            calls.append(kwargs["seed"])
            return real_episode(*args, **kwargs)

        monkeypatch.setattr(pipeline, "run_episode", counting_episode)
        with caplog.at_level("INFO", logger="voxlabel.pipeline"):
            agg = run_grid(small_config(steps=10), ["frontier"],
                           [0.0, 0.7, 1.0], [0, 1], tmp_path, max_workers=1)
        assert len(calls) == 2
        with open(agg) as f:
            assert all(row["n_ok"] == "2" for row in csv.DictReader(f))
        progress = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("grid cell ")]
        assert [m.split()[2] for m in progress] \
            == [f"{i}/6" for i in range(1, 7)]
        assert all(m.endswith("status=ok") for m in progress)

    def test_one_training_problem_per_policy_and_seed(self, tmp_path,
                                                      monkeypatch):
        calls = []
        real_examples = losses._make_examples

        def counting_examples(dataset, K, config, rng):
            calls.append(config.seed)
            return real_examples(dataset, K, config, rng)

        monkeypatch.setattr(losses, "_make_examples", counting_examples)
        base = small_config(steps=30, train=True, min_instance_voxels=10)
        agg = run_grid(base, ["frontier"], [0.0, 0.7, 1.0], [0, 1], tmp_path,
                       max_workers=1)
        assert len(calls) == 2 and len(set(calls)) == 2
        with open(agg) as f:
            assert all(row["n_ok"] == "2" for row in csv.DictReader(f))

    def test_shared_stage_failure_fails_every_cell(self, tmp_path):
        base = small_config(steps=5, scene_file=str(tmp_path / "missing.json"))
        agg = run_grid(base, ["frontier"], [0.0, 0.7], [0], tmp_path / "grid")
        with open(agg) as f:
            assert [row["n_failed"] for row in csv.DictReader(f)] == ["1", "1"]
        for alpha in (0.0, 0.7):
            ref = tmp_path / f"ref{alpha}"
            with pytest.raises(StageError) as err:
                run_pipeline(replace(base, alpha=alpha), ref)
            assert err.value.stage == "scene"
            cell = tmp_path / "grid" / f"frontier_alpha{alpha}_seed0"
            manifest = json.loads((cell / "MANIFEST.json").read_text())
            assert manifest["status"] == "failed at scene"
            assert sorted(p.name for p in cell.iterdir()) \
                == ["MANIFEST.json", "config.json"]
            for name in ("config.json", "MANIFEST.json"):
                assert (cell / name).read_bytes() == (ref / name).read_bytes()

    def test_replayed_failure_after_written_stages(self, tmp_path, monkeypatch):
        calls = []

        def broken_eval(*args, **kwargs):
            calls.append(args)
            raise RuntimeError("eval broke")

        monkeypatch.setattr(pipeline, "evaluate_pseudo_labels", broken_eval)
        base = small_config(steps=10, train=True)
        agg = run_grid(base, ["frontier"], [0.0, 0.7], [0], tmp_path / "grid")
        assert len(calls) == 1
        with open(agg) as f:
            assert [row["n_failed"] for row in csv.DictReader(f)] == ["1", "1"]
        for alpha in (0.0, 0.7):
            cell = tmp_path / "grid" / f"frontier_alpha{alpha}_seed0"
            manifest = json.loads((cell / "MANIFEST.json").read_text())
            assert manifest["status"] == "failed at eval"
            assert sorted(manifest["files"]) == ["config.json",
                                                 "pseudo_dataset.json",
                                                 "scene.json", "trajectory.jsonl"]
            ref = tmp_path / f"ref{alpha}"
            with pytest.raises(StageError) as err:
                run_pipeline(replace(base, alpha=alpha), ref)
            assert err.value.stage == "eval"
            assert sorted(p.name for p in cell.iterdir()) \
                == sorted(p.name for p in ref.iterdir())
            for path in ref.iterdir():
                assert (cell / path.name).read_bytes() == path.read_bytes()

    def test_replayed_failure_names_each_cells_config(self, tmp_path):
        base = small_config(steps=5, scene_file=str(tmp_path / "missing.json"))
        shared = {}
        hashes = []
        for alpha in (0.0, 0.7):
            config = replace(base, alpha=alpha)
            with pytest.raises(StageError, match=config_hash(config)):
                run_pipeline(config, tmp_path / str(alpha), shared=shared)
            hashes.append(config_hash(config))
        assert hashes[0] != hashes[1]

    def test_shared_results_rejected_for_another_seed(self, tmp_path):
        shared = {}
        run_pipeline(small_config(steps=3), tmp_path / "a", shared=shared)
        with pytest.raises(ValueError, match="differs"):
            run_pipeline(small_config(steps=3, seed=1), tmp_path / "b",
                         shared=shared)

    @pytest.mark.parametrize("axis, values", [
        ("policies", dict(policies=[])),
        ("policies", dict(policies=["frontier", "frontier"])),
        ("alphas", dict(alphas=[])),
        ("alphas", dict(alphas=[0, 0.0])),
        ("seeds", dict(seeds=[])),
        ("seeds", dict(seeds=[1, 1])),
        ("workers", dict(max_workers=0)),
        ("workers", dict(max_workers=-1)),
    ])
    def test_rejects_empty_or_duplicated_axis(self, tmp_path, axis, values):
        axes = {**dict(policies=["frontier"], alphas=[0.7], seeds=[0]), **values}
        with pytest.raises(ValueError, match=axis):
            run_grid(small_config(steps=1), out_root=tmp_path, **axes)
        assert not list(tmp_path.iterdir())


def _array_holders():
    """A fresh instance of each dataclass that holds arrays; two calls give
    distinct instances with equal contents."""
    mask = np.eye(4, dtype=bool)
    logits = np.arange(6.0)
    det = voxlabel.Detection(mask.copy(), logits.copy())
    dets = voxlabel.DetectionSet([det])
    label = voxlabel.PseudoLabel(uid=0, class_id=5, lambda_bar=logits / 15,
                                 mask=mask.copy(), bbox=(0, 0, 3, 3))
    frame = voxlabel.FrameObservation(voxlabel.Pose(1.0, 2.0, 0.0),
                                      np.ones((4, 4)),
                                      np.zeros((4, 4), dtype=np.int32))
    return [det, dets, label, voxlabel.PseudoDataset(frames=[[label]]), frame,
            voxlabel.InstanceRecord(0, 5, np.zeros((2, 3), dtype=np.int64),
                                    logits.copy()),
            voxlabel.OccupancyGrid(np.zeros((3, 3), dtype=np.uint8), (0.0, 0.0)),
            voxlabel.Trajectory(frames=[frame], detections=[dets]),
            voxlabel.LossValue(1.0, {"features": logits.copy()})]


@pytest.mark.parametrize("i", range(len(_array_holders())),
                         ids=[type(x).__name__ for x in _array_holders()])
def test_array_holders_compare_by_identity(i):
    a, b = _array_holders()[i], _array_holders()[i]
    assert a == a and a != b
    assert b in [a, b] and [a, b].index(b) == 1
