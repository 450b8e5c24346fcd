import csv
import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from voxlabel.detector import NoiseModel
from voxlabel.losses import TrainConfig
from voxlabel.pipeline import (EVAL_CSV_COLUMNS, RunConfig, StageError,
                               config_hash, run_grid, run_pipeline)
from voxlabel.scene import SceneParams


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
                  "voxelmap.json", "pseudo_dataset.json", "eval.json",
                  "eval.csv", "MANIFEST.json"]


class TestRunPipeline:
    def test_single_step_writes_all_artifacts(self, tmp_path):
        config = small_config(steps=1)
        manifest = run_pipeline(config, tmp_path)
        assert manifest["status"] == "ok"
        for name in EXPECTED_FILES:
            assert (tmp_path / name).exists(), name
        assert set(manifest["files"]) == set(EXPECTED_FILES) - {"MANIFEST.json"}

    def test_eval_csv_columns(self, tmp_path):
        run_pipeline(small_config(steps=1), tmp_path)
        with open(tmp_path / "eval.csv") as f:
            rows = list(csv.reader(f))
        assert rows[0] == EVAL_CSV_COLUMNS
        assert len(rows) == 2

    def test_manifest_hashes_match_files(self, tmp_path):
        from voxlabel.serialize import sha256_file
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


class TestRunConfig:
    def test_json_round_trip(self):
        config = small_config(alpha=0.3, policy="random", train=True)
        assert RunConfig.from_json(config.to_json()) == config

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
    @pytest.mark.parametrize("name", ["max_range", "cell_size", "voxel_size"])
    def test_rejects_non_positive_geometry(self, name, value):
        with pytest.raises(ValueError, match=name):
            small_config(**{name: value})


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

    def test_parallel_matches_serial(self, tmp_path):
        base = small_config(steps=10)
        run_grid(base, ["frontier"], [0.7], [0, 1], tmp_path / "serial",
                 max_workers=1)
        run_grid(base, ["frontier"], [0.7], [0, 1], tmp_path / "par",
                 max_workers=2)
        assert (tmp_path / "serial" / "aggregate.csv").read_text() \
            == (tmp_path / "par" / "aggregate.csv").read_text()
