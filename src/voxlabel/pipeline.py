"""End-to-end runs: explore -> accumulate -> resolve -> reproject -> evaluate.

A single master seed derives every stage seed, so runs are reproducible and
stages can be replayed independently. Each run writes its artifacts to its
own directory along with a MANIFEST of content hashes.
"""

from __future__ import annotations

import csv
import json
import logging
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .consensus import (DEFAULT_MIN_INSTANCE_VOXELS, DEFAULT_VOXEL_SIZE,
                        SemanticVoxelMap, accumulate_frame, finalize_map,
                        map_to_json)
from .detector import DetectionSet, NoiseModel
from .evaluate import evaluate_pseudo_labels
from .explore import Trajectory, run_episode
from .losses import TrainConfig, toy_finetune
from .reproject import build_pseudo_dataset, dataset_to_coco
from .scene import CameraIntrinsics, SceneParams, SceneSpec, generate_scene
from .serialize import canonical_dumps, derive_seed, rle_encode, sha256_file

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig:
    scene_file: str | None = None
    scene_params: SceneParams = field(default_factory=SceneParams)
    scene_seed: int | None = None       # defaults to derive_seed(seed, "scene")
    policy: str = "frontier"
    steps: int = 500
    noise: NoiseModel = field(default_factory=NoiseModel)
    camera: CameraIntrinsics = field(default_factory=CameraIntrinsics.default)
    camera_height: float = 1.25
    max_range: float = 10.0
    cell_size: float = 0.1
    voxel_size: float = DEFAULT_VOXEL_SIZE
    min_instance_voxels: int = DEFAULT_MIN_INSTANCE_VOXELS
    occlusion_tolerance: float | None = None
    alpha: float = 0.7
    train: bool = False
    train_config: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        for name in ("max_range", "cell_size", "voxel_size"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.occlusion_tolerance is not None and self.occlusion_tolerance < 0:
            raise ValueError("occlusion_tolerance must be non-negative, "
                             f"got {self.occlusion_tolerance}")

    def to_json(self) -> dict:
        return {
            "scene_file": self.scene_file,
            "scene_params": self.scene_params.to_json(),
            "scene_seed": self.scene_seed,
            "policy": self.policy,
            "steps": self.steps,
            "noise": self.noise.to_json(),
            "camera": self.camera.to_json(),
            "camera_height": self.camera_height,
            "max_range": self.max_range,
            "cell_size": self.cell_size,
            "voxel_size": self.voxel_size,
            "min_instance_voxels": self.min_instance_voxels,
            "occlusion_tolerance": self.occlusion_tolerance,
            "alpha": self.alpha,
            "train": self.train,
            "train_config": self.train_config.to_json(),
            "seed": self.seed,
        }

    @classmethod
    def from_json(cls, d: dict) -> "RunConfig":
        kwargs = dict(d)
        if "scene_params" in kwargs:
            kwargs["scene_params"] = SceneParams.from_json(kwargs["scene_params"])
        if "noise" in kwargs:
            kwargs["noise"] = NoiseModel.from_json(kwargs["noise"])
        if "camera" in kwargs:
            kwargs["camera"] = CameraIntrinsics.from_json(kwargs["camera"])
        if "train_config" in kwargs:
            kwargs["train_config"] = TrainConfig.from_json(kwargs["train_config"])
        return cls(**{k: v for k, v in kwargs.items()
                      if k in cls.__dataclass_fields__})

    @classmethod
    def load(cls, path) -> "RunConfig":
        with open(path) as f:
            return cls.from_json(json.load(f))


class StageError(RuntimeError):
    def __init__(self, stage: str, config_hash: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed (config {config_hash}): {cause}")
        self.stage = stage
        self.cause = cause


def config_hash(config: RunConfig) -> str:
    import hashlib
    return hashlib.sha256(canonical_dumps(config.to_json()).encode()).hexdigest()[:16]


def _round_floats(x, ndigits=6):
    if isinstance(x, float):
        return round(x, ndigits)
    if isinstance(x, list):
        return [_round_floats(v, ndigits) for v in x]
    if isinstance(x, dict):
        return {k: _round_floats(v, ndigits) for k, v in x.items()}
    return x


def trajectory_to_jsonl(trajectory: Trajectory) -> str:
    lines = []
    for frame, dets in zip(trajectory.frames, trajectory.detections):
        record = {
            "pose": frame.pose.to_json(),
            "depth_rle": rle_encode(np.round(frame.depth, 4)),
            "gt_instance_rle": rle_encode(frame.gt_instance),
            "detections": dets.to_json(),
        }
        lines.append(canonical_dumps(record))
    return "\n".join(lines) + "\n"


def build_scene(config: RunConfig) -> SceneSpec:
    if config.scene_file:
        return SceneSpec.load(config.scene_file)
    seed = (config.scene_seed if config.scene_seed is not None
            else derive_seed(config.seed, "scene"))
    return generate_scene(config.scene_params, seed)


def build_labels(trajectory: Trajectory, config: RunConfig) -> SemanticVoxelMap:
    vmap = SemanticVoxelMap(voxel_size=config.voxel_size)
    for frame, dets in zip(trajectory.frames, trajectory.detections):
        accumulate_frame(vmap, frame, dets, config.camera)
    finalize_map(vmap, min_instance_voxels=config.min_instance_voxels)
    return vmap


def run_pipeline(config: RunConfig, out_dir) -> dict:
    """Execute every stage, write artifacts to out_dir, return the manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    chash = config_hash(config)
    manifest = {"config_hash": chash, "status": "running", "files": {}}

    def write(name: str, text: str):
        path = out / name
        path.write_text(text)
        manifest["files"][name] = sha256_file(path)

    write("config.json", canonical_dumps(config.to_json()) + "\n")
    stage = "scene"
    try:
        scene = build_scene(config)
        write("scene.json", canonical_dumps(scene.to_json()) + "\n")

        stage = "explore"
        trajectory, _grid = run_episode(
            scene, config.policy, config.noise, config.steps, config.camera,
            seed=derive_seed(config.seed, "episode"),
            cell_size=config.cell_size, camera_height=config.camera_height,
            max_range=config.max_range)
        write("trajectory.jsonl", trajectory_to_jsonl(trajectory))

        stage = "labels"
        vmap = build_labels(trajectory, config)
        write("voxelmap.json",
              canonical_dumps(_round_floats(map_to_json(vmap))) + "\n")
        dataset = build_pseudo_dataset(
            trajectory, vmap, config.camera,
            occlusion_tolerance=config.occlusion_tolerance)
        write("pseudo_dataset.json",
              canonical_dumps(_round_floats(dataset_to_coco(dataset, config.camera)))
              + "\n")

        stage = "eval"
        pseudo_report = evaluate_pseudo_labels(
            dataset, trajectory, scene, config.camera,
            min_pixels=config.noise.min_pixels)
        raw_report = evaluate_pseudo_labels(
            trajectory.detections, trajectory, scene, config.camera,
            min_pixels=config.noise.min_pixels)
        eval_blob = {
            "pseudo": pseudo_report.to_json(),
            "raw": raw_report.to_json(),
            "improvement": pseudo_report.map50 - raw_report.map50,
        }
        write("eval.json", canonical_dumps(_round_floats(eval_blob, 9)) + "\n")
        write("eval.csv", eval_csv_text(config, pseudo_report, raw_report))

        train_report = None
        if config.train:
            stage = "train"
            tc = replace(config.train_config, alpha=config.alpha,
                         seed=derive_seed(config.seed, "train"))
            train_report = toy_finetune(dataset, config.camera, tc)
            write("train_report.json",
                  canonical_dumps(_round_floats(train_report, 9)) + "\n")
    except Exception as exc:
        manifest["status"] = f"failed at {stage}"
        (out / "MANIFEST.json").write_text(canonical_dumps(manifest) + "\n")
        raise StageError(stage, chash, exc) from exc

    manifest["status"] = "ok"
    (out / "MANIFEST.json").write_text(canonical_dumps(manifest) + "\n")
    return manifest


EVAL_CSV_COLUMNS = ["policy", "alpha", "seed", "map50"] + \
    [f"ap_{c}" for c in range(6)] + ["raw_map50", "improvement"]


def eval_csv_text(config: RunConfig, pseudo_report, raw_report) -> str:
    row = [config.policy, config.alpha, config.seed,
           round(pseudo_report.map50, 9)]
    row += [("" if a is None else round(a, 9)) for a in pseudo_report.per_class_ap]
    row += [round(raw_report.map50, 9),
            round(pseudo_report.map50 - raw_report.map50, 9)]
    import io
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(EVAL_CSV_COLUMNS)
    w.writerow(row)
    return buf.getvalue()


def run_grid(base: RunConfig, policies, alphas, seeds, out_root,
             max_workers: int = 1) -> str:
    """One pipeline run per (policy, alpha, seed); aggregate CSV per cell.

    Failures are recorded per cell and the grid continues, whatever the
    exception, including a broken worker pool. Returns the path of the
    aggregate CSV.
    """
    from concurrent.futures import ProcessPoolExecutor

    out_root = Path(out_root)
    out_root.mkdir(parents=True, exist_ok=True)
    cells = [(p, a, s) for p in policies for a in alphas for s in seeds]

    def cell_dir(p, a, s):
        return out_root / f"{p}_alpha{a}_seed{s}"

    jobs = [(replace(base, policy=p, alpha=a, seed=s), cell_dir(p, a, s))
            for p, a, s in cells]
    results = {}
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = {pool.submit(_run_cell, cfg, d): (cfg.policy, cfg.alpha, cfg.seed)
                       for cfg, d in jobs}
            for fut, key in futures.items():
                try:
                    results[key] = fut.result()
                except Exception as exc:
                    results[key] = _cell_failure(key, exc)
    else:
        for cfg, d in jobs:
            results[(cfg.policy, cfg.alpha, cfg.seed)] = _run_cell(cfg, d)

    rows = []
    for p in policies:
        for a in alphas:
            cell = [results[(p, a, s)] for s in seeds]
            ok = [r for r in cell if r.get("status") == "ok"]
            n_failed = len(cell) - len(ok)

            def agg(key):
                vals = [r[key] for r in ok if r.get(key) is not None]
                if not vals:
                    return ("", "")
                return (round(float(np.mean(vals)), 9),
                        round(float(np.std(vals)), 9))
            m_mean, m_std = agg("map50")
            i_mean, i_std = agg("improvement")
            acc_mean, acc_std = agg("accuracy")
            rows.append([p, a, len(ok), n_failed, m_mean, m_std,
                         i_mean, i_std, acc_mean, acc_std])

    agg_path = out_root / "aggregate.csv"
    with open(agg_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["policy", "alpha", "n_ok", "n_failed",
                    "map50_mean", "map50_std", "improvement_mean",
                    "improvement_std", "accuracy_mean", "accuracy_std"])
        w.writerows(rows)
    return str(agg_path)


def _cell_failure(cell, exc: Exception) -> dict:
    logger.error("grid cell %s failed", cell, exc_info=exc)
    return {"status": f"failed: {type(exc).__name__}"}


def _run_cell(config: RunConfig, out_dir) -> dict:
    try:
        run_pipeline(config, out_dir)
        with open(Path(out_dir) / "eval.json") as f:
            ev = json.load(f)
        result = {"status": "ok", "map50": ev["pseudo"]["map50"],
                  "improvement": ev["improvement"], "accuracy": None}
        train_path = Path(out_dir) / "train_report.json"
        if train_path.exists():
            with open(train_path) as f:
                result["accuracy"] = json.load(f)["final_accuracy"]
    except StageError as exc:
        return {"status": f"failed: {exc.stage}"}
    except Exception as exc:
        return _cell_failure((config.policy, config.alpha, config.seed), exc)
    return result
