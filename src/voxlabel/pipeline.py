"""End-to-end runs: scene -> explore -> labels -> eval, then toy training.

A master seed derives every stage seed, so runs are reproducible. Only
training reads alpha: _upstream runs the stages before it as one function
whose result, their artifacts as text and the pseudo dataset, the grid
cells of one (policy, seed) share. Each run writes its artifacts to its own
directory with a MANIFEST of content hashes; every file is written to a
temporary name and renamed into place, and the MANIFEST reads "running"
until the run ends. trajectory.jsonl keeps only what cannot be recomputed:
per frame the pose and each detection's mask RLE and logits; load_run
re-renders the frames, and a frame's index is its line.
"""

from __future__ import annotations

import csv
import io
import json
import logging
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .consensus import (DEFAULT_MIN_INSTANCE_VOXELS, DEFAULT_VOXEL_SIZE,
                        SemanticVoxelMap, accumulate_frame, finalize_map)
from .detector import DetectionSet, NoiseModel
from .evaluate import evaluate_pseudo_labels, raw_consistency_stats
from .explore import Trajectory, run_episode
from .losses import TrainConfig, toy_finetune
from .reproject import build_pseudo_dataset, dataset_to_coco
from .scene import (CameraIntrinsics, Pose, SceneParams, SceneSpec,
                    generate_scene, render_frame)
from .serialize import (JsonDataclass, canonical_dumps, derive_seed, sha256_file,
                        write_atomic)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class RunConfig(JsonDataclass):
    """The settings of a run. config.json is its JsonDataclass to_json, and
    config_hash hashes that file's canonical text. Camera height, sensing
    range, occupancy cell size and occlusion tolerance are fixed:
    scene.CAMERA_HEIGHT, scene.MAX_RANGE, explore.CELL_SIZE and 2 *
    voxel_size; eval matches at IoU 0.5."""

    scene_file: str | None = None
    scene_params: SceneParams = field(default_factory=SceneParams)
    scene_seed: int | None = None       # defaults to derive_seed(seed, "scene")
    policy: str = "frontier"
    steps: int = 500
    noise: NoiseModel = field(default_factory=NoiseModel)
    camera: CameraIntrinsics = field(default_factory=CameraIntrinsics.default)
    voxel_size: float = DEFAULT_VOXEL_SIZE
    min_instance_voxels: int = DEFAULT_MIN_INSTANCE_VOXELS
    alpha: float = 0.7
    train: bool = False
    train_config: TrainConfig = field(default_factory=TrainConfig)
    seed: int = 0

    def __post_init__(self):
        self._require("positive", "voxel_size")
        self._require("at least 1", "steps", "min_instance_voxels")
        self._require("non-negative", "alpha")
        if self.scene_seed is not None:
            self._require("non-negative", "scene_seed")
        if self.policy not in ("frontier", "random"):
            raise ValueError("policy must be 'frontier' or 'random', "
                             f"got {self.policy!r}")
        for name in ("alpha", "seed"):   # run_pipeline sets both from the run
            value, default = getattr(self.train_config, name), getattr(TrainConfig, name)
            if value != default:
                raise ValueError(f"train_config.{name} must be {default}: the "
                                 f"run's {name} sets it, got {value}")


class StageError(RuntimeError):
    def __init__(self, stage: str, config_hash: str, cause: Exception):
        super().__init__(f"stage '{stage}' failed (config {config_hash}): {cause}")
        self.stage = stage


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
    """One line per frame: {"pose": ..., "detections": ...}.

    Depth and gt-instance images are a pure function of (scene, pose,
    camera), so they are not stored; load_run re-renders them.
    """
    lines = [canonical_dumps({"pose": frame.pose.to_json(),
                              "detections": dets.to_json()})
             for frame, dets in zip(trajectory.frames, trajectory.detections)]
    return "\n".join(lines) + "\n"


def load_run(run_dir) -> tuple[RunConfig, SceneSpec, Trajectory]:
    """Read a run directory back as (config, scene, trajectory).

    config.json, scene.json and trajectory.jsonl must each match its sha256
    in MANIFEST.json, else ValueError names the file, as it does for a
    missing or malformed MANIFEST.json. Frames are re-rendered from the
    scene, the recorded poses and the run's camera, masks at its size.
    """
    run = Path(run_dir)
    hashes = _manifest_files(run)
    for name in ("config.json", "scene.json", "trajectory.jsonl"):
        path = run / name
        if not path.exists() or sha256_file(path) != hashes.get(name):
            raise ValueError(f"{name} is missing or does not match MANIFEST.json")
    config = RunConfig.load(run / "config.json")
    scene = SceneSpec.load(run / "scene.json")
    frames, detections = [], []
    for line in (run / "trajectory.jsonl").read_text().splitlines():
        record = json.loads(line)
        frames.append(render_frame(scene, Pose.from_json(record["pose"]),
                                   config.camera))
        detections.append(DetectionSet.from_json(
            record["detections"], (config.camera.height, config.camera.width)))
    return config, scene, Trajectory(frames=frames, detections=detections)


def _manifest_files(run: Path) -> dict:
    """The name -> sha256 map of run/MANIFEST.json; ValueError names the file
    when it is missing or is not a JSON object with a "files" object."""
    path = run / "MANIFEST.json"
    try:
        files = json.loads(path.read_text())["files"]
    except FileNotFoundError:
        raise ValueError(f"{path} is missing") from None
    except (ValueError, KeyError, TypeError):   # JSONDecodeError is a ValueError
        files = None
    if not isinstance(files, dict):
        raise ValueError(f'{path} is not a JSON object with a "files" object')
    return files


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


def run_pipeline(config: RunConfig, out_dir, shared: dict | None = None) -> dict:
    """Execute every stage, write artifacts to out_dir, return the manifest.

    Files that the MANIFEST of an earlier run in out_dir lists and this run
    will not write are deleted first.

    shared carries the result of the stages before train (scene, explore,
    labels, eval), which read neither alpha nor the train settings, between
    runs whose configs differ only in those: pass each run the same dict.
    The first run computes it; every run writes its texts, re-raises its
    failure under the stage that raised it, and then trains, so each run
    writes what it would write alone. Under "train" it holds toy_finetune's
    shared dict, so runs that differ only in alpha train one prepared problem.
    """
    shared = {} if shared is None else shared
    key = _upstream_key(config)
    if shared.setdefault("config", key) != key:
        raise ValueError("shared holds the stages of a config that differs "
                         "in more than alpha and the train settings")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _remove_stale(out, _ARTIFACTS + (("train_report.json",) if config.train
                                     else ()))
    chash = config_hash(config)
    manifest = {"config_hash": chash, "status": "running", "files": {}}

    def write_manifest():
        write_atomic(out / "MANIFEST.json", canonical_dumps(manifest) + "\n")

    def write(name: str, text: str):
        write_atomic(out / name, text)
        manifest["files"][name] = sha256_file(out / name)

    write_manifest()
    write("config.json", canonical_dumps(config.to_json()) + "\n")
    if "upstream" not in shared:
        shared["upstream"] = _upstream(config)
    files, dataset, failure = shared["upstream"]
    try:
        for stage, name, text in files:
            write(name, text)
        if failure is not None:
            stage, exc = failure
            raise exc
        if config.train:
            stage = "train"
            tc = replace(config.train_config, alpha=config.alpha,
                         seed=derive_seed(config.seed, "train"))
            train_report = toy_finetune(dataset, config.camera, tc,
                                        shared.setdefault("train", {}))
            write("train_report.json",
                  canonical_dumps(_round_floats(train_report, 9)) + "\n")
    except Exception as exc:
        manifest["status"] = f"failed at {stage}"
        write_manifest()
        raise StageError(stage, chash, exc) from exc

    manifest["status"] = "ok"
    write_manifest()
    return manifest


def _upstream_key(config: RunConfig) -> str:
    """The config as the stages before train read it."""
    return canonical_dumps({k: v for k, v in config.to_json().items()
                            if k not in ("alpha", "train", "train_config")})


def _upstream(config: RunConfig):
    """Run scene -> explore -> labels -> eval: (files, dataset, failure).

    files lists (stage, name, text) in write order. failure is (stage,
    exception) for an Exception a stage raised, else None; the stages after
    it do not run. The scene and the trajectory die on return: training
    reads only the dataset.
    """
    files, dataset = [], None
    stage = "scene"
    try:
        scene = build_scene(config)
        files.append((stage, "scene.json", canonical_dumps(scene.to_json()) + "\n"))

        stage = "explore"
        trajectory = run_episode(
            scene, config.policy, config.noise, config.steps, config.camera,
            seed=derive_seed(config.seed, "episode"))[0]
        files.append((stage, "trajectory.jsonl", trajectory_to_jsonl(trajectory)))

        stage = "labels"
        dataset = build_pseudo_dataset(
            trajectory, build_labels(trajectory, config), config.camera)
        coco = _round_floats(dataset_to_coco(dataset, config.camera), 6)
        files.append((stage, "pseudo_dataset.json", canonical_dumps(coco) + "\n"))

        stage = "eval"
        pseudo, raw = (evaluate_pseudo_labels(
            labels, trajectory, scene, config.camera,
            min_pixels=config.noise.min_pixels)
            for labels in (dataset, trajectory.detections))
        eval_blob = {"pseudo": pseudo.to_json(), "raw": raw.to_json(),
                     "improvement": pseudo.map50 - raw.map50,
                     "raw_consistency": raw_consistency_stats(trajectory)}
        files.append((stage, "eval.json",
                      canonical_dumps(_round_floats(eval_blob, 9)) + "\n"))
    except Exception as exc:
        return files, dataset, (stage, exc)
    return files, dataset, None


_ARTIFACTS = ("config.json", "scene.json", "trajectory.jsonl",
              "pseudo_dataset.json", "eval.json")


def _remove_stale(out: Path, keep: tuple):
    """Delete the files out/MANIFEST.json lists that are not in keep.

    Only plain names directly inside out are deleted: no separator, no "..".
    train_report.json goes unless kept, listed or not: a MANIFEST left by
    an interrupted run lists only the files that run had written. A
    directory with no MANIFEST lists nothing.
    """
    listed = _manifest_files(out) if (out / "MANIFEST.json").exists() else {}
    for name in {*listed, "train_report.json"} - set(keep):
        if name not in ("", "..") and Path(name).name == name:
            (out / name).unlink(missing_ok=True)


def run_grid(base: RunConfig, policies, alphas, seeds, out_root,
             max_workers: int = 1) -> str:
    """One pipeline run per (policy, alpha, seed); aggregate CSV per cell.

    The cells of one (policy, seed) pass run_pipeline one shared dict, so
    the stages before train run once per group; each cell still writes
    exactly what a standalone run_pipeline of its config writes. With
    max_workers > 1 each group is one job in a process pool. Failures are
    recorded per cell and the grid continues, whatever the exception,
    including a broken worker pool. Returns the path of the aggregate CSV.
    """
    from concurrent.futures import ProcessPoolExecutor

    for axis, values in (("policies", policies), ("alphas", alphas),
                         ("seeds", seeds)):
        if not values or len(set(values)) != len(values):
            raise ValueError(f"{axis} must be non-empty and without "
                             f"duplicates, got {list(values)}")
    if max_workers < 1:
        raise ValueError(f"workers must be at least 1, got {max_workers}")
    out_root = Path(out_root)
    groups = [[(replace(base, policy=p, alpha=a, seed=s),
                out_root / f"{p}_alpha{a}_seed{s}") for a in alphas]
              for p in policies for s in seeds]
    out_root.mkdir(parents=True, exist_ok=True)
    n_cells = len(policies) * len(alphas) * len(seeds)
    results = {}

    def record(group, group_results):
        for (cfg, _), result in zip(group, group_results):
            results[(cfg.policy, cfg.alpha, cfg.seed)] = result
            logger.info("grid cell %d/%d policy=%s alpha=%s seed=%s "
                        "config=%s status=%s", len(results), n_cells,
                        cfg.policy, cfg.alpha, cfg.seed, config_hash(cfg),
                        result["status"])

    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            futures = [(pool.submit(_run_group, group), group)
                       for group in groups]
            for fut, group in futures:
                try:
                    group_results = fut.result()
                except Exception as exc:
                    group_results = [
                        _cell_failure((cfg.policy, cfg.alpha, cfg.seed), exc)
                        for cfg, _ in group]
                record(group, group_results)
    else:
        for group in groups:
            record(group, _run_group(group))

    rows = [["policy", "alpha", "n_ok", "n_failed", "map50_mean", "map50_std",
             "improvement_mean", "improvement_std", "accuracy_mean",
             "accuracy_std"]]
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

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    agg_path = out_root / "aggregate.csv"
    write_atomic(agg_path, buf.getvalue())
    return str(agg_path)


def _cell_failure(cell, exc: Exception) -> dict:
    logger.error("grid cell %s failed", cell, exc_info=exc)
    return {"status": f"failed: {type(exc).__name__}"}


def _run_group(jobs) -> list:
    """Run the cells of one (policy, seed), which share the stages before train."""
    shared = {}
    return [_run_cell(config, out_dir, shared) for config, out_dir in jobs]


def _run_cell(config: RunConfig, out_dir, shared: dict | None = None) -> dict:
    try:
        manifest = run_pipeline(config, out_dir, shared=shared)
        ev = json.loads((Path(out_dir) / "eval.json").read_text())
        result = {"status": "ok", "map50": ev["pseudo"]["map50"],
                  "improvement": ev["improvement"], "accuracy": None}
        if "train_report.json" in manifest["files"]:
            result["accuracy"] = json.loads((Path(out_dir) / "train_report.json")
                                            .read_text())["final_accuracy"]
    except StageError as exc:
        return {"status": f"failed: {exc.stage}"}
    except Exception as exc:
        return _cell_failure((config.policy, config.alpha, config.seed), exc)
    return result
