"""The three benchmark workloads: episodes, grid and relabel.

Every workload is a closed loop with one client: the next unit starts when
the previous one has finished. A run first executes the workload's fixed
panel (inputs from the reference scenario, identical for every --seed), then
units derived from --seed, at least one, until the time budget is spent. The
end-to-end and per-layer metrics come from the panel, so they compare the
same work across seeds; the seed-derived units are checked and traced like
panel units.

All calls go through module attributes (``explore.run_episode``, not a name
imported into this file), so the tracer sees each of them.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from voxlabel import (cli, consensus, evaluate, explore, losses, pipeline,
                      reproject, scene)
from voxlabel.detector import NoiseModel
from voxlabel.serialize import canonical_dumps, derive_seed

CAM = scene.CameraIntrinsics.default()
# ROADMAP reference scenario: uniform confusion 0.75, dropout 0.1 + 0.05/m.
REFERENCE_NOISE = NoiseModel.uniform_confusion(
    0.75, dropout_base=0.1, dropout_per_meter=0.05)


@dataclass
class Unit:
    """One finished unit: its wall time, work and check outcome."""

    wall_s: float
    frames: int
    errors: list = field(default_factory=list)
    pseudo_map50: float | None = None
    raw_map50: float | None = None
    train_accuracy: float | None = None
    artifact_bytes: int | None = None
    digest: str | None = None
    datasets: list = field(default_factory=list)   # kept for the first unit only


def _check_map(unit: Unit):
    for name in ("pseudo_map50", "raw_map50"):
        value = getattr(unit, name)
        if value is None or not 0.0 <= value <= 1.0:
            unit.errors.append(f"{name}={value} outside [0, 1]")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _episode(policy: str, s: int, steps: int):
    """Scene and recorded trajectory of reference seed s under policy."""
    world = scene.generate_scene(scene.SceneParams(), derive_seed(s, "scene"))
    trajectory, _ = explore.run_episode(world, policy, REFERENCE_NOISE, steps,
                                        CAM, seed=derive_seed(s, "episode"))
    return world, trajectory


def _label_unit(t0, world, trajectory, voxel_sizes) -> Unit:
    """accumulate -> finalize -> reproject -> evaluate, once per voxel size.

    The unit ends with the canonical COCO export of its pseudo-labels, as the
    pipeline writes it; its size and digest are the unit's artifact.
    """
    unit = Unit(0.0, len(trajectory) * len(voxel_sizes))
    pseudo = []
    for voxel_size in voxel_sizes:
        vmap = consensus.SemanticVoxelMap(voxel_size=voxel_size)
        for frame, dets in zip(trajectory.frames, trajectory.detections):
            consensus.accumulate_frame(vmap, frame, dets, CAM)
        consensus.finalize_map(vmap)
        dataset = reproject.build_pseudo_dataset(trajectory, vmap, CAM)
        unit.datasets.append(dataset)
        pseudo.append(evaluate.evaluate_pseudo_labels(
            dataset, trajectory, world, CAM).map50)
    unit.pseudo_map50 = statistics.fmean(pseudo)
    unit.raw_map50 = evaluate.evaluate_pseudo_labels(
        trajectory.detections, trajectory, world, CAM).map50
    coco = b"\n".join(canonical_dumps(reproject.dataset_to_coco(d, CAM)).encode()
                      for d in unit.datasets)
    unit.artifact_bytes, unit.digest = len(coco), _sha256(coco)
    unit.wall_s = time.perf_counter() - t0
    _check_map(unit)
    return unit


class _InMemoryLabels:
    """Shared by the workloads that build labels in memory and write nothing."""

    def finish_panel(self, state, units: list):
        """Toy accuracy of the first panel unit's pseudo-labels."""
        config = losses.TrainConfig(seed=derive_seed(0, "train"))
        units[0].train_accuracy = losses.toy_finetune(
            units[0].datasets[0], CAM, config)["final_accuracy"]

    def rerun_digest(self, state) -> str:
        return self.run(state, self.panel[0])[0].digest

    def cleanup(self, state):
        pass


class Episodes(_InMemoryLabels):
    """Fresh scene -> run_episode -> labels -> eval, in memory; no input repeats."""

    name = "episodes"
    repeated_episode_share = 0.0

    def __init__(self, steps: int = 200, panel_seeds=(0, 1, 2, 3, 4)):
        self.steps = steps
        self.panel = [(policy, s) for s in panel_seeds
                      for policy in ("frontier", "random")]

    def setup(self, seed: int, out_dir: Path):
        return None

    def tail(self, seed: int):
        for i in itertools.count():
            yield ("frontier" if i % 2 == 0 else "random",
                   derive_seed(seed, "episodes", i))

    def run(self, state, desc, tracer=None) -> list:
        t0 = time.perf_counter()
        world, trajectory = _episode(*desc, self.steps)
        return [_label_unit(t0, world, trajectory,
                            (consensus.DEFAULT_VOXEL_SIZE,))]


GRID_SEEDS = tuple(range(2, 16))   # after the panel's 0 and 1


class Grid:
    """``voxlabel grid run``: frontier, alphas 0,0.1,0.7,1.0, one seed, 1 worker.

    A unit is a grid cell. The four cells of a grid share (policy, seed), so
    three of them rerun an episode the grid has already run.
    """

    name = "grid"
    alphas = (0.0, 0.1, 0.7, 1.0)
    repeated_episode_share = 0.75   # 3 of 4 cells repeat (policy, seed)

    def __init__(self, steps: int = 150, panel_seeds=(0, 1)):
        self.steps = steps
        self.panel = list(panel_seeds)

    def setup(self, seed: int, out_dir: Path):
        root = out_dir / "grid"
        if root.exists():
            shutil.rmtree(root)
        root.mkdir(parents=True)
        config_path = root / "config.json"
        config = pipeline.RunConfig(steps=self.steps, noise=REFERENCE_NOISE)
        config_path.write_text(canonical_dumps(config.to_json()) + "\n")
        return {"root": root, "config": config_path, "runs": 0}

    def tail(self, seed: int):
        """Grids over the reference seeds 2-15, starting where --seed points.

        A grid whose episode extracts no instance fails its train stage by
        design (toy_finetune rejects an empty dataset), which would fail the
        run. The 150-step frontier episodes of seeds 0-15 all extract
        instances, so the grid draws its seeds from them.
        """
        start = derive_seed(seed, "grid") % len(GRID_SEEDS)
        for i in itertools.count():
            yield GRID_SEEDS[(start + i) % len(GRID_SEEDS)]

    def _grid(self, state, s: int, alphas) -> Path:
        state["runs"] += 1
        out = state["root"] / f"run{state['runs']}"
        argv = ["grid", "run", "--config", str(state["config"]),
                "--policies", "frontier",
                "--alphas", ",".join(str(a) for a in alphas),
                "--seeds", str(s), "--workers", "1", "--out", str(out)]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"voxlabel {' '.join(argv)} exited {code}")
        return out

    def run(self, state, desc, tracer) -> list:
        """Run one grid; per-cell wall time comes from the run_pipeline spans."""
        first_span = len(tracer.spans)
        out = self._grid(state, desc, self.alphas)
        cell_walls = [s.end - s.start for s in tracer.spans[first_span:]
                      if s.name == "pipeline.run_pipeline"]
        with open(out / "aggregate.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        units = []
        for alpha, wall in zip(self.alphas, cell_walls):
            cell = out / f"frontier_alpha{alpha}_seed{desc}"
            manifest = (cell / "MANIFEST.json").read_bytes()
            unit = Unit(wall, self.steps, digest=_sha256(manifest),
                        artifact_bytes=sum(p.stat().st_size
                                           for p in cell.iterdir()))
            status = json.loads(manifest)["status"]
            if status == "ok":
                ev = json.loads((cell / "eval.json").read_text())
                unit.pseudo_map50 = ev["pseudo"]["map50"]
                unit.raw_map50 = ev["raw"]["map50"]
                unit.train_accuracy = json.loads(
                    (cell / "train_report.json").read_text())["final_accuracy"]
                _check_map(unit)
            else:
                unit.errors.append(f"{cell.name}: MANIFEST status {status!r}")
            units.append(unit)
        if len(cell_walls) != len(self.alphas):
            units[0].errors.append(f"{len(cell_walls)} cells timed, "
                                   f"expected {len(self.alphas)}")
        failed_rows = [r for r in rows if r["n_failed"] != "0"]
        if len(rows) != len(self.alphas) or failed_rows:
            units[0].errors.append(f"aggregate.csv: {len(rows)} rows, "
                                   f"failed {failed_rows}")
        shutil.rmtree(out)
        return units

    def finish_panel(self, state, units: list):
        pass

    def rerun_digest(self, state) -> str:
        s = self.panel[0]
        out = self._grid(state, s, self.alphas[:1])
        digest = _sha256(
            (out / f"frontier_alpha{self.alphas[0]}_seed{s}" / "MANIFEST.json")
            .read_bytes())
        shutil.rmtree(out)
        return digest

    def cleanup(self, state):
        shutil.rmtree(state["root"], ignore_errors=True)


class Relabel(_InMemoryLabels):
    """Rebuild labels from a recorded trajectory at voxel sizes 0.05 and 0.025 m.

    A unit relabels one trajectory at both sizes. Set-up records the panel's
    trajectories (frontier and random on reference seeds 0 and 4), each of
    which the panel relabels once. The run sets up three times, so the panel
    keeps to two seeds, chosen among 0-4 for the most relabelling work per
    second of recording (seeds 1 and 2 extract few instances and relabel in
    a quarter of the time they take to record). The seed-derived units then
    alternate policies on seeds derived from --seed; each records its
    trajectory before its timer starts, so neither set-up nor the unit's wall
    time includes it. No episode is rerun; each trajectory is input twice,
    once per voxel size.
    """

    name = "relabel"
    voxel_sizes = (0.05, 0.025)
    repeated_episode_share = 0.0

    def __init__(self, steps: int = 200, panel_seeds=(0, 4)):
        self.steps = steps
        self.panel = [(policy, s) for s in panel_seeds
                      for policy in ("frontier", "random")]

    def setup(self, seed: int, out_dir: Path):
        return {desc: _episode(*desc, self.steps) for desc in self.panel}

    def tail(self, seed: int):
        for i in itertools.count():
            yield ("frontier" if i % 2 == 0 else "random",
                   derive_seed(seed, "relabel", i))

    def run(self, state, desc, tracer=None) -> list:
        world, trajectory = state.get(desc) or _episode(*desc, self.steps)
        return [_label_unit(time.perf_counter(), world, trajectory,
                            self.voxel_sizes)]


WORKLOADS = {w.name: w for w in (Episodes, Grid, Relabel)}
