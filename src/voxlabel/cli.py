"""Command-line entry points.

Subcommands: scene gen, pipeline run (explore, labels, eval and, with
--train, toy training) and grid run. Output root defaults to the
VOXLABEL_OUT environment variable or ./runs.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .detector import NoiseModel
from .losses import TrainConfig
from .pipeline import RunConfig, run_grid, run_pipeline
from .scene import SceneParams, generate_scene


def _default_out() -> str:
    return os.environ.get("VOXLABEL_OUT", "runs")


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None):
        config = RunConfig.load(args.config)
    else:
        config = RunConfig()
    overrides = {}
    for attr in ("policy", "steps", "seed", "alpha", "voxel_size",
                 "min_instance_voxels", "scene_file", "scene_seed"):
        value = getattr(args, attr, None)
        if value is not None:
            overrides[attr] = value
    if overrides:
        config = replace(config, **overrides)
    tc_over = {}
    for attr in ("margin", "epochs", "lr", "batch_size"):
        value = getattr(args, attr, None)
        if value is not None:
            tc_over[attr] = value
    if tc_over:
        config = replace(config, train_config=replace(config.train_config, **tc_over))
    return config


def _add_common(p):
    p.add_argument("--config", help="RunConfig JSON file")
    p.add_argument("--scene", dest="scene_file", help="scene JSON to load")
    p.add_argument("--scene-seed", type=int, dest="scene_seed")
    p.add_argument("--steps", type=int)
    p.add_argument("--voxel-size", type=float, dest="voxel_size")
    p.add_argument("--min-instance-voxels", type=int, dest="min_instance_voxels")
    p.add_argument("--margin", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--lr", type=float)
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--out", default=None, help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="voxlabel")
    top = parser.add_subparsers(dest="group", required=True)

    scene = top.add_parser("scene").add_subparsers(dest="cmd", required=True)
    gen = scene.add_parser("gen", help="generate a scene JSON")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", default="scene.json")

    pipe = top.add_parser("pipeline").add_subparsers(dest="cmd", required=True)
    run = pipe.add_parser("run", help="full pipeline")
    _add_common(run)
    # a grid takes these from --policies, --alphas and --seeds
    run.add_argument("--policy", choices=["random", "frontier"])
    run.add_argument("--seed", type=int)
    run.add_argument("--alpha", type=float)
    run.add_argument("--train", action="store_true")

    grid = top.add_parser("grid").add_subparsers(dest="cmd", required=True)
    # no abbreviations: --seed and --alpha would silently mean --seeds, --alphas
    grun = grid.add_parser("run", help="policy x alpha x seed ablation grid",
                           allow_abbrev=False)
    _add_common(grun)
    grun.add_argument("--policies", default="random,frontier")
    grun.add_argument("--alphas", default="0,0.1,0.7,1.0")
    grun.add_argument("--seeds", default="0,1,2")
    grun.add_argument("--workers", type=int, default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    out = getattr(args, "out", None) or _default_out()

    if args.group == "scene":
        scene = generate_scene(SceneParams(), args.seed)
        scene.save(args.out)
        print(f"wrote {args.out}: {len(scene.objects)} objects")
        return 0

    config = _load_config(args)
    if args.group == "grid":
        config = replace(config, train=True)
        policies = args.policies.split(",")
        alphas = [float(a) for a in args.alphas.split(",")]
        seeds = [int(s) for s in args.seeds.split(",")]
        path = run_grid(config, policies, alphas, seeds, out,
                        max_workers=args.workers)
        print(f"aggregate CSV: {path}")
        return 0

    if args.train:
        config = replace(config, train=True)
    manifest = run_pipeline(config, out)
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
