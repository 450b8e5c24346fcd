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

from .pipeline import RunConfig, run_grid, run_pipeline
from .scene import SceneParams, SceneSpec, generate_scene


def _default_out() -> str:
    return os.environ.get("VOXLABEL_OUT", "runs")


def _load_config(args) -> RunConfig:
    """--config, or the defaults, with the flags given applied over it."""
    config = RunConfig()
    if getattr(args, "config", None):
        try:
            config = RunConfig.load(args.config)
        except (OSError, ValueError) as exc:
            raise ValueError(f"--config {args.config}: {exc}") from None
    run = {attr: getattr(args, attr) for attr in (
        "policy", "steps", "seed", "alpha", "voxel_size", "min_instance_voxels",
        "scene_file", "scene_seed") if getattr(args, attr, None) is not None}
    if args.group == "grid" or args.train:
        run["train"] = True
    train = {attr: getattr(args, attr) for attr in (
        "epochs", "lr", "batch_size") if getattr(args, attr, None) is not None}
    config = replace(config, **run,
                     train_config=replace(config.train_config, **train))
    if config.scene_file:
        try:
            SceneSpec.load(config.scene_file)
        except (OSError, ValueError) as exc:
            raise ValueError(f"--scene {config.scene_file}: {exc}") from None
    return config


def _grid_axes(args) -> dict:
    axes = {}
    for flag, kind in (("policies", str), ("alphas", float), ("seeds", int)):
        try:
            axes[flag] = [kind(v) for v in getattr(args, flag).split(",")]
        except ValueError as exc:
            raise ValueError(f"--{flag}: {exc}") from None
    return axes


def _add_common(p):
    p.add_argument("--config", help="RunConfig JSON file")
    p.add_argument("--scene", dest="scene_file", help="scene JSON to load")
    p.add_argument("--scene-seed", type=int, dest="scene_seed")
    p.add_argument("--steps", type=int)
    p.add_argument("--voxel-size", type=float, dest="voxel_size")
    p.add_argument("--min-instance-voxels", type=int, dest="min_instance_voxels")
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
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None) or _default_out()

    if args.group == "scene":
        if args.seed < 0:
            parser.error(f"--seed must be non-negative, got {args.seed}")
        scene = generate_scene(SceneParams(), args.seed)
        scene.save(args.out)
        print(f"wrote {args.out}: {len(scene.objects)} objects")
        return 0

    try:
        # bad values, the grid's axes included, are usage errors
        config = _load_config(args)
        if args.group == "grid":
            path = run_grid(config, **_grid_axes(args), out_root=out,
                            max_workers=args.workers)
            print(f"aggregate CSV: {path}")
            return 0
    except ValueError as exc:
        parser.error(str(exc))
    manifest = run_pipeline(config, out)
    print(json.dumps(manifest, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
