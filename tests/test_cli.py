import csv
import json

import pytest

from voxlabel.cli import build_parser, main
from voxlabel.pipeline import RunConfig, run_pipeline
from voxlabel.scene import SceneSpec


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_grid_defaults(self):
        args = build_parser().parse_args(["grid", "run"])
        assert args.policies == "random,frontier"
        assert args.alphas == "0,0.1,0.7,1.0"
        assert args.workers == 1

    @pytest.mark.parametrize("argv", [["explore"], ["labels", "build"],
                                      ["eval"], ["train", "toy"]])
    def test_removed_stage_commands_rejected(self, argv):
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    @pytest.mark.parametrize("flag, value", [("--policy", "random"),
                                             ("--seed", "9"),
                                             ("--alpha", "0.3")])
    def test_single_run_flags_only_on_pipeline_run(self, flag, value):
        args = build_parser().parse_args(["pipeline", "run", flag, value])
        assert getattr(args, flag[2:]) is not None
        with pytest.raises(SystemExit):
            build_parser().parse_args(["grid", "run", "--alphas", "0.7",
                                       "--seeds", "0", flag, value])

    def test_bad_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["pipeline", "run", "--policy", "greedy"])


class TestMain:
    def test_scene_gen(self, tmp_path, capsys):
        out = tmp_path / "scene.json"
        assert main(["scene", "gen", "--seed", "4", "--out", str(out)]) == 0
        scene = SceneSpec.load(out)
        assert scene.objects
        assert str(out) in capsys.readouterr().out

    def test_scene_gen_writes_the_pipeline_scene_json(self, tmp_path):
        out = tmp_path / "gen" / "scene.json"
        out.parent.mkdir()
        assert main(["scene", "gen", "--seed", "4", "--out", str(out)]) == 0
        run_pipeline(RunConfig(steps=2, scene_seed=4), tmp_path / "run")
        assert out.read_bytes() == (tmp_path / "run" / "scene.json").read_bytes()
        assert sorted(p.name for p in out.parent.iterdir()) == ["scene.json"]

    def test_pipeline_run_smoke(self, tmp_path, capsys):
        rc = main(["pipeline", "run", "--steps", "3", "--seed", "0",
                   "--out", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "MANIFEST.json").read_text())
        assert manifest["status"] == "ok"
        assert sorted(manifest["files"]) == ["config.json", "eval.json",
                                             "pseudo_dataset.json",
                                             "scene.json", "trajectory.jsonl"]

    def test_out_env_var(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VOXLABEL_OUT", str(tmp_path / "envout"))
        assert main(["pipeline", "run", "--steps", "1"]) == 0
        assert (tmp_path / "envout" / "MANIFEST.json").exists()

    def test_config_file_with_override(self, tmp_path):
        from voxlabel.pipeline import RunConfig
        from voxlabel.serialize import canonical_dumps
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(canonical_dumps(RunConfig(steps=1).to_json()))
        out = tmp_path / "run"
        assert main(["pipeline", "run", "--config", str(cfg_path),
                     "--seed", "5", "--out", str(out)]) == 0
        saved = json.loads((out / "config.json").read_text())
        assert saved["seed"] == 5
        assert saved["steps"] == 1

    @pytest.mark.parametrize("argv, named", [
        (["pipeline", "run", "--config", "{config}"], "stpes"),
        (["pipeline", "run", "--steps", "0"], "steps"),
        (["grid", "run", "--alphas", "0,x"], "--alphas"),
        (["grid", "run", "--alphas", "0,0.0"], "alphas"),
        (["grid", "run", "--policies", "frontier,greedy"], "policy"),
        (["pipeline", "run", "--scene", "{scene}", "--steps", "5"], "sede"),
        (["pipeline", "run", "--scene", "{missing}"], "--scene"),
        (["grid", "run", "--scene", "{scene}"], "sede"),
        (["pipeline", "run", "--config", "{train}"], "train_config.alpha"),
        (["grid", "run", "--config", "{train}"], "train_config.alpha"),
        (["pipeline", "run", "--scene-seed", "-1", "--steps", "5"], "scene_seed"),
        (["scene", "gen", "--seed", "-1"], "--seed"),
        (["grid", "run", "--workers", "0"], "workers"),
        (["grid", "run", "--workers", "-1"], "workers"),
    ])
    def test_bad_value_is_usage_error(self, tmp_path, capsys, argv, named):
        config = tmp_path / "config.json"
        config.write_text('{"stpes": 5}')
        scene = tmp_path / "scene.json"
        scene.write_text('{"sede": 1}')
        train = tmp_path / "train.json"
        train.write_text('{"train_config": {"alpha": 0.1}}')
        argv = [a.format(config=config, scene=scene, train=train,
                         missing=tmp_path / "missing.json") for a in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert named in err.strip().splitlines()[-1]
        assert not (tmp_path / "out").exists()

    def test_grid_run_smoke(self, tmp_path):
        rc = main(["grid", "run", "--steps", "10", "--policies", "frontier",
                   "--alphas", "0.7", "--seeds", "0",
                   "--min-instance-voxels", "10", "--epochs", "1",
                   "--out", str(tmp_path)])
        assert rc == 0
        with open(tmp_path / "aggregate.csv") as f:
            rows = list(csv.DictReader(f))
        assert len(rows) == 1
