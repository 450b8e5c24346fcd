"""Tests of the benchmark itself: tracer arithmetic and a tiny run per workload.

Run with ``python3 -m pytest -q perfbench`` from the root of the checkout.
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from hostspeed import HostSpeed  # noqa: E402
from tracer import Span, Tracer, percentile, self_times  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_self_time_on_hand_built_tree():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 0),
        Span(1, "a", 1.0, 4.0, 0, 0),
        Span(2, "a.child", 2.0, 3.0, 1, 0),
        Span(3, "b", 3.5, 6.0, 0, 0),      # overlaps a: union covers 1..6
        Span(4, "c", 8.0, 12.0, 0, 0),     # runs past root: clipped at 10
        Span(5, "other", 20.0, 21.0, None, 1),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[1] == pytest.approx(3.0 - 1.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5)
    assert selfs[5] == pytest.approx(1.0)


def test_summary_and_percentile():
    tracer = Tracer()
    tracer.spans = [Span(0, "f", 0.0, 2.0, None, 0),
                    Span(1, "g", 0.5, 1.0, 0, 0),
                    Span(2, "f", 3.0, 4.0, None, 1)]
    summary = tracer.summary()
    assert summary["f"]["calls"] == 2
    assert summary["f"]["busy_s"] == pytest.approx(3.0)
    assert summary["f"]["self_s"] == pytest.approx(2.5)
    assert summary["f"]["durations"] == [1.0, 2.0]
    assert percentile(list(range(1, 101)), 50) == 50
    assert percentile(list(range(1, 101)), 99) == 99


def test_host_speed_scales_by_reference_over_mean_sample():
    with HostSpeed({"wall_s": 0.2, "cpu_s": 0.1}) as speed:
        speed.wall, speed.cpu = [0.3, 0.5], [0.1, 0.3]
        assert speed.wall_scale() == pytest.approx(0.5)
        assert speed.cpu_scale() == pytest.approx(0.5)
        assert speed.wall_scale(1) == pytest.approx(0.4)
        speed.sample(4.0)   # one sample per 2 s of work measured
    assert speed._proc.returncode == 0
    assert len(speed.wall) == len(speed.cpu) == 4
    assert all(w > 0 for w in speed.wall[2:])


def test_install_wraps_every_binding_and_uninstall_restores():
    from voxlabel import explore, pipeline, scene, serialize
    original = scene.render_frame
    tracer = Tracer()
    tracer.install({"scene.render_frame": ("voxlabel.scene", "render_frame"),
                    "pipeline.sha256_file": ("voxlabel.serialize", "sha256_file")})
    try:
        assert explore.render_frame is scene.render_frame is not original
        assert pipeline.sha256_file is serialize.sha256_file
        wrapper = scene.render_frame
        with tracer.paused():
            assert explore.render_frame is scene.render_frame is original
        assert explore.render_frame is scene.render_frame is wrapper
    finally:
        tracer.uninstall()
    assert explore.render_frame is scene.render_frame is original


TINY = {
    "episodes": lambda: workloads.Episodes(steps=40, panel_seeds=(0,)),
    "grid": lambda: workloads.Grid(steps=40, panel_seeds=(0,)),
    "relabel": lambda: workloads.Relabel(steps=40, panel_seeds=(0,)),
}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(TINY))
def test_tiny_run_prints_every_metric_with_unit(name, trace, capsys):
    assert run.run(name, 3, 0.0, bool(trace), workload=TINY[name]()) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
