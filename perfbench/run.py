"""voxlabel benchmark: one workload per run, end-to-end or traced metrics.

Usage, from the root of a voxlabel checkout:

    python3 perfbench/run.py --workload episodes|grid|relabel --seed N \
        --seconds S --trace 0|1

The program is imported from ``src/`` of the same checkout. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` ({name: {value, unit}}). ``--trace 0`` reports the
end-to-end metrics, with timings scaled to the reference host's speed by a
calibration loop timed between units (see hostspeed.py); ``--trace 1``
reports the per-layer metrics of a traced run, unscaled, together with the
tracing overhead. Everything the run writes (results
with the environment record, span dumps, grid artifacts while they are
checked) goes to ``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread: more threads than the host's few cores measure its
# scheduler. Set before numpy is first imported; a value given is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from hostspeed import HostSpeed  # noqa: E402
from tracer import Tracer, percentile  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3

# span name -> (module defining the function, attribute)
TARGETS = {
    "scene.generate_scene": ("voxlabel.scene", "generate_scene"),
    "scene.render_frame": ("voxlabel.scene", "render_frame"),
    "detector.simulate_detections": ("voxlabel.detector", "simulate_detections"),
    "explore.run_episode": ("voxlabel.explore", "run_episode"),
    "explore.update_occupancy": ("voxlabel.explore", "update_occupancy"),
    "explore.next_goal": ("voxlabel.explore", "next_goal"),
    "explore.plan_path": ("voxlabel.explore", "plan_path"),
    "explore.step_agent": ("voxlabel.explore", "step_agent"),
    "consensus.accumulate_frame": ("voxlabel.consensus", "accumulate_frame"),
    "consensus.finalize_map": ("voxlabel.consensus", "finalize_map"),
    "consensus.resolve_voxels": ("voxlabel.consensus", "resolve_voxels"),
    "consensus.extract_instances": ("voxlabel.consensus", "extract_instances"),
    "consensus.consistent_logits": ("voxlabel.consensus", "consistent_logits"),
    "reproject.project_instance_masks": ("voxlabel.reproject",
                                         "project_instance_masks"),
    "reproject.dataset_to_coco": ("voxlabel.reproject", "dataset_to_coco"),
    "losses.toy_finetune": ("voxlabel.losses", "toy_finetune"),
    "losses.triplet_loss": ("voxlabel.losses", "triplet_loss"),
    "losses.distill_loss": ("voxlabel.losses", "distill_loss"),
    "evaluate.evaluate_pseudo_labels": ("voxlabel.evaluate",
                                        "evaluate_pseudo_labels"),
    "evaluate.average_precision": ("voxlabel.evaluate", "average_precision"),
    "pipeline.run_pipeline": ("voxlabel.pipeline", "run_pipeline"),
    "pipeline.run_grid": ("voxlabel.pipeline", "run_grid"),
    "pipeline.trajectory_to_jsonl": ("voxlabel.pipeline", "trajectory_to_jsonl"),
    # defined in serialize; pipeline hashes every artifact with it
    "pipeline.sha256_file": ("voxlabel.serialize", "sha256_file"),
    "cli.main": ("voxlabel.cli", "main"),
}
# The grid's cells are timed through run_pipeline in untraced runs as well.
CELL_TIMER = {"pipeline.run_pipeline": TARGETS["pipeline.run_pipeline"]}


def _observe_detections(tracer, args, kwargs, result):
    tracer.count("detector.detections", len(result.detections))


def _observe_plan(tracer, args, kwargs, result):
    tracer.count("explore.plan_path.found", result is not None)


def _observe_step(tracer, args, kwargs, result):
    agent, action = args[1], args[2]
    if action.value == "forward":
        tracer.count("explore.step_agent.forward")
        tracer.count("explore.step_agent.blocked",
                     (result.pose.x, result.pose.y) == (agent.pose.x, agent.pose.y))


def _observe_map(tracer, args, kwargs, vmap):
    # the same fields consensus.map_to_json dumps
    tracer.count("consensus.voxels", len(vmap.voxels))
    tracer.count("consensus.instances", len(vmap.instances))
    tracer.count("consensus.instance_voxels",
                 sum(len(i.voxels) for i in vmap.instances.values()))


def _observe_projection(tracer, args, kwargs, result):
    tracer.count("reproject.instance_frames", len(args[0].instances))
    tracer.count("reproject.labels", len(result))


def _observe_finetune(tracer, args, kwargs, result):
    tracer.count("losses.examples", result["n_examples"])


def _observe_jsonl(tracer, args, kwargs, result):
    tracer.count("pipeline.trajectory_bytes", len(result.encode()))


OBSERVERS = {
    "detector.simulate_detections": _observe_detections,
    "explore.plan_path": _observe_plan,
    "explore.step_agent": _observe_step,
    "consensus.finalize_map": _observe_map,
    "reproject.project_instance_masks": _observe_projection,
    "losses.toy_finetune": _observe_finetune,
    "pipeline.trajectory_to_jsonl": _observe_jsonl,
}


def environment() -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k, "unset") for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "platform": platform.platform(),
    }


def _run_unit(workload, state, desc, tracer) -> list:
    """One unit inside a ``bench.unit`` span; a unit that raises is failed."""
    from workloads import Unit

    start = time.perf_counter()
    try:
        return tracer.span("bench.unit", workload.run, state, desc, tracer)
    except Exception as exc:   # a failed unit is counted, the run goes on
        traceback.print_exc()
        return [Unit(time.perf_counter() - start, 0, errors=[f"{desc}: {exc!r}"])]


def timed_phase(workload, state, seed, seconds, tracer, speed,
                untraced_targets=None):
    """Run the panel, then seed-derived units (at least one) until `seconds`
    have elapsed, sampling the host's speed into `speed` after each unit.

    Returns (all units, panel summary, summed wall seconds of all units). The
    panel summary keeps the spans and the counters the tracer had at the end
    of the panel, so per-layer metrics cover the panel's fixed work only.

    With `untraced_targets`, each panel unit first runs with `tracer` paused
    and only those targets wrapped. That run counts nowhere but in the
    panel's ``untraced_wall_s``; running it right before the traced run of
    the same unit keeps host-speed drift out of the tracing overhead.

    The panel summary also holds the wall and CPU scales of the calibration
    samples taken during the panel.
    """
    units, n_panel = [], len(workload.panel)
    panel, first_sample = {}, len(speed.wall)
    wall = cpu = untraced_wall = 0.0
    descs = itertools.chain(workload.panel, workload.tail(seed))
    for i, desc in enumerate(descs):
        if i > n_panel and wall >= seconds:
            break
        if untraced_targets is not None and i < n_panel:
            plain = Tracer()
            with tracer.paused():
                plain.install(untraced_targets)
                try:
                    start = time.perf_counter()
                    _run_unit(workload, state, desc, plain)
                    untraced_wall += time.perf_counter() - start
                finally:
                    plain.uninstall()
        tracer.unit = i
        start, c0 = time.perf_counter(), time.process_time()
        new = _run_unit(workload, state, desc, tracer)
        if i > 0:   # only the first unit keeps its pseudo-labels
            for u in new:
                u.datasets = []
        units += new
        elapsed = time.perf_counter() - start
        wall += elapsed
        cpu += time.process_time() - c0
        speed.sample(elapsed)
        if i == n_panel - 1:
            panel = {"units": list(units),
                     "wall_s": wall,
                     "cpu_s": cpu,
                     "wall_scale": speed.wall_scale(first_sample),
                     "cpu_scale": speed.cpu_scale(first_sample),
                     "untraced_wall_s": untraced_wall,
                     "peak_rss_mb": resource.getrusage(
                         resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                     "spans": tracer.spans[:],
                     "counters": dict(tracer.counters)}
    tracer.unit = None
    return units, panel, wall


def layer_metrics(tracer, panel, workload, overhead_s, overhead_frac) -> dict:
    """Every per-layer metric, taken over the panel's spans and counters."""
    summary = tracer.summary(panel["spans"])
    c = panel["counters"]

    def agg(name):
        return summary.get(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0,
                                  "durations": []})

    def ms(name, q):
        d = agg(name)["durations"]
        # a tail percentile needs at least ten samples beyond it; 0 otherwise
        if not d or (q > 50 and len(d) * (100 - q) / 100 < 10):
            return 0.0
        return 1000.0 * percentile(d, q)

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = (value, unit)

    def calls_busy(name):
        put(f"{name}.calls", agg(name)["calls"], "count")
        put(f"{name}.busy_s", agg(name)["busy_s"], "s")

    calls_busy("scene.render_frame")
    put("scene.render_frame.ms_p50", ms("scene.render_frame", 50), "ms")
    put("scene.render_frame.ms_p99", ms("scene.render_frame", 99), "ms")
    put("scene.generate_scene.busy_s", agg("scene.generate_scene")["busy_s"], "s")

    put("detector.simulate_detections.busy_s",
        agg("detector.simulate_detections")["busy_s"], "s")
    put("detector.simulate_detections.ms_p50",
        ms("detector.simulate_detections", 50), "ms")
    put("detector.detections_per_frame",
        ratio(c.get("detector.detections", 0),
              agg("detector.simulate_detections")["calls"]), "1/frame")

    put("explore.run_episode.self_s", agg("explore.run_episode")["self_s"], "s")
    for fn in ("update_occupancy", "next_goal", "plan_path", "step_agent"):
        calls_busy(f"explore.{fn}")
    put("explore.plan_path.success_ratio",
        ratio(c.get("explore.plan_path.found", 0),
              agg("explore.plan_path")["calls"]), "ratio")
    put("explore.step_agent.blocked_ratio",
        ratio(c.get("explore.step_agent.blocked", 0),
              c.get("explore.step_agent.forward", 0)), "ratio")

    for fn in ("accumulate_frame", "finalize_map", "resolve_voxels",
               "extract_instances", "consistent_logits"):
        put(f"consensus.{fn}.busy_s", agg(f"consensus.{fn}")["busy_s"], "s")
    voxels = c.get("consensus.voxels", 0)
    put("consensus.voxels", voxels, "count")
    put("consensus.instances", c.get("consensus.instances", 0), "count")
    put("consensus.instance_voxel_ratio",
        ratio(c.get("consensus.instance_voxels", 0), voxels), "ratio")
    put("consensus.us_per_voxel",
        1e6 * ratio(agg("consensus.accumulate_frame")["busy_s"]
                    + agg("consensus.finalize_map")["busy_s"], voxels), "us")

    name = "reproject.project_instance_masks"
    put(f"{name}.busy_s", agg(name)["busy_s"], "s")
    put(f"{name}.ms_p50", ms(name, 50), "ms")
    put(f"{name}.ms_p99", ms(name, 99), "ms")
    put("reproject.labels", c.get("reproject.labels", 0), "count")
    put("reproject.us_per_instance_frame",
        1e6 * ratio(agg(name)["busy_s"], c.get("reproject.instance_frames", 0)),
        "us")
    put("reproject.dataset_to_coco.busy_s",
        agg("reproject.dataset_to_coco")["busy_s"], "s")

    put("losses.toy_finetune.busy_s", agg("losses.toy_finetune")["busy_s"], "s")
    put("losses.toy_finetune.self_s", agg("losses.toy_finetune")["self_s"], "s")
    calls_busy("losses.triplet_loss")
    put("losses.triplet_loss.ms_p50", ms("losses.triplet_loss", 50), "ms")
    put("losses.distill_loss.busy_s", agg("losses.distill_loss")["busy_s"], "s")
    put("losses.examples", c.get("losses.examples", 0), "count")
    put("losses.ms_per_batch",
        1e3 * ratio(agg("losses.toy_finetune")["busy_s"],
                    agg("losses.triplet_loss")["calls"]), "ms")

    put("evaluate.evaluate_pseudo_labels.busy_s",
        agg("evaluate.evaluate_pseudo_labels")["busy_s"], "s")
    calls_busy("evaluate.average_precision")

    put("pipeline.run_pipeline.self_s", agg("pipeline.run_pipeline")["self_s"], "s")
    put("pipeline.trajectory_to_jsonl.busy_s",
        agg("pipeline.trajectory_to_jsonl")["busy_s"], "s")
    put("pipeline.trajectory_bytes", c.get("pipeline.trajectory_bytes", 0), "B")
    put("pipeline.sha256_file.busy_s", agg("pipeline.sha256_file")["busy_s"], "s")
    put("pipeline.run_grid.self_s", agg("pipeline.run_grid")["self_s"], "s")
    put("pipeline.repeated_episode_share", workload.repeated_episode_share, "ratio")

    put("cli.main.self_s", agg("cli.main")["self_s"], "s")

    put("trace.overhead_s", overhead_s, "s")
    put("trace.overhead_frac", overhead_frac, "ratio")
    put("trace.spans", len(panel["spans"]), "count")
    return m


def end_to_end_metrics(panel, setup_s, attempted, failed) -> dict:
    """Every end-to-end metric, taken over the panel's (fixed) inputs.

    Timings are in seconds of the reference host: wall times are scaled by
    the panel's wall scale, CPU time by its CPU scale. `setup_s` comes
    scaled already.
    """
    units = panel["units"]
    wall_scale = panel["wall_scale"]
    ok = [u for u in units if not u.errors]

    def mean(values):
        values = [v for v in values if v is not None]
        return statistics.fmean(values) if values else 0.0

    return {
        "setup_s": (setup_s, "s"),
        "frames_per_s": (sum(u.frames for u in units)
                         / (panel["wall_s"] * wall_scale), "1/s"),
        "unit_s_p50": (statistics.median(u.wall_s for u in units) * wall_scale,
                       "s"),
        "cpu_s": (panel["cpu_s"] * panel["cpu_scale"], "s"),
        "peak_rss_mb": (panel["peak_rss_mb"], "MB"),
        "artifact_mb": (mean(u.artifact_bytes for u in ok) / 1e6, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "pseudo_map50": (mean(u.pseudo_map50 for u in ok), "mAP"),
        "map50_gain": (mean(u.pseudo_map50 - u.raw_map50 for u in ok), "mAP"),
        "train_accuracy": (mean(u.train_accuracy for u in ok), "ratio"),
    }


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter importing voxlabel from src."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import voxlabel, voxlabel.cli"],
                   cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["episodes", "grid", "relabel"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


def run(workload_name, seed, seconds, trace, workload=None) -> int:
    src = ROOT / "src"
    if not (src / "voxlabel" / "__init__.py").is_file():
        print(f"error: no voxlabel sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import voxlabel
    import workloads
    if Path(voxlabel.__file__).resolve().parent != src / "voxlabel":
        print(f"error: voxlabel imported from {voxlabel.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    workload = workload or workloads.WORKLOADS[workload_name]()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    env = environment()
    print(json.dumps({"environment": env}), file=sys.stderr)
    reference = json.loads((HERE / "reference.json").read_text())
    with HostSpeed(reference["host_speed"]) as speed:
        return measure(workload, seed, seconds, trace, src, out_dir, env,
                       reference, speed)


def measure(workload, seed, seconds, trace, src, out_dir, env, reference,
            speed) -> int:
    speed.sample()
    setups = []   # fresh-interpreter import plus the workload's set-up
    for _ in range(SETUP_REPEATS):
        state = None   # the previous set-up's state is freed, not held
        t_import = import_seconds(src)
        t = time.perf_counter()
        state = workload.setup(seed, out_dir)
        setups.append(t_import + time.perf_counter() - t)
        speed.sample(setups[-1])
    setup_scale = speed.wall_scale()

    checks = []   # (name, passed)
    try:
        untraced = CELL_TIMER if workload.name == "grid" else {}
        tracer = Tracer()
        try:
            if trace:
                tracer.install(TARGETS, OBSERVERS)
                units, panel, wall_s = timed_phase(
                    workload, state, seed, seconds, tracer, speed, untraced)
            else:
                tracer.install(untraced)
                units, panel, wall_s = timed_phase(workload, state, seed,
                                                   seconds, tracer, speed)
        finally:
            tracer.uninstall()
        panel_units = panel.get("units", [])
        try:
            workload.finish_panel(state, panel_units)
            checks.append(("deterministic rerun of the first unit",
                           workload.rerun_digest(state) == panel_units[0].digest))
        except Exception:
            traceback.print_exc()
            checks.append(("panel artifacts and rerun", False))
    finally:
        workload.cleanup(state)

    digests = [u.digest for u in panel_units]
    matches_reference = digests == reference["panel_digests"].get(workload.name)
    errors = [e for u in units for e in u.errors]
    errors += [name for name, ok in checks if not ok]
    attempted = len(units) + len(checks)
    failed = sum(1 for u in units if u.errors) + sum(1 for _, ok in checks if not ok)

    if trace:
        overhead_s = panel["wall_s"] - panel["untraced_wall_s"]
        metrics = layer_metrics(tracer, panel, workload, overhead_s,
                                overhead_s / panel["untraced_wall_s"])
        tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    else:
        metrics = end_to_end_metrics(
            panel, statistics.median(setups) * setup_scale,
            attempted, failed)

    for e in errors:
        print(f"FAILED: {e}", file=sys.stderr)
    tail = units[len(panel_units):]
    print(f"{workload.name} seed={seed}: {len(panel_units)} panel units in "
          f"{panel['wall_s']:.2f} s, {len(tail)} seed units in "
          f"{wall_s - panel['wall_s']:.2f} s "
          f"({sum(u.frames for u in tail)} frames); "
          f"panel digests match reference: {matches_reference}; host speed "
          f"(reference / measured) wall {panel['wall_scale']:.3f}, "
          f"cpu {panel['cpu_scale']:.3f}, set-up {setup_scale:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>14.6g} {unit}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = dict(result, workload=workload.name, seed=seed, seconds=seconds,
                  trace=trace, environment=env, setup_repeats_s=setups,
                  setup_scale=setup_scale,
                  panel_wall_s=panel["wall_s"], panel_cpu_s=panel["cpu_s"],
                  panel_wall_scale=panel["wall_scale"],
                  panel_cpu_scale=panel["cpu_scale"],
                  calibration_wall_s=speed.wall, calibration_cpu_s=speed.cpu,
                  wall_s=wall_s,
                  unit_wall_s=[u.wall_s for u in units],
                  unit_frames=[u.frames for u in units],
                  errors=errors, panel_digests=digests,
                  panel_digests_match_reference=matches_reference)
    (out_dir / f"result-{workload.name}-seed{seed}-trace{int(trace)}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
