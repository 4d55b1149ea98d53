"""bevkit benchmark: the `augment` and `evaluate` CLI on seeded workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  NAME is one of the workloads in WORKLOADS,
or ``all`` to run each in turn.  The benchmark generates the inputs from
the seed, then runs one CLI invocation per fresh child interpreter, which
calls ``bevkit.cli.main`` in-process, until the timed invocations add up
to S seconds.  Every invocation's output is checked against the
benchmark's own oracles after the child exits, outside the timed region.

--trace 0 reports the end-to-end metrics, medians over the invocations:
  wall_s_p50   wall time of one CLI invocation, from parsing to writing
  peak_rss_mb  peak resident memory of the child that ran the invocation
  setup_s      time the fresh interpreter took to import bevkit.cli
--trace 1 spends half the time on untraced invocations and half on the
traced replay (see spans.py), and reports the per-layer metrics.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The lines before it are JSON
objects with the provenance of each workload's run: machine, seed,
workers, realised sizes, samples and throughput.  Generated files live in
.bench_work/ under the repository root; only the span file of a traced
run is kept there.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from inputs import PERTURB_LIMITS, TP_THRESHOLD, make_inputs
from oracles import EvalOracle, RigOracle, expected_report

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent

# workload -> (CLI command, --workers).  rig-hires uses the per-camera
# thread pool at the core count of the reference 2-core machine.
WORKLOADS = {
    "rig-hires": ("augment", 2),
    "rig-crowded": ("augment", 1),
    "eval-crowded": ("evaluate", 1),
    "eval-sparse": ("evaluate", 1),
}

END_TO_END = {"wall_s_p50": "s", "peak_rss_mb": "MiB", "setup_s": "s"}

# per-layer metric -> (unit, span summed per invocation or None)
PER_LAYER = {
    "warp.warp_image_s": ("s", "warp.warp_image"),
    "warp.pixels": ("count", None),
    "warp.valid_ratio": ("ratio", None),
    "pnm.read_s": ("s", "pnm.read"),
    "pnm.write_s": ("s", "pnm.write"),
    "pnm.bytes": ("bytes", None),
    "augment.collect_pairs_s": ("s", "augment.collect_pairs"),
    "augment.fit_homography_s": ("s", "augment.fit_homography"),
    "augment.perturb_pose_s": ("s", "augment.perturb_pose"),
    "augment.anchors": ("count", None),
    "augment.pairs": ("count", None),
    "augment.pair_keep_ratio": ("ratio", None),
    "augment.fallbacks": ("count", None),
    "metrics.match_detections_s": ("s", "metrics.match_detections.pass"),
    "metrics.average_precision_s": ("s", "metrics.average_precision"),
    "metrics.tp_errors_s": ("s", "metrics.tp_errors"),
    "metrics.evaluate_s": ("s", "metrics.evaluate"),
    "metrics.candidate_pairs": ("count", None),
    "metrics.matches": ("count", None),
    "metrics.match_ratio": ("ratio", None),
    "scene.load_s": ("s", "scene.load"),
    "scene.dump_s": ("s", "scene.dump"),
    "scene.records": ("count", None),
    "cli.self_s": ("s", None),
    "trace.overhead_s": ("s", None),
}

# per-layer metrics read straight from the replay's counters
COUNTERS = (
    "warp.pixels",
    "warp.valid_ratio",
    "pnm.bytes",
    "augment.anchors",
    "augment.pairs",
    "augment.fallbacks",
    "metrics.candidate_pairs",
    "metrics.matches",
    "scene.records",
)

MIN_CALLS_UNTRACED = 3
MIN_CALLS_TRACED = 2
# Each run must end within 180 s; leave room for generation and checks.
RUN_BUDGET_S = 165.0


def cli_argv(workload: str, in_dir: Path, out_dir: Path, seed: int) -> list[str]:
    command, workers = WORKLOADS[workload]
    if command == "augment":
        inputs = ["--scene", str(in_dir / "scene.json"), "--seed", str(seed)]
    else:
        inputs = ["--gt", str(in_dir / "gt.json"), "--pred", str(in_dir / "pred.json")]
    return [command, *inputs, "--workers", str(workers), "--output-dir", str(out_dir)]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_child(spec: dict, work: Path, deadline: float) -> dict:
    """Run worker.py on one spec and return its result, killing it at the deadline."""
    name = f"{spec['mode']}-{spec['invocation']}"
    spec_path = work / f"{name}-spec.json"
    spec["result"] = str(work / f"{name}-result.json")
    spec["trace_file"] = str(work / f"{name}-trace.json")
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"{name}-stderr.txt", "w", encoding="utf-8") as stderr:
        child = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(spec_path)],
            cwd=ROOT,
            env=child_env(),
            stdout=subprocess.DEVNULL,
            stderr=stderr,
        )
        try:
            code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise RuntimeError(f"{name} child exceeded the run budget")
    if code != 0:
        tail = (work / f"{name}-stderr.txt").read_text(encoding="utf-8")[-2000:]
        raise RuntimeError(f"{name} child exited with {code}:\n{tail}")
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    if spec["mode"] == "trace":
        result["trace"] = json.loads(Path(spec["trace_file"]).read_text(encoding="utf-8"))
    return result


def run_loop(spec: dict, work: Path, seconds: float, min_calls: int, deadline: float, check) -> list[dict]:
    """Invoke the workload, one fresh child per invocation, until ``seconds`` are timed.

    ``check(result, out_dir)`` returns the output problems of one
    invocation; it runs in this process, after the child has exited.
    """
    out = Path(spec["out_dir"])
    results: list[dict] = []
    spent = 0.0
    while len(results) < min_calls or spent < seconds:
        if results and time.monotonic() + 2.0 * max(r["child_s"] for r in results) > deadline:
            break
        shutil.rmtree(out, ignore_errors=True)
        begin = time.monotonic()
        result = run_child(dict(spec, invocation=len(results)), work, deadline)
        result["child_s"] = time.monotonic() - begin
        if not result["problems"]:
            try:
                result["problems"] = check(result, out)
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                result["problems"] = [f"unreadable output: {exc!r}"]
        results.append(result)
        spent += result["duration_s"]
    return results


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, -float("inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def invocation_layers(trace: dict) -> dict[str, float]:
    """Per-layer values of one traced invocation: span sums, self time, counters."""
    spans = trace["spans"]
    root = next(s for s in spans if s["parent"] is None and s["name"].startswith("cli."))
    children = [(s["start"], s["end"]) for s in spans if s["parent"] == root["id"]]
    wall = root["end"] - root["start"]
    values = {"wall_s": wall, "cli.self_s": wall - _union_length(children)}
    for name, (_, span_name) in PER_LAYER.items():
        if span_name is not None:
            values[name] = sum((s["end"] - s["start"] for s in spans if s["name"] == span_name), 0.0)
    for name in COUNTERS:
        values[name] = trace["counters"].get(name, 0.0)
    anchors, candidates = values["augment.anchors"], values["metrics.candidate_pairs"]
    values["augment.pair_keep_ratio"] = values["augment.pairs"] / anchors if anchors else 0.0
    values["metrics.match_ratio"] = values["metrics.matches"] / candidates if candidates else 0.0
    return values


def machine() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Generate, time and check one workload; return (provenance, result)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    command, workers = WORKLOADS[workload]
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        in_dir, out_dir = work / "in", work / "out"
        info = make_inputs(in_dir, seed, workload)
        if command == "augment":
            oracle = RigOracle(in_dir, seed, PERTURB_LIMITS)
            throughput = {"frames_per_s": info["frames"]}
            outputs = ["poses.json", "homographies.json"]
        else:
            report = expected_report(*info.pop("records"))
            oracle = EvalOracle(report)
            throughput = {"dets_per_s": info["detections"]}
            outputs = ["metric_report.json"]
        spec = {
            "mode": "time",
            "root": str(ROOT),
            "bench": str(BENCH),
            "workload": workload,
            "seed": seed,
            "workers": workers,
            "argv": cli_argv(workload, in_dir, out_dir, seed),
            "in_dir": str(in_dir),
            "out_dir": str(out_dir),
        }
        timed = run_loop(
            spec,
            work,
            seconds / 2 if trace else seconds,
            MIN_CALLS_TRACED if trace else MIN_CALLS_UNTRACED,
            deadline,
            lambda result, out: oracle.check(out),
        )
        durations = [r["duration_s"] for r in timed]
        wall = statistics.median(durations)
        results = list(timed)
        if trace:
            def check_replay(result: dict, out: Path) -> list[str]:
                layers = invocation_layers(result["trace"])
                problems = oracle.check(out)
                for name in outputs:
                    if (out / name).read_bytes() != (out_dir / name).read_bytes():
                        problems.append(f"replay {name} differs from the CLI's")
                if command == "evaluate":
                    expected = report["match_counts"][f"matches@{TP_THRESHOLD:g}"]
                    if layers["metrics.matches"] != expected:
                        problems.append(f"matching pass found {layers['metrics.matches']:g}, expected {expected}")
                return problems

            replay_spec = dict(spec, mode="trace", out_dir=str(work / "replay"))
            traced = run_loop(replay_spec, work, seconds / 2, MIN_CALLS_TRACED, deadline, check_replay)
            results += traced
            trace_file = ROOT / ".bench_work" / f"trace-{workload}-{seed}.json"
            trace_file.write_text(json.dumps([r["trace"] for r in traced], indent=1) + "\n", encoding="utf-8")
            per_invocation = [invocation_layers(r["trace"]) for r in traced]
            values = {name: statistics.median(v[name] for v in per_invocation) for name in per_invocation[0]}
            values["trace.overhead_s"] = statistics.median(v["wall_s"] for v in per_invocation) - wall
            result_metrics = {name: {"value": values[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}
        else:
            values = {
                "wall_s_p50": wall,
                "peak_rss_mb": statistics.median(r["peak_rss_mib"] for r in timed),
                "setup_s": statistics.median(r["import_s"] for r in timed),
            }
            result_metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [r["problems"] for r in results if r["problems"]]
    provenance = {
        "workload": workload,
        "seed": seed,
        "workers": workers,
        "command": f"bevkit {command} --workers {workers}",
        "sizes": info["sizes"],
        "machine": machine(),
        "samples": len(durations),
        "durations_s": durations,
        "wall_s_p50": wall,
        **{name: count / wall for name, count in throughput.items()},
        "setup_samples_s": [r["import_s"] for r in timed],
        "peak_rss_samples_mib": [r["peak_rss_mib"] for r in timed],
        "fail_ratio": len(failures) / len(results),
        "failures": failures[:3],
    }
    result = {"correct": not failures, "attempted": len(results), "failed": len(failures), "metrics": result_metrics}
    return provenance, result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "bevkit" / "cli.py").is_file():
        print(f"error: no bevkit sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        provenance, result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(provenance), flush=True)
        results.append(result)
    if len(results) == 1:
        final = results[0]
    else:
        final = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {f"{n}.{k}": v for n, r in zip(names, results) for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
