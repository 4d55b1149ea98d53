"""Command-line entry point.

Subcommands: gen-scene, augment, homography, depth-convert, bin-focal,
evaluate.  Every subcommand is pure in (inputs, seed):
identical invocations produce byte-identical files and stdout.
Exit codes: 0 success, 2 input or format error.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import json
import math
import os
import pickle
import sys
import warnings
from pathlib import Path

import numpy as np

from .augment import Homography, PerturbationRange, augment_camera, ground_plane_homography, plan_camera
from .depth import (
    DATASET_DEPTH_RANGES,
    DEFAULT_REFERENCE_FOCAL,
    DepthDecouplingConfig,
    metric_to_scale_invariant,
    scale_invariant_to_metric,
)
from .geometry import Intrinsics
from .metrics import evaluate
from .ordinal import DATASET_SCHEMES, assign_label
from .pnm import read_pnm, write_pnm
from .scene import (
    RIG_STYLES,
    RunConfig,
    dumps_canonical,
    generate_synthetic_scene,
    head_records,
    pose_to_dict,
    records_cut,
    render_pattern_image,
    run_config_from_dict,
    scene_from_dict,
    scene_to_dict,
    table_from_dict,
    tail_records,
    within,
)

__all__ = ["main"]


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad JSON or bad UTF-8
        raise ValueError(f"{path}: {exc}") from exc


def _parse_file(path: str, parse):
    """``parse`` of the JSON value in ``path``; an error it raises names the file."""
    return within(path, parse, _load_json(path))


def _out_dir(args) -> Path:
    out = Path(args.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_run_config(args) -> RunConfig:
    if args.config:
        return _parse_file(args.config, run_config_from_dict)
    return RunConfig()


def _perturbation(args, cfg: RunConfig) -> PerturbationRange:
    """The run config's perturbation, with ``--seed``, if given, as its seed."""
    if args.seed is None:
        return cfg.perturbation
    return dataclasses.replace(cfg.perturbation, seed=args.seed)


def _cmd_gen_scene(args) -> int:
    out = _out_dir(args)
    seed = 0 if args.seed is None else args.seed
    scene = generate_synthetic_scene(seed, args.cameras, args.boxes, args.style)
    if args.with_images:
        image_dir = out / "images"
        image_dir.mkdir(exist_ok=True)
        paths = []
        for index, cam in enumerate(scene.cameras):
            name = f"images/{cam.camera_id}.pgm"
            write_pnm(out / name, render_pattern_image(cam.intrinsics.width, cam.intrinsics.height, index))
            paths.append(name)
        scene = dataclasses.replace(scene, image_paths=paths)
    scene_path = out / "scene.json"
    scene_path.write_text(dumps_canonical(scene_to_dict(scene)), encoding="utf-8")
    print(scene_path)
    return 0


def _run_share(step, indices):
    """Yield ``(index, step(index), None)`` for each index in turn, until ``(index, None, exception)`` of one that fails."""
    for index in indices:
        try:
            outcome = (index, step(index), None)
        except Exception as exc:
            yield index, None, exc
            return
        yield outcome


def _reported(pipe) -> list:
    """The outcomes a child pickled into ``pipe``, one per step, up to the first one cut short."""
    outcomes = []
    try:
        while True:
            outcomes.append(pickle.load(pipe))
    except (EOFError, pickle.UnpicklingError):  # the end, or a pickle cut short
        return outcomes


def _map_forked(step, sources, workers: int) -> list:
    """``[step(i) for i in range(len(sources))]`` on up to ``workers`` processes; step i reads the file ``sources[i]``.

    With one worker, one step or no ``os.fork`` the steps run here in turn.
    Otherwise forked child k of w = min(workers, steps) processes runs
    steps k, k + w, ... and this process the last share, each one step at
    a time.  A child pickles one ``(index, result, exception)`` into its
    own pipe as each step ends and leaves by ``os._exit``; one that exits
    before its share is done fails the first step it did not report with
    an OSError naming that step's file.
    The lowest failing index's exception is raised.  Children are killed
    and reaped on every path where this process leaves early.

    A child's results wait in its pipe until this process's own share
    ends, so a child whose result outgrows the pipe buffer (64 KiB on
    Linux) blocks there until then: a step that must start promptly after
    another has to be part of one step with it, its child's only one.
    """
    count = len(sources)
    width = min(workers, count)
    if width < 2 or not hasattr(os, "fork"):
        return [step(index) for index in range(count)]
    pipes, children = [], []
    try:
        for first in range(width - 1):
            read_fd, write_fd = os.pipe()
            pipes.append(open(read_fd, "rb"))
            with open(write_fd, "wb") as sink:
                with warnings.catch_warnings():
                    # Python 3.12+ warns on forking a threaded process (numpy's BLAS threads).
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    try:
                        # Hold no read end, not even a sibling's: once this process dies, writes fail.
                        for pipe in pipes:
                            pipe.close()
                        for outcome in _run_share(step, range(first, count, width)):
                            pickle.dump(outcome, sink, pickle.HIGHEST_PROTOCOL)
                            sink.flush()
                        os._exit(0)
                    finally:
                        os._exit(1)  # never return into the caller or flush its stdio
            children.append(pid)
        outcomes = list(_run_share(step, range(width - 1, count, width)))
        for first, pipe in enumerate(pipes):
            share = range(first, count, width)
            reported = _reported(pipe)
            code = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
            del children[0]
            outcomes += reported
            # A share ends at its last step or its first failure; a child that stopped short of both died.
            if len(reported) < len(share) and (not reported or reported[-1][2] is None):
                lost = share[len(reported)]
                message = f"{sources[lost]}: the process reading it exited with status {code} and no result"
                outcomes.append((lost, None, OSError(message)))
    finally:
        for pipe in pipes:
            pipe.close()
        if children:
            import signal

            for pid in children:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    outcomes.sort(key=lambda outcome: outcome[0])
    for _, _, error in outcomes:
        if error is not None:
            raise error
    return [result for _, result, _ in outcomes]


def _camera_record(camera_id: str, homography: Homography) -> dict:
    """One camera's entry of ``homographies.json``, the same in ``augment`` and ``homography``."""
    return {"camera_id": camera_id, "matrix_row_major": homography.row_major(), "provenance": homography.provenance}


def _cmd_augment(args) -> int:
    cfg = _load_run_config(args)
    scene = _parse_file(args.scene, scene_from_dict)
    if scene.image_paths is None:
        raise ValueError(f"{args.scene}: scene has no image_paths; generate with --with-images")
    rasters = [Path(args.scene).parent / name for name in scene.image_paths]
    limits = _perturbation(args, cfg)
    out = _out_dir(args)
    image_dir = out / "augmented"
    image_dir.mkdir(exist_ok=True)

    # Each camera is read, warped and written inside its own step, so at
    # most `workers` frames (and their warped copies) are held at once.
    def camera(index: int):
        cam = scene.cameras[index]
        view = augment_camera(cam, read_pnm(rasters[index]), scene.boxes, limits, index)
        write_pnm(image_dir / f"{cam.camera_id}.pgm", view.image)
        return view.pose, view.homography

    results = _map_forked(camera, rasters, args.workers)
    poses = []
    homographies = []
    for cam, (pose, homography) in zip(scene.cameras, results):
        poses.append({"camera_id": cam.camera_id, "pose": pose_to_dict(pose)})
        homographies.append(_camera_record(cam.camera_id, homography))
    (out / "poses.json").write_text(dumps_canonical({"schema_version": 1, "poses": poses}), encoding="utf-8")
    (out / "homographies.json").write_text(
        dumps_canonical({"schema_version": 1, "homographies": homographies}), encoding="utf-8"
    )
    print(out)
    return 0


def _cmd_homography(args) -> int:
    cfg = _load_run_config(args)
    scene = _parse_file(args.scene, scene_from_dict)
    limits = _perturbation(args, cfg)
    out = _out_dir(args)

    entries = []
    for index, cam in enumerate(scene.cameras):
        perturbed, pairs, applied = plan_camera(cam, scene.boxes, limits, index)
        ground_plane = ground_plane_homography(cam, perturbed)
        if len(pairs):
            residual = float(np.max(np.linalg.norm(applied.apply(pairs.source) - pairs.target, axis=1)))
        else:
            residual = None
        entries.append(
            {
                **_camera_record(cam.camera_id, applied),
                "num_pairs": len(pairs),
                "max_reprojection_residual_px": residual,
                "ground_plane_matrix_row_major": None if ground_plane is None else ground_plane.row_major(),
                "perturbed_pose": pose_to_dict(perturbed),
            }
        )
    path = out / "homographies.json"
    path.write_text(dumps_canonical({"schema_version": 1, "homographies": entries}), encoding="utf-8")
    print(path)
    return 0


def _given(args, *flags: str) -> list[str]:
    """The ``flags`` that were given on the command line."""
    return [flag for flag in flags if getattr(args, flag[2:].replace("-", "_")) is not None]


def _reject_with_dataset(args, *flags: str) -> None:
    """Exit 2 if ``--dataset`` is given with any of ``flags``, which set what it sets."""
    given = _given(args, *flags)
    if args.dataset and given:
        raise ValueError(f"--dataset cannot be combined with {', '.join(given)}")


def _depth_config(args) -> DepthDecouplingConfig:
    """c = sqrt(2) / ``--f-ref``; the depth range from ``--dataset`` or the flags, else the config's default.

    Only ``to-scale-invariant`` reads a depth range, so ``to-metric`` exits 2 on any range flag.
    """
    _reject_with_dataset(args, "--depth-min", "--depth-max")
    given = _given(args, "--dataset", "--depth-min", "--depth-max")
    if args.direction == "to-metric" and given:
        raise ValueError(f"--direction to-metric reads no depth range, got {', '.join(given)}")
    kwargs = {}
    if args.dataset:
        kwargs["metric_depth_range"] = DATASET_DEPTH_RANGES[args.dataset]
    elif args.depth_min is not None or args.depth_max is not None:
        if args.depth_min is None or args.depth_max is None:
            raise ValueError("--depth-min and --depth-max must be given together")
        kwargs["metric_depth_range"] = (args.depth_min, args.depth_max)
    c = math.sqrt(2.0) / args.f_ref if args.f_ref else 0.0
    if not 0.0 < c < math.inf:
        raise ValueError(f"--f-ref must give a positive, finite c = sqrt(2) / --f-ref, got {args.f_ref!r}")
    return DepthDecouplingConfig(reference_pixel_size=c, **kwargs)


def _cmd_depth_convert(args) -> int:
    cfg = _depth_config(args)
    intr = Intrinsics(fx=args.fx, fy=args.fy, px=0.0, py=0.0, width=1, height=1)
    if args.direction == "to-scale-invariant":
        converted = [metric_to_scale_invariant(v, intr, cfg) for v in args.values]
    else:
        converted = [scale_invariant_to_metric(v, intr, cfg) for v in args.values]
    print(
        dumps_canonical(
            {
                "direction": args.direction,
                "fx": args.fx,
                "fy": args.fy,
                "reference_pixel_size": cfg.reference_pixel_size,
                "values": list(args.values),
                "converted": converted,
            }
        ),
        end="",
    )
    return 0


def _cmd_bin_focal(args) -> int:
    _reject_with_dataset(args, "--alpha", "--beta", "--subintervals")
    flags = {"alpha": args.alpha, "beta": args.beta, "num_subintervals": args.subintervals}
    given = {name: value for name, value in flags.items() if value is not None}
    scheme = dataclasses.replace(DATASET_SCHEMES[args.dataset or "nuscenes"], **given)
    labels = [assign_label(scheme, focal) for focal in args.focals]
    print(
        dumps_canonical(
            {
                "thresholds": list(scheme.thresholds),
                "num_categories": scheme.num_categories,
                "focals": list(args.focals),
                "labels": labels,
            }
        ),
        end="",
    )
    return 0


def _format_report_table(report) -> str:
    rows = [
        ("mAP", report.m_ap),
        ("mATE", report.m_ate),
        ("mASE", report.m_ase),
        ("mAOE", report.m_aoe),
        ("NDS*", report.nds_star),
    ]
    lines = [f"{'metric':<10}{'value':>10}"]
    for name, value in rows:
        lines.append(f"{name:<10}{value:>10.4f}")
    for threshold, ap in sorted(report.per_threshold_ap.items()):
        lines.append(f"{'AP@' + format(threshold, 'g'):<10}{ap:>10.4f}")
    return "\n".join(lines)


def _read_text(path: str) -> str | None:
    """The text ``_load_json`` reads from ``path``; None where it cannot be read."""
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, ValueError):
        return None


def _load_tables(paths: tuple[str, str]) -> list:
    """``table_from_dict`` of the --gt and --pred files, parsed on two processes; an error in --gt is raised first.

    Step 0, a forked child, parses --gt whole and then --pred's records in
    its last (pred - gt) / 2 characters, after a cut between two of its
    records; step 1, this process, parses --pred's records before the cut.
    Where there is no cut (--pred is no larger than --gt, or holds no record
    gap there), step 1 parses all of --pred, and without ``os.fork`` both
    steps run here in turn.  The halves' tables are joined where both halves
    accept their text; where either declines, --pred is parsed whole (the
    exactness rule is in the ``scene`` module docstring).
    """
    gt, pred = paths
    try:
        tail = (os.path.getsize(pred) - os.path.getsize(gt)) // 2
    except OSError:
        tail = 0
    # Without os.fork both steps run here in turn, and step 0 would drop the text that step 1 cuts.
    text = _read_text(pred) if tail > 0 and hasattr(os, "fork") else None
    comma = None if text is None else records_cut(text, tail)

    def step(index: int):
        nonlocal text
        if comma is None:
            return _parse_file(paths[index], table_from_dict)
        if index:  # here: the records before the cut
            head, text = text[:comma], None  # drop the whole text once cut
            return head_records(head)
        rest, text = text[comma + 1 :], None
        return _parse_file(gt, table_from_dict), tail_records(rest)

    parts = _map_forked(step, paths, 2)
    if comma is None:
        return parts
    (gts, tail_part), head_part = parts
    if head_part is None or tail_part is None:
        return [gts, _parse_file(pred, table_from_dict)]
    return [gts, head_part.join(tail_part)]


def _cmd_evaluate(args) -> int:
    """Score --pred against --gt; the tables and errors are those of each file parsed whole (see ``_load_tables``)."""
    cfg = _load_run_config(args)
    gts, dets = _load_tables((args.gt, args.pred))
    report = evaluate(gts, dets, cfg.metrics)
    out = _out_dir(args)
    report_path = out / "metric_report.json"
    report_path.write_text(dumps_canonical(report.to_dict()), encoding="utf-8")
    print(_format_report_table(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="bevkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    common = {
        "--seed": {"type": int, "default": None, "help": "RNG seed (where --config is read, replaces its perturbation.seed)"},
        "--config": {"default": None, "help": "run-config JSON path"},
        "--output-dir": {"default": ".", "help": "directory for output files"},
    }

    def add_common(p, *flags):
        for flag in flags:
            p.add_argument(flag, **common[flag])

    p = sub.add_parser("gen-scene", help="generate a deterministic synthetic scene")
    add_common(p, "--seed", "--output-dir")
    p.add_argument("--cameras", type=int, default=6, choices=(5, 6))
    p.add_argument("--boxes", type=int, default=12)
    p.add_argument("--style", default="ring", help=f"rig layout, one of {RIG_STYLES}")
    p.add_argument("--with-images", action="store_true", help="also write pattern rasters")
    p.set_defaults(func=_cmd_gen_scene)

    p = sub.add_parser("augment", help="perturb poses and warp scene images")
    add_common(p, "--seed", "--config", "--output-dir")
    p.add_argument("--scene", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_augment)

    p = sub.add_parser("homography", help="fit and report per-camera homographies")
    add_common(p, "--seed", "--config", "--output-dir")
    p.add_argument("--scene", required=True)
    p.set_defaults(func=_cmd_homography)

    p = sub.add_parser("depth-convert", help="convert metric and scale-invariant depth")
    p.add_argument("--direction", required=True, choices=("to-scale-invariant", "to-metric"))
    p.add_argument("--fx", type=float, required=True)
    p.add_argument("--fy", type=float, required=True)
    p.add_argument("--f-ref", type=float, default=DEFAULT_REFERENCE_FOCAL, help="reference focal length defining c")
    p.add_argument("--dataset", choices=sorted(DATASET_DEPTH_RANGES), default=None)
    p.add_argument("--depth-min", type=float, default=None)
    p.add_argument("--depth-max", type=float, default=None)
    p.add_argument("--values", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_depth_convert)

    p = sub.add_parser("bin-focal", help="map focal lengths to pseudo-domain labels")
    p.add_argument("--alpha", type=float, default=None, help="lower focal edge (default: nuscenes')")
    p.add_argument("--beta", type=float, default=None, help="upper focal edge (default: nuscenes')")
    p.add_argument("--subintervals", type=int, default=None, help="sub-interval count (default: nuscenes')")
    p.add_argument("--dataset", choices=sorted(DATASET_SCHEMES), default=None)
    p.add_argument("--focals", type=float, nargs="+", required=True)
    p.set_defaults(func=_cmd_bin_focal)

    p = sub.add_parser("evaluate", help="score detections against ground truth")
    add_common(p, "--config", "--output-dir")
    p.add_argument("--gt", required=True)
    p.add_argument("--pred", required=True)
    p.add_argument("--workers", type=int, default=1, help="accepted for compatibility; has no effect")
    p.set_defaults(func=_cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand; the exception types caught here are bad input, reported as one ``error:`` line and exit 2.

    The subcommand runs with the cyclic garbage collector paused, and the
    caller's collector state is restored on every path; the children
    ``_map_forked`` starts inherit the pause.  What a subcommand builds
    (parsed JSON trees, numpy columns, frozen dataclasses) holds no cycles,
    so reference counting frees all of it, while the collector would scan
    the growing JSON trees again and again and free nothing.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"workers must be >= 1, got {args.workers}")
        return args.func(args)
    except (ValueError, TypeError, OverflowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if collecting:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
