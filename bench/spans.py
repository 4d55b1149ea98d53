"""Span recorder and the traced replays of the `augment` and `evaluate` commands.

Spans are recorded from outside bevkit, around its public calls: a replay
runs the same steps as the CLI command, in the same order and with the
same worker count, with a span around each call into a layer.  Spans and
counters are kept in memory and written out once, when the replay ends.
Counters computed after the invocation span closes (pair and pixel
ratios, byte counts, the separate matching pass) do not add to its time.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from pathlib import Path

import numpy as np

import bevkit.metrics as metrics_module
from bevkit.augment import MIN_PAIRS_FOR_FIT, Homography, PerturbationRange, collect_pairs, fit_homography, perturb_pose
from bevkit.metrics import MetricConfig, evaluate, match_detections
from bevkit.pnm import read_pnm, write_pnm
from bevkit.scene import dumps_canonical, pose_to_dict, records_from_dict, scene_from_dict
from bevkit.warp import warp_image
from geom import back_project


class Tracer:
    """Spans (name, start, end, parent, invocation) and per-invocation counters."""

    def __init__(self, invocation: int = 0) -> None:
        self.spans: list[dict] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.invocation = invocation
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._local.__dict__.setdefault("stack", [])
        if parent is None and stack:
            parent = stack[-1]
        with self._lock:
            span_id = len(self.spans)
            self.spans.append({})
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[span_id] = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "invocation": self.invocation,
            }

    def count(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(self, name: str, function):
        def traced(*args, **kwargs):
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    def dump(self, path: Path) -> None:
        data = {"spans": self.spans, "counters": dict(self.counters)}
        path.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _valid_ratio(matrix: np.ndarray, width: int, height: int) -> float:
    """Share of output pixels whose inverse map lands inside the source raster."""
    u, v = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
    x, y = back_project(matrix, u, v)
    return float(((x >= 0) & (x <= width - 1) & (y >= 0) & (y <= height - 1)).mean())


def replay_augment(tracer: Tracer, scene_path: Path, seed: int, workers: int, out: Path) -> None:
    """`bevkit augment --scene SCENE --seed SEED --workers W --output-dir OUT`, step by step."""
    with tracer.span("cli.augment") as invocation:
        with tracer.span("scene.load"):
            with open(scene_path, encoding="utf-8") as handle:
                scene = scene_from_dict(json.load(handle))
        images = []
        for name in scene.image_paths:
            with tracer.span("pnm.read"):
                images.append(read_pnm(scene_path.parent / name))
        limits = PerturbationRange(seed=seed)
        out.mkdir(parents=True, exist_ok=True)

        # Same per-camera steps as augment_scene, keyed [seed, index].
        def camera(index: int):
            cam, image = scene.cameras[index], images[index]
            with tracer.span("augment.camera", parent=invocation):
                rng = np.random.default_rng([limits.seed, index])
                with tracer.span("augment.perturb_pose"):
                    perturbed = perturb_pose(cam.pose, limits, rng)
                if perturbed == cam.pose:
                    return image, cam.pose, Homography(np.eye(3), provenance="analytic")
                with tracer.span("augment.collect_pairs"):
                    pairs = collect_pairs(cam, perturbed, scene.boxes)
                tracer.count("augment.anchors", 5 * len(scene.boxes))
                tracer.count("augment.pairs", len(pairs))
                if len(pairs) < MIN_PAIRS_FOR_FIT:
                    tracer.count("augment.fallbacks", 1)
                    return image, cam.pose, Homography.identity_fallback()
                with tracer.span("augment.fit_homography"):
                    homography = fit_homography(pairs)
                size = (cam.intrinsics.width, cam.intrinsics.height)
                with tracer.span("warp.warp_image"):
                    warped = warp_image(image, homography, size)
                tracer.count("warp.pixels", size[0] * size[1])
                return warped, perturbed, homography

        indices = range(len(scene.cameras))
        if workers == 1:
            views = [camera(i) for i in indices]
        else:
            with ThreadPoolExecutor(max_workers=workers) as pool:
                views = [future.result() for future in [pool.submit(camera, i) for i in indices]]

        image_dir = out / "augmented"
        image_dir.mkdir(exist_ok=True)
        poses, homographies = [], []
        for cam, (image, pose, homography) in zip(scene.cameras, views):
            with tracer.span("pnm.write"):
                write_pnm(image_dir / f"{cam.camera_id}.pgm", image)
            poses.append({"camera_id": cam.camera_id, "pose": pose_to_dict(pose)})
            homographies.append(
                {
                    "camera_id": cam.camera_id,
                    "matrix_row_major": homography.row_major(),
                    "provenance": homography.provenance,
                }
            )
        with tracer.span("scene.dump"):
            poses_text = dumps_canonical({"schema_version": 1, "poses": poses})
            homographies_text = dumps_canonical({"schema_version": 1, "homographies": homographies})
        (out / "poses.json").write_text(poses_text, encoding="utf-8")
        (out / "homographies.json").write_text(homographies_text, encoding="utf-8")

    tracer.count("scene.records", len(scene.boxes))
    read_bytes = sum((scene_path.parent / name).stat().st_size for name in scene.image_paths)
    written_bytes = sum(path.stat().st_size for path in image_dir.iterdir())
    tracer.count("pnm.bytes", read_bytes + written_bytes)
    ratios = [_valid_ratio(h.matrix, c.intrinsics.width, c.intrinsics.height) for c, (_, _, h) in zip(scene.cameras, views)]
    tracer.count("warp.valid_ratio", sum(ratios) / len(ratios))


def replay_evaluate(tracer: Tracer, gt_path: Path, pred_path: Path, workers: int, out: Path) -> None:
    """`bevkit evaluate --gt GT --pred PRED --workers W --output-dir OUT`, step by step.

    evaluate() is called once, as the CLI does; spans inside it come from
    wrapping the public metrics functions it calls.  A separate matching
    pass at the TP threshold, outside the invocation span, times one pass.
    """
    wrapped = ("match_detections", "average_precision", "tp_errors")
    originals = {name: getattr(metrics_module, name) for name in wrapped}
    for name in wrapped:
        setattr(metrics_module, name, tracer.wrap(f"metrics.{name}", originals[name]))
    try:
        with tracer.span("cli.evaluate"):
            loaded = []
            for path in (gt_path, pred_path):
                with tracer.span("scene.load"):
                    with open(path, encoding="utf-8") as handle:
                        loaded.append(records_from_dict(json.load(handle)))
            gts, dets = loaded
            cfg = MetricConfig()
            with tracer.span("metrics.evaluate"):
                report = evaluate(gts, dets, cfg, workers=workers)
            out.mkdir(parents=True, exist_ok=True)
            with tracer.span("scene.dump"):
                text = dumps_canonical(report.to_dict())
            (out / "metric_report.json").write_text(text, encoding="utf-8")
    finally:
        for name, function in originals.items():
            setattr(metrics_module, name, function)

    def kept(records):
        return [r for r in records if math.hypot(r.box.center[0], r.box.center[1]) <= cfg.range_limit]

    gts_kept, dets_kept = kept(gts), kept(dets)
    with tracer.span("metrics.match_detections.pass"):
        matches = match_detections(gts_kept, dets_kept, cfg.tp_threshold, workers=workers)
    per_sample: dict[str, list[int]] = defaultdict(lambda: [0, 0])
    for record in gts_kept:
        per_sample[record.sample_id][0] += 1
    for record in dets_kept:
        per_sample[record.sample_id][1] += 1
    candidates = sum(g * d for g, d in per_sample.values())
    tracer.count("scene.records", len(gts) + len(dets))
    tracer.count("metrics.candidate_pairs", candidates)
    tracer.count("metrics.matches", len(matches))
