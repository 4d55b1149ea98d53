"""Seeded input generator for the benchmark workloads.

The generator is the benchmark's own code: it writes JSON with the
standard library and PNM rasters by hand, and never calls bevkit, so a
change to bevkit's scene or pnm modules cannot change the load.  The same
seed gives byte-identical files.

Every input is single-class (``vehicle``) and no box has a zero extent.
Cross-class matching and degenerate fits are known defects that need
workloads of their own; these inputs keep every operation succeeding.

Besides writing the input files, each generator returns the realised
workload sizes, and the detection generator the records the expected
metric report is computed from.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from geom import bottom_anchors, camera_rotation, in_view, project

RIG_CAMERAS = 6
# Default perturbation half-widths of bevkit's PerturbationRange (radians);
# the oracle checks that every perturbed angle stays inside them.
PERTURB_LIMITS = {"yaw": 0.02, "pitch": 0.01, "roll": 0.02}

# Evaluation protocol constants of bevkit's default MetricConfig.
DISTANCE_THRESHOLDS = (0.5, 1.0, 2.0, 4.0)
TP_THRESHOLD = 2.0
RANGE_LIMIT = 50.0

EVAL_GT = 20000
EVAL_DETS = 40000
# 17001 kept ground truths: coprime with 10, so no recall tp / 17001 equals
# a point k / 100 of the AP grid and the expected AP has no ties to break.
EVAL_GT_OUTSIDE = 2999
EVAL_TRUE_POSITIVES = 15000
EVAL_FP_OUTSIDE = 3750


def dump_json(path: Path, data) -> None:
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def write_raster(path: Path, image: np.ndarray) -> None:
    magic = b"P5" if image.ndim == 2 else b"P6"
    height, width = image.shape[:2]
    path.write_bytes(magic + b"\n%d %d\n255\n" % (width, height) + image.tobytes())


# --- camera rigs -----------------------------------------------------------


def _rig(rng: np.random.Generator, width: int, height: int, focal: float) -> list[dict]:
    cameras = []
    for index in range(RIG_CAMERAS):
        yaw = 2.0 * math.pi * index / RIG_CAMERAS + float(rng.uniform(-0.01, 0.01))
        yaw = math.atan2(math.sin(yaw), math.cos(yaw))
        pitch = float(rng.uniform(-0.03, 0.0))
        roll = float(rng.uniform(-0.005, 0.005))
        # camera centre on a 1.5 m circle at 1.6 m height; t = -R @ centre
        centre = np.array([1.5 * math.cos(yaw), 1.5 * math.sin(yaw), 1.6])
        t = -(camera_rotation(yaw, pitch, roll) @ centre)
        f = focal * float(rng.uniform(0.99, 1.01))
        cameras.append(
            {
                "camera_id": f"cam_{index:02d}",
                "intrinsics": {
                    "fx": f,
                    "fy": f,
                    "px": width / 2.0 + float(rng.uniform(-2.0, 2.0)),
                    "py": height / 2.0 + float(rng.uniform(-2.0, 2.0)),
                    "width": width,
                    "height": height,
                },
                "pose": {"yaw": yaw, "pitch": pitch, "roll": roll, "t": [float(v) for v in t]},
            }
        )
    return cameras


def _ground_boxes(rng: np.random.Generator, count: int, r_min: float, r_max: float) -> list[dict]:
    """Boxes on the ground, Latin-hypercube spread over bearing and radius.

    Stratifying both coordinates keeps the number of boxes each camera
    sees, and so the pair count, nearly the same from seed to seed.
    """
    bearing = -math.pi + 2.0 * math.pi * (np.arange(count) + rng.uniform(size=count)) / count
    radius = r_min + (r_max - r_min) * (rng.permutation(count) + rng.uniform(size=count)) / count
    dims = np.column_stack(
        [rng.uniform(3.8, 5.2, count), rng.uniform(1.6, 2.1, count), rng.uniform(1.4, 1.9, count)]
    )
    yaw = rng.uniform(-math.pi + 0.01, math.pi - 0.01, count)
    boxes = []
    for i in range(count):
        boxes.append(
            {
                "center": [
                    float(radius[i] * math.cos(bearing[i])),
                    float(radius[i] * math.sin(bearing[i])),
                    float(dims[i, 2] / 2.0),
                ],
                "dims": [float(v) for v in dims[i]],
                "yaw": float(yaw[i]),
                "class_id": "vehicle",
            }
        )
    return boxes


def covisible_pairs(camera: dict, boxes: list[dict]) -> int:
    """Anchors inside the image with the unperturbed pose (pairs, to within edge effects)."""
    pixels, depth = project(camera["intrinsics"], camera["pose"], bottom_anchors(boxes))
    return int(in_view(camera["intrinsics"], pixels, depth).sum())


def make_rig(root: Path, seed: int, kind: str) -> dict:
    """Write scene.json and one raster per camera; return the realised sizes."""
    if kind == "rig-hires":
        width, height, channels, focal, n_boxes = 1600, 900, 3, 1260.0, 200
    elif kind == "rig-crowded":
        width, height, channels, focal, n_boxes = 704, 256, 1, 600.0, 1000
    else:
        raise ValueError(kind)
    rng = np.random.default_rng([seed, 1])
    cameras = _rig(rng, width, height, focal)
    boxes = _ground_boxes(rng, n_boxes, 10.0, 45.0)
    suffix = "ppm" if channels == 3 else "pgm"
    paths = []
    (root / "images").mkdir(parents=True, exist_ok=True)
    for cam in cameras:
        shape = (height, width, channels) if channels == 3 else (height, width)
        image = rng.integers(0, 256, size=shape, dtype=np.uint8)
        name = f"images/{cam['camera_id']}.{suffix}"
        write_raster(root / name, image)
        paths.append(name)
    scene = {
        "schema_version": 1,
        "scene_id": f"bench-{kind}-{seed}",
        "cameras": cameras,
        "boxes": boxes,
        "image_paths": paths,
    }
    dump_json(root / "scene.json", scene)
    pairs = [covisible_pairs(cam, boxes) for cam in cameras]
    sizes = {
        "cameras": RIG_CAMERAS,
        "image": f"{width}x{height}x{channels}",
        "boxes": n_boxes,
        "anchors_per_camera": 5 * n_boxes,
        "pairs_per_camera": pairs,
    }
    return {"sizes": sizes, "frames": RIG_CAMERAS}


# --- detection sets ---------------------------------------------------------


def _lattice(spacing: float, r_min: float, r_max: float) -> np.ndarray:
    steps = int(r_max // spacing) + 1
    grid = np.arange(-steps, steps + 1) * spacing
    nodes = np.array([(x, y) for x in grid for y in grid])
    radius = np.hypot(nodes[:, 0], nodes[:, 1])
    return nodes[(radius >= r_min) & (radius <= r_max)]


def _tp_offsets(rng: np.random.Generator, count: int) -> np.ndarray:
    """Ground offsets below 3 m, kept 2 mm away from every matching threshold."""
    distance = rng.uniform(0.05, 2.95, count)
    near = np.zeros(count, dtype=bool)
    for t in DISTANCE_THRESHOLDS:
        near |= np.abs(distance - t) < 0.002
    distance[near] += 0.01
    angle = rng.uniform(-math.pi, math.pi, count)
    return np.column_stack([distance * np.cos(angle), distance * np.sin(angle)])


def _box(x: float, y: float, dims, yaw: float, sample: str, score: float | None = None) -> dict:
    record = {
        "sample_id": sample,
        "center": [float(x), float(y), float(dims[2] / 2.0)],
        "dims": [float(v) for v in dims],
        "yaw": float(yaw),
        "class_id": "vehicle",
    }
    if score is not None:
        record["score"] = float(score)
    return record


def make_eval(root: Path, seed: int, kind: str) -> dict:
    """Write gt.json and pred.json; return the realised sizes and the records.

    Ground truths sit on a 10 m lattice jittered by at most 1 m per axis,
    so two ground truths are at least 7.1 m apart.  A true-positive
    detection lies within 3 m of its own ground truth (so at least 4.1 m
    from every other one), and a false positive lies at least 4.5 m from
    every ground truth of its sample, so no false positive matches at any
    threshold.  Records inside the range limit sit within 49.5 m and those
    outside beyond 50.5 m.  Matching, AP and the TP errors are then known
    by construction.
    """
    samples = {"eval-crowded": 500, "eval-sparse": 10000}[kind]
    gt_per, det_per = EVAL_GT // samples, EVAL_DETS // samples
    rng = np.random.default_rng([seed, 2])
    inside_nodes = _lattice(10.0, 0.0, 50.0 - 3.0 - 1.5)
    outside_nodes = _lattice(10.0, 50.0 + 3.0 + 1.5, 75.0)

    gt_outside = np.zeros(EVAL_GT, dtype=bool)
    gt_outside[rng.permutation(EVAL_GT)[:EVAL_GT_OUTSIDE]] = True
    has_tp = np.zeros(EVAL_GT, dtype=bool)
    has_tp[rng.permutation(EVAL_GT)[:EVAL_TRUE_POSITIVES]] = True
    gt_xy = np.empty((EVAL_GT, 2))
    for s in range(samples):
        block = slice(s * gt_per, (s + 1) * gt_per)
        outside = gt_outside[block]
        xy = np.empty((gt_per, 2))
        xy[~outside] = inside_nodes[rng.choice(len(inside_nodes), int((~outside).sum()), replace=False)]
        xy[outside] = outside_nodes[rng.choice(len(outside_nodes), int(outside.sum()), replace=False)]
        gt_xy[block] = xy + rng.uniform(-1.0, 1.0, (gt_per, 2))
    gt_dims = np.column_stack(
        [rng.uniform(3.8, 5.2, EVAL_GT), rng.uniform(1.6, 2.1, EVAL_GT), rng.uniform(1.4, 1.9, EVAL_GT)]
    )
    gt_yaw = rng.uniform(-math.pi + 0.5, math.pi - 0.5, EVAL_GT)
    sample_ids = [f"s{s:05d}" for s in range(samples)]
    gt_sample = np.repeat(np.arange(samples), gt_per)

    # true positives: one per chosen ground truth
    tp_gt = np.flatnonzero(has_tp)
    tp_xy = gt_xy[tp_gt] + _tp_offsets(rng, len(tp_gt))
    tp_dims = gt_dims[tp_gt] * rng.uniform(0.85, 1.15, (len(tp_gt), 3))
    tp_yaw = gt_yaw[tp_gt] + rng.uniform(-0.4, 0.4, len(tp_gt))

    # false positives fill every sample up to det_per detections
    tp_per_sample = np.bincount(gt_sample[tp_gt], minlength=samples)
    fp_sample = np.repeat(np.arange(samples), det_per - tp_per_sample)
    n_fp = len(fp_sample)
    fp_outside = np.zeros(n_fp, dtype=bool)
    fp_outside[rng.permutation(n_fp)[:EVAL_FP_OUTSIDE]] = True
    fp_xy = np.empty((n_fp, 2))
    fp_start = np.concatenate([[0], np.cumsum(det_per - tp_per_sample)])
    for s in range(samples):
        gts = gt_xy[s * gt_per : (s + 1) * gt_per]
        for i in range(fp_start[s], fp_start[s + 1]):
            while True:
                if fp_outside[i]:
                    r, a = rng.uniform(50.5, 75.0), rng.uniform(-math.pi, math.pi)
                else:
                    r, a = 49.5 * math.sqrt(rng.uniform()), rng.uniform(-math.pi, math.pi)
                x, y = r * math.cos(a), r * math.sin(a)
                if np.min(np.hypot(gts[:, 0] - x, gts[:, 1] - y)) >= 4.5:
                    break
            fp_xy[i] = (x, y)
    fp_dims = np.column_stack(
        [rng.uniform(3.8, 5.2, n_fp), rng.uniform(1.6, 2.1, n_fp), rng.uniform(1.4, 1.9, n_fp)]
    )
    fp_yaw = rng.uniform(-math.pi + 0.1, math.pi - 0.1, n_fp)

    # distinct scores, true positives tending to rank higher
    latent = np.concatenate([rng.uniform(0.25, 1.0, len(tp_gt)), rng.uniform(0.0, 0.75, n_fp)])
    score = np.empty(len(latent))
    score[np.argsort(latent, kind="stable")] = (np.arange(len(latent)) + 1.0) / (len(latent) + 1.0)

    gt_records = [
        _box(gt_xy[i, 0], gt_xy[i, 1], gt_dims[i], gt_yaw[i], sample_ids[gt_sample[i]]) for i in range(EVAL_GT)
    ]
    det_records = [
        _box(tp_xy[k, 0], tp_xy[k, 1], tp_dims[k], tp_yaw[k], sample_ids[gt_sample[g]], score[k])
        for k, g in enumerate(tp_gt)
    ] + [
        _box(fp_xy[k, 0], fp_xy[k, 1], fp_dims[k], fp_yaw[k], sample_ids[fp_sample[k]], score[len(tp_gt) + k])
        for k in range(n_fp)
    ]
    det_gt = list(tp_gt) + [-1] * n_fp
    order = rng.permutation(len(det_records))
    det_records = [det_records[i] for i in order]
    det_gt = [int(det_gt[i]) for i in order]
    dump_json(root / "gt.json", {"schema_version": 1, "records": gt_records})
    dump_json(root / "pred.json", {"schema_version": 1, "records": det_records})

    gt_kept = ~gt_outside
    det_kept = [math.hypot(*d["center"][:2]) <= RANGE_LIMIT for d in det_records]
    kept_gt_per_sample = np.bincount(gt_sample[gt_kept], minlength=samples)
    kept_det_per_sample = np.zeros(samples, dtype=np.int64)
    index = {sid: s for s, sid in enumerate(sample_ids)}
    for d, kept in zip(det_records, det_kept):
        if kept:
            kept_det_per_sample[index[d["sample_id"]]] += 1
    sizes = {
        "samples": samples,
        "gt_records": EVAL_GT,
        "det_records": len(det_records),
        "records": EVAL_GT + len(det_records),
        "gt_in_range": int(gt_kept.sum()),
        "det_in_range": int(sum(det_kept)),
        "true_positives": len(tp_gt),
        "candidate_pairs": int((kept_gt_per_sample * kept_det_per_sample).sum()),
    }
    return {"sizes": sizes, "detections": len(det_records), "records": (gt_records, det_records, det_gt)}


def make_inputs(root: Path, seed: int, workload: str) -> dict:
    root.mkdir(parents=True, exist_ok=True)
    if workload.startswith("rig-"):
        return make_rig(root, seed, workload)
    return make_eval(root, seed, workload)
