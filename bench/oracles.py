"""Output oracles: every timed invocation's output is checked against these.

The checks use the benchmark's own geometry, bilinear sampling and AP
arithmetic, never bevkit's, and run outside the timed region.  Each check
returns a list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from pathlib import Path

import numpy as np

from geom import back_project, bottom_anchors, in_view, project
from inputs import DISTANCE_THRESHOLDS, RANGE_LIMIT, TP_THRESHOLD

HOMOGRAPHY_TOL_PX = 1e-3
GRAY_TOL = 1
PIXEL_SAMPLES = 2048
REPORT_TOL = 1e-9
# Samples whose source point lies this close to the raster border are
# skipped: there the in/out decision depends on rounding.
EDGE_MARGIN = 0.01
_HEADER_FIELD = re.compile(rb"\s*(\d+)")


def read_raster(path: Path) -> np.ndarray:
    data = path.read_bytes()
    magic, fields, offset = data[:2], [], 2
    for _ in range(3):
        match = _HEADER_FIELD.match(data, offset)
        if match is None:
            raise ValueError(f"{path}: bad PNM header")
        fields.append(int(match.group(1)))
        offset = match.end()
    width, height, maxval = fields
    if magic not in (b"P5", b"P6") or maxval != 255:
        raise ValueError(f"{path}: not an 8-bit binary PNM")
    channels = 3 if magic == b"P6" else 1
    raster = data[offset + 1 :]
    if len(raster) != width * height * channels:
        raise ValueError(f"{path}: {len(raster)} raster bytes for {width}x{height}x{channels}")
    pixels = np.frombuffer(raster, dtype=np.uint8)
    return pixels.reshape(height, width, 3) if channels == 3 else pixels.reshape(height, width)


def _wrapped(a: float, b: float) -> float:
    return abs(math.atan2(math.sin(a - b), math.cos(a - b)))


def _bilinear(image: np.ndarray, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    x0 = np.floor(x).astype(np.int64)
    y0 = np.floor(y).astype(np.int64)
    fx, fy = x - x0, y - y0
    if image.ndim == 3:
        fx, fy = fx[:, None], fy[:, None]
    def at(rows, cols):
        return image[rows, cols].astype(np.float64)

    top = at(y0, x0) * (1.0 - fx) + at(y0, x0 + 1) * fx
    bottom = at(y0 + 1, x0) * (1.0 - fx) + at(y0 + 1, x0 + 1) * fx
    return top * (1.0 - fy) + bottom * fy


class RigOracle:
    """Checks an `augment` output directory against the generated scene."""

    def __init__(self, in_root: Path, seed: int, limits: dict):
        self.scene = json.loads((in_root / "scene.json").read_text(encoding="utf-8"))
        # Rasters are read one at a time during a check, so the oracle adds
        # little to the child's peak memory.
        self.image_paths = [in_root / p for p in self.scene["image_paths"]]
        self.anchors = bottom_anchors(self.scene["boxes"])
        self.seed = seed
        self.limits = limits

    def check(self, out: Path) -> list[str]:
        problems: list[str] = []
        homographies = json.loads((out / "homographies.json").read_text(encoding="utf-8"))["homographies"]
        poses = json.loads((out / "poses.json").read_text(encoding="utf-8"))["poses"]
        cameras = self.scene["cameras"]
        if len(homographies) != len(cameras) or len(poses) != len(cameras):
            return [f"expected {len(cameras)} cameras, got {len(homographies)} homographies, {len(poses)} poses"]
        for index, cam in enumerate(cameras):
            name = cam["camera_id"]
            entry, pose = homographies[index], poses[index]["pose"]
            if entry["camera_id"] != name or poses[index]["camera_id"] != name:
                problems.append(f"{name}: camera order differs")
                continue
            if entry["provenance"] != "fitted":
                problems.append(f"{name}: provenance {entry['provenance']!r}, expected 'fitted'")
            matrix = np.array(entry["matrix_row_major"], dtype=float).reshape(3, 3)
            problems += self._check_pose(name, cam["pose"], pose)
            problems += self._check_homography(name, cam, pose, matrix)
            problems += self._check_raster(name, index, out / "augmented" / f"{name}.pgm", matrix)
        return problems

    def _check_pose(self, name: str, original: dict, perturbed: dict) -> list[str]:
        problems = []
        for angle, limit in self.limits.items():
            if _wrapped(perturbed[angle], original[angle]) > limit + 1e-12:
                problems.append(f"{name}: {angle} offset beyond {limit}")
        if perturbed["t"] != original["t"]:
            problems.append(f"{name}: translation changed")
        return problems

    def _check_homography(self, name: str, cam: dict, perturbed: dict, matrix: np.ndarray) -> list[str]:
        intr = cam["intrinsics"]
        source, depth = project(intr, cam["pose"], self.anchors)
        target, depth_hat = project(intr, perturbed, self.anchors)
        visible = in_view(intr, source, depth) & in_view(intr, target, depth_hat)
        if visible.sum() < 4:
            return [f"{name}: only {int(visible.sum())} co-visible anchors"]
        mapped = np.column_stack([source[visible], np.ones(int(visible.sum()))]) @ matrix.T
        error = np.abs(mapped[:, :2] / mapped[:, 2:3] - target[visible]).max()
        if not error <= HOMOGRAPHY_TOL_PX:
            return [f"{name}: homography misses anchor projections by {error:.3g} px"]
        return []

    def _check_raster(self, name: str, index: int, path: Path, matrix: np.ndarray) -> list[str]:
        source = read_raster(self.image_paths[index])
        try:
            warped = read_raster(path)
        except (OSError, ValueError) as exc:
            return [f"{name}: {exc}"]
        if warped.shape != source.shape or warped.dtype != source.dtype:
            return [f"{name}: raster {warped.shape} {warped.dtype}, expected {source.shape} {source.dtype}"]
        height, width = source.shape[:2]
        rng = np.random.default_rng([self.seed, 3, index])
        u = rng.integers(0, width, PIXEL_SAMPLES)
        v = rng.integers(0, height, PIXEL_SAMPLES)
        x, y = back_project(matrix, u.astype(np.float64), v.astype(np.float64))
        inside = (x >= EDGE_MARGIN) & (x <= width - 1 - EDGE_MARGIN) & (y >= EDGE_MARGIN) & (y <= height - 1 - EDGE_MARGIN)
        outside = (x < -EDGE_MARGIN) | (x > width - 1 + EDGE_MARGIN) | (y < -EDGE_MARGIN) | (y > height - 1 + EDGE_MARGIN)
        expected = np.rint(_bilinear(source, x[inside], y[inside]))
        got = warped[v[inside], u[inside]].astype(np.float64)
        worst_inside = float(np.abs(got - expected).max()) if inside.any() else 0.0
        worst_outside = float(warped[v[outside], u[outside]].max()) if outside.any() else 0.0
        if inside.sum() < PIXEL_SAMPLES // 2:
            return [f"{name}: only {int(inside.sum())} sampled pixels map inside the source"]
        if worst_inside > GRAY_TOL or worst_outside > GRAY_TOL:
            return [f"{name}: sampled pixels off by {worst_inside:g} inside, {worst_outside:g} outside"]
        return []


def _ap_101(flags: list[bool], n_gt: int, recall_floor: float = 0.1, precision_floor: float = 0.1) -> float:
    """Interpolated AP on the 101-point recall grid, in exact integer recall steps."""
    cumulative, best = [], []
    tp = 0
    for rank, flag in enumerate(flags, start=1):
        tp += flag
        cumulative.append(tp)
        best.append(tp / rank)
    for i in range(len(best) - 2, -1, -1):
        best[i] = max(best[i], best[i + 1])
    start = round(100 * recall_floor) + 1
    total = 0.0
    for k in range(start, 101):
        first = bisect.bisect_left(cumulative, -(-k * n_gt // 100))
        precision = best[first] if first < len(best) else 0.0
        total += max(0.0, precision - precision_floor)
    return min(1.0, max(0.0, total / (101 - start) / (1.0 - precision_floor)))


def _iou_aligned(a: list[float], b: list[float]) -> float:
    overlap = min(a[0], b[0]) * min(a[1], b[1]) * min(a[2], b[2])
    return overlap / (a[0] * a[1] * a[2] + b[0] * b[1] * b[2] - overlap)


def expected_report(gts: list[dict], dets: list[dict], det_gt: list[int]) -> dict:
    """The metric report the generated layout implies, keyed like metric_report.json."""

    def in_range(record: dict) -> bool:
        return math.hypot(record["center"][0], record["center"][1]) <= RANGE_LIMIT

    n_gt = sum(in_range(g) for g in gts)
    kept = [i for i, d in enumerate(dets) if in_range(d)]
    kept.sort(key=lambda i: -dets[i]["score"])
    if len({dets[i]["score"] for i in kept}) != len(kept):
        raise ValueError("generated scores must be distinct")
    distance = {}
    for i in kept:
        g = det_gt[i]
        if g >= 0 and in_range(gts[g]):
            dx = dets[i]["center"][0] - gts[g]["center"][0]
            dy = dets[i]["center"][1] - gts[g]["center"][1]
            distance[i] = math.hypot(dx, dy)
    per_threshold_ap, counts = {}, {"ground_truths": n_gt, "detections": len(kept)}
    for t in DISTANCE_THRESHOLDS:
        flags = [i in distance and distance[i] < t for i in kept]
        per_threshold_ap[repr(t)] = _ap_101(flags, n_gt)
        counts[f"matches@{t:g}"] = sum(flags)
    tp = [i for i in kept if i in distance and distance[i] < TP_THRESHOLD]
    m_ate = sum(distance[i] for i in tp) / len(tp)
    m_ase = sum(1.0 - _iou_aligned(gts[det_gt[i]]["dims"], dets[i]["dims"]) for i in tp) / len(tp)
    m_aoe = sum(_wrapped(gts[det_gt[i]]["yaw"], dets[i]["yaw"]) for i in tp) / len(tp)
    m_ap = sum(per_threshold_ap.values()) / len(per_threshold_ap)
    nds = (3.0 * m_ap + sum(1.0 - min(1.0, e) for e in (m_ate, m_ase, m_aoe))) / 6.0
    return {
        "mAP": m_ap,
        "mATE": m_ate,
        "mASE": m_ase,
        "mAOE": m_aoe,
        "NDS_star": nds,
        "per_threshold_ap": per_threshold_ap,
        "match_counts": counts,
    }


class EvalOracle:
    """Checks an `evaluate` output directory against the expected report."""

    def __init__(self, expected: dict):
        self.expected = expected

    def check(self, out: Path) -> list[str]:
        report = json.loads((out / "metric_report.json").read_text(encoding="utf-8"))
        problems = []
        if report.get("match_counts") != self.expected["match_counts"]:
            problems.append(f"match_counts {report.get('match_counts')} != {self.expected['match_counts']}")
        for key in ("mAP", "mATE", "mASE", "mAOE", "NDS_star"):
            if not abs(report.get(key, math.nan) - self.expected[key]) <= REPORT_TOL:
                problems.append(f"{key} {report.get(key)} != {self.expected[key]}")
        got_ap = report.get("per_threshold_ap", {})
        for t, ap in self.expected["per_threshold_ap"].items():
            if not abs(got_ap.get(t, math.nan) - ap) <= REPORT_TOL:
                problems.append(f"AP@{t} {got_ap.get(t)} != {ap}")
        return problems
