"""Center-distance detection metrics: AP, TP errors, and the NDS* aggregate.

Matching uses ground-plane center distance instead of IoU: detections are
visited in descending score and greedily claim the nearest unmatched
ground truth of the same sample within the distance threshold.  Average
precision integrates the interpolated precision-recall curve on a
101-point recall grid above configurable recall and precision floors.
True-positive errors (translation, scale, orientation) are plain means
over the matches at a single threshold, and the summary score is

    NDS* = (3 * mAP + sum over the three errors of (1 - min(1, err))) / 6.

Evaluation is single-threaded: each sample's detection x ground-truth
distance table is computed once and matched at every threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .boxes import Box3D

__all__ = [
    "UndefinedAPError",
    "DetectionRecord",
    "MetricConfig",
    "MetricReport",
    "Match",
    "ground_distance",
    "aligned_iou",
    "yaw_difference",
    "match_detections",
    "average_precision",
    "tp_errors",
    "nds_star",
    "evaluate",
]


class UndefinedAPError(ValueError):
    """Average precision is undefined without ground truths."""


@dataclass(frozen=True)
class DetectionRecord:
    """A box tied to the sample (frame) it was observed in."""

    box: Box3D
    sample_id: str

    def __post_init__(self) -> None:
        if not isinstance(self.sample_id, str) or not self.sample_id:
            raise ValueError(f"sample_id must be a non-empty string, got {self.sample_id!r}")


@dataclass(frozen=True)
class MetricConfig:
    """Evaluation protocol constants.

    Defaults: AP at 0.5/1/2/4 m matching thresholds, TP errors at 2 m,
    boxes kept within 50 m ground-plane range, and 0.1 recall/precision
    floors under the AP integral.
    """

    distance_thresholds: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    tp_threshold: float = 2.0
    range_limit: float = 50.0
    recall_floor: float = 0.1
    precision_floor: float = 0.1

    def __post_init__(self) -> None:
        thresholds = tuple(float(t) for t in self.distance_thresholds)
        if not thresholds or any(t <= 0.0 for t in thresholds):
            raise ValueError(f"distance thresholds must be positive, got {thresholds!r}")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"distance thresholds must be ascending, got {thresholds!r}")
        object.__setattr__(self, "distance_thresholds", thresholds)
        object.__setattr__(self, "tp_threshold", float(self.tp_threshold))
        if self.tp_threshold not in thresholds:
            raise ValueError(f"tp_threshold {self.tp_threshold} not among {thresholds!r}")
        if self.range_limit <= 0.0:
            raise ValueError(f"range_limit must be positive, got {self.range_limit!r}")
        for name in ("recall_floor", "precision_floor"):
            value = float(getattr(self, name))
            if not (0.0 <= value < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {value!r}")
            object.__setattr__(self, name, value)


class Match(NamedTuple):
    det_index: int
    gt_index: int
    distance: float


class TPErrors(NamedTuple):
    m_ate: float
    m_ase: float
    m_aoe: float


@dataclass(frozen=True)
class MetricReport:
    m_ap: float
    m_ate: float
    m_ase: float
    m_aoe: float
    nds_star: float
    per_threshold_ap: dict[float, float]
    match_counts: dict[str, int]

    def __post_init__(self) -> None:
        for name in ("m_ap", "nds_star"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        recomputed = nds_star(self.m_ap, self.m_ate, self.m_ase, self.m_aoe)
        if abs(recomputed - self.nds_star) > 1e-9:
            raise ValueError(
                f"nds_star {self.nds_star!r} inconsistent with its inputs (expected {recomputed!r})"
            )

    def to_dict(self) -> dict:
        return {
            "schema_version": 1,
            "mAP": self.m_ap,
            "mATE": self.m_ate,
            "mASE": self.m_ase,
            "mAOE": self.m_aoe,
            "NDS_star": self.nds_star,
            "per_threshold_ap": {repr(t): ap for t, ap in sorted(self.per_threshold_ap.items())},
            "match_counts": dict(sorted(self.match_counts.items())),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MetricReport":
        return cls(
            m_ap=float(data["mAP"]),
            m_ate=float(data["mATE"]),
            m_ase=float(data["mASE"]),
            m_aoe=float(data["mAOE"]),
            nds_star=float(data["NDS_star"]),
            per_threshold_ap={float(t): float(ap) for t, ap in data["per_threshold_ap"].items()},
            match_counts={str(k): int(v) for k, v in data["match_counts"].items()},
        )


def ground_distance(a: Box3D, b: Box3D) -> float:
    """Euclidean distance between box centers on the ground plane."""
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])


def aligned_iou(a: Box3D, b: Box3D) -> float:
    """Volumetric IoU after aligning centers and yaw, so only size matters.

    The overlap box has the per-axis minimum extents; degenerate pairs
    with zero union count as perfectly overlapping.
    """
    overlap = math.prod(min(da, db) for da, db in zip(a.dims, b.dims))
    union = a.volume() + b.volume() - overlap
    if union <= 0.0:
        return 1.0
    return overlap / union


def yaw_difference(a: Box3D, b: Box3D) -> float:
    """Smallest absolute yaw difference on the full circle, in [0, pi]."""
    delta = abs(a.yaw - b.yaw)
    return min(delta, 2.0 * math.pi - delta)


def _score_order(dets: Sequence[DetectionRecord]) -> list[int]:
    """Deterministic processing order: score desc, ties by (sample_id, input index)."""
    for index, det in enumerate(dets):
        if det.box.score is None:
            raise ValueError(f"detection {index} has no score")
    return sorted(range(len(dets)), key=lambda i: (-dets[i].box.score, dets[i].sample_id, i))


def _greedy_matches(
    gts: Sequence[DetectionRecord],
    dets: Sequence[DetectionRecord],
    thresholds: Sequence[float],
) -> tuple[list[int], list[dict[int, Match]]]:
    """Score order of ``dets`` and, per threshold, its matches keyed by detection index.

    Samples are visited one at a time: each sample's detection x ground-truth
    distance table is computed once, shared by every threshold, and dropped
    before the next sample, so only one table is ever held.
    """
    order = _score_order(dets)
    dets_by_sample: dict[str, list[int]] = {}
    for det_index in order:
        dets_by_sample.setdefault(dets[det_index].sample_id, []).append(det_index)
    gts_by_sample: dict[str, list[int]] = {}
    for gt_index, gt in enumerate(gts):
        gts_by_sample.setdefault(gt.sample_id, []).append(gt_index)

    matched: list[dict[int, Match]] = [{} for _ in thresholds]
    for sample_id, det_indices in dets_by_sample.items():
        gt_indices = gts_by_sample.get(sample_id, [])
        table = [[ground_distance(dets[d].box, gts[g].box) for g in gt_indices] for d in det_indices]
        for threshold, by_det in zip(thresholds, matched):
            unmatched = list(range(len(gt_indices)))
            for det_index, row in zip(det_indices, table):
                best = -1
                best_distance = math.inf
                for column in unmatched:
                    distance = row[column]
                    if distance < threshold and distance < best_distance:
                        best_distance = distance
                        best = column
                if best >= 0:
                    unmatched.remove(best)
                    by_det[det_index] = Match(det_index, gt_indices[best], best_distance)
    return order, matched


def match_detections(
    gts: Sequence[DetectionRecord],
    dets: Sequence[DetectionRecord],
    threshold: float,
    workers: int = 1,
) -> list[Match]:
    """Greedy score-ordered matching by ground-plane center distance.

    A detection claims the nearest unmatched ground truth of its own
    sample at strictly less than ``threshold`` meters; each ground truth
    is claimed at most once.  Equidistant candidates resolve to the lower
    ground-truth input index.  The result is in detection processing
    order.  ``workers`` is accepted for compatibility and has no effect.
    """
    order, (by_det,) = _greedy_matches(gts, dets, (threshold,))
    return [by_det[det_index] for det_index in order if det_index in by_det]


def _precision_area(
    tp_flags: Sequence[bool], num_gts: int, recall_floor: float, precision_floor: float
) -> float:
    """AP integral over true-positive flags given in detection processing order."""
    if not tp_flags:
        return 0.0
    grid = np.linspace(0.0, 1.0, 101)
    start = int(round(100 * recall_floor)) + 1
    flags = np.array(tp_flags, dtype=float)
    tp_cum = np.cumsum(flags)
    fp_cum = np.cumsum(1.0 - flags)
    recall = tp_cum / num_gts
    precision = tp_cum / (tp_cum + fp_cum)

    # best precision at recall >= r, per grid point
    right_max = np.maximum.accumulate(precision[::-1])[::-1]
    insert = np.searchsorted(recall, grid, side="left")
    grid_precision = np.where(insert < len(recall), right_max[np.minimum(insert, len(recall) - 1)], 0.0)

    clipped = np.clip(grid_precision[start:] - precision_floor, 0.0, None)
    ap = float(np.mean(clipped)) / (1.0 - precision_floor)
    return min(1.0, max(0.0, ap))


def average_precision(
    gts: Sequence[DetectionRecord],
    dets: Sequence[DetectionRecord],
    threshold: float,
    recall_floor: float = 0.1,
    precision_floor: float = 0.1,
) -> float:
    """AP on the 101-point recall grid above the recall/precision floors.

    Precision at each grid recall is interpolated as the maximum precision
    at any recall to the right.  The grid bin at exactly the recall floor
    is excluded, and the clipped precision mass is rescaled by
    1 / (1 - precision_floor) so a perfect detector scores 1.

    Raises UndefinedAPError when there are no ground truths.
    """
    if not gts:
        raise UndefinedAPError(f"no ground truths at threshold {threshold}")
    order, (by_det,) = _greedy_matches(gts, dets, (threshold,))
    return _precision_area([i in by_det for i in order], len(gts), recall_floor, precision_floor)


def tp_errors(matched_boxes: Sequence[tuple[Box3D, Box3D]]) -> TPErrors:
    """Mean translation / scale / orientation errors over matched (gt, det) pairs.

    Translation is ground-plane center distance (meters), scale is
    1 - aligned_iou, orientation is the wrapped absolute yaw difference
    (radians).  With no matches each error defaults to 1.
    """
    if not matched_boxes:
        return TPErrors(1.0, 1.0, 1.0)
    translation = [ground_distance(gt, det) for gt, det in matched_boxes]
    scale = [1.0 - aligned_iou(gt, det) for gt, det in matched_boxes]
    orientation = [yaw_difference(gt, det) for gt, det in matched_boxes]
    n = len(matched_boxes)
    return TPErrors(sum(translation) / n, sum(scale) / n, sum(orientation) / n)


def nds_star(m_ap: float, m_ate: float, m_ase: float, m_aoe: float) -> float:
    """Aggregate score from mAP and the three TP errors, each clamped at 1."""
    if not (0.0 <= m_ap <= 1.0):
        raise ValueError(f"mAP must be in [0, 1], got {m_ap!r}")
    for name, value in (("mATE", m_ate), ("mASE", m_ase), ("mAOE", m_aoe)):
        if value < 0.0 or not math.isfinite(value):
            raise ValueError(f"{name} must be a finite non-negative error, got {value!r}")
    recovered = (1.0 - min(1.0, m_ate)) + (1.0 - min(1.0, m_ase)) + (1.0 - min(1.0, m_aoe))
    return (3.0 * m_ap + recovered) / 6.0


def _within_range(record: DetectionRecord, range_limit: float) -> bool:
    return math.hypot(record.box.center[0], record.box.center[1]) <= range_limit


def evaluate(
    gts: Sequence[DetectionRecord],
    dets: Sequence[DetectionRecord],
    cfg: MetricConfig | None = None,
    workers: int = 1,
) -> MetricReport:
    """Full single-class report: range filter, per-threshold AP, TP errors, NDS*.

    Both sets are filtered to ``cfg.range_limit`` on ground-plane center
    norm before anything else.  One matching pass serves every threshold;
    AP, the TP errors at ``cfg.tp_threshold`` and the match counts all come
    from it.  Raises UndefinedAPError when no ground truths survive the
    filter.  ``workers`` is accepted for compatibility and has no effect.
    """
    cfg = cfg or MetricConfig()
    gts_kept = [gt for gt in gts if _within_range(gt, cfg.range_limit)]
    dets_kept = [det for det in dets if _within_range(det, cfg.range_limit)]
    if not gts_kept:
        raise UndefinedAPError(f"no ground truths within range_limit {cfg.range_limit} m")

    order, matched = _greedy_matches(gts_kept, dets_kept, cfg.distance_thresholds)
    per_threshold_ap: dict[float, float] = {}
    match_counts = {
        "ground_truths": len(gts_kept),
        "detections": len(dets_kept),
    }
    for threshold, by_det in zip(cfg.distance_thresholds, matched):
        tp_flags = [i in by_det for i in order]
        per_threshold_ap[threshold] = _precision_area(
            tp_flags, len(gts_kept), cfg.recall_floor, cfg.precision_floor
        )
        match_counts[f"matches@{threshold:g}"] = len(by_det)
    m_ap = sum(per_threshold_ap.values()) / len(per_threshold_ap)

    tp_matches = matched[cfg.distance_thresholds.index(cfg.tp_threshold)]
    pairs = [(gts_kept[tp_matches[i].gt_index].box, dets_kept[i].box) for i in order if i in tp_matches]
    errors = tp_errors(pairs)

    return MetricReport(
        m_ap=m_ap,
        m_ate=errors.m_ate,
        m_ase=errors.m_ase,
        m_aoe=errors.m_aoe,
        nds_star=nds_star(m_ap, errors.m_ate, errors.m_ase, errors.m_aoe),
        per_threshold_ap=per_threshold_ap,
        match_counts=match_counts,
    )
