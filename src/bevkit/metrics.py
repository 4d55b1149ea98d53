"""Center-distance detection metrics: AP, TP errors, and the NDS* aggregate.

Matching uses ground-plane center distance instead of IoU: detections are
visited in descending score and greedily claim the nearest unmatched
ground truth of the same sample within the distance threshold.  Average
precision integrates the interpolated precision-recall curve on a
101-point recall grid above configurable recall and precision floors.
True-positive errors (translation, scale, orientation) are plain means
over the matches at a single threshold, and the summary score is

    NDS* = (3 * mAP + sum over the three errors of (1 - min(1, err))) / 6.

Records are evaluated as a ``DetectionTable``: numpy columns of sample,
class, center, dims, yaw and score, one row per record in input order.
``scene.table_from_dict`` builds one from a detection file.  The range
filter and the search for same-sample pairs within the largest threshold
run on the columns; the greedy claim then runs in Python over those
candidate pairs only, with every ``Match.distance`` computed by
``math.hypot`` so that reports are bit-for-bit those of the per-record
definition.  ``evaluate``, ``match_detections`` and ``average_precision``
also accept lists of ``DetectionRecord``, which they turn into tables.  A
prediction without a score is rejected before the range filter, naming its
input index.  Matching is single-threaded; ``workers`` is accepted and has
no effect.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .boxes import Box3D
from .geometry import finite_number, positive_number, real_number, shown

__all__ = [
    "UndefinedAPError",
    "DetectionRecord",
    "DetectionTable",
    "MetricConfig",
    "MetricReport",
    "Match",
    "ground_distance",
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
            raise ValueError(f"sample_id must be a non-empty string, got {shown(self.sample_id)}")


def _vocabulary(keys) -> tuple[tuple, np.ndarray]:
    """Distinct keys in first-seen order, and each key's position among them."""
    codes: dict = {}
    index = np.array([codes.setdefault(key, len(codes)) for key in keys], dtype=np.int64)
    return tuple(codes), index


@dataclass(frozen=True, eq=False)
class DetectionTable:
    """Detection records as numpy columns, one row per record in input order.

    ``sample`` and ``class_index`` index the ``sample_ids`` and
    ``class_ids`` vocabularies.  ``center`` and ``dims`` are (n, 3) and
    ``yaw`` lies in (-pi, pi], as on ``Box3D``; ``score`` is NaN for a
    record without one.  The builders take values that are already
    validated; ``select`` keeps the vocabularies and the rows' order.
    """

    sample_ids: tuple[str, ...]
    class_ids: tuple[str, ...]
    sample: np.ndarray
    class_index: np.ndarray
    center: np.ndarray
    dims: np.ndarray
    yaw: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.sample)

    @classmethod
    def from_columns(
        cls, sample_ids: Sequence[str], class_ids: Sequence[str], center, dims, yaw, score
    ) -> "DetectionTable":
        """Table over per-record values given in input order."""
        samples, sample = _vocabulary(sample_ids)
        classes, class_index = _vocabulary(class_ids)
        n = len(sample)
        return cls(
            sample_ids=samples,
            class_ids=classes,
            sample=sample,
            class_index=class_index,
            center=np.asarray(center, dtype=float).reshape(n, 3),
            dims=np.asarray(dims, dtype=float).reshape(n, 3),
            yaw=np.asarray(yaw, dtype=float).reshape(n),
            score=np.asarray(score, dtype=float).reshape(n),
        )

    @classmethod
    def from_records(cls, records: Sequence[DetectionRecord]) -> "DetectionTable":
        return cls.from_columns(
            [r.sample_id for r in records],
            [r.box.class_id for r in records],
            [r.box.center for r in records],
            [r.box.dims for r in records],
            [r.box.yaw for r in records],
            [math.nan if r.box.score is None else r.box.score for r in records],
        )

    def join(self, other: "DetectionTable") -> "DetectionTable":
        """``from_columns`` over this table's records, then ``other``'s; both built by ``from_columns``."""
        samples, sample_codes = _vocabulary(self.sample_ids + other.sample_ids)
        classes, class_codes = _vocabulary(self.class_ids + other.class_ids)
        other = replace(
            other,
            sample=sample_codes[len(self.sample_ids) :][other.sample],
            class_index=class_codes[len(self.class_ids) :][other.class_index],
        )
        rows = {name: np.concatenate([getattr(self, name), getattr(other, name)]) for name in _ROW_COLUMNS}
        return DetectionTable(sample_ids=samples, class_ids=classes, **rows)

    def select(self, keep: np.ndarray) -> "DetectionTable":
        """The rows where ``keep`` is true."""
        return replace(self, **{name: getattr(self, name)[keep] for name in _ROW_COLUMNS})


# The columns of ``DetectionTable`` that hold one entry per row.
_ROW_COLUMNS = ("sample", "class_index", "center", "dims", "yaw", "score")


def _as_table(records: DetectionTable | Sequence[DetectionRecord]) -> DetectionTable:
    return records if isinstance(records, DetectionTable) else DetectionTable.from_records(records)


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
        thresholds = tuple(positive_number("distance threshold", t) for t in self.distance_thresholds)
        if not thresholds:
            raise ValueError("distance thresholds must not be empty")
        if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
            raise ValueError(f"distance thresholds must be ascending, got {shown(thresholds)}")
        object.__setattr__(self, "distance_thresholds", thresholds)
        object.__setattr__(self, "tp_threshold", real_number("tp_threshold", self.tp_threshold))
        if self.tp_threshold not in thresholds:
            raise ValueError(f"tp_threshold {self.tp_threshold} not among {shown(thresholds)}")
        object.__setattr__(self, "range_limit", positive_number("range_limit", self.range_limit))
        for name in ("recall_floor", "precision_floor"):
            value = real_number(name, getattr(self, name))
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
    """What ``evaluate`` measured; mAP and NDS* are derived from it."""

    m_ate: float
    m_ase: float
    m_aoe: float
    per_threshold_ap: dict[float, float]
    match_counts: dict[str, int]

    @property
    def m_ap(self) -> float:
        return sum(self.per_threshold_ap.values()) / len(self.per_threshold_ap)

    @property
    def nds_star(self) -> float:
        return nds_star(self.m_ap, self.m_ate, self.m_ase, self.m_aoe)

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


def ground_distance(a: Box3D, b: Box3D) -> float:
    """Euclidean distance between box centers on the ground plane."""
    return math.hypot(a.center[0] - b.center[0], a.center[1] - b.center[1])


def _require_scores(dets: DetectionTable) -> DetectionTable:
    missing = np.flatnonzero(np.isnan(dets.score))
    if len(missing):
        raise ValueError(f"detection record {missing[0]} has no score")
    return dets


# Largest number of detection x ground-truth window pairs one numpy pass of
# the candidate search holds (a few MiB of index and distance arrays).
_PAIR_BLOCK = 1 << 16


def _sample_x_order(sample: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's x rank (its place among the rows sorted by x), and the rows sorted by (sample, x rank)."""
    rank = np.empty(len(x), dtype=np.int64)
    rank[np.argsort(x)] = np.arange(len(x))
    return rank, np.argsort(sample * (len(x) + 1) + rank)  # distinct integer keys


def _candidate_pairs(
    gt_sample: np.ndarray,
    gt_center: np.ndarray,
    det_sample: np.ndarray,
    det_center: np.ndarray,
    cutoff: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Same-sample (detection row, ground-truth row) pairs with ``np.hypot`` distance below ``cutoff``.

    Ground truths are sorted by the integer key (sample, x rank).  A
    ``searchsorted`` into the sorted ground-truth x values turns each
    detection's window [x - cutoff, x + cutoff] into a range of x ranks,
    and a ``searchsorted`` over the keys finds the ground truths of its own
    sample in that range.  Rounding is monotone, so the window holds every
    pair that ``np.hypot`` puts below ``cutoff``, and that test alone
    decides a pair.  The pairs come in no particular order.  Detections
    are visited in (sample, x) order, which keeps every search's needles
    sorted, and a run of them at a time, about ``_PAIR_BLOCK`` window
    pairs per run, so memory stays bounded also where many ground truths
    share one x.
    """
    gt_rank, gt_rows = _sample_x_order(gt_sample, gt_center[:, 0])
    span = len(gt_rank) + 1  # x ranks run from 0 to len(gt_rank)
    gt_key = (gt_sample * span + gt_rank)[gt_rows]
    xs = np.empty(len(gt_rank))
    xs[gt_rank] = gt_center[:, 0]
    det_rank, det_rows = _sample_x_order(det_sample, det_center[:, 0])
    det_x = np.empty(len(det_rank))
    det_x[det_rank] = det_center[:, 0]
    with np.errstate(over="ignore"):  # an edge beyond the largest float is infinite
        low = np.searchsorted(xs, det_x - cutoff)[det_rank]
        high = np.searchsorted(xs, det_x + cutoff, "right")[det_rank]
    base = det_sample * span
    first = np.searchsorted(gt_key, (base + low)[det_rows])
    per_det = np.searchsorted(gt_key, (base + high)[det_rows]) - first
    ends = np.cumsum(per_det)
    det_pairs, gt_pairs = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    start = 0
    while start < len(per_det):
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] - per_det[start] + _PAIR_BLOCK, "right")))
        counts = per_det[start:stop]
        pair_dets = np.repeat(det_rows[start:stop], counts)
        within = np.arange(len(pair_dets)) - np.repeat(np.cumsum(counts) - counts, counts)
        pair_gts = gt_rows[np.repeat(first[start:stop], counts) + within]
        with np.errstate(over="ignore"):  # centres ~1e308 apart: an infinite distance is out of reach
            distance = np.hypot(
                det_center[pair_dets, 0] - gt_center[pair_gts, 0], det_center[pair_dets, 1] - gt_center[pair_gts, 1]
            )
        keep = distance < cutoff
        det_pairs.append(pair_dets[keep])
        gt_pairs.append(pair_gts[keep])
        start = stop
    return np.concatenate(det_pairs), np.concatenate(gt_pairs)


def _greedy_matches(
    gts: DetectionTable, dets: DetectionTable, thresholds: Sequence[float]
) -> tuple[np.ndarray, list[list[Match]]]:
    """Score order of ``dets`` rows and, per threshold, its matches in that order.

    The score order is score descending, then ``sample_id``, then row,
    which is input order (``np.lexsort`` is stable).  numpy finds the
    same-sample pairs within the largest threshold (plus a margin for
    rounding); each one's ``Match.distance`` is recomputed with
    ``math.hypot``, as ``ground_distance`` does.  The pairs
    are sorted once by (detection's place in the score order, distance,
    ground-truth row), so at each threshold a detection claims the first
    of its pairs under the threshold whose ground truth is unclaimed.
    Every row of ``dets`` has a score: the callers check.
    """
    rank = {name: r for r, name in enumerate(sorted(set(gts.sample_ids).union(dets.sample_ids)))}
    gt_sample = np.array([rank[name] for name in gts.sample_ids], dtype=np.int64)[gts.sample]
    det_sample = np.array([rank[name] for name in dets.sample_ids], dtype=np.int64)[dets.sample]
    order = np.lexsort((det_sample, -dets.score))
    position = np.argsort(order)  # each row's place in the score order

    largest = max(thresholds)
    det_rows, gt_rows = _candidate_pairs(
        gt_sample, gts.center, det_sample, dets.center, largest + 1e-9 * max(1.0, largest)
    )
    dx = (dets.center[det_rows, 0] - gts.center[gt_rows, 0]).tolist()
    dy = (dets.center[det_rows, 1] - gts.center[gt_rows, 1]).tolist()
    distances = np.array(list(map(math.hypot, dx, dy)), dtype=float)
    by_claim = np.lexsort((gt_rows, distances, position[det_rows]))
    det_rows, gt_rows, distances = det_rows[by_claim], gt_rows[by_claim], distances[by_claim]

    matched: list[list[Match]] = []
    for threshold in thresholds:
        under = distances < threshold
        claimed: set[int] = set()
        matches: list[Match] = []
        last = -1
        for det, gt, distance in zip(det_rows[under].tolist(), gt_rows[under].tolist(), distances[under].tolist()):
            if det != last and gt not in claimed:
                claimed.add(gt)
                matches.append(Match(det, gt, distance))
                last = det
        matched.append(matches)
    return order, matched


def _tp_flags(order: np.ndarray, matches: list[Match]) -> np.ndarray:
    hit = np.zeros(len(order), dtype=bool)
    hit[[m.det_index for m in matches]] = True
    return hit[order]


def match_detections(
    gts: DetectionTable | Sequence[DetectionRecord],
    dets: DetectionTable | Sequence[DetectionRecord],
    threshold: float,
    workers: int = 1,
) -> list[Match]:
    """Greedy score-ordered matching by ground-plane center distance.

    A detection claims the nearest unmatched ground truth of its own
    sample at strictly less than ``threshold`` meters; each ground truth
    is claimed at most once.  Equidistant candidates resolve to the lower
    ground-truth input index.  The result is in detection processing
    order, with row indices into ``gts`` and ``dets``.  ``workers`` is
    accepted for compatibility and has no effect.  ``threshold`` obeys
    ``MetricConfig``'s rule for a distance threshold.
    """
    cfg = MetricConfig(distance_thresholds=(threshold,), tp_threshold=threshold)
    _, (matches,) = _greedy_matches(_as_table(gts), _require_scores(_as_table(dets)), cfg.distance_thresholds)
    return matches


def _precision_area(
    tp_flags: np.ndarray, num_gts: int, recall_floor: float, precision_floor: float
) -> float:
    """AP integral over true-positive flags given in detection processing order."""
    if not len(tp_flags):
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
    gts: DetectionTable | Sequence[DetectionRecord],
    dets: DetectionTable | Sequence[DetectionRecord],
    threshold: float,
    recall_floor: float = MetricConfig.recall_floor,
    precision_floor: float = MetricConfig.precision_floor,
) -> float:
    """AP on the 101-point recall grid above the recall/precision floors.

    Precision at each grid recall is interpolated as the maximum precision
    at any recall to the right.  The grid bin at exactly the recall floor
    is excluded, and the clipped precision mass is rescaled by
    1 / (1 - precision_floor) so a perfect detector scores 1.  The
    threshold and the floors obey ``MetricConfig``'s rules.

    Raises UndefinedAPError when there are no ground truths.
    """
    cfg = MetricConfig(
        distance_thresholds=(threshold,),
        tp_threshold=threshold,
        recall_floor=recall_floor,
        precision_floor=precision_floor,
    )
    gts, dets = _as_table(gts), _as_table(dets)
    if not len(gts):
        raise UndefinedAPError(f"no ground truths at threshold {threshold}")
    order, (matches,) = _greedy_matches(gts, _require_scores(dets), cfg.distance_thresholds)
    return _precision_area(_tp_flags(order, matches), len(gts), cfg.recall_floor, cfg.precision_floor)


def _mean_errors(
    translation: list[float], gt_dims: np.ndarray, det_dims: np.ndarray, gt_yaw: np.ndarray, det_yaw: np.ndarray
) -> TPErrors:
    """``tp_errors`` over matched rows, given their ground distances.

    The scale term is 1 - the IoU of the two boxes aligned at centre and
    yaw: the overlap takes the per-axis minimum extents, and a pair with
    zero union counts as fully overlapping.  The orientation term is the
    absolute yaw difference wrapped to [0, pi].  Each mean is a
    left-to-right ``sum`` in match order, so the result is bit-for-bit
    that of the per-pair oracles in ``tests/reference_cases.py``.
    """
    n = len(translation)
    if not n:
        return TPErrors(1.0, 1.0, 1.0)
    overlap = (
        np.minimum(gt_dims[:, 0], det_dims[:, 0])
        * np.minimum(gt_dims[:, 1], det_dims[:, 1])
        * np.minimum(gt_dims[:, 2], det_dims[:, 2])
    )
    union = gt_dims[:, 0] * gt_dims[:, 1] * gt_dims[:, 2] + det_dims[:, 0] * det_dims[:, 1] * det_dims[:, 2] - overlap
    iou = np.ones(n)
    np.divide(overlap, union, out=iou, where=~(union <= 0.0))
    delta = np.abs(gt_yaw - det_yaw)
    orientation = np.minimum(delta, 2.0 * math.pi - delta)
    return TPErrors(sum(translation) / n, sum((1.0 - iou).tolist()) / n, sum(orientation.tolist()) / n)


def tp_errors(matched_boxes: Sequence[tuple[Box3D, Box3D]]) -> TPErrors:
    """Mean translation / scale / orientation errors over matched (gt, det) pairs.

    Translation is ground-plane center distance (meters), scale is 1 -
    the IoU of the boxes aligned at centre and yaw, orientation is the
    wrapped absolute yaw difference (radians).  With no matches each
    error defaults to 1.
    """
    gt_boxes = [gt for gt, _ in matched_boxes]
    det_boxes = [det for _, det in matched_boxes]
    return _mean_errors(
        [ground_distance(gt, det) for gt, det in matched_boxes],
        np.array([box.dims for box in gt_boxes], dtype=float).reshape(-1, 3),
        np.array([box.dims for box in det_boxes], dtype=float).reshape(-1, 3),
        np.array([box.yaw for box in gt_boxes], dtype=float),
        np.array([box.yaw for box in det_boxes], dtype=float),
    )


def nds_star(m_ap: float, m_ate: float, m_ase: float, m_aoe: float) -> float:
    """Aggregate score from mAP and the three TP errors, each clamped at 1."""
    m_ap = real_number("mAP", m_ap)
    if not (0.0 <= m_ap <= 1.0):
        raise ValueError(f"mAP must be in [0, 1], got {m_ap!r}")
    errors = (("mATE", m_ate), ("mASE", m_ase), ("mAOE", m_aoe))
    m_ate, m_ase, m_aoe = (finite_number(name, value, "non-negative") for name, value in errors)
    recovered = (1.0 - min(1.0, m_ate)) + (1.0 - min(1.0, m_ase)) + (1.0 - min(1.0, m_aoe))
    return (3.0 * m_ap + recovered) / 6.0


def _within_range(table: DetectionTable, range_limit: float) -> np.ndarray:
    """Rows with ``math.hypot(x, y) <= range_limit``, bit for bit.

    ``np.hypot`` may differ from ``math.hypot`` in the last bit, so rows
    within rounding of the limit are decided by ``math.hypot``.
    """
    x, y = table.center[:, 0], table.center[:, 1]
    norm = np.hypot(x, y)
    keep = norm <= range_limit
    for row in np.flatnonzero(np.abs(norm - range_limit) <= 1e-9 * range_limit).tolist():
        keep[row] = math.hypot(x[row], y[row]) <= range_limit
    return keep


def evaluate(
    gts: DetectionTable | Sequence[DetectionRecord],
    dets: DetectionTable | Sequence[DetectionRecord],
    cfg: MetricConfig | None = None,
    workers: int = 1,
) -> MetricReport:
    """Full single-class report: range filter, per-threshold AP, TP errors, NDS*.

    Both sets are filtered to ``cfg.range_limit`` on ground-plane center
    norm; UndefinedAPError is raised when no ground truth survives, and
    ValueError, naming its input index, when any detection, in range or
    not, has no score.  One matching pass serves every threshold; AP, the
    TP errors at ``cfg.tp_threshold`` and the match counts all come from
    it.  ``workers`` is accepted for compatibility and has no effect.
    """
    cfg = cfg or MetricConfig()
    gts, dets = _as_table(gts), _as_table(dets)
    gts = gts.select(_within_range(gts, cfg.range_limit))
    if not len(gts):
        raise UndefinedAPError(f"no ground truths within range_limit {cfg.range_limit} m")
    dets = _require_scores(dets).select(_within_range(dets, cfg.range_limit))

    order, matched = _greedy_matches(gts, dets, cfg.distance_thresholds)
    per_threshold_ap: dict[float, float] = {}
    match_counts = {
        "ground_truths": len(gts),
        "detections": len(dets),
    }
    for threshold, matches in zip(cfg.distance_thresholds, matched):
        per_threshold_ap[threshold] = _precision_area(
            _tp_flags(order, matches), len(gts), cfg.recall_floor, cfg.precision_floor
        )
        match_counts[f"matches@{threshold:g}"] = len(matches)

    tps = matched[cfg.distance_thresholds.index(cfg.tp_threshold)]
    gt_rows = [m.gt_index for m in tps]
    det_rows = [m.det_index for m in tps]
    errors = _mean_errors(
        [m.distance for m in tps], gts.dims[gt_rows], dets.dims[det_rows], gts.yaw[gt_rows], dets.yaw[det_rows]
    )

    return MetricReport(**errors._asdict(), per_threshold_ap=per_threshold_ap, match_counts=match_counts)
