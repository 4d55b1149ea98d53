import math

import numpy as np
import pytest

import bevkit.metrics as metrics_module
from bevkit.boxes import Box3D
from bevkit.metrics import (
    DetectionRecord,
    DetectionTable,
    MetricConfig,
    MetricReport,
    UndefinedAPError,
    average_precision,
    evaluate,
    ground_distance,
    match_detections,
    nds_star,
    tp_errors,
)
from bevkit.scene import table_from_dict
from reference_cases import REFERENCE_NDS_STAR_ROWS, aligned_iou, records_to_dict, yaw_difference


def gt(x, y, dims=(4.0, 2.0, 1.5), yaw=0.0, sample="s0"):
    return DetectionRecord(Box3D((x, y, dims[2] / 2.0), dims, yaw), sample)


def det(x, y, score, dims=(4.0, 2.0, 1.5), yaw=0.0, sample="s0"):
    return DetectionRecord(Box3D((x, y, dims[2] / 2.0), dims, yaw, score=score), sample)


RECALL_GRID = np.linspace(0.0, 1.0, 101)  # the protocol's 101-point grid, as in the nuScenes devkit


def brute_force_matches(gts, dets, threshold):
    """Independent greedy walk: explicit score order, nearest unclaimed same-sample GT.

    Returns the processing order and (det index, gt index, distance) in that order.
    """
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].box.score, dets[i].sample_id, i))
    claimed = set()
    matches = []
    for i in order:
        candidates = [
            (math.hypot(dets[i].box.center[0] - g.box.center[0], dets[i].box.center[1] - g.box.center[1]), j)
            for j, g in enumerate(gts)
            if j not in claimed and g.sample_id == dets[i].sample_id
        ]
        candidates = [(d, j) for d, j in candidates if d < threshold]
        if candidates:
            d, j = min(candidates)
            claimed.add(j)
            matches.append((i, j, d))
    return order, matches


def brute_force_ap(gts, dets, threshold, recall_floor=0.1, precision_floor=0.1):
    """Independent AP: explicit greedy walk and grid-point loop."""
    order, matches = brute_force_matches(gts, dets, threshold)
    matched = {i for i, _, _ in matches}
    precisions, recalls = [], []
    tp = fp = 0
    for i in order:
        tp += i in matched
        fp += i not in matched
        precisions.append(tp / (tp + fp))
        recalls.append(tp / len(gts))
    clipped = []
    for r in RECALL_GRID[int(round(100 * recall_floor)) + 1 :]:
        best = max((p for p, rr in zip(precisions, recalls) if rr >= r), default=0.0)
        clipped.append(max(0.0, best - precision_floor))
    return min(1.0, max(0.0, float(np.mean(clipped)) / (1.0 - precision_floor)))


def brute_force_evaluate(gts, dets, cfg):
    """Per-threshold AP, TP errors at cfg.tp_threshold and match counts, one pass per threshold."""

    def kept(records):
        return [r for r in records if math.hypot(r.box.center[0], r.box.center[1]) <= cfg.range_limit]

    gts, dets = kept(gts), kept(dets)
    if not gts:
        raise UndefinedAPError("no ground truths in range")
    per_threshold_ap = {
        t: brute_force_ap(gts, dets, t, cfg.recall_floor, cfg.precision_floor) for t in cfg.distance_thresholds
    }
    counts = {"ground_truths": len(gts), "detections": len(dets)}
    for t in cfg.distance_thresholds:
        counts[f"matches@{t:g}"] = len(brute_force_matches(gts, dets, t)[1])
    pairs = [(gts[j].box, dets[i].box) for i, j, _ in brute_force_matches(gts, dets, cfg.tp_threshold)[1]]
    if pairs:
        errors = tuple(
            sum(f(g, d) for g, d in pairs) / len(pairs)
            for f in (ground_distance, lambda g, d: 1.0 - aligned_iou(g, d), yaw_difference)
        )
    else:
        errors = (1.0, 1.0, 1.0)
    return gts, dets, per_threshold_ap, errors, counts


class TestMatchDetections:
    def test_simple_match(self):
        matches = match_detections([gt(10.0, 0.0)], [det(10.5, 0.0, 0.9)], 2.0)
        assert len(matches) == 1
        assert matches[0].gt_index == 0
        assert matches[0].distance == pytest.approx(0.5)

    def test_too_far_is_false_positive(self):
        assert match_detections([gt(10.0, 0.0)], [det(13.0, 0.0, 0.9)], 2.0) == []

    def test_threshold_strictly_less_than(self):
        assert match_detections([gt(10.0, 0.0)], [det(12.0, 0.0, 0.9)], 2.0) == []

    def test_higher_score_wins_single_gt(self):
        dets = [det(10.2, 0.0, 0.5), det(10.1, 0.0, 0.9)]
        matches = match_detections([gt(10.0, 0.0)], dets, 2.0)
        assert len(matches) == 1
        assert matches[0].det_index == 1

    def test_each_gt_matched_once(self):
        dets = [det(10.1, 0.0, 0.9), det(10.2, 0.0, 0.8), det(20.0, 0.0, 0.7)]
        matches = match_detections([gt(10.0, 0.0), gt(20.0, 0.0)], dets, 2.0)
        assert {(m.det_index, m.gt_index) for m in matches} == {(0, 0), (2, 1)}

    def test_matching_confined_to_sample(self):
        matches = match_detections([gt(10.0, 0.0, sample="a")], [det(10.0, 0.0, 0.9, sample="b")], 2.0)
        assert matches == []

    def test_equal_scores_different_targets_order_invariant(self):
        gts = [gt(10.0, 0.0), gt(30.0, 0.0)]
        d1 = det(10.1, 0.0, 0.8)
        d2 = det(30.1, 0.0, 0.8)
        forward = {(m.det_index, m.gt_index) for m in match_detections(gts, [d1, d2], 2.0)}
        backward = {(m.det_index, m.gt_index) for m in match_detections(gts, [d2, d1], 2.0)}
        assert forward == {(0, 0), (1, 1)}
        assert backward == {(0, 1), (1, 0)}  # same assignment after the swap

    def test_equidistant_ground_truths_resolve_to_lower_index(self):
        gts = [gt(12.0, 0.0), gt(10.0, 2.0), gt(10.0, -2.0)]
        matches = match_detections(gts, [det(10.0, 0.0, 0.9)], 3.0)
        assert [(m.det_index, m.gt_index) for m in matches] == [(0, 0)]
        matches = match_detections(gts[1:], [det(10.0, 0.0, 0.9)], 3.0)
        assert [(m.det_index, m.gt_index, m.distance) for m in matches] == [(0, 0, 2.0)]

    def test_claimed_nearest_falls_back_to_next_under_threshold(self):
        # the higher-scored detection takes the GT both are nearest to; the
        # other then claims its second-nearest GT, but only under the threshold
        gts = [gt(10.0, 0.0), gt(11.5, 0.0)]
        dets = [det(10.4, 0.0, 0.5), det(10.2, 0.0, 0.9)]
        matches = match_detections(gts, dets, 2.0)
        assert [(m.det_index, m.gt_index) for m in matches] == [(1, 0), (0, 1)]
        assert matches[1].distance == pytest.approx(1.1)
        assert [(m.det_index, m.gt_index) for m in match_detections(gts, dets, 1.0)] == [(1, 0)]

    def test_matches_listed_in_processing_order(self):
        # score descending, then sample id, then input index
        gts = [gt(0.0, 0.0, sample="b"), gt(0.0, 0.0, sample="a"), gt(20.0, 0.0, sample="a"), gt(40.0, 0.0, sample="a")]
        dets = [
            det(0.0, 0.0, 0.5, sample="b"),
            det(20.0, 0.0, 0.5, sample="a"),
            det(40.0, 0.0, 0.9, sample="a"),
            det(0.0, 0.0, 0.5, sample="a"),
        ]
        matches = match_detections(gts, dets, 2.0)
        assert [(m.det_index, m.gt_index) for m in matches] == [(2, 3), (1, 2), (3, 1), (0, 0)]
        order, reference = brute_force_matches(gts, dets, 2.0)
        assert [(m.det_index, m.gt_index, m.distance) for m in matches] == reference

    def test_missing_score_rejected(self):
        with pytest.raises(ValueError):
            match_detections([gt(0.0, 0.0)], [DetectionRecord(Box3D((0, 0, 0.75), (4, 2, 1.5), 0.0), "s0")], 2.0)

    def test_workers_do_not_change_result(self):
        rng = np.random.default_rng(15)
        gts, dets = [], []
        for sample in ("a", "b", "c", "d"):
            for _ in range(5):
                x, y = rng.uniform(-30, 30, size=2)
                gts.append(gt(float(x), float(y), sample=sample))
                dets.append(det(float(x + rng.normal(0, 1)), float(y), float(rng.uniform(0, 1)), sample=sample))
        assert match_detections(gts, dets, 2.0, workers=1) == match_detections(gts, dets, 2.0, workers=4)


class TestAveragePrecision:
    def test_perfect_single_detection(self):
        assert average_precision([gt(5.0, 5.0)], [det(5.0, 5.0, 1.0)], 2.0) == 1.0

    def test_no_detections(self):
        assert average_precision([gt(5.0, 5.0)], [], 2.0) == 0.0

    def test_zero_ground_truths_undefined(self):
        with pytest.raises(UndefinedAPError):
            average_precision([], [det(0.0, 0.0, 1.0)], 2.0)

    def test_recall_grid_points_one_ulp_above_hundredths(self):
        # np.linspace(0, 1, 101), the protocol grid, is not k / 100 at these ten points
        above = [k for k in range(101) if RECALL_GRID[k] != k / 100]
        assert above == [35, 41, 47, 57, 69, 70, 82, 83, 94, 95]
        for k in above:
            assert RECALL_GRID[k] == np.nextafter(k / 100, 1.0)

    @pytest.mark.parametrize("num_tps, credited_bins", [(6, 20), (7, 24)])
    def test_exact_recall_on_raised_grid_point_earns_no_credit(self, num_tps, credited_bins):
        # 20 GTs, perfect detections of the first num_tps: recall 0.3 credits bins
        # 0.11..0.30, but recall 0.35 misses the grid point 0.35000000000000003
        gts = [gt(float(2 * k), 0.0) for k in range(20)]
        dets = [det(float(2 * k), 0.0, 1.0) for k in range(num_tps)]
        expected = float(np.mean(np.where(np.arange(11, 101) <= 10 + credited_bins, 0.9, 0.0))) / 0.9
        assert average_precision(gts, dets, 0.5) == expected
        assert expected == pytest.approx(credited_bins / 90.0, abs=1e-12)

    def test_one_tp_one_fp_matches_enumeration(self):
        gts = [gt(10.0, 0.0), gt(20.0, 0.0)]
        dets = [det(10.1, 0.0, 0.9), det(40.0, 0.0, 0.5)]
        expected = brute_force_ap(gts, dets, 2.0)
        assert expected == pytest.approx(4.0 / 9.0, abs=1e-12)
        assert average_precision(gts, dets, 2.0) == pytest.approx(expected, abs=1e-12)

    def test_random_scenarios_match_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            n_gt = int(rng.integers(1, 8))
            n_det = int(rng.integers(0, 10))
            gts = [gt(float(x), float(y)) for x, y in rng.uniform(-40, 40, size=(n_gt, 2))]
            dets = [
                det(float(x), float(y), float(rng.uniform(0, 1)))
                for x, y in rng.uniform(-40, 40, size=(n_det, 2))
            ]
            got = average_precision(gts, dets, 2.0)
            assert got == pytest.approx(brute_force_ap(gts, dets, 2.0), abs=1e-12)

    def test_adding_true_positive_never_decreases_ap(self):
        rng = np.random.default_rng(22)
        for _ in range(100):
            n_gt = int(rng.integers(2, 7))
            gts = [gt(float(x), float(y)) for x, y in rng.uniform(-40, 40, size=(n_gt, 2))]
            dets = [
                det(float(x), float(y), float(rng.uniform(0, 1)))
                for x, y in rng.uniform(-40, 40, size=(int(rng.integers(1, 7)), 2))
            ]
            base = average_precision(gts, dets, 2.0)
            target = gts[int(rng.integers(0, n_gt))]
            extra = det(
                target.box.center[0] + float(rng.uniform(-1.0, 1.0)),
                target.box.center[1] + float(rng.uniform(-1.0, 1.0)),
                float(rng.uniform(0, 1)),
            )
            grown = average_precision(gts, dets + [extra], 2.0)
            assert grown >= base - 1e-12

    def test_adding_lowest_scored_false_positive_keeps_ap(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            n_gt = int(rng.integers(1, 6))
            gts = [gt(float(x), float(y)) for x, y in rng.uniform(-30, 30, size=(n_gt, 2))]
            dets = [
                det(float(x), float(y), float(rng.uniform(0.3, 1.0)))
                for x, y in rng.uniform(-30, 30, size=(int(rng.integers(1, 6)), 2))
            ]
            base = average_precision(gts, dets, 2.0)
            spurious = det(500.0, 500.0, 0.01)
            assert average_precision(gts, dets + [spurious], 2.0) == pytest.approx(base, abs=1e-15)


class TestTPErrors:
    def test_identical_boxes_zero_errors(self):
        box = Box3D((5.0, 5.0, 0.75), (4.0, 2.0, 1.5), 0.3)
        assert tp_errors([(box, box)]) == (0.0, 0.0, 0.0)

    def test_scale_error_half_overlap(self):
        a = Box3D((0.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0)
        b = Box3D((0.0, 0.0, 0.75), (2.0, 2.0, 1.5), 0.0)
        assert aligned_iou(a, b) == 0.5
        errors = tp_errors([(a, b)])
        assert errors.m_ase == 0.5

    def test_orientation_error_quarter_turn(self):
        a = Box3D((0.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0)
        b = Box3D((0.0, 0.0, 0.75), (4.0, 2.0, 1.5), math.pi / 2)
        assert yaw_difference(a, b) == pytest.approx(math.pi / 2)

    def test_orientation_wraps(self):
        a = Box3D((0.0, 0.0, 0.75), (4.0, 2.0, 1.5), math.pi - 0.05)
        b = Box3D((0.0, 0.0, 0.75), (4.0, 2.0, 1.5), -math.pi + 0.05)
        assert yaw_difference(a, b) == pytest.approx(0.1)

    def test_no_matches_default_to_one(self):
        assert tp_errors([]) == (1.0, 1.0, 1.0)

    def test_translation_is_ground_plane_distance(self):
        a = Box3D((0.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0)
        b = Box3D((3.0, 4.0, 5.75), (4.0, 2.0, 1.5), 0.0)  # z ignored
        assert ground_distance(a, b) == 5.0
        assert tp_errors([(a, b)]).m_ate == 5.0


class TestNDSStar:
    def test_perfect_score(self):
        assert nds_star(1.0, 0.0, 0.0, 0.0) == 1.0

    def test_errors_clamped_at_one(self):
        assert nds_star(0.0, 2.5, 1.7, 3.0) == 0.0

    def test_reference_rows_within_rounding(self):
        assert len(REFERENCE_NDS_STAR_ROWS) >= 12
        for m_ap, m_ate, m_ase, m_aoe, expected in REFERENCE_NDS_STAR_ROWS:
            assert nds_star(m_ap, m_ate, m_ase, m_aoe) == pytest.approx(expected, abs=0.005)

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            m_ap = float(rng.uniform(0, 1))
            errors = rng.uniform(0, 1.5, size=3)
            expected = (3 * m_ap + sum(1 - min(1.0, e) for e in errors)) / 6.0
            assert nds_star(m_ap, *errors) == pytest.approx(expected, rel=1e-15)

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError):
            nds_star(1.5, 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            nds_star(0.5, -0.1, 0.0, 0.0)


class TestEvaluate:
    def fixture(self):
        gts = [
            gt(10.0, 0.0),
            gt(20.0, 5.0),
            gt(-15.0, 3.0, yaw=math.pi / 4),
        ]
        dets = [
            det(10.4, 0.0, 0.9, yaw=0.1),
            det(20.0, 5.0, 0.8, dims=(2.0, 2.0, 1.5)),
        ]
        return gts, dets

    def test_perfect_predictions(self):
        gts, _ = self.fixture()
        perfect = [DetectionRecord(Box3D(g.box.center, g.box.dims, g.box.yaw, score=1.0), g.sample_id) for g in gts]
        report = evaluate(gts, perfect)
        assert report.m_ap == 1.0
        assert (report.m_ate, report.m_ase, report.m_aoe) == (0.0, 0.0, 0.0)
        assert report.nds_star == 1.0

    def test_empty_predictions(self):
        gts, _ = self.fixture()
        report = evaluate(gts, [])
        assert report.m_ap == 0.0
        assert (report.m_ate, report.m_ase, report.m_aoe) == (1.0, 1.0, 1.0)
        assert report.nds_star == 0.0

    def test_three_box_fixture_hand_computation(self):
        gts, dets = self.fixture()
        report = evaluate(gts, dets)
        # hand computation: both detections are true positives at every
        # threshold (distances 0.4 and 0), third ground truth missed;
        # precision 1 up to recall 2/3, so grid bins 0.11..0.66 hold 0.9
        expected_ap = float(np.mean(np.where(np.arange(11, 101) <= 66, 0.9, 0.0))) / 0.9
        assert expected_ap == pytest.approx(56.0 / 90.0, abs=1e-12)
        shift = math.hypot(10.4 - 10.0, 0.0)
        assert report.per_threshold_ap == {0.5: expected_ap, 1.0: expected_ap, 2.0: expected_ap, 4.0: expected_ap}
        assert report.m_ap == expected_ap
        assert report.m_ate == (shift + 0.0) / 2.0
        assert report.m_ase == ((1.0 - 1.0) + (1.0 - 0.5)) / 2.0
        assert report.m_aoe == (0.1 + 0.0) / 2.0
        assert report.nds_star == nds_star(expected_ap, report.m_ate, report.m_ase, report.m_aoe)
        assert report.match_counts["ground_truths"] == 3
        assert report.match_counts["detections"] == 2
        assert report.match_counts["matches@2"] == 2

    def test_range_filter_drops_far_boxes_from_both_sets(self):
        gts = [gt(10.0, 0.0), gt(50.005, 0.0)]  # second is 50.005 m out
        dets = [det(10.0, 0.0, 0.9), det(50.005, 0.0, 0.8)]
        report = evaluate(gts, dets)
        assert report.match_counts["ground_truths"] == 1
        assert report.match_counts["detections"] == 1
        assert report.m_ap == 1.0

    def test_boundary_range_included(self):
        gts = [gt(50.0, 0.0)]
        dets = [det(50.0, 0.0, 1.0)]
        assert evaluate(gts, dets).m_ap == 1.0

    def test_centres_whose_distance_overflows_are_out_of_reach(self):
        # range_limit 1e308 keeps every box; the pairs across the origin
        # differ in x by 1.9e308, past the largest float, and must not warn
        gts = [gt(9.5e307, 0.0), gt(-9.5e307, 0.0), gt(10.0, 0.0)]
        dets = [det(-9.5e307, 0.0, 0.9), det(9.5e307, 0.0, 0.8), det(10.2, 0.0, 0.7)]
        report = evaluate(gts, dets, MetricConfig(range_limit=1e308))
        assert report.match_counts == {
            "ground_truths": 3,
            "detections": 3,
            **{f"matches@{t:g}": 3 for t in MetricConfig().distance_thresholds},
        }

    def test_no_ground_truths_raises(self):
        with pytest.raises(UndefinedAPError):
            evaluate([], [det(0.0, 0.0, 1.0)])

    def test_workers_identical(self):
        rng = np.random.default_rng(41)
        gts, dets = [], []
        for sample in ("a", "b", "c"):
            for _ in range(6):
                x, y = rng.uniform(-40, 40, size=2)
                gts.append(gt(float(x), float(y), sample=sample))
                dets.append(
                    det(float(x + rng.normal(0, 0.8)), float(y), float(rng.uniform(0, 1)), sample=sample)
                )
        assert evaluate(gts, dets, workers=1) == evaluate(gts, dets, workers=4)

    def test_greedy_claim_visits_only_pairs_under_largest_threshold(self, monkeypatch):
        rng = np.random.default_rng(42)
        gts, dets = [], []
        for sample in ("a", "b", "c"):
            for _ in range(30):
                x, y = rng.uniform(-30, 30, size=2)  # rows stay rows: nothing beyond the 50 m range limit
                gts.append(gt(float(x), float(y), sample=sample))
                dets.append(det(float(x + rng.normal(0, 3)), float(y), float(rng.uniform(0, 1)), sample=sample))
        visited = []
        real = metrics_module._candidate_pairs

        def recording(*args):
            pairs = real(*args)
            visited.extend(zip(*(rows.tolist() for rows in pairs)))
            return pairs

        monkeypatch.setattr(metrics_module, "_candidate_pairs", recording)
        report = evaluate(gts, dets)
        gts_kept, dets_kept, per_threshold_ap, errors, _ = brute_force_evaluate(gts, dets, MetricConfig())
        assert (len(gts_kept), len(dets_kept)) == (len(gts), len(dets))
        assert (report.per_threshold_ap, (report.m_ate, report.m_ase, report.m_aoe)) == (per_threshold_ap, errors)
        largest = max(MetricConfig().distance_thresholds)
        same_sample = [
            (d, g, ground_distance(dets[d].box, gts[g].box))
            for d in range(len(dets))
            for g in range(len(gts))
            if dets[d].sample_id == gts[g].sample_id
        ]
        assert len(visited) == len(set(visited))
        assert set(visited) == {(d, g) for d, g, distance in same_sample if distance < largest + 1e-9}
        assert {(d, g) for d, g, distance in same_sample if distance < largest} <= set(visited)
        assert 0 < len(visited) < len(same_sample) / 10

    def test_last_bit_disagreements_of_np_hypot_follow_math_hypot(self):
        rng = np.random.default_rng(61)
        xy = rng.uniform(-50.0, 50.0, size=(20000, 2))
        numpy_norm = np.hypot(xy[:, 0], xy[:, 1])
        exact = np.array([math.hypot(x, y) for x, y in xy.tolist()])
        higher, lower = np.flatnonzero(numpy_norm > exact)[:5], np.flatnonzero(numpy_norm < exact)[:5]
        if not (len(higher) and len(lower)):
            pytest.skip("np.hypot agrees with math.hypot on these points")
        for i in higher.tolist():
            x, y = xy[i].tolist()
            # np.hypot puts the detection exactly at the threshold, math.hypot just below it: a match
            t = float(numpy_norm[i])
            report = evaluate([gt(0.0, 0.0)], [det(x, y, 0.9)], MetricConfig((t,), tp_threshold=t, range_limit=100.0))
            assert report.match_counts[f"matches@{t:g}"] == 1
            assert report.m_ate == exact[i]
            # np.hypot puts the record beyond range_limit = its math.hypot norm: kept
            report = evaluate([gt(x, y)], [det(x, y, 0.9)], MetricConfig(range_limit=float(exact[i])))
            assert report.match_counts["ground_truths"] == report.match_counts["detections"] == 1
        for i in lower.tolist():
            x, y = xy[i].tolist()
            # np.hypot puts the record inside range_limit, math.hypot beyond it: dropped
            report = evaluate([gt(0.0, 0.0), gt(x, y)], [det(x, y, 0.9)], MetricConfig(range_limit=float(numpy_norm[i])))
            assert report.match_counts["ground_truths"] == 1
            assert report.match_counts["detections"] == 0

    def test_missing_score_checked_before_range_filter(self):
        def unscored(x):
            return DetectionRecord(Box3D((x, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0")

        gts = [gt(10.0, 0.0)]
        # beyond range_limit, so not among the detections that are matched
        with pytest.raises(ValueError, match=r"^detection record 1 has no score$"):
            evaluate(gts, [det(10.0, 0.0, 0.9), unscored(80.0)])
        # in range after a record beyond it: named by input index, not by in-range position
        with pytest.raises(ValueError, match=r"^detection record 2 has no score$"):
            evaluate(gts, [det(10.0, 0.0, 0.9), det(90.0, 0.0, 0.9), unscored(11.0)])

    def test_report_derives_map_and_nds_star_from_its_fields(self):
        report = MetricReport(
            m_ate=0.2, m_ase=0.3, m_aoe=1.5, per_threshold_ap={0.5: 0.25, 1.0: 0.5, 2.0: 0.75}, match_counts={}
        )
        assert report.m_ap == (0.25 + 0.5 + 0.75) / 3
        assert report.nds_star == nds_star(report.m_ap, 0.2, 0.3, 1.5)
        assert report.to_dict()["NDS_star"] == report.nds_star
        for name in ("m_ap", "nds_star"):
            with pytest.raises(TypeError, match=name):
                MetricReport(
                    m_ate=0.2, m_ase=0.2, m_aoe=0.2, per_threshold_ap={2.0: 0.5}, match_counts={}, **{name: 0.5}
                )

    def test_random_inputs_match_brute_force_exactly(self):
        # half-meter lattice: many equidistant GTs and distances exactly at a threshold;
        # three score levels: many ties; range limit inside the lattice: records dropped
        rng = np.random.default_rng(51)
        configs = [
            MetricConfig(),
            MetricConfig(distance_thresholds=(0.5, 1.0, 1.5, 3.0), tp_threshold=1.0, range_limit=4.0),
            MetricConfig(distance_thresholds=(1.0, 2.0), tp_threshold=1.0, range_limit=3.5, recall_floor=0.0),
        ]
        checked = 0
        for trial in range(150):
            cfg = configs[trial % len(configs)]
            samples = [f"s{k}" for k in range(int(rng.integers(1, 4)))]
            gts, dets = [], []
            for _ in range(int(rng.integers(1, 10))):
                x, y = rng.integers(-10, 11, size=2) / 2.0
                gts.append(gt(float(x), float(y), yaw=float(rng.uniform(-3, 3)), sample=str(rng.choice(samples))))
            for _ in range(int(rng.integers(0, 14))):
                x, y = rng.integers(-10, 11, size=2) / 2.0
                dims = (float(rng.uniform(3, 5)), float(rng.uniform(1.5, 2.5)), 1.5)
                score = float(rng.choice([0.2, 0.5, 0.9]))
                yaw = float(rng.uniform(-3, 3))
                dets.append(det(float(x), float(y), score, dims=dims, yaw=yaw, sample=str(rng.choice(samples))))
            # the record lists and their tables, as `bevkit evaluate` parses them
            inputs = [(gts, dets), (table_from_dict(records_to_dict(gts)), table_from_dict(records_to_dict(dets)))]
            try:
                gts_kept, dets_kept, per_threshold_ap, errors, counts = brute_force_evaluate(gts, dets, cfg)
            except UndefinedAPError:
                for gt_input, det_input in inputs:
                    with pytest.raises(UndefinedAPError):
                        evaluate(gt_input, det_input, cfg)
                continue
            for gt_input, det_input in inputs:
                report = evaluate(gt_input, det_input, cfg)
                assert report.per_threshold_ap == per_threshold_ap
                assert (report.m_ate, report.m_ase, report.m_aoe) == errors
                assert report.match_counts == counts
            kept_tables = [table_from_dict(records_to_dict(records)) for records in (gts_kept, dets_kept)]
            for t in cfg.distance_thresholds:
                expected = brute_force_matches(gts_kept, dets_kept, t)[1]
                assert match_detections(gts_kept, dets_kept, t) == expected
                assert match_detections(*kept_tables, t) == expected
            checked += 1
        assert checked > 100

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MetricConfig(distance_thresholds=(1.0, 0.5))
        with pytest.raises(ValueError):
            MetricConfig(tp_threshold=3.0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (
                {"distance_thresholds": (0.5, math.nan, 2.0), "tp_threshold": 2.0},
                "distance thresholds must be positive and finite, got (0.5, nan, 2.0)",
            ),
            (
                {"distance_thresholds": (0.5, 1.0, math.inf), "tp_threshold": 1.0},
                "distance thresholds must be positive and finite, got (0.5, 1.0, inf)",
            ),
            ({"range_limit": math.nan}, "range_limit must be positive and finite, got nan"),
            ({"range_limit": math.inf}, "range_limit must be positive and finite, got inf"),
            ({"range_limit": 0}, "range_limit must be positive and finite, got 0.0"),
        ],
        ids=["threshold-nan", "threshold-inf", "range-nan", "range-inf", "range-zero"],
    )
    def test_non_finite_config_rejected(self, kwargs, message):
        with pytest.raises(ValueError) as exc:
            MetricConfig(**kwargs)
        assert str(exc.value) == message

    def test_integral_range_limit_coerced_to_float(self):
        cfg = MetricConfig(range_limit=60)
        assert type(cfg.range_limit) is float
        assert cfg == MetricConfig(range_limit=60.0)


class TestDetectionTableJoin:
    def test_join_equals_from_columns_over_both_halves(self):
        rng = np.random.default_rng(7)
        samples = ["b", "a", "b", "c", "a", "d", "c", "b"]
        classes = ["car", "car", "ped", "car", "bus", "ped", "car", "car"]
        center, dims = rng.normal(size=(8, 3)), rng.uniform(1, 2, (8, 3))
        yaw, score = rng.uniform(-3, 3, 8), np.array([0.5, np.nan, 0.1, 0.9, np.nan, 0.3, 0.2, 0.7])
        whole = DetectionTable.from_columns(samples, classes, center, dims, yaw, score)
        for cut in range(1, 8):
            head = DetectionTable.from_columns(samples[:cut], classes[:cut], center[:cut], dims[:cut], yaw[:cut], score[:cut])
            tail = DetectionTable.from_columns(samples[cut:], classes[cut:], center[cut:], dims[cut:], yaw[cut:], score[cut:])
            joined = head.join(tail)
            assert (joined.sample_ids, joined.class_ids) == (whole.sample_ids, whole.class_ids)
            for name in ("sample", "class_index", "center", "dims", "yaw", "score", "index"):
                got, want = getattr(joined, name), getattr(whole, name)
                assert got.dtype == want.dtype and np.array_equal(got, want, equal_nan=True), (cut, name)


def all_pairs_under(gt_sample, gt_center, det_sample, det_center, cutoff):
    """Every same-sample (detection row, ground-truth row) pair with ``np.hypot`` distance below ``cutoff``."""
    det_rows, gt_rows = np.meshgrid(np.arange(len(det_sample)), np.arange(len(gt_sample)), indexing="ij")
    det_rows, gt_rows = det_rows.ravel(), gt_rows.ravel()
    with np.errstate(over="ignore"):
        distance = np.hypot(
            det_center[det_rows, 0] - gt_center[gt_rows, 0], det_center[det_rows, 1] - gt_center[gt_rows, 1]
        )
    keep = (det_sample[det_rows] == gt_sample[gt_rows]) & (distance < cutoff)
    return set(zip(det_rows[keep].tolist(), gt_rows[keep].tolist()))


def columns(points):
    """Sample and (n, 3) centre columns from (sample, x, y) triples."""
    sample = np.array([p[0] for p in points], dtype=np.int64)
    center = np.array([(p[1], p[2], 0.75) for p in points], dtype=float).reshape(-1, 3)
    return sample, center


class TestCandidatePairs:
    """The x-window search finds exactly the pairs the all-pairs ``np.hypot`` test keeps."""

    @staticmethod
    def assert_window_is_exact(gt_points, det_points, cutoff):
        gt_sample, gt_center = columns(gt_points)
        det_sample, det_center = columns(det_points)
        det_rows, gt_rows = metrics_module._candidate_pairs(gt_sample, gt_center, det_sample, det_center, cutoff)
        found = list(zip(det_rows.tolist(), gt_rows.tolist()))
        assert len(found) == len(set(found))
        expected = all_pairs_under(gt_sample, gt_center, det_sample, det_center, cutoff)
        assert set(found) == expected
        return expected

    @pytest.mark.parametrize("cutoff", [4.0, 1e300, 1.000000001e308])
    def test_centres_near_the_largest_floats(self, cutoff):
        # x +- cutoff and the differences across the origin overflow to infinity
        big = 1e308
        gts = [(0, big, 0.0), (0, -big, 0.0), (0, big - 3.0e292, 1.0), (0, 10.0, 0.0), (1, big, -big)]
        dets = [(0, big, 0.0), (0, -big, 1.0), (0, 9.0, 0.0), (1, big, -big), (1, -big, big)]
        pairs = self.assert_window_is_exact(gts, dets, cutoff)
        assert (0, 0) in pairs and (1, 1) in pairs

    def test_evaluate_with_centres_near_the_largest_floats(self):
        big = 9.9e307
        gts = [gt(big, 0.0), gt(-big, 0.0), gt(0.0, big), gt(10.0, 0.0)]
        dets = [det(-big, 0.0, 0.9), det(big, 0.0, 0.8), det(0.0, big, 0.7), det(10.2, 0.0, 0.6)]
        report = evaluate(gts, dets, MetricConfig(range_limit=1e308))
        assert report.match_counts["matches@0.5"] == 4

    def test_pair_exactly_at_the_cutoff_is_out(self):
        below = math.nextafter(5.0, 0.0)
        gts = [(0, 5.0, 0.0), (0, -5.0, 0.0), (0, 3.0, 4.0), (0, 0.0, 5.0), (0, below, 0.0), (0, -below, 0.0)]
        pairs = self.assert_window_is_exact(gts, [(0, 0.0, 0.0)], 5.0)
        assert pairs == {(0, 4), (0, 5)}

    @pytest.mark.parametrize("x, cutoff, edge", [(-30.838374097986478, 4.0, 0), (33.85945971490406, 0.3, 1)])
    def test_ground_truth_on_a_rounded_window_edge(self, x, cutoff, edge):
        # x - cutoff (edge 0) or x + cutoff (edge 1) rounds toward x, and the
        # ground truth on that edge lies just under the cutoff
        gts = [(0, x - cutoff, 0.0), (0, x + cutoff, 0.0)]
        assert (0, edge) in self.assert_window_is_exact(gts, [(0, x, 0.0)], cutoff)

    def test_many_ground_truths_share_one_x(self):
        gts = [(0, 7.0, float(y)) for y in np.linspace(-20.0, 20.0, 41)] + [(0, 3.0, 0.0), (0, 11.0, 0.0)]
        dets = [(0, 7.0, 0.3), (0, 3.0, 0.0), (0, 11.0, -4.0), (0, 7.0 + 4.0, 0.0), (0, 2.9999, 19.0)]
        assert len(self.assert_window_is_exact(gts, dets, 4.0)) >= 10

    def test_samples_with_only_ground_truths_or_only_detections(self):
        gts = [(0, 1.0, 1.0), (0, 2.0, 1.0), (2, 5.0, 5.0), (3, 0.0, 0.0)]
        dets = [(1, 1.0, 1.0), (1, 2.0, 1.0), (2, 5.5, 5.0), (4, 0.0, 0.0)]
        assert self.assert_window_is_exact(gts, dets, 4.0) == {(2, 2)}
        assert self.assert_window_is_exact(gts, [], 4.0) == set()
        assert self.assert_window_is_exact([], dets, 4.0) == set()

    @pytest.mark.parametrize("block", [1, 3, 1 << 16])
    def test_single_sample(self, monkeypatch, block):
        monkeypatch.setattr(metrics_module, "_PAIR_BLOCK", block)
        rng = np.random.default_rng(7)
        gts = [(0, *xy) for xy in rng.uniform(-30.0, 30.0, size=(60, 2)).tolist()]
        dets = [(0, *xy) for xy in rng.uniform(-30.0, 30.0, size=(90, 2)).tolist()]
        assert len(self.assert_window_is_exact(gts, dets, 4.0)) > 0

    def test_many_samples(self):
        rng = np.random.default_rng(8)
        gts, dets = [
            [(int(s), *xy) for s, xy in zip(rng.integers(0, 12, n), rng.uniform(-50.0, 50.0, size=(n, 2)).tolist())]
            for n in (300, 500)
        ]
        assert len(self.assert_window_is_exact(gts, dets, 4.0)) > 0
