"""Acceptance suite: one test per release criterion, each printing a
pass line with the measured margin.  Run with ``pytest -s tests/test_acceptance.py``
to see the lines, or plain ``pytest`` to just enforce them.
"""

import math
import time

import numpy as np
import pytest

from bevkit.augment import (
    MatchedPairSet,
    ground_plane_homography,
    collect_pairs,
    fit_homography,
)
from bevkit.boxes import Box3D
from bevkit.cli import main
from bevkit.depth import DepthDecouplingConfig, metric_to_scale_invariant, scale_invariant_to_metric
from bevkit.geometry import Intrinsics
from bevkit.metrics import DetectionRecord, nds_star, evaluate
from bevkit.ordinal import OrdinalDomainScheme, ordinal_loss, ordinal_loss_grad
from reference_cases import REFERENCE_NDS_STAR_ROWS, pure_rotation_case, records_to_dict


def read_tree(root):
    return [(str(p.relative_to(root)), p.read_bytes()) for p in sorted(root.rglob("*")) if p.is_file()]


def test_acceptance_1_nds_star_reference_rows():
    started = time.perf_counter()
    assert len(REFERENCE_NDS_STAR_ROWS) >= 12
    worst = 0.0
    for m_ap, m_ate, m_ase, m_aoe, expected in REFERENCE_NDS_STAR_ROWS:
        worst = max(worst, abs(nds_star(m_ap, m_ate, m_ase, m_aoe) - expected))
    assert worst <= 0.005
    # the two examples spelled out in the criterion
    assert nds_star(0.040, 1.303, 0.265, 0.790) == pytest.approx(0.178, abs=0.005)
    assert nds_star(0.602, 0.471, 0.152, 0.078) == pytest.approx(0.684, abs=0.005)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print(
        f"\nACCEPTANCE 1 nds-star-reference: PASS "
        f"({len(REFERENCE_NDS_STAR_ROWS)} rows, max dev {worst:.4f} <= 0.005, {elapsed:.3f}s < 1s)"
    )


def test_acceptance_2_homography_oracle():
    started = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        cam, perturbed, boxes = pure_rotation_case(rng)
        pairs = collect_pairs(cam, perturbed, boxes)
        assert len(pairs) >= 4
        fitted = fit_homography(pairs)
        assert fitted.provenance == "fitted"
        closed_form = ground_plane_homography(cam, perturbed)
        worst = max(worst, float(np.linalg.norm(fitted.matrix - closed_form.matrix)))
    assert worst < 1e-6

    fallback = fit_homography(MatchedPairSet(np.zeros((3, 2)), np.ones((3, 2))))
    assert fallback.provenance == "identity-fallback"
    assert np.array_equal(fallback.matrix * math.sqrt(3.0), np.eye(3))

    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    print(
        f"\nACCEPTANCE 2 homography-oracle: PASS "
        f"(200 pure-rotation cases, max Frobenius gap {worst:.2e} < 1e-6, "
        f"fallback exact, {elapsed:.2f}s < 10s)"
    )


def test_acceptance_3_depth_decoupling():
    rng = np.random.default_rng(3033)
    cfg = DepthDecouplingConfig()
    lo, hi = cfg.metric_depth_range
    worst_roundtrip = 0.0
    for _ in range(1000):
        intr = Intrinsics(
            fx=float(rng.uniform(200.0, 3000.0)),
            fy=float(rng.uniform(200.0, 3000.0)),
            px=352.0,
            py=128.0,
            width=704,
            height=256,
        )
        d_m = float(rng.uniform(lo, hi))
        back = scale_invariant_to_metric(metric_to_scale_invariant(d_m, intr, cfg), intr, cfg)
        worst_roundtrip = max(worst_roundtrip, abs(back - d_m) / d_m)
    assert worst_roundtrip < 1e-12

    products = []
    for focal in (400.0, 800.0, 1600.0):
        intr = Intrinsics(fx=focal, fy=focal, px=352.0, py=128.0, width=704, height=256)
        pixel_height = intr.fy * 1.8 / 30.0
        products.append(pixel_height * metric_to_scale_invariant(30.0, intr, cfg))
    spread = (max(products) - min(products)) / max(products)
    assert spread < 1e-9

    scheme = OrdinalDomainScheme(500.0, 750.0, 5)
    assert scheme.thresholds == (500.0, 550.0, 600.0, 650.0, 700.0, 750.0)

    print(
        f"\nACCEPTANCE 3 depth-decoupling: PASS "
        f"(1000 round trips, max rel err {worst_roundtrip:.2e} < 1e-12; "
        f"size-depth spread {spread:.2e} < 1e-9; threshold list exact)"
    )


def test_acceptance_4_ordinal_loss():
    rng = np.random.default_rng(4044)
    step = 1e-5
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        logits = rng.normal(0.0, 3.0, size=2 * (k + 1))
        label = int(rng.integers(0, k + 2))
        analytic = ordinal_loss_grad(logits, label)
        numeric = np.empty_like(analytic)
        for i in range(logits.size):
            bump = np.zeros_like(logits)
            bump[i] = step
            numeric[i] = (ordinal_loss(logits + bump, label) - ordinal_loss(logits - bump, label)) / (2 * step)
        denom = max(float(np.abs(numeric).max()), 1e-8)
        worst = max(worst, float(np.abs(analytic - numeric).max()) / denom)
    assert worst < 1e-5

    uniform_dev = 0.0
    for k in (1, 2, 4, 6):
        loss = ordinal_loss(np.zeros(2 * (k + 1)), 0)
        uniform_dev = max(uniform_dev, abs(loss - (k + 1) * math.log(2.0)))
    assert uniform_dev < 1e-12

    scheme = OrdinalDomainScheme(500.0, 750.0, 4)
    assert len(scheme.thresholds) == 5
    assert scheme.num_categories == 6

    print(
        f"\nACCEPTANCE 4 ordinal-loss: PASS "
        f"(100 gradient checks, max rel err {worst:.2e} < 1e-5; uniform loss dev {uniform_dev:.2e} < 1e-12; "
        f"4 sub-intervals -> 5 thresholds, 6 categories)"
    )


def test_acceptance_5_metrics_oracle():
    gts = [
        DetectionRecord(Box3D((10.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0"),
        DetectionRecord(Box3D((20.0, 5.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0"),
        DetectionRecord(Box3D((-15.0, 3.0, 0.75), (4.0, 2.0, 1.5), math.pi / 4), "s0"),
    ]
    dets = [
        DetectionRecord(Box3D((10.4, 0.0, 0.75), (4.0, 2.0, 1.5), 0.1, score=0.9), "s0"),
        DetectionRecord(Box3D((20.0, 5.0, 0.75), (2.0, 2.0, 1.5), 0.0, score=0.8), "s0"),
    ]
    report = evaluate(gts, dets)

    # brute-force hand computation: 2 true positives at every threshold
    # (distances 0.4 and 0), 1 missed ground truth, precision 1 up to
    # recall 2/3; grid bins 11..66 carry precision 1
    expected_ap = float(np.mean(np.where(np.arange(11, 101) <= 66, 1.0 - 0.1, 0.0))) / (1.0 - 0.1)
    expected_ate = (math.hypot(10.4 - 10.0, 0.0) + 0.0) / 2.0
    overlap = 2.0 * 2.0 * 1.5
    union = 4.0 * 2.0 * 1.5 + overlap - overlap
    expected_ase = ((1.0 - 1.0) + (1.0 - overlap / union)) / 2.0
    expected_aoe = (min(0.1, 2 * math.pi - 0.1) + 0.0) / 2.0

    assert report.m_ap == expected_ap
    assert report.m_ate == expected_ate
    assert report.m_ase == expected_ase
    assert report.m_aoe == expected_aoe

    perfect = [DetectionRecord(Box3D(g.box.center, g.box.dims, g.box.yaw, score=1.0), g.sample_id) for g in gts]
    perfect_report = evaluate(gts, perfect)
    assert (
        perfect_report.m_ap,
        perfect_report.m_ate,
        perfect_report.m_ase,
        perfect_report.m_aoe,
        perfect_report.nds_star,
    ) == (1.0, 0.0, 0.0, 0.0, 1.0)

    empty_report = evaluate(gts, [])
    assert empty_report.nds_star == 0.0

    print(
        f"\nACCEPTANCE 5 metrics-oracle: PASS "
        f"(fixture mAP={report.m_ap:.10f}, mATE={report.m_ate}, mASE={report.m_ase}, mAOE={report.m_aoe} "
        f"all equal hand values; perfect -> (1,0,0,0,1); empty -> NDS*=0)"
    )


def test_acceptance_6_determinism(tmp_path):
    # gen-scene: two runs, byte identical
    scene_dirs = [tmp_path / "scene_a", tmp_path / "scene_b"]
    for out in scene_dirs:
        assert main(["gen-scene", "--seed", "7", "--with-images", "--output-dir", str(out)]) == 0
    assert read_tree(scene_dirs[0]) == read_tree(scene_dirs[1])

    # augment: two runs and 1 vs 4 workers, byte identical
    scene_path = scene_dirs[0] / "scene.json"
    augment_trees = []
    for tag, workers in (("aug_a", "1"), ("aug_b", "1"), ("aug_c", "4")):
        out = tmp_path / tag
        assert (
            main(
                ["augment", "--scene", str(scene_path), "--seed", "5", "--workers", workers, "--output-dir", str(out)]
            )
            == 0
        )
        augment_trees.append([blob for _, blob in read_tree(out)])
    assert augment_trees[0] == augment_trees[1] == augment_trees[2]

    # evaluate: two runs and 1 vs 4 workers, byte identical
    from bevkit.scene import dumps_canonical

    rng = np.random.default_rng(66)
    gts, dets = [], []
    for sample in ("a", "b", "c"):
        for _ in range(5):
            x, y = (float(v) for v in rng.uniform(-40, 40, size=2))
            gts.append(DetectionRecord(Box3D((x, y, 0.75), (4.0, 2.0, 1.5), 0.0), sample))
            dets.append(
                DetectionRecord(
                    Box3D((x + float(rng.normal(0, 0.6)), y, 0.75), (4.0, 2.0, 1.5), 0.0, score=float(rng.uniform(0, 1))),
                    sample,
                )
            )
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    gt_path.write_text(dumps_canonical(records_to_dict(gts)), encoding="utf-8")
    pred_path.write_text(dumps_canonical(records_to_dict(dets)), encoding="utf-8")
    eval_blobs = []
    for tag, workers in (("ev_a", "1"), ("ev_b", "1"), ("ev_c", "4")):
        out = tmp_path / tag
        assert (
            main(
                ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--workers", workers, "--output-dir", str(out)]
            )
            == 0
        )
        eval_blobs.append((out / "metric_report.json").read_bytes())
    assert eval_blobs[0] == eval_blobs[1] == eval_blobs[2]

    print(
        "\nACCEPTANCE 6 determinism: PASS "
        "(gen-scene, augment, evaluate byte-identical across two runs and across 1 vs 4 workers)"
    )
