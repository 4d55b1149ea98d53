import math
from dataclasses import fields

import numpy as np
import pytest

from bevkit.augment import PerturbationRange, augment_camera
from bevkit.metrics import DetectionTable, MetricConfig
from bevkit.scene import (
    RunConfig,
    Scene,
    dumps_canonical,
    generate_synthetic_scene,
    records_from_dict,
    render_pattern_image,
    run_config_from_dict,
    scene_from_dict,
    scene_to_dict,
    table_from_dict,
)


class TestGenerateSyntheticScene:
    def test_deterministic_bytes(self):
        a = dumps_canonical(scene_to_dict(generate_synthetic_scene(7, 6, 10)))
        b = dumps_canonical(scene_to_dict(generate_synthetic_scene(7, 6, 10)))
        assert a == b

    def test_different_seeds_differ(self):
        a = scene_to_dict(generate_synthetic_scene(7, 6, 10))
        b = scene_to_dict(generate_synthetic_scene(8, 6, 10))
        assert a != b

    def test_ring_yaw_spacing(self):
        scene = generate_synthetic_scene(3, 6, 0)
        yaws = sorted(cam.pose.yaw for cam in scene.cameras)
        gaps = [b - a for a, b in zip(yaws, yaws[1:])]
        for gap in gaps:
            assert gap == pytest.approx(2.0 * math.pi / 6.0, abs=1e-9)

    def test_no_boxes_scene_falls_back_to_identity(self):
        scene = generate_synthetic_scene(5, 6, 0)
        assert scene.boxes == ()
        images = [
            render_pattern_image(cam.intrinsics.width, cam.intrinsics.height, i)
            for i, cam in enumerate(scene.cameras)
        ]
        limits = PerturbationRange(0.02, 0.01, 0.02, seed=5)
        views = [augment_camera(cam, images[i], scene.boxes, limits, i) for i, cam in enumerate(scene.cameras)]
        for image, view in zip(images, views):
            assert view.homography.provenance == "identity-fallback"
            assert np.array_equal(view.image, image)

    def test_focals_inside_scheme_interval(self):
        scene = generate_synthetic_scene(11, 5, 4)
        for cam in scene.cameras:
            assert 500.0 <= cam.intrinsics.fx <= 750.0

    def test_boxes_inside_range(self):
        scene = generate_synthetic_scene(13, 6, 40)
        for box in scene.boxes:
            assert math.hypot(box.center[0], box.center[1]) <= 50.0

    def test_unsupported_style_lists_supported(self):
        with pytest.raises(ValueError, match="ring"):
            generate_synthetic_scene(1, 6, 4, rig_style="spiral")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            generate_synthetic_scene(-1, 6, 4)

    def test_camera_count_restricted(self):
        with pytest.raises(ValueError):
            generate_synthetic_scene(1, 4, 4)

    def test_camera_count_is_a_whole_number(self):
        assert generate_synthetic_scene(0, n_cameras=5.0) == generate_synthetic_scene(0, n_cameras=5)
        with pytest.raises(ValueError, match="n_cameras must be a positive integer, got 5.5"):
            generate_synthetic_scene(0, n_cameras=5.5)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((2.5, 3), "width must be a positive integer, got 2.5"),
            ((True, 2), "width must be a positive integer, got True"),
            ((4, -1), "height must be a positive integer, got -1"),
            ((4, 0), "height must be a positive integer, got 0"),
            ((4, 3, -1), "camera_index must be a non-negative integer, got -1"),
            ((4, 3, 0.5), "camera_index must be a non-negative integer, got 0.5"),
        ],
        ids=["fractional-width", "bool-width", "negative-height", "zero-height", "negative-index", "fractional-index"],
    )
    def test_pattern_image_takes_whole_numbers(self, args, message):
        with pytest.raises(ValueError) as exc:
            render_pattern_image(*args)
        assert str(exc.value) == message

    def test_frontal_style_supported(self):
        scene = generate_synthetic_scene(2, 5, 4, rig_style="frontal")
        assert len(scene.cameras) == 5

    def test_boxes_visible_from_ring(self):
        scene = generate_synthetic_scene(17, 6, 12)
        images = [
            render_pattern_image(cam.intrinsics.width, cam.intrinsics.height, i)
            for i, cam in enumerate(scene.cameras)
        ]
        limits = PerturbationRange(0.02, 0.01, 0.02, seed=17)
        views = [augment_camera(cam, images[i], scene.boxes, limits, i) for i, cam in enumerate(scene.cameras)]
        assert any(view.homography.provenance == "fitted" for view in views)


class TestSceneSerialization:
    def test_roundtrip(self):
        scene = generate_synthetic_scene(9, 6, 7)
        assert scene_from_dict(scene_to_dict(scene)) == scene

    def test_roundtrip_with_image_paths(self):
        base = generate_synthetic_scene(9, 5, 3)
        scene = Scene(base.scene_id, base.cameras, base.boxes, tuple(f"{c.camera_id}.pgm" for c in base.cameras))
        assert scene_from_dict(scene_to_dict(scene)) == scene

    def test_duplicate_camera_ids_rejected(self):
        base = generate_synthetic_scene(9, 5, 0)
        cams = (base.cameras[0], base.cameras[0])
        with pytest.raises(ValueError):
            Scene("dup", cams, ())

    def test_missing_key_rejected(self):
        data = scene_to_dict(generate_synthetic_scene(9, 5, 1))
        del data["cameras"]
        with pytest.raises(ValueError, match="cameras"):
            scene_from_dict(data)

    def test_unsupported_version_rejected(self):
        data = scene_to_dict(generate_synthetic_scene(9, 5, 1))
        data["schema_version"] = 99
        with pytest.raises(ValueError, match="schema_version"):
            scene_from_dict(data)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(ValueError):
            dumps_canonical({"values": [1.0, value]})


@pytest.mark.parametrize("parse", [scene_from_dict, records_from_dict, table_from_dict, run_config_from_dict])
@pytest.mark.parametrize(
    "document, json_type", [(None, "null"), ([1], "array"), (True, "boolean"), ("x", "string"), (3, "number")]
)
def test_a_document_that_is_not_an_object_is_rejected_by_its_json_type(parse, document, json_type):
    with pytest.raises(ValueError) as failure:
        parse(document)
    assert str(failure.value) == f"the top level must be an object, got {json_type}"


def record(sample="s0", center=(10.0, 0.0, 0.75), dims=(4.0, 2.0, 1.5), yaw=0.0, **extra):
    return {"sample_id": sample, "center": list(center), "dims": list(dims), "yaw": yaw, **extra}


def assert_tables_equal(table, expected):
    assert (table.sample_ids, table.class_ids) == (expected.sample_ids, expected.class_ids)
    for column in ("sample", "class_index", "center", "dims", "yaw", "score"):
        got, want = getattr(table, column), getattr(expected, column)
        assert got.dtype == want.dtype and got.shape == want.shape, column
        assert np.array_equal(got, want, equal_nan=True), column


class TestTableFromDict:
    @pytest.mark.parametrize(
        "records",
        [
            [],
            [record()],
            [
                record("b", (1, 2, 0), yaw=4.0, score=0.5),
                record("a", (1.5, 1, 0.25), dims=(0, 0.0, -0.0), yaw=-math.pi, class_id="pedestrian", score=1),
                record("b", (-3.0, 7.25, 1.0), yaw=math.pi, score=0, velocity=[1, 2]),
                record("a\x00", yaw=-12.5),
            ],
            [record(center=(2**70, 1.0, 0.0))],
        ],
        ids=["empty", "one", "mixed-number-types", "huge-int"],
    )
    def test_same_rows_as_records_from_dict(self, records):
        data = {"schema_version": 1, "records": records}
        assert_tables_equal(table_from_dict(data), DetectionTable.from_records(records_from_dict(data)))

    @pytest.mark.parametrize(
        "bad",
        [
            record(center=(10.0, 0.0)),
            record(center=(float("nan"), 0.0, 0.75)),
            record(center=(1.0, 2.0, [3.0])),
            record(dims=(4.0, -2.0, 1.5)),
            record(yaw=float("inf")),
            record(yaw=None),
            record(score=1.5),
            record(score=float("nan")),
            record(score=[0.5]),
            record(""),
            record(center=(1.5, True, 0.25)),
            record(yaw=False),
            record(score=False),
            record(score=None),
            record("c", ("1.5", 2.0, 0.0), yaw="0.5", score="0.25"),
            record(score="0.25"),
            record(7, class_id=None),
            record(None),
            record(class_id=3),
            {"center": [1.0, 2.0, 3.0], "dims": [1.0, 1.0, 1.0], "yaw": 0.0},
            {"sample_id": "s0", "dims": [1.0, 1.0, 1.0], "yaw": 0.0},
            [1, 2],
            5,
            None,
            "center",
        ],
        ids=[
            "center-length-2",
            "center-nan",
            "center-ragged",
            "negative-dims",
            "yaw-inf",
            "yaw-null",
            "score-1.5",
            "score-nan",
            "score-array",
            "empty-sample-id",
            "center-bool",
            "yaw-bool",
            "score-bool",
            "score-null",
            "numeric-strings",
            "score-numeric-string",
            "non-string-ids",
            "sample-id-null",
            "class-id-number",
            "missing-sample-id",
            "missing-center",
            "record-array",
            "record-number",
            "record-null",
            "record-string",
        ],
    )
    def test_malformed_record_raises_its_per_record_error(self, bad):
        data = {"schema_version": 1, "records": [record(), record(yaw=0.5), bad, record(dims=(-1.0, 1.0, 1.0))]}
        with pytest.raises(Exception) as expected:
            records_from_dict(data)
        with pytest.raises(type(expected.value)) as got:
            table_from_dict(data)
        assert str(got.value) == str(expected.value)
        assert str(expected.value).startswith("record 2")

    @pytest.mark.parametrize(
        "bad, error, message",
        [
            ({"sample_id": "s0", "dims": [1, 1, 1], "yaw": 0}, ValueError, "missing required key 'center'"),
            ({"center": [1, 2, 3], "dims": [1, 1, 1], "yaw": 0}, ValueError, "missing required key 'sample_id'"),
            (record(score=None), ValueError, "score must not be null"),
            (record(center=(10**400, 0.0, 0.0)), OverflowError, "int too large to convert to float"),
        ],
        ids=["missing-center", "missing-sample-id", "score-null", "center-beyond-float"],
    )
    def test_error_names_the_record_and_keeps_its_type(self, bad, error, message):
        with pytest.raises(error) as got:
            records_from_dict({"records": [record(), bad]})
        assert type(got.value) is error and str(got.value) == f"record 1: {message}"

    @pytest.mark.parametrize(
        "records, message",
        [
            ([record(), record(center=(1.5, True, 0.25))], "record 1: center must be a finite number, got True"),
            ([record(center=(True, False, True))], "record 0: center must be a finite number, got True"),
            ([record(yaw=True), record(yaw=False)], "record 0: yaw must be a finite number, got True"),
            ([record(score=False), record(score=True)], "record 0: score must be a number, got False"),
        ],
        ids=["center-one-bool", "center-all-bool", "yaw-all-bool", "score-all-bool"],
    )
    def test_bool_rejected_in_an_otherwise_valid_file(self, records, message):
        # numpy reads a bool among numbers as 1 or 0, and a column of bools as dtype bool
        with pytest.raises(ValueError, match=f"^{message}$"):
            table_from_dict({"schema_version": 1, "records": records})

    def test_unsupported_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            table_from_dict({"schema_version": 2, "records": [record()]})
        with pytest.raises(ValueError, match="unsupported records schema_version True"):
            table_from_dict({"schema_version": True, "records": [record()]})


class TestRunConfigSerialization:
    def test_parse_defaults(self):
        cfg = run_config_from_dict({"schema_version": 1})
        assert cfg == RunConfig()
        assert [f.name for f in fields(RunConfig)] == ["perturbation", "metrics"]
        assert cfg.perturbation == PerturbationRange(d_yaw=0.02, d_pitch=0.01, d_roll=0.02, seed=0)
        assert cfg.metrics == MetricConfig(
            distance_thresholds=(0.5, 1.0, 2.0, 4.0),
            tp_threshold=2.0,
            range_limit=50.0,
            recall_floor=0.1,
            precision_floor=0.1,
        )

    def test_parse_custom(self):
        cfg = run_config_from_dict(
            {
                "schema_version": 1,
                "perturbation": {"d_yaw": 0.08, "d_pitch": 0.02, "d_roll": 0.04, "seed": 7},
                "metrics": {
                    "distance_thresholds": [1.0, 2.0],
                    "tp_threshold": 2.0,
                    "range_limit": 60.0,
                    "recall_floor": 0.05,
                    "precision_floor": 0.2,
                },
            }
        )
        assert cfg.perturbation == PerturbationRange(d_yaw=0.08, d_pitch=0.02, d_roll=0.04, seed=7)
        assert cfg.metrics == MetricConfig(
            distance_thresholds=(1.0, 2.0),
            tp_threshold=2.0,
            range_limit=60.0,
            recall_floor=0.05,
            precision_floor=0.2,
        )

    def test_integral_and_float_values_coerced(self):
        cfg = run_config_from_dict(
            {
                "perturbation": {"d_yaw": 0, "seed": 3.0},
                "metrics": {"distance_thresholds": [1, 2], "tp_threshold": 2, "range_limit": 60},
            }
        )
        assert (type(cfg.perturbation.seed), cfg.perturbation.seed) == (int, 3)
        assert (type(cfg.perturbation.d_yaw), cfg.perturbation.d_yaw) == (float, 0.0)
        assert cfg.metrics.distance_thresholds == (1.0, 2.0)
        assert all(type(t) is float for t in cfg.metrics.distance_thresholds)
        assert (type(cfg.metrics.tp_threshold), cfg.metrics.tp_threshold) == (float, 2.0)
        assert (type(cfg.metrics.range_limit), cfg.metrics.range_limit) == (float, 60.0)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"seed": 5}, "unknown key 'seed'"),
            ({"depth": {"reference_pixel_size": 0.001}}, "unknown key 'depth'"),
            ({"scheme": {"alpha": 500.0, "beta": 750.0, "num_subintervals": 5}}, "unknown key 'scheme'"),
            ({"metric": {"range_limit": 100}}, "unknown key 'metric'"),
            ({"metrics": {"range_limt": 100}}, "metrics: unknown key 'range_limt'"),
            ({"perturbation": {"d_yaw": 0.1, "yaw": 0.1}}, "perturbation: unknown key 'yaw'"),
            ({"metrics": [1.0, 2.0]}, "metrics must be an object, got array"),
            ({"perturbation": 0.02}, "perturbation must be an object, got number"),
        ],
        ids=["top-level-seed", "depth", "scheme", "top-level-key", "metrics-key", "perturbation-key", "metrics-list", "perturbation-number"],
    )
    def test_unknown_key_or_non_object_section_rejected(self, data, message):
        with pytest.raises(ValueError) as exc:
            run_config_from_dict(data)
        assert str(exc.value) == message

    def test_partial_dict_uses_defaults(self):
        cfg = run_config_from_dict({"perturbation": {"seed": 3}})
        assert cfg.perturbation == PerturbationRange(seed=3)
        assert cfg.metrics == MetricConfig()
