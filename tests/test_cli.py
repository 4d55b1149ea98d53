import argparse
import json
import math
from pathlib import Path

import numpy as np
import pytest

from bevkit.augment import collect_pairs
from bevkit.cli import build_parser, main
from bevkit.geometry import ego_to_camera_rotation
from bevkit.scene import dumps_canonical, records_to_dict, scene_from_dict
from bevkit.boxes import Box3D
from bevkit.metrics import DetectionRecord

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"

def read_tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def validate(data, schema_name, definition=None):
    import jsonschema

    schema = json.loads((SCHEMAS / schema_name).read_text())
    if definition is not None:
        schema = {**schema, "$ref": f"#/$defs/{definition}"}
    jsonschema.validate(data, schema)


def write_records(path, records):
    path.write_text(dumps_canonical(records_to_dict(records)), encoding="utf-8")


@pytest.fixture
def eval_files(tmp_path):
    gts = [
        DetectionRecord(Box3D((10.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0"),
        DetectionRecord(Box3D((20.0, 5.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0"),
    ]
    dets = [
        DetectionRecord(Box3D((10.2, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0, score=0.9), "s0"),
        DetectionRecord(Box3D((20.0, 5.0, 0.75), (4.0, 2.0, 1.5), 0.0, score=0.8), "s0"),
    ]
    gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
    write_records(gt_path, gts)
    write_records(pred_path, dets)
    return gt_path, pred_path


class TestGenScene:
    def test_writes_scene_and_is_deterministic(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            assert main(["gen-scene", "--seed", "7", "--output-dir", str(out)]) == 0
        assert (out_a / "scene.json").read_bytes() == (out_b / "scene.json").read_bytes()

    def test_with_images(self, tmp_path):
        out = tmp_path / "s"
        assert main(["gen-scene", "--seed", "1", "--with-images", "--output-dir", str(out)]) == 0
        scene = json.loads((out / "scene.json").read_text())
        assert len(scene["image_paths"]) == 6
        for rel in scene["image_paths"]:
            assert (out / rel).exists()

    def test_scene_matches_schema(self, tmp_path):
        assert main(["gen-scene", "--seed", "4", "--with-images", "--output-dir", str(tmp_path)]) == 0
        validate(json.loads((tmp_path / "scene.json").read_text()), "scene.schema.json")

    def test_bad_style_exits_2(self, tmp_path, capsys):
        code = main(["gen-scene", "--style", "spiral", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "ring" in capsys.readouterr().err


class TestAugmentCommand:
    def run_augment(self, tmp_path, tag, workers):
        scene_dir = tmp_path / "scene"
        if not (scene_dir / "scene.json").exists():
            assert main(["gen-scene", "--seed", "3", "--with-images", "--output-dir", str(scene_dir)]) == 0
        out = tmp_path / tag
        code = main(
            [
                "augment",
                "--scene",
                str(scene_dir / "scene.json"),
                "--seed",
                "5",
                "--workers",
                str(workers),
                "--output-dir",
                str(out),
            ]
        )
        assert code == 0
        return read_tree(out)

    def test_outputs_and_determinism_across_workers(self, tmp_path):
        first = self.run_augment(tmp_path, "w1", 1)
        again = self.run_augment(tmp_path, "w1b", 1)
        threaded = self.run_augment(tmp_path, "w4", 4)
        assert set(str(k) for k in first) >= {"homographies.json", "poses.json"}
        assert list(first.values()) == list(again.values())
        assert list(first.values()) == list(threaded.values())

    def test_homography_file_shape(self, tmp_path):
        tree = self.run_augment(tmp_path, "w1", 1)
        data = json.loads(next(v for k, v in tree.items() if str(k) == "homographies.json"))
        assert len(data["homographies"]) == 6
        for entry in data["homographies"]:
            matrix = entry["matrix_row_major"]
            assert len(matrix) == 9
            assert abs(np.linalg.norm(matrix) - 1.0) < 1e-9

    def test_outputs_match_schema(self, tmp_path):
        tree = {str(k): v for k, v in self.run_augment(tmp_path, "w1", 1).items()}
        validate(json.loads(tree["poses.json"]), "augment_outputs.schema.json", "poses_file")
        validate(json.loads(tree["homographies.json"]), "augment_outputs.schema.json", "homographies_file")

    def test_run_config_seed_without_perturbation_section(self, tmp_path):
        expected = self.run_augment(tmp_path, "flag", 1)
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps({"seed": 5}))
        out = tmp_path / "config"
        scene = str(tmp_path / "scene" / "scene.json")
        assert main(["augment", "--scene", scene, "--config", str(config_path), "--output-dir", str(out)]) == 0
        assert read_tree(out) == expected

    def test_degenerate_camera_falls_back_alone(self, tmp_path):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "3", "--boxes", "40", "--with-images", "--output-dir", str(scene_dir)]) == 0
        scene_path = scene_dir / "scene.json"
        data = json.loads(scene_path.read_text())
        scene = scene_from_dict(data)
        cam = scene.cameras[0]
        # drop every box cam_00 sees, then put a zero-size box on its optical axis
        data["boxes"] = [
            entry for entry, box in zip(data["boxes"], scene.boxes) if not len(collect_pairs(cam, cam.pose, [box]))
        ]
        axis_point = ego_to_camera_rotation(cam.pose).T @ (np.array([0.0, 0.0, 10.0]) - cam.pose.translation_vector())
        data["boxes"].append({"center": [float(v) for v in axis_point], "dims": [0.0, 0.0, 0.0], "yaw": 0.0})
        scene_path.write_text(dumps_canonical(data), encoding="utf-8")

        out = tmp_path / "aug"
        assert main(["augment", "--scene", str(scene_path), "--seed", "5", "--output-dir", str(out)]) == 0
        applied = json.loads((out / "homographies.json").read_text())["homographies"]
        assert applied[0]["provenance"] == "identity-fallback"
        assert all(entry["provenance"] == "fitted" for entry in applied[1:])
        assert (out / "augmented" / "cam_00.pgm").read_bytes() == (scene_dir / data["image_paths"][0]).read_bytes()
        poses = json.loads((out / "poses.json").read_text())["poses"]
        assert poses[0]["pose"] == data["cameras"][0]["pose"]

        report_dir = tmp_path / "hom"
        assert main(["homography", "--scene", str(scene_path), "--seed", "5", "--output-dir", str(report_dir)]) == 0
        reported = json.loads((report_dir / "homographies.json").read_text())["cameras"]
        assert reported[0]["fitted"]["provenance"] == "identity-fallback"
        assert reported[0]["num_pairs"] >= 4

    def test_scene_without_images_exits_2(self, tmp_path, capsys):
        scene_dir = tmp_path / "noimg"
        assert main(["gen-scene", "--seed", "3", "--output-dir", str(scene_dir)]) == 0
        code = main(["augment", "--scene", str(scene_dir / "scene.json"), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "image_paths" in capsys.readouterr().err


class TestHomographyCommand:
    def test_report_written(self, tmp_path):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "9", "--output-dir", str(scene_dir)]) == 0
        out = tmp_path / "h"
        code = main(
            ["homography", "--scene", str(scene_dir / "scene.json"), "--seed", "2", "--output-dir", str(out)]
        )
        assert code == 0
        data = json.loads((out / "homographies.json").read_text())
        assert len(data["cameras"]) == 6
        for entry in data["cameras"]:
            assert entry["fitted"]["provenance"] in ("fitted", "identity-fallback")
            assert len(entry["analytic_pure_rotation"]["matrix_row_major"]) == 9


    @pytest.mark.parametrize("offsets", [[], ["--d-yaw", "0", "--d-pitch", "0", "--d-roll", "0"]], ids=["drawn", "zero"])
    def test_reports_the_map_augment_applies(self, tmp_path, offsets):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "9", "--boxes", "40", "--with-images", "--output-dir", str(scene_dir)]) == 0
        scene = str(scene_dir / "scene.json")
        assert main(["augment", "--scene", scene, "--seed", "2", *offsets, "--output-dir", str(tmp_path / "a")]) == 0
        assert main(["homography", "--scene", scene, "--seed", "2", *offsets, "--output-dir", str(tmp_path / "h")]) == 0
        applied = json.loads((tmp_path / "a" / "homographies.json").read_text())["homographies"]
        reported = json.loads((tmp_path / "h" / "homographies.json").read_text())["cameras"]
        assert [entry["camera_id"] for entry in reported] == [entry["camera_id"] for entry in applied]
        for entry, report in zip(applied, reported):
            assert report["fitted"] == {k: entry[k] for k in ("matrix_row_major", "provenance")}
        expected = "analytic" if offsets else "fitted"
        assert {entry["provenance"] for entry in applied} == {expected}

    @pytest.mark.parametrize("offsets", [[], ["--d-yaw", "0", "--d-pitch", "0", "--d-roll", "0"]], ids=["drawn", "zero"])
    def test_report_matches_schema(self, tmp_path, offsets):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "9", "--boxes", "40", "--output-dir", str(scene_dir)]) == 0
        scene = str(scene_dir / "scene.json")
        assert main(["homography", "--scene", scene, "--seed", "2", *offsets, "--output-dir", str(tmp_path / "h")]) == 0
        validate(json.loads((tmp_path / "h" / "homographies.json").read_text()), "homography_report.schema.json")


class TestDepthConvert:
    def test_known_conversion(self, capsys):
        code = main(
            [
                "depth-convert",
                "--direction",
                "to-scale-invariant",
                "--fx",
                "1000",
                "--fy",
                "1000",
                "--f-ref",
                "500",
                "--values",
                "40",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["converted"][0] == pytest.approx(20.0, rel=1e-12)

    def test_roundtrip_through_cli(self, capsys):
        assert (
            main(
                [
                    "depth-convert",
                    "--direction",
                    "to-metric",
                    "--fx",
                    "1000",
                    "--fy",
                    "1000",
                    "--f-ref",
                    "500",
                    "--values",
                    "20",
                ]
            )
            == 0
        )
        data = json.loads(capsys.readouterr().out)
        assert data["converted"][0] == pytest.approx(40.0, rel=1e-12)

    def test_out_of_range_exits_2(self, capsys):
        code = main(
            [
                "depth-convert",
                "--direction",
                "to-scale-invariant",
                "--fx",
                "1000",
                "--fy",
                "1000",
                "--dataset",
                "nuscenes",
                "--values",
                "1.0",
            ]
        )
        assert code == 2

    def test_explicit_reference_pixel_size(self, capsys):
        c = math.sqrt(2.0) / 500.0
        code = main(
            [
                "depth-convert",
                "--direction",
                "to-scale-invariant",
                "--fx",
                "1000",
                "--fy",
                "1000",
                "--c",
                repr(c),
                "--values",
                "40",
            ]
        )
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reference_pixel_size"] == c
        assert data["converted"][0] == pytest.approx(20.0, rel=1e-12)


class TestBinFocal:
    def test_labels(self, capsys):
        code = main(["bin-focal", "--alpha", "500", "--beta", "750", "--subintervals", "5", "--focals", "480", "720", "800"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["labels"] == [0, 5, 6]
        assert data["num_categories"] == 7


class TestOrdinalLossCommand:
    def test_loss_and_gradient(self, tmp_path, capsys):
        logits_path = tmp_path / "logits.json"
        logits_path.write_text(json.dumps({"logits": [0.0, 0.0, 0.0, 0.0]}))
        code = main(["ordinal-loss", "--logits-json", str(logits_path), "--label", "0", "--grl-lambda", "1.0"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["loss"] == pytest.approx(2.0 * math.log(2.0))
        assert data["reversed_gradient"] == [-g for g in data["gradient"]]

    def test_missing_logits_key_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"values": [1, 2]}))
        assert main(["ordinal-loss", "--logits-json", str(bad), "--label", "0"]) == 2


class TestEvaluateCommand:
    def test_report_and_table(self, tmp_path, eval_files, capsys):
        gt_path, pred_path = eval_files
        out = tmp_path / "report"
        code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(out)])
        assert code == 0
        table = capsys.readouterr().out
        assert "mAP" in table and "NDS*" in table
        report = json.loads((out / "metric_report.json").read_text())
        assert report["mAP"] == 1.0
        assert report["NDS_star"] > 0.9

    def test_deterministic_bytes_across_runs_and_workers(self, tmp_path, eval_files):
        gt_path, pred_path = eval_files
        blobs = []
        for tag, workers in (("r1", "1"), ("r2", "1"), ("r4", "4")):
            out = tmp_path / tag
            assert (
                main(
                    [
                        "evaluate",
                        "--gt",
                        str(gt_path),
                        "--pred",
                        str(pred_path),
                        "--workers",
                        workers,
                        "--output-dir",
                        str(out),
                    ]
                )
                == 0
            )
            blobs.append((out / "metric_report.json").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_malformed_json_exits_2(self, tmp_path, eval_files, capsys):
        gt_path, _ = eval_files
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["evaluate", "--gt", str(gt_path), "--pred", str(broken), "--output-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--config", [1, 2]),
            ("--gt", [1, 2]),
            ("--pred", [1, 2]),
            ("--config", {"metrics": {"distance_thresholds": 5}}),
            ("--config", {"metrics": []}),
        ],
    )
    def test_malformed_structure_exits_2(self, tmp_path, eval_files, capsys, flag, content):
        gt_path, pred_path = eval_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(content))
        paths = {"--gt": str(gt_path), "--pred": str(pred_path), flag: str(bad)}
        argv = ["evaluate", "--output-dir", str(tmp_path / "out")]
        for name, path in paths.items():
            argv += [name, path]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out" / "metric_report.json").exists()

    def test_report_matches_schema(self, tmp_path, eval_files):
        import jsonschema

        gt_path, pred_path = eval_files
        out = tmp_path / "report"
        assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(out)]) == 0
        schema = json.loads((SCHEMAS / "metric_report.schema.json").read_text())
        jsonschema.validate(json.loads((out / "metric_report.json").read_text()), schema)

    def test_missing_file_exits_2(self, tmp_path, eval_files):
        gt_path, _ = eval_files
        assert main(["evaluate", "--gt", str(gt_path), "--pred", str(tmp_path / "nope.json"), "--output-dir", str(tmp_path / "y")]) == 2

    def test_all_ground_truth_out_of_range_exits_2(self, tmp_path, capsys):
        gts = [DetectionRecord(Box3D((120.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0")]
        dets = [DetectionRecord(Box3D((10.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0, score=0.9), "s0")]
        gt_path, pred_path = tmp_path / "far_gt.json", tmp_path / "near_pred.json"
        write_records(gt_path, gts)
        write_records(pred_path, dets)
        code = main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(tmp_path / "z")])
        assert code == 2
        assert "ground truths" in capsys.readouterr().err

    def test_all_ground_truth_out_of_range_names_range_limit(self, tmp_path, capsys):
        gts = [DetectionRecord(Box3D((120.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0")]
        gt_path = tmp_path / "far_gt.json"
        write_records(gt_path, gts)
        code = main(["evaluate", "--gt", str(gt_path), "--pred", str(gt_path), "--output-dir", str(tmp_path / "z")])
        assert code == 2
        err = capsys.readouterr().err
        assert "range_limit" in err
        assert "threshold" not in err

    def test_run_config_controls_metrics(self, tmp_path, eval_files, capsys):
        gt_path, pred_path = eval_files
        config_path = tmp_path / "run.json"
        config_path.write_text(
            json.dumps(
                {
                    "seed": 1,
                    "metrics": {"distance_thresholds": [1.0, 2.0], "tp_threshold": 1.0, "range_limit": 60.0},
                }
            )
        )
        out = tmp_path / "cfg_report"
        code = main(
            ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--config", str(config_path), "--output-dir", str(out)]
        )
        assert code == 0
        report = json.loads((out / "metric_report.json").read_text())
        assert sorted(report["per_threshold_ap"]) == ["1.0", "2.0"]


class TestRejectedInput:
    @pytest.mark.parametrize(
        "argv, content, expected",
        [
            (["bin-focal", "--focals", "nan"], None, "focal length must be positive and finite, got nan"),
            (["bin-focal", "--focals", "700", "inf"], None, "focal length must be positive and finite, got inf"),
            (
                ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--values", "nan"],
                None,
                "scale-invariant depth must be positive and finite, got nan",
            ),
            (
                ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--values", "inf"],
                None,
                "scale-invariant depth must be positive and finite, got inf",
            ),
            (["gen-scene", "--seed", "-1", "--output-dir", "{out}"], None, "seed must be a non-negative integer, got -1"),
            (["augment", "--scene", "{scene}", "--seed", "-1", "--output-dir", "{out}"], None, "seed must be a non-negative integer, got -1"),
            (
                ["augment", "--scene", "{scene}", "--config", "{file}", "--output-dir", "{out}"],
                {"seed": -3},
                "seed must be a non-negative integer, got -3",
            ),
            (
                ["ordinal-loss", "--logits-json", "{file}", "--label", "0"],
                {"logits": 5},
                "{file}: expected an object with a 'logits' array of numbers",
            ),
            (
                ["ordinal-loss", "--logits-json", "{file}", "--label", "0"],
                {"logits": [1, None, 2, 3]},
                "{file}: expected an object with a 'logits' array of numbers",
            ),
        ],
        ids=[
            "bin-focal-nan",
            "bin-focal-inf",
            "depth-convert-nan",
            "depth-convert-inf",
            "gen-scene-negative-seed",
            "augment-negative-seed",
            "augment-negative-config-seed",
            "ordinal-loss-scalar-logits",
            "ordinal-loss-null-logit",
        ],
    )
    def test_exits_2_with_precise_message(self, tmp_path, capsys, argv, content, expected):
        names = {"scene": tmp_path / "scene" / "scene.json", "file": tmp_path / "input.json", "out": tmp_path / "out"}
        if "{scene}" in argv:
            assert main(["gen-scene", "--boxes", "4", "--with-images", "--output-dir", str(names["scene"].parent)]) == 0
            capsys.readouterr()
        if content is not None:
            names["file"].write_text(json.dumps(content))
        assert main([arg.format(**names) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected.format(**names)}\n"


class TestFlags:
    BASE = {
        "gen-scene": ["gen-scene"],
        "depth-convert": ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--values", "1"],
        "bin-focal": ["bin-focal", "--focals", "700"],
        "ordinal-loss": ["ordinal-loss", "--logits-json", "logits.json", "--label", "1"],
        "evaluate": ["evaluate", "--gt", "gt.json", "--pred", "pred.json"],
    }

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("gen-scene", "--config"),
            ("depth-convert", "--config"),
            ("bin-focal", "--config"),
            ("ordinal-loss", "--config"),
            ("depth-convert", "--seed"),
            ("bin-focal", "--seed"),
            ("ordinal-loss", "--seed"),
            ("evaluate", "--seed"),
        ],
    )
    def test_unread_flag_rejected(self, command, flag, capsys):
        parser = build_parser()
        parser.parse_args(self.BASE[command])
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*self.BASE[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_subcommand_set(self, capsys):
        parser = build_parser()
        (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {
            "gen-scene",
            "augment",
            "homography",
            "depth-convert",
            "bin-focal",
            "ordinal-loss",
            "evaluate",
        }
        with pytest.raises(SystemExit) as exc:
            main(["selftest"])
        assert exc.value.code == 2
        assert "invalid choice: 'selftest'" in capsys.readouterr().err
