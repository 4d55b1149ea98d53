import argparse
import contextlib
import copy
import gc
import hashlib
import io
import itertools
import json
import math
import os
import re
import shlex
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bevkit.cli
from bevkit.augment import PerturbationRange, augment_camera, collect_pairs
from bevkit.cli import build_parser, main
from bevkit.geometry import ego_to_camera_rotation, shown
from bevkit.scene import dumps_canonical, generate_synthetic_scene, scene_from_dict, scene_to_dict
from bevkit.boxes import Box3D
from bevkit.metrics import DetectionRecord
from bevkit.pnm import read_pnm, write_pnm
from reference_cases import records_to_dict

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"
README = Path(__file__).resolve().parents[1] / "README.md"
GOLDEN = Path(__file__).resolve().parent / "data" / "evaluate_golden"
# SHA-256 of each file augment and homography wrote for gen-scene seed 3 and
# --seed 5 when the half-widths were flags: --d-yaw 0.04 --d-pitch 0 --d-roll 0.03.
PERTURBATION_GOLDEN = Path(__file__).resolve().parent / "data" / "perturbation_config_golden.json"
# SHA-256 of each file gen-scene --boxes 40 --with-images wrote for seeds 0-5,
# per rig: "ring" (--style ring) and "frontal" (--cameras 5 --style frontal).
GEN_SCENE_GOLDEN = Path(__file__).resolve().parent / "data" / "gen_scene_golden.json"
GEN_SCENE_RIGS = {"ring": ["--style", "ring"], "frontal": ["--cameras", "5", "--style", "frontal"]}

def read_tree(root):
    return {p.relative_to(root): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def validate(data, schema_name, definition=None):
    import jsonschema

    schema = json.loads((SCHEMAS / schema_name).read_text())
    if definition is not None:
        schema = {**schema, "$ref": f"#/$defs/{definition}"}
    jsonschema.validate(data, schema)


# Run configs the CLI accepts; each must also validate against run_config.schema.json.
SEED_ONLY_CONFIG = {"perturbation": {"seed": 5}}
METRICS_CONFIG = {"metrics": {"distance_thresholds": [1.0, 2.0], "tp_threshold": 1.0, "range_limit": 60.0}}
FULL_CONFIG = {
    "schema_version": 1,
    "perturbation": {"d_yaw": 0.04, "d_pitch": 0.01, "d_roll": 0.03, "seed": 8},
    "metrics": {
        "distance_thresholds": [0.5, 1.0, 2.0, 4.0],
        "tp_threshold": 2.0,
        "range_limit": 50.0,
        "recall_floor": 0.1,
        "precision_floor": 0.1,
    },
}

# The same half-widths in a run config, the one place that sets them.
PERTURBATION_CONFIG = {"perturbation": {"d_yaw": 0.04, "d_pitch": 0, "d_roll": 0.03}}


def write_config(path, config):
    path.write_text(json.dumps(config), encoding="utf-8")
    return path


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

    @pytest.mark.parametrize("rig", sorted(GEN_SCENE_RIGS))
    def test_bytes_match_the_golden(self, tmp_path, rig):
        expected = json.loads(GEN_SCENE_GOLDEN.read_text(encoding="utf-8"))[rig]
        for seed in range(6):
            out = tmp_path / str(seed)
            argv = ["gen-scene", "--seed", str(seed), "--boxes", "40", "--with-images", *GEN_SCENE_RIGS[rig]]
            assert main([*argv, "--output-dir", str(out)]) == 0
            digests = {path.as_posix(): hashlib.sha256(data).hexdigest() for path, data in read_tree(out).items()}
            assert digests == expected[str(seed)]

    def test_bad_style_exits_2(self, tmp_path, capsys):
        code = main(["gen-scene", "--style", "spiral", "--output-dir", str(tmp_path)])
        assert code == 2
        assert "ring" in capsys.readouterr().err


class TestAugmentCommand:
    def scene(self, tmp_path):
        scene_dir = tmp_path / "scene"
        if not (scene_dir / "scene.json").exists():
            assert main(["gen-scene", "--seed", "3", "--with-images", "--output-dir", str(scene_dir)]) == 0
        return scene_dir / "scene.json"

    def run_augment(self, tmp_path, tag, workers):
        out = tmp_path / tag
        code = main(
            [
                "augment",
                "--scene",
                str(self.scene(tmp_path)),
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

    def test_colour_rasters_warp_to_p6_across_workers(self, tmp_path):
        scene_path = self.scene(tmp_path)
        scene = scene_from_dict(json.loads(scene_path.read_text()))
        sources = [scene_path.parent / name for name in scene.image_paths]
        for source in sources:
            gray = read_pnm(source)
            write_pnm(source, np.stack([gray, 255 - gray, gray // 3], axis=-1))
        first = self.run_augment(tmp_path, "w1", 1)
        assert self.run_augment(tmp_path, "w2", 2) == first
        applied = json.loads(first[Path("homographies.json")])["homographies"]
        assert any(entry["provenance"] == "fitted" for entry in applied)
        limits = PerturbationRange(seed=5)
        for index, cam in enumerate(scene.cameras):
            expected = augment_camera(cam, read_pnm(sources[index]), scene.boxes, limits, index).image
            assert expected.shape == (cam.intrinsics.height, cam.intrinsics.width, 3)
            written = tmp_path / "w1" / "augmented" / f"{cam.camera_id}.pgm"
            assert written.read_bytes().startswith(b"P6\n")
            assert np.array_equal(read_pnm(written), expected)

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

    def test_run_config_perturbation_seed_is_the_seed_flag(self, tmp_path):
        expected = self.run_augment(tmp_path, "flag", 1)
        config_path = write_config(tmp_path / "run.json", SEED_ONLY_CONFIG)
        out = tmp_path / "config"
        scene = str(tmp_path / "scene" / "scene.json")
        assert main(["augment", "--scene", scene, "--config", str(config_path), "--output-dir", str(out)]) == 0
        assert read_tree(out) == expected

    def test_seed_flag_replaces_perturbation_seed(self, tmp_path):
        expected = self.run_augment(tmp_path, "flag", 1)
        scene = str(self.scene(tmp_path))
        config_path = write_config(tmp_path / "run.json", {"perturbation": {"seed": 9}})
        argv = ["augment", "--scene", scene, "--config", str(config_path), "--output-dir"]
        assert main([*argv, str(tmp_path / "both"), "--seed", "5"]) == 0
        assert read_tree(tmp_path / "both") == expected
        assert main([*argv, str(tmp_path / "config")]) == 0
        assert read_tree(tmp_path / "config") != expected

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
        reported = json.loads((report_dir / "homographies.json").read_text())["homographies"]
        assert reported[0]["provenance"] == "identity-fallback"
        assert reported[0]["num_pairs"] >= 4

    def test_scene_without_images_exits_2(self, tmp_path, capsys):
        scene_dir = tmp_path / "noimg"
        assert main(["gen-scene", "--seed", "3", "--output-dir", str(scene_dir)]) == 0
        code = main(["augment", "--scene", str(scene_dir / "scene.json"), "--output-dir", str(tmp_path / "o")])
        assert code == 2
        assert "image_paths" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["missing", "truncated", "maxval-100", "width-70x", "header-cut"])
    def test_unreadable_raster_exits_2_without_json(self, tmp_path, capsys, damage):
        scene = self.scene(tmp_path)
        raster = scene.parent / "images" / "cam_03.pgm"
        if damage == "missing":
            raster.unlink()
        elif damage == "truncated":
            raster.write_bytes(raster.read_bytes()[:1000])
        elif damage == "maxval-100":
            raster.write_bytes(raster.read_bytes().replace(b"\n255\n", b"\n100\n", 1))
        elif damage == "width-70x":
            raster.write_bytes(raster.read_bytes().replace(b"P5\n704 ", b"P5\n70x ", 1))
        else:
            raster.write_bytes(b"P5\n704 ")
        with pytest.raises((OSError, ValueError)) as failure:
            read_pnm(raster)
        assert str(raster) in str(failure.value)
        capsys.readouterr()
        out = tmp_path / "aug"
        assert main(["augment", "--scene", str(scene), "--workers", "2", "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {failure.value}\n"
        # other cameras' rasters may already be written; the JSON files never are
        assert not (out / "poses.json").exists()
        assert not (out / "homographies.json").exists()

    def test_raster_of_wrong_size_exits_2(self, tmp_path, capsys):
        scene = self.scene(tmp_path)
        write_pnm(scene.parent / "images" / "cam_02.pgm", np.zeros((50, 100), dtype=np.uint8))
        capsys.readouterr()
        out = tmp_path / "aug"
        assert main(["augment", "--scene", str(scene), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == "error: camera 'cam_02': image is 100x50 but its intrinsics are 704x256\n"
        assert not (out / "poses.json").exists()

    @pytest.mark.parametrize(
        "camera_id", ["../../escaped", "{tmp}/abs/elsewhere/planted", "a/b", "a\\b", "a\x00b", ".", "..", "\ud800"]
    )
    def test_camera_id_that_is_not_a_file_name_exits_2_writing_nothing(self, tmp_path, capsys, camera_id):
        scene = self.scene(tmp_path)
        data = json.loads(scene.read_text())
        data["cameras"][2]["camera_id"] = camera_id.format(tmp=tmp_path)
        scene.write_text(json.dumps(data))
        before = sorted(tmp_path.rglob("*"))
        capsys.readouterr()
        out = tmp_path / "out" / "aug"
        assert main(["augment", "--scene", str(scene), "--workers", "2", "--output-dir", str(out)]) == 2
        shown_id = shown(camera_id.format(tmp=tmp_path))
        assert capsys.readouterr().err == (
            f"error: {scene}: camera 2: camera_id must name a file: no '/', '\\', NUL or surrogate, and not '.' or '..', "
            f"got {shown_id}\n"
        )
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_1_exit_2_before_any_output(self, tmp_path, capsys, workers):
        scene = self.scene(tmp_path)
        capsys.readouterr()
        out = tmp_path / "aug"
        assert main(["augment", "--scene", str(scene), "--workers", str(workers), "--output-dir", str(out)]) == 2
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
        assert not out.exists()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_at_most_workers_rasters_in_flight(self, tmp_path, monkeypatch, workers):
        """Each raster is read once and held until written, by at most ``workers`` processes at once."""
        expected = self.run_augment(tmp_path, "plain", workers)
        log = tmp_path / "events.log"

        def record(change, path):
            # one short append per event, whichever process runs the camera
            with open(log, "a", encoding="utf-8") as handle:
                handle.write(f"{time.monotonic_ns()} {change} {os.getpid()} {Path(path).name}\n")

        def counting_read(path):
            record(+1, path)
            return read_pnm(path)

        def counting_write(path, image):
            write_pnm(path, image)
            record(-1, path)

        monkeypatch.setattr(bevkit.cli, "read_pnm", counting_read)
        monkeypatch.setattr(bevkit.cli, "write_pnm", counting_write)
        assert self.run_augment(tmp_path, "counted", workers) == expected
        events = []
        for line in log.read_text().splitlines():
            time_ns, change, pid, name = line.split()
            events.append((int(time_ns), int(change), int(pid), name))
        events.sort()
        reads = [name for _, change, _, name in events if change == 1]
        assert len(reads) == len(set(reads)) == 6
        live = list(itertools.accumulate(change for _, change, _, _ in events))
        assert live[-1] == 0
        assert 1 <= max(live) <= workers
        assert len({pid for _, _, pid, _ in events}) == workers

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the cameras run in turn without os.fork")
    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_killed_parent_leaves_no_child(self, tmp_path):
        """A parent killed outright runs no cleanup; each child must still exit, even while a sibling runs."""
        marks = tmp_path / "marks"
        marks.mkdir()
        # With 3 workers, child 0 runs cameras 0 and 3, child 1 runs 1 and 4, and
        # the parent 2 and 5.  The parent sleeps; child 1 waits for a release file;
        # child 0's result outgrows a pipe buffer, so its write would block for as
        # long as child 1 held that pipe's read end.
        script = (
            "import os, sys, time\n"
            "from pathlib import Path\n"
            "import bevkit.cli\n"
            "marks, argv = Path(sys.argv[1]), sys.argv[2:]\n"
            "parent, real_read, real_augment = os.getpid(), bevkit.cli.read_pnm, bevkit.cli.augment_camera\n"
            "def read(path):\n"
            "    stem = Path(path).stem\n"
            "    if os.getpid() == parent:\n"
            "        time.sleep(60.0)\n"
            "    (marks / (stem + '.tmp')).write_text(str(os.getpid()))\n"
            "    os.replace(marks / (stem + '.tmp'), marks / (stem + '.pid'))\n"
            "    deadline = time.monotonic() + 30.0\n"
            "    while stem == 'cam_01' and not (marks / 'release').exists() and time.monotonic() < deadline:\n"
            "        time.sleep(0.01)\n"
            "    return real_read(path)\n"
            "def augment(cam, image, boxes, limits, index):\n"
            "    view = real_augment(cam, image, boxes, limits, index)\n"
            "    return view._replace(pose=bytes(4 << 20)) if index == 0 else view\n"
            "bevkit.cli.read_pnm, bevkit.cli.augment_camera = read, augment\n"
            "bevkit.cli.main(argv)\n"
        )
        argv = ["augment", "--scene", str(self.scene(tmp_path)), "--workers", "3", "--output-dir", str(tmp_path / "out")]
        src = str(Path(bevkit.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        parent = subprocess.Popen(
            [sys.executable, "-c", script, str(marks), *argv], env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL
        )
        children = []
        deadline = time.monotonic() + 30.0
        try:
            for stem in ("cam_00", "cam_01"):
                while not (marks / f"{stem}.pid").exists():
                    assert parent.poll() is None and time.monotonic() < deadline
                    time.sleep(0.01)
                children.append(int((marks / f"{stem}.pid").read_text()))
            parent.kill()
            parent.wait()
            while process_running(children[0]):
                assert time.monotonic() < deadline, "child 0 outlived its killed parent while child 1 ran"
                time.sleep(0.05)
            assert process_running(children[1])
            (marks / "release").touch()
            while process_running(children[1]):
                assert time.monotonic() < deadline, "child 1 outlived its killed parent"
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
            for pid in children:
                if process_running(pid):
                    os.kill(pid, signal.SIGKILL)


def apply_row_major(matrix, pixels):
    mapped = np.hstack([pixels, np.ones((len(pixels), 1))]) @ np.reshape(matrix, (3, 3)).T
    return mapped[:, :2] / mapped[:, 2:3]


def homography_report(tmp_path, scene_path, tag, *flags, seed=2):
    out = tmp_path / tag
    assert main(["homography", "--scene", str(scene_path), "--seed", str(seed), *flags, "--output-dir", str(out)]) == 0
    return json.loads((out / "homographies.json").read_text())["homographies"]


ZERO_OFFSETS = {"perturbation": {"d_yaw": 0, "d_pitch": 0, "d_roll": 0}}


class TestHomographyCommand:
    def test_ground_plane_map_is_the_applied_map(self, tmp_path):
        # gen-scene boxes stand on z = 0, so each fitted map is the map that plane induces
        fitted = 0
        for seed in range(6):
            scene_dir = tmp_path / f"scene{seed}"
            assert main(["gen-scene", "--seed", str(seed), "--boxes", "40", "--output-dir", str(scene_dir)]) == 0
            cameras = json.loads((scene_dir / "scene.json").read_text())["cameras"]
            reported = homography_report(tmp_path, scene_dir / "scene.json", f"h{seed}", seed=seed)
            assert [entry["camera_id"] for entry in reported] == [cam["camera_id"] for cam in cameras]
            for cam, entry in zip(cameras, reported):
                if entry["provenance"] != "fitted":
                    continue
                fitted += 1
                width, height = cam["intrinsics"]["width"], cam["intrinsics"]["height"]
                corners = np.array([[0.0, 0.0], [width, 0.0], [0.0, height], [width, height]])
                gap = apply_row_major(entry["matrix_row_major"], corners) - apply_row_major(
                    entry["ground_plane_matrix_row_major"], corners
                )
                assert np.abs(gap).max() < 1e-9, (seed, entry["camera_id"])
        assert fitted >= 30

    def test_lifted_box_leaves_a_residual(self, tmp_path):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "0", "--boxes", "40", "--output-dir", str(scene_dir)]) == 0
        scene_path = scene_dir / "scene.json"
        on_ground = homography_report(tmp_path, scene_path, "ground")[0]
        data = json.loads(scene_path.read_text())
        scene = scene_from_dict(data)
        seen = next(i for i, box in enumerate(scene.boxes) if len(collect_pairs(scene.cameras[0], scene.cameras[0].pose, [box])))
        data["boxes"][seen]["center"][2] += 1.0
        scene_path.write_text(dumps_canonical(data), encoding="utf-8")
        lifted = homography_report(tmp_path, scene_path, "lifted")[0]
        assert on_ground["provenance"] == lifted["provenance"] == "fitted"
        assert on_ground["max_reprojection_residual_px"] < 1e-9
        assert lifted["max_reprojection_residual_px"] > 1e-6

    def test_fallback_reason_is_read_from_num_pairs(self, tmp_path):
        # identity-fallback with num_pairs < 4: too few pairs; with >= 4: degenerate pairs
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "3", "--boxes", "0", "--output-dir", str(scene_dir)]) == 0
        scene_path = scene_dir / "scene.json"
        empty = homography_report(tmp_path, scene_path, "empty")
        assert all(entry["provenance"] == "identity-fallback" and entry["num_pairs"] == 0 for entry in empty)
        assert all(entry["max_reprojection_residual_px"] is None for entry in empty)

        data = json.loads(scene_path.read_text())
        cam = scene_from_dict(data).cameras[0]
        axis_point = ego_to_camera_rotation(cam.pose).T @ (np.array([0.0, 0.0, 10.0]) - cam.pose.translation_vector())
        data["boxes"] = [{"center": [float(v) for v in axis_point], "dims": [0.0, 0.0, 0.0], "yaw": 0.0}]
        scene_path.write_text(dumps_canonical(data), encoding="utf-8")
        point_box = homography_report(tmp_path, scene_path, "point")
        assert [entry["provenance"] for entry in point_box] == ["identity-fallback"] * 6
        assert point_box[0]["num_pairs"] == 5
        assert all(entry["num_pairs"] == 0 for entry in point_box[1:])

    def test_singular_fit_falls_back_alone(self, tmp_path):
        # a camera 1e10 m away sees its 10 anchors within micrometres of one
        # pixel: the system has full rank, but the solution is singular
        data = scene_to_dict(generate_synthetic_scene(1, 6, 2))
        scene_path = tmp_path / "scene.json"
        scene_path.write_text(dumps_canonical(data), encoding="utf-8")
        plain = homography_report(tmp_path, scene_path, "plain", seed=0)
        data["cameras"][5]["pose"]["t"] = [0.0, 0.0, 1e10]
        scene_path.write_text(dumps_canonical(data), encoding="utf-8")
        distant = homography_report(tmp_path, scene_path, "distant", seed=0)
        assert distant[:5] == plain[:5]
        assert distant[5]["provenance"] == "identity-fallback"
        assert distant[5]["matrix_row_major"] == (np.eye(3) / math.sqrt(3.0)).reshape(-1).tolist()
        assert distant[5]["num_pairs"] >= 4

    def test_camera_on_the_ground_reports_null(self, tmp_path):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "9", "--boxes", "40", "--output-dir", str(scene_dir)]) == 0
        scene_path = scene_dir / "scene.json"
        data = json.loads(scene_path.read_text())
        # zero pitch and roll with t[1] = 0 put the camera centre on z = 0
        data["cameras"][1]["pose"] = {"yaw": 1.0, "pitch": 0.0, "roll": 0.0, "t": [0.5, 0.0, -2.0]}
        scene_path.write_text(dumps_canonical(data), encoding="utf-8")
        reported = homography_report(tmp_path, scene_path, "h")
        assert reported[1]["ground_plane_matrix_row_major"] is None
        assert all(entry["ground_plane_matrix_row_major"] is not None for i, entry in enumerate(reported) if i != 1)
        validate(json.loads((tmp_path / "h" / "homographies.json").read_text()), "augment_outputs.schema.json", "homography_report")

    @pytest.mark.parametrize("zero", [False, True], ids=["drawn", "zero"])
    def test_reports_the_map_augment_applies(self, tmp_path, zero):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "9", "--boxes", "40", "--with-images", "--output-dir", str(scene_dir)]) == 0
        scene = str(scene_dir / "scene.json")
        offsets = ["--config", str(write_config(tmp_path / "run.json", ZERO_OFFSETS))] if zero else []
        assert main(["augment", "--scene", scene, "--seed", "2", *offsets, "--output-dir", str(tmp_path / "a")]) == 0
        applied = json.loads((tmp_path / "a" / "homographies.json").read_text())["homographies"]
        reported = homography_report(tmp_path, scene, "h", *offsets)
        # augment's entry is the report's, without the diagnostics
        assert len(reported) == len(applied)
        assert [{key: report[key] for key in entry} for entry, report in zip(applied, reported)] == applied
        expected = "analytic" if zero else "fitted"
        assert {entry["provenance"] for entry in applied} == {expected}

    @pytest.mark.parametrize("zero", [False, True], ids=["drawn", "zero"])
    def test_report_matches_schema(self, tmp_path, zero):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "9", "--boxes", "40", "--output-dir", str(scene_dir)]) == 0
        offsets = ["--config", str(write_config(tmp_path / "run.json", ZERO_OFFSETS))] if zero else []
        homography_report(tmp_path, scene_dir / "scene.json", "h", *offsets)
        report = json.loads((tmp_path / "h" / "homographies.json").read_text())
        validate(report, "augment_outputs.schema.json", "homography_report")
        validate(report, "augment_outputs.schema.json", "homographies_file")


class TestPerturbationConfig:
    def test_config_gives_the_bytes_of_the_removed_flags(self, tmp_path):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "3", "--with-images", "--output-dir", str(scene_dir)]) == 0
        config_path = write_config(tmp_path / "run.json", PERTURBATION_CONFIG)
        expected = json.loads(PERTURBATION_GOLDEN.read_text(encoding="utf-8"))
        for command in ("augment", "homography"):
            out = tmp_path / command
            argv = [command, "--scene", str(scene_dir / "scene.json"), "--seed", "5", "--config", str(config_path)]
            assert main([*argv, "--output-dir", str(out)]) == 0
            digests = {str(path): hashlib.sha256(data).hexdigest() for path, data in read_tree(out).items()}
            assert digests == expected[command]


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

    def test_reference_pixel_size_is_sqrt2_over_f_ref(self, capsys):
        argv = ["depth-convert", "--direction", "to-scale-invariant", "--fx", "1000", "--fy", "1000", "--values", "40"]
        assert main([*argv, "--f-ref", "500"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["reference_pixel_size"] == math.sqrt(2.0) / 500.0
        assert data["converted"][0] == pytest.approx(20.0, rel=1e-12)

    @pytest.mark.parametrize("bounds", [["--depth-min", "1", "--depth-max", "80"], ["--depth-max", "80"]], ids=["both", "max"])
    def test_dataset_with_depth_range_exits_2(self, capsys, bounds):
        argv = ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--values", "20"]
        assert main([*argv, "--dataset", "waymo", *bounds]) == 2
        flags = ", ".join(arg for arg in bounds if arg.startswith("--"))
        assert capsys.readouterr().err == f"error: --dataset cannot be combined with {flags}\n"

    def test_depth_min_without_depth_max_exits_2(self, capsys):
        argv = ["depth-convert", "--direction", "to-scale-invariant", "--fx", "1000", "--fy", "1000", "--values", "40"]
        assert main([*argv, "--depth-min", "1"]) == 2
        assert capsys.readouterr() == ("", "error: --depth-min and --depth-max must be given together\n")

    @pytest.mark.parametrize(
        "flags",
        [["--dataset", "waymo"], ["--depth-min", "50", "--depth-max", "60"], ["--depth-max", "60"]],
        ids=["dataset", "both-bounds", "max"],
    )
    def test_range_flag_on_to_metric_exits_2(self, capsys, flags):
        # scale_invariant_to_metric reads no depth range: the flag would change nothing
        argv = ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--values", "10"]
        assert main([*argv, *flags]) == 2
        named = ", ".join(arg for arg in flags if arg.startswith("--"))
        assert capsys.readouterr() == ("", f"error: --direction to-metric reads no depth range, got {named}\n")

    @pytest.mark.parametrize("focal", ["1e-200", "1e308"])
    def test_extreme_focal_lengths_convert(self, capsys, focal):
        # Either square over- or underflows a float; the pixel size sqrt(2) / focal does not.
        argv = ["depth-convert", "--direction", "to-scale-invariant", "--fx", focal, "--fy", focal, "--values", "10"]
        assert main(argv) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["converted"][0] == pytest.approx(10.0 * 707.0 / float(focal), rel=1e-12)

    @pytest.mark.parametrize("f_ref", ["0", "-1", "nan", "inf", "1e-320"])
    def test_non_positive_reference_focal_exits_2(self, capsys, f_ref):
        argv = ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--f-ref", f_ref, "--values", "20"]
        assert main(argv) == 2
        assert capsys.readouterr() == (
            "",
            f"error: --f-ref must give a positive, finite c = sqrt(2) / --f-ref, got {float(f_ref)!r}\n",
        )


class TestBinFocal:
    def test_labels(self, capsys):
        code = main(["bin-focal", "--alpha", "500", "--beta", "750", "--subintervals", "5", "--focals", "480", "720", "800"])
        assert code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["labels"] == [0, 5, 6]
        assert data["num_categories"] == 7

    def test_default_scheme_is_nuscenes(self, capsys):
        outputs = []
        for flags in ([], ["--dataset", "nuscenes"], ["--alpha", "500", "--beta", "750", "--subintervals", "5"], ["--beta", "750"]):
            assert main(["bin-focal", *flags, "--focals", "480", "620", "750"]) == 0
            outputs.append(capsys.readouterr().out)
        assert len(set(outputs)) == 1

    def test_one_flag_keeps_the_other_defaults(self, capsys):
        assert main(["bin-focal", "--alpha", "600", "--focals", "700"]) == 0
        assert json.loads(capsys.readouterr().out)["thresholds"] == [600.0, 630.0, 660.0, 690.0, 720.0, 750.0]

    @pytest.mark.parametrize(
        "flags",
        [["--alpha", "100"], ["--beta", "900"], ["--subintervals", "6"], ["--alpha", "100", "--beta", "900"]],
        ids=["alpha", "beta", "subintervals", "alpha-beta"],
    )
    def test_dataset_with_scheme_flags_exits_2(self, capsys, flags):
        assert main(["bin-focal", "--dataset", "waymo", *flags, "--focals", "700"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        given = ", ".join(arg for arg in flags if arg.startswith("--"))
        assert captured.err == f"error: --dataset cannot be combined with {given}\n"


def golden_eval_inputs():
    """Seeded gt/pred files: 50 samples of 40 GTs and 80 detections on a half-meter lattice.

    Lattice positions give equidistant ground truths and distances exactly at
    a threshold; five score levels give score ties; samples shifted up to
    45 m put records on both sides of the 50 m range limit; yaws up to +-4
    need wrapping.  Expected outputs in tests/data/evaluate_golden/ were
    written by the per-record implementation this replaced.
    """
    rng = np.random.default_rng(20231)

    def record(sample, x, y, score=None):
        entry = {
            "sample_id": sample,
            "center": [float(x), float(y), 0.75],
            "dims": [float(v) for v in rng.uniform([3.0, 1.5, 1.2], [5.0, 2.5, 2.0])],
            "yaw": float(rng.uniform(-4.0, 4.0)),
            "class_id": "vehicle",
        }
        if score is not None:
            entry["score"] = score
        return entry

    gts, dets = [], []
    for s in range(50):
        sample = f"g{(s * 7) % 50:02d}"  # samples interleaved, not in sorted order
        shift = np.array([5.0 * (s % 10), -2.5 * (s % 4)])
        gt_xy = rng.integers(-24, 25, size=(40, 2)) / 2.0 + shift
        near = gt_xy[rng.integers(0, 40, size=50)] + rng.integers(-5, 6, size=(50, 2)) / 2.0
        anywhere = rng.integers(-24, 25, size=(30, 2)) / 2.0 + shift
        gts += [record(sample, x, y) for x, y in gt_xy]
        det_xy = np.concatenate([near, anywhere])[rng.permutation(80)]
        dets += [record(sample, x, y, float(rng.choice([0.1, 0.3, 0.5, 0.7, 0.9]))) for x, y in det_xy]
    order = rng.permutation(len(dets))
    return {"schema_version": 1, "records": gts}, {"schema_version": 1, "records": [dets[i] for i in order]}


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

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_1_exit_2_before_reading(self, tmp_path, capsys, workers):
        """The flag is checked before either file is read (neither exists) and before the output directory is made."""
        missing, out = str(tmp_path / "missing.json"), tmp_path / "report"
        argv = ["evaluate", "--gt", missing, "--pred", missing, "--workers", str(workers), "--output-dir", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: workers must be >= 1, got {workers}\n"
        assert not out.exists()

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

    def test_golden_report_bytes(self, tmp_path, capsys):
        gt_data, pred_data = golden_eval_inputs()
        gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
        gt_path.write_text(json.dumps(gt_data), encoding="utf-8")
        pred_path.write_text(json.dumps(pred_data), encoding="utf-8")
        out = tmp_path / "report"
        assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(out)]) == 0
        assert capsys.readouterr().out == (GOLDEN / "stdout.txt").read_text(encoding="utf-8")
        assert (out / "metric_report.json").read_bytes() == (GOLDEN / "metric_report.json").read_bytes()

    GOOD_RECORD = {"sample_id": "s0", "center": [10.0, 0.0, 0.75], "dims": [4.0, 2.0, 1.5], "yaw": 0.0, "score": 0.9}

    @pytest.mark.parametrize("flag", ["--gt", "--pred"])
    @pytest.mark.parametrize(
        "bad, message",
        [
            (dict(GOOD_RECORD, center=[10.0, 0.0]), "record 3: center must be 3 finite values, got (10.0, 0.0)"),
            (dict(GOOD_RECORD, center=[float("nan"), 0.0, 0.75]), "record 3: center must be 3 finite values, got (nan, 0.0, 0.75)"),
            (dict(GOOD_RECORD, dims=[4.0, -2.0, 1.5]), "record 3: dims must be 3 non-negative values, got (4.0, -2.0, 1.5)"),
            (dict(GOOD_RECORD, score=1.5), "record 3: score must be in [0, 1], got 1.5"),
            (dict(GOOD_RECORD, sample_id=""), "record 3: sample_id must be a non-empty string, got ''"),
            ({k: v for k, v in GOOD_RECORD.items() if k != "sample_id"}, "record 3: missing required key 'sample_id'"),
            ([1, 2], "record 3 must be an object, got array"),
            (5, "record 3 must be an object, got number"),
            (None, "record 3 must be an object, got null"),
            ("center", "record 3 must be an object, got string"),
        ],
        ids=[
            "center-length-2",
            "center-nan",
            "negative-dims",
            "score-1.5",
            "empty-sample-id",
            "missing-sample-id",
            "record-array",
            "record-number",
            "record-null",
            "record-string",
        ],
    )
    def test_malformed_record_message(self, tmp_path, capsys, flag, bad, message):
        # the messages of the per-record parser, which the column parser keeps
        good = [dict(self.GOOD_RECORD, center=[10.0 + i, 0.0, 0.75]) for i in range(3)]
        paths = {}
        for name in ("--gt", "--pred"):
            records = good + [bad, dict(self.GOOD_RECORD, dims=[-1.0, 1.0, 1.0])] if name == flag else good
            paths[name] = tmp_path / f"{name[2:]}.json"
            paths[name].write_text(json.dumps({"schema_version": 1, "records": records}), encoding="utf-8")
        argv = ["evaluate", "--gt", str(paths["--gt"]), "--pred", str(paths["--pred"]), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {paths[flag]}: {message}\n"
        assert not (tmp_path / "out" / "metric_report.json").exists()

    @pytest.mark.parametrize(
        "centers, index",
        [
            # the unscored record is in range, after one beyond it: named by input index, not in-range position
            ([(10.0, 0.0), (80.0, 0.0), (20.0, 5.0), (11.0, 0.0)], 3),
            # the unscored record lies beyond range_limit
            ([(10.0, 0.0), (80.0, 0.0)], 1),
        ],
        ids=["after-out-of-range", "out-of-range"],
    )
    def test_missing_score_names_input_index(self, tmp_path, eval_files, capsys, centers, index):
        gt_path, _ = eval_files
        records = [dict(self.GOOD_RECORD, center=[x, y, 0.75]) for x, y in centers]
        del records[index]["score"]
        pred_path = tmp_path / "unscored.json"
        pred_path.write_text(json.dumps({"schema_version": 1, "records": records}), encoding="utf-8")
        argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: detection record {index} has no score\n"

    def test_run_config_controls_metrics(self, tmp_path, eval_files, capsys):
        gt_path, pred_path = eval_files
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(METRICS_CONFIG))
        out = tmp_path / "cfg_report"
        code = main(
            ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--config", str(config_path), "--output-dir", str(out)]
        )
        assert code == 0
        report = json.loads((out / "metric_report.json").read_text())
        assert sorted(report["per_threshold_ap"]) == ["1.0", "2.0"]


def process_running(pid):
    """Whether ``pid`` names a process that has not exited (a zombie has)."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] not in ("Z", "X")


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestMapForked:
    """``_map_forked`` splits steps over forked children and this process, and returns them in index order."""

    @pytest.mark.parametrize("count", [0, 1, 3, 6])
    @pytest.mark.parametrize("workers", [1, 2, 8])
    def test_results_in_index_order(self, workers, count):
        assert bevkit.cli._map_forked(lambda index: index * index, range(count), workers) == [i * i for i in range(count)]
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the steps run in turn without os.fork")
    @pytest.mark.parametrize("workers", [2, 3])
    def test_this_process_runs_the_last_share(self, workers):
        pids = bevkit.cli._map_forked(lambda index: os.getpid(), range(7), workers)
        assert pids == [pids[index % workers] for index in range(7)]
        assert len(set(pids)) == workers
        assert pids.index(os.getpid()) == workers - 1
        assert_no_child_left()

    def test_steps_run_here_without_fork(self, monkeypatch):
        monkeypatch.delattr(os, "fork", raising=False)
        assert bevkit.cli._map_forked(lambda index: (index, os.getpid()), range(3), 2) == [(i, os.getpid()) for i in range(3)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing, lowest", [({2, 5}, 2), ({3, 4}, 3)])
    def test_lowest_failing_index_wins(self, workers, failing, lowest):
        # With 2 workers, step 2 fails in the child's share and step 3 in this process's.
        def step(index):
            if index in failing:
                raise ValueError(f"step {index} failed")
            return index

        with pytest.raises(ValueError, match=f"^step {lowest} failed$"):
            bevkit.cli._map_forked(step, range(6), workers)
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the steps run in turn without os.fork")
    def test_child_that_dies_fails_the_step_it_died_on(self):
        parent = os.getpid()

        def step(index):
            if index == 4 and os.getpid() != parent:
                os._exit(6)
            return index

        # With 3 workers the second child runs steps 1 and 4: step 1 is reported, step 4 is not.
        sources = ["a.pgm", "b.pgm", "c.pgm", "d.pgm", "e.pgm", "f.pgm"]
        with pytest.raises(OSError, match=r"^e\.pgm: the process reading it exited with status 6 and no result$"):
            bevkit.cli._map_forked(step, sources, 3)
        assert_no_child_left()

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="the steps run in turn without os.fork")
    def test_stopped_parent_kills_and_reaps_the_children(self):
        class Stop(BaseException):
            pass

        parent = os.getpid()

        def step(index):
            if os.getpid() == parent:
                raise Stop
            time.sleep(60)

        begin = time.monotonic()
        with pytest.raises(Stop):
            bevkit.cli._map_forked(step, range(4), 4)
        assert time.monotonic() - begin < 30.0
        assert_no_child_left()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="the files are read in turn without os.fork")
class TestParallelLoad:
    """``evaluate`` parses --gt in a forked child while it parses --pred, both with ``_map_forked``."""

    GOOD = {"schema_version": 1, "records": [TestEvaluateCommand.GOOD_RECORD]}
    BAD_GT = {"schema_version": 1, "records": {}}
    BAD_PRED = {"schema_version": 1, "records": [dict(TestEvaluateCommand.GOOD_RECORD, center=[10.0, 0.0])]}

    def run(self, tmp_path, gt_data, pred_data):
        gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
        gt_path.write_text(json.dumps(gt_data), encoding="utf-8")
        pred_path.write_text(json.dumps(pred_data), encoding="utf-8")
        out = tmp_path / "out"
        return main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(out)])

    @pytest.mark.parametrize(
        "bad_gt, bad_pred, message",
        [
            (True, True, "{gt}: records must be an array, got object"),
            (False, True, "{pred}: record 0: center must be 3 finite values, got (10.0, 0.0)"),
        ],
        ids=["both-bad-gt-wins", "pred-bad"],
    )
    def test_error_precedence(self, tmp_path, capsys, bad_gt, bad_pred, message):
        code = self.run(tmp_path, self.BAD_GT if bad_gt else self.GOOD, self.BAD_PRED if bad_pred else self.GOOD)
        assert code == 2
        names = {"gt": tmp_path / "gt.json", "pred": tmp_path / "pred.json"}
        assert capsys.readouterr().err == f"error: {message.format(**names)}\n"
        assert not (tmp_path / "out" / "metric_report.json").exists()
        assert_no_child_left()

    def test_reader_that_dies_names_the_path(self, tmp_path, capsys, monkeypatch):
        real = bevkit.cli._load_json
        gt_path = str(tmp_path / "gt.json")

        def reader(path):
            if path == gt_path:
                os._exit(3)
            return real(path)

        monkeypatch.setattr(bevkit.cli, "_load_json", reader)
        assert self.run(tmp_path, self.GOOD, self.GOOD) == 2
        assert capsys.readouterr().err == f"error: {gt_path}: the process reading it exited with status 3 and no result\n"
        assert_no_child_left()

    def test_reader_that_dies_mid_write_names_the_path(self, tmp_path, capsys, monkeypatch):
        class DiesMidWrite(io.FileIO):
            def write(self, data):
                super().write(bytes(data)[: len(data) // 2])
                os._exit(5)

        def fake_open(file, mode="r", *args, **kwargs):
            if isinstance(file, int) and mode == "wb":
                return DiesMidWrite(file, "wb")
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(bevkit.cli, "open", fake_open, raising=False)
        assert self.run(tmp_path, self.GOOD, self.GOOD) == 2
        gt_path = tmp_path / "gt.json"
        assert capsys.readouterr().err == f"error: {gt_path}: the process reading it exited with status 5 and no result\n"
        assert_no_child_left()

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(), reason="reads process states from /proc")
    def test_killed_parent_leaves_no_reader(self, tmp_path):
        """A parent killed outright runs no cleanup; its reader must still exit."""
        gt_path, pred_path, pid_path = tmp_path / "gt.json", tmp_path / "pred.json", tmp_path / "reader.pid"
        # The --gt table pickles to more than a pipe buffer holds.
        for path, data in zip((gt_path, pred_path), golden_eval_inputs()):
            path.write_text(json.dumps(data), encoding="utf-8")
        script = (
            "import os, sys, time\n"
            "import bevkit.cli\n"
            "gt_path, pid_path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]\n"
            "real = bevkit.cli._load_json\n"
            "def reader(path):\n"
            "    if path == gt_path:\n"
            "        with open(pid_path + '.tmp', 'w') as f:\n"
            "            f.write(str(os.getpid()))\n"
            "        os.replace(pid_path + '.tmp', pid_path)\n"
            "        time.sleep(1.0)\n"
            "    else:\n"
            "        time.sleep(60.0)\n"
            "    return real(path)\n"
            "bevkit.cli._load_json = reader\n"
            "bevkit.cli.main(argv)\n"
        )
        argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(tmp_path / "out")]
        src = str(Path(bevkit.cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        parent = subprocess.Popen(
            [sys.executable, "-c", script, str(gt_path), str(pid_path), *argv],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        reader = None
        deadline = time.monotonic() + 30.0
        try:
            while not pid_path.exists():
                assert parent.poll() is None and time.monotonic() < deadline
                time.sleep(0.01)
            reader = int(pid_path.read_text())
            parent.kill()
            parent.wait()
            while process_running(reader):
                assert time.monotonic() < deadline, "the --gt reader outlived its killed parent"
                time.sleep(0.05)
        finally:
            parent.kill()
            parent.wait()
            if reader is not None and process_running(reader):
                os.kill(reader, signal.SIGKILL)

    def test_stopped_parent_kills_and_reaps_the_reader(self, tmp_path, monkeypatch):
        class Stop(BaseException):
            pass

        gt_path = str(tmp_path / "gt.json")

        def reader(path):
            if path == gt_path:
                time.sleep(60)
            raise Stop

        monkeypatch.setattr(bevkit.cli, "_load_json", reader)
        begin = time.monotonic()
        with pytest.raises(Stop):
            self.run(tmp_path, self.GOOD, self.GOOD)
        assert time.monotonic() - begin < 30.0
        assert_no_child_left()

    def test_report_identical_without_fork(self, tmp_path, capsys, monkeypatch):
        inputs = golden_eval_inputs()
        assert self.run(tmp_path, *inputs) == 0
        assert_no_child_left()
        forked = (capsys.readouterr(), (tmp_path / "out" / "metric_report.json").read_bytes())
        monkeypatch.delattr(os, "fork")
        assert self.run(tmp_path, *inputs) == 0
        assert (capsys.readouterr(), (tmp_path / "out" / "metric_report.json").read_bytes()) == forked
        assert forked[1] == (GOLDEN / "metric_report.json").read_bytes()


@pytest.fixture
def collector_state():
    """Give the test the cyclic garbage collector, and restore its state after."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


class TestCollectorPause:
    """``main`` runs a subcommand with the cyclic garbage collector paused and restores the caller's state."""

    DEPTH = ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--values"]

    @pytest.mark.parametrize("value, code", [("1", 0), ("nan", 2)], ids=["exit-0", "exit-2"])
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored(self, collector_state, capsys, enabled, value, code):
        gc.enable() if enabled else gc.disable()
        assert main([*self.DEPTH, value]) == code
        assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    def test_state_restored_when_an_exception_escapes(self, collector_state, monkeypatch, enabled):
        def crash(*args, **kwargs):
            raise RuntimeError("crash")

        monkeypatch.setattr(bevkit.cli, "scale_invariant_to_metric", crash)
        gc.enable() if enabled else gc.disable()
        with pytest.raises(RuntimeError):
            main([*self.DEPTH, "1"])
        assert gc.isenabled() is enabled

    def test_evaluate_runs_paused(self, collector_state, tmp_path, eval_files, monkeypatch, capsys):
        gt_path, pred_path = eval_files
        seen = []
        real = bevkit.cli.evaluate

        def recording(*args, **kwargs):
            seen.append(gc.isenabled())
            return real(*args, **kwargs)

        monkeypatch.setattr(bevkit.cli, "evaluate", recording)
        gc.enable()
        argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(tmp_path / "out")]
        assert main(argv) == 0
        assert seen == [False]
        assert gc.isenabled()


def test_cli_import_loads_no_pool_module():
    """Importing a pool module (concurrent.futures, multiprocessing) would add to every CLI call's setup time."""
    code = (
        "import sys, bevkit.cli\n"
        "print(sorted(name for name in sys.modules if name.split('.')[0] in ('concurrent', 'multiprocessing')))"
    )
    src = str(Path(bevkit.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout == "[]\n"


def test_cli_import_loads_only_the_standard_library_and_numpy():
    """bevkit is a pure-numpy toolkit, and the benchmark's ``setup_s`` times this import in a fresh interpreter."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import bevkit.cli\n"
        "print(' '.join(sorted({name.partition('.')[0] for name in set(sys.modules) - before})))"
    )
    src = str(Path(bevkit.cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    loaded = set(result.stdout.split())
    assert loaded - set(sys.stdlib_module_names) == {"bevkit", "numpy"}


def seed_1_scene(edit) -> dict:
    """The scene ``gen-scene --seed 1 --boxes 4`` writes, changed in place by ``edit``."""
    data = scene_to_dict(generate_synthetic_scene(1, 6, 4))
    edit(data)
    return data


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
            (
                ["depth-convert", "--direction", "to-scale-invariant", "--fx", "1e-320", "--fy", "1", "--values", "10"],
                None,
                "pixel size sqrt(1/fx^2 + 1/fy^2) overflows at fx=1e-320, fy=1.0",
            ),
            (
                ["depth-convert", "--direction", "to-metric", "--fx", "10000", "--fy", "10000", "--values", "1e308"],
                None,
                "metric depth for scale-invariant depth 1e+308 overflows a float at fx=10000.0, fy=10000.0",
            ),
            (
                [
                    "depth-convert",
                    "--direction",
                    "to-scale-invariant",
                    "--fx",
                    "1e-300",
                    "--fy",
                    "1e-300",
                    "--depth-min",
                    "1",
                    "--depth-max",
                    "1e300",
                    "--values",
                    "1e300",
                ],
                None,
                "scale-invariant depth for metric depth 1e+300 overflows a float at fx=1e-300, fy=1e-300",
            ),
            (
                ["bin-focal", "--alpha", "0", "--beta", "1e-320", "--subintervals", "5000", "--focals", "600"],
                None,
                "thresholds must be strictly ascending and finite, got t_0 = 0.0, t_1 = 0.0",
            ),
            (
                ["bin-focal", "--alpha", "0", "--beta", "1e308", "--subintervals", "2", "--focals", "600"],
                None,
                "thresholds must be strictly ascending and finite, got t_1 = 5e+307, t_2 = inf",
            ),
            (["gen-scene", "--seed", "-1", "--output-dir", "{out}"], None, "seed must be a non-negative integer, got -1"),
            (["augment", "--scene", "{scene}", "--seed", "-1", "--output-dir", "{out}"], None, "seed must be a non-negative integer, got -1"),
            (
                ["augment", "--scene", "{scene}", "--config", "{file}", "--output-dir", "{out}"],
                {"perturbation": {"seed": -3}},
                "{file}: perturbation: seed must be a non-negative integer, got -3",
            ),
            (
                ["augment", "--scene", "{file}", "--output-dir", "{out}"],
                {"scene_id": "s", "cameras": [], "boxes": [{"center": [10**400, 0, 0.75], "dims": [4, 2, 1.5], "yaw": 0}]},
                "{file}: box 0: int too large to convert to float",
            ),
            (
                ["augment", "--scene", "{scene}", "--config", "{file}", "--output-dir", "{out}"],
                {"perturbation": {"seed": 5.7}},
                "{file}: perturbation: seed must be a non-negative integer, got 5.7",
            ),
            (
                ["augment", "--scene", "{scene}", "--config", "{file}", "--output-dir", "{out}"],
                {"perturbation": {"seed": True}},
                "{file}: perturbation: seed must be a non-negative integer, got True",
            ),
            (
                ["augment", "--scene", "{file}", "--output-dir", "{out}"],
                {
                    "scene_id": "s",
                    "cameras": [
                        {
                            "camera_id": "c0",
                            "intrinsics": {"fx": 500, "fy": 500, "px": 352, "py": 128, "width": 703.9, "height": 256},
                            "pose": {"yaw": 0, "pitch": 0, "roll": 0, "t": [0, 0, 0]},
                        }
                    ],
                    "boxes": [],
                },
                "{file}: camera 0: intrinsics: width must be a positive integer, got 703.9",
            ),
            (
                ["augment", "--scene", "{file}", "--output-dir", "{out}"],
                {
                    "scene_id": "s",
                    "cameras": [
                        {
                            "camera_id": "c0",
                            "intrinsics": {"fx": True, "fy": 500, "px": 352, "py": 128, "width": 704, "height": 256},
                            "pose": {"yaw": 0, "pitch": 0, "roll": 0, "t": [0, 0, 0]},
                        }
                    ],
                    "boxes": [],
                },
                "{file}: camera 0: intrinsics: fx must be a finite number, got True",
            ),
            (
                ["augment", "--scene", "{file}", "--output-dir", "{out}"],
                {
                    "scene_id": "s",
                    "cameras": [
                        {
                            "camera_id": "c0",
                            "intrinsics": {"fx": 500, "fy": 500, "px": 352, "py": 128, "width": 704, "height": 256},
                            "pose": {"yaw": "0.5", "pitch": 0, "roll": 0, "t": [0, 0, 0]},
                        }
                    ],
                    "boxes": [],
                },
                "{file}: camera 0: pose: yaw must be a finite number, got '0.5'",
            ),
            (
                ["evaluate", "--gt", "{file}", "--pred", "{pred}", "--output-dir", "{out}"],
                {"records": [{"sample_id": "s0", "center": [10**400, 0, 0.75], "dims": [4, 2, 1.5], "yaw": 0}]},
                "{file}: record 0: int too large to convert to float",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{pred}", "--config", "{file}", "--output-dir", "{out}"],
                {"metrics": {"range_limit": 10**400}},
                "{file}: metrics: int too large to convert to float",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{pred}", "--config", "{file}", "--output-dir", "{out}"],
                {"metrics": {"distance_thresholds": [0.5, math.nan, 2.0]}},
                "{file}: metrics: distance thresholds must be positive and finite, got (0.5, nan, 2.0)",
            ),
            (
                ["evaluate", "--gt", "{file}", "--pred", "{pred}", "--output-dir", "{out}"],
                {"records": [{"sample_id": "s0", "center": [1.0, True, 0.5], "dims": [4, 2, 1.5], "yaw": 0}]},
                "{file}: record 0: center must be a number, got True",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{file}", "--output-dir", "{out}"],
                {"records": [{"sample_id": "s0", "center": [10, 0, 0.75], "dims": [4, 2, 1.5], "yaw": 0, "score": "0.5"}]},
                "{file}: record 0: score must be a number, got '0.5'",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{file}", "--output-dir", "{out}"],
                {"records": [{"sample_id": "s0", "center": [10, 0, 0.75], "dims": [4, 2, 1.5], "yaw": 0, "score": True}]},
                "{file}: record 0: score must be a number, got True",
            ),
            (
                ["evaluate", "--gt", "{file}", "--pred", "{pred}", "--output-dir", "{out}"],
                {"records": [{"sample_id": 7, "center": [10, 0, 0.75], "dims": [4, 2, 1.5], "yaw": 0}]},
                "{file}: record 0: sample_id must be a non-empty string, got 7",
            ),
            (
                ["evaluate", "--gt", "{file}", "--pred", "{pred}", "--output-dir", "{out}"],
                {"records": [{"sample_id": "s0", "center": [10, 0, 0.75], "dims": [4, 2, 1.5], "yaw": 0, "class_id": None}]},
                "{file}: record 0: class_id must not be null",
            ),
            (
                ["homography", "--scene", "{file}", "--output-dir", "{out}"],
                {"scene_id": 5, "cameras": [], "boxes": []},
                "{file}: scene_id must be a string, got 5",
            ),
            (
                ["homography", "--scene", "{file}", "--output-dir", "{out}"],
                {
                    "scene_id": "s",
                    "cameras": [
                        {
                            "camera_id": 9,
                            "intrinsics": {"fx": 500, "fy": 500, "px": 352, "py": 128, "width": 704, "height": 256},
                            "pose": {"yaw": 0, "pitch": 0, "roll": 0, "t": [0, 0, 0]},
                        }
                    ],
                    "boxes": [],
                },
                "{file}: camera 0: camera_id must be a non-empty string, got 9",
            ),
            (
                ["augment", "--scene", "{scene}", "--config", "{file}", "--output-dir", "{out}"],
                {"perturbation": {"d_yaw": "0.5"}},
                "{file}: perturbation: d_yaw must be a number, got '0.5'",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{pred}", "--config", "{file}", "--output-dir", "{out}"],
                {"metrics": {"range_limit": True}},
                "{file}: metrics: range_limit must be a number, got True",
            ),
            (
                ["homography", "--scene", "{file}", "--output-dir", "{out}"],
                seed_1_scene(lambda data: data["boxes"][2].pop("center")),
                "{file}: box 2: missing required key 'center'",
            ),
            (
                ["homography", "--scene", "{file}", "--output-dir", "{out}"],
                seed_1_scene(lambda data: data["boxes"][3].update(score=None)),
                "{file}: box 3: score must not be null",
            ),
            (
                ["homography", "--scene", "{file}", "--output-dir", "{out}"],
                seed_1_scene(lambda data: data["cameras"][4]["intrinsics"].pop("fx")),
                "{file}: camera 4: intrinsics: missing required key 'fx'",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{pred}", "--config", "{file}", "--output-dir", "{out}"],
                {"metrics": {"tp_threshold": 3.0}},
                "{file}: metrics: tp_threshold 3.0 not among (0.5, 1.0, 2.0, 4.0)",
            ),
            (
                ["homography", "--scene", "{file}", "--output-dir", "{out}"],
                [1],
                "{file}: the top level must be an object, got array",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{pred}", "--config", "{file}", "--output-dir", "{out}"],
                [1],
                "{file}: the top level must be an object, got array",
            ),
            (
                ["evaluate", "--gt", "{file}", "--pred", "{pred}", "--output-dir", "{out}"],
                [1],
                "{file}: the top level must be an object, got array",
            ),
            (
                ["evaluate", "--gt", "{gt}", "--pred", "{file}", "--output-dir", "{out}"],
                [1],
                "{file}: the top level must be an object, got array",
            ),
        ],
        ids=[
            "bin-focal-nan",
            "bin-focal-inf",
            "depth-convert-nan",
            "depth-convert-inf",
            "depth-convert-pixel-size-overflow",
            "depth-convert-metric-overflow",
            "depth-convert-scale-invariant-overflow",
            "bin-focal-collapsed-edges",
            "bin-focal-edge-overflow",
            "gen-scene-negative-seed",
            "augment-negative-seed",
            "augment-negative-config-seed",
            "augment-huge-box-coordinate",
            "augment-fractional-config-seed",
            "augment-boolean-perturbation-seed",
            "augment-fractional-scene-width",
            "augment-boolean-scene-focal",
            "augment-string-scene-yaw",
            "evaluate-huge-center",
            "evaluate-huge-config-range-limit",
            "evaluate-nan-config-threshold",
            "evaluate-boolean-center",
            "evaluate-string-score",
            "evaluate-boolean-score",
            "evaluate-integer-sample-id",
            "evaluate-null-class-id",
            "homography-integer-scene-id",
            "homography-integer-camera-id",
            "augment-string-config-d-yaw",
            "evaluate-boolean-config-range-limit",
            "homography-box-without-center",
            "homography-null-box-score",
            "homography-intrinsics-without-fx",
            "evaluate-config-tp-threshold-not-among",
            "homography-top-level-array-scene",
            "evaluate-top-level-array-config",
            "evaluate-top-level-array-gt",
            "evaluate-top-level-array-pred",
        ],
    )
    def test_exits_2_with_precise_message(self, tmp_path, eval_files, capsys, argv, content, expected):
        names = {"scene": tmp_path / "scene" / "scene.json", "file": tmp_path / "input.json", "out": tmp_path / "out"}
        names["gt"], names["pred"] = eval_files
        if "{scene}" in argv:
            assert main(["gen-scene", "--boxes", "4", "--with-images", "--output-dir", str(names["scene"].parent)]) == 0
            capsys.readouterr()
        if content is not None:
            names["file"].write_text(json.dumps(content))
        assert main([arg.format(**names) for arg in argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {expected.format(**names)}\n"


README_RECORDS = [
    {"sample_id": "s0", "center": [10.0 * i, 0.0, 0.75], "dims": [4.0, 2.0, 1.5], "yaw": 0.0, "score": 0.5} for i in range(6)
]


@pytest.mark.parametrize(
    "name, doc, command",
    [
        ("run.json", {"metrics": {"range_limt": 100}}, "evaluate"),
        ("run.json", {"perturbation": {"seed": 5.7}}, "homography"),
        ("pred.json", {"records": [*README_RECORDS[:5], {**README_RECORDS[5], "score": None}]}, "evaluate"),
        ("scene.json", seed_1_scene(lambda data: data["cameras"][4]["intrinsics"].pop("fx")), "homography"),
        ("gt.json", [], "evaluate"),
    ],
    ids=["unknown-metrics-key", "fractional-seed", "null-score", "intrinsics-without-fx", "top-level-array"],
)
def test_readme_quotes_the_error_lines_the_cli_prints(tmp_path, monkeypatch, capsys, name, doc, command):
    """Each error line the README quotes is, byte for byte, the line the CLI prints for its input."""
    monkeypatch.chdir(tmp_path)
    valid = {"records": README_RECORDS}
    files = {"scene.json": seed_1_scene(lambda data: None), "gt.json": valid, "pred.json": valid, "run.json": {}, name: doc}
    for file_name, file_doc in files.items():
        Path(file_name).write_text(json.dumps(file_doc), encoding="utf-8")
    argv = {"homography": ["--scene", "scene.json"], "evaluate": ["--gt", "gt.json", "--pred", "pred.json"]}[command]
    assert main([command, *argv, "--config", "run.json", "--output-dir", "out"]) == 2
    line = capsys.readouterr().err
    assert f"\n{line}" in README.read_text(encoding="utf-8"), line


class TestLongValue:
    """An error quotes a long value from input cut short: one ``error:`` line of at most 1,000 characters."""

    def run(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines(keepends=True)
        assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n"), len(captured.err)
        assert len(lines[0]) <= 1000, len(lines[0])
        return lines[0]

    def test_raster_header_running_into_the_raster(self, tmp_path, capsys):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "3", "--with-images", "--output-dir", str(scene_dir)]) == 0
        capsys.readouterr()
        # no maxval: the header's last token runs into the black raster's NUL bytes
        raster = scene_dir / "images" / "cam_01.pgm"
        raster.write_bytes(b"P6\n1600 900 # no maxval\n" + bytes(1600 * 900 * 3))
        argv = ["augment", "--scene", str(scene_dir / "scene.json"), "--output-dir", str(tmp_path / "out")]
        line = self.run(capsys, argv)
        assert line.startswith(f"error: {raster}: PNM maxval is not a decimal number: '\\x00\\x00")
        assert line.endswith("...'\n")

    def test_box_center_of_many_numbers(self, tmp_path, capsys):
        data = scene_to_dict(generate_synthetic_scene(1, 6, 2))
        data["boxes"][0]["center"] = [0.5] * 300_000
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        line = self.run(capsys, ["homography", "--scene", str(path), "--output-dir", str(tmp_path / "out")])
        assert line.startswith(f"error: {path}: box 0: center must be 3 finite values, got (0.5, 0.5, ")

    def test_sample_id_of_many_elements(self, tmp_path, eval_files, capsys):
        gt_path, pred_path = eval_files
        data = json.loads(gt_path.read_text())
        data["records"][0]["sample_id"] = [0] * 200_000
        gt_path.write_text(json.dumps(data), encoding="utf-8")
        argv = ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(tmp_path / "out")]
        line = self.run(capsys, argv)
        assert line.startswith(f"error: {gt_path}: record 0: sample_id must be a non-empty string, got [0, 0, ")


DEEP_ARRAY = "[" * 100_000 + "]" * 100_000


class TestUnparsableFile:
    """A file json cannot read exits 2 with one line naming it, from every flag that reads JSON."""

    @staticmethod
    def argv(flag, tmp_path, eval_files, bad):
        gt_path, pred_path = eval_files
        out = ["--output-dir", str(tmp_path / "out")]
        if flag == "--scene":
            return ["homography", "--scene", str(bad), *out]
        paths = {"--gt": str(gt_path), "--pred": str(pred_path), flag: str(bad)}
        return ["evaluate", *[arg for item in paths.items() for arg in item], *out]

    @pytest.mark.parametrize("content", [DEEP_ARRAY.encode(), b'{"records": "\xff"}'], ids=["deep-array", "invalid-utf8"])
    @pytest.mark.parametrize("flag", ["--gt", "--pred", "--config", "--scene"])
    def test_exits_2_naming_the_file(self, tmp_path, eval_files, capsys, flag, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(self.argv(flag, tmp_path, eval_files, bad)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: ") and captured.err.count("\n") == 1, captured.err
        assert not (tmp_path / "out").exists()


def json_values():
    """Any JSON value as Python's json module reads it, NaN and the infinities included.

    Integers beyond 64 bits are drawn on their own: numpy holds none of
    them, and float() overflows on 10**400.
    """
    integers = st.integers() | st.sampled_from([2**64, -(2**64), 10**400])
    scalars = st.none() | st.booleans() | integers | st.floats() | st.text(max_size=6)
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
        max_leaves=5,
    )


def value_paths(doc, path=()):
    """The path of every value in a JSON document, the document itself first."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in items:
        yield from value_paths(child, (*path, key))


def with_value(doc, path, value):
    """A copy of ``doc`` with the value at ``path`` replaced by ``value``."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


class TestArbitraryValue:
    """Any one value of a valid input replaced by any JSON value: exit 0, or exit 2 with one error line."""

    FILES = {
        "scene.json": scene_to_dict(generate_synthetic_scene(1, 6, 2)),
        "gt.json": records_to_dict(
            [
                DetectionRecord(Box3D((10.0, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0), "s0"),
                DetectionRecord(Box3D((20.0, 5.0, 0.75), (4.0, 2.0, 1.5), 0.5, "pedestrian"), "s1"),
            ]
        ),
        "pred.json": records_to_dict(
            [
                DetectionRecord(Box3D((10.2, 0.0, 0.75), (4.0, 2.0, 1.5), 0.0, score=0.9), "s0"),
                DetectionRecord(Box3D((20.0, 5.0, 0.75), (3.0, 2.0, 1.5), 3.0, score=0.8), "s1"),
            ]
        ),
        "run.json": FULL_CONFIG,
    }
    HOMOGRAPHY = ["homography", "--scene", "scene.json"]
    EVALUATE = ["evaluate", "--gt", "gt.json", "--pred", "pred.json"]
    # The file a value is replaced in, and the commands that read it.
    KINDS = {
        "scene": (["scene.json"], [HOMOGRAPHY]),
        "records": (["gt.json", "pred.json"], [EVALUATE]),
        "config": (["run.json"], [[*HOMOGRAPHY, "--config", "run.json"], [*EVALUATE, "--config", "run.json"]]),
    }

    @pytest.mark.parametrize("kind", sorted(KINDS))
    @settings(max_examples=65, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exits_0_or_2_with_one_error_line(self, kind, data):
        names, commands = self.KINDS[kind]
        name = data.draw(st.sampled_from(names), label="file")
        path = data.draw(st.sampled_from(list(value_paths(self.FILES[name]))), label="path")
        files = {**self.FILES, name: with_value(self.FILES[name], path, data.draw(json_values(), label="value"))}
        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            for file_name, doc in files.items():
                (root / file_name).write_text(json.dumps(doc), encoding="utf-8")
            for command in commands:
                argv = [str(root / arg) if arg.endswith(".json") else arg for arg in command]
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main([*argv, "--output-dir", str(root / "out")])
                if code == 0:
                    assert err.getvalue() == ""
                else:
                    assert code == 2
                    assert out.getvalue() == ""
                    lines = err.getvalue().splitlines(keepends=True)
                    assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n"), lines
                    assert len(lines[0]) <= 1000, lines


def flag_floats():
    """Any float, with those a numeric flag must survive drawn often: NaN, the infinities, subnormals, +-1e308."""
    return st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, 5e-324, -1e-320, 1e-200, 1e308, -1e308])


def flag(name, value):
    """``--name=value``: argparse would take a separate "-1e+308" or "-inf" for an option."""
    return f"{name}={value!r}"


class TestArbitraryFlag:
    """Any float in a numeric flag of depth-convert or bin-focal: exit 0, or exit 2 with one short error line."""

    @staticmethod
    def depth_convert(data, root):
        argv = ["depth-convert", "--direction", data.draw(st.sampled_from(["to-scale-invariant", "to-metric"]))]
        argv += [flag(name, data.draw(flag_floats(), label=name)) for name in ("--fx", "--fy")]
        # A depth inside the default range reaches the pixel size.
        argv.append(flag("--values", data.draw(flag_floats() | st.floats(2.0, 90.0), label="--values")))
        f_ref = data.draw(st.none() | flag_floats(), label="--f-ref")
        if f_ref is not None:
            argv.append(flag("--f-ref", f_ref))
        bounds = data.draw(st.none() | st.tuples(flag_floats(), flag_floats()), label="depth range")
        if bounds is not None:
            argv += [flag("--depth-min", bounds[0]), flag("--depth-max", bounds[1])]
        return argv

    @staticmethod
    def bin_focal(data, root):
        argv = ["bin-focal", flag("--focals", data.draw(flag_floats(), label="--focals"))]
        alpha = data.draw(st.none() | flag_floats(), label="--alpha")
        # A beta one float above alpha collapses the edges for any K > 1.
        betas = flag_floats() if alpha is None else flag_floats() | st.just(math.nextafter(alpha, math.inf))
        beta = data.draw(st.none() | betas, label="--beta")
        argv += [flag(name, value) for name, value in (("--alpha", alpha), ("--beta", beta)) if value is not None]
        subintervals = data.draw(st.none() | st.integers(0, 10_000), label="--subintervals")
        if subintervals is not None:
            argv.append(flag("--subintervals", subintervals))
        return argv

    @pytest.mark.parametrize("command", ["depth_convert", "bin_focal"])
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_exits_0_or_2_with_one_short_error_line(self, command, data):
        with tempfile.TemporaryDirectory() as tmp:
            argv = getattr(self, command)(data, Path(tmp))
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        if code == 0:
            assert err.getvalue() == ""
        else:
            assert code == 2
            assert out.getvalue() == ""
            lines = err.getvalue().splitlines(keepends=True)
            assert len(lines) == 1 and lines[0].startswith("error: ") and lines[0].endswith("\n"), lines
            assert len(lines[0]) <= 1000, lines[0][:200]


class TestMisplacedScalar:
    """A null, number or boolean where an object or array belongs names its key or index and the file."""

    @pytest.mark.parametrize(
        "name, path, value, message",
        [
            ("scene.json", ("cameras", 1), None, "camera 1 must be an object, got null"),
            ("scene.json", ("cameras", 0, "intrinsics"), 5, "camera 0: intrinsics must be an object, got number"),
            ("scene.json", ("cameras", 0, "pose"), True, "camera 0: pose must be an object, got boolean"),
            ("scene.json", ("cameras", 0, "pose", "t"), None, "camera 0: pose: t must be an array, got null"),
            ("scene.json", ("boxes", 1), 0.5, "box 1 must be an object, got number"),
            ("gt.json", ("records", 1), None, "record 1 must be an object, got null"),
            ("pred.json", ("records", 0, "center"), 5, "record 0: center must be an array, got number"),
            ("gt.json", ("records", 1, "dims"), False, "record 1: dims must be an array, got boolean"),
            ("run.json", ("metrics", "distance_thresholds"), 4.0, "metrics: distance_thresholds must be an array, got number"),
        ],
        ids=["camera", "intrinsics", "pose", "t", "box", "record", "center", "dims", "distance-thresholds"],
    )
    def test_exits_2_naming_key_and_file(self, tmp_path, capsys, name, path, value, message):
        files = {**TestArbitraryValue.FILES, name: with_value(TestArbitraryValue.FILES[name], path, value)}
        for file_name, doc in files.items():
            (tmp_path / file_name).write_text(json.dumps(doc), encoding="utf-8")
        if name == "scene.json":
            argv = ["homography", "--scene", str(tmp_path / "scene.json")]
        else:
            argv = ["evaluate", "--gt", str(tmp_path / "gt.json"), "--pred", str(tmp_path / "pred.json")]
            argv += ["--config", str(tmp_path / "run.json")]
        assert main([*argv, "--output-dir", str(tmp_path / "out")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {tmp_path / name}: {message}\n"


class TestRunConfigFile:
    REJECTED = [
        ({"metrics": {"range_limt": 100}}, "metrics: unknown key 'range_limt'"),
        ({"metric": {"range_limit": 100}}, "unknown key 'metric'"),
        ({"perturbation": {"d_yaw": 0.1, "yaw": 0.1}}, "perturbation: unknown key 'yaw'"),
        ({"seed": 5}, "unknown key 'seed'"),
        ({"depth": {"reference_pixel_size": -1.0}}, "unknown key 'depth'"),
        ({"scheme": {"alpha": 500.0, "beta": 750.0, "num_subintervals": 5}}, "unknown key 'scheme'"),
    ]
    REJECTED_IDS = ["metrics-key", "top-level-key", "perturbation-key", "top-level-seed", "depth", "scheme"]

    @staticmethod
    def argv(command, tmp_path, eval_files, config_path):
        out = ["--config", str(config_path), "--output-dir", str(tmp_path / "out")]
        if command == "evaluate":
            gt_path, pred_path = eval_files
            return ["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), *out]
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--boxes", "4", "--with-images", "--output-dir", str(scene_dir)]) == 0
        return [command, "--scene", str(scene_dir / "scene.json"), *out]

    @pytest.mark.parametrize("config", [SEED_ONLY_CONFIG, METRICS_CONFIG, FULL_CONFIG], ids=["seed", "metrics", "full"])
    @pytest.mark.parametrize("command", ["augment", "homography", "evaluate"])
    def test_accepted_config_matches_schema(self, tmp_path, eval_files, command, config):
        validate(config, "run_config.schema.json")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        assert main(self.argv(command, tmp_path, eval_files, config_path)) == 0

    @pytest.mark.parametrize("config, message", REJECTED, ids=REJECTED_IDS)
    @pytest.mark.parametrize("command", ["augment", "homography", "evaluate"])
    def test_unknown_key_rejected_by_schema_and_cli(self, tmp_path, eval_files, capsys, command, config, message):
        import jsonschema

        with pytest.raises(jsonschema.ValidationError, match="Additional properties are not allowed"):
            validate(config, "run_config.schema.json")
        config_path = tmp_path / "run.json"
        config_path.write_text(json.dumps(config))
        argv = self.argv(command, tmp_path, eval_files, config_path)
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {config_path}: {message}\n"
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("path", sorted(SCHEMAS.glob("*.schema.json")), ids=lambda path: path.name)
def test_schema_is_well_formed(path):
    import jsonschema

    jsonschema.Draft202012Validator.check_schema(json.loads(path.read_text()))


class TestFlags:
    BASE = {
        "gen-scene": ["gen-scene"],
        "augment": ["augment", "--scene", "scene.json"],
        "homography": ["homography", "--scene", "scene.json"],
        "depth-convert": ["depth-convert", "--direction", "to-metric", "--fx", "1000", "--fy", "1000", "--values", "1"],
        "bin-focal": ["bin-focal", "--focals", "700"],
        "evaluate": ["evaluate", "--gt", "gt.json", "--pred", "pred.json"],
    }

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("gen-scene", "--config"),
            ("depth-convert", "--config"),
            ("bin-focal", "--config"),
            ("depth-convert", "--seed"),
            ("bin-focal", "--seed"),
            ("evaluate", "--seed"),
            # aliases of perturbation.d_* in the run config, and of sqrt(2) / --f-ref
            ("augment", "--d-yaw"),
            ("augment", "--d-pitch"),
            ("augment", "--d-roll"),
            ("homography", "--d-yaw"),
            ("homography", "--d-pitch"),
            ("homography", "--d-roll"),
            ("depth-convert", "--c"),
        ],
    )
    def test_unread_flag_rejected(self, command, flag, capsys):
        parser = build_parser()
        parser.parse_args(self.BASE[command])
        with pytest.raises(SystemExit) as exc:
            parser.parse_args([*self.BASE[command], flag, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} 1" in capsys.readouterr().err

    def test_readme_commands_parse(self):
        block = re.search(r"## CLI\n\n```sh\n(.*?)```", README.read_text(encoding="utf-8"), re.S).group(1)
        lines = [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("bevkit ")]
        parser = build_parser()
        (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        assert {argv[0] for argv in lines} == set(subparsers.choices)
        for argv in lines:
            parser.parse_args(argv)

    def test_subcommand_set(self, capsys):
        parser = build_parser()
        (subparsers,) = [action for action in parser._actions if isinstance(action, argparse._SubParsersAction)]
        assert set(subparsers.choices) == {
            "gen-scene",
            "augment",
            "homography",
            "depth-convert",
            "bin-focal",
            "evaluate",
        }
        for removed in (["selftest"], ["ordinal-loss", "--label", "0"]):
            with pytest.raises(SystemExit) as exc:
                main(removed)
            assert exc.value.code == 2
            assert f"invalid choice: '{removed[0]}'" in capsys.readouterr().err


class TestBenchmarkReplays:
    """The traced replays in bench/spans.py write what the commands they replay write.

    bench/ is put on sys.path, as bench/worker.py does, so a library change
    that breaks a replay's imports or calls fails here.
    """

    @pytest.fixture
    def spans(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import spans

        return spans

    @pytest.mark.parametrize("workers", [1, 2])
    def test_replay_augment_writes_the_cli_bytes(self, tmp_path, spans, workers):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "2", "--with-images", "--output-dir", str(scene_dir)]) == 0
        argv = ["--scene", str(scene_dir / "scene.json"), "--seed", "4", "--workers", str(workers)]
        assert main(["augment", *argv, "--output-dir", str(tmp_path / "cli")]) == 0
        spans.replay_augment(spans.Tracer(), scene_dir / "scene.json", 4, workers, tmp_path / "replay")
        cli = read_tree(tmp_path / "cli")
        assert len(cli) == 8
        assert b'"fitted"' in cli[Path("homographies.json")]
        assert read_tree(tmp_path / "replay") == cli

    def test_replay_augment_completes_on_a_zero_size_box(self, tmp_path, spans):
        scene_dir = tmp_path / "scene"
        assert main(["gen-scene", "--seed", "2", "--with-images", "--output-dir", str(scene_dir)]) == 0
        scene_path = scene_dir / "scene.json"
        data = json.loads(scene_path.read_text())
        # cam_00 sees the box's five anchors, which coincide: a degenerate fit
        data["boxes"] = [{"center": [15.0, 0.0, 0.0], "dims": [0.0, 0.0, 0.0], "yaw": 0.0}]
        scene_path.write_text(dumps_canonical(data), encoding="utf-8")
        assert main(["augment", "--scene", str(scene_path), "--seed", "4", "--output-dir", str(tmp_path / "cli")]) == 0
        spans.replay_augment(spans.Tracer(), scene_path, 4, 1, tmp_path / "replay")
        cli, replay = read_tree(tmp_path / "cli"), read_tree(tmp_path / "replay")
        assert len(cli) == 8
        assert b'"fitted"' not in cli[Path("homographies.json")]
        # The replay records the drawn pose where augment keeps the original one.
        del cli[Path("poses.json")], replay[Path("poses.json")]
        assert replay == cli

    def test_replay_evaluate_writes_the_cli_bytes(self, tmp_path, spans):
        gt, pred = golden_eval_inputs()
        gt_path, pred_path = tmp_path / "gt.json", tmp_path / "pred.json"
        gt_path.write_text(json.dumps(gt), encoding="utf-8")
        pred_path.write_text(json.dumps(pred), encoding="utf-8")
        assert main(["evaluate", "--gt", str(gt_path), "--pred", str(pred_path), "--output-dir", str(tmp_path / "cli")]) == 0
        tracer = spans.Tracer()
        spans.replay_evaluate(tracer, gt_path, pred_path, 1, tmp_path / "replay")
        cli = read_tree(tmp_path / "cli")
        assert read_tree(tmp_path / "replay") == cli
        report = json.loads(cli[Path("metric_report.json")])
        assert tracer.counters["metrics.matches"] == report["match_counts"]["matches@2"]
