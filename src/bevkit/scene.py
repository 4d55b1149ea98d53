"""Scene containers, JSON serialization, and the synthetic scene generator.

All files are UTF-8 JSON with angles in radians and lengths in meters;
``dumps_canonical`` fixes key order and indentation so identical inputs
produce byte-identical files.  The corresponding schema documents live
under docs/schemas/.  ``within`` alone gives a parse error its location,
once per level of the file (the file, ``camera 4``, its ``intrinsics``).
The top level passes the same object check as every level in it.

A detection file's text can also be parsed in two halves, cut at the comma
between two records (``records_cut``, ``head_records``, ``tail_records``).
The split is exact: a half declines (returns None) on anything the whole
file's parse might read differently, and the caller then parses the file
whole, so two accepted halves joined by ``DetectionTable.join`` give the
table ``table_from_dict`` gives for the whole file, and every error is the
whole file's.  Each half checks the ``schema_version`` keys it reads, so a
half with an unsupported version declines even where a later, supported
one would override it in the whole parse.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field, fields, replace
from functools import partial

import numpy as np

from .augment import PerturbationRange
from .boxes import DEFAULT_CLASS_ID, Box3D
from .geometry import CameraModel, Intrinsics, Pose, ego_to_camera_rotation, is_path, is_real, shown, whole_number, wrap_angle
from .metrics import DetectionRecord, DetectionTable, MetricConfig
from .ordinal import DATASET_SCHEMES

__all__ = [
    "SCHEMA_VERSION",
    "RIG_STYLES",
    "Scene",
    "RunConfig",
    "dumps_canonical",
    "scene_to_dict",
    "scene_from_dict",
    "run_config_from_dict",
    "pose_to_dict",
    "pose_from_dict",
    "box_to_dict",
    "box_from_dict",
    "records_from_dict",
    "table_from_dict",
    "records_cut",
    "head_records",
    "tail_records",
    "generate_synthetic_scene",
    "render_pattern_image",
    "within",
]

SCHEMA_VERSION = 1

# Supported synthetic rig layouts: a full surround ring or a forward arc.
RIG_STYLES = ("ring", "frontal")


@dataclass(frozen=True)
class Scene:
    scene_id: str
    cameras: tuple[CameraModel, ...]
    boxes: tuple[Box3D, ...]
    image_paths: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.scene_id, str):
            raise ValueError(f"scene_id must be a string, got {shown(self.scene_id)}")
        object.__setattr__(self, "cameras", tuple(self.cameras))
        object.__setattr__(self, "boxes", tuple(self.boxes))
        ids = [cam.camera_id for cam in self.cameras]
        if len(set(ids)) != len(ids):
            raise ValueError(f"camera ids must be unique, got {shown(ids)}")
        if self.image_paths is not None:
            paths = tuple(self.image_paths)
            if not all(isinstance(p, str) for p in paths):
                raise ValueError(f"image paths must be strings, got {shown(paths)}")
            for index, path in enumerate(paths):
                if not is_path(path):
                    raise ValueError(f"image path {index} must name a file: no NUL or surrogate, got {shown(path)}")
            if len(paths) != len(self.cameras):
                raise ValueError(
                    f"got {len(paths)} image paths for {len(self.cameras)} cameras"
                )
            object.__setattr__(self, "image_paths", paths)


@dataclass(frozen=True)
class RunConfig:
    """What ``--config`` sets: the pose perturbation and the metric protocol."""

    perturbation: PerturbationRange = field(default_factory=PerturbationRange)
    metrics: MetricConfig = field(default_factory=MetricConfig)


def dumps_canonical(data) -> str:
    """Deterministic JSON: sorted keys, fixed indent, trailing newline.

    NaN and infinities raise ValueError: they are not JSON.
    """
    return json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"


def within(where: str, parse, value):
    """``parse(value)``; a ValueError, TypeError or OverflowError from it is re-raised, same type, as ``where: message``."""
    try:
        return parse(value)
    except (ValueError, TypeError, OverflowError) as exc:
        raise type(exc)(f"{where}: {exc}") from exc


def _require(data: dict, key: str):
    if key not in data:
        raise ValueError(f"missing required key {key!r}")
    return data[key]


def _optional(data: dict, key: str, default):
    """``data[key]``, or ``default`` if the key is absent; a JSON null is not a value."""
    if key not in data:
        return default
    if data[key] is None:
        raise ValueError(f"{key} must not be null")
    return data[key]


_JSON_TYPES = {
    type(None): "null",
    bool: "boolean",
    int: "number",
    float: "number",
    str: "string",
    list: "array",
    dict: "object",
}


def _json_type(value) -> str:
    """The JSON name of a parsed value's type, as an error message gives it."""
    return _JSON_TYPES.get(type(value), type(value).__name__)


def _array(value, name: str):
    """``value`` if it is an array; an object or a string is not iterated as one."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be an array, got {_json_type(value)}")
    return value


def _object(value, name: str, parse=None):
    """``value``, which must be an object, or ``parse`` of it; the errors ``parse`` raises read ``name: ...``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, got {_json_type(value)}")
    return value if parse is None else within(name, parse, value)


def _check_version(data, kind: str) -> None:
    """``data`` must be an object; its ``schema_version`` may be omitted, and given, it must be 1 (``true`` is not 1)."""
    _object(data, "the top level")
    version = data.get("schema_version", SCHEMA_VERSION)
    if isinstance(version, bool) or version != SCHEMA_VERSION:
        raise ValueError(f"unsupported {kind} schema_version {shown(version)}")


def _check_keys(data: dict, allowed: set[str]) -> None:
    for key in data:
        if key not in allowed:
            raise ValueError(f"unknown key {shown(key)}")


def _section(cls, section: dict):
    """``cls`` built from a run-config section, whose keys must be fields of ``cls``.

    A field whose default is a tuple must be given as an array.
    """
    _check_keys(section, {f.name for f in fields(cls)})
    for f in fields(cls):
        if isinstance(f.default, tuple) and f.name in section:
            _array(section[f.name], f.name)
    return cls(**section)


def intrinsics_to_dict(intr: Intrinsics) -> dict:
    return {f.name: getattr(intr, f.name) for f in fields(Intrinsics)}


def intrinsics_from_dict(data: dict) -> Intrinsics:
    return Intrinsics(**{f.name: _require(data, f.name) for f in fields(Intrinsics)})


def pose_to_dict(pose: Pose) -> dict:
    return {"yaw": pose.yaw, "pitch": pose.pitch, "roll": pose.roll, "t": list(pose.translation)}


def pose_from_dict(data: dict) -> Pose:
    return Pose(
        yaw=_require(data, "yaw"),
        pitch=_require(data, "pitch"),
        roll=_require(data, "roll"),
        translation=_array(_require(data, "t"), "t"),
    )


def camera_to_dict(cam: CameraModel) -> dict:
    return {
        "camera_id": cam.camera_id,
        "intrinsics": intrinsics_to_dict(cam.intrinsics),
        "pose": pose_to_dict(cam.pose),
    }


def camera_from_dict(data: dict) -> CameraModel:
    return CameraModel(
        intrinsics=_object(_require(data, "intrinsics"), "intrinsics", intrinsics_from_dict),
        pose=_object(_require(data, "pose"), "pose", pose_from_dict),
        camera_id=_require(data, "camera_id"),
    )


def box_to_dict(box: Box3D) -> dict:
    data = {
        "center": list(box.center),
        "dims": list(box.dims),
        "yaw": box.yaw,
        "class_id": box.class_id,
    }
    if box.score is not None:
        data["score"] = box.score
    return data


def box_from_dict(data: dict) -> Box3D:
    return Box3D(
        center=_array(_require(data, "center"), "center"),
        dims=_array(_require(data, "dims"), "dims"),
        yaw=_require(data, "yaw"),
        class_id=_optional(data, "class_id", DEFAULT_CLASS_ID),
        score=_optional(data, "score", None),
    )


def scene_to_dict(scene: Scene) -> dict:
    data = {
        "schema_version": SCHEMA_VERSION,
        "scene_id": scene.scene_id,
        "cameras": [camera_to_dict(cam) for cam in scene.cameras],
        "boxes": [box_to_dict(box) for box in scene.boxes],
    }
    if scene.image_paths is not None:
        data["image_paths"] = list(scene.image_paths)
    return data


def scene_from_dict(data: dict) -> Scene:
    _check_version(data, "scene")
    scene_id = _require(data, "scene_id")
    cameras = _array(_require(data, "cameras"), "cameras")
    boxes = _array(_require(data, "boxes"), "boxes")
    cameras = [_object(cam, f"camera {i}", camera_from_dict) for i, cam in enumerate(cameras)]
    boxes = [_object(box, f"box {i}", box_from_dict) for i, box in enumerate(boxes)]
    image_paths = _optional(data, "image_paths", None)
    if image_paths is not None:
        image_paths = _array(image_paths, "image_paths")
    return Scene(scene_id=scene_id, cameras=cameras, boxes=boxes, image_paths=image_paths)


def records_from_dict(data: dict) -> list[DetectionRecord]:
    """Detection records; an error in record i keeps its type and reads ``record i: ...``."""
    _check_version(data, "records")

    def record(entry: dict) -> DetectionRecord:
        return DetectionRecord(box=box_from_dict(entry), sample_id=_require(entry, "sample_id"))

    return [_object(entry, f"record {i}", record) for i, entry in enumerate(_array(_require(data, "records"), "records"))]


def _numeric_column(values: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """``values`` as a float array of ``shape`` if every value is a finite JSON number."""
    array = np.array(values)
    if array.dtype.kind not in "iuf" or array.shape != shape:
        return None
    array = array.astype(float)
    if not np.isfinite(array).all():
        return None
    # numpy folds a JSON true or false among numbers into 1 or 0, so only
    # entries equal to 1 or 0 can hide one.
    suspects = (array == 0.0) | (array == 1.0)
    if suspects.any() and not all(map(is_real, np.array(values, dtype=object)[suspects])):
        return None
    return array


def _table_from_entries(entries: list) -> DetectionTable | None:
    """Column-wise parse of well-formed records; None if any record needs the per-record path."""
    n = len(entries)
    try:
        center = _numeric_column([e["center"] for e in entries], (n, 3))
        dims = _numeric_column([e["dims"] for e in entries], (n, 3))
        yaw = _numeric_column([e["yaw"] for e in entries], (n,))
        sample_ids = [e["sample_id"] for e in entries]
        class_ids = [e.get("class_id", DEFAULT_CLASS_ID) for e in entries]
        given = np.array(["score" in e for e in entries], dtype=bool)
        scores = _numeric_column([e["score"] for e in entries if "score" in e], (int(given.sum()),))
    except (KeyError, TypeError, ValueError):  # a missing key, a non-object record, a ragged array
        return None
    if center is None or dims is None or yaw is None or scores is None:
        return None
    if (dims < 0.0).any() or not ((scores >= 0.0) & (scores <= 1.0)).all():
        return None
    score = np.full(n, np.nan)
    score[given] = scores
    outside = ~((yaw > -math.pi) & (yaw <= math.pi))
    yaw[outside] = [wrap_angle(v) for v in yaw[outside].tolist()]
    try:
        table = DetectionTable.from_columns(sample_ids, class_ids, center, dims, yaw, score)
    except TypeError:  # an unhashable sample_id or class_id
        return None
    if not all(type(s) is str and s for s in table.sample_ids) or not all(type(c) is str for c in table.class_ids):
        return None
    return table


def table_from_dict(data: dict) -> DetectionTable:
    """Detection records as a ``DetectionTable``; the same records and errors as ``records_from_dict``.

    Well-formed files are parsed and validated column by column.  Any
    record the columns cannot take as it is (a missing key, a value of the
    wrong type or shape, a bool, string or null where a number belongs, a
    non-finite number, a negative extent, a score outside [0, 1], a
    non-string or empty id) sends the file through ``records_from_dict``,
    which raises its error for the first offending record.  Both paths
    accept exactly the same files; the per-record one also parses the few
    that numpy cannot hold as float columns (an integer beyond 64 bits, an
    empty ``records`` list).
    """
    _check_version(data, "records")
    if type(data.get("records")) is list:
        table = _table_from_entries(data["records"])
        if table is not None:
            return table
    return DetectionTable.from_records(records_from_dict(data))


# One record's end and the next one's start: a cut at its comma that both
# halves below accept lies between two entries of the top-level records array.
_RECORD_GAP = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


def records_cut(text: str, tail: int) -> int | None:
    """The comma of the first record gap at or after ``len(text) - tail``; None without one."""
    gap = _RECORD_GAP.search(text, max(len(text) - tail, 0))
    return None if gap is None else text.index(",", gap.start())


def head_records(head: str) -> DetectionTable | None:
    """The table of a detection file's text before a cut; None to parse it whole.

    ``head + "]}"`` parses only if the cut is in an array that is a value of
    the top-level object (a cut in a string leaves it unterminated, one in a
    nested array leaves the outer array open), and that array is the value
    of the last key read, so it is ``records`` when no other value is a list.
    An unsupported ``schema_version`` before the cut is declined too.
    """
    try:
        data = json.loads(head + "]}")
        if type(data.get("records")) is not list:
            return None
        _check_version(data, "records")
    except (ValueError, RecursionError):
        return None
    entries = data.pop("records")
    return None if any(type(value) is list for value in data.values()) else _table_from_entries(entries)


def tail_records(tail: str) -> DetectionTable | None:
    """The table of a detection file's text after a cut's comma; None to parse it whole.

    A later ``records`` key is declined: the whole file's parse would take
    its value.  So is an unsupported ``schema_version`` after the records.
    """
    try:
        entries, end = json.JSONDecoder().raw_decode("[" + tail)
        rest = json.loads('{"":0' + tail[end - 1 :])
        _check_version(rest, "records")
    except (ValueError, RecursionError):
        return None
    return None if "records" in rest else _table_from_entries(entries)


def run_config_from_dict(data: dict) -> RunConfig:
    """Parse a run config.

    Every key must be a field of its section's class (or ``schema_version``
    at the top level); an omitted key takes the field's default.
    """
    _check_version(data, "run config")
    # Each section's class is its RunConfig field's default factory.
    sections = {f.name: partial(_section, f.default_factory) for f in fields(RunConfig)}
    _check_keys(data, {"schema_version", *sections})
    return RunConfig(**{key: _object(data[key], key, build) for key, build in sections.items() if key in data})


def _ring_yaws(n_cameras: int, style: str) -> list[float]:
    if style == "ring":
        return [2.0 * math.pi * i / n_cameras for i in range(n_cameras)]
    # frontal: evenly spread over a forward arc
    spread = 0.6 * math.pi
    return [(-spread + 2.0 * spread * i / (n_cameras - 1)) for i in range(n_cameras)]


def generate_synthetic_scene(
    seed: int,
    n_cameras: int = 6,
    n_boxes: int = 12,
    rig_style: str = "ring",
) -> Scene:
    """Deterministic desk-scale scene: a camera rig plus ground-level boxes.

    Cameras sit on a small circle around the ego origin at roughly roof
    height, headings laid out by ``rig_style``, with focal lengths drawn
    inside the nuScenes ordinal scheme interval.  Boxes are vehicle-sized,
    on the ground, within +-50 m.  Randomness is keyed by (seed, kind,
    index) so generation order cannot change the output.
    """
    n_cameras = whole_number("n_cameras", n_cameras, 1)
    if n_cameras not in (5, 6):
        raise ValueError(f"n_cameras must be 5 or 6, got {n_cameras}")
    n_boxes = whole_number("n_boxes", n_boxes, 0)
    if rig_style not in RIG_STYLES:
        raise ValueError(f"unsupported rig_style {shown(rig_style)}; supported: {RIG_STYLES}")
    seed = whole_number("seed", seed, 0)
    scheme = DATASET_SCHEMES["nuscenes"]

    cameras = []
    for index, yaw in enumerate(_ring_yaws(n_cameras, rig_style)):
        rng = np.random.default_rng([seed, 0, index])
        focal = float(rng.uniform(scheme.alpha, scheme.beta))
        width, height = 704, 256
        intr = Intrinsics(
            fx=focal,
            fy=focal,
            px=width / 2.0 + float(rng.uniform(-2.0, 2.0)),
            py=height / 2.0 + float(rng.uniform(-2.0, 2.0)),
            width=width,
            height=height,
        )
        pose = Pose(
            yaw=yaw,
            pitch=float(rng.uniform(-0.03, 0.0)),
            roll=float(rng.uniform(-0.005, 0.005)),
        )
        # camera center on a 1.5 m circle at 1.6 m height; t = -R @ center
        center = np.array([1.5 * math.cos(yaw), 1.5 * math.sin(yaw), 1.6])
        translation = -(ego_to_camera_rotation(pose) @ center)
        pose = replace(pose, translation=tuple(float(v) for v in translation))
        cameras.append(CameraModel(intr, pose, f"cam_{index:02d}"))

    boxes = []
    for index in range(n_boxes):
        rng = np.random.default_rng([seed, 1, index])
        radius = float(rng.uniform(6.0, 45.0))
        bearing = float(rng.uniform(-math.pi, math.pi))
        dims = (
            float(rng.uniform(3.8, 5.2)),
            float(rng.uniform(1.6, 2.1)),
            float(rng.uniform(1.4, 1.9)),
        )
        boxes.append(
            Box3D(
                center=(radius * math.cos(bearing), radius * math.sin(bearing), dims[2] / 2.0),
                dims=dims,
                yaw=float(rng.uniform(-math.pi, math.pi)),
                class_id="vehicle",
            )
        )

    return Scene(scene_id=f"synthetic-{seed}", cameras=tuple(cameras), boxes=tuple(boxes))


def render_pattern_image(width: int, height: int, camera_index: int = 0) -> np.ndarray:
    """Deterministic textured test raster (uint8 graymap) for warp pipelines."""
    x = np.arange(whole_number("width", width, 1))
    y = np.arange(whole_number("height", height, 1))[:, None]
    pattern = (3 * x + 5 * y + 17 * whole_number("camera_index", camera_index, 0)) % 251
    return pattern.astype(np.uint8)
