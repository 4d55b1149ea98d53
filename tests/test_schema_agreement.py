"""The scene, detection and run-config schemas agree with the parsers behind the CLI.

Each case changes one field of a schema-valid file (a bool, a numeric
string, a null, a nested list, a wrong length, an object or a string for an
array, a non-string id, a camera id or image path that is not a file name, a missing
key, a negative or out-of-range value, an integer or a huge integer for a
number) and runs the file through ``homography``, ``evaluate`` or
``--config``.  The CLI must exit 2 with a one-line ``error: ...`` exactly
when jsonschema rejects the file.  JSON Schema cannot state non-finite
numbers or rules across fields, so those hold one way only: a NaN or an
infinity always exits 2, and a file the schema accepts may exit 2 only
with one of the ``ONE_WAY`` messages.  Any other error in a camera, box or
record names that entry (``camera 1: ...``) right after the file path.
Which camera, box, record or array entry a case changes is drawn from a
seeded generator.
"""

import json
import math
import random
from pathlib import Path

import pytest

from bevkit.cli import main
from bevkit.scene import generate_synthetic_scene, scene_to_dict

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"

# The rules the schemas cannot state, by the CLI's message for each.
ONE_WAY = (
    "outside [0, ",  # px < width, py < height
    "camera ids must be unique",
    "image paths for",  # one image path per camera
    "distance thresholds must be ascending",
    "not among",  # tp_threshold is one of the distance thresholds
    "has no score",  # predictions carry a score, ground truth need not
)

# The word an error in entry i of each array names it by: "camera i", "box i", "record i".
ENTRIES = {"cameras": "camera", "boxes": "box", "records": "record"}


def valid_scene() -> dict:
    scene = scene_to_dict(generate_synthetic_scene(4, 5, 3))
    scene["cameras"] = scene["cameras"][:2]
    scene["image_paths"] = [f"images/{cam['camera_id']}.pgm" for cam in scene["cameras"]]
    for box, score in zip(scene["boxes"], (0.25, 0.5, 0.75)):
        box["score"] = score
    return scene


def record(sample_id, x, score=None, class_id="vehicle") -> dict:
    data = {"sample_id": sample_id, "center": [x, 1.0, 0.75], "dims": [4.0, 2.0, 1.5], "yaw": 0.3, "class_id": class_id}
    if score is not None:
        data["score"] = score
    return data


GROUND_TRUTH = {"schema_version": 1, "records": [record("s0", 10.0), record("s0", 20.0), record("s1", 30.0)]}
PREDICTIONS = {
    "schema_version": 1,
    "records": [record("s0", 10.2, 0.9), record("s0", 21.0, 0.6), record("s1", 30.5, 0.8, "truck")],
}
RUN_CONFIG = {
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


def mutations(value, key, rng: random.Random):
    """(name, replacement) pairs for one node of a file; ``key`` is the node's own key."""
    yield "null", None
    yield "bool", rng.choice([True, False])
    yield "nested-list", [value]
    if isinstance(value, list):
        yield "wrong-length-short", value[:-1]
        yield "wrong-length-long", value + value[-1:]
        # Iterated, an empty object reads as no entries and a string as one
        # entry per character.
        yield "object-for-array", {}
        yield "string-for-array", "x" * len(value)
    elif isinstance(value, str):
        yield "non-string-id", 7
        yield "empty-string", ""
        if key == "camera_id":
            yield "path", "../escaped"
            yield "backslash", "a\\b"
            yield "dot-dot", ".."
        if key == "camera_id" or isinstance(key, int):  # a camera id or an image path
            yield "nul", "a\x00b"
            yield "surrogate", "a\ud800b"
    elif isinstance(value, int):
        yield "numeric-string", str(value)
        yield "fraction", value + 0.5
        yield "negative", -1
        yield "huge-integer", 2**70
    elif isinstance(value, float):
        yield "numeric-string", repr(value)
        yield "integer", int(value)
        yield "negative", -abs(value) - 1.0
        yield "huge-integer", 2**70
        yield "non-finite", rng.choice([math.nan, math.inf, -math.inf])
        if key == "score":
            yield "out-of-range", 1.5


def cases(kind: str, document: dict, seed: int):
    """One case per (node, mutation); one seeded entry of each array is descended into."""
    rng = random.Random(seed)
    found = []

    def walk(node, path):
        key = path[-1] if path else None
        for name, replacement in mutations(node, key, rng):
            found.append((kind, path, name, replacement))
        if isinstance(node, dict):
            for child in node:
                found.append((kind, path + (child,), "missing-key", None))
                walk(node[child], path + (child,))
        elif isinstance(node, list) and node:
            index = rng.randrange(len(node))
            walk(node[index], path + (index,))

    walk(document, ())
    return found


DOCUMENTS = {"scene": valid_scene(), "detections": PREDICTIONS, "run_config": RUN_CONFIG}
SCHEMA_FILES = {"scene": "scene.schema.json", "detections": "detections.schema.json", "run_config": "run_config.schema.json"}
CASES = [case for seed, kind in enumerate(DOCUMENTS, 1) for case in cases(kind, DOCUMENTS[kind], seed)]


def mutated(document: dict, path: tuple, name: str, replacement):
    if not path:
        return replacement
    copy = json.loads(json.dumps(document))
    parent = copy
    for step in path[:-1]:
        parent = parent[step]
    if name == "missing-key":
        del parent[path[-1]]
    else:
        parent[path[-1]] = replacement
    return copy


def case_id(case) -> str:
    kind, path, name, _ = case
    return f"{kind}:{'/'.join(map(str, path)) or '.'}:{name}"


@pytest.mark.parametrize("case", CASES, ids=[case_id(case) for case in CASES])
def test_cli_rejects_exactly_what_the_schema_rejects(tmp_path, capsys, case):
    kind, path, name, replacement = case
    document = mutated(DOCUMENTS[kind], path, name, replacement)
    schema = json.loads((SCHEMAS / SCHEMA_FILES[kind]).read_text())
    schema_rejects = not jsonschema.Draft202012Validator(schema).is_valid(document)

    file = tmp_path / f"{kind}.json"
    file.write_text(json.dumps(document), encoding="utf-8")
    out = ["--output-dir", str(tmp_path / "out")]
    if kind == "scene":
        argv = ["homography", "--scene", str(file), *out]
    else:
        gt, pred = tmp_path / "gt.json", tmp_path / "pred.json"
        gt.write_text(json.dumps(GROUND_TRUTH), encoding="utf-8")
        pred.write_text(json.dumps(PREDICTIONS), encoding="utf-8")
        argv = ["evaluate", "--gt", str(gt), "--pred", str(file if kind == "detections" else pred), *out]
        if kind == "run_config":
            argv += ["--config", str(file)]

    code = main(argv)
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
        assert not schema_rejects, "the CLI accepts a file the schema rejects"
        assert name != "non-finite", "the CLI accepts a non-finite number"
    else:
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
        one_way = any(rule in err for rule in ONE_WAY)
        if not schema_rejects and name != "non-finite":
            assert one_way, f"the CLI rejects a file the schema accepts: {err}"
        if len(path) > 1 and path[0] in ENTRIES and not one_way:
            assert err.startswith(f"error: {file}: {ENTRIES[path[0]]} {path[1]}"), err
