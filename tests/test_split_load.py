"""``evaluate`` parses the larger detection file on two processes, split between two records.

Every case is checked against the whole-file path: ``_load_tables`` without
``os.fork`` parses each file whole, as ``_parse_file(path, table_from_dict)``.
The split must give the same tables, field by field, or the same error.
"""

import contextlib
import io
import json
import os
import re
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bevkit.cli
from bevkit.cli import main
from bevkit.metrics import DetectionTable
from bevkit.scene import head_records, joined_records, records_cut, table_from_dict, tail_records

BENCH = Path(__file__).resolve().parents[1] / "bench"
GAP = re.compile(r"\}[ \t\n\r]*,[ \t\n\r]*\{")


def rec(i, **changes):
    record = {"sample_id": f"s{i % 3}", "center": [10.0 + i, 0.5 * i, 0.75], "dims": [4.0, 2.0, 1.5]}
    return {**record, "yaw": 0.1 * i, "score": 0.05 * (i + 1), **changes}


SMALL = json.dumps({"records": [rec(0)]})


def columns(table: DetectionTable) -> list:
    """Every field of ``table``; arrays by dtype, shape and bytes, so NaN compares equal to itself."""
    values = [getattr(table, f.name) for f in fields(table)]
    return [(v.dtype.str, v.shape, v.tobytes()) if hasattr(v, "dtype") else v for v in values]


def loaded(paths) -> list | str:
    """The two files' columns as ``_load_tables`` gives them, or the error line ``main`` prints."""
    try:
        return [columns(table) for table in bevkit.cli._load_tables(paths)]
    except ValueError as exc:
        return f"error: {exc}"


@contextlib.contextmanager
def split_watch():
    """The outcome of each split tried: True where both halves were joined, False where it declined."""
    tried = []
    real = bevkit.cli.joined_records

    def watch(head, tail):
        table = real(head, tail)
        tried.append(table is not None)
        return table

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bevkit.cli, "joined_records", watch)
        yield tried


def split_and_whole(paths):
    """``loaded(paths)`` with the split, the splits tried, and ``loaded(paths)`` without ``os.fork``."""
    with split_watch() as tried:
        split = loaded(paths)
    with pytest.MonkeyPatch.context() as patch:
        patch.delattr(os, "fork")
        whole = loaded(paths)
    return split, tried, whole


def write_split(root, big_text, at, big="pred", small=SMALL):
    """Write ``big_text`` as the ``big`` file and ``small``, padded with spaces, so the cut search starts at ``at``.

    The tail is (big - small) / 2 characters, so a small file of 2 at - len(big_text) puts the search at ``at``.
    """
    size = 2 * at - len(big_text)
    assert len(small) <= size < len(big_text)
    paths = {"gt": root / "gt.json", "pred": root / "pred.json"}
    paths[big].write_text(big_text, encoding="utf-8")
    paths["pred" if big == "gt" else "gt"].write_text(small.ljust(size), encoding="utf-8")
    return str(paths["gt"]), str(paths["pred"])


def last_gap(text):
    return [gap.start() for gap in GAP.finditer(text)][-1]


RECORDS = [rec(i) for i in range(8)]


def compact(data):
    return json.dumps(data, separators=(",", ":"))


def gap_in_first_array(text):
    """The last record gap before the first array of objects closes."""
    return last_gap(text[: text.index("}]")])


VERSION_AFTER = compact({"records": RECORDS, "schema_version": 1})


# name -> (big file text, where the cut search starts, whether the split is used)
CASES = {
    "gap-inside-sample-id": (
        compact({"records": [*RECORDS[:6], rec(6, sample_id="a},{b"), rec(7)]}),
        lambda text: text.index("},{b"),
        False,
    ),
    "version-before-records": (compact({"schema_version": 1, "records": RECORDS}), last_gap, True),
    "version-after-records": (compact({"records": RECORDS, "schema_version": 1}), last_gap, True),
    "bad-version-before-good-after": ('{"schema_version":2,' + VERSION_AFTER[1:], last_gap, True),
    "good-version-before-bad-after": ('{"schema_version":1,' + VERSION_AFTER[1:].replace(':1}', ':2}'), last_gap, False),
    "second-records-after": (
        compact({"records": RECORDS})[:-1] + ',"records":' + compact(RECORDS[:2]) + "}",
        gap_in_first_array,
        False,
    ),
    "extra-before-records-cut-in-records": (compact({"extra": [{}, {}], "records": RECORDS}), last_gap, False),
    "extra-after-records-cut-in-records": (compact({"records": RECORDS, "extra": [{}, {}]}), gap_in_first_array, True),
    "extra-after-records-cut-in-extra": (compact({"records": RECORDS, "extra": [{}, {}]}), last_gap, False),
    "record-like-extra-cut-in-extra": (compact({"records": RECORDS[:6], "extra": RECORDS[6:]}), last_gap, False),
    "trailing-comma": (compact({"records": RECORDS})[:-1] + ",}", last_gap, False),
    "pretty-printed": (json.dumps({"schema_version": 1, "records": RECORDS}, indent=2), last_gap, True),
    "crlf-and-tabs": (json.dumps({"records": RECORDS}, indent="\t").replace("\n", "\r\n"), last_gap, True),
    "bad-record-in-head-and-tail": (compact({"records": [rec(0), rec(1, score=1.5), *RECORDS[2:7], 5]}), last_gap, False),
    "bad-record-in-tail": (compact({"records": [*RECORDS[:7], 5]}), last_gap, False),
    "huge-int-in-tail": (compact({"records": [*RECORDS[:7], rec(7, yaw=2**70)]}), last_gap, False),
}


@pytest.mark.parametrize("big", ["pred", "gt"])
@pytest.mark.parametrize("name", sorted(CASES))
def test_same_tables_or_error_as_the_whole_file(tmp_path, name, big):
    text, start, used = CASES[name]
    paths = write_split(tmp_path, text, start(text), big)
    split, tried, whole = split_and_whole(paths)
    assert split == whole
    assert tried == [used]


@pytest.mark.parametrize(
    "name, message",
    [
        ("bad-version-before-good-after", None),
        ("good-version-before-bad-after", "unsupported records schema_version 2"),
        ("trailing-comma", "json"),
        ("bad-record-in-head-and-tail", "score must be in [0, 1], got 1.5"),
        ("bad-record-in-tail", "record 7 must be an object, got number"),
    ],
)
def test_error_line_names_the_first_fault(tmp_path, capsys, name, message):
    text, start, _ = CASES[name]
    gt, pred = write_split(tmp_path, text, start(text))
    code = main(["evaluate", "--gt", gt, "--pred", pred, "--output-dir", str(tmp_path / "out")])
    if message is None:
        assert code == 0
        return
    if message == "json":
        with pytest.raises(ValueError) as error:
            json.loads(text)
        message = str(error.value)
    assert (code, capsys.readouterr().err) == (2, f"error: {pred}: {message}\n")


@pytest.mark.parametrize(
    "gt_text, message",
    [
        # --gt is the larger file, its split declined by a bad record in its head
        (compact({"records": [rec(0), 5, *RECORDS[2:]]}), "record 1 must be an object, got number"),
        (compact({"records": RECORDS})[:-1] + ",}", "json"),
        # --gt's split is used; --pred's error is raised after it
        (compact({"records": RECORDS}), None),
    ],
    ids=["gt-record", "gt-json", "gt-good"],
)
def test_gt_error_first_when_gt_is_larger(tmp_path, capsys, gt_text, message):
    bad_pred = json.dumps({"records": [rec(0, center=[1.0, 2.0])]})
    gt, pred = write_split(tmp_path, gt_text, last_gap(gt_text), big="gt", small=bad_pred)
    split, tried, whole = split_and_whole((gt, pred))
    assert split == whole
    assert tried == [message is None]
    assert main(["evaluate", "--gt", gt, "--pred", pred, "--output-dir", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    if message is None:
        assert err == f"error: {pred}: center must be 3 finite values, got (1.0, 2.0)\n"
    elif message == "json":
        with pytest.raises(ValueError) as error:
            json.loads(gt_text)
        assert err == f"error: {gt}: {error.value}\n"
    else:
        assert err == f"error: {gt}: {message}\n"


@pytest.mark.parametrize("dies_in", ["small-file", "tail"])
def test_reader_that_dies_names_the_file_it_read(tmp_path, capsys, monkeypatch, dies_in):
    text = compact({"records": RECORDS})
    gt, pred = write_split(tmp_path, text, last_gap(text))
    real = bevkit.cli._load_json
    if dies_in == "tail":
        monkeypatch.setattr(bevkit.cli, "tail_records", lambda tail: os._exit(3))
    else:
        monkeypatch.setattr(bevkit.cli, "_load_json", lambda path: os._exit(3) if path == gt else real(path))
    assert main(["evaluate", "--gt", gt, "--pred", pred, "--output-dir", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {gt}: the process reading it exited with status 3 and no result\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_split_used_on_the_benchmark_inputs(tmp_path, monkeypatch):
    """The eval-crowded seed-1 files: pred.json splits about 72 / 28 and the tables equal the whole parse."""
    monkeypatch.syspath_prepend(str(BENCH))
    import inputs

    inputs.make_inputs(tmp_path, 1, "eval-crowded")
    text = (tmp_path / "pred.json").read_text(encoding="utf-8")
    assert 0.70 < records_cut(text, (len(text) - (tmp_path / "gt.json").stat().st_size) // 2) / len(text) < 0.75
    split, tried, whole = split_and_whole((str(tmp_path / "gt.json"), str(tmp_path / "pred.json")))
    assert tried == [True]
    assert split == whole


# --- generated detection texts ----------------------------------------------

WHITESPACE = st.text(alphabet=" \t\n\r", max_size=2)
NESTED = [[{}, {"a": [{}, {}]}], {"b": [{}, {}]}]


class Pairs(list):
    """A JSON object as its (key, value) pairs, in order, duplicate keys allowed."""


def dumped(draw, value) -> str:
    """``value`` as JSON text with whitespace drawn around every token."""

    def ws():
        return draw(WHITESPACE)

    if isinstance(value, Pairs):
        members = [f"{ws()}{json.dumps(key)}{ws()}:{ws()}{dumped(draw, item)}{ws()}" for key, item in value]
        return "{" + ",".join(members) + ws() + "}"
    if isinstance(value, list):
        return "[" + ",".join(ws() + dumped(draw, item) + ws() for item in value) + ws() + "]"
    return json.dumps(value)


@st.composite
def records(draw, mode):
    """A detection record: "clean" ones hold no record gap; one in four "faulty" ones holds a value the columns reject."""
    number = st.floats(-60, 60) | st.integers(-60, 60)
    pairs = [
        ("sample_id", draw(st.sampled_from(["s0", "s1"] if mode == "clean" else ["s0", "a},{b", "c} , {d"]))),
        ("center", draw(st.lists(number, min_size=3, max_size=3))),
        ("dims", draw(st.lists(st.floats(0, 5), min_size=3, max_size=3))),
        ("yaw", draw(number)),
        ("score", draw(st.floats(0, 1))),
    ]
    if mode == "faulty" and draw(st.integers(0, 3)) == 0:
        index = draw(st.integers(0, len(pairs) - 1))
        pairs[index] = (pairs[index][0], draw(st.sampled_from(["", [1.0, 2.0], -1.0, 1.5, None])))
    if draw(st.booleans()):
        pairs.append(("class_id", draw(st.sampled_from(["vehicle", "pedestrian"]))))
    if mode != "clean" and draw(st.booleans()):
        pairs.append(("nested", NESTED))
    pairs = Pairs(draw(st.permutations(pairs)))
    if draw(st.booleans()):  # a duplicate key: the last value is read
        pairs.insert(0, (draw(st.sampled_from(pairs))[0], "overwritten"))
    return pairs


@st.composite
def detection_texts(draw):
    """A detection file's text and its mode: "clean" (valid, every gap between records), "tricky" (valid records, gaps
    in strings and in other top-level arrays, a later ``records``) or "faulty" (also bad records and versions)."""
    mode = draw(st.sampled_from(["clean", "tricky", "faulty"]))
    members = [("records", draw(st.lists(records(mode), min_size=2 if mode == "clean" else 1, max_size=6)))]
    versions = st.sampled_from([1, 2] if mode == "faulty" else [1])
    members += [("schema_version", draw(versions)) for _ in range(draw(st.integers(0, 2)))]
    if mode != "clean":
        others = [("extra", NESTED), ("extra", [draw(records("clean")) for _ in range(2)]), ("records", [{}]), ("extra", 5)]
        members += draw(st.lists(st.sampled_from(others), max_size=2))
    text = draw(WHITESPACE) + dumped(draw, Pairs(draw(st.permutations(members)))) + draw(WHITESPACE)
    return mode, text


@settings(max_examples=150, derandomize=True, deadline=None)
@given(drawn=detection_texts())
def test_every_cut_declines_or_gives_the_whole_table(drawn):
    mode, text = drawn
    clean = mode == "clean"
    cuts = [gap.start() for gap in GAP.finditer(text)]
    assert cuts or not clean
    for at in cuts:
        comma = records_cut(text, len(text) - at)
        table = joined_records(head_records(text[:comma]), tail_records(text[comma + 1 :]))
        if clean:
            assert table is not None
        if table is not None:
            assert columns(table) == columns(table_from_dict(json.loads(text)))


@settings(max_examples=40, derandomize=True, deadline=None)
@given(drawn=detection_texts(), big=st.sampled_from(["gt", "pred"]), data=st.data())
def test_cli_prints_what_the_whole_file_path_prints(drawn, big, data):
    _, text = drawn
    cuts = [gap.start() for gap in GAP.finditer(text)]
    at = data.draw(st.sampled_from(cuts), label="cut") if cuts else len(text) - 1
    # leading whitespace that puts the cut in the second half, where a small file can reach it
    pad = max(0, len(SMALL) + 1 + len(text) - 2 * at)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        gt, pred = write_split(root, " " * pad + text, pad + at, big)
        runs = []
        for fork in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not fork:
                    patch.delattr(os, "fork")
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    code = main(["evaluate", "--gt", gt, "--pred", pred, "--output-dir", str(root / "out")])
                report = root / "out" / "metric_report.json"
                runs.append((code, out.getvalue(), err.getvalue(), report.read_bytes() if report.exists() else None))
                report.unlink(missing_ok=True)
        assert runs[0] == runs[1]
