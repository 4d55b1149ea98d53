"""One benchmark child process: exactly one invocation of one workload.

Usage: python3 worker.py SPEC.json

Each invocation runs in a fresh interpreter, as a user's CLI call does.
Mode "time" imports bevkit.cli (timing the import) and calls its main()
in-process, untraced.  Mode "trace" runs the traced replay instead and
writes its spans and counters.  The child prints nothing; it writes its
result, with its own peak resident memory, to the JSON file the spec names.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def run(spec: dict) -> dict:
    result: dict = {"problems": []}
    if spec["mode"] == "time":
        begin = time.perf_counter()
        from bevkit.cli import main

        result["import_s"] = time.perf_counter() - begin
        stdout, stderr = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(spec["argv"])
        except Exception:  # a crashing invocation is a failed invocation, not a crashed run
            code = None
            result["problems"].append(traceback.format_exc(limit=3))
        result["duration_s"] = time.perf_counter() - begin
        if code not in (0, None):
            result["problems"].append(f"exit code {code}: {stderr.getvalue().strip()}")
    else:
        from spans import Tracer, replay_augment, replay_evaluate

        tracer = Tracer(spec["invocation"])
        in_dir, out = Path(spec["in_dir"]), Path(spec["out_dir"])
        try:
            if spec["workload"].startswith("rig-"):
                replay_augment(tracer, in_dir / "scene.json", spec["seed"], spec["workers"], out)
            else:
                replay_evaluate(tracer, in_dir / "gt.json", in_dir / "pred.json", spec["workers"], out)
        except Exception:
            result["problems"].append(traceback.format_exc(limit=3))
        root = next(s for s in tracer.spans if s.get("parent", 0) is None)
        result["duration_s"] = root["end"] - root["start"]
        tracer.dump(Path(spec["trace_file"]))
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return result


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    sys.path[:0] = [spec["bench"], str(Path(spec["root"]) / "src")]
    result = run(spec)
    Path(spec["result"]).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
